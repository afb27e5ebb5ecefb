//! The `diag` binary's environment handling: the usage text and the
//! `FIGARO_KERNEL` error list exactly the kernels that exist, the
//! removed `parallel`/`par` names fail loudly instead of running, and
//! every malformed `FIGARO_*` value is an error naming its variable, not
//! a panic or a silent fallback.

use std::io;
use std::process::{Command, Output};

const CHOICES: &str = "event|reference|sampled[:W,S]";

/// Runs `diag` with every inherited `FIGARO_*` variable removed and
/// `vars` set.
fn diag(args: &[&str], vars: &[(&str, &str)]) -> io::Result<Output> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_diag"));
    cmd.args(args);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("FIGARO_") {
            cmd.env_remove(name);
        }
    }
    cmd.envs(vars.iter().copied());
    cmd.output()
}

#[test]
fn help_lists_only_the_existing_kernels() -> io::Result<()> {
    let out = diag(&["--help"], &[])?;
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(usage.contains(&format!("FIGARO_KERNEL={CHOICES} ")), "{usage}");
    assert!(!usage.contains("parallel") && !usage.contains("THREADS"), "{usage}");
    Ok(())
}

#[test]
fn removed_kernel_names_abort_with_the_valid_list() -> io::Result<()> {
    for name in ["parallel", "par"] {
        let out = diag(&["mcf", "base", "tiny"], &[("FIGARO_KERNEL", name)])?;
        assert!(!out.status.success(), "FIGARO_KERNEL={name} must not run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unrecognized FIGARO_KERNEL `{name}` (use `{CHOICES}`)")),
            "{err}"
        );
    }
    Ok(())
}

#[test]
fn bad_env_values_exit_with_an_error_naming_the_variable() -> io::Result<()> {
    let table = [
        ("FIGARO_KERNEL", "spooled"),
        ("FIGARO_SCHED", "fifo"),
        ("FIGARO_MAP", "diagonal"),
        ("FIGARO_PAGEMAP", "color3"),
        ("FIGARO_LOAD", "poisson"),
        ("FIGARO_WARMUP", "soon"),
        ("FIGARO_SCALE", "huge"),
        ("FIGARO_FULL_SWEEPS", "yes"),
        ("FIGARO_STATS_INTERVAL", "0"),
        ("FIGARO_TRACE", "trace.json:relocs"),
        ("FIGARO_PROFILE", "true"),
    ];
    for (name, value) in table {
        let out = diag(&["mcf", "base", "tiny"], &[(name, value)])?;
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}={value} must not run");
        assert!(err.lines().any(|l| l.contains(name)), "{name}={value}: {err}");
        assert!(!err.contains("panicked"), "{name}={value}: {err}");
    }
    Ok(())
}
