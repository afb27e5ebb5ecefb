//! The `diag` binary's environment handling: the usage text and the
//! `FIGARO_KERNEL` error list exactly the kernels that exist, the
//! removed `parallel` and `sampled` names fail loudly instead of running, and
//! every malformed `FIGARO_*` value, and every set `FIGARO_*` name the
//! binary does not know, is an error naming its variable, not a panic or
//! a silent fallback.

use std::io;
use std::process::{Command, Output};

const CHOICES: &str = "event|reference";

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
    for removed in ["parallel", "THREADS", "sampled"] {
        assert!(!usage.contains(removed), "{usage}");
    }
    Ok(())
}

#[test]
fn every_trace_category_the_help_names_parses() -> io::Result<()> {
    let out = diag(&["--help"], &[])?;
    let usage = String::from_utf8_lossy(&out.stderr);
    let list = usage
        .split_once("comma list of ")
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .unwrap_or_default();
    assert!(!list.is_empty(), "the help names no trace categories: {usage}");
    let named: Vec<&str> = list.split(',').collect();
    let all: Vec<&str> = figaro_telemetry::trace::CATEGORIES.iter().map(|c| c.name()).collect();
    assert_eq!(named, all, "{usage}");
    for spec in named.iter().copied().chain([list]) {
        let parsed = figaro_telemetry::parse_trace_spec(&format!("trace.json:{spec}"));
        assert!(parsed.is_ok(), "`{spec}` from the help does not parse: {parsed:?}");
    }
    Ok(())
}

#[test]
fn removed_kernel_names_abort_with_the_valid_list() -> io::Result<()> {
    for name in ["parallel", "par", "sampled", "sampled:10,20"] {
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
        // The retired tuned schedulers are bad values, not fallbacks.
        ("FIGARO_SCHED", "frfcfs-cap4"),
        ("FIGARO_SCHED", "wdrain48-8"),
        ("FIGARO_LOAD", "poisson"),
        ("FIGARO_SCALE", "huge"),
        ("FIGARO_FULL_SWEEPS", "yes"),
        ("FIGARO_STATS_INTERVAL", "0"),
        ("FIGARO_TRACE", "trace.json:relocs"),
        ("FIGARO_PROFILE", "true"),
        // Removed knobs and typos are unknown names, not no-ops.
        ("FIGARO_WARMUP", "5000"),
        ("FIGARO_SNAPSHOT_DIR", "snaps"),
        ("FIGARO_MAP", "chfirst"),
        ("FIGARO_PAGEMAP", "rand7"),
        ("FIGARO_SHCED", "fcfs"),
    ];
    for (name, value) in table {
        let out = diag(&["mcf", "base", "tiny"], &[(name, value)])?;
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}={value} must not run: {err}");
        assert!(err.lines().any(|l| l.contains(name)), "{name}={value}: {err}");
        assert!(!err.contains("panicked"), "{name}={value}: {err}");
    }
    Ok(())
}
