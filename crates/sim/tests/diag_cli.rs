//! The `diag` binary's kernel vocabulary: the usage text and the
//! `FIGARO_KERNEL` error list exactly the kernels that exist, and the
//! removed `parallel`/`par` names fail loudly instead of running.

use std::io;
use std::process::{Command, Output};

const CHOICES: &str = "event|reference|sampled[:W,S]";

fn diag(args: &[&str], kernel: Option<&str>) -> io::Result<Output> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_diag"));
    cmd.args(args);
    match kernel {
        Some(k) => cmd.env("FIGARO_KERNEL", k),
        None => cmd.env_remove("FIGARO_KERNEL"),
    };
    cmd.output()
}

#[test]
fn help_lists_only_the_existing_kernels() -> io::Result<()> {
    let out = diag(&["--help"], None)?;
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(usage.contains(&format!("FIGARO_KERNEL={CHOICES} ")), "{usage}");
    assert!(!usage.contains("parallel") && !usage.contains("THREADS"), "{usage}");
    Ok(())
}

#[test]
fn removed_kernel_names_abort_with_the_valid_list() -> io::Result<()> {
    for name in ["parallel", "par"] {
        let out = diag(&["mcf", "base", "tiny"], Some(name))?;
        assert!(!out.status.success(), "FIGARO_KERNEL={name} must not run");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unrecognized FIGARO_KERNEL `{name}` (use `{CHOICES}`)")),
            "{err}"
        );
    }
    Ok(())
}
