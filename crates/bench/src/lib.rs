//! # figaro-bench — the paper-reproduction benchmark harness
//!
//! One bench binary, `figaro`, regenerates every table, figure and
//! subsystem record of the paper's evaluation section. Each of its
//! [`ENTRIES`] prints the measured series next to the paper's reported
//! values; name the ones to run, or none to run them all:
//!
//! ```bash
//! cargo bench --bench figaro -- fig07_single_core tab2_benchmarks
//! ```
//!
//! One invocation builds one [`Runner`] ([`bench_runner`]) and runs every
//! named entry on it. Its in-process memo makes figures built from the
//! same runs (7/9/10/11 and 8/9/10/11) cheap after the first one; nothing
//! is kept between invocations, so a result never outlives the code that
//! computed it.
//!
//! Environment knobs, parsed once by [`env()`] (a malformed value stops
//! the bench with a message naming the variable):
//!
//! * `FIGARO_SCALE` = `tiny` | `small` (default) | `full` — instructions
//!   per core;
//! * `FIGARO_FULL_SWEEPS=1` — run the sweep figures (12–15) over the
//!   full set instead of the representative subset;
//! * `FIGARO_MC_ITERS` — iterations of the §4.2 RELOC Monte-Carlo
//!   analysis (`sec42_reloc_latency`, default 20 000);
//! * `FIGARO_SCHED` = `frfcfs` (default) | `fcfs`, `FIGARO_KERNEL`,
//!   `FIGARO_LOAD` — runner overrides for the figure entries (see the
//!   README's env table).
//!   Each run's memo key covers its whole configuration, so an override
//!   never reuses another configuration's results.

use std::path::PathBuf;
use std::time::Instant;

use figaro_sim::runner::Scale;
use figaro_sim::{EnvConfig, Runner};

/// The `figaro` bench binary's entry names, in the order a run with no
/// names executes them.
pub const ENTRIES: [&str; 17] = [
    "fig07_single_core",
    "fig08_eight_core",
    "fig09_cache_hit_rate",
    "fig10_row_hit_rate",
    "fig11_energy",
    "fig12_cache_capacity",
    "fig13_segment_size",
    "fig14_replacement",
    "fig15_insertion",
    "tab1_config",
    "tab2_benchmarks",
    "mt_workloads",
    "sec42_reloc_latency",
    "sec6_rowhammer",
    "tab_overhead",
    "serving_sweep",
    "telemetry",
];

/// The entries of `names` a bench invocation with arguments `args`
/// (program name excluded) runs, in the order given. Cargo's own
/// `--bench` flag is ignored; no names selects every entry; `--test`,
/// `--list` or `--format` (a `cargo test`-style launch) selects none.
///
/// # Errors
///
/// An argument that names no entry: the message names it and lists the
/// valid names.
pub fn select<'a>(args: &[impl AsRef<str>], names: &[&'a str]) -> Result<Vec<&'a str>, String> {
    let args: Vec<&str> = args.iter().map(AsRef::as_ref).filter(|&a| a != "--bench").collect();
    if args.iter().any(|a| matches!(*a, "--test" | "--list" | "--format")) {
        return Ok(Vec::new());
    }
    if args.is_empty() {
        return Ok(names.to_vec());
    }
    args.iter()
        .map(|&arg| {
            names.iter().copied().find(|&n| n == arg).ok_or_else(|| {
                format!("unknown bench entry `{arg}`; valid names: {}", names.join(" "))
            })
        })
        .collect()
}

/// Workspace-root path for a bench artifact (`BENCH_*.json`/`.csv`).
/// Bench binaries run with the *package* directory as cwd, so relative
/// paths would scatter artifacts under `crates/bench/`; the root is
/// found at run time ([`figaro_sim::workspace_root`]), so a copy of the
/// workspace writes into the copy.
///
/// # Panics
///
/// Panics if no workspace root lies at or above the current directory.
#[must_use]
pub fn artifact_path(name: &str) -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = figaro_sim::workspace_root(&cwd).unwrap_or_else(|| {
        panic!("no workspace root for bench artifacts at or above {}", cwd.display())
    });
    root.join(name)
}

/// The parsed `FIGARO_*` environment; a malformed variable prints its
/// error and exits with status 2.
#[must_use]
pub fn env() -> EnvConfig {
    EnvConfig::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Builds the runner one bench invocation shares across its entries,
/// with the environment's overrides applied.
#[must_use]
pub fn bench_runner() -> Runner {
    let env = env();
    env.apply(Runner::new(env.scale_or(Scale::Small)))
}

/// Prints the standard header of the entry `name`.
pub fn header(name: &str, scale: Scale) {
    println!("--- {name} (scale: {}) ---", scale.label());
}

/// Runs `f`, printing its wall-clock duration.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let r = f();
    println!("[{label}: {:.1}s]", start.elapsed().as_secs_f64());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_names_are_unique() {
        for (i, name) in ENTRIES.iter().enumerate() {
            assert!(!ENTRIES[..i].contains(name), "duplicate entry `{name}`");
        }
    }

    #[test]
    fn no_names_selects_every_entry_in_table_order() {
        assert_eq!(select(&["--bench"], &ENTRIES), Ok(ENTRIES.to_vec()));
        assert_eq!(select(&[] as &[&str], &ENTRIES), Ok(ENTRIES.to_vec()));
    }

    #[test]
    fn names_select_exactly_those_entries_in_the_order_given() {
        assert_eq!(
            select(&["--bench", "tab1_config", "sec6_rowhammer"], &ENTRIES),
            Ok(vec!["tab1_config", "sec6_rowhammer"])
        );
        assert_eq!(
            select(&["sec6_rowhammer", "tab1_config", "--bench"], &ENTRIES),
            Ok(vec!["sec6_rowhammer", "tab1_config"])
        );
    }

    #[test]
    fn an_unknown_name_selects_nothing_and_lists_the_valid_names() {
        let err = select(&["--bench", "tab1_config", "nope"], &ENTRIES).unwrap_err();
        assert!(err.contains("`nope`"), "{err}");
        for name in ENTRIES {
            assert!(err.contains(name), "{err} omits `{name}`");
        }
    }

    #[test]
    fn test_style_launches_select_nothing() {
        for flag in ["--test", "--list", "--format"] {
            assert_eq!(select(&[flag], &ENTRIES), Ok(Vec::new()), "{flag}");
            assert_eq!(select(&["--bench", flag, "terse"], &ENTRIES), Ok(Vec::new()), "{flag}");
        }
    }
}
