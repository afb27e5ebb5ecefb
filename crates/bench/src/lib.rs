//! # figaro-bench — the paper-reproduction benchmark harness
//!
//! Each `cargo bench` target regenerates one table or figure of the
//! paper's evaluation section and prints the measured series next to the
//! paper's reported values (see `EXPERIMENTS.md` at the workspace root
//! for the recorded comparison). Targets share the on-disk result cache
//! under `target/figaro-cache`, so figures built from the same runs
//! (7/9/10/11 and 8/9/10/11) are cheap after the first one.
//!
//! Environment knobs, parsed once by [`env`] (a malformed value stops
//! the bench with a message naming the variable):
//!
//! * `FIGARO_SCALE` = `tiny` | `small` (default) | `full` — instructions
//!   per core;
//! * `FIGARO_FULL_SWEEPS=1` — run sweep figures (12–15) and the
//!   `streaming_scenarios` sensitivity grid over the full set instead of
//!   the representative subset;
//! * `FIGARO_LONG_RUN=<ops>` — append long-run streaming mixes (that
//!   many memory operations per core, bounded memory at any length) to
//!   the `streaming_scenarios` target;
//! * `FIGARO_SCHED`, `FIGARO_KERNEL`, `FIGARO_MAP`, `FIGARO_PAGEMAP`,
//!   `FIGARO_LOAD`, `FIGARO_WARMUP`, `FIGARO_SNAPSHOT_DIR` — runner
//!   overrides for the figure targets (see the README's env table).
//!   Each run's result-cache key covers its whole configuration, so an
//!   override never reuses another configuration's cached results.
//!
//! The `micro` target contains Criterion micro-benchmarks of simulator
//! hot paths (DRAM command issue, controller scheduling, tag-store
//! operations, trace generation).

use std::path::PathBuf;
use std::time::Instant;

use figaro_sim::runner::Scale;
use figaro_sim::{EnvConfig, Runner};

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

/// Builds the shared runner (the environment's overrides applied) and
/// prints the standard bench header.
#[must_use]
pub fn bench_runner(name: &str) -> Runner {
    let env = env();
    let scale = env.scale_or(Scale::Small);
    println!("--- {name} (scale: {}, cache: target/figaro-cache) ---", scale.label());
    env.apply(Runner::new(scale))
}

/// Runs `f`, printing its wall-clock duration.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let r = f();
    println!("[{label}: {:.1}s]", start.elapsed().as_secs_f64());
    r
}
