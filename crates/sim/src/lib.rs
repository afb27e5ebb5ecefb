//! # figaro-sim — full-system simulation and the paper's experiments
//!
//! Assembles the whole evaluated stack — trace-driven cores and cache
//! hierarchy (`figaro-cpu`), per-channel FR-FCFS memory controllers
//! (`figaro-memctrl`), the cycle-level DRAM model (`figaro-dram`), the
//! FIGCache / LISA-VILLA engines (`figaro-core`), synthetic workloads
//! (`figaro-workloads`) and the energy models (`figaro-energy`) — into
//! runnable systems, and defines every experiment of the paper's
//! evaluation section (Figures 7–15, Tables 1–2, the Section 8
//! aggregates).
//!
//! The six evaluated configurations ([`ConfigKind`]):
//!
//! | Name | Meaning |
//! |---|---|
//! | `Base` | conventional DDR4, no in-DRAM cache |
//! | `LISA-VILLA` | row-granularity cache, 16 interleaved fast subarrays |
//! | `FIGCache-Slow` | segment cache in 64 reserved slow rows |
//! | `FIGCache-Fast` | segment cache in 2 appended fast subarrays |
//! | `FIGCache-Ideal` | FIGCache-Fast with free relocation |
//! | `LL-DRAM` | every subarray fast, no cache (latency upper bound) |
//!
//! Clock domains follow Table 1: cores at 3.2 GHz, DDR4-1600 bus at
//! 800 MHz (one controller tick per four CPU cycles).
//!
//! Library code reads no environment variables: a run depends only on
//! its arguments. Binaries parse the `FIGARO_*` variables once with
//! [`EnvConfig::from_env`] and apply them through the builders.
//!
//! ## Example
//!
//! ```
//! use figaro_sim::{ConfigKind, EnvConfig, Runner, Scale};
//! use figaro_workloads::profile_by_name;
//!
//! let env = EnvConfig::from_env().expect("well-formed FIGARO_* variables");
//! let runner = env.apply(Runner::uncached(Scale::Tiny));
//! let mcf = profile_by_name("mcf").unwrap();
//! let base = runner.run_single(&mcf, ConfigKind::Base);
//! let fig = runner.run_single(&mcf, ConfigKind::FigCacheFast);
//! assert!(fig.ipc[0] > 0.0 && base.ipc[0] > 0.0);
//! ```

/// Pops the next word of a snapshot word stream (the `save_state` /
/// `load_state` convention shared across the component crates).
/// Truncation aborts loudly: resuming from a corrupt snapshot must never
/// silently produce a different run.
pub(crate) fn take(src: &mut &[u64]) -> u64 {
    assert!(!src.is_empty(), "snapshot word stream truncated");
    let w = src[0];
    *src = &src[1..];
    w
}

pub mod config;
pub mod env;
pub mod experiments;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod snapshot;
pub mod system;
pub mod telemetry;

pub use config::{ConfigKind, Kernel, SystemConfig};
pub use env::EnvConfig;
pub use figaro_dram::{MapKind, MapScheme};
pub use figaro_memctrl::SchedPolicyKind;
pub use figaro_workloads::PageMapKind;
pub use metrics::{ChannelStats, RunStats, SampledStats};
pub use runner::{
    workspace_root, CoreWorkload, RunSpec, Runner, Scale, Scenario, ScenarioWorkload, MODEL_EPOCH,
};
pub use snapshot::{config_hash, SnapshotHeader};
pub use system::System;
pub use telemetry::KernelProfile;
