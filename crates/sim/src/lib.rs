//! # figaro-sim — full-system simulation and the paper's experiments
//!
//! Assembles the whole evaluated stack — trace-driven cores and cache
//! hierarchy (`figaro-cpu`), per-channel FR-FCFS memory controllers
//! (`figaro-memctrl`), the cycle-level DRAM model (`figaro-dram`), the
//! in-DRAM cache engine (`figaro-core`), synthetic workloads
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
//! | `LISA-VILLA` | whole-row cache, 16 interleaved fast subarrays, LISA clones |
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

pub mod config;
pub mod env;
pub mod experiments;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod system;
pub mod telemetry;

pub use config::{ConfigKind, Kernel, SystemConfig};
pub use env::EnvConfig;
pub use figaro_dram::{MapKind, MapScheme};
pub use figaro_memctrl::SchedPolicyKind;
pub use figaro_workloads::PageMapKind;
pub use metrics::{ChannelStats, RunStats};
pub use runner::{workspace_root, CoreWorkload, RunSpec, Runner, Scale, MODEL_EPOCH};
pub use system::System;
pub use telemetry::KernelProfile;
