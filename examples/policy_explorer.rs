//! Policy explorer: how FIGCache's design knobs move performance.
//!
//! Sweeps the three Section 9 knobs — replacement policy, row-segment
//! size, and insertion threshold — on one memory-intensive application and
//! prints speedups over `Base`. A miniature of the Fig. 13/14/15 benches,
//! built directly on the public `SystemConfig` sweep constructors.
//!
//! Run with `cargo run --release --example policy_explorer`.

use figaro_core::ReplacementPolicy;
use figaro_sim::runner::Scale;
use figaro_sim::{ConfigKind, EnvConfig, Runner, SystemConfig};
use figaro_workloads::profile_by_name;

fn main() -> Result<(), String> {
    let runner = EnvConfig::from_env()?.apply(Runner::uncached(Scale::Tiny));
    let app = profile_by_name("GemsFDTD").expect("profile exists");
    let base = runner.run_single(&app, ConfigKind::Base).ipc[0];
    println!("GemsFDTD, single core, speedup over Base (tiny scale)\n");

    println!("replacement policies (paper Fig. 14):");
    for policy in [
        ReplacementPolicy::Random,
        ReplacementPolicy::Lru,
        ReplacementPolicy::SegmentBenefit,
        ReplacementPolicy::RowBenefit,
    ] {
        let cfg = SystemConfig::fig14_point(1, policy);
        let s = runner.run_single(&app, cfg.kind).ipc[0] / base;
        println!("  {policy:<16?} {s:>7.3}x");
    }

    println!("\nrow-segment sizes (paper Fig. 13):");
    for (blocks, label) in [(8u32, "512B"), (16, "1KB"), (32, "2KB"), (64, "4KB"), (128, "8KB")] {
        let cfg = SystemConfig::fig13_point(1, blocks);
        let s = runner.run_single(&app, cfg.kind).ipc[0] / base;
        println!("  {label:<6} {s:>7.3}x");
    }

    println!("\ninsertion thresholds (paper Fig. 15):");
    for threshold in [1u32, 2, 4, 8] {
        let cfg = SystemConfig::fig15_point(1, threshold);
        let s = runner.run_single(&app, cfg.kind).ipc[0] / base;
        println!("  threshold {threshold} {s:>7.3}x");
    }

    println!("\npaper: RowBenefit ties or wins; 1 kB segments peak; threshold 1 is best.");
    Ok(())
}
