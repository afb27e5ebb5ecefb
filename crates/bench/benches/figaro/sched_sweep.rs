//! `sched_sweep` — the scheduling subsystem's bench: per-policy
//! behavior and the policy × mechanism × workload sweep.
//!
//! Two sections:
//!
//! 1. **Policies** — one timed run per `SchedPolicyKind` on the
//!    backlog-saturation shape (8 memory-intensive cores with 16 MSHRs
//!    each contending for one channel, so the 64-entry queues run full).
//!    Policies legitimately change results; throughput and row-hit rate
//!    are reported alongside wall time.
//! 2. **Sweep** — `experiments::scheduler_sweep` at the bench scale,
//!    printed and exported to `BENCH_sched_sweep.csv`.
//!
//! Everything lands in `BENCH_sched.json` at the workspace root so the
//! subsystem's performance trajectory is tracked across PRs.
//!
//! ```bash
//! cargo bench --bench figaro -- sched_sweep
//! ```

use std::fmt::Write as _;

use figaro_sim::experiments::{sched_policies, scheduler_sweep};
use figaro_sim::{ConfigKind, Runner};

use crate::{backlog_config, run_backlog};

/// Runs the entry on the shared bench runner.
pub fn run(runner: &Runner) {
    figaro_bench::header("sched_sweep", runner.scale());

    // 1. Per-policy behavior on the backlog-saturation shape.
    println!("--- scheduling policies (backlog saturation, FIGCache-Fast) ---");
    let mut policy_entries = String::new();
    for sched in sched_policies() {
        let (stats, wall) = run_backlog(backlog_config(ConfigKind::FigCacheFast).with_sched(sched));
        let ipc: f64 = (0..8).map(|c| stats.ipc(c)).sum();
        let row_hit = stats.row_hit_rate();
        println!(
            "{:<14} {wall:>7.3} s   sum-IPC {ipc:.3}   row-hit {row_hit:.3}   cycles {}",
            sched.label(),
            stats.cpu_cycles
        );
        let _ = write!(
            policy_entries,
            "{}    {{\"policy\": \"{}\", \"wall_s\": {wall:.6}, \"sum_ipc\": {ipc:.4}, \
             \"row_hit_rate\": {row_hit:.4}, \"cpu_cycles\": {}}}",
            if policy_entries.is_empty() { "\n" } else { ",\n" },
            sched.label(),
            stats.cpu_cycles,
        );
    }

    // 2. The policy x mechanism x workload sweep (runs on the shared runner).
    let fig = figaro_bench::timed("scheduler_sweep", || scheduler_sweep(runner));
    println!("{fig}");
    let csv_path = figaro_bench::artifact_path("BENCH_sched_sweep.csv");
    fig.write_csv(&csv_path).expect("write BENCH_sched_sweep.csv");
    println!("wrote {}", csv_path.display());

    let report = format!(
        "{{\n  \"bench\": \"sched_sweep\",\n  \"scale\": \"{}\",\n  \
         \"policies\": [{policy_entries}\n  ]\n}}\n",
        runner.scale().label(),
    );
    let path = figaro_bench::artifact_path("BENCH_sched.json");
    std::fs::write(&path, &report).expect("write BENCH_sched.json");
    println!("wrote {}", path.display());
}
