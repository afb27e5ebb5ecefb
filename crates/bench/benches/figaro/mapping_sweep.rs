//! `mapping_sweep` — the address-mapping & page-mapping subsystem's
//! bench: per-mapping behavior on a bank-contended shape, and the
//! mapping × page-placement × mechanism sweep.
//!
//! Two sections:
//!
//! 1. **Placements** — one timed run per (address mapping × page
//!    policy) pair on the backlog-saturation shape (8 memory-intensive
//!    cores contending for one channel), under `Base` and
//!    `FIGCache-Fast`. Placements legitimately change results, so
//!    throughput, row-hit rate and cache-hit rate are reported
//!    alongside wall time.
//! 2. **Sweep** — `experiments::mapping_sweep` at the bench scale,
//!    printed and exported to `BENCH_mapping.csv`.
//!
//! Everything lands in `BENCH_mapping.json` at the workspace root so
//! the subsystem's behavior trajectory is tracked across PRs.
//!
//! ```bash
//! cargo bench --bench figaro -- mapping_sweep
//! ```

use std::fmt::Write as _;

use figaro_sim::experiments::{mapping_kinds, mapping_sweep, page_policies};
use figaro_sim::{ConfigKind, Runner};

use crate::{backlog_config, run_backlog};

/// Runs the entry on the shared bench runner.
pub fn run(runner: &Runner) {
    figaro_bench::header("mapping_sweep", runner.scale());

    // 1. Per-placement behavior on the bank-contended shape.
    let mut placement_entries = String::new();
    for kind in [ConfigKind::Base, ConfigKind::FigCacheFast] {
        println!("--- placements (backlog saturation, {}) ---", kind.label());
        for map in mapping_kinds() {
            for page in page_policies() {
                let cfg = backlog_config(kind.clone()).with_mapping(map).with_page_map(page);
                let (stats, wall) = run_backlog(cfg);
                let ipc: f64 = (0..8).map(|c| stats.ipc(c)).sum();
                let row_hit = stats.row_hit_rate();
                let cache_hit = stats.cache_hit_rate();
                println!(
                    "{:<10} {:<8} {wall:>7.3} s   sum-IPC {ipc:.3}   row-hit {row_hit:.3}   \
                     cache-hit {cache_hit:.3}   cycles {}",
                    map.label(),
                    page.label(),
                    stats.cpu_cycles
                );
                let _ = write!(
                    placement_entries,
                    "{}    {{\"mechanism\": \"{}\", \"map\": \"{}\", \"page\": \"{}\", \
                     \"wall_s\": {wall:.6}, \"sum_ipc\": {ipc:.4}, \
                     \"row_hit_rate\": {row_hit:.4}, \"cache_hit_rate\": {cache_hit:.4}, \
                     \"cpu_cycles\": {}}}",
                    if placement_entries.is_empty() { "\n" } else { ",\n" },
                    kind.label(),
                    map.label(),
                    page.label(),
                    stats.cpu_cycles,
                );
            }
        }
    }

    // 2. The mapping x page x mechanism sweep (runs on the shared runner).
    let fig = figaro_bench::timed("mapping_sweep", || mapping_sweep(runner));
    println!("{fig}");
    let csv_path = figaro_bench::artifact_path("BENCH_mapping.csv");
    fig.write_csv(&csv_path).expect("write BENCH_mapping.csv");
    println!("wrote {}", csv_path.display());

    let report = format!(
        "{{\n  \"bench\": \"mapping_sweep\",\n  \"scale\": \"{}\",\n  \
         \"placements\": [{placement_entries}\n  ]\n}}\n",
        runner.scale().label(),
    );
    let path = figaro_bench::artifact_path("BENCH_mapping.json");
    std::fs::write(&path, &report).expect("write BENCH_mapping.json");
    println!("wrote {}", path.display());
}
