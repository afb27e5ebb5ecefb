//! `serving_sweep` — the request-level serving bench: open-loop offered
//! load × mechanism × scheduler, driven to the saturation knee.
//!
//! Runs [`figaro_sim::experiments::serving_sweep`] at the bench scale
//! (Poisson arrivals from mean gap 256 down to 8 on a four-core `mcf` /
//! one-channel shape), prints the grid, and exports:
//!
//! * `BENCH_serving.csv` — the raw grid (offered load, achieved DRAM
//!   read throughput, mean/p50/p99/p999 read latency per point);
//! * `BENCH_serving.json` — the same points as structured records plus a
//!   per-load-point tail analysis: for each scheduler and load, whether
//!   the Base-vs-FIGCache *p99* ordering matches their *mean-latency*
//!   ordering (the tail-at-scale claim is that it need not).
//!
//! ```bash
//! cargo bench --bench figaro -- serving_sweep
//! ```

use std::fmt::Write as _;

use figaro_sim::experiments::{serving_loads, serving_scheds, serving_sweep};

/// Runs the entry.
pub fn run() {
    let runner = figaro_bench::bench_runner("serving_sweep");

    let fig = figaro_bench::timed("serving_sweep", || serving_sweep(&runner));
    println!("{fig}");
    let csv_path = figaro_bench::artifact_path("BENCH_serving.csv");
    fig.write_csv(&csv_path).expect("write BENCH_serving.csv");
    println!("wrote {}", csv_path.display());

    // Rows come out in (mechanism, scheduler, load) nesting order — the
    // same loops `serving_sweep_with` uses to build them.
    let loads = serving_loads();
    let scheds = serving_scheds();
    let n_loads = loads.len();
    let n_scheds = scheds.len();
    let row = |kind_idx: usize, sched_idx: usize, load_idx: usize| {
        &fig.rows[(kind_idx * n_scheds + sched_idx) * n_loads + load_idx]
    };
    assert_eq!(fig.rows.len(), 2 * n_scheds * n_loads, "sweep grid shape changed");

    let mut points = String::new();
    for (label, vals) in &fig.rows {
        let _ = write!(
            points,
            "{}    {{\"point\": \"{label}\", \"offered_ops_per_kcyc\": {:.3}, \
             \"achieved_reads_per_kcyc\": {:.3}, \"avg_lat\": {:.3}, \
             \"p50_lat\": {}, \"p99_lat\": {}, \"p999_lat\": {}}}",
            if points.is_empty() { "\n" } else { ",\n" },
            vals[0],
            vals[1],
            vals[2],
            vals[3],
            vals[4],
            vals[5],
        );
    }

    // Tail analysis: per (scheduler, load), does p99 order Base vs
    // FIGCache-Fast the same way the mean does?
    println!("--- Base vs FIGCache-Fast: mean ordering vs p99 ordering ---");
    let mut analysis = String::new();
    for (si, sched) in scheds.iter().enumerate() {
        for (li, load) in loads.iter().enumerate() {
            let (_, base) = row(0, si, li);
            let (_, figc) = row(1, si, li);
            let (mean_b, mean_f) = (base[2], figc[2]);
            let (p99_b, p99_f) = (base[4], figc[4]);
            let mean_fig_wins = mean_f < mean_b;
            let p99_fig_wins = p99_f < p99_b;
            let inverted = mean_fig_wins != p99_fig_wins;
            println!(
                "{:<8} {:<11} mean {mean_b:>9.1} vs {mean_f:>9.1}   p99 {p99_b:>8.0} vs \
                 {p99_f:>8.0}   {}",
                sched.label(),
                load.label(),
                if inverted { "ORDERING INVERTED" } else { "same ordering" }
            );
            let _ = write!(
                analysis,
                "{}    {{\"sched\": \"{}\", \"load\": \"{}\", \"base_avg\": {mean_b:.3}, \
                 \"fig_avg\": {mean_f:.3}, \"base_p99\": {p99_b}, \"fig_p99\": {p99_f}, \
                 \"p99_inverts_mean_ordering\": {inverted}}}",
                if analysis.is_empty() { "\n" } else { ",\n" },
                sched.label(),
                load.label(),
            );
        }
    }

    let report = format!(
        "{{\n  \"bench\": \"serving_sweep\",\n  \"scale\": \"{}\",\n  \
         \"points\": [{points}\n  ],\n  \
         \"tail_ordering\": [{analysis}\n  ]\n}}\n",
        runner.scale().label(),
    );
    let path = figaro_bench::artifact_path("BENCH_serving.json");
    std::fs::write(&path, &report).expect("write BENCH_serving.json");
    println!("wrote {}", path.display());
}
