//! `figaro` — the one bench binary: every paper figure, table and
//! subsystem record, dispatched by entry name.
//!
//! ```bash
//! cargo bench --bench figaro -- fig07_single_core sched_sweep   # those two
//! cargo bench --bench figaro                                    # every entry
//! ```
//!
//! The names are [`figaro_bench::ENTRIES`]; an unknown one runs nothing,
//! lists the valid names and exits with status 2.

mod mapping_sweep;
mod sched_sweep;
mod sec42;
mod sec6;
mod serving_sweep;
mod tab_overhead;
mod telemetry;

use std::time::Instant;

use figaro_bench::{bench_runner, timed, ENTRIES};
use figaro_sim::experiments as ex;
use figaro_sim::report::FigureData;
use figaro_sim::{ConfigKind, RunStats, Runner, System, SystemConfig};
use figaro_workloads::{generate_trace, profile_by_name, Trace};

/// What an entry runs.
enum Body {
    /// A `figaro_sim::experiments` figure or table: its header title and
    /// builder, run on the shared bench runner.
    Figure(&'static str, fn(&Runner) -> FigureData),
    /// A self-contained program.
    Program(fn()),
}

/// The body of the entry `name`, if there is one.
fn body(name: &str) -> Option<Body> {
    use Body::{Figure, Program};
    Some(match name {
        "fig07_single_core" => Figure("Figure 7: single-core performance", ex::fig07),
        "fig08_eight_core" => Figure("Figure 8: eight-core performance", ex::fig08),
        "fig09_cache_hit_rate" => Figure("Figure 9: in-DRAM cache hit rate", ex::fig09),
        "fig10_row_hit_rate" => Figure("Figure 10: DRAM row-buffer hit rate", ex::fig10),
        "fig11_energy" => Figure("Figure 11: system energy", ex::fig11),
        "fig12_cache_capacity" => Figure("Figure 12: in-DRAM cache capacity", ex::fig12),
        "fig13_segment_size" => Figure("Figure 13: row-segment size", ex::fig13),
        "fig14_replacement" => Figure("Figure 14: replacement policy", ex::fig14),
        "fig15_insertion" => Figure("Figure 15: insertion threshold", ex::fig15),
        "tab1_config" => Program(|| println!("{}", ex::tab1_text())),
        "tab2_benchmarks" => Figure("Table 2: benchmark classification", ex::tab2),
        "mt_workloads" => Figure("Multithreaded workloads", ex::multithreaded),
        "sec42_reloc_latency" => Program(sec42::run),
        "sec6_rowhammer" => Program(sec6::run),
        "tab_overhead" => Program(tab_overhead::run),
        "sched_sweep" => Program(sched_sweep::run),
        "mapping_sweep" => Program(mapping_sweep::run),
        "serving_sweep" => Program(serving_sweep::run),
        "telemetry" => Program(telemetry::run),
        _ => return None,
    })
}

/// The backlog-saturation shape the scheduler and mapping sweeps time:
/// eight memory-intensive cores with deep MSHRs all contending for a
/// single channel, so the 64-entry queues actually run full.
fn backlog_config(kind: ConfigKind) -> SystemConfig {
    let mut cfg = SystemConfig::paper(8, kind);
    cfg.channels = 1; // every request contends for one controller
    cfg.hierarchy.mshrs_per_core = 16; // 128 outstanding misses vs 64 queue slots
    cfg
}

/// One run of `cfg` (a [`backlog_config`]) on the backlog apps, with its
/// wall time.
fn run_backlog(cfg: SystemConfig) -> (RunStats, f64) {
    let apps = ["mcf", "com", "tigr", "mum", "lbm", "mcf", "tigr", "com"];
    let traces: Vec<Trace> = apps
        .iter()
        .enumerate()
        .map(|(i, n)| generate_trace(&profile_by_name(n).unwrap(), 60_000, 31 + i as u64))
        .collect();
    let insts = 40_000u64;
    let mut sys = System::new(cfg, traces, &[insts; 8]);
    let t = Instant::now();
    let stats = sys.run(insts * 400);
    (stats, t.elapsed().as_secs_f64())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names = figaro_bench::select(&args, &ENTRIES).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    for name in ENTRIES {
        assert!(body(name).is_some(), "entry `{name}` has no body");
    }
    for name in names {
        match body(name).expect("checked above") {
            Body::Figure(title, build) => {
                let runner = bench_runner(title);
                let fig = timed(name, || build(&runner));
                println!("{fig}");
            }
            Body::Program(run) => run(),
        }
    }
}
