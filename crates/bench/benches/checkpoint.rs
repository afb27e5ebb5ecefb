//! `checkpoint` — warm-start amortization and sampled-simulation accuracy.
//!
//! Two measurements, both recorded in `BENCH_checkpoint.json` at the
//! workspace root:
//!
//! 1. **Warm-start speedup.** A three-point address-mapping grid (the
//!    paper slice, channel-first, row-interleaved) is swept three ways:
//!    cold (no warmup), warm with an empty snapshot store (the pass that
//!    pays the warm prefix once and publishes the FGSN snapshot), and
//!    warm with hot snapshots (every later re-sweep). Warmed results are
//!    asserted bit-identical to the cold runs; the resumed sweep's total
//!    wall clock must beat the cold sweep by at least
//!    `(grid − 1) × warmup_fraction`.
//!
//! 2. **Sampled-simulation error.** Each Fig. 7 application runs
//!    single-core under the exact event kernel and under
//!    `Kernel::Sampled`; the per-app IPC error and wall-clock speedup
//!    become the accuracy bars quoted next to any sampled sweep.
//!
//! ```bash
//! cargo bench --bench checkpoint
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use figaro_sim::experiments::{mapping_kinds, sweep_apps};
use figaro_sim::runner::{RunSummary, Scale};
use figaro_sim::{ConfigKind, Kernel, Runner, Scenario, ScenarioWorkload, System, SystemConfig};
use figaro_workloads::{generate_trace, profile_by_name};

/// Fraction of the cold run's cycles the warm prefix covers.
const WARM_FRACTION: f64 = 0.5;
const GRID: usize = 3;

/// The swept scenario at one mapping point: two cores (`mcf` + `lbm`)
/// on FIGCache-Fast, the shape the mapping sweep cares about.
fn scenario(map_idx: usize, insts: u64) -> Scenario {
    Scenario::new(
        "ckpt-grid",
        ConfigKind::FigCacheFast,
        ScenarioWorkload::Apps(vec![
            profile_by_name("mcf").expect("bench profile exists"),
            profile_by_name("lbm").expect("bench profile exists"),
        ]),
    )
    .with_mapping(mapping_kinds()[map_idx])
    .with_target_insts(insts)
}

/// One timed uncached scenario run through `runner`.
fn timed_run(runner: &Runner, sc: &Scenario) -> (RunSummary, f64) {
    let t = Instant::now();
    let s = runner.run_scenario(sc);
    (s, t.elapsed().as_secs_f64())
}

struct GridPoint {
    map: String,
    cold_s: f64,
    warm_miss_s: f64,
    warm_hit_s: f64,
    cycles: u64,
}

struct SampledPoint {
    app: String,
    config: &'static str,
    full_ipc: f64,
    sampled_ipc: f64,
    err_pct: f64,
    detail_fraction: f64,
    speedup: f64,
}

fn warm_start_sweep(insts: u64, snap_dir: &std::path::Path) -> (Vec<GridPoint>, u64) {
    let cold_runner = Runner::uncached(Scale::Tiny);
    let colds: Vec<(RunSummary, f64)> =
        (0..GRID).map(|i| timed_run(&cold_runner, &scenario(i, insts))).collect();
    let min_cycles = colds.iter().map(|(s, _)| s.cpu_cycles).min().expect("grid non-empty");
    let warm_cycles = (min_cycles as f64 * WARM_FRACTION) as u64;

    let warm_runner = Runner::uncached(Scale::Tiny).with_snapshot_dir(snap_dir.to_path_buf());
    // Pass 2: empty snapshot store — pays each point's warm prefix once.
    let misses: Vec<(RunSummary, f64)> = (0..GRID)
        .map(|i| timed_run(&warm_runner, &scenario(i, insts).with_warmup(warm_cycles)))
        .collect();
    // Pass 3: hot snapshots — what every re-sweep costs.
    let hits: Vec<(RunSummary, f64)> = (0..GRID)
        .map(|i| timed_run(&warm_runner, &scenario(i, insts).with_warmup(warm_cycles)))
        .collect();
    for i in 0..GRID {
        assert_eq!(misses[i].0, colds[i].0, "warm (miss) diverged at grid point {i}");
        assert_eq!(hits[i].0, colds[i].0, "warm (hit) diverged at grid point {i}");
    }

    let points = (0..GRID)
        .map(|i| GridPoint {
            map: mapping_kinds()[i].label(),
            cold_s: colds[i].1,
            warm_miss_s: misses[i].1,
            warm_hit_s: hits[i].1,
            cycles: colds[i].0.cpu_cycles,
        })
        .collect();
    (points, warm_cycles)
}

fn sampled_accuracy(insts: u64, full_sweeps: bool) -> Vec<SampledPoint> {
    // Window/skip scaled to the bench's run length: ~1/3 detail, enough
    // windows per run for the rate estimate to settle. Base vs. FIGCache
    // separates the two error sources: rate estimation (Base) and the
    // relocation-cache fill transient that fast-forward freezes
    // (FIGCache — the same warmup transient warm-start exists to skip).
    let (window, skip) = (insts / 4, insts * 2 / 5);
    let configs = [("base", ConfigKind::Base), ("figcache-fast", ConfigKind::FigCacheFast)];
    sweep_apps(full_sweeps)
        .iter()
        .flat_map(|p| {
            let trace = generate_trace(p, 8_000, 7_777);
            configs.clone().map(|(label, kind)| {
                let run = |kernel: Kernel| {
                    let cfg = SystemConfig { kernel, ..SystemConfig::paper(1, kind.clone()) };
                    let mut sys = System::new(cfg, vec![trace.clone()], &[insts]);
                    let t = Instant::now();
                    (sys.run(insts * 400), t.elapsed().as_secs_f64())
                };
                let (full, full_s) = run(Kernel::Event);
                let (approx, approx_s) = run(Kernel::Sampled { window, skip });
                let st = approx.sampled.as_ref().expect("sampled kernel reports sampled stats");
                let (full_ipc, sampled_ipc) = (full.ipc(0), st.sampled_ipc(0));
                SampledPoint {
                    app: p.name.to_string(),
                    config: label,
                    full_ipc,
                    sampled_ipc,
                    err_pct: (sampled_ipc - full_ipc).abs() / full_ipc * 100.0,
                    detail_fraction: st.detail_fraction(),
                    speedup: full_s / approx_s,
                }
            })
        })
        .collect()
}

fn json_report(
    scale: Scale,
    grid: &[GridPoint],
    warm_cycles: u64,
    warmup_fraction: f64,
    required_speedup: f64,
    speedup: f64,
    sampled: &[SampledPoint],
) -> String {
    let mut grid_rows = String::new();
    for (i, g) in grid.iter().enumerate() {
        let _ = write!(
            grid_rows,
            "{}    {{\"map\": \"{}\", \"cold_s\": {:.6}, \"warm_miss_s\": {:.6}, \
             \"warm_hit_s\": {:.6}, \"sim_cycles\": {}}}",
            if i == 0 { "" } else { ",\n" },
            g.map,
            g.cold_s,
            g.warm_miss_s,
            g.warm_hit_s,
            g.cycles,
        );
    }
    let mut sampled_rows = String::new();
    for (i, s) in sampled.iter().enumerate() {
        let _ = write!(
            sampled_rows,
            "{}    {{\"app\": \"{}\", \"config\": \"{}\", \"full_ipc\": {:.6}, \
             \"sampled_ipc\": {:.6}, \"err_pct\": {:.2}, \"detail_fraction\": {:.3}, \
             \"speedup\": {:.2}}}",
            if i == 0 { "" } else { ",\n" },
            s.app,
            s.config,
            s.full_ipc,
            s.sampled_ipc,
            s.err_pct,
            s.detail_fraction,
            s.speedup,
        );
    }
    let mean_err = sampled.iter().map(|s| s.err_pct).sum::<f64>() / sampled.len() as f64;
    let max_err = sampled.iter().map(|s| s.err_pct).fold(0.0, f64::max);
    format!(
        "{{\n  \"bench\": \"checkpoint\",\n  \"scale\": \"{}\",\n  \
         \"warm_start\": {{\n    \"grid_points\": {},\n    \"warm_cycles\": {warm_cycles},\n    \
         \"warmup_fraction\": {warmup_fraction:.3},\n    \
         \"required_speedup\": {required_speedup:.3},\n    \"speedup\": {speedup:.3},\n    \
         \"grid\": [\n{grid_rows}\n  ]}},\n  \
         \"sampled\": {{\n    \"mean_err_pct\": {mean_err:.2},\n    \
         \"max_err_pct\": {max_err:.2},\n    \"apps\": [\n{sampled_rows}\n  ]}}\n}}\n",
        scale.label(),
        grid.len(),
    )
}

fn main() {
    if criterion::launched_as_test() {
        return;
    }
    let env = figaro_bench::env();
    let scale = env.scale_or(Scale::Tiny);
    let insts = scale.target_insts();
    println!("--- checkpoint (scale: {}, {insts} insts/core) ---", scale.label());

    let snap_dir = std::env::temp_dir().join(format!("figaro-ckpt-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    let (grid, warm_cycles) = warm_start_sweep(insts, &snap_dir);
    let _ = std::fs::remove_dir_all(&snap_dir);

    let total_cold: f64 = grid.iter().map(|g| g.cold_s).sum();
    let total_miss: f64 = grid.iter().map(|g| g.warm_miss_s).sum();
    let total_hit: f64 = grid.iter().map(|g| g.warm_hit_s).sum();
    let mean_cycles = grid.iter().map(|g| g.cycles).sum::<u64>() / grid.len() as u64;
    let warmup_fraction = warm_cycles as f64 / mean_cycles as f64;
    let speedup = total_cold / total_hit;
    // The amortization floor: resuming must save at least the warm
    // prefix of every grid point past the first.
    let required_speedup = (grid.len() - 1) as f64 * warmup_fraction;
    for g in &grid {
        println!(
            "{:<12} cold {:>7.3}s  warm-miss {:>7.3}s  warm-hit {:>7.3}s  ({} sim cycles)",
            g.map, g.cold_s, g.warm_miss_s, g.warm_hit_s, g.cycles
        );
    }
    println!(
        "warm prefix {warm_cycles} cycles ({:.0}% of a run); sweep totals: cold {total_cold:.3}s \
         / first warm pass {total_miss:.3}s / resumed pass {total_hit:.3}s",
        warmup_fraction * 100.0
    );
    println!("resumed-sweep speedup {speedup:.2}x (floor {required_speedup:.2}x)");
    assert!(
        speedup >= required_speedup,
        "warm-start must amortize the warm prefix: {speedup:.2}x < {required_speedup:.2}x"
    );

    let sampled = sampled_accuracy(insts, env.full_sweeps);
    for s in &sampled {
        println!(
            "{:<12} {:<14} full {:.4} sampled {:.4}  err {:>5.1}%  detail {:.2}  {:>5.2}x faster",
            s.app, s.config, s.full_ipc, s.sampled_ipc, s.err_pct, s.detail_fraction, s.speedup
        );
    }

    let report = json_report(
        scale,
        &grid,
        warm_cycles,
        warmup_fraction,
        required_speedup,
        speedup,
        &sampled,
    );
    let path = figaro_bench::artifact_path("BENCH_checkpoint.json");
    std::fs::write(&path, &report).expect("write BENCH_checkpoint.json");
    println!("wrote {}", path.display());
}
