//! `checkpoint` — warm-start amortization, recorded in
//! `BENCH_checkpoint.json` at the workspace root.
//!
//! A three-point address-mapping grid (the paper slice, channel-first,
//! row-interleaved) is swept three ways: cold (no warmup), warm with an
//! empty snapshot store (the pass that pays the warm prefix once and
//! publishes the FGSN snapshot), and warm with hot snapshots (every later
//! re-sweep). Warmed results are asserted bit-identical to the cold runs;
//! the resumed sweep's total wall clock must beat the cold sweep by at
//! least `(grid − 1) × warmup_fraction`.
//!
//! ```bash
//! cargo bench --bench figaro -- checkpoint
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use figaro_sim::experiments::mapping_kinds;
use figaro_sim::runner::{RunSummary, Scale};
use figaro_sim::{ConfigKind, RunSpec, Runner};
use figaro_workloads::profile_by_name;

/// Fraction of the cold run's cycles the warm prefix covers.
const WARM_FRACTION: f64 = 0.5;
const GRID: usize = 3;

/// The swept run at one mapping point: two streamed cores (`mcf` +
/// `lbm`) on FIGCache-Fast, the shape the mapping sweep cares about,
/// warm-started for `warmup` cycles when set.
fn grid_spec(runner: &Runner, map_idx: usize, insts: u64, warmup: Option<u64>) -> RunSpec {
    let apps = ["mcf", "lbm"].map(|n| profile_by_name(n).expect("bench profile exists"));
    let mut spec = runner.stream_spec(ConfigKind::FigCacheFast, &apps, Some(insts));
    spec.config = spec.config.with_mapping(mapping_kinds()[map_idx]);
    spec.warmup = warmup;
    spec
}

/// One timed uncached run of `spec` through `runner`.
fn timed_run(runner: &Runner, spec: &RunSpec) -> (RunSummary, f64) {
    let t = Instant::now();
    let s = runner.run(spec);
    (s, t.elapsed().as_secs_f64())
}

struct GridPoint {
    map: String,
    cold_s: f64,
    warm_miss_s: f64,
    warm_hit_s: f64,
    cycles: u64,
}

fn warm_start_sweep(insts: u64, snap_dir: &std::path::Path) -> (Vec<GridPoint>, u64) {
    let cold_runner = Runner::uncached(Scale::Tiny);
    let colds: Vec<(RunSummary, f64)> = (0..GRID)
        .map(|i| timed_run(&cold_runner, &grid_spec(&cold_runner, i, insts, None)))
        .collect();
    let min_cycles = colds.iter().map(|(s, _)| s.cpu_cycles).min().expect("grid non-empty");
    let warm_cycles = (min_cycles as f64 * WARM_FRACTION) as u64;

    let warm_runner = Runner::uncached(Scale::Tiny).with_snapshot_dir(snap_dir.to_path_buf());
    // Pass 2: empty snapshot store — pays each point's warm prefix once.
    let misses: Vec<(RunSummary, f64)> = (0..GRID)
        .map(|i| timed_run(&warm_runner, &grid_spec(&warm_runner, i, insts, Some(warm_cycles))))
        .collect();
    // Pass 3: hot snapshots — what every re-sweep costs.
    let hits: Vec<(RunSummary, f64)> = (0..GRID)
        .map(|i| timed_run(&warm_runner, &grid_spec(&warm_runner, i, insts, Some(warm_cycles))))
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

fn json_report(
    scale: Scale,
    grid: &[GridPoint],
    warm_cycles: u64,
    warmup_fraction: f64,
    required_speedup: f64,
    speedup: f64,
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
    format!(
        "{{\n  \"bench\": \"checkpoint\",\n  \"scale\": \"{}\",\n  \
         \"warm_start\": {{\n    \"grid_points\": {},\n    \"warm_cycles\": {warm_cycles},\n    \
         \"warmup_fraction\": {warmup_fraction:.3},\n    \
         \"required_speedup\": {required_speedup:.3},\n    \"speedup\": {speedup:.3},\n    \
         \"grid\": [\n{grid_rows}\n  ]}}\n}}\n",
        scale.label(),
        grid.len(),
    )
}

/// Runs the entry.
pub fn run() {
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

    let report = json_report(scale, &grid, warm_cycles, warmup_fraction, required_speedup, speedup);
    let path = figaro_bench::artifact_path("BENCH_checkpoint.json");
    std::fs::write(&path, &report).expect("write BENCH_checkpoint.json");
    println!("wrote {}", path.display());
}
