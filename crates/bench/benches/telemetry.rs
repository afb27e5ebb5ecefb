//! `telemetry` — overhead budget of the observability subsystem.
//!
//! Measures four variants of the same four-core FIGCache-Fast run in
//! interleaved rounds: telemetry off (twice — the two disabled medians
//! bound measurement noise and prove the probe sites cost nothing
//! observable), the interval series alone, and series + event trace.
//! Asserts the zero-cost-when-off contract (disabled spread under 5 %)
//! and bit-identical `RunStats` across every variant, then records the
//! medians in `BENCH_telemetry.json` and leaves the traced run's
//! Chrome trace at `BENCH_telemetry_trace.json` as a loadable sample
//! artifact (drag it into <https://ui.perfetto.dev>).
//!
//! ```bash
//! cargo bench --bench telemetry
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use figaro_sim::runner::Scale;
use figaro_sim::{ConfigKind, RunStats, System, SystemConfig};
use figaro_telemetry::{parse_trace_spec, TelemetryConfig};
use figaro_workloads::{generate_trace, profile_by_name, Trace};

const SAMPLES: usize = 5;
const INTERVAL: u64 = 10_000;
/// Maximum tolerated spread between the two disabled variants.
const OFF_SPREAD_BUDGET_PCT: f64 = 5.0;

/// One uncached four-core serving-shaped run with explicit telemetry.
fn run_once(tcfg: &TelemetryConfig, insts: u64) -> (RunStats, f64) {
    let apps = ["mcf", "lbm", "libquantum", "gcc"];
    let traces: Vec<Trace> = apps
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let p = profile_by_name(n).expect("bench profile exists");
            generate_trace(&p, 8_000, 4_100 + i as u64)
        })
        .collect();
    let cfg = SystemConfig::paper(4, ConfigKind::FigCacheFast).with_channels(4);
    let mut sys = System::new(cfg, traces, &[insts; 4]);
    sys.set_telemetry(tcfg);
    let t = Instant::now();
    let stats = sys.run(insts * 400);
    (stats, t.elapsed().as_secs_f64())
}

fn median(walls: &mut [f64]) -> f64 {
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

fn main() {
    if criterion::launched_as_test() {
        return;
    }
    let scale = figaro_bench::env().scale_or(Scale::Tiny);
    let insts = (scale.target_insts() / 4).max(20_000);
    println!(
        "--- telemetry (scale: {}, {insts} insts/core, median of {SAMPLES} interleaved rounds) ---",
        scale.label()
    );
    let trace_artifact = figaro_bench::artifact_path("BENCH_telemetry_trace.json");
    let configs: [(&str, TelemetryConfig); 4] = [
        ("off-a", TelemetryConfig::off()),
        ("off-b", TelemetryConfig::off()),
        ("series", TelemetryConfig { interval: Some(INTERVAL), trace: None }),
        (
            "series+trace",
            TelemetryConfig {
                interval: Some(INTERVAL),
                trace: Some(
                    parse_trace_spec(&format!("{}:all", trace_artifact.display()))
                        .expect("artifact path"),
                ),
            },
        ),
    ];
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut baseline: Option<RunStats> = None;
    for _ in 0..SAMPLES {
        for (i, (name, tcfg)) in configs.iter().enumerate() {
            let (stats, wall) = run_once(tcfg, insts);
            walls[i].push(wall);
            match &baseline {
                None => baseline = Some(stats),
                Some(b) => {
                    assert_eq!(b, &stats, "telemetry variant `{name}` perturbed RunStats");
                }
            }
        }
    }
    let stats = baseline.expect("SAMPLES > 0");
    let medians: Vec<f64> = walls.iter_mut().map(|w| median(w)).collect();
    let off = medians[0].min(medians[1]);
    let mut entries = String::new();
    for (i, (name, _)) in configs.iter().enumerate() {
        let overhead = (medians[i] / off - 1.0) * 100.0;
        println!("{name:<14} {:>8.3} s   {overhead:>+6.1} % vs off", medians[i]);
        let _ = write!(
            entries,
            "{}    {{\"variant\": \"{name}\", \"wall_s\": {:.6}, \"overhead_pct\": {overhead:.2}}}",
            if i == 0 { "" } else { ",\n" },
            medians[i],
        );
    }
    let off_spread = (medians[0].max(medians[1]) / off - 1.0) * 100.0;
    println!("disabled-path spread    {off_spread:>6.2} %  (budget {OFF_SPREAD_BUDGET_PCT} %)");
    assert!(
        off_spread < OFF_SPREAD_BUDGET_PCT,
        "the two telemetry-off variants differ by {off_spread:.2} % — the disabled probe path \
         must be free (or this host is too noisy to bench on)"
    );
    let report = format!(
        "{{\n  \"bench\": \"telemetry\",\n  \"scale\": \"{}\",\n  \"sim_cycles\": {},\n  \
         \"interval\": {INTERVAL},\n  \"off_spread_pct\": {off_spread:.2},\n  \
         \"results\": [\n{entries}\n  ]\n}}\n",
        scale.label(),
        stats.cpu_cycles,
    );
    let path = figaro_bench::artifact_path("BENCH_telemetry.json");
    std::fs::write(&path, &report).expect("write BENCH_telemetry.json");
    println!("wrote {}", path.display());
    println!("wrote {} (sample Chrome trace — load in Perfetto)", trace_artifact.display());
}
