//! Proof obligations of the telemetry subsystem's contract:
//!
//! 1. **Result neutrality** — `RunStats` is bit-identical with
//!    telemetry on vs. off, under both kernels.
//! 2. **Trace determinism** — the Chrome trace file is byte-identical
//!    across the kernels.
//! 3. **Exact reconciliation** — every delta column's running total
//!    equals the corresponding end-of-run aggregate counter, exactly.
//! 4. **Well-formedness** — the emitted JSON parses as a Chrome
//!    trace-event document with balanced span events.
//!
//! Telemetry is always installed programmatically via
//! [`System::set_telemetry`] — never by mutating process env, which
//! parallel test binaries would race on.

use std::path::PathBuf;

use proptest::prelude::*;

use figaro_sim::{ConfigKind, Kernel, RunStats, System, SystemConfig};
use figaro_telemetry::{parse_trace_spec, SeriesSet, TelemetryConfig};
use figaro_workloads::{app_profiles, generate_trace, Trace};

const INSTS: u64 = 8_000;
const INTERVAL: u64 = 2_000;

/// A unique scratch path for one test's trace file.
fn trace_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("figaro-telemetry-{}-{tag}.json", std::process::id()))
}

/// Builds the standard tiny system for `(seed, cores, channels)`.
fn system(seed: u64, cores: usize, channels: u32, kind: &ConfigKind, kernel: Kernel) -> System {
    let profiles = app_profiles();
    let traces: Vec<Trace> = (0..cores)
        .map(|i| {
            let p = &profiles[(seed as usize + 7 * i) % profiles.len()];
            generate_trace(p, 6_000, seed ^ (i as u64).wrapping_mul(0x9e37_79b9))
        })
        .collect();
    let cfg =
        SystemConfig { kernel, ..SystemConfig::paper(cores, kind.clone()) }.with_channels(channels);
    System::new(cfg, traces, &vec![INSTS; cores])
}

/// Runs with an explicit telemetry config; returns the stats and (when
/// no trace sink consumed it) the collected series.
fn run_telemetered(
    seed: u64,
    kind: &ConfigKind,
    kernel: Kernel,
    tcfg: &TelemetryConfig,
) -> (RunStats, Option<SeriesSet>) {
    let mut sys = system(seed, 2, 4, kind, kernel);
    sys.set_telemetry(tcfg);
    let stats = sys.run(INSTS * 400);
    let series = sys.telemetry_series().cloned();
    (stats, series)
}

/// The kernels the neutrality property quantifies over.
fn kernels() -> [Kernel; 2] {
    [Kernel::Reference, Kernel::Event]
}

#[test]
fn telemetry_on_equals_off_under_every_kernel() {
    for (k, kernel) in kernels().into_iter().enumerate() {
        let (off, _) =
            run_telemetered(11, &ConfigKind::FigCacheFast, kernel, &TelemetryConfig::off());
        let path = trace_path(&format!("neutrality-{k}"));
        let on_cfg = TelemetryConfig {
            interval: Some(INTERVAL),
            trace: Some(parse_trace_spec(&format!("{}:all", path.display())).unwrap()),
        };
        let (on, _) = run_telemetered(11, &ConfigKind::FigCacheFast, kernel, &on_cfg);
        assert_eq!(off, on, "telemetry perturbed RunStats under {kernel:?}");
        assert!(path.exists(), "traced run left no file under {kernel:?}");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn trace_bytes_identical_across_exact_kernels() {
    // The per-cycle reference and the event kernel must serialize the
    // same story.
    let mut blobs = Vec::new();
    for (tag, kernel) in [("event", Kernel::Event), ("reference", Kernel::Reference)] {
        let path = trace_path(&format!("bytes-{tag}"));
        let cfg = TelemetryConfig {
            interval: Some(INTERVAL),
            trace: Some(parse_trace_spec(&path.display().to_string()).unwrap()),
        };
        let (_, _) = run_telemetered(7, &ConfigKind::FigCacheFast, kernel, &cfg);
        blobs.push((tag, std::fs::read(&path).expect("trace file")));
        let _ = std::fs::remove_file(&path);
    }
    let (base_tag, base) = &blobs[0];
    for (tag, blob) in &blobs[1..] {
        assert_eq!(blob, base, "trace bytes diverged: {tag} vs {base_tag}");
    }
    assert!(!base.is_empty());
}

#[test]
fn interval_series_reconciles_exactly_with_run_stats() {
    // Interval-only config (no sink), so the series survives the run.
    let cfg = TelemetryConfig { interval: Some(INTERVAL), trace: None };
    let (stats, series) = run_telemetered(5, &ConfigKind::FigCacheFast, Kernel::Event, &cfg);
    let series = series.expect("series collected");
    assert!(series.len() > 1, "want several samples, got {}", series.len());
    assert_eq!(series.cycles.back(), Some(&stats.cpu_cycles), "final flush sample missing");
    let total = |name: &str| {
        series.cols[series.col_index(name).unwrap_or_else(|| panic!("no column {name}"))].total
    };
    let ch_sum = |suffix: &str| (0..4).map(|ch| total(&format!("ch{ch}.{suffix}"))).sum::<u64>();
    // Per-channel deltas against the per-channel aggregate record.
    for (ch, c) in stats.per_channel.iter().enumerate() {
        assert_eq!(total(&format!("ch{ch}.row_hits")), c.row_hits, "ch{ch} row_hits");
        assert_eq!(total(&format!("ch{ch}.row_misses")), c.row_misses, "ch{ch} row_misses");
        assert_eq!(
            total(&format!("ch{ch}.row_conflicts")),
            c.row_conflicts,
            "ch{ch} row_conflicts"
        );
    }
    // Channel sums against the merged end-of-run aggregates.
    assert_eq!(ch_sum("row_hits"), stats.mc.row_hits);
    assert_eq!(ch_sum("row_misses"), stats.mc.row_misses);
    assert_eq!(ch_sum("row_conflicts"), stats.mc.row_conflicts);
    assert_eq!(ch_sum("cache_hits"), stats.cache.hits);
    assert_eq!(ch_sum("cache_insertions"), stats.cache.insertions);
    assert_eq!(
        ch_sum("cache_evictions"),
        stats.cache.evictions_clean + stats.cache.evictions_dirty
    );
    assert_eq!(ch_sum("relocs"), stats.dram.relocs);
    assert_eq!(ch_sum("refreshes"), stats.dram.refreshes);
    // Core retirement deltas against the per-core instruction targets.
    for (c, &insts) in stats.instructions.iter().enumerate() {
        assert_eq!(total(&format!("core{c}.retired")), insts, "core{c} retired");
    }
    assert!(stats.dram.relocs > 0, "workload exercised no relocation — weak test");
}

#[test]
fn interval_series_is_identical_across_exact_kernels() {
    let cfg = TelemetryConfig { interval: Some(INTERVAL), trace: None };
    let mut csvs = Vec::new();
    for (tag, kernel) in [("reference", Kernel::Reference), ("event", Kernel::Event)] {
        let (_, series) = run_telemetered(9, &ConfigKind::FigCacheFast, kernel, &cfg);
        csvs.push((tag, series.expect("series").to_csv()));
    }
    let (base_tag, base) = &csvs[0];
    for (tag, csv) in &csvs[1..] {
        assert_eq!(csv, base, "series diverged: {tag} vs {base_tag}");
    }
    assert!(base.lines().count() > 2);
}

#[test]
fn chrome_trace_is_well_formed_and_balanced() {
    let path = trace_path("wellformed");
    let cfg = TelemetryConfig {
        interval: None,
        trace: Some(parse_trace_spec(&format!("{}:all", path.display())).unwrap()),
    };
    let (stats, _) = run_telemetered(3, &ConfigKind::FigCacheFast, Kernel::Event, &cfg);
    let sum = figaro_telemetry::trace::summarize_file(&path).expect("valid Chrome trace JSON");
    let _ = std::fs::remove_file(&path);
    assert!(sum.events > 0, "empty trace");
    assert!(sum.balanced(), "unbalanced span events");
    assert!(sum.complete > 0, "no complete (span) events — relocation/drain history missing");
    assert!(sum.instant > 0, "no instant events — refresh marks missing");
    assert!(
        sum.max_ts <= stats.cpu_cycles,
        "event stamped past the end of the run: {} > {}",
        sum.max_ts,
        stats.cpu_cycles
    );
    let cats: Vec<&str> = sum.by_cat.iter().map(|(c, _)| c.as_str()).collect();
    assert!(cats.contains(&"reloc"), "no reloc category in {cats:?}");
    assert!(cats.contains(&"refresh"), "no refresh category in {cats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seed x mechanism x kernel: telemetry (series + trace)
    /// never changes a single bit of `RunStats`.
    #[test]
    fn telemetry_never_perturbs_run_stats(
        seed in 0u64..1_000_000,
        kind_idx in 0usize..2,
        kernel_idx in 0usize..2,
    ) {
        let kind = if kind_idx == 0 { ConfigKind::Base } else { ConfigKind::FigCacheFast };
        let kernel = kernels()[kernel_idx];
        let (off, _) = run_telemetered(seed, &kind, kernel, &TelemetryConfig::off());
        let path = trace_path(&format!("prop-{seed}-{kind_idx}-{kernel_idx}"));
        let cfg = TelemetryConfig {
            interval: Some(INTERVAL),
            trace: Some(parse_trace_spec(&path.display().to_string()).unwrap()),
        };
        let (on, _) = run_telemetered(seed, &kind, kernel, &cfg);
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(
            &off, &on,
            "telemetry perturbed RunStats: seed={} kind={} kernel={:?}",
            seed, kind.label(), kernel
        );
    }
}
