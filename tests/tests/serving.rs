//! Request-level serving: open-loop arrival pacing, tail-latency
//! histograms, and the load sweep.
//!
//! Three proof obligations ride here:
//!
//! * the serving smoke — one open-loop load point plus
//!   the tiny sweep grid, with sane percentile ordering and the
//!   truncation-WARNING plumbing observable in the figure notes;
//! * paced sources must not break the event kernel: wrapping every core
//!   in an [`ArrivalSchedule`] still yields bit-identical [`RunStats`]
//!   between the event and reference kernels;
//! * [`LatencyHistogram`] merging is a lossless monoid — commutative,
//!   associative, and equal to recording every sample into one
//!   histogram — which is what makes per-channel stats mergeable.

use proptest::prelude::*;

use figaro_memctrl::LatencyHistogram;
use figaro_sim::experiments::serving_sweep_with;
use figaro_sim::{ConfigKind, Kernel, RunStats, Runner, Scale, System, SystemConfig};
use figaro_workloads::{
    app_profiles, generate_trace, profile_by_name, ArrivalKind, ArrivalSchedule, TraceSource,
};

#[test]
fn serving_smoke_one_load_point_has_sane_tail() {
    // The serving smoke: a single moderate Poisson load
    // point through the full streamed-run path (arrival wrapper,
    // histogram, RunSummary percentiles).
    let runner = Runner::new(Scale::Tiny);
    let apps = [profile_by_name("mcf").expect("mcf profile exists"); 4];
    let mut spec = runner.stream_spec(ConfigKind::FigCacheFast, &apps, Some(20_000));
    spec.config = spec.config.with_channels(1);
    spec.arrival = Some(ArrivalKind::Poisson { mean_gap: 64 });
    let s = runner.run(&spec);

    assert!(s.reads_served > 0, "paced run never reached DRAM");
    assert_eq!(s.truncated_cores, 0, "smoke load point must complete, not truncate");
    assert!(s.avg_read_latency > 0.0);
    // Percentiles are cumulative bucket floors: they must be ordered
    // and bracketed by the exact maximum.
    assert!(s.read_lat_p50 >= 1, "p50 of a DRAM read is at least a cycle");
    assert!(s.read_lat_p50 <= s.read_lat_p95);
    assert!(s.read_lat_p95 <= s.read_lat_p99);
    assert!(s.read_lat_p99 <= s.read_lat_p999);
    assert!(s.read_lat_p999 <= s.read_lat_max);
    // A bucket floor never overshoots the true value it stands for.
    assert!(s.read_lat_p999 <= s.read_lat_max && s.read_lat_max > 0);
}

#[test]
fn serving_sweep_tiny_grid_runs_and_exports_csv() {
    // The sweep the manual CI job uploads as an artifact, shrunk to a tiny
    // memory-op budget per core.
    let runner = Runner::new(Scale::Tiny);
    let fig = serving_sweep_with(&runner, Some(100));
    assert_eq!(fig.rows.len(), 24, "2 mechanisms x 2 schedulers x 6 loads");
    for (label, vals) in &fig.rows {
        assert_eq!(vals.len(), 6, "offered/achieved/avg/p50/p99/p999 in row {label}");
        assert!(vals.iter().all(|v| v.is_finite() && *v >= 0.0), "bad cell in row {label}");
        assert!(vals[1] > 0.0, "no DRAM reads served at {label}");
        assert!(vals[5] >= vals[4], "p999 below p99 at {label}");
    }
    // Offered load must climb monotonically within each six-point
    // (mechanism, scheduler) block — that is the sweep's x-axis.
    for block in fig.rows.chunks(6) {
        for pair in block.windows(2) {
            assert!(pair[1].1[0] > pair[0].1[0], "offered load not increasing");
        }
    }
    let csv = fig.to_csv();
    assert!(csv.lines().count() > 24, "csv must carry the grid");
    assert!(csv.contains("Base / frfcfs @ poisson256"));
    assert!(csv.contains("FIGCache-Fast / fcfs @ poisson8"));
    // Truncation plumbing: every tiny point completes, so the WARNING
    // note must be absent; if one ever truncates, note_truncations
    // surfaces it here and this assertion points at the regression.
    assert!(
        !fig.notes.iter().any(|n| n.contains("WARNING")),
        "tiny serving grid unexpectedly truncated: {:?}",
        fig.notes
    );
    assert!(fig.notes.iter().any(|n| n.contains("bucket floors")), "error-bound note missing");
}

/// Runs `cores` paced copies of mixed profiles under `kernel`.
fn paced_run(
    seed: u64,
    cores: usize,
    kind: &ConfigKind,
    arrival: ArrivalKind,
    kernel: Kernel,
    insts: u64,
) -> RunStats {
    let profiles = app_profiles();
    let sources: Vec<Box<dyn TraceSource>> = (0..cores)
        .map(|i| {
            let p = &profiles[(seed as usize + 7 * i) % profiles.len()];
            let trace = generate_trace(p, 6_000, seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
            Box::new(ArrivalSchedule::new(
                Box::new(trace.into_source()),
                arrival,
                seed ^ (i as u64).wrapping_mul(0x517c_c1b7_2722_0a95),
            )) as Box<dyn TraceSource>
        })
        .collect();
    let cfg = SystemConfig { kernel, ..SystemConfig::paper(cores, kind.clone()) };
    let mut sys = System::from_sources(cfg, sources, &vec![insts; cores]);
    sys.run(insts * 400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Open-loop pacing is a pure source transform, so the event kernel
    /// must stay bit-identical to the per-cycle reference under every
    /// arrival kind — fixed, light/heavy Poisson, and bursty on/off.
    #[test]
    fn paced_sources_keep_kernels_bit_identical(
        seed in 0u64..1_000_000,
        cores_log2 in 0u32..2,
        kind_idx in 0usize..2,
        arrival_idx in 0usize..4,
    ) {
        let cores = 1usize << cores_log2;
        let kinds = [ConfigKind::Base, ConfigKind::FigCacheFast];
        let kind = &kinds[kind_idx];
        let arrivals = [
            ArrivalKind::Fixed { gap: 3 },
            ArrivalKind::Poisson { mean_gap: 24 },
            ArrivalKind::Poisson { mean_gap: 4 },
            ArrivalKind::Bursty { gap_on: 1, burst_ops: 8, gap_idle: 512 },
        ];
        let arrival = arrivals[arrival_idx];
        let insts = 8_000;
        let reference = paced_run(seed, cores, kind, arrival, Kernel::Reference, insts);
        let event = paced_run(seed, cores, kind, arrival, Kernel::Event, insts);
        prop_assert_eq!(
            &reference,
            &event,
            "RunStats diverged: seed={} cores={} kind={} arrival={}",
            seed,
            cores,
            kind.label(),
            arrival.label()
        );
        prop_assert!(reference.instructions.iter().all(|&i| i == insts));
        prop_assert!(reference.mc.reads_served > 0, "paced workload never reached DRAM");
    }

    /// Merging histograms is commutative and equals recording all the
    /// samples into a single histogram (losslessness of the monoid).
    #[test]
    fn histogram_merge_commutes_and_is_lossless(
        a in proptest::collection::vec(0u64..2_000_000, 0..200),
        b in proptest::collection::vec(0u64..2_000_000, 0..200),
    ) {
        let build = |vals: &[u64]| {
            let mut h = LatencyHistogram::default();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (ha, hb) = (build(&a), build(&b));
        let mut ab = ha;
        ab.merge_from(&hb);
        let mut ba = hb;
        ba.merge_from(&ha);
        prop_assert_eq!(ab, ba, "merge is not commutative");
        let mut whole = ha;
        for &v in &b {
            whole.record(v);
        }
        prop_assert_eq!(ab, whole, "merge lost or moved samples");
        prop_assert_eq!(ab.count(), (a.len() + b.len()) as u64);
    }

    /// Merge order must not matter across three shards — the per-channel
    /// reduction in `McStats::merge_from` folds left, but any tree must
    /// give the same histogram.
    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(0u64..2_000_000, 0..120),
        b in proptest::collection::vec(0u64..2_000_000, 0..120),
        c in proptest::collection::vec(0u64..2_000_000, 0..120),
    ) {
        let build = |vals: &[u64]| {
            let mut h = LatencyHistogram::default();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));
        let mut left = ha;
        left.merge_from(&hb);
        left.merge_from(&hc);
        let mut right_tail = hb;
        right_tail.merge_from(&hc);
        let mut right = ha;
        right.merge_from(&right_tail);
        prop_assert_eq!(left, right, "merge is not associative");
    }
}
