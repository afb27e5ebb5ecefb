//! Cross-crate proof obligation of the event-driven kernel: for random
//! seeds, workloads, core counts and every evaluated mechanism, the
//! next-event kernel's [`RunStats`] are **bit-identical** to the
//! per-cycle reference loop's. This is the refactor's correctness
//! argument — any divergence in a counter, finish cycle, or energy
//! figure fails the property.

use proptest::prelude::*;

use figaro_cpu::CacheParams;
use figaro_sim::{ConfigKind, Kernel, RunStats, System, SystemConfig};
use figaro_telemetry::TelemetryConfig;
use figaro_workloads::{app_profiles, generate_trace, profile_by_name, Trace, TraceOp};

/// Runs one system built from `(seed, cores, kind)` under `kernel`.
fn run(seed: u64, cores: usize, kind: &ConfigKind, kernel: Kernel, insts: u64) -> RunStats {
    let profiles = app_profiles();
    let traces: Vec<Trace> = (0..cores)
        .map(|i| {
            // Mix intensive and non-intensive profiles across cores.
            let p = &profiles[(seed as usize + 7 * i) % profiles.len()];
            generate_trace(p, 6_000, seed ^ (i as u64).wrapping_mul(0x9e37_79b9))
        })
        .collect();
    let cfg = SystemConfig { kernel, ..SystemConfig::paper(cores, kind.clone()) };
    let mut sys = System::new(cfg, traces, &vec![insts; cores]);
    sys.run(insts * 400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seed x Figure 7/8 mechanism x 1-4 cores (powers of two —
    /// the shared LLC scales at 2 MB/core and needs a power-of-two set
    /// count): the two kernels must agree bit-for-bit on the full
    /// statistics record.
    #[test]
    fn event_kernel_is_bit_identical_to_reference(
        seed in 0u64..1_000_000,
        cores_log2 in 0u32..3,
        kind_idx in 0usize..6,
    ) {
        let cores = 1usize << cores_log2;
        let mut kinds = vec![ConfigKind::Base];
        kinds.extend(ConfigKind::figure78_set());
        let kind = &kinds[kind_idx];
        let insts = 10_000;
        let reference = run(seed, cores, kind, Kernel::Reference, insts);
        let event = run(seed, cores, kind, Kernel::Event, insts);
        prop_assert_eq!(
            &reference,
            &event,
            "RunStats diverged: seed={} cores={} kind={}",
            seed,
            cores,
            kind.label()
        );
        // The run must be non-trivial for the comparison to mean much.
        prop_assert!(reference.instructions.iter().all(|&i| i == insts));
        prop_assert!(reference.dram.reads > 0, "workload never reached DRAM");
    }
}

/// Eight cores running the same app from the same seed, with two MSHRs
/// per core: the cores miss on the same blocks at nearly the same time,
/// so most of them sit stalled on full MSHRs while another core's fill
/// installs the very block they retry. Core `i` starts `2 * i` ops into
/// the trace, which makes the fills that unblock a core come from both
/// lower- and higher-index cores (about 1.5k and 1k of them). The event
/// kernel must tick each unblocked core at exactly the reference
/// kernel's cycle and settle its skipped retries lazily.
fn run_shared_stalls(kernel: Kernel, interval: Option<u64>) -> (RunStats, Option<String>) {
    const CORES: usize = 8;
    const INSTS: u64 = 6_000;
    let trace = generate_trace(&profile_by_name("mcf").expect("mcf profile"), 6_000, 17);
    let traces = (0..CORES)
        .map(|i| {
            let mut t = trace.clone();
            t.ops.rotate_left(2 * i);
            t
        })
        .collect();
    let mut cfg = SystemConfig { kernel, ..SystemConfig::paper(CORES, ConfigKind::FigCacheFast) };
    cfg.hierarchy.mshrs_per_core = 2;
    let mut sys = System::new(cfg, traces, &[INSTS; CORES]);
    sys.set_telemetry(&TelemetryConfig { interval, trace: None });
    let stats = sys.run(INSTS * 2_000);
    assert!(stats.instructions.iter().all(|&i| i == INSTS), "a core stopped at the cycle cap");
    (stats, sys.telemetry_series().map(|s| s.to_csv()))
}

#[test]
fn eight_cores_unblocked_by_each_others_fills_match_reference() {
    let (reference, _) = run_shared_stalls(Kernel::Reference, None);
    let (event, _) = run_shared_stalls(Kernel::Event, None);
    assert_eq!(reference, event, "event kernel diverged on shared stalled blocks");
    let h = &reference.hierarchy;
    assert!(h.mshr_stalls > 100_000, "the shape must stall on full MSHRs");
    assert!(h.llc.hits > 0, "the cores must share blocks through the LLC");
}

#[test]
fn eight_cores_caught_up_before_every_telemetry_sample() {
    let (reference, ref_series) = run_shared_stalls(Kernel::Reference, Some(1_000));
    let (event, event_series) = run_shared_stalls(Kernel::Event, Some(1_000));
    assert_eq!(reference, event, "event kernel diverged with interval sampling on");
    let ref_series = ref_series.expect("reference series");
    assert!(ref_series.lines().count() > 10, "want many samples");
    assert_eq!(Some(ref_series), event_series, "interval series diverged");
}

/// Two cores on direct-mapped toy caches (4-set L1 and LLC, 8-set L2,
/// one MSHR each) built so that a *core's tick*, not a completion,
/// unblocks the other core: `j` dirties block 0 and leaves it in its L2
/// only; `u` puts block 8 in the LLC, then stalls on block 0 behind a
/// slow miss and sleeps; `j`'s LLC hit on block 8 evicts dirty block 0
/// from its L2 into the LLC while `u` is stalled on it.
fn run_dirty_victim_unblock(kernel: Kernel, u: usize) -> RunStats {
    let blk = |b: u64| b * 64;
    let far = 1 << 24;
    let op = |nonmem, addr, is_write| TraceOp { nonmem, addr, is_write };
    let j_ops = vec![
        op(0, blk(0), true),
        op(0, blk(4), false),
        op(420, blk(8), false),
        op(2_000, 2 * far + blk(2), false),
    ];
    let u_ops = vec![
        op(300, blk(8), false),
        op(0, far + blk(1), false),
        op(0, blk(0), false),
        op(2_000, 3 * far + blk(3), false),
    ];
    let mut ops = [j_ops, u_ops];
    if u == 0 {
        ops.reverse();
    }
    let traces = ops.into_iter().map(|ops| Trace { name: "dirty-victim".into(), ops }).collect();
    let mut cfg = SystemConfig { kernel, ..SystemConfig::paper(2, ConfigKind::Base) };
    cfg.hierarchy.mshrs_per_core = 1;
    cfg.hierarchy.l1 = CacheParams { size_bytes: 256, ways: 1, block_bytes: 64, latency: 1 };
    cfg.hierarchy.l2 = CacheParams { size_bytes: 512, ways: 1, block_bytes: 64, latency: 2 };
    cfg.hierarchy.llc = CacheParams { size_bytes: 256, ways: 1, block_bytes: 64, latency: 3 };
    System::new(cfg, traces, &[2_300; 2]).run(10_000_000)
}

#[test]
fn core_unblocked_by_another_cores_dirty_victim_matches_reference() {
    // In the reference order a higher-index core sees the victim in the
    // same cycle's tick, a lower-index one in the next cycle's.
    for u in [0, 1] {
        let reference = run_dirty_victim_unblock(Kernel::Reference, u);
        let event = run_dirty_victim_unblock(Kernel::Event, u);
        assert_eq!(reference, event, "event kernel diverged with the stalled core at index {u}");
        // Blocks 8, 1<<18 + 1 and 3<<18 + 3 miss; block 0 hits the victim.
        let u_misses = reference.hierarchy.llc_misses_per_core[u];
        assert_eq!(u_misses, 3, "the scenario no longer unblocks core {u} by a dirty victim");
    }
}
