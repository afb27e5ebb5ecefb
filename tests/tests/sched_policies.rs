//! Cross-crate proof obligations of the modular scheduling subsystem.
//!
//! 1. **Seed bit-identity**: the refactored FR-FCFS controller (per-bank
//!    indexed queues + pluggable policy) reproduces the pre-refactor
//!    monolith's `RunStats` bit for bit on the Figure 7/8 config set
//!    under both kernels — the hardcoded digests below were captured
//!    from `main` immediately before the refactor (regenerate with
//!    `cargo run --release --example golden_digest`).
//! 2. **Policy × kernel equivalence**: every scheduling policy keeps the
//!    event kernel bit-identical to the per-cycle reference.
//! 3. **Runner plumbing**: per-run policy overrides really reach
//!    the controller and never share cache entries with the default.
//! 4. **Model epoch**: the result cache's `MODEL_EPOCH` is the hash of
//!    the event-kernel golden runs' full `RunStats`.

use proptest::prelude::*;

use figaro_sim::experiments::scheduler_sweep_with;
use figaro_sim::{
    ConfigKind, Kernel, RunStats, Runner, Scale, SchedPolicyKind, System, SystemConfig, MODEL_EPOCH,
};
use figaro_workloads::{app_profiles, generate_trace, profile_by_name, Trace};

/// The digest fields asserted against the pre-refactor goldens.
fn digest(s: &RunStats) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        s.cpu_cycles,
        s.mc.row_hits,
        s.mc.row_misses,
        s.mc.row_conflicts,
        s.mc.reads_served,
        s.mc.writes_served,
        s.mc.forwarded,
        s.mc.read_latency_sum,
        s.dram.relocs,
        s.dram.refreshes,
        s.cache.insertions,
    )
}

/// The deterministic multi-app run shape the goldens were captured on.
fn golden_run(kind: &ConfigKind, kernel: Kernel, cores: usize) -> RunStats {
    let apps = ["mcf", "lbm", "zeusmp", "libquantum"];
    let traces: Vec<Trace> = (0..cores)
        .map(|i| {
            let p = profile_by_name(apps[i % apps.len()]).unwrap();
            generate_trace(&p, 8_000, 7 + i as u64)
        })
        .collect();
    let insts = 12_000u64;
    let cfg = SystemConfig { kernel, ..SystemConfig::paper(cores, kind.clone()) };
    let mut sys = System::new(cfg, traces, &vec![insts; cores]);
    sys.run(insts * 400)
}

/// One golden row of the multi-app shape: config label, kernel label,
/// cores, then the [`digest`] fields in order.
type GoldenRow =
    (&'static str, &'static str, usize, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64);

/// One golden row of the write-draining shape: config, kernel label,
/// then the [`digest`] fields in order.
type WriteGoldenRow =
    (ConfigKind, &'static str, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64);

#[test]
fn frfcfs_reproduces_the_pre_refactor_seed_bit_for_bit() {
    // (config label, kernel label, cores, cpu_cycles, row_hits,
    //  row_misses, row_conflicts, reads, writes, forwarded,
    //  read_latency_sum, relocs, refreshes, insertions) — captured on
    // the pre-refactor seed (PR 3 head).
    #[rustfmt::skip]
    let goldens: &[GoldenRow] = &[
        ("Base", "reference", 1, 55780, 474, 45, 1000, 1519, 0, 0, 131866, 0, 2, 0),
        ("Base", "reference", 4, 54808, 3629, 144, 1747, 5520, 0, 0, 434698, 0, 8, 0),
        ("Base", "event", 1, 55780, 474, 45, 1000, 1519, 0, 0, 131866, 0, 2, 0),
        ("Base", "event", 4, 54808, 3629, 144, 1747, 5520, 0, 0, 434698, 0, 8, 0),
        ("LISA-VILLA", "reference", 1, 56488, 459, 190, 868, 1517, 0, 0, 132967, 0, 2, 246),
        ("LISA-VILLA", "reference", 4, 56656, 3582, 462, 1472, 5516, 0, 0, 444187, 0, 8, 722),
        ("LISA-VILLA", "event", 1, 56488, 459, 190, 868, 1517, 0, 0, 132967, 0, 2, 246),
        ("LISA-VILLA", "event", 4, 56656, 3582, 462, 1472, 5516, 0, 0, 444187, 0, 8, 722),
        ("FIGCache-Slow", "reference", 1, 67116, 548, 82, 892, 1522, 0, 0, 153957, 13504, 2, 843),
        ("FIGCache-Slow", "reference", 4, 63584, 3742, 194, 1578, 5514, 0, 0, 486676, 26416, 8, 1649),
        ("FIGCache-Slow", "event", 1, 67116, 548, 82, 892, 1522, 0, 0, 153957, 13504, 2, 843),
        ("FIGCache-Slow", "event", 4, 63584, 3742, 194, 1578, 5514, 0, 0, 486676, 26416, 8, 1649),
        ("FIGCache-Fast", "reference", 1, 63752, 548, 87, 885, 1520, 0, 0, 147188, 13504, 2, 842),
        ("FIGCache-Fast", "reference", 4, 60264, 3746, 186, 1579, 5511, 0, 0, 472416, 26416, 8, 1650),
        ("FIGCache-Fast", "event", 1, 63752, 548, 87, 885, 1520, 0, 0, 147188, 13504, 2, 842),
        ("FIGCache-Fast", "event", 4, 60264, 3746, 186, 1579, 5511, 0, 0, 472416, 26416, 8, 1650),
        ("FIGCache-Ideal", "reference", 1, 56608, 451, 44, 1027, 1522, 0, 0, 132934, 0, 2, 852),
        ("FIGCache-Ideal", "reference", 4, 55336, 3454, 151, 1921, 5526, 0, 0, 434800, 0, 8, 1666),
        ("FIGCache-Ideal", "event", 1, 56608, 451, 44, 1027, 1522, 0, 0, 132934, 0, 2, 852),
        ("FIGCache-Ideal", "event", 4, 55336, 3454, 151, 1921, 5526, 0, 0, 434800, 0, 8, 1666),
        ("LL-DRAM", "reference", 1, 52612, 471, 39, 1009, 1519, 0, 0, 125161, 0, 2, 0),
        ("LL-DRAM", "reference", 4, 48704, 3629, 121, 1773, 5523, 0, 0, 417679, 0, 4, 0),
        ("LL-DRAM", "event", 1, 52612, 471, 39, 1009, 1519, 0, 0, 125161, 0, 2, 0),
        ("LL-DRAM", "event", 4, 48704, 3629, 121, 1773, 5523, 0, 0, 417679, 0, 4, 0),
    ];
    let mut kinds = vec![ConfigKind::Base];
    kinds.extend(ConfigKind::figure78_set());
    for &(label, kernel_label, cores, a, b, c, d, e, f, g, h, i, j, k) in goldens {
        let kind = kinds.iter().find(|x| x.label() == label).expect("golden label known");
        let kernel = if kernel_label == "event" { Kernel::Event } else { Kernel::Reference };
        let s = golden_run(kind, kernel, cores);
        assert_eq!(
            digest(&s),
            (a, b, c, d, e, f, g, h, i, j, k),
            "refactored FR-FCFS diverged from the seed: {label}/{kernel_label}/{cores}c"
        );
    }
}

/// Longer single-core mcf runs that actually drain writes (the same
/// extra goldens the digest example captures).
#[test]
fn frfcfs_reproduces_the_seed_on_write_draining_runs() {
    #[rustfmt::skip]
    let goldens: &[WriteGoldenRow] = &[
        (ConfigKind::Base, "reference", 232218, 2183, 142, 4163, 6488, 0, 0, 542198, 0, 9, 0),
        (ConfigKind::Base, "event", 232218, 2183, 142, 4163, 6488, 0, 0, 542198, 0, 9, 0),
        (ConfigKind::FigCacheFast, "reference", 244742, 2655, 224, 3610, 6489, 0, 0, 555386, 42416, 9, 2650),
        (ConfigKind::FigCacheFast, "event", 244742, 2655, 224, 3610, 6489, 0, 0, 555386, 42416, 9, 2650),
    ];
    for (kind, kernel_label, a, b, c, d, e, f, g, h, i, j, k) in goldens {
        let kernel = if *kernel_label == "event" { Kernel::Event } else { Kernel::Reference };
        let p = profile_by_name("mcf").unwrap();
        let trace = generate_trace(&p, 30_000, 42);
        let cfg = SystemConfig { kernel, ..SystemConfig::paper(1, kind.clone()) };
        let mut sys = System::new(cfg, vec![trace], &[60_000]);
        let s = sys.run(60_000 * 400);
        assert_eq!(
            digest(&s),
            (*a, *b, *c, *d, *e, *f, *g, *h, *i, *j, *k),
            "refactored FR-FCFS diverged from the seed: {}/{kernel_label}",
            kind.label()
        );
    }
}

/// The event-kernel runs of both golden tables above, in table order.
fn event_golden_runs() -> Vec<RunStats> {
    let mut kinds = vec![ConfigKind::Base];
    kinds.extend(ConfigKind::figure78_set());
    let mut runs: Vec<RunStats> = kinds
        .iter()
        .flat_map(|kind| [1, 4].map(|cores| golden_run(kind, Kernel::Event, cores)))
        .collect();
    for kind in [ConfigKind::Base, ConfigKind::FigCacheFast] {
        let trace = generate_trace(&profile_by_name("mcf").unwrap(), 30_000, 42);
        let mut sys = System::new(SystemConfig::paper(1, kind), vec![trace], &[60_000]);
        runs.push(sys.run(60_000 * 400));
    }
    runs
}

#[test]
fn model_epoch_pins_the_seed_golden_run_stats() {
    // Every field of every event-kernel golden run, not just the digest
    // columns: any change to simulated behaviour moves this hash, and
    // with it the result-cache epoch, so stale cache entries are never
    // returned.
    let text: String = event_golden_runs().iter().map(|s| format!("{s:?}\n")).collect();
    let digest = figaro_sim::runner::key_hash(&text);
    assert_eq!(
        digest, MODEL_EPOCH,
        "simulated behaviour changed: set MODEL_EPOCH in crates/sim/src/runner.rs to {digest:#018x}"
    );
}

#[test]
fn scenario_sched_override_reaches_the_controller_and_gets_its_own_cache_key() {
    let dir = std::env::temp_dir()
        .join(format!("figaro-cache-test-{}", std::process::id()))
        .join("sched");
    let _ = std::fs::remove_dir_all(&dir);
    let runner = Runner::with_cache_dir(Scale::Tiny, dir.clone());
    let spec = |sched: SchedPolicyKind| {
        let mut spec =
            runner.stream_spec(ConfigKind::Base, &[profile_by_name("mcf").unwrap()], Some(12_000));
        spec.config = spec.config.with_sched(sched);
        spec
    };
    let frfcfs = runner.run(&spec(SchedPolicyKind::FrFcfs));
    let fcfs = runner.run(&spec(SchedPolicyKind::Fcfs));
    assert_ne!(frfcfs, fcfs, "policies must not share cached results");
    assert!(
        fcfs.cpu_cycles > frfcfs.cpu_cycles,
        "strict FCFS must be slower than FR-FCFS on a row-local workload \
         ({} vs {} cycles)",
        fcfs.cpu_cycles,
        frfcfs.cpu_cycles
    );
    assert!(
        fcfs.row_hit_rate < frfcfs.row_hit_rate,
        "FCFS forfeits row-buffer locality ({} vs {})",
        fcfs.row_hit_rate,
        frfcfs.row_hit_rate
    );
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}

#[test]
fn scheduler_sweep_tiny_grid_runs_and_exports_csv() {
    // The scheduler-sweep smoke: the full policy x mechanism grid on
    // streamed mixes at a tiny instruction target, with the CSV export
    // the manual CI job uploads as an artifact.
    let runner = Runner::uncached(Scale::Tiny);
    let fig = scheduler_sweep_with(&runner, Some(4_000));
    assert_eq!(fig.rows.len(), 8, "4 policies x 2 mechanisms");
    assert!(fig.columns.len() >= 4, "ipc + row-hit per mix");
    for (label, vals) in &fig.rows {
        assert!(vals.iter().all(|v| v.is_finite() && *v >= 0.0), "non-finite cell in row {label}");
        assert!(vals[0] > 0.0, "zero throughput in row {label}");
    }
    let csv = fig.to_csv();
    assert!(csv.lines().count() > 8, "csv must carry the grid");
    assert!(csv.contains("frfcfs / Base"));
    assert!(csv.contains("fcfs / FIGCache-Fast"));
}

/// Runs one policy/kernel combination on a deterministic seed mix.
fn policy_run(
    seed: u64,
    cores: usize,
    sched: SchedPolicyKind,
    kind: &ConfigKind,
    kernel: Kernel,
) -> RunStats {
    let profiles = app_profiles();
    let traces: Vec<Trace> = (0..cores)
        .map(|i| {
            let p = &profiles[(seed as usize + 7 * i) % profiles.len()];
            generate_trace(p, 6_000, seed ^ (i as u64).wrapping_mul(0x9e37_79b9))
        })
        .collect();
    let insts = 8_000u64;
    let cfg = SystemConfig { kernel, ..SystemConfig::paper(cores, kind.clone()) }.with_sched(sched);
    let mut sys = System::new(cfg, traces, &vec![insts; cores]);
    sys.run(insts * 400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every scheduling policy preserves the event-kernel contract:
    /// random seed x policy x mechanism x 1-2 cores, bit-identical
    /// RunStats between the event and reference kernels.
    #[test]
    fn every_policy_preserves_kernel_equivalence(
        seed in 0u64..1_000_000,
        cores_log2 in 0u32..2,
        policy_idx in 0usize..4,
        kind_idx in 0usize..3,
    ) {
        let policies = [
            SchedPolicyKind::FrFcfs,
            SchedPolicyKind::Fcfs,
            SchedPolicyKind::FrFcfsCap { cap: 2 },
            SchedPolicyKind::WriteDrain { high: 8, low: 2 },
        ];
        let kinds = [ConfigKind::Base, ConfigKind::FigCacheFast, ConfigKind::LisaVilla];
        let cores = 1usize << cores_log2;
        let sched = policies[policy_idx];
        let kind = &kinds[kind_idx];
        let reference = policy_run(seed, cores, sched, kind, Kernel::Reference);
        let event = policy_run(seed, cores, sched, kind, Kernel::Event);
        prop_assert_eq!(
            &reference,
            &event,
            "RunStats diverged: seed={} cores={} sched={} kind={}",
            seed,
            cores,
            sched.label(),
            kind.label()
        );
        prop_assert!(reference.dram.reads > 0, "workload never reached DRAM");
    }
}
