//! Cross-crate proof obligations of the address-mapping & page-mapping
//! subsystem.
//!
//! 1. **Seed bit-identity**: the default mapping (the paper's
//!    `{row, rank, bankgroup, bank, channel, column}` slice) plus the
//!    identity page mapper reproduce the PR-4 seed `RunStats` bit for
//!    bit — under **both kernels and all four scheduler policies** (the
//!    FR-FCFS rows are exactly the PR-4 goldens of
//!    `tests/tests/sched_policies.rs`; the other policies' digests were
//!    captured from the pre-subsystem head; regenerate with
//!    `cargo run --release --example mapping_golden_digest`).
//! 2. **Mapping × kernel equivalence**: every mapping scheme and page
//!    policy keeps the event kernel bit-identical to the per-cycle
//!    reference.
//! 3. **Placement really moves**: non-default mappings and placements
//!    change DRAM behavior (they must not silently fall back to the
//!    default path).
//! 4. **Runner plumbing**: per-run mapping/page overrides reach
//!    the system and never share cache entries with the default.

use proptest::prelude::*;

use figaro_sim::experiments::{mapping_kinds, mapping_sweep_with, page_policies};
use figaro_sim::{
    ConfigKind, Kernel, MapKind, MapScheme, PageMapKind, RunStats, Runner, Scale, SchedPolicyKind,
    System, SystemConfig,
};
use figaro_workloads::{generate_trace, profile_by_name, Trace};

/// The digest fields asserted against the pre-subsystem goldens.
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

/// The deterministic multi-app run shape the goldens were captured on
/// (the same shape as the PR-4 scheduler goldens), with the mapping and
/// page placement pinned **explicitly** so the test exercises the full
/// plumbing rather than the untouched-default shortcut.
fn golden_run(kind: &ConfigKind, sched: SchedPolicyKind, kernel: Kernel, cores: usize) -> RunStats {
    let apps = ["mcf", "lbm", "zeusmp", "libquantum"];
    let traces: Vec<Trace> = (0..cores)
        .map(|i| {
            let p = profile_by_name(apps[i % apps.len()]).unwrap();
            generate_trace(&p, 8_000, 7 + i as u64)
        })
        .collect();
    let insts = 12_000u64;
    let cfg = SystemConfig { kernel, ..SystemConfig::paper(cores, kind.clone()) }
        .with_sched(sched)
        .with_mapping(MapKind::paper())
        .with_page_map(PageMapKind::Identity);
    let mut sys = System::new(cfg, traces, &vec![insts; cores]);
    sys.run(insts * 400)
}

/// One golden row: config label, scheduler label, kernel label, cores,
/// then the [`digest`] fields in order.
type GoldenRow = (
    &'static str,
    &'static str,
    &'static str,
    usize,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
);

/// The PR-4/PR-5 seed goldens, captured on the pre-subsystem head; the
/// frfcfs rows equal the PR-4 seed goldens in
/// `tests/tests/sched_policies.rs`.
fn seed_goldens() -> &'static [GoldenRow] {
    #[rustfmt::skip]
    let goldens: &[GoldenRow] = &[
        ("Base", "frfcfs", "reference", 1, 55780, 474, 45, 1000, 1519, 0, 0, 131866, 0, 2, 0),
        ("Base", "frfcfs", "reference", 4, 54808, 3629, 144, 1747, 5520, 0, 0, 434698, 0, 8, 0),
        ("Base", "frfcfs", "event", 1, 55780, 474, 45, 1000, 1519, 0, 0, 131866, 0, 2, 0),
        ("Base", "frfcfs", "event", 4, 54808, 3629, 144, 1747, 5520, 0, 0, 434698, 0, 8, 0),
        ("Base", "fcfs", "reference", 1, 148097, 461, 89, 956, 1506, 0, 0, 316844, 0, 5, 0),
        ("Base", "fcfs", "reference", 4, 108232, 3554, 264, 1669, 5487, 0, 0, 851328, 0, 16, 0),
        ("Base", "fcfs", "event", 1, 148097, 461, 89, 956, 1506, 0, 0, 316844, 0, 5, 0),
        ("Base", "fcfs", "event", 4, 108232, 3554, 264, 1669, 5487, 0, 0, 851328, 0, 16, 0),
        ("Base", "frfcfs-cap4", "reference", 1, 56000, 472, 47, 1000, 1519, 0, 0, 132306, 0, 2, 0),
        ("Base", "frfcfs-cap4", "reference", 4, 54428, 3503, 259, 1773, 5535, 0, 0, 459830, 0, 8, 0),
        ("Base", "frfcfs-cap4", "event", 1, 56000, 472, 47, 1000, 1519, 0, 0, 132306, 0, 2, 0),
        ("Base", "frfcfs-cap4", "event", 4, 54428, 3503, 259, 1773, 5535, 0, 0, 459830, 0, 8, 0),
        ("Base", "wdrain48-8", "reference", 1, 55780, 474, 45, 1000, 1519, 0, 0, 131866, 0, 2, 0),
        ("Base", "wdrain48-8", "reference", 4, 54808, 3629, 144, 1747, 5520, 0, 0, 434698, 0, 8, 0),
        ("Base", "wdrain48-8", "event", 1, 55780, 474, 45, 1000, 1519, 0, 0, 131866, 0, 2, 0),
        ("Base", "wdrain48-8", "event", 4, 54808, 3629, 144, 1747, 5520, 0, 0, 434698, 0, 8, 0),
        ("FIGCache-Fast", "frfcfs", "reference", 1, 63752, 548, 87, 885, 1520, 0, 0, 147188, 13504, 2, 842),
        ("FIGCache-Fast", "frfcfs", "reference", 4, 60264, 3746, 186, 1579, 5511, 0, 0, 472416, 26416, 8, 1650),
        ("FIGCache-Fast", "frfcfs", "event", 1, 63752, 548, 87, 885, 1520, 0, 0, 147188, 13504, 2, 842),
        ("FIGCache-Fast", "frfcfs", "event", 4, 60264, 3746, 186, 1579, 5511, 0, 0, 472416, 26416, 8, 1650),
        ("FIGCache-Fast", "fcfs", "reference", 1, 162109, 523, 103, 880, 1506, 0, 0, 344766, 13424, 6, 838),
        ("FIGCache-Fast", "fcfs", "reference", 4, 117788, 3665, 281, 1544, 5490, 0, 0, 886328, 26416, 16, 1648),
        ("FIGCache-Fast", "fcfs", "event", 1, 162109, 523, 103, 880, 1506, 0, 0, 344766, 13424, 6, 838),
        ("FIGCache-Fast", "fcfs", "event", 4, 117788, 3665, 281, 1544, 5490, 0, 0, 886328, 26416, 16, 1648),
        ("FIGCache-Fast", "frfcfs-cap4", "reference", 1, 64092, 545, 90, 885, 1520, 0, 0, 147856, 13504, 2, 842),
        ("FIGCache-Fast", "frfcfs-cap4", "reference", 4, 61048, 3617, 300, 1596, 5513, 0, 0, 494942, 26512, 8, 1655),
        ("FIGCache-Fast", "frfcfs-cap4", "event", 1, 64092, 545, 90, 885, 1520, 0, 0, 147856, 13504, 2, 842),
        ("FIGCache-Fast", "frfcfs-cap4", "event", 4, 61048, 3617, 300, 1596, 5513, 0, 0, 494942, 26512, 8, 1655),
        ("FIGCache-Fast", "wdrain48-8", "reference", 1, 63752, 548, 87, 885, 1520, 0, 0, 147188, 13504, 2, 842),
        ("FIGCache-Fast", "wdrain48-8", "reference", 4, 60264, 3746, 186, 1579, 5511, 0, 0, 472416, 26416, 8, 1650),
        ("FIGCache-Fast", "wdrain48-8", "event", 1, 63752, 548, 87, 885, 1520, 0, 0, 147188, 13504, 2, 842),
        ("FIGCache-Fast", "wdrain48-8", "event", 4, 60264, 3746, 186, 1579, 5511, 0, 0, 472416, 26416, 8, 1650),
    ];
    goldens
}

#[test]
fn default_mapping_and_identity_pages_reproduce_the_pr4_seed_bit_for_bit() {
    for &(label, sched_label, kernel_label, cores, a, b, c, d, e, f, g, h, i, j, k) in
        seed_goldens()
    {
        let kind = if label == "Base" { ConfigKind::Base } else { ConfigKind::FigCacheFast };
        let sched = SchedPolicyKind::from_name(sched_label).expect("golden sched label known");
        let kernel = if kernel_label == "event" { Kernel::Event } else { Kernel::Reference };
        let s = golden_run(&kind, sched, kernel, cores);
        assert_eq!(
            digest(&s),
            (a, b, c, d, e, f, g, h, i, j, k),
            "default mapping diverged from the seed: {label}/{sched_label}/{kernel_label}/{cores}c"
        );
    }
}

/// Runs one mapping/page/kernel combination on a deterministic mix.
fn placement_run(
    seed: u64,
    cores: usize,
    map: MapKind,
    page_map: PageMapKind,
    kind: &ConfigKind,
    kernel: Kernel,
) -> RunStats {
    let apps = ["mcf", "lbm", "zeusmp", "libquantum"];
    let traces: Vec<Trace> = (0..cores)
        .map(|i| {
            let p = profile_by_name(apps[(seed as usize + i) % apps.len()]).unwrap();
            generate_trace(&p, 6_000, seed ^ (i as u64).wrapping_mul(0x9e37_79b9))
        })
        .collect();
    let insts = 8_000u64;
    let cfg = SystemConfig { kernel, ..SystemConfig::paper(cores, kind.clone()) }
        .with_mapping(map)
        .with_page_map(page_map);
    let mut sys = System::new(cfg, traces, &vec![insts; cores]);
    sys.run(insts * 400)
}

#[test]
fn non_default_placements_actually_move_data() {
    // Every non-default mapping and page policy must produce a run that
    // differs from the paper/identity default — a sweep whose points
    // silently collapse onto the default would measure nothing.
    let base = placement_run(
        1,
        4,
        MapKind::paper(),
        PageMapKind::Identity,
        &ConfigKind::Base,
        Kernel::Event,
    );
    for map in mapping_kinds().into_iter().skip(1) {
        let s = placement_run(1, 4, map, PageMapKind::Identity, &ConfigKind::Base, Kernel::Event);
        assert_ne!(digest(&s), digest(&base), "mapping {} changed nothing", map.label());
    }
    for page in page_policies().into_iter().skip(1) {
        let s = placement_run(1, 4, MapKind::paper(), page, &ConfigKind::Base, Kernel::Event);
        assert_ne!(digest(&s), digest(&base), "page policy {} changed nothing", page.label());
    }
}

#[test]
fn rowint_serializes_banks_and_chfirst_spreads_them() {
    // Directional sanity on the two extremes: the bank-sequential
    // row-interleaved scheme must lose row-buffer-level parallelism
    // against the paper mapping on a multi-bank mix (longer run), while
    // chfirst still finishes (it trades row hits for bank spread).
    let paper = placement_run(
        2,
        4,
        MapKind::paper(),
        PageMapKind::Identity,
        &ConfigKind::Base,
        Kernel::Event,
    );
    let rowint = placement_run(
        2,
        4,
        MapKind { scheme: MapScheme::RowInt, xor_bank: false },
        PageMapKind::Identity,
        &ConfigKind::Base,
        Kernel::Event,
    );
    assert!(
        rowint.cpu_cycles > paper.cpu_cycles,
        "bank-sequential mapping must be slower than the paper interleaving \
         ({} vs {} cycles)",
        rowint.cpu_cycles,
        paper.cpu_cycles
    );
}

#[test]
fn scenario_mapping_override_reaches_the_system_and_gets_its_own_cache_key() {
    let dir =
        std::env::temp_dir().join(format!("figaro-cache-test-{}", std::process::id())).join("map");
    let _ = std::fs::remove_dir_all(&dir);
    let runner = Runner::with_cache_dir(Scale::Tiny, dir.clone());
    let spec = |map: MapKind, page: PageMapKind| {
        let mut spec =
            runner.stream_spec(ConfigKind::Base, &[profile_by_name("mcf").unwrap()], Some(12_000));
        spec.config = spec.config.with_mapping(map).with_page_map(page);
        spec
    };
    let default = runner.run(&spec(MapKind::paper(), PageMapKind::Identity));
    let rowint = runner
        .run(&spec(MapKind { scheme: MapScheme::RowInt, xor_bank: false }, PageMapKind::Identity));
    let colored = runner.run(&spec(MapKind::paper(), PageMapKind::Color { colors: 16 }));
    assert_ne!(default, rowint, "mappings must not share cached results");
    assert_ne!(default, colored, "page policies must not share cached results");
    assert!(
        rowint.cpu_cycles > default.cpu_cycles,
        "bank-sequential mapping must serialize mcf's bank bursts \
         ({} vs {} cycles)",
        rowint.cpu_cycles,
        default.cpu_cycles
    );
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}

#[test]
fn mapping_sweep_tiny_grid_runs_and_exports_csv() {
    // The mapping-sweep smoke: the full mapping x page x mechanism grid
    // on streamed mixes at a tiny instruction target, with the CSV
    // export the manual CI job uploads as an artifact.
    let runner = Runner::uncached(Scale::Tiny);
    let fig = mapping_sweep_with(&runner, Some(4_000));
    assert_eq!(fig.rows.len(), 4 * 3 * 2, "4 mappings x 3 page policies x 2 mechanisms");
    assert!(fig.columns.len() >= 6, "ipc + row-hit + cache-hit per mix");
    for (label, vals) in &fig.rows {
        assert!(vals.iter().all(|v| v.is_finite() && *v >= 0.0), "non-finite cell in row {label}");
        assert!(vals[0] > 0.0, "zero throughput in row {label}");
    }
    let csv = fig.to_csv();
    assert!(csv.lines().count() > 24, "csv must carry the grid");
    assert!(csv.contains("paper / ident / Base"));
    assert!(csv.contains("rowint / color16 / FIGCache-Fast"));
    assert!(csv.contains("paper-xor / rand1 / Base"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every mapping scheme and page policy preserves the event-kernel
    /// contract: random seed x mapping x page policy x mechanism,
    /// bit-identical RunStats between the event and reference kernels.
    #[test]
    fn every_placement_preserves_kernel_equivalence(
        seed in 0u64..1_000_000,
        map_idx in 0usize..4,
        page_idx in 0usize..3,
        kind_idx in 0usize..2,
    ) {
        let map = mapping_kinds()[map_idx];
        let page = page_policies()[page_idx];
        let kinds = [ConfigKind::Base, ConfigKind::FigCacheFast];
        let kind = &kinds[kind_idx];
        let reference = placement_run(seed, 2, map, page, kind, Kernel::Reference);
        let event = placement_run(seed, 2, map, page, kind, Kernel::Event);
        prop_assert_eq!(
            &reference,
            &event,
            "RunStats diverged: seed={} map={} page={} kind={}",
            seed,
            map.label(),
            page.label(),
            kind.label()
        );
        prop_assert!(reference.dram.reads > 0, "workload never reached DRAM");
    }
}
