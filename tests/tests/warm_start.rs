//! Warm-start through the [`Runner`]: a warmed scenario run must be
//! bit-identical to a cold uninterrupted run (the FGSN resume
//! guarantee, exercised end to end through `run_scenario`), the warm
//! snapshot must be written once and reused by every run sharing the
//! warm prefix — including other kernels — and warmed results must key
//! separately in the result cache (the warmup is part of the cached
//! spec).

use std::path::{Path, PathBuf};

use figaro_sim::{ConfigKind, Kernel, Runner, Scale, Scenario, ScenarioWorkload};
use figaro_workloads::profile_by_name;

const WARM_CYCLES: u64 = 2_000;

fn scenario() -> Scenario {
    Scenario::new(
        "warmstart",
        ConfigKind::FigCacheFast,
        ScenarioWorkload::Apps(vec![
            profile_by_name("mcf").unwrap(),
            profile_by_name("lbm").unwrap(),
        ]),
    )
    .with_target_insts(12_000)
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("figaro-warm-{tag}-{}", std::process::id()))
}

fn fgsn_count(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |rd| {
        rd.filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "fgsn"))
            .count()
    })
}

#[test]
fn warm_run_matches_cold_run_bit_for_bit() {
    let snaps = tmp_dir("eq");
    let _ = std::fs::remove_dir_all(&snaps);

    let cold = Runner::uncached(Scale::Tiny).run_scenario(&scenario());
    let warm = Runner::uncached(Scale::Tiny)
        .with_snapshot_dir(snaps.clone())
        .run_scenario(&scenario().with_warmup(WARM_CYCLES));
    assert_eq!(warm, cold, "resuming from the warm snapshot diverged from the cold run");
    assert_eq!(fgsn_count(&snaps), 1, "warmup must publish exactly one snapshot");

    // The reference kernel shares the warm prefix: it must branch from
    // the existing snapshot (no second file) and still match its own
    // cold run — which is bit-identical to the event kernel's.
    let reference = Runner::uncached(Scale::Tiny)
        .with_snapshot_dir(snaps.clone())
        .with_kernel(Kernel::Reference)
        .run_scenario(&scenario().with_warmup(WARM_CYCLES));
    assert_eq!(reference, cold, "reference-kernel warm run diverged");
    assert_eq!(fgsn_count(&snaps), 1, "a shared warm prefix must reuse the snapshot");

    // A different warm length is a different prefix: new snapshot.
    let longer = Runner::uncached(Scale::Tiny)
        .with_snapshot_dir(snaps.clone())
        .run_scenario(&scenario().with_warmup(WARM_CYCLES * 2));
    assert_eq!(longer, cold, "longer warmup still resumes bit-identically");
    assert_eq!(fgsn_count(&snaps), 2, "a different warm length is its own snapshot");

    let _ = std::fs::remove_dir_all(&snaps);
}

#[test]
fn warm_and_sampled_runs_key_separately_in_result_cache() {
    let cache = tmp_dir("keys");
    let _ = std::fs::remove_dir_all(&cache);

    // One cold, one warmed, one sampled run of the same scenario: three
    // distinct cache entries, so approximate or warmed results can never
    // shadow the canonical cold entry.
    let runner = Runner::with_cache_dir(Scale::Tiny, cache.clone());
    let cold = runner.run_scenario(&scenario());
    let warm = runner.run_scenario(&scenario().with_warmup(WARM_CYCLES));
    let sampled = Runner::with_cache_dir(Scale::Tiny, cache.clone())
        .with_kernel(Kernel::Sampled { window: 4_000, skip: 8_000 })
        .run_scenario(&scenario());
    assert_eq!(warm, cold);

    // Each entry's first line is the spec it caches.
    let specs: Vec<String> = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "txt"))
        .map(|e| std::fs::read_to_string(e.path()).unwrap().lines().next().unwrap().to_string())
        .collect();
    assert_eq!(specs.len(), 3, "cold, warm and sampled must key separately: {specs:?}");
    let count = |needle: &str| specs.iter().filter(|s| s.contains(needle)).count();
    assert_eq!(count("warmup: Some(2000)"), 1, "{specs:?}");
    assert_eq!(count("kernel: Sampled { window: 4000, skip: 8000 }"), 1, "{specs:?}");
    assert_eq!(count("warmup: None"), 2, "{specs:?}");

    // The warm snapshot defaulted to <cache_dir>/snapshots.
    assert_eq!(fgsn_count(&cache.join("snapshots")), 1);

    // Sampled mode is approximate: it must have produced a *different*
    // entry, not a copy of the canonical numbers under another name.
    assert!(sampled.cpu_cycles > 0 && sampled.ipc.iter().all(|i| i.is_finite()));

    let _ = std::fs::remove_dir_all(&cache);
}
