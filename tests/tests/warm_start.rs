//! Warm-start through the [`Runner`]: a warmed streamed run must be
//! bit-identical to a cold uninterrupted run (the FGSN resume
//! guarantee, exercised end to end through `Runner::run`), the warm
//! snapshot must be written once and reused by every run sharing the
//! warm prefix — including other kernels — and warmed results must key
//! separately in the result cache (the warmup is part of the cached
//! spec).

use std::path::{Path, PathBuf};

use figaro_sim::{ConfigKind, Kernel, RunSpec, Runner, Scale, SystemConfig};
use figaro_workloads::profile_by_name;

const WARM_CYCLES: u64 = 2_000;

/// The streamed `mcf` + `lbm` FIGCache run as `runner` builds it,
/// warm-started for `warmup` cycles when set.
fn spec(runner: &Runner, warmup: Option<u64>) -> RunSpec {
    let apps = ["mcf", "lbm"].map(|n| profile_by_name(n).unwrap());
    RunSpec { warmup, ..runner.stream_spec(ConfigKind::FigCacheFast, &apps, Some(12_000)) }
}

/// `runner` with its system template on `kernel`.
fn on_kernel(runner: Runner, kernel: Kernel) -> Runner {
    runner.with_system(|s| SystemConfig { kernel, ..s })
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

    let cold_runner = Runner::uncached(Scale::Tiny);
    let cold = cold_runner.run(&spec(&cold_runner, None));
    let warm_runner = Runner::uncached(Scale::Tiny).with_snapshot_dir(snaps.clone());
    let warm = warm_runner.run(&spec(&warm_runner, Some(WARM_CYCLES)));
    assert_eq!(warm, cold, "resuming from the warm snapshot diverged from the cold run");
    assert_eq!(fgsn_count(&snaps), 1, "warmup must publish exactly one snapshot");

    // The reference kernel shares the warm prefix: it must branch from
    // the existing snapshot (no second file) and still match its own
    // cold run — which is bit-identical to the event kernel's.
    let ref_runner = on_kernel(warm_runner, Kernel::Reference);
    let reference = ref_runner.run(&spec(&ref_runner, Some(WARM_CYCLES)));
    assert_eq!(reference, cold, "reference-kernel warm run diverged");
    assert_eq!(fgsn_count(&snaps), 1, "a shared warm prefix must reuse the snapshot");

    // A different warm length is a different prefix: new snapshot.
    let longer_runner = Runner::uncached(Scale::Tiny).with_snapshot_dir(snaps.clone());
    let longer = longer_runner.run(&spec(&longer_runner, Some(WARM_CYCLES * 2)));
    assert_eq!(longer, cold, "longer warmup still resumes bit-identically");
    assert_eq!(fgsn_count(&snaps), 2, "a different warm length is its own snapshot");

    let _ = std::fs::remove_dir_all(&snaps);
}

#[test]
fn warm_and_reference_runs_key_separately_in_result_cache() {
    let cache = tmp_dir("keys");
    let _ = std::fs::remove_dir_all(&cache);

    // One cold, one warmed and one reference-kernel run of the same
    // workload: three distinct cache entries, because the kernel and the
    // warmup are both part of the cached spec.
    let runner = Runner::with_cache_dir(Scale::Tiny, cache.clone());
    let cold = runner.run(&spec(&runner, None));
    let warm = runner.run(&spec(&runner, Some(WARM_CYCLES)));
    let ref_runner =
        on_kernel(Runner::with_cache_dir(Scale::Tiny, cache.clone()), Kernel::Reference);
    let reference = ref_runner.run(&spec(&ref_runner, None));
    assert_eq!(warm, cold);
    assert_eq!(reference, cold);

    // Each entry's first line is the spec it caches.
    let specs: Vec<String> = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "txt"))
        .map(|e| std::fs::read_to_string(e.path()).unwrap().lines().next().unwrap().to_string())
        .collect();
    assert_eq!(specs.len(), 3, "cold, warm and reference must key separately: {specs:?}");
    let count = |needle: &str| specs.iter().filter(|s| s.contains(needle)).count();
    assert_eq!(count("warmup: Some(2000)"), 1, "{specs:?}");
    assert_eq!(count("kernel: Reference"), 1, "{specs:?}");
    assert_eq!(count("warmup: None"), 2, "{specs:?}");

    // The warm snapshot defaulted to <cache_dir>/snapshots.
    assert_eq!(fgsn_count(&cache.join("snapshots")), 1);

    let _ = std::fs::remove_dir_all(&cache);
}
