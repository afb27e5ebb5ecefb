//! Resume equivalence of FGSN snapshots: saving at a random cycle and
//! restoring into a freshly built system must continue **bit-identically**
//! to the uninterrupted run — under every exact kernel, with and without
//! an in-DRAM cache engine, across core counts. This is the correctness
//! argument for warm-start sweeps: a sweep point branching from a warm
//! snapshot reports exactly what a cold uninterrupted run would have.

use proptest::prelude::*;

use figaro_sim::{snapshot, ConfigKind, Kernel, RunStats, System, SystemConfig};
use figaro_workloads::{app_profiles, generate_trace, Trace};

/// A deterministic multi-core system from `(seed, cores, kind, kernel)`.
fn build(seed: u64, cores: usize, kind: &ConfigKind, kernel: Kernel, insts: u64) -> System {
    let profiles = app_profiles();
    let traces: Vec<Trace> = (0..cores)
        .map(|i| {
            let p = &profiles[(seed as usize + 7 * i) % profiles.len()];
            generate_trace(p, 6_000, seed ^ (i as u64).wrapping_mul(0x9e37_79b9))
        })
        .collect();
    let cfg = SystemConfig { kernel, ..SystemConfig::paper(cores, kind.clone()) };
    System::new(cfg, traces, &vec![insts; cores])
}

/// Runs to completion, interrupted at `save_at` by a save/restore round
/// trip through FGSN bytes, and returns both the resumed stats and the
/// uninterrupted golden run.
fn interrupted_vs_golden(
    seed: u64,
    cores: usize,
    kind: &ConfigKind,
    kernel: Kernel,
    insts: u64,
    save_at: u64,
) -> (RunStats, RunStats) {
    let max = insts * 400;
    let golden = build(seed, cores, kind, kernel, insts).run(max);

    let mut first = build(seed, cores, kind, kernel, insts);
    let _ = first.run(save_at);
    let mut bytes = Vec::new();
    snapshot::save_to_writer(&first, &mut bytes).expect("snapshot save");

    let mut resumed = build(seed, cores, kind, kernel, insts);
    snapshot::restore_from_reader(&mut resumed, &mut bytes.as_slice()).expect("snapshot restore");
    (resumed.run(max), golden)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random seed x save cycle x {Reference, Event} x
    /// {Base, FIGCache-Fast} x 1-2 cores: the resumed run's full
    /// statistics record equals the uninterrupted run's bit for bit.
    #[test]
    fn resumed_run_is_bit_identical_to_uninterrupted(
        seed in 0u64..1_000_000,
        save_at in 500u64..40_000,
        kernel_idx in 0usize..2,
        cached in any::<bool>(),
        cores_log2 in 0u32..2,
    ) {
        let kernel = [Kernel::Reference, Kernel::Event][kernel_idx];
        let kind = if cached { ConfigKind::FigCacheFast } else { ConfigKind::Base };
        let cores = 1usize << cores_log2;
        let insts = 8_000;
        let (resumed, golden) = interrupted_vs_golden(seed, cores, &kind, kernel, insts, save_at);
        prop_assert_eq!(
            &resumed,
            &golden,
            "resume diverged: seed={} save_at={} kernel={:?} kind={} cores={}",
            seed,
            save_at,
            kernel,
            kind.label(),
            cores
        );
        prop_assert!(golden.instructions.iter().all(|&i| i == insts));
    }

    /// Warm-start's cross-kernel contract: a snapshot written under the
    /// event kernel resumes under any exact kernel, and the resumed run
    /// equals that kernel's own uninterrupted run.
    #[test]
    fn event_snapshot_resumes_under_any_exact_kernel(
        seed in 0u64..1_000_000,
        save_at in 500u64..20_000,
        resume_kernel_idx in 0usize..2,
    ) {
        let resume_kernel = [Kernel::Reference, Kernel::Event][resume_kernel_idx];
        let kind = ConfigKind::FigCacheFast;
        let insts = 8_000;
        let max = insts * 400;

        let mut warm = build(seed, 1, &kind, Kernel::Event, insts);
        let _ = warm.run(save_at);
        let mut bytes = Vec::new();
        snapshot::save_to_writer(&warm, &mut bytes).expect("snapshot save");

        let mut resumed = build(seed, 1, &kind, resume_kernel, insts);
        snapshot::restore_from_reader(&mut resumed, &mut bytes.as_slice())
            .expect("config hash ignores the kernel, so cross-kernel restore must succeed");
        let golden = build(seed, 1, &kind, resume_kernel, insts).run(max);
        prop_assert_eq!(
            &resumed.run(max),
            &golden,
            "cross-kernel resume diverged: seed={} save_at={} resume_kernel={:?}",
            seed,
            save_at,
            resume_kernel
        );
    }
}

/// A snapshot taken mid-relocation (engine jobs in flight, MSHRs busy)
/// restores LISA-VILLA's whole-row clone jobs too, not just FIGARO copies.
#[test]
fn lisa_villa_resumes_bit_identically() {
    let kind = ConfigKind::LisaVilla;
    let (resumed, golden) = interrupted_vs_golden(42, 2, &kind, Kernel::Event, 8_000, 3_000);
    assert_eq!(resumed, golden);
}

/// Saving at cycle 0 (before any work) and at a cycle past run end are
/// both legal degenerate cases.
#[test]
fn degenerate_save_points_resume_cleanly() {
    let kind = ConfigKind::Base;
    for save_at in [0, u64::MAX] {
        let insts = 4_000;
        let max = insts * 400;
        let golden = build(7, 1, &kind, Kernel::Event, insts).run(max);
        let mut first = build(7, 1, &kind, Kernel::Event, insts);
        let _ = first.run(save_at.min(max));
        let mut bytes = Vec::new();
        snapshot::save_to_writer(&first, &mut bytes).expect("save");
        let mut resumed = build(7, 1, &kind, Kernel::Event, insts);
        snapshot::restore_from_reader(&mut resumed, &mut bytes.as_slice()).expect("restore");
        assert_eq!(resumed.run(max), golden, "save_at={save_at}");
    }
}
