//! Cross-crate end-to-end tests.
//!
//! * `fast_tier` — deterministic `Scale::Tiny` smoke runs over the full
//!   mechanism set, driven through the runner's parallel batch API.
//! * The remaining tests are the paper-shape assertions at
//!   `Scale::Small`, which gives the in-DRAM cache the warmup the tiny
//!   scale does not.

use figaro_sim::{ConfigKind, Runner, Scale};
use figaro_workloads::{eight_core_mixes, profile_by_name, MixCategory};

fn runner() -> Runner {
    Runner::uncached(Scale::Small)
}

mod fast_tier {
    //! Smoke tests at `Scale::Tiny`: every mechanism builds, runs,
    //! caches, and stays deterministic; the parallel batch runner is
    //! bit-identical to the serial loop.

    use std::sync::OnceLock;

    use figaro_sim::runner::RunSummary;
    use figaro_sim::{ConfigKind, Runner, Scale};
    use figaro_workloads::{eight_core_mixes, profile_by_name, AppProfile, Mix, MixCategory};

    fn all_kinds() -> Vec<ConfigKind> {
        vec![
            ConfigKind::Base,
            ConfigKind::LisaVilla,
            ConfigKind::FigCacheSlow,
            ConfigKind::FigCacheFast,
            ConfigKind::FigCacheIdeal,
            ConfigKind::LlDram,
        ]
    }

    /// `(apps, kinds, results[app][kind])` of the shared tiny matrix.
    type TinyMatrix = (Vec<AppProfile>, Vec<ConfigKind>, Vec<Vec<RunSummary>>);

    /// The shared tiny matrix: one intensive and one non-intensive app
    /// across every mechanism, computed once per process through the
    /// parallel batch API.
    fn matrix() -> &'static TinyMatrix {
        static MATRIX: OnceLock<TinyMatrix> = OnceLock::new();
        MATRIX.get_or_init(|| {
            let apps = vec![profile_by_name("mcf").unwrap(), profile_by_name("sjeng").unwrap()];
            let kinds = all_kinds();
            let runner = Runner::uncached(Scale::Tiny);
            let m = runner.run_single_matrix(&apps, &kinds);
            (apps, kinds, m)
        })
    }

    /// The shared tiny mix smoke: one intensive mix under Base and
    /// FIGCache-Fast.
    fn mix_results() -> &'static (Mix, Vec<RunSummary>) {
        static MIX: OnceLock<(Mix, Vec<RunSummary>)> = OnceLock::new();
        MIX.get_or_init(|| {
            let mix = eight_core_mixes()
                .into_iter()
                .find(|m| m.category == MixCategory::Intensive100)
                .unwrap();
            let runner = Runner::uncached(Scale::Tiny);
            let jobs =
                vec![(mix.clone(), ConfigKind::Base), (mix.clone(), ConfigKind::FigCacheFast)];
            let r = runner.run_mix_batch(&jobs);
            (mix, r)
        })
    }

    #[test]
    fn every_mechanism_completes_with_sane_outputs() {
        let (apps, kinds, m) = matrix();
        for (a, app) in apps.iter().enumerate() {
            for (k, kind) in kinds.iter().enumerate() {
                let s = &m[a][k];
                let ctx = format!("{} under {}", app.name, kind.label());
                assert!(s.ipc[0] > 0.0, "{ctx}: zero IPC");
                assert!(s.cpu_cycles > 0, "{ctx}: zero cycles");
                assert!(s.energy_total() > 0.0, "{ctx}: zero energy");
                assert!(s.mpki[0].is_finite(), "{ctx}: bad MPKI");
                assert!(
                    (0.0..=1.0).contains(&s.row_hit_rate),
                    "{ctx}: row hit rate {} out of range",
                    s.row_hit_rate
                );
            }
        }
    }

    #[test]
    fn figcache_inserts_and_relocates_at_tiny_scale() {
        let (apps, kinds, m) = matrix();
        let mcf = apps.iter().position(|p| p.name == "mcf").unwrap();
        let fast = kinds.iter().position(|k| *k == ConfigKind::FigCacheFast).unwrap();
        let s = &m[mcf][fast];
        assert!(s.insertions > 0, "FIGCache-Fast must insert segments");
        assert!(s.relocs > 0, "insertions must issue RELOC trains");
        let base = kinds.iter().position(|k| *k == ConfigKind::Base).unwrap();
        assert_eq!(m[mcf][base].relocs, 0, "Base must never relocate");
        assert!(m[mcf][base].cache_hit_rate == 0.0, "Base has no in-DRAM cache");
    }

    #[test]
    fn lisa_villa_issues_clones_at_tiny_scale() {
        let (apps, kinds, m) = matrix();
        let mcf = apps.iter().position(|p| p.name == "mcf").unwrap();
        let lisa = kinds.iter().position(|k| *k == ConfigKind::LisaVilla).unwrap();
        assert!(m[mcf][lisa].lisa_clones > 0, "LISA-VILLA must clone rows");
        assert_eq!(m[mcf][lisa].relocs, 0, "LISA-VILLA never issues RELOC");
    }

    #[test]
    fn parallel_matrix_is_bit_identical_to_serial() {
        let (apps, kinds, m) = matrix();
        let runner = Runner::uncached(Scale::Tiny);
        // Spot-check the four corners against fresh serial runs.
        for (a, k) in
            [(0, 0), (0, kinds.len() - 1), (apps.len() - 1, 0), (apps.len() - 1, kinds.len() - 1)]
        {
            let serial = runner.run_single(&apps[a], kinds[k].clone());
            assert_eq!(m[a][k], serial, "{} under {}", apps[a].name, kinds[k].label());
        }
    }

    #[test]
    fn tiny_runs_are_deterministic() {
        let runner = Runner::uncached(Scale::Tiny);
        let p = profile_by_name("grep").unwrap();
        let a = runner.run_single(&p, ConfigKind::FigCacheFast);
        let b = runner.run_single(&p, ConfigKind::FigCacheFast);
        assert_eq!(a, b, "identical runs must be bit-identical");
    }

    #[test]
    fn eight_core_mix_smoke_and_weighted_speedup_computable() {
        let (mix, results) = mix_results();
        let runner = Runner::uncached(Scale::Tiny);
        let alone = runner.alone_ipc_batch(&mix.apps);
        assert!(alone.iter().all(|&v| v > 0.0), "alone IPCs must be positive");
        for s in results {
            assert_eq!(s.ipc.len(), 8, "eight cores reported");
            assert!(s.ipc.iter().all(|&v| v > 0.0));
            let ws = figaro_sim::metrics::weighted_speedup(&s.ipc, &alone);
            assert!(ws.is_finite() && ws > 0.0, "weighted speedup {ws} must be sane");
        }
    }
}

#[test]
fn figcache_fast_beats_base_on_memory_intensive_apps() {
    let r = runner();
    for name in ["mcf", "GemsFDTD"] {
        let p = profile_by_name(name).unwrap();
        let base = r.run_single(&p, ConfigKind::Base);
        let fig = r.run_single(&p, ConfigKind::FigCacheFast);
        assert!(
            fig.ipc[0] > base.ipc[0] * 1.02,
            "{name}: FIGCache-Fast {:.4} must clearly beat Base {:.4}",
            fig.ipc[0],
            base.ipc[0]
        );
    }
}

#[test]
fn free_relocation_bounds_real_relocation() {
    let r = runner();
    let p = profile_by_name("mcf").unwrap();
    let fast = r.run_single(&p, ConfigKind::FigCacheFast);
    let ideal = r.run_single(&p, ConfigKind::FigCacheIdeal);
    assert!(
        ideal.ipc[0] >= fast.ipc[0] * 0.99,
        "Ideal ({:.4}) must not lose to real relocation ({:.4})",
        ideal.ipc[0],
        fast.ipc[0]
    );
}

#[test]
fn figcache_fast_beats_lisa_villa_on_intensive_apps() {
    let r = runner();
    let p = profile_by_name("GemsFDTD").unwrap();
    let lisa = r.run_single(&p, ConfigKind::LisaVilla);
    let fig = r.run_single(&p, ConfigKind::FigCacheFast);
    assert!(
        fig.ipc[0] > lisa.ipc[0],
        "paper Sec 8.1: FIGCache-Fast ({:.4}) outperforms LISA-VILLA ({:.4})",
        fig.ipc[0],
        lisa.ipc[0]
    );
}

#[test]
fn figcache_raises_row_buffer_hit_rate() {
    // Paper Fig. 10: the defining effect of segment co-location.
    let r = runner();
    let p = profile_by_name("mcf").unwrap();
    let base = r.run_single(&p, ConfigKind::Base);
    let fig = r.run_single(&p, ConfigKind::FigCacheFast);
    assert!(
        fig.row_hit_rate > base.row_hit_rate + 0.03,
        "row hit rate must rise: base {:.3} -> fig {:.3}",
        base.row_hit_rate,
        fig.row_hit_rate
    );
}

#[test]
fn lisa_villa_does_not_change_row_hit_rate_much() {
    // Paper Sec 8.1: whole-row caching cannot improve row locality.
    let r = runner();
    let p = profile_by_name("mcf").unwrap();
    let base = r.run_single(&p, ConfigKind::Base);
    let lisa = r.run_single(&p, ConfigKind::LisaVilla);
    assert!(
        (lisa.row_hit_rate - base.row_hit_rate).abs() < 0.08,
        "LISA-VILLA row hit rate {:.3} should track Base {:.3}",
        lisa.row_hit_rate,
        base.row_hit_rate
    );
}

#[test]
fn intensity_classification_matches_table2() {
    let r = runner();
    let apps = figaro_workloads::app_profiles();
    let jobs: Vec<_> = apps.iter().map(|p| (*p, ConfigKind::Base)).collect();
    for (p, s) in apps.iter().zip(r.run_single_batch(&jobs)) {
        assert_eq!(
            s.mpki[0] > 10.0,
            p.memory_intensive,
            "{}: measured MPKI {:.1} contradicts Table 2 class",
            p.name,
            s.mpki[0]
        );
    }
}

#[test]
fn eight_core_mix_runs_and_figcache_wins_at_high_intensity() {
    let r = runner();
    let mixes = eight_core_mixes();
    let mix = mixes.iter().find(|m| m.category == MixCategory::Intensive100).unwrap();
    let base = r.run_mix(mix, ConfigKind::Base);
    let fig = r.run_mix(mix, ConfigKind::FigCacheFast);
    let alone = r.alone_ipc_batch(&mix.apps);
    let ws_base = figaro_sim::metrics::weighted_speedup(&base.ipc, &alone);
    let ws_fig = figaro_sim::metrics::weighted_speedup(&fig.ipc, &alone);
    assert!(
        ws_fig > ws_base * 1.03,
        "100%-intensive mix: FIGCache WS {ws_fig:.3} must beat Base WS {ws_base:.3}"
    );
}

#[test]
fn energy_breakdown_is_consistent() {
    let r = runner();
    let p = profile_by_name("lbm").unwrap();
    let base = r.run_single(&p, ConfigKind::Base);
    let fig = r.run_single(&p, ConfigKind::FigCacheFast);
    assert!(base.energy_total() > 0.0);
    // Faster run + fewer ACT/PRE => FIGCache must not burn more energy.
    assert!(
        fig.energy_total() < base.energy_total() * 1.05,
        "fig energy {:.2e} vs base {:.2e}",
        fig.energy_total(),
        base.energy_total()
    );
}

#[test]
fn small_scale_runs_are_deterministic() {
    let r = runner();
    let p = profile_by_name("grep").unwrap();
    let a = r.run_single(&p, ConfigKind::FigCacheFast);
    let b = r.run_single(&p, ConfigKind::FigCacheFast);
    assert_eq!(a, b, "identical runs must be bit-identical");
}
