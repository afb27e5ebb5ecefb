//! Cross-crate end-to-end tests.
//!
//! * `fast_tier` — deterministic `Scale::Tiny` smoke runs over the full
//!   mechanism set, driven through the runner's parallel batch API.
//! * The `Scale::Small` tests check the claims table's rows that are
//!   measured from runs (`paper_claims_hold_at_small_scale` all of
//!   them, the others one paper-shape claim each), at the scale that
//!   gives the in-DRAM cache the warmup the tiny scale does not.

use std::sync::OnceLock;

use figaro_sim::experiments::{claim, claims_from_runs, Claim, Source};
use figaro_sim::{ConfigKind, Runner, Scale};
use figaro_workloads::profile_by_name;

mod fast_tier {
    //! Smoke tests at `Scale::Tiny`: every mechanism builds, runs and
    //! stays deterministic; the parallel batch runner is bit-identical to
    //! the serial loop.

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
            let runner = Runner::new(Scale::Tiny);
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
            let runner = Runner::new(Scale::Tiny);
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
        // A runner of its own, so the four corners below are fresh
        // serial simulations, not the matrix runner's memo.
        let runner = Runner::new(Scale::Tiny);
        for (a, k) in
            [(0, 0), (0, kinds.len() - 1), (apps.len() - 1, 0), (apps.len() - 1, kinds.len() - 1)]
        {
            let serial = runner.run_single(&apps[a], kinds[k].clone());
            assert_eq!(m[a][k], serial, "{} under {}", apps[a].name, kinds[k].label());
        }
    }

    #[test]
    fn tiny_runs_are_deterministic() {
        // Two runners: one runner would return its memo the second time.
        let p = profile_by_name("grep").unwrap();
        let a = Runner::new(Scale::Tiny).run_single(&p, ConfigKind::FigCacheFast);
        let b = Runner::new(Scale::Tiny).run_single(&p, ConfigKind::FigCacheFast);
        assert_eq!(a, b, "identical runs must be bit-identical");
    }

    #[test]
    fn eight_core_mix_smoke_and_weighted_speedup_computable() {
        let (mix, results) = mix_results();
        let runner = Runner::new(Scale::Tiny);
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

/// The runner every `Scale::Small` claim row takes its runs from, built
/// once per process so rows that share a run simulate it once.
fn small_runner() -> &'static Runner {
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    RUNNER.get_or_init(|| Runner::new(Scale::Small))
}

/// Asserts that every row holds at its modelled value.
fn assert_rows_hold(rows: &[(&Claim, f64)]) {
    let misses: Vec<String> = rows
        .iter()
        .filter(|&&(claim, modelled)| !claim.holds(modelled))
        .map(|&(claim, modelled)| claim.report(modelled))
        .collect();
    assert!(misses.is_empty(), "claim rows missed at Scale::Small:\n{}", misses.join("\n"));
}

/// Asserts the named [`Source::Runs`] rows of the claims table, each
/// against the bound the table states, on [`small_runner`]'s runs.
fn assert_claims_hold(ids: &[&str]) {
    let rows: Vec<(&Claim, f64)> = ids
        .iter()
        .map(|&id| {
            let row = claim(id).unwrap_or_else(|| panic!("no claim row {id}"));
            let Source::Runs(measure) = row.source else {
                panic!("claim row {id} is not measured from runs")
            };
            (row, measure(small_runner()))
        })
        .collect();
    assert_rows_hold(&rows);
}

#[test]
fn paper_claims_hold_at_small_scale() {
    // Every `Source::Runs` row of the claims table, so a row no test
    // below names is checked too.
    let rows = claims_from_runs(small_runner());
    assert_eq!(rows.len(), 9, "the claims table has nine rows measured from runs");
    assert_rows_hold(&rows);
}

#[test]
fn figcache_fast_beats_base_on_memory_intensive_apps() {
    assert_claims_hold(&["fig07-mcf-fast-vs-base", "fig07-gems-fast-vs-base"]);
}

#[test]
fn free_relocation_bounds_real_relocation() {
    assert_claims_hold(&["fig07-mcf-ideal-vs-fast"]);
}

#[test]
fn figcache_fast_beats_lisa_villa_on_intensive_apps() {
    // Paper Sec 8.1: FIGCache-Fast outperforms LISA-VILLA.
    assert_claims_hold(&["fig07-gems-fast-vs-lisa"]);
}

#[test]
fn figcache_raises_row_buffer_hit_rate() {
    // Paper Fig. 10: the defining effect of segment co-location.
    assert_claims_hold(&["fig10-mcf-fast-gain"]);
}

#[test]
fn lisa_villa_does_not_change_row_hit_rate_much() {
    // Paper Sec 8.1: whole-row caching cannot improve row locality.
    assert_claims_hold(&["fig10-mcf-lisa-gain"]);
}

#[test]
fn intensity_classification_matches_table2() {
    assert_claims_hold(&["tab2-classes"]);
}

#[test]
fn eight_core_mix_runs_and_figcache_wins_at_high_intensity() {
    assert_claims_hold(&["fig08-mix100-fast-vs-base"]);
}

#[test]
fn energy_breakdown_is_consistent() {
    let lbm = profile_by_name("lbm").unwrap();
    assert!(small_runner().run_single(&lbm, ConfigKind::Base).energy_total() > 0.0);
    // Faster run + fewer ACT/PRE => FIGCache must not burn more energy.
    assert_claims_hold(&["fig11-lbm-energy"]);
}

#[test]
fn small_scale_runs_are_deterministic() {
    // Two runners: one runner would return its memo the second time.
    let p = profile_by_name("grep").unwrap();
    let a = Runner::new(Scale::Small).run_single(&p, ConfigKind::FigCacheFast);
    let b = Runner::new(Scale::Small).run_single(&p, ConfigKind::FigCacheFast);
    assert_eq!(a, b, "identical runs must be bit-identical");
}
