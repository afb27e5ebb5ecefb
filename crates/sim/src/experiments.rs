//! Every experiment of the paper's evaluation section, expressed as a
//! function from a [`Runner`] to a printable [`FigureData`].
//!
//! The functions share the runner's on-disk result cache, so figures that
//! reuse the same runs (7/9/10/11 share the single-core matrix, 8/9/10/11
//! the eight-core matrix) do not recompute them.
//!
//! Sweeps (Figs. 12–15) default to a representative subset (three
//! applications per single-core category, one mix per eight-core
//! category); a runner built [`Runner::with_full_sweeps`] (binaries:
//! `FIGARO_FULL_SWEEPS=1`) runs the paper's full set.

use figaro_core::ReplacementPolicy;
use figaro_dram::{MapKind, MapScheme};
use figaro_memctrl::SchedPolicyKind;
use figaro_workloads::{
    app_profiles, eight_core_mixes, multithreaded_profiles, profile_by_name, AppProfile,
    ArrivalKind, Mix, MixCategory, PageMapKind,
};

use crate::config::{ConfigKind, SystemConfig};
use crate::metrics::{geomean, weighted_speedup};
use crate::report::FigureData;
use crate::runner::{RunSummary, Runner};

/// Applications used in sweep figures (a subset unless `full`).
#[must_use]
pub fn sweep_apps(full: bool) -> Vec<AppProfile> {
    let all = app_profiles();
    if full {
        return all;
    }
    let pick = ["gcc", "tpcc64", "h264ref", "mcf", "zeusmp", "libquantum"];
    all.into_iter().filter(|p| pick.contains(&p.name)).collect()
}

/// Mixes used in sweep figures (the 25% and 100% extremes unless
/// `full`, which runs all twenty).
#[must_use]
pub fn sweep_mixes(full: bool) -> Vec<Mix> {
    let all = eight_core_mixes();
    if full {
        return all;
    }
    [MixCategory::Intensive25, MixCategory::Intensive100]
        .iter()
        .map(|c| all.iter().find(|m| m.category == *c).expect("every category has mixes").clone())
        .collect()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Appends a warning note when any of `results` hit its cycle cap short
/// of the instruction target — a truncated point must not read as a
/// measurement.
fn note_truncations<'a>(fig: &mut FigureData, results: impl IntoIterator<Item = &'a RunSummary>) {
    let truncated = results.into_iter().filter(|s| s.truncated_cores > 0).count();
    if truncated > 0 {
        fig.push_note(format!(
            "WARNING: {truncated} run(s) hit the cycle cap before the instruction target; \
             their cells are depressed, not measured"
        ));
    }
}

/// Runs `apps × kinds` single-core points in parallel; result indexed
/// `[app][kind]` (delegates to the runner's rayon batch API).
fn single_matrix(
    runner: &Runner,
    apps: &[AppProfile],
    kinds: &[ConfigKind],
) -> Vec<Vec<RunSummary>> {
    runner.run_single_matrix(apps, kinds)
}

/// Runs `mixes × kinds` eight-core points in parallel; indexed
/// `[mix][kind]` (delegates to the runner's rayon batch API).
fn mix_matrix(runner: &Runner, mixes: &[Mix], kinds: &[ConfigKind]) -> Vec<Vec<RunSummary>> {
    runner.run_mix_matrix(mixes, kinds)
}

/// Normalized weighted speedup of `summary` vs `base` for `mix`, using
/// alone-IPCs from the runner.
///
/// # Panics
///
/// Panics on a non-positive alone IPC: a degenerate (truncated) alone
/// run would silently contribute `0` through [`weighted_speedup`]'s
/// NaN-proofing and turn a figure cell into fiction — at the
/// figure-builder layer that must stay a loud failure.
fn ws_speedup(runner: &Runner, mix: &Mix, summary: &RunSummary, base: &RunSummary) -> f64 {
    let alone: Vec<f64> = mix.apps.iter().map(|p| runner.alone_ipc(p)).collect();
    assert!(
        alone.iter().all(|&a| a > 0.0 && a.is_finite()),
        "alone IPC must be positive (truncated alone run for {}?)",
        mix.name
    );
    weighted_speedup(&summary.ipc, &alone) / weighted_speedup(&base.ipc, &alone)
}

/// **Figure 7**: single-core speedup over `Base` for the five mechanisms,
/// per application and per intensity category.
pub fn fig07(runner: &Runner) -> FigureData {
    let apps = app_profiles();
    let kinds: Vec<ConfigKind> =
        std::iter::once(ConfigKind::Base).chain(ConfigKind::figure78_set()).collect();
    let matrix = single_matrix(runner, &apps, &kinds);
    let labels: Vec<String> = kinds[1..].iter().map(|k| k.label().to_string()).collect();
    let mut fig = FigureData::new("Figure 7: single-core speedup over Base", labels);
    let mut per_cat: [Vec<Vec<f64>>; 2] = [vec![], vec![]];
    for (a, app) in apps.iter().enumerate() {
        let base_ipc = matrix[a][0].ipc[0];
        let speedups: Vec<f64> = (1..kinds.len()).map(|k| matrix[a][k].ipc[0] / base_ipc).collect();
        per_cat[usize::from(app.memory_intensive)].push(speedups.clone());
        fig.push_row(app.name, speedups);
    }
    for (idx, label) in [(0usize, "geomean non-intensive"), (1, "geomean intensive")] {
        let cols = kinds.len() - 1;
        let g: Vec<f64> = (0..cols)
            .map(|k| geomean(&per_cat[idx].iter().map(|v| v[k]).collect::<Vec<_>>()))
            .collect();
        fig.push_row(label, g);
    }
    note_truncations(&mut fig, matrix.iter().flatten());
    fig.push_note(
        "paper: FIGCache-Fast averages +1.5% (up to +2.9%) on non-intensive and +16.1% (up to +22.5%) on intensive applications",
    );
    fig.push_note(
        "paper: FIGCache-Slow retains most of FIGCache-Fast's gain (avg +5.9% single-core)",
    );
    fig
}

/// **Figure 8**: eight-core weighted speedup over `Base` per mix and per
/// intensity category, plus the Section 8.1 aggregates.
pub fn fig08(runner: &Runner) -> FigureData {
    let mixes = eight_core_mixes();
    let kinds: Vec<ConfigKind> =
        std::iter::once(ConfigKind::Base).chain(ConfigKind::figure78_set()).collect();
    // Warm the alone-IPC cache in parallel first.
    let _ = runner.alone_ipc_batch(&app_profiles());
    let matrix = mix_matrix(runner, &mixes, &kinds);
    let labels: Vec<String> = kinds[1..].iter().map(|k| k.label().to_string()).collect();
    let mut fig = FigureData::new("Figure 8: eight-core weighted speedup over Base", labels);
    let mut per_cat: std::collections::BTreeMap<MixCategory, Vec<Vec<f64>>> = Default::default();
    for (m, mix) in mixes.iter().enumerate() {
        let speedups: Vec<f64> = (1..kinds.len())
            .map(|k| ws_speedup(runner, mix, &matrix[m][k], &matrix[m][0]))
            .collect();
        per_cat.entry(mix.category).or_default().push(speedups.clone());
        fig.push_row(&mix.name, speedups);
    }
    let cols = kinds.len() - 1;
    let mut overall: Vec<Vec<f64>> = vec![Vec::new(); cols];
    for cat in MixCategory::all() {
        let rows = &per_cat[&cat];
        let avg: Vec<f64> =
            (0..cols).map(|k| mean(&rows.iter().map(|v| v[k]).collect::<Vec<_>>())).collect();
        for (k, v) in avg.iter().enumerate() {
            overall[k].extend(rows.iter().map(|r| r[k]));
            let _ = v;
        }
        fig.push_row(format!("avg {} intensive", cat.label()), avg);
    }
    fig.push_row("avg all 20 mixes", (0..cols).map(|k| mean(&overall[k])).collect());
    note_truncations(&mut fig, matrix.iter().flatten());
    fig.push_note("paper: FIGCache-Fast +3.9%/+12.9%/+21.8%/+27.1% for 25/50/75/100% categories, +16.3% overall");
    fig.push_note("paper: FIGCache-Fast beats LISA-VILLA by 4.7% and is within 1.9% of Ideal / 4.6% of LL-DRAM");
    fig
}

/// **Figure 9**: in-DRAM cache hit rate of LISA-VILLA vs FIGCache-Slow vs
/// FIGCache-Fast, averaged per workload category.
pub fn fig09(runner: &Runner) -> FigureData {
    let kinds = vec![ConfigKind::LisaVilla, ConfigKind::FigCacheSlow, ConfigKind::FigCacheFast];
    let labels: Vec<String> = kinds.iter().map(|k| k.label().to_string()).collect();
    let mut fig = FigureData::new("Figure 9: in-DRAM cache hit rate (%)", labels);
    category_metric(runner, &kinds, &mut fig, |s| s.cache_hit_rate * 100.0);
    fig.push_note("paper: all three mechanisms show comparable cache hit rates; FIGCache-Slow slightly below FIGCache-Fast (its own subarray is uncacheable)");
    fig
}

/// **Figure 10**: DRAM row-buffer hit rate per category.
pub fn fig10(runner: &Runner) -> FigureData {
    let kinds = vec![
        ConfigKind::Base,
        ConfigKind::LisaVilla,
        ConfigKind::FigCacheSlow,
        ConfigKind::FigCacheFast,
    ];
    let labels: Vec<String> = kinds.iter().map(|k| k.label().to_string()).collect();
    let mut fig = FigureData::new("Figure 10: DRAM row-buffer hit rate (%)", labels);
    category_metric(runner, &kinds, &mut fig, |s| s.row_hit_rate * 100.0);
    fig.push_note("paper: FIGCache-Slow/Fast sit ~18% above LISA-VILLA — segment co-location raises row locality, whole-row caching cannot");
    fig
}

/// Shared shape of Figs. 9/10: categories × configs, single-core and
/// eight-core.
fn category_metric(
    runner: &Runner,
    kinds: &[ConfigKind],
    fig: &mut FigureData,
    metric: impl Fn(&RunSummary) -> f64,
) {
    let apps = app_profiles();
    let matrix = single_matrix(runner, &apps, kinds);
    for (intensive, label) in [(false, "1-core non-intensive"), (true, "1-core intensive")] {
        let vals: Vec<f64> = (0..kinds.len())
            .map(|k| {
                mean(
                    &apps
                        .iter()
                        .enumerate()
                        .filter(|(_, a)| a.memory_intensive == intensive)
                        .map(|(i, _)| metric(&matrix[i][k]))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        fig.push_row(label, vals);
    }
    let mixes = eight_core_mixes();
    let mix_mat = mix_matrix(runner, &mixes, kinds);
    for cat in MixCategory::all() {
        let vals: Vec<f64> = (0..kinds.len())
            .map(|k| {
                mean(
                    &mixes
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| m.category == cat)
                        .map(|(i, _)| metric(&mix_mat[i][k]))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        fig.push_row(format!("8-core {}", cat.label()), vals);
    }
    note_truncations(fig, matrix.iter().chain(mix_mat.iter()).flatten());
}

/// **Figure 11**: system energy breakdown (CPU / L1&L2 / LLC / off-chip /
/// DRAM) normalized to each category's `Base` total.
pub fn fig11(runner: &Runner) -> FigureData {
    let kinds = vec![ConfigKind::Base, ConfigKind::FigCacheSlow, ConfigKind::FigCacheFast];
    let columns: Vec<String> = ["CPU", "L1&L2", "LLC", "Off-Chip", "DRAM", "Total"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let mut fig = FigureData::new("Figure 11: system energy normalized to Base", columns);
    let apps = app_profiles();
    let matrix = single_matrix(runner, &apps, &kinds);
    let mixes = eight_core_mixes();
    let mix_mat = mix_matrix(runner, &mixes, &kinds);

    let mut add_group = |label: &str, idxs: &[usize], mat: &[Vec<RunSummary>]| {
        // Average each config's components normalized to the same
        // workload's Base total.
        for (k, kind) in kinds.iter().enumerate() {
            let mut comps = [0.0f64; 6];
            for &i in idxs {
                let base_total = mat[i][0].energy_total().max(1e-12);
                let (a, b, c, d, e) = mat[i][k].energy;
                for (slot, v) in [a, b, c, d, e, a + b + c + d + e].iter().enumerate() {
                    comps[slot] += v / base_total;
                }
            }
            for c in &mut comps {
                *c /= idxs.len() as f64;
            }
            fig.push_row(format!("{label} / {}", kind.label()), comps.to_vec());
        }
    };
    for (intensive, label) in [(false, "1-core non-int"), (true, "1-core intensive")] {
        let idxs: Vec<usize> = apps
            .iter()
            .enumerate()
            .filter(|(_, a)| a.memory_intensive == intensive)
            .map(|(i, _)| i)
            .collect();
        add_group(label, &idxs, &matrix);
    }
    for cat in MixCategory::all() {
        let idxs: Vec<usize> =
            mixes.iter().enumerate().filter(|(_, m)| m.category == cat).map(|(i, _)| i).collect();
        add_group(&format!("8-core {}", cat.label()), &idxs, &mix_mat);
    }
    note_truncations(&mut fig, matrix.iter().chain(mix_mat.iter()).flatten());
    fig.push_note("paper: FIGCache-Slow/Fast cut 1-core intensive system energy by 6.9%/11.1%; savings come from fewer ACT/PRE (row hits) and shorter runtime");
    fig.push_note("paper: 8-core DRAM energy drops 7.8% on average under FIGCache-Fast");
    fig
}

/// **Figure 12**: sensitivity to the number of fast subarrays
/// (1/2/4/8/16) with `LL-DRAM` as the bound.
pub fn fig12(runner: &Runner) -> FigureData {
    let points: Vec<(String, ConfigKind)> = [1u32, 2, 4, 8, 16]
        .iter()
        .map(|&n| {
            let SystemConfig { kind, .. } = SystemConfig::fig12_point(1, n);
            (format!("{n} FS"), kind)
        })
        .chain([(String::from("LL-DRAM"), ConfigKind::LlDram)])
        .collect();
    sweep_figure(runner, "Figure 12: speedup vs number of fast subarrays", &points, &[
        "paper: gains grow with cache capacity but saturate — 2→4 FS adds <2.7%, 4→8 adds <0.8% (100% intensive)",
        "paper picks 2 fast subarrays as the area/performance balance",
    ])
}

/// **Figure 13**: sensitivity to the row-segment size (512 B … 8 kB) with
/// LISA-VILLA for reference.
pub fn fig13(runner: &Runner) -> FigureData {
    let points: Vec<(String, ConfigKind)> =
        [(8u32, "512B"), (16, "1KB"), (32, "2KB"), (64, "4KB"), (128, "8KB")]
            .iter()
            .map(|&(blocks, label)| {
                let SystemConfig { kind, .. } = SystemConfig::fig13_point(1, blocks);
                (label.to_string(), kind)
            })
            .chain([(String::from("LISA-VILLA"), ConfigKind::LisaVilla)])
            .collect();
    sweep_figure(runner, "Figure 13: speedup vs row-segment size", &points, &[
        "paper: performance peaks at 1 kB segments (1/8 row)",
        "paper: whole-row (8 kB) segments fall slightly below LISA-VILLA — 128 RELOCs per relocation outweigh the benefit",
    ])
}

/// **Figure 14**: replacement policies (Random / LRU / SegmentBenefit /
/// RowBenefit).
pub fn fig14(runner: &Runner) -> FigureData {
    let points: Vec<(String, ConfigKind)> = [
        ("Random", ReplacementPolicy::Random),
        ("LRU", ReplacementPolicy::Lru),
        ("SegmentBenefit", ReplacementPolicy::SegmentBenefit),
        ("RowBenefit", ReplacementPolicy::RowBenefit),
    ]
    .iter()
    .map(|&(label, p)| {
        let SystemConfig { kind, .. } = SystemConfig::fig14_point(1, p);
        (label.to_string(), kind)
    })
    .collect();
    sweep_figure(runner, "Figure 14: speedup vs replacement policy", &points, &[
        "paper: every policy beats Base by >12.5%; RowBenefit matches or beats all, +4.1% over SegmentBenefit at 100% intensity",
    ])
}

/// **Figure 15**: insertion thresholds 1/2/4/8.
pub fn fig15(runner: &Runner) -> FigureData {
    let points: Vec<(String, ConfigKind)> = [1u32, 2, 4, 8]
        .iter()
        .map(|&n| {
            let SystemConfig { kind, .. } = SystemConfig::fig15_point(1, n);
            (format!("Threshold {n}"), kind)
        })
        .collect();
    sweep_figure(runner, "Figure 15: speedup vs insertion threshold", &points, &[
        "paper: threshold 1 (insert-any-miss) is best for intensive workloads; higher thresholds lose cache hits",
    ])
}

/// Shared sweep shape: categories as rows, sweep points as columns,
/// speedup over Base as the value.
fn sweep_figure(
    runner: &Runner,
    title: &str,
    points: &[(String, ConfigKind)],
    notes: &[&str],
) -> FigureData {
    let apps = sweep_apps(runner.full_sweeps());
    let mixes = sweep_mixes(runner.full_sweeps());
    let kinds: Vec<ConfigKind> =
        std::iter::once(ConfigKind::Base).chain(points.iter().map(|(_, k)| k.clone())).collect();
    let columns: Vec<String> = points.iter().map(|(l, _)| l.clone()).collect();
    let mut fig = FigureData::new(title, columns);
    let matrix = single_matrix(runner, &apps, &kinds);
    for (intensive, label) in [(false, "1-core non-intensive"), (true, "1-core intensive")] {
        let idxs: Vec<usize> = apps
            .iter()
            .enumerate()
            .filter(|(_, a)| a.memory_intensive == intensive)
            .map(|(i, _)| i)
            .collect();
        let vals: Vec<f64> = (1..kinds.len())
            .map(|k| {
                geomean(
                    &idxs
                        .iter()
                        .map(|&i| matrix[i][k].ipc[0] / matrix[i][0].ipc[0])
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        fig.push_row(label, vals);
    }
    let mix_mat = mix_matrix(runner, &mixes, &kinds);
    let categories: Vec<MixCategory> = {
        let mut cats: Vec<MixCategory> = mixes.iter().map(|m| m.category).collect();
        cats.sort();
        cats.dedup();
        cats
    };
    for cat in categories {
        let idxs: Vec<usize> =
            mixes.iter().enumerate().filter(|(_, m)| m.category == cat).map(|(i, _)| i).collect();
        let vals: Vec<f64> = (1..kinds.len())
            .map(|k| {
                mean(
                    &idxs
                        .iter()
                        .map(|&i| ws_speedup(runner, &mixes[i], &mix_mat[i][k], &mix_mat[i][0]))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        fig.push_row(format!("8-core {}", cat.label()), vals);
    }
    note_truncations(&mut fig, matrix.iter().chain(mix_mat.iter()).flatten());
    for n in notes {
        fig.push_note(*n);
    }
    if !runner.full_sweeps() {
        fig.push_note("sweep subset in effect (set FIGARO_FULL_SWEEPS=1 for all 20 apps/mixes)");
    }
    fig
}

/// The scheduler policies compared by [`scheduler_sweep`]: the FR-FCFS
/// default, strict FCFS, a capped FR-FCFS, and tuned write-drain
/// watermarks.
#[must_use]
pub fn sched_policies() -> Vec<SchedPolicyKind> {
    vec![
        SchedPolicyKind::FrFcfs,
        SchedPolicyKind::Fcfs,
        SchedPolicyKind::FrFcfsCap { cap: 4 },
        SchedPolicyKind::WriteDrain { high: 48, low: 8 },
    ]
}

/// **Scheduler sweep**: policy × mechanism × workload grid over the
/// streamed eight-core mixes. Rows are `policy / mechanism` pairs;
/// columns report throughput (Σ IPC) and DRAM row-hit rate per mix —
/// the two axes scheduler choices move. Export with
/// [`FigureData::to_csv`]. Mix subset unless the runner runs full
/// sweeps (one mix per intensity category).
pub fn scheduler_sweep(runner: &Runner) -> FigureData {
    scheduler_sweep_with(runner, None)
}

/// [`scheduler_sweep`] with an explicit per-core instruction target
/// (the test suite runs a tiny grid this way; `None` uses the
/// runner scale's per-profile targets).
pub fn scheduler_sweep_with(runner: &Runner, target_insts: Option<u64>) -> FigureData {
    let policies = sched_policies();
    let kinds = [ConfigKind::Base, ConfigKind::FigCacheFast];
    let all = eight_core_mixes();
    let cats: Vec<MixCategory> = if runner.full_sweeps() {
        MixCategory::all().to_vec()
    } else {
        vec![MixCategory::Intensive100, MixCategory::Intensive25]
    };
    let mixes: Vec<Mix> = cats
        .iter()
        .map(|c| all.iter().find(|m| m.category == *c).expect("every category has mixes").clone())
        .collect();
    let mut jobs = Vec::new();
    for policy in &policies {
        for kind in &kinds {
            for mix in &mixes {
                let mut spec = runner.stream_spec(kind.clone(), &mix.apps, target_insts);
                spec.config = spec.config.with_sched(*policy);
                jobs.push(spec);
            }
        }
    }
    let results = runner.run_batch(&jobs);
    let mut columns = Vec::new();
    for mix in &mixes {
        columns.push(format!("{} ipc", mix.name));
        columns.push(format!("{} row-hit", mix.name));
    }
    let mut fig = FigureData::new(
        "Scheduler sweep: policy x mechanism x mix (throughput, row-hit rate)",
        columns,
    );
    let mut idx = 0;
    for policy in &policies {
        for kind in &kinds {
            let mut vals = Vec::new();
            for _ in &mixes {
                let s = &results[idx];
                idx += 1;
                vals.push(s.ipc.iter().sum::<f64>());
                vals.push(s.row_hit_rate);
            }
            fig.push_row(format!("{} / {}", policy.label(), kind.label()), vals);
        }
    }
    note_truncations(&mut fig, &results);
    fig.push_note("frfcfs is the paper's controller; every policy runs the identical workload");
    if !runner.full_sweeps() {
        fig.push_note("mix subset in effect (set FIGARO_FULL_SWEEPS=1 for all four categories)");
    }
    fig
}

/// The address mappings compared by [`mapping_sweep`]: the paper's
/// default slice, channel/bank-first block interleaving, the
/// bank-sequential row-interleaved scheme, and the XOR bank hash over
/// the paper slice.
#[must_use]
pub fn mapping_kinds() -> Vec<MapKind> {
    vec![
        MapKind::paper(),
        MapKind { scheme: MapScheme::ChFirst, xor_bank: false },
        MapKind { scheme: MapScheme::RowInt, xor_bank: false },
        MapKind { scheme: MapScheme::Paper, xor_bank: true },
    ]
}

/// The OS page-placement policies compared by [`mapping_sweep`]:
/// identity, seeded-random frame allocation, and 16-color bank
/// coloring.
#[must_use]
pub fn page_policies() -> Vec<PageMapKind> {
    vec![PageMapKind::Identity, PageMapKind::Random { seed: 1 }, PageMapKind::Color { colors: 16 }]
}

/// **Mapping sweep**: address-mapping × page-placement × mechanism grid
/// over streamed eight-core mixes. Rows are `mapping / page / mechanism`
/// triples; columns report throughput (Σ IPC), DRAM row-hit rate and
/// in-DRAM cache hit rate per mix — the axes data placement moves.
/// Export with [`FigureData::to_csv`]. Mix subset unless the runner runs
/// full sweeps.
pub fn mapping_sweep(runner: &Runner) -> FigureData {
    mapping_sweep_with(runner, None)
}

/// [`mapping_sweep`] with an explicit per-core instruction target (the
/// test suite runs a tiny grid this way; `None` uses the runner
/// scale's per-profile targets).
pub fn mapping_sweep_with(runner: &Runner, target_insts: Option<u64>) -> FigureData {
    let mappings = mapping_kinds();
    let pages = page_policies();
    let kinds = [ConfigKind::Base, ConfigKind::FigCacheFast];
    let all = eight_core_mixes();
    let cats: Vec<MixCategory> = if runner.full_sweeps() {
        MixCategory::all().to_vec()
    } else {
        vec![MixCategory::Intensive100, MixCategory::Intensive25]
    };
    let mixes: Vec<Mix> = cats
        .iter()
        .map(|c| all.iter().find(|m| m.category == *c).expect("every category has mixes").clone())
        .collect();
    let mut jobs = Vec::new();
    for map in &mappings {
        for page in &pages {
            for kind in &kinds {
                for mix in &mixes {
                    let mut spec = runner.stream_spec(kind.clone(), &mix.apps, target_insts);
                    spec.config = spec.config.with_mapping(*map).with_page_map(*page);
                    jobs.push(spec);
                }
            }
        }
    }
    let results = runner.run_batch(&jobs);
    let mut columns = Vec::new();
    for mix in &mixes {
        columns.push(format!("{} ipc", mix.name));
        columns.push(format!("{} row-hit", mix.name));
        columns.push(format!("{} cache-hit", mix.name));
    }
    let mut fig = FigureData::new(
        "Mapping sweep: address mapping x page placement x mechanism \
         (throughput, row-hit, cache-hit)",
        columns,
    );
    let mut idx = 0;
    for map in &mappings {
        for page in &pages {
            for kind in &kinds {
                let mut vals = Vec::new();
                for _ in &mixes {
                    let s = &results[idx];
                    idx += 1;
                    vals.push(s.ipc.iter().sum::<f64>());
                    vals.push(s.row_hit_rate);
                    vals.push(s.cache_hit_rate);
                }
                fig.push_row(
                    format!("{} / {} / {}", map.label(), page.label(), kind.label()),
                    vals,
                );
            }
        }
    }
    note_truncations(&mut fig, &results);
    fig.push_note(
        "paper/ident is the paper's placement; every cell runs the identical streamed workload",
    );
    if !runner.full_sweeps() {
        fig.push_note("mix subset in effect (set FIGARO_FULL_SWEEPS=1 for all four categories)");
    }
    fig
}

/// The offered-load ladder swept by [`serving_sweep`]: Poisson arrival
/// processes from light load (mean gap 256 non-memory instructions per
/// memory op) down past the saturation knee (mean gap 8).
#[must_use]
pub fn serving_loads() -> Vec<ArrivalKind> {
    [256, 128, 64, 32, 16, 8].iter().map(|&g| ArrivalKind::Poisson { mean_gap: g }).collect()
}

/// The scheduling policies compared by [`serving_sweep`]: the FR-FCFS
/// default against strict FCFS (the pair whose tail behavior diverges
/// most under load — row-hit reordering helps the mean and can hurt the
/// tail).
#[must_use]
pub fn serving_scheds() -> Vec<SchedPolicyKind> {
    vec![SchedPolicyKind::FrFcfs, SchedPolicyKind::Fcfs]
}

/// **Serving sweep**: offered load × mechanism × scheduler over an
/// open-loop four-core `mcf` workload on one memory channel. Each row is
/// one `(mechanism / policy @ load)` point; columns report offered load
/// (memory ops injected per CPU kilo-cycle, all cores), achieved DRAM
/// read throughput (reads served per kilo-cycle), and the read-latency
/// distribution (mean / p50 / p99 / p999 in bus cycles). Export with
/// [`FigureData::to_csv`].
///
/// The open-loop arrivals make this a *service* study: past the knee the
/// cores keep injecting (MSHR back-pressure permitting) and queues grow,
/// so achieved throughput flattens while the tail percentiles blow up —
/// the regime where mechanism/policy orderings can invert relative to
/// their mean-latency orderings.
pub fn serving_sweep(runner: &Runner) -> FigureData {
    serving_sweep_with(runner, None)
}

/// [`serving_sweep`] with an explicit **memory-op** budget per core
/// (the test suite runs a tiny grid this way; `None` derives one from
/// the runner scale). The per-point instruction target is
/// `ops · (mean_gap + 1)`, which holds the sampled-op count roughly
/// constant across load points instead of starving the light-load end.
pub fn serving_sweep_with(runner: &Runner, ops_per_core: Option<u64>) -> FigureData {
    let loads = serving_loads();
    let scheds = serving_scheds();
    let kinds = [ConfigKind::Base, ConfigKind::FigCacheFast];
    let cores = 4usize;
    let apps = vec![profile_by_name("mcf").expect("mcf profile exists"); cores];
    let ops = ops_per_core.unwrap_or(runner.scale().target_insts() / 100);
    let width = SystemConfig::paper(cores, ConfigKind::Base).core.width as f64;
    let mut jobs = Vec::new();
    for kind in &kinds {
        for sched in &scheds {
            for load in &loads {
                let insts = (ops as f64 * (load.mean_gap() + 1.0)) as u64;
                let mut spec = runner.stream_spec(kind.clone(), &apps, Some(insts));
                // Every request contends for one controller.
                spec.config = spec.config.with_channels(1).with_sched(*sched);
                spec.arrival = Some(*load);
                jobs.push(spec);
            }
        }
    }
    let results = runner.run_batch(&jobs);
    let mut fig = FigureData::new(
        "Serving sweep: offered load x mechanism x scheduler \
         (throughput, read-latency mean and tail)",
        vec![
            "offered ops/kcyc".into(),
            "achieved reads/kcyc".into(),
            "avg lat".into(),
            "p50 lat".into(),
            "p99 lat".into(),
            "p999 lat".into(),
        ],
    );
    let mut idx = 0;
    for kind in &kinds {
        for sched in &scheds {
            for load in &loads {
                let s = &results[idx];
                idx += 1;
                let offered = cores as f64 * width * 1000.0 / (load.mean_gap() + 1.0);
                let achieved = s.reads_served as f64 * 1000.0 / s.cpu_cycles.max(1) as f64;
                fig.push_row(
                    format!("{} / {} @ {}", kind.label(), sched.label(), load.label()),
                    vec![
                        offered,
                        achieved,
                        s.avg_read_latency,
                        s.read_lat_p50 as f64,
                        s.read_lat_p99 as f64,
                        s.read_lat_p999 as f64,
                    ],
                );
            }
        }
    }
    note_truncations(&mut fig, &results);
    fig.push_note(
        "offered counts injected memory ops (the cache hierarchy absorbs a share); \
         achieved counts DRAM reads served — the knee is where it stops tracking offered",
    );
    fig.push_note("p50/p99/p999 are histogram bucket floors (<= 12.5% quantization error)");
    fig
}

/// **Table 2**: measured MPKI and intensity classification of every
/// application on the `Base` system.
pub fn tab2(runner: &Runner) -> FigureData {
    let apps = app_profiles();
    let kinds = vec![ConfigKind::Base];
    let matrix = single_matrix(runner, &apps, &kinds);
    let mut fig = FigureData::new(
        "Table 2: benchmark classification (MPKI, intensive=1)",
        vec!["MPKI".into(), "measured-intensive".into(), "paper-intensive".into()],
    );
    for (i, app) in apps.iter().enumerate() {
        let mpki = matrix[i][0].mpki[0];
        fig.push_row(
            app.name,
            vec![mpki, f64::from(u8::from(mpki > 10.0)), f64::from(u8::from(app.memory_intensive))],
        );
    }
    note_truncations(&mut fig, matrix.iter().flatten());
    fig.push_note("paper splits Table 2 at 10 LLC misses per kilo-instruction");
    fig
}

/// **Section 8.1, multithreaded**: canneal/fluidanimate/radix analogues,
/// execution-time improvement of FIGCache-Fast over Base.
pub fn multithreaded(runner: &Runner) -> FigureData {
    let profiles = multithreaded_profiles();
    let mut fig = FigureData::new(
        "Multithreaded workloads: FIGCache-Fast speedup over Base (execution time)",
        vec!["speedup".into()],
    );
    let jobs: Vec<(AppProfile, ConfigKind)> = profiles
        .iter()
        .flat_map(|p| [(*p, ConfigKind::Base), (*p, ConfigKind::FigCacheFast)])
        .collect();
    let results = runner.run_multithreaded_batch(&jobs);
    let mut speedups = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        let base = &results[i * 2];
        let fig_fast = &results[i * 2 + 1];
        let s = base.cpu_cycles as f64 / fig_fast.cpu_cycles.max(1) as f64;
        speedups.push(s);
        fig.push_row(p.name, vec![s]);
    }
    fig.push_row("average", vec![mean(&speedups)]);
    note_truncations(&mut fig, &results);
    fig.push_note("paper: +16.8% average over Base for the three multithreaded applications");
    fig
}

/// **Table 1**: the simulated system configuration as text.
#[must_use]
pub fn tab1_text() -> String {
    let cfg = SystemConfig::paper(8, ConfigKind::FigCacheFast);
    let dram = cfg.dram_config();
    format!(
        "== Table 1: simulated system ==\n\
         Processor     : {} cores, 3.2 GHz, {}-wide, {}-entry window, 8 MSHRs/core\n\
         Caches        : L1 {} kB {}-way | L2 {} kB {}-way | LLC {} MB {}-way, 64 B blocks\n\
         Controller    : {}-entry RD/WR queues, FR-FCFS, open page, write drain {}/{}\n\
         DRAM          : DDR4-1600, {} channel(s), {} rank, {}x{} banks, {} subarrays/bank,\n\
                         {} rows/subarray, 8 kB rows, tRCD/tRP/tRAS = {}/{}/{} cycles\n\
         Fast region   : tRCD/tRP/tRAS = {}/{}/{} cycles (-45.5%/-38.2%/-62.9%)\n\
         FIGARO        : RELOC 64 B @ {} cycle(s), back-to-back gap {} cycles\n\
         FIGCache      : segment 1 kB (16 blocks), 64 cache rows/bank (2 fast subarrays x 32)\n\
         LISA-VILLA    : 512 cache rows/bank (16 fast subarrays x 32, interleaved)\n",
        cfg.cores,
        cfg.core.width,
        cfg.core.window,
        cfg.hierarchy.l1.size_bytes / 1024,
        cfg.hierarchy.l1.ways,
        cfg.hierarchy.l2.size_bytes / 1024,
        cfg.hierarchy.l2.ways,
        cfg.hierarchy.llc.size_bytes / (1024 * 1024),
        cfg.hierarchy.llc.ways,
        cfg.mc.read_queue_cap,
        cfg.mc.wq_high,
        cfg.mc.wq_low,
        cfg.channels,
        dram.geometry.ranks,
        dram.geometry.bankgroups,
        dram.geometry.banks_per_group,
        dram.layout.regular_subarrays,
        dram.layout.rows_per_subarray,
        dram.timing.rcd,
        dram.timing.rp,
        dram.timing.ras,
        dram.timing.fast_rcd,
        dram.timing.fast_rp,
        dram.timing.fast_ras,
        dram.timing.reloc,
        dram.timing.reloc_to_reloc,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::safe_ratio;

    #[test]
    fn sweep_subsets_have_both_classes() {
        let apps = sweep_apps(false);
        assert!(apps.iter().any(|a| a.memory_intensive));
        assert!(apps.iter().any(|a| !a.memory_intensive));
        assert_eq!(sweep_mixes(false).len(), 2);
        assert_eq!(sweep_apps(true).len(), 20);
        assert_eq!(sweep_mixes(true).len(), 20);
    }

    #[test]
    fn safe_ratio_never_emits_nan_or_inf() {
        assert_eq!(safe_ratio(2.0, 4.0), 0.5);
        assert_eq!(safe_ratio(1.0, 0.0), 0.0);
        assert_eq!(safe_ratio(0.0, 0.0), 0.0);
        assert_eq!(safe_ratio(f64::NAN, 1.0), 0.0);
        assert_eq!(safe_ratio(1.0, f64::INFINITY), 0.0);
    }

    #[test]
    fn tab1_mentions_key_parameters() {
        let t = tab1_text();
        assert!(t.contains("DDR4-1600"));
        assert!(t.contains("RELOC"));
        assert!(t.contains("FR-FCFS"));
    }
}
