//! Every experiment of the paper's evaluation section, expressed as a
//! function from a [`Runner`] to a printable [`FigureData`].
//!
//! The functions share the runner's result memo, so figures that
//! reuse the same runs (7/9/10/11 share the single-core matrix, 8/9/10/11
//! the eight-core matrix) do not recompute them.
//!
//! Sweeps (Figs. 12–15) default to a representative subset (three
//! applications per single-core category, one mix per eight-core
//! category); a runner built [`Runner::with_full_sweeps`] (binaries:
//! `FIGARO_FULL_SWEEPS=1`) runs the paper's full set.
//!
//! The paper's claims are one table, [`CLAIMS`]: each figure appends
//! its rows to its notes as `HIT` or `MISS` lines with the modelled and
//! the paper's value.

use figaro_core::ReplacementPolicy;
use figaro_memctrl::SchedPolicyKind;
use figaro_workloads::{
    app_profiles, eight_core_mixes, multithreaded_profiles, profile_by_name, AppProfile,
    ArrivalKind, Mix, MixCategory,
};
use rayon::prelude::*;

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

/// The test a modelled value must pass. Every bound below was fixed
/// before the row was first measured, by one rule: a ratio is `Near`
/// the paper's number within ±0.02 when the paper's effect is under
/// 5 % and ±0.05 otherwise; a hit rate in percent within ±10 points; a
/// §4.2 circuit or timing number within ±10 %; an ordering is `Above`
/// or `Below` the paper's direction, or the bound the paper-shape
/// tests asserted before the table existed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Relation {
    /// A ratio or value: `|modelled - paper| < tol`.
    Near {
        /// Half-width of the accepted band.
        tol: f64,
    },
    /// An ordering with a margin: `modelled > bound`.
    Above(f64),
    /// An ordering or a saturation cap: `modelled < bound`.
    Below(f64),
}

/// Measures a claim on the runs it names.
pub type RunsMeasure = fn(&Runner) -> f64;

/// Where a claim's modelled value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// A function of the printed table of the claim's figure; `None`
    /// when a cell it reads is missing.
    Table(fn(&FigureData) -> Option<f64>),
    /// Runs of its own on a runner: few enough that the test suite
    /// checks every such row at `Scale::Small`. The figure that owns
    /// the row has already run them, so they cost it nothing.
    Runs(RunsMeasure),
    /// A program outside the simulator (the bench's §4.2 and §6
    /// entries), which hands its value to [`Claim::report`].
    Program,
}

/// One claim of the paper as a checkable row.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// Stable row name.
    pub id: &'static str,
    /// Where the paper makes the claim; figure code checks the rows of
    /// its own figure.
    pub figure: &'static str,
    /// What is measured.
    pub metric: &'static str,
    /// The paper's number for the metric. For a claim the paper makes
    /// only as a direction, the neutral point of that direction (1 for
    /// a ratio, 0 for a difference).
    pub paper: f64,
    /// The test the modelled value must pass.
    pub relation: Relation,
    /// How the modelled value is measured.
    pub source: Source,
}

impl Claim {
    /// Whether `modelled` satisfies the row (a NaN never does).
    #[must_use]
    pub fn holds(&self, modelled: f64) -> bool {
        match self.relation {
            Relation::Near { tol } => (modelled - self.paper).abs() < tol,
            Relation::Above(bound) => modelled > bound,
            Relation::Below(bound) => modelled < bound,
        }
    }

    /// One line: hit or miss, the row, the modelled value and the
    /// paper's.
    #[must_use]
    pub fn report(&self, modelled: f64) -> String {
        let verdict = if self.holds(modelled) { "HIT " } else { "MISS" };
        let need = match self.relation {
            Relation::Near { tol } => format!("within {tol} of paper"),
            Relation::Above(bound) => format!("> {bound}"),
            Relation::Below(bound) => format!("< {bound}"),
        };
        format!(
            "{verdict} {} ({}; {}): model {modelled:.3}, paper {:.3}, need {need}",
            self.id, self.figure, self.metric, self.paper
        )
    }
}

/// The row called `id`, if there is one.
#[must_use]
pub fn claim(id: &str) -> Option<&'static Claim> {
    CLAIMS.iter().find(|c| c.id == id)
}

/// Every [`Source::Runs`] row with its modelled value on `runner`,
/// measured in parallel; the runner's memo runs each shared job once.
#[must_use]
pub fn claims_from_runs(runner: &Runner) -> Vec<(&'static Claim, f64)> {
    let rows: Vec<(&'static Claim, RunsMeasure)> = CLAIMS
        .iter()
        .filter_map(|c| match c.source {
            Source::Runs(measure) => Some((c, measure)),
            _ => None,
        })
        .collect();
    rows.par_iter().map(|&(c, measure)| (c, measure(runner))).collect::<Vec<_>>()
}

/// Appends one hit-or-miss line for each [`Source::Table`] and
/// [`Source::Runs`] row of `figure`.
fn check_claims(fig: &mut FigureData, runner: &Runner, figure: &str) {
    for claim in CLAIMS.iter().filter(|c| c.figure == figure) {
        let modelled = match claim.source {
            Source::Table(measure) => measure(fig).unwrap_or(f64::NAN),
            Source::Runs(measure) => measure(runner),
            Source::Program => continue,
        };
        fig.push_note(claim.report(modelled));
    }
}

/// The Table 2 profile `name`.
fn app(name: &str) -> AppProfile {
    profile_by_name(name).expect("claim rows name Table 2 applications")
}

/// `app`'s single-core IPC under `num` over its IPC under `den`.
fn ipc_ratio(runner: &Runner, app_name: &str, num: ConfigKind, den: ConfigKind) -> f64 {
    let runs = single_pair(runner, app_name, num, den);
    runs[0].ipc[0] / runs[1].ipc[0]
}

/// `app`'s single-core row-buffer hit rate under `kind` minus Base's.
fn row_hit_gain(runner: &Runner, app_name: &str, kind: ConfigKind) -> f64 {
    let runs = single_pair(runner, app_name, kind, ConfigKind::Base);
    runs[0].row_hit_rate - runs[1].row_hit_rate
}

/// `app`'s single-core runs under `a` and `b`, in that order, run in
/// parallel.
fn single_pair(runner: &Runner, app_name: &str, a: ConfigKind, b: ConfigKind) -> Vec<RunSummary> {
    let p = app(app_name);
    runner.run_single_batch(&[(p, a), (p, b)])
}

/// Mean over the figure's rows of `g(a, b)`, `a` and `b` the cells of
/// columns `col_a` and `col_b`.
fn row_mean(f: &FigureData, col_a: &str, col_b: &str, g: fn(f64, f64) -> f64) -> Option<f64> {
    let ia = f.columns.iter().position(|c| c == col_a)?;
    let ib = f.columns.iter().position(|c| c == col_b)?;
    Some(mean(&f.rows.iter().map(|(_, v)| g(v[ia], v[ib])).collect::<Vec<_>>()))
}

/// The x-value of the best of `points` (`(column, x)`) in `row`.
fn peak_at(f: &FigureData, row: &str, points: &[(&str, f64)]) -> Option<f64> {
    let mut best: Option<(f64, f64)> = None;
    for &(col, x) in points {
        let v = f.value(row, col)?;
        if best.is_none_or(|(b, _)| v > b) {
            best = Some((v, x));
        }
    }
    best.map(|(_, x)| x)
}

/// Best FIGCache-Fast speedup of one intensity class in Fig. 7.
fn fig07_max(f: &FigureData, intensive: bool) -> Option<f64> {
    app_profiles()
        .iter()
        .filter(|a| a.memory_intensive == intensive)
        .map(|a| f.value(a.name, "FIGCache-Fast"))
        .try_fold(f64::NEG_INFINITY, |m, v| Some(m.max(v?)))
}

/// Row of the 100 %-intensive eight-core category in the sweep figures.
const MIX100: &str = "8-core 100%";

/// The paper's claims, one row each: Figs. 7–15, Table 2 and the
/// multithreaded results of §8, the RELOC analysis of §4.2 and the
/// RowHammer argument of §6. Figure code prints every row of its figure
/// with hit or miss; the test suite checks every [`Source::Runs`] row
/// at `Scale::Small`.
pub const CLAIMS: &[Claim] = &[
    Claim {
        id: "fig07-fast-nonint",
        figure: "Fig. 7",
        metric: "FIGCache-Fast speedup over Base, geomean of non-intensive apps",
        paper: 1.015,
        relation: Relation::Near { tol: 0.02 },
        source: Source::Table(|f| f.value("geomean non-intensive", "FIGCache-Fast")),
    },
    Claim {
        id: "fig07-fast-nonint-max",
        figure: "Fig. 7",
        metric: "FIGCache-Fast speedup over Base, best non-intensive app",
        paper: 1.029,
        relation: Relation::Near { tol: 0.02 },
        source: Source::Table(|f| fig07_max(f, false)),
    },
    Claim {
        id: "fig07-fast-int",
        figure: "Fig. 7",
        metric: "FIGCache-Fast speedup over Base, geomean of intensive apps",
        paper: 1.161,
        relation: Relation::Near { tol: 0.05 },
        source: Source::Table(|f| f.value("geomean intensive", "FIGCache-Fast")),
    },
    Claim {
        id: "fig07-fast-int-max",
        figure: "Fig. 7",
        metric: "FIGCache-Fast speedup over Base, best intensive app",
        paper: 1.225,
        relation: Relation::Near { tol: 0.05 },
        source: Source::Table(|f| fig07_max(f, true)),
    },
    Claim {
        id: "fig07-slow-all",
        figure: "Fig. 7",
        metric: "FIGCache-Slow speedup over Base, geomean of all apps",
        paper: 1.059,
        relation: Relation::Near { tol: 0.05 },
        source: Source::Table(|f| f.value("geomean all", "FIGCache-Slow")),
    },
    Claim {
        id: "fig07-mcf-fast-vs-base",
        figure: "Fig. 7",
        metric: "mcf IPC, FIGCache-Fast / Base (paper value: the intensive geomean)",
        paper: 1.161,
        relation: Relation::Above(1.02),
        source: Source::Runs(|r| ipc_ratio(r, "mcf", ConfigKind::FigCacheFast, ConfigKind::Base)),
    },
    Claim {
        id: "fig07-gems-fast-vs-base",
        figure: "Fig. 7",
        metric: "GemsFDTD IPC, FIGCache-Fast / Base (paper value: the intensive geomean)",
        paper: 1.161,
        relation: Relation::Above(1.02),
        source: Source::Runs(|r| {
            ipc_ratio(r, "GemsFDTD", ConfigKind::FigCacheFast, ConfigKind::Base)
        }),
    },
    Claim {
        id: "fig07-mcf-ideal-vs-fast",
        figure: "Fig. 7",
        metric: "mcf IPC, FIGCache-Ideal / FIGCache-Fast (free relocation bounds real)",
        paper: 1.0,
        relation: Relation::Above(0.99),
        source: Source::Runs(|r| {
            ipc_ratio(r, "mcf", ConfigKind::FigCacheIdeal, ConfigKind::FigCacheFast)
        }),
    },
    Claim {
        id: "fig07-gems-fast-vs-lisa",
        figure: "Fig. 7",
        metric: "GemsFDTD IPC, FIGCache-Fast / LISA-VILLA",
        paper: 1.0,
        relation: Relation::Above(1.0),
        source: Source::Runs(|r| {
            ipc_ratio(r, "GemsFDTD", ConfigKind::FigCacheFast, ConfigKind::LisaVilla)
        }),
    },
    Claim {
        id: "fig08-fast-25",
        figure: "Fig. 8",
        metric: "FIGCache-Fast weighted speedup over Base, 25% intensive mixes",
        paper: 1.039,
        relation: Relation::Near { tol: 0.02 },
        source: Source::Table(|f| f.value("avg 25% intensive", "FIGCache-Fast")),
    },
    Claim {
        id: "fig08-fast-50",
        figure: "Fig. 8",
        metric: "FIGCache-Fast weighted speedup over Base, 50% intensive mixes",
        paper: 1.129,
        relation: Relation::Near { tol: 0.05 },
        source: Source::Table(|f| f.value("avg 50% intensive", "FIGCache-Fast")),
    },
    Claim {
        id: "fig08-fast-75",
        figure: "Fig. 8",
        metric: "FIGCache-Fast weighted speedup over Base, 75% intensive mixes",
        paper: 1.218,
        relation: Relation::Near { tol: 0.05 },
        source: Source::Table(|f| f.value("avg 75% intensive", "FIGCache-Fast")),
    },
    Claim {
        id: "fig08-fast-100",
        figure: "Fig. 8",
        metric: "FIGCache-Fast weighted speedup over Base, 100% intensive mixes",
        paper: 1.271,
        relation: Relation::Near { tol: 0.05 },
        source: Source::Table(|f| f.value("avg 100% intensive", "FIGCache-Fast")),
    },
    Claim {
        id: "fig08-fast-all",
        figure: "Fig. 8",
        metric: "FIGCache-Fast weighted speedup over Base, all 20 mixes",
        paper: 1.163,
        relation: Relation::Near { tol: 0.05 },
        source: Source::Table(|f| f.value("avg all 20 mixes", "FIGCache-Fast")),
    },
    Claim {
        id: "fig08-fast-vs-lisa",
        figure: "Fig. 8",
        metric: "weighted speedup, FIGCache-Fast / LISA-VILLA, all 20 mixes",
        paper: 1.047,
        relation: Relation::Near { tol: 0.02 },
        source: Source::Table(|f| {
            Some(
                f.value("avg all 20 mixes", "FIGCache-Fast")?
                    / f.value("avg all 20 mixes", "LISA-VILLA")?,
            )
        }),
    },
    Claim {
        id: "fig08-fast-vs-ideal",
        figure: "Fig. 8",
        metric: "weighted speedup, FIGCache-Fast / FIGCache-Ideal, all 20 mixes",
        paper: 0.981,
        relation: Relation::Near { tol: 0.02 },
        source: Source::Table(|f| {
            Some(
                f.value("avg all 20 mixes", "FIGCache-Fast")?
                    / f.value("avg all 20 mixes", "FIGCache-Ideal")?,
            )
        }),
    },
    Claim {
        id: "fig08-fast-vs-ll",
        figure: "Fig. 8",
        metric: "weighted speedup, FIGCache-Fast / LL-DRAM, all 20 mixes",
        paper: 0.954,
        relation: Relation::Near { tol: 0.02 },
        source: Source::Table(|f| {
            Some(
                f.value("avg all 20 mixes", "FIGCache-Fast")?
                    / f.value("avg all 20 mixes", "LL-DRAM")?,
            )
        }),
    },
    Claim {
        id: "fig08-mix100-fast-vs-base",
        figure: "Fig. 8",
        metric: "first 100% intensive mix, weighted speedup FIGCache-Fast / Base \
                 (paper value: the 100% category mean)",
        paper: 1.271,
        relation: Relation::Above(1.03),
        source: Source::Runs(|r| {
            let mix = eight_core_mixes()
                .into_iter()
                .find(|m| m.category == MixCategory::Intensive100)
                .expect("every category has mixes");
            let jobs = [ConfigKind::FigCacheFast, ConfigKind::Base].map(|k| (mix.clone(), k));
            let runs = r.run_mix_batch(&jobs);
            let alone = r.alone_ipc_batch(&mix.apps);
            weighted_speedup(&runs[0].ipc, &alone) / weighted_speedup(&runs[1].ipc, &alone)
        }),
    },
    Claim {
        id: "fig09-slow-below-fast",
        figure: "Fig. 9",
        metric: "cache hit rate, FIGCache-Fast minus FIGCache-Slow, mean of categories (points)",
        paper: 0.0,
        relation: Relation::Above(0.0),
        source: Source::Table(|f| row_mean(f, "FIGCache-Fast", "FIGCache-Slow", |a, b| a - b)),
    },
    Claim {
        id: "fig09-lisa-comparable",
        figure: "Fig. 9",
        metric: "cache hit rate, LISA-VILLA minus FIGCache-Fast, mean of categories (points)",
        paper: 0.0,
        relation: Relation::Near { tol: 10.0 },
        source: Source::Table(|f| row_mean(f, "LISA-VILLA", "FIGCache-Fast", |a, b| a - b)),
    },
    Claim {
        id: "fig10-fast-vs-lisa",
        figure: "Fig. 10",
        metric: "row-buffer hit rate, FIGCache-Fast / LISA-VILLA, mean of categories",
        paper: 1.18,
        relation: Relation::Near { tol: 0.05 },
        source: Source::Table(|f| row_mean(f, "FIGCache-Fast", "LISA-VILLA", |a, b| a / b)),
    },
    Claim {
        id: "fig10-slow-vs-lisa",
        figure: "Fig. 10",
        metric: "row-buffer hit rate, FIGCache-Slow / LISA-VILLA, mean of categories",
        paper: 1.18,
        relation: Relation::Near { tol: 0.05 },
        source: Source::Table(|f| row_mean(f, "FIGCache-Slow", "LISA-VILLA", |a, b| a / b)),
    },
    Claim {
        id: "fig10-mcf-fast-gain",
        figure: "Fig. 10",
        metric: "mcf row-buffer hit rate, FIGCache-Fast minus Base",
        paper: 0.0,
        relation: Relation::Above(0.03),
        source: Source::Runs(|r| row_hit_gain(r, "mcf", ConfigKind::FigCacheFast)),
    },
    Claim {
        id: "fig10-mcf-lisa-gain",
        figure: "Fig. 10",
        metric: "mcf row-buffer hit rate, LISA-VILLA minus Base (whole rows add no locality)",
        paper: 0.0,
        relation: Relation::Near { tol: 0.08 },
        source: Source::Runs(|r| row_hit_gain(r, "mcf", ConfigKind::LisaVilla)),
    },
    Claim {
        id: "fig11-slow-int",
        figure: "Fig. 11",
        metric: "system energy, FIGCache-Slow / Base, 1-core intensive",
        paper: 0.931,
        relation: Relation::Near { tol: 0.05 },
        source: Source::Table(|f| f.value("1-core intensive / FIGCache-Slow", "Total")),
    },
    Claim {
        id: "fig11-fast-int",
        figure: "Fig. 11",
        metric: "system energy, FIGCache-Fast / Base, 1-core intensive",
        paper: 0.889,
        relation: Relation::Near { tol: 0.05 },
        source: Source::Table(|f| f.value("1-core intensive / FIGCache-Fast", "Total")),
    },
    Claim {
        id: "fig11-fast-8core-dram",
        figure: "Fig. 11",
        metric: "DRAM energy, FIGCache-Fast / Base, mean of 8-core categories",
        paper: 0.922,
        relation: Relation::Near { tol: 0.05 },
        source: Source::Table(|f| {
            let ratios = MixCategory::all().map(|c| {
                let cell = |kind: &str| f.value(&format!("8-core {} / {kind}", c.label()), "DRAM");
                Some(cell("FIGCache-Fast")? / cell("Base")?)
            });
            Some(mean(&ratios.into_iter().collect::<Option<Vec<f64>>>()?))
        }),
    },
    Claim {
        id: "fig11-lbm-energy",
        figure: "Fig. 11",
        metric: "lbm system energy, FIGCache-Fast / Base (paper value: the 1-core intensive mean)",
        paper: 0.889,
        relation: Relation::Below(1.05),
        source: Source::Runs(|r| {
            let runs = single_pair(r, "lbm", ConfigKind::FigCacheFast, ConfigKind::Base);
            runs[0].energy_total() / runs[1].energy_total()
        }),
    },
    Claim {
        id: "fig12-2-to-4",
        figure: "Fig. 12",
        metric: "speedup gained from 2 to 4 fast subarrays, 8-core 100% (saturation)",
        paper: 0.027,
        relation: Relation::Below(0.027),
        source: Source::Table(|f| Some(f.value(MIX100, "4 FS")? / f.value(MIX100, "2 FS")? - 1.0)),
    },
    Claim {
        id: "fig12-4-to-8",
        figure: "Fig. 12",
        metric: "speedup gained from 4 to 8 fast subarrays, 8-core 100% (saturation)",
        paper: 0.008,
        relation: Relation::Below(0.008),
        source: Source::Table(|f| Some(f.value(MIX100, "8 FS")? / f.value(MIX100, "4 FS")? - 1.0)),
    },
    Claim {
        id: "fig13-peak",
        figure: "Fig. 13",
        metric: "segment size (kB) with the best speedup, 8-core 100%",
        paper: 1.0,
        relation: Relation::Near { tol: 0.5 },
        source: Source::Table(|f| {
            peak_at(
                f,
                MIX100,
                &[("512B", 0.5), ("1KB", 1.0), ("2KB", 2.0), ("4KB", 4.0), ("8KB", 8.0)],
            )
        }),
    },
    Claim {
        id: "fig13-8kb-vs-lisa",
        figure: "Fig. 13",
        metric: "speedup, 8 kB segments / LISA-VILLA, 8-core 100%",
        paper: 1.0,
        relation: Relation::Below(1.0),
        source: Source::Table(|f| Some(f.value(MIX100, "8KB")? / f.value(MIX100, "LISA-VILLA")?)),
    },
    Claim {
        id: "fig14-worst-policy",
        figure: "Fig. 14",
        metric: "lowest speedup over Base of the four replacement policies, 8-core 100%",
        paper: 1.125,
        relation: Relation::Above(1.125),
        source: Source::Table(|f| {
            ["Random", "LRU", "SegmentBenefit", "RowBenefit"]
                .iter()
                .try_fold(f64::INFINITY, |m, col| Some(m.min(f.value(MIX100, col)?)))
        }),
    },
    Claim {
        id: "fig14-row-vs-segment",
        figure: "Fig. 14",
        metric: "speedup, RowBenefit / SegmentBenefit, 8-core 100%",
        paper: 1.041,
        relation: Relation::Near { tol: 0.02 },
        source: Source::Table(|f| {
            Some(f.value(MIX100, "RowBenefit")? / f.value(MIX100, "SegmentBenefit")?)
        }),
    },
    Claim {
        id: "fig15-best-threshold",
        figure: "Fig. 15",
        metric: "insertion threshold with the best speedup, 8-core 100%",
        paper: 1.0,
        relation: Relation::Near { tol: 0.5 },
        source: Source::Table(|f| {
            peak_at(
                f,
                MIX100,
                &[
                    ("Threshold 1", 1.0),
                    ("Threshold 2", 2.0),
                    ("Threshold 4", 4.0),
                    ("Threshold 8", 8.0),
                ],
            )
        }),
    },
    Claim {
        id: "tab2-classes",
        figure: "Table 2",
        metric: "apps whose measured class (MPKI > 10) contradicts Table 2",
        paper: 0.0,
        relation: Relation::Below(1.0),
        source: Source::Runs(|r| {
            let apps = app_profiles();
            let jobs: Vec<_> = apps.iter().map(|p| (*p, ConfigKind::Base)).collect();
            let runs = r.run_single_batch(&jobs);
            let wrong =
                apps.iter().zip(&runs).filter(|(p, s)| (s.mpki[0] > 10.0) != p.memory_intensive);
            wrong.count() as f64
        }),
    },
    Claim {
        id: "mt-fast",
        figure: "Sec. 8.1",
        metric: "FIGCache-Fast speedup over Base (execution time), mean of 3 multithreaded apps",
        paper: 1.168,
        relation: Relation::Near { tol: 0.05 },
        source: Source::Table(|f| f.value("average", "speedup")),
    },
    Claim {
        id: "sec42-worst",
        figure: "Sec. 4.2",
        metric: "worst-case RELOC settle latency over the Monte-Carlo runs (ns)",
        paper: 0.57,
        relation: Relation::Near { tol: 0.057 },
        source: Source::Program,
    },
    Claim {
        id: "sec42-guardband",
        figure: "Sec. 4.2",
        metric: "RELOC latency with the 43% guardband (ns)",
        paper: 1.0,
        relation: Relation::Near { tol: 0.1 },
        source: Source::Program,
    },
    Claim {
        id: "sec42-one-column",
        figure: "Sec. 4.2",
        metric: "one-column relocation, ACT tRAS + RELOC + ACT tRCD + PRE tRP (ns)",
        paper: 63.5,
        relation: Relation::Near { tol: 6.35 },
        source: Source::Program,
    },
    Claim {
        id: "sec42-energy",
        figure: "Sec. 4.2",
        metric: "one-block relocation energy (nJ)",
        paper: 30.0,
        relation: Relation::Near { tol: 3.0 },
        source: Source::Program,
    },
    Claim {
        id: "sec6-act-pressure",
        figure: "Sec. 6",
        metric: "most ACTs of one row per window under a double-sided hammer, Base / FIGCache",
        paper: 1.0,
        relation: Relation::Above(1.0),
        source: Source::Program,
    },
];

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
    let cols = kinds.len() - 1;
    let all: Vec<Vec<f64>> = per_cat.concat();
    for (rows, label) in [
        (&per_cat[0], "geomean non-intensive"),
        (&per_cat[1], "geomean intensive"),
        (&all, "geomean all"),
    ] {
        let g: Vec<f64> =
            (0..cols).map(|k| geomean(&rows.iter().map(|v| v[k]).collect::<Vec<_>>())).collect();
        fig.push_row(label, g);
    }
    note_truncations(&mut fig, matrix.iter().flatten());
    check_claims(&mut fig, runner, "Fig. 7");
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
    check_claims(&mut fig, runner, "Fig. 8");
    fig
}

/// **Figure 9**: in-DRAM cache hit rate of LISA-VILLA vs FIGCache-Slow vs
/// FIGCache-Fast, averaged per workload category.
pub fn fig09(runner: &Runner) -> FigureData {
    let kinds = vec![ConfigKind::LisaVilla, ConfigKind::FigCacheSlow, ConfigKind::FigCacheFast];
    let labels: Vec<String> = kinds.iter().map(|k| k.label().to_string()).collect();
    let mut fig = FigureData::new("Figure 9: in-DRAM cache hit rate (%)", labels);
    category_metric(runner, &kinds, &mut fig, |s| s.cache_hit_rate * 100.0);
    check_claims(&mut fig, runner, "Fig. 9");
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
    check_claims(&mut fig, runner, "Fig. 10");
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
    check_claims(&mut fig, runner, "Fig. 11");
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
    let mut fig =
        sweep_figure(runner, "Figure 12: speedup vs number of fast subarrays", &points, "Fig. 12");
    fig.push_note("2 fast subarrays are the paper's area/performance balance");
    fig
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
    sweep_figure(runner, "Figure 13: speedup vs row-segment size", &points, "Fig. 13")
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
    sweep_figure(runner, "Figure 14: speedup vs replacement policy", &points, "Fig. 14")
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
    sweep_figure(runner, "Figure 15: speedup vs insertion threshold", &points, "Fig. 15")
}

/// Shared sweep shape: categories as rows, sweep points as columns,
/// speedup over Base as the value; the claim rows of `figure` are
/// checked on it.
fn sweep_figure(
    runner: &Runner,
    title: &str,
    points: &[(String, ConfigKind)],
    figure: &str,
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
    check_claims(&mut fig, runner, figure);
    if !runner.full_sweeps() {
        fig.push_note("sweep subset in effect (set FIGARO_FULL_SWEEPS=1 for all 20 apps/mixes)");
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
    fig.push_note("the paper splits Table 2 at 10 LLC misses per kilo-instruction");
    check_claims(&mut fig, runner, "Table 2");
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
    check_claims(&mut fig, runner, "Sec. 8.1");
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
    fn claim_ids_are_unique_and_found_by_name() {
        for (i, c) in CLAIMS.iter().enumerate() {
            assert!(CLAIMS[..i].iter().all(|d| d.id != c.id), "duplicate claim `{}`", c.id);
            assert_eq!(claim(c.id).map(|d| d.id), Some(c.id));
        }
        assert!(claim("no-such-claim").is_none());
    }

    #[test]
    fn a_relation_decides_hit_or_miss_strictly_and_nan_always_misses() {
        let row = |relation| Claim {
            id: "t",
            figure: "Fig. 0",
            metric: "m",
            paper: 1.0,
            relation,
            source: Source::Program,
        };
        let near = row(Relation::Near { tol: 0.5 });
        assert!(near.holds(1.4) && near.holds(0.6) && !near.holds(1.5) && !near.holds(0.5));
        assert!(row(Relation::Above(2.0)).holds(2.1) && !row(Relation::Above(2.0)).holds(2.0));
        assert!(row(Relation::Below(2.0)).holds(1.9) && !row(Relation::Below(2.0)).holds(2.0));
        for r in [Relation::Near { tol: 9.0 }, Relation::Above(-9.0), Relation::Below(9.0)] {
            assert!(!row(r).holds(f64::NAN), "{r:?}");
        }
        assert!(near.report(1.2).starts_with("HIT  t (Fig. 0; m): model 1.200, paper 1.000"));
        assert!(near.report(f64::NAN).starts_with("MISS t"));
    }

    #[test]
    fn tab1_mentions_key_parameters() {
        let t = tab1_text();
        assert!(t.contains("DDR4-1600"));
        assert!(t.contains("RELOC"));
        assert!(t.contains("FR-FCFS"));
    }
}
