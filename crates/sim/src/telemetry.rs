//! Telemetry glue: harvests component counters into the interval
//! series, stamps main-loop trace marks, merges per-shard trace
//! buffers, and owns the (wall-clock) kernel self-profile.
//!
//! This module is the **only** place in `crates/sim` allowed to call
//! `figaro-telemetry` emit primitives outside the `probe!` guard
//! (figlint FIG007 carries a justified allow entry for this file):
//! every entry point here is itself reachable only through the
//! `System::telemetry` / `System::profiler` `Option`s, so the disabled
//! path never gets this far.
//!
//! ## Why sampling cannot perturb results
//!
//! The sampler only *reads* public counters. The one interaction with
//! the kernels is the horizon clamp ([`System::telemetry_next_sample`]
//! folded into the skip target), which merely forces the event kernels
//! to *execute* the sample-boundary cycle — and executing an extra
//! cycle is a no-op by the event-kernel soundness invariant (every
//! cycle below the component horizon changes nothing but the batched
//! blocked counters, which are folded identically either way). The
//! `telemetry` integration suite proptests exactly this claim.

use figaro_telemetry::series::{ColKind, SeriesSet};
use figaro_telemetry::trace::{Cat, MergeSource, TraceBuffer};
use figaro_telemetry::{profile, TelemetryConfig, TraceSink};

use crate::system::System;

/// Per-core series columns (retired-instruction delta, MSHR gauge).
const CORE_COLS: [(&str, ColKind); 2] = [("retired", ColKind::Delta), ("mshr", ColKind::Gauge)];

/// Per-channel series columns, matching [`harvest`]'s emit order.
const CH_COLS: [(&str, ColKind); 10] = [
    ("row_hits", ColKind::Delta),
    ("row_misses", ColKind::Delta),
    ("row_conflicts", ColKind::Delta),
    ("read_q", ColKind::Gauge),
    ("write_q", ColKind::Gauge),
    ("cache_hits", ColKind::Delta),
    ("cache_insertions", ColKind::Delta),
    ("cache_evictions", ColKind::Delta),
    ("relocs", ColKind::Delta),
    ("refreshes", ColKind::Delta),
];

/// The per-run telemetry state hanging off [`System`]. `None` on the
/// (default) disabled path — the kernels only ever pay an `Option`
/// discriminant test.
#[derive(Debug)]
pub(crate) struct SimTelemetry {
    /// Sampling stride in CPU cycles (`FIGARO_STATS_INTERVAL`).
    interval: Option<u64>,
    /// Next CPU cycle to sample at (`u64::MAX` when sampling is off);
    /// the kernels fold this into their skip horizons so the boundary
    /// cycle is executed, not jumped over.
    pub(crate) next_sample_at: u64,
    /// Raw counter snapshot from the previous sample (delta basis).
    last: Vec<u64>,
    /// Scratch for the current harvest (no per-sample allocation).
    scratch: Vec<u64>,
    /// The collected series.
    series: SeriesSet,
    /// Trace sink, when `FIGARO_TRACE` is set.
    sink: Option<TraceSink>,
    /// Main-loop trace lane (window/warm marks); `Some` iff
    /// `sink` is.
    buf: Option<TraceBuffer>,
}

impl SimTelemetry {
    /// Builds the run's telemetry state, or `None` when `cfg` enables
    /// nothing.
    pub(crate) fn create(
        cfg: &TelemetryConfig,
        cores: usize,
        channels: usize,
    ) -> Option<Box<Self>> {
        if !cfg.enabled() {
            return None;
        }
        let mut series = SeriesSet::new(figaro_telemetry::series::DEFAULT_CAP);
        for c in 0..cores {
            for (name, kind) in CORE_COLS {
                series.add_col(format!("core{c}.{name}"), kind);
            }
        }
        for ch in 0..channels {
            for (name, kind) in CH_COLS {
                series.add_col(format!("ch{ch}.{name}"), kind);
            }
        }
        let ncols = series.cols.len();
        let buf = cfg.trace.as_ref().map(|s| TraceBuffer::new(s.filter));
        Some(Box::new(Self {
            interval: cfg.interval,
            next_sample_at: cfg.interval.unwrap_or(u64::MAX),
            last: vec![0; ncols],
            scratch: Vec::with_capacity(ncols),
            series,
            sink: cfg.trace.clone(),
            buf,
        }))
    }

    /// The collected series.
    pub(crate) fn series(&self) -> &SeriesSet {
        &self.series
    }

    /// Snapshots one sample row at `now` and advances the boundary to
    /// the next interval multiple strictly after `now` (a sampled-
    /// kernel jump may have crossed several boundaries — they collapse
    /// into this one row, whose deltas still cover the full gap, so
    /// totals keep reconciling exactly).
    pub(crate) fn sample(&mut self, now: u64, sys: &System) {
        let Some(interval) = self.interval else { return };
        self.scratch.clear();
        harvest(sys, &mut self.scratch);
        debug_assert_eq!(self.scratch.len(), self.last.len());
        let mut row = Vec::with_capacity(self.scratch.len());
        for (i, (&raw, col)) in self.scratch.iter().zip(&self.series.cols).enumerate() {
            row.push(match col.kind {
                ColKind::Delta => raw - self.last[i],
                ColKind::Gauge => raw,
            });
            self.last[i] = raw;
        }
        self.series.push_row(now, &row);
        self.next_sample_at = (now / interval + 1) * interval;
    }

    /// Sampled-kernel window/fast-forward instants.
    pub(crate) fn window_mark(&mut self, name: &'static str, cycle: u64, arg: u64) {
        if let Some(buf) = &mut self.buf {
            buf.instant(Cat::Window, name, cycle, arg);
        }
    }

    /// Warm-start resume instant.
    pub(crate) fn warm_mark(&mut self, cycle: u64) {
        if let Some(buf) = &mut self.buf {
            buf.instant(Cat::Warm, "warm_resume", cycle, 0);
        }
    }
}

/// Reads every sampled counter from the system, in the exact column
/// order [`SimTelemetry::create`] registered. Pure reads — this is the
/// whole of the sampler's contact with simulation state.
fn harvest(sys: &System, out: &mut Vec<u64>) {
    for (i, core) in sys.cores.iter().enumerate() {
        out.push(core.retired());
        out.push(sys.hierarchy.outstanding(i) as u64);
    }
    for sh in &sys.shards {
        let m = sh.mc.stats();
        out.push(m.row_hits);
        out.push(m.row_misses);
        out.push(m.row_conflicts);
        out.push(sh.mc.read_queue_len() as u64);
        out.push(sh.mc.write_queue_len() as u64);
        let e = sh.mc.engine_stats();
        out.push(e.hits);
        out.push(e.insertions);
        out.push(e.evictions_clean + e.evictions_dirty);
        let d = sh.mc.dram_stats();
        out.push(d.relocs);
        out.push(d.refreshes);
    }
}

/// Wall-clock kernel self-profile (`FIGARO_PROFILE=1`, surfaced by
/// `diag`). Result-neutral: see [`figaro_telemetry::profile`].
#[derive(Debug)]
pub struct KernelProfile {
    /// Component lap clock, one lap per executed event-kernel step:
    /// bucket 0 = memory side (kernel horizon, bus routing, controllers,
    /// completion delivery), bucket 1 = core side (core/hierarchy ticks).
    /// The memory lap is split into the four `PROF_*` split buckets.
    pub(crate) clock: profile::LapClock,
}

/// Lap-clock bucket index for the memory half of a step.
pub(crate) const PROF_MEMORY: usize = 0;
/// Lap-clock bucket index for the core half of a step.
pub(crate) const PROF_CORES: usize = 1;
/// Memory split: the kernel's component horizon (`component_horizon`).
pub(crate) const PROF_HORIZON: usize = 0;
/// Memory split: routing hierarchy output and backlog to the controllers.
pub(crate) const PROF_ROUTER: usize = 1;
/// Memory split: the controllers' `next_event_at` and `tick`.
pub(crate) const PROF_CONTROLLERS: usize = 2;
/// Memory split: delivering completions to the hierarchy and cores.
pub(crate) const PROF_COMPLETIONS: usize = 3;

impl KernelProfile {
    pub(crate) fn new() -> Box<Self> {
        // No split label may start with a lap label: report readers
        // find the `memory`/`cores` lines by prefix.
        let splits = ["horizon", "router", "controllers", "completions"];
        Box::new(Self { clock: profile::LapClock::new(&["memory", "cores"], &splits) })
    }

    /// Renders the profile as human-readable lines for `diag`: each lap
    /// bucket's share of the kernel wall time, with the memory bucket's
    /// splits (shares of the same total) indented under it.
    #[must_use]
    pub fn report(&self) -> Vec<String> {
        let total_ns = self.clock.elapsed_ns().max(1);
        let secs = total_ns as f64 / 1e9;
        let line = |indent: &str, b: &profile::Bucket| {
            let pct = b.nanos as f64 * 100.0 / total_ns as f64;
            let width = 24 - indent.len();
            format!("{indent}{:<width$}{pct:>6.1} %  ({} laps)", b.label, b.laps)
        };
        let mut lines = vec![format!("kernel wall time        {secs:.3} s")];
        for (i, b) in self.clock.buckets().iter().enumerate() {
            lines.push(line("  ", b));
            if i == PROF_MEMORY {
                lines.extend(self.clock.splits().iter().map(|s| line("    ", s)));
            }
        }
        lines
    }
}

impl System {
    /// Installs (or, with a disabled config, removes) the run's
    /// telemetry: the interval sampler, the main trace lane, and the
    /// per-controller trace buffers. Systems start with telemetry off;
    /// `diag` installs the `FIGARO_STATS_INTERVAL` / `FIGARO_TRACE`
    /// config through this. Call before `run`.
    pub fn set_telemetry(&mut self, cfg: &TelemetryConfig) {
        self.telemetry = SimTelemetry::create(cfg, self.cores.len(), self.shards.len());
        let filter = cfg.trace.as_ref().map(|s| s.filter);
        for sh in &mut self.shards {
            match filter {
                Some(f) => sh.mc.enable_trace(f),
                None => {
                    let _ = sh.mc.take_trace(0);
                }
            }
        }
    }

    /// The interval series collected so far (`None` when sampling is
    /// disabled or no row has landed yet).
    #[must_use]
    pub fn telemetry_series(&self) -> Option<&SeriesSet> {
        self.telemetry.as_ref().map(|t| t.series()).filter(|s| !s.cols.is_empty())
    }

    /// Next CPU cycle the sampler must observe (`u64::MAX` when
    /// sampling is off) — the kernels fold this into their skip
    /// horizons so the boundary cycle is executed rather than jumped.
    #[inline]
    pub(crate) fn telemetry_next_sample(&self) -> u64 {
        self.telemetry.as_ref().map_or(u64::MAX, |t| t.next_sample_at)
    }

    /// Loop-top sampling hook: snapshots a row when `now` has reached
    /// the sample boundary.
    #[inline]
    pub(crate) fn maybe_sample(&mut self, now: u64) {
        if now >= self.telemetry_next_sample() {
            self.telemetry_sample(now);
        }
    }

    fn telemetry_sample(&mut self, now: u64) {
        let Some(mut t) = self.telemetry.take() else { return };
        t.sample(now, self);
        self.telemetry = Some(t);
    }

    /// End-of-run hook (called by `run` under every kernel): lands the
    /// final reconciliation sample (so delta-column totals equal the
    /// end-of-run aggregates exactly) and writes the merged Chrome
    /// trace, per-shard buffers in channel order after the main lane.
    ///
    /// # Panics
    ///
    /// Panics when the `FIGARO_TRACE` file cannot be written (loud-env
    /// convention: a traced run that silently lost its trace is worse
    /// than a dead one).
    pub(crate) fn telemetry_finish(&mut self) {
        if self.telemetry.is_none() {
            return;
        }
        let now = self.cpu_cycle;
        if self
            .telemetry
            .as_ref()
            .is_some_and(|t| t.interval.is_some() && t.series.cycles.back() != Some(&now))
        {
            self.telemetry_sample(now);
        }
        let Some(t) = self.telemetry.as_mut() else { return };
        let Some(sink) = t.sink.clone() else { return };
        let per_bus = self.cfg.cpu_cycles_per_bus;
        let final_bus = now / per_bus;
        let mut sources = Vec::with_capacity(1 + self.shards.len());
        if let Some(buf) = t.buf.take() {
            sources.push(MergeSource { tid: 0, ts_scale: 1, buf });
        }
        for (ch, sh) in self.shards.iter_mut().enumerate() {
            if let Some(buf) = sh.mc.take_trace(final_bus) {
                sources.push(MergeSource { tid: ch as u32 + 1, ts_scale: per_bus, buf });
            }
        }
        figaro_telemetry::trace::write_chrome_trace(&sink.path, &sources).unwrap_or_else(|e| {
            panic!("cannot write FIGARO_TRACE file {}: {e}", sink.path.display())
        });
        // One write per run: drop the state so a (hypothetical) second
        // `run` on the same system cannot emit a half-empty trace.
        self.telemetry = None;
    }

    /// Stamps a `warm_resume` instant at the current clock (the runner
    /// calls this when a run resumes from a warm-state snapshot or an
    /// in-memory warm hand-over).
    pub(crate) fn note_warm_resume(&mut self) {
        let cycle = self.cpu_cycle;
        figaro_telemetry::probe!(self.telemetry, t => t.warm_mark(cycle));
    }

    /// Charges the memory-half segment since the previous split to
    /// split bucket `idx` when profiling (one `Option` test otherwise).
    #[inline]
    pub(crate) fn profile_split(&mut self, idx: usize) {
        if let Some(p) = &mut self.profiler {
            p.clock.split(idx);
        }
    }

    /// Enables kernel self-profiling for the next `run` (diag does
    /// this when `FIGARO_PROFILE=1`). Wall-clock only; results are
    /// unaffected (the profiler reads no simulation state and no
    /// simulation state reads it).
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(KernelProfile::new());
    }

    /// The kernel self-profile collected by the last `run`, if
    /// profiling was enabled.
    #[must_use]
    pub fn profile(&self) -> Option<&KernelProfile> {
        self.profiler.as_deref()
    }
}
