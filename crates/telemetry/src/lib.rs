//! # figaro-telemetry — deterministic observability primitives
//!
//! Everything the repo reports elsewhere is an end-of-run aggregate;
//! this crate adds the time-resolved layers without compromising the
//! workspace's bit-identity discipline:
//!
//! * [`series`] — interval time-series: per-channel/per-core counter
//!   deltas and occupancy gauges snapshotted every
//!   `FIGARO_STATS_INTERVAL` CPU cycles into ring-buffered columns,
//!   exported as CSV / ASCII sparklines.
//! * [`trace`] — structured event tracing: sim-time-stamped spans and
//!   instants collected into per-shard [`trace::TraceBuffer`]s and
//!   merged (in channel order, stably sorted by timestamp) into Chrome
//!   trace-event JSON loadable in Perfetto (`FIGARO_TRACE=<path>`).
//! * [`profile`] — the **one sanctioned wall-clock island** (figlint
//!   FIG001 allowlists exactly this module): kernel self-profiling of
//!   time-per-component.
//!   Wall-clock readings never feed back into simulation state.
//!
//! ## Contract
//!
//! Telemetry is **result-neutral by construction**: probes only *read*
//! simulator counters, and every emit site in result-affecting crates
//! sits behind the [`probe!`] guard (enforced by figlint FIG007), so
//! the disabled path does no work and allocates nothing. The
//! `telemetry` integration suite proptests `RunStats` bit-identity
//! with telemetry on vs. off across all kernels, and byte-identity of
//! traced output across kernels.
//!
//! The env knobs (`FIGARO_STATS_INTERVAL`, `FIGARO_TRACE`,
//! `FIGARO_PROFILE`) are parsed by the binaries (`figaro_sim::env`) and
//! registered as *never-affects-results* in the README env tables.

pub mod profile;
pub mod series;
pub mod trace;

pub use series::SeriesSet;
pub use trace::{TraceBuffer, TraceFilter};

/// Runs a telemetry emit only when the optional sink is live.
///
/// The one sanctioned way to touch a telemetry sink from a
/// result-affecting crate (figlint FIG007 flags bare emit calls): the
/// disabled path is a single `Option` discriminant test — no
/// formatting, no allocation, no argument evaluation.
///
/// ```
/// let mut t: Option<u64> = None;
/// figaro_telemetry::probe!(t, s => *s += 1);
/// assert!(t.is_none());
/// ```
#[macro_export]
macro_rules! probe {
    ($opt:expr, $t:ident => $body:expr) => {
        if let Some($t) = $opt.as_mut() {
            let _ = $body;
        }
    };
}

/// What a run's telemetry records (see `System::set_telemetry`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Sample the interval time-series every this many CPU cycles
    /// (`FIGARO_STATS_INTERVAL`). `None` disables the series layer.
    pub interval: Option<u64>,
    /// Structured event-trace sink (`FIGARO_TRACE=<path>[:filter]`).
    /// `None` disables tracing.
    pub trace: Option<TraceSink>,
}

/// Where and what the event-trace layer writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSink {
    /// Output path for the Chrome trace-event JSON file.
    pub path: std::path::PathBuf,
    /// Category filter applied at emit time.
    pub filter: TraceFilter,
}

impl TelemetryConfig {
    /// Fully disabled configuration.
    #[must_use]
    pub fn off() -> Self {
        Self::default()
    }

    /// Whether any layer is enabled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.interval.is_some() || self.trace.is_some()
    }
}

/// Parses a `FIGARO_TRACE` value: `<path>[:filter]` where `filter` is
/// a comma-separated category list (see [`TraceFilter::parse`]). The
/// filter, if any, follows the *last* colon, so plain relative/absolute
/// paths work; a path whose final component itself contains a colon
/// followed by only lowercase letters and commas is read as a filter.
///
/// # Errors
///
/// An empty path or an unknown filter category.
pub fn parse_trace_spec(spec: &str) -> Result<TraceSink, String> {
    let (path, filter) = match spec.rsplit_once(':') {
        Some((p, f)) if TraceFilter::looks_like_filter(f) => (p, TraceFilter::parse(f)?),
        _ => (spec, TraceFilter::default()),
    };
    if path.is_empty() {
        return Err("the trace path must not be empty".into());
    }
    Ok(TraceSink { path: std::path::PathBuf::from(path), filter })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_spec_splits_path_and_filter() {
        let s = parse_trace_spec("out/trace.json:reloc,drain").unwrap();
        assert_eq!(s.path, std::path::PathBuf::from("out/trace.json"));
        assert!(s.filter.allows("reloc") && s.filter.allows("drain"));
        assert!(!s.filter.allows("refresh"));
    }

    #[test]
    fn trace_spec_without_filter_keeps_colonless_path() {
        let s = parse_trace_spec("trace.json").unwrap();
        assert_eq!(s.path, std::path::PathBuf::from("trace.json"));
        assert!(s.filter.allows("reloc") && s.filter.allows("warm"));
    }

    #[test]
    fn probe_macro_skips_disabled_sink() {
        let mut sink: Option<u64> = None;
        probe!(sink, s => *s += 1);
        assert!(sink.is_none());
        let mut sink = Some(0u64);
        probe!(sink, s => *s += 1);
        assert_eq!(sink.unwrap(), 1);
    }

    #[test]
    fn empty_trace_path_or_filter_typo_is_an_error() {
        assert!(parse_trace_spec("").is_err());
        assert!(parse_trace_spec(":reloc").is_err());
        let err = parse_trace_spec("trace.json:relocs").unwrap_err();
        assert!(err.contains("`relocs`"), "{err}");
    }
}
