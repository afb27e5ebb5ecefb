//! Kernel self-profiling — the **one sanctioned wall-clock island** in
//! the workspace (figlint FIG001 allowlists exactly this file, with
//! justification, in `figlint.toml`).
//!
//! Everything here is result-neutral by construction: wall-clock
//! readings are accumulated into side buckets that no simulation state
//! ever reads. The primitives are deliberately closure/handle based so
//! the *callers* in `crates/sim` never mention `Instant` — keeping the
//! determinism lint's token scan meaningful everywhere else.

use std::env;
use std::sync::OnceLock;
use std::time::Instant;

/// Whether `FIGARO_PROFILE=1` asked for kernel self-profiling (read
/// once; the knob is registered as *never-affects-results*).
pub fn profile_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| env::var("FIGARO_PROFILE").is_ok_and(|v| v == "1"))
}

/// One accumulation bucket of a [`LapClock`].
#[derive(Debug, Clone, Copy)]
pub struct Bucket {
    /// Component label.
    pub label: &'static str,
    /// Accumulated wall time, nanoseconds.
    pub nanos: u64,
    /// Times the bucket was charged.
    pub laps: u64,
}

/// A lap-style stopwatch attributing consecutive wall-time segments to
/// labelled component buckets: `lap(i)` charges the time since the
/// previous `lap`/creation to bucket `i`. Within a lap, `split(j)`
/// charges the time since the previous `lap`/`split` to split bucket
/// `j` — a finer breakdown of the lap that follows, which still
/// receives the whole segment.
#[derive(Debug)]
pub struct LapClock {
    started: Instant,
    last: Instant,
    /// Origin of the current split segment.
    mark: Instant,
    buckets: Vec<Bucket>,
    splits: Vec<Bucket>,
}

/// Nanoseconds from `from` to `to`, saturating.
fn nanos_between(from: Instant, to: Instant) -> u64 {
    u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX)
}

impl LapClock {
    /// A clock with one bucket per label and one split bucket per split
    /// label, started now.
    #[must_use]
    pub fn new(labels: &[&'static str], split_labels: &[&'static str]) -> Self {
        let now = Instant::now();
        let buckets = |ls: &[&'static str]| {
            ls.iter().map(|&label| Bucket { label, nanos: 0, laps: 0 }).collect()
        };
        Self {
            started: now,
            last: now,
            mark: now,
            buckets: buckets(labels),
            splits: buckets(split_labels),
        }
    }

    /// Charges the segment since the previous lap to bucket `idx`.
    pub fn lap(&mut self, idx: usize) {
        let now = Instant::now();
        let b = &mut self.buckets[idx];
        b.nanos += nanos_between(self.last, now);
        b.laps += 1;
        self.last = now;
        self.mark = now;
    }

    /// Charges the segment since the previous lap or split to split
    /// bucket `idx` (the enclosing lap is charged in full later).
    pub fn split(&mut self, idx: usize) {
        let now = Instant::now();
        let b = &mut self.splits[idx];
        b.nanos += nanos_between(self.mark, now);
        b.laps += 1;
        self.mark = now;
    }

    /// Resets the segment origin without charging anyone (use when
    /// entering untimed territory).
    pub fn skip(&mut self) {
        self.last = Instant::now();
        self.mark = self.last;
    }

    /// The buckets, in label order.
    #[must_use]
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// The split buckets, in label order.
    #[must_use]
    pub fn splits(&self) -> &[Bucket] {
        &self.splits
    }

    /// Total wall time since creation, nanoseconds.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lap_clock_charges_segments() {
        let mut c = LapClock::new(&["a", "b"], &["a1", "a2"]);
        c.split(0);
        c.split(1);
        c.lap(0);
        c.lap(1);
        assert_eq!(c.buckets()[0].laps, 1);
        assert_eq!(c.buckets()[1].laps, 1);
        assert!(c.elapsed_ns() >= c.buckets()[0].nanos);
        let s = c.splits();
        assert_eq!((s[0].laps, s[1].laps), (1, 1));
        assert!(s[0].nanos + s[1].nanos <= c.buckets()[0].nanos, "splits partition their lap");
    }
}
