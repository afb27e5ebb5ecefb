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
/// previous `lap`/creation to bucket `i`.
#[derive(Debug)]
pub struct LapClock {
    started: Instant,
    last: Instant,
    buckets: Vec<Bucket>,
}

impl LapClock {
    /// A clock with one bucket per label, started now.
    #[must_use]
    pub fn new(labels: &[&'static str]) -> Self {
        let now = Instant::now();
        Self {
            started: now,
            last: now,
            buckets: labels.iter().map(|&label| Bucket { label, nanos: 0, laps: 0 }).collect(),
        }
    }

    /// Charges the segment since the previous lap to bucket `idx`.
    pub fn lap(&mut self, idx: usize) {
        let now = Instant::now();
        let ns = u64::try_from((now - self.last).as_nanos()).unwrap_or(u64::MAX);
        self.last = now;
        let b = &mut self.buckets[idx];
        b.nanos += ns;
        b.laps += 1;
    }

    /// Resets the segment origin without charging anyone (use when
    /// entering untimed territory).
    pub fn skip(&mut self) {
        self.last = Instant::now();
    }

    /// The buckets, in label order.
    #[must_use]
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
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
        let mut c = LapClock::new(&["a", "b"]);
        c.lap(0);
        c.lap(1);
        assert_eq!(c.buckets()[0].laps, 1);
        assert_eq!(c.buckets()[1].laps, 1);
        assert!(c.elapsed_ns() >= c.buckets()[0].nanos);
    }
}
