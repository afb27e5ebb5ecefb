//! Spans recorded from the benchmark's side of each layer boundary: a
//! call counter plus accumulated wall time per public function, and
//! wrappers that record them around a `TraceSource` and a `CacheEngine`
//! without changing what the wrapped object does.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use figaro_core::{CacheEngine, CacheStats, RelocationJob, ServeTarget};
use figaro_dram::{Cycle, RowId};
use figaro_workloads::{TraceOp, TraceSource};

/// Calls and total nanoseconds spent in one function.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Span {
    /// Times one call of `f`.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Relaxed: plain statistics, read after the run on the same thread.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        r
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total nanoseconds recorded.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            n => self.nanos() as f64 / n as f64,
        }
    }
}

/// A `TraceSource` that times every `next_op` of the source it wraps.
#[derive(Debug)]
pub struct TimedSource {
    inner: Box<dyn TraceSource>,
    span: Arc<Span>,
}

impl TimedSource {
    /// Wraps `inner`, charging its `next_op` calls to `span`.
    pub fn new(inner: Box<dyn TraceSource>, span: Arc<Span>) -> Self {
        Self { inner, span }
    }
}

impl TraceSource for TimedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_op(&mut self) -> TraceOp {
        let inner = &mut self.inner;
        self.span.time(|| inner.next_op())
    }
}

/// Spans of the cache-engine calls the controller makes.
#[derive(Debug, Default)]
pub struct EngineSpans {
    /// `CacheEngine::on_request`.
    pub on_request: Span,
    /// `CacheEngine::take_job`.
    pub take_job: Span,
    /// `CacheEngine::on_job_complete`.
    pub on_job_complete: Span,
}

/// A `CacheEngine` that times `on_request`, `take_job` and
/// `on_job_complete` and forwards every call unchanged.
#[derive(Debug)]
pub struct TimedEngine {
    inner: Box<dyn CacheEngine>,
    spans: Arc<EngineSpans>,
}

impl TimedEngine {
    /// Wraps `inner`, charging its calls to `spans`.
    pub fn new(inner: Box<dyn CacheEngine>, spans: Arc<EngineSpans>) -> Self {
        Self { inner, spans }
    }
}

impl CacheEngine for TimedEngine {
    fn on_request(
        &mut self,
        bank: u32,
        row: RowId,
        col: u32,
        is_write: bool,
        open_row: Option<RowId>,
        now: Cycle,
    ) -> ServeTarget {
        let inner = &mut self.inner;
        self.spans.on_request.time(|| inner.on_request(bank, row, col, is_write, open_row, now))
    }

    fn take_job(&mut self, bank: u32, now: Cycle) -> Option<RelocationJob> {
        let inner = &mut self.inner;
        self.spans.take_job.time(|| inner.take_job(bank, now))
    }

    fn next_job_source(&self, bank: u32) -> Option<RowId> {
        self.inner.next_job_source(bank)
    }

    fn has_pending_job(&self, bank: u32) -> bool {
        self.inner.has_pending_job(bank)
    }

    fn has_any_pending_job(&self, banks: u32) -> bool {
        self.inner.has_any_pending_job(banks)
    }

    fn on_job_complete(&mut self, bank: u32, job_id: u64, now: Cycle) {
        let inner = &mut self.inner;
        self.spans.on_job_complete.time(|| inner.on_job_complete(bank, job_id, now));
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        self.inner.save_state(out);
    }

    fn load_state(&mut self, src: &mut &[u64]) {
        self.inner.load_state(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figaro_workloads::{profile_by_name, TraceGenerator};

    #[test]
    fn timed_source_forwards_ops_and_counts_calls() {
        let p = profile_by_name("gcc").unwrap();
        let mut plain = TraceGenerator::new(&p, 3);
        let span = Arc::new(Span::default());
        let mut timed = TimedSource::new(Box::new(TraceGenerator::new(&p, 3)), span.clone());
        for _ in 0..1_000 {
            assert_eq!(plain.next_op(), timed.next_op());
        }
        assert_eq!(span.calls(), 1_000);
        assert_eq!(timed.name(), "gcc");
    }

    #[test]
    fn unused_span_reports_zero_per_call() {
        assert_eq!(Span::default().ns_per_call(), 0.0);
    }
}
