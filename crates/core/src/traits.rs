//! The interface between in-DRAM cache engines and the memory controller.

use figaro_dram::{Cycle, RowId};

use crate::job::RelocationJob;

/// Where the memory controller should serve a demand request from, as
/// decided by the cache engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeTarget {
    /// Row to open/access (the source row, or a cache row on a hit).
    pub row: RowId,
    /// Block column within that row.
    pub col: u32,
    /// Whether the request is served by the in-DRAM cache.
    pub cache_hit: bool,
}

/// Aggregate statistics every cache engine reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups.
    pub lookups: u64,
    /// Lookups served by the in-DRAM cache.
    pub hits: u64,
    /// Cache hits served from the *source* row because it was already
    /// open (the open-row bypass; included in `hits`).
    pub hits_bypassed: u64,
    /// Lookups served by the source row.
    pub misses: u64,
    /// Lookups to addresses the engine cannot cache (e.g. rows homed in
    /// the reserved subarray of `FIGCache-Slow`).
    pub uncacheable: u64,
    /// Segments (or rows, for LISA-VILLA) whose insertion completed.
    pub insertions: u64,
    /// Insertions skipped because the per-bank job queue was full.
    pub insertions_skipped: u64,
    /// Insertions cancelled by a write racing the relocation.
    pub insertions_cancelled: u64,
    /// Clean evictions.
    pub evictions_clean: u64,
    /// Dirty evictions (each schedules a writeback job).
    pub evictions_dirty: u64,
    /// Cache blocks moved by relocation jobs (RELOC count at engine level).
    pub blocks_relocated: u64,
}

impl CacheStats {
    /// In-DRAM cache hit rate over cacheable lookups (paper Fig. 9).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An in-DRAM cache engine plugged into the memory controller.
///
/// The controller calls [`CacheEngine::on_request`] once per demand request
/// at enqueue time (the engine may redirect it into the cache region and
/// update tag/benefit state), and [`CacheEngine::take_job`] when a bank has
/// no active relocation job (the engine hands out pending jobs in FIFO
/// order; jobs are self-contained command generators). Job completion is
/// reported back through [`CacheEngine::on_job_complete`].
/// (`Send` so a whole `MemoryController` — which boxes its engine — can
/// move between threads.)
pub trait CacheEngine: std::fmt::Debug + Send {
    /// Looks up a demand request to (`bank`, `row`, `col`) and decides
    /// where to serve it; updates tag-store state (benefit counters,
    /// insertion decisions) as a side effect.
    ///
    /// `open_row` is the bank's currently open row: engines use it for the
    /// *open-row bypass* — a read whose source row is already open is
    /// served from that row (a guaranteed row hit) rather than redirected
    /// into the cache region, which would force a precharge/activate pair.
    /// The bypass is only legal while the cached copy is clean.
    fn on_request(
        &mut self,
        bank: u32,
        row: RowId,
        col: u32,
        is_write: bool,
        open_row: Option<RowId>,
        now: Cycle,
    ) -> ServeTarget;

    /// Pops the next pending relocation job for `bank`, if any.
    fn take_job(&mut self, bank: u32, now: Cycle) -> Option<RelocationJob>;

    /// The row whose LRB sources the front pending job's data (its
    /// "cheap-start" row: if that row is already open, the job can begin
    /// without an extra activation). `None` when there is no pending job
    /// or the job starts from a precharged bank.
    fn next_job_source(&self, _bank: u32) -> Option<RowId> {
        None
    }

    /// Whether `bank` has a pending (not yet started) job.
    fn has_pending_job(&self, bank: u32) -> bool;

    /// Whether **any** of the first `banks` banks has a pending job — one
    /// virtual call instead of `banks` for schedulers that poll this per
    /// cycle (the event kernel's horizon computation). Engines with a
    /// cheaper aggregate check should override it.
    fn has_any_pending_job(&self, banks: u32) -> bool {
        (0..banks).any(|b| self.has_pending_job(b))
    }

    /// Reports that job `job_id` on `bank` has finished all its commands.
    fn on_job_complete(&mut self, bank: u32, job_id: u64, now: Cycle);

    /// Engine statistics.
    fn stats(&self) -> CacheStats;

    /// Does nothing: the simulator never saves engine state. This method
    /// and [`CacheEngine::load_state`] exist only because the benchmark
    /// package's engine wrapper (`perfbench`, outside the workspace)
    /// forwards them; they go when that wrapper stops forwarding.
    fn save_state(&self, out: &mut Vec<u64>) {
        let _ = out;
    }

    /// Does nothing; kept for the same reason as
    /// [`CacheEngine::save_state`].
    fn load_state(&mut self, src: &mut &[u64]) {
        let _ = src;
    }
}

/// The no-op engine used by the `Base` and `LL-DRAM` configurations:
/// never redirects, never relocates.
#[derive(Debug, Clone, Default)]
pub struct NullEngine {
    stats: CacheStats,
}

impl NullEngine {
    /// Creates a no-op engine.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl CacheEngine for NullEngine {
    fn on_request(
        &mut self,
        _bank: u32,
        row: RowId,
        col: u32,
        _is_write: bool,
        _open_row: Option<RowId>,
        _now: Cycle,
    ) -> ServeTarget {
        self.stats.lookups += 1;
        self.stats.uncacheable += 1;
        ServeTarget { row, col, cache_hit: false }
    }

    fn take_job(&mut self, _bank: u32, _now: Cycle) -> Option<RelocationJob> {
        None
    }

    fn has_pending_job(&self, _bank: u32) -> bool {
        false
    }

    fn has_any_pending_job(&self, _banks: u32) -> bool {
        false
    }

    fn on_job_complete(&mut self, _bank: u32, _job_id: u64, _now: Cycle) {
        unreachable!("NullEngine never hands out jobs");
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_engine_never_redirects() {
        let mut e = NullEngine::new();
        let t = e.on_request(3, 42, 7, true, None, 100);
        assert_eq!(t, ServeTarget { row: 42, col: 7, cache_hit: false });
        assert!(e.take_job(3, 100).is_none());
        assert!(!e.has_pending_job(3));
        assert_eq!(e.stats().lookups, 1);
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats { hits: 3, misses: 1, ..Default::default() };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
