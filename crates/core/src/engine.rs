//! The FIGCache engine: fine-grained in-DRAM caching built on FIGARO.
//!
//! The engine owns one [`FtsBank`] per DRAM bank, decides on every demand
//! request whether to redirect it into the in-DRAM cache, and produces the
//! relocation jobs (segment insertions and dirty-victim writebacks) that
//! the memory controller executes on the banks. The LISA-VILLA baseline
//! is the same engine configured by [`FigCacheConfig::lisa_villa`]:
//! whole-row segments moved by LISA clones.

use std::collections::{HashMap, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;

use figaro_dram::{Cycle, DramConfig, RowId, SubarrayLayout};

use crate::config::{CacheRegion, FigCacheConfig, Relocation};
use crate::fts::{FtsBank, SlotState};
use crate::job::{JobPurpose, RelocationJob};
use crate::segment::{SegmentGeometry, SegmentId};
use crate::traits::{CacheEngine, CacheStats, ServeTarget};

/// Bookkeeping for a queued or running job, until it completes.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: u64,
    purpose: JobPurpose,
    /// FTS slot being filled (insertions only).
    slot: Option<u32>,
    blocks: u32,
}

/// Per-bank engine state.
#[derive(Debug)]
struct BankState {
    fts: FtsBank,
    pending: VecDeque<RelocationJob>,
    /// Every job queued and not yet completed, in id order. A bank runs
    /// one job at a time and takes its jobs in queue order, so jobs
    /// complete from the front.
    in_flight: VecDeque<InFlight>,
    /// Miss counters for thresholds above 1 (Fig. 15); cleared wholesale
    /// when it grows past a bound, a coarse form of aging.
    miss_counts: HashMap<SegmentId, u32>,
}

/// The FIGCache engine for one memory channel (all its banks).
///
/// See the crate docs and [`CacheEngine`] for how the memory controller
/// drives it.
#[derive(Debug)]
pub struct FigCacheEngine {
    cfg: FigCacheConfig,
    seg_geo: SegmentGeometry,
    layout: SubarrayLayout,
    banks: Vec<BankState>,
    rng: StdRng,
    stats: CacheStats,
    next_job_id: u64,
    /// First DRAM row id used as a cache row.
    cache_row_base: RowId,
    /// Subarray whose segments cannot be cached (`ReservedSlowRows` only).
    reserved_subarray: Option<u32>,
}

impl FigCacheEngine {
    /// Builds the engine for `banks` banks of the device in `dram`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`FigCacheConfig::validate_for`] on `dram`.
    #[must_use]
    pub fn new(dram: &DramConfig, cfg: &FigCacheConfig, banks: u32) -> Self {
        if let Err(e) = cfg.validate_for(dram) {
            panic!("FigCacheConfig does not fit the DRAM device: {e}");
        }
        let layout = dram.layout;
        let seg_geo = SegmentGeometry::new(cfg.blocks_per_segment, dram.geometry.blocks_per_row());
        let (cache_row_base, reserved_subarray) = match cfg.region {
            CacheRegion::FastSubarrays => (layout.regular_rows(), None),
            CacheRegion::ReservedSlowRows => (
                layout.regular_rows() - cfg.cache_rows_per_bank,
                Some(layout.regular_subarrays - 1),
            ),
        };
        let segs_per_row = seg_geo.segments_per_row();
        let bank_states = (0..banks)
            .map(|_| BankState {
                fts: FtsBank::new(cfg.cache_rows_per_bank, segs_per_row, cfg.replacement),
                pending: VecDeque::new(),
                in_flight: VecDeque::new(),
                miss_counts: HashMap::new(),
            })
            .collect();
        Self {
            cfg: cfg.clone(),
            seg_geo,
            layout,
            banks: bank_states,
            rng: StdRng::seed_from_u64(cfg.seed),
            stats: CacheStats::default(),
            next_job_id: 0,
            cache_row_base,
            reserved_subarray,
        }
    }

    /// The DRAM row id of cache row `r`.
    #[must_use]
    pub fn cache_row_id(&self, r: u32) -> RowId {
        self.cache_row_base + r
    }

    /// Whether a source row's segments may be cached.
    #[must_use]
    pub fn cacheable(&self, row: RowId) -> bool {
        if row >= self.cache_row_base && self.cfg.region == CacheRegion::ReservedSlowRows {
            return false; // the reserved cache rows themselves
        }
        if row >= self.layout.regular_rows() {
            return false; // fast cache rows are not a cacheable source
        }
        match self.reserved_subarray {
            Some(sa) => self.layout.subarray_id(row) != sa,
            None => true,
        }
    }

    /// Segment geometry in use (for tests and reporting).
    #[must_use]
    pub fn segment_geometry(&self) -> SegmentGeometry {
        self.seg_geo
    }

    fn serve_from_slot(&self, bank: u32, slot: u32, col: u32) -> ServeTarget {
        let fts = &self.banks[bank as usize].fts;
        let row = self.cache_row_id(fts.row_of(slot));
        let base = fts.pos_in_row(slot) * self.cfg.blocks_per_segment;
        ServeTarget { row, col: base + self.seg_geo.col_offset(col), cache_hit: true }
    }

    fn try_insert(&mut self, bank: u32, seg: SegmentId, now: Cycle) {
        let free = self.cfg.relocation == Relocation::Free;
        let blocks = self.cfg.blocks_per_segment;
        let state = &mut self.banks[bank as usize];
        if !free && state.pending.len() >= self.cfg.max_pending_jobs_per_bank {
            self.stats.insertions_skipped += 1;
            return;
        }
        let Some(alloc) = state.fts.allocate(seg, &mut self.rng, now) else {
            self.stats.insertions_skipped += 1;
            return;
        };
        if let Some(victim) = alloc.victim {
            if victim.dirty {
                self.stats.evictions_dirty += 1;
                if free {
                    self.stats.blocks_relocated += u64::from(blocks);
                } else {
                    // Copy the victim's slot back to its home segment
                    // before the new segment overwrites it.
                    self.push_job(bank, JobPurpose::Writeback, victim.slot, victim.seg);
                }
            } else {
                self.stats.evictions_clean += 1;
            }
        }
        if free {
            self.banks[bank as usize].fts.complete_relocation(alloc.slot);
            self.stats.insertions += 1;
            self.stats.blocks_relocated += u64::from(blocks);
            return;
        }
        self.push_job(bank, JobPurpose::Insert, alloc.slot, seg);
    }

    /// Queues the job that copies `seg` into cache slot `slot` (`Insert`)
    /// or the slot back to `seg`'s home (`Writeback`).
    fn push_job(&mut self, bank: u32, purpose: JobPurpose, slot: u32, seg: SegmentId) {
        let blocks = self.cfg.blocks_per_segment;
        let segs_per_row = self.seg_geo.segments_per_row();
        let cache = (self.cache_row_base + slot / segs_per_row, (slot % segs_per_row) * blocks);
        let home = (seg.row, seg.index * blocks);
        let ((from_row, from_col), (to_row, to_col)) = match purpose {
            JobPurpose::Insert => (home, cache),
            JobPurpose::Writeback => (cache, home),
        };
        let id = self.next_job_id;
        self.next_job_id += 1;
        let job = match self.cfg.relocation {
            Relocation::LisaClone => RelocationJob::lisa_clone(id, bank, purpose, from_row, to_row),
            Relocation::Figaro | Relocation::Free => RelocationJob::fig_copy(
                id,
                bank,
                purpose,
                from_row,
                from_col,
                to_row,
                to_col,
                self.layout.subarray_id(to_row),
                blocks,
            ),
        };
        let slot = (purpose == JobPurpose::Insert).then_some(slot);
        let state = &mut self.banks[bank as usize];
        state.in_flight.push_back(InFlight { id, purpose, slot, blocks });
        state.pending.push_back(job);
    }
}

impl CacheEngine for FigCacheEngine {
    fn on_request(
        &mut self,
        bank: u32,
        row: RowId,
        col: u32,
        is_write: bool,
        open_row: Option<RowId>,
        now: Cycle,
    ) -> ServeTarget {
        self.stats.lookups += 1;
        let source = ServeTarget { row, col, cache_hit: false };
        if !self.cacheable(row) {
            self.stats.uncacheable += 1;
            return source;
        }
        let seg = self.seg_geo.segment_of(row, col);
        let slot_hit = self.banks[bank as usize].fts.find(seg);
        if let Some(slot) = slot_hit {
            let entry = self.banks[bank as usize].fts.slot(slot);
            match entry.state {
                SlotState::Valid => {
                    let dirty = entry.dirty;
                    self.banks[bank as usize].fts.touch_hit(slot, is_write, now);
                    // Open-row bypass: a read whose clean source row is
                    // already open row-hits there; redirecting would force
                    // a precharge + activate for no latency gain.
                    if !is_write && !dirty && open_row == Some(row) {
                        self.stats.hits += 1;
                        self.stats.hits_bypassed += 1;
                        return ServeTarget { row, col, cache_hit: true };
                    }
                    self.stats.hits += 1;
                    return self.serve_from_slot(bank, slot, col);
                }
                SlotState::Relocating { .. } => {
                    // Not yet servable from the cache; a racing write makes
                    // the future copy stale, so cancel the insertion.
                    if is_write {
                        self.banks[bank as usize].fts.cancel_relocation(slot);
                    }
                    self.stats.misses += 1;
                    return source;
                }
                SlotState::Free => unreachable!("mapped slot cannot be free"),
            }
        }
        self.stats.misses += 1;
        let threshold = self.cfg.insertion.miss_threshold;
        let insert = if threshold <= 1 {
            true
        } else {
            let counts = &mut self.banks[bank as usize].miss_counts;
            if counts.len() > 65_536 {
                counts.clear();
            }
            let c = counts.entry(seg).or_insert(0);
            *c += 1;
            if *c >= threshold {
                counts.remove(&seg);
                true
            } else {
                false
            }
        };
        if insert {
            self.try_insert(bank, seg, now);
        }
        source
    }

    fn take_job(&mut self, bank: u32, _now: Cycle) -> Option<RelocationJob> {
        self.banks[bank as usize].pending.pop_front()
    }

    fn next_job_source(&self, bank: u32) -> Option<RowId> {
        self.banks[bank as usize].pending.front().and_then(|j| match j.kind {
            crate::job::JobKind::FigCopy { from_row, .. } => Some(from_row),
            crate::job::JobKind::LisaClone { .. } => None,
        })
    }

    fn has_pending_job(&self, bank: u32) -> bool {
        !self.banks[bank as usize].pending.is_empty()
    }

    fn has_any_pending_job(&self, banks: u32) -> bool {
        self.banks.iter().take(banks as usize).any(|b| !b.pending.is_empty())
    }

    fn on_job_complete(&mut self, bank: u32, job_id: u64, _now: Cycle) {
        let info =
            self.banks[bank as usize].in_flight.pop_front().expect("completion for unknown job");
        assert_eq!(info.id, job_id, "a bank completes its jobs in id order");
        self.stats.blocks_relocated += u64::from(info.blocks);
        match info.purpose {
            JobPurpose::Insert => {
                let slot = info.slot.expect("insert jobs carry their slot");
                if self.banks[bank as usize].fts.complete_relocation(slot) {
                    self.stats.insertions += 1;
                } else {
                    self.stats.insertions_cancelled += 1;
                }
            }
            JobPurpose::Writeback => {}
        }
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use figaro_dram::{DramCommand, SubarrayLayout};

    fn fast_dram() -> DramConfig {
        DramConfig {
            layout: SubarrayLayout::homogeneous(64, 512).with_appended_fast(2, 32),
            ..DramConfig::ddr4_paper_default()
        }
    }

    fn lisa_dram() -> DramConfig {
        DramConfig {
            layout: SubarrayLayout::homogeneous(64, 512).with_interleaved_fast(16, 32),
            ..DramConfig::ddr4_paper_default()
        }
    }

    fn fast_engine() -> FigCacheEngine {
        FigCacheEngine::new(&fast_dram(), &FigCacheConfig::paper_fast(), 16)
    }

    /// LISA-VILLA on its interleaved layout, with `edit` applied to the
    /// preset.
    fn lisa_engine(edit: impl FnOnce(&mut FigCacheConfig)) -> FigCacheEngine {
        let mut cfg = FigCacheConfig::lisa_villa();
        edit(&mut cfg);
        FigCacheEngine::new(&lisa_dram(), &cfg, 16)
    }

    /// Both relocation kinds, each on its own layout: FIGCache-Fast
    /// (appended fast subarrays) and LISA-VILLA (interleaved ones).
    fn presets() -> [FigCacheEngine; 2] {
        [fast_engine(), lisa_engine(|_| {})]
    }

    /// Reads `row` until its misses cross the insertion threshold, so an
    /// insertion job is queued.
    fn miss_until_queued(e: &mut FigCacheEngine, row: RowId, now: Cycle) {
        for _ in 0..e.cfg.insertion.miss_threshold {
            assert!(!e.on_request(0, row, 0, false, None, now).cache_hit);
        }
        assert!(e.has_pending_job(0));
    }

    /// Runs a job to completion against an ideal bank and returns the
    /// issued commands.
    fn run_job(engine: &mut FigCacheEngine, bank: u32, open: Option<RowId>) -> Vec<DramCommand> {
        let mut job = engine.take_job(bank, 0).expect("expected a pending job");
        let mut open_row = open;
        let mut must_pre = false;
        let mut cmds = Vec::new();
        while let Some(cmd) = job.peek(open_row, must_pre) {
            match cmd {
                DramCommand::Activate { row } => open_row = Some(row),
                DramCommand::Precharge => {
                    open_row = None;
                    must_pre = false;
                }
                DramCommand::ActivateMerge { .. } => must_pre = true,
                _ => {}
            }
            job.on_issued(&cmd);
            cmds.push(cmd);
        }
        engine.on_job_complete(bank, job.id, 100);
        cmds
    }

    #[test]
    fn miss_then_relocation_then_hit() {
        let mut e = fast_engine();
        let t0 = e.on_request(0, 100, 5, false, None, 0);
        assert!(!t0.cache_hit);
        assert_eq!(t0.row, 100);
        assert!(e.has_pending_job(0));
        let cmds = run_job(&mut e, 0, Some(100));
        // One 16-block train + merge; source was open so no ACT, and the
        // merge ends the job (no bank-wide precharge).
        assert_eq!(cmds.len(), 2);
        let t1 = e.on_request(0, 100, 5, false, None, 10);
        assert!(t1.cache_hit);
        // Cache row is the first fast row.
        assert_eq!(t1.row, 64 * 512);
        assert_eq!(t1.col, 5); // slot 0, segment offset preserved
        assert_eq!(e.stats().hits, 1);
        assert_eq!(e.stats().insertions, 1);
        assert_eq!(e.stats().blocks_relocated, 16);
    }

    #[test]
    fn hit_redirects_with_column_offset() {
        let mut e = fast_engine();
        // Miss on segment 2 of row 7 (cols 32..48).
        e.on_request(0, 7, 33, false, None, 0);
        run_job(&mut e, 0, Some(7));
        let t = e.on_request(0, 7, 40, false, None, 5);
        assert!(t.cache_hit);
        assert_eq!(t.col, 8); // offset 40-32 within slot 0
    }

    #[test]
    fn accesses_during_relocation_go_to_source() {
        let mut e = fast_engine();
        e.on_request(0, 100, 0, false, None, 0);
        let t = e.on_request(0, 100, 1, false, None, 1);
        assert!(!t.cache_hit);
        assert_eq!(t.row, 100);
        assert_eq!(e.stats().misses, 2);
    }

    /// A write racing a queued insertion cancels it, and the row misses again.
    fn check_write_cancels_insertion(mut e: FigCacheEngine) {
        miss_until_queued(&mut e, 100, 0);
        e.on_request(0, 100, 1, true, None, 1); // racing write
        run_job(&mut e, 0, Some(100));
        assert_eq!(e.stats().insertions, 0);
        assert_eq!(e.stats().insertions_cancelled, 1);
        // The row misses again and re-inserts.
        miss_until_queued(&mut e, 100, 10);
    }

    #[test]
    fn write_during_relocation_cancels_insertion() {
        check_write_cancels_insertion(fast_engine());
    }

    #[test]
    fn lisa_villa_write_during_clone_cancels() {
        check_write_cancels_insertion(lisa_engine(|_| {}));
    }

    /// With one cache row full of dirty segments, the next insertion is
    /// preceded by a writeback of its victim.
    fn check_dirty_eviction_writes_back_first(mut e: FigCacheEngine) {
        let slots = e.seg_geo.segments_per_row();
        // Fill every slot from different rows, writing to make them dirty.
        for r in 0..slots {
            miss_until_queued(&mut e, r, 0);
            run_job(&mut e, 0, Some(r));
            e.on_request(0, r, 1, true, None, 1); // dirty the cached copy
        }
        assert_eq!(e.stats().hits, u64::from(slots));
        // The next segment evicts a dirty victim.
        miss_until_queued(&mut e, 100, 2);
        let wb = e.take_job(0, 2).unwrap();
        assert_eq!(wb.purpose, JobPurpose::Writeback);
        let ins = e.take_job(0, 2).unwrap();
        assert_eq!(ins.purpose, JobPurpose::Insert);
        assert_eq!(e.stats().evictions_dirty, 1);
    }

    #[test]
    fn dirty_eviction_schedules_writeback_before_insert() {
        // One cache row of 8 slots of 1 kB segments.
        let cfg = FigCacheConfig { cache_rows_per_bank: 1, ..FigCacheConfig::paper_fast() };
        check_dirty_eviction_writes_back_first(FigCacheEngine::new(&fast_dram(), &cfg, 16));
    }

    #[test]
    fn lisa_villa_dirty_row_eviction_schedules_writeback_clone() {
        // One cache row holding one whole-row slot.
        check_dirty_eviction_writes_back_first(lisa_engine(|cfg| cfg.cache_rows_per_bank = 1));
    }

    #[test]
    fn cache_rows_are_not_cacheable_sources() {
        for mut e in presets() {
            let t = e.on_request(0, 64 * 512 + 3, 0, false, None, 0);
            assert!(!t.cache_hit);
            assert!(!e.has_pending_job(0));
            assert_eq!(e.stats().uncacheable, 1);
        }
    }

    #[test]
    fn different_rows_fill_different_slots() {
        for mut e in presets() {
            for row in [10, 20] {
                miss_until_queued(&mut e, row, 0);
                run_job(&mut e, 0, None);
            }
            let a = e.on_request(0, 10, 0, false, None, 2);
            let b = e.on_request(0, 20, 0, false, None, 3);
            assert!(a.cache_hit && b.cache_hit);
            assert_ne!((a.row, a.col), (b.row, b.col));
        }
    }

    #[test]
    fn lisa_villa_clones_whole_rows() {
        let mut e = lisa_engine(|cfg| cfg.cache_rows_per_bank = 1);
        miss_until_queued(&mut e, 1000, 0);
        let cmds = run_job(&mut e, 0, None);
        assert_eq!(cmds, [DramCommand::LisaClone { src_row: 1000, dst_row: 64 * 512 }]);
        // Any column of the row now hits, at the same column.
        let t = e.on_request(0, 1000, 99, true, None, 1);
        assert!(t.cache_hit);
        assert_eq!((t.row, t.col), (64 * 512, 99));
        assert_eq!(e.stats().blocks_relocated, 128);
        // Evicting the dirtied row clones it back to its home row.
        miss_until_queued(&mut e, 2000, 2);
        let wb = e.take_job(0, 2).unwrap();
        assert_eq!(wb.purpose, JobPurpose::Writeback);
        assert_eq!(wb.kind, JobKind::LisaClone { src_row: 64 * 512, dst_row: 1000 });
    }

    #[test]
    #[should_panic(expected = "LISA clones move whole rows")]
    fn lisa_clone_rejects_sub_row_segments() {
        let cfg = FigCacheConfig { blocks_per_segment: 16, ..FigCacheConfig::lisa_villa() };
        let _ = FigCacheEngine::new(&lisa_dram(), &cfg, 16);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let dram = fast_dram();
        let mut cfg = FigCacheConfig::paper_fast();
        cfg.cache_rows_per_bank = 1;
        let mut e = FigCacheEngine::new(&dram, &cfg, 16);
        for r in 0..8u32 {
            e.on_request(0, r, 0, false, None, 0);
            run_job(&mut e, 0, Some(r));
        }
        e.on_request(0, 100, 0, false, None, 2);
        let job = e.take_job(0, 2).unwrap();
        assert_eq!(job.purpose, JobPurpose::Insert);
        assert!(e.take_job(0, 2).is_none());
        assert_eq!(e.stats().evictions_clean, 1);
    }

    #[test]
    fn free_relocation_validates_immediately_without_jobs() {
        let mut e = FigCacheEngine::new(&fast_dram(), &FigCacheConfig::paper_ideal(), 16);
        e.on_request(0, 100, 0, false, None, 0);
        assert!(!e.has_pending_job(0));
        let t = e.on_request(0, 100, 1, false, None, 1);
        assert!(t.cache_hit);
        assert_eq!(e.stats().insertions, 1);
    }

    #[test]
    fn slow_mode_does_not_cache_reserved_subarray() {
        let dram = DramConfig::ddr4_paper_default();
        let mut e = FigCacheEngine::new(&dram, &FigCacheConfig::paper_slow(), 16);
        // Rows of subarray 63 (ids 63*512..) are uncacheable sources.
        let t = e.on_request(0, 63 * 512 + 5, 0, false, None, 0);
        assert!(!t.cache_hit);
        assert!(!e.has_pending_job(0));
        assert_eq!(e.stats().uncacheable, 1);
        // Ordinary rows are cacheable; cache rows live at the top of
        // subarray 63.
        e.on_request(0, 100, 0, false, None, 0);
        assert!(e.has_pending_job(0));
        run_job(&mut e, 0, Some(100));
        let t = e.on_request(0, 100, 0, false, None, 1);
        assert!(t.cache_hit);
        assert_eq!(t.row, 64 * 512 - 64); // first reserved row
    }

    #[test]
    fn insertion_threshold_defers_insertion() {
        let dram = fast_dram();
        let mut cfg = FigCacheConfig::paper_fast();
        cfg.insertion.miss_threshold = 3;
        let mut e = FigCacheEngine::new(&dram, &cfg, 16);
        e.on_request(0, 100, 0, false, None, 0);
        assert!(!e.has_pending_job(0));
        e.on_request(0, 100, 0, false, None, 1);
        assert!(!e.has_pending_job(0));
        e.on_request(0, 100, 0, false, None, 2);
        assert!(e.has_pending_job(0), "third miss crosses the threshold");
    }

    #[test]
    fn fig15_threshold_one_is_insert_any_miss() {
        let dram = fast_dram();
        let cfg = FigCacheConfig::paper_fast();
        assert_eq!(cfg.insertion.miss_threshold, 1, "paper default");
        let mut e = FigCacheEngine::new(&dram, &cfg, 16);
        e.on_request(0, 100, 0, false, None, 0);
        assert!(e.has_pending_job(0), "threshold 1 inserts on the first miss");
    }

    #[test]
    fn fig15_threshold_boundary_holds_across_sweep() {
        // Fig. 15 sweeps thresholds 1/2/4/8: exactly the Nth miss of a
        // segment triggers its insertion, never the (N-1)th.
        for threshold in [2u32, 4, 8] {
            let dram = fast_dram();
            let mut cfg = FigCacheConfig::paper_fast();
            cfg.insertion.miss_threshold = threshold;
            let mut e = FigCacheEngine::new(&dram, &cfg, 16);
            for miss in 0..threshold - 1 {
                e.on_request(0, 100, 0, false, None, u64::from(miss));
                assert!(
                    !e.has_pending_job(0),
                    "threshold {threshold}: miss {} must not insert yet",
                    miss + 1
                );
            }
            e.on_request(0, 100, 0, false, None, u64::from(threshold));
            assert!(e.has_pending_job(0), "threshold {threshold}: Nth miss inserts");
        }
    }

    #[test]
    fn fig15_miss_counters_are_per_segment() {
        let dram = fast_dram();
        let mut cfg = FigCacheConfig::paper_fast();
        cfg.insertion.miss_threshold = 2;
        let mut e = FigCacheEngine::new(&dram, &cfg, 16);
        // First misses of two different segments: neither reaches 2.
        e.on_request(0, 100, 0, false, None, 0);
        e.on_request(0, 200, 0, false, None, 1);
        assert!(!e.has_pending_job(0), "counts must not be shared across segments");
        // Second miss of the first segment crosses its own threshold.
        e.on_request(0, 100, 0, false, None, 2);
        assert!(e.has_pending_job(0));
    }

    #[test]
    fn pending_job_bound_skips_insertions() {
        let dram = fast_dram();
        let mut cfg = FigCacheConfig::paper_fast();
        cfg.max_pending_jobs_per_bank = 2;
        let mut e = FigCacheEngine::new(&dram, &cfg, 16);
        for r in 0..5u32 {
            e.on_request(0, r, 0, false, None, 0);
        }
        assert_eq!(e.stats().insertions_skipped, 3);
    }

    #[test]
    fn banks_are_independent() {
        let mut e = fast_engine();
        e.on_request(0, 100, 0, false, None, 0);
        run_job(&mut e, 0, Some(100));
        let t = e.on_request(1, 100, 0, false, None, 1);
        assert!(!t.cache_hit, "bank 1 has its own FTS portion");
    }

    #[test]
    fn insert_job_targets_fast_subarray() {
        let mut e = fast_engine();
        e.on_request(0, 100, 0, false, None, 0);
        let job = e.take_job(0, 0).unwrap();
        match job.kind {
            crate::job::JobKind::FigCopy { to_subarray, to_row, blocks, .. } => {
                assert_eq!(to_subarray, 64); // first fast subarray's dense id
                assert_eq!(to_row, 64 * 512);
                assert_eq!(blocks, 16);
            }
            other => panic!("unexpected job kind {other:?}"),
        }
        e.on_job_complete(0, job.id, 1);
    }
}
