//! The three-level cache hierarchy with per-core MSHRs.
//!
//! Private L1/L2 per core, one shared LLC. Misses past the LLC allocate an
//! MSHR entry (merging same-block misses from the same core) and emit a
//! fill request toward the memory controllers; fills propagate back
//! through LLC → L2 → L1, pushing dirty victims downward (ultimately as
//! write requests to DRAM).
//!
//! The MSHRs are one fixed table of `cores × mshrs_per_core` entries,
//! like the hardware: each entry carries its fill request's id, so a
//! completion finds its entry with one scan of the ids, and holds its
//! first waiting load inline, so a miss never allocates.

use std::collections::VecDeque;

use figaro_dram::PhysAddr;
use figaro_memctrl::Request;

use crate::cache::{CacheParams, CacheStats, SetAssocCache, TAG_BITS};

/// Hierarchy configuration (paper Table 1 defaults via
/// [`HierarchyConfig::paper_default`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Private L1 (per core).
    pub l1: CacheParams,
    /// Private L2 (per core).
    pub l2: CacheParams,
    /// Shared LLC (total size; callers scale by core count).
    pub llc: CacheParams,
    /// MSHRs per core (outstanding LLC misses).
    pub mshrs_per_core: usize,
    /// Extra CPU cycles from LLC data arrival to the waiting load
    /// (fill-to-use).
    pub fill_latency: u32,
}

impl HierarchyConfig {
    /// The paper's hierarchy for `cores` cores: L1 64 kB 4-way (4 cycles),
    /// L2 256 kB 8-way (12 cycles), shared LLC 2 MB/core 16-way
    /// (38 cycles), 8 MSHRs/core.
    #[must_use]
    pub fn paper_default(cores: usize) -> Self {
        Self {
            l1: CacheParams { size_bytes: 64 << 10, ways: 4, block_bytes: 64, latency: 4 },
            l2: CacheParams { size_bytes: 256 << 10, ways: 8, block_bytes: 64, latency: 12 },
            llc: CacheParams {
                size_bytes: (2 << 20) * cores as u64,
                ways: 16,
                block_bytes: 64,
                latency: 38,
            },
            mshrs_per_core: 8,
            fill_latency: 4,
        }
    }

    /// Checks that [`CacheHierarchy::new`] can build this hierarchy, that
    /// it can make progress and that it can cache every address below
    /// `addr_space`: every level passes [`CacheParams::validate`] and
    /// [covers](CacheParams::covers) the space, and each core has at
    /// least one MSHR.
    ///
    /// # Errors
    ///
    /// Returns a description of the first rule the configuration breaks.
    pub fn validate(&self, addr_space: u64) -> Result<(), String> {
        for (level, params) in [("L1", self.l1), ("L2", self.l2), ("LLC", self.llc)] {
            params.validate().map_err(|e| format!("{level}: {e}"))?;
            if !params.covers(addr_space) {
                return Err(format!(
                    "{level}: {TAG_BITS}-bit tags cannot name every address below {addr_space:#x}"
                ));
            }
        }
        if self.mshrs_per_core == 0 {
            return Err("each core needs at least one MSHR".into());
        }
        Ok(())
    }
}

/// Outcome of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Served by some cache level; data usable at `ready_at` (CPU cycles).
    Hit {
        /// CPU cycle the data is available.
        ready_at: u64,
    },
    /// LLC miss in flight; `token` will be woken via
    /// [`CacheHierarchy::on_completion`].
    Pending {
        /// Wake-up token.
        token: u64,
    },
    /// Structural stall (MSHRs full); retry next cycle.
    Stall,
}

/// The load tokens waiting on one MSHR, in merge order:
/// [`CacheHierarchy::on_completion`] returns them to wake. The first
/// waiter is stored inline; only a block that several loads merged into
/// spills into a vector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Waiters {
    first: Option<u64>,
    rest: Vec<u64>,
}

impl Waiters {
    fn push(&mut self, token: u64) {
        if self.first.is_none() {
            self.first = Some(token);
        } else {
            self.rest.push(token);
        }
    }
}

impl IntoIterator for Waiters {
    type Item = u64;
    type IntoIter = std::iter::Chain<std::option::IntoIter<u64>, std::vec::IntoIter<u64>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

/// An MSHR id-table entry that holds no miss. Request ids count up from
/// 0 and never reach it.
const FREE: u64 = u64::MAX;

/// One outstanding LLC miss: the block, whether a store merged into it
/// (the fill lands dirty) and its loads.
#[derive(Debug, Default)]
struct Mshr {
    block: u64,
    store: bool,
    waiters: Waiters,
}

/// A core's record of the block whose access last stalled on full MSHRs.
///
/// While the memo is [`Memo::Live`] the block misses L1, L2 and the LLC
/// and the core's MSHRs are full without an entry for it, so a retry is
/// exactly one miss per level plus one MSHR stall. Only two things end
/// that: the core's own completion (an MSHR frees; the memo is dropped)
/// and an LLC fill of the block by anyone else — a completion or a dirty
/// L2 victim, both through [`CacheHierarchy::install_llc`]. Derived
/// state: it changes no result, only how a retry is computed.
#[derive(Debug, Clone, Copy)]
struct StallMemo {
    block: u64,
    /// First retry cycle not yet accounted for, by a real retry or by
    /// [`CacheHierarchy::apply_stall_retries`] (debug bookkeeping).
    next_retry: u64,
    state: Memo,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Memo {
    /// A retry of the block stalls; [`CacheHierarchy::access`] applies it
    /// in O(1).
    Live,
    /// A fill installed the block in the LLC; the system loop has not yet
    /// said when the core next retries ([`CacheHierarchy::take_unblocked`]).
    Unblocked,
    /// Retries before this cycle predate the fill that installed the
    /// block, so they still stalled and may be settled lazily.
    SettleBefore(u64),
}

/// Aggregated hierarchy statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Per-core L1 counters.
    pub l1: Vec<CacheStats>,
    /// Per-core L2 counters.
    pub l2: Vec<CacheStats>,
    /// Shared LLC counters.
    pub llc: CacheStats,
    /// LLC misses (fills requested) per core — the MPKI numerator.
    pub llc_misses_per_core: Vec<u64>,
    /// Misses merged into an existing MSHR entry.
    pub mshr_merges: u64,
    /// Accesses rejected because the core's MSHRs were full.
    pub mshr_stalls: u64,
}

/// The shared cache hierarchy.
#[derive(Debug)]
pub struct CacheHierarchy {
    cfg: HierarchyConfig,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    llc: SetAssocCache,
    /// `cores × mshrs_per_core` entries; core `c` owns the run starting
    /// at `c * mshrs_per_core` and keeps its live entries packed at the
    /// front of it.
    mshrs: Vec<Mshr>,
    /// The fill request id of each entry of `mshrs`, [`FREE`] for an
    /// entry past its core's live ones.
    mshr_ids: Vec<u64>,
    /// Live entries per core.
    mshr_len: Vec<usize>,
    outbox: VecDeque<Request>,
    next_req_id: u64,
    next_token: u64,
    llc_misses_per_core: Vec<u64>,
    mshr_merges: u64,
    mshr_stalls: u64,
    /// Per-core stall memo (see [`StallMemo`]).
    stall: Vec<Option<StallMemo>>,
    /// Set when a fill unblocked some core's memo since the last
    /// [`CacheHierarchy::take_unblocked`].
    unblocked: bool,
}

impl CacheHierarchy {
    /// Builds the hierarchy for `cores` cores.
    #[must_use]
    pub fn new(cfg: HierarchyConfig, cores: usize) -> Self {
        Self {
            cfg,
            l1: (0..cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2: (0..cores).map(|_| SetAssocCache::new(cfg.l2)).collect(),
            llc: SetAssocCache::new(cfg.llc),
            mshrs: (0..cores * cfg.mshrs_per_core).map(|_| Mshr::default()).collect(),
            mshr_ids: vec![FREE; cores * cfg.mshrs_per_core],
            mshr_len: vec![0; cores],
            outbox: VecDeque::new(),
            next_req_id: 0,
            next_token: 0,
            llc_misses_per_core: vec![0; cores],
            mshr_merges: 0,
            mshr_stalls: 0,
            stall: vec![None; cores],
            unblocked: false,
        }
    }

    fn block_of(&self, addr: u64) -> u64 {
        addr & !u64::from(self.cfg.l1.block_bytes - 1)
    }

    /// Index of `core`'s first MSHR in the table.
    fn mshr_base(&self, core: usize) -> usize {
        core * self.cfg.mshrs_per_core
    }

    /// `core`'s live MSHRs.
    fn live_mshrs(&self, core: usize) -> &[Mshr] {
        let base = self.mshr_base(core);
        &self.mshrs[base..base + self.mshr_len[core]]
    }

    /// Demand access from `core`. Loads may return [`Access::Pending`];
    /// stores are posted, so they return [`Access::Hit`] even when the
    /// line is being fetched (the MSHR records that the eventual fill must
    /// be dirty). [`Access::Stall`] means the core must retry.
    ///
    /// A retry of the block whose access last stalled is answered from
    /// the core's stall memo in O(1) with the same effects as the full
    /// walk: one L1, L2 and LLC miss and one MSHR stall.
    pub fn access(&mut self, core: usize, addr: u64, is_write: bool, now: u64) -> Access {
        let block = self.block_of(addr);
        if let Some(memo) = &mut self.stall[core] {
            if memo.block == block && memo.state == Memo::Live {
                memo.next_retry = now + 1;
                self.l1[core].note_misses(1);
                self.l2[core].note_misses(1);
                self.llc.note_misses(1);
                self.mshr_stalls += 1;
                return Access::Stall;
            }
        }
        let access = self.walk(core, block, is_write, now);
        self.stall[core] = (access == Access::Stall).then_some(StallMemo {
            block,
            next_retry: now + 1,
            state: Memo::Live,
        });
        access
    }

    /// The full lookup path of [`CacheHierarchy::access`].
    fn walk(&mut self, core: usize, block: u64, is_write: bool, now: u64) -> Access {
        let lat1 = u64::from(self.cfg.l1.latency);
        if self.l1[core].access(block, is_write) {
            return Access::Hit { ready_at: now + lat1 };
        }
        let lat2 = lat1 + u64::from(self.cfg.l2.latency);
        if self.l2[core].access(block, false) {
            self.fill_l1(core, block, is_write);
            return Access::Hit { ready_at: now + lat2 };
        }
        let lat3 = lat2 + u64::from(self.cfg.llc.latency);
        if self.llc.access(block, false) {
            self.fill_l2(core, block);
            self.fill_l1(core, block, is_write);
            return Access::Hit { ready_at: now + lat3 };
        }
        // LLC miss → MSHR: merge into the block's entry, or take the
        // core's next free one.
        let base = self.mshr_base(core);
        let live = self.mshr_len[core];
        let slot = match self.live_mshrs(core).iter().position(|m| m.block == block) {
            Some(i) => {
                self.mshr_merges += 1;
                i
            }
            None if live < self.cfg.mshrs_per_core => {
                let req_id = self.next_req_id;
                self.next_req_id += 1;
                self.llc_misses_per_core[core] += 1;
                self.outbox.push_back(Request {
                    id: req_id,
                    addr: PhysAddr(block),
                    is_write: false,
                    core: core as u8,
                    arrival: 0, // stamped by the sim when it reaches the controller
                });
                self.mshrs[base + live] = Mshr { block, store: false, waiters: Waiters::default() };
                self.mshr_ids[base + live] = req_id;
                self.mshr_len[core] += 1;
                live
            }
            None => {
                self.mshr_stalls += 1;
                return Access::Stall;
            }
        };
        let entry = &mut self.mshrs[base + slot];
        entry.store |= is_write;
        if is_write {
            return Access::Hit { ready_at: now + lat1 }; // posted store
        }
        let token = self.next_token;
        self.next_token += 1;
        entry.waiters.push(token);
        Access::Pending { token }
    }

    fn fill_l1(&mut self, core: usize, block: u64, dirty: bool) {
        if let Some(victim) = self.l1[core].fill(block, dirty) {
            self.fill_l2_dirty(core, victim);
        }
    }

    fn fill_l2(&mut self, core: usize, block: u64) {
        if let Some(victim) = self.l2[core].fill(block, false) {
            self.install_llc(victim, true);
        }
    }

    fn fill_l2_dirty(&mut self, core: usize, block: u64) {
        if let Some(victim) = self.l2[core].fill(block, true) {
            self.install_llc(victim, true);
        }
    }

    /// Every LLC fill goes through here: it writes back a dirty victim and
    /// unblocks the stall memo of each core waiting on the block.
    fn install_llc(&mut self, block: u64, dirty: bool) {
        if let Some(victim) = self.llc.fill(block, dirty) {
            self.push_writeback(victim);
        }
        for memo in self.stall.iter_mut().flatten() {
            if memo.block == block && memo.state == Memo::Live {
                memo.state = Memo::Unblocked;
                self.unblocked = true;
            }
        }
    }

    fn push_writeback(&mut self, block: u64) {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.outbox.push_back(Request {
            id: req_id,
            addr: PhysAddr(block),
            is_write: true,
            core: 0,
            arrival: 0,
        });
    }

    /// A fill returned from memory: installs the block in LLC/L2/L1 and
    /// returns the load tokens to wake (the core adds
    /// [`HierarchyConfig::fill_latency`]).
    ///
    /// # Panics
    ///
    /// Panics on completions for unknown request ids (writes are posted
    /// and produce no completions).
    pub fn on_completion(&mut self, req_id: u64) -> Waiters {
        let at = self
            .mshr_ids
            .iter()
            .position(|&id| id == req_id)
            .expect("completion for unknown request");
        // Free the entry, keeping the core's live entries packed.
        let core = at / self.cfg.mshrs_per_core;
        self.mshr_len[core] -= 1;
        let last = self.mshr_base(core) + self.mshr_len[core];
        self.mshrs.swap(at, last);
        self.mshr_ids[at] = self.mshr_ids[last];
        self.mshr_ids[last] = FREE;
        let entry = std::mem::take(&mut self.mshrs[last]);
        // An MSHR freed: the core's next retry walks the hierarchy again.
        self.stall[core] = None;
        self.install_llc(entry.block, false);
        self.fill_l2(core, entry.block);
        self.fill_l1(core, entry.block, entry.store);
        entry.waiters
    }

    /// Batched accounting for the `cycles` consecutive retries at cycles
    /// `from..from + cycles` of an access that stalled on full MSHRs: the
    /// exact per-retry side effects of [`CacheHierarchy::access`]
    /// returning [`Access::Stall`] — an L1, L2 and LLC miss plus one
    /// MSHR-stall count each — without walking the lookup path. An
    /// event-driven system loop uses this to skip over stalled intervals
    /// while keeping every counter bit-identical to per-cycle ticking.
    ///
    /// The retries may be settled lazily, after another core's fill has
    /// already installed the block, as long as they predate that fill.
    /// Debug builds check this against the core's stall memo: the retries
    /// continue its last stalled access with no gap or overlap, and
    /// either the memo still stands (the block misses every level, the
    /// MSHRs are full) or they end before the retry cycle the system loop
    /// reported through [`CacheHierarchy::take_unblocked`].
    pub fn apply_stall_retries(&mut self, core: usize, addr: u64, from: u64, cycles: u64) {
        let block = self.block_of(addr);
        let memo = self.stall[core].as_mut().filter(|m| m.block == block);
        debug_assert!(
            memo.as_ref().is_some_and(|m| m.next_retry == from),
            "stall retries must continue the core's last stalled access"
        );
        if let Some(memo) = memo {
            debug_assert!(
                match memo.state {
                    Memo::Live => true,
                    Memo::Unblocked => false,
                    Memo::SettleBefore(at) => from + cycles <= at,
                },
                "stall retries settled past the fill that installed the block"
            );
            memo.next_retry = from + cycles;
            debug_assert!(
                memo.state != Memo::Live
                    || (!self.l1[core].probe(block)
                        && !self.l2[core].probe(block)
                        && !self.llc.probe(block)
                        && self.live_mshrs(core).iter().all(|m| m.block != block)
                        && self.mshr_len[core] >= self.cfg.mshrs_per_core),
                "a live stall memo requires the block to miss every level with full MSHRs"
            );
        }
        self.l1[core].note_misses(cycles);
        self.l2[core].note_misses(cycles);
        self.llc.note_misses(cycles);
        self.mshr_stalls += cycles;
    }

    /// Reports each core whose stall memo an LLC fill unblocked since the
    /// last call: `retry_at(core)` returns the cycle of that core's next
    /// real retry, which [`CacheHierarchy::apply_stall_retries`] then
    /// holds lazily settled retries to. O(1) when nothing was unblocked.
    pub fn take_unblocked(&mut self, mut retry_at: impl FnMut(usize) -> u64) {
        if !std::mem::take(&mut self.unblocked) {
            return;
        }
        for (core, memo) in self.stall.iter_mut().enumerate() {
            if let Some(memo) = memo.as_mut().filter(|m| m.state == Memo::Unblocked) {
                memo.state = Memo::SettleBefore(retry_at(core));
            }
        }
    }

    /// The next CPU cycle strictly after `now` at which the hierarchy has
    /// work for the system loop: the bus boundary that will route pending
    /// outgoing requests toward the memory controllers. `None` when the
    /// outbox is empty (fills and wakes are driven externally via
    /// [`CacheHierarchy::on_completion`]).
    #[must_use]
    pub fn next_event_at(&self, now: u64, cpu_cycles_per_bus: u64) -> Option<u64> {
        self.has_outgoing().then(|| (now / cpu_cycles_per_bus + 1) * cpu_cycles_per_bus)
    }

    /// Drains fill/writeback requests headed to the memory controllers.
    pub fn take_outgoing(&mut self) -> std::collections::vec_deque::Drain<'_, Request> {
        self.outbox.drain(..)
    }

    /// Peeks whether any outgoing request is waiting.
    #[must_use]
    pub fn has_outgoing(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// Outstanding LLC misses of `core`.
    #[must_use]
    pub fn outstanding(&self, core: usize) -> usize {
        self.mshr_len[core]
    }

    /// Every cache level: each core's L1, each core's L2, then the LLC.
    /// Their whole state (lines, recency order and counters) is a
    /// function of the access and fill sequence alone, so both
    /// simulation kernels must leave equal caches.
    pub fn caches(&self) -> impl Iterator<Item = &SetAssocCache> {
        self.l1.iter().chain(&self.l2).chain([&self.llc])
    }

    /// Snapshot of all counters.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.iter().map(|c| c.stats).collect(),
            l2: self.l2.iter().map(|c| c.stats).collect(),
            llc: self.llc.stats,
            llc_misses_per_core: self.llc_misses_per_core.clone(),
            mshr_merges: self.mshr_merges,
            mshr_stalls: self.mshr_stalls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::paper_default(2), 2)
    }

    #[test]
    fn first_access_misses_to_memory_second_hits_l1() {
        let mut h = hierarchy();
        let a = h.access(0, 0x1000, false, 100);
        let Access::Pending { token } = a else { panic!("expected Pending, got {a:?}") };
        let reqs: Vec<Request> = h.take_outgoing().collect();
        assert_eq!(reqs.len(), 1);
        assert!(!reqs[0].is_write);
        let woken: Vec<u64> = h.on_completion(reqs[0].id).into_iter().collect();
        assert_eq!(woken, vec![token]);
        match h.access(0, 0x1000, false, 200) {
            Access::Hit { ready_at } => assert_eq!(ready_at, 204),
            other => panic!("expected L1 hit, got {other:?}"),
        }
    }

    #[test]
    fn same_block_misses_merge_in_mshr() {
        let mut h = hierarchy();
        let Access::Pending { token: a } = h.access(0, 0x2000, false, 0) else { panic!() };
        let Access::Pending { token: b } = h.access(0, 0x2040 - 0x40, false, 1) else { panic!() };
        let Access::Pending { token: c } = h.access(0, 0x2030, false, 2) else { panic!() };
        let reqs: Vec<Request> = h.take_outgoing().collect();
        assert_eq!(reqs.len(), 1, "one fill for three merged misses");
        assert_eq!(h.stats().mshr_merges, 2);
        // The merged loads wake in merge order.
        let woken: Vec<u64> = h.on_completion(reqs[0].id).into_iter().collect();
        assert_eq!(woken, [a, b, c]);
        assert_eq!(h.outstanding(0), 0);
    }

    #[test]
    fn mshr_fills_up_then_stalls() {
        let mut h = hierarchy();
        for i in 0..8u64 {
            assert!(matches!(h.access(0, i * 0x10000, false, 0), Access::Pending { .. }));
        }
        assert_eq!(h.access(0, 99 * 0x10000, false, 0), Access::Stall);
        assert_eq!(h.stats().mshr_stalls, 1);
        // The other core has its own MSHRs.
        assert!(matches!(h.access(1, 99 * 0x10000, false, 0), Access::Pending { .. }));
    }

    #[test]
    fn apply_stall_retries_matches_per_cycle_stalling_accesses() {
        let mut a = hierarchy();
        let mut b = hierarchy();
        for h in [&mut a, &mut b] {
            for i in 0..8u64 {
                assert!(matches!(h.access(0, i * 0x10000, false, 0), Access::Pending { .. }));
            }
        }
        let addr = 99 * 0x10000;
        for now in 0..6u64 {
            assert_eq!(a.access(0, addr, false, now), Access::Stall);
        }
        assert_eq!(b.access(0, addr, false, 0), Access::Stall);
        b.apply_stall_retries(0, addr, 1, 5);
        assert_eq!(a.stats().mshr_stalls, b.stats().mshr_stalls);
        assert_eq!(a.stats().l1[0], b.stats().l1[0]);
        assert_eq!(a.stats().l2[0], b.stats().l2[0]);
        assert_eq!(a.stats().llc, b.stats().llc);
    }

    /// Fills core 0's eight MSHRs with loads that stay in flight.
    fn fill_mshrs(h: &mut CacheHierarchy) {
        for i in 0..8u64 {
            assert!(matches!(h.access(0, i * 0x10000, false, 0), Access::Pending { .. }));
        }
    }

    /// Completes every read request in the outbox.
    fn complete_all(h: &mut CacheHierarchy) {
        let reads: Vec<u64> = h.take_outgoing().filter(|r| !r.is_write).map(|r| r.id).collect();
        for id in reads {
            h.on_completion(id);
        }
    }

    /// The hierarchy's state without the derived stall memo: the cache
    /// levels, each core's live MSHRs as (block, fill request id, store,
    /// waiters) in block order, the outbox, the id and token counters and
    /// the statistics.
    fn state(h: &CacheHierarchy) -> impl PartialEq + std::fmt::Debug + '_ {
        let mshrs: Vec<Vec<(u64, u64, bool, &Waiters)>> = (0..h.mshr_len.len())
            .map(|core| {
                let ids = &h.mshr_ids[h.mshr_base(core)..];
                let mut live: Vec<_> = h
                    .live_mshrs(core)
                    .iter()
                    .zip(ids)
                    .map(|(m, &id)| (m.block, id, m.store, &m.waiters))
                    .collect();
                live.sort_unstable_by_key(|&(block, ..)| block);
                live
            })
            .collect();
        (&h.l1, &h.l2, &h.llc, mshrs, &h.outbox, h.next_req_id, h.next_token, h.stats())
    }

    #[test]
    fn memoized_retries_match_full_walk_retries() {
        // `walked` forgets its memo before every retry, so each retry
        // walks L1, L2, the LLC and the MSHRs; `memoized` answers them
        // from the memo. Core 1 hits a line between retries, so a retry
        // that wrongly touched the recency order would show.
        let mut walked = hierarchy();
        let mut memoized = hierarchy();
        let stalled = 99 * 0x10000;
        for h in [&mut walked, &mut memoized] {
            fill_mshrs(h);
            assert!(matches!(h.access(1, 0x40, false, 0), Access::Pending { .. }));
            let id = h.take_outgoing().next_back().expect("core 1's fill").id;
            h.on_completion(id);
        }
        for now in 1..20u64 {
            walked.stall[0] = None;
            assert_eq!(walked.access(0, stalled, false, now), Access::Stall);
            assert_eq!(memoized.access(0, stalled, false, now), Access::Stall);
            if now % 5 == 0 {
                for h in [&mut walked, &mut memoized] {
                    assert!(matches!(h.access(1, 0x40, false, now), Access::Hit { .. }));
                }
            }
        }
        assert!(memoized.stall[0].is_some(), "the memo must have answered the retries");
        // Same counters, lines and recency order...
        assert_eq!(walked.stats(), memoized.stats());
        assert_eq!(state(&walked), state(&memoized));
        // ...so the next conflicting fills pick the same LRU victims.
        let set_stride = 512 * 64 * 16u64; // a multiple of every level's set span
        for i in 1..=20u64 {
            for h in [&mut walked, &mut memoized] {
                assert!(matches!(
                    h.access(1, 0x40 + i * set_stride, true, 100 + i),
                    Access::Hit { .. }
                ));
                complete_all(h);
            }
        }
        assert_eq!(state(&walked), state(&memoized));
        assert!(walked.stats().l1[1].evictions > 0, "the fills must have evicted lines");
    }

    #[test]
    fn retry_hits_the_llc_after_another_cores_completion_fills_the_block() {
        let mut h = hierarchy();
        fill_mshrs(&mut h);
        let block = 99 * 0x10000;
        assert_eq!(h.access(0, block, false, 1), Access::Stall);
        assert_eq!(h.access(0, block, false, 2), Access::Stall);
        assert!(matches!(h.access(1, block, false, 2), Access::Pending { .. }));
        let id = h.take_outgoing().next_back().expect("core 1's fill").id;
        h.on_completion(id);
        let llc_hit = 4 + 12 + 38;
        assert_eq!(h.access(0, block, false, 3), Access::Hit { ready_at: 3 + llc_hit });
    }

    /// Direct-mapped toy levels with one MSHR per core: 4-set L1 and LLC,
    /// 8-set L2, so block 8 shares block 0's L2 set and block 4 shares
    /// its LLC set but not its L2 set.
    fn toy() -> CacheHierarchy {
        let cfg = HierarchyConfig {
            l1: CacheParams { size_bytes: 256, ways: 1, block_bytes: 64, latency: 1 },
            l2: CacheParams { size_bytes: 512, ways: 1, block_bytes: 64, latency: 2 },
            llc: CacheParams { size_bytes: 256, ways: 1, block_bytes: 64, latency: 3 },
            mshrs_per_core: 1,
            fill_latency: 1,
        };
        CacheHierarchy::new(cfg, 2)
    }

    /// Core 1 holds block 0 dirty in its L2 only; block 8 sits in the
    /// LLC; core 0 is stalled on block 0 behind a miss in flight. Core
    /// 1's next access to block 8 hits the LLC and evicts dirty block 0
    /// from its L2 into the LLC.
    fn stalled_behind_a_dirty_l2_line() -> CacheHierarchy {
        let blk = |b: u64| b * 64;
        let mut h = toy();
        assert!(matches!(h.access(1, blk(0), true, 0), Access::Hit { .. }));
        complete_all(&mut h);
        assert!(matches!(h.access(1, blk(4), false, 1), Access::Pending { .. }));
        complete_all(&mut h); // block 4 displaces block 0 from the LLC and L1
        assert!(matches!(h.access(0, blk(8), false, 2), Access::Pending { .. }));
        complete_all(&mut h); // block 8 displaces block 4 from the LLC
        assert!(matches!(h.access(0, blk(1), false, 3), Access::Pending { .. }));
        assert_eq!(h.access(0, blk(0), false, 3), Access::Stall);
        assert_eq!(h.access(0, blk(0), false, 4), Access::Stall);
        h
    }

    #[test]
    fn retry_hits_the_llc_after_a_dirty_l2_victim_writes_the_block_back() {
        let mut h = stalled_behind_a_dirty_l2_line();
        assert!(matches!(h.access(1, 8 * 64, false, 5), Access::Hit { .. }));
        assert!(
            h.take_outgoing().all(|r| !r.is_write),
            "block 0 moved into the LLC, not to memory"
        );
        assert_eq!(h.access(0, 0, false, 5), Access::Hit { ready_at: 5 + 1 + 2 + 3 });
    }

    #[test]
    fn lazily_settled_retries_may_predate_the_unblocking_fill() {
        // The stalled core's retries at cycles 5..9 are settled only after
        // the fill at cycle 9 that unblocked it; the system loop reports
        // its next retry at cycle 9.
        let mut h = stalled_behind_a_dirty_l2_line();
        assert!(matches!(h.access(1, 8 * 64, false, 9), Access::Hit { .. }));
        let mut reported = Vec::new();
        h.take_unblocked(|core| {
            reported.push(core);
            9
        });
        assert_eq!(reported, vec![0]);
        let stalls = h.stats().mshr_stalls;
        h.apply_stall_retries(0, 0, 5, 4);
        assert_eq!(h.stats().mshr_stalls, stalls + 4);
        assert!(matches!(h.access(0, 0, false, 9), Access::Hit { .. }));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "settled past the fill")]
    fn settling_a_retry_after_the_unblocking_fill_is_caught() {
        let mut h = stalled_behind_a_dirty_l2_line();
        assert!(matches!(h.access(1, 8 * 64, false, 9), Access::Hit { .. }));
        h.take_unblocked(|_| 9);
        // The retry at cycle 9 would see the block: it is not a stall.
        h.apply_stall_retries(0, 0, 5, 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "continue the core's last stalled access")]
    fn settling_retries_out_of_order_is_caught() {
        let mut h = hierarchy();
        fill_mshrs(&mut h);
        assert_eq!(h.access(0, 99 * 0x10000, false, 10), Access::Stall);
        h.apply_stall_retries(0, 99 * 0x10000, 12, 3); // cycle 11 went missing
    }

    #[test]
    fn own_completion_clears_the_memo() {
        let mut h = hierarchy();
        fill_mshrs(&mut h);
        let block = 99 * 0x10000;
        assert_eq!(h.access(0, block, false, 1), Access::Stall);
        let first = h.take_outgoing().next().expect("core 0's first fill").id;
        h.on_completion(first);
        assert!(h.stall[0].is_none());
        assert!(matches!(h.access(0, block, false, 2), Access::Pending { .. }));
    }

    #[test]
    fn next_event_at_reflects_outbox_and_bus_alignment() {
        let mut h = hierarchy();
        assert_eq!(h.next_event_at(7, 4), None);
        let Access::Pending { .. } = h.access(0, 0x9000, false, 0) else { panic!() };
        // Pending outgoing request: routed at the next bus boundary.
        assert_eq!(h.next_event_at(7, 4), Some(8));
        assert_eq!(h.next_event_at(8, 4), Some(12), "a boundary routes only the next cycle over");
        let _ = h.take_outgoing().count();
        assert_eq!(h.next_event_at(7, 4), None);
    }

    #[test]
    fn store_miss_is_posted_and_fill_becomes_dirty() {
        let mut h = hierarchy();
        assert!(matches!(h.access(0, 0x3000, true, 0), Access::Hit { .. }));
        let reqs: Vec<Request> = h.take_outgoing().collect();
        assert_eq!(reqs.len(), 1);
        let woken = h.on_completion(reqs[0].id);
        assert_eq!(woken, Waiters::default(), "no load waiters for a posted store");
        // Evict the line by filling enough conflicting blocks through L1.
        // Instead, verify via a second store hit: the line is in L1.
        assert!(
            matches!(h.access(0, 0x3000, true, 10), Access::Hit { ready_at } if ready_at == 14)
        );
    }

    #[test]
    fn l2_hit_latency_is_l1_plus_l2() {
        let mut h = hierarchy();
        let Access::Pending { .. } = h.access(0, 0x4000, false, 0) else { panic!() };
        let reqs: Vec<Request> = h.take_outgoing().collect();
        h.on_completion(reqs[0].id);
        // Evict from tiny L1 by filling 4 ways of its set + more.
        let l1_set_stride = 256 * 64u64; // 256 sets
        for i in 1..=4u64 {
            let Access::Pending { .. } = h.access(0, 0x4000 + i * l1_set_stride, false, 0) else {
                panic!()
            };
        }
        let reqs: Vec<Request> = h.take_outgoing().collect();
        for r in reqs {
            h.on_completion(r.id);
        }
        // 0x4000 fell out of L1 but sits in L2.
        match h.access(0, 0x4000, false, 1000) {
            Access::Hit { ready_at } => assert_eq!(ready_at, 1000 + 4 + 12),
            other => panic!("expected L2 hit, got {other:?}"),
        }
    }

    #[test]
    fn dirty_llc_eviction_emits_writeback() {
        // Tiny hierarchy to force LLC evictions quickly.
        let cfg = HierarchyConfig {
            l1: CacheParams { size_bytes: 256, ways: 1, block_bytes: 64, latency: 1 },
            l2: CacheParams { size_bytes: 512, ways: 1, block_bytes: 64, latency: 2 },
            llc: CacheParams { size_bytes: 1024, ways: 1, block_bytes: 64, latency: 3 },
            mshrs_per_core: 8,
            fill_latency: 1,
        };
        let mut h = CacheHierarchy::new(cfg, 1);
        // Write block A (posted store), fill it.
        assert!(matches!(h.access(0, 0, true, 0), Access::Hit { .. }));
        let reqs: Vec<Request> = h.take_outgoing().collect();
        h.on_completion(reqs[0].id);
        // Stream conflicting blocks through the same sets to push A out of
        // L1 -> L2 -> LLC -> memory.
        let mut wrote_back = false;
        for i in 1..64u64 {
            match h.access(0, i * 1024, false, i) {
                Access::Pending { .. } => {
                    let reqs: Vec<Request> = h.take_outgoing().collect();
                    for r in &reqs {
                        if r.is_write {
                            wrote_back = true;
                            assert_eq!(r.addr, PhysAddr(0));
                        }
                    }
                    for r in reqs.iter().filter(|r| !r.is_write) {
                        h.on_completion(r.id);
                    }
                    // Writebacks may also surface after fills.
                    for r in h.take_outgoing() {
                        if r.is_write && r.addr == PhysAddr(0) {
                            wrote_back = true;
                        }
                    }
                }
                Access::Hit { .. } => {}
                Access::Stall => panic!("unexpected stall"),
            }
            if wrote_back {
                break;
            }
        }
        assert!(wrote_back, "dirty block 0 must eventually be written back");
    }
}
