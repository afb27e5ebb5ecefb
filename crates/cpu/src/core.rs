//! The trace-driven core model: 3-wide issue/retire over a 256-entry
//! instruction window (the paper's Table 1 core).
//!
//! Modelled in the style of Ramulator's `Processor`: non-memory
//! instructions occupy window slots and retire at full width; loads hold
//! their slot until data returns (blocking retirement when they reach the
//! window head); stores are posted. The window plus per-core MSHRs bound
//! the memory-level parallelism.

use std::collections::VecDeque;

use figaro_workloads::{Trace, TraceOp, TraceSource};

use crate::hierarchy::{Access, CacheHierarchy};

/// Core width/window parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreParams {
    /// Instructions issued/retired per cycle.
    pub width: usize,
    /// Instruction-window (ROB) capacity.
    pub window: usize,
}

impl CoreParams {
    /// The paper's 3-wide, 256-entry configuration.
    #[must_use]
    pub fn paper_default() -> Self {
        Self { width: 3, window: 256 }
    }
}

/// End-of-run statistics for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Memory operations sent to the hierarchy.
    pub mem_ops: u64,
    /// Loads that missed past the LLC (waited on DRAM).
    pub long_loads: u64,
    /// Cycles the core could not issue due to a full window.
    pub window_full_cycles: u64,
    /// Cycles lost to hierarchy structural stalls.
    pub stall_cycles: u64,
}

/// A trace-driven core. Drive it with [`TraceCore::tick`] once per CPU
/// cycle, and deliver load data with [`TraceCore::wake`].
///
/// The core pulls operations on demand from a [`TraceSource`] — a
/// wrapped finite [`Trace`] (see [`TraceCore::new`]), a streaming
/// generator, or a trace-file replay (see [`TraceCore::from_source`]) —
/// so run length never requires a materialized trace in memory.
#[derive(Debug)]
pub struct TraceCore {
    params: CoreParams,
    source: Box<dyn TraceSource>,
    id: usize,
    /// Non-memory instructions still to issue before the next memory op.
    nonmem_left: u32,
    /// The memory op awaiting issue (set when its leading non-memory
    /// instructions have been consumed, or on a structural stall).
    pending_mem: Option<TraceOp>,
    /// Whether the last attempt to issue `pending_mem` hit a structural
    /// stall (MSHRs full). While the hierarchy state is unchanged the
    /// retry is a fixed per-cycle counter bump, which is what lets
    /// [`TraceCore::next_event_at`] classify the core as blocked and
    /// [`TraceCore::skip_cycles`] batch the skipped cycles.
    stalled: bool,
    /// ready-at times of window entries, indexed by `seq - head_seq`.
    window: VecDeque<u64>,
    head_seq: u64,
    tail_seq: u64,
    /// Outstanding `(token, seq)` pairs for in-flight loads. A small
    /// linear vector: occupancy is bounded by the in-flight loads (MSHRs
    /// x merges), and this sits on the simulator's hottest path.
    token_seq: Vec<(u64, u64)>,
    target_insts: u64,
    /// Bytes of address space every op's address must lie below.
    addr_space: u64,
    finished_at: Option<u64>,
    stats: CoreStats,
}

/// Fails the run of `core`, whose source yielded `addr` outside the
/// DRAM address space. Kept out of line: inside [`TraceCore::tick`] the
/// message's setup would sit in the hot issue loop, which should carry
/// only the compare.
#[cold]
#[inline(never)]
fn outside_space(core: usize, addr: u64, space: u64) -> ! {
    panic!("core {core}: address {addr:#x} is outside the {space:#x}-byte DRAM address space")
}

/// Sentinel ready-at for loads still in flight.
const WAITING: u64 = u64::MAX;

impl TraceCore {
    /// Creates a core that will execute `target_insts` instructions from
    /// `trace` (wrapping around the trace as needed), every address below
    /// `addr_space`.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace or zero instruction target, and as
    /// [`TraceCore::from_source`] describes.
    #[must_use]
    pub fn new(
        id: usize,
        params: CoreParams,
        trace: Trace,
        target_insts: u64,
        addr_space: u64,
    ) -> Self {
        assert!(!trace.ops.is_empty(), "trace must be non-empty");
        Self::from_source(id, params, Box::new(trace.into_source()), target_insts, addr_space)
    }

    /// Creates a core that pulls its operations from `source` — the
    /// streaming form of [`TraceCore::new`] for generators and
    /// trace-file replays. Every op's address must lie below
    /// `addr_space`, the DRAM address space the caches' tags cover.
    ///
    /// # Panics
    ///
    /// Panics on a zero instruction target. [`TraceCore::tick`] panics
    /// when it pulls an op whose address is not below `addr_space`,
    /// naming the core, the address and the space.
    #[must_use]
    pub fn from_source(
        id: usize,
        params: CoreParams,
        source: Box<dyn TraceSource>,
        target_insts: u64,
        addr_space: u64,
    ) -> Self {
        assert!(target_insts > 0, "target_insts must be non-zero");
        Self {
            params,
            source,
            id,
            nonmem_left: 0,
            pending_mem: None,
            stalled: false,
            window: VecDeque::with_capacity(params.window),
            head_seq: 0,
            tail_seq: 0,
            token_seq: Vec::new(),
            target_insts,
            addr_space,
            finished_at: None,
            stats: CoreStats::default(),
        }
    }

    /// Whether the core has retired its instruction target.
    #[inline]
    #[must_use]
    pub fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Cycle at which the core finished, if it has.
    #[must_use]
    pub fn finished_at(&self) -> Option<u64> {
        self.finished_at
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// This core's id (its index in the hierarchy).
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Delivers load data for `token` (from
    /// [`CacheHierarchy::on_completion`]) usable at cycle `ready_at`.
    /// A load's window entry cannot retire before its wake, so the
    /// `seq >= head_seq` check only guards the window index.
    pub fn wake(&mut self, token: u64, ready_at: u64) {
        if let Some(i) = self.token_seq.iter().position(|&(t, _)| t == token) {
            let (_, seq) = self.token_seq.swap_remove(i);
            if seq >= self.head_seq {
                let idx = (seq - self.head_seq) as usize;
                self.window[idx] = ready_at;
            }
        }
    }

    /// Cycles after `now` over which ticking is a deterministic full-width
    /// non-memory issue with no retirement — the batchable-active window
    /// replayed by [`TraceCore::skip_cycles`]. Zero when the next tick
    /// does anything else (retire, touch the hierarchy, fill the window).
    fn batchable_issue_cycles(&self, now: u64) -> u64 {
        let width = self.params.width as u64;
        // No retirement until the head entry's data is ready.
        let retire_k = match self.window.front() {
            None | Some(&WAITING) => u64::MAX,
            Some(&ready) => (ready.max(now) - now).saturating_sub(1),
        };
        let space_k = (self.params.window - self.window.len()) as u64 / width;
        let nonmem_k = u64::from(self.nonmem_left) / width;
        retire_k.min(space_k).min(nonmem_k)
    }

    /// The next CPU cycle strictly after `now` at which ticking this core
    /// could do anything beyond the batchable per-cycle effects handled by
    /// [`TraceCore::skip_cycles`] (blocked counters, or pure full-width
    /// non-memory issue), assuming no intervening [`TraceCore::wake`].
    /// `None` means the core is asleep until an external event: a wake, or
    /// a hierarchy change that unblocks a stalled access. The event-driven
    /// kernel re-evaluates after every event, so "assuming nothing
    /// external happens" is exactly the skipped-interval invariant.
    #[inline]
    #[must_use]
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        if self.finished_at.is_some() {
            return None;
        }
        let window_full = self.window.len() >= self.params.window;
        // Issue side: the core makes progress next cycle unless the window
        // is full or its pending memory op is a known structural stall.
        if !window_full && (self.nonmem_left > 0 || self.pending_mem.is_none() || !self.stalled) {
            return Some(now + 1 + self.batchable_issue_cycles(now));
        }
        // Retire side: the head entry's ready time, if data is en route.
        match self.window.front() {
            Some(&ready) if ready != WAITING => Some(ready.max(now + 1)),
            _ => None,
        }
    }

    /// Applies `cycles` skipped cycles (covering `now + 1 ..= now +
    /// cycles`) in one step — the exact per-cycle effects of
    /// [`TraceCore::tick`] over an interval in which every tick is
    /// batchable: `window_full_cycles` while the window is full,
    /// `stall_cycles` plus the hierarchy's per-retry miss counters while a
    /// memory op stalls on full MSHRs, or full-width non-memory issue into
    /// a window whose head is waiting on memory (entries are stamped with
    /// their exact issue cycles).
    ///
    /// Callers must only skip intervals with no core event (see
    /// [`TraceCore::next_event_at`]); a finished core ignores the call
    /// just as its `tick` does.
    pub fn skip_cycles(&mut self, now: u64, cycles: u64, hierarchy: &mut CacheHierarchy) {
        if cycles == 0 || self.finished_at.is_some() {
            return;
        }
        if self.window.len() >= self.params.window {
            self.stats.window_full_cycles += cycles;
        } else if self.stalled && self.nonmem_left == 0 {
            debug_assert!(self.pending_mem.is_some(), "stalled without a pending op");
            if let Some(op) = self.pending_mem {
                self.stats.stall_cycles += cycles;
                hierarchy.apply_stall_retries(self.id, op.addr, now + 1, cycles);
            }
        } else {
            // Batched full-width non-memory issue.
            debug_assert!(
                cycles <= self.batchable_issue_cycles(now),
                "skip_cycles past the batchable-issue window"
            );
            let width = self.params.width as u64;
            for i in 1..=cycles {
                for _ in 0..self.params.width {
                    self.window.push_back(now + i);
                }
            }
            self.nonmem_left -= (width * cycles) as u32;
            self.tail_seq += width * cycles;
        }
    }

    /// Advances one CPU cycle: retires up to `width` ready instructions
    /// from the window head, then issues up to `width` new instructions,
    /// sending memory operations to `hierarchy`.
    ///
    /// # Panics
    ///
    /// Panics if the source yields an op whose address is not below the
    /// core's address space (see [`TraceCore::from_source`]).
    pub fn tick(&mut self, now: u64, hierarchy: &mut CacheHierarchy) {
        if self.finished_at.is_some() {
            return;
        }
        // Retire.
        let mut retired_this_cycle = 0;
        while retired_this_cycle < self.params.width {
            match self.window.front() {
                Some(&ready) if ready <= now => {
                    self.window.pop_front();
                    self.head_seq += 1;
                    self.stats.retired += 1;
                    retired_this_cycle += 1;
                    if self.stats.retired >= self.target_insts {
                        self.finished_at = Some(now);
                        return;
                    }
                }
                _ => break,
            }
        }
        // Issue.
        let mut issued = 0;
        while issued < self.params.width {
            if self.window.len() >= self.params.window {
                self.stats.window_full_cycles += 1;
                break;
            }
            if self.nonmem_left > 0 {
                self.nonmem_left -= 1;
                self.window.push_back(now);
                self.tail_seq += 1;
                issued += 1;
                continue;
            }
            let op = match self.pending_mem.take() {
                Some(op) => op,
                None => {
                    let op = self.source.next_op();
                    if op.addr >= self.addr_space {
                        outside_space(self.id, op.addr, self.addr_space);
                    }
                    if op.nonmem > 0 {
                        self.nonmem_left = op.nonmem;
                        self.pending_mem = Some(op);
                        continue; // issue the non-memory prefix first
                    }
                    op
                }
            };
            match hierarchy.access(self.id, op.addr, op.is_write, now) {
                Access::Hit { ready_at } => {
                    self.stalled = false;
                    self.stats.mem_ops += 1;
                    self.window.push_back(ready_at);
                    self.tail_seq += 1;
                    issued += 1;
                }
                Access::Pending { token } => {
                    self.stalled = false;
                    self.stats.mem_ops += 1;
                    self.stats.long_loads += 1;
                    self.token_seq.push((token, self.tail_seq));
                    self.window.push_back(WAITING);
                    self.tail_seq += 1;
                    issued += 1;
                }
                Access::Stall => {
                    self.pending_mem = Some(TraceOp { nonmem: 0, ..op });
                    self.stalled = true;
                    self.stats.stall_cycles += 1;
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyConfig;
    use figaro_workloads::TraceOp;

    /// One channel of the paper's DRAM: 4 GiB.
    const SPACE: u64 = 4 << 30;

    fn tiny_trace(ops: Vec<TraceOp>) -> Trace {
        Trace { name: "test".into(), ops }
    }

    fn run(core: &mut TraceCore, h: &mut CacheHierarchy, cycles: u64) -> u64 {
        // Single-core harness with an idealized memory: completions return
        // after a fixed 50-cycle latency.
        let mut in_flight: Vec<(u64, u64)> = Vec::new(); // (req_id, due)
        for now in 0..cycles {
            core.tick(now, h);
            for r in h.take_outgoing().collect::<Vec<_>>() {
                if !r.is_write {
                    in_flight.push((r.id, now + 50));
                }
            }
            let due: Vec<u64> =
                in_flight.iter().filter(|&&(_, d)| d <= now).map(|&(id, _)| id).collect();
            in_flight.retain(|&(_, d)| d > now);
            for id in due {
                for token in h.on_completion(id) {
                    core.wake(token, now + 4);
                }
            }
            if core.finished() {
                return now;
            }
        }
        panic!("core did not finish in {cycles} cycles (retired {})", core.retired());
    }

    #[test]
    fn pure_nonmem_trace_runs_at_full_width() {
        // 299 non-memory + 1 memory instruction per op; memory always hits
        // after the first fill.
        let trace = tiny_trace(vec![TraceOp { nonmem: 299, addr: 0, is_write: false }]);
        let mut h = CacheHierarchy::new(HierarchyConfig::paper_default(1), 1);
        let mut core = TraceCore::new(0, CoreParams::paper_default(), trace, 30_000, SPACE);
        let cycles = run(&mut core, &mut h, 200_000);
        let ipc = 30_000.0 / cycles as f64;
        assert!(ipc > 2.5, "IPC {ipc} should approach width 3");
    }

    #[test]
    fn dependent_long_loads_limit_ipc() {
        // Every op is a load to a new block with no non-memory work: the
        // window fills with waiting loads.
        let ops: Vec<TraceOp> =
            (0..4096).map(|i| TraceOp { nonmem: 0, addr: i * 64 * 131, is_write: false }).collect();
        let trace = tiny_trace(ops);
        let mut h = CacheHierarchy::new(HierarchyConfig::paper_default(1), 1);
        let mut core = TraceCore::new(0, CoreParams::paper_default(), trace, 3_000, SPACE);
        let cycles = run(&mut core, &mut h, 400_000);
        let ipc = 3_000.0 / cycles as f64;
        assert!(ipc < 1.0, "all-miss IPC {ipc} must be low");
        assert!(core.stats().long_loads > 0);
    }

    #[test]
    fn finished_core_stops_ticking() {
        let trace = tiny_trace(vec![TraceOp { nonmem: 10, addr: 0, is_write: false }]);
        let mut h = CacheHierarchy::new(HierarchyConfig::paper_default(1), 1);
        let mut core = TraceCore::new(0, CoreParams::paper_default(), trace, 100, SPACE);
        let at = run(&mut core, &mut h, 100_000);
        assert!(core.finished());
        assert_eq!(core.finished_at(), Some(at));
        let retired = core.retired();
        core.tick(at + 1, &mut h);
        assert_eq!(core.retired(), retired);
    }

    #[test]
    fn trace_wraps_around() {
        let trace = tiny_trace(vec![TraceOp { nonmem: 1, addr: 0, is_write: false }]);
        let mut h = CacheHierarchy::new(HierarchyConfig::paper_default(1), 1);
        // 2 instructions per op; ask for 1000 -> needs 500 wraps.
        let mut core = TraceCore::new(0, CoreParams::paper_default(), trace, 1000, SPACE);
        run(&mut core, &mut h, 100_000);
        assert_eq!(core.retired(), 1000);
    }

    #[test]
    fn stores_do_not_block_retirement() {
        let ops = vec![TraceOp { nonmem: 2, addr: 4096, is_write: true }];
        let mut h = CacheHierarchy::new(HierarchyConfig::paper_default(1), 1);
        let mut core =
            TraceCore::new(0, CoreParams::paper_default(), tiny_trace(ops), 3_000, SPACE);
        let cycles = run(&mut core, &mut h, 100_000);
        let ipc = 3_000.0 / cycles as f64;
        assert!(ipc > 2.0, "posted stores should keep IPC near width, got {ipc}");
    }

    #[test]
    fn next_event_at_is_never_in_the_past() {
        // A mix of hits, long loads and window pressure: at every cycle the
        // horizon must be strictly in the future (or absent), and a
        // finished core must report no events.
        let ops: Vec<TraceOp> =
            (0..512).map(|i| TraceOp { nonmem: 2, addr: i * 64 * 131, is_write: false }).collect();
        let mut h = CacheHierarchy::new(HierarchyConfig::paper_default(1), 1);
        let mut core =
            TraceCore::new(0, CoreParams::paper_default(), tiny_trace(ops), 2_000, SPACE);
        let mut in_flight: Vec<(u64, u64)> = Vec::new();
        for now in 0..200_000 {
            core.tick(now, &mut h);
            if let Some(t) = core.next_event_at(now) {
                assert!(t > now, "horizon {t} at cycle {now} is not in the future");
            }
            for r in h.take_outgoing().collect::<Vec<_>>() {
                if !r.is_write {
                    in_flight.push((r.id, now + 80));
                }
            }
            let due: Vec<u64> =
                in_flight.iter().filter(|&&(_, d)| d <= now).map(|&(id, _)| id).collect();
            in_flight.retain(|&(_, d)| d > now);
            for id in due {
                for token in h.on_completion(id) {
                    core.wake(token, now + 4);
                }
            }
            if core.finished() {
                assert_eq!(core.next_event_at(now), None, "finished cores have no events");
                return;
            }
        }
        panic!("core did not finish");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_trace_panics() {
        let _ = TraceCore::new(0, CoreParams::paper_default(), tiny_trace(vec![]), 10, SPACE);
    }

    #[test]
    fn streaming_source_matches_materialized_trace() {
        // A core pulling straight from the generator must behave exactly
        // like one running a (long enough to never wrap) materialized
        // prefix of the same generator.
        use figaro_workloads::{generate_trace, profile_by_name, TraceGenerator};
        let p = profile_by_name("mcf").unwrap();
        let insts = 5_000u64;
        let run_core = |mut core: TraceCore| {
            let mut h = CacheHierarchy::new(HierarchyConfig::paper_default(1), 1);
            let at = run(&mut core, &mut h, 2_000_000);
            (at, core.stats())
        };
        let materialized = run_core(TraceCore::new(
            0,
            CoreParams::paper_default(),
            generate_trace(&p, 50_000, 77),
            insts,
            SPACE,
        ));
        let streamed = run_core(TraceCore::from_source(
            0,
            CoreParams::paper_default(),
            Box::new(TraceGenerator::new(&p, 77)),
            insts,
            SPACE,
        ));
        assert_eq!(materialized, streamed);
    }
}
