//! The trace-driven core model: 3-wide issue/retire over a 256-entry
//! instruction window (the paper's Table 1 core).
//!
//! Modelled in the style of Ramulator's `Processor`: non-memory
//! instructions occupy window slots and retire at full width; loads hold
//! their slot until data returns (blocking retirement when they reach the
//! window head); stores are posted. The window plus per-core MSHRs bound
//! the memory-level parallelism.
//!
//! The window is kept by count: only memory entries carry a ready cycle,
//! each with the number of non-memory entries ahead of it. Retire runs
//! before issue in every tick, so a non-memory entry can retire on any
//! tick after the one that issued it and needs no stamp. That makes a
//! *span* cheap to find and to apply in closed form (see
//! [`TraceCore::next_event_at`]): cycles that each retire exactly `width`
//! entries or none, and each issue `width` non-memory entries, retry an
//! op stalled on full MSHRs, or find the window full. An event-driven
//! loop ticks a core only at the cycles between spans, where it sends an
//! op to the hierarchy, retires part of a group, fills its window or
//! finishes.

use std::cell::Cell;
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

/// A memory entry of the window.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Non-memory entries between this one and the previous memory entry
    /// (or the window head).
    before: u64,
    /// Cycle from which the entry can retire ([`WAITING`] while its load
    /// is in flight).
    ready: u64,
}

/// Cycles after a tick that the core can skip in closed form (see
/// [`TraceCore::next_event_at`]): each one retires exactly `width`
/// entries (`retiring`) or none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    cycles: u64,
    retiring: bool,
}

/// The span memo's key while no scan result is valid.
const NO_SCAN: (u64, Span) = (u64::MAX, Span { cycles: 0, retiring: false });

/// A trace-driven core. Drive it with [`TraceCore::tick`] once per CPU
/// cycle, and deliver load data with [`TraceCore::wake`].
///
/// The core pulls operations on demand from a [`TraceSource`] — a
/// wrapped finite [`Trace`] (see [`TraceCore::new`]) or a streaming
/// generator (see [`TraceCore::from_source`]) — so run length never
/// requires a materialized trace in memory. It pulls one op ahead: the
/// tick that issues a memory op pulls the next, so that op's non-memory
/// prefix is known before the next tick. The op sequence is the same as
/// pulling on demand, but a core may pull one op more than it issues.
#[derive(Debug)]
pub struct TraceCore {
    params: CoreParams,
    source: Box<dyn TraceSource>,
    id: usize,
    /// Non-memory instructions still to issue before `pending_mem`.
    nonmem_left: u32,
    /// The next memory op to issue: pulled by the tick that issued the
    /// previous one (`None` only before the first tick).
    pending_mem: Option<TraceOp>,
    /// Whether the last attempt to issue `pending_mem` hit a structural
    /// stall (MSHRs full). While the hierarchy state is unchanged the
    /// retry is a fixed per-cycle counter bump, which is what lets
    /// [`TraceCore::next_event_at`] classify the core as blocked and
    /// [`TraceCore::skip_cycles`] batch the skipped cycles.
    stalled: bool,
    /// The window's memory entries, oldest first.
    slots: VecDeque<Slot>,
    /// Non-memory entries behind the youngest memory entry.
    tail: u64,
    /// Window entries in all, memory and non-memory.
    occupancy: u64,
    /// Index of `slots`' front among every memory entry issued so far.
    head_slot: u64,
    /// Outstanding `(token, slot index)` pairs for in-flight loads. A
    /// small linear vector: occupancy is bounded by the in-flight loads
    /// (MSHRs x merges), and this sits on the simulator's hottest path.
    token_slot: Vec<(u64, u64)>,
    /// The last span scan and the cycle it was made after, so that
    /// [`TraceCore::skip_cycles`] reuses what
    /// [`TraceCore::next_event_at`] found ([`NO_SCAN`] once the core
    /// changes).
    span_memo: Cell<(u64, Span)>,
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
    /// streaming form of [`TraceCore::new`] for generators and paced
    /// sources. Every op's address must lie below
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
            slots: VecDeque::new(),
            tail: 0,
            occupancy: 0,
            head_slot: 0,
            token_slot: Vec::new(),
            span_memo: Cell::new(NO_SCAN),
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
    /// `slot >= head_slot` check only guards the window index.
    pub fn wake(&mut self, token: u64, ready_at: u64) {
        if let Some(i) = self.token_slot.iter().position(|&(t, _)| t == token) {
            let (_, slot) = self.token_slot.swap_remove(i);
            if slot >= self.head_slot {
                self.slots[(slot - self.head_slot) as usize].ready = ready_at;
                self.span_memo.set(NO_SCAN);
            }
        }
    }

    /// The span after `now`, memoized per `now` between
    /// [`TraceCore::next_event_at`] and [`TraceCore::skip_cycles`].
    fn span(&self, now: u64) -> Span {
        let (at, span) = self.span_memo.get();
        if at == now {
            return span;
        }
        let span = self.scan_span(now);
        self.span_memo.set((now, span));
        span
    }

    /// Finds the cycles after `now` that the core can skip: each one
    /// either retires exactly `width` entries or none, and on its issue
    /// side issues `width` non-memory entries, retries a memory op stalled
    /// on full MSHRs, or finds the window full. [`u64::MAX`] cycles means
    /// until an external event.
    fn scan_span(&self, now: u64) -> Span {
        let width = self.params.width as u64;
        let window = self.params.window as u64;
        let nonmem = u64::from(self.nonmem_left);
        // Cycles before the head can retire: a memory entry whose data is
        // not ready at `now + 1`, or a stalled core's empty window.
        let head_wait = match self.slots.front() {
            Some(head) if head.before == 0 && head.ready == WAITING => u64::MAX,
            Some(head) if head.before == 0 => head.ready.saturating_sub(now + 1),
            None if self.tail == 0 && self.stalled => u64::MAX,
            _ => 0,
        };
        if head_wait > 0 {
            // Nothing retires. A full window or a stalled op blocks issue
            // until then; otherwise the core issues the next op's prefix
            // until the window fills.
            let cycles = if self.occupancy == window || self.stalled {
                head_wait
            } else {
                head_wait.min(nonmem.min(window - self.occupancy) / width)
            };
            return Span { cycles, retiring: false };
        }
        // Each cycle retires `width` entries, then issues `width` of the
        // prefix or retries the stalled op. A stalled core's window is
        // never full (it stalled with room to issue and has issued nothing
        // since), so the tick at `now` retried too and the span's retries
        // continue its own with no gap.
        debug_assert!(!self.stalled || self.occupancy < window, "a stalled core's window is full");
        // Span cycle `j` retires the entries at positions `(j - 1) *
        // width..j * width`. The tick that left `width` of the prefix to
        // issue issued `width` entries or filled the window, so the
        // entries a span issues itself retire on a later cycle. The span
        // stops short of the target, so that the finishing cycle is a
        // real tick, and before the first memory entry at `pos` whose
        // data is not ready at its cycle `now + 1 + pos / width`, i.e.
        // whose `(ready - now - 1) * width > pos`.
        debug_assert!(
            nonmem < width || self.occupancy >= width,
            "a core with `width` of the prefix left holds fewer than `width` entries"
        );
        let issue = if self.stalled { self.occupancy } else { nonmem };
        let mut limit = issue.min(self.target_insts - self.stats.retired - 1);
        let scan = limit.min(self.occupancy);
        let mut pos = 0;
        for slot in &self.slots {
            pos += slot.before;
            if pos >= scan {
                break;
            }
            if slot.ready > now + 1 && (slot.ready - now - 1).saturating_mul(width) > pos {
                limit = pos;
                break;
            }
            pos += 1;
        }
        Span { cycles: limit / width, retiring: true }
    }

    /// The next CPU cycle strictly after `now` at which ticking this core
    /// could do anything beyond the per-cycle effects that
    /// [`TraceCore::skip_cycles`] applies in one step, assuming no
    /// intervening [`TraceCore::wake`]. `None` means the core is asleep
    /// until an external event: a wake, or a hierarchy change that
    /// unblocks a stalled access. The event-driven kernel re-evaluates
    /// after every event, so "assuming nothing external happens" is
    /// exactly the skipped-interval invariant.
    ///
    /// The skipped cycles each retire exactly `width` entries or none,
    /// and each issues `width` non-memory entries, retries a memory op
    /// stalled on full MSHRs, or finds the window full. So the next event
    /// is the tick that touches the hierarchy (the next op's non-memory
    /// prefix runs out), that would retire a memory entry whose data is
    /// not ready or only part of a group, that fills the window, or that
    /// finishes the core. Finding it walks the window's memory entries up
    /// to that point once; the result is memoized for `skip_cycles` at
    /// the same `now`.
    #[inline]
    #[must_use]
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        if self.finished_at.is_some() {
            return None;
        }
        let cycles = self.span(now).cycles;
        (cycles != u64::MAX).then(|| now + 1 + cycles)
    }

    /// Applies `cycles` skipped cycles (covering `now + 1 ..= now +
    /// cycles`) in one step — the exact per-cycle effects of
    /// [`TraceCore::tick`] over an interval with no core event (see
    /// [`TraceCore::next_event_at`]), in time linear in the memory entries
    /// it retires: `width` retirements per cycle if the interval retires,
    /// and `width` non-memory issues, `window_full_cycles`, or
    /// `stall_cycles` plus the hierarchy's per-retry miss counters.
    ///
    /// Callers must only skip intervals with no core event; a finished
    /// core ignores the call just as its `tick` does.
    pub fn skip_cycles(&mut self, now: u64, cycles: u64, hierarchy: &mut CacheHierarchy) {
        if cycles == 0 || self.finished_at.is_some() {
            return;
        }
        let span = self.span(now);
        self.span_memo.set(NO_SCAN);
        debug_assert!(cycles <= span.cycles, "skip_cycles past the core's next event");
        let n = cycles * self.params.width as u64;
        if self.occupancy == self.params.window as u64 && !span.retiring {
            self.stats.window_full_cycles += cycles;
        } else if self.stalled {
            if let Some(op) = self.pending_mem {
                self.stats.stall_cycles += cycles;
                hierarchy.apply_stall_retries(self.id, op.addr, now + 1, cycles);
            }
        } else {
            self.nonmem_left -= n as u32;
            self.tail += n;
            self.occupancy += n;
        }
        if span.retiring {
            self.retire_span(n);
        }
    }

    /// Retires the `n` oldest entries, every memory entry among them
    /// ready.
    fn retire_span(&mut self, mut n: u64) {
        self.stats.retired += n;
        self.occupancy -= n;
        while let Some(slot) = self.slots.front_mut() {
            if slot.before >= n {
                slot.before -= n;
                return;
            }
            n -= slot.before + 1;
            self.slots.pop_front();
            self.head_slot += 1;
        }
        self.tail -= n;
    }

    /// Pulls the next op from the source.
    fn pull(&mut self) {
        let op = self.source.next_op();
        if op.addr >= self.addr_space {
            outside_space(self.id, op.addr, self.addr_space);
        }
        self.nonmem_left = op.nonmem;
        self.pending_mem = Some(op);
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
        self.span_memo.set(NO_SCAN);
        let width = self.params.width as u64;
        // Retire: whole runs of non-memory entries at once.
        let mut budget = width;
        while budget > 0 {
            let left = self.target_insts - self.stats.retired;
            let n = match self.slots.front_mut() {
                Some(head) if head.before > 0 => {
                    let n = head.before.min(budget).min(left);
                    head.before -= n;
                    n
                }
                Some(head) if head.ready <= now => {
                    self.slots.pop_front();
                    self.head_slot += 1;
                    1
                }
                None if self.tail > 0 => {
                    let n = self.tail.min(budget).min(left);
                    self.tail -= n;
                    n
                }
                _ => break,
            };
            self.occupancy -= n;
            self.stats.retired += n;
            budget -= n;
            if self.stats.retired >= self.target_insts {
                self.finished_at = Some(now);
                return;
            }
        }
        // Issue.
        let mut issued = 0;
        while issued < width {
            let free = self.params.window as u64 - self.occupancy;
            if free == 0 {
                self.stats.window_full_cycles += 1;
                break;
            }
            if self.nonmem_left > 0 {
                let n = u64::from(self.nonmem_left).min(width - issued).min(free);
                self.nonmem_left -= n as u32;
                self.tail += n;
                self.occupancy += n;
                issued += n;
                continue;
            }
            let Some(op) = self.pending_mem else {
                self.pull(); // the first tick's op
                continue;
            };
            let ready = match hierarchy.access(self.id, op.addr, op.is_write, now) {
                Access::Hit { ready_at } => ready_at,
                Access::Pending { token } => {
                    self.stats.long_loads += 1;
                    self.token_slot.push((token, self.head_slot + self.slots.len() as u64));
                    WAITING
                }
                Access::Stall => {
                    self.stalled = true;
                    self.stats.stall_cycles += 1;
                    break;
                }
            };
            self.stalled = false;
            self.stats.mem_ops += 1;
            self.slots.push_back(Slot { before: self.tail, ready });
            self.tail = 0;
            self.occupancy += 1;
            issued += 1;
            // Pull ahead, so the next op's prefix is known after this tick.
            self.pull();
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

    /// Queues the reads the hierarchy sent out as `(req_id, due)` pairs
    /// of an idealized memory.
    fn send(h: &mut CacheHierarchy, in_flight: &mut Vec<(u64, u64)>, due: u64) {
        in_flight.extend(h.take_outgoing().filter(|r| !r.is_write).map(|r| (r.id, due)));
    }

    /// Removes and returns the reads due by `now`.
    fn due_by(in_flight: &mut Vec<(u64, u64)>, now: u64) -> Vec<u64> {
        let due = in_flight.iter().filter(|&&(_, d)| d <= now).map(|&(id, _)| id).collect();
        in_flight.retain(|&(_, d)| d > now);
        due
    }

    fn run(core: &mut TraceCore, h: &mut CacheHierarchy, cycles: u64) -> u64 {
        // Single-core harness with an idealized memory: completions return
        // after a fixed latency, after the cycle's tick.
        let mut in_flight: Vec<(u64, u64)> = Vec::new();
        for now in 0..cycles {
            core.tick(now, h);
            send(h, &mut in_flight, now + 50);
            for id in due_by(&mut in_flight, now) {
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

    /// [`run`] as an event-driven loop drives the core: ticked only at its
    /// `next_event_at` (or the cycle after a completion), with the cycles
    /// in between settled by `skip_cycles` just before the next tick or
    /// completion. Returns the finish cycle and the ticks executed.
    fn run_skipping(core: &mut TraceCore, h: &mut CacheHierarchy, cycles: u64) -> (u64, u64) {
        let mut in_flight: Vec<(u64, u64)> = Vec::new();
        let mut ticks = 0;
        let mut due = 0; // the core's next tick
        let mut synced = 0; // the first cycle neither ticked nor skipped
        let catch_up = |core: &mut TraceCore, h: &mut CacheHierarchy, synced: &mut u64, to: u64| {
            if to > *synced {
                core.skip_cycles(*synced - 1, to - *synced, h);
                *synced = to;
            }
        };
        loop {
            let now = in_flight.iter().map(|&(_, d)| d).fold(due, u64::min);
            assert!(now < cycles, "core did not finish in {cycles} cycles");
            if due == now {
                catch_up(core, h, &mut synced, now);
                core.tick(now, h);
                ticks += 1;
                synced = now + 1;
                due = core.next_event_at(now).unwrap_or(u64::MAX);
                send(h, &mut in_flight, now + 50);
            }
            let landed = due_by(&mut in_flight, now);
            if !landed.is_empty() {
                catch_up(core, h, &mut synced, now + 1);
                for id in landed {
                    for token in h.on_completion(id) {
                        core.wake(token, now + 4);
                    }
                }
                h.take_unblocked(|_| now + 1);
                due = now + 1;
            }
            if core.finished() {
                return (now, ticks);
            }
        }
    }

    #[test]
    fn skipping_to_next_event_matches_ticking_every_cycle() {
        // Streams of hits (a few blocks, reused) and of misses (a new
        // block each op, two MSHRs so that they stall), across non-memory
        // prefixes from none to far past a full window, and core shapes
        // whose spans retire entries they issued themselves. Targets end
        // mid-stream, most of them inside a span.
        let hits = |nonmem| -> Vec<TraceOp> {
            (0..8).map(|i| TraceOp { nonmem, addr: (i % 4) * 64, is_write: i % 3 == 0 }).collect()
        };
        let misses = |nonmem| -> Vec<TraceOp> {
            (0..4096)
                .map(|i| TraceOp { nonmem, addr: i * 64 * 131, is_write: i % 5 == 0 })
                .collect()
        };
        let shapes = [
            CoreParams::paper_default(),
            CoreParams { width: 1, window: 1 },
            CoreParams { width: 2, window: 5 },
            CoreParams { width: 4, window: 32 },
        ];
        let mut cfg = HierarchyConfig::paper_default(1);
        cfg.mshrs_per_core = 2;
        let (mut cycles, mut ticks) = (0, 0);
        for nonmem in [0, 2, 14, 300] {
            for ops in [hits(nonmem), misses(nonmem)] {
                for params in shapes {
                    for target in [1, 2_000, 30_001] {
                        let new = || {
                            let trace = tiny_trace(ops.clone());
                            let core = TraceCore::new(0, params, trace, target, SPACE);
                            (core, CacheHierarchy::new(cfg, 1))
                        };
                        let (mut core, mut h) = new();
                        let at = run(&mut core, &mut h, 10_000_000);
                        let ticked = (at, core.finished_at(), core.stats(), h.stats());
                        let (mut core, mut h) = new();
                        let (at, n) = run_skipping(&mut core, &mut h, 10_000_000);
                        let skipped = (at, core.finished_at(), core.stats(), h.stats());
                        assert_eq!(ticked, skipped, "nonmem {nonmem}, {params:?}, target {target}");
                        cycles += at + 1;
                        ticks += n;
                    }
                }
            }
        }
        assert!(ticks * 4 < cycles, "{ticks} ticks over {cycles} cycles: spans were not skipped");
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
            send(&mut h, &mut in_flight, now + 80);
            for id in due_by(&mut in_flight, now) {
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
