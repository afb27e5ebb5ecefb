//! The sharded parallel kernel ([`Kernel::Parallel`]): per-channel
//! conservative PDES, bit-identical to the serial kernels.
//!
//! # Decomposition
//!
//! Memory channels never talk to each other: a request is routed to
//! exactly one controller, and a controller's completions only flow back
//! through the (serial) cache hierarchy. That makes **one channel — its
//! [`MemoryController`] plus the per-channel backlog — the natural shard**:
//! a unit of state that can be advanced on a worker thread with no
//! synchronization beyond the epoch barrier.
//!
//! The clock loop is the event kernel's loop with the controller work
//! hoisted out:
//!
//! * **Serial phase** (main thread): tick cores, route hierarchy output,
//!   deliver completions — exactly the code the event kernel runs.
//! * **Parallel phase** (epoch): at every *executed* bus boundary `B`,
//!   every shard independently catches up from its frontier to `B`,
//!   replaying precisely the controller-side cycle subsequence the serial
//!   event kernel would have executed (accept-then-tick per event cycle).
//!
//! # Why the results are bit-identical
//!
//! Conservative PDES needs a **lookahead bound**: proof that no shard
//! produces a cross-shard event (a read completion that must wake a core)
//! strictly inside the window being skipped. Each epoch caches
//! [`ChannelShard::completion_bound`] — a lower bound, derived from the
//! DRAM timing registers' monotonicity, on the bus cycle at which the
//! shard can next *produce* a completion. The serial horizon folds
//! `min(bound) * cpu_cycles_per_bus` into the skip target, so every
//! executed cycle satisfies `now <= min(bound) * per_bus`; hence any
//! completion a shard produces while catching up to boundary `B` is
//! produced exactly *at* `B` (asserted), where it is delivered in channel
//! order in the same epoch — the cycle, order and wake stamps the serial
//! kernels use. Controller-internal events (write drains, refreshes,
//! relocation jobs) need no global fold at all: they are replayed
//! shard-locally at the next epoch.
//!
//! With one channel (nothing to shard) the kernel degenerates to the
//! plain event kernel; with `threads = 1` the epochs run inline on the
//! caller. Thread count is a wall-clock knob only — it never appears in
//! simulated state.

use std::collections::VecDeque;

use figaro_memctrl::{Completion, MemoryController, Request};
use figaro_telemetry::profile::ShardTimers;
use rayon::WorkerPool;

use crate::metrics::RunStats;
use crate::system::System;
use crate::telemetry::{PROF_CORES, PROF_MEMORY};

/// One parallel-kernel shard: a memory controller plus everything that
/// is private to its channel (backlog, epoch mailboxes, lookahead
/// cache). The ownership unit handed to a worker thread.
#[derive(Debug)]
pub(crate) struct ChannelShard {
    /// The channel's controller (owns the DRAM channel model and the
    /// in-DRAM cache engine).
    pub(crate) mc: MemoryController,
    /// Requests routed to this channel that the controller had no queue
    /// room for, in arrival order (drains FIFO as room frees).
    backlog: VecDeque<Request>,
    /// Reads currently in `backlog` — a backlogged read can complete via
    /// the read-around-write forward the same cycle it is accepted, so
    /// `completion_bound` must collapse whenever one could be accepted.
    backlog_reads: usize,
    /// Requests the serial router assigned to this shard for the current
    /// epoch; merged into `backlog` at the epoch boundary (the cycle the
    /// serial kernels would push them).
    inbox: Vec<Request>,
    /// Completions produced while catching up, tagged with the bus cycle
    /// that produced them; delivered serially after the epoch barrier.
    outbox: Vec<(u64, Completion)>,
    /// Scratch for draining the controller without reallocating.
    scratch: Vec<Completion>,
    /// First bus cycle this shard has not yet processed.
    frontier: u64,
    /// `completion_bound(frontier)` as of the last epoch — the value the
    /// serial horizon folds. Stays a valid lower bound between epochs
    /// because only epochs mutate shard state.
    pub(crate) cached_bound: u64,
}

impl ChannelShard {
    pub(crate) fn new(mc: MemoryController) -> Self {
        Self {
            mc,
            backlog: VecDeque::new(),
            backlog_reads: 0,
            inbox: Vec::new(),
            outbox: Vec::new(),
            scratch: Vec::new(),
            frontier: 0,
            cached_bound: 0,
        }
    }

    /// Parks a routed request at the tail of the backlog (the serial
    /// kernels' router calls this directly; the parallel kernel goes
    /// through the inbox instead).
    pub(crate) fn push_backlog(&mut self, req: Request) {
        self.backlog_reads += usize::from(!req.is_write);
        self.backlog.push_back(req);
    }

    /// Drains the backlog head-first into the controller while it
    /// accepts, stamping arrival at `bus`; returns how many requests
    /// were accepted (the serial router's `backlog_len` bookkeeping).
    pub(crate) fn accept_backlog(&mut self, bus: u64) -> usize {
        let mut accepted = 0;
        while let Some(front) = self.backlog.front() {
            if !self.mc.can_accept(front.is_write) {
                break;
            }
            let mut req = self.backlog.pop_front().expect("front exists");
            self.backlog_reads -= usize::from(!req.is_write);
            req.arrival = bus;
            self.mc.enqueue(req, bus);
            accepted += 1;
        }
        accepted
    }

    /// Whether the backlog's head request would be accepted right now
    /// (the event kernel's backlog horizon term).
    pub(crate) fn backlog_front_acceptable(&self) -> bool {
        self.backlog.front().is_some_and(|f| self.mc.can_accept(f.is_write))
    }

    /// Lower bound (bus cycles, `>= from`) on when this shard can next
    /// *produce* a read completion, given no further arrivals — the
    /// conservative-PDES lookahead. `u64::MAX` when it provably never
    /// will.
    ///
    /// Two production paths exist and both are covered:
    /// * a queued read's column issue —
    ///   [`MemoryController::read_completion_horizon`] bounds it from the
    ///   timing registers;
    /// * a backlogged read accepted into a queue with room, which may
    ///   complete instantly via the read-around-write forward — so any
    ///   backlogged read plus read-queue room collapses the bound to
    ///   `from`. (If the read queue is full it is non-empty, and freeing
    ///   a slot *is* a read issue, which the first path bounds.)
    fn completion_bound(&self, from: u64) -> u64 {
        if self.backlog_reads > 0 && self.mc.can_accept(false) {
            return from;
        }
        self.mc.read_completion_horizon(from)
    }

    /// The bus cycle the shard would process next after `from`, capped at
    /// `target`: the backlog-acceptance boundary if the head request fits
    /// now, else the controller's own event horizon. This mirrors the
    /// event kernel's `component_horizon` terms for one controller.
    fn next_processed(&mut self, from: u64, target: u64) -> u64 {
        if self.backlog_front_acceptable() {
            return from;
        }
        match self.mc.next_event_at(from) {
            Some(t) => t.min(target),
            None => target,
        }
    }

    /// One controller-side bus cycle, exactly as the serial kernels run
    /// it: drain the backlog while the controller accepts, tick if the
    /// controller has an event due, then collect any completions tagged
    /// with their production cycle.
    fn process_cycle(&mut self, bus: u64) {
        self.accept_backlog(bus);
        if self.mc.next_event_at(bus).is_some_and(|h| h <= bus) {
            self.mc.tick(bus);
        }
        if self.mc.has_completions() {
            self.mc.drain_completions_into(&mut self.scratch);
            for c in self.scratch.drain(..) {
                self.outbox.push((bus, c));
            }
        }
    }

    /// Catches the shard up to the epoch boundary `target`: replays the
    /// interior event cycles in `[frontier, target)`, then merges the
    /// epoch's inbox and processes `target` itself (the cycle the serial
    /// kernels would route-then-tick).
    fn advance_to(&mut self, target: u64) {
        debug_assert!(self.frontier <= target, "epoch boundaries move forward");
        let mut p = self.next_processed(self.frontier, target);
        while p < target {
            self.process_cycle(p);
            // Acceptance freed by this cycle's tick lands on the *next*
            // boundary (the serial router runs before the tick).
            p = self.next_processed(p + 1, target);
        }
        for req in self.inbox.drain(..) {
            self.backlog_reads += usize::from(!req.is_write);
            self.backlog.push_back(req);
        }
        self.process_cycle(target);
        self.frontier = target + 1;
        self.cached_bound = self.completion_bound(self.frontier);
    }

    /// Appends the shard's live state — the controller plus the parked
    /// backlog — to a snapshot word stream. The epoch mailboxes are not
    /// serialized: snapshots are taken between runs, where the catch-up
    /// epoch has already drained them (asserted).
    pub(crate) fn save_state(&self, out: &mut Vec<u64>) {
        assert!(
            self.inbox.is_empty() && self.outbox.is_empty(),
            "snapshots are taken between runs, where epoch mailboxes are quiescent"
        );
        self.mc.save_state(out);
        out.push(self.backlog.len() as u64);
        for req in &self.backlog {
            out.push(req.id);
            out.push(req.addr.0);
            out.push(u64::from(req.is_write));
            out.push(u64::from(req.core));
            out.push(req.arrival);
        }
    }

    /// Restores state saved by [`ChannelShard::save_state`]. `frontier` is
    /// the first bus cycle the resumed run has not yet processed (derived
    /// from the snapshot's CPU cycle); the lookahead cache is recomputed
    /// from the restored controller, exactly as the catch-up epoch leaves
    /// it. Returns the restored backlog length (the router's global
    /// bookkeeping).
    pub(crate) fn load_state(&mut self, src: &mut &[u64], frontier: u64) -> usize {
        self.mc.load_state(src);
        let n = crate::take(src) as usize;
        self.backlog.clear();
        self.backlog_reads = 0;
        for _ in 0..n {
            let id = crate::take(src);
            let addr = figaro_dram::PhysAddr(crate::take(src));
            let is_write = crate::take(src) != 0;
            let core = crate::take(src) as u8;
            let arrival = crate::take(src);
            self.push_backlog(Request { id, addr, is_write, core, arrival });
        }
        self.inbox.clear();
        self.outbox.clear();
        self.frontier = frontier;
        self.cached_bound = self.completion_bound(frontier);
        n
    }

    /// (queued reads, queued writes, backlogged requests) — the `diag
    /// snapshot` occupancy summary.
    pub(crate) fn occupancy(&self) -> (u64, u64, u64) {
        (
            self.mc.read_queue_len() as u64,
            self.mc.write_queue_len() as u64,
            self.backlog.len() as u64,
        )
    }
}

/// Below this catch-up window (bus cycles), the epoch runs inline on the
/// caller: a shard ticks at most once per bus cycle, so a small window
/// bounds the work below the pool's publish/park handoff cost. Purely a
/// wall-clock heuristic — the per-shard call sequence is identical.
const INLINE_WINDOW: u64 = 8;

/// Advances every shard to `target` — the epoch's parallel phase. Shards
/// are dealt round-robin across workers; each worker owns a disjoint
/// index set, and `WorkerPool::run` does not return until every worker
/// (caller included) is done, so no shard is ever touched by two threads.
///
/// `timers`, when profiling is on, collects per-shard busy wall time
/// (the imbalance diagnostic); it is side-channel only and never read by
/// simulation state.
fn advance_all(
    shards: &mut [ChannelShard],
    target: u64,
    pool: &WorkerPool,
    timers: Option<&ShardTimers>,
) {
    /// A `Sync` view of the shard slice for the raw-pointer fan-out; the
    /// disjoint round-robin partition is what makes the `&mut` derivation
    /// in the worker body sound.
    struct ShardPtr(*mut ChannelShard, usize);
    unsafe impl Sync for ShardPtr {}
    let advance = |i: usize, sh: &mut ChannelShard| match timers {
        Some(t) => {
            let ((), ns) = figaro_telemetry::profile::timed(|| sh.advance_to(target));
            t.add(i, ns);
        }
        None => sh.advance_to(target),
    };
    let min_frontier = shards.iter().map(|s| s.frontier).min().unwrap_or(target);
    if pool.threads() <= 1
        || shards.len() <= 1
        || target.saturating_sub(min_frontier) < INLINE_WINDOW
    {
        for (i, sh) in shards.iter_mut().enumerate() {
            advance(i, sh);
        }
        return;
    }
    let threads = pool.threads();
    let ptr = ShardPtr(shards.as_mut_ptr(), shards.len());
    // Capture the Sync wrapper itself, not its raw-pointer field.
    let ptr = &ptr;
    let advance = &advance;
    pool.run(&move |worker: usize| {
        let mut i = worker;
        while i < ptr.1 {
            // SAFETY: worker `w` touches exactly the indices `i % threads
            // == w`, all in-bounds, and the pool's run/join protocol means
            // these `&mut`s never coexist with any other access.
            let sh = unsafe { &mut *ptr.0.add(i) };
            advance(i, sh);
            i += threads;
        }
    });
}

impl System {
    /// The sharded parallel kernel ([`crate::Kernel::Parallel`]). See the
    /// module docs for the protocol; produces [`RunStats`] bit-identical
    /// to [`crate::Kernel::Event`] and [`crate::Kernel::Reference`].
    pub(crate) fn run_parallel(&mut self, max_cpu_cycles: u64) -> RunStats {
        if self.cfg.channels == 1 {
            // One shard has nothing to overlap with: run the event kernel
            // and skip the epoch machinery entirely.
            return self.run_event(max_cpu_cycles);
        }
        let pool = WorkerPool::new(self.cfg.worker_threads());
        let per_bus = self.cfg.cpu_cycles_per_bus;
        let fill_latency = u64::from(self.cfg.hierarchy.fill_latency);
        // The serial phase below is the event kernel's loop verbatim,
        // with `step_bus` swapped for the epoch and the controller terms
        // of `component_horizon` swapped for the cached lookahead bounds.
        let mut live: Vec<usize> =
            (0..self.cores.len()).filter(|&i| !self.cores[i].finished()).collect();
        while !live.is_empty() && self.cpu_cycle < max_cpu_cycles {
            let now = self.cpu_cycle;
            if now >= self.telemetry_next_sample() {
                self.catch_up_for_sample(now, per_bus);
                self.maybe_sample(now);
            }
            if let Some(bus) = self.bus_boundary(now, per_bus) {
                self.step_bus_sharded(bus, per_bus, fill_latency, &pool);
            }
            if let Some(p) = &mut self.profiler {
                p.clock.lap(PROF_MEMORY);
            }
            let mut next = max_cpu_cycles;
            live.retain(|&i| {
                let core = &mut self.cores[i];
                core.tick(now, &mut self.hierarchy);
                if core.finished() {
                    return false;
                }
                if let Some(t) = core.next_event_at(now) {
                    next = next.min(t);
                }
                true
            });
            // A dirty victim a later core pushed into the LLC may have
            // unblocked an earlier, already ticked core: it retries next
            // cycle, so nothing may be skipped.
            self.hierarchy.take_unblocked(|_| {
                next = now + 1;
                now + 1
            });
            if let Some(p) = &mut self.profiler {
                p.clock.lap(PROF_CORES);
            }
            self.cpu_cycle += 1;
            if live.is_empty() {
                break;
            }
            if next <= now + 1 {
                continue;
            }
            let next = self.horizon_sharded(now, next).clamp(now + 1, max_cpu_cycles);
            // Execute the next sample boundary instead of jumping it (see
            // the identical clamp in the event kernel's span).
            let next = next.min(self.telemetry_next_sample());
            let skip = next - self.cpu_cycle;
            if skip > 0 {
                for &i in &live {
                    self.cores[i].skip_cycles(now, skip, &mut self.hierarchy);
                }
                self.cpu_cycle = next;
            }
        }
        // Catch-up epoch: the serial event kernel folds controller
        // horizons into its skip, so by its own exit it has ticked every
        // controller event cycle up to the last executed CPU cycle. The
        // shards may still be behind (controller-internal events force no
        // epochs here) — replay them so queues, engines and DRAM stats
        // land in the identical final state. No completion can be
        // produced: every executed cycle stayed at or below
        // `min(bound) * per_bus`, so the first producible completion lies
        // at or beyond this target unless an epoch already delivered it.
        if self.cpu_cycle > 0 {
            let final_bus = (self.cpu_cycle - 1) / per_bus;
            for sh in &mut self.shards {
                if sh.frontier <= final_bus {
                    sh.advance_to(final_bus);
                }
                assert!(
                    sh.outbox.is_empty(),
                    "undelivered completion after the final epoch — lookahead bound unsound"
                );
            }
        }
        self.collect()
    }

    /// The epoch at executed bus boundary `bus`: serially route this
    /// boundary's hierarchy output to shard inboxes, advance every shard
    /// to `bus` in parallel, then deliver the produced completions in
    /// channel order — the exact cycle, order and wake stamps of the
    /// serial kernels' `step_bus`.
    fn step_bus_sharded(&mut self, bus: u64, per_bus: u64, fill_latency: u64, pool: &WorkerPool) {
        figaro_telemetry::probe!(self.telemetry, t => t.epoch_mark(bus * per_bus));
        if let Some(p) = &mut self.profiler {
            p.epochs += 1;
        }
        if self.hierarchy.has_outgoing() {
            for req in self.hierarchy.take_outgoing() {
                let ch = self.mapping.decode(req.addr).channel as usize;
                self.shards[ch].inbox.push(req);
            }
        }
        let timers = self.profiler.as_deref().map(|p| &p.shard_timers);
        advance_all(&mut self.shards, bus, pool, timers);
        for ch in 0..self.shards.len() {
            if self.shards[ch].outbox.is_empty() {
                continue;
            }
            let mut out = std::mem::take(&mut self.shards[ch].outbox);
            for (produced_at, c) in out.drain(..) {
                // The lookahead contract: completions only materialize at
                // the epoch boundary itself, never inside the window the
                // serial side already skipped.
                assert_eq!(produced_at, bus, "completion produced inside the lookahead window");
                let ready_cpu = c.done_at * per_bus + fill_latency;
                for token in self.hierarchy.on_completion(c.id) {
                    self.cores[c.core as usize].wake(token, ready_cpu);
                }
            }
            self.shards[ch].outbox = out;
        }
    }

    /// Advances every lagging shard to the last bus boundary before
    /// CPU cycle `now`, so a telemetry sample taken at `now` observes
    /// exactly the state the *serial* kernels would show: the serial
    /// event kernel folds controller horizons into its skip and has
    /// therefore replayed every controller-internal event cycle up to
    /// `now`, while the parallel kernel defers those to the next epoch.
    /// This is the final catch-up epoch's logic applied mid-run; the
    /// same lookahead argument shows no completion can be produced
    /// (asserted), so replaying early is behavior-identical — it only
    /// moves *when* the deferred cycles run, never *what* they do.
    fn catch_up_for_sample(&mut self, now: u64, per_bus: u64) {
        if now == 0 {
            return;
        }
        let target = (now - 1) / per_bus;
        for sh in &mut self.shards {
            if sh.frontier <= target {
                sh.advance_to(target);
            }
            assert!(
                sh.outbox.is_empty(),
                "undelivered completion at a sample boundary — lookahead bound unsound"
            );
        }
    }

    /// `component_horizon` for the sharded kernel: the hierarchy-routing
    /// boundary term is unchanged, but the backlog and controller-event
    /// terms disappear (both are shard-internal now) in favor of one fold
    /// over the cached per-shard completion bounds.
    fn horizon_sharded(&self, now: u64, mut next: u64) -> u64 {
        let per_bus = self.cfg.cpu_cycles_per_bus;
        let boundary = (now / per_bus + 1) * per_bus;
        if next > boundary {
            if self.hierarchy.next_event_at(now, per_bus).is_some() {
                next = boundary;
            }
            // A shard's bound is at least its frontier, and every frontier
            // is past the last executed boundary, so this fold can never
            // pull `next` below `boundary` — no epoch is ever missed.
            for sh in &self.shards {
                next = next.min(sh.cached_bound.saturating_mul(per_bus));
            }
        }
        next
    }
}
