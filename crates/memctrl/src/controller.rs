//! The per-channel memory controller: queue management, write drain,
//! refresh, relocation-job execution, and the event-horizon contract.
//!
//! Demand scheduling itself is delegated to the pluggable
//! [`SchedPolicy`](crate::scheduler::SchedPolicy) selected by
//! [`McConfig::sched`]; queue storage is the per-bank
//! [`IndexedQueue`](crate::queues::IndexedQueue); per-bank state lives
//! in [`BankState`](crate::bank::BankState) (job slots) and
//! [`BankMemo`](crate::bank::BankMemo) (the memoized summary).
//!
//! One memoized [`BankSummary`](crate::bank::BankSummary) per bank
//! drives both halves of the controller: the tick's demand picks read
//! the summaries (one fresh timing probe per candidate bank, no entry
//! walk), and the event horizon is the minimum of the banks' memoized
//! terms. Every site that changes what a summary depends on marks the
//! bank dirty (`mark_dirty`/`dirty_all`, see the [`crate::bank`] docs
//! for the rules), and a dirty bank is rebuilt on its next read. A
//! stale term stays a lower bound (the lemma on
//! [`DramChannel::next_ready`]), so the horizon re-probes a stale bank
//! only while it holds the minimum and equals a full scan; debug builds
//! assert both that and that every summary a tick reads equals a fresh
//! build.

use figaro_core::{CacheEngine, CacheStats, RowHammerMonitor};
use figaro_dram::{
    AddressMapping, BankAddr, Cycle, DramChannel, DramCommand, DramConfig, DramStats, MapKind,
};

use crate::bank::{BankMemo, BankState, BankSummary, UNPROBED};
use crate::histogram::LatencyHistogram;
use crate::queues::{Entry, IndexedQueue};
use crate::request::{Completion, Request};
use crate::scheduler::{self, SchedPolicy, SchedPolicyKind};

/// Controller configuration (the paper's Table 1 values by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Read queue capacity (paper: 64).
    pub read_queue_cap: usize,
    /// Write queue capacity (paper: 64).
    pub write_queue_cap: usize,
    /// Enter write-drain mode at this write-queue occupancy.
    pub wq_high: usize,
    /// Leave write-drain mode at this occupancy.
    pub wq_low: usize,
    /// Issue periodic refresh (disable only in micro-tests).
    pub enable_refresh: bool,
    /// Record per-row activation counts with this window (RowHammer
    /// analysis); `None` disables monitoring.
    pub activation_window: Option<Cycle>,
    /// Demand-scheduling policy (default: FR-FCFS, the paper's ladder).
    pub sched: SchedPolicyKind,
    /// Physical→DRAM address interleaving (default: the paper's
    /// `{row, rank, bankgroup, bank, channel, column}` bit slice). The
    /// system router must be built with the **same** kind — requests
    /// routed under one mapping and decoded under another would land on
    /// the wrong channel (asserted in [`MemoryController::enqueue`]).
    pub map: MapKind,
    /// Ignored; kept only for perfbench's struct literal, and goes once
    /// the next benchmark change drops it from perfbench.
    pub flat_scan: bool,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            read_queue_cap: 64,
            write_queue_cap: 64,
            wq_high: 40,
            wq_low: 16,
            enable_refresh: true,
            activation_window: None,
            sched: SchedPolicyKind::FrFcfs,
            map: MapKind::default(),
            flat_scan: false,
        }
    }
}

/// Request-level statistics (row-buffer locality, latency, throughput).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McStats {
    /// Column commands that found their row already open.
    pub row_hits: u64,
    /// Column commands that required only an activation (bank was closed).
    pub row_misses: u64,
    /// Column commands that required closing another row first.
    pub row_conflicts: u64,
    /// Reads served (including write-queue forwards).
    pub reads_served: u64,
    /// Writes drained to DRAM.
    pub writes_served: u64,
    /// Reads served directly from the write queue.
    pub forwarded: u64,
    /// Σ read latency in bus cycles (arrival → data).
    pub read_latency_sum: u64,
    /// Reads enqueued.
    pub enq_reads: u64,
    /// Writes enqueued.
    pub enq_writes: u64,
    /// Peak read-queue occupancy ever observed (sampled after each
    /// enqueue — occupancy only grows on enqueues). Merged across
    /// channels with `max`, so the merged figure is the worst channel's
    /// peak; per-channel values are surfaced by `RunStats::per_channel`.
    pub read_q_peak: u64,
    /// Peak write-queue occupancy ever observed (see
    /// [`McStats::read_q_peak`]).
    pub write_q_peak: u64,
    /// Per-read latency distribution (arrival → data, bus cycles) —
    /// same samples the sum above accumulates, bucketed for tail
    /// percentiles.
    pub read_latency_hist: LatencyHistogram,
}

impl McStats {
    /// DRAM row-buffer hit rate over demand column accesses (paper Fig. 10).
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Average read latency in bus cycles.
    #[must_use]
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads_served == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads_served as f64
        }
    }

    /// Books one served read's arrival→data latency into both the sum
    /// (the mean) and the distribution (the tail). Every read-serving
    /// path must go through here so the two stay consistent.
    pub fn note_read_latency(&mut self, lat: u64) {
        self.read_latency_sum += lat;
        self.read_latency_hist.record(lat);
    }

    /// Element-wise accumulation across channels (peak gauges merge
    /// with `max` — the worst channel, not a meaningless sum).
    pub fn merge_from(&mut self, o: &McStats) {
        self.read_q_peak = self.read_q_peak.max(o.read_q_peak);
        self.write_q_peak = self.write_q_peak.max(o.write_q_peak);
        self.row_hits += o.row_hits;
        self.row_misses += o.row_misses;
        self.row_conflicts += o.row_conflicts;
        self.reads_served += o.reads_served;
        self.writes_served += o.writes_served;
        self.forwarded += o.forwarded;
        self.read_latency_sum += o.read_latency_sum;
        self.enq_reads += o.enq_reads;
        self.enq_writes += o.enq_writes;
        self.read_latency_hist.merge_from(&o.read_latency_hist);
    }
}

/// One channel's memory controller. See the crate docs for the module
/// map and the scheduling policy.
#[derive(Debug)]
pub struct MemoryController {
    cfg: McConfig,
    mapping: AddressMapping,
    channel: DramChannel,
    channel_id: u32,
    engine: Box<dyn CacheEngine>,
    policy: Box<dyn SchedPolicy>,
    read_q: IndexedQueue,
    write_q: IndexedQueue,
    drain_writes: bool,
    /// Write-drain watermarks as resolved by the policy (defaults to the
    /// configured `wq_high`/`wq_low`).
    wq_high: usize,
    wq_low: usize,
    next_refresh: Cycle,
    refresh_pending: bool,
    banks: Vec<BankState>,
    /// Per-bank memoized summaries and horizon terms, indexed like
    /// `banks`.
    memo: Vec<BankMemo>,
    /// The banks whose memo is dirty, so a rebuild visits only them.
    dirty: Vec<u32>,
    /// Which queue the bank summaries describe (`true` = writes).
    summary_writes: bool,
    /// DRAM commands issued so far: a bank's horizon term is exact when
    /// probed at the current count, a lower bound otherwise.
    issues: u64,
    completions: Vec<Completion>,
    stats: McStats,
    monitor: Option<RowHammerMonitor>,
    /// Memoized event horizon (`None` = stale). Invalidated by every
    /// [`MemoryController::tick`] and [`MemoryController::enqueue`]; a
    /// recompute only rebuilds dirty banks and re-probes stale minima.
    horizon: Option<Option<Cycle>>,
    /// Event-trace sink (`FIGARO_TRACE`): job/drain spans and refresh
    /// instants, stamped in bus cycles. Result-neutral — never
    /// snapshotted, never consulted by any scheduling decision; every
    /// emit goes through the `probe!` guard (figlint FIG007).
    trace: Option<Box<figaro_telemetry::trace::ControllerTrace>>,
}

impl MemoryController {
    /// Builds a controller for channel `channel_id` of `dram` with the
    /// given cache `engine` (use [`figaro_core::NullEngine`] for `Base`).
    #[must_use]
    pub fn new(
        dram: &DramConfig,
        cfg: McConfig,
        channel_id: u32,
        engine: Box<dyn CacheEngine>,
    ) -> Self {
        let banks = dram.geometry.banks_per_channel() as usize;
        let policy = cfg.sched.build(banks);
        let (wq_high, wq_low) = policy.watermarks(cfg.wq_high, cfg.wq_low);
        Self {
            cfg,
            mapping: dram.address_mapping(cfg.map),
            channel: DramChannel::new(dram),
            channel_id,
            engine,
            policy,
            read_q: IndexedQueue::new(banks, cfg.read_queue_cap),
            write_q: IndexedQueue::new(banks, cfg.write_queue_cap),
            drain_writes: false,
            wq_high,
            wq_low,
            next_refresh: Cycle::from(dram.timing.refi),
            refresh_pending: false,
            banks: (0..banks as u32).map(|f| BankState::new(f, &dram.geometry)).collect(),
            memo: vec![BankMemo::default(); banks],
            dirty: (0..banks as u32).collect(),
            summary_writes: false,
            issues: 0,
            completions: Vec::new(),
            stats: McStats::default(),
            monitor: cfg.activation_window.map(RowHammerMonitor::new),
            horizon: None,
            trace: None,
        }
    }

    /// Attaches an event-trace buffer recording the filtered
    /// categories (idempotent per run: replaces any previous buffer).
    pub fn enable_trace(&mut self, filter: figaro_telemetry::TraceFilter) {
        let banks = self.banks.len();
        self.trace = Some(Box::new(figaro_telemetry::trace::ControllerTrace::new(banks, filter)));
    }

    /// Detaches the event-trace buffer, closing any still-open spans
    /// at bus cycle `now`. `None` when tracing was never enabled.
    pub fn take_trace(&mut self, now: Cycle) -> Option<figaro_telemetry::TraceBuffer> {
        self.trace.take().map(|t| t.finish(now))
    }

    /// The scheduling policy in force.
    #[must_use]
    pub fn sched(&self) -> SchedPolicyKind {
        self.policy.kind()
    }

    /// Whether a request of the given kind can be accepted this cycle.
    #[must_use]
    pub fn can_accept(&self, is_write: bool) -> bool {
        if is_write {
            self.write_q.len() < self.cfg.write_queue_cap
        } else {
            self.read_q.len() < self.cfg.read_queue_cap
        }
    }

    /// Enqueues a demand request. The cache engine is consulted here: the
    /// request may be redirected to an in-DRAM cache row, and the engine
    /// may schedule a relocation job as a side effect.
    ///
    /// # Panics
    ///
    /// Panics if the corresponding queue is full
    /// (check [`MemoryController::can_accept`] first) or if the request's
    /// address does not belong to this channel.
    pub fn enqueue(&mut self, req: Request, now: Cycle) {
        assert!(self.can_accept(req.is_write), "queue full");
        let loc = self.mapping.decode(req.addr);
        assert_eq!(loc.channel, self.channel_id, "request routed to the wrong channel");
        let bank = loc.bank_addr();
        let flat = bank.flat_bank(self.mapping.geometry());
        let open = self.channel.open_row(bank);
        let target = self.engine.on_request(flat, loc.row, loc.col, req.is_write, open, now);
        // The bank gains an entry, or (forwarded read) the engine consult
        // may have scheduled a job on it.
        self.mark_dirty(flat);
        self.horizon = None;
        let entry = Entry {
            req,
            bank,
            flat_bank: flat,
            serve_row: target.row,
            serve_col: target.col,
            saw_act: false,
            saw_conflict: false,
        };
        if req.is_write {
            self.stats.enq_writes += 1;
            self.write_q.push_back(entry);
            self.stats.write_q_peak = self.stats.write_q_peak.max(self.write_q.len() as u64);
            figaro_telemetry::probe!(self.trace, t => t.drain_update(now, self.write_q.len(), self.wq_high, self.wq_low));
        } else {
            self.stats.enq_reads += 1;
            // Read-around-write forwarding: a queued write to the same
            // cache block satisfies the read without touching DRAM (the
            // comparison is block-aligned, so a sub-block-offset read
            // still matches; a block maps to one bank, so only that
            // bank's bucket is probed on the indexed path).
            if self.write_q.bank_has_block(flat, req.addr) {
                self.stats.reads_served += 1;
                self.stats.forwarded += 1;
                // Same arrival→data convention as the scheduled path:
                // data comes back one cycle after the probe, so a read
                // that waited in a front-end queue since `arrival` books
                // that wait too (this used to be a constant 1 regardless
                // of queueing delay).
                self.stats.note_read_latency(now + 1 - req.arrival);
                self.completions.push(Completion {
                    id: req.id,
                    done_at: now + 1,
                    addr: req.addr,
                    core: req.core,
                });
                return;
            }
            self.read_q.push_back(entry);
            self.stats.read_q_peak = self.stats.read_q_peak.max(self.read_q.len() as u64);
        }
    }

    /// The write-drain decision the next tick will make, given queue
    /// lengths (the hysteresis flag itself only changes on ticks).
    fn effective_serve_writes(&self, read_len: usize, write_len: usize) -> bool {
        let drain = if write_len >= self.wq_high {
            true
        } else if write_len <= self.wq_low {
            false
        } else {
            self.drain_writes
        };
        drain || (read_len == 0 && write_len > 0)
    }

    /// Moves all completions into `out` (appended in production order),
    /// keeping both buffers' capacity — the allocation-free form for
    /// per-cycle callers.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completions);
    }

    /// Whether any completions await collection.
    #[must_use]
    pub fn has_completions(&self) -> bool {
        !self.completions.is_empty()
    }

    /// True when no work remains (queues, active *and* pending relocation
    /// jobs, completions all empty).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty()
            && self.write_q.is_empty()
            && self.banks.iter().all(|b| b.job.is_none())
            && self.completions.is_empty()
            && !(0..self.banks.len()).any(|b| self.engine.has_pending_job(b as u32))
    }

    /// Request-level statistics.
    #[must_use]
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// DRAM command statistics.
    #[must_use]
    pub fn dram_stats(&self) -> &DramStats {
        self.channel.stats()
    }

    /// Cache-engine statistics.
    #[must_use]
    pub fn engine_stats(&self) -> CacheStats {
        self.engine.stats()
    }

    /// The RowHammer monitor, when enabled.
    #[must_use]
    pub fn activation_monitor(&self) -> Option<&RowHammerMonitor> {
        self.monitor.as_ref()
    }

    /// Read queue occupancy.
    #[must_use]
    pub fn read_queue_len(&self) -> usize {
        self.read_q.len()
    }

    /// Write queue occupancy.
    #[must_use]
    pub fn write_queue_len(&self) -> usize {
        self.write_q.len()
    }

    /// Appends the controller's full live state to a snapshot word
    /// stream: drain/refresh flags, per-bank relocation jobs, pending
    /// completions, stats, both queues (exact slab images), the DRAM
    /// channel timing state, the cache engine and the scheduling policy.
    /// Derived members (mapping, watermarks, scratch, the horizon memo)
    /// are reconstructed on load.
    ///
    /// # Panics
    ///
    /// Panics when RowHammer monitoring is enabled — monitoring is a
    /// side-channel analysis that no cached/warm-start path enables, and
    /// its activation history is deliberately outside the snapshot format.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        assert!(self.monitor.is_none(), "snapshots do not cover RowHammer monitoring");
        out.push(u64::from(self.drain_writes));
        out.push(self.next_refresh);
        out.push(u64::from(self.refresh_pending));
        out.push(self.banks.len() as u64);
        for bank in &self.banks {
            match &bank.job {
                None => out.push(0),
                Some(job) => {
                    out.push(1);
                    job.save_state(out);
                }
            }
        }
        out.push(self.completions.len() as u64);
        for c in &self.completions {
            out.push(c.id);
            out.push(c.done_at);
            out.push(c.addr.0);
            out.push(u64::from(c.core));
        }
        out.push(self.stats.row_hits);
        out.push(self.stats.row_misses);
        out.push(self.stats.row_conflicts);
        out.push(self.stats.reads_served);
        out.push(self.stats.writes_served);
        out.push(self.stats.forwarded);
        out.push(self.stats.read_latency_sum);
        out.push(self.stats.enq_reads);
        out.push(self.stats.enq_writes);
        out.push(self.stats.read_q_peak);
        out.push(self.stats.write_q_peak);
        self.stats.read_latency_hist.save_state(out);
        self.read_q.save_state(out);
        self.write_q.save_state(out);
        self.channel.save_state(out);
        self.engine.save_state(out);
        self.policy.save_state(out);
    }

    /// Restores state saved by [`MemoryController::save_state`] into a
    /// controller built with the same configuration. The horizon memo is
    /// dropped (recomputed lazily on the next event query).
    ///
    /// # Panics
    ///
    /// Panics on a truncated stream or a geometry mismatch.
    pub fn load_state(&mut self, src: &mut &[u64]) {
        assert!(self.monitor.is_none(), "snapshots do not cover RowHammer monitoring");
        self.drain_writes = crate::take(src) != 0;
        self.next_refresh = crate::take(src);
        self.refresh_pending = crate::take(src) != 0;
        let banks = crate::take(src) as usize;
        assert_eq!(banks, self.banks.len(), "snapshot controller bank-count mismatch");
        for bank in &mut self.banks {
            bank.job = if crate::take(src) == 0 {
                None
            } else {
                Some(figaro_core::RelocationJob::load_state(src))
            };
        }
        let n = crate::take(src) as usize;
        self.completions.clear();
        for _ in 0..n {
            self.completions.push(Completion {
                id: crate::take(src),
                done_at: crate::take(src),
                addr: figaro_dram::PhysAddr(crate::take(src)),
                core: crate::take(src) as u8,
            });
        }
        self.stats.row_hits = crate::take(src);
        self.stats.row_misses = crate::take(src);
        self.stats.row_conflicts = crate::take(src);
        self.stats.reads_served = crate::take(src);
        self.stats.writes_served = crate::take(src);
        self.stats.forwarded = crate::take(src);
        self.stats.read_latency_sum = crate::take(src);
        self.stats.enq_reads = crate::take(src);
        self.stats.enq_writes = crate::take(src);
        self.stats.read_q_peak = crate::take(src);
        self.stats.write_q_peak = crate::take(src);
        self.stats.read_latency_hist.load_state(src);
        self.read_q.load_state(src);
        self.write_q.load_state(src);
        self.channel.load_state(src);
        self.engine.load_state(src);
        self.policy.load_state(src);
        self.dirty_all();
        self.horizon = None;
    }

    fn issue(&mut self, bank: BankAddr, cmd: &DramCommand, now: Cycle) -> Cycle {
        let flat = bank.flat_bank(self.mapping.geometry());
        if let Some(m) = &mut self.monitor {
            match *cmd {
                DramCommand::Activate { row } | DramCommand::ActivateMerge { row } => {
                    m.record_act(flat, row, now);
                }
                DramCommand::LisaClone { src_row, dst_row } => {
                    m.record_act(flat, src_row, now);
                    m.record_act(flat, dst_row, now);
                }
                _ => {}
            }
        }
        self.policy.on_issue(flat, cmd);
        // Rank-scoped commands touch every bank (and a refresh resets
        // the scheduler's streaks); anything else only its own bank.
        if matches!(cmd, DramCommand::Refresh | DramCommand::PrechargeAll) {
            self.dirty_all();
        } else {
            self.mark_dirty(flat);
        }
        self.issues += 1;
        self.channel.issue(bank, cmd, now).completes_at
    }

    /// Marks `flat_bank`'s summary for a rebuild on its next read.
    fn mark_dirty(&mut self, flat_bank: u32) {
        let memo = &mut self.memo[flat_bank as usize];
        if !memo.dirty {
            memo.dirty = true;
            self.dirty.push(flat_bank);
        }
    }

    /// Marks every bank's summary for a rebuild.
    fn dirty_all(&mut self) {
        for b in 0..self.banks.len() as u32 {
            self.mark_dirty(b);
        }
    }

    /// Brings every bank summary up to date for the serve queue
    /// `serve_writes` names: a flip of the serve queue dirties them all,
    /// then each dirty bank is rebuilt (its term reset to the trivial
    /// lower bound `0`, unprobed).
    fn fresh_summaries(&mut self, serve_writes: bool) {
        if serve_writes != self.summary_writes {
            self.summary_writes = serve_writes;
            self.dirty_all();
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        for &b in &dirty {
            let summary = self.summarize(b as usize, serve_writes);
            self.memo[b as usize] =
                BankMemo { summary, dirty: false, term: 0, probed_at: UNPROBED };
        }
        dirty.clear();
        self.dirty = dirty;
        #[cfg(debug_assertions)]
        for b in 0..self.banks.len() {
            debug_assert_eq!(
                self.memo[b].summary,
                self.summarize(b, serve_writes),
                "bank {b}'s memoized summary is stale"
            );
        }
    }

    /// Builds bank `b`'s summary from scratch.
    fn summarize(&self, b: usize, serve_writes: bool) -> BankSummary {
        let st = &self.banks[b];
        let queue = if serve_writes { &self.write_q } else { &self.read_q };
        let (column, prep) =
            scheduler::demand(self.policy.as_ref(), queue, b as u32, st, &self.channel);
        let (job, now) = match st.job {
            Some(job) => {
                let open = self.channel.open_row(st.addr);
                let cmd = job.peek(open, self.channel.must_precharge(st.addr));
                // A finished job is retired defensively on the next tick.
                (cmd, cmd.is_none())
            }
            None => (None, self.job_would_start(b as u32)),
        };
        BankSummary { column, prep, job, now }
    }

    /// Whether `start_pending_jobs` would hand `bank` (which has no
    /// active job) its next pending job. FIGARO relocations pin two
    /// subarrays but leave the rest of the bank servable, so they start
    /// eagerly when their source row is open (the paper's "relocate
    /// while the row serving the miss is open") or as soon as the bank
    /// has no waiting demand. LISA clones occupy the whole bank, so they
    /// only start on an idle bank.
    fn job_would_start(&self, bank: u32) -> bool {
        if !self.engine.has_pending_job(bank) {
            return false;
        }
        let addr = self.banks[bank as usize].addr;
        let cheap = self
            .engine
            .next_job_source(bank)
            .is_some_and(|src| self.channel.open_row(addr) == Some(src));
        cheap || !self.bank_has_demand(bank)
    }

    /// Advances the controller by one bus cycle, issuing at most one DRAM
    /// command.
    pub fn tick(&mut self, now: Cycle) {
        // Any tick may act, so the memoized horizon dies here. (An
        // event-driven caller only ticks at or past the horizon, so this
        // costs it exactly one recompute per action.)
        self.horizon = None;
        // Fast path: nothing queued, no jobs, no refresh due.
        if self.read_q.is_empty()
            && self.write_q.is_empty()
            && !self.refresh_pending
            && (!self.cfg.enable_refresh || now < self.next_refresh)
        {
            let any_job = self.banks.iter().any(|b| b.job.is_some())
                || (0..self.banks.len()).any(|b| self.engine.has_pending_job(b as u32));
            if !any_job {
                return;
            }
        }
        // Write-drain hysteresis; also drain opportunistically when idle.
        if self.write_q.len() >= self.wq_high {
            self.drain_writes = true;
        } else if self.write_q.len() <= self.wq_low {
            self.drain_writes = false;
        }
        let serve_writes =
            self.drain_writes || (self.read_q.is_empty() && !self.write_q.is_empty());

        if self.cfg.enable_refresh && now >= self.next_refresh {
            self.refresh_pending = true;
        }
        if self.refresh_pending {
            self.progress_refresh(now);
            return;
        }

        // Priority 1: ready demand column commands (policy pick).
        if self.try_issue_column(serve_writes, now) {
            return;
        }
        // Priority 2: RELOC trains — both in-flight (pinned) ones and
        // pin-forming first RELOCs whose source row is open. Issuing the
        // first RELOC immediately pins the source subarray, after which
        // demand may close the row and move on; losing this race would
        // force the job to re-activate its source row from scratch.
        if self.try_issue_job_step(now, true) {
            return;
        }
        // Priority 3: ACT/PRE for waiting demand requests (policy pick).
        if self.try_issue_demand_prep(serve_writes, now) {
            return;
        }
        // Priority 4: job setup (ensure-open activations, LISA clones,
        // pin-forming first RELOCs) on spare command slots.
        if self.try_issue_job_step(now, false) {
            return;
        }
        // Priority 5: start pending jobs and try their first step.
        self.start_pending_jobs(now);
        let _ = self.try_issue_job_step(now, false);
    }

    /// Conservative event horizon: the earliest bus cycle `>= from` at
    /// which [`MemoryController::tick`] could do anything observable —
    /// issue a DRAM command, start or retire a relocation job, or
    /// transition refresh state. `None` means the controller is idle and
    /// (with refresh disabled) stays idle until new work is enqueued.
    ///
    /// The contract the event-driven system kernel relies on: every tick
    /// strictly before the returned cycle is a **no-op** (the write-drain
    /// hysteresis flag it recomputes is a pure function of the — frozen —
    /// queue lengths, so deferring the recomputation is invisible). The
    /// horizon may be *earlier* than the first real action, which only
    /// costs a wasted no-op tick; it is never later. The horizon stays
    /// valid until the controller next ticks at it or accepts an enqueue.
    #[inline]
    #[must_use]
    pub fn next_event_at(&mut self, from: Cycle) -> Option<Cycle> {
        // Completions awaiting collection: the caller must drain now (the
        // forwarding path creates them without touching timing state, so
        // the memoized horizon stays valid for afterwards).
        if !self.completions.is_empty() {
            return Some(from);
        }
        if let Some(h) = self.horizon {
            return h.map(|t| t.max(from));
        }
        self.recompute_event_at(from)
    }

    /// Cold path of [`MemoryController::next_event_at`]: full scan.
    fn recompute_event_at(&mut self, from: Cycle) -> Option<Cycle> {
        let computed = self.compute_horizon(from);
        self.horizon = Some(computed);
        computed
    }

    /// The full horizon scan backing [`MemoryController::next_event_at`].
    fn compute_horizon(&mut self, from: Cycle) -> Option<Cycle> {
        let mut best = Cycle::MAX;
        if self.cfg.enable_refresh && !self.refresh_pending {
            best = best.min(self.next_refresh.max(from));
        }
        if self.refresh_pending {
            // tick() routes straight to `progress_refresh` and returns.
            // The refresh horizon is always finite (see `refresh_horizon`),
            // so a refresh-pending controller can never go to sleep forever.
            return Some(best.min(self.refresh_horizon(from)));
        }
        // Job slots and pending jobs only matter here to an idle queue
        // pair; the bank terms cover them otherwise.
        if self.read_q.is_empty()
            && self.write_q.is_empty()
            && !self.banks.iter().any(|b| b.job.is_some())
            && !self.engine.has_any_pending_job(self.banks.len() as u32)
        {
            return (best != Cycle::MAX).then_some(best);
        }
        // Write-drain hysteresis exactly as the next tick will compute it
        // (queue lengths cannot change between events).
        let serve_writes = self.effective_serve_writes(self.read_q.len(), self.write_q.len());
        if let Some(t) = self.banks_horizon(serve_writes) {
            best = best.min(t.max(from));
        }
        if best == Cycle::MAX {
            // Work is queued but no candidate produced a finite time (every
            // relevant command is momentarily illegal — e.g. a bank mid-pin
            // whose state only a future tick resolves). Collapsing this to
            // "no event" would let the event kernel jump past the resolution
            // point and starve the queued work; retry next cycle instead.
            // A too-early horizon only costs a no-op tick.
            best = from + 1;
        }
        Some(best)
    }

    /// The minimum of the banks' unclamped horizon terms (`None` when no
    /// bank has a legal candidate): dirty banks are rebuilt, and a stale
    /// term is re-probed only while it holds the minimum (stale terms are
    /// lower bounds, so the first exact minimum is the true one).
    fn banks_horizon(&mut self, serve_writes: bool) -> Option<Cycle> {
        self.fresh_summaries(serve_writes);
        let min = loop {
            let mut min = (0, Cycle::MAX);
            for (b, memo) in self.memo.iter().enumerate() {
                if memo.term < min.1 {
                    min = (b, memo.term);
                }
            }
            let memo = &mut self.memo[min.0];
            // `MAX` is exact: an illegal command stays illegal.
            if min.1 == Cycle::MAX || memo.probed_at == self.issues {
                break min.1;
            }
            memo.term = memo.summary.probe(&self.channel, self.banks[min.0].addr);
            memo.probed_at = self.issues;
        };
        let min = (min != Cycle::MAX).then_some(min);
        debug_assert_eq!(
            min,
            (0..self.banks.len())
                .map(|b| self.summarize(b, serve_writes).probe(&self.channel, self.banks[b].addr))
                .filter(|&t| t != Cycle::MAX)
                .min(),
            "memoized bank horizon differs from a full scan"
        );
        min
    }

    /// Event horizon of `progress_refresh`: active-job wind-down first,
    /// then the first open bank's precharge (scan order, matching the
    /// one-bank-per-tick drain), then the refresh command itself. Always
    /// finite: a `None` from `next_ready` (command momentarily illegal,
    /// e.g. a pinned bank blocking `Refresh`) degrades to a next-cycle
    /// retry rather than `Cycle::MAX` — collapsing it to MAX would put the
    /// controller to sleep with refresh pending and silently disable
    /// refresh for the rest of the run.
    fn refresh_horizon(&self, from: Cycle) -> Cycle {
        let retry = from + 1;
        if self.banks.iter().any(|b| b.job.is_some()) {
            let h = self.job_step_horizon(from);
            return if h == Cycle::MAX { retry } else { h };
        }
        for st in &self.banks {
            if self.channel.open_row(st.addr).is_some() || self.channel.must_precharge(st.addr) {
                return self
                    .channel
                    .next_ready(st.addr, &DramCommand::Precharge, from)
                    .unwrap_or(retry);
            }
        }
        let bank = BankAddr { rank: 0, bankgroup: 0, bank: 0 };
        self.channel.next_ready(bank, &DramCommand::Refresh, from).unwrap_or(retry)
    }

    /// Earliest cycle at which any active job's next command could issue
    /// (covers `try_issue_job_step` in both its trains-only and full
    /// forms — the priority split affects *which* action fires, not when
    /// the first one can).
    fn job_step_horizon(&self, from: Cycle) -> Cycle {
        let mut best = Cycle::MAX;
        for st in &self.banks {
            let Some(job) = st.job else { continue };
            let open = self.channel.open_row(st.addr);
            let must_pre = self.channel.must_precharge(st.addr);
            match job.peek(open, must_pre) {
                // Defensive retire path in `try_issue_job_step`.
                None => best = best.min(from),
                Some(cmd) => {
                    if let Some(t) = self.channel.next_ready(st.addr, &cmd, from) {
                        best = best.min(t);
                    }
                }
            }
        }
        best
    }

    /// Whether any demand request waits on `flat_bank` (O(1) on the
    /// per-bank indexes).
    fn bank_has_demand(&self, flat_bank: u32) -> bool {
        self.read_q.bank_len(flat_bank) > 0 || self.write_q.bank_len(flat_bank) > 0
    }

    fn progress_refresh(&mut self, now: Cycle) {
        // Let active jobs finish first (their banks cannot be interrupted).
        if self.banks.iter().any(|b| b.job.is_some()) {
            let _ = self.try_issue_job_step(now, false);
            return;
        }
        // Close any open bank, one per cycle.
        for i in 0..self.banks.len() {
            let bank = self.banks[i].addr;
            if self.channel.open_row(bank).is_some() || self.channel.must_precharge(bank) {
                if self.channel.can_issue(bank, &DramCommand::Precharge, now) {
                    self.issue(bank, &DramCommand::Precharge, now);
                    return;
                }
                return; // wait for tRAS etc.
            }
        }
        // All banks closed: refresh each rank (single-rank systems issue one).
        let bank = BankAddr { rank: 0, bankgroup: 0, bank: 0 };
        if self.channel.can_issue(bank, &DramCommand::Refresh, now) {
            self.issue(bank, &DramCommand::Refresh, now);
            figaro_telemetry::probe!(self.trace, t => t.note_refresh(now));
            let refi = Cycle::from(self.channel.config().timing.refi);
            self.next_refresh += refi;
            self.refresh_pending = false;
        }
    }

    fn classify_and_count(&mut self, entry: &Entry) {
        if entry.saw_conflict {
            self.stats.row_conflicts += 1;
        } else if entry.saw_act {
            self.stats.row_misses += 1;
        } else {
            self.stats.row_hits += 1;
        }
    }

    /// Priority 1: issue the policy's column-command pick, if any.
    fn try_issue_column(&mut self, serve_writes: bool, now: Cycle) -> bool {
        self.fresh_summaries(serve_writes);
        let Some(c) =
            scheduler::oldest_ready(&self.banks, &self.memo, &self.channel, now, |s| s.column)
        else {
            return false;
        };
        let queue = if serve_writes { &mut self.write_q } else { &mut self.read_q };
        let entry = queue.remove(c.id);
        // Strict FCFS summarizes only the head's bank: the head moved.
        let head_bank = queue.head_id().map(|h| queue.entry(h).flat_bank);
        if let Some(b) = head_bank.filter(|_| self.policy.in_order_only()) {
            self.mark_dirty(b);
        }
        if serve_writes {
            figaro_telemetry::probe!(self.trace, t => t.drain_update(now, self.write_q.len(), self.wq_high, self.wq_low));
        }
        let done = self.issue(entry.bank, &c.cmd, now);
        self.classify_and_count(&entry);
        if entry.req.is_write {
            self.stats.writes_served += 1;
        } else {
            self.stats.reads_served += 1;
            self.stats.note_read_latency(done - entry.req.arrival);
            self.completions.push(Completion {
                id: entry.req.id,
                done_at: done,
                addr: entry.req.addr,
                core: entry.req.core,
            });
        }
        true
    }

    /// Issues one step of an active job. With `trains_only`, only train
    /// commands (`RELOC`/merge) are considered — job setup (precharges,
    /// ensure-open activations, LISA clones) waits for spare slots.
    fn try_issue_job_step(&mut self, now: Cycle, trains_only: bool) -> bool {
        for bank_idx in 0..self.banks.len() {
            let Some(job) = self.banks[bank_idx].job else { continue };
            let bank = self.banks[bank_idx].addr;
            let open = self.channel.open_row(bank);
            let must_pre = self.channel.must_precharge(bank);
            if trains_only
                && !matches!(
                    job.peek(open, must_pre),
                    Some(
                        DramCommand::Reloc { .. }
                            | DramCommand::RelocBurst { .. }
                            | DramCommand::ActivateMerge { .. }
                    )
                )
            {
                continue;
            }
            let Some(cmd) = job.peek(open, must_pre) else {
                // Shouldn't happen (done jobs are retired on issue), but be safe.
                self.retire_job(bank_idx, now);
                continue;
            };
            if self.channel.can_issue(bank, &cmd, now) {
                self.issue(bank, &cmd, now);
                let job_mut = self.banks[bank_idx].job.as_mut().expect("job present");
                job_mut.on_issued(&cmd);
                if job_mut.is_done() {
                    self.retire_job(bank_idx, now);
                }
                return true;
            }
        }
        false
    }

    fn retire_job(&mut self, bank_idx: usize, now: Cycle) {
        if let Some(job) = self.banks[bank_idx].job.take() {
            self.mark_dirty(bank_idx as u32);
            self.engine.on_job_complete(bank_idx as u32, job.id, now);
            figaro_telemetry::probe!(self.trace, t => t.job_retire(bank_idx, now));
        }
    }

    fn start_pending_jobs(&mut self, now: Cycle) {
        for bank_idx in 0..self.banks.len() {
            let bank = bank_idx as u32;
            if self.banks[bank_idx].job.is_none() && self.job_would_start(bank) {
                self.mark_dirty(bank);
                self.banks[bank_idx].job = self.engine.take_job(bank, now);
                if let Some(job) = &self.banks[bank_idx].job {
                    let id = job.id;
                    figaro_telemetry::probe!(self.trace, t => t.job_start(bank_idx, id, now));
                }
            }
        }
    }

    /// Priority 3: issue the policy's ACT/PRE pick, if any.
    fn try_issue_demand_prep(&mut self, serve_writes: bool, now: Cycle) -> bool {
        self.fresh_summaries(serve_writes);
        let Some(c) =
            scheduler::oldest_ready(&self.banks, &self.memo, &self.channel, now, |s| s.prep)
        else {
            return false;
        };
        let queue = if serve_writes { &mut self.write_q } else { &mut self.read_q };
        let e = queue.entry_mut(c.id);
        if c.cmd == DramCommand::Precharge {
            e.saw_conflict = true;
        } else {
            e.saw_act = true;
        }
        let bank = e.bank;
        self.issue(bank, &c.cmd, now);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use figaro_core::{FigCacheConfig, FigCacheEngine, NullEngine};
    use figaro_dram::{DramConfig, PhysAddr, SubarrayLayout};

    fn base_mc(enable_refresh: bool) -> MemoryController {
        let dram = DramConfig::ddr4_paper_default();
        let cfg = McConfig { enable_refresh, ..McConfig::default() };
        MemoryController::new(&dram, cfg, 0, Box::new(NullEngine::new()))
    }

    fn base_mc_with(cfg: McConfig) -> MemoryController {
        let dram = DramConfig::ddr4_paper_default();
        MemoryController::new(&dram, cfg, 0, Box::new(NullEngine::new()))
    }

    fn fig_mc() -> MemoryController {
        let dram = DramConfig {
            layout: SubarrayLayout::homogeneous(64, 512).with_appended_fast(2, 32),
            ..DramConfig::ddr4_paper_default()
        };
        let engine = FigCacheEngine::new(&dram, &FigCacheConfig::paper_fast(), 16);
        let cfg = McConfig { enable_refresh: false, ..McConfig::default() };
        MemoryController::new(&dram, cfg, 0, Box::new(engine))
    }

    fn read(id: u64, addr: u64, now: Cycle) -> Request {
        Request { id, addr: PhysAddr(addr), is_write: false, core: 0, arrival: now }
    }

    fn write(id: u64, addr: u64, now: Cycle) -> Request {
        Request { id, addr: PhysAddr(addr), is_write: true, core: 0, arrival: now }
    }

    /// The allocation-free drain, wrapped for test convenience.
    fn take_completions(mc: &mut MemoryController) -> Vec<Completion> {
        let mut out = Vec::new();
        mc.drain_completions_into(&mut out);
        out
    }

    /// Ticks until `n` completions exist or `limit` cycles pass.
    fn run_until_completions(
        mc: &mut MemoryController,
        start: Cycle,
        n: usize,
        limit: Cycle,
    ) -> (Vec<Completion>, Cycle) {
        let mut done = Vec::new();
        let mut t = start;
        while done.len() < n && t < start + limit {
            mc.tick(t);
            mc.drain_completions_into(&mut done);
            t += 1;
        }
        (done, t)
    }

    #[test]
    fn single_read_completes_with_act_rd_latency() {
        let mut mc = base_mc(false);
        mc.enqueue(read(1, 0, 0), 0);
        let (done, _) = run_until_completions(&mut mc, 0, 1, 1000);
        assert_eq!(done.len(), 1);
        // ACT at 0 (first tick), RD at tRCD=11, data at 11 + CL + BL = 26.
        assert_eq!(done[0].done_at, 26);
        assert_eq!(mc.stats().row_misses, 1);
    }

    #[test]
    fn second_read_same_row_is_a_row_hit() {
        let mut mc = base_mc(false);
        mc.enqueue(read(1, 0, 0), 0);
        mc.enqueue(read(2, 64, 0), 0);
        let (done, _) = run_until_completions(&mut mc, 0, 2, 1000);
        assert_eq!(done.len(), 2);
        assert_eq!(mc.stats().row_hits, 1);
        assert_eq!(mc.stats().row_misses, 1);
    }

    #[test]
    fn conflicting_rows_count_a_conflict() {
        let mut mc = base_mc(false);
        // Same bank (bank field beyond column bits), different rows.
        let row_stride = 128 * 64 * 16; // one full row across all banks
        mc.enqueue(read(1, 0, 0), 0);
        let (_, t) = run_until_completions(&mut mc, 0, 1, 1000);
        mc.enqueue(read(2, row_stride, t), t);
        let (done, _) = run_until_completions(&mut mc, t, 1, 1000);
        assert_eq!(done.len(), 1);
        assert_eq!(mc.stats().row_conflicts, 1);
    }

    #[test]
    fn reads_to_different_banks_overlap() {
        let mut mc = base_mc(false);
        // Four reads, four different banks.
        for b in 0..4u64 {
            mc.enqueue(read(b, b * 128 * 64, 0), 0);
        }
        let (done, t) = run_until_completions(&mut mc, 0, 4, 1000);
        assert_eq!(done.len(), 4);
        // Bank-level parallelism: far faster than 4 serialized ACT+RD.
        assert!(t < 80, "four banks should overlap, took {t}");
    }

    #[test]
    fn write_then_read_forwards_from_write_queue() {
        let mut mc = base_mc(false);
        mc.enqueue(write(1, 4096, 0), 0);
        mc.enqueue(read(2, 4096, 1), 1);
        assert_eq!(mc.stats().forwarded, 1);
        let done = take_completions(&mut mc);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].done_at, 2);
    }

    #[test]
    fn forwarded_read_books_queueing_delay_not_a_constant() {
        // Regression: a write-forwarded read that spent N cycles queued
        // upstream (arrival stamp N cycles before the enqueue) must book
        // ~N latency under the same arrival→data convention as the
        // scheduled path — it used to book a constant 1.
        let n = 37u64;
        let mut mc = base_mc(false);
        mc.enqueue(write(1, 4096, 0), 0);
        // Read arrived at cycle 1 but only reaches the controller at 1+n.
        mc.enqueue(
            Request { id: 2, addr: PhysAddr(4096), is_write: false, core: 0, arrival: 1 },
            1 + n,
        );
        assert_eq!(mc.stats().forwarded, 1);
        assert_eq!(mc.stats().read_latency_sum, n + 1, "arrival→data, not constant 1");
        assert_eq!(mc.stats().read_latency_hist.count(), 1);
        assert_eq!(mc.stats().read_latency_hist.max(), n + 1);
    }

    #[test]
    fn sub_block_offset_read_still_forwards() {
        // Regression: forwarding compares block-aligned addresses, so a
        // read at a sub-block offset of a queued write's block must be
        // served from the write queue (previously the exact-address
        // comparison missed it and the read went to DRAM).
        let cfg = McConfig { enable_refresh: false, ..McConfig::default() };
        let mut mc = base_mc_with(cfg);
        mc.enqueue(write(1, 4096, 0), 0);
        mc.enqueue(read(2, 4096 + 24, 1), 1);
        assert_eq!(mc.stats().forwarded, 1);
        let done = take_completions(&mut mc);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 2);
        // A read one block over must NOT forward.
        mc.enqueue(read(3, 4096 + 64, 2), 2);
        assert_eq!(mc.stats().forwarded, 1, "adjacent block must not forward");
    }

    #[test]
    fn writes_drain_when_reads_are_absent() {
        let mut mc = base_mc(false);
        for i in 0..4u64 {
            mc.enqueue(write(i, i * 64, 0), 0);
        }
        let mut t = 0;
        while mc.write_queue_len() > 0 && t < 2000 {
            mc.tick(t);
            t += 1;
        }
        assert_eq!(mc.write_queue_len(), 0);
        assert_eq!(mc.stats().writes_served, 4);
    }

    #[test]
    fn refresh_happens_and_blocks_progress() {
        let mut mc = base_mc(true);
        let refi = u64::from(DramConfig::ddr4_paper_default().timing.refi);
        let mut t = 0;
        // Run past one refresh interval with no traffic.
        while t < refi + 400 {
            mc.tick(t);
            t += 1;
        }
        assert_eq!(mc.dram_stats().refreshes, 1);
    }

    #[test]
    fn figcache_miss_spawns_relocation_and_next_access_hits_cache() {
        let mut mc = fig_mc();
        mc.enqueue(read(1, 0, 0), 0);
        let (done, t) = run_until_completions(&mut mc, 0, 1, 2000);
        assert_eq!(done.len(), 1);
        // Let the relocation job run to completion.
        let mut t = t;
        while !mc.is_idle() && t < 4000 {
            mc.tick(t);
            t += 1;
        }
        assert_eq!(mc.engine_stats().insertions, 1);
        assert_eq!(mc.dram_stats().relocs, 16);
        assert_eq!(mc.dram_stats().merges_fast, 1);
        // Second access to the same segment: engine reports a cache hit.
        mc.enqueue(read(2, 64, t), t);
        let (done2, _) = run_until_completions(&mut mc, t, 1, 2000);
        assert_eq!(done2.len(), 1);
        assert_eq!(mc.engine_stats().hits, 1);
        // The hit is served either from the fast cache row or - if the
        // source row is still open after the relocation - via the
        // open-row bypass.
        assert!(
            mc.dram_stats().activates_fast >= 1 || mc.engine_stats().hits_bypassed >= 1,
            "hit must come from the cache row or the open source row"
        );
    }

    #[test]
    fn row_hits_have_priority_over_relocation_steps() {
        let mut mc = fig_mc();
        // First read opens row 0 and triggers an insertion job.
        mc.enqueue(read(1, 0, 0), 0);
        let (_, t0) = run_until_completions(&mut mc, 0, 1, 2000);
        // Enqueue a burst of row hits while the job is relocating.
        for i in 0..8u64 {
            mc.enqueue(read(10 + i, 64 * (i + 2), t0), t0);
        }
        let (done, _) = run_until_completions(&mut mc, t0, 8, 4000);
        assert_eq!(done.len(), 8);
        // All 8 were served as row hits (the job never closed the row
        // before they issued).
        assert!(mc.stats().row_hits >= 8, "row hits = {}", mc.stats().row_hits);
    }

    #[test]
    fn is_idle_reflects_outstanding_work() {
        let mut mc = base_mc(false);
        assert!(mc.is_idle());
        mc.enqueue(read(1, 0, 0), 0);
        assert!(!mc.is_idle());
        let _ = run_until_completions(&mut mc, 0, 1, 1000);
        assert!(mc.is_idle());
    }

    #[test]
    fn activation_monitor_records_acts() {
        let dram = DramConfig::ddr4_paper_default();
        let cfg = McConfig {
            enable_refresh: false,
            activation_window: Some(1_000_000),
            ..McConfig::default()
        };
        let mut mc = MemoryController::new(&dram, cfg, 0, Box::new(NullEngine::new()));
        mc.enqueue(read(1, 0, 0), 0);
        let _ = run_until_completions(&mut mc, 0, 1, 1000);
        let mon = mc.activation_monitor().unwrap();
        assert_eq!(mon.total_acts(), 1);
    }

    #[test]
    fn drain_completions_into_appends_and_keeps_buffers() {
        let mut mc = base_mc(false);
        mc.enqueue(read(1, 0, 0), 0);
        let mut t = 0;
        while !mc.has_completions() && t < 1000 {
            mc.tick(t);
            t += 1;
        }
        assert!(mc.has_completions());
        let mut out = vec![Completion { id: 99, done_at: 0, addr: PhysAddr(0), core: 0 }];
        mc.drain_completions_into(&mut out);
        assert_eq!(out.len(), 2, "append preserves existing elements");
        assert_eq!(out[1].id, 1);
        assert!(!mc.has_completions());
    }

    #[test]
    fn fcfs_serves_strictly_in_order() {
        // One bank, row 0 open, then: a conflicting request to row 1
        // followed by a fresh hit to row 0. FR-FCFS serves the younger
        // hit first; strict FCFS must serve the conflict first.
        let row_stride = 128 * 64 * 16;
        let order_for = |sched: SchedPolicyKind| {
            let cfg = McConfig { enable_refresh: false, sched, ..McConfig::default() };
            let mut mc = base_mc_with(cfg);
            mc.enqueue(read(1, 0, 0), 0);
            let (_, t) = run_until_completions(&mut mc, 0, 1, 1000);
            // Row 0 is open now. Conflict (row 1) before the hit (row 0).
            mc.enqueue(read(2, row_stride, t), t);
            mc.enqueue(read(3, 64, t + 1), t + 1);
            let (done, _) = run_until_completions(&mut mc, t + 2, 2, 2000);
            done.iter().map(|c| c.id).collect::<Vec<_>>()
        };
        assert_eq!(order_for(SchedPolicyKind::FrFcfs), vec![3, 2], "FR-FCFS reorders for the hit");
        assert_eq!(order_for(SchedPolicyKind::Fcfs), vec![2, 3], "FCFS must not reorder");
    }

    #[test]
    fn row_hit_cap_unblocks_a_starved_conflict() {
        // Row 0 open, one conflicting request (row 1) queued behind a
        // steady stream of row-0 hits. Plain FR-FCFS serves every hit
        // first; FrFcfsCap{2} must close the row after two hits and
        // serve the conflict before the stream ends.
        let row_stride = 128 * 64 * 16;
        let conflict_position = |sched: SchedPolicyKind| {
            let cfg = McConfig { enable_refresh: false, sched, ..McConfig::default() };
            let mut mc = base_mc_with(cfg);
            mc.enqueue(read(1, 0, 0), 0);
            let (_, t) = run_until_completions(&mut mc, 0, 1, 1000);
            mc.enqueue(read(100, row_stride, t), t); // the conflict
            for i in 0..8u64 {
                mc.enqueue(read(2 + i, 64 * (i + 1), t), t); // hits
            }
            let (done, _) = run_until_completions(&mut mc, t, 9, 4000);
            done.iter().position(|c| c.id == 100).expect("conflict must complete")
        };
        let frfcfs = conflict_position(SchedPolicyKind::FrFcfs);
        let capped = conflict_position(SchedPolicyKind::FrFcfsCap { cap: 2 });
        assert_eq!(frfcfs, 8, "FR-FCFS serves all 8 hits before the conflict");
        assert!(capped <= 2, "cap=2 must serve the conflict after at most 2 hits, got {capped}");
    }

    #[test]
    fn write_drain_policy_drains_at_its_own_watermark() {
        // Two writes + one read queued. The default watermarks (40/16)
        // never trigger a drain, so FR-FCFS serves the read first; a
        // WriteDrain{2,1} policy must drain the writes first.
        let first_served = |sched: SchedPolicyKind| {
            let cfg = McConfig { enable_refresh: false, sched, ..McConfig::default() };
            let mut mc = base_mc_with(cfg);
            mc.enqueue(write(1, 4096, 0), 0);
            mc.enqueue(write(2, 8192, 0), 0);
            mc.enqueue(read(3, 64 * 512, 0), 0);
            let mut t = 0;
            while mc.stats().reads_served == 0 && mc.stats().writes_served == 0 && t < 1000 {
                mc.tick(t);
                t += 1;
            }
            (mc.stats().reads_served, mc.stats().writes_served)
        };
        assert_eq!(first_served(SchedPolicyKind::FrFcfs), (1, 0), "default serves the read");
        assert_eq!(
            first_served(SchedPolicyKind::WriteDrain { high: 2, low: 1 }),
            (0, 1),
            "tuned watermarks must drain writes first"
        );
    }

    #[test]
    fn next_event_at_is_never_in_the_past_and_skipped_ticks_are_noops() {
        // A FIGCache controller with refresh enabled exercises every event
        // source: demand queues, relocation jobs, and refresh transitions.
        // Every policy must uphold the horizon contract.
        let policies = [
            SchedPolicyKind::FrFcfs,
            SchedPolicyKind::Fcfs,
            SchedPolicyKind::FrFcfsCap { cap: 4 },
            SchedPolicyKind::WriteDrain { high: 48, low: 8 },
        ];
        for sched in policies {
            let dram = DramConfig {
                layout: SubarrayLayout::homogeneous(64, 512).with_appended_fast(2, 32),
                ..DramConfig::ddr4_paper_default()
            };
            let engine = FigCacheEngine::new(&dram, &FigCacheConfig::paper_fast(), 16);
            let cfg = McConfig { sched, ..McConfig::default() };
            let mut mc = MemoryController::new(&dram, cfg, 0, Box::new(engine));
            let snapshot = |mc: &MemoryController| {
                (
                    *mc.stats(),
                    *mc.dram_stats(),
                    mc.engine_stats(),
                    mc.read_queue_len(),
                    mc.write_queue_len(),
                )
            };
            let mut id = 0u64;
            for t in 0..30_000u64 {
                if t.is_multiple_of(37) && mc.can_accept(false) {
                    mc.enqueue(read(id, (id * 7919) % 4096 * 64, t), t);
                    id += 1;
                }
                if t.is_multiple_of(151) && mc.can_accept(true) {
                    mc.enqueue(write(id, (id * 104_729) % 4096 * 64, t), t);
                    id += 1;
                }
                let horizon = mc.next_event_at(t);
                if let Some(h) = horizon {
                    assert!(
                        h >= t,
                        "[{}] horizon {h} at bus cycle {t} lies in the past",
                        sched.label()
                    );
                }
                let before = snapshot(&mc);
                mc.tick(t);
                let drained = take_completions(&mut mc).len();
                if horizon.is_none_or(|h| h > t) {
                    assert_eq!(
                        snapshot(&mc),
                        before,
                        "[{}] tick before the horizon acted at {t}",
                        sched.label()
                    );
                    assert_eq!(
                        drained,
                        0,
                        "[{}] tick before the horizon completed a request at {t}",
                        sched.label()
                    );
                }
            }
            assert!(
                mc.stats().reads_served > 100,
                "[{}] the workload must exercise the controller",
                sched.label()
            );
            assert!(mc.dram_stats().refreshes > 0, "refresh must fire during the run");
            assert!(mc.dram_stats().relocs > 0, "relocation jobs must run");
        }
    }

    #[test]
    fn event_paced_ticking_matches_per_cycle_including_refresh() {
        // Regression for the refresh horizon: a `None` from
        // `next_ready(.., Refresh, ..)` used to collapse into `Cycle::MAX`,
        // which could put an event-paced controller to sleep with refresh
        // pending (silently disabling refresh for the rest of the run).
        // Drive two identical FIGCache controllers — one ticked every bus
        // cycle, one ticked only when its horizon says so — through a
        // bursty schedule that repeatedly blocks banks (relocation jobs in
        // flight) around the refresh deadline, and require bit-identical
        // stats plus actual refreshes. Every policy runs it: strict FCFS
        // moves its head across banks, the row-hit cap resets its streaks
        // at refresh, and tight write-drain watermarks flip the serve
        // queue — each a site that must invalidate the per-bank memo.
        let dram = DramConfig {
            layout: SubarrayLayout::homogeneous(64, 512).with_appended_fast(2, 32),
            ..DramConfig::ddr4_paper_default()
        };
        let policies = [
            SchedPolicyKind::FrFcfs,
            SchedPolicyKind::Fcfs,
            SchedPolicyKind::FrFcfsCap { cap: 2 },
            SchedPolicyKind::WriteDrain { high: 4, low: 1 },
        ];
        for sched in policies {
            let cfg = McConfig { sched, ..McConfig::default() };
            let mk = || {
                let engine = FigCacheEngine::new(&dram, &FigCacheConfig::paper_fast(), 16);
                MemoryController::new(&dram, cfg, 0, Box::new(engine))
            };
            let mut per_cycle = mk();
            let mut event_paced = mk();
            let refi = u64::from(dram.timing.refi);
            let mut id = 0u64;
            let horizon_end = 3 * refi + 2000;
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for t in 0..horizon_end {
                // Bursts of row conflicts alternating between two banks
                // (every third request a write) shortly before each
                // refresh deadline, so jobs and open banks straddle the
                // transition.
                let phase = t % refi;
                let is_write = id % 3 == 2;
                if phase > refi - 400 && t.is_multiple_of(13) && per_cycle.can_accept(is_write) {
                    let addr = ((id * 12_289) % 8192 + (id % 2) * 128) * 64;
                    let req = if is_write { write(id, addr, t) } else { read(id, addr, t) };
                    per_cycle.enqueue(req, t);
                    assert!(event_paced.can_accept(is_write), "acceptance must agree at {t}");
                    event_paced.enqueue(req, t);
                    id += 1;
                }
                per_cycle.tick(t);
                if event_paced.next_event_at(t).is_some_and(|h| h <= t) {
                    event_paced.tick(t);
                }
                a.clear();
                b.clear();
                per_cycle.drain_completions_into(&mut a);
                event_paced.drain_completions_into(&mut b);
                assert_eq!(a, b, "[{}] completions diverged at bus cycle {t}", sched.label());
            }
            let label = sched.label();
            assert_eq!(per_cycle.stats(), event_paced.stats(), "[{label}]");
            assert_eq!(per_cycle.dram_stats(), event_paced.dram_stats(), "[{label}]");
            assert_eq!(per_cycle.engine_stats(), event_paced.engine_stats(), "[{label}]");
            let dram_stats = per_cycle.dram_stats();
            assert_eq!(dram_stats.refreshes, 3, "[{label}] one refresh per elapsed tREFI");
            assert!(dram_stats.relocs > 0, "[{label}] relocation jobs must run");
            assert!(per_cycle.stats().writes_served > 0, "[{label}] writes must drain");
        }
    }

    #[test]
    fn load_state_into_a_used_controller_resumes_identically() {
        // Restoring over a controller that already ran must drop every
        // memoized bank summary: the restored queues, rows and jobs have
        // nothing to do with the ones they were built from.
        let feed = |mc: &mut MemoryController, from: Cycle, to: Cycle, stride: u64| {
            for t in from..to {
                if t.is_multiple_of(7) && mc.can_accept(false) {
                    mc.enqueue(read(t, (t * stride) % 8192 * 64, t), t);
                }
                mc.tick(t);
                let _ = take_completions(mc);
            }
        };
        let (mut a, mut b) = (fig_mc(), fig_mc());
        feed(&mut a, 0, 3_000, 12_289);
        feed(&mut b, 0, 3_000, 7_919);
        let mut words = Vec::new();
        a.save_state(&mut words);
        b.load_state(&mut words.as_slice());
        feed(&mut a, 3_000, 6_000, 4_099);
        feed(&mut b, 3_000, 6_000, 4_099);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.dram_stats(), b.dram_stats());
        assert_eq!(a.engine_stats(), b.engine_stats());
        assert_eq!(a.next_event_at(6_000), b.next_event_at(6_000));
    }

    #[test]
    fn refresh_pending_horizon_is_always_finite() {
        // With refresh enabled the controller must never report "no
        // events" once the refresh deadline passed, whatever the bank
        // state — otherwise an event kernel would sleep through refresh.
        let mut mc = base_mc(true);
        let refi = u64::from(DramConfig::ddr4_paper_default().timing.refi);
        // Open a bank just before the deadline so the drain path (precharge
        // then refresh) engages.
        mc.enqueue(read(1, 0, refi - 2), refi - 2);
        for t in (refi - 2)..(refi + 400) {
            let h = mc.next_event_at(t);
            assert!(h.is_some(), "horizon vanished at {t} with refresh due");
            assert!(h.unwrap() >= t, "horizon in the past at {t}");
            mc.tick(t);
            let _ = take_completions(&mut mc);
        }
        assert_eq!(mc.dram_stats().refreshes, 1);
    }

    #[test]
    #[should_panic(expected = "queue full")]
    fn enqueue_past_capacity_panics() {
        let mut mc = base_mc(false);
        for i in 0..=64u64 {
            mc.enqueue(read(i, i * 64, 0), 0);
        }
    }
}
