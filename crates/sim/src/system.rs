//! The assembled full system and its clock loop(s).
//!
//! Two kernels drive the same component models (see [`Kernel`]):
//!
//! * [`Kernel::Reference`] ticks every core, the hierarchy router and
//!   every memory controller on every CPU/bus cycle — simple, and the
//!   equivalence oracle;
//! * [`Kernel::Event`] executes exactly the same per-cycle step, but only
//!   at cycles where some component can act, and within a step ticks only
//!   the cores that are due (see `CoreClocks`). Between events it
//!   advances the clock straight to the minimum component horizon
//!   (`next_event_at` on cores, hierarchy and controllers); each core
//!   batches the cycles it skipped into the per-cycle blocked counters
//!   (`window_full_cycles`, `stall_cycles`, MSHR-stall retry misses) when
//!   it is next touched, so the resulting [`RunStats`] are
//!   **bit-identical** to the reference.
//!
//! The invariant that makes this sound: between two ticks of a core
//! nothing changes its state except the batched counters, and every
//! component horizon is a lower bound on its next state change. A
//! skipped cycle's stall retry only counts misses, so settling it late
//! leaves every cache's lines and recency order exactly as the reference
//! kernel leaves them.

use std::collections::VecDeque;

use figaro_cpu::{CacheHierarchy, TraceCore};
use figaro_dram::AddressMapping;
use figaro_energy::{DramEnergyModel, SystemActivity, SystemEnergyModel};
use figaro_memctrl::{Completion, MemoryController, Request};
use figaro_workloads::{PageMapKind, PageMappedSource, PageMapper, Trace, TraceSource};

use crate::config::{Kernel, SystemConfig};
use crate::metrics::{ChannelStats, RunStats};
use crate::telemetry::{
    KernelProfile, SimTelemetry, PROF_COMPLETIONS, PROF_CONTROLLERS, PROF_CORES, PROF_HORIZON,
    PROF_MEMORY, PROF_ROUTER,
};

/// One memory channel: its controller plus the requests routed to it
/// that the controller had no queue room for yet.
#[derive(Debug)]
pub(crate) struct ChannelShard {
    /// The channel's controller (owns the DRAM channel model and the
    /// in-DRAM cache engine).
    pub(crate) mc: MemoryController,
    /// Requests routed to this channel that the controller had no queue
    /// room for, in arrival order (drains FIFO as room frees).
    backlog: VecDeque<Request>,
}

impl ChannelShard {
    fn new(mc: MemoryController) -> Self {
        Self { mc, backlog: VecDeque::new() }
    }

    /// Parks a routed request at the tail of the backlog.
    fn push_backlog(&mut self, req: Request) {
        self.backlog.push_back(req);
    }

    /// Drains the backlog head-first into the controller while it
    /// accepts, stamping arrival at `bus`; returns how many requests
    /// were accepted (the router's `backlog_len` bookkeeping).
    fn accept_backlog(&mut self, bus: u64) -> usize {
        let mut accepted = 0;
        while self.backlog_front_acceptable() {
            let Some(mut req) = self.backlog.pop_front() else { break };
            req.arrival = bus;
            self.mc.enqueue(req, bus);
            accepted += 1;
        }
        accepted
    }

    /// Whether the backlog's head request would be accepted right now
    /// (the event kernel's backlog horizon term).
    fn backlog_front_acceptable(&self) -> bool {
        self.backlog.front().is_some_and(|f| self.mc.can_accept(f.is_write))
    }
}

/// One runnable system: cores + hierarchy + one `ChannelShard` per
/// memory channel, walked in channel order.
#[derive(Debug)]
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) cores: Vec<TraceCore>,
    pub(crate) hierarchy: CacheHierarchy,
    pub(crate) shards: Vec<ChannelShard>,
    mapping: AddressMapping,
    /// Total entries across the shard backlogs (early-out for the
    /// router).
    backlog_len: usize,
    /// Reused completion scratch buffer (no per-bus-cycle allocation).
    completion_buf: Vec<Completion>,
    /// `log2(cpu_cycles_per_bus)` when it is a power of two: boundary
    /// checks then use mask/shift instead of a runtime div (hot path).
    bus_shift: Option<u32>,
    pub(crate) cpu_cycle: u64,
    /// Optional observability state (interval sampler + trace lanes).
    /// `None` on the default path: the kernels pay one `Option`
    /// discriminant test per executed cycle, nothing more, and the
    /// collected data never feeds back into simulation state.
    pub(crate) telemetry: Option<Box<SimTelemetry>>,
    /// Optional wall-clock kernel self-profile (`FIGARO_PROFILE=1` via
    /// diag). Result-neutral by the same argument as `telemetry`.
    pub(crate) profiler: Option<Box<KernelProfile>>,
}

/// The event kernel's per-core due set. A core is ticked only at its own
/// horizon or when an event touches it; every cycle in between would be
/// a batchable tick (blocked counters or full-width non-memory issue),
/// so the core settles those cycles lazily with
/// [`TraceCore::skip_cycles`] when it is next touched. Settling late
/// moves stall retries after other cores' accesses, which cannot matter:
/// a retry only counts misses and changes no line or recency order.
#[derive(Debug)]
struct CoreClocks {
    /// The cycle each core must next tick: its own `next_event_at`, or
    /// the current step when an event touched it (`u64::MAX` while it
    /// waits on an event).
    due: Vec<u64>,
    /// The first cycle each core has neither ticked nor skipped.
    synced: Vec<u64>,
}

impl CoreClocks {
    /// Every core due (and synced) at `now`, the run's first step.
    fn new(cores: usize, now: u64) -> Self {
        Self { due: vec![now; cores], synced: vec![now; cores] }
    }

    /// Settles core `i`'s skipped cycles before `to`.
    fn catch_up(
        &mut self,
        i: usize,
        to: u64,
        core: &mut TraceCore,
        hierarchy: &mut CacheHierarchy,
    ) {
        let from = self.synced[i];
        if to > from && !core.finished() {
            debug_assert!(to <= self.due[i], "core {i} skipped past its due cycle");
            core.skip_cycles(from - 1, to - from, hierarchy);
            self.synced[i] = to;
        }
    }
}

impl System {
    /// Builds a system running one trace per core; core `i` targets
    /// `targets[i]` retired instructions.
    ///
    /// # Panics
    ///
    /// Panics if the number of traces or targets does not match
    /// `cfg.cores` or the configuration is internally inconsistent.
    #[must_use]
    pub fn new(cfg: SystemConfig, traces: Vec<Trace>, targets: &[u64]) -> Self {
        let sources: Vec<Box<dyn TraceSource>> =
            traces.into_iter().map(|t| Box::new(t.into_source()) as Box<dyn TraceSource>).collect();
        Self::from_sources(cfg, sources, targets)
    }

    /// Builds a system whose cores pull operations from streaming
    /// [`TraceSource`]s — generators or trace-file replays — so run
    /// length never costs memory for a materialized trace.
    ///
    /// # Panics
    ///
    /// Panics if the number of sources or targets does not match
    /// `cfg.cores` or if `cfg` fails [`SystemConfig::validate`].
    #[must_use]
    pub fn from_sources(
        cfg: SystemConfig,
        sources: Vec<Box<dyn TraceSource>>,
        targets: &[u64],
    ) -> Self {
        assert_eq!(sources.len(), cfg.cores, "one trace source per core");
        assert_eq!(targets.len(), cfg.cores, "one instruction target per core");
        cfg.validate().expect("system config must validate");
        let dram = cfg.dram_config();
        // The router decodes with the same mapping kind the controllers
        // use — mismatched mappings would send requests to the wrong
        // channel (the controller asserts this on enqueue).
        let mapping = dram.address_mapping(cfg.mc.map);
        let shards: Vec<ChannelShard> = (0..cfg.channels)
            .map(|ch| {
                ChannelShard::new(MemoryController::new(&dram, cfg.mc, ch, cfg.build_engine(&dram)))
            })
            .collect();
        let hierarchy = CacheHierarchy::new(cfg.hierarchy, cfg.cores);
        // OS page-frame placement wraps every source; identity skips the
        // wrapper entirely so the default path stays byte-for-byte the
        // pre-subsystem one.
        let sources: Vec<Box<dyn TraceSource>> = if cfg.page_map == PageMapKind::Identity {
            sources
        } else {
            // The mapping's own address space (it was built over the
            // layout's regular rows), so the frame space can never
            // diverge from the row slice.
            let mapper = PageMapper::new(
                cfg.page_map,
                u64::from(dram.geometry.row_bytes),
                mapping.addr_space(),
            );
            sources
                .into_iter()
                .map(|s| Box::new(PageMappedSource::new(s, mapper)) as Box<dyn TraceSource>)
                .collect()
        };
        let space = mapping.addr_space();
        let cores: Vec<TraceCore> = sources
            .into_iter()
            .zip(targets)
            .enumerate()
            .map(|(i, (s, &target))| TraceCore::from_source(i, cfg.core, s, target, space))
            .collect();
        let bus_shift = cfg
            .cpu_cycles_per_bus
            .is_power_of_two()
            .then(|| cfg.cpu_cycles_per_bus.trailing_zeros());
        Self {
            cfg,
            cores,
            hierarchy,
            shards,
            mapping,
            backlog_len: 0,
            completion_buf: Vec::new(),
            bus_shift,
            cpu_cycle: 0,
            telemetry: None,
            profiler: None,
        }
    }

    /// Immutable access to the controllers (stats inspection), in
    /// channel order.
    pub fn controllers(&self) -> impl Iterator<Item = &MemoryController> {
        self.shards.iter().map(|s| &s.mc)
    }

    fn route_requests(&mut self, bus: u64) {
        // New requests from the hierarchy join the per-channel backlog...
        if self.hierarchy.has_outgoing() {
            for req in self.hierarchy.take_outgoing() {
                let ch = self.mapping.decode(req.addr).channel as usize;
                self.shards[ch].push_backlog(req);
                self.backlog_len += 1;
            }
        }
        if self.backlog_len == 0 {
            return;
        }
        // ...which drains in order while the controller accepts.
        for sh in &mut self.shards {
            self.backlog_len -= sh.accept_backlog(bus);
        }
    }

    /// `Some(bus index)` when `now` is a bus-cycle boundary (mask/shift
    /// when the divisor is a power of two — this is the hot path of both
    /// kernels).
    #[inline]
    fn bus_boundary(&self, now: u64, per_bus: u64) -> Option<u64> {
        match self.bus_shift {
            Some(s) => (now & ((1u64 << s) - 1) == 0).then(|| now >> s),
            None => now.is_multiple_of(per_bus).then(|| now / per_bus),
        }
    }

    /// One reference-kernel cycle: on bus boundaries route requests, tick
    /// the controllers and deliver completions; then tick every core.
    /// (The event kernel runs the same halves from `run_event`, fused
    /// with its horizon bookkeeping.)
    fn step(&mut self, now: u64, per_bus: u64, fill_latency: u64) {
        if let Some(bus) = self.bus_boundary(now, per_bus) {
            self.step_bus(bus, per_bus, fill_latency);
        }
        for core in &mut self.cores {
            core.tick(now, &mut self.hierarchy);
        }
    }

    /// The bus-boundary half of a reference step: route requests, tick
    /// every controller, deliver completions.
    fn step_bus(&mut self, bus: u64, per_bus: u64, fill_latency: u64) {
        self.route_requests(bus);
        self.tick_controllers(bus, false);
        self.deliver_completions(bus, per_bus, fill_latency, None);
    }

    /// The controller part of a bus step.
    ///
    /// With `event_mode`, a controller whose memoized horizon lies beyond
    /// this bus cycle is **not** ticked — its tick is a no-op by the
    /// horizon contract, so skipping the call cannot change behavior; the
    /// refreshed horizon doubles as the cache the event kernel reads.
    fn tick_controllers(&mut self, bus: u64, event_mode: bool) {
        if event_mode {
            for sh in &mut self.shards {
                // The controller memoizes its horizon, so this is a
                // cheap check when it has not acted since.
                if sh.mc.next_event_at(bus).is_some_and(|h| h <= bus) {
                    sh.mc.tick(bus);
                }
            }
        } else {
            for sh in &mut self.shards {
                sh.mc.tick(bus);
            }
        }
    }

    /// The completion-delivery part of a bus step.
    ///
    /// With `clocks` (the event kernel's due set), each completion first
    /// catches its core up to this cycle and marks it due now, and every
    /// core whose stall memo the fill unblocked is marked due now too.
    fn deliver_completions(
        &mut self,
        bus: u64,
        per_bus: u64,
        fill_latency: u64,
        mut clocks: Option<&mut CoreClocks>,
    ) {
        for ch in 0..self.shards.len() {
            if !self.shards[ch].mc.has_completions() {
                continue;
            }
            self.shards[ch].mc.drain_completions_into(&mut self.completion_buf);
            let now = bus * per_bus;
            for i in 0..self.completion_buf.len() {
                let c = self.completion_buf[i];
                let core = c.core as usize;
                if let Some(clocks) = clocks.as_deref_mut() {
                    clocks.catch_up(core, now, &mut self.cores[core], &mut self.hierarchy);
                    clocks.due[core] = now;
                }
                let ready_cpu = c.done_at * per_bus + fill_latency;
                for token in self.hierarchy.on_completion(c.id) {
                    self.cores[core].wake(token, ready_cpu);
                }
                if let Some(clocks) = clocks.as_deref_mut() {
                    self.hierarchy.take_unblocked(|u| {
                        clocks.due[u] = clocks.due[u].min(now);
                        now
                    });
                }
            }
            self.completion_buf.clear();
        }
    }

    /// Folds the hierarchy-routing, backlog and controller horizons into
    /// `next` (the minimum core horizon, computed by the caller in the
    /// same pass that checks for finished cores). Every cycle in
    /// `(now, result)` is a no-op apart from the blocked accounting that
    /// [`TraceCore::skip_cycles`] batches.
    fn component_horizon(&mut self, now: u64, mut next: u64) -> u64 {
        let per_bus = self.cfg.cpu_cycles_per_bus;
        // Pending hierarchy output routes at the next bus boundary...
        let boundary = (now / per_bus + 1) * per_bus;
        if next > boundary {
            if self.hierarchy.next_event_at(now, per_bus).is_some() {
                next = boundary;
            }
            // ...as does backlog the controllers now have room for.
            if self.backlog_len > 0 {
                for sh in &self.shards {
                    if sh.backlog_front_acceptable() {
                        next = next.min(boundary);
                    }
                }
            }
        }
        // Controller events land on bus boundaries, so they only matter
        // when nothing earlier is already scheduled (and staying lazy here
        // lets several invalidations coalesce into one recomputation).
        //
        // `bus * per_bus` deliberately omits the `fill_latency` term that
        // `step_bus` adds when waking a core (`done_at * per_bus +
        // fill_latency`), and that cannot under-sleep past a pending wake:
        // a completion never outlives the `step_bus` call of the bus cycle
        // that created it — `tick`/`enqueue` produce it and the drain loop
        // in the same call consumes it, calling `wake` immediately (a
        // controller with an undrained completion would pin
        // `next_event_at(from) == Some(from)` anyway, making this horizon
        // conservative, never late). The wake stamps the *future*
        // fill-inclusive ready time into the core's load window, and from
        // then on the core's own `next_event_at` — folded into `next`
        // before this block — covers that cycle. So every fill-latency
        // deadline is owned by a core horizon, and the controller horizon
        // only needs to reach the bus boundary where the completion (and
        // its wake) happen.
        if next > boundary {
            let from_bus = now / per_bus + 1;
            for sh in &mut self.shards {
                if let Some(bus) = sh.mc.next_event_at(from_bus) {
                    next = next.min(bus.saturating_mul(per_bus));
                }
            }
        }
        next
    }

    /// Runs until every core finishes or `max_cpu_cycles` elapse; returns
    /// the collected statistics. The kernel comes from
    /// [`SystemConfig::kernel`]; both produce bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics when a core pulls an op whose address is not below the
    /// DRAM address space ([`figaro_dram::AddressMapping::addr_space`]),
    /// with a message naming the core, the address and the space.
    pub fn run(&mut self, max_cpu_cycles: u64) -> RunStats {
        let stats = match self.cfg.kernel {
            Kernel::Reference => self.run_reference(max_cpu_cycles),
            Kernel::Event => self.run_event(max_cpu_cycles),
        };
        // Lands the final reconciliation sample and writes the merged
        // Chrome trace; a no-op (single `is_none` test) when telemetry
        // is off.
        self.telemetry_finish();
        stats
    }

    /// The configuration this system was built from.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The CPU cycle the system has advanced to (`run` resumes here).
    #[must_use]
    pub fn cpu_cycle(&self) -> u64 {
        self.cpu_cycle
    }

    /// The original per-cycle clock loop ([`Kernel::Reference`]).
    fn run_reference(&mut self, max_cpu_cycles: u64) -> RunStats {
        let per_bus = self.cfg.cpu_cycles_per_bus;
        let fill_latency = u64::from(self.cfg.hierarchy.fill_latency);
        while self.cores.iter().any(|c| !c.finished()) && self.cpu_cycle < max_cpu_cycles {
            self.maybe_sample(self.cpu_cycle);
            self.step(self.cpu_cycle, per_bus, fill_latency);
            self.cpu_cycle += 1;
        }
        self.collect()
    }

    /// Next-event time skipping ([`Kernel::Event`]): execute the same
    /// per-cycle step as the reference kernel, but only at event cycles,
    /// and tick only the cores due at each; skipped cycles are folded into
    /// the blocked counters.
    ///
    /// An executed step ticks only the cores in the due set (see
    /// [`CoreClocks`]); every other core's tick would be a batchable
    /// no-op, so it catches up with [`TraceCore::skip_cycles`] just
    /// before an event touches it, before a telemetry sample, and at
    /// run end.
    fn run_event(&mut self, max_cpu_cycles: u64) -> RunStats {
        let per_bus = self.cfg.cpu_cycles_per_bus;
        let fill_latency = u64::from(self.cfg.hierarchy.fill_latency);
        // Only live cores are ticked/skipped: a finished core's tick is a
        // no-op in the reference loop, so dropping the visit (and the
        // cache traffic of touching its state) cannot change behavior.
        // Wakes for its still-in-flight loads go through `wake`, not tick.
        let mut live: Vec<usize> =
            (0..self.cores.len()).filter(|&i| !self.cores[i].finished()).collect();
        let mut clocks = CoreClocks::new(self.cores.len(), self.cpu_cycle);
        while !live.is_empty() && self.cpu_cycle < max_cpu_cycles {
            let now = self.cpu_cycle;
            if now >= self.telemetry_next_sample() {
                for &i in &live {
                    clocks.catch_up(i, now, &mut self.cores[i], &mut self.hierarchy);
                }
                self.maybe_sample(now);
            }
            if let Some(bus) = self.bus_boundary(now, per_bus) {
                // `step_bus`, with the profiler's memory splits between
                // its three parts.
                self.route_requests(bus);
                self.profile_split(PROF_ROUTER);
                self.tick_controllers(bus, true);
                self.profile_split(PROF_CONTROLLERS);
                self.deliver_completions(bus, per_bus, fill_latency, Some(&mut clocks));
                self.profile_split(PROF_COMPLETIONS);
            }
            if let Some(p) = &mut self.profiler {
                p.clock.lap(PROF_MEMORY);
            }
            // Tick the due cores in index order, exactly as the reference
            // step does after the bus half.
            let mut k = 0;
            while k < live.len() {
                let i = live[k];
                if clocks.due[i] > now {
                    k += 1;
                    continue;
                }
                let core = &mut self.cores[i];
                clocks.catch_up(i, now, core, &mut self.hierarchy);
                core.tick(now, &mut self.hierarchy);
                clocks.synced[i] = now + 1;
                // A dirty victim this tick pushed into the LLC may have
                // unblocked another core: in the reference order a higher
                // index sees it this cycle, a lower one the next.
                self.hierarchy.take_unblocked(|u| {
                    let at = if u > i { now } else { now + 1 };
                    clocks.due[u] = clocks.due[u].min(at);
                    at
                });
                if core.finished() {
                    live.remove(k);
                    continue;
                }
                clocks.due[i] = core.next_event_at(now).unwrap_or(u64::MAX);
                k += 1;
            }
            if let Some(p) = &mut self.profiler {
                p.clock.lap(PROF_CORES);
            }
            self.cpu_cycle += 1;
            if live.is_empty() {
                break; // the reference loop's exact exit cycle
            }
            let next = live.iter().map(|&i| clocks.due[i]).fold(max_cpu_cycles, u64::min);
            // An active core ticks next cycle; nothing can be earlier.
            if next <= now + 1 {
                continue;
            }
            let next = self.component_horizon(now, next).clamp(now + 1, max_cpu_cycles);
            self.profile_split(PROF_HORIZON);
            // Execute the next sample boundary instead of jumping it: an
            // extra executed cycle below the horizon is a no-op by the
            // skip contract, so the clamp keeps results bit-identical
            // while making every kernel sample at exactly k·interval.
            self.cpu_cycle = next.min(self.telemetry_next_sample());
        }
        for &i in &live {
            clocks.catch_up(i, self.cpu_cycle, &mut self.cores[i], &mut self.hierarchy);
        }
        self.collect()
    }

    fn collect(&self) -> RunStats {
        let mut mc = figaro_memctrl::McStats::default();
        let mut dram = figaro_dram::DramStats::default();
        let mut cache = figaro_core::CacheStats::default();
        let mut per_channel = Vec::with_capacity(self.shards.len());
        for m in self.shards.iter().map(|s| &s.mc) {
            let s = m.stats();
            per_channel.push(ChannelStats {
                row_hits: s.row_hits,
                row_misses: s.row_misses,
                row_conflicts: s.row_conflicts,
                reads_served: s.reads_served,
                writes_served: s.writes_served,
                read_q_peak: s.read_q_peak,
                write_q_peak: s.write_q_peak,
            });
            mc.merge_from(m.stats());
            dram.merge_from(m.dram_stats());
            let e = m.engine_stats();
            cache.lookups += e.lookups;
            cache.hits += e.hits;
            cache.hits_bypassed += e.hits_bypassed;
            cache.misses += e.misses;
            cache.uncacheable += e.uncacheable;
            cache.insertions += e.insertions;
            cache.insertions_skipped += e.insertions_skipped;
            cache.insertions_cancelled += e.insertions_cancelled;
            cache.evictions_clean += e.evictions_clean;
            cache.evictions_dirty += e.evictions_dirty;
            cache.blocks_relocated += e.blocks_relocated;
        }
        let hierarchy = self.hierarchy.stats();
        let finish_cycles: Vec<u64> =
            self.cores.iter().map(|c| c.finished_at().unwrap_or(self.cpu_cycle)).collect();
        let instructions: Vec<u64> = self.cores.iter().map(TraceCore::retired).collect();
        let bus_cycles = self.cpu_cycle / self.cfg.cpu_cycles_per_bus;
        let dram_energy =
            DramEnergyModel::ddr4_1600().breakdown(&dram, bus_cycles, u64::from(self.cfg.channels));
        let activity = SystemActivity {
            cores: self.cfg.cores as u32,
            cpu_cycles: self.cpu_cycle,
            instructions: instructions.iter().sum(),
            l1_accesses: hierarchy.l1.iter().map(|c| c.accesses).sum(),
            l2_accesses: hierarchy.l2.iter().map(|c| c.accesses).sum(),
            llc_accesses: hierarchy.llc.accesses,
            offchip_bytes: (mc.reads_served + mc.writes_served) * 64,
            llc_mb: self.cfg.hierarchy.llc.size_bytes as f64 / (1024.0 * 1024.0),
            dram: dram_energy,
        };
        let energy = SystemEnergyModel::paper_default().breakdown(&activity);
        RunStats {
            cpu_cycles: self.cpu_cycle,
            finish_cycles,
            instructions,
            cores: self.cores.iter().map(TraceCore::stats).collect(),
            mc,
            dram,
            cache,
            per_channel,
            hierarchy,
            energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigKind;
    use figaro_cpu::SetAssocCache;
    use figaro_dram::MapKind;
    use figaro_workloads::{generate_trace, profile_by_name, TraceOp};

    /// A run's stats and the final state of every cache level.
    type Outcome = (RunStats, Vec<SetAssocCache>);

    fn run_to_end(mut sys: System, max_cpu_cycles: u64) -> Outcome {
        let stats = sys.run(max_cpu_cycles);
        (stats, sys.hierarchy.caches().cloned().collect())
    }

    /// The kernels agree on the stats and on every cache's lines, recency
    /// order and counters: the caches keep no clock, so their state
    /// depends on the order of accesses and fills alone.
    fn assert_kernels_agree(reference: &Outcome, event: &Outcome, what: &str) {
        assert_eq!(reference.0, event.0, "kernel divergence {what}");
        assert!(reference.1 == event.1, "cache state divergence {what}");
    }

    fn run_one(kind: ConfigKind) -> RunStats {
        let profile = profile_by_name("mcf").unwrap();
        let trace = generate_trace(&profile, 30_000, 42);
        let cfg = SystemConfig::paper(1, kind);
        let mut sys = System::new(cfg, vec![trace], &[60_000]);
        sys.run(60_000_000)
    }

    fn run_with_kernel(kind: ConfigKind, kernel: Kernel, cores: usize, insts: u64) -> Outcome {
        let apps = ["mcf", "lbm", "zeusmp", "libquantum"];
        let traces: Vec<Trace> = (0..cores)
            .map(|i| {
                let p = profile_by_name(apps[i % apps.len()]).unwrap();
                generate_trace(&p, 8_000, 7 + i as u64)
            })
            .collect();
        let cfg = SystemConfig { kernel, ..SystemConfig::paper(cores, kind) };
        run_to_end(System::new(cfg, traces, &vec![insts; cores]), insts * 400)
    }

    #[test]
    fn event_kernel_matches_reference_across_figure78_configs() {
        let mut kinds = vec![ConfigKind::Base];
        kinds.extend(ConfigKind::figure78_set());
        for kind in kinds {
            let reference = run_with_kernel(kind.clone(), Kernel::Reference, 1, 30_000);
            let event = run_with_kernel(kind.clone(), Kernel::Event, 1, 30_000);
            assert_kernels_agree(&reference, &event, &format!("under {}", kind.label()));
        }
    }

    #[test]
    fn event_kernel_matches_reference_multicore_multichannel() {
        for cores in [2usize, 4] {
            let reference =
                run_with_kernel(ConfigKind::FigCacheFast, Kernel::Reference, cores, 12_000);
            let event = run_with_kernel(ConfigKind::FigCacheFast, Kernel::Event, cores, 12_000);
            assert_kernels_agree(&reference, &event, &format!("with {cores} cores"));
        }
    }

    #[test]
    fn event_kernel_matches_reference_at_cycle_cap() {
        // A run truncated by `max_cpu_cycles` must stop at the identical
        // cycle (unfinished cores report the cap in `finish_cycles`).
        let reference = {
            let profile = profile_by_name("mcf").unwrap();
            let trace = generate_trace(&profile, 30_000, 9);
            let cfg = SystemConfig {
                kernel: Kernel::Reference,
                ..SystemConfig::paper(1, ConfigKind::Base)
            };
            run_to_end(System::new(cfg, vec![trace], &[1_000_000]), 50_000)
        };
        let event = {
            let profile = profile_by_name("mcf").unwrap();
            let trace = generate_trace(&profile, 30_000, 9);
            let cfg =
                SystemConfig { kernel: Kernel::Event, ..SystemConfig::paper(1, ConfigKind::Base) };
            run_to_end(System::new(cfg, vec![trace], &[1_000_000]), 50_000)
        };
        assert_eq!(reference.0.cpu_cycles, 50_000);
        assert_kernels_agree(&reference, &event, "at the cycle cap");
    }

    #[test]
    fn event_kernel_matches_reference_with_saturated_channel_backlog() {
        // Regression for the backlog path: shrink one channel's queues so
        // `route_requests` parks requests in the per-channel backlog, and
        // raise the per-core MSHRs so four pointer-chasing cores keep the
        // queue pinned at capacity. The event kernel's horizon must
        // include the cycle the queue frees — any time-jump past the
        // drain point diverges from the reference (and would starve the
        // backlogged requests).
        let run = |kernel: Kernel| {
            let apps = ["mcf", "com", "tigr", "mum"];
            let traces: Vec<Trace> = apps
                .iter()
                .enumerate()
                .map(|(i, n)| generate_trace(&profile_by_name(n).unwrap(), 8_000, 31 + i as u64))
                .collect();
            let mut cfg = SystemConfig { kernel, ..SystemConfig::paper(4, ConfigKind::Base) };
            cfg.channels = 1; // every request contends for one controller
            cfg.mc.read_queue_cap = 4;
            cfg.mc.write_queue_cap = 4;
            cfg.mc.wq_high = 3;
            cfg.mc.wq_low = 1;
            cfg.hierarchy.mshrs_per_core = 16;
            run_to_end(System::new(cfg, traces, &[10_000; 4]), 40_000_000)
        };
        let reference = run(Kernel::Reference);
        let event = run(Kernel::Event);
        assert_kernels_agree(&reference, &event, "under backlog saturation");
        for core in 0..4 {
            assert_eq!(reference.0.instructions[core], 10_000, "core {core} starved");
        }
        // The shape must actually have exercised the backlog: with 64
        // outstanding misses possible and 4 queue slots, far more requests
        // were enqueued than fit at once.
        assert!(reference.0.mc.enq_reads > 100, "workload must stress the queue");
    }

    #[test]
    fn event_kernel_matches_reference_with_nondefault_fill_and_bus_ratio() {
        // Regression for the `component_horizon` fill-latency audit: the
        // controller horizon is `bus * per_bus` with no `fill_latency`
        // term (see the proof comment there), and the proof leans on the
        // wake's fill-inclusive ready stamp being covered by a *core*
        // horizon. Stress it where the two clocks interact most — the
        // backlog-saturation shape with a non-default fill latency and a
        // non-power-of-two CPU:bus ratio (exercising the division paths)
        // — where any under-sleep past a wake diverges from the
        // reference.
        let run = |kernel: Kernel| {
            let apps = ["mcf", "com", "tigr", "mum"];
            let traces: Vec<Trace> = apps
                .iter()
                .enumerate()
                .map(|(i, n)| generate_trace(&profile_by_name(n).unwrap(), 8_000, 47 + i as u64))
                .collect();
            let mut cfg = SystemConfig { kernel, ..SystemConfig::paper(4, ConfigKind::Base) };
            cfg.channels = 1;
            cfg.mc.read_queue_cap = 4;
            cfg.mc.write_queue_cap = 4;
            cfg.mc.wq_high = 3;
            cfg.mc.wq_low = 1;
            cfg.hierarchy.mshrs_per_core = 16;
            cfg.hierarchy.fill_latency = 23; // default is much smaller
            cfg.cpu_cycles_per_bus = 5; // non-power-of-two ratio
            run_to_end(System::new(cfg, traces, &[10_000; 4]), 40_000_000)
        };
        let reference = run(Kernel::Reference);
        let event = run(Kernel::Event);
        assert_kernels_agree(&reference, &event, "with fill_latency=23, per_bus=5");
        for core in 0..4 {
            assert_eq!(reference.0.instructions[core], 10_000, "core {core} starved");
        }
        assert!(reference.0.mc.enq_reads > 100, "workload must stress the queue");
    }

    #[test]
    fn event_kernel_matches_reference_with_saturated_figcache_channels() {
        // Both backlog paths at once on more than one channel: 4-entry
        // queues keep both per-channel backlogs pinned, FIGCache
        // relocation jobs compete with demand traffic, and the CPU:bus
        // ratio and fill latency are non-default.
        let run = |kernel: Kernel| {
            let apps = ["mcf", "com", "tigr", "mum"];
            let traces: Vec<Trace> = apps
                .iter()
                .enumerate()
                .map(|(i, n)| generate_trace(&profile_by_name(n).unwrap(), 8_000, 61 + i as u64))
                .collect();
            let mut cfg =
                SystemConfig { kernel, ..SystemConfig::paper(4, ConfigKind::FigCacheFast) };
            cfg.channels = 2;
            cfg.mc.read_queue_cap = 4;
            cfg.mc.write_queue_cap = 4;
            cfg.mc.wq_high = 3;
            cfg.mc.wq_low = 1;
            cfg.hierarchy.mshrs_per_core = 16;
            cfg.hierarchy.fill_latency = 23;
            cfg.cpu_cycles_per_bus = 5;
            run_to_end(System::new(cfg, traces, &[10_000; 4]), 40_000_000)
        };
        let reference = run(Kernel::Reference);
        let event = run(Kernel::Event);
        assert_kernels_agree(&reference, &event, "on saturated FIGCache channels");
        for core in 0..4 {
            assert_eq!(reference.0.instructions[core], 10_000, "core {core} starved");
        }
        assert!(reference.0.mc.enq_reads > 100, "workload must stress the queue");
    }

    #[test]
    fn streaming_sources_match_materialized_traces_end_to_end() {
        // A full system driven by generator sources must be bit-identical
        // to the same system driven by (non-wrapping) materialized traces
        // of those generators.
        use figaro_workloads::{TraceGenerator, TraceSource};
        let apps = ["mcf", "lbm"];
        let cfg = || SystemConfig::paper(2, ConfigKind::FigCacheFast);
        let materialized = {
            let traces: Vec<Trace> = apps
                .iter()
                .map(|n| generate_trace(&profile_by_name(n).unwrap(), 60_000, 5))
                .collect();
            let mut sys = System::new(cfg(), traces, &[12_000; 2]);
            sys.run(10_000_000)
        };
        let streamed = {
            let sources: Vec<Box<dyn TraceSource>> = apps
                .iter()
                .map(|n| {
                    Box::new(TraceGenerator::new(&profile_by_name(n).unwrap(), 5))
                        as Box<dyn TraceSource>
                })
                .collect();
            let mut sys = System::from_sources(cfg(), sources, &[12_000; 2]);
            sys.run(10_000_000)
        };
        assert_eq!(materialized, streamed);
    }

    #[test]
    fn recorded_run_replays_bit_identically() {
        // Record a streaming run's op stream to the compact on-disk
        // format, then drive a fresh system from the file: RunStats must
        // round-trip bit-for-bit.
        use figaro_workloads::{FileReplay, RecordingSource, TraceGenerator};
        let p = profile_by_name("zeusmp").unwrap();
        let path = std::env::temp_dir().join(format!("figaro-replay-{}.figt", std::process::id()));
        let cfg = || SystemConfig::paper(1, ConfigKind::FigCacheFast);
        let recorded = {
            let rec = RecordingSource::create(TraceGenerator::new(&p, 21), &path)
                .expect("create recording");
            let mut sys = System::from_sources(cfg(), vec![Box::new(rec)], &[20_000]);
            sys.run(10_000_000)
            // Dropping the system flushes the recording via the buffered
            // writer's Drop.
        };
        let replayed = {
            let src = FileReplay::open(&path).expect("open recording");
            let mut sys = System::from_sources(cfg(), vec![Box::new(src)], &[20_000]);
            sys.run(10_000_000)
        };
        assert_eq!(recorded, replayed, "record → replay must be bit-identical");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn profile_report_splits_the_memory_bucket_without_changing_results() {
        let run = |profile: bool| {
            let traces = (0..2)
                .map(|i| generate_trace(&profile_by_name("mcf").unwrap(), 8_000, 3 + i))
                .collect();
            let cfg = SystemConfig {
                kernel: Kernel::Event,
                ..SystemConfig::paper(2, ConfigKind::FigCacheFast)
            };
            let mut sys = System::new(cfg, traces, &[20_000, 20_000]);
            if profile {
                sys.enable_profiling();
            }
            let stats = sys.run(20_000_000);
            (stats, sys.profile().map(KernelProfile::report), sys.controller_counters())
        };
        let (plain, none, no_counters) = run(false);
        let (profiled, report, counters) = run(true);
        assert!(none.is_none() && no_counters.is_none());
        assert_eq!(plain, profiled, "profiling must be result-neutral");
        let c = counters.expect("profiling switches the controller counters on");
        assert!(c.ticks_issued > 0 && c.ticks_issued <= c.ticks, "{c:?}");
        assert!(c.horizon_recomputes > 0 && c.banks_rebuilt > 0, "{c:?}");
        let report = report.expect("profiling was enabled");
        let labels: Vec<&str> =
            report[1..].iter().map(|l| l.split_whitespace().next().unwrap()).collect();
        assert_eq!(labels, ["memory", "horizon", "router", "controllers", "completions", "cores"]);
        // (share %, laps) of each line; splits are indented under memory.
        let parse = |l: &String| {
            let mut w = l.split_whitespace().skip(1);
            let pct: f64 = w.next().unwrap().parse().unwrap();
            let laps: u64 =
                l.split('(').nth(1).unwrap().split_whitespace().next().unwrap().parse().unwrap();
            (pct, laps)
        };
        let lines: Vec<(f64, u64)> = report[1..].iter().map(parse).collect();
        let (memory, cores) = (lines[0], lines[5]);
        assert_eq!(memory.1, cores.1, "one memory and one core lap per executed step");
        assert!(memory.1 > 0);
        let split_share: f64 = lines[1..5].iter().map(|l| l.0).sum();
        assert!(split_share <= memory.0 + 0.5, "splits partition the memory bucket: {report:?}");
        assert!(lines[1..5].iter().all(|l| l.1 > 0 && l.1 <= memory.1), "{report:?}");
        assert!(report[2].starts_with("    "), "splits are indented under memory");
    }

    #[test]
    #[should_panic(expected = "system config must validate")]
    fn from_sources_rejects_an_invalid_config() {
        // Without MSHRs the first load could never issue: the run would
        // spin silently to the cycle cap.
        let mut cfg = SystemConfig::paper(1, ConfigKind::Base);
        cfg.hierarchy.mshrs_per_core = 0;
        let trace = generate_trace(&profile_by_name("mcf").unwrap(), 1_000, 1);
        let _ = System::new(cfg, vec![trace], &[1_000]);
    }

    #[test]
    fn an_address_outside_the_dram_space_fails_where_the_core_pulls_it() {
        // One 4 GiB channel: 1 << 40 lies far above it, and before the
        // check it failed deep in the model (a row out of range under
        // the paper mapping, an index out of bounds under rowint).
        for map in ["paper", "rowint"] {
            let cfg = SystemConfig::paper(1, ConfigKind::Base)
                .with_mapping(MapKind::from_name(map).expect("a known mapping"));
            let trace = Trace {
                name: "far".into(),
                ops: vec![TraceOp { nonmem: 2, addr: 1 << 40, is_write: false }],
            };
            let mut sys = System::new(cfg, vec![trace], &[1_000]);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.run(10_000)))
                .expect_err("the address must be rejected");
            let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
            assert_eq!(
                msg,
                "core 0: address 0x10000000000 is outside the 0x100000000-byte DRAM address space",
                "{map}"
            );
        }
    }

    #[test]
    fn base_system_completes_and_reports() {
        let s = run_one(ConfigKind::Base);
        assert_eq!(s.instructions[0], 60_000);
        assert!(s.ipc(0) > 0.01 && s.ipc(0) < 3.0, "ipc {}", s.ipc(0));
        assert!(s.dram.reads > 0);
        assert!(s.mc.row_hits + s.mc.row_misses + s.mc.row_conflicts > 0);
        assert!(s.energy.total() > 0.0);
    }

    #[test]
    fn figcache_fast_relocates_and_hits() {
        let s = run_one(ConfigKind::FigCacheFast);
        assert!(s.dram.relocs > 0, "FIGCache must issue RELOCs");
        assert!(s.cache.hits > 0, "FIGCache should get cache hits");
    }

    #[test]
    fn lisa_villa_clones_rows() {
        let s = run_one(ConfigKind::LisaVilla);
        assert!(s.dram.lisa_clones > 0);
    }

    #[test]
    fn ideal_figcache_issues_no_relocs() {
        let s = run_one(ConfigKind::FigCacheIdeal);
        assert_eq!(s.dram.relocs, 0);
        assert!(s.cache.hits > 0);
    }

    #[test]
    fn mcf_is_memory_intensive_on_this_hierarchy() {
        let s = run_one(ConfigKind::Base);
        assert!(s.mpki(0) > 10.0, "mcf MPKI = {}", s.mpki(0));
    }

    #[test]
    fn eight_core_system_runs() {
        let apps: Vec<_> = ["mcf", "lbm", "zeusmp", "libquantum", "gcc", "sjeng", "grep", "bzip2"]
            .iter()
            .map(|n| profile_by_name(n).unwrap())
            .collect();
        let traces: Vec<Trace> = apps
            .iter()
            .enumerate()
            .map(|(i, p)| generate_trace(p, 8_000, 100 + i as u64))
            .collect();
        let cfg = SystemConfig::paper(8, ConfigKind::FigCacheFast);
        let mut sys = System::new(cfg, traces, &[15_000; 8]);
        let s = sys.run(50_000_000);
        for core in 0..8 {
            assert_eq!(s.instructions[core], 15_000, "core {core} must finish");
        }
        assert!(s.dram.relocs > 0);
    }
}
