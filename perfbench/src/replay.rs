//! The layer replay: the one place the benchmark drives the layers
//! itself, so each layer's public calls can be timed from outside.
//!
//! The first replay feeds the workload's generated operations through
//! `CacheHierarchy::access`, routes `take_outgoing` by
//! `AddressMapping::decode` to `MemoryController`s whose engines (built by
//! `SystemConfig::build_engine`) sit in a timing wrapper, advances the
//! controllers with `next_event_at` and `tick`, and returns completions
//! through `on_completion`. There is no core model: each core offers up
//! to one access per CPU cycle and retries an access the MSHRs refuse.
//! The second replay sends the request stream the controllers accepted
//! through a bare `DramChannel`, one request at a time, with
//! `earliest_issue` and `issue`.

use std::collections::VecDeque;
use std::sync::Arc;

use figaro_cpu::{Access, CacheHierarchy};
use figaro_dram::channel::ILLEGAL;
use figaro_dram::{DramChannel, DramCommand, PhysAddr};
use figaro_memctrl::{Completion, MemoryController, Request};
use figaro_workloads::TraceOp;

use crate::timing::{EngineSpans, Span, TimedEngine};
use crate::workload::Workload;

/// Spans one replay produced.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// `CacheHierarchy::access`.
    pub access: Span,
    /// `CacheHierarchy::on_completion`.
    pub on_completion: Span,
    /// `MemoryController::enqueue`.
    pub enqueue: Span,
    /// `MemoryController::tick`.
    pub tick: Span,
    /// `MemoryController::next_event_at`.
    pub next_event_at: Span,
    /// `MemoryController::drain_completions_into`.
    pub drain: Span,
    /// The cache-engine calls the controllers made.
    pub engine: Arc<EngineSpans>,
    /// `DramChannel::earliest_issue` (second replay).
    pub earliest_issue: Span,
    /// `DramChannel::issue` (second replay).
    pub issue: Span,
}

/// Largest request stream kept for the DRAM replay.
const DRAM_STREAM_CAP: usize = 400_000;
/// Bus cycles the replay may spend draining after the last access.
const DRAIN_LIMIT: u64 = 50_000_000;

/// Runs both replays for `w` on workload seed `seed`. Returns the spans
/// and the problems found (a replay that cannot drain, or a command the
/// channel calls illegal, is a failed run).
pub fn run(w: &Workload, seed: u64) -> (ReplayReport, Vec<String>) {
    let mut rep = ReplayReport::default();
    let mut problems = Vec::new();
    let stream = replay_hierarchy(w, seed, &mut rep, &mut problems);
    replay_dram(w, &stream, &mut rep, &mut problems);
    (rep, problems)
}

fn replay_hierarchy(
    w: &Workload,
    seed: u64,
    rep: &mut ReplayReport,
    problems: &mut Vec<String>,
) -> Vec<(PhysAddr, bool)> {
    let cfg = &w.cfg;
    let per_bus = cfg.cpu_cycles_per_bus;
    let dram = cfg.dram_config();
    let mapping = dram.address_mapping(cfg.mc.map);
    let mut hier = CacheHierarchy::new(cfg.hierarchy, cfg.cores);
    let mut mcs: Vec<MemoryController> = (0..cfg.channels)
        .map(|ch| {
            let engine = TimedEngine::new(cfg.build_engine(&dram), rep.engine.clone());
            MemoryController::new(&dram, cfg.mc, ch, Box::new(engine))
        })
        .collect();
    let mut backlog: Vec<VecDeque<Request>> = vec![VecDeque::new(); mcs.len()];
    let mut sources = w.sources(seed);
    let mut retry: Vec<Option<TraceOp>> = vec![None; cfg.cores];
    let mut issued = vec![0u64; cfg.cores];
    let mut stream = Vec::new();
    let mut done_buf: Vec<Completion> = Vec::new();
    let mut bus = 0u64;
    let mut drain_from = None;
    loop {
        let now = bus * per_bus;
        for core in 0..cfg.cores {
            for _ in 0..per_bus {
                if issued[core] >= w.replay_ops_per_core {
                    break;
                }
                let op = retry[core].take().unwrap_or_else(|| sources[core].next_op());
                let r = rep.access.time(|| hier.access(core, op.addr, op.is_write, now));
                if r == Access::Stall {
                    retry[core] = Some(op);
                    break;
                }
                issued[core] += 1;
            }
        }
        for req in hier.take_outgoing() {
            let ch = mapping.decode(req.addr).channel as usize;
            backlog[ch].push_back(req);
        }
        for (mc, queue) in mcs.iter_mut().zip(&mut backlog) {
            while queue.front().is_some_and(|r| mc.can_accept(r.is_write)) {
                let mut req = queue.pop_front().expect("front exists");
                req.arrival = bus;
                if stream.len() < DRAM_STREAM_CAP {
                    stream.push((req.addr, req.is_write));
                }
                rep.enqueue.time(|| mc.enqueue(req, bus));
            }
            let due = rep.next_event_at.time(|| mc.next_event_at(bus)).is_some_and(|h| h <= bus);
            if due {
                rep.tick.time(|| mc.tick(bus));
            }
            if mc.has_completions() {
                rep.drain.time(|| mc.drain_completions_into(&mut done_buf));
                for c in done_buf.drain(..) {
                    rep.on_completion.time(|| hier.on_completion(c.id));
                }
            }
        }
        bus += 1;
        if issued.iter().all(|&n| n >= w.replay_ops_per_core) {
            let start = *drain_from.get_or_insert(bus);
            let quiet = !hier.has_outgoing()
                && backlog.iter().all(VecDeque::is_empty)
                && mcs.iter().all(MemoryController::is_idle);
            if quiet {
                break;
            }
            if bus - start > DRAIN_LIMIT {
                problems.push(format!("replay did not drain within {DRAIN_LIMIT} bus cycles"));
                break;
            }
        }
    }
    stream
}

fn replay_dram(
    w: &Workload,
    stream: &[(PhysAddr, bool)],
    rep: &mut ReplayReport,
    problems: &mut Vec<String>,
) {
    let dram = w.cfg.dram_config();
    let mapping = dram.address_mapping(w.cfg.mc.map);
    let mut channel = DramChannel::new(&dram);
    let mut now = 0;
    for &(addr, is_write) in stream {
        let loc = mapping.decode(addr);
        let bank = loc.bank_addr();
        let mut cmds = Vec::with_capacity(3);
        match channel.open_row(bank) {
            Some(open) if open == loc.row => {}
            Some(_) => {
                cmds.push(DramCommand::Precharge);
                cmds.push(DramCommand::Activate { row: loc.row });
            }
            None => cmds.push(DramCommand::Activate { row: loc.row }),
        }
        cmds.push(if is_write {
            DramCommand::Write { col: loc.col, auto_pre: false }
        } else {
            DramCommand::Read { col: loc.col, auto_pre: false }
        });
        for cmd in &cmds {
            let at = rep.earliest_issue.time(|| channel.earliest_issue(bank, cmd, now));
            if at == ILLEGAL {
                problems.push(format!("DRAM replay: {cmd:?} illegal on {bank:?} at {now}"));
                return;
            }
            rep.issue.time(|| channel.issue(bank, cmd, at));
            now = at;
        }
    }
}
