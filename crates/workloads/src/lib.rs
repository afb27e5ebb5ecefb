//! # figaro-workloads — deterministic synthetic memory traces
//!
//! The paper evaluates FIGCache on Pin-collected traces of twenty
//! applications (SPEC CPU 2006, TPC, MediaBench, BioBench, and the Memory
//! Scheduling Championship; paper Table 2), twenty 8-core multiprogrammed
//! mixes (25/50/75/100% memory-intensive), and three multithreaded
//! programs. Those traces are not redistributable, so this crate provides
//! **parameterised synthetic generators** — one profile per named
//! benchmark — that reproduce the trace properties the evaluated
//! mechanisms are sensitive to:
//!
//! * **memory intensity** (non-memory instructions per memory operation →
//!   LLC misses per kilo-instruction),
//! * **row-buffer locality** (how many consecutive blocks a row visit
//!   touches — the paper's key observation is that this is *small*, so
//!   caching whole rows wastes in-DRAM cache space),
//! * **DRAM-level reuse** (a hot set of row *segments*, larger than the
//!   last-level cache, revisited across phases),
//! * **footprint** and **write fraction**.
//!
//! Traces are sequences of [`TraceOp`]s: `nonmem` non-memory instructions
//! followed by one memory access. Generation is fully deterministic given
//! a seed. Addresses are laid out so that one contiguous 8 kB page maps to
//! exactly one DRAM row under the paper's
//! `{row, rank, bankgroup, bank, channel, column}` interleaving, letting
//! profiles place "hot segments" in distinct rows spread across banks and
//! channels. Cores pull operations through [`TraceSource`]: a
//! [`TraceGenerator`] streams them (refilling a batch of a few hundred
//! ops at a time, whole bursts each), a [`Trace`] replays materialized
//! ones, and [`ArrivalSchedule`] paces either as an open-loop arrival
//! process. Every simulated application core streams from a generator;
//! a [`Trace`] is the replay source of tests' fixed op lists and of
//! idle loops.

pub mod apps;
pub mod arrival;
pub mod generator;
pub mod mixes;

pub use apps::{app_profiles, multithreaded_profiles, profile_by_name, AppProfile};
pub use arrival::{ArrivalKind, ArrivalSchedule};
pub use generator::{generate_trace, TraceGenerator};
pub use mixes::{eight_core_mixes, Mix, MixCategory};

/// One trace record: `nonmem` non-memory instructions, then a memory
/// access to `addr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Non-memory instructions executed before the access.
    pub nonmem: u32,
    /// Byte address of the access (block alignment is the consumer's job).
    pub addr: u64,
    /// Store (`true`) or load (`false`).
    pub is_write: bool,
}

/// A named, materialized instruction/memory trace: the replay source of
/// fixed op lists (tests, the seed goldens, idle loops).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Benchmark name the trace models.
    pub name: String,
    /// The operations, in program order.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// Fraction of memory operations that are writes.
    #[must_use]
    pub fn write_fraction(&self) -> f64 {
        if self.ops.is_empty() {
            return 0.0;
        }
        self.ops.iter().filter(|o| o.is_write).count() as f64 / self.ops.len() as f64
    }

    /// Turns the materialized trace into a streaming [`TraceSource`] that
    /// wraps around at the end (the classic trace-driven-core behavior).
    ///
    /// # Panics
    ///
    /// Panics on an empty trace (an op source must be infinite).
    #[must_use]
    pub fn into_source(self) -> TraceReplay {
        TraceReplay::new(self)
    }
}

/// A pull-based, **infinite** supplier of trace operations.
///
/// This is what a trace-driven core consumes: instead of materializing a
/// whole `Vec<TraceOp>` up front (whose length costs memory), a source
/// hands out one operation at a time from a bounded internal window — a
/// generator's current batch of whole bursts or a wrapped finite
/// [`Trace`].
/// Sources never end; finite backing stores wrap around.
/// Implementations must be deterministic: the same construction yields
/// the same op sequence, which is what keeps streaming runs
/// reproducible.
pub trait TraceSource: std::fmt::Debug + Send {
    /// Name of the workload the source models (reports, cache keys).
    fn name(&self) -> &str;

    /// The next operation in program order.
    fn next_op(&mut self) -> TraceOp;
}

/// [`TraceSource`] over a materialized [`Trace`], wrapping at the end.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: Trace,
    pos: usize,
}

impl TraceReplay {
    /// Wraps `trace` into an endless source.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace.
    #[must_use]
    pub fn new(trace: Trace) -> Self {
        assert!(!trace.ops.is_empty(), "trace must be non-empty");
        Self { trace, pos: 0 }
    }
}

impl TraceSource for TraceReplay {
    fn name(&self) -> &str {
        &self.trace.name
    }

    fn next_op(&mut self) -> TraceOp {
        let op = self.trace.ops[self.pos];
        self.pos = (self.pos + 1) % self.trace.ops.len();
        op
    }
}

impl TraceSource for TraceGenerator {
    fn name(&self) -> &str {
        self.profile_name()
    }

    fn next_op(&mut self) -> TraceOp {
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_fraction_counts_writes_among_memory_ops() {
        let t = Trace {
            name: "t".into(),
            ops: vec![
                TraceOp { nonmem: 3, addr: 0, is_write: false },
                TraceOp { nonmem: 0, addr: 64, is_write: true },
            ],
        };
        assert!((t.write_fraction() - 0.5).abs() < 1e-12);
    }
}
