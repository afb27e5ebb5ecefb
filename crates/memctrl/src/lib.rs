//! # figaro-memctrl — modular memory controller with in-DRAM cache hooks
//!
//! One [`MemoryController`] drives one DRAM channel. The crate is split
//! into four modules, one per concern:
//!
//! | Module | Owns |
//! |---|---|
//! | [`queues`] | per-bank **indexed** transaction queues (intrusive FIFO + per-bank lists, O(1) bank occupancy) |
//! | [`bank`] | per-bank state: the relocation-job slot, and the memoized [`BankSummary`](bank::BankSummary)s, dense horizon terms and bank masks the tick and the event horizon share |
//! | [`scheduler`] | the [`SchedPolicyKind`] (FR-FCFS or FCFS) and the demand selection algorithm |
//! | [`controller`] | queue admission, write drain, refresh, job execution, the event-horizon contract |
//!
//! Behavior:
//!
//! * 64-entry read and write queues with write-drain watermarks
//!   (writes are buffered and drained in bursts, with block-aligned
//!   read-around-write forwarding from the write queue);
//! * demand scheduling by [`McConfig::sched`]: **FR-FCFS** (the
//!   paper's, and the default — ready row-hit column commands first,
//!   then oldest-first activation/precharge) or strict **FCFS**;
//! * periodic all-bank **refresh** (tREFI/tRFC) with bank draining;
//! * a pluggable [`figaro_core::CacheEngine`]: every demand request is
//!   looked up (and possibly redirected into the in-DRAM cache region),
//!   and the controller executes the engine's relocation jobs on the
//!   banks, giving demand row hits priority over relocation commands —
//!   exactly the policy the paper's Section 8.1 describes (`RELOC`s are
//!   issued while the row serving the miss is still open);
//! * optional activation monitoring for the RowHammer analysis
//!   (Section 6).
//!
//! The controller is clocked in DRAM bus cycles via
//! [`MemoryController::tick`]; at most one command issues per cycle
//! (single command bus). Event-driven callers use
//! [`MemoryController::next_event_at`], whose horizon covers both
//! policies.

pub mod bank;
pub mod controller;
pub mod histogram;
pub mod queues;
pub mod request;
pub mod scheduler;

pub use controller::{McConfig, McCounters, McStats, MemoryController};
pub use histogram::LatencyHistogram;
pub use request::{Completion, Request, BLOCK_BYTES};
pub use scheduler::SchedPolicyKind;
