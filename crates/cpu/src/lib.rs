//! # figaro-cpu — trace-driven multi-core processor model
//!
//! The paper couples its DRAM simulator with an in-house processor
//! simulator: trace-driven cores (3-wide, 256-entry instruction window,
//! 8 MSHRs per core) behind a three-level cache hierarchy (L1 64 kB
//! 4-way, L2 256 kB 8-way private; shared 16-way LLC at 2 MB/core). This
//! crate is that substrate, built from scratch:
//!
//! * [`cache::SetAssocCache`] — set-associative, write-back,
//!   write-allocate cache with LRU replacement. Each line is a packed
//!   4-byte `tag | DIRTY | VALID` word in a zero-allocated table, and
//!   each set keeps its recency order in one word of 4-bit way numbers
//!   (1 to 16 ways): a hit or fill moves its way to the MRU end, and a
//!   miss fill's victim is the LRU way. A tag has
//!   [`cache::TAG_BITS`] (30) bits, so every address must lie in a space
//!   the level covers ([`cache::CacheParams::covers`]):
//!   [`hierarchy::HierarchyConfig::validate`] checks every level against
//!   the DRAM address space, and [`core::TraceCore`] checks each op's
//!   address against it as it pulls the op;
//! * [`hierarchy::CacheHierarchy`] — the private-L1/L2 + shared-LLC stack
//!   with per-core MSHRs (miss merging, structural stalls) and dirty
//!   writeback chains down to the memory controller. The MSHRs are one
//!   fixed `cores × mshrs_per_core` table whose entries carry their fill
//!   request's id and their first waiting load inline, so the miss path
//!   neither hashes nor allocates;
//! * [`core::TraceCore`] — the instruction-window core model: non-memory
//!   instructions retire at full width, loads block retirement until
//!   their data returns, stores are posted.
//!
//! The sim crate connects [`hierarchy::CacheHierarchy::take_outgoing`] to
//! the per-channel memory controllers and routes completions back via
//! [`hierarchy::CacheHierarchy::on_completion`].

pub mod cache;
pub mod core;
pub mod hierarchy;

pub use crate::core::{CoreParams, CoreStats, TraceCore};
pub use cache::{CacheParams, CacheStats, SetAssocCache};
pub use hierarchy::{Access, CacheHierarchy, HierarchyConfig, HierarchyStats};
