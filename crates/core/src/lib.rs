//! # figaro-core — the FIGARO substrate and the FIGCache in-DRAM cache
//!
//! This crate implements the paper's primary contribution
//! (Wang et al., *FIGARO: Improving System Performance via Fine-Grained
//! In-DRAM Data Relocation and Caching*, MICRO 2020):
//!
//! * **FIGARO relocation planning** ([`job::RelocationJob`]): the command
//!   sequences that move a *row segment* (one or more contiguous cache
//!   blocks) between subarrays through the shared global row buffer —
//!   `ACTIVATE(src)` (when needed) → `RELOC` × blocks →
//!   `ACTIVATE`-merge(dst) → `PRECHARGE` — at a latency independent of the
//!   subarray distance.
//! * **FIGCache** ([`engine::FigCacheEngine`]): the fine-grained in-DRAM
//!   cache. A FIGCache tag store ([`fts::FtsBank`]) in the memory
//!   controller tracks which segments are cached where, with valid/dirty
//!   bits and 5-bit saturating *benefit* counters (each entry a `u64`
//!   segment key plus one metadata byte, the paper's Fig. 6 entry),
//!   found through a fixed open-addressed segment→slot index sized from
//!   the slot count;
//!   each bank's queued and running relocation jobs sit in a FIFO, since
//!   a bank runs one job at a time in id order; insertion uses the
//!   paper's insert-any-miss policy (generalised to a configurable miss
//!   threshold, Fig. 15); replacement supports the paper's
//!   **RowBenefit** policy (row-granularity eviction via an eviction
//!   register + bitvector) plus the SegmentBenefit / LRU / Random
//!   alternatives of Fig. 14.
//! * **LISA-VILLA baseline** ([`FigCacheConfig::lisa_villa`]): the
//!   state-of-the-art comparison point, run by the same engine —
//!   whole-row segments cached in interleaved fast subarrays and moved by
//!   distance-*dependent* LISA clones ([`Relocation::LisaClone`]).
//! * **RowHammer monitor** ([`rowhammer::RowHammerMonitor`]): the
//!   activation-frequency tracker used to demonstrate the Section 6
//!   security use case.
//!
//! The crate plugs into the memory controller (`figaro-memctrl`) through
//! the [`CacheEngine`] trait: the controller consults the engine on every
//! demand request (possibly redirecting it into the cache region) and asks
//! it for relocation jobs to run on otherwise-idle banks.
//!
//! ## Example
//!
//! ```
//! use figaro_core::{CacheEngine, FigCacheConfig, FigCacheEngine};
//! use figaro_dram::DramConfig;
//!
//! let dram = DramConfig::ddr4_paper_default();
//! let cfg = FigCacheConfig::paper_slow(); // 64 reserved rows, 1 kB segments
//! let mut engine = FigCacheEngine::new(&dram, &cfg, 16);
//! // A miss: served from the source row, and an insertion is scheduled.
//! let t = engine.on_request(0, 100, 5, false, None, 0);
//! assert_eq!(t.row, 100);
//! assert!(!t.cache_hit);
//! assert!(engine.has_pending_job(0));
//! ```

pub mod config;
pub mod engine;
pub mod fts;
pub mod job;
pub mod rowhammer;
pub mod segment;
pub mod traits;

pub use config::{CacheRegion, FigCacheConfig, InsertionPolicy, Relocation, ReplacementPolicy};
pub use engine::FigCacheEngine;
pub use fts::{FtsBank, SlotState};
pub use job::{JobKind, RelocationJob};
pub use rowhammer::RowHammerMonitor;
pub use segment::{SegmentGeometry, SegmentId};
pub use traits::{CacheEngine, CacheStats, NullEngine, ServeTarget};
