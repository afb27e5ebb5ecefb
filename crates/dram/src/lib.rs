//! # figaro-dram — cycle-level DDR4 DRAM model with FIGARO support
//!
//! This crate is the DRAM substrate for the FIGARO / FIGCache reproduction
//! (Wang et al., *FIGARO: Improving System Performance via Fine-Grained
//! In-DRAM Data Relocation and Caching*, MICRO 2020). It models a DDR4
//! memory device at the granularity the paper's evaluation requires:
//!
//! * **Geometry** ([`DramGeometry`]): channels → ranks → bank groups → banks
//!   → subarrays → rows → columns, with the paper's default organization
//!   (4 bank groups × 4 banks, 64 subarrays × 512 rows per bank, 8 kB rows).
//! * **Address mapping** ([`AddressMapping`]): a pluggable interleaving
//!   subsystem ([`MapKind`]) — the paper's
//!   `{row, rank, bankgroup, bank, channel, column}` slice (default),
//!   channel/bank-first block interleaving, a bank-sequential
//!   row-interleaved scheme, and an XOR bank-permutation hash layered
//!   over any of them — plus the inverse mapping.
//! * **Timing** ([`TimingParams`]): JEDEC-style DDR4-1600 timing parameters
//!   in bus cycles, including the new `RELOC` latency, and the fast-region
//!   scaling used for fast subarrays (tRCD −45.5%, tRP −38.2%, tRAS −62.9%).
//! * **Commands** ([`DramCommand`]): `ACTIVATE`, `PRECHARGE`, `READ`,
//!   `WRITE`, `REFRESH`, and the FIGARO additions: `RELOC` (one-column
//!   inter-subarray copy through the global row buffer), `ACTIVATE-merge`
//!   (the second activation that commits relocated columns into the
//!   destination row), and `LISA_CLONE` (the row-granularity,
//!   distance-dependent inter-subarray copy used by the LISA-VILLA
//!   baseline).
//! * **Timing-constraint engine** ([`DramChannel`]): per-bank, per-bank-group
//!   and per-rank legality checks (tCCD_S/L, tRRD_S/L, tFAW, tWTR, bus
//!   turnaround, tRFC/tREFI) in the style of Ramulator's checker, built from
//!   scratch.
//! * **Functional data store** ([`DataStore`]): an optional sparse model of
//!   row contents, local row buffers and the global row buffer that
//!   reproduces the unaligned-copy semantics of the paper's Figure 4.
//!
//! The crate knows nothing about caching policy; FIGCache and LISA-VILLA
//! live in `figaro-core`, and request scheduling lives in `figaro-memctrl`.
//!
//! ## Example
//!
//! ```
//! use figaro_dram::{DramChannel, DramCommand, DramConfig, BankAddr};
//!
//! let config = DramConfig::ddr4_paper_default();
//! let mut channel = DramChannel::new(&config);
//! let bank = BankAddr { rank: 0, bankgroup: 0, bank: 0 };
//!
//! // Activate row 3, then read column 5 as soon as timing allows.
//! assert!(channel.can_issue(bank, &DramCommand::Activate { row: 3 }, 0));
//! channel.issue(bank, &DramCommand::Activate { row: 3 }, 0);
//! let rd = DramCommand::Read { col: 5, auto_pre: false };
//! let t = channel.earliest_issue(bank, &rd, 0);
//! assert_eq!(t, u64::from(config.timing.rcd)); // gated by tRCD
//! channel.issue(bank, &rd, t);
//! ```

pub mod address;
pub mod channel;
pub mod command;
pub mod datastore;
pub mod geometry;
pub mod layout;
pub mod stats;
pub mod timing;

pub use address::{AddressMapping, DramLocation, MapKind, MapScheme, PhysAddr};
pub use channel::{BankAddr, DramChannel, IssueOutcome};
pub use command::{CommandKind, DramCommand};
pub use datastore::DataStore;
pub use geometry::{DramGeometry, MAX_BANKS_PER_CHANNEL};
pub use layout::{FastLayout, Region, RowPlace, SubarrayLayout};
pub use stats::DramStats;
pub use timing::TimingParams;

/// A point in time, measured in DRAM **bus cycles** (800 MHz for the
/// paper's DDR4-1600 configuration, i.e. 1.25 ns per cycle).
pub type Cycle = u64;

/// Index of a DRAM row within a bank.
///
/// Regular (slow-subarray) rows occupy `0..layout.regular_rows()`; fast
/// cache rows added by FIGCache-Fast or LISA-VILLA are appended after them
/// (see [`SubarrayLayout`]).
pub type RowId = u32;

/// Complete static description of a DRAM device: geometry, timing and
/// subarray layout. This is the single value the rest of the stack passes
/// around to construct channels, address maps and energy models.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Physical organization (channels/ranks/bank groups/banks/row size).
    pub geometry: DramGeometry,
    /// Timing parameters in bus cycles.
    pub timing: TimingParams,
    /// Subarray layout of every bank (regular + fast subarrays).
    pub layout: SubarrayLayout,
}

impl DramConfig {
    /// The paper's Table 1 DDR4 configuration: 800 MHz bus, 1 rank,
    /// 4 bank groups × 4 banks, 64 subarrays × 512 rows per bank, 8 kB rows,
    /// 4 GB per channel, homogeneous (no fast subarrays).
    #[must_use]
    pub fn ddr4_paper_default() -> Self {
        Self {
            geometry: DramGeometry::paper_default(),
            timing: TimingParams::ddr4_1600(),
            layout: SubarrayLayout::homogeneous(64, 512),
        }
    }

    /// Rows per bank including any fast-subarray rows appended by the layout.
    #[must_use]
    pub fn rows_per_bank(&self) -> u32 {
        self.layout.total_rows()
    }

    /// The address mapping of `kind` for this device: sliced over the
    /// geometry and the layout's *regular* rows (fast cache rows are not
    /// directly addressable — they are reached only through cache-engine
    /// redirects).
    #[must_use]
    pub fn address_mapping(&self, kind: MapKind) -> AddressMapping {
        AddressMapping::with_kind(self.geometry, kind, self.layout.regular_rows())
    }

    /// Validates internal consistency (geometry vs layout vs timing).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency
    /// found, e.g. a zero-sized row or a timing table that violates
    /// `tRAS + tRP ≤ tRC`.
    pub fn validate(&self) -> Result<(), String> {
        self.geometry.validate()?;
        self.timing.validate()?;
        self.layout.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let c = DramConfig::ddr4_paper_default();
        c.validate().expect("paper default must validate");
        assert_eq!(c.rows_per_bank(), 64 * 512);
    }

    #[test]
    fn paper_default_capacity_is_4gb_per_channel() {
        let c = DramConfig::ddr4_paper_default();
        let bytes = u64::from(c.geometry.ranks)
            * u64::from(c.geometry.banks_per_rank())
            * u64::from(c.layout.regular_rows())
            * u64::from(c.geometry.row_bytes);
        assert_eq!(bytes, 4 << 30);
    }
}
