//! Per-bank controller state.
//!
//! The controller keeps one [`BankState`] per bank of its channel: the
//! bank's (precomputed) address and the relocation-job slot the cache
//! engine's jobs execute in. The DRAM-side row state (open row,
//! must-precharge, pinned subarrays) lives in
//! [`figaro_dram::DramChannel`]; the event-horizon scan aggregates one
//! bank's queued entries into a [`BankAgg`] against a snapshot of it.

use figaro_core::RelocationJob;
use figaro_dram::{BankAddr, DramGeometry, RowId};

/// Controller-side state of one bank.
#[derive(Debug)]
pub struct BankState {
    /// The bank's decoded address (precomputed from the flat index).
    pub addr: BankAddr,
    /// The relocation job currently executing on this bank, if any.
    pub job: Option<RelocationJob>,
}

impl BankState {
    /// State for flat bank index `flat` of `geometry`.
    #[must_use]
    pub fn new(flat: u32, geometry: &DramGeometry) -> Self {
        Self { addr: BankAddr::from_flat(flat, geometry), job: None }
    }
}

/// Per-bank aggregate of one queue for the event-horizon scan: DRAM
/// timing for column commands is column-independent and for ACT/PRE
/// row-independent (pinned banks excepted), so one `earliest_issue` per
/// bank and command class covers every queued entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct BankAgg {
    /// The bank's open row, read once per scan.
    pub open: Option<RowId>,
    /// Some entry's serve row is the open row (suppresses prep for the
    /// whole bank, exactly like the prep scan's same-row check).
    pub has_hit: bool,
    /// A read entry hits the open row.
    pub read_hit: bool,
    /// A write entry hits the open row.
    pub write_hit: bool,
    /// Serve row of the first entry needing ACT/PRE, if any.
    pub prep_row: Option<RowId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use figaro_dram::DramConfig;

    #[test]
    fn flat_index_round_trips_through_bank_addr() {
        let g = DramConfig::ddr4_paper_default().geometry;
        for flat in 0..g.banks_per_channel() {
            let st = BankState::new(flat, &g);
            assert_eq!(st.addr.flat_bank(&g), flat);
            assert!(st.job.is_none());
        }
    }
}
