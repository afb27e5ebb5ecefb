//! Per-bank controller state and the memoized per-bank summary.
//!
//! The controller keeps one [`BankState`] per bank of its channel — the
//! bank's (precomputed) address and the relocation-job slot the cache
//! engine's jobs execute in — and, beside it, one [`BankMemo`]: the
//! bank's memoized [`BankSummary`] and horizon term. The DRAM-side row
//! state (open row, must-precharge, pinned subarrays) lives in
//! [`figaro_dram::DramChannel`].
//!
//! A summary is everything the controller's tick and its event horizon
//! need to know about one bank, built from one walk of the bank's
//! serve-queue entries: the column command priority 1 would issue, the
//! ACT/PRE priority 3 would issue, the active job's next command, and
//! whether a job start (or a finished job's retire) is due. It depends
//! only on state local to the bank — its queued entries in either queue
//! (demand gates job starts), its row and pin state, its job slot and
//! pending jobs, and its scheduler streak — so a bank goes **dirty**
//! (rebuilt on the next read) only when
//!
//! * a command issues on it,
//! * a queue gains or loses one of its entries,
//! * its job starts or retires;
//!
//! and every bank goes dirty when the serve queue flips (write drain),
//! after a refresh (rank-wide timing, scheduler streaks reset) and on
//! `load_state`. Under strict FCFS only the serve queue's head counts, so
//! the new head's bank also goes dirty when the head moves.
//!
//! Each bank also memoizes its **horizon term**: the earliest cycle any
//! of its summary's commands could issue, unclamped (probed from cycle
//! 0). Issuing on another bank never lowers it: every rank- and
//! bank-group-register update in `DramChannel::issue` is a `max`, and an
//! illegal command stays illegal (the lemma on
//! [`figaro_dram::DramChannel::next_ready`]). So a term probed before
//! the channel's latest issue is still a lower bound, and the
//! controller re-probes a stale term only while it holds the minimum —
//! which makes the memoized horizon equal to a full scan.

use figaro_core::RelocationJob;
use figaro_dram::{BankAddr, Cycle, DramChannel, DramCommand, DramGeometry};

/// A demand command a summary nominates: the command, the queue slot of
/// the entry it is issued on behalf of, and that entry's global age.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Enqueue sequence number of the entry (smaller = older).
    pub seq: u64,
    /// Queue slot id of the entry.
    pub id: u32,
    /// The command to issue.
    pub cmd: DramCommand,
}

/// One bank's memoized scan (see the module docs for when it is valid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankSummary {
    /// Priority 1: the column command of the oldest serve-queue entry
    /// hitting the open row, when the policy lets it bypass.
    pub column: Option<Candidate>,
    /// Priority 3: the PRE (row conflict) or ACT (closed bank) issued
    /// on behalf of the oldest entry that needs one.
    pub prep: Option<Candidate>,
    /// The active relocation job's next command.
    pub job: Option<DramCommand>,
    /// The bank acts on its next tick whatever the timing: a pending job
    /// would start, or a finished job awaits its defensive retire.
    pub now: bool,
}

impl BankSummary {
    /// The bank's unclamped horizon term: the earliest cycle at which
    /// one of the summary's commands could issue under `chan`'s current
    /// timing, `0` when the bank acts regardless, [`Cycle::MAX`] when it
    /// has no candidate or every candidate is illegal.
    #[must_use]
    pub fn probe(&self, chan: &DramChannel, addr: BankAddr) -> Cycle {
        if self.now {
            return 0;
        }
        let cmds = [self.column.map(|c| c.cmd), self.prep.map(|c| c.cmd), self.job];
        cmds.iter()
            .flatten()
            .filter_map(|cmd| chan.next_ready(addr, cmd, 0))
            .min()
            .unwrap_or(Cycle::MAX)
    }
}

/// `probed_at` of a term that was never probed.
pub(crate) const UNPROBED: u64 = u64::MAX;

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

/// One bank's memo: its summary and horizon term (new memos are dirty:
/// nothing has been summarized yet). Never serialized.
#[derive(Debug, Clone, Copy)]
pub struct BankMemo {
    /// The memoized summary; meaningless while `dirty`.
    pub summary: BankSummary,
    /// The summary must be rebuilt before it is read.
    pub dirty: bool,
    /// Horizon term: a lower bound on [`BankSummary::probe`], exact when
    /// `probed_at` equals the controller's issue count.
    pub term: Cycle,
    /// The controller's issue count when `term` was probed.
    pub probed_at: u64,
}

impl Default for BankMemo {
    fn default() -> Self {
        Self { summary: BankSummary::default(), dirty: true, term: 0, probed_at: UNPROBED }
    }
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

    #[test]
    fn probe_takes_the_earliest_legal_candidate() {
        let dram = DramConfig::ddr4_paper_default();
        let mut chan = DramChannel::new(&dram);
        let addr = BankAddr { rank: 0, bankgroup: 0, bank: 0 };
        let rd = DramCommand::Read { col: 0, auto_pre: false };
        let act = DramCommand::Activate { row: 3 };
        let mut s = BankSummary::default();
        assert_eq!(s.probe(&chan, addr), Cycle::MAX, "no candidate");
        s.column = Some(Candidate { seq: 0, id: 0, cmd: rd });
        assert_eq!(s.probe(&chan, addr), Cycle::MAX, "a read on a closed bank is illegal");
        s.prep = Some(Candidate { seq: 1, id: 1, cmd: act });
        assert_eq!(s.probe(&chan, addr), 0);
        chan.issue(addr, &DramCommand::Activate { row: 7 }, 0);
        assert_eq!(s.probe(&chan, addr), u64::from(dram.timing.rcd), "tRCD gates the read");
        s.now = true;
        assert_eq!(s.probe(&chan, addr), 0, "a due job start wins");
    }
}
