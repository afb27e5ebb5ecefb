//! Per-bank controller state and the memoized per-bank summaries.
//!
//! The controller keeps one [`BankState`] per bank of its channel — the
//! bank's (precomputed) address and the relocation-job slot the cache
//! engine's jobs execute in — and, beside them, one `BankMemos`: every
//! bank's memoized [`BankSummary`], its horizon term, and the bank masks
//! the tick walks. The DRAM-side row state (open row, must-precharge,
//! pinned subarrays) lives in [`figaro_dram::DramChannel`].
//!
//! A summary is everything the controller's tick and its event horizon
//! need to know about one bank, built from one walk of the bank's
//! serve-queue entries: the column command priority 1 would issue, the
//! ACT/PRE priority 3 would issue, the active job's next command, and
//! whether a job start (or a finished job's retire) is due. It depends
//! only on state local to the bank — its queued entries in either queue
//! (demand gates job starts), its row and pin state, its job slot and
//! pending jobs — so a bank goes **dirty** (rebuilt on the next read)
//! only when
//!
//! * a command issues on it,
//! * a queue gains or loses one of its entries,
//! * its job starts or retires,
//! * the serve queue flips (write drain) while it holds an entry in
//!   either queue — a bank with none summarizes the same for both;
//!
//! and every bank goes dirty after a rank-wide command (refresh,
//! precharge-all). Under strict FCFS only the serve queue's head counts,
//! so the new head's bank also goes dirty when the head moves.
//!
//! Each bank also memoizes its **horizon term**: the earliest cycle any
//! of its summary's commands could issue, unclamped (probed from cycle
//! 0). Issuing on another bank never lowers it: every rank- and
//! bank-group-register update in `DramChannel::issue` is a `max`, and an
//! illegal command stays illegal (the lemma on
//! [`figaro_dram::DramChannel::next_ready`]). So a term probed before
//! the channel's latest issue is still a lower bound, and the
//! controller re-probes a stale term only while it holds the minimum —
//! which makes the memoized horizon equal to a full scan. The terms sit
//! in one dense `Vec<Cycle>`, so that minimum reads one word per bank.
//!
//! The same lower bound tells the tick which banks can act: a bank
//! whose term is above `now` has no candidate that can issue now.
//! `BankMemos::ready` is the set of banks at or below `now` plus the
//! dirty ones, and five bank masks — column candidate, prep
//! candidate, active job, job start due, dirty — let each ladder stage
//! walk only its own mask ∩ that set. The summary masks follow each
//! rebuild (`BankMemos::store`); the job mask follows job starts and
//! retires.

use figaro_core::RelocationJob;
use figaro_dram::{BankAddr, Cycle, DramChannel, DramCommand, DramGeometry, MAX_BANKS_PER_CHANNEL};

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
    /// hitting the open row (under FCFS, only when it is the queue head).
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

/// A set of a channel's banks, one bit per flat bank index
/// (`DramGeometry::validate` caps a channel at
/// `MAX_BANKS_PER_CHANNEL`, the mask's width).
pub(crate) type BankMask = u64;

/// The banks of `mask`, in increasing flat-index order.
pub(crate) fn banks_in(mask: BankMask) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        let b = rest.trailing_zeros() as usize;
        rest &= rest.wrapping_sub(1);
        (b < 64).then_some(b)
    })
}

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

/// The memo of every bank of one channel: the summaries, their dense
/// horizon terms, and the bank masks the tick walks. Derived state:
/// never serialized, and a new memo has every bank dirty.
#[derive(Debug)]
pub(crate) struct BankMemos {
    /// Memoized summaries; a dirty bank's entry is meaningless.
    pub(crate) summary: Vec<BankSummary>,
    /// Horizon terms: a lower bound on [`BankSummary::probe`], exact
    /// when `probed_at` equals the controller's issue count.
    pub(crate) term: Vec<Cycle>,
    /// The controller's issue count when each term was probed.
    pub(crate) probed_at: Vec<u64>,
    /// Banks whose summary must be rebuilt before it is read.
    pub(crate) dirty: BankMask,
    /// Banks whose summary has a column candidate.
    pub(crate) column: BankMask,
    /// Banks whose summary has a prep (ACT/PRE) candidate.
    pub(crate) prep: BankMask,
    /// Banks with an active relocation job (kept by the controller at
    /// every job start and retire, independent of the summaries).
    pub(crate) job: BankMask,
    /// Idle banks whose summary says a pending job would start.
    pub(crate) start: BankMask,
}

impl BankMemos {
    /// A memo of `banks` banks, all dirty.
    ///
    /// # Panics
    ///
    /// Panics for more banks than a [`BankMask`] holds (a geometry that
    /// `DramGeometry::validate` rejects).
    #[must_use]
    pub(crate) fn new(banks: usize) -> Self {
        assert!(
            banks <= MAX_BANKS_PER_CHANNEL as usize,
            "{banks} banks exceed the bank mask; DramGeometry::validate rejects this geometry"
        );
        Self {
            summary: vec![BankSummary::default(); banks],
            term: vec![0; banks],
            probed_at: vec![UNPROBED; banks],
            dirty: Self::all(banks),
            column: 0,
            prep: 0,
            job: 0,
            start: 0,
        }
    }

    /// The mask of all `banks` banks.
    #[must_use]
    pub(crate) fn all(banks: usize) -> BankMask {
        u64::MAX.checked_shr(64 - banks as u32).unwrap_or(0)
    }

    /// Stores bank `b`'s fresh summary: its term resets to the trivial
    /// lower bound `0` (unprobed) and its mask bits follow the summary.
    pub(crate) fn store(&mut self, b: usize, summary: BankSummary, has_job: bool) {
        let bit = 1 << b;
        let set =
            |mask: &mut BankMask, on: bool| *mask = (*mask & !bit) | (BankMask::from(on) << b);
        set(&mut self.column, summary.column.is_some());
        set(&mut self.prep, summary.prep.is_some());
        set(&mut self.start, summary.now && !has_job);
        self.summary[b] = summary;
        self.term[b] = 0;
        self.probed_at[b] = UNPROBED;
        self.dirty &= !bit;
    }

    /// The banks that can act at `now`: those whose term is `<= now`
    /// (a term is a lower bound on every candidate's issue cycle, so a
    /// bank above `now` has nothing to issue) plus the dirty banks.
    #[must_use]
    pub(crate) fn ready(&self, now: Cycle) -> BankMask {
        let mut ready = self.dirty;
        for (b, &t) in self.term.iter().enumerate() {
            ready |= BankMask::from(t <= now) << b;
        }
        ready
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
