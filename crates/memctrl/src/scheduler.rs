//! Demand scheduling: FR-FCFS (the paper's controller) and strict FCFS.
//!
//! The controller's tick ladder makes two demand decisions — which
//! ready **column command** to issue (priority 1) and which **ACT/PRE
//! preparation** to issue (priority 3) — with two functions: `demand`
//! walks one bank's entries of the per-bank [`IndexedQueue`] into that
//! bank's candidates (memoized in its [`BankSummary`], which the event
//! horizon probes too), and `oldest_ready` picks the oldest candidate
//! whose command can issue now, walking only the banks of the stage's
//! candidate mask that the tick's ready set admits (a bank whose horizon
//! term is above `now` cannot issue). The policy in force,
//! [`crate::McConfig::sched`], changes only which entries `demand`
//! considers: every entry of the bank under FR-FCFS, the queue's head
//! alone under FCFS.

use figaro_dram::{Cycle, DramChannel, DramCommand};

use crate::bank::{banks_in, BankMask, BankMemos, BankState, BankSummary, Candidate};
use crate::queues::{Entry, IndexedQueue};

/// The demand-scheduling policy carried by [`crate::McConfig`] and the
/// runner's memo keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicyKind {
    /// First-ready FCFS: ready row hits bypass older requests, then
    /// oldest-first ACT/PRE (the paper's controller; the default).
    #[default]
    FrFcfs,
    /// Strict in-order service: only the oldest queued request of the
    /// active queue is ever a candidate.
    Fcfs,
}

impl SchedPolicyKind {
    /// Stable label for reports and `FIGARO_SCHED`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SchedPolicyKind::FrFcfs => "frfcfs",
            SchedPolicyKind::Fcfs => "fcfs",
        }
    }

    /// Parses a [`SchedPolicyKind::label`]: `frfcfs` (or `fr-fcfs`) |
    /// `fcfs`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "frfcfs" | "fr-fcfs" => Some(SchedPolicyKind::FrFcfs),
            "fcfs" => Some(SchedPolicyKind::Fcfs),
            _ => None,
        }
    }
}

/// The demand column command serving `e`.
#[must_use]
pub(crate) fn column_cmd(e: &Entry) -> DramCommand {
    if e.req.is_write {
        DramCommand::Write { col: e.serve_col, auto_pre: false }
    } else {
        DramCommand::Read { col: e.serve_col, auto_pre: false }
    }
}

/// The demand half of bank `b`'s summary, from one walk of its entries
/// in the serve queue `q`: `(column, prep)`. The column candidate is the
/// oldest entry hitting the open row; the prep candidate is the PRE for
/// the first conflicting entry or the ACT for the oldest entry an ACT
/// could open, subject to the FR-FCFS skip rules (a job still setting up
/// owns the bank; a queued same-row hit keeps the row open). Strict FCFS
/// only ever considers the queue's head entry, on the head's bank.
///
/// Entries arrive in non-decreasing `arrival` order (see
/// [`IndexedQueue`]), so "oldest" by `(arrival, seq)` is simply the
/// smallest `seq`, the first in the bank's FIFO list.
pub(crate) fn demand(
    sched: SchedPolicyKind,
    q: &IndexedQueue,
    b: u32,
    st: &BankState,
    chan: &DramChannel,
) -> (Option<Candidate>, Option<Candidate>) {
    let addr = st.addr;
    let open = chan.open_row(addr);
    let must_pre = chan.must_precharge(addr);
    let pinned = chan.is_pinned(addr);
    let cand = |id: u32, cmd| Some(Candidate { seq: q.seq(id), id, cmd });
    let (mut hit, mut conflict, mut act) = (None, None, None);
    if sched == SchedPolicyKind::Fcfs {
        let Some(id) = q.head_id().filter(|&id| q.entry(id).flat_bank == b) else {
            return (None, None);
        };
        let e = q.entry(id);
        if open == Some(e.serve_row) && !must_pre {
            hit = cand(id, column_cmd(e));
        } else if must_pre || open.is_some() {
            // A must-precharge bank serves nothing until it is closed.
            conflict = cand(id, DramCommand::Precharge);
        } else {
            let cmd = DramCommand::Activate { row: e.serve_row };
            act = chan.next_ready(addr, &cmd, 0).and_then(|_| cand(id, cmd));
        }
    } else if let Some(open) = open {
        for (id, e) in q.iter_bank(b) {
            if e.serve_row != open {
                conflict = conflict.or_else(|| cand(id, DramCommand::Precharge));
            } else if hit.is_none() {
                hit = cand(id, column_cmd(e));
            }
            if hit.is_some() && conflict.is_some() {
                break;
            }
        }
    } else {
        // ACT timing is row-independent, and so is its legality on an
        // unpinned bank: only the oldest entry need be checked. A pinned
        // bank's legality is per-subarray, so walk to the first legal one.
        for (id, e) in q.iter_bank(b) {
            let cmd = DramCommand::Activate { row: e.serve_row };
            if chan.next_ready(addr, &cmd, 0).is_some() {
                act = cand(id, cmd);
                break;
            }
            if !pinned {
                break;
            }
        }
    }
    // A must-precharge bank serves no column command.
    let column = hit.filter(|_| !must_pre);
    let job_owned = st.job.is_some() && !pinned;
    let prep = if hit.is_some() || job_owned { None } else { conflict.or(act) };
    (column, prep)
}

/// The oldest candidate `select` picks from the summaries of the banks
/// in `walk` whose command can issue at `now` — one timing probe per
/// candidate bank, skipped for a candidate younger than the best one
/// found so far. The caller passes the stage's candidate mask ∩ the
/// tick's ready set; debug builds check that a walk over every bank
/// picks the same candidate.
pub(crate) fn oldest_ready(
    banks: &[BankState],
    memo: &BankMemos,
    chan: &DramChannel,
    now: Cycle,
    walk: BankMask,
    select: impl Fn(&BankSummary) -> Option<Candidate>,
) -> Option<Candidate> {
    debug_assert_eq!(memo.dirty, 0, "a tick read a dirty bank summary");
    let pick = |walk: BankMask| {
        let mut best: Option<Candidate> = None;
        for b in banks_in(walk) {
            let Some(c) = select(&memo.summary[b]) else { continue };
            if best.is_some_and(|b| b.seq < c.seq) {
                continue;
            }
            if chan.can_issue(banks[b].addr, &c.cmd, now) {
                best = Some(c);
            }
        }
        best
    };
    let best = pick(walk);
    debug_assert_eq!(
        best,
        pick(BankMemos::all(banks.len())),
        "masked pick differs from a full scan"
    );
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_from_name() {
        for k in [SchedPolicyKind::FrFcfs, SchedPolicyKind::Fcfs] {
            assert_eq!(SchedPolicyKind::from_name(k.label()), Some(k), "{}", k.label());
        }
        assert_eq!(SchedPolicyKind::from_name(" FR-FCFS "), Some(SchedPolicyKind::FrFcfs));
        for bad in ["bogus", "frfcfs-cap4", "wdrain48-8", ""] {
            assert_eq!(SchedPolicyKind::from_name(bad), None, "{bad:?}");
        }
        assert_eq!(SchedPolicyKind::default(), SchedPolicyKind::FrFcfs);
    }
}
