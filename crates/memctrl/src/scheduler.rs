//! Pluggable demand-scheduling policies.
//!
//! The controller's tick ladder delegates its two demand decisions —
//! which ready **column command** to issue (priority 1) and which
//! **ACT/PRE preparation** to issue (priority 3) — to a
//! [`SchedPolicy`]. The selection algorithm lives here as two functions:
//! `demand` walks one bank's entries of the per-bank [`IndexedQueue`]
//! into that bank's candidates (memoized in its [`BankSummary`], which
//! the event horizon probes too), and `oldest_ready` picks the oldest
//! candidate whose command can issue now, walking only the banks of the
//! stage's candidate mask that the tick's ready set admits (a bank whose
//! horizon term is above `now` cannot issue). Policies steer them
//! through small hooks, so the default [`FrFcfs`] reproduces the classic first-ready /
//! first-come-first-serve ladder bit for bit while [`Fcfs`],
//! [`FrFcfsCap`] and [`WriteDrainTuned`] reuse the same machinery.
//!
//! The policy in force is chosen by [`crate::McConfig::sched`].

use figaro_dram::{Cycle, DramChannel, DramCommand};

use crate::bank::{banks_in, BankMask, BankMemos, BankState, BankSummary, Candidate};
use crate::queues::{Entry, IndexedQueue};

/// Identifies a scheduling policy — the value form carried by
/// [`crate::McConfig`] and the runner's memo keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicyKind {
    /// First-ready FCFS: ready row hits bypass older requests, then
    /// oldest-first ACT/PRE (the paper's controller; the default).
    #[default]
    FrFcfs,
    /// Strict in-order service: only the oldest queued request of the
    /// active queue is ever a candidate.
    Fcfs,
    /// FR-FCFS with a cap on consecutive row hits per bank: once `cap`
    /// column commands in a row hit a bank's open row while a
    /// conflicting request waits on the same bank, row hits stop
    /// bypassing and the row is closed (starvation freedom).
    FrFcfsCap {
        /// Maximum consecutive row hits per bank while a conflicting
        /// request waits (≥ 1; 0 is treated as 1).
        cap: u32,
    },
    /// FR-FCFS selection with tunable write-drain watermarks replacing
    /// [`crate::McConfig::wq_high`]/[`crate::McConfig::wq_low`].
    WriteDrain {
        /// Enter write-drain mode at this write-queue occupancy.
        high: u32,
        /// Leave write-drain mode at this occupancy (< `high`).
        low: u32,
    },
}

impl SchedPolicyKind {
    /// Stable label for reports and `FIGARO_SCHED`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SchedPolicyKind::FrFcfs => "frfcfs".into(),
            SchedPolicyKind::Fcfs => "fcfs".into(),
            SchedPolicyKind::FrFcfsCap { cap } => format!("frfcfs-cap{cap}"),
            SchedPolicyKind::WriteDrain { high, low } => format!("wdrain{high}-{low}"),
        }
    }

    /// Parses a [`SchedPolicyKind::label`]-style name:
    /// `frfcfs` | `fcfs` | `frfcfs-capN` (or `capN`) | `wdrainH-L`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        let name = name.trim().to_ascii_lowercase();
        match name.as_str() {
            "frfcfs" | "fr-fcfs" => return Some(SchedPolicyKind::FrFcfs),
            "fcfs" => return Some(SchedPolicyKind::Fcfs),
            _ => {}
        }
        if let Some(n) = name.strip_prefix("frfcfs-cap").or_else(|| name.strip_prefix("cap")) {
            return n.parse().ok().map(|cap| SchedPolicyKind::FrFcfsCap { cap });
        }
        if let Some(rest) = name.strip_prefix("wdrain") {
            let (h, l) = rest.split_once('-')?;
            let (high, low) = (h.parse().ok()?, l.parse().ok()?);
            if low >= high {
                return None;
            }
            return Some(SchedPolicyKind::WriteDrain { high, low });
        }
        None
    }

    /// Builds the policy for a channel with `banks` banks.
    #[must_use]
    pub fn build(self, banks: usize) -> Box<dyn SchedPolicy> {
        match self {
            SchedPolicyKind::FrFcfs => Box::new(FrFcfs),
            SchedPolicyKind::Fcfs => Box::new(Fcfs),
            SchedPolicyKind::FrFcfsCap { cap } => {
                Box::new(FrFcfsCap { cap: cap.max(1), streak: vec![0; banks] })
            }
            SchedPolicyKind::WriteDrain { high, low } => {
                assert!(low < high, "write-drain watermarks need low < high");
                Box::new(WriteDrainTuned { high, low })
            }
        }
    }
}

/// A demand-scheduling policy: small hooks steering the shared
/// selection machinery (`demand`, `oldest_ready`). Every hook has
/// the FR-FCFS default, so the trivial implementation *is* FR-FCFS.
///
/// Hook answers may depend on the policy's own state only per bank
/// (changed by [`SchedPolicy::on_issue`] for that bank, or for all banks
/// by a refresh): the controller memoizes them in each bank's summary
/// until a command issues on it.
pub trait SchedPolicy: std::fmt::Debug + Send {
    /// The policy's identifying value form.
    fn kind(&self) -> SchedPolicyKind;

    /// Write-drain watermarks `(enter, leave)` given the configured ones.
    fn watermarks(&self, high: usize, low: usize) -> (usize, usize) {
        (high, low)
    }

    /// Strict in-order service: only the oldest entry of the active
    /// queue is ever a candidate (no row-hit bypassing).
    fn in_order_only(&self) -> bool {
        false
    }

    /// May a row hit on `flat_bank` bypass older waiting requests?
    /// `bank_has_conflict` reports whether the active queue holds a
    /// request for a *different* row of this (open) bank.
    fn allow_row_hit(&self, flat_bank: u32, bank_has_conflict: bool) -> bool {
        let _ = (flat_bank, bank_has_conflict);
        true
    }

    /// Do queued same-row hits keep `flat_bank`'s row open, i.e.
    /// suppress closing it on behalf of a conflicting request?
    fn hits_suppress_prep(&self, flat_bank: u32, bank_has_conflict: bool) -> bool {
        let _ = (flat_bank, bank_has_conflict);
        true
    }

    /// Notification of every DRAM command the controller issues
    /// (row-hit streak tracking).
    fn on_issue(&mut self, flat_bank: u32, cmd: &DramCommand) {
        let _ = (flat_bank, cmd);
    }
}

/// First-ready FCFS — the paper's scheduler and the default.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrFcfs;

impl SchedPolicy for FrFcfs {
    fn kind(&self) -> SchedPolicyKind {
        SchedPolicyKind::FrFcfs
    }
}

/// Strict first-come-first-serve (no row-hit reordering).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl SchedPolicy for Fcfs {
    fn kind(&self) -> SchedPolicyKind {
        SchedPolicyKind::Fcfs
    }

    fn in_order_only(&self) -> bool {
        true
    }
}

/// FR-FCFS with a per-bank cap on consecutive row hits (starvation
/// freedom for conflicting requests behind a hit streak).
#[derive(Debug)]
pub struct FrFcfsCap {
    cap: u32,
    /// Consecutive column commands served from each bank's open row
    /// since it was last activated/precharged.
    streak: Vec<u32>,
}

impl SchedPolicy for FrFcfsCap {
    fn kind(&self) -> SchedPolicyKind {
        SchedPolicyKind::FrFcfsCap { cap: self.cap }
    }

    fn allow_row_hit(&self, flat_bank: u32, bank_has_conflict: bool) -> bool {
        !(bank_has_conflict && self.streak[flat_bank as usize] >= self.cap)
    }

    fn hits_suppress_prep(&self, flat_bank: u32, bank_has_conflict: bool) -> bool {
        self.allow_row_hit(flat_bank, bank_has_conflict)
    }

    fn on_issue(&mut self, flat_bank: u32, cmd: &DramCommand) {
        match cmd {
            DramCommand::Read { .. } | DramCommand::Write { .. } => {
                self.streak[flat_bank as usize] += 1;
            }
            DramCommand::Activate { .. }
            | DramCommand::ActivateMerge { .. }
            | DramCommand::Precharge
            | DramCommand::PrechargeAll => self.streak[flat_bank as usize] = 0,
            DramCommand::Refresh => self.streak.fill(0),
            _ => {}
        }
    }
}

/// FR-FCFS selection with tunable write-drain watermarks.
#[derive(Debug, Clone, Copy)]
pub struct WriteDrainTuned {
    high: u32,
    low: u32,
}

impl SchedPolicy for WriteDrainTuned {
    fn kind(&self) -> SchedPolicyKind {
        SchedPolicyKind::WriteDrain { high: self.high, low: self.low }
    }

    fn watermarks(&self, _high: usize, _low: usize) -> (usize, usize) {
        (self.high as usize, self.low as usize)
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
/// oldest entry hitting the open row, if the policy lets it bypass; the
/// prep candidate is the PRE for the first conflicting entry or the ACT
/// for the oldest entry an ACT could open, subject to the FR-FCFS skip
/// rules (a job still setting up owns the bank; same-row hits keep a
/// row open unless the policy lifted that protection). Strict FCFS only
/// ever considers the queue's head entry, on the head's bank.
///
/// Entries arrive in non-decreasing `arrival` order (see
/// [`IndexedQueue`]), so "oldest" by `(arrival, seq)` is simply the
/// smallest `seq`, the first in the bank's FIFO list.
pub(crate) fn demand(
    policy: &dyn SchedPolicy,
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
    if policy.in_order_only() {
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
    let has_conflict = conflict.is_some();
    // A must-precharge bank serves no column command.
    let column = hit.filter(|_| !must_pre && policy.allow_row_hit(b, has_conflict));
    let suppressed = hit.is_some() && policy.hits_suppress_prep(b, has_conflict);
    let job_owned = st.job.is_some() && !pinned;
    let prep = if suppressed || job_owned { None } else { conflict.or(act) };
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
        let kinds = [
            SchedPolicyKind::FrFcfs,
            SchedPolicyKind::Fcfs,
            SchedPolicyKind::FrFcfsCap { cap: 4 },
            SchedPolicyKind::WriteDrain { high: 48, low: 8 },
        ];
        for k in kinds {
            assert_eq!(SchedPolicyKind::from_name(&k.label()), Some(k), "{}", k.label());
        }
        assert_eq!(SchedPolicyKind::from_name("cap2"), Some(SchedPolicyKind::FrFcfsCap { cap: 2 }));
        assert_eq!(SchedPolicyKind::from_name("bogus"), None);
        assert_eq!(SchedPolicyKind::from_name("wdrain8-8"), None, "low must be < high");
        assert_eq!(SchedPolicyKind::default(), SchedPolicyKind::FrFcfs);
    }

    #[test]
    fn cap_policy_tracks_streaks_per_bank() {
        let mut p = SchedPolicyKind::FrFcfsCap { cap: 2 }.build(4);
        let rd = DramCommand::Read { col: 0, auto_pre: false };
        assert!(p.allow_row_hit(0, true));
        p.on_issue(0, &rd);
        p.on_issue(0, &rd);
        assert!(!p.allow_row_hit(0, true), "streak of 2 with a conflict must cap");
        assert!(p.allow_row_hit(0, false), "no conflict: streak may continue");
        assert!(p.allow_row_hit(1, true), "other banks unaffected");
        assert!(!p.hits_suppress_prep(0, true), "capped bank lets prep close the row");
        p.on_issue(0, &DramCommand::Activate { row: 7 });
        assert!(p.allow_row_hit(0, true), "activation resets the streak");
    }

    #[test]
    fn write_drain_policy_overrides_watermarks() {
        let p = SchedPolicyKind::WriteDrain { high: 48, low: 8 }.build(4);
        assert_eq!(p.watermarks(40, 16), (48, 8));
        let d = SchedPolicyKind::FrFcfs.build(4);
        assert_eq!(d.watermarks(40, 16), (40, 16));
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn write_drain_rejects_inverted_watermarks() {
        let _ = SchedPolicyKind::WriteDrain { high: 8, low: 8 }.build(4);
    }
}
