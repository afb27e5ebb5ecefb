//! The per-channel timing-constraint engine: tracks bank/bank-group/rank
//! state and enforces every inter-command timing constraint (tRCD, tRP,
//! tRAS, tRC, tCCD_S/L, tRRD_S/L, tFAW, tRTP, tWR, tWTR_S/L, read↔write bus
//! turnaround, tREFI/tRFC) plus the FIGARO-specific rules:
//!
//! * `RELOC` may only follow a fully-restored activation (tRAS elapsed) and
//!   consecutive `RELOC`s are spaced by the internal column cycle. The
//!   first `RELOC` *pins* the source subarray: FIGARO's per-subarray
//!   row-address latches keep the source row latched in its local row
//!   buffer, so the bank can precharge and serve demand to **other
//!   subarrays** while the relocation train is in flight (only the two
//!   pinned subarrays are off-limits, and each `RELOC` occupies the
//!   column path for one internal cycle);
//! * `ACTIVATE`-merge may only follow at least one `RELOC` and must target
//!   the subarray those `RELOC`s wrote; it ends the pin;
//! * `LISA_CLONE` occupies the whole precharged bank for a hop-distance-
//!   dependent duration — it moves data through the local bitlines of
//!   every intermediate subarray, which is exactly the inefficiency
//!   FIGARO's global-row-buffer path removes.

use crate::command::DramCommand;
use crate::layout::Region;
use crate::stats::DramStats;
use crate::{Cycle, DramConfig, RowId};

/// Never-satisfied issue time returned for commands that are illegal in the
/// current bank state (e.g. `READ` on a closed bank).
pub const ILLEGAL: Cycle = Cycle::MAX;

/// Coordinates of one bank within a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankAddr {
    /// Rank index.
    pub rank: u32,
    /// Bank group within the rank.
    pub bankgroup: u32,
    /// Bank within the bank group.
    pub bank: u32,
}

impl BankAddr {
    /// Flat bank index within the channel — **the** shared flat-index
    /// formula of the workspace; every per-bank table (controller queue
    /// buckets, channel bank state, cache engines) indexes through it
    /// rather than re-deriving the arithmetic.
    #[must_use]
    pub fn flat_bank(&self, g: &crate::geometry::DramGeometry) -> u32 {
        debug_assert!(
            self.rank < g.ranks && self.bankgroup < g.bankgroups && self.bank < g.banks_per_group
        );
        (self.rank * g.bankgroups + self.bankgroup) * g.banks_per_group + self.bank
    }

    /// Inverse of [`BankAddr::flat_bank`]: the bank coordinates of flat
    /// index `flat`.
    #[must_use]
    pub fn from_flat(flat: u32, g: &crate::geometry::DramGeometry) -> Self {
        debug_assert!(flat < g.banks_per_channel(), "flat bank {flat} out of range");
        let rem = flat % g.banks_per_rank();
        Self {
            rank: flat / g.banks_per_rank(),
            bankgroup: rem / g.banks_per_group,
            bank: rem % g.banks_per_group,
        }
    }
}

/// What the caller learns from a successful [`DramChannel::issue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// When the command's effect completes: data burst end for column
    /// commands, tRCD for activations, operation end for composite
    /// commands.
    pub completes_at: Cycle,
}

/// An in-flight FIGARO relocation's hold on two subarrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    /// Source subarray (its LRB holds the pinned row).
    src_subarray: u32,
    /// Destination subarray (its LRB accumulates relocated columns).
    dst_subarray: u32,
}

#[derive(Debug, Clone)]
struct BankState {
    open_row: Option<RowId>,
    /// Deprecated-by-pinning; kept for `PrechargeAll` bookkeeping.
    must_precharge: bool,
    /// Active FIGARO relocation hold, if any.
    pinned: Option<Pin>,
    act_at: Cycle,
    next_act: Cycle,
    next_rd: Cycle,
    next_wr: Cycle,
    next_pre: Cycle,
    next_reloc: Cycle,
    /// Earliest merge activation (last `RELOC` completion), if any `RELOC`
    /// has been issued since the current activation.
    merge_ready: Option<Cycle>,
    /// Destination subarray of the in-flight `RELOC` sequence.
    reloc_dst: Option<u32>,
    /// Composite-operation occupancy (LISA clone, refresh).
    busy_until: Cycle,
}

impl BankState {
    fn new() -> Self {
        Self {
            open_row: None,
            must_precharge: false,
            pinned: None,
            act_at: 0,
            next_act: 0,
            next_rd: 0,
            next_wr: 0,
            next_pre: 0,
            next_reloc: 0,
            merge_ready: None,
            reloc_dst: None,
            busy_until: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct RankState {
    /// Earliest ACT anywhere in the rank (tRRD_S).
    next_act_s: Cycle,
    /// Earliest ACT per bank group (tRRD_L).
    next_act_l: Vec<Cycle>,
    /// Ring buffer of the four most recent ACT issue times (tFAW).
    faw: [Cycle; 4],
    faw_idx: usize,
    /// Total ACTs recorded; the tFAW constraint only applies once four
    /// activations exist.
    faw_count: u64,
    /// Earliest READ anywhere in the rank (tCCD_S, tWTR_S, turnaround).
    next_rd_s: Cycle,
    /// Earliest READ per bank group (tCCD_L, tWTR_L).
    next_rd_l: Vec<Cycle>,
    /// Earliest WRITE anywhere in the rank.
    next_wr_s: Cycle,
    /// Earliest WRITE per bank group.
    next_wr_l: Vec<Cycle>,
}

impl RankState {
    fn new(bankgroups: u32) -> Self {
        Self {
            next_act_s: 0,
            next_act_l: vec![0; bankgroups as usize],
            faw: [0; 4],
            faw_idx: 0,
            faw_count: 0,
            next_rd_s: 0,
            next_rd_l: vec![0; bankgroups as usize],
            next_wr_s: 0,
            next_wr_l: vec![0; bankgroups as usize],
        }
    }

    fn faw_earliest(&self, faw: u32) -> Cycle {
        if self.faw_count < 4 {
            return 0;
        }
        // The oldest of the last four ACTs bounds the fifth.
        self.faw[self.faw_idx].saturating_add(Cycle::from(faw))
    }

    fn record_act(&mut self, t: Cycle, bg: usize, rrd_s: u32, rrd_l: u32) {
        self.next_act_s = self.next_act_s.max(t + Cycle::from(rrd_s));
        self.next_act_l[bg] = self.next_act_l[bg].max(t + Cycle::from(rrd_l));
        self.faw[self.faw_idx] = t;
        self.faw_idx = (self.faw_idx + 1) % 4;
        self.faw_count += 1;
    }
}

/// One DRAM channel: all ranks/banks behind one command/data bus, plus the
/// timing-legality checker and statistics.
///
/// The controller drives it with three calls: [`DramChannel::can_issue`] /
/// [`DramChannel::earliest_issue`] to query legality and
/// [`DramChannel::issue`] to commit a command.
#[derive(Debug, Clone)]
pub struct DramChannel {
    config: DramConfig,
    ranks: Vec<RankState>,
    banks: Vec<BankState>,
    stats: DramStats,
}

impl DramChannel {
    /// Builds a channel for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` does not validate.
    #[must_use]
    pub fn new(config: &DramConfig) -> Self {
        config.validate().expect("DramConfig must validate");
        let g = &config.geometry;
        let ranks = (0..g.ranks).map(|_| RankState::new(g.bankgroups)).collect();
        let banks = (0..g.banks_per_channel()).map(|_| BankState::new()).collect();
        Self { config: config.clone(), ranks, banks, stats: DramStats::default() }
    }

    /// The device configuration this channel models.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Accumulated command/occupancy statistics.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    fn bank_index(&self, b: BankAddr) -> usize {
        b.flat_bank(&self.config.geometry) as usize
    }

    /// The currently open row of a bank, if any.
    #[must_use]
    pub fn open_row(&self, b: BankAddr) -> Option<RowId> {
        self.banks[self.bank_index(b)].open_row
    }

    /// Whether a bank has performed `ActivateMerge` and must be precharged
    /// before any other bank command.
    #[must_use]
    pub fn must_precharge(&self, b: BankAddr) -> bool {
        self.banks[self.bank_index(b)].must_precharge
    }

    /// Whether a FIGARO relocation currently pins two of the bank's
    /// subarrays (source LRB latched, destination LRB accumulating).
    #[must_use]
    pub fn is_pinned(&self, b: BankAddr) -> bool {
        self.banks[self.bank_index(b)].pinned.is_some()
    }

    /// Whether a composite operation (LISA clone / refresh) occupies the
    /// bank at `now`.
    #[must_use]
    pub fn is_busy(&self, b: BankAddr, now: Cycle) -> bool {
        self.banks[self.bank_index(b)].busy_until > now
    }

    /// Earliest cycle **no earlier than `now`** at which `cmd` may issue
    /// to bank `b`, or [`ILLEGAL`] if the bank state makes the command
    /// impossible regardless of time (wrong open/closed state, missing
    /// `RELOC` prerequisite, etc.). Legal results are clamped to `now`, so
    /// a constraint that elapsed long ago never reports an issue time in
    /// the past — `earliest_issue` and [`DramChannel::next_ready`] agree
    /// on every legal command.
    #[must_use]
    pub fn earliest_issue(&self, b: BankAddr, cmd: &DramCommand, now: Cycle) -> Cycle {
        let e = self.earliest_unclamped(b, cmd);
        if e == ILLEGAL {
            ILLEGAL
        } else {
            e.max(now)
        }
    }

    /// The raw timing-constraint bound behind [`DramChannel::earliest_issue`]
    /// (may lie in the past once the constraints have elapsed).
    fn earliest_unclamped(&self, b: BankAddr, cmd: &DramCommand) -> Cycle {
        let t = &self.config.timing;
        let bank = &self.banks[self.bank_index(b)];
        let rank = &self.ranks[b.rank as usize];
        let bg = b.bankgroup as usize;
        match cmd {
            DramCommand::Activate { row } => {
                if bank.open_row.is_some() || bank.must_precharge {
                    return ILLEGAL;
                }
                if let Some(pin) = bank.pinned {
                    let sa = self.config.layout.subarray_id(*row);
                    if sa == pin.src_subarray || sa == pin.dst_subarray {
                        return ILLEGAL; // those LRBs are mid-relocation
                    }
                }
                bank.next_act
                    .max(rank.next_act_s)
                    .max(rank.next_act_l[bg])
                    .max(rank.faw_earliest(t.faw))
                    .max(bank.busy_until)
            }
            DramCommand::Precharge => {
                if bank.open_row.is_none() && !bank.must_precharge {
                    return ILLEGAL;
                }
                bank.next_pre.max(bank.busy_until)
            }
            DramCommand::PrechargeAll => {
                // Earliest time every open bank in the rank may precharge.
                let mut earliest = 0;
                for (i, other) in self.banks.iter().enumerate() {
                    if self.rank_of_index(i) == b.rank
                        && (other.open_row.is_some() || other.must_precharge)
                    {
                        earliest = earliest.max(other.next_pre.max(other.busy_until));
                    }
                }
                earliest
            }
            DramCommand::Read { .. } => {
                if bank.open_row.is_none() || bank.must_precharge {
                    return ILLEGAL;
                }
                bank.next_rd.max(rank.next_rd_s).max(rank.next_rd_l[bg]).max(bank.busy_until)
            }
            DramCommand::Write { .. } => {
                if bank.open_row.is_none() || bank.must_precharge {
                    return ILLEGAL;
                }
                bank.next_wr.max(rank.next_wr_s).max(rank.next_wr_l[bg]).max(bank.busy_until)
            }
            DramCommand::Refresh => {
                let mut earliest = 0;
                for (i, other) in self.banks.iter().enumerate() {
                    if self.rank_of_index(i) == b.rank {
                        if other.open_row.is_some()
                            || other.must_precharge
                            || other.pinned.is_some()
                        {
                            return ILLEGAL; // all banks must be quiescent first
                        }
                        earliest = earliest.max(other.next_act).max(other.busy_until);
                    }
                }
                earliest
            }
            DramCommand::RelocBurst { dst_subarray, .. } => {
                // Same preconditions as the first RELOC of a sequence;
                // one train at a time per bank.
                if bank.pinned.is_some() {
                    return ILLEGAL;
                }
                let Some(open) = bank.open_row else { return ILLEGAL };
                if bank.must_precharge {
                    return ILLEGAL;
                }
                if self.config.layout.subarray_id(open) == *dst_subarray {
                    return ILLEGAL;
                }
                bank.next_reloc.max(bank.busy_until)
            }
            DramCommand::Reloc { dst_subarray, .. } => {
                if let Some(pin) = bank.pinned {
                    // Train in progress: the pinned source LRB feeds the
                    // GRB regardless of what the rest of the bank is doing.
                    if pin.dst_subarray != *dst_subarray {
                        return ILLEGAL; // one destination LRB per sequence
                    }
                    return bank.next_reloc.max(bank.busy_until);
                }
                // First RELOC of a sequence: needs the source row open and
                // fully restored.
                let Some(open) = bank.open_row else { return ILLEGAL };
                if bank.must_precharge {
                    return ILLEGAL;
                }
                if self.config.layout.subarray_id(open) == *dst_subarray {
                    return ILLEGAL; // FIGARO cannot relocate within one subarray
                }
                bank.next_reloc.max(bank.busy_until)
            }
            DramCommand::ActivateMerge { row } => {
                let Some(pin) = bank.pinned else { return ILLEGAL };
                let Some(ready) = bank.merge_ready else { return ILLEGAL };
                if pin.dst_subarray != self.config.layout.subarray_id(*row) {
                    return ILLEGAL; // must merge into the relocated-to subarray
                }
                ready
                    .max(rank.next_act_s)
                    .max(rank.next_act_l[bg])
                    .max(rank.faw_earliest(t.faw))
                    .max(bank.busy_until)
            }
            DramCommand::LisaClone { .. } => {
                if bank.open_row.is_some() || bank.must_precharge {
                    return ILLEGAL;
                }
                bank.next_act
                    .max(rank.next_act_s)
                    .max(rank.next_act_l[bg])
                    .max(rank.faw_earliest(t.faw))
                    .max(bank.busy_until)
            }
        }
    }

    fn rank_of_index(&self, bank_index: usize) -> u32 {
        bank_index as u32 / self.config.geometry.banks_per_rank()
    }

    /// Whether `cmd` may issue to `b` exactly at `now`.
    #[must_use]
    pub fn can_issue(&self, b: BankAddr, cmd: &DramCommand, now: Cycle) -> bool {
        let e = self.earliest_issue(b, cmd, now);
        e != ILLEGAL && e <= now
    }

    /// Event-horizon form of [`DramChannel::earliest_issue`]: the earliest
    /// cycle **no earlier than `from`** at which `cmd` could issue to `b`,
    /// or `None` when the bank state makes the command illegal regardless
    /// of time. Timing state only changes when commands issue, so the
    /// returned cycle stays valid until the next [`DramChannel::issue`] on
    /// the channel — this is what lets an event-driven scheduler sleep
    /// until the horizon instead of re-polling every cycle.
    ///
    /// **Lemma (other banks only move later).** Issuing a bank-scoped
    /// command (anything but `Refresh`/`PrechargeAll`) on bank `X` never
    /// lowers the answer for any other bank `Y` and command, and never
    /// turns a `None` for `Y` into `Some`: `X`'s issue changes `Y`'s
    /// legality inputs (open row, pin, must-precharge) not at all, and
    /// every rank- and bank-group register it touches (tRRD, tFAW,
    /// tCCD, tWTR, turnaround) is updated with `max`. So an answer for `Y`
    /// stays a valid lower bound across issues on other banks, and exact
    /// across none — the memory controller's per-bank horizon memo rests
    /// on this (property-tested below on random legal command streams).
    #[must_use]
    pub fn next_ready(&self, b: BankAddr, cmd: &DramCommand, from: Cycle) -> Option<Cycle> {
        let e = self.earliest_issue(b, cmd, from);
        (e != ILLEGAL).then_some(e)
    }

    /// Duration of a LISA clone between the subarrays of `src_row` and
    /// `dst_row`: source restoration + one row-buffer-movement step per
    /// hop + destination settle + precharge. This is the
    /// distance-**dependent** cost FIGARO's global-row-buffer path avoids.
    #[must_use]
    pub fn lisa_clone_duration(&self, src_row: RowId, dst_row: RowId) -> Cycle {
        let t = &self.config.timing;
        let l = &self.config.layout;
        let (src_sa, dst_sa) = (l.subarray_id(src_row), l.subarray_id(dst_row));
        // When exactly one side is a fast subarray, VILLA uses the fast
        // subarray nearest to the regular one (the cache-slot bookkeeping
        // abstracts which physical fast subarray holds the row).
        let src_fast = matches!(l.region(src_row), Region::Fast) && !l.all_fast;
        let dst_fast = matches!(l.region(dst_row), Region::Fast) && !l.all_fast;
        let hops = match (src_fast, dst_fast) {
            (true, false) => l.nearest_fast_hops(dst_sa),
            (false, true) => l.nearest_fast_hops(src_sa),
            _ => l.hop_distance(src_sa, dst_sa),
        }
        .max(1);
        let src_ras = t.ras_of(l.region(src_row));
        let dst_settle = t.rcd_of(l.region(dst_row));
        let pre = t.rp_of(l.region(dst_row)).max(t.rp_of(l.region(src_row)));
        Cycle::from(src_ras + hops * t.lisa_hop + dst_settle + pre)
    }

    /// Issues `cmd` to bank `b` at cycle `now`, updating all timing state
    /// and statistics.
    ///
    /// # Panics
    ///
    /// Panics if the command is not issuable at `now`
    /// (see [`DramChannel::can_issue`]); the scheduler must check first.
    pub fn issue(&mut self, b: BankAddr, cmd: &DramCommand, now: Cycle) -> IssueOutcome {
        assert!(
            self.can_issue(b, cmd, now),
            "illegal issue of {cmd:?} to {b:?} at {now} (earliest {})",
            self.earliest_issue(b, cmd, now)
        );
        let t = self.config.timing;
        let layout = self.config.layout;
        let bg = b.bankgroup as usize;
        let idx = self.bank_index(b);
        match *cmd {
            DramCommand::Activate { row } => {
                let region = layout.region(row);
                let (rcd, ras, rp) = (t.rcd_of(region), t.ras_of(region), t.rp_of(region));
                let bank = &mut self.banks[idx];
                bank.open_row = Some(row);
                bank.act_at = now;
                bank.next_rd = now + Cycle::from(rcd);
                bank.next_wr = now + Cycle::from(rcd);
                bank.next_pre = now + Cycle::from(ras);
                bank.next_act = now + Cycle::from(ras + rp).max(Cycle::from(t.rc));
                bank.next_reloc = bank.next_reloc.max(now + Cycle::from(ras));
                if bank.pinned.is_none() {
                    bank.merge_ready = None;
                    bank.reloc_dst = None;
                }
                self.ranks[b.rank as usize].record_act(now, bg, t.rrd_s, t.rrd_l);
                self.stats.record_act(region);
                IssueOutcome { completes_at: now + Cycle::from(rcd) }
            }
            DramCommand::Precharge => {
                let bank = &mut self.banks[idx];
                let region = bank.open_row.map_or(Region::Slow, |r| layout.region(r));
                if let Some(_row) = bank.open_row {
                    self.stats.bank_open_cycles += now.saturating_sub(bank.act_at);
                }
                bank.open_row = None;
                bank.must_precharge = false;
                if bank.pinned.is_none() {
                    bank.merge_ready = None;
                    bank.reloc_dst = None;
                }
                let rp = t.rp_of(region);
                bank.next_act = bank.next_act.max(now + Cycle::from(rp));
                self.stats.precharges += 1;
                IssueOutcome { completes_at: now + Cycle::from(rp) }
            }
            DramCommand::PrechargeAll => {
                let mut completes = now;
                for i in 0..self.banks.len() {
                    if self.rank_of_index(i) != b.rank {
                        continue;
                    }
                    let bank = &mut self.banks[i];
                    if bank.open_row.is_some() || bank.must_precharge {
                        let region = bank.open_row.map_or(Region::Slow, |r| layout.region(r));
                        self.stats.bank_open_cycles += now.saturating_sub(bank.act_at);
                        bank.open_row = None;
                        bank.must_precharge = false;
                        bank.merge_ready = None;
                        bank.reloc_dst = None;
                        let rp = t.rp_of(region);
                        bank.next_act = bank.next_act.max(now + Cycle::from(rp));
                        completes = completes.max(now + Cycle::from(rp));
                        self.stats.precharges += 1;
                    }
                }
                IssueOutcome { completes_at: completes }
            }
            DramCommand::Read { auto_pre, .. } => {
                let rank = &mut self.ranks[b.rank as usize];
                rank.next_rd_s = rank.next_rd_s.max(now + Cycle::from(t.ccd_s));
                rank.next_rd_l[bg] = rank.next_rd_l[bg].max(now + Cycle::from(t.ccd_l));
                let turnaround = now + Cycle::from(t.rd_to_wr());
                rank.next_wr_s = rank.next_wr_s.max(turnaround);
                rank.next_wr_l[bg] = rank.next_wr_l[bg].max(turnaround);
                let bank = &mut self.banks[idx];
                bank.next_pre = bank.next_pre.max(now + Cycle::from(t.rtp));
                bank.next_reloc = bank.next_reloc.max(now + Cycle::from(t.ccd_l));
                self.stats.reads += 1;
                if auto_pre {
                    let region = bank.open_row.map_or(Region::Slow, |r| layout.region(r));
                    self.stats.bank_open_cycles += now.saturating_sub(bank.act_at);
                    bank.open_row = None;
                    bank.next_act =
                        bank.next_act.max(now + Cycle::from(t.rtp) + Cycle::from(t.rp_of(region)));
                    self.stats.precharges += 1;
                }
                IssueOutcome { completes_at: now + Cycle::from(t.cl + t.bl) }
            }
            DramCommand::Write { auto_pre, .. } => {
                let rank = &mut self.ranks[b.rank as usize];
                rank.next_wr_s = rank.next_wr_s.max(now + Cycle::from(t.ccd_s));
                rank.next_wr_l[bg] = rank.next_wr_l[bg].max(now + Cycle::from(t.ccd_l));
                rank.next_rd_s = rank.next_rd_s.max(now + Cycle::from(t.cwl + t.bl + t.wtr_s));
                rank.next_rd_l[bg] =
                    rank.next_rd_l[bg].max(now + Cycle::from(t.cwl + t.bl + t.wtr_l));
                let write_recovery = now + Cycle::from(t.cwl + t.bl + t.wr);
                let bank = &mut self.banks[idx];
                bank.next_pre = bank.next_pre.max(write_recovery);
                bank.next_reloc = bank.next_reloc.max(now + Cycle::from(t.ccd_l));
                self.stats.writes += 1;
                if auto_pre {
                    let region = bank.open_row.map_or(Region::Slow, |r| layout.region(r));
                    self.stats.bank_open_cycles += now.saturating_sub(bank.act_at);
                    bank.open_row = None;
                    bank.next_act =
                        bank.next_act.max(write_recovery + Cycle::from(t.rp_of(region)));
                    self.stats.precharges += 1;
                }
                IssueOutcome { completes_at: now + Cycle::from(t.cwl + t.bl) }
            }
            DramCommand::Refresh => {
                for i in 0..self.banks.len() {
                    if self.rank_of_index(i) == b.rank {
                        let bank = &mut self.banks[i];
                        bank.next_act = bank.next_act.max(now + Cycle::from(t.rfc));
                        bank.busy_until = bank.busy_until.max(now + Cycle::from(t.rfc));
                    }
                }
                self.stats.refreshes += 1;
                IssueOutcome { completes_at: now + Cycle::from(t.rfc) }
            }
            DramCommand::RelocBurst { dst_subarray, count, .. } => {
                let dur = Cycle::from(t.reloc_to_reloc) * Cycle::from(count.max(1));
                let bank = &mut self.banks[idx];
                let open = bank.open_row.expect("RELOC burst requires the source row open");
                bank.pinned = Some(Pin { src_subarray: layout.subarray_id(open), dst_subarray });
                bank.next_reloc = now + dur;
                bank.next_rd = bank.next_rd.max(now + dur);
                bank.next_wr = bank.next_wr.max(now + dur);
                bank.merge_ready = Some(now + dur);
                bank.reloc_dst = Some(dst_subarray);
                self.stats.relocs += u64::from(count);
                IssueOutcome { completes_at: now + dur }
            }
            DramCommand::Reloc { dst_subarray, .. } => {
                let bank = &mut self.banks[idx];
                if bank.pinned.is_none() {
                    // First RELOC of the sequence: latch the source row in
                    // its subarray (FIGARO's per-subarray row-address
                    // latch). The bank's demand row may now close and
                    // other subarrays may activate freely.
                    let open = bank.open_row.expect("first RELOC requires the source row open");
                    bank.pinned =
                        Some(Pin { src_subarray: layout.subarray_id(open), dst_subarray });
                }
                bank.next_reloc = now + Cycle::from(t.reloc_to_reloc);
                // The column path (decoders + GRB) is occupied briefly.
                bank.next_rd = bank.next_rd.max(now + Cycle::from(t.reloc_to_reloc));
                bank.next_wr = bank.next_wr.max(now + Cycle::from(t.reloc_to_reloc));
                bank.merge_ready = Some(now + Cycle::from(t.reloc));
                bank.reloc_dst = Some(dst_subarray);
                self.stats.relocs += 1;
                IssueOutcome { completes_at: now + Cycle::from(t.reloc) }
            }
            DramCommand::ActivateMerge { row } => {
                let region = layout.region(row);
                let settle = t.rcd_of(region);
                let bank = &mut self.banks[idx];
                // The destination subarray captures the relocated columns
                // and locally precharges; the pin is released. The row
                // decoder is busy for the settle time, holding off other
                // bank commands briefly.
                bank.pinned = None;
                bank.merge_ready = None;
                bank.reloc_dst = None;
                // The destination subarray precharges its own bitlines
                // locally after capturing the columns; other subarrays only
                // wait out the row-decoder occupancy (settle time).
                bank.next_act = bank.next_act.max(now + Cycle::from(settle));
                bank.next_rd = bank.next_rd.max(now + Cycle::from(settle));
                bank.next_wr = bank.next_wr.max(now + Cycle::from(settle));
                self.ranks[b.rank as usize].record_act(now, bg, t.rrd_s, t.rrd_l);
                self.stats.record_merge(region);
                IssueOutcome { completes_at: now + Cycle::from(settle) }
            }
            DramCommand::LisaClone { src_row, dst_row } => {
                let dur = self.lisa_clone_duration(src_row, dst_row);
                let l = self.config.layout;
                let hops = l.hop_distance(l.subarray_id(src_row), l.subarray_id(dst_row)).max(1);
                let bank = &mut self.banks[idx];
                bank.busy_until = bank.busy_until.max(now + dur);
                bank.next_act = bank.next_act.max(now + dur);
                self.stats.bank_open_cycles += dur;
                self.ranks[b.rank as usize].record_act(now, bg, t.rrd_s, t.rrd_l);
                self.stats.lisa_clones += 1;
                self.stats.lisa_hops += u64::from(hops);
                IssueOutcome { completes_at: now + dur }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SubarrayLayout;

    fn channel() -> DramChannel {
        DramChannel::new(&DramConfig::ddr4_paper_default())
    }

    fn bank0() -> BankAddr {
        BankAddr { rank: 0, bankgroup: 0, bank: 0 }
    }

    #[test]
    fn read_requires_open_row() {
        let c = channel();
        let rd = DramCommand::Read { col: 0, auto_pre: false };
        assert_eq!(c.earliest_issue(bank0(), &rd, 0), ILLEGAL);
    }

    #[test]
    fn activate_then_read_waits_trcd() {
        let mut c = channel();
        c.issue(bank0(), &DramCommand::Activate { row: 7 }, 0);
        let rd = DramCommand::Read { col: 3, auto_pre: false };
        assert_eq!(c.earliest_issue(bank0(), &rd, 0), 11);
        assert!(!c.can_issue(bank0(), &rd, 10));
        assert!(c.can_issue(bank0(), &rd, 11));
        let out = c.issue(bank0(), &rd, 11);
        assert_eq!(out.completes_at, 11 + 11 + 4);
    }

    #[test]
    fn next_ready_floors_at_from_and_maps_illegal_to_none() {
        let mut c = channel();
        let rd = DramCommand::Read { col: 0, auto_pre: false };
        assert_eq!(c.next_ready(bank0(), &rd, 5), None, "closed bank cannot read");
        c.issue(bank0(), &DramCommand::Activate { row: 7 }, 0);
        // tRCD gates the read at 11; asking from an earlier cycle returns
        // the constraint, asking from a later cycle returns `from` itself.
        assert_eq!(c.next_ready(bank0(), &rd, 3), Some(11));
        assert_eq!(c.next_ready(bank0(), &rd, 40), Some(40));
    }

    #[test]
    fn earliest_issue_never_reports_the_past_and_matches_next_ready() {
        // Regression: `earliest_issue` used to ignore `now` and could
        // report an issue time long in the past once the constraints had
        // elapsed, disagreeing with `next_ready`. Legal commands must be
        // clamped to `now`; illegal ones stay ILLEGAL at any `now`.
        let mut c = channel();
        c.issue(bank0(), &DramCommand::Activate { row: 7 }, 0);
        let rd = DramCommand::Read { col: 0, auto_pre: false };
        let pre = DramCommand::Precharge;
        for now in [0u64, 5, 11, 100, 10_000] {
            for cmd in [&rd, &pre] {
                let e = c.earliest_issue(bank0(), cmd, now);
                assert_ne!(e, ILLEGAL);
                assert!(e >= now, "{cmd:?} at now={now} reported past cycle {e}");
                assert_eq!(c.next_ready(bank0(), cmd, now), Some(e), "{cmd:?} at now={now}");
            }
        }
        // tRCD still gates the read when asked before it elapses.
        assert_eq!(c.earliest_issue(bank0(), &rd, 0), 11);
        // Illegal regardless of time: ACT on the open bank.
        let act = DramCommand::Activate { row: 9 };
        assert_eq!(c.earliest_issue(bank0(), &act, 10_000), ILLEGAL);
        assert_eq!(c.next_ready(bank0(), &act, 10_000), None);
    }

    #[test]
    fn double_activate_same_bank_is_illegal_without_precharge() {
        let mut c = channel();
        c.issue(bank0(), &DramCommand::Activate { row: 7 }, 0);
        assert_eq!(c.earliest_issue(bank0(), &DramCommand::Activate { row: 8 }, 100), ILLEGAL);
    }

    #[test]
    fn precharge_respects_tras_then_act_waits_trp() {
        let mut c = channel();
        c.issue(bank0(), &DramCommand::Activate { row: 7 }, 0);
        assert_eq!(c.earliest_issue(bank0(), &DramCommand::Precharge, 0), 28);
        c.issue(bank0(), &DramCommand::Precharge, 28);
        let act = DramCommand::Activate { row: 8 };
        assert_eq!(c.earliest_issue(bank0(), &act, 28), 39); // tRC = tRAS + tRP
        c.issue(bank0(), &act, 39);
        assert_eq!(c.open_row(bank0()), Some(8));
    }

    #[test]
    fn read_to_pre_respects_trtp() {
        let mut c = channel();
        c.issue(bank0(), &DramCommand::Activate { row: 7 }, 0);
        // Read late in the open interval: PRE gated by rtp not ras.
        c.issue(bank0(), &DramCommand::Read { col: 0, auto_pre: false }, 30);
        assert_eq!(c.earliest_issue(bank0(), &DramCommand::Precharge, 30), 36);
    }

    #[test]
    fn faw_limits_fifth_activate() {
        let mut c = channel();
        let t = c.config().timing;
        // Four ACTs to different bank groups, spaced by tRRD_S.
        let mut now = 0;
        for bg in 0..4 {
            let b = BankAddr { rank: 0, bankgroup: bg, bank: 0 };
            now = c.earliest_issue(b, &DramCommand::Activate { row: 1 }, now).max(now);
            c.issue(b, &DramCommand::Activate { row: 1 }, now);
        }
        // Fifth ACT (different bank, bankgroup 0) must wait for the FAW window.
        let b5 = BankAddr { rank: 0, bankgroup: 0, bank: 1 };
        let e = c.earliest_issue(b5, &DramCommand::Activate { row: 1 }, now);
        assert!(e >= Cycle::from(t.faw), "fifth ACT at {e}, expected >= tFAW {}", t.faw);
    }

    #[test]
    fn ccd_long_within_bankgroup_short_across() {
        let mut c = channel();
        let b_same = BankAddr { rank: 0, bankgroup: 0, bank: 1 };
        let b_diff = BankAddr { rank: 0, bankgroup: 1, bank: 0 };
        c.issue(bank0(), &DramCommand::Activate { row: 1 }, 0);
        c.issue(b_same, &DramCommand::Activate { row: 1 }, 5); // tRRD_L within the group
        c.issue(b_diff, &DramCommand::Activate { row: 1 }, 9);
        let rd = DramCommand::Read { col: 0, auto_pre: false };
        c.issue(bank0(), &rd, 19);
        // Same bank group: tCCD_L = 5; different: tCCD_S = 4.
        assert_eq!(c.earliest_issue(b_same, &rd, 19), 24);
        assert_eq!(c.earliest_issue(b_diff, &rd, 19), 23);
    }

    #[test]
    fn write_to_read_turnaround_uses_wtr() {
        let mut c = channel();
        let t = c.config().timing;
        c.issue(bank0(), &DramCommand::Activate { row: 1 }, 0);
        c.issue(bank0(), &DramCommand::Write { col: 0, auto_pre: false }, 11);
        let rd = DramCommand::Read { col: 1, auto_pre: false };
        let e = c.earliest_issue(bank0(), &rd, 11);
        assert_eq!(e, 11 + Cycle::from(t.cwl + t.bl + t.wtr_l));
    }

    #[test]
    fn reloc_waits_for_full_restoration() {
        let mut c = channel();
        c.issue(bank0(), &DramCommand::Activate { row: 7 }, 0);
        let reloc = DramCommand::Reloc { src_col: 3, dst_subarray: 5, dst_col: 1 };
        // row 7 is in subarray 0; dst 5 is fine, but must wait tRAS = 28.
        assert_eq!(c.earliest_issue(bank0(), &reloc, 0), 28);
        c.issue(bank0(), &reloc, 28);
        // Back-to-back RELOCs spaced by the internal column cycle.
        let gap = u64::from(c.config().timing.reloc_to_reloc);
        assert_eq!(c.earliest_issue(bank0(), &reloc, 28), 28 + gap);
    }

    #[test]
    fn reloc_within_same_subarray_is_illegal() {
        let mut c = channel();
        c.issue(bank0(), &DramCommand::Activate { row: 7 }, 0);
        let reloc = DramCommand::Reloc { src_col: 3, dst_subarray: 0, dst_col: 1 };
        assert_eq!(c.earliest_issue(bank0(), &reloc, 28), ILLEGAL);
    }

    #[test]
    fn merge_requires_reloc_and_matching_subarray_then_unpins() {
        let mut c = channel();
        c.issue(bank0(), &DramCommand::Activate { row: 7 }, 0);
        let merge_row = 5 * 512 + 3; // a row in subarray 5
        let merge = DramCommand::ActivateMerge { row: merge_row };
        assert_eq!(c.earliest_issue(bank0(), &merge, 28), ILLEGAL); // no RELOC yet
        c.issue(bank0(), &DramCommand::Reloc { src_col: 3, dst_subarray: 5, dst_col: 1 }, 28);
        assert!(c.is_pinned(bank0()));
        // Wrong subarray is illegal.
        let wrong = DramCommand::ActivateMerge { row: 9 * 512 };
        assert_eq!(c.earliest_issue(bank0(), &wrong, 40), ILLEGAL);
        // The last RELOC completed at 29; asked from 40 the merge is ready
        // immediately (clamped to `now`, never in the past).
        assert_eq!(c.earliest_issue(bank0(), &merge, 29), 29);
        let e = c.earliest_issue(bank0(), &merge, 40);
        assert_eq!(e, 40);
        c.issue(bank0(), &merge, 40);
        assert!(!c.is_pinned(bank0()), "merge releases the pin");
        // The demand row is still open and servable.
        assert_eq!(c.open_row(bank0()), Some(7));
        let rd_at = c.earliest_issue(bank0(), &DramCommand::Read { col: 0, auto_pre: false }, 40);
        assert_ne!(rd_at, ILLEGAL);
    }

    #[test]
    fn pinned_bank_serves_other_subarrays_during_relocation() {
        let mut c = channel();
        c.issue(bank0(), &DramCommand::Activate { row: 7 }, 0); // subarray 0
        c.issue(bank0(), &DramCommand::Reloc { src_col: 0, dst_subarray: 5, dst_col: 0 }, 28);
        // Demand precharges the source row and opens a row in subarray 9 —
        // legal mid-train thanks to FIGARO's per-subarray latches.
        c.issue(bank0(), &DramCommand::Precharge, 29);
        let other = DramCommand::Activate { row: 9 * 512 };
        let t = c.earliest_issue(bank0(), &other, 29);
        assert_ne!(t, ILLEGAL);
        c.issue(bank0(), &other, t.max(29));
        // The train continues while subarray 9 is open.
        let reloc = DramCommand::Reloc { src_col: 1, dst_subarray: 5, dst_col: 1 };
        let rt = c.earliest_issue(bank0(), &reloc, t + 1);
        assert_ne!(rt, ILLEGAL);
        c.issue(bank0(), &reloc, rt.max(t + 1));
        // Close subarray 9's row; the pinned subarrays stay off-limits.
        let pt = c.earliest_issue(bank0(), &DramCommand::Precharge, rt + 40).max(rt + 40);
        c.issue(bank0(), &DramCommand::Precharge, pt);
        assert_eq!(c.earliest_issue(bank0(), &DramCommand::Activate { row: 3 }, 200), ILLEGAL); // subarray 0 pinned
        assert_eq!(
            c.earliest_issue(bank0(), &DramCommand::Activate { row: 5 * 512 }, 200),
            ILLEGAL
        ); // subarray 5 pinned
           // Finish the train: merge into subarray 5, pin released.
        let merge = DramCommand::ActivateMerge { row: 5 * 512 };
        let mt = c.earliest_issue(bank0(), &merge, 200);
        assert_ne!(mt, ILLEGAL);
        c.issue(bank0(), &merge, mt.max(200));
        assert!(!c.is_pinned(bank0()));
        let at = c.earliest_issue(bank0(), &DramCommand::Activate { row: 3 }, 300);
        assert_ne!(at, ILLEGAL);
    }

    #[test]
    fn reloc_sequence_must_keep_one_destination() {
        let mut c = channel();
        c.issue(bank0(), &DramCommand::Activate { row: 7 }, 0);
        c.issue(bank0(), &DramCommand::Reloc { src_col: 0, dst_subarray: 5, dst_col: 0 }, 28);
        let other_dst = DramCommand::Reloc { src_col: 1, dst_subarray: 6, dst_col: 1 };
        assert_eq!(c.earliest_issue(bank0(), &other_dst, 40), ILLEGAL);
    }

    #[test]
    fn lisa_clone_duration_grows_with_distance() {
        let cfg = DramConfig {
            layout: SubarrayLayout::homogeneous(64, 512).with_interleaved_fast(16, 32),
            ..DramConfig::ddr4_paper_default()
        };
        let c = DramChannel::new(&cfg);
        let fast0_row = cfg.layout.fast_row_base(0); // near regular subarray 3
        let near = c.lisa_clone_duration(3 * 512, fast0_row);
        let far = c.lisa_clone_duration(0, fast0_row);
        assert!(far > near, "far {far} should exceed near {near}");
    }

    #[test]
    fn lisa_clone_occupies_the_bank() {
        let cfg = DramConfig {
            layout: SubarrayLayout::homogeneous(64, 512).with_interleaved_fast(16, 32),
            ..DramConfig::ddr4_paper_default()
        };
        let mut c = DramChannel::new(&cfg);
        let dst = cfg.layout.fast_row_base(0);
        let clone = DramCommand::LisaClone { src_row: 0, dst_row: dst };
        let out = c.issue(bank0(), &clone, 0);
        assert!(c.is_busy(bank0(), out.completes_at - 1));
        assert!(!c.is_busy(bank0(), out.completes_at));
        let e = c.earliest_issue(bank0(), &DramCommand::Activate { row: 1 }, 0);
        assert_eq!(e, out.completes_at);
    }

    #[test]
    fn refresh_requires_all_banks_closed_and_blocks_activates() {
        let mut c = channel();
        c.issue(bank0(), &DramCommand::Activate { row: 7 }, 0);
        assert_eq!(c.earliest_issue(bank0(), &DramCommand::Refresh, 50), ILLEGAL);
        c.issue(bank0(), &DramCommand::Precharge, 28);
        let e = c.earliest_issue(bank0(), &DramCommand::Refresh, 28);
        assert_ne!(e, ILLEGAL);
        let t_ref = e.max(28);
        let out = c.issue(bank0(), &DramCommand::Refresh, t_ref);
        assert_eq!(out.completes_at, t_ref + 280);
        let other = BankAddr { rank: 0, bankgroup: 3, bank: 3 };
        let act_e = c.earliest_issue(other, &DramCommand::Activate { row: 0 }, t_ref);
        assert!(act_e >= out.completes_at);
    }

    #[test]
    fn auto_precharge_closes_the_bank() {
        let mut c = channel();
        c.issue(bank0(), &DramCommand::Activate { row: 7 }, 0);
        c.issue(bank0(), &DramCommand::Read { col: 0, auto_pre: true }, 11);
        assert_eq!(c.open_row(bank0()), None);
        let e = c.earliest_issue(bank0(), &DramCommand::Activate { row: 9 }, 11);
        assert!(e >= 11 + 6 + 11); // rtp + rp
    }

    #[test]
    fn fast_region_rows_use_reduced_timing() {
        let cfg = DramConfig {
            layout: SubarrayLayout::homogeneous(64, 512).with_appended_fast(2, 32),
            ..DramConfig::ddr4_paper_default()
        };
        let mut c = DramChannel::new(&cfg);
        let fast_row = cfg.layout.fast_row_base(0);
        c.issue(bank0(), &DramCommand::Activate { row: fast_row }, 0);
        let rd = DramCommand::Read { col: 0, auto_pre: false };
        assert_eq!(c.earliest_issue(bank0(), &rd, 0), 6); // fast tRCD
        assert_eq!(c.earliest_issue(bank0(), &DramCommand::Precharge, 0), 11); // fast tRAS
    }

    /// Every per-bank command class, with parameters spanning pinned and
    /// unpinned subarrays of `layout` (slow and fast rows alike).
    fn probe_commands(layout: &SubarrayLayout) -> Vec<DramCommand> {
        let fast = layout.fast_row_base(0);
        let rows = [3, 5 * 512 + 1, 9 * 512, fast, fast + 1];
        let mut cmds = vec![
            DramCommand::Precharge,
            DramCommand::Read { col: 0, auto_pre: false },
            DramCommand::Write { col: 0, auto_pre: false },
            DramCommand::LisaClone { src_row: 3, dst_row: fast },
        ];
        for row in rows {
            let dst_subarray = layout.subarray_id(row);
            cmds.push(DramCommand::Activate { row });
            cmds.push(DramCommand::ActivateMerge { row });
            cmds.push(DramCommand::Reloc { src_col: 0, dst_subarray, dst_col: 0 });
            cmds.push(DramCommand::RelocBurst { src_col: 0, dst_subarray, dst_col: 0, count: 4 });
        }
        cmds
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The lemma on [`DramChannel::next_ready`]: on a 2-rank FIGARO
        /// layout, issuing a bank-scoped command on bank `X` never moves
        /// another bank's earliest issue time earlier, and never makes an
        /// illegal command legal. Rank-scoped `Refresh`/`PrechargeAll`
        /// are issued (they shape the state) but not probed.
        #[test]
        fn issuing_on_one_bank_never_advances_another(
            steps in proptest::collection::vec((0u8..6, 0u8..10, 0u32..u32::MAX, 0u8..12), 40..160)
        ) {
            let cfg = DramConfig {
                geometry: crate::DramGeometry { ranks: 2, ..crate::DramGeometry::paper_default() },
                layout: SubarrayLayout::homogeneous(64, 512).with_appended_fast(2, 32),
                ..DramConfig::ddr4_paper_default()
            };
            let g = cfg.geometry;
            let layout = cfg.layout;
            let mut c = DramChannel::new(&cfg);
            let probes = probe_commands(&layout);
            let banks: Vec<BankAddr> =
                (0..g.banks_per_channel()).map(|f| BankAddr::from_flat(f, &g)).collect();
            // Issuing banks: both ranks, shared and separate bank groups.
            let actors = [0u32, 1, 4, 16, 17, 21].map(|f| banks[f as usize]);
            let earliest = |c: &DramChannel| -> Vec<Cycle> {
                banks.iter().flat_map(|&b| probes.iter().map(move |p| c.earliest_issue(b, p, 0))).collect()
            };
            let mut now: Cycle = 0;
            let mut issued = [0usize; 2];
            for (pick, kind, param, gap) in steps {
                now += Cycle::from(gap);
                let x = actors[pick as usize];
                let bank = &c.banks[c.bank_index(x)];
                let row = param % layout.total_rows();
                let subarrays = layout.regular_subarrays + layout.fast_count();
                let dst_subarray = bank.pinned.map_or(param % subarrays, |p| p.dst_subarray);
                let cmd = match kind {
                    0 => DramCommand::Activate { row },
                    1 => DramCommand::Precharge,
                    2 => DramCommand::Read { col: param % 128, auto_pre: param % 7 == 0 },
                    3 => DramCommand::Write { col: param % 128, auto_pre: param % 7 == 0 },
                    4 => DramCommand::Reloc { src_col: param % 128, dst_subarray, dst_col: param % 64 },
                    5 => DramCommand::RelocBurst { src_col: 0, dst_subarray, dst_col: 0, count: 1 + param % 8 },
                    6 => {
                        let dst = bank.pinned.map_or(0, |p| p.dst_subarray);
                        let base = if dst < layout.regular_subarrays {
                            dst * layout.rows_per_subarray
                        } else {
                            layout.fast_row_base(dst - layout.regular_subarrays)
                        };
                        DramCommand::ActivateMerge { row: base + param % layout.fast_rows_each() }
                    }
                    7 => DramCommand::LisaClone { src_row: row % 512, dst_row: layout.fast_row_base(0) },
                    8 => DramCommand::Refresh,
                    // Rarely: closing a whole rank erases most of the state.
                    _ if param % 4 == 0 => DramCommand::PrechargeAll,
                    _ => DramCommand::Activate { row: row % 512 },
                };
                let at = c.earliest_issue(x, &cmd, now);
                if at == ILLEGAL {
                    continue;
                }
                now = at;
                let rank_scoped = matches!(cmd, DramCommand::Refresh | DramCommand::PrechargeAll);
                let before = earliest(&c);
                c.issue(x, &cmd, now);
                issued[usize::from(rank_scoped)] += 1;
                if rank_scoped {
                    continue;
                }
                let after = earliest(&c);
                for (i, (&b0, &b1)) in before.iter().zip(&after).enumerate() {
                    let (y, p) = (banks[i / probes.len()], probes[i % probes.len()]);
                    if y == x {
                        continue;
                    }
                    proptest::prop_assert!(
                        b0 != ILLEGAL || b1 == ILLEGAL,
                        "{cmd:?} on {x:?} made {p:?} on {y:?} legal"
                    );
                    proptest::prop_assert!(
                        b1 >= b0,
                        "{cmd:?} on {x:?} moved {p:?} on {y:?} from {b0} to {b1}"
                    );
                }
            }
            proptest::prop_assert!(issued[0] > 0, "the stream must issue bank-scoped commands");
        }
    }

    #[test]
    fn stats_count_commands() {
        let mut c = channel();
        c.issue(bank0(), &DramCommand::Activate { row: 7 }, 0);
        c.issue(bank0(), &DramCommand::Read { col: 0, auto_pre: false }, 11);
        c.issue(bank0(), &DramCommand::Precharge, 28);
        let s = c.stats();
        assert_eq!(s.activates, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.precharges, 1);
        assert!(s.bank_open_cycles >= 28);
    }
}
