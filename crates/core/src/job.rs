//! Relocation jobs: self-contained DRAM-command generators that move data
//! into or out of the in-DRAM cache.
//!
//! A job is owned by the memory controller's per-bank scheduler once
//! started. Each cycle the controller *peeks* the next command for the
//! bank's current state, issues it when DRAM timing allows, and reports it
//! back with [`RelocationJob::on_issued`]. The job is finished when
//! [`RelocationJob::peek`] returns `None`.
//!
//! FIGARO copies are the paper's Section 4.1 sequence: ensure the source
//! row is open (activating it if a previous conflict closed it), issue one
//! `RELOC` per cache block of the segment — the first `RELOC` pins the
//! source subarray's local row buffer, after which the bank may serve
//! demand to other subarrays concurrently — then the merge `ACTIVATE` on
//! the destination row completes the job (the destination subarray
//! precharges locally). A LISA-VILLA job (the engine configured with
//! [`crate::Relocation::LisaClone`]) is a single composite `LISA_CLONE`
//! of the whole row that occupies the whole precharged bank.

use figaro_dram::{DramCommand, RowId};

/// Why a job exists — used by engines to update tag state on completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPurpose {
    /// Fill a cache slot (source row → cache row).
    Insert,
    /// Write a dirty victim back (cache row → source row).
    Writeback,
}

/// The data-movement shape of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// FIGARO fine-grained copy of `blocks` consecutive columns.
    FigCopy {
        /// Row whose LRB sources the columns.
        from_row: RowId,
        /// First source column.
        from_col: u32,
        /// Row that receives the columns via the merge activation.
        to_row: RowId,
        /// First destination column.
        to_col: u32,
        /// Destination subarray id (dense, per `SubarrayLayout::subarray_id`).
        to_subarray: u32,
        /// Number of cache blocks to move.
        blocks: u32,
    },
    /// LISA-VILLA whole-row clone (distance-dependent composite command).
    LisaClone {
        /// Source row.
        src_row: RowId,
        /// Destination row.
        dst_row: RowId,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting to issue the compound RELOC train.
    Copy,
    /// Train issued; the merge activation remains.
    MergeWait,
    /// LISA clone not yet issued.
    CloneWait,
    /// All commands issued.
    Done,
}

/// One relocation job on one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelocationJob {
    /// Engine-assigned id, echoed back on completion.
    pub id: u64,
    /// Flat bank index within the channel.
    pub bank: u32,
    /// Why the job exists.
    pub purpose: JobPurpose,
    /// What the job moves.
    pub kind: JobKind,
    phase: Phase,
}

impl RelocationJob {
    /// Creates a FIGARO segment-copy job.
    ///
    /// The argument list mirrors the paper's RELOC operands one-to-one
    /// (source/destination row, column, subarray, block count); a builder
    /// struct here would only rename the same nine values.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn fig_copy(
        id: u64,
        bank: u32,
        purpose: JobPurpose,
        from_row: RowId,
        from_col: u32,
        to_row: RowId,
        to_col: u32,
        to_subarray: u32,
        blocks: u32,
    ) -> Self {
        assert!(blocks > 0, "a copy job must move at least one block");
        Self {
            id,
            bank,
            purpose,
            kind: JobKind::FigCopy { from_row, from_col, to_row, to_col, to_subarray, blocks },
            phase: Phase::Copy,
        }
    }

    /// Creates a LISA-VILLA whole-row clone job.
    #[must_use]
    pub fn lisa_clone(
        id: u64,
        bank: u32,
        purpose: JobPurpose,
        src_row: RowId,
        dst_row: RowId,
    ) -> Self {
        Self {
            id,
            bank,
            purpose,
            kind: JobKind::LisaClone { src_row, dst_row },
            phase: Phase::CloneWait,
        }
    }

    /// The next DRAM command to issue given the bank's current state, or
    /// `None` when the job has finished.
    ///
    /// The returned command may not yet satisfy DRAM timing; the caller
    /// re-peeks each cycle until it can issue, then reports the issue with
    /// [`RelocationJob::on_issued`].
    #[must_use]
    pub fn peek(&self, open_row: Option<RowId>, must_precharge: bool) -> Option<DramCommand> {
        match (self.phase, self.kind) {
            (Phase::Done, _) => None,
            (
                Phase::Copy,
                JobKind::FigCopy { from_row, from_col, to_col, to_subarray, blocks, .. },
            ) => {
                if must_precharge {
                    return Some(DramCommand::Precharge);
                }
                match open_row {
                    None => Some(DramCommand::Activate { row: from_row }),
                    Some(r) if r != from_row => Some(DramCommand::Precharge),
                    Some(_) => Some(DramCommand::RelocBurst {
                        src_col: from_col,
                        dst_subarray: to_subarray,
                        dst_col: to_col,
                        count: blocks,
                    }),
                }
            }
            (Phase::MergeWait, JobKind::FigCopy { to_row, .. }) => {
                // The source subarray is pinned; the merge proceeds
                // regardless of what the bank's demand row is doing.
                Some(DramCommand::ActivateMerge { row: to_row })
            }
            (Phase::CloneWait, JobKind::LisaClone { src_row, dst_row }) => {
                if must_precharge || open_row.is_some() {
                    Some(DramCommand::Precharge)
                } else {
                    Some(DramCommand::LisaClone { src_row, dst_row })
                }
            }
            (phase, kind) => unreachable!("inconsistent job state {phase:?} / {kind:?}"),
        }
    }

    /// Advances the job's state after the controller issued `cmd`.
    pub fn on_issued(&mut self, cmd: &DramCommand) {
        match (self.phase, cmd) {
            (Phase::Copy, DramCommand::RelocBurst { .. }) => {
                self.phase = Phase::MergeWait;
            }
            (Phase::MergeWait, DramCommand::ActivateMerge { .. }) => {
                self.phase = Phase::Done;
            }
            (Phase::CloneWait, DramCommand::LisaClone { .. }) => {
                self.phase = Phase::Done;
            }
            // Ensure-phase precharges/activates do not advance the phase.
            (Phase::Copy | Phase::CloneWait, _) => {}
            (phase, cmd) => unreachable!("job in phase {phase:?} cannot issue {cmd:?}"),
        }
    }

    /// Whether the job has issued everything.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Number of cache blocks this job moves (0 for whole-row clones).
    #[must_use]
    pub fn blocks(&self) -> u32 {
        match self.kind {
            JobKind::FigCopy { blocks, .. } => blocks,
            JobKind::LisaClone { .. } => 0,
        }
    }
}

/// Simulates a bank that immediately satisfies each command and records
/// the issued sequence (shared by the unit and property tests).
#[cfg(test)]
fn drive(
    job: &mut RelocationJob,
    mut open_row: Option<RowId>,
    mut must_pre: bool,
) -> Vec<DramCommand> {
    let mut issued = Vec::new();
    while let Some(cmd) = job.peek(open_row, must_pre) {
        match cmd {
            DramCommand::Activate { row } => open_row = Some(row),
            DramCommand::Precharge => {
                open_row = None;
                must_pre = false;
            }
            DramCommand::ActivateMerge { .. } => must_pre = true,
            _ => {}
        }
        job.on_issued(&cmd);
        issued.push(cmd);
        assert!(issued.len() < 64, "job must terminate");
    }
    issued
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_with_source_already_open_skips_the_activate() {
        let mut job = RelocationJob::fig_copy(1, 0, JobPurpose::Insert, 100, 16, 900, 0, 64, 4);
        let cmds = drive(&mut job, Some(100), false);
        // 4 RELOCs + merge; no initial ACT (paper Sec. 8.1: the row is
        // already open from serving the miss) and no bank-wide precharge
        // (the destination subarray precharges locally after the merge).
        assert_eq!(cmds.len(), 2);
        assert!(matches!(
            cmds[0],
            DramCommand::RelocBurst { src_col: 16, dst_col: 0, count: 4, .. }
        ));
        assert!(matches!(cmds[1], DramCommand::ActivateMerge { row: 900 }));
        assert!(job.is_done());
    }

    #[test]
    fn insert_with_closed_bank_activates_first() {
        let mut job = RelocationJob::fig_copy(1, 0, JobPurpose::Insert, 100, 0, 900, 8, 64, 2);
        let cmds = drive(&mut job, None, false);
        assert!(matches!(cmds[0], DramCommand::Activate { row: 100 }));
        assert_eq!(cmds.len(), 3); // ACT + train + merge
    }

    #[test]
    fn insert_with_wrong_row_open_precharges_then_activates() {
        let mut job = RelocationJob::fig_copy(1, 0, JobPurpose::Insert, 100, 0, 900, 0, 64, 1);
        let cmds = drive(&mut job, Some(55), false);
        assert!(matches!(cmds[0], DramCommand::Precharge));
        assert!(matches!(cmds[1], DramCommand::Activate { row: 100 }));
        assert_eq!(cmds.len(), 4); // PRE + ACT + train + merge
        assert!(matches!(cmds[2], DramCommand::RelocBurst { .. }));
        assert!(matches!(cmds[3], DramCommand::ActivateMerge { .. }));
    }

    #[test]
    fn unaligned_copy_offsets_destination_columns() {
        let mut job =
            RelocationJob::fig_copy(1, 0, JobPurpose::Writeback, 900, 48, 100, 112, 12, 16);
        let cmds = drive(&mut job, Some(900), false);
        let trains: Vec<_> = cmds
            .iter()
            .filter_map(|c| match c {
                DramCommand::RelocBurst { src_col, dst_col, dst_subarray, count } => {
                    Some((*src_col, *dst_col, *dst_subarray, *count))
                }
                _ => None,
            })
            .collect();
        assert_eq!(trains, vec![(48, 112, 12, 16)]);
    }

    #[test]
    fn lisa_clone_precharges_open_bank_first() {
        let mut job = RelocationJob::lisa_clone(7, 3, JobPurpose::Insert, 10, 33000);
        let cmds = drive(&mut job, Some(10), false);
        assert!(matches!(cmds[0], DramCommand::Precharge));
        assert!(matches!(cmds[1], DramCommand::LisaClone { src_row: 10, dst_row: 33000 }));
        assert!(job.is_done());
    }

    #[test]
    fn done_job_peeks_none() {
        let mut job = RelocationJob::lisa_clone(7, 3, JobPurpose::Insert, 10, 33000);
        drive(&mut job, None, false);
        assert_eq!(job.peek(None, false), None);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_block_copy_panics() {
        let _ = RelocationJob::fig_copy(1, 0, JobPurpose::Insert, 1, 0, 2, 0, 1, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever the bank's starting state, a FIGARO copy job issues
        /// exactly one RELOC train carrying all its blocks, finishes with
        /// the merge activation, and never issues data commands.
        #[test]
        fn fig_copy_command_sequence_invariants(
            rows in (0u32..1024, 1024u32..2048),
            cols in (0u32..112, 0u32..112),
            to_subarray in 0u32..64,
            blocks in 1u32..17,
            start in (0u8..3, any::<bool>()),
        ) {
            let (from_row, to_row) = rows;
            let (from_col, to_col) = cols;
            let (open_kind, must_pre) = start;
            let open_row = match open_kind {
                0 => None,
                1 => Some(from_row),
                _ => Some(from_row + 1), // a different open row
            };
            let mut job = RelocationJob::fig_copy(
                7, 3, JobPurpose::Insert, from_row, from_col, to_row, to_col, to_subarray, blocks,
            );
            prop_assert_eq!(job.blocks(), blocks);
            let cmds = drive(&mut job, open_row, must_pre);
            prop_assert!(job.is_done());
            prop_assert_eq!(job.peek(None, false), None, "done jobs stay done");

            // Exactly one RELOC train, carrying exactly `blocks` blocks
            // with the constructed coordinates.
            let trains: Vec<_> = cmds
                .iter()
                .filter_map(|c| match c {
                    DramCommand::RelocBurst { src_col, dst_subarray, dst_col, count } => {
                        Some((*src_col, *dst_subarray, *dst_col, *count))
                    }
                    _ => None,
                })
                .collect();
            prop_assert_eq!(trains, vec![(from_col, to_subarray, to_col, blocks)]);

            // The merge on the destination row is the final command.
            prop_assert_eq!(cmds.last(), Some(&DramCommand::ActivateMerge { row: to_row }));

            // Never a data or clone command; any activate targets the
            // source row (merge activates are matched above).
            for c in &cmds {
                prop_assert!(
                    !matches!(c, DramCommand::Read { .. } | DramCommand::Write { .. } | DramCommand::LisaClone { .. }),
                    "copy job issued {c:?}"
                );
                if let DramCommand::Activate { row } = c {
                    prop_assert_eq!(*row, from_row, "only the source row is activated");
                }
            }

            // Preamble length matches the bank's starting state: 0..=2
            // commands (PRE and/or ACT) before the train, merge after.
            let train_pos = cmds
                .iter()
                .position(|c| matches!(c, DramCommand::RelocBurst { .. }))
                .expect("train exists");
            prop_assert!(train_pos <= 2, "at most PRE+ACT before the train, got {cmds:?}");
            let needs_act = open_row != Some(from_row) || must_pre;
            prop_assert_eq!(
                cmds.len(),
                2 + usize::from(needs_act) + usize::from(must_pre || matches!(open_row, Some(r) if r != from_row)),
                "sequence {cmds:?} for open={open_row:?} must_pre={must_pre}"
            );
        }

        /// A LISA clone issues exactly one composite clone command, from a
        /// precharged bank, with at most one preceding precharge.
        #[test]
        fn lisa_clone_command_sequence_invariants(
            src_row in 0u32..32_768,
            dst_row in 32_768u32..33_280,
            start in (0u8..3, any::<bool>()),
        ) {
            let (open_kind, must_pre) = start;
            let open_row = match open_kind {
                0 => None,
                1 => Some(src_row),
                _ => Some(src_row ^ 1),
            };
            let mut job = RelocationJob::lisa_clone(9, 1, JobPurpose::Insert, src_row, dst_row);
            prop_assert_eq!(job.blocks(), 0, "whole-row clones report zero blocks");
            let cmds = drive(&mut job, open_row, must_pre);
            prop_assert!(job.is_done());
            let expect_pre = usize::from(open_row.is_some() || must_pre);
            prop_assert_eq!(cmds.len(), expect_pre + 1, "sequence {cmds:?}");
            for c in &cmds[..expect_pre] {
                prop_assert_eq!(c, &DramCommand::Precharge);
            }
            prop_assert_eq!(
                cmds.last(),
                Some(&DramCommand::LisaClone { src_row, dst_row })
            );
        }
    }
}
