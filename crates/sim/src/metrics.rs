//! Run-level statistics and the paper's performance metrics.

use figaro_core::CacheStats;
use figaro_cpu::{CoreStats, HierarchyStats};
use figaro_dram::DramStats;
use figaro_energy::SystemEnergyBreakdown;
use figaro_memctrl::McStats;

/// Everything a finished simulation reports.
///
/// `PartialEq` compares every counter and energy figure bit-for-bit; the
/// kernel-equivalence suite relies on this to prove [`crate::Kernel::Event`]
/// and [`crate::Kernel::Reference`] runs indistinguishable.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// CPU cycles the run took (until the last core finished).
    pub cpu_cycles: u64,
    /// Per-core finish cycle.
    pub finish_cycles: Vec<u64>,
    /// Per-core retired instructions.
    pub instructions: Vec<u64>,
    /// Per-core detailed counters.
    pub cores: Vec<CoreStats>,
    /// Merged request-level controller stats (all channels).
    pub mc: McStats,
    /// Merged DRAM command stats (all channels).
    pub dram: DramStats,
    /// Merged cache-engine stats (all channels).
    pub cache: CacheStats,
    /// Per-channel controller breakdown, in channel order — the merged
    /// `mc` view hides cross-channel imbalance (a hot channel's
    /// conflicts average away), so summaries surface these gauges too.
    pub per_channel: Vec<ChannelStats>,
    /// Cache-hierarchy stats.
    pub hierarchy: HierarchyStats,
    /// System energy breakdown.
    pub energy: SystemEnergyBreakdown,
}

/// Per-channel slice of the controller statistics — what the merged
/// [`RunStats::mc`] view cannot show: which channel ran hot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Row-buffer hits on this channel.
    pub row_hits: u64,
    /// Row-buffer misses (closed row) on this channel.
    pub row_misses: u64,
    /// Row-buffer conflicts (wrong row open) on this channel.
    pub row_conflicts: u64,
    /// Reads served by this channel.
    pub reads_served: u64,
    /// Writes served by this channel.
    pub writes_served: u64,
    /// Peak read-queue occupancy (sampled after each enqueue).
    pub read_q_peak: u64,
    /// Peak write-queue occupancy (sampled after each enqueue).
    pub write_q_peak: u64,
}

impl ChannelStats {
    /// Row-buffer hit rate of this channel alone.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        safe_ratio(self.row_hits as f64, total as f64)
    }
}

impl RunStats {
    /// IPC of `core` (instructions / its finish cycle).
    #[must_use]
    pub fn ipc(&self, core: usize) -> f64 {
        let cycles = self.finish_cycles[core].max(1);
        self.instructions[core] as f64 / cycles as f64
    }

    /// LLC misses per kilo-instruction of `core` (the paper's intensity
    /// classifier: MPKI > 10 → memory intensive).
    #[must_use]
    pub fn mpki(&self, core: usize) -> f64 {
        let insts = self.instructions[core].max(1);
        self.hierarchy.llc_misses_per_core[core] as f64 * 1000.0 / insts as f64
    }

    /// Number of cores that did **not** reach their instruction target
    /// before the run hit its cycle cap. A core that never finished
    /// reports the final clock as its finish cycle (`finished_at`
    /// defaults to `cpu_cycles` in the collector), while a core that
    /// finished did so strictly before the loop's final increment — so
    /// `finish_cycles[c] == cpu_cycles` identifies truncation exactly.
    /// Reports use this to flag truncated data points instead of letting
    /// them masquerade as measurements.
    #[must_use]
    pub fn unfinished_cores(&self) -> usize {
        self.finish_cycles.iter().filter(|&&f| f == self.cpu_cycles).count()
    }

    /// DRAM row-buffer hit rate (Fig. 10).
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        self.mc.row_hit_rate()
    }

    /// In-DRAM cache hit rate (Fig. 9).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }
}

/// Weighted speedup of a multiprogrammed run:
/// `WS = Σᵢ IPCᵢ^shared / IPCᵢ^alone` (paper Section 7, citing
/// Snavely & Tullsen). Figures normalize `WS(config) / WS(Base)`.
///
/// Degenerate cores — an alone-IPC of zero (a core that retired nothing
/// in its alone run, e.g. a truncated measurement) or a non-finite
/// entry — contribute `0` instead of poisoning the sum with `inf`/`NaN`:
/// a report cell must stay a number even when one run was degenerate
/// (see [`safe_ratio`], the single place this policy lives).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn weighted_speedup(shared_ipc: &[f64], alone_ipc: &[f64]) -> f64 {
    assert_eq!(shared_ipc.len(), alone_ipc.len(), "per-core IPC slices must match");
    shared_ipc.iter().zip(alone_ipc).map(|(&s, &a)| safe_ratio(s, a)).sum()
}

/// `num / den` with degenerate denominators (zero, negative, non-finite
/// result) mapped to `0.0` — the workspace-wide policy keeping `NaN`/
/// `inf` out of reports when a run was degenerate (zero retired
/// instructions, truncated measurement).
#[must_use]
pub fn safe_ratio(num: f64, den: f64) -> f64 {
    let r = num / den;
    if den > 0.0 && r.is_finite() {
        r
    } else {
        0.0
    }
}

/// Geometric mean (used for figure-level averages of speedups).
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean needs positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_speedup_of_equal_runs_is_core_count() {
        let ipc = [1.0, 2.0, 0.5];
        assert!((weighted_speedup(&ipc, &ipc) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_reflects_slowdown() {
        let shared = [0.5, 0.5];
        let alone = [1.0, 1.0];
        assert!((weighted_speedup(&shared, &alone) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_survives_zero_and_nonfinite_alone_ipc() {
        // Degenerate denominators must never leak NaN/inf into reports.
        let shared = [1.0, 0.5, 2.0];
        assert!((weighted_speedup(&shared, &[0.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert!((weighted_speedup(&shared, &[f64::NAN, 1.0, f64::INFINITY]) - 0.5).abs() < 1e-12);
        assert_eq!(weighted_speedup(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        assert!(weighted_speedup(&shared, &[0.0, 0.0, 0.0]).is_finite());
    }

    #[test]
    fn ipc_and_mpki_are_finite_with_zero_retired_instructions() {
        // A run truncated at cycle 0 retires nothing; every report metric
        // must still be a finite number.
        use crate::config::{ConfigKind, SystemConfig};
        use crate::system::System;
        use figaro_workloads::{generate_trace, profile_by_name};
        let p = profile_by_name("mcf").unwrap();
        let trace = generate_trace(&p, 1_000, 1);
        let mut sys = System::new(SystemConfig::paper(1, ConfigKind::Base), vec![trace], &[1_000]);
        let s = sys.run(0);
        assert_eq!(s.instructions[0], 0);
        assert!(s.ipc(0).is_finite() && s.ipc(0) == 0.0);
        assert!(s.mpki(0).is_finite() && s.mpki(0) == 0.0);
        assert!(s.row_hit_rate().is_finite());
        assert!(s.cache_hit_rate().is_finite());
        assert!(weighted_speedup(&[s.ipc(0)], &[s.ipc(0)]).is_finite());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[0.0]);
    }
}
