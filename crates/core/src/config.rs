//! In-DRAM cache configuration: where the cache rows live, segment size,
//! how data is relocated, and the insertion/replacement policies
//! evaluated in the paper's Section 9. FIGCache and the LISA-VILLA
//! baseline are presets of the one [`FigCacheConfig`].

use figaro_dram::DramConfig;

use crate::fts::MAX_SLOTS_PER_ROW;

/// Where a bank's in-DRAM cache rows are located.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheRegion {
    /// Rows live in fast subarrays: `FIGCache-Fast` appends two of 32
    /// rows each, LISA-VILLA interleaves sixteen among the regular ones.
    /// The DRAM layout must declare matching fast subarrays.
    FastSubarrays,
    /// `FIGCache-Slow`: rows are reserved at the top of the last regular
    /// subarray; segments homed in that subarray are not cacheable
    /// (FIGARO cannot relocate within one subarray).
    ReservedSlowRows,
}

/// In-DRAM cache replacement policies (paper Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// The paper's policy: evict at **row** granularity. The cache row with
    /// the lowest cumulative benefit is marked in an eviction register +
    /// bitvector, and its segments are evicted one per insertion (lowest
    /// benefit first) until the row is drained.
    RowBenefit,
    /// Traditional benefit-based policy at segment granularity: evict the
    /// single valid segment with the lowest benefit anywhere in the cache.
    SegmentBenefit,
    /// Evict the least-recently-used segment.
    Lru,
    /// Evict a uniformly random valid segment.
    Random,
}

/// Row-segment insertion policies (paper Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertionPolicy {
    /// Number of misses a segment must accumulate before it is inserted.
    /// `1` is the paper's insert-any-miss default.
    pub miss_threshold: u32,
}

impl InsertionPolicy {
    /// The paper's insert-any-miss policy.
    #[must_use]
    pub fn insert_any_miss() -> Self {
        Self { miss_threshold: 1 }
    }
}

/// How the engine moves data between a home row and a cache row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relocation {
    /// FIGARO: one `RELOC` per block of the segment through the global
    /// row buffer, at a latency independent of subarray distance.
    Figaro,
    /// LISA: a whole-row clone whose latency grows with the subarray hop
    /// distance (LISA-VILLA). Needs whole-row segments.
    LisaClone,
    /// `FIGCache-Ideal`: relocations are free (no DRAM commands, no bank
    /// occupancy); used to isolate the relocation-latency overhead.
    Free,
}

/// Full in-DRAM cache configuration for one memory channel.
#[derive(Debug, Clone, PartialEq)]
pub struct FigCacheConfig {
    /// Cache rows per bank (the paper: 64 = 2 fast subarrays × 32 rows, or
    /// 64 reserved slow rows).
    pub cache_rows_per_bank: u32,
    /// Cache blocks per segment (the paper default: 16 = 1 kB).
    pub blocks_per_segment: u32,
    /// Where the cache rows live.
    pub region: CacheRegion,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
    /// Insertion policy.
    pub insertion: InsertionPolicy,
    /// How segments move into and out of the cache rows.
    pub relocation: Relocation,
    /// Maximum queued relocation jobs per bank before insertions are
    /// skipped (bounds bank starvation under miss floods).
    pub max_pending_jobs_per_bank: usize,
    /// Seed for the `Random` replacement policy.
    pub seed: u64,
}

impl FigCacheConfig {
    /// The paper's `FIGCache-Fast` default: 64 cache rows per bank in two
    /// fast subarrays, 1 kB segments, RowBenefit replacement,
    /// insert-any-miss.
    #[must_use]
    pub fn paper_fast() -> Self {
        Self {
            cache_rows_per_bank: 64,
            blocks_per_segment: 16,
            region: CacheRegion::FastSubarrays,
            replacement: ReplacementPolicy::RowBenefit,
            insertion: InsertionPolicy::insert_any_miss(),
            relocation: Relocation::Figaro,
            max_pending_jobs_per_bank: 12,
            seed: 0xF16A_0001,
        }
    }

    /// The paper's `FIGCache-Slow` default: 64 reserved rows in the last
    /// regular subarray.
    #[must_use]
    pub fn paper_slow() -> Self {
        Self { region: CacheRegion::ReservedSlowRows, ..Self::paper_fast() }
    }

    /// `FIGCache-Ideal`: `paper_fast` with free relocation.
    #[must_use]
    pub fn paper_ideal() -> Self {
        Self { relocation: Relocation::Free, ..Self::paper_fast() }
    }

    /// The LISA-VILLA baseline (Chang et al., HPCA 2016): 512 cache rows
    /// per bank in 16 interleaved fast subarrays, whole-row segments
    /// filled by LISA clones, a row cloned only after its second miss
    /// (cloning an 8 kB row on every miss would swamp the banks).
    #[must_use]
    pub fn lisa_villa() -> Self {
        Self {
            cache_rows_per_bank: 512,
            blocks_per_segment: 128,
            region: CacheRegion::FastSubarrays,
            replacement: ReplacementPolicy::SegmentBenefit,
            insertion: InsertionPolicy { miss_threshold: 2 },
            relocation: Relocation::LisaClone,
            max_pending_jobs_per_bank: 8,
            seed: 0x115A_0001,
        }
    }

    /// Bytes per segment given 64 B blocks.
    #[must_use]
    pub fn segment_bytes(&self) -> u32 {
        self.blocks_per_segment * 64
    }

    /// Checks configuration consistency on its own; see
    /// [`FigCacheConfig::validate_for`] for the fit with a DRAM device.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.cache_rows_per_bank == 0 {
            return Err("cache_rows_per_bank must be non-zero".into());
        }
        if self.blocks_per_segment == 0 {
            return Err("blocks_per_segment must be non-zero".into());
        }
        if self.insertion.miss_threshold == 0 {
            return Err("miss_threshold must be at least 1".into());
        }
        if self.max_pending_jobs_per_bank == 0 {
            return Err("max_pending_jobs_per_bank must be at least 1".into());
        }
        Ok(())
    }

    /// Checks [`FigCacheConfig::validate`] and that the cache fits the
    /// device in `dram`, so that [`crate::FigCacheEngine::new`] can build
    /// it: segments divide the row, a row holds at most
    /// [`MAX_SLOTS_PER_ROW`] of them, LISA clones move whole rows,
    /// `FastSubarrays` asks for no more rows than the bank's regular rows
    /// and finds them in the layout's fast subarrays, and
    /// `ReservedSlowRows` fits in one subarray.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate_for(&self, dram: &DramConfig) -> Result<(), String> {
        self.validate()?;
        let blocks_per_row = dram.geometry.blocks_per_row();
        let blocks = self.blocks_per_segment;
        if !blocks_per_row.is_multiple_of(blocks) {
            return Err(format!(
                "segment size ({blocks} blocks) must divide the row ({blocks_per_row} blocks)"
            ));
        }
        if blocks_per_row / blocks > MAX_SLOTS_PER_ROW {
            return Err(format!(
                "{} segments per row exceed the {MAX_SLOTS_PER_ROW} a cache row's eviction \
                 bitvector holds",
                blocks_per_row / blocks
            ));
        }
        if self.relocation == Relocation::LisaClone && blocks != blocks_per_row {
            return Err(format!(
                "LISA clones move whole rows: blocks_per_segment ({blocks}) must be \
                 {blocks_per_row}"
            ));
        }
        let layout = dram.layout;
        match self.region {
            CacheRegion::FastSubarrays => {
                // A cache of more rows than the memory it caches holds
                // nothing more, and an unbounded count overflows the
                // layout's row arithmetic.
                if self.cache_rows_per_bank > layout.regular_rows() {
                    return Err(format!(
                        "cache rows ({}) must not exceed the bank's {} regular rows",
                        self.cache_rows_per_bank,
                        layout.regular_rows()
                    ));
                }
                let fast_rows = u64::from(layout.fast_count()) * u64::from(layout.fast_rows_each());
                if fast_rows < u64::from(self.cache_rows_per_bank) {
                    return Err(format!(
                        "layout provides {fast_rows} fast rows but the cache needs {}",
                        self.cache_rows_per_bank
                    ));
                }
            }
            CacheRegion::ReservedSlowRows => {
                if self.cache_rows_per_bank > layout.rows_per_subarray {
                    return Err(format!(
                        "reserved rows ({}) must fit in one subarray ({} rows)",
                        self.cache_rows_per_bank, layout.rows_per_subarray
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        FigCacheConfig::paper_fast().validate().unwrap();
        FigCacheConfig::paper_slow().validate().unwrap();
        FigCacheConfig::paper_ideal().validate().unwrap();
        FigCacheConfig::lisa_villa().validate().unwrap();
    }

    #[test]
    fn paper_defaults_match_table1() {
        let c = FigCacheConfig::paper_fast();
        assert_eq!(c.cache_rows_per_bank, 64);
        assert_eq!(c.segment_bytes(), 1024);
        assert_eq!(c.replacement, ReplacementPolicy::RowBenefit);
        assert_eq!(c.insertion.miss_threshold, 1);
    }

    #[test]
    fn ideal_is_fast_plus_free_relocation() {
        let c = FigCacheConfig::paper_ideal();
        assert_eq!(c.relocation, Relocation::Free);
        assert_eq!(c.region, CacheRegion::FastSubarrays);
    }

    #[test]
    fn validate_rejects_zero_threshold() {
        let mut c = FigCacheConfig::paper_fast();
        c.insertion.miss_threshold = 0;
        assert!(c.validate().is_err());
    }
}
