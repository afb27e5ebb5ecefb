//! Physical DRAM organization: channels, ranks, bank groups, banks, rows,
//! columns and cache-block widths.

/// Most banks one channel may have: the memory controller keeps its
/// per-bank sets as one 64-bit mask.
pub const MAX_BANKS_PER_CHANNEL: u32 = 64;

/// Physical organization of one DRAM channel (and how many channels exist).
///
/// All counts must be powers of two so the address mapping can slice plain
/// bit fields out of a physical address; [`DramGeometry::validate`] enforces
/// this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramGeometry {
    /// Number of independent memory channels (1 for single-core runs,
    /// 4 for the paper's eight-core configuration).
    pub channels: u32,
    /// Ranks per channel (the paper uses 1).
    pub ranks: u32,
    /// Bank groups per rank (DDR4: 4).
    pub bankgroups: u32,
    /// Banks per bank group (DDR4: 4).
    pub banks_per_group: u32,
    /// Bytes per DRAM row across the rank (the paper: 8 kB).
    pub row_bytes: u32,
    /// Bytes per cache block / column at rank granularity (64 B; one
    /// column per x8 chip is 64 bits, and eight data chips operate in
    /// lockstep).
    pub block_bytes: u32,
}

impl DramGeometry {
    /// The paper's Table 1 geometry for one channel.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            channels: 1,
            ranks: 1,
            bankgroups: 4,
            banks_per_group: 4,
            row_bytes: 8 * 1024,
            block_bytes: 64,
        }
    }

    /// Same geometry with a different channel count (the paper uses 4
    /// channels for eight-core workloads).
    #[must_use]
    pub fn with_channels(mut self, channels: u32) -> Self {
        self.channels = channels;
        self
    }

    /// Total banks in one rank.
    #[must_use]
    pub fn banks_per_rank(&self) -> u32 {
        self.bankgroups * self.banks_per_group
    }

    /// Total banks in one channel.
    #[must_use]
    pub fn banks_per_channel(&self) -> u32 {
        self.ranks * self.banks_per_rank()
    }

    /// Cache blocks (columns at rank granularity) per row.
    #[must_use]
    pub fn blocks_per_row(&self) -> u32 {
        self.row_bytes / self.block_bytes
    }

    /// Checks that every field is a non-zero power of two, that a channel
    /// has at most [`MAX_BANKS_PER_CHANNEL`] banks and that a row holds at
    /// least one block.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("channels", self.channels),
            ("ranks", self.ranks),
            ("bankgroups", self.bankgroups),
            ("banks_per_group", self.banks_per_group),
            ("row_bytes", self.row_bytes),
            ("block_bytes", self.block_bytes),
        ];
        for (name, v) in fields {
            if v == 0 || !v.is_power_of_two() {
                return Err(format!(
                    "geometry field `{name}` = {v} must be a non-zero power of two"
                ));
            }
        }
        let banks = [self.bankgroups, self.banks_per_group]
            .into_iter()
            .try_fold(self.ranks, u32::checked_mul)
            .filter(|&n| n <= MAX_BANKS_PER_CHANNEL);
        if banks.is_none() {
            return Err(format!(
                "ranks × bankgroups × banks_per_group = {} × {} × {} exceeds \
                 {MAX_BANKS_PER_CHANNEL} banks per channel",
                self.ranks, self.bankgroups, self.banks_per_group
            ));
        }
        if self.block_bytes > self.row_bytes {
            return Err(format!(
                "block_bytes ({}) exceeds row_bytes ({})",
                self.block_bytes, self.row_bytes
            ));
        }
        Ok(())
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_counts() {
        let g = DramGeometry::paper_default();
        assert_eq!(g.banks_per_rank(), 16);
        assert_eq!(g.banks_per_channel(), 16);
        assert_eq!(g.blocks_per_row(), 128);
        g.validate().unwrap();
    }

    #[test]
    fn validate_rejects_non_power_of_two() {
        let g = DramGeometry { channels: 3, ..DramGeometry::paper_default() };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_caps_banks_per_channel_without_overflow() {
        let g =
            |ranks, bankgroups| DramGeometry { ranks, bankgroups, ..DramGeometry::paper_default() };
        assert!(g(2, 4).validate().is_ok(), "32 banks fit");
        assert!(g(4, 4).validate().is_ok(), "64 banks fit");
        assert!(g(8, 4).validate().is_err(), "128 banks do not");
        let huge = DramGeometry { banks_per_group: 1 << 31, ..g(1 << 31, 1 << 31) };
        assert!(huge.validate().is_err(), "an overflowing product is an error, not a panic");
    }

    #[test]
    fn validate_rejects_block_larger_than_row() {
        let g = DramGeometry { block_bytes: 16 * 1024, ..DramGeometry::paper_default() };
        assert!(g.validate().is_err());
    }

    #[test]
    fn with_channels_only_changes_channels() {
        let g = DramGeometry::paper_default().with_channels(4);
        assert_eq!(g.channels, 4);
        assert_eq!(g.ranks, 1);
    }
}
