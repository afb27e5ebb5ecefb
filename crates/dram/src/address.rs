//! Physical-address ↔ DRAM-coordinate mapping.
//!
//! The paper interleaves addresses as `{row, rank, bankgroup, bank,
//! channel, column}` (most-significant field first), at cache-block
//! granularity: consecutive blocks walk the columns of one row first,
//! then spread across channels, banks, bank groups and ranks, and only
//! then move to the next row. That slice is the one mapping modelled;
//! [`MapKind`] names it in configs.

use crate::channel::BankAddr;
use crate::geometry::DramGeometry;

/// A byte-granularity physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The address of the cache block containing this address.
    ///
    /// `block_bytes` must be a non-zero power of two (debug-asserted):
    /// the mask below silently aliases unrelated addresses otherwise.
    #[must_use]
    pub fn block_base(self, block_bytes: u32) -> PhysAddr {
        debug_assert!(
            block_bytes.is_power_of_two(),
            "block_bytes = {block_bytes} must be a non-zero power of two"
        );
        PhysAddr(self.0 & !u64::from(block_bytes - 1))
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        PhysAddr(v)
    }
}

/// Fully decoded DRAM coordinates of one cache block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramLocation {
    /// Channel index.
    pub channel: u32,
    /// Rank within the channel.
    pub rank: u32,
    /// Bank group within the rank.
    pub bankgroup: u32,
    /// Bank within the bank group.
    pub bank: u32,
    /// Row within the bank.
    pub row: u32,
    /// Block-granularity column within the row.
    pub col: u32,
}

impl DramLocation {
    /// The location's bank coordinates within its channel.
    #[must_use]
    pub fn bank_addr(&self) -> BankAddr {
        BankAddr { rank: self.rank, bankgroup: self.bankgroup, bank: self.bank }
    }

    /// Flat bank index within the channel (`rank`, `bankgroup`, `bank`).
    /// This delegates to [`BankAddr::flat_bank`] — the one shared
    /// flat-index formula in the workspace.
    #[must_use]
    pub fn flat_bank(&self, geometry: &DramGeometry) -> u32 {
        self.bank_addr().flat_bank(geometry)
    }
}

/// The address mapping a config runs: the paper's `{row, rank,
/// bankgroup, bank, channel, column}` slice, the only one modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MapKind;

impl MapKind {
    /// The paper's mapping.
    #[must_use]
    pub fn paper() -> Self {
        Self
    }
}

/// Rows per bank assumed by [`AddressMapping::new`] (the repo's fixed
/// 4 GB-per-channel device: 64 regular subarrays × 512 rows). Callers
/// with other layouts use [`AddressMapping::with_rows`].
pub const DEFAULT_ROWS_PER_BANK: u32 = 64 * 512;

/// Bit-slicing address map: the paper's `{row, rank, bankgroup, bank,
/// channel, column}` interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    geometry: DramGeometry,
    rows_per_bank: u32,
    block_bits: u32,
    col_bits: u32,
    channel_bits: u32,
    bank_bits: u32,
    bankgroup_bits: u32,
    rank_bits: u32,
}

impl AddressMapping {
    /// Builds the paper's default mapping for `geometry` (the repo's
    /// fixed [`DEFAULT_ROWS_PER_BANK`] addressable rows per bank).
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not validate (all field counts must be
    /// powers of two).
    #[must_use]
    pub fn new(geometry: DramGeometry) -> Self {
        Self::with_rows(geometry, DEFAULT_ROWS_PER_BANK)
    }

    /// Builds the mapping for `geometry` with `rows_per_bank`
    /// addressable (regular) rows per bank.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not validate or `rows_per_bank` is
    /// not a non-zero power of two (the row field must be a bit slice).
    #[must_use]
    pub fn with_rows(geometry: DramGeometry, rows_per_bank: u32) -> Self {
        geometry.validate().expect("geometry must validate");
        assert!(
            rows_per_bank.is_power_of_two(),
            "rows_per_bank = {rows_per_bank} must be a non-zero power of two"
        );
        Self {
            geometry,
            rows_per_bank,
            block_bits: geometry.block_bytes.trailing_zeros(),
            col_bits: geometry.blocks_per_row().trailing_zeros(),
            channel_bits: geometry.channels.trailing_zeros(),
            bank_bits: geometry.banks_per_group.trailing_zeros(),
            bankgroup_bits: geometry.bankgroups.trailing_zeros(),
            rank_bits: geometry.ranks.trailing_zeros(),
        }
    }

    /// The geometry this mapping was built for.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Addressable rows per bank this mapping slices row bits for.
    #[must_use]
    pub fn rows_per_bank(&self) -> u32 {
        self.rows_per_bank
    }

    /// Decodes a physical address into DRAM coordinates.
    #[must_use]
    pub fn decode(&self, addr: PhysAddr) -> DramLocation {
        let mut bits = addr.0 >> self.block_bits;
        let mut take = |n: u32| -> u32 {
            let v = (bits & ((1u64 << n) - 1)) as u32;
            bits >>= n;
            v
        };
        let col = take(self.col_bits);
        let channel = take(self.channel_bits);
        let bank = take(self.bank_bits);
        let bankgroup = take(self.bankgroup_bits);
        let rank = take(self.rank_bits);
        let row = bits as u32;
        DramLocation { channel, rank, bankgroup, bank, row, col }
    }

    /// Encodes DRAM coordinates back into the base physical address of the
    /// block (inverse of [`AddressMapping::decode`]).
    ///
    /// All coordinates must be in range for the geometry (and `row` below
    /// [`AddressMapping::rows_per_bank`]); out-of-range fields would
    /// silently alias other blocks, so they are debug-asserted.
    #[must_use]
    pub fn encode(&self, loc: DramLocation) -> PhysAddr {
        debug_assert!(
            loc.col < self.geometry.blocks_per_row(),
            "col {} out of range (< {})",
            loc.col,
            self.geometry.blocks_per_row()
        );
        debug_assert!(loc.channel < self.geometry.channels, "channel {} out of range", loc.channel);
        debug_assert!(loc.bank < self.geometry.banks_per_group, "bank {} out of range", loc.bank);
        debug_assert!(
            loc.bankgroup < self.geometry.bankgroups,
            "bankgroup {} out of range",
            loc.bankgroup
        );
        debug_assert!(loc.rank < self.geometry.ranks, "rank {} out of range", loc.rank);
        debug_assert!(
            loc.row < self.rows_per_bank,
            "row {} out of range (< {})",
            loc.row,
            self.rows_per_bank
        );
        let mut bits = u64::from(loc.row);
        let mut put = |v: u32, n: u32| {
            bits = (bits << n) | u64::from(v);
        };
        put(loc.rank, self.rank_bits);
        put(loc.bankgroup, self.bankgroup_bits);
        put(loc.bank, self.bank_bits);
        put(loc.channel, self.channel_bits);
        put(loc.col, self.col_bits);
        PhysAddr(bits << self.block_bits)
    }

    /// Bytes of address space this mapping slices bits for (its own
    /// [`AddressMapping::rows_per_bank`] rows).
    #[must_use]
    pub fn addr_space(&self) -> u64 {
        u64::from(self.rows_per_bank)
            * u64::from(self.geometry.channels)
            * u64::from(self.geometry.ranks)
            * u64::from(self.geometry.bankgroups)
            * u64::from(self.geometry.banks_per_group)
            * u64::from(self.geometry.row_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMapping {
        AddressMapping::new(DramGeometry::paper_default())
    }

    #[test]
    fn consecutive_blocks_walk_columns_first() {
        let m = map();
        let a = m.decode(PhysAddr(0));
        let b = m.decode(PhysAddr(64));
        assert_eq!(a.col, 0);
        assert_eq!(b.col, 1);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
    }

    #[test]
    fn after_row_of_columns_comes_the_bank_field() {
        let m = map();
        // 128 blocks per row, 1 channel -> next field is bank.
        let a = m.decode(PhysAddr(128 * 64));
        assert_eq!(a.col, 0);
        assert_eq!(a.bank, 1);
        assert_eq!(a.row, 0);
    }

    #[test]
    fn row_is_most_significant() {
        let m = map();
        let g = DramGeometry::paper_default();
        let blocks_per_row_all_banks = u64::from(g.blocks_per_row())
            * u64::from(g.banks_per_channel())
            * u64::from(g.channels);
        let a = m.decode(PhysAddr(blocks_per_row_all_banks * 64));
        assert_eq!(a.row, 1);
        assert_eq!(a.col, 0);
        assert_eq!(a.bank, 0);
        assert_eq!(a.bankgroup, 0);
    }

    #[test]
    fn four_channel_mapping_spreads_blocks_across_channels() {
        let m = AddressMapping::new(DramGeometry::paper_default().with_channels(4));
        // Channel bits sit right above the column bits.
        let same_row_next_channel = m.decode(PhysAddr(128 * 64));
        assert_eq!(same_row_next_channel.channel, 1);
        assert_eq!(same_row_next_channel.col, 0);
    }

    #[test]
    fn encode_decode_round_trip_spot_checks() {
        let m = map();
        for addr in [0u64, 64, 8128, 1 << 20, (4u64 << 30) - 64] {
            let loc = m.decode(PhysAddr(addr));
            assert_eq!(m.encode(loc), PhysAddr(addr), "addr {addr:#x}");
        }
    }

    #[test]
    fn flat_bank_covers_all_banks() {
        let g = DramGeometry::paper_default();
        let m = AddressMapping::new(g);
        let mut seen = std::collections::HashSet::new();
        for block in 0..(128 * 16) {
            let loc = m.decode(PhysAddr(block * 64));
            seen.insert(loc.flat_bank(&g));
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn addr_space_matches_capacity() {
        let m = map();
        assert_eq!(m.addr_space(), 4 << 30);
    }

    #[test]
    fn default_kind_is_bit_identical_to_new() {
        let a = AddressMapping::new(DramGeometry::paper_default());
        let b = crate::DramConfig::ddr4_paper_default().address_mapping(MapKind::paper());
        for block in 0..(128 * 16 * 8u64) {
            let addr = PhysAddr(block * 64);
            assert_eq!(a.decode(addr), b.decode(addr));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_rows_rejects_non_power_of_two_rows() {
        let _ = AddressMapping::with_rows(DramGeometry::paper_default(), 1000);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn encode_rejects_out_of_range_coordinates() {
        let m = map();
        let _ = m.encode(DramLocation {
            channel: 1, // paper default has one channel
            rank: 0,
            bankgroup: 0,
            bank: 0,
            row: 0,
            col: 0,
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "power of two")]
    fn block_base_rejects_non_power_of_two_blocks() {
        let _ = PhysAddr(4096).block_base(48);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn round_trip_any_block_aligned_address(block in 0u64..(4u64 << 30) / 64) {
            let m = AddressMapping::new(DramGeometry::paper_default());
            let addr = PhysAddr(block * 64);
            let loc = m.decode(addr);
            prop_assert_eq!(m.encode(loc), addr);
        }

        #[test]
        fn round_trip_four_channels(block in 0u64..(16u64 << 30) / 64) {
            let m = AddressMapping::new(DramGeometry::paper_default().with_channels(4));
            let addr = PhysAddr(block * 64);
            let loc = m.decode(addr);
            prop_assert_eq!(m.encode(loc), addr);
        }

        #[test]
        fn decoded_fields_in_range(block in 0u64..(4u64 << 30) / 64) {
            let g = DramGeometry::paper_default();
            let m = AddressMapping::new(g);
            let loc = m.decode(PhysAddr(block * 64));
            prop_assert!(loc.col < g.blocks_per_row());
            prop_assert!(loc.bank < g.banks_per_group);
            prop_assert!(loc.bankgroup < g.bankgroups);
            prop_assert!(loc.rank < g.ranks);
            prop_assert!(loc.channel < g.channels);
        }

        /// decode∘encode = id for *any* power-of-two geometry, not just
        /// the paper's: channels 1/2/4, ranks 1/2, bank groups 2/4, banks
        /// per group 2/4, and both 4 kB and 8 kB rows.
        #[test]
        fn round_trip_across_geometries(
            shape in (0u32..3, 0u32..2, 1u32..3, 1u32..3, 0u32..2),
            block in 0u64..u64::MAX / 2,
        ) {
            let (ch, rk, bg, bk, rb) = shape;
            let g = DramGeometry {
                channels: 1 << ch,
                ranks: 1 << rk,
                bankgroups: 1 << bg,
                banks_per_group: 1 << bk,
                row_bytes: 4096 << rb,
                ..DramGeometry::paper_default()
            };
            prop_assert!(g.validate().is_ok(), "geometry {g:?} must validate");
            let m = AddressMapping::new(g);
            let space_blocks = m.addr_space() / 64;
            let addr = PhysAddr((block % space_blocks) * 64);
            let loc = m.decode(addr);
            prop_assert_eq!(m.encode(loc), addr, "geometry {:?}", g);
            prop_assert!(loc.col < g.blocks_per_row());
            prop_assert!(loc.bank < g.banks_per_group);
            prop_assert!(loc.bankgroup < g.bankgroups);
            prop_assert!(loc.rank < g.ranks);
            prop_assert!(loc.channel < g.channels);
        }

        /// Encoding is injective: two distinct in-range locations of the
        /// same geometry never alias to one physical address.
        #[test]
        fn adjacent_blocks_decode_to_distinct_locations(
            block in 0u64..(4u64 << 30) / 64 - 1,
        ) {
            let m = AddressMapping::new(DramGeometry::paper_default());
            let a = m.decode(PhysAddr(block * 64));
            let b = m.decode(PhysAddr((block + 1) * 64));
            prop_assert!(a != b, "consecutive blocks must not alias");
        }
    }
}
