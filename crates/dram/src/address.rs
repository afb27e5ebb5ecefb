//! Physical-address ↔ DRAM-coordinate mapping.
//!
//! The paper interleaves addresses as `{row, rank, bankgroup, bank,
//! channel, column}` (most-significant field first), at cache-block
//! granularity: consecutive blocks walk the columns of one row first,
//! then spread across channels, banks, bank groups and ranks, and only
//! then move to the next row.
//!
//! That interleaving is one point in a large design space, and FIGCache
//! hit rates, relocation locality and bank-level parallelism are all
//! functions of where blocks land — so the mapping is a pluggable
//! subsystem here. [`MapKind`] selects one of three base bit-slice
//! schemes ([`MapScheme`]) plus an optional XOR bank-permutation hash
//! layered over any of them:
//!
//! * [`MapScheme::Paper`] — the paper's `{row, rank, bankgroup, bank,
//!   channel, column}` slice (the default; kept bit-identical to the
//!   original hardcoded mapping).
//! * [`MapScheme::ChFirst`] — `{row, column, rank, bankgroup, bank,
//!   channel}`: consecutive cache blocks spread across channels first,
//!   then banks, maximizing fine-grained parallelism at the cost of row
//!   locality (a `RoCoRaBgBaCh`-style block interleaving).
//! * [`MapScheme::RowInt`] — `{channel, rank, bankgroup, bank, row,
//!   column}`: whole rows stay contiguous *within one bank* and
//!   consecutive rows pile onto the same bank, so streams serialize on
//!   one bank — the cache-hostile, parallelism-poor extreme. Note the
//!   channel field is most significant, so a footprint smaller than one
//!   channel's capacity also lands entirely on channel 0 (idling the
//!   others) — deliberately the worst case on *both* parallelism axes;
//!   pair it with a `rand<seed>` page placement to spread frames back
//!   across channels.
//! * `xor_bank` — XORs the combined bank-group/bank index with the low
//!   row bits after the base slice (the classic permutation-based page
//!   interleaving of Zhang et al.), breaking row-to-bank resonance
//!   without moving channel, row or column bits. The XOR is an
//!   involution, so `encode` stays the exact inverse of `decode`.

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

/// Base bit-slice interleaving scheme (most-significant field first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MapScheme {
    /// `{row, rank, bankgroup, bank, channel, column}` — the paper's
    /// interleaving and the default.
    #[default]
    Paper,
    /// `{row, column, rank, bankgroup, bank, channel}` — consecutive
    /// blocks spread across channels, then banks (block interleaving).
    ChFirst,
    /// `{channel, rank, bankgroup, bank, row, column}` — whole rows per
    /// bank, consecutive rows in the same bank (bank-sequential).
    RowInt,
}

impl MapScheme {
    /// Stable label fragment for reports and `FIGARO_MAP`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            MapScheme::Paper => "paper",
            MapScheme::ChFirst => "chfirst",
            MapScheme::RowInt => "rowint",
        }
    }
}

/// Complete identification of an address mapping: a base scheme plus
/// the optional XOR bank-permutation layer. This is the value form
/// carried by controller/system configs and result-cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MapKind {
    /// The base bit-slice scheme.
    pub scheme: MapScheme,
    /// XOR the bank-group/bank index with the low row bits.
    pub xor_bank: bool,
}

impl MapKind {
    /// The paper's default mapping (no XOR layer).
    #[must_use]
    pub fn paper() -> Self {
        Self::default()
    }

    /// Stable label for reports and `FIGARO_MAP`:
    /// `paper` | `chfirst` | `rowint`, with an `-xor` suffix when the
    /// bank-permutation layer is on (e.g. `paper-xor`).
    #[must_use]
    pub fn label(&self) -> String {
        if self.xor_bank {
            format!("{}-xor", self.scheme.label())
        } else {
            self.scheme.label().to_string()
        }
    }

    /// Parses a [`MapKind::label`]-style name (case-insensitive); bare
    /// `xor` means `paper-xor`. `None` for anything else.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        let name = name.trim().to_ascii_lowercase();
        if name == "xor" {
            return Some(MapKind { scheme: MapScheme::Paper, xor_bank: true });
        }
        let (base, xor_bank) = match name.strip_suffix("-xor") {
            Some(base) => (base, true),
            None => (name.as_str(), false),
        };
        let scheme = match base {
            "paper" | "default" => MapScheme::Paper,
            "chfirst" | "ch-first" | "blockch" => MapScheme::ChFirst,
            "rowint" | "row-int" | "rowseq" => MapScheme::RowInt,
            _ => return None,
        };
        Some(MapKind { scheme, xor_bank })
    }
}

/// Rows per bank assumed by [`AddressMapping::new`] (the repo's fixed
/// 4 GB-per-channel device: 64 regular subarrays × 512 rows). Callers
/// with other layouts use [`AddressMapping::with_kind`].
pub const DEFAULT_ROWS_PER_BANK: u32 = 64 * 512;

/// Bit-slicing address map implementing the [`MapKind`] schemes (the
/// paper's `{row, rank, bankgroup, bank, channel, column}` interleaving
/// by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    geometry: DramGeometry,
    kind: MapKind,
    rows_per_bank: u32,
    block_bits: u32,
    col_bits: u32,
    channel_bits: u32,
    bank_bits: u32,
    bankgroup_bits: u32,
    rank_bits: u32,
    row_bits: u32,
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
        Self::with_kind(geometry, MapKind::default(), DEFAULT_ROWS_PER_BANK)
    }

    /// Builds the mapping `kind` for `geometry` with `rows_per_bank`
    /// addressable (regular) rows per bank.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not validate or `rows_per_bank` is
    /// not a non-zero power of two (the row field must be a bit slice).
    #[must_use]
    pub fn with_kind(geometry: DramGeometry, kind: MapKind, rows_per_bank: u32) -> Self {
        geometry.validate().expect("geometry must validate");
        assert!(
            rows_per_bank.is_power_of_two(),
            "rows_per_bank = {rows_per_bank} must be a non-zero power of two"
        );
        Self {
            geometry,
            kind,
            rows_per_bank,
            block_bits: geometry.block_bytes.trailing_zeros(),
            col_bits: geometry.blocks_per_row().trailing_zeros(),
            channel_bits: geometry.channels.trailing_zeros(),
            bank_bits: geometry.banks_per_group.trailing_zeros(),
            bankgroup_bits: geometry.bankgroups.trailing_zeros(),
            rank_bits: geometry.ranks.trailing_zeros(),
            row_bits: rows_per_bank.trailing_zeros(),
        }
    }

    /// The geometry this mapping was built for.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// The mapping kind in force.
    #[must_use]
    pub fn kind(&self) -> MapKind {
        self.kind
    }

    /// Addressable rows per bank this mapping slices row bits for.
    #[must_use]
    pub fn rows_per_bank(&self) -> u32 {
        self.rows_per_bank
    }

    /// XOR bank-permutation layer: fold the low row bits into the
    /// combined bank-group/bank index. An involution (XOR twice is the
    /// identity), so it is its own inverse in [`AddressMapping::encode`].
    fn xor_permute(&self, loc: &mut DramLocation) {
        let width = self.bank_bits + self.bankgroup_bits;
        if width == 0 {
            return;
        }
        let mask = (1u32 << width) - 1;
        let mut combined = (loc.bankgroup << self.bank_bits) | loc.bank;
        combined ^= loc.row & mask;
        loc.bank = combined & ((1u32 << self.bank_bits) - 1);
        loc.bankgroup = combined >> self.bank_bits;
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
        let mut loc = match self.kind.scheme {
            MapScheme::Paper => {
                let col = take(self.col_bits);
                let channel = take(self.channel_bits);
                let bank = take(self.bank_bits);
                let bankgroup = take(self.bankgroup_bits);
                let rank = take(self.rank_bits);
                let row = bits as u32;
                DramLocation { channel, rank, bankgroup, bank, row, col }
            }
            MapScheme::ChFirst => {
                let channel = take(self.channel_bits);
                let bank = take(self.bank_bits);
                let bankgroup = take(self.bankgroup_bits);
                let rank = take(self.rank_bits);
                let col = take(self.col_bits);
                let row = bits as u32;
                DramLocation { channel, rank, bankgroup, bank, row, col }
            }
            MapScheme::RowInt => {
                let col = take(self.col_bits);
                let row = take(self.row_bits);
                let bank = take(self.bank_bits);
                let bankgroup = take(self.bankgroup_bits);
                let rank = take(self.rank_bits);
                let channel = bits as u32;
                DramLocation { channel, rank, bankgroup, bank, row, col }
            }
        };
        if self.kind.xor_bank {
            self.xor_permute(&mut loc);
        }
        loc
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
        let mut loc = loc;
        if self.kind.xor_bank {
            self.xor_permute(&mut loc); // involution: undoes decode's XOR
        }
        let mut bits: u64;
        let put = |bits: &mut u64, v: u32, n: u32| {
            *bits = (*bits << n) | u64::from(v);
        };
        match self.kind.scheme {
            MapScheme::Paper => {
                bits = u64::from(loc.row);
                put(&mut bits, loc.rank, self.rank_bits);
                put(&mut bits, loc.bankgroup, self.bankgroup_bits);
                put(&mut bits, loc.bank, self.bank_bits);
                put(&mut bits, loc.channel, self.channel_bits);
                put(&mut bits, loc.col, self.col_bits);
            }
            MapScheme::ChFirst => {
                bits = u64::from(loc.row);
                put(&mut bits, loc.col, self.col_bits);
                put(&mut bits, loc.rank, self.rank_bits);
                put(&mut bits, loc.bankgroup, self.bankgroup_bits);
                put(&mut bits, loc.bank, self.bank_bits);
                put(&mut bits, loc.channel, self.channel_bits);
            }
            MapScheme::RowInt => {
                bits = u64::from(loc.channel);
                put(&mut bits, loc.rank, self.rank_bits);
                put(&mut bits, loc.bankgroup, self.bankgroup_bits);
                put(&mut bits, loc.bank, self.bank_bits);
                put(&mut bits, loc.row, self.row_bits);
                put(&mut bits, loc.col, self.col_bits);
            }
        }
        PhysAddr(bits << self.block_bits)
    }

    /// Bytes of address space this mapping slices bits for (its own
    /// [`AddressMapping::rows_per_bank`] rows). Identical for every
    /// mapping kind — schemes permute the space, never resize it.
    #[must_use]
    pub fn addr_space(&self) -> u64 {
        self.addr_space_bytes(self.rows_per_bank)
    }

    /// Bytes of address space covered by `rows_per_bank` addressable rows
    /// per bank (callers with a foreign row count; prefer
    /// [`AddressMapping::addr_space`], which uses the row count this
    /// mapping was actually built with). Identical for every mapping
    /// kind — schemes permute the space, never resize it.
    #[must_use]
    pub fn addr_space_bytes(&self, rows_per_bank: u32) -> u64 {
        u64::from(rows_per_bank)
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

    fn map_kind(kind: MapKind) -> AddressMapping {
        AddressMapping::with_kind(DramGeometry::paper_default(), kind, DEFAULT_ROWS_PER_BANK)
    }

    fn all_kinds() -> Vec<MapKind> {
        vec![
            MapKind::paper(),
            MapKind { scheme: MapScheme::ChFirst, xor_bank: false },
            MapKind { scheme: MapScheme::RowInt, xor_bank: false },
            MapKind { scheme: MapScheme::Paper, xor_bank: true },
            MapKind { scheme: MapScheme::ChFirst, xor_bank: true },
            MapKind { scheme: MapScheme::RowInt, xor_bank: true },
        ]
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
        assert_eq!(m.addr_space_bytes(32768), 4 << 30);
    }

    #[test]
    fn chfirst_spreads_consecutive_blocks_across_banks_first() {
        let kind = MapKind { scheme: MapScheme::ChFirst, xor_bank: false };
        let m = AddressMapping::with_kind(
            DramGeometry::paper_default().with_channels(4),
            kind,
            DEFAULT_ROWS_PER_BANK,
        );
        // Block 0 -> channel 0; block 1 -> channel 1 (channel bits lowest).
        let b1 = m.decode(PhysAddr(64));
        assert_eq!(b1.channel, 1);
        assert_eq!((b1.bank, b1.col, b1.row), (0, 0, 0));
        // After the 4 channels, the bank field increments.
        let b4 = m.decode(PhysAddr(4 * 64));
        assert_eq!(b4.channel, 0);
        assert_eq!(b4.bank, 1);
        // Column bits sit above rank: one channel's consecutive same-bank
        // blocks are 4 * 16 blocks apart.
        let col1 = m.decode(PhysAddr(4 * 16 * 64));
        assert_eq!((col1.channel, col1.bank, col1.bankgroup), (0, 0, 0));
        assert_eq!(col1.col, 1);
    }

    #[test]
    fn rowint_keeps_consecutive_rows_in_one_bank() {
        let kind = MapKind { scheme: MapScheme::RowInt, xor_bank: false };
        let m = map_kind(kind);
        // One full row of blocks stays in bank 0, then row 1 of bank 0.
        let next_row = m.decode(PhysAddr(8192));
        assert_eq!((next_row.bank, next_row.bankgroup, next_row.row, next_row.col), (0, 0, 1, 0));
        // Only after all 32768 rows does the bank field change.
        let next_bank = m.decode(PhysAddr(8192 * u64::from(DEFAULT_ROWS_PER_BANK)));
        assert_eq!((next_bank.bank, next_bank.row), (1, 0));
    }

    #[test]
    fn xor_layer_moves_banks_but_not_channel_row_col() {
        let base = map_kind(MapKind::paper());
        let xored = map_kind(MapKind { scheme: MapScheme::Paper, xor_bank: true });
        let mut moved = 0;
        for block in 0..(4 * 128 * 16 * 4u64) {
            let addr = PhysAddr(block * 64 * 1031 % (4 << 30));
            let a = base.decode(addr);
            let b = xored.decode(addr);
            assert_eq!((a.channel, a.rank, a.row, a.col), (b.channel, b.rank, b.row, b.col));
            if (a.bank, a.bankgroup) != (b.bank, b.bankgroup) {
                moved += 1;
            }
        }
        assert!(moved > 0, "the XOR layer must actually permute banks");
    }

    #[test]
    fn labels_round_trip_through_from_name() {
        for kind in all_kinds() {
            assert_eq!(MapKind::from_name(&kind.label()), Some(kind), "{}", kind.label());
        }
        assert_eq!(
            MapKind::from_name("xor"),
            Some(MapKind { scheme: MapScheme::Paper, xor_bank: true })
        );
        assert_eq!(MapKind::from_name("bogus"), None);
        assert_eq!(MapKind::default().label(), "paper");
    }

    #[test]
    fn default_kind_is_bit_identical_to_new() {
        let a = AddressMapping::new(DramGeometry::paper_default());
        let b = map_kind(MapKind::default());
        for block in 0..(128 * 16 * 8u64) {
            let addr = PhysAddr(block * 64);
            assert_eq!(a.decode(addr), b.decode(addr));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_kind_rejects_non_power_of_two_rows() {
        let _ = AddressMapping::with_kind(DramGeometry::paper_default(), MapKind::default(), 1000);
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

    fn kind_for(idx: usize) -> MapKind {
        let schemes = [MapScheme::Paper, MapScheme::ChFirst, MapScheme::RowInt];
        MapKind { scheme: schemes[idx % 3], xor_bank: idx >= 3 }
    }

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

        /// Every scheme (with and without the XOR layer) is a bijection
        /// on the address space: decode∘encode = id, all decoded fields
        /// in range, and rows below the addressable row count.
        #[test]
        fn every_kind_round_trips_and_stays_in_range(
            kind_idx in 0usize..6,
            channels_log2 in 0u32..3,
            block in 0u64..u64::MAX / 2,
        ) {
            let g = DramGeometry::paper_default().with_channels(1 << channels_log2);
            let kind = kind_for(kind_idx);
            let m = AddressMapping::with_kind(g, kind, DEFAULT_ROWS_PER_BANK);
            let space_blocks = m.addr_space_bytes(DEFAULT_ROWS_PER_BANK) / 64;
            let addr = PhysAddr((block % space_blocks) * 64);
            let loc = m.decode(addr);
            prop_assert_eq!(m.encode(loc), addr, "kind {}", kind.label());
            prop_assert!(loc.col < g.blocks_per_row());
            prop_assert!(loc.bank < g.banks_per_group);
            prop_assert!(loc.bankgroup < g.bankgroups);
            prop_assert!(loc.rank < g.ranks);
            prop_assert!(loc.channel < g.channels);
            prop_assert!(loc.row < DEFAULT_ROWS_PER_BANK);
        }

        /// Bijectivity across kinds: adjacent blocks never alias under
        /// any scheme (injectivity on consecutive pairs over the space).
        #[test]
        fn every_kind_maps_adjacent_blocks_to_distinct_locations(
            kind_idx in 0usize..6,
            block in 0u64..(4u64 << 30) / 64 - 1,
        ) {
            let kind = kind_for(kind_idx);
            let m = AddressMapping::with_kind(
                DramGeometry::paper_default(),
                kind,
                DEFAULT_ROWS_PER_BANK,
            );
            let a = m.decode(PhysAddr(block * 64));
            let b = m.decode(PhysAddr((block + 1) * 64));
            prop_assert!(a != b, "consecutive blocks alias under {}", kind.label());
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
            let space_blocks = m.addr_space_bytes(32768) / 64;
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
