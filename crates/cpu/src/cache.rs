//! A set-associative, write-back, write-allocate cache with LRU
//! replacement.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (1 to [`MAX_WAYS`]).
    pub ways: u32,
    /// Block size in bytes.
    pub block_bytes: u32,
    /// Lookup latency in CPU cycles.
    pub latency: u32,
}

/// The most ways a set can have: its recency order is one 4-bit way
/// number per way in a `u64`.
pub const MAX_WAYS: u32 = 16;

impl CacheParams {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two split.
    #[must_use]
    pub fn sets(&self) -> u64 {
        let sets = self.size_bytes / u64::from(self.block_bytes) / u64::from(self.ways);
        assert!(sets > 0 && sets.is_power_of_two(), "cache sets must be a non-zero power of two");
        sets
    }

    /// Checks that [`SetAssocCache::new`] can build this geometry: 1 to
    /// [`MAX_WAYS`] ways, a power-of-two block size and a non-zero
    /// power-of-two number of sets. Whether its tags cover an address
    /// space is [`CacheParams::covers`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first rule the geometry breaks.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=MAX_WAYS).contains(&self.ways) {
            return Err(format!("cache ways must be 1 to {MAX_WAYS}, got {}", self.ways));
        }
        if !self.block_bytes.is_power_of_two() {
            return Err(format!(
                "cache block size must be a power of two, got {}",
                self.block_bytes
            ));
        }
        let sets = self.size_bytes / u64::from(self.block_bytes) / u64::from(self.ways);
        if sets == 0 || !sets.is_power_of_two() {
            return Err(format!("cache sets must be a non-zero power of two, got {sets}"));
        }
        Ok(())
    }

    /// Whether every address below `addr_space` has a tag that fits in
    /// a line word's [`TAG_BITS`] bits. An address beyond the space a
    /// cache covers would lose its high tag bits and could hit a line
    /// that holds another block, so callers keep every address they look
    /// up below a covered space.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheParams::validate`].
    #[must_use]
    pub fn covers(&self, addr_space: u64) -> bool {
        let index_bits = self.sets().trailing_zeros() + self.block_bytes.trailing_zeros();
        addr_space.saturating_sub(1) >> index_bits >> TAG_BITS == 0
    }
}

/// Hit/miss/eviction counters of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines evicted by fills.
    pub evictions: u64,
    /// Evicted lines that were dirty (writebacks generated).
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Hit rate over demand accesses.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Line-word flag: the line holds a block.
const VALID: u32 = 1;
/// Line-word flag: the line was written since it was filled.
const DIRTY: u32 = 2;
/// The tag sits above the two flag bits.
const TAG_SHIFT: u32 = 2;
/// Tag bits in a line word. A tag is an address shifted right by the
/// block and set bits, so a cache names the addresses below
/// 2^(`TAG_BITS` + set bits + block bits) ([`CacheParams::covers`]).
pub const TAG_BITS: u32 = u32::BITS - TAG_SHIFT;

/// A 1 in every nibble of a `u64`.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;
/// The order word of a 16-way set whose ways were used in way order:
/// way `i` at rank `i`. A set of fewer ways keeps its low nibbles.
const WAY_ORDER: u64 = 0xFEDC_BA98_7654_3210;

/// `order` with `way` moved to the MRU end (rank `ways - 1`, at bit
/// `mru_shift`), the ways above its rank each moving one rank down.
///
/// The way's rank is found without a branch: XOR with the way number in
/// every nibble zeroes exactly its own nibble among the set's ways, and
/// the lowest nibble that the zero-nibble test flags is always a true
/// zero. Nibbles above the set's ways are zero and stay zero; they can
/// only be flagged above the way's own nibble.
fn promote(order: u64, way: u64, mru_shift: u32) -> u64 {
    let x = order ^ (way * NIBBLE_ONES);
    let zero = x.wrapping_sub(NIBBLE_ONES) & !x & (NIBBLE_ONES << 3);
    let at = zero.trailing_zeros() & !3;
    let below = order & ((1 << at) - 1);
    let above = (order >> at) >> 4;
    below | (above << at) | (way << mru_shift)
}

/// One set-associative cache level.
///
/// Each line is one 4-byte word, `tag << TAG_SHIFT | DIRTY | VALID`, and each
/// set has one recency-order word: its way numbers from least to most
/// recently used, one nibble each. A fill's victim is the LRU nibble. A
/// new cache lists its ways in way order, and no line is ever
/// invalidated, so the ways not yet filled are always the LRU end in way
/// order. The line table starts zeroed (an all-invalid cache), so the
/// allocator hands out untouched pages and a large LLC only becomes
/// resident as its sets are used.
///
/// Addresses must stay inside a space the geometry
/// [covers](CacheParams::covers): the cache keeps [`TAG_BITS`] tag bits
/// and does not check them in release builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAssocCache {
    params: CacheParams,
    sets: u64,
    /// `sets - 1`; sets are a power of two, so indexing is a mask/shift
    /// instead of a runtime div/mod (this is the simulator's hottest
    /// path).
    set_mask: u64,
    set_shift: u32,
    block_bits: u32,
    ways: usize,
    /// Bit offset of the MRU nibble in an order word: `4 * (ways - 1)`.
    mru_shift: u32,
    /// Packed tag and flags per line, set-major.
    words: Vec<u32>,
    /// Recency order per set, LRU way in the low nibble.
    order: Vec<u64>,
    /// Counters (public: the hierarchy reports them).
    pub stats: CacheStats,
}

impl SetAssocCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`CacheParams::validate`].
    #[must_use]
    pub fn new(params: CacheParams) -> Self {
        if let Err(e) = params.validate() {
            panic!("{e}");
        }
        let sets = params.sets();
        let lines = (sets * u64::from(params.ways)) as usize;
        let mru_shift = 4 * (params.ways - 1);
        Self {
            params,
            sets,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            block_bits: params.block_bytes.trailing_zeros(),
            ways: params.ways as usize,
            mru_shift,
            words: vec![0; lines],
            order: vec![WAY_ORDER & (u64::MAX >> (60 - mru_shift)); sets as usize],
            stats: CacheStats::default(),
        }
    }

    /// The cache's parameters.
    #[must_use]
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// The block's set and the valid, clean line word that holds it.
    fn index(&self, addr: u64) -> (u64, u32) {
        let block = addr >> self.block_bits;
        let tag = block >> self.set_shift;
        debug_assert!(
            tag >> TAG_BITS == 0,
            "address {addr:#x} is outside the space the tags cover"
        );
        (block & self.set_mask, ((tag as u32) << TAG_SHIFT) | VALID)
    }

    /// The first line of `set`.
    fn base(&self, set: u64) -> usize {
        set as usize * self.ways
    }

    /// Demand access; returns `true` on hit. Write hits mark the line
    /// dirty. Misses do **not** allocate (use [`SetAssocCache::fill`] when
    /// the data arrives).
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        let (set, want) = self.index(addr);
        let base = self.base(set);
        self.stats.accesses += 1;
        let words = &mut self.words[base..base + self.ways];
        if let Some(way) = words.iter().position(|&w| w & !DIRTY == want) {
            if is_write {
                words[way] |= DIRTY;
            }
            let order = &mut self.order[set as usize];
            *order = promote(*order, way as u64, self.mru_shift);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        false
    }

    /// Records `times` demand misses without touching line state: the
    /// batched equivalent of `times` calls to [`SetAssocCache::access`]
    /// on an absent block (a miss changes nothing but the counters).
    pub fn note_misses(&mut self, times: u64) {
        self.stats.accesses += times;
        self.stats.misses += times;
    }

    /// Checks presence without updating any state.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (set, want) = self.index(addr);
        let base = self.base(set);
        self.words[base..base + self.ways].iter().any(|&w| w & !DIRTY == want)
    }

    /// Inserts `addr`'s block (LRU victim). Returns the evicted block's
    /// address if the victim was dirty (the caller writes it back).
    ///
    /// A racing fill of a present block just updates its line; otherwise
    /// the victim is the set's LRU way, which is the first invalid way
    /// while there is one.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<u64> {
        let (set, want) = self.index(addr);
        let base = self.base(set);
        let words = &mut self.words[base..base + self.ways];
        let order = &mut self.order[set as usize];
        let dirty_bit = if dirty { DIRTY } else { 0 };
        if let Some(way) = words.iter().position(|&w| w & !DIRTY == want) {
            words[way] |= dirty_bit;
            *order = promote(*order, way as u64, self.mru_shift);
            return None;
        }
        let victim = *order & 0xF;
        *order = (*order >> 4) | (victim << self.mru_shift);
        let old = std::mem::replace(&mut words[victim as usize], want | dirty_bit);
        if old & VALID == 0 {
            return None;
        }
        self.stats.evictions += 1;
        if old & DIRTY == 0 {
            return None;
        }
        self.stats.dirty_evictions += 1;
        Some((u64::from(old >> TAG_SHIFT) * self.sets + set) << self.block_bits)
    }
}

/// The ways an order word lists, from LRU to MRU.
#[cfg(test)]
fn ranks(order: u64, ways: u32) -> Vec<u64> {
    (0..ways).map(|rank| (order >> (4 * rank)) & 0xF).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        SetAssocCache::new(CacheParams { size_bytes: 1024, ways: 2, block_bytes: 64, latency: 1 })
    }

    #[test]
    fn paper_l1_geometry() {
        let c = SetAssocCache::new(CacheParams {
            size_bytes: 64 * 1024,
            ways: 4,
            block_bytes: 64,
            latency: 4,
        });
        assert_eq!(c.params().sets(), 256);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(!c.access(0x40, false));
        assert_eq!(c.fill(0x40, false), None);
        assert!(c.access(0x40, false));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small(); // 8 sets x 2 ways
        let set_stride = 8 * 64;
        c.fill(0, false);
        c.fill(set_stride as u64, false); // same set, way 2
        c.access(0, false); // refresh line 0
        let wb = c.fill(2 * set_stride as u64, false); // evicts set_stride line
        assert_eq!(wb, None);
        assert!(c.probe(0));
        assert!(!c.probe(set_stride as u64));
        assert!(c.probe(2 * set_stride as u64));
    }

    #[test]
    fn note_misses_matches_repeated_missing_accesses() {
        let mut a = small();
        let mut b = small();
        a.fill(0x40, false);
        b.fill(0x40, false);
        for _ in 0..5 {
            assert!(!a.access(0x1000, false));
        }
        b.note_misses(5);
        assert_eq!(a, b, "a miss changes nothing but the counters");
    }

    #[test]
    fn dirty_eviction_returns_victim_address() {
        let mut c = small();
        let set_stride = 8 * 64u64;
        c.fill(0x40, false);
        c.access(0x40, true); // dirty it
        c.fill(0x40 + set_stride, false);
        let wb = c.fill(0x40 + 2 * set_stride, false);
        assert_eq!(wb, Some(0x40));
        assert_eq!(c.stats.dirty_evictions, 1);
    }

    #[test]
    fn fill_of_present_line_merges_dirty() {
        let mut c = small();
        c.fill(0x40, false);
        c.fill(0x40, true);
        let set_stride = 8 * 64u64;
        c.fill(0x40 + set_stride, false);
        let wb = c.fill(0x40 + 2 * set_stride, false);
        assert_eq!(wb, Some(0x40), "merged dirty bit must survive");
    }

    #[test]
    fn probe_does_not_touch_lru() {
        let mut c = small();
        c.fill(0, false);
        let set_stride = 8 * 64u64;
        c.fill(set_stride, false);
        // Probing line 0 must not rescue it from eviction.
        assert!(c.probe(0));
        c.access(set_stride, false);
        c.fill(2 * set_stride, false);
        assert!(!c.probe(0));
    }

    #[test]
    fn promote_moves_each_rank_to_the_mru_end() {
        for ways in [1u32, 2, 4, 8, 16] {
            let mru_shift = 4 * (ways - 1);
            // The ways in reverse order, so a way's number is not its rank.
            let start = (0..ways).fold(0, |o, way| o | u64::from(way) << (4 * (ways - 1 - way)));
            for rank in 0..ways {
                let mut want = ranks(start, ways);
                let way = want.remove(rank as usize);
                want.push(way);
                let moved = promote(start, way, mru_shift);
                assert_eq!(ranks(moved, ways), want, "{ways} ways, rank {rank}");
                assert_eq!(moved >> mru_shift >> 4, 0, "nibbles above the ways stay zero");
            }
        }
    }

    #[test]
    fn metadata_is_one_word_per_line_plus_one_per_set() {
        // The 8-core LLC: 262,144 lines in 16,384 sets.
        let c = SetAssocCache::new(CacheParams {
            size_bytes: 16 << 20,
            ways: 16,
            block_bytes: 64,
            latency: 38,
        });
        assert_eq!((c.words.len(), c.order.len()), (262_144, 16_384));
        // A line is a 4-byte word: 1 MiB of line words for this LLC.
        assert_eq!(std::mem::size_of_val(c.words.as_slice()), 1 << 20);
        // Geometry, the two tables and the counters: a third table would
        // grow the struct.
        let parts = std::mem::size_of::<CacheParams>()
            + 2 * std::mem::size_of::<u64>()
            + 3 * std::mem::size_of::<u32>()
            + std::mem::size_of::<usize>()
            + std::mem::size_of::<Vec<u32>>()
            + std::mem::size_of::<Vec<u64>>()
            + std::mem::size_of::<CacheStats>();
        assert!(std::mem::size_of::<SetAssocCache>() <= parts.next_multiple_of(8));
    }

    #[test]
    fn paper_caches_cover_the_eight_core_dram_space() {
        // 16 GiB (4 channels of 4 GiB): L1 has the widest tag, 20 bits.
        let l1 = CacheParams { size_bytes: 64 << 10, ways: 4, block_bytes: 64, latency: 4 };
        let llc = CacheParams { size_bytes: 16 << 20, ways: 16, block_bytes: 64, latency: 38 };
        for c in [l1, llc] {
            assert!(c.covers(16 << 30), "{c:?}");
        }
        // L1 indexes 14 address bits, so its tags reach 2^44 bytes.
        assert!(l1.covers(1 << 44));
        assert!(!l1.covers((1 << 44) + 1));
        assert!(!l1.covers(u64::MAX));
    }

    #[test]
    fn validate_rejects_unbuildable_geometries() {
        let ok = CacheParams { size_bytes: 1024, ways: 2, block_bytes: 64, latency: 1 };
        assert_eq!(ok.validate(), Ok(()));
        assert_eq!(CacheParams { ways: 16, ..ok }.validate(), Ok(()));
        for (bad, why) in [
            (CacheParams { ways: 0, ..ok }, "ways"),
            (CacheParams { ways: 32, size_bytes: 4096, ..ok }, "ways"),
            (CacheParams { block_bytes: 48, ..ok }, "block size"),
            (CacheParams { block_bytes: 0, ..ok }, "block size"),
            (CacheParams { size_bytes: 3 * 128, ..ok }, "power of two"),
            (CacheParams { size_bytes: 64, ..ok }, "power of two"),
        ] {
            let err = bad.validate().expect_err(why);
            assert!(err.contains(why), "{bad:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "ways must be 1 to 16")]
    fn more_than_sixteen_ways_panics() {
        let _ = SetAssocCache::new(CacheParams {
            size_bytes: 32 * 64,
            ways: 32,
            block_bytes: 64,
            latency: 1,
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = SetAssocCache::new(CacheParams {
            size_bytes: 192,
            ways: 1,
            block_bytes: 64,
            latency: 1,
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The line-struct cache the packed tables replaced: one 24-byte
    /// line per way, a hit search, then a separate LRU victim search.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        lru: u64,
    }

    struct Reference {
        ways: usize,
        sets: u64,
        set_shift: u32,
        block_bits: u32,
        lines: Vec<Line>,
        clock: u64,
        stats: CacheStats,
    }

    impl Reference {
        fn new(params: CacheParams) -> Self {
            let sets = params.sets();
            Self {
                ways: params.ways as usize,
                sets,
                set_shift: sets.trailing_zeros(),
                block_bits: params.block_bytes.trailing_zeros(),
                lines: vec![Line::default(); (sets * u64::from(params.ways)) as usize],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn index(&self, addr: u64) -> (u64, u64) {
            let block = addr >> self.block_bits;
            (block & (self.sets - 1), block >> self.set_shift)
        }

        fn set_lines(&mut self, set: u64) -> &mut [Line] {
            let base = set as usize * self.ways;
            &mut self.lines[base..base + self.ways]
        }

        fn access(&mut self, addr: u64, is_write: bool) -> bool {
            self.clock += 1;
            let clock = self.clock;
            let (set, tag) = self.index(addr);
            self.stats.accesses += 1;
            for line in self.set_lines(set) {
                if line.valid && line.tag == tag {
                    line.lru = clock;
                    line.dirty |= is_write;
                    self.stats.hits += 1;
                    return true;
                }
            }
            self.stats.misses += 1;
            false
        }

        fn note_misses(&mut self, times: u64) {
            self.clock += times;
            self.stats.accesses += times;
            self.stats.misses += times;
        }

        fn probe(&mut self, addr: u64) -> bool {
            let (set, tag) = self.index(addr);
            self.set_lines(set).iter().any(|l| l.valid && l.tag == tag)
        }

        fn fill(&mut self, addr: u64, dirty: bool) -> Option<u64> {
            self.clock += 1;
            let clock = self.clock;
            let (set, tag) = self.index(addr);
            let (sets, block_bits) = (self.sets, self.block_bits);
            let lines = self.set_lines(set);
            if let Some(line) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
                line.lru = clock;
                line.dirty |= dirty;
                return None;
            }
            let victim = lines.iter_mut().min_by_key(|l| if l.valid { l.lru } else { 0 })?;
            let old = std::mem::replace(victim, Line { tag, valid: true, dirty, lru: clock });
            if old.valid {
                self.stats.evictions += 1;
            }
            if old.valid && old.dirty {
                self.stats.dirty_evictions += 1;
                return Some((old.tag * sets + set) << block_bits);
            }
            None
        }
    }

    /// The tags an op's high-bit draw counts down from: low tags, a
    /// middle bit, and the largest tag a line word holds.
    const TAG_BASES: [u64; 3] = [63, 1 << 29, (1 << TAG_BITS) - 1];

    /// Drives the packed cache and the reference with one op stream on a
    /// four-set cache of `ways` ways. An op is (kind, block, tag base,
    /// write/dirty flag); the block pool is three times the capacity, so
    /// sets fill, hit and evict.
    fn check(ways: u32, ops: &[(u8, u64, u64, bool)]) {
        let params =
            CacheParams { size_bytes: 4 * 64 * u64::from(ways), ways, block_bytes: 64, latency: 1 };
        let mut packed = SetAssocCache::new(params);
        let mut reference = Reference::new(params);
        let pool = 12 * u64::from(ways);
        for (step, &(kind, block, high, flag)) in ops.iter().enumerate() {
            let block = block % pool;
            let tag = TAG_BASES[high as usize] - block / 4;
            let addr = (tag * 4 + block % 4) * 64 + step as u64 % 64;
            match kind {
                0 => assert_eq!(packed.access(addr, flag), reference.access(addr, flag)),
                1 => assert_eq!(packed.fill(addr, flag), reference.fill(addr, flag)),
                2 => assert_eq!(packed.probe(addr), reference.probe(addr)),
                _ => {
                    packed.note_misses(block % 3);
                    reference.note_misses(block % 3);
                }
            }
            assert_eq!(packed.stats, reference.stats);
            for &order in &packed.order {
                let mut ways_listed = ranks(order, ways);
                ways_listed.sort_unstable();
                assert!(ways_listed.into_iter().eq(0..u64::from(ways)), "{order:#x}");
                assert_eq!(order >> packed.mru_shift >> 4, 0, "{order:#x}");
            }
        }
        // The same lines (tag and flags)...
        let lines: Vec<(u64, bool, bool)> = packed
            .words
            .iter()
            .map(|&w| (u64::from(w >> TAG_SHIFT), w & VALID != 0, w & DIRTY != 0))
            .collect();
        let want: Vec<(u64, bool, bool)> =
            reference.lines.iter().map(|l| (l.tag, l.valid, l.dirty)).collect();
        assert_eq!(lines, want);
        // ...and each set's order word is the reference's recency order:
        // invalid ways first in way order, then valid ways by stamp.
        for (set, &order) in packed.order.iter().enumerate() {
            let lines = &reference.lines[set * reference.ways..][..reference.ways];
            let mut by_age: Vec<u64> = (0..u64::from(ways)).collect();
            by_age.sort_by_key(|&way| {
                let line = lines[way as usize];
                (line.valid, if line.valid { line.lru } else { way })
            });
            assert_eq!(ranks(order, ways), by_age, "set {set}");
        }
    }

    proptest! {
        /// Packed lines and order words give the line-struct cache's hits,
        /// victims, writeback addresses, counters, lines and recency
        /// order, on every associativity the hierarchy uses or could use.
        #[test]
        fn packed_cache_matches_the_line_struct_reference(
            ops in proptest::collection::vec((0u8..4, 0u64..1024, 0u64..3, any::<bool>()), 1..400),
        ) {
            for ways in [1, 2, 4, 16] {
                check(ways, &ops);
            }
        }
    }
}
