//! A set-associative, write-back, write-allocate cache with LRU
//! replacement.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Block size in bytes.
    pub block_bytes: u32,
    /// Lookup latency in CPU cycles.
    pub latency: u32,
}

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
const VALID: u64 = 1;
/// Line-word flag: the line was written since it was filled.
const DIRTY: u64 = 2;
/// The tag sits above the two flag bits. A tag is an address shifted
/// right by the block and set bits, at least `TAG_SHIFT` of them (checked
/// at construction), so no tag bit is lost.
const TAG_SHIFT: u32 = 2;

/// One set-associative cache level.
///
/// Each line is two words: `tag << TAG_SHIFT | DIRTY | VALID` and the
/// recency stamp of its last access or fill. Both tables start zeroed
/// (an all-invalid cache), so the allocator hands out untouched pages
/// and a large LLC only becomes resident as its sets are used.
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
    /// Packed tag and flags per line, set-major.
    words: Vec<u64>,
    /// Recency stamp per line, set-major.
    stamps: Vec<u64>,
    clock: u64,
    /// Counters (public: the hierarchy reports them).
    pub stats: CacheStats,
}

impl SetAssocCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two split, or if blocks
    /// and sets together span fewer than four addresses.
    #[must_use]
    pub fn new(params: CacheParams) -> Self {
        let sets = params.sets();
        let lines = (sets * u64::from(params.ways)) as usize;
        let (set_shift, block_bits) = (sets.trailing_zeros(), params.block_bytes.trailing_zeros());
        assert!(set_shift + block_bits >= TAG_SHIFT, "a cache must span at least four addresses");
        Self {
            params,
            sets,
            set_mask: sets - 1,
            set_shift,
            block_bits,
            ways: params.ways as usize,
            words: vec![0; lines],
            stamps: vec![0; lines],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's parameters.
    #[must_use]
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// The block's set and the valid, clean line word that holds it.
    fn index(&self, addr: u64) -> (u64, u64) {
        let block = addr >> self.block_bits;
        (block & self.set_mask, ((block >> self.set_shift) << TAG_SHIFT) | VALID)
    }

    /// The first line of `set`.
    fn base(&self, set: u64) -> usize {
        set as usize * self.ways
    }

    /// Demand access; returns `true` on hit. Write hits mark the line
    /// dirty. Misses do **not** allocate (use [`SetAssocCache::fill`] when
    /// the data arrives).
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.clock += 1;
        let (set, want) = self.index(addr);
        let base = self.base(set);
        self.stats.accesses += 1;
        let words = &mut self.words[base..base + self.ways];
        if let Some(way) = words.iter().position(|&w| w & !DIRTY == want) {
            self.stamps[base + way] = self.clock;
            if is_write {
                words[way] |= DIRTY;
            }
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        false
    }

    /// Records `times` demand misses without touching line state: the
    /// batched equivalent of `times` calls to [`SetAssocCache::access`]
    /// on an absent block. The internal recency clock advances exactly as
    /// it would have, so a cycle-skipping caller stays in lockstep with a
    /// per-cycle one.
    pub fn note_misses(&mut self, times: u64) {
        self.clock += times;
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
    /// One pass over the set finds either the block (a racing fill: the
    /// line is just updated) or the victim: the first invalid way, else
    /// the first way with the oldest stamp.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<u64> {
        self.clock += 1;
        let (set, want) = self.index(addr);
        let base = self.base(set);
        let words = &mut self.words[base..base + self.ways];
        let stamps = &mut self.stamps[base..base + self.ways];
        let dirty_bit = if dirty { DIRTY } else { 0 };
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for way in 0..words.len() {
            let w = words[way];
            if w & !DIRTY == want {
                words[way] |= dirty_bit;
                stamps[way] = self.clock;
                return None;
            }
            let age = if w & VALID != 0 { stamps[way] } else { 0 };
            if age < oldest {
                oldest = age;
                victim = way;
            }
        }
        let old = std::mem::replace(&mut words[victim], want | dirty_bit);
        stamps[victim] = self.clock;
        if old & VALID == 0 {
            return None;
        }
        self.stats.evictions += 1;
        if old & DIRTY == 0 {
            return None;
        }
        self.stats.dirty_evictions += 1;
        Some(((old >> TAG_SHIFT) * self.sets + set) << self.block_bits)
    }
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
        assert_eq!(a.stats, b.stats);
        // Recency clocks stayed in lockstep: the next fill picks the same
        // victim stamps in both caches.
        a.access(0x40, false);
        b.access(0x40, false);
        assert_eq!(a.stats, b.stats);
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

    /// Drives the packed cache and the reference with one op stream on a
    /// four-set cache of `ways` ways. An op is (kind, block, high tag
    /// bits, write/dirty flag); the block pool is three times the
    /// capacity, so sets fill, hit and evict.
    fn check(ways: u32, ops: &[(u8, u64, u64, bool)]) {
        let params =
            CacheParams { size_bytes: 4 * 64 * u64::from(ways), ways, block_bytes: 64, latency: 1 };
        let mut packed = SetAssocCache::new(params);
        let mut reference = Reference::new(params);
        let pool = 12 * u64::from(ways);
        for (step, &(kind, block, high, flag)) in ops.iter().enumerate() {
            let addr = (block % pool) * 64 + (high << 40) + step as u64 % 64;
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
        }
        // The same lines (tag, flags and stamp) and recency clock.
        let lines: Vec<Line> = packed
            .words
            .iter()
            .zip(&packed.stamps)
            .map(|(&w, &lru)| Line {
                tag: w >> TAG_SHIFT,
                valid: w & VALID != 0,
                dirty: w & DIRTY != 0,
                lru,
            })
            .collect();
        assert_eq!(lines, reference.lines);
        assert_eq!(packed.clock, reference.clock);
    }

    proptest! {
        /// Packed lines give the line-struct cache's hits, victims,
        /// writeback addresses, counters, lines and recency clock, on every
        /// associativity the hierarchy uses or could use.
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
