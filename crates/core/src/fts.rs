//! The FIGCache tag store (FTS): one fully-associative portion per bank
//! (paper Section 5.1 / Fig. 6).
//!
//! Each entry ("slot") corresponds to one segment-sized slot in the bank's
//! in-DRAM cache rows. The paper's entry is a tag, a valid bit, a dirty
//! bit and a 5-bit saturating *benefit* counter. Here a slot is that
//! entry in two dense arrays: a `u64` segment key (`row << 32 | index`,
//! the tag) and one metadata byte holding a 2-bit state (free,
//! relocating, relocating-cancelled, valid: the valid bit plus the
//! simulator's view of an insertion in flight), the dirty bit and the
//! benefit counter, which fill the byte exactly. Only
//! [`ReplacementPolicy::Lru`] (Fig. 14) also keeps a last-hit time per
//! slot. Row-granularity replacement keeps the paper's eviction register
//! (the cache row being drained) and an eviction bitvector (which of its
//! slots still await eviction).
//!
//! Lookups go through a fixed open-addressed index from segment to slot
//! (linear probing, backward-shift deletion) sized from the slot count at
//! construction, so the per-request tag lookup neither hashes with SipHash
//! nor allocates.

use rand::Rng;

use crate::config::ReplacementPolicy;
use crate::segment::SegmentId;

/// Maximum benefit value (5-bit saturating counter).
pub const BENEFIT_MAX: u8 = 31;

/// Most slots one cache row can hold: the eviction bitvector is a `u64`.
pub const MAX_SLOTS_PER_ROW: u32 = 64;

/// Lifecycle state of one FTS slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// No segment assigned.
    Free,
    /// A relocation job is filling this slot; lookups still go to the
    /// source row. `cancelled` is set when a racing write made the future
    /// cache copy stale, in which case completion frees the slot.
    Relocating {
        /// Completion will discard the slot instead of validating it.
        cancelled: bool,
    },
    /// The segment is served from the cache row.
    Valid,
}

/// One FTS entry, decoded from the store's packed arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The cached segment's identity (source row + segment index).
    pub seg: Option<SegmentId>,
    /// Lifecycle state.
    pub state: SlotState,
    /// Dirty bit: the cache copy differs from the source row.
    pub dirty: bool,
    /// 5-bit saturating benefit counter (incremented per cache hit).
    pub benefit: u8,
}

/// Metadata byte, bits 0–1: the state.
const STATE_MASK: u8 = 0b11;
const FREE: u8 = 0;
const RELOCATING: u8 = 1;
const CANCELLED: u8 = 2;
const VALID: u8 = 3;
/// Metadata byte, bit 2: the dirty bit.
const DIRTY: u8 = 1 << 2;
/// Metadata byte, bits 3–7: the benefit counter.
const BENEFIT_SHIFT: u32 = 3;

/// The metadata byte of an entry.
fn pack(state: SlotState, dirty: bool, benefit: u8) -> u8 {
    debug_assert!(benefit <= BENEFIT_MAX);
    let state = match state {
        SlotState::Free => FREE,
        SlotState::Relocating { cancelled: false } => RELOCATING,
        SlotState::Relocating { cancelled: true } => CANCELLED,
        SlotState::Valid => VALID,
    };
    state | if dirty { DIRTY } else { 0 } | benefit << BENEFIT_SHIFT
}

/// The (state, dirty, benefit) a metadata byte holds.
fn unpack(meta: u8) -> (SlotState, bool, u8) {
    let state = match meta & STATE_MASK {
        FREE => SlotState::Free,
        RELOCATING => SlotState::Relocating { cancelled: false },
        CANCELLED => SlotState::Relocating { cancelled: true },
        _ => SlotState::Valid,
    };
    (state, meta & DIRTY != 0, meta >> BENEFIT_SHIFT)
}

/// A segment's key: its row above its index.
fn key(seg: SegmentId) -> u64 {
    u64::from(seg.row) << 32 | u64::from(seg.index)
}

/// The segment a key names.
fn segment(key: u64) -> SegmentId {
    SegmentId { row: (key >> 32) as u32, index: key as u32 }
}

/// A victim produced by an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted segment.
    pub seg: SegmentId,
    /// Whether it must be written back to its source row.
    pub dirty: bool,
    /// The slot it occupied (now reused by the new segment).
    pub slot: u32,
}

/// Result of [`FtsBank::allocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Slot now holding the new segment (in `Relocating` state).
    pub slot: u32,
    /// Evicted previous occupant, if the cache was full.
    pub victim: Option<Victim>,
}

/// The segment→slot index of one tag store: a power-of-two table of at
/// least twice as many cells as slots, so it is never more than half
/// full and every probe ends at an empty cell. A cell holds `slot + 1`
/// (0 = empty); the key is read back from the key array at that slot.
#[derive(Debug, Clone)]
struct SlotIndex {
    cells: Vec<u32>,
    /// `cells.len() - 1`.
    mask: usize,
    /// `64 - log2(cells.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl SlotIndex {
    fn new(slots: u32) -> Self {
        let len = (2 * slots as usize).next_power_of_two().max(2);
        Self { cells: vec![0; len], mask: len - 1, shift: 64 - len.trailing_zeros() }
    }

    /// The cell a probe for `key` starts at (Fibonacci hashing).
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The cell holding `key`'s entry, or the empty cell its probe run
    /// ends at.
    fn probe(&self, keys: &[u64], key: u64) -> usize {
        let mut i = self.home(key);
        while let Some(held) = self.cells[i].checked_sub(1) {
            if keys[held as usize] == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        i
    }

    fn find(&self, keys: &[u64], key: u64) -> Option<u32> {
        self.cells[self.probe(keys, key)].checked_sub(1)
    }

    /// Points `key` at `slot` (which holds `key`), replacing any previous
    /// entry for `key`.
    fn insert(&mut self, keys: &[u64], key: u64, slot: u32) {
        let i = self.probe(keys, key);
        self.cells[i] = slot + 1;
    }

    /// Removes `key`'s entry, if any, and shifts later entries of its
    /// probe run back so no lookup meets a gap. `keys` must still hold
    /// the key of every entry, `key`'s included.
    fn remove(&mut self, keys: &[u64], key: u64) {
        let mut hole = self.probe(keys, key);
        if self.cells[hole] == 0 {
            return;
        }
        let mut i = hole;
        loop {
            i = (i + 1) & self.mask;
            let Some(held) = self.cells[i].checked_sub(1) else { break };
            // The entry may fill the hole if its probe started at or
            // before the hole, counting cyclically back from `i`.
            let home = self.home(keys[held as usize]);
            if i.wrapping_sub(home) & self.mask >= i.wrapping_sub(hole) & self.mask {
                self.cells[hole] = self.cells[i];
                hole = i;
            }
        }
        self.cells[hole] = 0;
    }
}

/// The per-bank FIGCache tag store.
#[derive(Debug, Clone)]
pub struct FtsBank {
    segs_per_row: u32,
    rows: u32,
    policy: ReplacementPolicy,
    index: SlotIndex,
    /// Segment key per slot; meaningful only while the slot is not free.
    keys: Vec<u64>,
    /// Packed state, dirty bit and benefit per slot.
    meta: Vec<u8>,
    /// Last-hit time per slot under [`ReplacementPolicy::Lru`]; empty
    /// under every other policy.
    last_use: Vec<u64>,
    free: Vec<u32>,
    /// Paper's eviction register: the cache row currently being drained.
    evict_row: Option<u32>,
    /// Paper's eviction bitvector: slots of `evict_row` still marked.
    evict_mask: u64,
}

impl FtsBank {
    /// Creates a tag store for `rows` cache rows of `segs_per_row` slots
    /// that evicts by `policy`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `segs_per_row` exceeds
    /// [`MAX_SLOTS_PER_ROW`].
    #[must_use]
    pub fn new(rows: u32, segs_per_row: u32, policy: ReplacementPolicy) -> Self {
        assert!(rows > 0 && segs_per_row > 0, "FTS dimensions must be non-zero");
        assert!(
            segs_per_row <= MAX_SLOTS_PER_ROW,
            "eviction bitvector supports at most {MAX_SLOTS_PER_ROW} slots per row"
        );
        let n = rows * segs_per_row;
        let lru_slots = if policy == ReplacementPolicy::Lru { n as usize } else { 0 };
        Self {
            segs_per_row,
            rows,
            policy,
            index: SlotIndex::new(n),
            keys: vec![0; n as usize],
            meta: vec![pack(SlotState::Free, false, 0); n as usize],
            last_use: vec![0; lru_slots],
            free: (0..n).rev().collect(),
            evict_row: None,
            evict_mask: 0,
        }
    }

    /// Total slots (= cache capacity in segments).
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.rows * self.segs_per_row
    }

    /// Cache row of a slot index.
    #[must_use]
    pub fn row_of(&self, slot: u32) -> u32 {
        slot / self.segs_per_row
    }

    /// Slot position within its cache row.
    #[must_use]
    pub fn pos_in_row(&self, slot: u32) -> u32 {
        slot % self.segs_per_row
    }

    /// Looks up a segment; returns its slot index if present (any state).
    #[must_use]
    pub fn find(&self, seg: SegmentId) -> Option<u32> {
        self.index.find(&self.keys, key(seg))
    }

    /// The entry in slot `idx`.
    #[must_use]
    pub fn slot(&self, idx: u32) -> Slot {
        let i = idx as usize;
        let (state, dirty, benefit) = unpack(self.meta[i]);
        let seg = (state != SlotState::Free).then(|| segment(self.keys[i]));
        Slot { seg, state, dirty, benefit }
    }

    /// Whether slot `i` holds a valid segment.
    fn is_valid(&self, i: u32) -> bool {
        self.meta[i as usize] & STATE_MASK == VALID
    }

    /// Records a cache hit on `slot`: saturating benefit increment and,
    /// under LRU, the last-hit time; sets the dirty bit for writes.
    pub fn touch_hit(&mut self, slot: u32, is_write: bool, now: u64) {
        let i = slot as usize;
        let m = &mut self.meta[i];
        debug_assert_eq!(*m & STATE_MASK, VALID);
        if *m >> BENEFIT_SHIFT < BENEFIT_MAX {
            *m += 1 << BENEFIT_SHIFT;
        }
        if is_write {
            *m |= DIRTY;
        }
        if let Some(t) = self.last_use.get_mut(i) {
            *t = now;
        }
    }

    /// Marks a relocating slot's insertion as cancelled (a write raced it).
    pub fn cancel_relocation(&mut self, slot: u32) {
        let m = &mut self.meta[slot as usize];
        if let (SlotState::Relocating { .. }, dirty, benefit) = unpack(*m) {
            *m = pack(SlotState::Relocating { cancelled: true }, dirty, benefit);
        }
    }

    /// Completes the relocation filling `slot`. Returns `true` if the slot
    /// became valid, `false` if the insertion had been cancelled (the slot
    /// is freed).
    pub fn complete_relocation(&mut self, slot: u32) -> bool {
        match unpack(self.meta[slot as usize]) {
            (SlotState::Relocating { cancelled: false }, dirty, benefit) => {
                self.meta[slot as usize] = pack(SlotState::Valid, dirty, benefit);
                true
            }
            (SlotState::Relocating { cancelled: true }, ..) => {
                self.release(slot);
                false
            }
            (state, ..) => panic!("complete_relocation on slot in state {state:?}"),
        }
    }

    /// Removes whatever occupies `slot` and returns it to the free list.
    /// Releasing a free slot is a no-op: it is already on the free list,
    /// and pushing it again would hand it to two later allocations.
    pub fn release(&mut self, slot: u32) {
        let i = slot as usize;
        if self.meta[i] & STATE_MASK == FREE {
            return;
        }
        self.index.remove(&self.keys, self.keys[i]);
        self.meta[i] = pack(SlotState::Free, false, 0);
        self.free.push(slot);
        // Drop a stale eviction mark if it pointed at this slot.
        if self.evict_row == Some(self.row_of(slot)) {
            self.evict_mask &= !(1u64 << self.pos_in_row(slot));
        }
    }

    /// Allocates a slot for `seg`, evicting by the store's policy when
    /// full. The new slot starts in `Relocating` state. Returns `None`
    /// when nothing can be evicted (every candidate is mid-relocation).
    pub fn allocate<R: Rng>(
        &mut self,
        seg: SegmentId,
        rng: &mut R,
        now: u64,
    ) -> Option<Allocation> {
        debug_assert!(self.find(seg).is_none(), "segment {seg:?} already present");
        let (slot, victim) = if let Some(slot) = self.free.pop() {
            (slot, None)
        } else {
            let slot = self.select_victim(rng)?;
            let i = slot as usize;
            let vkey = self.keys[i];
            self.index.remove(&self.keys, vkey);
            let dirty = self.meta[i] & DIRTY != 0;
            (slot, Some(Victim { seg: segment(vkey), dirty, slot }))
        };
        let i = slot as usize;
        self.keys[i] = key(seg);
        self.meta[i] = pack(SlotState::Relocating { cancelled: false }, false, 0);
        if let Some(t) = self.last_use.get_mut(i) {
            *t = now;
        }
        self.index.insert(&self.keys, key(seg), slot);
        Some(Allocation { slot, victim })
    }

    /// Current eviction register/bitvector (for tests and introspection).
    #[must_use]
    pub fn eviction_state(&self) -> (Option<u32>, u64) {
        (self.evict_row, self.evict_mask)
    }

    fn select_victim<R: Rng>(&mut self, rng: &mut R) -> Option<u32> {
        match self.policy {
            ReplacementPolicy::RowBenefit => self.select_row_benefit(),
            ReplacementPolicy::SegmentBenefit => {
                self.select_by_key(|i| u64::from(self.meta[i] >> BENEFIT_SHIFT))
            }
            ReplacementPolicy::Lru => self.select_by_key(|i| self.last_use[i]),
            ReplacementPolicy::Random => {
                let candidates: Vec<u32> =
                    (0..self.capacity()).filter(|&i| self.is_valid(i)).collect();
                if candidates.is_empty() {
                    None
                } else {
                    Some(candidates[rng.gen_range(0..candidates.len())])
                }
            }
        }
    }

    /// Minimum-key valid slot (ties broken by lowest index).
    fn select_by_key(&self, key: impl Fn(usize) -> u64) -> Option<u32> {
        (0..self.capacity()).filter(|&i| self.is_valid(i)).min_by_key(|&i| (key(i as usize), i))
    }

    /// The paper's row-granularity policy: drain the marked row one slot
    /// per insertion (lowest benefit first); when the mask empties, mark
    /// the row with the lowest cumulative benefit.
    fn select_row_benefit(&mut self) -> Option<u32> {
        loop {
            if let Some(row) = self.evict_row {
                if self.evict_mask != 0 {
                    // Lowest-benefit marked slot.
                    let base = row * self.segs_per_row;
                    let chosen = (0..self.segs_per_row)
                        .filter(|p| self.evict_mask & (1 << p) != 0)
                        .map(|p| base + p)
                        .filter(|&i| self.is_valid(i))
                        .min_by_key(|&i| (self.meta[i as usize] >> BENEFIT_SHIFT, i));
                    match chosen {
                        Some(slot) => {
                            self.evict_mask &= !(1u64 << self.pos_in_row(slot));
                            return Some(slot);
                        }
                        None => {
                            // Mask pointed only at non-valid slots; re-mark.
                            self.evict_mask = 0;
                        }
                    }
                }
            }
            // Mark a new row: lowest cumulative benefit over valid slots,
            // skipping rows with any slot mid-relocation.
            let mut best: Option<(u64, u32)> = None;
            for row in 0..self.rows {
                let base = (row * self.segs_per_row) as usize;
                let mut sum = 0u64;
                let mut valid = 0u32;
                let mut relocating = false;
                for &m in &self.meta[base..base + self.segs_per_row as usize] {
                    match m & STATE_MASK {
                        VALID => {
                            sum += u64::from(m >> BENEFIT_SHIFT);
                            valid += 1;
                        }
                        FREE => {}
                        _ => relocating = true,
                    }
                }
                if relocating || valid == 0 {
                    continue;
                }
                if best.is_none_or(|(bs, _)| sum < bs) {
                    best = Some((sum, row));
                }
            }
            let (_, row) = best?;
            let base = row * self.segs_per_row;
            let mut mask = 0u64;
            for p in 0..self.segs_per_row {
                if self.is_valid(base + p) {
                    mask |= 1 << p;
                }
            }
            self.evict_row = Some(row);
            self.evict_mask = mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn seg(row: u32, index: u32) -> SegmentId {
        SegmentId { row, index }
    }

    /// Allocates and immediately validates a segment.
    fn fill(fts: &mut FtsBank, s: SegmentId, rng: &mut StdRng) -> Allocation {
        let a = fts.allocate(s, rng, 0).expect("allocation must succeed");
        fts.complete_relocation(a.slot);
        a
    }

    #[test]
    fn every_entry_round_trips_through_its_metadata_byte() {
        let states = [
            SlotState::Free,
            SlotState::Relocating { cancelled: false },
            SlotState::Relocating { cancelled: true },
            SlotState::Valid,
        ];
        let mut bytes = std::collections::BTreeSet::new();
        for state in states {
            for dirty in [false, true] {
                for benefit in 0..=BENEFIT_MAX {
                    let meta = pack(state, dirty, benefit);
                    assert_eq!(unpack(meta), (state, dirty, benefit));
                    bytes.insert(meta);
                }
            }
        }
        assert_eq!(bytes.len(), 256, "the paper's entry fills the byte exactly");
    }

    #[test]
    fn a_slot_is_a_key_word_and_a_metadata_byte() {
        // The paper's store: 64 cache rows of 8 one-kB segments per bank.
        for policy in [ReplacementPolicy::RowBenefit, ReplacementPolicy::Lru] {
            let fts = FtsBank::new(64, 8, policy);
            assert_eq!((fts.keys.len(), fts.meta.len()), (512, 512));
            let per_slot =
                std::mem::size_of_val(&fts.keys[0]) + std::mem::size_of_val(&fts.meta[0]);
            assert_eq!(per_slot, 9);
            // Last-hit times are kept only for the policy that reads them.
            let lru = if policy == ReplacementPolicy::Lru { 512 } else { 0 };
            assert_eq!(fts.last_use.len(), lru, "{policy:?}");
        }
    }

    #[test]
    fn capacity_matches_paper_fts() {
        // 64 cache rows x 8 segments = 512 entries per bank (paper Sec. 8.3).
        let fts = FtsBank::new(64, 8, ReplacementPolicy::RowBenefit);
        assert_eq!(fts.capacity(), 512);
    }

    #[test]
    fn allocate_uses_free_slots_first() {
        let mut fts = FtsBank::new(2, 2, ReplacementPolicy::RowBenefit);
        let mut r = rng();
        for i in 0..4 {
            let a = fill(&mut fts, seg(i, 0), &mut r);
            assert!(a.victim.is_none(), "slot {i} should be free");
        }
        let a = fts.allocate(seg(9, 0), &mut r, 0).unwrap();
        assert!(a.victim.is_some());
    }

    #[test]
    fn benefit_saturates_at_31() {
        let mut fts = FtsBank::new(1, 1, ReplacementPolicy::RowBenefit);
        let mut r = rng();
        fill(&mut fts, seg(1, 0), &mut r);
        for t in 0..100 {
            fts.touch_hit(0, false, t);
        }
        assert_eq!(fts.slot(0).benefit, BENEFIT_MAX);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut fts = FtsBank::new(1, 1, ReplacementPolicy::RowBenefit);
        let mut r = rng();
        fill(&mut fts, seg(1, 0), &mut r);
        assert!(!fts.slot(0).dirty);
        fts.touch_hit(0, true, 1);
        assert!(fts.slot(0).dirty);
    }

    #[test]
    fn row_benefit_evicts_lowest_benefit_row_one_slot_at_a_time() {
        let mut fts = FtsBank::new(2, 2, ReplacementPolicy::RowBenefit);
        let mut r = rng();
        // Row 0: segments A (benefit 3) and B (benefit 3). Row 1: C, D (benefit 0).
        let a = fill(&mut fts, seg(10, 0), &mut r);
        let b = fill(&mut fts, seg(11, 0), &mut r);
        let _c = fill(&mut fts, seg(12, 0), &mut r);
        let _d = fill(&mut fts, seg(13, 0), &mut r);
        for _ in 0..3 {
            fts.touch_hit(a.slot, false, 1);
            fts.touch_hit(b.slot, false, 1);
        }
        // Row 1 has the lower cumulative benefit; its slots drain first.
        let v1 = fts.allocate(seg(20, 0), &mut r, 2).unwrap();
        let (erow, mask) = fts.eviction_state();
        assert_eq!(erow, Some(1));
        assert_eq!(mask.count_ones(), 1, "one of two marked slots already drained");
        assert_eq!(fts.row_of(v1.victim.unwrap().slot), 1);
        fts.complete_relocation(v1.slot);
        let v2 = fts.allocate(seg(21, 0), &mut r, 3).unwrap();
        assert_eq!(fts.row_of(v2.victim.unwrap().slot), 1);
        assert_eq!(v2.victim.unwrap().seg, seg(13, 0));
    }

    #[test]
    fn row_benefit_drains_lowest_benefit_slot_within_marked_row() {
        let mut fts = FtsBank::new(1, 4, ReplacementPolicy::RowBenefit);
        let mut r = rng();
        let allocs: Vec<Allocation> = (0..4).map(|i| fill(&mut fts, seg(i, 0), &mut r)).collect();
        // Benefits 2, 0, 3, 1.
        for (slot, hits) in [(allocs[0].slot, 2), (allocs[2].slot, 3), (allocs[3].slot, 1)] {
            for _ in 0..hits {
                fts.touch_hit(slot, false, 1);
            }
        }
        let order: Vec<SegmentId> = (0..4)
            .map(|i| {
                let a = fts.allocate(seg(100 + i, 0), &mut r, 5).unwrap();
                fts.complete_relocation(a.slot);
                a.victim.unwrap().seg
            })
            .collect();
        // Eviction order follows ascending benefit: B(0), D(1), A(2), C(3).
        assert_eq!(order, vec![seg(1, 0), seg(3, 0), seg(0, 0), seg(2, 0)]);
    }

    #[test]
    fn segment_benefit_evicts_global_minimum() {
        let mut fts = FtsBank::new(2, 2, ReplacementPolicy::SegmentBenefit);
        let mut r = rng();
        let allocs: Vec<Allocation> = (0..4).map(|i| fill(&mut fts, seg(i, 0), &mut r)).collect();
        fts.touch_hit(allocs[0].slot, false, 1);
        fts.touch_hit(allocs[1].slot, false, 1);
        fts.touch_hit(allocs[3].slot, false, 1);
        let a = fts.allocate(seg(50, 0), &mut r, 2).unwrap();
        assert_eq!(a.victim.unwrap().seg, seg(2, 0));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut fts = FtsBank::new(2, 2, ReplacementPolicy::Lru);
        let mut r = rng();
        let allocs: Vec<Allocation> = (0..4).map(|i| fill(&mut fts, seg(i, 0), &mut r)).collect();
        for (t, idx) in [(10, 1), (20, 0), (30, 3), (40, 2)] {
            fts.touch_hit(allocs[idx].slot, false, t);
        }
        let a = fts.allocate(seg(50, 0), &mut r, 41).unwrap();
        assert_eq!(a.victim.unwrap().seg, seg(1, 0));
    }

    #[test]
    fn random_evicts_some_valid_slot() {
        let mut fts = FtsBank::new(2, 2, ReplacementPolicy::Random);
        let mut r = rng();
        for i in 0..4 {
            fill(&mut fts, seg(i, 0), &mut r);
        }
        let a = fts.allocate(seg(50, 0), &mut r, 1).unwrap();
        let v = a.victim.unwrap();
        assert!(v.seg.row < 4);
    }

    #[test]
    fn relocating_slots_are_never_victims() {
        for policy in [ReplacementPolicy::SegmentBenefit, ReplacementPolicy::RowBenefit] {
            let mut fts = FtsBank::new(1, 2, policy);
            let mut r = rng();
            // Two slots, both left in Relocating state.
            fts.allocate(seg(1, 0), &mut r, 0).unwrap();
            fts.allocate(seg(2, 0), &mut r, 0).unwrap();
            assert!(fts.allocate(seg(3, 0), &mut r, 0).is_none(), "{policy:?}");
        }
    }

    #[test]
    fn cancelled_relocation_frees_the_slot() {
        let mut fts = FtsBank::new(1, 1, ReplacementPolicy::RowBenefit);
        let mut r = rng();
        let a = fts.allocate(seg(1, 0), &mut r, 0).unwrap();
        fts.cancel_relocation(a.slot);
        assert!(!fts.complete_relocation(a.slot));
        assert!(fts.find(seg(1, 0)).is_none());
        // Slot is reusable.
        let b = fts.allocate(seg(2, 0), &mut r, 1).unwrap();
        assert!(b.victim.is_none());
    }

    #[test]
    fn release_clears_eviction_mark() {
        let mut fts = FtsBank::new(1, 2, ReplacementPolicy::RowBenefit);
        let mut r = rng();
        let a = fill(&mut fts, seg(1, 0), &mut r);
        let _b = fill(&mut fts, seg(2, 0), &mut r);
        // Trigger marking by allocating into a full store.
        let c = fts.allocate(seg(3, 0), &mut r, 0).unwrap();
        fts.complete_relocation(c.slot);
        let (_, mask_before) = fts.eviction_state();
        assert_ne!(mask_before, 0);
        // Releasing the still-marked slot clears its bit.
        let marked_slot = (0..2)
            .find(|&i| mask_before & (1 << fts.pos_in_row(i)) != 0 && fts.slot(i).seg.is_some());
        if let Some(s) = marked_slot {
            fts.release(s);
            let (_, mask_after) = fts.eviction_state();
            assert!(mask_after.count_ones() < mask_before.count_ones());
        }
        let _ = a;
    }

    /// Builds the Fig. 14 head-to-head state: four valid segments whose
    /// benefit counters and LRU timestamps make every policy prefer a
    /// *different* victim.
    ///
    /// | slot | row | seg | benefit | last_use |
    /// |---|---|---|---|---|
    /// | A | 0 | (10,0) | 1 | 40 |
    /// | B | 0 | (11,0) | 31 | 10 |
    /// | C | 1 | (12,0) | 2 | 30 |
    /// | D | 1 | (13,0) | 3 | 20 |
    ///
    /// Row benefit sums: row 0 = 32, row 1 = 5. The store evicts by
    /// `policy` (and keeps last-hit times only under LRU).
    fn fig14_state(policy: ReplacementPolicy) -> (FtsBank, [Allocation; 4]) {
        let mut fts = FtsBank::new(2, 2, policy);
        let mut r = rng();
        let a = fill(&mut fts, seg(10, 0), &mut r);
        let b = fill(&mut fts, seg(11, 0), &mut r);
        let c = fill(&mut fts, seg(12, 0), &mut r);
        let d = fill(&mut fts, seg(13, 0), &mut r);
        for (alloc, hits, t) in [(&a, 1, 40), (&b, 31, 10), (&c, 2, 30), (&d, 3, 20)] {
            for _ in 0..hits {
                fts.touch_hit(alloc.slot, false, t);
            }
        }
        (fts, [a, b, c, d])
    }

    #[test]
    fn fig14_policies_disagree_on_identical_state() {
        let mut victims = Vec::new();
        for policy in [
            ReplacementPolicy::RowBenefit,
            ReplacementPolicy::SegmentBenefit,
            ReplacementPolicy::Lru,
        ] {
            let (mut fts, _) = fig14_state(policy);
            let mut r = rng();
            let v = fts.allocate(seg(99, 0), &mut r, 50).unwrap().victim.unwrap();
            victims.push(v.seg);
        }
        // RowBenefit drains the low-sum row (row 1) lowest-benefit-first -> C.
        assert_eq!(victims[0], seg(12, 0), "RowBenefit victim");
        // SegmentBenefit takes the global minimum benefit -> A.
        assert_eq!(victims[1], seg(10, 0), "SegmentBenefit victim");
        // LRU takes the oldest timestamp -> B.
        assert_eq!(victims[2], seg(11, 0), "LRU victim");
        assert_eq!(
            victims.iter().collect::<std::collections::HashSet<_>>().len(),
            3,
            "the three deterministic policies must disagree here"
        );
    }

    #[test]
    fn fig14_random_is_seed_deterministic_and_spreads() {
        let (state, _) = fig14_state(ReplacementPolicy::Random);
        let mut seen = std::collections::HashSet::new();
        for s in 0..32u64 {
            let victim = |seed| {
                let mut fts = state.clone();
                let mut r = StdRng::seed_from_u64(seed);
                fts.allocate(seg(99, 0), &mut r, 50).unwrap().victim.unwrap().seg
            };
            let v = victim(s);
            assert_eq!(v, victim(s), "same seed must evict the same slot");
            assert!((10..14).contains(&v.row), "victim must be one of the four valid slots");
            seen.insert(v);
        }
        assert!(seen.len() > 1, "32 seeds must not all pick the same victim");
    }

    #[test]
    fn lru_ties_break_toward_lowest_slot_index() {
        let mut fts = FtsBank::new(2, 2, ReplacementPolicy::Lru);
        let mut r = rng();
        for i in 0..4 {
            fill(&mut fts, seg(i, 0), &mut r);
        }
        // All four share last_use = 0 from allocation; the tie breaks at
        // the lowest index (documented in select_by_key).
        let v = fts.allocate(seg(50, 0), &mut r, 1).unwrap();
        assert_eq!(v.victim.unwrap().slot, 0);
    }

    #[test]
    fn row_benefit_remarks_after_marked_row_is_released() {
        let mut fts = FtsBank::new(2, 2, ReplacementPolicy::RowBenefit);
        let mut r = rng();
        let allocs: Vec<Allocation> = (0..4).map(|i| fill(&mut fts, seg(i, 0), &mut r)).collect();
        // First eviction marks a row (both rows sum to 0; row 0 wins).
        let v = fts.allocate(seg(50, 0), &mut r, 1).unwrap();
        fts.complete_relocation(v.slot);
        let (marked, _) = fts.eviction_state();
        let marked = marked.unwrap();
        // Release the row's remaining occupants out from under the drain.
        for a in &allocs {
            if fts.row_of(a.slot) == marked && fts.slot(a.slot).seg.is_some() {
                fts.release(a.slot);
            }
        }
        // The next allocation must re-mark cleanly instead of spinning on
        // the emptied mask. (The freed slots are reused first, then the
        // other row is drained.)
        for j in 0..3 {
            let a = fts
                .allocate(seg(60 + j, 0), &mut r, 2)
                .expect("allocation must succeed after release");
            fts.complete_relocation(a.slot);
        }
        assert!(fts.find(seg(62, 0)).is_some());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::ReplacementPolicy;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Whatever sequence of allocations/hits/completions happens, the
        /// map and the slot array stay consistent and the free list never
        /// double-books a slot.
        #[test]
        fn fts_invariants_hold(ops in proptest::collection::vec((0u8..4, 0u32..32, any::<bool>()), 1..200)) {
            let mut fts = FtsBank::new(4, 4, ReplacementPolicy::RowBenefit);
            let mut rng = StdRng::seed_from_u64(7);
            let mut relocating: Vec<u32> = Vec::new();
            for (op, x, w) in ops {
                match op {
                    0 => {
                        let s = SegmentId { row: x, index: 0 };
                        if fts.find(s).is_none() {
                            if let Some(a) = fts.allocate(s, &mut rng, 0) {
                                relocating.push(a.slot);
                            }
                        }
                    }
                    1 => {
                        if let Some(slot) = relocating.pop() {
                            fts.complete_relocation(slot);
                        }
                    }
                    2 => {
                        let s = SegmentId { row: x, index: 0 };
                        if let Some(slot) = fts.find(s) {
                            if fts.slot(slot).state == SlotState::Valid {
                                fts.touch_hit(slot, w, u64::from(x));
                            }
                        }
                    }
                    _ => {
                        if let Some(slot) = relocating.last().copied() {
                            fts.cancel_relocation(slot);
                        }
                    }
                }
                // Invariant: every mapped segment points at a slot holding it.
                for i in 0..fts.capacity() {
                    if let Some(seg) = fts.slot(i).seg {
                        prop_assert_eq!(fts.find(seg), Some(i));
                        prop_assert_ne!(fts.slot(i).state, SlotState::Free);
                    } else {
                        prop_assert_eq!(fts.slot(i).state, SlotState::Free);
                    }
                    prop_assert!(fts.slot(i).benefit <= BENEFIT_MAX);
                }
            }
        }
    }

    /// Segment keys for the index test on a 2 × 4 store (16 cells): six
    /// that hash to the last cell, so their probe runs wrap to cell 0,
    /// six that share cell 3 with each other, and twelve others.
    fn index_test_keys() -> Vec<SegmentId> {
        let index = SlotIndex::new(8);
        let keys: Vec<SegmentId> =
            (0..256).flat_map(|row| (0..4).map(move |index| SegmentId { row, index })).collect();
        let index = &index;
        let at = |cell| keys.iter().copied().filter(move |&k| index.home(key(k)) == cell).take(6);
        let mut pool: Vec<SegmentId> = at(15).chain(at(3)).collect();
        let others: Vec<SegmentId> = keys.iter().copied().filter(|k| !pool.contains(k)).collect();
        pool.extend(&others[..12]);
        assert_eq!(pool.len(), 24);
        pool
    }

    proptest! {
        /// The open-addressed index agrees with a `BTreeMap` model of
        /// the segment→slot map through allocations (with evictions under
        /// every policy), cancelled and completed relocations and
        /// releases (of free slots too), never hands out a slot that
        /// still holds a segment, and stays the map the slots spell out,
        /// on keys that collide and probe runs that wrap.
        #[test]
        fn slot_index_matches_a_map(
            ops in proptest::collection::vec((0u8..5, 0usize..24, 0u32..8), 1..200),
            policy in 0u8..4,
        ) {
            let policy = [
                ReplacementPolicy::RowBenefit,
                ReplacementPolicy::SegmentBenefit,
                ReplacementPolicy::Lru,
                ReplacementPolicy::Random,
            ][usize::from(policy)];
            let keys = index_test_keys();
            let mut fts = FtsBank::new(2, 4, policy);
            let mut model = std::collections::BTreeMap::new();
            let mut rng = StdRng::seed_from_u64(11);
            for (now, &(op, key, slot)) in ops.iter().enumerate() {
                let seg = keys[key];
                let relocating = matches!(fts.slot(slot).state, SlotState::Relocating { .. });
                match op {
                    0 | 1 if model.contains_key(&seg) => {
                        if let Some(s) = fts.find(seg).filter(|&s| fts.slot(s).state == SlotState::Valid) {
                            fts.touch_hit(s, op == 1, now as u64);
                        }
                    }
                    0 | 1 => {
                        if let Some(a) = fts.allocate(seg, &mut rng, now as u64) {
                            if let Some(v) = a.victim {
                                prop_assert_eq!(model.remove(&v.seg), Some(v.slot));
                            }
                            prop_assert!(
                                !model.values().any(|&s| s == a.slot),
                                "slot {} handed out while it still holds a segment",
                                a.slot
                            );
                            model.insert(seg, a.slot);
                        }
                    }
                    2 => fts.cancel_relocation(slot),
                    3 if relocating => {
                        let held = fts.slot(slot).seg.expect("a relocating slot holds a segment");
                        if !fts.complete_relocation(slot) {
                            prop_assert_eq!(model.remove(&held), Some(slot));
                        }
                    }
                    3 => {}
                    _ => {
                        // Free slots are released too (a no-op).
                        if let Some(held) = fts.slot(slot).seg {
                            prop_assert_eq!(model.remove(&held), Some(slot));
                        }
                        fts.release(slot);
                    }
                }
                for &k in &keys {
                    prop_assert_eq!(fts.find(k), model.get(&k).copied());
                }
                // The index is exactly the map the slots spell out.
                for s in 0..fts.capacity() {
                    if let Some(held) = fts.slot(s).seg {
                        prop_assert_eq!(fts.find(held), Some(s));
                    }
                }
            }
        }
    }
}
