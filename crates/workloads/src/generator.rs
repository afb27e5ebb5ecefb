//! The trace generator: turns an [`AppProfile`] into a deterministic
//! stream of [`TraceOp`]s.
//!
//! Address layout: the footprint is divided into 8 kB *pages*; one
//! contiguous page is exactly one DRAM row under the paper's address
//! interleaving. Each hot segment owns a distinct page (chosen by a
//! pseudo-random permutation over the footprint) and a segment-aligned
//! slot inside it; the hot region of a page is small, so rows are mostly
//! cold — the property that makes row-granularity in-DRAM caching
//! wasteful and segment-granularity caching effective.
//!
//! Ops are generated a batch at a time: whole bursts (one group visit or
//! one streaming run each) are appended until at least 256 ops are
//! buffered, and each pull pops one. The RNG draws follow the order of
//! an op-at-a-time generator (a burst's addresses and write flags, then
//! its ops' instruction gaps in op order), so the op sequence does not
//! depend on the batch size.

use std::sync::{Arc, Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::apps::AppProfile;
use crate::{Trace, TraceOp};

const PAGE_BYTES: u64 = 8192;
const BLOCK_BYTES: u64 = 64;
const BLOCKS_PER_PAGE: u64 = PAGE_BYTES / BLOCK_BYTES;
/// Hot segments per correlated group (one in-DRAM cache row's worth).
const GROUP: u32 = 8;
/// Page residues that share one bank under the paper's interleaving for
/// both the 1-channel and 4-channel geometries (lcm of 16 and 64 banks).
const BANK_RESIDUES: u64 = 64;
/// Longest run a geometric burst-length draw returns.
const MAX_RUN: u32 = 64;
/// Most ops one burst appends: a group visit of every member, each a
/// longest run.
const MAX_BURST: usize = (GROUP * MAX_RUN) as usize;
/// A refill appends whole bursts until at least this many ops are buffered.
const BATCH: usize = 256;
/// Probability that a streaming burst restarts at a random block.
const STREAM_RESTART: f64 = 0.05;
/// 2⁵³: a draw's top 53 bits, as `unit_f64` reads them, are a fraction
/// of this.
const UNIT: f64 = (1u64 << 53) as f64;

/// `rng.gen_bool(p)` is `(x >> 11) · 2⁻⁵³ < p` for a raw draw `x`, which
/// holds exactly when `x >> 11 < ceil(p · 2⁵³)`: the threshold this
/// returns for a `p` in `[0, 1]`.
fn bernoulli(p: f64) -> u64 {
    (p * UNIT).ceil() as u64
}

/// The stop threshold of a geometric burst length around `mean`, or
/// `None` when the length is always 1 and nothing is drawn.
fn geometric(mean: f64) -> Option<u64> {
    (mean > 1.0).then(|| bernoulli(1.0 / mean))
}

/// Most Zipf tables [`ZIPF_CDFS`] keeps. Past it a table is built
/// without being kept, so profiles with ever new exponents cannot grow
/// the memo without bound.
const ZIPF_MEMO_CAP: usize = 64;

/// The process-wide memo of Zipf tables: every generator of one profile
/// shares one table.
static ZIPF_CDFS: ZipfMemo = ZipfMemo::new();

/// A memo entry: `(groups, exponent bits)`, the only inputs of
/// [`zipf_cdf`], and the table they give.
type ZipfEntry = ((usize, u64), Arc<[u64]>);

/// A bounded memo of Zipf tables, searched linearly.
#[derive(Debug)]
struct ZipfMemo {
    tables: Mutex<Vec<ZipfEntry>>,
}

impl ZipfMemo {
    const fn new() -> Self {
        Self { tables: Mutex::new(Vec::new()) }
    }

    /// The table of [`zipf_cdf`]`(groups, exponent)`, built on a miss and
    /// kept while fewer than [`ZIPF_MEMO_CAP`] tables are. The lock is
    /// held across the build so concurrent builders of one profile share
    /// one table; a poisoned lock is taken over, since a table enters the
    /// memo only once fully built.
    fn get(&self, groups: usize, exponent: f64) -> Arc<[u64]> {
        let key = (groups, exponent.to_bits());
        let mut tables = self.tables.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, cdf)) = tables.iter().find(|(k, _)| *k == key) {
            return Arc::clone(cdf);
        }
        let cdf = zipf_cdf(groups, exponent);
        if tables.len() < ZIPF_MEMO_CAP {
            tables.push((key, Arc::clone(&cdf)));
        }
        cdf
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.tables.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// The Zipf popularity CDF over a phase's `groups` hot groups at
/// `exponent`, each entry as `floor(c · 2⁵³)`.
fn zipf_cdf(groups: usize, exponent: f64) -> Arc<[u64]> {
    let mut weights = Vec::with_capacity(groups);
    let mut total = 0.0;
    for k in 1..=groups {
        let w = 1.0 / (k as f64).powf(exponent);
        total += w;
        weights.push(total);
    }
    // `unit_f64(x) > c` holds exactly when `x >> 11 > floor(c · 2⁵³)`;
    // the cast truncates, so it floors these non-negative values.
    weights.into_iter().map(|w| (w / total * UNIT) as u64).collect()
}

/// Streaming generator over an application profile. Implements
/// [`Iterator`] (and [`crate::TraceSource`]) and never ends; its only
/// buffered state is one batch — whole bursts appended until at least
/// 256 ops are ready, so at most 255 plus one burst's — so a consumer
/// pulling ops on demand simulates arbitrarily long traces in constant
/// memory. Its Zipf table is not its own: every generator of one
/// `(groups, exponent)` pair shares one table from a process-wide memo,
/// so building a generator again costs no `powf`. Use [`generate_trace`]
/// for a fixed-length materialized [`Trace`].
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: AppProfile,
    rng: StdRng,
    /// The ops generated ahead of the consumer; `pos` is the next to pop.
    batch: Vec<TraceOp>,
    pos: usize,
    /// Bernoulli thresholds (see [`bernoulli`]): a hot burst, a store.
    hot_threshold: u64,
    write_threshold: u64,
    /// Geometric stop thresholds (see [`geometric`]) of the members per
    /// group visit, the blocks per member and the blocks per streaming run.
    span_stop: Option<u64>,
    hot_run_stop: Option<u64>,
    stream_run_stop: Option<u64>,
    /// Hot segment popularity CDF within a phase, as `floor(c · 2⁵³)`:
    /// one table per `(groups, exponent)`, shared by every generator of
    /// the profile through [`ZIPF_CDFS`].
    zipf_cdf: Arc<[u64]>,
    /// The first hot group active this phase; the phase's active groups
    /// are the `zipf_cdf.len()` that follow it (wrapping).
    phase_start: u32,
    ops_left_in_phase: u32,
    /// Hot placement (see [`TraceGenerator::hot_page`]): pages in the
    /// footprint, page quotients per residue, group classes per residue,
    /// blocks per hot segment and hot slots per page.
    pages: u64,
    q_space: u64,
    classes: u64,
    hot_blocks: u64,
    slots: u64,
    /// Streaming pointer (block index within the footprint, below
    /// `pages · BLOCKS_PER_PAGE`).
    stream_block: u64,
}

impl TraceGenerator {
    /// Creates a deterministic generator.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`AppProfile::validate`].
    #[must_use]
    pub fn new(profile: &AppProfile, seed: u64) -> Self {
        profile.validate().expect("profile must validate");
        let pages = profile.footprint_bytes / PAGE_BYTES;
        let groups = (profile.phase_segments / GROUP) as usize;
        let zipf_cdf = ZIPF_CDFS.get(groups, profile.zipf_exponent);
        let hot_blocks = u64::from(profile.hot_segment_bytes) / BLOCK_BYTES;
        let mut gen = Self {
            profile: *profile,
            rng: StdRng::seed_from_u64(seed),
            batch: Vec::new(),
            pos: 0,
            hot_threshold: bernoulli(profile.hot_fraction),
            write_threshold: bernoulli(profile.write_frac),
            span_stop: geometric(profile.group_span),
            hot_run_stop: geometric(profile.hot_burst),
            stream_run_stop: geometric(profile.stream_burst),
            zipf_cdf,
            phase_start: 0,
            ops_left_in_phase: 0,
            pages,
            q_space: pages / BANK_RESIDUES,
            classes: u64::from(profile.hot_segments / GROUP).div_ceil(BANK_RESIDUES).max(1),
            hot_blocks,
            slots: BLOCKS_PER_PAGE / hot_blocks,
            stream_block: 0,
        };
        gen.redraw_phase();
        gen
    }

    /// Name of the profile being generated.
    #[must_use]
    pub fn profile_name(&self) -> &'static str {
        self.profile.name
    }

    /// The next op in program order.
    pub(crate) fn pop(&mut self) -> TraceOp {
        if self.pos == self.batch.len() {
            self.refill();
        }
        let op = self.batch[self.pos];
        self.pos += 1;
        op
    }

    /// Replaces the drained batch with whole bursts, at least [`BATCH`]
    /// ops of them. Per burst the draws run as an op-at-a-time generator
    /// made them: the phase redraw when the phase has run out, the hot or
    /// streaming choice, the burst's addresses and write flags, then one
    /// instruction gap per op in op order.
    #[inline(never)]
    fn refill(&mut self) {
        self.batch.clear();
        // Allocated at the first refill, not in `new`: a generator costs
        // its builder no more than the profile's scalars and a handle on
        // the shared Zipf table.
        self.batch.reserve(BATCH - 1 + MAX_BURST);
        self.pos = 0;
        while self.batch.len() < BATCH {
            if self.ops_left_in_phase == 0 {
                self.redraw_phase();
            }
            let first = self.batch.len();
            if self.draw() < self.hot_threshold {
                self.push_hot_burst();
            } else {
                self.push_stream_burst();
            }
            let len = (self.batch.len() - first) as u32;
            self.ops_left_in_phase = self.ops_left_in_phase.saturating_sub(len);
            for i in first..self.batch.len() {
                self.batch[i].nonmem = self.sample_nonmem();
            }
        }
    }

    /// The top 53 bits of the next raw draw (see [`bernoulli`]).
    fn draw(&mut self) -> u64 {
        self.rng.next_u64() >> 11
    }

    /// The first page of a hot group's pages; member `m`'s page is
    /// `m · BANK_RESIDUES` above it, modulo the footprint. Placement rules:
    ///
    /// * every hot segment gets a **distinct** page, so hot fragments are
    ///   scattered small pieces of many rows (the paper's premise — if
    ///   two hot segments shared a row, the baseline would already enjoy
    ///   the co-location FIGCache has to create);
    /// * the eight segments of a *group* land in pages of the **same DRAM
    ///   bank** (page numbers congruent mod 64), so a group visit is a
    ///   burst of same-bank row conflicts that an in-DRAM cache row can
    ///   absorb.
    fn hot_page(&self, group: u32) -> u64 {
        let group = u64::from(group);
        let residue = group % BANK_RESIDUES;
        let class_index = group / BANK_RESIDUES; // k-th group in its residue class
        let base_q = class_index * self.q_space / self.classes;
        base_q * BANK_RESIDUES + residue
    }

    /// Block offset of the hot slot within its page: segment-aligned,
    /// derived from the segment id so it is stable across phases.
    fn hot_slot_block(&self, segment: u32) -> u64 {
        (u64::from(segment).wrapping_mul(0x85EB_CA6B) % self.slots) * self.hot_blocks
    }

    fn redraw_phase(&mut self) {
        // A random contiguous window of the group space (cheap,
        // deterministic, and temporally clustered: neighbouring phases
        // overlap only by chance).
        self.phase_start = self.rng.gen_range(0..self.profile.hot_segments / GROUP);
        self.ops_left_in_phase = self.profile.phase_len_ops;
    }

    /// Samples a hot *group* from the phase's Zipf distribution.
    fn sample_zipf(&mut self) -> u32 {
        let u = self.draw();
        let idx = self.zipf_cdf.partition_point(|&c| c < u).min(self.zipf_cdf.len() - 1);
        // `idx` is below the phase's group count, which is at most
        // `groups`, so one subtraction wraps the window.
        let groups = self.profile.hot_segments / GROUP;
        let group = self.phase_start + idx as u32;
        if group >= groups {
            group - groups
        } else {
            group
        }
    }

    /// One group visit: walk `span` consecutive members of one hot group
    /// (same bank, different rows), touching a short run of blocks in each
    /// member's hot slot.
    fn push_hot_burst(&mut self) {
        let group = self.sample_zipf();
        let span = self.sample_burst(self.span_stop).min(GROUP);
        let first = self.rng.gen_range(0..GROUP);
        let base_page = self.hot_page(group);
        for m in 0..span {
            let member = (first + m) % GROUP;
            let mut page = base_page + u64::from(member) * BANK_RESIDUES;
            if page >= self.pages {
                page %= self.pages;
            }
            let slot = self.hot_slot_block(group * GROUP + member);
            let run = u64::from(self.sample_burst(self.hot_run_stop)).min(self.hot_blocks);
            let start = self.rng.gen_range(0..self.hot_blocks - run + 1);
            let base = page * PAGE_BYTES + (slot + start) * BLOCK_BYTES;
            for i in 0..run {
                let is_write = self.draw() < self.write_threshold;
                self.batch.push(TraceOp { nonmem: 0, addr: base + i * BLOCK_BYTES, is_write });
            }
        }
    }

    fn push_stream_burst(&mut self) {
        let total_blocks = self.pages * BLOCKS_PER_PAGE;
        let run = self.sample_burst(self.stream_run_stop);
        // Occasionally jump to a random position (streaming with restarts).
        if self.draw() < bernoulli(STREAM_RESTART) {
            self.stream_block = self.rng.gen_range(0..total_blocks);
        }
        for _ in 0..run {
            let is_write = self.draw() < self.write_threshold;
            self.batch.push(TraceOp { nonmem: 0, addr: self.stream_block * BLOCK_BYTES, is_write });
            self.stream_block += 1;
            if self.stream_block == total_blocks {
                self.stream_block = 0;
            }
        }
    }

    /// Geometric-ish burst length: 1, plus one per draw that misses
    /// `stop`, up to [`MAX_RUN`]; always 1, without a draw, for `None`.
    fn sample_burst(&mut self, stop: Option<u64>) -> u32 {
        let Some(stop) = stop else {
            return 1;
        };
        let mut len = 1u32;
        while len < MAX_RUN && self.draw() >= stop {
            len += 1;
        }
        len
    }

    fn sample_nonmem(&mut self) -> u32 {
        // Exponential around the mean, clamped; keeps issue pressure bursty
        // like real instruction streams.
        let mean = self.profile.nonmem_per_mem;
        if mean <= 0.0 {
            return 0;
        }
        let u: f64 = self.rng.gen_range(1e-9..1.0);
        let v = -mean * u.ln();
        v.min(mean * 8.0) as u32
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        Some(self.pop())
    }
}

/// Generates a fixed-length trace for `profile`.
#[must_use]
pub fn generate_trace(profile: &AppProfile, ops: usize, seed: u64) -> Trace {
    let gen = TraceGenerator::new(profile, seed);
    Trace { name: profile.name.to_string(), ops: gen.take(ops).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{app_profiles, profile_by_name, AppProfile};

    #[test]
    fn generation_is_deterministic() {
        let p = profile_by_name("mcf").unwrap();
        let a = generate_trace(&p, 5000, 7);
        let b = generate_trace(&p, 5000, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = profile_by_name("mcf").unwrap();
        let a = generate_trace(&p, 1000, 1);
        let b = generate_trace(&p, 1000, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn addresses_stay_in_footprint() {
        for p in app_profiles() {
            let t = generate_trace(&p, 2000, 3);
            for op in &t.ops {
                assert!(op.addr < p.footprint_bytes, "{}: {:#x}", p.name, op.addr);
            }
        }
    }

    #[test]
    fn write_fraction_tracks_profile() {
        let p = profile_by_name("lbm").unwrap();
        let t = generate_trace(&p, 20_000, 11);
        assert!((t.write_fraction() - p.write_frac).abs() < 0.05);
    }

    #[test]
    fn mean_nonmem_tracks_profile() {
        let p = profile_by_name("sjeng").unwrap();
        let t = generate_trace(&p, 20_000, 13);
        let mean = t.ops.iter().map(|o| f64::from(o.nonmem)).sum::<f64>() / t.ops.len() as f64;
        assert!(
            (mean - p.nonmem_per_mem).abs() / p.nonmem_per_mem < 0.15,
            "mean nonmem {mean} vs {}",
            p.nonmem_per_mem
        );
    }

    #[test]
    fn hot_accesses_touch_limited_part_of_each_page() {
        // The paper's premise: within an opened row only a small fragment
        // is accessed. Verify: per page, the distinct blocks touched by hot
        // accesses stay within one hot-segment extent.
        use std::collections::HashMap;
        let p = profile_by_name("mcf").unwrap();
        let t = generate_trace(&p, 50_000, 17);
        let mut per_page: HashMap<u64, std::collections::HashSet<u64>> = HashMap::new();
        for op in &t.ops {
            per_page.entry(op.addr / 8192).or_default().insert((op.addr % 8192) / 64);
        }
        // Pages visited by the hot component repeatedly should show a
        // bounded footprint. Check the median page's touched-block count.
        let mut counts: Vec<usize> =
            per_page.values().map(std::collections::HashSet::len).filter(|&c| c > 1).collect();
        counts.sort_unstable();
        if !counts.is_empty() {
            let median = counts[counts.len() / 2];
            assert!(
                median as u64 <= u64::from(p.hot_segment_bytes) / 64 + 2,
                "median touched blocks per reused page = {median}"
            );
        }
    }

    #[test]
    fn hot_pages_spread_across_banks() {
        // With the paper's mapping, bits 13.. of the address select
        // bank/bank-group; hot pages should cover many of the 16 banks.
        let p = profile_by_name("zeusmp").unwrap();
        let t = generate_trace(&p, 30_000, 19);
        let mut banks = std::collections::HashSet::new();
        for op in &t.ops {
            banks.insert((op.addr >> 13) & 0xF);
        }
        assert!(banks.len() >= 12, "only {} banks touched", banks.len());
    }

    /// FNV-1a over the first `ops` ops' `nonmem`, `addr` and `is_write`.
    fn digest(gen: TraceGenerator, ops: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for op in gen.take(ops) {
            let bytes = op.nonmem.to_le_bytes().into_iter().chain(op.addr.to_le_bytes());
            for b in bytes.chain([u8::from(op.is_write)]) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Digests of the first 200 000 ops of every profile at seeds 1 and
    /// 1 000 003. They pin the op sequence itself, which every seeded
    /// result rests on: a change to how ops are generated (batch size,
    /// draw thresholds) must not move a single op.
    const DIGESTS: [(&str, u64, u64); 23] = [
        ("zeusmp", 0x1312b222d0cf0fc4, 0xbdbb38201aed8211),
        ("leslie3d", 0xeb0fdc0f7b7f145f, 0xd6adce0229b5dcbb),
        ("mcf", 0x0949cf2db426c04e, 0x64c8562e64e189ff),
        ("GemsFDTD", 0xcf2e5f7fff438172, 0xd56f54bb6eac1665),
        ("libquantum", 0xe0c317ada647a5f7, 0x8e223cb2ffb1ab90),
        ("bwaves", 0x1093c602767eda53, 0x81161ac8a31efb14),
        ("lbm", 0xf718533639dda219, 0x09be45a416b0f797),
        ("com", 0x1e506ee420147fe7, 0xaa7b2a8260cf92f0),
        ("tigr", 0xff7d2428ad7cfa67, 0xd15628c37d9ff907),
        ("mum", 0x6648665832c011d5, 0xf36534ed79b9747f),
        ("h264ref", 0x72ea8181978f8c03, 0x50a6d18fe4d6c55e),
        ("bzip2", 0x08453357d44204e8, 0xc062552227edd8c4),
        ("gromacs", 0x379c70a70029468a, 0xac03ad8d7aa34e92),
        ("gcc", 0xfaa340f759e88fbe, 0x2a0518957ef8c15e),
        ("bfssandy", 0xae422b3235bbff53, 0xf97cf375565fd844),
        ("grep", 0x907e91bd7a54be12, 0x2adfa64d056cc7fa),
        ("wc-8443", 0xc2508d5801c71758, 0xba2c8c2d88dd49ce),
        ("sjeng", 0xe0130ba999c2318e, 0xd76a808d787bbbe8),
        ("tpcc64", 0x2e5aa06296f2d8c0, 0x3bbe36e9f5f58836),
        ("tpch2", 0x4e3454170c927c40, 0xae7cd35056b3acdb),
        ("canneal", 0xa6efac1082547c6f, 0x2a771702fa8c1412),
        ("fluidanimate", 0xc02d0a2abcb29d66, 0xec913d3d25cd797e),
        ("radix", 0x624754c8aa1b92ec, 0xfe390af3ae0126e1),
    ];

    #[test]
    fn every_profile_matches_its_digest() {
        use crate::apps::multithreaded_profiles;
        let profiles: Vec<AppProfile> =
            app_profiles().into_iter().chain(multithreaded_profiles()).collect();
        assert_eq!(profiles.len(), DIGESTS.len());
        for (p, &(name, at_1, at_1000003)) in profiles.iter().zip(&DIGESTS) {
            assert_eq!(p.name, name);
            assert_eq!(digest(TraceGenerator::new(p, 1), 200_000), at_1, "{name} seed 1");
            assert_eq!(
                digest(TraceGenerator::new(p, 1_000_003), 200_000),
                at_1000003,
                "{name} seed 1000003"
            );
        }
    }

    #[test]
    fn every_profile_shares_one_exact_zipf_table() {
        use crate::apps::multithreaded_profiles;
        for p in app_profiles().into_iter().chain(multithreaded_profiles()) {
            let groups = (p.phase_segments / GROUP) as usize;
            let a = TraceGenerator::new(&p, 1);
            let b = TraceGenerator::new(&p, 2);
            assert_eq!(*a.zipf_cdf, *zipf_cdf(groups, p.zipf_exponent), "{}", p.name);
            assert!(Arc::ptr_eq(&a.zipf_cdf, &b.zipf_cdf), "{}: two tables", p.name);
        }
    }

    #[test]
    fn the_zipf_memo_stops_growing_at_its_cap() {
        let memo = ZipfMemo::new();
        for i in 0..ZIPF_MEMO_CAP + 16 {
            let (groups, exponent) = (8 + i % 5, 0.5 + i as f64 / 64.0);
            let first = memo.get(groups, exponent);
            assert_eq!(*first, *zipf_cdf(groups, exponent), "table {i}");
            // Kept while under the cap; past it rebuilt, still exact.
            let again = memo.get(groups, exponent);
            assert_eq!(Arc::ptr_eq(&first, &again), i < ZIPF_MEMO_CAP, "table {i}");
            assert_eq!(*again, *first, "table {i}");
            assert_eq!(memo.len(), ZIPF_MEMO_CAP.min(i + 1));
        }
    }

    #[test]
    fn materialized_traces_are_stream_prefixes() {
        // 255, 256 and 257 straddle the first refill; 600 crosses several.
        for name in ["mcf", "libquantum", "gcc"] {
            let p = profile_by_name(name).unwrap();
            let streamed: Vec<TraceOp> = TraceGenerator::new(&p, 5).take(600).collect();
            for ops in [1, 255, 256, 257, 600] {
                assert_eq!(generate_trace(&p, ops, 5).ops, streamed[..ops], "{name} at {ops} ops");
            }
        }
    }

    #[test]
    fn iterator_is_endless() {
        let p = profile_by_name("grep").unwrap();
        let mut gen = TraceGenerator::new(&p, 23);
        for _ in 0..100_000 {
            assert!(gen.next().is_some());
        }
    }
}
