//! OS page-frame placement policies.
//!
//! The DRAM address mapping decides where a *physical* page lands; the
//! OS decides which physical frame backs each *virtual* page. Both
//! knobs move FIGCache hit rates and bank-level parallelism, so the
//! frame-allocation policy is modeled here as a deterministic bijection
//! over page frames, applied where traces and generators emit
//! addresses (see [`PageMappedSource`]).
//!
//! Three policies ([`PageMapKind`]):
//!
//! * **Identity** — virtual frame = physical frame (the default; keeps
//!   every run bit-identical to the pre-subsystem behavior).
//! * **Random** — seeded pseudo-random frame allocation: an invertible
//!   multiply-XOR scramble of the frame index, modeling a long-running
//!   system whose free list has lost all contiguity.
//! * **Color** — bank/channel page coloring: consecutive virtual pages
//!   share one frame color (frame index modulo the color count, which
//!   is what selects banks/channels under block-interleaved DRAM
//!   mappings), so each contiguous region of the address space is
//!   pinned to one bank/channel set — the OS-side cache-hostile
//!   extreme.
//!
//! Every policy is a bijection on the frame space (a power of two), so
//! distinct blocks never alias and footprints are preserved; frame bits
//! above the space and the in-page offset pass through untouched.

use crate::{TraceOp, TraceSource};

/// Odd multiplier (64-bit golden ratio) — multiplication by an odd
/// constant is invertible modulo any power of two.
const SCRAMBLE_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Identifies an OS page-frame placement policy — the value form
/// carried by system configs, scenario overrides and result-cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageMapKind {
    /// Virtual frame = physical frame (the default).
    #[default]
    Identity,
    /// Seeded pseudo-random frame allocation (fragmented free list).
    Random {
        /// Scramble seed; different seeds give different placements.
        seed: u64,
    },
    /// Bank/channel page coloring with `colors` colors: consecutive
    /// virtual pages keep one frame color per contiguous region.
    Color {
        /// Number of colors (a power of two; clamped to the frame
        /// count). Under the paper's mapping, 16 colors = the banks of
        /// one channel, 64 covers 4-channel bank selection.
        colors: u32,
    },
}

impl PageMapKind {
    /// Stable label for reports and `FIGARO_PAGEMAP`:
    /// `ident` | `rand<seed>` | `color<N>`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PageMapKind::Identity => "ident".into(),
            PageMapKind::Random { seed } => format!("rand{seed}"),
            PageMapKind::Color { colors } => format!("color{colors}"),
        }
    }

    /// Parses a [`PageMapKind::label`]-style name (case-insensitive);
    /// bare `rand` means seed 1. `None` for anything else.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        let name = name.trim().to_ascii_lowercase();
        match name.as_str() {
            "ident" | "identity" => return Some(PageMapKind::Identity),
            "rand" | "random" => return Some(PageMapKind::Random { seed: 1 }),
            _ => {}
        }
        if let Some(n) = name.strip_prefix("rand") {
            return n.parse().ok().map(|seed| PageMapKind::Random { seed });
        }
        if let Some(n) = name.strip_prefix("color") {
            let colors: u32 = n.parse().ok()?;
            if !colors.is_power_of_two() {
                return None;
            }
            return Some(PageMapKind::Color { colors });
        }
        None
    }
}

/// The frame permutation a [`PageMapper`] applies, precomputed to pure
/// mask/shift/multiply form (this sits on the per-memory-op hot path of
/// every non-identity run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameOp {
    Identity,
    /// `(low ^ xor) * SCRAMBLE_MUL, masked` (seed pre-masked).
    Scramble {
        xor: u64,
    },
    /// Transpose of the `(frames / colors) × colors` matrix: virtual
    /// frames `0..frames/colors` land on color 0, the next run on
    /// color 1, … — bijective because both factors are powers of two.
    Transpose {
        run_mask: u64,
        run_shift: u32,
        color_shift: u32,
    },
}

/// A deterministic, bijective virtual-frame → physical-frame map over a
/// power-of-two frame space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMapper {
    kind: PageMapKind,
    op: FrameOp,
    page_shift: u32,
    /// `frames - 1`; the policy permutes only the low frame bits so
    /// addresses beyond the frame space stay bijective too.
    frame_mask: u64,
}

impl PageMapper {
    /// A mapper for `kind` over `addr_space_bytes / page_bytes` frames.
    ///
    /// # Panics
    ///
    /// Panics unless both sizes are powers of two with at least one
    /// frame in the space, or if `kind` is [`PageMapKind::Color`] with a
    /// non-power-of-two color count (the transpose would alias distinct
    /// pages otherwise — the same invariant `from_name` enforces).
    #[must_use]
    pub fn new(kind: PageMapKind, page_bytes: u64, addr_space_bytes: u64) -> Self {
        assert!(page_bytes.is_power_of_two(), "page_bytes must be a power of two");
        assert!(addr_space_bytes.is_power_of_two(), "addr space must be a power of two");
        assert!(addr_space_bytes >= page_bytes, "address space smaller than one page");
        let frames = addr_space_bytes / page_bytes;
        let op = match kind {
            PageMapKind::Identity => FrameOp::Identity,
            PageMapKind::Random { seed } => FrameOp::Scramble { xor: seed & (frames - 1) },
            PageMapKind::Color { colors } => {
                assert!(
                    colors.is_power_of_two(),
                    "colors = {colors} must be a non-zero power of two"
                );
                let colors = u64::from(colors).min(frames);
                let run = frames / colors;
                FrameOp::Transpose {
                    run_mask: run - 1,
                    run_shift: run.trailing_zeros(),
                    color_shift: colors.trailing_zeros(),
                }
            }
        };
        Self { kind, op, page_shift: page_bytes.trailing_zeros(), frame_mask: frames - 1 }
    }

    /// The policy this mapper applies.
    #[must_use]
    pub fn kind(&self) -> PageMapKind {
        self.kind
    }

    /// Maps one byte address: the containing frame is remapped by the
    /// policy, the in-page offset is preserved.
    #[must_use]
    pub fn map_addr(&self, addr: u64) -> u64 {
        let frame = addr >> self.page_shift;
        let low = frame & self.frame_mask;
        let mapped = match self.op {
            FrameOp::Identity => return addr,
            FrameOp::Scramble { xor } => (low ^ xor).wrapping_mul(SCRAMBLE_MUL) & self.frame_mask,
            FrameOp::Transpose { run_mask, run_shift, color_shift } => {
                ((low & run_mask) << color_shift) | (low >> run_shift)
            }
        };
        let high = frame & !self.frame_mask;
        ((high | mapped) << self.page_shift) | (addr & ((1 << self.page_shift) - 1))
    }
}

/// A [`TraceSource`] adapter that routes every emitted address through a
/// [`PageMapper`] — the point where OS frame placement meets the
/// workload stream.
#[derive(Debug)]
pub struct PageMappedSource {
    inner: Box<dyn TraceSource>,
    mapper: PageMapper,
}

impl PageMappedSource {
    /// Wraps `inner`, remapping each op's address through `mapper`.
    #[must_use]
    pub fn new(inner: Box<dyn TraceSource>, mapper: PageMapper) -> Self {
        Self { inner, mapper }
    }
}

impl TraceSource for PageMappedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_op(&mut self) -> TraceOp {
        let op = self.inner.next_op();
        TraceOp { addr: self.mapper.map_addr(op.addr), ..op }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = 8192;
    const SPACE: u64 = 256 * PAGE;

    fn kinds() -> Vec<PageMapKind> {
        vec![
            PageMapKind::Identity,
            PageMapKind::Random { seed: 7 },
            PageMapKind::Random { seed: 8 },
            PageMapKind::Color { colors: 16 },
            PageMapKind::Color { colors: 64 },
        ]
    }

    #[test]
    fn every_policy_is_a_bijection_on_the_frame_space() {
        for kind in kinds() {
            let m = PageMapper::new(kind, PAGE, SPACE);
            let mut seen = std::collections::HashSet::new();
            for frame in 0..SPACE / PAGE {
                let mapped = m.map_addr(frame * PAGE);
                assert_eq!(mapped % PAGE, 0, "{kind:?}: page alignment lost");
                assert!(mapped < SPACE, "{kind:?}: frame mapped outside the space");
                assert!(seen.insert(mapped), "{kind:?}: frame collision at {frame}");
            }
            assert_eq!(seen.len() as u64, SPACE / PAGE);
        }
    }

    #[test]
    fn offsets_within_a_page_are_preserved() {
        for kind in kinds() {
            let m = PageMapper::new(kind, PAGE, SPACE);
            let a = m.map_addr(3 * PAGE);
            let b = m.map_addr(3 * PAGE + 4095);
            assert_eq!(b - a, 4095, "{kind:?}: offset not preserved");
        }
    }

    #[test]
    fn identity_is_a_no_op_and_random_seeds_differ() {
        let ident = PageMapper::new(PageMapKind::Identity, PAGE, SPACE);
        assert_eq!(ident.map_addr(123_456), 123_456);
        let a = PageMapper::new(PageMapKind::Random { seed: 1 }, PAGE, SPACE);
        let b = PageMapper::new(PageMapKind::Random { seed: 2 }, PAGE, SPACE);
        assert!(
            (0..32).any(|f| a.map_addr(f * PAGE) != b.map_addr(f * PAGE)),
            "different seeds must place frames differently"
        );
    }

    #[test]
    fn coloring_keeps_consecutive_pages_on_one_color() {
        let colors = 16u64;
        let m = PageMapper::new(PageMapKind::Color { colors: colors as u32 }, PAGE, SPACE);
        let run = SPACE / PAGE / colors; // virtual pages per color run
        for frame in 0..run {
            assert_eq!(
                (m.map_addr(frame * PAGE) / PAGE) % colors,
                0,
                "first run must stay on color 0"
            );
        }
        assert_eq!((m.map_addr(run * PAGE) / PAGE) % colors, 1, "next run moves to color 1");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_colors_are_rejected_programmatically() {
        // Regression: only from_name used to validate; a programmatic
        // Color{12} silently aliased distinct pages (frames 1 and 252
        // both landed on frame 12 in a 256-frame space).
        let _ = PageMapper::new(PageMapKind::Color { colors: 12 }, PAGE, SPACE);
    }

    #[test]
    fn addresses_above_the_space_stay_bijective() {
        let m = PageMapper::new(PageMapKind::Random { seed: 3 }, PAGE, SPACE);
        let lo = m.map_addr(5 * PAGE);
        let hi = m.map_addr(SPACE + 5 * PAGE);
        assert_eq!(hi - lo, SPACE, "high frame bits must pass through");
    }

    #[test]
    fn labels_round_trip_through_from_name() {
        for kind in kinds() {
            assert_eq!(PageMapKind::from_name(&kind.label()), Some(kind), "{}", kind.label());
        }
        assert_eq!(PageMapKind::from_name("rand"), Some(PageMapKind::Random { seed: 1 }));
        assert_eq!(PageMapKind::from_name("color3"), None, "colors must be a power of two");
        assert_eq!(PageMapKind::from_name("bogus"), None);
        assert_eq!(PageMapKind::default(), PageMapKind::Identity);
    }

    #[test]
    fn mapped_source_rewrites_addresses_and_keeps_the_rest() {
        use crate::{Trace, TraceOp};
        let trace = Trace {
            name: "t".into(),
            ops: vec![
                TraceOp { nonmem: 3, addr: 2 * PAGE + 64, is_write: false },
                TraceOp { nonmem: 0, addr: 9 * PAGE, is_write: true },
            ],
        };
        let mapper = PageMapper::new(PageMapKind::Random { seed: 5 }, PAGE, SPACE);
        let mut src = PageMappedSource::new(Box::new(trace.clone().into_source()), mapper);
        assert_eq!(src.name(), "t");
        let a = src.next_op();
        assert_eq!(a.addr, mapper.map_addr(2 * PAGE + 64));
        assert_eq!((a.nonmem, a.is_write), (3, false));
        let b = src.next_op();
        assert_eq!(b.addr, mapper.map_addr(9 * PAGE));
        assert!(b.is_write);
    }
}
