//! System configurations: the six evaluated mechanisms plus the sweep
//! variants of Section 9.

use figaro_core::{
    CacheEngine, CacheRegion, FigCacheConfig, FigCacheEngine, NullEngine, Relocation,
};
use figaro_cpu::{CoreParams, HierarchyConfig};
use figaro_dram::{DramConfig, SubarrayLayout};
use figaro_memctrl::{McConfig, SchedPolicyKind};

/// The OS page-frame placement a config runs: virtual frame = physical
/// frame, the only placement modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageMapKind {
    /// Virtual frame = physical frame.
    #[default]
    Identity,
}

/// Which simulation kernel drives [`crate::System::run`].
///
/// Both kernels produce **bit-identical** [`crate::RunStats`]; the event
/// kernel is the production default and the reference kernel exists as
/// the equivalence oracle (and for debugging the event kernel itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// The original per-cycle loop: tick every component every CPU cycle.
    Reference,
    /// Next-event time skipping: advance the clock straight to the
    /// earliest component horizon, batching the skipped interval into the
    /// per-cycle stall counters.
    #[default]
    Event,
}

/// The `FIGARO_KERNEL` vocabulary, as quoted by its error and `diag`'s
/// usage text.
pub const KERNEL_CHOICES: &str = "event|reference";

impl Kernel {
    /// Parses a kernel name (the `FIGARO_KERNEL` vocabulary); `None` for
    /// anything unrecognized.
    #[must_use]
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.to_lowercase().as_str() {
            "" | "event" => Some(Kernel::Event),
            "reference" | "ref" => Some(Kernel::Reference),
            _ => None,
        }
    }

    /// Label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Kernel::Reference => "reference",
            Kernel::Event => "event",
        }
    }
}

/// The largest instruction window [`SystemConfig::validate`] accepts
/// (the paper's is 256 entries); a core allocates its window up front.
pub const MAX_CORE_WINDOW: usize = 65_536;

/// Rows per fast subarray (the paper's fast subarrays are 32 rows).
const FAST_SUBARRAY_ROWS: u32 = 32;

/// Which in-DRAM mechanism a system uses (paper Section 8 names).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigKind {
    /// Conventional DDR4.
    Base,
    /// LISA-VILLA ([`FigCacheConfig::lisa_villa`]).
    LisaVilla,
    /// FIGCache in 64 reserved slow rows.
    FigCacheSlow,
    /// FIGCache in two appended fast subarrays.
    FigCacheFast,
    /// FIGCache-Fast with zero-cost relocation.
    FigCacheIdeal,
    /// All subarrays fast, no caching.
    LlDram,
    /// FIGCache-Fast with a custom cache configuration (sweeps).
    FigCacheCustom(FigCacheConfig),
}

impl ConfigKind {
    /// Display label matching the paper's figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ConfigKind::Base => "Base",
            ConfigKind::LisaVilla => "LISA-VILLA",
            ConfigKind::FigCacheSlow => "FIGCache-Slow",
            ConfigKind::FigCacheFast => "FIGCache-Fast",
            ConfigKind::FigCacheIdeal => "FIGCache-Ideal",
            ConfigKind::LlDram => "LL-DRAM",
            ConfigKind::FigCacheCustom(_) => "FIGCache-Custom",
        }
    }

    /// Parses a short mechanism name (the `diag` CLI's vocabulary):
    /// `base` | `lisa` | `slow` | `fast` | `ideal` | `ll`, with the full
    /// figure labels accepted as aliases. Case-insensitive; `None` for
    /// anything else (custom sweep configs have no stable name).
    #[must_use]
    pub fn from_name(name: &str) -> Option<ConfigKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "base" => Some(ConfigKind::Base),
            "lisa" | "lisa-villa" | "lisavilla" => Some(ConfigKind::LisaVilla),
            "slow" | "figcache-slow" => Some(ConfigKind::FigCacheSlow),
            "fast" | "figcache-fast" => Some(ConfigKind::FigCacheFast),
            "ideal" | "figcache-ideal" => Some(ConfigKind::FigCacheIdeal),
            "ll" | "ll-dram" | "lldram" => Some(ConfigKind::LlDram),
            _ => None,
        }
    }

    /// The five mechanisms plotted against `Base` in Figures 7 and 8.
    #[must_use]
    pub fn figure78_set() -> Vec<ConfigKind> {
        vec![
            ConfigKind::LisaVilla,
            ConfigKind::FigCacheSlow,
            ConfigKind::FigCacheFast,
            ConfigKind::FigCacheIdeal,
            ConfigKind::LlDram,
        ]
    }
}

/// A complete system description (paper Table 1 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (1 or 8 in the paper).
    pub cores: usize,
    /// Memory channels (1 for single-core, 4 for eight-core).
    pub channels: u32,
    /// Mechanism under evaluation.
    pub kind: ConfigKind,
    /// Core width/window.
    pub core: CoreParams,
    /// Cache hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// Memory-controller parameters.
    pub mc: McConfig,
    /// CPU cycles per DRAM bus cycle (3.2 GHz / 800 MHz = 4).
    pub cpu_cycles_per_bus: u64,
    /// Simulation kernel driving the clock (see [`Kernel`]).
    pub kernel: Kernel,
    /// Ignored; kept only for perfbench's struct literal, and goes once
    /// the next benchmark change drops it from perfbench.
    pub threads: usize,
    /// OS page-frame placement of every trace source: identity, the only
    /// one modelled.
    pub page_map: PageMapKind,
}

impl SystemConfig {
    /// The paper's system for `cores` cores running `kind`
    /// (1 core → 1 channel, otherwise 4 channels): event kernel, FR-FCFS,
    /// the paper's address mapping and identity page placement.
    #[must_use]
    pub fn paper(cores: usize, kind: ConfigKind) -> Self {
        Self {
            cores,
            channels: if cores == 1 { 1 } else { 4 },
            kind,
            core: CoreParams::paper_default(),
            hierarchy: HierarchyConfig::paper_default(cores),
            mc: McConfig::default(),
            cpu_cycles_per_bus: 4,
            kernel: Kernel::Event,
            threads: 0,
            page_map: PageMapKind::Identity,
        }
    }

    /// Overrides the memory-controller scheduling policy (scheduler
    /// sweeps; the default is FR-FCFS).
    #[must_use]
    pub fn with_sched(mut self, sched: SchedPolicyKind) -> Self {
        self.mc.sched = sched;
        self
    }

    /// Overrides the channel count (the serving sweep). Channel counts
    /// must be powers of two so the address interleaving stays a bit
    /// slice.
    #[must_use]
    pub fn with_channels(mut self, channels: u32) -> Self {
        assert!(channels.is_power_of_two(), "channel count must be a power of two");
        self.channels = channels;
        self
    }

    /// Checks that the model can run this system: 1 to 256 cores (a
    /// request names its core in a `u8`), `1 <= width <= window <=`
    /// [`MAX_CORE_WINDOW`], a non-zero CPU:bus clock ratio, a controller
    /// that passes [`McConfig::validate`], a DRAM configuration
    /// ([`SystemConfig::dram_config`]) that passes
    /// [`DramConfig::validate`], an in-DRAM cache that passes
    /// [`FigCacheConfig::validate_for`] on it, and a hierarchy that passes
    /// [`HierarchyConfig::validate`] over the DRAM address space, so
    /// every level's tags name every address a core may send.
    ///
    /// # Errors
    ///
    /// Returns a description of the first rule the configuration breaks.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=usize::from(u8::MAX) + 1).contains(&self.cores) {
            return Err(format!("cores must be 1 to 256, got {}", self.cores));
        }
        let CoreParams { width, window } = self.core;
        if width == 0 {
            return Err("core width must be non-zero".into());
        }
        if !(width..=MAX_CORE_WINDOW).contains(&window) {
            return Err(format!(
                "core window must be from the width ({width}) to {MAX_CORE_WINDOW}, got {window}"
            ));
        }
        if self.cpu_cycles_per_bus == 0 {
            return Err("cpu_cycles_per_bus must be non-zero".into());
        }
        self.mc.validate()?;
        let dram = self.dram_config();
        dram.validate()?;
        if let Some(cache) = self.cache_config() {
            cache.validate_for(&dram)?;
        }
        self.hierarchy.validate(dram.address_mapping(self.mc.map).addr_space())
    }

    /// The in-DRAM cache the mechanism runs; `None` for `Base` and
    /// `LL-DRAM`, which cache nothing.
    #[must_use]
    pub fn cache_config(&self) -> Option<FigCacheConfig> {
        match &self.kind {
            ConfigKind::Base | ConfigKind::LlDram => None,
            ConfigKind::LisaVilla => Some(FigCacheConfig::lisa_villa()),
            ConfigKind::FigCacheSlow => Some(FigCacheConfig::paper_slow()),
            ConfigKind::FigCacheFast => Some(FigCacheConfig::paper_fast()),
            ConfigKind::FigCacheIdeal => Some(FigCacheConfig::paper_ideal()),
            ConfigKind::FigCacheCustom(cfg) => Some(cfg.clone()),
        }
    }

    /// The DRAM device layout implied by the mechanism. A cache in fast
    /// subarrays gets enough 32-row fast subarrays for its
    /// `cache_rows_per_bank`: interleaved among the regular subarrays for
    /// LISA clones (their latency grows with distance), appended
    /// otherwise.
    #[must_use]
    pub fn dram_config(&self) -> DramConfig {
        let base = DramConfig::ddr4_paper_default();
        let geometry = base.geometry.with_channels(self.channels);
        let regular = SubarrayLayout::homogeneous(64, 512);
        let layout = match self.cache_config() {
            None if self.kind == ConfigKind::LlDram => SubarrayLayout::all_fast(64, 512),
            None => regular,
            Some(cfg) => match cfg.region {
                CacheRegion::ReservedSlowRows => regular,
                CacheRegion::FastSubarrays => {
                    let count = cfg.cache_rows_per_bank.div_ceil(FAST_SUBARRAY_ROWS);
                    if cfg.relocation == Relocation::LisaClone {
                        regular.with_interleaved_fast(count, FAST_SUBARRAY_ROWS)
                    } else {
                        regular.with_appended_fast(count, FAST_SUBARRAY_ROWS)
                    }
                }
            },
        };
        DramConfig { geometry, layout, ..base }
    }

    /// Builds the cache engine for one channel.
    #[must_use]
    pub fn build_engine(&self, dram: &DramConfig) -> Box<dyn CacheEngine> {
        match self.cache_config() {
            None => Box::new(NullEngine::new()),
            Some(cfg) => {
                Box::new(FigCacheEngine::new(dram, &cfg, dram.geometry.banks_per_channel()))
            }
        }
    }

    /// A FIGCache-Fast sweep point with `fast_subarrays` fast subarrays of
    /// 32 rows each (Fig. 12).
    #[must_use]
    pub fn fig12_point(cores: usize, fast_subarrays: u32) -> Self {
        let cfg = FigCacheConfig {
            cache_rows_per_bank: fast_subarrays * FAST_SUBARRAY_ROWS,
            ..FigCacheConfig::paper_fast()
        };
        Self::paper(cores, ConfigKind::FigCacheCustom(cfg))
    }

    /// A FIGCache-Fast sweep point with `blocks` blocks per segment
    /// (Fig. 13; 8 → 512 B … 128 → 8 kB).
    #[must_use]
    pub fn fig13_point(cores: usize, blocks: u32) -> Self {
        let cfg = FigCacheConfig { blocks_per_segment: blocks, ..FigCacheConfig::paper_fast() };
        Self::paper(cores, ConfigKind::FigCacheCustom(cfg))
    }

    /// A FIGCache-Fast sweep point with a different replacement policy
    /// (Fig. 14).
    #[must_use]
    pub fn fig14_point(cores: usize, policy: figaro_core::ReplacementPolicy) -> Self {
        let cfg = FigCacheConfig { replacement: policy, ..FigCacheConfig::paper_fast() };
        Self::paper(cores, ConfigKind::FigCacheCustom(cfg))
    }

    /// A FIGCache-Fast sweep point with insertion threshold `n` (Fig. 15).
    #[must_use]
    pub fn fig15_point(cores: usize, n: u32) -> Self {
        let cfg = FigCacheConfig {
            insertion: figaro_core::InsertionPolicy { miss_threshold: n },
            ..FigCacheConfig::paper_fast()
        };
        Self::paper(cores, ConfigKind::FigCacheCustom(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_defaults_to_event() {
        assert_eq!(Kernel::default(), Kernel::Event);
        assert_eq!(Kernel::Event.label(), "event");
        assert_eq!(Kernel::Reference.label(), "reference");
    }

    #[test]
    fn kernel_parse_rejects_removed_kernels() {
        assert_eq!(Kernel::parse(""), Some(Kernel::Event));
        assert_eq!(Kernel::parse("REF"), Some(Kernel::Reference));
        for removed in ["sampled", "sampled:50000,200000", "sampled:0,5", "parallel", "par"] {
            assert_eq!(Kernel::parse(removed), None, "{removed}");
        }
        assert_eq!(Kernel::parse("spooled"), None);
    }

    #[test]
    fn paper_config_channel_rule() {
        assert_eq!(SystemConfig::paper(1, ConfigKind::Base).channels, 1);
        assert_eq!(SystemConfig::paper(8, ConfigKind::Base).channels, 4);
    }

    #[test]
    fn dram_layouts_match_mechanisms() {
        let regular = SubarrayLayout::homogeneous(64, 512);
        let table = [
            (ConfigKind::Base, regular, None),
            (
                ConfigKind::LisaVilla,
                regular.with_interleaved_fast(16, 32),
                Some(FigCacheConfig::lisa_villa()),
            ),
            (ConfigKind::FigCacheSlow, regular, Some(FigCacheConfig::paper_slow())),
            (
                ConfigKind::FigCacheFast,
                regular.with_appended_fast(2, 32),
                Some(FigCacheConfig::paper_fast()),
            ),
            (
                ConfigKind::FigCacheIdeal,
                regular.with_appended_fast(2, 32),
                Some(FigCacheConfig::paper_ideal()),
            ),
            (ConfigKind::LlDram, SubarrayLayout::all_fast(64, 512), None),
        ];
        for (kind, layout, cache) in table {
            let cfg = SystemConfig::paper(8, kind.clone());
            assert_eq!(cfg.dram_config().layout, layout, "{kind:?}");
            assert_eq!(cfg.cache_config(), cache, "{kind:?}");
        }
    }

    #[test]
    fn engines_build_for_every_kind() {
        for kind in [
            ConfigKind::Base,
            ConfigKind::LisaVilla,
            ConfigKind::FigCacheSlow,
            ConfigKind::FigCacheFast,
            ConfigKind::FigCacheIdeal,
            ConfigKind::LlDram,
        ] {
            let cfg = SystemConfig::paper(1, kind);
            let dram = cfg.dram_config();
            dram.validate().unwrap();
            let _ = cfg.build_engine(&dram);
        }
    }

    #[test]
    fn fig12_point_scales_cache_rows_and_layout() {
        let cfg = SystemConfig::fig12_point(8, 8);
        let dram = cfg.dram_config();
        assert_eq!(dram.layout.fast_count(), 8);
        let ConfigKind::FigCacheCustom(fc) = &cfg.kind else { panic!() };
        assert_eq!(fc.cache_rows_per_bank, 256);
        let _ = cfg.build_engine(&dram);
    }

    #[test]
    fn fig13_whole_row_segments_build() {
        let cfg = SystemConfig::fig13_point(1, 128);
        let dram = cfg.dram_config();
        let _ = cfg.build_engine(&dram);
    }

    /// `validate`'s error for `cfg` after `change`.
    fn rejection(cores: usize, change: impl FnOnce(&mut SystemConfig)) -> String {
        let mut cfg = SystemConfig::paper(cores, ConfigKind::Base);
        change(&mut cfg);
        cfg.validate().expect_err("the config must be rejected")
    }

    #[test]
    fn paper_configs_validate() {
        for cores in [1, 2, 4, 8, 16, 256] {
            assert_eq!(SystemConfig::paper(cores, ConfigKind::FigCacheFast).validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_a_non_power_of_two_llc() {
        // Three cores' 6 MB LLC has 6144 sets.
        let err = rejection(3, |_| {});
        assert!(err.starts_with("LLC:") && err.contains("6144"), "{err}");
    }

    #[test]
    fn validate_rejects_more_than_sixteen_ways() {
        let err = rejection(1, |c| c.hierarchy.l2.ways = 32);
        assert!(err.starts_with("L2:") && err.contains("ways"), "{err}");
    }

    #[test]
    fn validate_rejects_a_zero_core_width() {
        assert!(rejection(1, |c| c.core.width = 0).contains("width"));
    }

    #[test]
    fn validate_rejects_an_empty_window() {
        assert!(rejection(1, |c| c.core.window = 0).contains("window"));
    }

    #[test]
    fn validate_bounds_the_core_window() {
        // A core allocates its window up front: these used to pass and
        // then abort with "capacity overflow" when the system was built.
        for window in [usize::MAX, 1 << 62, MAX_CORE_WINDOW + 1] {
            let err = rejection(1, |c| c.core.window = window);
            assert!(err.contains("window") && err.contains(&window.to_string()), "{err}");
        }
        assert!(rejection(1, |c| c.core = CoreParams { width: 4, window: 3 }).contains("window"));
        let mut cfg = SystemConfig::paper(1, ConfigKind::Base);
        cfg.core = CoreParams { width: MAX_CORE_WINDOW, window: MAX_CORE_WINDOW };
        assert_eq!(cfg.validate(), Ok(()));
    }

    /// `validate`'s error for a one-core system running `cache`. Each of
    /// the caches below used to pass `validate` and then fail while the
    /// system was built.
    fn cache_rejection(cache: FigCacheConfig) -> String {
        rejection(1, |c| c.kind = ConfigKind::FigCacheCustom(cache))
    }

    #[test]
    fn validate_rejects_more_segments_per_row_than_the_eviction_bitvector_holds() {
        // 128 one-block segments per row, against 64 slots.
        let cache = FigCacheConfig { blocks_per_segment: 1, ..FigCacheConfig::paper_fast() };
        assert!(cache_rejection(cache).contains("exceed the 64"));
    }

    #[test]
    fn validate_rejects_a_segment_that_does_not_divide_the_row() {
        let cache = FigCacheConfig { blocks_per_segment: 48, ..FigCacheConfig::paper_fast() };
        assert!(cache_rejection(cache).contains("must divide the row"));
    }

    #[test]
    fn validate_rejects_reserved_rows_beyond_one_subarray() {
        let cache = FigCacheConfig { cache_rows_per_bank: 4096, ..FigCacheConfig::paper_slow() };
        assert!(cache_rejection(cache).contains("must fit in one subarray"));
    }

    #[test]
    fn validate_rejects_more_fast_cache_rows_than_regular_rows() {
        // The layout's row count used to overflow.
        let cache =
            FigCacheConfig { cache_rows_per_bank: u32::MAX, ..FigCacheConfig::paper_fast() };
        assert!(cache_rejection(cache).contains("regular rows"));
    }

    #[test]
    fn validate_rejects_tags_that_cannot_name_the_dram_space() {
        // One 2-byte line indexes one address bit, so its 30-bit tags
        // stop at 2 GiB, short of the 4 GiB channel.
        let tiny = figaro_cpu::CacheParams { size_bytes: 2, ways: 1, block_bytes: 2, latency: 1 };
        let err = rejection(1, |c| c.hierarchy.l1 = tiny);
        assert!(err.starts_with("L1:") && err.contains("0x100000000"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_mshrs() {
        assert!(rejection(1, |c| c.hierarchy.mshrs_per_core = 0).contains("MSHR"));
    }

    #[test]
    fn validate_rejects_a_zero_bus_ratio() {
        assert!(rejection(1, |c| c.cpu_cycles_per_bus = 0).contains("cpu_cycles_per_bus"));
    }

    #[test]
    fn validate_rejects_empty_queues_and_misplaced_watermarks() {
        let paper = McConfig::default();
        // (the field the error must name, the bad controller)
        let rows = [
            ("read_queue_cap", McConfig { read_queue_cap: 0, ..paper }),
            ("write_queue_cap", McConfig { write_queue_cap: 0, ..paper }),
            ("wq_high", McConfig { wq_high: 0, ..paper }),
            ("wq_low", McConfig { wq_low: paper.wq_high, ..paper }),
            ("wq_low", McConfig { wq_high: 8, wq_low: 9, ..paper }),
            ("wq_high", McConfig { wq_high: paper.write_queue_cap + 1, ..paper }),
        ];
        for (field, mc) in rows {
            let err = rejection(1, |c| c.mc = mc);
            assert!(err.contains(field), "{err}");
        }
        let full = McConfig { wq_high: 64, wq_low: 63, ..paper };
        assert_eq!(
            SystemConfig { mc: full, ..SystemConfig::paper(1, ConfigKind::Base) }.validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_rejects_core_counts_a_request_cannot_name() {
        // A request carries its core as a `u8`: core 256 would wake core 0.
        assert!(rejection(512, |_| {}).contains("cores"));
        assert!(rejection(1, |c| c.cores = 0).contains("cores"));
    }
}
