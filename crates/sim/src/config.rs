//! System configurations: the six evaluated mechanisms plus the sweep
//! variants of Section 9.

use figaro_core::{
    CacheEngine, FigCacheConfig, FigCacheEngine, LisaVillaConfig, LisaVillaEngine, NullEngine,
};
use figaro_cpu::{CoreParams, HierarchyConfig};
use figaro_dram::{DramConfig, MapKind, SubarrayLayout};
use figaro_memctrl::{McConfig, SchedPolicyKind};
use figaro_workloads::PageMapKind;

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
    /// SMARTS-style sampled simulation: alternate detailed windows of
    /// `window` CPU cycles (the event kernel, bit-exact) with functional
    /// fast-forward intervals of `skip` CPU cycles whose instructions are
    /// consumed from the trace at the rate the last detailed window
    /// sustained, issuing **no** memory traffic. The only *approximate*
    /// kernel: its `RunStats` carry a `sampled` block, and since the
    /// kernel is part of every run's cache key its results never stand
    /// in for a full run.
    Sampled {
        /// Detailed-window length (CPU cycles).
        window: u64,
        /// Fast-forwarded interval between windows (CPU cycles).
        skip: u64,
    },
}

/// The `FIGARO_KERNEL` vocabulary, as quoted by its error and `diag`'s
/// usage text.
pub const KERNEL_CHOICES: &str = "event|reference|sampled[:W,S]";

/// Default detailed-window length for `FIGARO_KERNEL=sampled` (CPU
/// cycles).
pub const SAMPLED_DEFAULT_WINDOW: u64 = 100_000;
/// Default fast-forward interval for `FIGARO_KERNEL=sampled` (CPU
/// cycles): a 1:4 duty cycle, so ~20% of the run is simulated in detail.
pub const SAMPLED_DEFAULT_SKIP: u64 = 400_000;

impl Kernel {
    /// Parses a kernel name (the `FIGARO_KERNEL` vocabulary); `None` for
    /// anything unrecognized.
    #[must_use]
    pub fn parse(raw: &str) -> Option<Self> {
        let lower = raw.to_lowercase();
        if let Some(params) = lower.strip_prefix("sampled:") {
            let (w, s) = params.split_once(',')?;
            let window = w.parse::<u64>().ok().filter(|&w| w > 0)?;
            let skip = s.parse::<u64>().ok()?;
            return Some(Kernel::Sampled { window, skip });
        }
        match lower.as_str() {
            "" | "event" => Some(Kernel::Event),
            "reference" | "ref" => Some(Kernel::Reference),
            "sampled" => {
                Some(Kernel::Sampled { window: SAMPLED_DEFAULT_WINDOW, skip: SAMPLED_DEFAULT_SKIP })
            }
            _ => None,
        }
    }

    /// Label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Kernel::Reference => "reference",
            Kernel::Event => "event",
            Kernel::Sampled { .. } => "sampled",
        }
    }
}

/// Which in-DRAM mechanism a system uses (paper Section 8 names).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigKind {
    /// Conventional DDR4.
    Base,
    /// LISA-VILLA with the paper's 16 interleaved fast subarrays.
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
    /// OS page-frame placement applied to every trace source (the DRAM
    /// address interleaving itself lives in `mc.map`).
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

    /// Overrides the physical→DRAM address interleaving (mapping
    /// sweeps; the default is the paper's bit slice).
    #[must_use]
    pub fn with_mapping(mut self, map: MapKind) -> Self {
        self.mc.map = map;
        self
    }

    /// Overrides the OS page-frame placement policy (the default is
    /// identity).
    #[must_use]
    pub fn with_page_map(mut self, page_map: PageMapKind) -> Self {
        self.page_map = page_map;
        self
    }

    /// Overrides the memory-controller scheduling policy (scheduler
    /// sweeps; the default is FR-FCFS).
    #[must_use]
    pub fn with_sched(mut self, sched: SchedPolicyKind) -> Self {
        self.mc.sched = sched;
        self
    }

    /// Overrides the channel count (sensitivity sweeps). Channel counts
    /// must be powers of two so the address interleaving stays a bit
    /// slice.
    #[must_use]
    pub fn with_channels(mut self, channels: u32) -> Self {
        assert!(channels.is_power_of_two(), "channel count must be a power of two");
        self.channels = channels;
        self
    }

    /// Overrides the per-core MSHR count (sensitivity sweeps).
    #[must_use]
    pub fn with_mshrs(mut self, mshrs_per_core: usize) -> Self {
        assert!(mshrs_per_core > 0, "cores need at least one MSHR");
        self.hierarchy.mshrs_per_core = mshrs_per_core;
        self
    }

    /// The DRAM device layout implied by the mechanism.
    #[must_use]
    pub fn dram_config(&self) -> DramConfig {
        let base = DramConfig::ddr4_paper_default();
        let geometry = base.geometry.with_channels(self.channels);
        let layout = match &self.kind {
            ConfigKind::Base | ConfigKind::FigCacheSlow => SubarrayLayout::homogeneous(64, 512),
            ConfigKind::LisaVilla => {
                SubarrayLayout::homogeneous(64, 512).with_interleaved_fast(16, 32)
            }
            ConfigKind::FigCacheFast | ConfigKind::FigCacheIdeal => {
                SubarrayLayout::homogeneous(64, 512).with_appended_fast(2, 32)
            }
            ConfigKind::LlDram => SubarrayLayout::all_fast(64, 512),
            ConfigKind::FigCacheCustom(cfg) => match cfg.region {
                figaro_core::CacheRegion::ReservedSlowRows => SubarrayLayout::homogeneous(64, 512),
                figaro_core::CacheRegion::FastSubarrays => {
                    let count = cfg.cache_rows_per_bank.div_ceil(32).max(1);
                    SubarrayLayout::homogeneous(64, 512).with_appended_fast(count, 32)
                }
            },
        };
        DramConfig { geometry, layout, ..base }
    }

    /// Builds the cache engine for one channel.
    #[must_use]
    pub fn build_engine(&self, dram: &DramConfig) -> Box<dyn CacheEngine> {
        let banks = dram.geometry.banks_per_channel();
        match &self.kind {
            ConfigKind::Base | ConfigKind::LlDram => Box::new(NullEngine::new()),
            ConfigKind::LisaVilla => {
                Box::new(LisaVillaEngine::new(dram, &LisaVillaConfig::paper_default(), banks))
            }
            ConfigKind::FigCacheSlow => {
                Box::new(FigCacheEngine::new(dram, &FigCacheConfig::paper_slow(), banks))
            }
            ConfigKind::FigCacheFast => {
                Box::new(FigCacheEngine::new(dram, &FigCacheConfig::paper_fast(), banks))
            }
            ConfigKind::FigCacheIdeal => {
                Box::new(FigCacheEngine::new(dram, &FigCacheConfig::paper_ideal(), banks))
            }
            ConfigKind::FigCacheCustom(cfg) => Box::new(FigCacheEngine::new(dram, cfg, banks)),
        }
    }

    /// A FIGCache-Fast sweep point with `fast_subarrays` fast subarrays of
    /// 32 rows each (Fig. 12).
    #[must_use]
    pub fn fig12_point(cores: usize, fast_subarrays: u32) -> Self {
        let cfg = FigCacheConfig {
            cache_rows_per_bank: fast_subarrays * 32,
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
        assert_eq!(Kernel::Sampled { window: 1, skip: 1 }.label(), "sampled");
    }

    #[test]
    fn kernel_parse_covers_sampled_forms() {
        assert_eq!(Kernel::parse(""), Some(Kernel::Event));
        assert_eq!(Kernel::parse("REF"), Some(Kernel::Reference));
        assert_eq!(
            Kernel::parse("sampled"),
            Some(Kernel::Sampled { window: SAMPLED_DEFAULT_WINDOW, skip: SAMPLED_DEFAULT_SKIP })
        );
        assert_eq!(
            Kernel::parse("sampled:50000,200000"),
            Some(Kernel::Sampled { window: 50_000, skip: 200_000 })
        );
        assert_eq!(Kernel::parse("sampled:0,5"), None, "zero-cycle windows are meaningless");
        assert_eq!(Kernel::parse("sampled:oops"), None);
        assert_eq!(Kernel::parse("spooled"), None);
        assert_eq!(Kernel::parse("parallel"), None);
        assert_eq!(Kernel::parse("par"), None);
    }

    #[test]
    fn paper_config_channel_rule() {
        assert_eq!(SystemConfig::paper(1, ConfigKind::Base).channels, 1);
        assert_eq!(SystemConfig::paper(8, ConfigKind::Base).channels, 4);
    }

    #[test]
    fn dram_layouts_match_mechanisms() {
        let lisa = SystemConfig::paper(8, ConfigKind::LisaVilla).dram_config();
        assert_eq!(lisa.layout.fast_count(), 16);
        let fast = SystemConfig::paper(8, ConfigKind::FigCacheFast).dram_config();
        assert_eq!(fast.layout.fast_count(), 2);
        let slow = SystemConfig::paper(8, ConfigKind::FigCacheSlow).dram_config();
        assert_eq!(slow.layout.fast_count(), 0);
        let ll = SystemConfig::paper(8, ConfigKind::LlDram).dram_config();
        assert!(ll.layout.all_fast);
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
}
