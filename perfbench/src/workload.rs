//! The benchmark's two workloads: what each runs, why it was chosen,
//! and how its configuration and trace sources are built from a seed.
//!
//! Every `SystemConfig` field is written out here; nothing goes through
//! `SystemConfig::paper`, which reads `FIGARO_*` variables.

use figaro_cpu::{CoreParams, HierarchyConfig};
use figaro_memctrl::McConfig;
use figaro_sim::{ConfigKind, Kernel, MapKind, PageMapKind, SchedPolicyKind, SystemConfig};
use figaro_workloads::{
    eight_core_mixes, profile_by_name, AppProfile, TraceGenerator, TraceSource,
};

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// `closed`: cores issue as fast as memory lets them.
    pub loop_kind: &'static str,
    /// The simulated system.
    pub cfg: SystemConfig,
    /// One application per core.
    pub apps: Vec<AppProfile>,
    /// Retired-instruction target per core.
    pub insts_per_core: u64,
    /// CPU-cycle cap: a core still running at the cap is a failure.
    pub cycle_cap: u64,
    /// CPU cycles of the prefix run under both the event and the
    /// reference kernel.
    pub prefix_cycles: u64,
    /// Memory operations per core fed through the layer replay.
    pub replay_ops_per_core: u64,
}

/// Names of every workload, in `BENCHMARK.json` order.
pub const NAMES: [&str; 2] = ["mix8-fig", "solo-light"];

/// The seed later claims are measured on by default.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for checking that a claim holds elsewhere.
pub const HELD_OUT_SEED: u64 = 1_000_003;

fn config(cores: usize, channels: u32, kind: ConfigKind) -> SystemConfig {
    SystemConfig {
        cores,
        channels,
        kind,
        core: CoreParams::paper_default(),
        hierarchy: HierarchyConfig::paper_default(cores),
        mc: McConfig {
            read_queue_cap: 64,
            write_queue_cap: 64,
            wq_high: 40,
            wq_low: 16,
            enable_refresh: true,
            activation_window: None,
            sched: SchedPolicyKind::FrFcfs,
            map: MapKind::paper(),
            flat_scan: false,
        },
        cpu_cycles_per_bus: 4,
        kernel: Kernel::Event,
        threads: 1,
        page_map: PageMapKind::Identity,
    }
}

fn profile(name: &str) -> AppProfile {
    profile_by_name(name).unwrap_or_else(|| panic!("unknown application profile `{name}`"))
}

/// The workload called `name`, or `None`.
pub fn by_name(name: &str) -> Option<Workload> {
    let w = match name {
        "mix8-fig" => {
            let mix = eight_core_mixes()
                .into_iter()
                .find(|m| m.name == "mix75-3")
                .expect("the paper's mix75-3 exists");
            Workload {
                name: "mix8-fig",
                why: "paper headline shape: 8 cores, 4 channels, FIGCache-Fast on mix75-3; the \
                      only workload where the cache engine and RELOC jobs do real work",
                loop_kind: "closed",
                cfg: config(8, 4, ConfigKind::FigCacheFast),
                apps: mix.apps,
                insts_per_core: 1_000_000,
                cycle_cap: 400_000_000,
                prefix_cycles: 150_000,
                replay_ops_per_core: 60_000,
            }
        }
        "solo-light" => Workload {
            name: "solo-light",
            why: "1 gcc core on 1 Base channel: memory mostly idle, so core, hierarchy and event \
                  kernel dominate and memory-side changes must show no change",
            loop_kind: "closed",
            cfg: config(1, 1, ConfigKind::Base),
            apps: vec![profile("gcc")],
            insts_per_core: 40_000_000,
            cycle_cap: 4_000_000_000,
            prefix_cycles: 1_000_000,
            replay_ops_per_core: 1_000_000,
        },
        _ => return None,
    };
    assert_eq!(w.apps.len(), w.cfg.cores, "{}: one application per core", w.name);
    Some(w)
}

/// SplitMix64: a well-mixed 64-bit value from `x` (per-core seeds).
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The trace sources for workload seed `seed`: one generator per
    /// core, each with its own seed. The same seed gives the same sources.
    pub fn sources(&self, seed: u64) -> Vec<Box<dyn TraceSource>> {
        self.apps
            .iter()
            .enumerate()
            .map(|(core, app)| {
                let core_seed = mix64(seed ^ mix64(core as u64));
                Box::new(TraceGenerator::new(app, core_seed)) as Box<dyn TraceSource>
            })
            .collect()
    }

    /// Per-core instruction targets.
    pub fn targets(&self) -> Vec<u64> {
        vec![self.insts_per_core; self.cfg.cores]
    }

    /// `cfg` with another kernel.
    pub fn cfg_with(&self, kernel: Kernel) -> SystemConfig {
        SystemConfig { kernel, ..self.cfg.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_builds() {
        for name in NAMES {
            let w = by_name(name).expect(name);
            assert_eq!(w.name, name);
            assert!(
                !w.why.contains('\n') && w.why.len() <= 200,
                "{name}: why must be one short line"
            );
            assert_eq!(w.sources(DEFAULT_SEED).len(), w.cfg.cores);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn mix8_runs_the_paper_mix() {
        let w = by_name("mix8-fig").unwrap();
        let names: Vec<&str> = w.apps.iter().map(|a| a.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        let mut want =
            ["leslie3d", "gromacs", "bwaves", "libquantum", "mcf", "GemsFDTD", "sjeng", "tigr"];
        want.sort_unstable();
        assert_eq!(sorted, want);
    }

    #[test]
    fn the_seed_decides_the_sources() {
        let w = by_name("mix8-fig").unwrap();
        let take = |seed| {
            let mut s = w.sources(seed);
            (0..500).map(|_| s[2].next_op()).collect::<Vec<_>>()
        };
        assert_eq!(take(5), take(5));
        assert_ne!(take(5), take(6));
    }
}
