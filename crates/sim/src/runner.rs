//! The experiment runner: scales, deterministic trace construction,
//! alone-IPC measurement for weighted speedup, a content-addressed
//! result cache (so benches that share runs — e.g. Figs. 7/9/10/11 — do
//! not recompute them), and a parallel batch API over independent runs.
//!
//! ## The result cache
//!
//! Every run is described by one [`RunSpec`] — the full
//! [`SystemConfig`], each core's workload and seed, targets, cycle cap
//! and arrival pacing — and is a pure function of it. A cached
//! summary lives in `<cache_dir>/<hash>.txt`, where `<hash>` is the
//! FNV-1a of [`RunSpec::key_text`] ([`MODEL_EPOCH`] plus the spec's
//! `Debug` text). The file repeats that text on its first line and is
//! only used when it matches, so a hash collision recomputes instead of
//! returning another run's result.
//!
//! ## Parallel batches
//!
//! The `*_batch` / `*_matrix` methods fan a job list out over rayon and
//! return results **in input order**, which makes a parallel batch
//! bit-identical to the equivalent serial loop — same `RunSummary`
//! values, same cache files. The on-disk cache is safe under this
//! concurrency: a process-wide per-file mutex serializes
//! compute-and-publish per run (so duplicate jobs in one batch compute
//! once), and files are published with a write-temp-then-rename so
//! concurrent *processes* never observe torn files.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use rayon::prelude::*;

use figaro_workloads::{
    generate_trace, AppProfile, ArrivalKind, ArrivalSchedule, Mix, Trace, TraceGenerator, TraceOp,
    TraceSource,
};

use crate::config::{ConfigKind, SystemConfig};
use crate::metrics::{ChannelStats, RunStats};
use crate::system::System;

/// Simulation scale: instructions per core.
///
/// The paper runs ≥1 B instructions per core; these scales trade fidelity
/// for turnaround. Binaries pick one from `FIGARO_SCALE`
/// (`tiny`/`small`/`full`, see [`crate::env::EnvConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 100 k instructions per core — CI/integration tests.
    Tiny,
    /// 400 k instructions per core — default for `cargo bench`.
    Small,
    /// 2 M instructions per core — overnight-quality numbers.
    Full,
}

impl Scale {
    /// Parses a scale label (`tiny` | `small` | `full`,
    /// case-insensitive); `None` for anything else.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        match label.to_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Retired instructions each core targets.
    #[must_use]
    pub fn target_insts(&self) -> u64 {
        match self {
            Scale::Tiny => 100_000,
            Scale::Small => 400_000,
            Scale::Full => 2_000_000,
        }
    }

    /// Safety bound on simulated CPU cycles.
    #[must_use]
    pub fn max_cycles(&self) -> u64 {
        self.target_insts() * 400
    }

    /// Label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }
}

/// The flattened per-run numbers the figures need (cacheable on disk).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Per-core IPC.
    pub ipc: Vec<f64>,
    /// Per-core MPKI.
    pub mpki: Vec<f64>,
    /// DRAM row-buffer hit rate.
    pub row_hit_rate: f64,
    /// In-DRAM cache hit rate.
    pub cache_hit_rate: f64,
    /// Energy components `(cpu, l1l2, llc, offchip, dram)` in nJ.
    pub energy: (f64, f64, f64, f64, f64),
    /// CPU cycles of the run.
    pub cpu_cycles: u64,
    /// RELOC commands issued.
    pub relocs: u64,
    /// LISA clones issued.
    pub lisa_clones: u64,
    /// Average read latency (bus cycles).
    pub avg_read_latency: f64,
    /// Reads the memory controllers served (the numerator of achieved
    /// throughput in serving sweeps).
    pub reads_served: u64,
    /// Median read latency (bus cycles; histogram bucket floor, ≤ 12.5%
    /// quantization error — see `figaro_memctrl::LatencyHistogram`).
    pub read_lat_p50: u64,
    /// 95th-percentile read latency (bus cycles, bucket floor).
    pub read_lat_p95: u64,
    /// 99th-percentile read latency (bus cycles, bucket floor).
    pub read_lat_p99: u64,
    /// 99.9th-percentile read latency (bus cycles, bucket floor).
    pub read_lat_p999: u64,
    /// Exact maximum read latency (bus cycles).
    pub read_lat_max: u64,
    /// Segment/row insertions completed.
    pub insertions: u64,
    /// Cores that hit the cycle cap before their instruction target
    /// (see [`RunStats::unfinished_cores`]); non-zero means the summary
    /// is a truncated measurement, and report builders flag it.
    pub truncated_cores: u64,
    /// Per-channel row-buffer hit rate, in channel order — the merged
    /// `row_hit_rate` averages away a hot channel (see
    /// [`crate::metrics::ChannelStats`]).
    pub ch_row_hit_rate: Vec<f64>,
    /// Per-channel peak read-queue occupancy.
    pub ch_read_q_peak: Vec<u64>,
    /// Per-channel peak write-queue occupancy.
    pub ch_write_q_peak: Vec<u64>,
}

impl RunSummary {
    /// Builds the summary from full run statistics.
    #[must_use]
    pub fn from_stats(s: &RunStats) -> Self {
        let cores = s.instructions.len();
        Self {
            ipc: (0..cores).map(|c| s.ipc(c)).collect(),
            mpki: (0..cores).map(|c| s.mpki(c)).collect(),
            row_hit_rate: s.row_hit_rate(),
            cache_hit_rate: s.cache_hit_rate(),
            energy: (s.energy.cpu, s.energy.l1l2, s.energy.llc, s.energy.offchip, s.energy.dram),
            cpu_cycles: s.cpu_cycles,
            relocs: s.dram.relocs,
            lisa_clones: s.dram.lisa_clones,
            avg_read_latency: s.mc.avg_read_latency(),
            reads_served: s.mc.reads_served,
            read_lat_p50: s.mc.read_latency_hist.percentile(0.50),
            read_lat_p95: s.mc.read_latency_hist.percentile(0.95),
            read_lat_p99: s.mc.read_latency_hist.percentile(0.99),
            read_lat_p999: s.mc.read_latency_hist.percentile(0.999),
            read_lat_max: s.mc.read_latency_hist.max(),
            insertions: s.cache.insertions,
            truncated_cores: s.unfinished_cores() as u64,
            ch_row_hit_rate: s.per_channel.iter().map(ChannelStats::row_hit_rate).collect(),
            ch_read_q_peak: s.per_channel.iter().map(|c| c.read_q_peak).collect(),
            ch_write_q_peak: s.per_channel.iter().map(|c| c.write_q_peak).collect(),
        }
    }

    /// Total energy (nJ).
    #[must_use]
    pub fn energy_total(&self) -> f64 {
        let (a, b, c, d, e) = self.energy;
        a + b + c + d + e
    }

    /// Exact text encoding of an `f64`: the bit pattern in hex. A `{}`
    /// float round trip can differ in the last ulp, so a cached result
    /// would not equal a fresh run bit for bit; the bit pattern is
    /// lossless by construction (and NaN-safe).
    fn f64_text(x: f64) -> String {
        format!("b{:016x}", x.to_bits())
    }

    /// Parses [`RunSummary::f64_text`].
    fn f64_parse(s: &str) -> Option<f64> {
        u64::from_str_radix(s.strip_prefix('b')?, 16).ok().map(f64::from_bits)
    }

    fn to_text(&self) -> String {
        let vec_join =
            |v: &[f64]| v.iter().map(|x| Self::f64_text(*x)).collect::<Vec<_>>().join(",");
        let u64_join = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        format!(
            "ipc {}\nmpki {}\nrow_hit_rate {}\ncache_hit_rate {}\nenergy {},{},{},{},{}\ncpu_cycles {}\nrelocs {}\nlisa_clones {}\navg_read_latency {}\nreads_served {}\nread_lat_p50 {}\nread_lat_p95 {}\nread_lat_p99 {}\nread_lat_p999 {}\nread_lat_max {}\ninsertions {}\ntruncated_cores {}\nch_row_hit_rate {}\nch_read_q_peak {}\nch_write_q_peak {}\n",
            vec_join(&self.ipc),
            vec_join(&self.mpki),
            Self::f64_text(self.row_hit_rate),
            Self::f64_text(self.cache_hit_rate),
            Self::f64_text(self.energy.0),
            Self::f64_text(self.energy.1),
            Self::f64_text(self.energy.2),
            Self::f64_text(self.energy.3),
            Self::f64_text(self.energy.4),
            self.cpu_cycles,
            self.relocs,
            self.lisa_clones,
            Self::f64_text(self.avg_read_latency),
            self.reads_served,
            self.read_lat_p50,
            self.read_lat_p95,
            self.read_lat_p99,
            self.read_lat_p999,
            self.read_lat_max,
            self.insertions,
            self.truncated_cores,
            vec_join(&self.ch_row_hit_rate),
            u64_join(&self.ch_read_q_peak),
            u64_join(&self.ch_write_q_peak),
        )
    }

    fn from_text(text: &str) -> Option<Self> {
        let mut map = HashMap::new();
        for line in text.lines() {
            let (k, v) = line.split_once(' ')?;
            map.insert(k.to_string(), v.to_string());
        }
        let parse_vec =
            |s: &str| -> Option<Vec<f64>> { s.split(',').map(Self::f64_parse).collect() };
        let e = parse_vec(map.get("energy")?)?;
        if e.len() != 5 {
            return None;
        }
        let u64_of = |k: &str| -> Option<u64> { map.get(k)?.parse().ok() };
        let f64_of = |k: &str| Self::f64_parse(map.get(k)?);
        // `split(',')` yields one empty piece for an empty list.
        let f64_vec = |k: &str| match map.get(k)?.as_str() {
            "" => Some(Vec::new()),
            v => parse_vec(v),
        };
        let u64_vec = |k: &str| -> Option<Vec<u64>> {
            match map.get(k)?.as_str() {
                "" => Some(Vec::new()),
                v => v.split(',').map(|x| x.parse().ok()).collect(),
            }
        };
        Some(Self {
            ipc: f64_vec("ipc")?,
            mpki: f64_vec("mpki")?,
            row_hit_rate: f64_of("row_hit_rate")?,
            cache_hit_rate: f64_of("cache_hit_rate")?,
            energy: (e[0], e[1], e[2], e[3], e[4]),
            cpu_cycles: u64_of("cpu_cycles")?,
            relocs: u64_of("relocs")?,
            lisa_clones: u64_of("lisa_clones")?,
            avg_read_latency: f64_of("avg_read_latency")?,
            reads_served: u64_of("reads_served")?,
            read_lat_p50: u64_of("read_lat_p50")?,
            read_lat_p95: u64_of("read_lat_p95")?,
            read_lat_p99: u64_of("read_lat_p99")?,
            read_lat_p999: u64_of("read_lat_p999")?,
            read_lat_max: u64_of("read_lat_max")?,
            insertions: u64_of("insertions")?,
            truncated_cores: u64_of("truncated_cores")?,
            ch_row_hit_rate: f64_vec("ch_row_hit_rate")?,
            ch_read_q_peak: u64_vec("ch_read_q_peak")?,
            ch_write_q_peak: u64_vec("ch_write_q_peak")?,
        })
    }
}

/// Instruction target for the idle companion cores of an alone-IPC run.
const IDLE_COMPANION_TARGET: u64 = 1_000;

/// The idle-companion trace used by alone-IPC measurements (the
/// weighted-speedup denominators; see [`Runner::alone_spec`]): a pure
/// non-memory loop whose tiny instruction target retires immediately and
/// never touches memory.
fn idle_companion_trace() -> Trace {
    Trace {
        name: "idle".into(),
        ops: vec![TraceOp { nonmem: 1_000_000, addr: 0, is_write: false }],
    }
}

/// Version of the simulated model, the first thing every result-cache
/// key hashes: cached summaries from another epoch are never found. It
/// is the FNV-1a digest of the event-kernel seed-golden `RunStats`
/// (`model_epoch_pins_the_seed_golden_run_stats` in
/// `tests/tests/sched_policies.rs`), so a change that alters simulated
/// behaviour fails that test, which prints the value to put here.
pub const MODEL_EPOCH: u64 = 0x9fcf_59a7_b0dc_1188;

/// FNV-1a of `text`: names a result-cache file by its key text
/// ([`RunSpec::key`]) and digests the seed goldens into [`MODEL_EPOCH`].
#[must_use]
pub fn key_hash(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Deterministic per-run trace seed.
fn seed_for(app: &str, core: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in app.bytes().chain([core as u8]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// How many trace ops cover `insts` instructions for `profile`.
fn ops_for(profile: &AppProfile, insts: u64) -> usize {
    let per_op = profile.nonmem_per_mem + 1.0;
    ((insts as f64 / per_op) * 1.2) as usize + 4096
}

/// Effective instruction target for a profile: scaled so every
/// application performs a comparable number of *memory operations*
/// (sparse-access applications get proportionally more instructions;
/// they are cheap to simulate because their IPC is high).
fn insts_for(profile: &AppProfile, scale: Scale) -> u64 {
    let base = scale.target_insts();
    let scaled = (base as f64 * (profile.nonmem_per_mem + 1.0) / 3.0) as u64;
    scaled.clamp(base, base * 12)
}

/// What one core of a [`RunSpec`] executes.
#[derive(Debug, Clone)]
pub enum CoreWorkload {
    /// `ops` operations of `profile`'s generator under `seed`,
    /// materialized before the run.
    Trace {
        /// The application.
        profile: AppProfile,
        /// Operations in the trace.
        ops: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `profile`'s generator under `seed`, streamed on demand.
    Stream {
        /// The application.
        profile: AppProfile,
        /// Generator seed.
        seed: u64,
    },
    /// The alone-IPC idle companion: a pure non-memory loop that never
    /// touches memory (see [`Runner::alone_spec`]).
    Idle,
}

impl CoreWorkload {
    fn source(&self) -> Box<dyn TraceSource> {
        match self {
            CoreWorkload::Trace { profile, ops, seed } => {
                Box::new(generate_trace(profile, *ops, *seed).into_source())
            }
            CoreWorkload::Stream { profile, seed } => Box::new(TraceGenerator::new(profile, *seed)),
            CoreWorkload::Idle => Box::new(idle_companion_trace().into_source()),
        }
    }
}

/// Everything one simulation run depends on. Its `Debug` text, behind
/// [`MODEL_EPOCH`], is the run's result-cache identity, so every field
/// is keyed by construction.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The simulated system.
    pub config: SystemConfig,
    /// One workload per core.
    pub workload: Vec<CoreWorkload>,
    /// Retired-instruction target per core.
    pub targets: Vec<u64>,
    /// CPU-cycle cap of the run.
    pub max_cycles: u64,
    /// Open-loop pacing wrapped around every core's source; `None`
    /// keeps the workload's own issue rate.
    pub arrival: Option<ArrivalKind>,
}

impl RunSpec {
    /// A closed-loop run capped at 400 CPU cycles per instruction
    /// of the largest target.
    #[must_use]
    pub fn new(config: SystemConfig, workload: Vec<CoreWorkload>, targets: Vec<u64>) -> Self {
        let max_cycles = targets.iter().max().copied().unwrap_or(1).saturating_mul(400);
        Self { config, workload, targets, max_cycles, arrival: None }
    }

    /// The result-cache identity: [`MODEL_EPOCH`] plus the `Debug` text.
    #[must_use]
    pub fn key_text(&self) -> String {
        format!("epoch {MODEL_EPOCH:016x} {self:?}")
    }

    /// FNV-1a of [`RunSpec::key_text`]: the cache file name.
    #[must_use]
    pub fn key(&self) -> u64 {
        key_hash(&self.key_text())
    }

    /// Builds the system at cycle 0 (fresh deterministic sources).
    #[must_use]
    pub fn build(&self) -> System {
        let sources: Vec<Box<dyn TraceSource>> = self
            .workload
            .iter()
            .enumerate()
            .map(|(c, w)| match self.arrival {
                // Per-core seeds tied to the arrival label, so cores draw
                // independent gap streams and a kind change redraws them.
                Some(kind) => {
                    Box::new(ArrivalSchedule::new(w.source(), kind, seed_for(&kind.label(), c)))
                        as Box<dyn TraceSource>
                }
                None => w.source(),
            })
            .collect();
        System::from_sources(self.config.clone(), sources, &self.targets)
    }
}

/// The experiment runner.
#[derive(Debug)]
pub struct Runner {
    scale: Scale,
    /// The system every run starts from. Each run replaces its shape —
    /// `cores`, `channels`, `kind` and `hierarchy` — with
    /// [`SystemConfig::paper`]'s for the run's core count and mechanism;
    /// every other field (kernel, controller, page placement, ...) comes
    /// from here. Edit it with [`Runner::with_system`].
    system: SystemConfig,
    /// Open-loop arrival pacing applied to **streamed** runs
    /// ([`Runner::stream_spec`], the serving paths); `None` leaves
    /// sources closed-loop. The figure paths (`run_single`/`run_mix`/...)
    /// never pace — their results model the applications' own issue
    /// rates.
    arrival: Option<ArrivalKind>,
    /// Sweep figures run the paper's full application and mix sets
    /// instead of the representative subset.
    full_sweeps: bool,
    cache_dir: Option<PathBuf>,
}

impl Runner {
    /// A runner at `scale` with the on-disk result cache enabled and
    /// the paper defaults: the [`SystemConfig::paper`] system (event
    /// kernel, FR-FCFS, the paper's address mapping, identity page
    /// placement), closed-loop streamed runs and the sweep subset.
    /// The cache lives at `target/figaro-cache` under the
    /// [`workspace_root`] above the current directory.
    ///
    /// # Panics
    ///
    /// Panics if no workspace root lies at or above the current
    /// directory.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let root = workspace_root(&cwd).unwrap_or_else(|| {
            panic!(
                "no workspace root (Cargo.lock beside a [workspace] Cargo.toml) at or above {}",
                cwd.display()
            )
        });
        Self::build(scale, Some(root.join("target").join("figaro-cache")))
    }

    /// A runner without the on-disk cache (tests).
    #[must_use]
    pub fn uncached(scale: Scale) -> Self {
        Self::build(scale, None)
    }

    /// A runner with the result cache at an explicit directory (tests,
    /// tooling that wants an isolated cache).
    #[must_use]
    pub fn with_cache_dir(scale: Scale, dir: PathBuf) -> Self {
        Self::build(scale, Some(dir))
    }

    fn build(scale: Scale, cache_dir: Option<PathBuf>) -> Self {
        Self {
            scale,
            system: SystemConfig::paper(1, ConfigKind::Base),
            arrival: None,
            full_sweeps: false,
            cache_dir,
        }
    }

    /// Edits the system template every run this runner launches starts
    /// from, e.g. `runner.with_system(|s| s.with_sched(SchedPolicyKind::Fcfs))`.
    /// Its shape fields (`cores`, `channels`, `kind`, `hierarchy`) are
    /// replaced per run, so editing them here has no effect.
    #[must_use]
    pub fn with_system(mut self, edit: impl FnOnce(SystemConfig) -> SystemConfig) -> Self {
        self.system = edit(self.system);
        self
    }

    /// Pins open-loop arrival pacing for every **streamed** run this
    /// runner builds.
    #[must_use]
    pub fn with_arrival(mut self, arrival: ArrivalKind) -> Self {
        self.arrival = Some(arrival);
        self
    }

    /// Runs sweep figures over the paper's full application and mix
    /// sets (`true`) or the representative subset (`false`, the
    /// default).
    #[must_use]
    pub fn with_full_sweeps(mut self, full: bool) -> Self {
        self.full_sweeps = full;
        self
    }

    /// The runner's scale.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Whether sweep figures run the full sets.
    #[must_use]
    pub fn full_sweeps(&self) -> bool {
        self.full_sweeps
    }

    /// The system of a run of `cores` cores under `kind`: the template
    /// with [`SystemConfig::paper`]'s shape for that run.
    fn system_config(&self, cores: usize, kind: ConfigKind) -> SystemConfig {
        let paper = SystemConfig::paper(cores, kind);
        SystemConfig {
            cores: paper.cores,
            channels: paper.channels,
            kind: paper.kind,
            hierarchy: paper.hierarchy,
            ..self.system.clone()
        }
    }

    /// The process-wide per-cache-file lock: concurrent batch workers
    /// that land on the same cache file serialize here, so the first
    /// computes and publishes while the rest read the published file.
    /// Entries are never evicted — the registry is bounded by the number
    /// of distinct runs in a process (a few hundred for the full sweep
    /// set, each a few dozen bytes).
    fn key_lock(path: &std::path::Path) -> Arc<Mutex<()>> {
        static LOCKS: OnceLock<Mutex<HashMap<PathBuf, Arc<Mutex<()>>>>> = OnceLock::new();
        LOCKS
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("lock registry never poisoned")
            .entry(path.to_path_buf())
            .or_default()
            .clone()
    }

    /// Runs `spec` through the result cache: `<cache_dir>/<key>.txt`
    /// holds the spec's key text on its first line and the summary
    /// after it. A file whose first line differs (a hash collision, or
    /// a foreign file) is recomputed and overwritten.
    #[must_use]
    pub fn run(&self, spec: &RunSpec) -> RunSummary {
        let fresh = || RunSummary::from_stats(&spec.build().run(spec.max_cycles));
        let Some(dir) = &self.cache_dir else { return fresh() };
        let key_text = spec.key_text();
        let name = format!("{:016x}", key_hash(&key_text));
        let path = dir.join(format!("{name}.txt"));
        let lock = Self::key_lock(&path);
        let _guard = lock.lock().expect("cache key lock never poisoned");
        let header = format!("spec {key_text}\n");
        if let Ok(text) = fs::read_to_string(&path) {
            if let Some(s) = text.strip_prefix(&header).and_then(RunSummary::from_text) {
                return s;
            }
        }
        let s = fresh();
        let _ = fs::create_dir_all(dir);
        // Publish atomically (temp + rename) so a concurrent reader in
        // another process never sees a torn file.
        let tmp = dir.join(format!("{name}.{}.tmp", std::process::id()));
        if fs::write(&tmp, header + &s.to_text()).is_ok() {
            let _ = fs::rename(&tmp, &path);
        }
        s
    }

    /// The materialized-trace workload of `profile` on core `core`.
    fn trace_core(&self, profile: &AppProfile, core: usize) -> CoreWorkload {
        CoreWorkload::Trace {
            profile: *profile,
            ops: ops_for(profile, insts_for(profile, self.scale)),
            seed: seed_for(profile.name, core),
        }
    }

    /// The run behind [`Runner::run_single`].
    #[must_use]
    pub fn single_spec(&self, profile: &AppProfile, kind: ConfigKind) -> RunSpec {
        RunSpec::new(
            self.system_config(1, kind),
            vec![self.trace_core(profile, 0)],
            vec![insts_for(profile, self.scale)],
        )
    }

    /// Runs one application on the single-core system under `kind`.
    pub fn run_single(&self, profile: &AppProfile, kind: ConfigKind) -> RunSummary {
        self.run(&self.single_spec(profile, kind))
    }

    /// Runs an eight-application mix under `kind`.
    pub fn run_mix(&self, mix: &Mix, kind: ConfigKind) -> RunSummary {
        self.run(&RunSpec::new(
            self.system_config(8, kind),
            mix.apps.iter().enumerate().map(|(i, p)| self.trace_core(p, i)).collect(),
            mix.apps.iter().map(|p| insts_for(p, self.scale)).collect(),
        ))
    }

    /// Runs a multithreaded workload: eight threads of one program sharing
    /// a footprint (different seeds ⇒ different interleavings of the same
    /// address space).
    pub fn run_multithreaded(&self, profile: &AppProfile, kind: ConfigKind) -> RunSummary {
        self.run(&RunSpec::new(
            self.system_config(8, kind),
            (0..8).map(|i| self.trace_core(profile, i)).collect(),
            vec![insts_for(profile, self.scale); 8],
        ))
    }

    /// IPC of `profile` running **alone** on the eight-core Base system
    /// (the denominator of weighted speedup).
    pub fn alone_ipc(&self, profile: &AppProfile) -> f64 {
        self.run(&self.alone_spec(profile)).ipc[0]
    }

    /// The run behind [`Runner::alone_ipc`]: `profile` on core 0 of the
    /// eight-core Base system, beside seven idle companion cores.
    #[must_use]
    pub fn alone_spec(&self, profile: &AppProfile) -> RunSpec {
        let mut workload = vec![self.trace_core(profile, 0)];
        workload.extend(std::iter::repeat_n(CoreWorkload::Idle, 7));
        let mut targets = vec![insts_for(profile, self.scale)];
        targets.extend([IDLE_COMPANION_TARGET; 7]);
        RunSpec::new(self.system_config(8, ConfigKind::Base), workload, targets)
    }

    /// A **streamed** run of `kind` with one core per entry of `apps`
    /// (a [`Mix`] is its `apps`): cores pull from generators on demand,
    /// so no trace is materialized and run length is bounded by
    /// simulation time, not RAM. Each core targets `target_insts`, or
    /// its scale-derived target when `None`; the runner's arrival pacing
    /// applies. Change the system through `spec.config`'s builders and
    /// set `spec.arrival` directly.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty.
    #[must_use]
    pub fn stream_spec(
        &self,
        kind: ConfigKind,
        apps: &[AppProfile],
        target_insts: Option<u64>,
    ) -> RunSpec {
        assert!(!apps.is_empty(), "a streamed run needs at least one core");
        let workload = apps
            .iter()
            .enumerate()
            .map(|(c, p)| CoreWorkload::Stream { profile: *p, seed: seed_for(p.name, c) })
            .collect();
        let targets =
            apps.iter().map(|p| target_insts.unwrap_or_else(|| insts_for(p, self.scale))).collect();
        RunSpec {
            arrival: self.arrival,
            ..RunSpec::new(self.system_config(apps.len(), kind), workload, targets)
        }
    }

    /// Runs a batch of specs in parallel; results in input order,
    /// bit-identical to calling [`Runner::run`] serially.
    pub fn run_batch(&self, specs: &[RunSpec]) -> Vec<RunSummary> {
        specs.par_iter().map(|spec| self.run(spec)).collect::<Vec<_>>()
    }

    /// Runs a batch of single-core jobs in parallel; results in input
    /// order, bit-identical to calling [`Runner::run_single`] serially.
    pub fn run_single_batch(&self, jobs: &[(AppProfile, ConfigKind)]) -> Vec<RunSummary> {
        jobs.par_iter().map(|(p, k)| self.run_single(p, k.clone())).collect::<Vec<_>>()
    }

    /// Runs a batch of eight-core mix jobs in parallel; results in input
    /// order, bit-identical to calling [`Runner::run_mix`] serially.
    pub fn run_mix_batch(&self, jobs: &[(Mix, ConfigKind)]) -> Vec<RunSummary> {
        jobs.par_iter().map(|(m, k)| self.run_mix(m, k.clone())).collect::<Vec<_>>()
    }

    /// Runs a batch of eight-thread multithreaded jobs in parallel;
    /// results in input order.
    pub fn run_multithreaded_batch(&self, jobs: &[(AppProfile, ConfigKind)]) -> Vec<RunSummary> {
        jobs.par_iter().map(|(p, k)| self.run_multithreaded(p, k.clone())).collect::<Vec<_>>()
    }

    /// Alone-IPCs for `profiles` in parallel (the weighted-speedup
    /// denominators); results in input order.
    pub fn alone_ipc_batch(&self, profiles: &[AppProfile]) -> Vec<f64> {
        profiles.par_iter().map(|p| self.alone_ipc(p)).collect::<Vec<_>>()
    }

    /// Runs the `apps × kinds` single-core matrix in parallel; result
    /// indexed `[app][kind]`. This is the shared shape of Figs. 7/9/10/11
    /// and the sweep figures.
    pub fn run_single_matrix(
        &self,
        apps: &[AppProfile],
        kinds: &[ConfigKind],
    ) -> Vec<Vec<RunSummary>> {
        let specs: Vec<(usize, usize)> =
            (0..apps.len()).flat_map(|a| (0..kinds.len()).map(move |k| (a, k))).collect();
        let flat: Vec<RunSummary> = specs
            .into_par_iter()
            .map(|(a, k)| self.run_single(&apps[a], kinds[k].clone()))
            .collect::<Vec<_>>();
        flat.chunks(kinds.len().max(1)).map(<[RunSummary]>::to_vec).collect()
    }

    /// Runs the `mixes × kinds` eight-core matrix in parallel; result
    /// indexed `[mix][kind]`.
    pub fn run_mix_matrix(&self, mixes: &[Mix], kinds: &[ConfigKind]) -> Vec<Vec<RunSummary>> {
        let specs: Vec<(usize, usize)> =
            (0..mixes.len()).flat_map(|m| (0..kinds.len()).map(move |k| (m, k))).collect();
        let flat: Vec<RunSummary> = specs
            .into_par_iter()
            .map(|(m, k)| self.run_mix(&mixes[m], kinds[k].clone()))
            .collect::<Vec<_>>();
        flat.chunks(kinds.len().max(1)).map(<[RunSummary]>::to_vec).collect()
    }
}

/// The cargo workspace containing `start`: the nearest directory at or
/// above it whose `Cargo.toml` has a `[workspace]` table and which holds
/// a `Cargo.lock`. Output folders (`target/figaro-cache`, `BENCH_*`
/// artifacts) resolve against it at run time, so a copy of the
/// workspace writes into the copy.
#[must_use]
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    start.ancestors().find_map(|dir| {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).ok()?;
        let is_workspace = manifest.lines().any(|l| l.trim() == "[workspace]");
        (is_workspace && dir.join("Cargo.lock").is_file()).then(|| dir.to_path_buf())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Kernel;
    use figaro_core::{
        CacheRegion, FigCacheConfig, InsertionPolicy, Relocation, ReplacementPolicy,
    };
    use figaro_cpu::{CoreParams, HierarchyConfig};
    use figaro_dram::MapKind;
    use figaro_memctrl::{McConfig, SchedPolicyKind};
    use figaro_workloads::{profile_by_name, PageMapKind};

    fn cache_files(dir: &Path) -> usize {
        fs::read_dir(dir).map_or(0, |rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "txt"))
                .count()
        })
    }

    #[test]
    fn figcache_custom_runs_differing_in_one_field_never_share_a_cache_entry() {
        // Each variant differs from the paper config in one field alone;
        // each must publish its own entry and return what a fresh run
        // returns (an ideal-relocation run issues no RELOCs).
        // Its own top-level directory: other tests here remove theirs.
        let dir = std::env::temp_dir().join(format!("figaro-cache-custom-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cached = Runner::with_cache_dir(Scale::Tiny, dir.clone());
        let fresh = Runner::uncached(Scale::Tiny);
        let mcf = profile_by_name("mcf").unwrap();
        let paper = FigCacheConfig::paper_fast();
        let variants = [
            paper.clone(),
            FigCacheConfig { relocation: Relocation::Free, ..paper.clone() },
            FigCacheConfig { seed: paper.seed + 1, ..paper.clone() },
            FigCacheConfig { max_pending_jobs_per_bank: 1, ..paper.clone() },
        ];
        for (i, cfg) in variants.into_iter().enumerate() {
            let kind = ConfigKind::FigCacheCustom(cfg);
            let got = cached.run_single(&mcf, kind.clone());
            assert_eq!(got, fresh.run_single(&mcf, kind.clone()), "{kind:?} got a stale entry");
            assert_eq!(cache_files(&dir), i + 1, "{kind:?} shares a cache entry");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Applies `mutate` to a copy of `base` and asserts the key moved.
    fn assert_keyed(base: &RunSpec, field: &str, mutate: impl FnOnce(&mut RunSpec)) {
        let mut spec = base.clone();
        mutate(&mut spec);
        assert_ne!(spec.key(), base.key(), "changing {field} must change the cache key");
    }

    /// The FIGCache config of a `FigCacheCustom` spec.
    fn fig(spec: &mut RunSpec) -> &mut FigCacheConfig {
        match &mut spec.config.kind {
            ConfigKind::FigCacheCustom(c) => c,
            _ => unreachable!("the base spec runs FigCacheCustom"),
        }
    }

    #[test]
    fn every_run_spec_field_reaches_the_cache_key() {
        let mcf = profile_by_name("mcf").unwrap();
        let lbm = profile_by_name("lbm").unwrap();
        let base = Runner::uncached(Scale::Tiny)
            .single_spec(&mcf, ConfigKind::FigCacheCustom(FigCacheConfig::paper_fast()));
        // The patterns are exhaustive: a new field stops this test from
        // compiling until it gets a mutation below.
        let RunSpec { config, workload: _, targets: _, max_cycles: _, arrival: _ } = &base;
        assert_keyed(&base, "workload", |s| s.workload[0] = CoreWorkload::Idle);
        assert_keyed(&base, "workload profile", |s| {
            s.workload[0] = CoreWorkload::Trace { profile: lbm, ops: 10, seed: 1 };
            let mut other = s.clone();
            other.workload[0] = CoreWorkload::Trace { profile: mcf, ops: 10, seed: 1 };
            assert_ne!(s.key(), other.key());
        });
        assert_keyed(&base, "workload ops", |s| {
            let CoreWorkload::Trace { ops, .. } = &mut s.workload[0] else { unreachable!() };
            *ops += 1;
        });
        assert_keyed(&base, "workload seed", |s| {
            let CoreWorkload::Trace { seed, .. } = &mut s.workload[0] else { unreachable!() };
            *seed += 1;
        });
        assert_keyed(&base, "targets", |s| s.targets[0] += 1);
        assert_keyed(&base, "max_cycles", |s| s.max_cycles += 1);
        assert_keyed(&base, "arrival", |s| s.arrival = Some(ArrivalKind::Fixed { gap: 8 }));

        let SystemConfig {
            cores: _,
            channels: _,
            kind: _,
            core: CoreParams { width: _, window: _ },
            hierarchy: HierarchyConfig { l1: _, l2: _, llc: _, mshrs_per_core: _, fill_latency: _ },
            mc,
            cpu_cycles_per_bus: _,
            kernel: _,
            threads: _,
            page_map: _,
        } = config;
        assert_keyed(&base, "cores", |s| s.config.cores = 2);
        assert_keyed(&base, "channels", |s| s.config.channels = 2);
        assert_keyed(&base, "kind", |s| s.config.kind = ConfigKind::FigCacheFast);
        assert_keyed(&base, "core.width", |s| s.config.core.width += 1);
        assert_keyed(&base, "core.window", |s| s.config.core.window += 1);
        assert_keyed(&base, "hierarchy.l1", |s| s.config.hierarchy.l1.latency += 1);
        assert_keyed(&base, "hierarchy.l2", |s| s.config.hierarchy.l2.ways *= 2);
        assert_keyed(&base, "hierarchy.llc", |s| s.config.hierarchy.llc.size_bytes *= 2);
        assert_keyed(&base, "mshrs_per_core", |s| s.config.hierarchy.mshrs_per_core += 1);
        assert_keyed(&base, "fill_latency", |s| s.config.hierarchy.fill_latency += 1);
        assert_keyed(&base, "cpu_cycles_per_bus", |s| s.config.cpu_cycles_per_bus = 2);
        assert_keyed(&base, "kernel", |s| s.config.kernel = Kernel::Reference);
        assert_keyed(&base, "threads", |s| s.config.threads = 1);
        assert_keyed(&base, "page_map", |s| s.config.page_map = PageMapKind::Random { seed: 7 });

        let McConfig {
            read_queue_cap: _,
            write_queue_cap: _,
            wq_high: _,
            wq_low: _,
            enable_refresh: _,
            activation_window: _,
            sched: _,
            map: _,
            flat_scan: _,
        } = mc;
        assert_keyed(&base, "read_queue_cap", |s| s.config.mc.read_queue_cap += 1);
        assert_keyed(&base, "write_queue_cap", |s| s.config.mc.write_queue_cap += 1);
        assert_keyed(&base, "wq_high", |s| s.config.mc.wq_high += 1);
        assert_keyed(&base, "wq_low", |s| s.config.mc.wq_low += 1);
        assert_keyed(&base, "enable_refresh", |s| s.config.mc.enable_refresh = false);
        assert_keyed(&base, "activation_window", |s| s.config.mc.activation_window = Some(64));
        assert_keyed(&base, "sched", |s| s.config.mc.sched = SchedPolicyKind::Fcfs);
        assert_keyed(&base, "map", |s| s.config.mc.map = MapKind::from_name("chfirst").unwrap());
        assert_keyed(&base, "flat_scan", |s| s.config.mc.flat_scan = true);

        let FigCacheConfig {
            cache_rows_per_bank: _,
            blocks_per_segment: _,
            region: _,
            replacement: _,
            insertion: InsertionPolicy { miss_threshold: _ },
            relocation: _,
            max_pending_jobs_per_bank: _,
            seed: _,
        } = FigCacheConfig::paper_fast();
        assert_keyed(&base, "cache_rows_per_bank", |s| fig(s).cache_rows_per_bank = 32);
        assert_keyed(&base, "blocks_per_segment", |s| fig(s).blocks_per_segment = 8);
        assert_keyed(&base, "region", |s| fig(s).region = CacheRegion::ReservedSlowRows);
        assert_keyed(&base, "replacement", |s| fig(s).replacement = ReplacementPolicy::Lru);
        assert_keyed(&base, "miss_threshold", |s| fig(s).insertion.miss_threshold = 2);
        assert_keyed(&base, "relocation", |s| fig(s).relocation = Relocation::LisaClone);
        assert_keyed(&base, "max_pending_jobs_per_bank", |s| {
            fig(s).max_pending_jobs_per_bank = 1;
        });
        assert_keyed(&base, "seed", |s| fig(s).seed += 1);
    }

    #[test]
    fn summary_round_trips_through_text() {
        // Deliberately awkward floats: values whose shortest decimal
        // rendering used to round-trip off by an ulp through `{}`.
        let s = RunSummary {
            ipc: vec![0.1 + 0.2, 1.0 / 3.0],
            mpki: vec![12.0, 3.0_f64.sqrt()],
            row_hit_rate: 0.42,
            cache_hit_rate: f64::from_bits(0x3FD5_5555_5555_5556),
            energy: (1.0, 2.0, 3.0, 4.0, 5.0e-300),
            cpu_cycles: 1000,
            relocs: 77,
            lisa_clones: 0,
            avg_read_latency: 55.5,
            reads_served: 12_345,
            read_lat_p50: 28,
            read_lat_p95: 96,
            read_lat_p99: 224,
            read_lat_p999: 1792,
            read_lat_max: 2011,
            insertions: 9,
            truncated_cores: 1,
            ch_row_hit_rate: vec![0.75, 1.0 / 7.0],
            ch_read_q_peak: vec![31, 12],
            ch_write_q_peak: vec![16, 0],
        };
        let t = s.to_text();
        let loaded = RunSummary::from_text(&t).expect("round trip must parse");
        assert_eq!(loaded, s.clone());
        // Bit-exactness, not just PartialEq (the cache-vs-fresh contract).
        for (a, b) in loaded.ipc.iter().zip(s.ipc.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(loaded.cache_hit_rate.to_bits(), s.cache_hit_rate.to_bits());
        assert_eq!(loaded.energy.4.to_bits(), s.energy.4.to_bits());
        let empty = RunSummary { ch_row_hit_rate: Vec::new(), ch_read_q_peak: Vec::new(), ..s };
        assert_eq!(RunSummary::from_text(&empty.to_text()), Some(empty));
    }

    #[test]
    fn cached_scenario_result_is_bit_identical_to_fresh() {
        // The satellite-2 contract end to end: write a summary through
        // the on-disk cache, read it back, and require full bit equality
        // with the freshly computed run (floats included).
        let dir = std::env::temp_dir()
            .join(format!("figaro-cache-test-{}", std::process::id()))
            .join("exact");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = Runner::uncached(Scale::Tiny).stream_spec(
            ConfigKind::FigCacheFast,
            &[profile_by_name("mcf").unwrap()],
            Some(10_000),
        );
        let fresh = Runner::uncached(Scale::Tiny).run(&spec);
        let writer = Runner::with_cache_dir(Scale::Tiny, dir.clone());
        let first = writer.run(&spec); // computes and publishes
        let cached = Runner::with_cache_dir(Scale::Tiny, dir.clone()).run(&spec);
        for s in [&first, &cached] {
            assert_eq!(s, &fresh);
            for (a, b) in s.ipc.iter().zip(fresh.ipc.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "cached float differs from fresh");
            }
            assert_eq!(s.avg_read_latency.to_bits(), fresh.avg_read_latency.to_bits());
        }
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn truncated_runs_are_flagged_in_the_summary() {
        // A run stopped by its cycle cap short of the instruction target
        // must say so instead of passing the truncation off as a
        // measurement; a completed run must not.
        let p = profile_by_name("mcf").unwrap();
        let run_capped = |max_cycles: u64| {
            let trace = generate_trace(&p, 20_000, 3);
            let mut sys =
                System::new(SystemConfig::paper(1, ConfigKind::Base), vec![trace], &[20_000]);
            RunSummary::from_stats(&sys.run(max_cycles))
        };
        let truncated = run_capped(5_000);
        assert_eq!(truncated.truncated_cores, 1);
        let completed = run_capped(20_000 * 400);
        assert_eq!(completed.truncated_cores, 0);
    }

    #[test]
    fn seeds_differ_by_core_and_app() {
        assert_ne!(seed_for("mcf", 0), seed_for("mcf", 1));
        assert_ne!(seed_for("mcf", 0), seed_for("lbm", 0));
    }

    #[test]
    fn tiny_single_run_works_uncached() {
        let runner = Runner::uncached(Scale::Tiny);
        let p = profile_by_name("sjeng").unwrap();
        let s = runner.run_single(&p, ConfigKind::Base);
        assert!(s.ipc[0] > 0.0);
        assert!(s.mpki[0] < 10.0, "sjeng must classify non-intensive, mpki {}", s.mpki[0]);
    }

    #[test]
    fn parallel_batch_is_bit_identical_to_serial() {
        let runner = Runner::uncached(Scale::Tiny);
        let jobs: Vec<_> = ["sjeng", "grep"]
            .iter()
            .flat_map(|n| {
                let p = profile_by_name(n).unwrap();
                [(p, ConfigKind::Base), (p, ConfigKind::FigCacheFast)]
            })
            .collect();
        let parallel = runner.run_single_batch(&jobs);
        let serial: Vec<RunSummary> =
            jobs.iter().map(|(p, k)| runner.run_single(p, k.clone())).collect();
        assert_eq!(parallel, serial, "batch must equal the serial loop bit-for-bit");
    }

    #[test]
    fn matrix_indexing_matches_flat_jobs() {
        let runner = Runner::uncached(Scale::Tiny);
        let apps = vec![profile_by_name("sjeng").unwrap(), profile_by_name("grep").unwrap()];
        let kinds = vec![ConfigKind::Base, ConfigKind::FigCacheFast];
        let matrix = runner.run_single_matrix(&apps, &kinds);
        assert_eq!(matrix.len(), 2);
        assert_eq!(matrix[0].len(), 2);
        assert_eq!(matrix[1][0], runner.run_single(&apps[1], ConfigKind::Base));
    }

    #[test]
    fn shared_cache_dedups_duplicate_jobs_and_survives_reload() {
        let dir = std::env::temp_dir()
            .join(format!("figaro-cache-test-{}", std::process::id()))
            .join("dedup");
        let _ = std::fs::remove_dir_all(&dir);
        let runner = Runner::with_cache_dir(Scale::Tiny, dir.clone());
        let p = profile_by_name("grep").unwrap();
        // Four copies of the same job racing over one cache key.
        let jobs = vec![(p, ConfigKind::Base); 4];
        let out = runner.run_single_batch(&jobs);
        assert!(out.windows(2).all(|w| w[0] == w[1]), "duplicates must agree");
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("cache dir exists")
            .filter_map(Result::ok)
            .map(|e| e.file_name().into_string().unwrap())
            .collect();
        assert_eq!(files.len(), 1, "one key -> one published file, got {files:?}");
        assert!(files[0].ends_with(".txt"), "no stray temp files: {files:?}");
        // A fresh runner over the same dir must load the identical summary.
        let reloaded = Runner::with_cache_dir(Scale::Tiny, dir.clone());
        assert_eq!(reloaded.run_single(&p, ConfigKind::Base), out[0]);
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn scenario_runs_streamed_and_deterministic() {
        let runner = Runner::uncached(Scale::Tiny);
        let spec = runner.stream_spec(
            ConfigKind::FigCacheFast,
            &[profile_by_name("mcf").unwrap()],
            Some(20_000),
        );
        assert!(matches!(spec.workload[0], CoreWorkload::Stream { .. }));
        let a = runner.run(&spec);
        let b = runner.run(&spec);
        assert_eq!(a, b, "streamed runs must be deterministic");
        assert!(a.ipc[0] > 0.0);
    }

    #[test]
    fn scenario_overrides_change_the_system_shape() {
        let runner = Runner::uncached(Scale::Tiny);
        let mix = figaro_workloads::eight_core_mixes()
            .into_iter()
            .find(|m| m.category == figaro_workloads::MixCategory::Intensive100)
            .unwrap();
        let with_channels = |ch: u32| {
            let mut spec = runner.stream_spec(ConfigKind::Base, &mix.apps, Some(4_000));
            spec.config = spec.config.with_channels(ch);
            spec
        };
        let results = runner.run_batch(&[with_channels(1), with_channels(4)]);
        assert_eq!(results.len(), 2);
        let (narrow, wide) = (&results[0], &results[1]);
        assert!(
            wide.ipc.iter().sum::<f64>() > narrow.ipc.iter().sum::<f64>(),
            "4 channels must outrun 1 channel on an intensive mix"
        );
    }

    #[test]
    fn streamed_two_core_figcache_run_relocates() {
        let runner = Runner::uncached(Scale::Tiny);
        let apps = ["mcf", "lbm"].map(|n| profile_by_name(n).unwrap());
        let mut spec = runner.stream_spec(ConfigKind::FigCacheFast, &apps, Some(15_000));
        spec.config = spec.config.with_channels(2);
        let s = runner.run(&spec);
        assert!(s.ipc.iter().all(|&i| i > 0.0 && i.is_finite()), "both cores must retire");
        assert!(s.relocs > 0, "FIGCache must relocate under the streamed workload");
    }

    #[test]
    fn scenario_cache_keys_distinguish_workloads() {
        // Two streamed runs differing only in their workload must not
        // share a cached result.
        let dir = std::env::temp_dir()
            .join(format!("figaro-cache-test-{}", std::process::id()))
            .join("scn");
        let _ = std::fs::remove_dir_all(&dir);
        let runner = Runner::with_cache_dir(Scale::Tiny, dir.clone());
        let spec = |app: &str| {
            runner.stream_spec(ConfigKind::Base, &[profile_by_name(app).unwrap()], Some(10_000))
        };
        let mcf = runner.run(&spec("mcf"));
        let sjeng = runner.run(&spec("sjeng"));
        assert_ne!(mcf, sjeng, "different workloads must not collide");
        assert!(
            sjeng.mpki[0] < mcf.mpki[0],
            "sjeng must really have run (not mcf's cache entry): {} vs {}",
            sjeng.mpki[0],
            mcf.mpki[0]
        );
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn workspace_root_finds_the_nearest_locked_workspace() {
        // outer/            Cargo.toml [workspace] + Cargo.lock  <- root
        //   member/         Cargo.toml [package], no lock
        //     src/deep/     start here
        //   unlocked/       Cargo.toml [workspace], no lock
        let outer = std::env::temp_dir().join(format!("figaro-ws-root-{}", std::process::id()));
        let _ = fs::remove_dir_all(&outer);
        let deep = outer.join("member").join("src").join("deep");
        fs::create_dir_all(&deep).unwrap();
        fs::create_dir_all(outer.join("unlocked")).unwrap();
        fs::write(outer.join("Cargo.toml"), "[workspace]\nmembers = [\"member\"]\n").unwrap();
        fs::write(outer.join("Cargo.lock"), "").unwrap();
        fs::write(outer.join("member").join("Cargo.toml"), "[package]\nname = \"m\"\n").unwrap();
        fs::write(outer.join("unlocked").join("Cargo.toml"), "[workspace]\n").unwrap();

        assert_eq!(workspace_root(&deep), Some(outer.clone()));
        assert_eq!(workspace_root(&outer), Some(outer.clone()));
        // A `[workspace]` manifest without a lock file is skipped.
        assert_eq!(workspace_root(&outer.join("unlocked")), Some(outer.clone()));
        // `[workspace.package]` alone does not make a workspace root.
        fs::write(outer.join("Cargo.toml"), "[workspace.package]\nversion = \"1\"\n").unwrap();
        assert_ne!(workspace_root(&deep), Some(outer.clone()));
        let _ = fs::remove_dir_all(&outer);
    }

    #[test]
    fn scale_labels_round_trip() {
        for s in [Scale::Tiny, Scale::Small, Scale::Full] {
            assert_eq!(Scale::parse(&s.label().to_uppercase()), Some(s));
        }
        assert_eq!(Scale::parse("huge"), None);
    }
}
