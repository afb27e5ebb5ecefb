//! `perfbench` — the FIGARO simulator's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! perfbench --workload <mix8-fig|solo-light> --seed <n> --seconds <s> --trace <0|1>
//!           [--record <path>]
//! ```
//!
//! With `--trace 0` it repeats the workload, untraced, until `--seconds`
//! have passed and reports the end-to-end metrics: host speed as a
//! median over the repeats, each scaled to a reference host speed by a
//! probe (see `probe.rs`), set-up time as a median, modelled results
//! from the (identical) repeats. With
//! `--trace 1` it adds traced runs and the layer replay and reports the
//! per-layer metrics instead. Either way the last line of standard output
//! is one JSON object (`correct`, `attempted`, `failed`, `metrics`) and
//! the full run record goes to `--record` (default
//! `perfbench/out/<workload>-seed<n>-trace<t>.json` under the current
//! directory). See `perfbench/README.md`.

mod catalog;
mod probe;
mod record;
mod replay;
mod timing;
mod workload;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use figaro_memctrl::LatencyHistogram;
use figaro_sim::{Kernel, RunStats, System};
use figaro_workloads::TraceSource;

use catalog::metric;
use probe::HostProbe;
use record::{median, Json, Metric, Tally};
use timing::{Span, TimedSource};
use workload::Workload;

/// Untraced repeats made even when `--seconds` is shorter.
const MIN_REPS: usize = 3;
/// Upper bound on untraced repeats in one invocation.
const MAX_REPS: usize = 200;
/// Rounds of traced pairs made even when `--seconds` is shorter.
const MIN_ROUNDS: usize = 2;
/// Probe time (ns) that defines the reference host speed: about what
/// `HostProbe::sample_ns` takes on the tuning host in its fast state.
const REF_PROBE_NS: f64 = 1_800_000.0;
/// Systems built (and dropped unrun) before each untraced repeat to
/// time set-up.
const SETUP_SAMPLES: usize = 20;

/// Stated in every record: the model has not been checked against
/// hardware, so no error figure exists for any modelled metric.
const MODEL_NOTE: &str = "model unvalidated: the repository holds no reference measurements, so \
                          modelled metrics (sim_ipc, read latency, energy) carry no error figure";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <mix8-fig|solo-light> --seed <n> \
                     --seconds <s> --trace <0|1> [--record <path>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v.parse::<f64>().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds `{v}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (use 0 or 1)")),
                });
            }
            "--record" => record = Some(PathBuf::from(value()?)),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        record,
    })
}

/// The simulator's library crates read `FIGARO_*` variables into
/// process-global caches (scheduler, mapping, page map, kernel,
/// telemetry). The benchmark sets every field itself, so any such
/// variable would silently change what is measured: refuse to start.
fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FIGARO_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set: unset every FIGARO_* variable", set.join(", ")))
    }
}

/// What one simulation run records besides its statistics.
#[derive(Debug)]
struct Run {
    setup_ns: u64,
    run_ns: u64,
    stats: RunStats,
    /// `KernelProfile::report` lines, when the run was profiled.
    profile: Option<Vec<String>>,
}

/// Optional instrumentation of one run.
#[derive(Debug, Default)]
struct Instrument {
    profile: bool,
    source_span: Option<Arc<Span>>,
}

/// Set-up as `setup_s` measures it: the trace sources and
/// `System::from_sources`.
fn build(w: &Workload, seed: u64, kernel: Kernel, source_span: Option<&Arc<Span>>) -> System {
    let mut sources = w.sources(seed);
    if let Some(span) = source_span {
        sources = sources
            .into_iter()
            .map(|s| Box::new(TimedSource::new(s, span.clone())) as Box<dyn TraceSource>)
            .collect();
    }
    System::from_sources(w.cfg_with(kernel), sources, &w.targets())
}

fn simulate(w: &Workload, seed: u64, kernel: Kernel, cap: u64, inst: &Instrument) -> Run {
    let t0 = Instant::now();
    let mut sys = build(w, seed, kernel, inst.source_span.as_ref());
    let setup_ns = elapsed_ns(t0);
    if inst.profile {
        sys.enable_profiling();
    }
    let t1 = Instant::now();
    let stats = std::hint::black_box(sys.run(cap));
    let run_ns = elapsed_ns(t1);
    let profile = sys.profile().map(figaro_sim::KernelProfile::report);
    Run { setup_ns, run_ns, stats, profile }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Output checks on a full run: no core stopped at the cycle cap, the
/// cache-engine lookups add up, and (given the first run of the seed)
/// the statistics are bit-identical to it.
fn check_run(s: &RunStats, first: Option<&RunStats>) -> Vec<String> {
    let mut problems = Vec::new();
    let unfinished = s.unfinished_cores();
    if unfinished > 0 {
        problems.push(format!("{unfinished} core(s) stopped at the cycle cap {}", s.cpu_cycles));
    }
    let c = &s.cache;
    if c.lookups != c.hits + c.misses + c.uncacheable {
        problems.push(format!(
            "engine lookups {} != hits {} + misses {} + uncacheable {}",
            c.lookups, c.hits, c.misses, c.uncacheable
        ));
    }
    if first.is_some_and(|f| f != s) {
        problems.push("RunStats differ from the first run of this seed".to_string());
    }
    problems
}

/// `Kernel::Event` against `Kernel::Reference` on the workload's
/// cycle-capped prefix.
fn check_prefix(w: &Workload, seed: u64, tally: &mut Tally) {
    tally.run("event-vs-reference prefix", || {
        let none = Instrument::default();
        let event = simulate(w, seed, Kernel::Event, w.prefix_cycles, &none).stats;
        let reference = simulate(w, seed, Kernel::Reference, w.prefix_cycles, &none).stats;
        let mut problems = Vec::new();
        if event != reference {
            problems.push(format!(
                "event and reference kernels differ on the first {} cycles",
                w.prefix_cycles
            ));
        }
        ((), problems)
    });
}

/// Set-up times (ns) of [`SETUP_SAMPLES`] systems built and dropped
/// without running: set-up takes micro- to milliseconds, so one sample
/// per repeat is too few for a steady median, and samples taken all at
/// once would see the host in only one state.
fn setup_samples(w: &Workload, seed: u64) -> Vec<u64> {
    (0..SETUP_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            let sys = build(w, seed, Kernel::Event, None);
            let ns = elapsed_ns(t0);
            drop(std::hint::black_box(sys));
            ns
        })
        .collect()
}

/// Host time (ns) of a repeat at the reference host speed: its wall
/// time scaled by [`REF_PROBE_NS`] over `probe_ns`, the mean probe time
/// around it. Wall time, and medians of it, follow the share of time
/// the host spent in its slow state; the scaled time much less so.
fn reference_ns(run: &Run, probe_ns: f64) -> f64 {
    run.run_ns as f64 * REF_PROBE_NS / probe_ns
}

/// What the untraced repeats measured.
#[derive(Debug, Default)]
struct Repeats {
    runs: Vec<Run>,
    /// Per run: the mean of the probe samples just before and after it.
    probe_ns: Vec<f64>,
    /// Peak RSS (MB) after the first run.
    peak_rss: Option<f64>,
}

/// Untraced repeats until `budget` has passed (at least [`MIN_REPS`]),
/// each after a batch of set-up samples appended to `setups` and between
/// two probe samples. The peak RSS is read after the first: the heap's
/// high-water mark creeps up with every further repeat, so reading it at
/// the end would make it depend on how many repeats the host's speed
/// allowed.
fn measure(
    w: &Workload,
    seed: u64,
    budget: Duration,
    setups: &mut Vec<f64>,
    tally: &mut Tally,
) -> Repeats {
    let start = Instant::now();
    let probe = HostProbe::default();
    let mut m = Repeats::default();
    let mut attempts = 0;
    while attempts < MIN_REPS || (start.elapsed() < budget && attempts < MAX_REPS) {
        attempts += 1;
        setups.extend(setup_samples(w, seed).into_iter().map(|ns| ns as f64));
        let first = m.runs.first().map(|r| &r.stats);
        let label = format!("untraced run {attempts}");
        let before = probe.sample_ns();
        let run = tally.run(&label, || {
            let run = simulate(w, seed, Kernel::Event, w.cycle_cap, &Instrument::default());
            let problems = check_run(&run.stats, first);
            (run, problems)
        });
        let after = probe.sample_ns();
        if let Some(run) = run {
            m.runs.push(run);
            m.probe_ns.push((before + after) as f64 / 2.0);
        }
        if attempts == 1 {
            m.peak_rss = peak_rss_mb();
        }
    }
    m
}

/// What the traced runs measured.
#[derive(Debug, Default)]
struct Traced {
    /// `KernelProfile::report` of the first profiled run.
    profile: Option<Vec<String>>,
    /// Per pair: profiled run time / untraced run time.
    profiler_ratios: Vec<f64>,
    /// Per pair: source-wrapped run time / untraced run time.
    wrapper_ratios: Vec<f64>,
    /// Wall time of the source-wrapped runs, summed.
    wrapped_ns: u64,
}

/// Traced runs, each paired with an untraced run just before it so both
/// see the same host conditions: rounds of (untraced, profiled) and
/// (untraced, source-wrapped) until `budget` has passed, at least
/// [`MIN_ROUNDS`]. Every run must leave `RunStats` bit-identical to
/// `first`.
fn traced_pairs(
    w: &Workload,
    seed: u64,
    first: &RunStats,
    span: &Arc<Span>,
    budget: Duration,
    tally: &mut Tally,
) -> Traced {
    let start = Instant::now();
    let kinds = [
        ("profiled", Instrument { profile: true, ..Instrument::default() }),
        ("source-wrapped", Instrument { source_span: Some(span.clone()), ..Instrument::default() }),
    ];
    let mut t = Traced::default();
    let mut round = 0;
    while round < MIN_ROUNDS || (start.elapsed() < budget && round < MAX_REPS) {
        round += 1;
        for (kind, inst) in &kinds {
            let pair = tally.run(&format!("{kind} pair {round}"), || {
                let base = simulate(w, seed, Kernel::Event, w.cycle_cap, &Instrument::default());
                let traced = simulate(w, seed, Kernel::Event, w.cycle_cap, inst);
                let mut problems = check_run(&base.stats, Some(first));
                problems.extend(check_run(&traced.stats, Some(first)));
                ((base.run_ns, traced), problems)
            });
            let Some((base_ns, traced)) = pair else { continue };
            let ratio = traced.run_ns as f64 / base_ns as f64;
            if inst.profile {
                t.profile = t.profile.or(traced.profile);
                t.profiler_ratios.push(ratio);
            } else {
                t.wrapped_ns += traced.run_ns;
                t.wrapper_ratios.push(ratio);
            }
        }
    }
    t
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn total_insts(s: &RunStats) -> u64 {
    s.instructions.iter().sum()
}

/// Peak resident set of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn end_to_end(rep: &Repeats, setup_ns: f64, tally: &mut Tally) -> Vec<Metric> {
    let s = &rep.runs[0].stats;
    let reference: Vec<f64> =
        rep.runs.iter().zip(&rep.probe_ns).map(|(r, &p)| reference_ns(r, p)).collect();
    let ipc: f64 = (0..s.instructions.len()).map(|c| s.ipc(c)).sum();
    let rss = tally.run("peak RSS", || match rep.peak_rss {
        Some(mb) => (mb, vec![]),
        None => (0.0, vec!["cannot read VmHWM from /proc/self/status".to_string()]),
    });
    let mut m = vec![
        metric("setup_s", setup_ns / 1e9),
        metric("sim_ipc", ipc),
        metric("read_lat_mean", s.mc.avg_read_latency()),
        metric("read_lat_p99", percentile_interpolated(&s.mc.read_latency_hist, 0.99)),
        metric("energy_per_inst", s.energy.total() / total_insts(s) as f64),
    ];
    m.extend(rss.map(|mb| metric("peak_rss_mb", mb)));
    let t = median(&reference).expect("at least one run") / 1e9;
    m.push(metric("sim_cycles_per_s", s.cpu_cycles as f64 / t));
    m.push(metric("sim_insts_per_s", total_insts(s) as f64 / t));
    m
}

/// The `p`-quantile of `h`, placed linearly inside its bucket by rank
/// instead of at the bucket floor `LatencyHistogram::percentile` gives,
/// so that it moves smoothly rather than in steps of up to 12.5%.
/// Bucket `[f, f + w)` has `w = 1` below 8 and `w = 2^(msb(f) - 3)`
/// above (the histogram's documented layout).
fn percentile_interpolated(h: &LatencyHistogram, p: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // Floor of the bucket holding the value of rank `k` (1-based).
    let floor_at = |k: u64| h.percentile((k as f64 - 0.5) / n as f64);
    let k = ((p * n as f64).ceil() as u64).clamp(1, n);
    let f = floor_at(k);
    // The first rank in `lo..hi` where `pred` holds (ranks are sorted,
    // so `pred` holds from there on); `hi` if none.
    let first_where = |mut lo: u64, mut hi: u64, pred: &dyn Fn(u64) -> bool| {
        while lo < hi {
            let mid = (lo + hi) / 2;
            if pred(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    };
    // Ranks `first..=last` fall in the bucket at `f`.
    let first = first_where(1, k, &|r| floor_at(r) >= f);
    let last = first_where(k, n + 1, &|r| floor_at(r) > f) - 1;
    let width = if f < 8 { 1 } else { 1_u64 << (63 - f.leading_zeros() - 3) };
    f as f64 + (k - first) as f64 / (last - first + 1) as f64 * width as f64
}

/// `(share, laps)` of a `KernelProfile::report` bucket line such as
/// `  memory                  74.7 %  (123 laps)`.
fn profile_bucket(report: &[String], label: &str) -> Option<(f64, u64)> {
    let line = report.iter().find(|l| l.trim_start().starts_with(label))?;
    let mut words = line.split_whitespace().skip(1);
    let pct: f64 = words.next()?.parse().ok()?;
    let laps: u64 = line.split('(').nth(1)?.split_whitespace().next()?.parse().ok()?;
    Some((pct / 100.0, laps))
}

/// Per-layer metrics: counters from the untraced run's `RunStats`, host
/// times from the traced runs (for `budget`) and the replay. Returns the
/// metrics and the tracing overheads (profiler, source wrapper) against
/// the paired untraced runs.
fn per_layer(
    w: &Workload,
    seed: u64,
    untraced: &[Run],
    setup_ns: f64,
    budget: Duration,
    tally: &mut Tally,
) -> (Vec<Metric>, [Option<f64>; 2]) {
    let first = &untraced[0].stats;
    let span = Arc::new(Span::default());
    let t = traced_pairs(w, seed, first, &span, budget, tally);
    let overhead = |ratios: &[f64]| median(ratios).map(|r| r - 1.0);
    let mut m = Vec::new();

    // sim: the kernel's own two-bucket profile.
    let buckets = tally.run("profile report", || {
        let report = t.profile.clone().unwrap_or_default();
        let parsed = profile_bucket(&report, "memory").zip(profile_bucket(&report, "cores"));
        let problems = if parsed.is_some() {
            vec![]
        } else {
            vec![format!("cannot read the profile report {report:?}")]
        };
        (parsed, problems)
    });
    if let Some(Some(((mem, steps), (cores, _)))) = buckets {
        m.extend([
            metric("sim.memory_share", mem),
            metric("sim.cores_share", cores),
            metric("sim.executed_steps", steps as f64),
            metric("sim.skip_ratio", 1.0 - steps as f64 / first.cpu_cycles as f64),
        ]);
    }
    m.push(metric("sim.setup_ns", setup_ns));
    m.extend(overhead(&t.profiler_ratios).map(|o| metric("sim.trace_overhead", o)));

    // workloads: a timing wrapper around every core's TraceSource.
    if !t.wrapper_ratios.is_empty() {
        m.extend([
            metric("workloads.next_op.calls", span.calls() as f64 / t.wrapper_ratios.len() as f64),
            metric("workloads.next_op.ns_per_call", span.ns_per_call()),
            metric("workloads.next_op.share", span.nanos() as f64 / t.wrapped_ns as f64),
        ]);
        m.extend(overhead(&t.wrapper_ratios).map(|o| metric("workloads.trace_overhead", o)));
    }

    // Counters of the untraced run.
    let cores = &first.cores;
    let sum = |f: fn(&figaro_cpu::CoreStats) -> u64| cores.iter().map(f).sum::<u64>() as f64;
    let h = &first.hierarchy;
    let (mc, dram, cache) = (&first.mc, &first.dram, &first.cache);
    m.extend([
        metric("cpu.retired_insts", sum(|c| c.retired)),
        metric("cpu.mem_ops", sum(|c| c.mem_ops)),
        metric("cpu.long_loads", sum(|c| c.long_loads)),
        metric("cpu.window_full_cycles", sum(|c| c.window_full_cycles)),
        metric("cpu.stall_cycles", sum(|c| c.stall_cycles)),
        metric("cpu.mshr_stalls", h.mshr_stalls as f64),
        metric("cpu.mshr_merges", h.mshr_merges as f64),
        metric("cpu.llc_miss_rate", h.llc.misses as f64 / h.llc.accesses.max(1) as f64),
        metric("memctrl.reads_served", mc.reads_served as f64),
        metric("memctrl.writes_served", mc.writes_served as f64),
        metric("memctrl.forwarded", mc.forwarded as f64),
        metric("memctrl.row_hit_rate", mc.row_hit_rate()),
        metric("memctrl.read_q_peak", mc.read_q_peak as f64),
        metric("memctrl.write_q_peak", mc.write_q_peak as f64),
        metric("dram.activates", dram.activates as f64),
        metric("dram.activates_fast", dram.activates_fast as f64),
        metric("dram.reads", dram.reads as f64),
        metric("dram.writes", dram.writes as f64),
        metric("dram.precharges", dram.precharges as f64),
        metric("dram.refreshes", dram.refreshes as f64),
        metric("dram.relocs", dram.relocs as f64),
        metric("core.lookups", cache.lookups as f64),
        metric("core.hit_rate", cache.hit_rate()),
        metric("core.insertions", cache.insertions as f64),
        metric("core.insertions_skipped", cache.insertions_skipped as f64),
        metric("core.evictions", (cache.evictions_clean + cache.evictions_dirty) as f64),
        metric("core.blocks_relocated", cache.blocks_relocated as f64),
        metric("energy.dram_nj", first.energy.dram),
        metric("energy.total_nj", first.energy.total()),
    ]);

    // The replay: per-call host times of each layer's public functions.
    if let Some(rep) = tally.run("layer replay", || replay::run(w, seed)) {
        let calls = |name: &str, s: &Span| metric(name, s.calls() as f64);
        let per_call = |name: &str, s: &Span| metric(name, s.ns_per_call());
        m.extend([
            calls("cpu.hierarchy.access.calls", &rep.access),
            per_call("cpu.hierarchy.access.ns_per_call", &rep.access),
            per_call("cpu.hierarchy.on_completion.ns_per_call", &rep.on_completion),
        ]);
        for (name, s) in [
            ("memctrl.enqueue", &rep.enqueue),
            ("memctrl.tick", &rep.tick),
            ("memctrl.next_event_at", &rep.next_event_at),
            ("memctrl.drain_completions_into", &rep.drain),
            ("core.on_request", &rep.engine.on_request),
            ("core.take_job", &rep.engine.take_job),
            ("core.on_job_complete", &rep.engine.on_job_complete),
        ] {
            m.push(calls(&format!("{name}.calls"), s));
            m.push(per_call(&format!("{name}.ns_per_call"), s));
        }
        m.extend([
            per_call("dram.earliest_issue.ns_per_call", &rep.earliest_issue),
            per_call("dram.issue.ns_per_call", &rep.issue),
        ]);
    }
    (m, [overhead(&t.profiler_ratios), overhead(&t.wrapper_ratios)])
}

/// Cost of one [`Span::time`] around an empty closure: the timer's own
/// share of every `ns_per_call` the trace reports.
fn empty_span_ns() -> f64 {
    let span = Span::default();
    for _ in 0..100_000 {
        span.time(|| ());
    }
    span.ns_per_call()
}

/// The current commit, read from `.git` under the working directory
/// (`unknown` outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(PathBuf::from(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".to_string() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn real_main() -> Result<(), String> {
    check_environment()?;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let w = workload::by_name(&args.workload).ok_or_else(|| {
        format!("unknown workload `{}` (use one of {})", args.workload, workload::NAMES.join(", "))
    })?;
    let record_path = args.record.clone().unwrap_or_else(|| {
        PathBuf::from("perfbench").join("out").join(format!(
            "{}-seed{}-trace{}.json",
            w.name,
            args.seed,
            u8::from(args.trace)
        ))
    });
    let started = Instant::now();
    let mut tally = Tally::default();
    check_prefix(&w, args.seed, &mut tally);
    // A traced invocation makes the minimum untraced repeats (the
    // counters) and spends its budget on traced runs.
    let budget = Duration::from_secs_f64(args.seconds);
    let untraced_budget = if args.trace { Duration::ZERO } else { budget };
    let mut setups = Vec::new();
    let rep = measure(&w, args.seed, untraced_budget, &mut setups, &mut tally);
    let runs = &rep.runs;
    setups.extend(runs.iter().map(|r| r.setup_ns as f64));
    let setup_ns = median(&setups).expect("set-up was sampled");
    let mut metrics = Vec::new();
    let mut overheads = [None, None];
    if !runs.is_empty() {
        if args.trace {
            let left = budget.saturating_sub(started.elapsed());
            (metrics, overheads) = per_layer(&w, args.seed, runs, setup_ns, left, &mut tally);
        } else {
            metrics = end_to_end(&rep, setup_ns, &mut tally);
        }
    }
    // A run reports every metric of its kind: a missing one is a
    // failed output check, never a silent gap.
    let missing = catalog::complete(&mut metrics, args.trace);
    tally.run("metric completeness", || ((), missing));

    let simulated = runs.first().map_or(Json::Null, |r| {
        let s = &r.stats;
        Json::obj(vec![
            ("cpu_cycles", Json::int(s.cpu_cycles)),
            ("instructions", Json::int(total_insts(s))),
            ("requests", Json::int(s.mc.enq_reads + s.mc.enq_writes)),
            ("reads_served", Json::int(s.mc.reads_served)),
            ("writes_served", Json::int(s.mc.writes_served)),
        ])
    });
    let opt = |x: Option<f64>| x.map_or(Json::Null, Json::Num);
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let record = Json::obj(vec![
        ("benchmark", Json::str("figaro-perfbench")),
        ("workload", Json::str(w.name)),
        ("why", Json::str(w.why)),
        ("loop", Json::str(w.loop_kind)),
        ("seed", Json::int(args.seed)),
        ("default_seed", Json::int(workload::DEFAULT_SEED)),
        ("held_out_seed", Json::int(workload::HELD_OUT_SEED)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(args.seconds)),
        ("git_rev", Json::str(&git_rev())),
        ("nproc", Json::int(nproc as u64)),
        ("untraced_runs", Json::int(runs.len() as u64)),
        ("run_s", Json::Arr(runs.iter().map(|r| Json::Num(secs(r.run_ns))).collect())),
        ("probe_s", Json::Arr(rep.probe_ns.iter().map(|&ns| Json::Num(ns / 1e9)).collect())),
        ("setup_s", Json::Arr(setups.iter().map(|&ns| Json::Num(ns / 1e9)).collect())),
        ("simulated", simulated),
        (
            "tracing_overhead",
            Json::obj(vec![
                ("profiler", opt(overheads[0])),
                ("source_wrapper", opt(overheads[1])),
                ("empty_span_ns", opt(args.trace.then(empty_span_ns))),
            ]),
        ),
        ("note", Json::str(MODEL_NOTE)),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
        ("correct", Json::Bool(tally.failed() == 0)),
        ("attempted", Json::int(tally.attempted)),
        ("failed", Json::int(tally.failed())),
        ("failures", Json::Arr(tally.failures.iter().map(|f| Json::str(f)).collect())),
        ("metrics", record::metrics_json(&metrics)),
    ]);
    if let Some(dir) = record_path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&record_path, record.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", record_path.display()))?;

    println!(
        "perfbench {} seed={} trace={} runs={} attempted={} failed={} ({MODEL_NOTE})",
        w.name,
        args.seed,
        u8::from(args.trace),
        runs.len(),
        tally.attempted,
        tally.failed()
    );
    for f in &tally.failures {
        println!("  FAILED {f}");
    }
    for m in &metrics {
        println!(
            "  {:<42} {:>18.6} {:<12} {} is better",
            m.name,
            m.value,
            m.unit,
            m.better.label()
        );
    }
    println!("  record: {}", record_path.display());
    println!("{}", record::result_line(&tally, &metrics).render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload solo-light --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("solo-light", 7, 10.0, true)
        );
        assert!(a.record.is_none());
        for bad in [
            "--workload x --seed 1 --seconds 1",
            "--workload x --seed -1 --seconds 1 --trace 0",
            "--workload x --seed 1 --seconds 1 --trace 2",
            "--workload x --seed 1 --seconds nan --trace 0",
            "--bogus",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn reads_the_profile_report_buckets() {
        let report = vec![
            "kernel wall time        1.234 s".to_string(),
            "  memory                  74.7 %  (1234 laps)".to_string(),
            "  cores                   25.2 %  (1234 laps)".to_string(),
        ];
        assert_eq!(profile_bucket(&report, "memory"), Some((0.747, 1234)));
        assert_eq!(profile_bucket(&report, "cores"), Some((0.252, 1234)));
        assert_eq!(profile_bucket(&report, "epochs"), None);
    }

    #[test]
    fn a_run_stopped_at_the_cycle_cap_is_a_failure() {
        let w = workload::by_name("solo-light").unwrap();
        let run = simulate(&w, 1, Kernel::Event, 20_000, &Instrument::default());
        let problems = check_run(&run.stats, None);
        assert!(problems.iter().any(|p| p.contains("cycle cap")), "{problems:?}");
        let mut other = run.stats.clone();
        other.cpu_cycles += 1;
        assert!(check_run(&run.stats, Some(&other)).iter().any(|p| p.contains("differ")));
    }

    #[test]
    fn interpolated_percentile_stays_inside_the_bucket() {
        let mut h = LatencyHistogram::default();
        assert_eq!(percentile_interpolated(&h, 0.99), 0.0);
        // 100 values in bucket [64, 72), then 100 in [128, 144).
        for v in 0..200 {
            h.record(if v < 100 { 64 + v % 8 } else { 130 });
        }
        let p = |q| percentile_interpolated(&h, q);
        assert_eq!(p(0.25), 64.0 + 49.0 / 100.0 * 8.0);
        assert_eq!(p(0.5), 64.0 + 99.0 / 100.0 * 8.0);
        assert_eq!(p(0.99), 128.0 + 97.0 / 100.0 * 16.0);
        assert!(p(0.99) >= h.percentile(0.99) as f64 && p(0.99) < 144.0);
        let mut one = LatencyHistogram::default();
        one.record(5);
        assert_eq!(percentile_interpolated(&one, 0.99), 5.0);
    }

    #[test]
    fn reference_time_scales_wall_time_by_the_probe() {
        let w = workload::by_name("solo-light").unwrap();
        let mut run = simulate(&w, 1, Kernel::Event, 1_000, &Instrument::default());
        run.run_ns = 300;
        assert_eq!(reference_ns(&run, REF_PROBE_NS), 300.0);
        assert_eq!(reference_ns(&run, 2.0 * REF_PROBE_NS), 150.0);
    }
}
