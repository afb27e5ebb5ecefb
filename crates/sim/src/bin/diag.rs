//! Diagnostic runner: `diag <app> <config> [scale]` prints the full
//! statistics of one single-core run — the tool for understanding *why*
//! a configuration behaves the way it does — and
//! `diag snapshot <file.fgsn>` inspects a warm-state snapshot without
//! restoring it.
//!
//! Bad arguments print usage and exit nonzero (no panics): the binary is
//! meant to sit in shell loops. The memory-controller scheduling policy
//! follows `FIGARO_SCHED` like every other run.

use figaro_sim::config::KERNEL_CHOICES;
use figaro_sim::runner::Scale;
use figaro_sim::{snapshot, ConfigKind, EnvConfig, RunSpec, Runner};
use figaro_workloads::profile_by_name;

fn usage() -> ! {
    eprintln!(
        "usage: diag [<app> [<config> [<scale>]]]\n\
         \x20      diag snapshot <file.fgsn>\n\
         \x20      diag timeline <series> [<app> [<config> [<scale>]]]\n\
         \x20      diag trace <file.json>\n\
         \n\
         app     a workload profile name (default: mcf)\n\
         config  base | lisa | slow | fast | ideal | ll (default: fast)\n\
         scale   tiny | small | full (default: small)\n\
         \n\
         `diag snapshot` prints an FGSN warm-state snapshot's header:\n\
         format version, config hash, CPU cycle, per-core progress and\n\
         per-channel queue occupancy.\n\
         `diag timeline` runs the app with the interval sampler on and\n\
         renders the chosen series (e.g. row_hits, ch0.read_q, mshr) as\n\
         an ASCII sparkline; FIGARO_STATS_INTERVAL overrides the stride.\n\
         `diag trace` validates a Chrome trace-event JSON file (ours or\n\
         foreign) and summarizes events per category and span balance.\n\
         \n\
         env (result-affecting):\n\
         FIGARO_SCHED=frfcfs|fcfs|frfcfs-cap<N>|wdrain<H>-<L> picks the\n\
         memory-controller scheduling policy,\n\
         FIGARO_KERNEL={KERNEL_CHOICES} the simulation\n\
         kernel (sampled alternates W detailed cycles with S\n\
         fast-forwarded cycles — approximate, its results key separately),\n\
         FIGARO_MAP=paper|chfirst|rowint[-xor] the DRAM address mapping,\n\
         FIGARO_PAGEMAP=ident|rand<seed>|color<N> the OS page-frame\n\
         placement,\n\
         FIGARO_LOAD=fixed:G|poisson:G|bursty:ON,OPS,IDLE replaces the\n\
         app's own issue gaps with an open-loop arrival process,\n\
         FIGARO_WARMUP=<N> warm-starts scenario runs: the first N CPU\n\
         cycles are simulated once, snapshotted, and every run sharing\n\
         the warm prefix resumes from the snapshot (bit-identical to an\n\
         uninterrupted run; warmed results key separately),\n\
         FIGARO_SCALE=tiny|small|full the per-core instruction target in\n\
         the sweep binaries\n\
         \n\
         env (never affects results):\n\
         FIGARO_SNAPSHOT_DIR=<dir> where FGSN warm-state snapshots live\n\
         (default: <cache_dir>/snapshots; resumption is bit-identical, so\n\
         the location never changes results),\n\
         FIGARO_STATS_INTERVAL=<cycles> samples the interval time-series\n\
         (per-channel row hits/misses/conflicts, queue depths, FIGCache\n\
         activity, per-core IPC/MSHR) every N CPU cycles,\n\
         FIGARO_TRACE=<path>[:filter] writes a Chrome trace-event JSON\n\
         (relocation jobs, write drains, refreshes, sampling windows;\n\
         filter is a comma list of reloc,drain,refresh,window,warm\n\
         or `all`; load the file in Perfetto),\n\
         FIGARO_PROFILE=1 prints the kernel self-profile (wall-clock\n\
         time per component) after the run,\n\
         FIGARO_FULL_SWEEPS=1 runs Figs. 12-15 over all 20 profiles,\n\
         FIGARO_SLOW_TESTS=1 enables the ignored full-scale tests,\n\
         FIGARO_LONG_OPS=<N> ops per core in the long streaming test,\n\
         FIGARO_LONG_RUN=<N> ops per core in the streaming bench,\n\
         FIGARO_MC_ITERS=<N> iterations of the controller microbench."
    );
    std::process::exit(2)
}

/// `diag snapshot <file>`: print the FGSN header without restoring.
fn snapshot_info(path: &str) -> ! {
    let h = match snapshot::read_header_from(std::path::Path::new(path)) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("diag snapshot: cannot read `{path}`: {e}");
            std::process::exit(1);
        }
    };
    println!("file              : {path}");
    println!("format            : FGSN v{}", h.version);
    println!("config hash       : {:016x}", h.config_hash);
    println!("cpu cycle         : {}", h.cpu_cycle);
    println!("payload words     : {}", h.payload_words);
    println!("cores             : {}", h.cores.len());
    for (i, c) in h.cores.iter().enumerate() {
        println!("  core {i:<2}         : ops_pulled {} window {}", c.ops_pulled, c.window_len);
    }
    println!("channels          : {}", h.shards.len());
    for (i, s) in h.shards.iter().enumerate() {
        println!(
            "  channel {i:<2}      : rq {} wq {} backlog {}",
            s.read_queue, s.write_queue, s.backlog
        );
    }
    std::process::exit(0)
}

/// `diag trace <file>`: validate and summarize a Chrome trace file.
fn trace_info(path: &str) -> ! {
    let s = match figaro_telemetry::trace::summarize_file(std::path::Path::new(path)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("diag trace: {path}: {e}");
            std::process::exit(1);
        }
    };
    println!("file              : {path}");
    println!("events            : {}", s.events);
    println!("  complete spans  : {}", s.complete);
    println!("  instants        : {}", s.instant);
    if s.begins + s.ends + s.other_ph > 0 {
        println!("  B/E/other ph    : {} / {} / {}", s.begins, s.ends, s.other_ph);
    }
    println!("max ts            : {} cpu cycles", s.max_ts);
    for (cat, n) in &s.by_cat {
        println!("  cat {cat:<13} : {n}");
    }
    if s.balanced() {
        println!("span balance      : ok");
        std::process::exit(0)
    }
    println!("span balance      : UNBALANCED ({} begins, {} ends)", s.begins, s.ends);
    std::process::exit(1)
}

/// Max-pools a series down to at most `width` sparkline buckets so long
/// runs stay one terminal line (peaks survive pooling; troughs do not).
fn pooled(vals: impl ExactSizeIterator<Item = u64>, width: usize) -> Vec<u64> {
    let n = vals.len();
    let per = n.div_ceil(width).max(1);
    let mut out = Vec::with_capacity(n.div_ceil(per));
    let mut bucket = 0u64;
    for (i, v) in vals.enumerate() {
        bucket = bucket.max(v);
        if (i + 1) % per == 0 || i + 1 == n {
            out.push(bucket);
            bucket = 0;
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).is_some_and(|a| a == "snapshot") {
        match args.get(2) {
            Some(path) if args.len() == 3 => snapshot_info(path),
            _ => usage(),
        }
    }
    if args.get(1).is_some_and(|a| a == "trace") {
        match args.get(2) {
            Some(path) if args.len() == 3 => trace_info(path),
            _ => usage(),
        }
    }
    let mut pos: Vec<String> = args[1..].to_vec();
    let mut timeline_col = None;
    if pos.first().is_some_and(|a| a == "timeline") {
        pos.remove(0);
        if pos.is_empty() {
            usage();
        }
        timeline_col = Some(pos.remove(0));
    }
    if pos.len() > 3 || pos.iter().any(|a| a == "-h" || a == "--help") {
        usage();
    }
    let app = pos.first().map_or("mcf", String::as_str);
    let Some(kind) = ConfigKind::from_name(pos.get(1).map_or("fast", String::as_str)) else {
        eprintln!("unknown config `{}`", pos[1]);
        usage();
    };
    let scale = pos.get(2).map_or(Some(Scale::Small), |s| Scale::parse(s)).unwrap_or_else(|| {
        eprintln!("unknown scale `{}`", pos[2]);
        usage()
    });
    let Some(profile) = profile_by_name(app) else {
        eprintln!("unknown app `{app}`");
        usage();
    };
    let mut env = EnvConfig::from_env().unwrap_or_else(|e| {
        eprintln!("diag: {e}");
        std::process::exit(2)
    });
    let runner = env.apply(Runner::uncached(scale));
    // Open-loop pacing (FIGARO_LOAD) wraps the trace like scenario runs do.
    let spec = RunSpec { arrival: env.arrival, ..runner.single_spec(&profile, kind.clone()) };
    let (insts, cfg) = (spec.targets[0], &spec.config);
    let mut sys = spec.build();
    if timeline_col.is_some() {
        // The timeline needs the sampler even when the env did not ask
        // for it; FIGARO_STATS_INTERVAL still sets the stride.
        env.telemetry.interval.get_or_insert(10_000);
    }
    env.instrument(&mut sys);
    let s = sys.run(spec.max_cycles);
    if let Some(col) = timeline_col {
        let Some(series) = sys.telemetry_series() else {
            eprintln!("diag timeline: no samples collected (run shorter than the interval?)");
            std::process::exit(1);
        };
        let Some(idx) = series.col_index(&col) else {
            eprintln!("diag timeline: unknown series `{col}`; available:");
            for c in &series.cols {
                eprintln!("  {}", c.name);
            }
            std::process::exit(1);
        };
        let c = &series.cols[idx];
        println!(
            "series {} ({:?}) — {} samples ({} evicted), cycles {}..{}",
            c.name,
            c.kind,
            series.len(),
            series.dropped,
            series.cycles.front().copied().unwrap_or(0),
            series.cycles.back().copied().unwrap_or(0),
        );
        println!(
            "{}",
            figaro_telemetry::series::sparkline(pooled(c.vals.iter().copied(), 72).into_iter())
        );
        let trough = if c.trough == u64::MAX { 0 } else { c.trough };
        println!("peak {} trough {trough} total {}", c.peak, c.total);
        std::process::exit(0)
    }

    println!(
        "app={app} config={} insts={insts} kernel={} sched={} map={} pagemap={}",
        kind.label(),
        cfg.kernel.label(),
        cfg.mc.sched.label(),
        cfg.mc.map.label(),
        cfg.page_map.label()
    );
    println!("cycles            : {}", s.cpu_cycles);
    println!("IPC               : {:.4}", s.ipc(0));
    println!("MPKI              : {:.2}", s.mpki(0));
    println!("LLC hit rate      : {:.3}", s.hierarchy.llc.hit_rate());
    println!("DRAM reads/writes : {} / {}", s.mc.reads_served, s.mc.writes_served);
    println!("avg read latency  : {:.1} bus cycles", s.mc.avg_read_latency());
    let h = &s.mc.read_latency_hist;
    println!(
        "read latency tail : p50 {} p95 {} p99 {} p999 {} max {} bus cycles",
        h.percentile(0.50),
        h.percentile(0.95),
        h.percentile(0.99),
        h.percentile(0.999),
        h.max()
    );
    println!(
        "row hit/miss/conf : {} / {} / {}  (hit rate {:.3})",
        s.mc.row_hits,
        s.mc.row_misses,
        s.mc.row_conflicts,
        s.row_hit_rate()
    );
    for (i, ch) in s.per_channel.iter().enumerate() {
        println!(
            "  ch{i}: hit rate {:.3}  rq peak {}  wq peak {}  r/w {} / {}",
            ch.row_hit_rate(),
            ch.read_q_peak,
            ch.write_q_peak,
            ch.reads_served,
            ch.writes_served
        );
    }
    println!(
        "acts slow/fast    : {} / {}   merges {} / {}",
        s.dram.activates, s.dram.activates_fast, s.dram.merges, s.dram.merges_fast
    );
    println!(
        "relocs / clones   : {} / {} (hops {})",
        s.dram.relocs, s.dram.lisa_clones, s.dram.lisa_hops
    );
    println!(
        "cache: lookups {} hits {} (bypassed {}) miss {} hitrate {:.3}",
        s.cache.lookups,
        s.cache.hits,
        s.cache.hits_bypassed,
        s.cache.misses,
        s.cache_hit_rate()
    );
    println!(
        "cache: ins {} skip {} cancel {} evc {} evd {}",
        s.cache.insertions,
        s.cache.insertions_skipped,
        s.cache.insertions_cancelled,
        s.cache.evictions_clean,
        s.cache.evictions_dirty
    );
    println!("bank_open_cycles  : {}", s.dram.bank_open_cycles);
    println!(
        "energy nJ         : cpu {:.0} l1l2 {:.0} llc {:.0} off {:.0} dram {:.0}",
        s.energy.cpu, s.energy.l1l2, s.energy.llc, s.energy.offchip, s.energy.dram
    );
    if let Some(p) = sys.profile() {
        println!("--- kernel self-profile (FIGARO_PROFILE=1, wall clock; result-neutral) ---");
        for line in p.report() {
            println!("{line}");
        }
    }
}
