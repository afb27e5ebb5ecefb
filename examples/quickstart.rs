//! Quickstart: the FIGARO substrate and FIGCache in three acts.
//!
//! 1. **Functional**: reproduce the paper's Figure 4 — an unaligned
//!    one-column copy between subarrays through the global row buffer —
//!    with the timing engine checking every command and the data store
//!    checking every byte.
//! 2. **Engine**: watch FIGCache turn a miss into a relocation and the
//!    next access into an in-DRAM cache hit.
//! 3. **System**: run a small end-to-end simulation of `mcf` under `Base`
//!    and `FIGCache-Fast` and print the speedup.
//!
//! Run with `cargo run -p figaro-examples --bin quickstart --release`.

use figaro_core::{CacheEngine, FigCacheConfig, FigCacheEngine};
use figaro_dram::{BankAddr, DataStore, DramChannel, DramCommand, DramConfig, SubarrayLayout};
use figaro_sim::runner::Scale;
use figaro_sim::{ConfigKind, EnvConfig, Runner};
use figaro_workloads::profile_by_name;

fn act1_functional_reloc() {
    println!("=== Act 1: FIGARO moves one column between subarrays (paper Fig. 4) ===");
    let config = DramConfig::ddr4_paper_default();
    let mut channel = DramChannel::new(&config);
    let mut data = DataStore::new(&config.geometry);
    let bank = BankAddr { rank: 0, bankgroup: 0, bank: 0 };
    let layout = config.layout;

    // Source row 7 lives in subarray 0; destination row sits in subarray 5.
    let src_row = 7;
    let dst_row = 5 * 512 + 9;
    let src: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
    data.store_row(0, src_row, &src);

    // ACTIVATE the source row, wait for full restoration, then RELOC
    // column 3 into column 1 of the destination subarray's row buffer.
    let mut now = 0;
    channel.issue(bank, &DramCommand::Activate { row: src_row }, now);
    data.activate(&layout, 0, src_row);
    let reloc = DramCommand::Reloc { src_col: 3, dst_subarray: 5, dst_col: 1 };
    now = channel.earliest_issue(bank, &reloc, now);
    println!("RELOC legal {now} bus cycles after ACTIVATE (tRAS = full restoration)");
    channel.issue(bank, &reloc, now);
    data.reloc(&layout, 0, src_row, 3, 5, 1);

    // The merge activation commits the column into the destination row.
    let merge = DramCommand::ActivateMerge { row: dst_row };
    now = channel.earliest_issue(bank, &merge, now).max(now + 1);
    channel.issue(bank, &merge, now);
    data.activate_merge(&layout, 0, dst_row);

    let moved = data.block(0, dst_row, 1);
    assert_eq!(moved, src[3 * 64..4 * 64].to_vec(), "unaligned copy must move source column 3");
    let untouched = data.block(0, dst_row, 0);
    assert_eq!(untouched, vec![0u8; 64], "other destination columns stay untouched");
    println!("column 3 of row {src_row} now sits in column 1 of row {dst_row} — bytes verified\n");
}

fn act2_figcache_engine() {
    println!("=== Act 2: FIGCache — miss, relocate, hit ===");
    let dram = DramConfig {
        layout: SubarrayLayout::homogeneous(64, 512).with_appended_fast(2, 32),
        ..DramConfig::ddr4_paper_default()
    };
    let mut engine = FigCacheEngine::new(&dram, &FigCacheConfig::paper_fast(), 16);

    let miss = engine.on_request(0, 100, 5, false, None, 0);
    println!(
        "first access to row 100: served from row {} (cache hit: {})",
        miss.row, miss.cache_hit
    );
    let mut job = engine.take_job(0, 0).expect("a relocation job was scheduled");
    let mut open = Some(100);
    while let Some(cmd) = job.peek(open, false) {
        println!("  relocation step: {cmd:?}");
        if let DramCommand::Activate { row } = cmd {
            open = Some(row);
        }
        job.on_issued(&cmd);
    }
    engine.on_job_complete(0, job.id, 100);
    let hit = engine.on_request(0, 100, 5, false, None, 200);
    println!(
        "second access: served from cache row {} (cache hit: {}) — a fast-subarray row\n",
        hit.row, hit.cache_hit
    );
    assert!(hit.cache_hit);
}

fn act3_end_to_end(env: &EnvConfig) {
    println!("=== Act 3: end-to-end speedup on mcf (tiny scale) ===");
    let runner = env.apply(Runner::uncached(Scale::Tiny));
    let mcf = profile_by_name("mcf").expect("mcf profile exists");
    let base = runner.run_single(&mcf, ConfigKind::Base);
    let fig = runner.run_single(&mcf, ConfigKind::FigCacheFast);
    println!(
        "Base          : IPC {:.4}, row-buffer hit rate {:.1}%",
        base.ipc[0],
        base.row_hit_rate * 100.0
    );
    println!(
        "FIGCache-Fast : IPC {:.4}, row-buffer hit rate {:.1}%, cache hit rate {:.1}%, {} RELOCs",
        fig.ipc[0],
        fig.row_hit_rate * 100.0,
        fig.cache_hit_rate * 100.0,
        fig.relocs
    );
    println!("speedup       : {:.3}x", fig.ipc[0] / base.ipc[0]);
}

fn main() -> Result<(), String> {
    let env = EnvConfig::from_env()?;
    act1_functional_reloc();
    act2_figcache_engine();
    act3_end_to_end(&env);
    Ok(())
}
