//! Section 6: RowHammer mitigation. A double-sided-hammer access pattern
//! (alternating rows of one bank) is driven straight into the memory
//! controller; FIGCache gathers the two hot segments into one in-DRAM
//! cache row, collapsing the activate storm that hammers the victim rows
//! in the baseline.

use figaro_core::{FigCacheConfig, FigCacheEngine, NullEngine};
use figaro_dram::{DramConfig, PhysAddr, SubarrayLayout};
use figaro_memctrl::{McConfig, MemoryController, Request};

/// Drives `rounds` alternating accesses to two rows of bank 0 and returns
/// (max per-row activations in a window, total activations).
fn hammer(mut mc: MemoryController, rounds: u64) -> (u32, u64) {
    // Row stride within one bank: 128 columns x 64 B x 16 banks.
    let row_stride = 128 * 64 * 16u64;
    let mut now = 0u64;
    let mut issued = 0u64;
    let mut id = 0u64;
    let mut scratch = Vec::new();
    while issued < rounds * 2 {
        if mc.can_accept(false) {
            let aggressor = issued % 2; // rows 0 and 1 of bank 0
                                        // Walk the 16 columns of segment 0 so every access is a fresh
                                        // block (a cache-line-flush-based attacker).
            let col = (issued / 2) % 16;
            let addr = aggressor * row_stride + col * 64;
            mc.enqueue(
                Request { id, addr: PhysAddr(addr), is_write: false, core: 0, arrival: now },
                now,
            );
            id += 1;
            issued += 1;
        }
        mc.tick(now);
        scratch.clear();
        mc.drain_completions_into(&mut scratch);
        now += 1;
    }
    while !mc.is_idle() && now < 10_000_000 {
        mc.tick(now);
        scratch.clear();
        mc.drain_completions_into(&mut scratch);
        now += 1;
    }
    let mon = mc.activation_monitor().expect("monitor enabled");
    (mon.max_acts_per_window(), mon.total_acts())
}

/// Runs the entry.
pub fn run() {
    println!("--- Section 6: RowHammer pressure with and without FIGCache ---");
    let rounds = 20_000u64;
    let window = 1_000_000u64; // observation window in bus cycles
    let mc_cfg =
        McConfig { enable_refresh: false, activation_window: Some(window), ..McConfig::default() };

    let base_dram = DramConfig::ddr4_paper_default();
    let base = MemoryController::new(&base_dram, mc_cfg, 0, Box::new(NullEngine::new()));
    let (base_max, base_total) = hammer(base, rounds);

    let fig_dram = DramConfig {
        layout: SubarrayLayout::homogeneous(64, 512).with_appended_fast(2, 32),
        ..DramConfig::ddr4_paper_default()
    };
    let engine = FigCacheEngine::new(&fig_dram, &FigCacheConfig::paper_fast(), 16);
    let fig = MemoryController::new(&fig_dram, mc_cfg, 0, Box::new(engine));
    let (fig_max, fig_total) = hammer(fig, rounds);

    println!("alternating-row reads issued    : {}", rounds * 2);
    println!("Base     : max row ACTs/window = {base_max:>7}   total ACTs = {base_total}");
    println!("FIGCache : max row ACTs/window = {fig_max:>7}   total ACTs = {fig_total}");
    let reduction = f64::from(base_max) / f64::from(fig_max.max(1));
    println!("activation-pressure reduction   : {reduction:.1}x");
    println!(
        "note: paper Sec 6 — FIGCache caches the hammered segments in one cache row, removing the \
         repeated open/close cycling that induces RowHammer bit flips in neighbouring rows"
    );
    assert!(fig_max < base_max, "FIGCache must reduce activation pressure");
}
