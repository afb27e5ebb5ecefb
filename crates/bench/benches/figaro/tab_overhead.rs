//! Section 8.3: hardware overhead — FIGARO's DRAM-side logic, fast
//! subarrays, reserved rows, and the FTS in the memory controller.

use figaro_energy::AreaModel;

/// Runs the entry.
pub fn run() {
    println!("--- Section 8.3: hardware overhead ---");
    let model = AreaModel::paper_default();
    let r = model.paper_report();
    println!("per-subarray additions (22 nm RTL):");
    println!(
        "  column-address MUX : {:>6.1} um^2  {:>5.1} uW",
        model.col_mux_um2, model.col_mux_uw
    );
    println!(
        "  row-address MUX    : {:>6.1} um^2  {:>5.1} uW",
        model.row_mux_um2, model.row_mux_uw
    );
    println!(
        "  row-address latch  : {:>6.1} um^2  {:>5.1} uW",
        model.row_latch_um2, model.row_latch_uw
    );
    println!();
    println!(
        "FIGARO peripheral logic vs chip : {:>6.3} %   (paper: <0.3 %)",
        r.figaro_chip_overhead * 100.0
    );
    println!("FIGARO peripheral power         : {:>6.2} mW", r.figaro_power_mw);
    println!(
        "FIGCache-Fast (2 fast subarrays): {:>6.2} %   (paper: 0.7 %)",
        r.figcache_fast_overhead * 100.0
    );
    println!(
        "LISA-VILLA (16 fast subarrays)  : {:>6.2} %   (paper: 5.6 %)",
        r.lisa_villa_overhead * 100.0
    );
    println!(
        "FIGCache-Slow (64 reserved rows): {:>6.2} %   (paper: 0.2 %)",
        r.figcache_slow_overhead * 100.0
    );
    println!();
    println!("FIGCache tag store (FTS), 16 banks x 512 entries:");
    println!("  tag width   : {} bits (paper: 19 bits incl. spare)", r.fts.tag_bits);
    println!("  entry width : {} bits (paper: 26 bits)", r.fts.entry_bits);
    println!("  storage     : {:.1} KiB (paper: 26.0 kB)", r.fts.total_kib);
    println!(
        "  area        : {:.3} mm^2 (paper: 0.496 mm^2, 1.44% of a 16 MB LLC)",
        r.fts.area_mm2
    );
    println!("  access time : {:.2} ns (paper: 0.11 ns)", r.fts.access_ns);
    println!("  power       : {:.3} mW (paper: 0.187 mW)", r.fts.power_mw);
}
