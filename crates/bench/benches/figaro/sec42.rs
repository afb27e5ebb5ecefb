//! Section 4.2: the RELOC latency analysis — Monte-Carlo circuit
//! simulation, guardbanding, the 63.5 ns one-column relocation total, the
//! 0.03 µJ relocation energy estimate, and the distance-(in)dependence
//! comparison against hop-based substrates.

use figaro_dram::TimingParams;
use figaro_energy::DramEnergyModel;
use figaro_spice::{distance_sweep, run_monte_carlo, RelocCircuit};

/// Runs the entry.
pub fn run() {
    let iterations = figaro_bench::env().mc_iters.unwrap_or(20_000);
    println!("--- Section 4.2: RELOC latency and energy ---");
    let circuit = RelocCircuit::paper_default();
    let mc = run_monte_carlo(&circuit, iterations, 0.05, 0xF16A);
    println!("Monte-Carlo iterations          : {}", mc.iterations);
    println!("all iterations latched correctly: {}", mc.all_correct);
    println!("mean RELOC settle latency       : {:.3} ns", mc.mean_ns);
    println!("worst-case RELOC settle latency : {:.3} ns   (paper: 0.57 ns)", mc.worst_ns);
    println!("+43% guardband                  : {:.3} ns   (paper: 1 ns)", mc.guardbanded_ns);

    let t = TimingParams::ddr4_1600();
    let one_col = t.cycles_to_ns(u64::from(t.ras + t.reloc + t.rcd + t.rp));
    println!(
        "one-column relocation (ACT src tRAS + RELOC + ACT dst tRCD + PRE tRP): {one_col:.2} ns   (paper: 63.5 ns)"
    );

    let e = DramEnergyModel::ddr4_1600();
    println!(
        "one-block relocation energy     : {:.1} nJ  (paper estimate: 30 nJ / 0.03 uJ)",
        e.one_block_relocation_nj()
    );

    println!("\ndistance sweep (subarray slots): FIGARO vs hop-based relocation");
    println!("{:>6}  {:>12}  {:>14}", "slots", "FIGARO (ns)", "hop-based (ns)");
    for (d, fig, hop) in distance_sweep(&circuit, 5.0) {
        println!("{d:>6}  {fig:>12.3}  {hop:>14.1}");
    }
    println!("note: paper Sec 4.1 — FIGARO's latency is set by the worst case and is distance-independent; hop-based substrates grow linearly");
}
