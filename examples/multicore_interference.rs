//! Multicore interference: the paper's core multiprogrammed scenario.
//!
//! Eight applications share four DDR4 channels; their interleaved request
//! streams destroy each other's row-buffer locality (bank conflicts), and
//! FIGCache recovers it by gathering each bank's hot row segments into a
//! few in-DRAM cache rows. This example runs one mix from each intensity
//! category under `Base` and `FIGCache-Fast` and reports weighted speedup,
//! row-buffer hit rate and in-DRAM cache behaviour.
//!
//! Run with
//! `cargo run -p figaro-examples --bin multicore_interference --release`.

use figaro_sim::metrics::weighted_speedup;
use figaro_sim::runner::Scale;
use figaro_sim::{ConfigKind, EnvConfig, Runner};
use figaro_workloads::{eight_core_mixes, MixCategory};

fn main() -> Result<(), String> {
    let runner = EnvConfig::from_env()?.apply(Runner::uncached(Scale::Tiny));
    let mixes = eight_core_mixes();
    println!("eight-core mixes, Base vs FIGCache-Fast (tiny scale)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>12} {:>12}",
        "mix", "WS(Base)", "WS(FIG)", "speedup", "rowhit B->F", "cache hit"
    );
    for category in MixCategory::all() {
        let mix = mixes.iter().find(|m| m.category == category).expect("category populated");
        let alone: Vec<f64> = mix.apps.iter().map(|p| runner.alone_ipc(p)).collect();
        let base = runner.run_mix(mix, ConfigKind::Base);
        let fig = runner.run_mix(mix, ConfigKind::FigCacheFast);
        let ws_base = weighted_speedup(&base.ipc, &alone);
        let ws_fig = weighted_speedup(&fig.ipc, &alone);
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>9.3}x {:>5.1}%->{:>5.1}% {:>11.1}%",
            mix.name,
            ws_base,
            ws_fig,
            ws_fig / ws_base,
            base.row_hit_rate * 100.0,
            fig.row_hit_rate * 100.0,
            fig.cache_hit_rate * 100.0,
        );
    }
    println!(
        "\nThe speedup grows with the memory-intensive fraction — interference-\n\
         induced bank conflicts are exactly what segment co-location removes\n\
         (paper Fig. 8: +3.9% at 25% intensity up to +27.1% at 100%)."
    );
    Ok(())
}
