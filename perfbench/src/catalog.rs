//! Every metric the benchmark reports, with its unit and better
//! direction. `BENCHMARK.json` lists the same metrics in the same order;
//! a test keeps the two in step.

use crate::record::{Better, Metric};
use Better::{Higher, Lower};

/// Metrics of a `--trace 0` run: what a user of the simulator sees.
pub const END_TO_END: &[(&str, &str, Better)] = &[
    ("sim_cycles_per_s", "cycles/s", Higher),
    ("sim_insts_per_s", "insts/s", Higher),
    ("setup_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("sim_ipc", "insts/cycle", Higher),
    ("read_lat_mean", "bus_cycles", Lower),
    ("read_lat_p99", "bus_cycles", Lower),
    ("energy_per_inst", "nJ/inst", Lower),
];

/// Metrics of a `--trace 1` run, grouped by layer (crate).
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("sim.memory_share", "ratio", Lower),
    ("sim.cores_share", "ratio", Lower),
    ("sim.executed_steps", "count", Lower),
    ("sim.skip_ratio", "ratio", Higher),
    ("sim.setup_ns", "ns", Lower),
    ("sim.trace_overhead", "ratio", Lower),
    ("workloads.next_op.calls", "count", Lower),
    ("workloads.next_op.ns_per_call", "ns", Lower),
    ("workloads.next_op.share", "ratio", Lower),
    ("workloads.trace_overhead", "ratio", Lower),
    ("cpu.retired_insts", "count", Higher),
    ("cpu.mem_ops", "count", Higher),
    ("cpu.long_loads", "count", Lower),
    ("cpu.window_full_cycles", "cycles", Lower),
    ("cpu.stall_cycles", "cycles", Lower),
    ("cpu.mshr_stalls", "count", Lower),
    ("cpu.mshr_merges", "count", Higher),
    ("cpu.llc_miss_rate", "ratio", Lower),
    ("cpu.hierarchy.access.calls", "count", Lower),
    ("cpu.hierarchy.access.ns_per_call", "ns", Lower),
    ("cpu.hierarchy.on_completion.ns_per_call", "ns", Lower),
    ("memctrl.reads_served", "count", Higher),
    ("memctrl.writes_served", "count", Higher),
    ("memctrl.forwarded", "count", Higher),
    ("memctrl.row_hit_rate", "ratio", Higher),
    ("memctrl.read_q_peak", "entries", Lower),
    ("memctrl.write_q_peak", "entries", Lower),
    ("memctrl.enqueue.calls", "count", Lower),
    ("memctrl.enqueue.ns_per_call", "ns", Lower),
    ("memctrl.tick.calls", "count", Lower),
    ("memctrl.tick.ns_per_call", "ns", Lower),
    ("memctrl.next_event_at.calls", "count", Lower),
    ("memctrl.next_event_at.ns_per_call", "ns", Lower),
    ("memctrl.drain_completions_into.calls", "count", Lower),
    ("memctrl.drain_completions_into.ns_per_call", "ns", Lower),
    ("dram.activates", "count", Lower),
    ("dram.activates_fast", "count", Higher),
    ("dram.reads", "count", Higher),
    ("dram.writes", "count", Higher),
    ("dram.precharges", "count", Lower),
    ("dram.refreshes", "count", Lower),
    ("dram.relocs", "count", Lower),
    ("dram.earliest_issue.ns_per_call", "ns", Lower),
    ("dram.issue.ns_per_call", "ns", Lower),
    ("core.lookups", "count", Higher),
    ("core.hit_rate", "ratio", Higher),
    ("core.insertions", "count", Lower),
    ("core.insertions_skipped", "count", Lower),
    ("core.evictions", "count", Lower),
    ("core.blocks_relocated", "count", Lower),
    ("core.on_request.calls", "count", Lower),
    ("core.on_request.ns_per_call", "ns", Lower),
    ("core.take_job.calls", "count", Lower),
    ("core.take_job.ns_per_call", "ns", Lower),
    ("core.on_job_complete.calls", "count", Lower),
    ("core.on_job_complete.ns_per_call", "ns", Lower),
    ("energy.dram_nj", "nJ", Lower),
    ("energy.total_nj", "nJ", Lower),
];

/// The catalogued metric `name` with value `value`.
///
/// # Panics
///
/// Panics if `name` is not in the catalog (a bug in the benchmark).
pub fn metric(name: &str, value: f64) -> Metric {
    let &(_, unit, better) = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalog"));
    Metric::new(name, unit, better, value)
}

/// Puts `metrics` in catalog order and names every catalogued metric of
/// the run's kind that is missing (a run must report all of them).
pub fn complete(metrics: &mut [Metric], trace: bool) -> Vec<String> {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let rank = |name: &str| list.iter().position(|(n, _, _)| *n == name).unwrap_or(usize::MAX);
    metrics.sort_by_key(|m| rank(&m.name));
    list.iter()
        .filter(|(n, _, _)| !metrics.iter().any(|m| m.name == *n))
        .map(|(n, _, _)| format!("metric `{n}` was not measured"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{parse, valid_name, valid_unit, Json};

    #[test]
    fn catalog_entries_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _, _)| *n).collect();
        for (i, (name, unit, _)) in END_TO_END.iter().chain(PER_LAYER).enumerate() {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            assert!(!all[..i].contains(name), "{name} listed twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` at the repository root (the package's parent,
    /// read relative to the package directory `cargo test` runs in) lists
    /// exactly the catalog and the workloads, in order.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("read ../BENCHMARK.json");
        let Json::Obj(top) = parse(&text) else { panic!("BENCHMARK.json is not an object") };
        let field = |k: &str| top.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(items)) = field(key) else { panic!("no `{key}` array") };
            let listed: Vec<(String, String, String)> = items
                .iter()
                .map(|item| {
                    let Json::Obj(f) = item else { panic!("{key} entry is not an object") };
                    let s = |k: &str| match f.iter().find(|(n, _)| n == k) {
                        Some((_, Json::Str(v))) => v.clone(),
                        _ => panic!("{key} entry lacks `{k}`"),
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let want: Vec<(String, String, String)> = list
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.label().to_string()))
                .collect();
            assert_eq!(listed, want, "`{key}` differs from the catalog");
        }
        let Some(Json::Arr(workloads)) = field("workloads") else { panic!("no workloads") };
        let listed: Vec<(Json, Json)> = workloads
            .iter()
            .map(|w| {
                let Json::Obj(f) = w else { panic!("workload is not an object") };
                let get = |k: &str| f.iter().find(|(n, _)| n == k).expect(k).1.clone();
                (get("name"), get("why"))
            })
            .collect();
        let want: Vec<(Json, Json)> = crate::workload::NAMES
            .iter()
            .map(|n| {
                let w = crate::workload::by_name(n).expect("named workload exists");
                (Json::str(w.name), Json::str(w.why))
            })
            .collect();
        assert_eq!(listed, want, "`workloads` differs from the code");
    }

    #[test]
    fn missing_metrics_are_named_and_order_follows_the_catalog() {
        let mut m = vec![metric("sim_ipc", 1.0), metric("sim_cycles_per_s", 2.0)];
        let missing = complete(&mut m, false);
        assert_eq!(m[0].name, "sim_cycles_per_s");
        assert_eq!(missing.len(), END_TO_END.len() - 2);
        assert!(missing.iter().any(|p| p.contains("setup_s")));
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn uncatalogued_metric_is_refused() {
        let _ = metric("made.up", 1.0);
    }
}
