//! Prints the deterministic `RunStats` digests of the default address
//! mapping + identity page mapper for every scheduler policy under both
//! kernels — the golden values hardcoded in `tests/tests/mapping.rs`
//! (the mapping subsystem must keep the default path bit-identical to
//! the PR-4 seed). Regenerate with
//! `cargo run --release --example mapping_golden_digest` whenever a PR
//! *intentionally* changes default-mapping behavior, and say so in the PR.

use figaro_sim::{ConfigKind, Kernel, SchedPolicyKind, System, SystemConfig};
use figaro_workloads::{generate_trace, profile_by_name, Trace};

fn main() {
    let policies = [
        SchedPolicyKind::FrFcfs,
        SchedPolicyKind::Fcfs,
        SchedPolicyKind::FrFcfsCap { cap: 4 },
        SchedPolicyKind::WriteDrain { high: 48, low: 8 },
    ];
    for kind in [ConfigKind::Base, ConfigKind::FigCacheFast] {
        for sched in policies {
            for kernel in [Kernel::Reference, Kernel::Event] {
                for cores in [1usize, 4] {
                    let apps = ["mcf", "lbm", "zeusmp", "libquantum"];
                    let traces: Vec<Trace> = (0..cores)
                        .map(|i| {
                            let p = profile_by_name(apps[i % apps.len()]).unwrap();
                            generate_trace(&p, 8_000, 7 + i as u64)
                        })
                        .collect();
                    let insts = 12_000u64;
                    let cfg = SystemConfig { kernel, ..SystemConfig::paper(cores, kind.clone()) }
                        .with_sched(sched);
                    let mut sys = System::new(cfg, traces, &vec![insts; cores]);
                    let s = sys.run(insts * 400);
                    println!(
                        "(\"{}\", \"{}\", \"{}\", {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}),",
                        kind.label(),
                        sched.label(),
                        kernel.label(),
                        cores,
                        s.cpu_cycles,
                        s.mc.row_hits,
                        s.mc.row_misses,
                        s.mc.row_conflicts,
                        s.mc.reads_served,
                        s.mc.writes_served,
                        s.mc.forwarded,
                        s.mc.read_latency_sum,
                        s.dram.relocs,
                        s.dram.refreshes,
                        s.cache.insertions,
                    );
                }
            }
        }
    }
}
