//! Simulator bit fence: what `Simulation` and the tuner over it
//! compute, bit for bit.
//!
//! `golden/sim_bits.txt` was dumped from the tree *while `drs-sim`
//! still carried its own discrete-event loop* (`runner.rs`), one commit
//! before `Simulation` became a configuration of `drs-server`'s
//! virtual-time serving loop. The old loop is deleted, not parked under
//! `#[cfg(test)]`, so this file is the only witness that the one loop
//! left computes what the deleted one did: every per-query latency
//! (hashed), every report axis a figure prints, across the whole zoo,
//! both scheduling knobs, loads on both sides of the knee, multi-node
//! and heterogeneous fleets, all three entry points, and the tuner's
//! full hill-climb trajectory.
//!
//! A loop change must never regenerate the file. Only a change to the
//! cost model, the query generator or the RNG stream legitimately moves
//! these bits; `cargo test -p drs-sim --test sim_bits_golden -- --ignored`
//! rewrites it then.

use drs_core::{ClusterConfig, ClusterTopology, NodeSpec, ServingStack};
use drs_models::{zoo, ModelConfig};
use drs_platform::{CpuPlatform, GpuPlatform};
use drs_query::trace::Trace;
use drs_query::{ArrivalProcess, Query, QueryGenerator, SizeDistribution};
use drs_sched::{DeepRecSched, SearchOptions};
use drs_sim::{Report, RunOptions, SchedulerPolicy, Simulation};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/sim_bits.txt");
const BATCHES: [u32; 6] = [1, 8, 25, 64, 256, 1024];

/// Offered loads `(under, over)`, QPS: about 0.3× and 2.5× what one
/// Skylake node sustains CPU-only at batch 64 — so every model is
/// replayed once with idle cores and once with a growing backlog.
fn loads(cfg: &ModelConfig) -> (f64, f64) {
    match cfg.name {
        "DLRM-RMC1" => (300.0, 2_500.0),
        "DLRM-RMC2" => (75.0, 600.0),
        "DLRM-RMC3" => (350.0, 3_000.0),
        "NCF" => (7_000.0, 60_000.0),
        "WND" => (600.0, 5_000.0),
        "MT-WND" => (150.0, 1_300.0),
        "DIN" => (150.0, 1_300.0),
        "DIEN" => (1_500.0, 13_000.0),
        other => panic!("no golden loads for {other}"),
    }
}

fn gen(rate: f64, seed: u64) -> QueryGenerator {
    QueryGenerator::new(
        ArrivalProcess::poisson(rate),
        SizeDistribution::production(),
        seed,
    )
}

fn stream(rate: f64, seed: u64, n: usize) -> Vec<Query> {
    gen(rate, seed).take(n).collect()
}

/// FNV-1a over the bit patterns of `xs`, in order.
fn fnv1a(xs: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One golden line: `label lat=<hash of latencies_ms> tb=<hash of the
/// tenant breakdown> completed <hex bits of each f64 axis>`.
fn line(text: &mut String, label: &str, r: &Report) {
    let tb = fnv1a(r.tenant_breakdowns.iter().flat_map(|b| {
        [
            b.tenant.index() as u64,
            b.completed,
            b.qps.to_bits(),
            b.latency.count as u64,
            b.latency.p50_ms.to_bits(),
            b.latency.p95_ms.to_bits(),
            b.latency.p99_ms.to_bits(),
            b.sla_ms.to_bits(),
        ]
    }));
    write!(
        text,
        "{label} lat={:016x} tb={tb:016x} {}",
        fnv1a(r.latencies_ms.iter().map(|l| l.to_bits())),
        r.completed
    )
    .unwrap();
    for axis in [
        r.offered_qps,
        r.qps,
        r.latency.p50_ms,
        r.latency.p95_ms,
        r.latency.p99_ms,
        r.cpu_utilization,
        r.gpu_utilization,
        r.gpu_work_fraction,
        r.avg_power_w,
        r.qps_per_watt,
        r.window_s,
    ] {
        write!(text, " {:016x}", axis.to_bits()).unwrap();
    }
    text.push('\n');
}

fn policy_label(p: SchedulerPolicy) -> String {
    match p.gpu_threshold {
        Some(t) => format!("b{}+gpu{t}", p.max_batch),
        None => format!("b{}", p.max_batch),
    }
}

/// The whole zoo on one Skylake node: every batch size of the ladder's
/// interesting shapes (unit, residual-leaving, the static baseline's
/// 25, whole-query) × {CPU-only, offload-all, offload above 128} ×
/// {under, over} the knee.
fn single_node(text: &mut String) {
    for cfg in zoo::all() {
        let (under, over) = loads(&cfg);
        for b in BATCHES {
            for policy in [
                SchedulerPolicy::cpu_only(b),
                SchedulerPolicy::with_gpu(b, 0),
                SchedulerPolicy::with_gpu(b, 128),
            ] {
                let cluster = match policy.gpu_threshold {
                    Some(_) => ClusterConfig::skylake_with_gpu(),
                    None => ClusterConfig::single_skylake(),
                };
                let sim = Simulation::new(&cfg, cluster, policy);
                for (load, rate) in [("under", under), ("over", over)] {
                    let r = sim.serve_queries(&stream(rate, 91, 1_000));
                    let label = format!("{} x1 {} {load}", cfg.name, policy_label(policy));
                    line(text, &label, &r);
                }
            }
        }
    }
}

/// Uniform multi-machine fleets — the least-outstanding gauge decides
/// every placement here, in *requests* (parts), not queries.
fn fleets(text: &mut String) {
    for cfg in [zoo::dlrm_rmc1(), zoo::wide_and_deep(), zoo::ncf()] {
        let (under, over) = loads(&cfg);
        for machines in [2usize, 4, 20] {
            for policy in [
                SchedulerPolicy::cpu_only(1),
                SchedulerPolicy::cpu_only(8),
                SchedulerPolicy::cpu_only(64),
                SchedulerPolicy::cpu_only(256),
                SchedulerPolicy::with_gpu(64, 128),
            ] {
                let gpu = policy.gpu_threshold.map(|_| GpuPlatform::gtx_1080ti());
                let cluster = ClusterConfig::cluster(machines, CpuPlatform::skylake(), gpu);
                let sim = Simulation::new(&cfg, cluster, policy);
                for (load, rate) in [("under", under), ("over", over)] {
                    let qs = stream(rate * machines as f64, 17, 1_500);
                    let label = format!("{} x{machines} {} {load}", cfg.name, policy_label(policy));
                    line(text, &label, &sim.serve_queries(&qs));
                }
            }
        }
    }
}

/// Heterogeneous hardware: one Broadwell node, a mixed Skylake +
/// Broadwell fleet, and a mixed fleet with an accelerator on every
/// other node (offloadable queries landing on a GPU-less node split
/// onto its cores).
fn hetero(text: &mut String) {
    let skl = CpuPlatform::skylake();
    let bdw = CpuPlatform::broadwell();
    let gpu = GpuPlatform::gtx_1080ti();
    for cfg in [zoo::dlrm_rmc1(), zoo::wide_and_deep(), zoo::ncf()] {
        let (under, over) = loads(&cfg);
        for b in [8u32, 64, 256] {
            let one_bdw = Simulation::new(
                &cfg,
                ClusterConfig::cluster(1, bdw, None),
                SchedulerPolicy::cpu_only(b),
            );
            let mixed = Simulation::new_heterogeneous(
                &cfg,
                vec![skl, bdw, skl, bdw],
                None,
                SchedulerPolicy::cpu_only(b),
            );
            let half_gpu = Simulation::with_topology(
                &cfg,
                ClusterTopology::new(vec![
                    NodeSpec::with_gpu(skl, gpu),
                    NodeSpec::cpu_only(bdw),
                    NodeSpec::with_gpu(bdw, gpu),
                    NodeSpec::cpu_only(skl),
                ]),
                SchedulerPolicy::with_gpu(b, 100),
            );
            for (load, rate) in [("under", under), ("over", over)] {
                for (shape, sim, nodes) in [
                    ("bdw", &one_bdw, 1.0),
                    ("skl+bdw", &mixed, 4.0),
                    ("half-gpu", &half_gpu, 4.0),
                ] {
                    let qs = stream(rate * nodes * 0.7, 29, 1_200);
                    let label = format!("{} {shape} {} {load}", cfg.name, sim.label());
                    let label = format!("{label} {}", policy_label(sim.policy()));
                    line(text, &label, &sim.serve_queries(&qs));
                }
            }
        }
    }
}

/// The three entry points and the warm-up window: `run` draws from a
/// generator (offered load = its mean rate), `serve_queries` and
/// `ServingStack::serve_trace` take prepared arrivals.
fn entry_points(text: &mut String) {
    for cfg in [zoo::dlrm_rmc1(), zoo::dien()] {
        let (under, over) = loads(&cfg);
        for (policy, cluster) in [
            (
                SchedulerPolicy::cpu_only(64),
                ClusterConfig::cluster(2, CpuPlatform::skylake(), None),
            ),
            (
                SchedulerPolicy::with_gpu(25, 200),
                ClusterConfig::skylake_with_gpu(),
            ),
        ] {
            let sim = Simulation::new(&cfg, cluster, policy);
            for (load, rate) in [("under", under), ("over", over)] {
                let tag = format!(
                    "{} {} {} {load}",
                    cfg.name,
                    sim.label(),
                    policy_label(policy)
                );
                for warmup_frac in [0.0, 0.1] {
                    let opts = RunOptions {
                        num_queries: 1_000,
                        warmup_frac,
                    };
                    let r = sim.run(&mut gen(rate, 53), opts);
                    line(text, &format!("run w{warmup_frac} {tag}"), &r);
                }
                let trace = Trace::record(gen(rate, 53), 1_000);
                let r = ServingStack::serve_trace(&sim, &trace);
                line(text, &format!("serve_trace {tag}"), &r);
                let r = ServingStack::serve_queries(&sim, &stream(rate, 53, 1_000));
                line(text, &format!("serve_queries {tag}"), &r);
            }
        }
    }
    // Degenerate windows: a single query, a stream whose every arrival
    // shares one timestamp, and a run that is all warm-up (no measured
    // completion: the window falls back to the run's whole span).
    let sim = Simulation::new(
        &zoo::ncf(),
        ClusterConfig::single_skylake(),
        SchedulerPolicy::cpu_only(64),
    );
    line(text, "one-query", &sim.serve_queries(&stream(100.0, 3, 1)));
    let burst: Vec<Query> = Trace::from_pairs(&[(0.5, 1000), (0.5, 3), (0.5, 130)])
        .replay()
        .collect();
    line(text, "burst", &sim.serve_queries(&burst));
    let all_warmup = RunOptions {
        num_queries: 40,
        warmup_frac: 1.0,
    };
    line(text, "all-warmup", &sim.run(&mut gen(100.0, 3), all_warmup));
}

/// DeepRecSched over the simulator: the tuned policy, its QPS, and
/// every rung the hill climb visited — the batch ladder (`tune_cpu`)
/// and the threshold ladder on top of it (`tune`) — for the whole zoo.
fn tuner(text: &mut String) {
    let sched = DeepRecSched::new(SearchOptions::quick());
    for cfg in zoo::all() {
        let cpu = sched.tune_cpu(&cfg, ClusterConfig::single_skylake(), cfg.sla_ms);
        let full = sched.tune(&cfg, ClusterConfig::skylake_with_gpu(), cfg.sla_ms);
        for (phase, t) in [("tune_cpu", &cpu), ("tune", &full)] {
            let label = format!("{phase} {}", cfg.name);
            write!(
                text,
                "{label} {} {:016x}",
                policy_label(t.policy),
                t.qps.to_bits()
            )
            .unwrap();
            for (knob, qps) in &t.trajectory {
                write!(text, " {knob}:{:016x}", qps.to_bits()).unwrap();
            }
            text.push('\n');
            if let Some(r) = &t.at_max {
                line(text, &format!("{label} at-max"), r);
            }
        }
    }
}

fn dump() -> String {
    let mut text = String::new();
    single_node(&mut text);
    fleets(&mut text);
    hetero(&mut text);
    entry_points(&mut text);
    tuner(&mut text);
    text
}

#[test]
fn simulation_reproduces_every_golden_bit() {
    let got = dump();
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "line count differs from the golden"
    );
    for (g, w) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(g, w, "simulator bits drifted from the golden");
    }
}

#[test]
#[ignore = "rewrites the golden; see the module docs for when that is legitimate"]
fn regenerate_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_bits.txt");
    std::fs::write(path, dump()).expect("write golden");
}
