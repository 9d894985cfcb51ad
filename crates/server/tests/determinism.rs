//! Determinism contract for the serving runtime: virtual-time runs
//! must be **byte-identical** across executions for a fixed seed, even
//! with dynamic batching, GPU offload, and the online controller all
//! engaged. Every offline-vs-online comparison rests on this.
//!
//! The per-query / in-flight bookkeeping in `node.rs`, `server.rs`,
//! and `cluster.rs` is keyed by `BTreeMap` (`clippy.toml` bans the hash
//! collections workspace-wide); these tests also guard that no future
//! map change perturbs a report.

use drs_core::{ClusterTopology, NodeSpec, RoutingPolicy, SchedulerPolicy};
use drs_models::zoo;
use drs_platform::{CpuPlatform, GpuPlatform};
use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution};
use drs_server::{Cluster, ControllerConfig, Serve, Server, ServerOptions};

fn smoke_run(seed: u64) -> String {
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::diurnal(600.0, 0.3, 10.0),
        SizeDistribution::production(),
        seed,
    )
    .take(800)
    .collect();
    let opts = ServerOptions::new(40, SchedulerPolicy::with_gpu(4, 400))
        .with_controller(ControllerConfig::smoke());
    let server = Server::new(
        &zoo::dlrm_rmc1(),
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        opts,
    );
    // Debug rendering covers every field, including the raw latency
    // vector and both controller trajectories: any drift shows up.
    format!("{:?}", server.serve(&queries, Serve::virtual_time()))
}

#[test]
fn server_report_is_byte_identical_per_seed() {
    assert_eq!(smoke_run(13), smoke_run(13), "same seed must reproduce");
    assert_ne!(smoke_run(13), smoke_run(14), "different seeds must differ");
}

/// A heterogeneous cluster behind a *sampled* routing policy
/// (power-of-two-choices) with per-node online controllers — the most
/// nondeterminism-prone configuration we have — must still reproduce
/// byte-for-byte per seed: the router's RNG is seeded, and every tie
/// breaks by `NodeId`.
fn cluster_run(seed: u64) -> String {
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::diurnal(1_500.0, 0.3, 8.0),
        SizeDistribution::production(),
        seed,
    )
    .take(1_000)
    .collect();
    let mut opts = ServerOptions::new(40, SchedulerPolicy::with_gpu(32, 300))
        .with_controller(ControllerConfig::smoke());
    opts.seed = seed;
    let cluster = Cluster::new(
        &zoo::dlrm_rmc1(),
        ClusterTopology::new(vec![
            NodeSpec::with_gpu(CpuPlatform::skylake(), GpuPlatform::gtx_1080ti()),
            NodeSpec::cpu_only(CpuPlatform::broadwell()),
            NodeSpec::cpu_only(CpuPlatform::skylake()),
        ]),
        RoutingPolicy::PowerOfTwoChoices { d: 2 },
        opts,
    );
    format!("{:?}", cluster.serve(&queries, Serve::virtual_time()))
}

#[test]
fn cluster_report_is_byte_identical_per_seed() {
    assert_eq!(cluster_run(3), cluster_run(3), "same seed must reproduce");
    assert_ne!(
        cluster_run(3),
        cluster_run(4),
        "different seeds must differ"
    );
}

#[test]
fn cpu_only_fixed_policy_is_byte_identical() {
    let run = || {
        let queries: Vec<_> = QueryGenerator::new(
            ArrivalProcess::poisson(900.0),
            SizeDistribution::production(),
            5,
        )
        .take(600)
        .collect();
        let server = Server::new(
            &zoo::ncf(),
            CpuPlatform::skylake(),
            None,
            ServerOptions::new(40, SchedulerPolicy::cpu_only(32)),
        );
        format!("{:?}", server.serve(&queries, Serve::virtual_time()))
    };
    assert_eq!(run(), run());
}
