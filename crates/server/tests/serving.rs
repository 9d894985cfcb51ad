//! End-to-end serving acceptance: the open-loop runtime on the real
//! engine, trace replay, and backpressure.

use drs_core::{ClusterTopology, RoutingPolicy, SchedulerPolicy, ServingStack};
use drs_models::{zoo, ModelScale, RecModel};
use drs_platform::{CpuPlatform, GpuPlatform};
use drs_query::{ArrivalProcess, Query, QueryGenerator, SizeDistribution, TenantId, Trace};
use drs_server::{Cluster, Serve, Server, ServerOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn tiny_model(cfg: &drs_models::ModelConfig, seed: u64) -> Arc<RecModel> {
    let mut rng = StdRng::seed_from_u64(seed);
    Arc::new(RecModel::instantiate(cfg, ModelScale::tiny(), &mut rng))
}

/// The headline acceptance: an open-loop Poisson stream served end to
/// end on the *real* engine — every query completes, latencies include
/// genuine queueing, and the batching stats show coalescing happened.
#[test]
fn real_engine_serves_open_loop_poisson_stream() {
    let cfg = zoo::ncf();
    let model = tiny_model(&cfg, 3);
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(1_500.0),
        SizeDistribution::production(),
        11,
    )
    .take(80)
    .collect();
    let mut opts = ServerOptions::new(2, SchedulerPolicy::cpu_only(32));
    opts.warmup_frac = 0.0; // count every query
    opts.time_scale = 4.0; // compress pacing for CI
    opts.batching.coalesce_timeout_us = 500.0;
    let server = Server::new(&cfg, CpuPlatform::skylake(), None, opts);
    let report = server.serve(&queries, Serve::real(vec![model]));

    assert_eq!(report.completed, queries.len() as u64);
    assert_eq!(report.latencies_ms.len(), queries.len());
    assert!(report.latency.p95_ms > 0.0);
    assert!(report.qps > 0.0);
    assert!(report.batches > 0);
    let items: u64 = queries.iter().map(|q| q.size as u64).sum();
    assert!(
        report.batches <= items,
        "batches bounded by items: {} vs {items}",
        report.batches
    );
    assert!(
        report.mean_batch_items >= 1.0 && report.mean_batch_items <= 32.0,
        "mean batch {} within [1, max_batch]",
        report.mean_batch_items
    );
}

/// GPU offload on the real serving path: big queries bypass the CPU
/// pool and complete on the virtual-time device.
#[test]
fn real_engine_offloads_large_queries() {
    let cfg = zoo::ncf();
    let model = tiny_model(&cfg, 5);
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(800.0),
        SizeDistribution::production(),
        17,
    )
    .take(60)
    .collect();
    assert!(
        queries.iter().any(|q| q.size > 100),
        "stream carries offloadable queries"
    );
    let mut opts = ServerOptions::new(2, SchedulerPolicy::with_gpu(32, 100));
    opts.warmup_frac = 0.0;
    opts.time_scale = 4.0;
    let server = Server::new(
        &cfg,
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        opts,
    );
    let report = server.serve(&queries, Serve::real(vec![model]));
    assert_eq!(report.completed, queries.len() as u64);
    assert!(
        report.gpu_work_fraction > 0.0,
        "some work ran on the device"
    );
    assert!(report.gpu_utilization > 0.0);
}

/// Trace replay through the serving path: recording a stream and
/// replaying it must reproduce the direct run byte-for-byte, on the
/// single-node server and on a cluster (via the shared `ServingStack`
/// entry point).
#[test]
fn trace_replay_matches_direct_serving() {
    let cfg = zoo::dlrm_rmc1();
    let mk_gen = || {
        QueryGenerator::new(
            ArrivalProcess::poisson(700.0),
            SizeDistribution::production(),
            61,
        )
    };
    let n = 900;
    let queries: Vec<_> = mk_gen().take(n).collect();
    let trace = Trace::record(mk_gen(), n);

    let server = Server::new(
        &cfg,
        CpuPlatform::skylake(),
        None,
        ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
    );
    let direct = server.serve(&queries, Serve::virtual_time());
    let replayed = server.serve_trace(&trace);
    assert_eq!(direct.completed, replayed.completed);
    assert_eq!(direct.latencies_ms, replayed.latencies_ms);

    let cluster = Cluster::new(
        &cfg,
        ClusterTopology::uniform(2, CpuPlatform::skylake(), None),
        RoutingPolicy::LeastOutstanding,
        ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
    );
    let c_direct = cluster.serve(&queries, Serve::virtual_time());
    let c_replayed = ServingStack::serve_trace(&cluster, &trace);
    assert_eq!(c_direct.completed, c_replayed.completed);
    assert_eq!(c_direct.latencies_ms, c_replayed.latencies_ms);
    assert_eq!(c_direct.node_queries, c_replayed.node_queries);
}

/// A recorded trace also drives the *real* serving path end to end
/// (ROADMAP "Trace-driven serving"): every query in the trace
/// completes on the physical worker pool.
#[test]
fn trace_drives_the_real_engine() {
    let cfg = zoo::ncf();
    let model = tiny_model(&cfg, 9);
    let trace = Trace::record(
        QueryGenerator::new(
            ArrivalProcess::poisson(1_200.0),
            SizeDistribution::production(),
            19,
        ),
        60,
    );
    let mut opts = ServerOptions::new(2, SchedulerPolicy::cpu_only(32));
    opts.warmup_frac = 0.0;
    opts.time_scale = 4.0;
    let server = Server::new(&cfg, CpuPlatform::skylake(), None, opts);
    let report = server.serve(
        &trace.replay().collect::<Vec<_>>(),
        Serve::real(vec![model]),
    );
    assert_eq!(report.completed, trace.len() as u64);
    assert!(report.latency.p95_ms > 0.0);
}

/// The real path keeps the stack-wide panic contract: an empty stream
/// is a caller bug, rejected before any worker starts.
#[test]
#[should_panic(expected = "no queries to serve")]
fn real_engine_rejects_empty_queries() {
    let cfg = zoo::ncf();
    let server = Server::new(
        &cfg,
        CpuPlatform::skylake(),
        None,
        ServerOptions::new(1, SchedulerPolicy::cpu_only(32)),
    );
    let _ = server.serve(&[], Serve::real(vec![tiny_model(&cfg, 9)]));
}

/// The cluster's real path: two nodes, each with its own engine worker
/// pool, behind the router — every query completes and both nodes see
/// work.
#[test]
fn cluster_serves_real_engines_end_to_end() {
    let cfg = zoo::ncf();
    let model = tiny_model(&cfg, 13);
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(1_500.0),
        SizeDistribution::production(),
        23,
    )
    .take(80)
    .collect();
    let mut opts = ServerOptions::new(1, SchedulerPolicy::cpu_only(32));
    opts.warmup_frac = 0.0;
    opts.time_scale = 4.0;
    let cluster = Cluster::new(
        &cfg,
        ClusterTopology::uniform(2, CpuPlatform::skylake(), None),
        RoutingPolicy::LeastOutstanding,
        opts,
    );
    let report = cluster.serve(&queries, Serve::real(vec![model]));
    assert_eq!(report.completed, queries.len() as u64);
    assert_eq!(report.latencies_ms.len(), queries.len());
    assert_eq!(
        report.node_queries.iter().sum::<u64>(),
        queries.len() as u64
    );
    assert!(
        report.node_queries.iter().all(|&n| n > 0),
        "both nodes served work: {:?}",
        report.node_queries
    );
    assert!(report.qps > 0.0);
}

/// Under sustained overload the bounded dispatch path must register
/// backpressure instead of buffering silently.
#[test]
fn overload_registers_backpressure() {
    let cfg = zoo::dlrm_rmc2();
    // 2 modelled workers, a tiny queue bound, and a load far past what
    // two cores sustain.
    let mut opts = ServerOptions::new(2, SchedulerPolicy::cpu_only(64));
    opts.batching.queue_bound = 4;
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(4_000.0),
        SizeDistribution::production(),
        41,
    )
    .take(1_500)
    .collect();
    let server = Server::new(&cfg, CpuPlatform::skylake(), None, opts);
    let report = server.serve(&queries, Serve::virtual_time());
    assert_eq!(report.completed, 1_350, "all post-warm-up queries finish");
    assert!(
        report.backpressure_stalls > 0,
        "queue bound 4 under 2-worker overload must stall"
    );
    assert!(report.max_queue_depth > 4);
}

/// Every query arrives at once, so the pool runs flat out.
fn burst(sizes: &[u32]) -> Vec<Query> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| Query {
            id: i as u64,
            size,
            arrival_s: 0.0,
            tenant: TenantId::SOLO,
        })
        .collect()
}

/// An RMC1 server counting every query, `workers` threads wide.
fn burst_server(workers: usize, max_batch: u32) -> Server {
    let mut opts = ServerOptions::new(workers, SchedulerPolicy::cpu_only(max_batch));
    opts.warmup_frac = 0.0; // count every query
    Server::new(&zoo::dlrm_rmc1(), CpuPlatform::skylake(), None, opts)
}

/// A burst on the real pool completes every query and conserves items
/// across batches.
#[test]
fn serves_every_query() {
    let sizes = [10, 64, 3, 120, 7, 33];
    let model = tiny_model(&zoo::dlrm_rmc1(), 8);
    let report = burst_server(3, 32).serve(&burst(&sizes), Serve::real(vec![model]));
    assert_eq!(report.completed, sizes.len() as u64);
    assert_eq!(report.latency.count, sizes.len());
    assert!(report.qps > 0.0);
    let total_items: u64 = sizes.iter().map(|&s| s as u64).sum();
    assert!(
        (report.mean_batch_items * report.batches as f64 - total_items as f64).abs() < 1.0,
        "items conserved"
    );
}

#[test]
fn parallel_workers_increase_throughput() {
    // With real threads this can be noisy; require only a clear win
    // on a comfortably parallel workload. On a box without enough
    // cores the win physically cannot appear, so skip.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipping: needs >= 4 cores, have {cores}");
        return;
    }
    let queries = burst(&[64; 48]);
    let m = tiny_model(&zoo::dlrm_rmc1(), 8);
    let r1 = burst_server(1, 64).serve(&queries, Serve::real(vec![Arc::clone(&m)]));
    let r4 = burst_server(4, 64).serve(&queries, Serve::real(vec![m]));
    assert!(
        r4.qps > r1.qps * 1.5,
        "4 workers {} vs 1 worker {}",
        r4.qps,
        r1.qps
    );
}
