//! End-to-end serving acceptance: the open-loop runtime on the real
//! engine, and the online controller's convergence contract.

use drs_core::{ClusterConfig, ClusterTopology, RoutingPolicy, SchedulerPolicy, ServingStack};
use drs_models::{zoo, ModelScale, RecModel};
use drs_platform::{CpuPlatform, GpuPlatform};
use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution, Trace};
use drs_sched::{DeepRecSched, SearchOptions};
use drs_server::{Cluster, ControllerConfig, Server, ServerOptions};
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
    let report = server.serve_real(model, &queries);

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
    let report = server.serve_real(model, &queries);
    assert_eq!(report.completed, queries.len() as u64);
    assert!(
        report.gpu_work_fraction > 0.0,
        "some work ran on the device"
    );
    assert!(report.gpu_utilization > 0.0);
}

/// The convergence contract from the issue: starting from a
/// deliberately bad `max_batch`, the online controller must retune to
/// within 25 % of the offline tuner's tail latency at the same load —
/// while the bad policy left alone is far worse.
#[test]
fn online_controller_converges_to_offline_tail() {
    let cfg = zoo::dlrm_rmc1();
    let cluster = ClusterConfig::single_skylake();
    let sla_ms = 100.0;
    let tuned = DeepRecSched::new(SearchOptions::quick()).tune_cpu(&cfg, cluster, sla_ms);
    assert!(tuned.qps > 0.0, "offline tuner found an operating point");
    // Serve at half the tuned capacity: enough load that a bad batch
    // size visibly queues, enough headroom that the controller's
    // cold-start backlog (it pilots a unit batch first) can drain.
    // The horizon covers the cold-start climb plus the hysteresis-paced
    // walk-down re-judgments (each retune now waits for two confirming
    // windows before piloting a rung).
    let load = 0.5 * tuned.qps;
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(load),
        SizeDistribution::production(),
        29,
    )
    .take(24_000)
    .collect();
    let workers = cluster.cpu.cores;

    let serve_fixed = |policy: SchedulerPolicy| {
        let server = Server::new(&cfg, cluster.cpu, None, ServerOptions::new(workers, policy));
        server.serve_virtual(&queries)
    };
    // A deliberately bad fixed policy: the largest rung of the
    // canonical ladder, far past the optimum for this load. The
    // controller-driven run ignores the initial max_batch and
    // cold-starts from the paper's unit batch — the other deliberately
    // bad extreme.
    let bad_policy = SchedulerPolicy::cpu_only(1024);
    let bad = serve_fixed(bad_policy);
    let offline = serve_fixed(tuned.policy);

    let online_opts =
        ServerOptions::new(workers, bad_policy).with_controller(ControllerConfig::standard());
    let online_server = Server::new(&cfg, cluster.cpu, None, online_opts);
    let online = online_server.serve_virtual(&queries);

    assert!(
        online.settled_latency.count > 0,
        "controller settled within the stream (trajectory: {:?})",
        online.batch_trajectory
    );
    // Converged-state tail: the last quarter of the stream, long after
    // the climb finished and its cold-start backlog drained.
    let tail_p95 = |latencies: &[f64]| {
        let tail = &latencies[latencies.len() - latencies.len() / 4..];
        let mut rec = drs_metrics::LatencyRecorder::with_capacity(tail.len());
        for &ms in tail {
            rec.record_ms(ms);
        }
        rec.summary().p95_ms
    };
    let p95_online = tail_p95(&online.latencies_ms);
    let p95_offline = tail_p95(&offline.latencies_ms);
    assert!(
        p95_online <= 1.25 * p95_offline,
        "online converged p95 {p95_online} ms vs offline {p95_offline} ms \
         (trajectory {:?}, final policy {:?})",
        online.batch_trajectory,
        online.final_policy
    );
    assert!(
        p95_online < tail_p95(&bad.latencies_ms),
        "online {p95_online} must beat the untuned bad policy {}",
        tail_p95(&bad.latencies_ms)
    );
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
    let direct = server.serve_virtual(&queries);
    let replayed = server.serve_trace(&trace);
    assert_eq!(direct.completed, replayed.completed);
    assert_eq!(direct.latencies_ms, replayed.latencies_ms);

    let cluster = Cluster::new(
        &cfg,
        ClusterTopology::uniform(2, CpuPlatform::skylake(), None),
        RoutingPolicy::LeastOutstanding,
        ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
    );
    let c_direct = cluster.serve_virtual(&queries);
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
    let report = server.serve_real(model, &trace.replay().collect::<Vec<_>>());
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
    let _ = server.serve_real(tiny_model(&cfg, 9), &[]);
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
    let report = cluster.serve_real(model, &queries);
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
    let report = server.serve_virtual(&queries);
    assert_eq!(report.completed, 1_350, "all post-warm-up queries finish");
    assert!(
        report.backpressure_stalls > 0,
        "queue bound 4 under 2-worker overload must stall"
    );
    assert!(report.max_queue_depth > 4);
}
