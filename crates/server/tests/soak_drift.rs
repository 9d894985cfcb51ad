//! Long-horizon soak with drift injection: a recorded trace whose
//! arrival rate *and* size distribution shift mid-stream replays
//! through `ServingStack::serve_trace` on a sharded cluster, and the
//! online controller must notice the shift, re-tune, and re-settle
//! (ROADMAP "trace-driven serving" extension).

use drs_core::{ClusterTopology, NodeSpec, RoutingPolicy, SchedulerPolicy, ServingStack};
use drs_models::zoo;
use drs_platform::{CpuPlatform, InterconnectModel};
use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution, Trace};
use drs_server::{Cluster, ControllerConfig, ServerOptions};
use drs_shard::{PlacementPolicy, ShardPlan};

/// Two recorded segments stitched into one trace: a calm first phase,
/// then a mid-trace drift to ~2.3x the rate on a heavier-tailed size
/// distribution.
fn drifting_trace() -> Trace {
    let calm: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(600.0),
        SizeDistribution::production(),
        71,
    )
    .take(2_500)
    .collect();
    let t_shift = calm.last().unwrap().arrival_s;
    let stormy = QueryGenerator::new(
        ArrivalProcess::poisson(1_400.0),
        SizeDistribution::lognormal_matched(),
        72,
    )
    .take(2_500);
    let pairs: Vec<(f64, u32)> = calm
        .iter()
        .map(|q| (q.arrival_s, q.size))
        .chain(stormy.map(|q| (q.arrival_s + t_shift, q.size)))
        .collect();
    Trace::from_pairs(&pairs)
}

#[test]
fn controller_resettles_after_mid_trace_drift_on_sharded_cluster() {
    let cfg = zoo::dlrm_rmc2();
    let topo = ClusterTopology::new(vec![
        NodeSpec::cpu_only(CpuPlatform::skylake())
            .with_mem_bytes(8 << 30);
        4
    ]);
    let plan = ShardPlan::place(&cfg, &topo, PlacementPolicy::LookupBalanced).unwrap();
    let opts = ServerOptions::new(40, SchedulerPolicy::cpu_only(1))
        .with_controller(ControllerConfig::smoke().with_sla_ms(cfg.sla_ms));
    let cluster = Cluster::new_sharded(
        &cfg,
        topo,
        RoutingPolicy::ShardAware,
        plan,
        InterconnectModel::datacenter_100g(),
        opts,
    );

    let trace = drifting_trace();
    let report = cluster.serve_trace(&trace);

    // The whole stream completed through the sharded fan-out.
    assert_eq!(report.completed, 4_500, "10% warm-up excluded");
    assert_eq!(report.exchanged_queries, 4_500);
    // The controller saw the drift and re-tuned at least once...
    assert!(
        report.retunes >= 1,
        "a 2.3x rate + size-distribution shift must trigger a re-tune"
    );
    // ...and re-settled: queries completed under a settled policy
    // exist *after* the storm (the settled recorder is only fed while
    // the controller holds a settled policy, so a controller left
    // thrashing at end of stream reports a starved settled window).
    assert!(
        report.settled_latency.count > 500,
        "controller failed to re-settle: only {} settled completions",
        report.settled_latency.count
    );
    // The settled tail is inside the model's (generous) SLA even
    // under the stormy phase.
    assert!(
        report.settled_latency.p95_ms < cfg.sla_ms,
        "settled p95 {} breaches the {} ms SLA",
        report.settled_latency.p95_ms,
        cfg.sla_ms
    );
    // Determinism holds for trace replay too.
    let again = cluster.serve_trace(&trace);
    assert_eq!(report.latencies_ms, again.latencies_ms);
    assert_eq!(report.retunes, again.retunes);
    // And the replay equals serving the equivalent prepared stream.
    let direct = cluster.serve_queries(&trace.replay().collect::<Vec<_>>());
    assert_eq!(direct.latencies_ms, report.latencies_ms);
}
