//! Routing-policy acceptance: the front-end router's dispatch choice
//! must show up in the tail, reproducing the scale-out literature's
//! headline (adaptive routing beats oblivious round-robin once node
//! capacities diverge).

use drs_core::{
    ClusterTopology, NodeId, NodeSpec, RoutingPolicy, SchedulerPolicy, ServingStack, TenantId,
};
use drs_models::zoo;
use drs_platform::{CpuPlatform, GpuPlatform};
use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution};
use drs_server::{Cluster, Router, ServerOptions, Simulation};
use proptest::prelude::*;

fn serve(
    topology: ClusterTopology,
    routing: RoutingPolicy,
    load: f64,
    n: usize,
) -> (f64, Vec<u64>) {
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(load),
        SizeDistribution::production(),
        53,
    )
    .take(n)
    .collect();
    let policy = if topology.has_gpu() {
        SchedulerPolicy::with_gpu(64, 300)
    } else {
        SchedulerPolicy::cpu_only(64)
    };
    let cluster = Cluster::new(
        &zoo::dlrm_rmc1(),
        topology,
        routing,
        ServerOptions::new(40, policy),
    );
    let r = cluster.serve_virtual(&queries);
    (r.latency.p95_ms, r.node_queries)
}

/// A deliberately skewed fleet (one fast Skylake, one slow Broadwell)
/// under a burst that exceeds the slow node's half-share:
/// least-outstanding must strictly beat round-robin's p95, because
/// round-robin keeps feeding the saturated slow node.
#[test]
fn least_outstanding_strictly_beats_round_robin_p95_on_skewed_burst() {
    let topo = || {
        ClusterTopology::new(vec![
            NodeSpec::cpu_only(CpuPlatform::skylake()),
            NodeSpec::cpu_only(CpuPlatform::broadwell()),
        ])
    };
    // ~900 QPS: round-robin hands the Broadwell ~450 QPS, past its
    // ~420 QPS knee at batch 64; the fleet's aggregate (~1.4k) has
    // plenty of room if routing adapts.
    let (rr_p95, rr_split) = serve(topo(), RoutingPolicy::RoundRobin, 900.0, 5_000);
    let (lo_p95, lo_split) = serve(topo(), RoutingPolicy::LeastOutstanding, 900.0, 5_000);
    assert!(
        lo_p95 < rr_p95,
        "least-outstanding p95 {lo_p95} must strictly beat round-robin {rr_p95}"
    );
    // And the mechanism is visible: round-robin splits evenly, while
    // least-outstanding shifts load onto the fast node.
    assert!((rr_split[0] as i64 - rr_split[1] as i64).abs() <= 1);
    assert!(
        lo_split[0] > lo_split[1],
        "fast node absorbs more: {lo_split:?}"
    );
}

/// The acceptance sweep from the issue: on the 4-node heterogeneous
/// fleet under skewed diurnal load, power-of-two-choices achieves a
/// lower p95 than round-robin (the fig_cluster_routing headline).
#[test]
fn power_of_two_choices_beats_round_robin_p95_on_mixed_fleet() {
    let topo = || {
        ClusterTopology::new(vec![
            NodeSpec::with_gpu(CpuPlatform::skylake(), GpuPlatform::gtx_1080ti()),
            NodeSpec::with_gpu(CpuPlatform::skylake(), GpuPlatform::gtx_1080ti()),
            NodeSpec::cpu_only(CpuPlatform::broadwell()),
            NodeSpec::cpu_only(CpuPlatform::broadwell()),
        ])
    };
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::diurnal(2_200.0, 0.4, 4.0),
        SizeDistribution::production(),
        7,
    )
    .take(8_000)
    .collect();
    let policy = SchedulerPolicy::with_gpu(64, 300);
    let run = |routing| {
        let cluster = Cluster::new(
            &zoo::dlrm_rmc1(),
            topo(),
            routing,
            ServerOptions::new(40, policy),
        );
        ServingStack::serve_queries(&cluster, &queries)
    };
    let rr = run(RoutingPolicy::RoundRobin);
    let po2c = run(RoutingPolicy::PowerOfTwoChoices { d: 2 });
    assert!(
        po2c.latency.p95_ms < rr.latency.p95_ms,
        "po2c p95 {} must beat round-robin p95 {}",
        po2c.latency.p95_ms,
        rr.latency.p95_ms
    );
    // Sanity on the throughput both runs report.
    assert!(po2c.qps > rr.qps * 0.9);
}

/// Size-aware routing must put the large-query tail on GPU nodes.
#[test]
fn size_aware_concentrates_large_queries_on_gpu_nodes() {
    let mut router = Router::new(RoutingPolicy::SizeAware, &[true, false, false], 250, 1);
    for _ in 0..50 {
        let n = router.route(TenantId::SOLO, 800); // large: must go to the GPU node
        assert_eq!(n, NodeId(0));
        router.complete(n);
    }
    // Small queries balance across the whole fleet.
    let picks: Vec<NodeId> = (0..3).map(|_| router.route(TenantId::SOLO, 10)).collect();
    assert_eq!(picks, vec![NodeId(0), NodeId(1), NodeId(2)]);
}

/// Router gauge bookkeeping: routes charge, completions release, and
/// ties always resolve toward the smaller NodeId.
#[test]
fn router_gauges_and_tie_breaks() {
    let mut r = Router::new(
        RoutingPolicy::LeastOutstanding,
        &[false, false, false],
        0,
        9,
    );
    let a = r.route(TenantId::SOLO, 1);
    let b = r.route(TenantId::SOLO, 1);
    let c = r.route(TenantId::SOLO, 1);
    assert_eq!((a, b, c), (NodeId(0), NodeId(1), NodeId(2)));
    r.complete(NodeId(1));
    assert_eq!(r.route(TenantId::SOLO, 1), NodeId(1), "freed node wins");
    assert_eq!(
        r.route(TenantId::SOLO, 1),
        NodeId(0),
        "then the tie breaks low"
    );
    assert_eq!(r.dispatched(), &[2, 2, 1]);
}

/// Round-robin ignores gauges entirely: the cursor cycles.
#[test]
fn round_robin_cycles() {
    let mut r = Router::new(RoutingPolicy::RoundRobin, &[false, false], 0, 9);
    let picks: Vec<usize> = (0..5).map(|_| r.route(TenantId::SOLO, 1).0).collect();
    assert_eq!(picks, vec![0, 1, 0, 1, 0]);
}

/// Tenant pins confine one tenant to its node set while other tenants
/// keep the whole fleet — tenant-aware placement on top of the
/// dispatch policy.
#[test]
fn tenant_pins_confine_routing() {
    let mut r = Router::new(
        RoutingPolicy::LeastOutstanding,
        &[false, false, false],
        0,
        3,
    )
    .pin_tenant_to(TenantId(1), &[false, false, true]);
    for _ in 0..5 {
        assert_eq!(
            r.route(TenantId(1), 10),
            NodeId(2),
            "pinned tenant stays put"
        );
    }
    // The unpinned tenant balances over the whole fleet — and node 2's
    // gauge (inflated by the pinned tenant) steers it away.
    let picks: Vec<usize> = (0..4).map(|_| r.route(TenantId(0), 10).0).collect();
    assert_eq!(picks, vec![0, 1, 0, 1]);
}

/// Round-robin rotation is per universe: a pinned tenant's routes
/// (whose universe is a single node) must not reset or advance the
/// unpinned tenants' cursor — interleaved arrivals still alternate
/// cleanly over the full fleet.
#[test]
fn round_robin_rotation_survives_interleaved_pinned_tenant() {
    let mut r = Router::new(RoutingPolicy::RoundRobin, &[false, false], 0, 9)
        .pin_tenant_to(TenantId(1), &[false, true]);
    let mut unpinned = Vec::new();
    for _ in 0..4 {
        unpinned.push(r.route(TenantId(0), 1).0);
        assert_eq!(r.route(TenantId(1), 1), NodeId(1), "pin holds");
    }
    assert_eq!(
        unpinned,
        vec![0, 1, 0, 1],
        "unpinned rotation must be undisturbed by the pinned tenant's routes"
    );
}

/// A pin that admits no eligible node is a configuration error.
#[test]
#[should_panic(expected = "tenant pin admits no eligible node")]
fn empty_tenant_pin_rejected() {
    let _ = Router::new(RoutingPolicy::LeastOutstanding, &[false, false], 0, 1)
        .pin_tenant_to(TenantId(0), &[false, false]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every run drains: once the last event has popped, each router
    /// gauge is back at zero and no batch sits in a node's in-flight
    /// table. The virtual loop checks both under `debug_assert!` at the
    /// end of every run; this drives it through the shapes that could
    /// unbalance a gauge — split and offloaded queries mixed, and a
    /// GPU-less node in a GPU fleet (its share of offloadable queries
    /// splits instead) — in both gauge units: `Simulation` counts
    /// requests, `Cluster` counts queries.
    #[test]
    fn gauges_and_inflight_slots_drain_in_both_units(
        seed in 0u64..1_000,
        batch in 1u32..300,
        threshold in 0u32..400,
        load in 200.0f64..6_000.0,
    ) {
        let topology = ClusterTopology::new(vec![
            NodeSpec::with_gpu(CpuPlatform::skylake(), GpuPlatform::gtx_1080ti()),
            NodeSpec::cpu_only(CpuPlatform::broadwell()),
            NodeSpec::cpu_only(CpuPlatform::skylake()),
        ]);
        let policy = SchedulerPolicy::with_gpu(batch, threshold);
        let queries: Vec<_> = QueryGenerator::new(
            ArrivalProcess::poisson(load),
            SizeDistribution::production(),
            seed,
        )
        .take(300)
        .collect();
        let sim = Simulation::with_topology(&zoo::dlrm_rmc1(), topology.clone(), policy);
        prop_assert_eq!(sim.serve_queries(&queries).completed, 270);
        let cluster = Cluster::new(
            &zoo::dlrm_rmc1(),
            topology,
            RoutingPolicy::LeastOutstanding,
            ServerOptions::new(40, policy),
        );
        prop_assert_eq!(cluster.serve_virtual(&queries).completed, 270);
    }
}
