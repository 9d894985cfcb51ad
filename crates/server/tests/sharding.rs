//! Sharded cluster serving: a model whose tables exceed one node's
//! memory serves across the fleet — fan-out to every shard, partial
//! completions merged after the exchange — deterministically.

use drs_core::{ClusterTopology, NodeSpec, RoutingPolicy, SchedulerPolicy, ServingStack};
use drs_models::zoo;
use drs_platform::{CpuPlatform, InterconnectModel};
use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution};
use drs_server::{Cluster, ControllerConfig, Serve, ServerOptions};
use drs_shard::{PlacementPolicy, ShardPlan};

/// A homogeneous Skylake fleet of `n` nodes with `gib` GiB each.
fn fleet(n: usize, gib: u64) -> ClusterTopology {
    ClusterTopology::new(vec![
        NodeSpec::cpu_only(CpuPlatform::skylake())
            .with_mem_bytes(gib << 30);
        n
    ])
}

fn queries(rate: f64, n: usize, seed: u64) -> Vec<drs_query::Query> {
    QueryGenerator::new(
        ArrivalProcess::poisson(rate),
        SizeDistribution::production(),
        seed,
    )
    .take(n)
    .collect()
}

fn sharded_cluster(nodes: usize, gib: u64, routing: RoutingPolicy, seed: u64) -> Cluster {
    let cfg = zoo::dlrm_rmc2(); // 25.6 GB of tables at paper scale
    let topo = fleet(nodes, gib);
    let plan = ShardPlan::place(&cfg, &topo, PlacementPolicy::LookupBalanced).unwrap();
    let mut opts = ServerOptions::new(40, SchedulerPolicy::cpu_only(64));
    opts.seed = seed;
    Cluster::new_sharded(
        &cfg,
        topo,
        routing,
        plan,
        InterconnectModel::datacenter_100g(),
        opts,
    )
}

#[test]
fn model_too_big_for_one_node_serves_sharded() {
    // The capacity headline: DLRM-RMC2 cannot fit one 16 GiB node...
    let cfg = zoo::dlrm_rmc2();
    assert!(ShardPlan::place(&cfg, &fleet(1, 16), PlacementPolicy::LookupBalanced).is_err());
    // ...but serves across two of them, completing every query.
    let cluster = sharded_cluster(2, 16, RoutingPolicy::ShardAware, 7);
    let qs = queries(600.0, 1_000, 7);
    let r = cluster.serve(&qs, Serve::virtual_time());
    assert_eq!(r.completed, 900, "10% warm-up excluded, all others done");
    assert_eq!(r.exchanged_queries, 900, "every measured query exchanged");
    assert!(r.mean_exchange_ms > 0.0);
    assert!(r.latency.p95_ms > 0.0);
    // Homes land only on shard nodes, which is all of them here.
    assert_eq!(r.node_queries.iter().filter(|&&n| n > 0).count(), 2);
}

#[test]
fn shard_aware_serving_is_byte_deterministic_per_seed() {
    let run = |seed: u64| {
        let cluster = sharded_cluster(4, 8, RoutingPolicy::ShardAware, seed);
        format!(
            "{:?}",
            cluster.serve(&queries(1_200.0, 1_500, seed), Serve::virtual_time())
        )
    };
    assert_eq!(run(13), run(13), "same seed must reproduce byte-for-byte");
    assert_ne!(run(13), run(14), "different seeds must differ");
}

#[test]
fn sharded_with_controller_is_deterministic_too() {
    // The nondeterminism-prone combination: sharded fan-out + per-node
    // online controllers + sampled merge-home policy.
    let run = |seed: u64| {
        let cfg = zoo::dlrm_rmc2();
        let topo = fleet(4, 8);
        let plan = ShardPlan::place(&cfg, &topo, PlacementPolicy::SizeGreedy).unwrap();
        let mut opts = ServerOptions::new(40, SchedulerPolicy::cpu_only(1))
            .with_controller(ControllerConfig::smoke());
        opts.seed = seed;
        let cluster = Cluster::new_sharded(
            &cfg,
            topo,
            RoutingPolicy::PowerOfTwoChoices { d: 2 },
            plan,
            InterconnectModel::datacenter_100g(),
            opts,
        );
        format!(
            "{:?}",
            cluster.serve(&queries(900.0, 1_200, seed), Serve::virtual_time())
        )
    };
    assert_eq!(run(5), run(5));
}

#[test]
fn more_shard_nodes_relieve_the_tail() {
    // Scale-out: at a load that saturates the 2-node shard, spreading
    // the same tables over 8 nodes cuts the gather work per node and
    // with it the tail.
    let load = 2_000.0;
    let two = sharded_cluster(2, 16, RoutingPolicy::ShardAware, 3);
    let eight = sharded_cluster(8, 16, RoutingPolicy::ShardAware, 3);
    let qs = queries(load, 2_000, 3);
    let r2 = two.serve(&qs, Serve::virtual_time());
    let r8 = eight.serve(&qs, Serve::virtual_time());
    assert!(
        r8.latency.p95_ms < r2.latency.p95_ms / 2.0,
        "8-node p95 {} vs 2-node {}",
        r8.latency.p95_ms,
        r2.latency.p95_ms
    );
}

#[test]
fn exchange_overhead_prices_the_scale_out() {
    // Two faces of the exchange model on identical hardware. (1) For
    // an embedding-dominated model the *parallel* gather across two
    // shards outweighs the exchange at light load — the scale-in
    // literature's observation that the gather step, not compute, is
    // what distribution parallelizes. (2) The fabric still charges:
    // starving its bandwidth (100 GbE → 25 GbE) visibly lifts the
    // sharded tail while the unsharded path is untouched by it.
    let cfg = zoo::dlrm_rmc2();
    let topo = fleet(2, 64); // roomy: fits whole OR sharded
    let qs = queries(50.0, 400, 11);
    let whole = Cluster::new(
        &cfg,
        topo.clone(),
        RoutingPolicy::LeastOutstanding,
        ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
    )
    .serve(&qs, Serve::virtual_time());
    let sharded_on = |net: InterconnectModel| {
        let plan = ShardPlan::place(&cfg, &topo, PlacementPolicy::LookupBalanced).unwrap();
        Cluster::new_sharded(
            &cfg,
            topo.clone(),
            RoutingPolicy::ShardAware,
            plan,
            net,
            ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
        )
        .serve(&qs, Serve::virtual_time())
    };
    let fast = sharded_on(InterconnectModel::datacenter_100g());
    let slow = sharded_on(InterconnectModel::datacenter_25g());
    assert_eq!(whole.exchanged_queries, 0);
    assert!(fast.mean_exchange_ms > 0.0);
    assert!(
        fast.latency.p50_ms < whole.latency.p50_ms,
        "split gather should beat the whole-node gather: {} vs {}",
        fast.latency.p50_ms,
        whole.latency.p50_ms
    );
    // The merge delay is dominated by the dense tail (RMC2's stacks),
    // but the wire term must still register: a quarter of the
    // bandwidth strictly raises the mean exchange price.
    assert!(
        slow.mean_exchange_ms > fast.mean_exchange_ms,
        "bandwidth starvation must show in the exchange price: {} vs {}",
        slow.mean_exchange_ms,
        fast.mean_exchange_ms
    );
    assert!(
        slow.latency.p95_ms > fast.latency.p95_ms,
        "fabric starvation must lift the sharded tail: {} vs {}",
        slow.latency.p95_ms,
        fast.latency.p95_ms
    );
}

#[test]
fn mean_exchange_is_completion_weighted_across_homes() {
    // An asymmetric 2-node plan: node 0 holds far more tables than
    // node 1, so a query merging at home 0 pays a different exchange
    // price (it pulls node 1's small remote share) than one merging at
    // home 1 (which pulls node 0's large share). Under round-robin
    // homes with an odd query count the per-home populations are
    // unequal too, so `mean_exchange_ms` only comes out right if it is
    // completion-weighted over every exchanged query — an average of
    // per-home means gives a measurably different number. Pin the
    // weighted definition exactly.
    let cfg = zoo::dlrm_rmc2();
    let topo = ClusterTopology::new(vec![
        NodeSpec::cpu_only(CpuPlatform::skylake()).with_mem_bytes(20 << 30),
        NodeSpec::cpu_only(CpuPlatform::skylake()).with_mem_bytes(8 << 30),
    ]);
    let plan = ShardPlan::place(&cfg, &topo, PlacementPolicy::SizeGreedy).unwrap();
    assert!(plan.is_sharded());
    assert_ne!(
        plan.tables_on(drs_core::NodeId(0)).len(),
        plan.tables_on(drs_core::NodeId(1)).len(),
        "placement must be asymmetric for this pin to bite"
    );
    let net = InterconnectModel::datacenter_100g();
    let geo = plan.geometry(net);

    // Three queries, distinct sizes, round-robin homes 0, 1, 0.
    let sizes = [100u32, 700, 40];
    let trace =
        drs_query::Trace::from_pairs(&[(0.00, sizes[0]), (0.05, sizes[1]), (0.10, sizes[2])]);
    let mut opts = ServerOptions::new(40, SchedulerPolicy::cpu_only(64));
    opts.warmup_frac = 0.0;
    let cluster = Cluster::new_sharded(&cfg, topo, RoutingPolicy::RoundRobin, plan, net, opts);
    let r = cluster.serve_trace(&trace);
    assert_eq!(r.exchanged_queries, 3);

    // Recompute both candidate definitions from the plan's geometry,
    // quantized exactly as the serving loop prices them.
    let ns_of = |home: usize, size: u32| drs_core::us_to_ns(geo.exchange_us(home, size)) as f64;
    let per_query = [ns_of(0, sizes[0]), ns_of(1, sizes[1]), ns_of(0, sizes[2])];
    let weighted_ms = per_query.iter().sum::<f64>() / 3.0 / 1e6;
    let home0_mean = (per_query[0] + per_query[2]) / 2.0;
    let home1_mean = per_query[1];
    let avg_of_means_ms = (home0_mean + home1_mean) / 2.0 / 1e6;

    assert!(
        (r.mean_exchange_ms - weighted_ms).abs() < 1e-9,
        "report {} vs completion-weighted {}",
        r.mean_exchange_ms,
        weighted_ms
    );
    assert!(
        (weighted_ms - avg_of_means_ms).abs() > 1e-6,
        "scenario too symmetric to distinguish the definitions: {} vs {}",
        weighted_ms,
        avg_of_means_ms
    );
}

#[test]
fn single_shard_node_plan_exchanges_nothing() {
    // A roomy fleet lets size-greedy first-fit put every table on
    // node 0: the "sharded" cluster degenerates to one shard node.
    // Nothing crosses the fabric, so the exchange counters must stay
    // zero (the dense tail still runs, but that is not an exchange).
    let cfg = zoo::dlrm_rmc2();
    let topo = fleet(4, 32);
    let plan = ShardPlan::place(&cfg, &topo, PlacementPolicy::SizeGreedy).unwrap();
    assert!(!plan.is_sharded());
    let cluster = Cluster::new_sharded(
        &cfg,
        topo,
        RoutingPolicy::ShardAware,
        plan,
        InterconnectModel::datacenter_100g(),
        ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
    );
    let r = cluster.serve(&queries(300.0, 600, 19), Serve::virtual_time());
    assert_eq!(r.completed, 540);
    assert_eq!(r.exchanged_queries, 0, "no remote peers, no exchange");
    assert_eq!(r.mean_exchange_ms, 0.0);
    // Every merge home is the single shard node.
    assert_eq!(r.node_queries[0], 600);
    assert!(r.node_queries[1..].iter().all(|&n| n == 0));
}

#[test]
fn serving_stack_face_works_sharded() {
    let cluster = sharded_cluster(2, 16, RoutingPolicy::ShardAware, 9);
    let label = cluster.label();
    assert!(label.contains("shard-aware"), "{label}");
    assert!(label.contains("sharded x2"), "{label}");
    let r = cluster.serve_queries(&queries(400.0, 500, 9));
    assert!(r.completed > 0);
}

#[test]
#[should_panic(expected = "policy must not offload")]
fn sharded_offload_policy_rejected() {
    let cfg = zoo::dlrm_rmc2();
    let topo = fleet(2, 16);
    let plan = ShardPlan::place(&cfg, &topo, PlacementPolicy::SizeGreedy).unwrap();
    let _ = Cluster::new_sharded(
        &cfg,
        topo,
        RoutingPolicy::ShardAware,
        plan,
        InterconnectModel::datacenter_100g(),
        ServerOptions::new(40, SchedulerPolicy::with_gpu(64, 200)),
    );
}

#[test]
#[should_panic(expected = "shard plan covers 4 nodes, topology has 2")]
fn plan_for_wrong_fleet_rejected() {
    let cfg = zoo::dlrm_rmc2();
    let plan = ShardPlan::place(&cfg, &fleet(4, 16), PlacementPolicy::SizeGreedy).unwrap();
    let _ = Cluster::new_sharded(
        &cfg,
        fleet(2, 16),
        RoutingPolicy::ShardAware,
        plan,
        InterconnectModel::datacenter_100g(),
        ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
    );
}

#[test]
fn unsharded_shard_aware_degrades_to_least_outstanding() {
    // Without a plan, ShardAware must behave exactly like
    // least-outstanding (same router maths, unrestricted universe).
    let cfg = zoo::dlrm_rmc1();
    let topo = fleet(3, 64);
    let qs = queries(2_000.0, 1_200, 21);
    let mk = |routing| {
        Cluster::new(
            &cfg,
            topo.clone(),
            routing,
            ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
        )
        .serve(&qs, Serve::virtual_time())
    };
    let lo = mk(RoutingPolicy::LeastOutstanding);
    let sa = mk(RoutingPolicy::ShardAware);
    assert_eq!(lo.latencies_ms, sa.latencies_ms);
    assert_eq!(lo.node_queries, sa.node_queries);
}
