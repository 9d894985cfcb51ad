//! Cluster serving in one page: the same diurnal stream served by the
//! simulator, a single server, and a router-fronted heterogeneous
//! cluster — all selected through the unified `ServingStack` entry
//! point — plus a routing-policy shootout on the cluster.
//!
//! ```bash
//! cargo run --release --example cluster_serving
//! ```

use deeprecsys::prelude::*;

fn main() {
    let cfg = zoo::dlrm_rmc1();
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::diurnal(2_200.0, 0.4, 20.0),
        SizeDistribution::production(),
        7,
    )
    .take(20_000)
    .collect();

    // One constructor for every execution layer (the infra's cluster
    // is homogeneous; `DeepRecInfra::stack` builds sim/server/cluster
    // over it).
    let infra = DeepRecInfra::new(cfg.clone()).with_cluster(ClusterConfig::cluster(
        4,
        CpuPlatform::skylake(),
        None,
    ));
    println!("## one stream, three execution layers\n");
    for spec in [
        StackSpec::Sim,
        StackSpec::Server,
        StackSpec::Cluster(RoutingPolicy::PowerOfTwoChoices { d: 2 }),
    ] {
        let stack = infra.stack(SchedulerPolicy::cpu_only(64), spec);
        let r = stack.serve_queries(&queries);
        println!(
            "{:<22} p95 {:>8.2} ms   {:>6.0} QPS",
            stack.label(),
            r.latency.p95_ms,
            r.qps
        );
    }

    // A heterogeneous fleet: the routing policy is the knob.
    let topology = ClusterTopology::new(vec![
        NodeSpec::with_gpu(CpuPlatform::skylake(), GpuPlatform::gtx_1080ti()),
        NodeSpec::with_gpu(CpuPlatform::skylake(), GpuPlatform::gtx_1080ti()),
        NodeSpec::cpu_only(CpuPlatform::broadwell()),
        NodeSpec::cpu_only(CpuPlatform::broadwell()),
    ]);
    println!("\n## routing policy shootout (2x Skylake+GPU, 2x Broadwell)\n");
    for routing in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastOutstanding,
        RoutingPolicy::PowerOfTwoChoices { d: 2 },
        RoutingPolicy::SizeAware,
    ] {
        let cluster = Cluster::new(
            &cfg,
            topology.clone(),
            routing,
            ServerOptions::new(40, SchedulerPolicy::with_gpu(64, 300)),
        );
        let r = cluster.serve(&queries, Serve::virtual_time());
        println!(
            "{:<22} p95 {:>8.2} ms   {:>6.0} QPS   split {:?}",
            routing.label(),
            r.latency.p95_ms,
            r.qps,
            r.node_queries
        );
    }
}
