//! **Sharded capacity scale-out** — the experiment the single-node
//! stack could not run at all: DLRM-RMC2's embedding tables (25.6 GB
//! at paper scale) do not fit a 16 GiB node, so the model *cannot*
//! serve anywhere until `drs-shard` partitions its tables across the
//! fleet. This binary reproduces the capacity-driven scale-out
//! headline (Lui et al.): placement fails on one node, then the same
//! model serves on 2/4/8-node shards, sweeping placement policy ×
//! routing policy and reporting the tail plus the exchange overhead
//! the cross-node gather step adds (Krishna & Krishna's scale-in
//! concern).

use deeprecsys::prelude::*;
use deeprecsys::table::{fmt3, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Per-shard-node offered load: comfortably inside one node's gather
/// capacity for its 1/N table share, so the sweep measures scale-out
/// shape rather than raw saturation.
const QPS_PER_NODE: f64 = 200.0;

/// 16 GiB of model memory per node — the capacity wall RMC2 overflows.
const NODE_MEM: u64 = 16 << 30;

fn fleet(n: usize) -> ClusterTopology {
    ClusterTopology::new(vec![
        NodeSpec::cpu_only(CpuPlatform::skylake())
            .with_mem_bytes(NODE_MEM);
        n
    ])
}

fn main() {
    let opts = drs_bench::parse_args();
    drs_bench::header(
        "Sharded capacity — a model too large for one node serves across 2/4/8 shards",
        "capacity, not compute, forces distributed serving (Lui et al.); the \
         cross-node gather/exchange is the new overhead to watch (Krishna & Krishna)",
        &opts,
    );

    let cfg = zoo::dlrm_rmc2();
    let net = InterconnectModel::datacenter_100g();
    println!(
        "model: {} — {:.1} GB of embedding tables at paper scale, {:.0} ms p95 SLA",
        cfg.name,
        cfg.embedding_bytes() as f64 / 1e9,
        cfg.sla_ms
    );

    // The capacity wall: one node refuses the model outright.
    match ShardPlan::place(&cfg, &fleet(1), PlacementPolicy::SizeGreedy) {
        Err(e) => println!("1 node : placement fails — {e}"),
        Ok(_) => unreachable!("a 16 GiB node cannot hold 25.6 GB of tables"),
    }
    println!();

    let num_queries = opts.pick(200_000, 20_000, 2_000);
    let mut t = TextTable::new(vec![
        "nodes",
        "placement",
        "routing",
        "p50 (ms)",
        "p95 (ms)",
        "QPS",
        "exch (ms)",
        "SLA",
        "home split (%)",
    ]);
    let mut headline: Option<(usize, f64, f64, f64)> = None;
    for nodes in [2usize, 4, 8] {
        let topo = fleet(nodes);
        let queries: Vec<_> = QueryGenerator::new(
            ArrivalProcess::poisson(QPS_PER_NODE * nodes as f64),
            SizeDistribution::production(),
            opts.search.seed,
        )
        .take(num_queries)
        .collect();
        for placement in [PlacementPolicy::SizeGreedy, PlacementPolicy::LookupBalanced] {
            let plan = match ShardPlan::place(&cfg, &topo, placement) {
                Ok(p) => p,
                Err(e) => {
                    println!("{nodes} nodes / {}: {e}", placement.label());
                    continue;
                }
            };
            for routing in [
                RoutingPolicy::ShardAware,
                RoutingPolicy::RoundRobin,
                RoutingPolicy::PowerOfTwoChoices { d: 2 },
            ] {
                let cluster = Cluster::new_sharded(
                    &cfg,
                    topo.clone(),
                    routing,
                    plan.clone(),
                    net,
                    ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
                );
                let r = cluster.serve_queries(&queries);
                let total: u64 = r.node_queries.iter().sum::<u64>().max(1);
                let split: Vec<String> = r
                    .node_queries
                    .iter()
                    .map(|&n| format!("{:.0}", 100.0 * n as f64 / total as f64))
                    .collect();
                if nodes == 4
                    && placement == PlacementPolicy::LookupBalanced
                    && routing == RoutingPolicy::ShardAware
                {
                    headline = Some((nodes, r.latency.p95_ms, r.mean_exchange_ms, r.qps));
                }
                t.row(vec![
                    nodes.to_string(),
                    placement.label().to_string(),
                    routing.label(),
                    fmt3(r.latency.p50_ms),
                    fmt3(r.latency.p95_ms),
                    fmt3(r.qps),
                    fmt3(r.mean_exchange_ms),
                    if r.meets_sla(cfg.sla_ms) {
                        "ok"
                    } else {
                        "MISS"
                    }
                    .to_string(),
                    split.join("/"),
                ]);
            }
        }
    }

    println!(
        "{} queries per fleet, {QPS_PER_NODE:.0} QPS offered per shard node, \
         16 GiB model memory per node, 100 GbE fabric\n",
        num_queries
    );
    println!("{t}");

    println!("## Headline\n");
    if let Some((nodes, p95, exch, qps)) = headline {
        println!(
            "- a {:.1} GB model with no single-node home sustains {qps:.0} QPS on a \
             {nodes}-node lookup-balanced shard at p95 {} ms ({} the {:.0} ms SLA), \
             paying {} ms of exchange+merge per query",
            cfg.embedding_bytes() as f64 / 1e9,
            fmt3(p95),
            if p95 <= cfg.sla_ms {
                "inside"
            } else {
                "OUTSIDE"
            },
            cfg.sla_ms,
            fmt3(exch),
        );
    }
    println!(
        "- placement dominates: lookup-balanced keeps the tail flat-or-better as the \
         fleet grows ({QPS_PER_NODE:.0} QPS/node weak scaling), while size-greedy \
         first-fit crams every table onto the first two nodes — they saturate under \
         the 4/8-node load and blow the SLA despite six idle machines",
    );

    if opts.real {
        real_cross_validation(&cfg, net, &opts);
    }
}

/// `--real`: the 2-node shard on the *physical* engine — per-node
/// partial gathers over a real `ShardedEmbeddingSet`, exchange booked
/// on the virtual clock, and a real dense tail at the home node. The
/// real tail is wall-clock (tiny-scaled model), so latencies are
/// reported side by side rather than matched; the exact contract here
/// is output correctness — every CTR vector must equal the unsharded
/// single-process forward bit for bit.
fn real_cross_validation(cfg: &ModelConfig, net: InterconnectModel, opts: &drs_bench::ExpOptions) {
    println!("\n## Real-engine cross-validation (--real)\n");
    let nodes = 2;
    let topo = fleet(nodes);
    let plan = ShardPlan::place(cfg, &topo, PlacementPolicy::LookupBalanced)
        .expect("RMC2 fits two 16 GiB nodes");
    let seed = opts.search.seed;
    let mut so = ServerOptions::new(2, SchedulerPolicy::cpu_only(64));
    so.seed = seed;
    so.warmup_frac = 0.0;
    so.time_scale = 4.0;
    let cluster = Cluster::new_sharded(cfg, topo, RoutingPolicy::ShardAware, plan, net, so);
    let n = opts.pick(400, 150, 50);
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(QPS_PER_NODE * nodes as f64),
        SizeDistribution::production(),
        seed,
    )
    .take(n)
    .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Arc::new(RecModel::instantiate(cfg, ModelScale::tiny(), &mut rng));

    let virt = cluster.serve(&queries, Serve::virtual_time());
    let real = cluster.serve(&queries, Serve::real(vec![model.clone()]));

    let mut t = TextTable::new(vec![
        "clock",
        "completed",
        "p95 (ms)",
        "QPS",
        "exch (ms)",
        "home split",
    ]);
    for (label, r) in [("virtual", &virt), ("real", &real)] {
        t.row(vec![
            label.to_string(),
            r.completed.to_string(),
            fmt3(r.latency.p95_ms),
            fmt3(r.qps),
            fmt3(r.mean_exchange_ms),
            r.node_queries
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join("/"),
        ]);
    }
    println!(
        "{n} queries on a {nodes}-node lookup-balanced shard (tiny-scaled tables, \
         time compressed 4x): per-shard real gathers, fabric cost on the virtual \
         clock, real dense tail at the home\n"
    );
    println!("{t}");

    let by_id: std::collections::BTreeMap<u64, &drs_query::Query> =
        queries.iter().map(|q| (q.id, q)).collect();
    let exact = real
        .ctrs
        .iter()
        .filter(|(qid, ctrs)| {
            let inputs = drs_server::sharded_query_inputs(&model, seed, by_id[qid]);
            *ctrs == model.forward(&inputs, &mut OpProfiler::new())
        })
        .count();
    println!(
        "CTR bit-identity vs unsharded forward: {exact}/{} queries",
        real.ctrs.len()
    );
    assert_eq!(
        exact,
        real.ctrs.len(),
        "sharded real outputs diverged from the single-process forward"
    );
}
