//! Sharded serving on the real engine: per-node partial forwards over
//! a `ShardedEmbeddingSet`, exchanged to the router-chosen home and
//! finished with a real dense tail — the serving-layer extension of
//! the `sharded_equivalence` contract in `drs-nn`.

use drs_core::{ClusterTopology, NodeSpec, RoutingPolicy, SchedulerPolicy};
use drs_models::{zoo, ModelScale, RecModel};
use drs_nn::OpProfiler;
use drs_platform::{CpuPlatform, InterconnectModel};
use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution};
use drs_server::{sharded_query_inputs, Cluster, Serve, ServerOptions};
use drs_shard::{PlacementPolicy, ShardPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

const SEED: u64 = 19;

fn fleet(n: usize, gib: u64) -> ClusterTopology {
    ClusterTopology::new(vec![
        NodeSpec::cpu_only(CpuPlatform::skylake())
            .with_mem_bytes(gib << 30);
        n
    ])
}

fn sharded_real_cluster(nodes: usize) -> (Cluster, Arc<RecModel>) {
    // DLRM-RMC2 at paper scale cannot fit one 16 GiB node, so the plan
    // genuinely spreads tables; the instantiated model is tiny-scaled
    // (same table count, small dims) so real forwards stay CI-fast.
    let cfg = zoo::dlrm_rmc2();
    let topo = fleet(nodes, 16);
    let plan = ShardPlan::place(&cfg, &topo, PlacementPolicy::LookupBalanced).unwrap();
    let mut opts = ServerOptions::new(2, SchedulerPolicy::cpu_only(64));
    opts.seed = SEED;
    opts.warmup_frac = 0.0;
    opts.time_scale = 4.0;
    let cluster = Cluster::new_sharded(
        &cfg,
        topo,
        RoutingPolicy::ShardAware,
        plan,
        InterconnectModel::datacenter_100g(),
        opts,
    );
    let mut rng = StdRng::seed_from_u64(SEED);
    let model = Arc::new(RecModel::instantiate(&cfg, ModelScale::tiny(), &mut rng));
    (cluster, model)
}

fn queries(n: usize) -> Vec<drs_query::Query> {
    QueryGenerator::new(
        ArrivalProcess::poisson(500.0),
        SizeDistribution::production(),
        SEED,
    )
    .take(n)
    .collect()
}

/// A 2-node sharded cluster serves a real stream end to end: every
/// query fans out to both shards, exchanges its partials at the home,
/// and completes with a real dense tail — with the fabric cost booked
/// on the virtual clock.
#[test]
fn sharded_real_cluster_completes_every_query() {
    let (cluster, model) = sharded_real_cluster(2);
    let qs = queries(60);
    let r = cluster.serve(&qs, Serve::real(vec![model]));
    assert_eq!(r.completed, qs.len() as u64);
    assert_eq!(
        r.exchanged_queries,
        qs.len() as u64,
        "every query crossed the exchange"
    );
    assert!(
        r.mean_exchange_ms > 0.0,
        "interconnect cost lands on the virtual clock"
    );
    assert_eq!(
        r.node_queries.iter().filter(|&&n| n > 0).count(),
        2,
        "shard-aware homes use both shard nodes: {:?}",
        r.node_queries
    );
    assert!(r.latency.p95_ms > 0.0);
}

/// The bit-identity contract: CTRs produced by the sharded real path
/// (per-shard gathers, cross-node merge, dense tail at the home) must
/// equal the unsharded single-process forward on the same inputs,
/// exactly — same floats, not merely close.
#[test]
fn sharded_real_outputs_match_unsharded_forward_bit_for_bit() {
    let (cluster, model) = sharded_real_cluster(2);
    let qs = queries(40);
    let report = cluster.serve(&qs, Serve::real(vec![model.clone()]));
    assert_eq!(report.completed, qs.len() as u64);
    assert_eq!(report.ctrs.len(), qs.len(), "one CTR vector per query");

    let by_id: HashMap<u64, &drs_query::Query> = qs.iter().map(|q| (q.id, q)).collect();
    for (qid, ctrs) in &report.ctrs {
        let q = by_id[qid];
        let inputs = sharded_query_inputs(&model, SEED, q);
        let expect = model.forward(&inputs, &mut OpProfiler::new());
        assert_eq!(ctrs, &expect, "query {qid}: sharded CTRs diverged");
    }
}
