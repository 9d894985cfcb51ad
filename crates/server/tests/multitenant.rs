//! Multi-tenant serving acceptance: several zoo models co-located on
//! one shared engine pool, each with its own batching queue, knobs,
//! controller, and SLA tier (PAPER §III's per-model tuning result).

use drs_core::{
    ClusterTopology, MultiModelSpec, Report, RoutingPolicy, SchedulerPolicy, ServingStack,
    TenantSpec,
};
use drs_models::{zoo, ModelScale, RecModel};
use drs_platform::CpuPlatform;
use drs_query::{ArrivalProcess, MixedStream, QueryGenerator, SizeDistribution, TenantId, Trace};
use drs_server::{Cluster, ControllerConfig, Server, ServerOptions};
use std::sync::Arc;

fn mixed(rates: &[f64], seed: u64, n: usize) -> Vec<drs_query::Query> {
    MixedStream::new(
        rates
            .iter()
            .enumerate()
            .map(|(k, &r)| {
                QueryGenerator::new(
                    ArrivalProcess::poisson(r),
                    SizeDistribution::production(),
                    seed.wrapping_add(k as u64 * 0x9E37),
                )
            })
            .collect(),
    )
    .take(n)
    .collect()
}

fn co_locate(batch_a: u32, batch_b: u32) -> Server {
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(batch_a)),
        TenantSpec::new(zoo::wide_and_deep(), SchedulerPolicy::cpu_only(batch_b)),
    ]);
    Server::new_multi(
        &spec,
        CpuPlatform::skylake(),
        None,
        ServerOptions::new(40, SchedulerPolicy::cpu_only(batch_a)),
    )
}

/// The co-location headline (the paper's per-model-knobs result,
/// reproduced by `fig_multitenant` at full scale): an embedding-heavy
/// model that needs a big batch for capacity shares the node with a
/// compute-heavy model whose tight tier a big batch violates — so the
/// per-tenant pair beats every global knob on aggregate SLA-bounded
/// QPS.
#[test]
fn per_tenant_knobs_beat_every_global_knob() {
    let queries = mixed(&[900.0, 400.0], 11, 16_000);
    let agg = |r: &Report| -> f64 {
        r.tenant_breakdowns
            .iter()
            .map(|b| b.sla_bounded_qps())
            .sum()
    };
    let serve = |a: u32, b: u32| co_locate(a, b).serve_virtual(&queries);

    let per_tenant = serve(256, 64);
    assert!(
        per_tenant.tenant_breakdowns.iter().all(|b| b.met_sla()),
        "per-tenant knobs serve both tiers: {:?}",
        per_tenant
            .tenant_breakdowns
            .iter()
            .map(|b| (b.latency.p95_ms, b.sla_ms))
            .collect::<Vec<_>>()
    );
    for g in [64, 256] {
        let global = serve(g, g);
        assert!(
            agg(&per_tenant) > 1.2 * agg(&global),
            "per-tenant {} must beat global {g}/{g} {} by a clear margin",
            agg(&per_tenant),
            agg(&global)
        );
    }
}

/// Deficit round-robin on the shared pool: a saturating tenant's
/// backlog must not starve a light tenant sharing the node.
#[test]
fn heavy_tenant_cannot_starve_light_tenant() {
    // Both tenants serve RMC1; tenant 0 offers ~3x one node's
    // capacity at this knob, tenant 1 a sliver.
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(64)),
        TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(64)),
    ]);
    let mut opts = ServerOptions::new(40, SchedulerPolicy::cpu_only(64));
    opts.warmup_frac = 0.0;
    let server = Server::new_multi(&spec, CpuPlatform::skylake(), None, opts);
    let queries = mixed(&[3_000.0, 100.0], 7, 10_000);
    let light_offered = queries.iter().filter(|q| q.tenant == TenantId(1)).count() as u64;
    let r = server.serve_virtual(&queries);
    let (heavy, light) = (&r.tenant_breakdowns[0], &r.tenant_breakdowns[1]);
    assert_eq!(
        light.completed, light_offered,
        "every light-tenant query completes"
    );
    assert!(
        heavy.latency.p95_ms > 1_000.0,
        "the heavy tenant is genuinely overloaded (p95 {} ms)",
        heavy.latency.p95_ms
    );
    assert!(
        light.latency.p95_ms < 100.0,
        "the light tenant rides its own lane, not the heavy backlog \
         (p95 {} ms vs heavy {} ms)",
        light.latency.p95_ms,
        heavy.latency.p95_ms
    );
}

/// Fair-share weights bite under contention: draining the same burst,
/// the weight-2 tenant earns two-thirds of the pool while both are
/// backlogged, so its queries clear markedly sooner than the
/// weight-1 tenant's. (In virtual time *every* query completes
/// eventually — the split shows up in drain latency, not counts.)
#[test]
fn drr_weights_split_a_saturated_pool() {
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(64)).with_weight(2),
        TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(64)),
    ]);
    let mut opts = ServerOptions::new(40, SchedulerPolicy::cpu_only(64));
    opts.warmup_frac = 0.0;
    let server = Server::new_multi(&spec, CpuPlatform::skylake(), None, opts);
    // A dead-heat burst: 1500 queries per tenant, interleaved arrivals
    // a microsecond apart — the arbiter's split is the only thing
    // deciding whose backlog drains first.
    let triples: Vec<(f64, u32, TenantId)> = (0..3_000)
        .map(|i| (i as f64 * 1e-6, 100, TenantId((i % 2) as u32)))
        .collect();
    let trace = Trace::from_tagged(&triples);
    let r = server.serve_trace(&trace);
    let (w2, w1) = (&r.tenant_breakdowns[0], &r.tenant_breakdowns[1]);
    assert_eq!(w2.completed, 1_500);
    assert_eq!(w1.completed, 1_500);
    let ratio = w1.latency.mean_ms / w2.latency.mean_ms;
    assert!(
        (1.3..=2.2).contains(&ratio),
        "weight-1 tenant should wait ~1.67x the weight-2 tenant's mean drain \
         (uniform-drain model), got {ratio:.2} ({} ms vs {} ms)",
        w1.latency.mean_ms,
        w2.latency.mean_ms
    );
}

/// Per-tenant controllers are genuinely independent: a tenant that
/// receives no traffic keeps its ladder-base policy while the active
/// tenant's controller climbs away from it.
#[test]
fn controllers_tune_per_tenant_independently() {
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(1)),
        TenantSpec::new(zoo::wide_and_deep(), SchedulerPolicy::cpu_only(1)),
    ]);
    let opts = ServerOptions::new(40, SchedulerPolicy::cpu_only(1))
        .with_controller(ControllerConfig::smoke());
    let server = Server::new_multi(&spec, CpuPlatform::skylake(), None, opts);
    // Every query belongs to tenant 0; tenant 1's lane never sees a
    // completion, so its control windows never close.
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(400.0),
        SizeDistribution::production(),
        5,
    )
    .take(2_000)
    .collect();
    let r = server.serve_virtual(&queries);
    assert_eq!(r.tenant_breakdowns[1].completed, 0);
    assert!(
        r.tenant_final_policies[0].max_batch > 1,
        "the active tenant's controller climbed: {:?}",
        r.tenant_final_policies[0]
    );
    assert_eq!(
        r.tenant_final_policies[1].max_batch, 1,
        "the idle tenant's controller never moved"
    );
}

/// Multi-tenant virtual serving is byte-identical per seed, with
/// per-tenant controllers engaged — the determinism contract every
/// A/B comparison rests on.
#[test]
fn multi_tenant_serving_is_byte_identical_per_seed() {
    let run = |seed: u64| -> String {
        let spec = MultiModelSpec::new(vec![
            TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(1)).with_weight(2),
            TenantSpec::new(zoo::ncf(), SchedulerPolicy::cpu_only(1)),
        ]);
        let mut opts = ServerOptions::new(40, SchedulerPolicy::cpu_only(1))
            .with_controller(ControllerConfig::smoke());
        opts.seed = seed;
        let server = Server::new_multi(&spec, CpuPlatform::skylake(), None, opts);
        let queries = mixed(&[600.0, 300.0], seed, 1_500);
        format!("{:?}", server.serve_virtual(&queries))
    };
    assert_eq!(run(3), run(3), "same seed must reproduce");
    assert_ne!(run(3), run(4), "different seeds must differ");
}

/// A mixed-tenant cluster spreads both tenants across nodes and still
/// reports per-tenant slices; replaying the recorded trace through the
/// `ServingStack` face reproduces the run exactly.
#[test]
fn cluster_serves_tenants_and_replays_traces() {
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(128)),
        TenantSpec::new(zoo::ncf(), SchedulerPolicy::cpu_only(64)),
    ]);
    let mut opts = ServerOptions::new(40, SchedulerPolicy::cpu_only(128));
    opts.seed = 9;
    let cluster = Cluster::new_multi(
        &spec,
        ClusterTopology::uniform(2, CpuPlatform::skylake(), None),
        RoutingPolicy::PowerOfTwoChoices { d: 2 },
        opts,
    );
    assert_eq!(cluster.label(), "cluster[po2c x2 multi x2]");
    let queries = mixed(&[700.0, 350.0], 21, 2_000);
    let direct = cluster.serve_virtual(&queries);
    assert_eq!(direct.tenant_breakdowns.len(), 2);
    let total: u64 = direct.tenant_breakdowns.iter().map(|b| b.completed).sum();
    assert_eq!(total, direct.completed, "breakdowns partition the window");
    assert_eq!(direct.node_queries.iter().sum::<u64>(), 2_000);

    // Trace replay (tenant tags survive the round-trip).
    let trace = Trace::record(queries.iter().copied(), queries.len());
    let mut buf = Vec::new();
    trace.write(&mut buf).unwrap();
    let parsed = Trace::read(buf.as_slice()).unwrap();
    let replayed = cluster.serve_trace(&parsed);
    assert_eq!(direct.completed, replayed.completed);
    assert_eq!(
        direct.tenant_breakdowns[1].completed,
        replayed.tenant_breakdowns[1].completed
    );
}

/// Multi-tenant real serving end-to-end: one shared
/// [`drs_engine::InferenceEngine`] pool executes both tenants' lanes
/// (arbitrated by the same deficit round-robin as virtual time), with
/// each tenant's own instantiated model behind the pool — and the
/// report still partitions per tenant.
#[test]
fn real_engine_serves_two_tenants_on_one_pool() {
    let (cfg_a, cfg_b) = (zoo::ncf(), zoo::wide_and_deep());
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(cfg_a.clone(), SchedulerPolicy::cpu_only(16)),
        TenantSpec::new(cfg_b.clone(), SchedulerPolicy::cpu_only(16)).with_weight(2),
    ]);
    let mut opts = ServerOptions::new(2, SchedulerPolicy::cpu_only(16));
    opts.warmup_frac = 0.0;
    opts.time_scale = 4.0;
    let server = Server::new_multi(&spec, CpuPlatform::skylake(), None, opts);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let models = vec![
        Arc::new(RecModel::instantiate(&cfg_a, ModelScale::tiny(), &mut rng)),
        Arc::new(RecModel::instantiate(&cfg_b, ModelScale::tiny(), &mut rng)),
    ];
    let queries = mixed(&[800.0, 500.0], 3, 80);
    let per_tenant: Vec<u64> = (0..2)
        .map(|k| queries.iter().filter(|q| q.tenant == TenantId(k)).count() as u64)
        .collect();
    let r = server.serve_real_multi(models, &queries);
    assert_eq!(r.completed, 80, "every query completes on the real pool");
    assert_eq!(r.tenant_breakdowns.len(), 2);
    for (k, b) in r.tenant_breakdowns.iter().enumerate() {
        assert_eq!(
            b.completed, per_tenant[k],
            "tenant {k} completes exactly its own stream"
        );
    }
    assert!(r.latency.p95_ms > 0.0, "real latencies are measured");
}

/// One model per tenant is a hard contract on the real path: a
/// single-model call against a two-tenant server is a configuration
/// error, not a silent mis-serve.
#[test]
#[should_panic(expected = "one model per tenant")]
fn real_engine_rejects_model_count_mismatch() {
    let cfg = zoo::ncf();
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(cfg.clone(), SchedulerPolicy::cpu_only(16)),
        TenantSpec::new(cfg.clone(), SchedulerPolicy::cpu_only(16)),
    ]);
    let server = Server::new_multi(
        &spec,
        CpuPlatform::skylake(),
        None,
        ServerOptions::new(2, SchedulerPolicy::cpu_only(16)),
    );
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let model = Arc::new(RecModel::instantiate(&cfg, ModelScale::tiny(), &mut rng));
    let queries = mixed(&[100.0, 100.0], 1, 20);
    let _ = server.serve_real(model, &queries);
}

/// Queries tagged for a tenant the spec does not know are a
/// configuration error, not silent misattribution.
#[test]
#[should_panic(expected = "tagged t1 but the stack serves 1 tenant")]
fn unknown_tenant_rejected() {
    let server = Server::new(
        &zoo::ncf(),
        CpuPlatform::skylake(),
        None,
        ServerOptions::new(4, SchedulerPolicy::cpu_only(16)),
    );
    let queries = mixed(&[100.0, 100.0], 1, 50);
    let _ = server.serve_virtual(&queries);
}
