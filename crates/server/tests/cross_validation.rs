//! Cross-validation: the real-engine runtime must agree with its
//! virtual-time twin wherever the two are the same machine (offload-all
//! runs complete entirely on the cost-model clock), and the GPU
//! executor must price service with exactly `ModelCost`'s math. These
//! are the tests that keep the two clocks from silently drifting apart.
//! (Virtual time itself has one loop: `Simulation` is a configuration
//! of it, pinned bit for bit by `crates/sim/tests/sim_bits_golden.rs`.)

use drs_core::{
    ClusterTopology, MultiModelSpec, Report, RoutingPolicy, SchedulerPolicy, TenantSpec,
};
use drs_models::{zoo, ModelScale, RecModel};
use drs_platform::{CpuPlatform, GpuPlatform, ModelCost};
use drs_query::{ArrivalProcess, MixedStream, QueryGenerator, SizeDistribution, Trace};
use drs_server::{Cluster, GpuExecutor, Serve, Server, ServerOptions};
use drs_telemetry::{PulseRecorder, QuerySpan, RingRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The recorder's retained spans in query-id order, validated — the
/// common setup for exact span cross-checks (every test below sizes
/// its ring to hold the full run, so retention is complete).
fn spans_by_id(rec: &RingRecorder) -> Vec<QuerySpan> {
    assert_eq!(rec.dropped(), 0, "ring sized to retain the whole run");
    let mut spans: Vec<QuerySpan> = rec.spans().copied().collect();
    for s in &spans {
        s.validate().expect("well-formed span");
    }
    spans.sort_by_key(|s| s.query_id);
    spans
}

fn tiny_model(cfg: &drs_models::ModelConfig, seed: u64) -> Arc<RecModel> {
    let mut rng = StdRng::seed_from_u64(seed);
    Arc::new(RecModel::instantiate(cfg, ModelScale::tiny(), &mut rng))
}

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

/// The clock boundary at report level: the measured window and the
/// throughput derive from model time alone, so an offload-all real run
/// reports them bit-equal to its virtual twin. (`gpu_utilization` is
/// left out: the real path divides it by its wall-derived end.)
fn assert_window_matches(real: &Report, virt: &Report) {
    assert_eq!(real.window_s.to_bits(), virt.window_s.to_bits());
    assert_eq!(real.qps.to_bits(), virt.qps.to_bits());
}

#[test]
fn gpu_executor_uses_exactly_the_simulator_cost_math() {
    for cfg in zoo::all() {
        let cost = ModelCost::new(&cfg);
        let cpu = CpuPlatform::skylake();
        let gpu = GpuPlatform::gtx_1080ti();
        let gx = GpuExecutor::new(cost.clone(), cpu, gpu);
        for size in [1u32, 7, 64, 150, 400, 1000] {
            assert_eq!(
                gx.service_us(0, size),
                cost.gpu_query_us(&cpu, &gpu, size as usize),
                "{} size {size}",
                cfg.name
            );
        }
    }
}

/// The real engine against its own virtual twin: with every query
/// offloaded (threshold 0), completions happen entirely on the
/// virtual-time GPU, so pacing the identical stream onto physical
/// worker threads must reproduce the virtual run *bit for bit*. The
/// real path anchors its clock at the first arrival's integer
/// nanosecond timestamp and books every arrival at its due time, so
/// there is no tolerance here — any drift is a scheduling bug, not
/// jitter.
#[test]
fn real_offload_all_matches_virtual_exactly() {
    let cfg = zoo::dlrm_rmc1();
    let model = tiny_model(&cfg, 7);
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(300.0),
        SizeDistribution::production(),
        47,
    )
    .take(300)
    .collect();
    let mut opts = ServerOptions::new(2, SchedulerPolicy::with_gpu(64, 0));
    opts.warmup_frac = 0.0;
    opts.time_scale = 8.0;
    let server = Server::new(
        &cfg,
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        opts,
    );
    let mut virt_rec = RingRecorder::new(queries.len());
    let mut real_rec = RingRecorder::new(queries.len());
    let virt = server.serve(&queries, Serve::virtual_time().traced(&mut virt_rec));
    let real = server.serve(&queries, Serve::real(vec![model]).traced(&mut real_rec));

    assert_eq!(real.completed, virt.completed);
    assert_eq!(
        real.latencies_ms, virt.latencies_ms,
        "offload-all real latencies are the virtual run, exactly"
    );
    assert_eq!(real.latency.p95_ms.to_bits(), virt.latency.p95_ms.to_bits());
    assert_window_matches(&real, &virt);

    // The span timelines agree per query with zero tolerance: every
    // offload-all stage lives on the virtual clock, so arrival, FIFO
    // wait, and device service decompose identically on both runtimes.
    let (vs, rs) = (spans_by_id(&virt_rec), spans_by_id(&real_rec));
    assert_eq!(vs.len() as u64, virt.completed);
    assert_eq!(rs, vs, "offload-all real spans are the virtual spans");
    assert_eq!(
        real.stage_breakdown
            .as_ref()
            .unwrap()
            .total
            .p95_ms
            .to_bits(),
        virt.stage_breakdown
            .as_ref()
            .unwrap()
            .total
            .p95_ms
            .to_bits(),
        "streaming stage digests see identical observation sequences"
    );
}

/// The multi-tenant version of the exact-match contract: two tenants
/// on one shared pool, both fully offloaded — per-tenant deficit
/// round-robin, per-tenant GPU pricing, and the shared device FIFO
/// must all sequence identically whether lanes run in virtual time or
/// against the physical engine pool.
#[test]
fn multi_tenant_real_offload_all_matches_virtual_exactly() {
    let (cfg_a, cfg_b) = (zoo::ncf(), zoo::wide_and_deep());
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(cfg_a.clone(), SchedulerPolicy::with_gpu(32, 0)),
        TenantSpec::new(cfg_b.clone(), SchedulerPolicy::with_gpu(32, 0)).with_weight(2),
    ]);
    let mut opts = ServerOptions::new(2, SchedulerPolicy::with_gpu(32, 0));
    opts.warmup_frac = 0.0;
    opts.time_scale = 8.0;
    let server = Server::new_multi(
        &spec,
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        opts,
    );
    let models = vec![tiny_model(&cfg_a, 2), tiny_model(&cfg_b, 3)];
    let queries = mixed(&[600.0, 300.0], 13, 200);

    let mut virt_rec = RingRecorder::new(queries.len());
    let mut real_rec = RingRecorder::new(queries.len());
    let virt = server.serve(&queries, Serve::virtual_time().traced(&mut virt_rec));
    let real = server.serve(&queries, Serve::real(models).traced(&mut real_rec));

    assert_eq!(real.completed, virt.completed);
    assert_eq!(real.latencies_ms, virt.latencies_ms);
    assert_window_matches(&real, &virt);
    assert_eq!(
        spans_by_id(&real_rec),
        spans_by_id(&virt_rec),
        "per-tenant offload-all spans agree per query, zero tolerance"
    );
    assert_eq!(real.tenant_breakdowns.len(), virt.tenant_breakdowns.len());
    for (r, v) in real.tenant_breakdowns.iter().zip(&virt.tenant_breakdowns) {
        assert_eq!(r.completed, v.completed);
        assert_eq!(
            r.latency.p95_ms.to_bits(),
            v.latency.p95_ms.to_bits(),
            "per-tenant tails agree bit-for-bit"
        );
    }
}

/// Two nodes behind the router, fully offloaded: the real cluster
/// drains its per-node GPU heaps in global (time, query-id) order,
/// which is exactly the virtual event queue's ordering — so routing
/// decisions, per-node counts, and every latency must match the
/// virtual run with zero tolerance.
#[test]
fn cluster_real_offload_all_matches_virtual_exactly() {
    let cfg = zoo::dlrm_rmc1();
    let model = tiny_model(&cfg, 11);
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(500.0),
        SizeDistribution::production(),
        53,
    )
    .take(300)
    .collect();
    let mut opts = ServerOptions::new(1, SchedulerPolicy::with_gpu(64, 0));
    opts.warmup_frac = 0.0;
    opts.time_scale = 8.0;
    let cluster = Cluster::new(
        &cfg,
        ClusterTopology::uniform(2, CpuPlatform::skylake(), Some(GpuPlatform::gtx_1080ti())),
        RoutingPolicy::LeastOutstanding,
        opts,
    );
    let mut virt_rec = RingRecorder::new(queries.len());
    let mut real_rec = RingRecorder::new(queries.len());
    let virt = cluster.serve(&queries, Serve::virtual_time().traced(&mut virt_rec));
    let real = cluster.serve(&queries, Serve::real(vec![model]).traced(&mut real_rec));

    assert_eq!(real.completed, virt.completed);
    assert_eq!(
        real.node_queries, virt.node_queries,
        "the router makes the same per-node decisions on both clocks"
    );
    assert_eq!(real.latencies_ms, virt.latencies_ms);
    assert_window_matches(&real, &virt);
    let (vs, rs) = (spans_by_id(&virt_rec), spans_by_id(&real_rec));
    assert_eq!(rs, vs, "cluster offload-all spans agree, node ids included");
    assert!(
        vs.iter().any(|s| s.node == 0) && vs.iter().any(|s| s.node == 1),
        "spans attribute work to both nodes"
    );
}

/// A fully offloaded single-GPU-node setup shared by the two façade
/// tests below: every completion lives on the cost model's clock, so
/// real runs are exactly reproducible.
fn offload_all_node() -> (
    drs_models::ModelConfig,
    ServerOptions,
    Vec<drs_query::Query>,
) {
    let queries = QueryGenerator::new(
        ArrivalProcess::poisson(400.0),
        SizeDistribution::production(),
        61,
    )
    .take(240)
    .collect();
    let mut opts = ServerOptions::new(2, SchedulerPolicy::with_gpu(64, 0));
    opts.warmup_frac = 0.0;
    opts.time_scale = 8.0;
    (zoo::dlrm_rmc1(), opts, queries)
}

/// Trace *and* pulse in one real run: the spans are the traced-only
/// run's, the sampled series are the pulsed-only run's — and the
/// virtual run's, key for key — so observing one axis never perturbs
/// the other.
#[test]
fn real_observed_run_records_spans_and_pulse_together() {
    let (cfg, opts, queries) = offload_all_node();
    let model = tiny_model(&cfg, 23);
    let gpu = Some(GpuPlatform::gtx_1080ti());
    let server = Server::new(&cfg, CpuPlatform::skylake(), gpu, opts);
    let tick_ns = 2_000_000;

    let mut both_rec = RingRecorder::new(queries.len());
    let mut both_pulse = PulseRecorder::new(tick_ns);
    let both = server.serve(
        &queries,
        Serve::real(vec![model.clone()])
            .traced(&mut both_rec)
            .pulsed(&mut both_pulse),
    );
    assert!(both.stage_breakdown.is_some() && both.pulse.is_some());

    let mut traced_rec = RingRecorder::new(queries.len());
    server.serve(
        &queries,
        Serve::real(vec![model.clone()]).traced(&mut traced_rec),
    );
    assert_eq!(spans_by_id(&both_rec), spans_by_id(&traced_rec));

    let mut pulsed = PulseRecorder::new(tick_ns);
    server.serve(&queries, Serve::real(vec![model]).pulsed(&mut pulsed));
    assert_eq!(
        both_pulse.registry().to_jsonl(),
        pulsed.registry().to_jsonl()
    );
    assert_eq!(both_pulse.decisions_jsonl(), pulsed.decisions_jsonl());

    let mut virt = PulseRecorder::new(tick_ns);
    server.serve(&queries, Serve::virtual_time().pulsed(&mut virt));
    assert!(virt.registry().samples().len() > 10, "sampling must tick");
    for key in virt.registry().keys() {
        assert_eq!(
            both_pulse.registry().series(&key),
            virt.registry().series(&key),
            "series `{key}` drifted between the observed real run and the virtual run"
        );
    }
}

/// `Server` real serving is `Cluster` real serving with N = 1: the two
/// façades over the same node must produce the same run.
#[test]
fn one_node_cluster_real_run_is_the_server_real_run() {
    let (cfg, opts, queries) = offload_all_node();
    let model = tiny_model(&cfg, 29);
    let (cpu, gpu) = (CpuPlatform::skylake(), GpuPlatform::gtx_1080ti());
    let server = Server::new(&cfg, cpu, Some(gpu), opts.clone());
    let cluster = Cluster::new(
        &cfg,
        ClusterTopology::uniform(1, cpu, Some(gpu)),
        RoutingPolicy::LeastOutstanding,
        opts,
    );
    let mut server_rec = RingRecorder::new(queries.len());
    let mut cluster_rec = RingRecorder::new(queries.len());
    let s = server.serve(
        &queries,
        Serve::real(vec![model.clone()]).traced(&mut server_rec),
    );
    let c = cluster.serve(&queries, Serve::real(vec![model]).traced(&mut cluster_rec));

    assert_eq!(c.completed, queries.len() as u64);
    assert_eq!(c.latencies_ms, s.latencies_ms);
    assert_eq!(c.node_queries, s.node_queries);
    assert_eq!(spans_by_id(&cluster_rec), spans_by_id(&server_rec));
}

/// Satellite regression: a recorded trace replayed through
/// `Cluster::serve` on the real clock must reproduce the direct real run exactly
/// (an in-memory trace stores queries verbatim, and the offload-all
/// cluster is deterministic).
#[test]
fn cluster_trace_replay_matches_direct_on_the_real_engine() {
    let cfg = zoo::dlrm_rmc1();
    let model = tiny_model(&cfg, 17);
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(400.0),
        SizeDistribution::production(),
        59,
    )
    .take(200)
    .collect();
    let trace = Trace::record(queries.iter().copied(), queries.len());
    let mut opts = ServerOptions::new(1, SchedulerPolicy::with_gpu(64, 0));
    opts.warmup_frac = 0.0;
    opts.time_scale = 8.0;
    let cluster = Cluster::new(
        &cfg,
        ClusterTopology::uniform(2, CpuPlatform::skylake(), Some(GpuPlatform::gtx_1080ti())),
        RoutingPolicy::LeastOutstanding,
        opts,
    );
    let direct = cluster.serve(&queries, Serve::real(vec![model.clone()]));
    let replayed = cluster.serve(
        &trace.replay().collect::<Vec<_>>(),
        Serve::real(vec![model]),
    );

    assert_eq!(replayed.completed, direct.completed);
    assert_eq!(replayed.node_queries, direct.node_queries);
    assert_eq!(replayed.latencies_ms, direct.latencies_ms);
}

/// Batch formation on the CPU path is decided at due times on both
/// clocks: arrivals are booked at their scheduled instant and a
/// coalesce window flushes at its deadline, strictly before any
/// arrival due later. So without a controller (no retune re-batches)
/// a real run forms exactly the batches of its virtual twin, however
/// late the submitter wakes — on a single node, a 2-tenant DRR pool
/// and a 2-node round-robin cluster. (Which worker serves a batch, and
/// when, is wall time; what the batches are is not.)
#[test]
fn cpu_path_real_forms_the_virtual_batches() {
    fn assert_same_batches(shape: &str, real: &Report, virt: &Report) {
        let key = |r: &Report| {
            (
                r.completed,
                r.batches,
                r.full_batches,
                r.coalesced_batches,
                r.timeout_flushes,
                r.mean_batch_items.to_bits(),
            )
        };
        assert_eq!(key(real), key(virt), "{shape}: real batches != virtual");
        assert!(virt.coalesced_batches > 0, "{shape}: nothing coalesced");
        assert!(virt.timeout_flushes > 0, "{shape}: no window timed out");
    }
    fn opts(workers: usize, policy: SchedulerPolicy, time_scale: f64) -> ServerOptions {
        let mut opts = ServerOptions::new(workers, policy);
        opts.warmup_frac = 0.0;
        opts.time_scale = time_scale;
        opts
    }
    let cpu = CpuPlatform::skylake();
    for (seed, time_scale) in [(71, 1.0), (73, 4.0)] {
        let rmc1 = zoo::dlrm_rmc1();
        let queries: Vec<_> = QueryGenerator::new(
            ArrivalProcess::poisson(1500.0),
            SizeDistribution::production(),
            seed,
        )
        .take(200)
        .collect();
        let server = Server::new(
            &rmc1,
            cpu,
            None,
            opts(2, SchedulerPolicy::cpu_only(64), time_scale),
        );
        let model = tiny_model(&rmc1, seed);
        let virt = server.serve(&queries, Serve::virtual_time());
        let real = server.serve(&queries, Serve::real(vec![model.clone()]));
        assert_same_batches("single node", &real, &virt);

        let cluster = Cluster::new(
            &rmc1,
            ClusterTopology::uniform(2, cpu, None),
            RoutingPolicy::RoundRobin,
            opts(1, SchedulerPolicy::cpu_only(64), time_scale),
        );
        let virt = cluster.serve(&queries, Serve::virtual_time());
        let real = cluster.serve(&queries, Serve::real(vec![model]));
        assert_same_batches("2-node round-robin", &real, &virt);

        let (ncf, wnd) = (zoo::ncf(), zoo::wide_and_deep());
        let spec = MultiModelSpec::new(vec![
            TenantSpec::new(ncf.clone(), SchedulerPolicy::cpu_only(32)),
            TenantSpec::new(wnd.clone(), SchedulerPolicy::cpu_only(64)).with_weight(2),
        ]);
        let pool = Server::new_multi(
            &spec,
            cpu,
            None,
            opts(2, SchedulerPolicy::cpu_only(32), time_scale),
        );
        let queries = mixed(&[900.0, 600.0], seed, 200);
        let models = vec![tiny_model(&ncf, seed), tiny_model(&wnd, seed + 1)];
        let virt = pool.serve(&queries, Serve::virtual_time());
        let real = pool.serve(&queries, Serve::real(models));
        assert_same_batches("2-tenant DRR pool", &real, &virt);
    }
}
