//! Span well-formedness: across seeds, loads, and policies, every
//! recorded query span is a lossless decomposition of the latency the
//! report records — stages monotone (chronological by schema index),
//! no gaps, durations summing to the end-to-end latency exactly — and
//! the Chrome-trace export round-trips through its own parser.

use drs_core::MultiModelSpec;
use drs_core::{ClusterTopology, NodeSpec, RoutingPolicy, SchedulerPolicy, TenantSpec};
use drs_metrics::{percentile_of_sorted, LatencySummary};
use drs_models::zoo;
use drs_platform::{CpuPlatform, GpuPlatform, InterconnectModel};
use drs_query::{ArrivalProcess, MixedStream, QueryGenerator, SizeDistribution};
use drs_server::{Cluster, Serve, Server, ServerOptions};
use drs_shard::{PlacementPolicy, ShardPlan};
use drs_telemetry::{parse_chrome_trace, to_chrome_trace, QuerySpan, RingRecorder, Stage};
use proptest::prelude::*;

fn queries(rate: f64, n: usize, seed: u64) -> Vec<drs_query::Query> {
    QueryGenerator::new(
        ArrivalProcess::poisson(rate),
        SizeDistribution::production(),
        seed,
    )
    .take(n)
    .collect()
}

/// The shared well-formedness contract: every span validates, and the
/// recorded span stream mirrors the report's `latencies_ms` bit for
/// bit, entry for entry (both are appended at completion).
fn assert_spans_decompose(rec: &RingRecorder, latencies_ms: &[f64], completed: u64) {
    assert_eq!(rec.dropped(), 0, "ring sized to the run");
    assert_eq!(rec.recorded(), completed);
    let spans: Vec<QuerySpan> = rec.spans().copied().collect();
    assert_eq!(spans.len(), latencies_ms.len());
    for (span, &ms) in spans.iter().zip(latencies_ms) {
        span.validate().expect("well-formed span");
        assert_eq!(
            span.latency_ms().to_bits(),
            ms.to_bits(),
            "query {}: span decomposition must equal the recorded latency",
            span.query_id
        );
        // Chronological schema: a stage can only consume time the
        // earlier stages left — checked implicitly by the exact-sum
        // validate() plus non-negative (u64) durations.
        assert!(span.end_ns >= span.arrival_ns);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Virtual single-node serving, GPU offload enabled: spans hold
    /// across arrival seeds and offload thresholds.
    #[test]
    fn server_spans_well_formed(seed in 0u64..500, threshold_idx in 0usize..3) {
        let threshold = [0u32, 64, 10_000][threshold_idx];
        let qs = queries(250.0, 120, seed);
        let server = Server::new(
            &zoo::dlrm_rmc1(),
            CpuPlatform::skylake(),
            Some(GpuPlatform::gtx_1080ti()),
            ServerOptions::new(8, SchedulerPolicy::with_gpu(64, threshold)),
        );
        let mut rec = RingRecorder::new(qs.len());
        let report = server.serve(&qs, Serve::virtual_time().traced(&mut rec));
        assert_spans_decompose(&rec, &report.latencies_ms, report.completed);
    }
}

#[test]
fn multi_tenant_spans_attribute_to_their_tenants() {
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(zoo::ncf(), SchedulerPolicy::with_gpu(32, 0)),
        TenantSpec::new(zoo::wide_and_deep(), SchedulerPolicy::cpu_only(32)).with_weight(2),
    ]);
    let server = Server::new_multi(
        &spec,
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        ServerOptions::new(4, SchedulerPolicy::with_gpu(32, 0)),
    );
    let qs: Vec<_> = MixedStream::new(vec![
        QueryGenerator::new(
            ArrivalProcess::poisson(400.0),
            SizeDistribution::production(),
            11,
        ),
        QueryGenerator::new(
            ArrivalProcess::poisson(200.0),
            SizeDistribution::production(),
            12,
        ),
    ])
    .take(200)
    .collect();
    let mut rec = RingRecorder::new(qs.len());
    let report = server.serve(&qs, Serve::virtual_time().traced(&mut rec));
    assert_spans_decompose(&rec, &report.latencies_ms, report.completed);
    let breakdown = report.stage_breakdown.as_ref().expect("traced run");
    assert_eq!(breakdown.tenants.len(), 2, "both tenants recorded spans");
    // Tenant 0 offloads everything: its service must be all
    // engine-service + queue-wait, never batch residency.
    assert_eq!(
        breakdown.tenants[0][Stage::BatchResidency.index()].mean_ms,
        0.0
    );
    assert!(breakdown.tenants[0][Stage::EngineService.index()].mean_ms > 0.0);
    // Tenant 1 is CPU-path: coalesce + residency + service, no FIFO.
    assert_eq!(breakdown.tenants[1][Stage::QueueWait.index()].mean_ms, 0.0);
}

/// Checks one breakdown cell against the exact statistics of the
/// span values it summarises: count, min and max exact, mean to
/// rounding, p50/p95/p99 within the sketch's α = 2⁻⁷.
fn assert_cell_within_alpha(cell: &LatencySummary, mut exact: Vec<f64>, what: &str) {
    assert_eq!(cell.count, exact.len(), "{what}: count");
    if exact.is_empty() {
        return;
    }
    exact.sort_by(f64::total_cmp);
    assert_eq!(
        (cell.min_ms, cell.max_ms),
        (exact[0], exact[exact.len() - 1]),
        "{what}"
    );
    let mean = exact.iter().sum::<f64>() / exact.len() as f64;
    assert!(
        (cell.mean_ms - mean).abs() <= 1e-9 * mean.max(1.0),
        "{what}: mean"
    );
    for (q, got) in [
        (0.50, cell.p50_ms),
        (0.95, cell.p95_ms),
        (0.99, cell.p99_ms),
    ] {
        let want = percentile_of_sorted(&exact, q);
        assert!(
            (got - want).abs() <= want / 128.0 * (1.0 + 1e-12),
            "{what} p{}: sketch {got} vs exact {want}",
            q * 100.0
        );
    }
}

/// Every cell of a breakdown — total, each stage, each tenant row and
/// each node row — is within α of the exact percentiles of the spans
/// it covers, here a 2-tenant, 3-node run whose ring keeps every span.
#[test]
fn breakdown_cells_are_within_alpha_of_the_retained_spans() {
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::with_gpu(64, 96)),
        TenantSpec::new(zoo::wide_and_deep(), SchedulerPolicy::cpu_only(32)).with_weight(2),
    ]);
    let cluster = Cluster::new_multi(
        &spec,
        ClusterTopology::new(vec![
            NodeSpec::with_gpu(CpuPlatform::skylake(), GpuPlatform::gtx_1080ti()),
            NodeSpec::cpu_only(CpuPlatform::broadwell()),
            NodeSpec::cpu_only(CpuPlatform::skylake()),
        ]),
        RoutingPolicy::LeastOutstanding,
        ServerOptions::new(8, SchedulerPolicy::cpu_only(64)),
    );
    let qs: Vec<_> = MixedStream::new(vec![
        QueryGenerator::new(
            ArrivalProcess::poisson(900.0),
            SizeDistribution::production(),
            21,
        ),
        QueryGenerator::new(
            ArrivalProcess::poisson(600.0),
            SizeDistribution::production(),
            22,
        ),
    ])
    .take(1_500)
    .collect();
    let mut rec = RingRecorder::new(qs.len());
    let report = cluster.serve(&qs, Serve::virtual_time().traced(&mut rec));
    assert_eq!(rec.dropped(), 0, "ring sized to the run");
    let spans: Vec<QuerySpan> = rec.spans().copied().collect();
    let b = report.stage_breakdown.as_ref().expect("traced run");
    assert_eq!((b.tenants.len(), b.nodes.len()), (2, 3));
    let ms = |ns: u64| ns as f64 / 1e6;
    let total: Vec<f64> = spans.iter().map(QuerySpan::latency_ms).collect();
    assert_cell_within_alpha(&b.total, total, "total");
    for stage in Stage::ALL {
        let i = stage.index();
        let of = |keep: &dyn Fn(&QuerySpan) -> bool| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| keep(s))
                .map(|s| ms(s.stages[i]))
                .collect()
        };
        assert_cell_within_alpha(&b.stages[i], of(&|_| true), &format!("{stage:?}"));
        for (t, row) in b.tenants.iter().enumerate() {
            let what = format!("tenant {t} {stage:?}");
            assert_cell_within_alpha(&row[i], of(&|s| s.tenant == t), &what);
        }
        for (n, row) in b.nodes.iter().enumerate() {
            let what = format!("node {n} {stage:?}");
            assert_cell_within_alpha(&row[i], of(&|s| s.node == n), &what);
        }
    }
}

#[test]
fn sharded_spans_split_exchange_from_dense_tail() {
    let cfg = zoo::dlrm_rmc2();
    let topo = ClusterTopology::new(vec![
        NodeSpec::cpu_only(CpuPlatform::skylake())
            .with_mem_bytes(16 << 30);
        2
    ]);
    let plan = ShardPlan::place(&cfg, &topo, PlacementPolicy::LookupBalanced).unwrap();
    let cluster = Cluster::new_sharded(
        &cfg,
        topo,
        RoutingPolicy::ShardAware,
        plan,
        InterconnectModel::datacenter_100g(),
        ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
    );
    let qs = queries(400.0, 300, 7);
    let mut rec = RingRecorder::new(qs.len());
    let report = cluster.serve(&qs, Serve::virtual_time().traced(&mut rec));
    assert_spans_decompose(&rec, &report.latencies_ms, report.completed);
    let breakdown = report.stage_breakdown.as_ref().expect("traced run");
    assert!(
        breakdown.stage(Stage::ShardExchange).mean_ms > 0.0,
        "a 2-node shard pays the fabric"
    );
    assert!(
        breakdown.stage(Stage::DenseTail).mean_ms > 0.0,
        "the merge home pays the dense tail"
    );
    for span in rec.spans() {
        let merge = span.stage_ns(Stage::ShardExchange) + span.stage_ns(Stage::DenseTail);
        assert!(merge > 0, "every sharded query merges");
    }
}

#[test]
fn chrome_trace_export_reparses_losslessly() {
    let qs = queries(300.0, 150, 21);
    let server = Server::new(
        &zoo::dlrm_rmc1(),
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        ServerOptions::new(8, SchedulerPolicy::with_gpu(64, 128)),
    );
    let mut rec = RingRecorder::new(qs.len());
    let report = server.serve(&qs, Serve::virtual_time().traced(&mut rec));
    let spans: Vec<QuerySpan> = rec.spans().copied().collect();
    let json = to_chrome_trace(&spans);
    let events = parse_chrome_trace(&json).expect("exporter output parses");
    let expected: usize = spans
        .iter()
        .map(|s| s.stages.iter().filter(|&&ns| ns > 0).count())
        .sum();
    assert_eq!(events.len(), expected, "one X event per non-empty stage");
    assert!(
        events.len() as u64 >= report.completed,
        "spans have >= 1 stage"
    );
    for ev in &events {
        assert!(Stage::from_name(&ev.name).is_some(), "schema names only");
        assert!(ev.dur_us > 0.0);
    }
}

/// A no-op sink leaves the report without a breakdown, and a traced
/// rerun of the same stream changes no measurement.
#[test]
fn tracing_is_measurement_invariant() {
    let qs = queries(300.0, 150, 33);
    let server = Server::new(
        &zoo::dlrm_rmc1(),
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        ServerOptions::new(8, SchedulerPolicy::with_gpu(64, 128)),
    );
    let untraced = server.serve(&qs, Serve::virtual_time());
    assert!(untraced.stage_breakdown.is_none());
    let mut rec = RingRecorder::new(qs.len());
    let traced = server.serve(&qs, Serve::virtual_time().traced(&mut rec));
    assert!(traced.stage_breakdown.is_some());
    assert_eq!(traced.latencies_ms, untraced.latencies_ms);
    assert_eq!(traced.completed, untraced.completed);
    assert_eq!(
        traced.latency.p95_ms.to_bits(),
        untraced.latency.p95_ms.to_bits()
    );
}
