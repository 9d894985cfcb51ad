//! Export-determinism contract for the fleet-pulse metrics layer:
//! re-serving the same seed must reproduce the JSONL dump and the
//! Prometheus exposition **byte for byte** on every runtime shape —
//! virtual cluster and multi-tenant server — and the
//! exposition must survive a round trip through the in-repo parser
//! unchanged. Diffing two runs' exports is the cheapest fleet-wide
//! regression check the repo has; these tests keep it trustworthy.

use drs_core::{
    ClusterTopology, MultiModelSpec, NodeSpec, RoutingPolicy, SchedulerPolicy, TenantSpec,
};
use drs_metrics::parse_prometheus;
use drs_models::zoo;
use drs_platform::{CpuPlatform, GpuPlatform};
use drs_query::{ArrivalProcess, MixedStream, QueryGenerator, SizeDistribution};
use drs_server::{Cluster, ControllerConfig, Serve, Server, ServerOptions};
use drs_telemetry::PulseRecorder;

/// Serves one pulsed window and returns `(jsonl, prometheus,
/// decisions_jsonl)` for byte comparison.
fn exports(pulse: &PulseRecorder) -> (String, String, String) {
    (
        pulse.registry().to_jsonl(),
        pulse.registry().to_prometheus(),
        pulse.decisions_jsonl(),
    )
}

fn cluster_exports(seed: u64) -> (String, String, String) {
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::diurnal(500.0, 0.4, 4.0),
        SizeDistribution::production(),
        seed,
    )
    .take(700)
    .collect();
    let mut opts = ServerOptions::new(24, SchedulerPolicy::with_gpu(8, 300))
        .with_controller(ControllerConfig::smoke());
    opts.seed = seed;
    let cluster = Cluster::new(
        &zoo::dlrm_rmc1(),
        ClusterTopology::new(vec![
            NodeSpec::with_gpu(CpuPlatform::skylake(), GpuPlatform::gtx_1080ti()),
            NodeSpec::cpu_only(CpuPlatform::broadwell()),
        ]),
        RoutingPolicy::PowerOfTwoChoices { d: 2 },
        opts,
    );
    let mut pulse = PulseRecorder::new(4_000_000);
    let report = cluster.serve(&queries, Serve::virtual_time().pulsed(&mut pulse));
    assert!(report.completed > 0);
    exports(&pulse)
}

fn multitenant_exports(seed: u64) -> (String, String, String) {
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(128)),
        TenantSpec::new(zoo::wide_and_deep(), SchedulerPolicy::cpu_only(64)).with_weight(2),
    ]);
    let server = Server::new_multi(
        &spec,
        CpuPlatform::skylake(),
        None,
        ServerOptions::new(24, SchedulerPolicy::cpu_only(128)),
    );
    let queries: Vec<_> = MixedStream::new(vec![
        QueryGenerator::new(
            ArrivalProcess::poisson(500.0),
            SizeDistribution::production(),
            seed,
        ),
        QueryGenerator::new(
            ArrivalProcess::poisson(250.0),
            SizeDistribution::production(),
            seed ^ 0x5bd1_e995,
        ),
    ])
    .take(600)
    .collect();
    let mut pulse = PulseRecorder::new(3_000_000);
    let report = server.serve(&queries, Serve::virtual_time().pulsed(&mut pulse));
    assert!(report.completed > 0);
    assert!(
        !pulse.drr_rounds().is_empty(),
        "two lanes must log DRR grants"
    );
    exports(&pulse)
}

fn assert_byte_identical(shape: &str, a: (String, String, String), b: (String, String, String)) {
    assert_eq!(a.0, b.0, "{shape}: JSONL must be byte-identical per seed");
    assert_eq!(
        a.1, b.1,
        "{shape}: Prometheus must be byte-identical per seed"
    );
    assert_eq!(
        a.2, b.2,
        "{shape}: decision log must be byte-identical per seed"
    );
    assert!(
        !a.0.is_empty() && !a.1.is_empty(),
        "{shape}: exports non-empty"
    );
}

#[test]
fn cluster_exports_are_byte_identical_per_seed() {
    assert_byte_identical("cluster", cluster_exports(7), cluster_exports(7));
}

#[test]
fn multitenant_exports_are_byte_identical_per_seed() {
    assert_byte_identical(
        "multi-tenant",
        multitenant_exports(3),
        multitenant_exports(3),
    );
}

/// The Prometheus exposition parses with the in-repo parser and
/// re-renders to the exact input bytes on every shape — nothing about
/// the format is lost (or invented) in transit.
#[test]
fn prometheus_round_trips_losslessly() {
    for (shape, (_, prom, _)) in [
        ("cluster", cluster_exports(19)),
        ("multi-tenant", multitenant_exports(19)),
    ] {
        let parsed = parse_prometheus(&prom)
            .unwrap_or_else(|e| panic!("{shape}: exposition must parse: {e}"));
        assert_eq!(
            parsed.render(),
            prom,
            "{shape}: render(parse(x)) must reproduce x byte for byte"
        );
        assert!(parsed.points() > 0, "{shape}: exposition carries samples");
    }
}

/// Different seeds must actually produce different series — otherwise
/// the byte-identity assertions above would pass vacuously.
#[test]
fn different_seeds_diverge() {
    assert_ne!(
        cluster_exports(7).0,
        cluster_exports(8).0,
        "a seed change must perturb the sampled series"
    );
}
