//! Streaming-sketch bit fence: what the span layer's stage breakdown,
//! the fleet pulse's windowed histograms and the per-tenant latency
//! summaries compute, bit for bit.
//!
//! For four virtual shapes — one node with the online controller on, a
//! 2-tenant DRR pool, a 4-node power-of-two-choices cluster and a
//! 2-node sharded cluster — each line of `golden/digest_bits.txt`
//! pins, as FNV-1a hashes:
//!
//! * every `StageBreakdown` cell (`count`, `mean_ms`, `p50_ms`,
//!   `p95_ms`, `p99_ms` of the total, each stage, each tenant row and
//!   each node row);
//! * each tenant's `TenantBreakdown::latency` (`count`, `mean_ms`,
//!   `min_ms`, `max_ms`, `p50_ms`, `p95_ms`, `p99_ms`), whose mean, min
//!   and max `sim_bits.txt` does not pin;
//! * the pulse's `to_jsonl()` and `to_prometheus()` bytes.
//!
//! The file was first dumped while each of those three had its own
//! hand-rolled P² digest, one commit before they became one
//! `StreamingLatency`. It has been re-pinned twice since, each time in
//! a commit of its own: the `tl=` hashes when each tenant's summary
//! moved from a P² digest to an exact `LatencyRecorder`, and the
//! `total`/`stages`/`tenants`/`nodes`/`jsonl`/`prom` hashes when
//! `StreamingLatency` became a log-bucket sketch. The `spans=` counts
//! and `tl=` hashes did not move then. A refactor must never
//! regenerate the file. Only a change to the cost model, the query
//! generator, the RNG stream or the sketch's arithmetic legitimately
//! moves these bits; `cargo test -p drs-server --test
//! digest_bits_golden -- --ignored` rewrites it then.

use drs_core::{
    ClusterTopology, MultiModelSpec, NodeSpec, Report, RoutingPolicy, SchedulerPolicy, TenantSpec,
};
use drs_metrics::LatencySummary;
use drs_models::zoo;
use drs_platform::{CpuPlatform, GpuPlatform, InterconnectModel};
use drs_query::{ArrivalProcess, MixedStream, Query, QueryGenerator, SizeDistribution};
use drs_server::{Cluster, ControllerConfig, Serve, Server, ServerOptions};
use drs_shard::{PlacementPolicy, ShardPlan};
use drs_telemetry::{PulseRecorder, RingRecorder};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/digest_bits.txt");

/// FNV-1a over the bit patterns of `xs`, in order.
fn fnv1a(xs: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn text_hash(s: &str) -> u64 {
    fnv1a(s.bytes().map(u64::from))
}

fn cell(c: &LatencySummary) -> [u64; 5] {
    [
        c.count as u64,
        c.mean_ms.to_bits(),
        c.p50_ms.to_bits(),
        c.p95_ms.to_bits(),
        c.p99_ms.to_bits(),
    ]
}

fn queries(rate: f64, n: usize, seed: u64) -> Vec<Query> {
    QueryGenerator::new(
        ArrivalProcess::poisson(rate),
        SizeDistribution::production(),
        seed,
    )
    .take(n)
    .collect()
}

/// Serves `qs` traced and pulsed on the virtual clock and appends one
/// golden line: `label spans total stages tenants nodes tl jsonl prom`.
fn line(
    text: &mut String,
    label: &str,
    serve: impl FnOnce(Serve<&mut RingRecorder, &mut PulseRecorder>) -> Report,
) {
    let mut rec = RingRecorder::new(64);
    let mut pulse = PulseRecorder::new(2_000_000);
    let r = serve(Serve::virtual_time().traced(&mut rec).pulsed(&mut pulse));
    let b = r.stage_breakdown.as_ref().expect("traced run");
    let rows = |rows: &[Vec<LatencySummary>]| fnv1a(rows.iter().flatten().flat_map(cell));
    let tl = fnv1a(r.tenant_breakdowns.iter().flat_map(|t| {
        let l = &t.latency;
        [
            l.count as u64,
            l.mean_ms.to_bits(),
            l.min_ms.to_bits(),
            l.max_ms.to_bits(),
            l.p50_ms.to_bits(),
            l.p95_ms.to_bits(),
            l.p99_ms.to_bits(),
        ]
    }));
    writeln!(
        text,
        "{label} spans={} total={:016x} stages={:016x} tenants={:016x} nodes={:016x} \
         tl={tl:016x} jsonl={:016x} prom={:016x}",
        b.spans,
        fnv1a(cell(&b.total)),
        fnv1a(b.stages.iter().flat_map(cell)),
        rows(&b.tenants),
        rows(&b.nodes),
        text_hash(&pulse.registry().to_jsonl()),
        text_hash(&pulse.registry().to_prometheus()),
    )
    .unwrap();
}

fn dump() -> String {
    let mut text = String::new();

    let opts = ServerOptions::new(8, SchedulerPolicy::with_gpu(64, 128))
        .with_controller(ControllerConfig::smoke());
    let server = Server::new(
        &zoo::dlrm_rmc1(),
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        opts,
    );
    let qs = queries(700.0, 800, 41);
    line(&mut text, "controller", |how| server.serve(&qs, how));

    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(128)),
        TenantSpec::new(zoo::wide_and_deep(), SchedulerPolicy::cpu_only(64)).with_weight(2),
    ]);
    let drr = Server::new_multi(
        &spec,
        CpuPlatform::skylake(),
        None,
        ServerOptions::new(24, SchedulerPolicy::cpu_only(128)),
    );
    let qs: Vec<_> = MixedStream::new(vec![
        QueryGenerator::new(
            ArrivalProcess::poisson(500.0),
            SizeDistribution::production(),
            43,
        ),
        QueryGenerator::new(
            ArrivalProcess::poisson(250.0),
            SizeDistribution::production(),
            44,
        ),
    ])
    .take(800)
    .collect();
    line(&mut text, "drr", |how| drr.serve(&qs, how));

    let po2c = Cluster::new(
        &zoo::wide_and_deep(),
        ClusterTopology::new(vec![
            NodeSpec::with_gpu(CpuPlatform::skylake(), GpuPlatform::gtx_1080ti()),
            NodeSpec::cpu_only(CpuPlatform::broadwell()),
            NodeSpec::cpu_only(CpuPlatform::skylake()),
            NodeSpec::cpu_only(CpuPlatform::broadwell()),
        ]),
        RoutingPolicy::PowerOfTwoChoices { d: 2 },
        ServerOptions::new(16, SchedulerPolicy::with_gpu(32, 200)),
    );
    let qs = queries(4_000.0, 1_000, 47);
    line(&mut text, "po2c4", |how| po2c.serve(&qs, how));

    let cfg = zoo::dlrm_rmc2();
    let topo = ClusterTopology::new(vec![
        NodeSpec::cpu_only(CpuPlatform::skylake())
            .with_mem_bytes(16 << 30);
        2
    ]);
    let plan = ShardPlan::place(&cfg, &topo, PlacementPolicy::LookupBalanced).unwrap();
    let sharded = Cluster::new_sharded(
        &cfg,
        topo,
        RoutingPolicy::ShardAware,
        plan,
        InterconnectModel::datacenter_100g(),
        ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
    );
    let qs = queries(400.0, 600, 53);
    line(&mut text, "sharded2", |how| sharded.serve(&qs, how));

    text
}

#[test]
fn digests_reproduce_every_golden_bit() {
    let got = dump();
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "line count differs from the golden"
    );
    for (g, w) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(g, w, "digest bits drifted from the golden");
    }
}

#[test]
#[ignore = "rewrites the golden; see the module docs for when that is legitimate"]
fn regenerate_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/digest_bits.txt");
    std::fs::write(path, dump()).expect("write golden");
}
