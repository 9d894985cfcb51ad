//! **Tail-latency anatomy** — where the p95/p99 milliseconds actually
//! go, per lifecycle stage, as load rises.
//!
//! Every serving runtime in the stack records the same fixed span
//! schema (`drs_telemetry`): queue-wait on the offload FIFO, coalesce
//! wait in the batch former, ready-queue residency, engine service,
//! and — sharded — exchange + dense-tail. This binary serves the same
//! production-tail workload through three stacks and decomposes the
//! latency distribution into stage contributions:
//!
//! 1. **single node** (DLRM-RMC1, CPU + GPU offload) across load,
//! 2. **multi-tenant** (RMC1 + WND co-located behind DRR lanes),
//! 3. **sharded cluster** (DLRM-RMC2 across two 16 GiB nodes).
//!
//! The Chrome-trace workflow rides along: the highest-load single-node
//! run is exported as `trace_event` JSON (load into `chrome://tracing`
//! or Perfetto) and re-parsed to prove the export is lossless.
//!
//! `--real` adds the cross-runtime span validation axis: an
//! offload-all stream is paced onto physical engine workers and every
//! recorded span must equal the virtual run's, per query, zero
//! tolerance.

use deeprecsys::prelude::*;
use deeprecsys::table::{fmt3, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Stages worth a table column (Route is reserved and always zero).
const SHOWN: [Stage; 6] = [
    Stage::QueueWait,
    Stage::CoalesceWait,
    Stage::BatchResidency,
    Stage::EngineService,
    Stage::ShardExchange,
    Stage::DenseTail,
];

fn queries(rate: f64, n: usize, seed: u64) -> Vec<deeprecsys::query::Query> {
    QueryGenerator::new(
        ArrivalProcess::poisson(rate),
        SizeDistribution::production(),
        seed,
    )
    .take(n)
    .collect()
}

fn stage_table(rows: &[(String, StageBreakdown)]) -> TextTable {
    let mut header = vec!["run", "p95 (ms)", "p99 (ms)"];
    for s in SHOWN {
        header.push(s.name());
    }
    let mut t = TextTable::new(header);
    for (label, b) in rows {
        let mut row = vec![label.clone(), fmt3(b.total.p95_ms), fmt3(b.total.p99_ms)];
        for s in SHOWN {
            // Mean share ("N% of the milliseconds") plus the stage's
            // own streaming p95 — the anatomy of the tail.
            row.push(format!(
                "{:>4.1}% | {}",
                100.0 * b.share_of_mean(s),
                fmt3(b.stage(s).p95_ms)
            ));
        }
        t.row(row);
    }
    t
}

fn main() {
    let opts = drs_bench::parse_args();
    drs_bench::header(
        "Tail-latency anatomy — per-stage attribution of p95/p99 across load",
        "end-to-end tail latency decomposes into scheduling stages; DeepRecSys's \
         batching/offload knobs act on specific stages (coalesce wait, FIFO wait, \
         service), so attributing the p95/p99 milliseconds per stage shows *why* a \
         knob moves the tail (§III, Figures 9-10)",
        &opts,
    );
    let seed = opts.search.seed;
    let n = opts.pick(24_000, 6_000, 600);

    // ── 1. Single node across load ──────────────────────────────────
    let cfg = zoo::dlrm_rmc1();
    let server = Server::new(
        &cfg,
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        ServerOptions::new(40, SchedulerPolicy::with_gpu(64, 128)),
    );
    let mut rows = Vec::new();
    let mut export_spans: Vec<QuerySpan> = Vec::new();
    for rate in [400.0, 800.0, 1200.0] {
        let qs = queries(rate, n, seed);
        let mut rec = RingRecorder::new(qs.len());
        let r = server.serve_virtual_traced(&qs, &mut rec);
        let b = r.stage_breakdown.clone().expect("traced run");
        rows.push((format!("{rate:.0} qps"), b));
        export_spans = rec.spans().copied().collect();
    }
    println!("## Single node — DLRM-RMC1, 40 Skylake workers + GPU (offload > 128), {n} queries\n");
    println!("stage cells: share of mean latency | stage p95 (ms)\n");
    println!("{}", stage_table(&rows));

    // ── Chrome-trace workflow on the highest-load run ───────────────
    let json = to_chrome_trace(&export_spans);
    let events = parse_chrome_trace(&json).expect("exported trace re-parses");
    let path = std::env::temp_dir().join("fig_tail_anatomy_trace.json");
    std::fs::write(&path, &json).expect("write chrome trace");
    println!(
        "chrome trace: {} spans -> {} events, {} bytes at {} (open in chrome://tracing)\n",
        export_spans.len(),
        events.len(),
        json.len(),
        path.display()
    );
    assert!(
        events.len() >= export_spans.len(),
        "every span exports at least one stage event"
    );

    // ── 2. Multi-tenant co-location ─────────────────────────────────
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(256)),
        TenantSpec::new(zoo::wide_and_deep(), SchedulerPolicy::cpu_only(64)).with_weight(2),
    ]);
    let mt = Server::new_multi(
        &spec,
        CpuPlatform::skylake(),
        None,
        ServerOptions::new(40, SchedulerPolicy::cpu_only(256)),
    );
    let qs: Vec<_> = MixedStream::new(vec![
        QueryGenerator::new(
            ArrivalProcess::poisson(700.0),
            SizeDistribution::production(),
            seed,
        ),
        QueryGenerator::new(
            ArrivalProcess::poisson(300.0),
            SizeDistribution::production(),
            seed ^ 0x5bd1_e995,
        ),
    ])
    .take(n)
    .collect();
    let mut rec = RingRecorder::new(qs.len());
    let r = mt.serve_virtual_traced(&qs, &mut rec);
    let b = r.stage_breakdown.clone().expect("traced run");
    let mut mt_rows = vec![("all tenants".to_string(), b.clone())];
    for (k, row) in b.tenants.iter().enumerate() {
        // Rebuild a per-tenant view from the tenant's digest row: the
        // breakdown type carries total stats only stream-wide, so the
        // per-tenant rows print stage stats against their own mean.
        let tenant_total_mean: f64 = row.iter().map(|s| s.mean_ms).sum();
        let mut tb = b.clone();
        tb.stages = row.clone();
        tb.total.mean_ms = tenant_total_mean;
        tb.total.p95_ms = f64::NAN; // not tracked per tenant per stage-sum
        mt_rows.push((format!("tenant {k}"), tb));
    }
    println!("## Multi-tenant — RMC1 (batch 256) + WND (batch 64) behind DRR lanes\n");
    let mut t = TextTable::new({
        let mut h = vec!["tenant", "mean (ms)"];
        for s in SHOWN {
            h.push(s.name());
        }
        h
    });
    for (label, tb) in &mt_rows {
        let mut row = vec![label.clone(), fmt3(tb.total.mean_ms)];
        for s in SHOWN {
            row.push(format!(
                "{:>4.1}% | {}",
                100.0 * tb.share_of_mean(s),
                fmt3(tb.stage(s).p95_ms)
            ));
        }
        t.row(row);
    }
    println!("stage cells: share of tenant mean | stage p95 (ms)\n");
    println!("{t}");

    // ── 3. Sharded cluster ──────────────────────────────────────────
    let cfg2 = zoo::dlrm_rmc2();
    let topo = ClusterTopology::new(vec![
        NodeSpec::cpu_only(CpuPlatform::skylake())
            .with_mem_bytes(16 << 30);
        2
    ]);
    let plan = ShardPlan::place(&cfg2, &topo, PlacementPolicy::LookupBalanced).unwrap();
    let sharded = Cluster::new_sharded(
        &cfg2,
        topo,
        RoutingPolicy::ShardAware,
        plan,
        InterconnectModel::datacenter_100g(),
        ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
    );
    let qs = queries(500.0, n, seed);
    let mut rec = RingRecorder::new(qs.len());
    let r = sharded.serve_virtual_traced(&qs, &mut rec);
    let b = r.stage_breakdown.clone().expect("traced run");
    println!("## Sharded — DLRM-RMC2 across 2 x 16 GiB nodes, 100G fabric\n");
    println!("stage cells: share of mean latency | stage p95 (ms)\n");
    println!("{}", stage_table(&[("500 qps".to_string(), b.clone())]));
    println!(
        "exchange + dense tail carry {:.1}% of the mean sharded latency\n",
        100.0 * (b.share_of_mean(Stage::ShardExchange) + b.share_of_mean(Stage::DenseTail))
    );

    if opts.real {
        real_span_validation(seed, &opts);
    }
}

/// `--real`: pace an offload-all stream onto physical engine workers
/// and require every recorded span to equal the virtual run's — the
/// cross-runtime validation axis for the span schema itself.
fn real_span_validation(seed: u64, opts: &drs_bench::ExpOptions) {
    println!("\n## Real-engine cross-validation (--real): span timelines\n");
    let cfg = zoo::dlrm_rmc1();
    let n = opts.pick(4_000, 1_200, 240);
    let qs = queries(300.0, n, seed);
    let mut so = ServerOptions::new(2, SchedulerPolicy::with_gpu(64, 0));
    so.seed = seed;
    so.warmup_frac = 0.0;
    so.time_scale = 8.0;
    let server = Server::new(
        &cfg,
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        so,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Arc::new(RecModel::instantiate(&cfg, ModelScale::tiny(), &mut rng));

    let mut virt_rec = RingRecorder::new(qs.len());
    let mut real_rec = RingRecorder::new(qs.len());
    let virt = server.serve_virtual_traced(&qs, &mut virt_rec);
    let real = server.serve_real_observed(vec![model], &qs, &mut real_rec, &mut NoopMetrics);

    let sort = |rec: &RingRecorder| {
        let mut v: Vec<QuerySpan> = rec.spans().copied().collect();
        v.sort_by_key(|s| s.query_id);
        v
    };
    let (vs, rs) = (sort(&virt_rec), sort(&real_rec));
    let exact = vs.iter().zip(&rs).filter(|(a, b)| a == b).count();
    println!(
        "{n} queries fully offloaded, time compressed 8x: {exact}/{} spans bit-exact \
         (virtual p95 {} ms, real p95 {} ms)",
        vs.len(),
        fmt3(virt.latency.p95_ms),
        fmt3(real.latency.p95_ms)
    );
    assert_eq!(vs.len() as u64, virt.completed);
    assert_eq!(
        exact,
        vs.len(),
        "offload-all real span timelines drifted from the virtual clock"
    );
}
