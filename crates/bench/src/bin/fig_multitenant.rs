//! **Multi-tenant co-location** — the paper's datacenter setting:
//! several recommendation services share one engine pool, and the
//! batching knob must be tuned **per model**, not globally (§III).
//!
//! Two zoo models with opposite resource profiles — embedding-heavy
//! DLRM-RMC1 (100 ms SLA) and compute-heavy WND (25 ms SLA) — serve a
//! mixed arrival stream on one shared Skylake node through
//! [`drs_server::Server::new_multi`]: one batching queue per tenant
//! behind a deficit-round-robin shared-pool arbiter. The sweep serves
//! the identical stream under every *global* knob (both tenants forced
//! to the same batch size), then under the best *per-tenant* pair, and
//! reports each tenant's SLA-bounded throughput. The headline is the
//! paper's co-location result: no single global knob matches per-model
//! knobs on aggregate SLA-bounded QPS.

use deeprecsys::prelude::*;
use deeprecsys::table::{fmt3, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Aggregate SLA-bounded QPS: each tenant contributes its sustained
/// throughput only while meeting its own tier.
fn aggregate(r: &Report) -> f64 {
    r.tenant_breakdowns
        .iter()
        .map(|b| b.sla_bounded_qps())
        .sum()
}

fn main() {
    let opts = drs_bench::parse_args();
    drs_bench::header(
        "Multi-tenant co-location — per-model batching knobs vs one global knob",
        "batching/offload knobs must be tuned per model: co-located services with \
         divergent compute/memory profiles and SLA tiers cannot share one \
         configuration (DeepRecSys §III; Facebook's DNN recommendation \
         characterization documents the divergence)",
        &opts,
    );

    let model_a = zoo::dlrm_rmc1(); // embedding-heavy, 100 ms tier
    let model_b = zoo::wide_and_deep(); // MLP/compute-heavy, 25 ms tier
                                        // Calibrated against solo capacity on one 40-worker Skylake:
                                        // RMC1 sustains ~1.5k QPS only at batch 256 (its 100 ms tier
                                        // tolerates the batching delay), while WND's tight 25 ms tier is
                                        // broken by batch 256 at *any* load (p95 ≈ 36 ms) and wants ≤ 64.
                                        // At these rates the co-location is ~85 % utilized under the right
                                        // per-tenant knobs, and no global knob serves both tiers.
    let (rate_a, rate_b) = (900.0, 400.0);
    let num_queries = opts.pick(120_000, 24_000, 2_400);
    let seed = opts.search.seed;
    let queries: Vec<_> = MixedStream::new(vec![
        QueryGenerator::new(
            ArrivalProcess::poisson(rate_a),
            SizeDistribution::production(),
            seed,
        ),
        QueryGenerator::new(
            ArrivalProcess::poisson(rate_b),
            SizeDistribution::production(),
            seed ^ 0x5bd1_e995,
        ),
    ])
    .take(num_queries)
    .collect();

    let serve = |batch_a: u32, batch_b: u32| -> Report {
        let spec = MultiModelSpec::new(vec![
            TenantSpec::new(model_a.clone(), SchedulerPolicy::cpu_only(batch_a)),
            TenantSpec::new(model_b.clone(), SchedulerPolicy::cpu_only(batch_b)),
        ]);
        let mut so = ServerOptions::new(40, SchedulerPolicy::cpu_only(batch_a));
        so.seed = seed;
        Server::new_multi(&spec, CpuPlatform::skylake(), None, so)
            .serve(&queries, Serve::virtual_time())
    };

    let knobs: &[u32] = &[4, 16, 64, 256];
    let mut t = TextTable::new(vec![
        "knob (A/B)",
        "A qps",
        "A p95 (ms)",
        "A SLA",
        "B qps",
        "B p95 (ms)",
        "B SLA",
        "aggregate OK-QPS",
    ]);
    let mut row = |label: String, r: &Report| {
        let (a, b) = (&r.tenant_breakdowns[0], &r.tenant_breakdowns[1]);
        t.row(vec![
            label,
            fmt3(a.qps),
            fmt3(a.latency.p95_ms),
            if a.met_sla() { "yes" } else { "NO" }.to_string(),
            fmt3(b.qps),
            fmt3(b.latency.p95_ms),
            if b.met_sla() { "yes" } else { "NO" }.to_string(),
            fmt3(aggregate(r)),
        ]);
    };

    // The full knob grid: the diagonal is the global-knob baseline
    // (one configuration forced on both services), the off-diagonal
    // pairs are per-tenant tunings — the paper's per-model knobs.
    let mut best_global: (u32, f64) = (knobs[0], f64::NEG_INFINITY);
    let mut best_pair: ((u32, u32), f64) = ((knobs[0], knobs[0]), f64::NEG_INFINITY);
    let mut pair_report = None;
    for &ka in knobs {
        for &kb in knobs {
            let r = serve(ka, kb);
            let agg = aggregate(&r);
            if ka == kb {
                if agg > best_global.1 {
                    best_global = (ka, agg);
                }
                row(format!("{ka}/{kb} (global)"), &r);
            }
            if agg > best_pair.1 {
                best_pair = ((ka, kb), agg);
                pair_report = Some(r);
            }
        }
    }
    let ((ka, kb), per_tenant_agg) = best_pair;
    // Label honestly: if the grid's best pair sits on the diagonal,
    // per-tenant tuning found no win over the global knob at this
    // scale (expected at --smoke windows), and the row must say so
    // rather than dress a global configuration up as per-tenant.
    let pair_label = if ka == kb {
        format!("{ka}/{kb} (per-tenant = global)")
    } else {
        format!("{ka}/{kb} (per-tenant)")
    };
    row(
        pair_label,
        pair_report.as_ref().expect("grid served at least one pair"),
    );

    println!(
        "{} queries: RMC1 @ {rate_a:.0} QPS + WND @ {rate_b:.0} QPS mixed onto one \
         40-worker Skylake, DRR shared pool\n",
        queries.len()
    );
    println!("{t}");
    println!("## Headline\n");
    println!(
        "- best single global knob ({}): {} aggregate SLA-bounded QPS",
        best_global.0,
        fmt3(best_global.1)
    );
    println!(
        "- per-tenant knobs ({ka} for RMC1, {kb} for WND): {} aggregate SLA-bounded QPS \
         ({:.2}x the best global knob)",
        fmt3(per_tenant_agg),
        per_tenant_agg / best_global.1.max(1e-9)
    );

    if opts.real {
        // A quarter of the co-location load: the single offload-all
        // device (the real path's exactly-priced clock) sustains this
        // comfortably, so the SLA columns stay meaningful.
        real_cross_validation(&model_a, &model_b, rate_a / 4.0, rate_b / 4.0, seed, &opts);
    }
}

/// `--real`: the same two tenants on one *physical* engine pool.
/// With every query offloaded the GPU path completes on the virtual
/// clock, so the real run must reproduce the virtual report exactly —
/// per query, per tenant — while genuinely pacing arrivals onto
/// worker threads arbitrated by the shared-pool DRR.
fn real_cross_validation(
    model_a: &ModelConfig,
    model_b: &ModelConfig,
    rate_a: f64,
    rate_b: f64,
    seed: u64,
    opts: &drs_bench::ExpOptions,
) {
    println!("\n## Real-engine cross-validation (--real)\n");
    let n = opts.pick(4_000, 1_200, 240);
    let queries: Vec<_> = MixedStream::new(vec![
        QueryGenerator::new(
            ArrivalProcess::poisson(rate_a),
            SizeDistribution::production(),
            seed,
        ),
        QueryGenerator::new(
            ArrivalProcess::poisson(rate_b),
            SizeDistribution::production(),
            seed ^ 0x5bd1_e995,
        ),
    ])
    .take(n)
    .collect();

    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(model_a.clone(), SchedulerPolicy::with_gpu(64, 0)),
        TenantSpec::new(model_b.clone(), SchedulerPolicy::with_gpu(64, 0)),
    ]);
    let mut so = ServerOptions::new(2, SchedulerPolicy::with_gpu(64, 0));
    so.seed = seed;
    so.warmup_frac = 0.0;
    so.time_scale = 8.0;
    let server = Server::new_multi(
        &spec,
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        so,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let models = vec![
        Arc::new(RecModel::instantiate(model_a, ModelScale::tiny(), &mut rng)),
        Arc::new(RecModel::instantiate(model_b, ModelScale::tiny(), &mut rng)),
    ];

    let virt = server.serve(&queries, Serve::virtual_time());
    let real = server.serve(&queries, Serve::real(models));

    let exact = real
        .latencies_ms
        .iter()
        .zip(&virt.latencies_ms)
        .filter(|(a, b)| a.to_bits() == b.to_bits())
        .count();
    let mut t = TextTable::new(vec![
        "clock",
        "A SLA-QPS",
        "A p95 (ms)",
        "B SLA-QPS",
        "B p95 (ms)",
        "aggregate OK-QPS",
    ]);
    for (label, r) in [("virtual", &virt), ("real", &real)] {
        let (a, b) = (&r.tenant_breakdowns[0], &r.tenant_breakdowns[1]);
        t.row(vec![
            label.to_string(),
            fmt3(a.sla_bounded_qps()),
            fmt3(a.latency.p95_ms),
            fmt3(b.sla_bounded_qps()),
            fmt3(b.latency.p95_ms),
            fmt3(aggregate(r)),
        ]);
    }
    println!(
        "{n} queries, both tenants fully offloaded (threshold 0) on a shared \
         2-worker engine pool, time compressed 8x\n"
    );
    println!("{t}");
    println!(
        "per-query latency match: {exact}/{} bit-exact (the offload-all cost \
         model permits exact real-vs-virtual agreement)",
        queries.len()
    );
    assert_eq!(
        exact,
        queries.len(),
        "real multi-tenant serving drifted from the virtual clock"
    );
}
