//! Quickstart: score a query with a real model, then measure how much
//! load the same model sustains under its SLA in simulation.
//!
//! Run with: `cargo run --release --example quickstart`

use deeprecsys::prelude::*;
use rand::SeedableRng;

fn main() {
    // --- 1. Real inference -------------------------------------------------
    // Instantiate Facebook's DLRM-RMC1 (Table I) at laptop scale and
    // score one 8-item query on the actual CPU.
    let cfg = zoo::dlrm_rmc1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let model = RecModel::instantiate(&cfg, ModelScale::tiny(), &mut rng);
    let inputs = model.generate_inputs(8, &mut rng);
    let mut prof = OpProfiler::new();
    #[expect(clippy::disallowed_methods)] // times one real forward
    let (ctrs, elapsed) = {
        let start = std::time::Instant::now();
        let ctrs = model.forward(&inputs, &mut prof);
        (ctrs, start.elapsed())
    };

    println!("model: {} ({})", model.name(), cfg.domain);
    println!("scored {} candidate items in {elapsed:?}", ctrs.len());
    for (i, ctr) in ctrs.iter().enumerate() {
        println!("  item {i}: CTR = {ctr:.4}");
    }
    let (dominant, frac) = prof.dominant().expect("profiled");
    println!(
        "dominant operator: {dominant} ({:.0}% of time)",
        frac * 100.0
    );

    // --- 2. At-scale serving ----------------------------------------------
    // The same model served on a 40-core Skylake under production
    // traffic: how many queries per second fit under the 100 ms p95 SLA?
    let infra = DeepRecInfra::new(cfg.clone());
    let baseline = infra.baseline_policy();
    let opts = SearchOptions::quick();
    let cap = infra.max_qps(baseline, cfg.sla_ms, &opts);
    println!(
        "\nstatic baseline (batch {}): {:.0} QPS under {} ms p95 SLA",
        baseline.max_batch, cap.max_qps, cfg.sla_ms
    );

    // DeepRecSched finds a better batch size by hill climbing.
    let tuned = infra.tune(cfg.sla_ms, &opts);
    println!(
        "DeepRecSched (batch {}): {:.0} QPS  ({:.2}x the baseline)",
        tuned.policy.max_batch,
        tuned.qps,
        tuned.qps / cap.max_qps.max(1e-9)
    );
}
