//! Serve a production-shaped query stream on the *real* multi-threaded
//! inference engine (actual forward passes on your CPU) through the
//! open-loop serving path (`Server::serve_real`: arrivals paced by the
//! wall clock, dynamic batching, a bounded worker pool) and print the
//! measured throughput, latency distribution, and per-operator time
//! breakdown — a live miniature of Figures 3 and 8.
//!
//! Run with: `cargo run --release --example real_engine [model] [workers]`
//! (defaults: DIEN, 4 workers)

use deeprecsys::engine::profile_operators;
use deeprecsys::prelude::*;
use deeprecsys::table::{fmt3, TextTable};
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "DIEN".into());
    let workers: usize = std::env::args()
        .nth(2)
        .and_then(|w| w.parse().ok())
        .unwrap_or(4);
    let cfg = zoo::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown model {name}");
        std::process::exit(1);
    });

    // Laptop-scale weights (tables capped; access pattern preserved).
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let model = Arc::new(RecModel::instantiate(
        &cfg,
        ModelScale::default_scale(),
        &mut rng,
    ));
    println!(
        "# Real engine: {} | {} workers | {} MB of embeddings instantiated",
        cfg.name,
        workers,
        model.embedding_bytes() / (1 << 20)
    );

    // A production-shaped open-loop stream: Poisson arrivals at
    // 1000 QPS, production query sizes.
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(1000.0),
        SizeDistribution::production(),
        11,
    )
    .take(64)
    .collect();
    let total_items: u64 = queries.iter().map(|q| q.size as u64).sum();
    println!(
        "serving {} queries ({} items, max query {})\n",
        queries.len(),
        total_items,
        queries.iter().map(|q| q.size).max().unwrap()
    );

    let mut opts = ServerOptions::new(workers, SchedulerPolicy::cpu_only(64));
    opts.warmup_frac = 0.0; // count every query
    opts.seed = 3;
    let server = Server::new(&cfg, CpuPlatform::skylake(), None, opts);
    let report = server.serve_real(Arc::clone(&model), &queries);

    println!(
        "throughput: {:.1} queries/s | {:.0} items/s | {} batches of {:.1} items",
        report.qps,
        total_items as f64 / report.window_s,
        report.batches,
        report.mean_batch_items
    );
    println!(
        "latency: p50 {} ms | p95 {} ms | max {} ms\n",
        fmt3(report.latency.p50_ms),
        fmt3(report.latency.p95_ms),
        fmt3(report.latency.max_ms)
    );

    // The operator mix at the serving batch size, as Figure 3 measures it.
    let profile = profile_operators(&model, 64, 8, 3);
    let mut t = TextTable::new(vec!["operator", "share of execution time"]);
    let fr = profile.fractions();
    for (kind, share) in OpKind::ALL.iter().zip(fr) {
        t.row(vec![kind.to_string(), format!("{:.1}%", share * 100.0)]);
    }
    println!("## Operator breakdown (Figure 3 view)\n\n{t}");
    let (dom, share) = profile.dominant().expect("profiled");
    println!(
        "bottleneck: {dom} ({:.0}%) — paper says \"{}\"",
        share * 100.0,
        cfg.paper_bottleneck
    );
}
