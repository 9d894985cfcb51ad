//! **Cluster routing sweep** — the scale-out experiment our single-node
//! figures could not express: one model served by a heterogeneous
//! 4-node fleet (2x Skylake + GTX 1080Ti, 2x Broadwell CPU-only)
//! behind a front-end router, under a skewed diurnal day.
//!
//! The scale-out literature's headline (Lui et al., "Understanding
//! Capacity-Driven Scale-Out Neural Recommendation Inference") is that
//! the routing policy dominates cluster tail latency once a service
//! spans nodes: an oblivious round-robin queues work behind the slow
//! nodes while fast capacity idles, and a power-of-two-choices sampler
//! recovers nearly the full least-outstanding tail at O(d) gauge reads.
//! This binary reproduces that on our stack: every policy serves the
//! identical query stream through [`drs_server::Cluster`] (selected
//! via the shared `ServingStack` entry point), and the table reports
//! the tail per policy.

use deeprecsys::prelude::*;
use deeprecsys::table::{fmt3, TextTable};

/// Serve through the unified entry point — any `ServingStack` backend
/// drops in here.
fn run_stack<S: ServingStack>(stack: &S, queries: &[deeprecsys::query::Query]) -> Report {
    stack.serve_queries(queries)
}

fn main() {
    let opts = drs_bench::parse_args();
    drs_bench::header(
        "Cluster routing — tail latency per front-end routing policy on a mixed fleet",
        "power-of-two-choices recovers nearly the least-outstanding tail and beats \
         round-robin by an order of magnitude once slow nodes saturate \
         (Lui et al.: routing policy dominates scale-out tail latency)",
        &opts,
    );

    let cfg = zoo::dlrm_rmc1();
    // The mixed fleet of Section IV-A: two GPU-attached Skylakes
    // (~1400 QPS each at batch 64 / threshold 300) and two CPU-only
    // Broadwells (~420 QPS each) — aggregate ~3.6k QPS, with a 3.3x
    // per-node capacity skew for oblivious routing to trip over.
    let topology = ClusterTopology::new(vec![
        NodeSpec::with_gpu(CpuPlatform::skylake(), GpuPlatform::gtx_1080ti()),
        NodeSpec::with_gpu(CpuPlatform::skylake(), GpuPlatform::gtx_1080ti()),
        NodeSpec::cpu_only(CpuPlatform::broadwell()),
        NodeSpec::cpu_only(CpuPlatform::broadwell()),
    ]);
    let policy = SchedulerPolicy::with_gpu(64, 300);

    // A skewed diurnal day at ~60% of aggregate capacity: the peak
    // (+40%) approaches the fleet's knee, and round-robin's quarter
    // share exceeds a Broadwell's capacity through most of the day.
    let base_qps = 2_200.0;
    let day_s = opts.pick(600.0, 30.0, 6.0);
    let num_queries = opts.pick(400_000, 40_000, 4_000);
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::diurnal(base_qps, 0.4, day_s),
        SizeDistribution::production(),
        opts.search.seed,
    )
    .take(num_queries)
    .collect();

    let routings = [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastOutstanding,
        RoutingPolicy::PowerOfTwoChoices { d: 2 },
        RoutingPolicy::SizeAware,
    ];

    let mut t = TextTable::new(vec![
        "routing",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "QPS",
        "GPU share",
        "node split (%)",
    ]);
    let mut p95s = Vec::new();
    for routing in routings {
        let cluster = Cluster::new(
            &cfg,
            topology.clone(),
            routing,
            ServerOptions::new(40, policy),
        );
        let r = run_stack(&cluster, &queries);
        let total: u64 = r.node_queries.iter().sum::<u64>().max(1);
        let split: Vec<String> = r
            .node_queries
            .iter()
            .map(|&n| format!("{:.0}", 100.0 * n as f64 / total as f64))
            .collect();
        p95s.push((routing.label(), r.latency.p95_ms));
        t.row(vec![
            routing.label(),
            fmt3(r.latency.p50_ms),
            fmt3(r.latency.p95_ms),
            fmt3(r.latency.p99_ms),
            fmt3(r.qps),
            format!("{:.2}", r.gpu_work_fraction),
            split.join("/"),
        ]);
    }

    println!(
        "{} queries, diurnal +/-40% around {base_qps:.0} QPS over {day_s} s, \
         fleet = 2x Skylake+1080Ti / 2x Broadwell, batch 64 / threshold 300\n",
        queries.len()
    );
    println!("{t}");

    let get = |label: &str| {
        p95s.iter()
            .find(|(l, _)| l == label)
            .map(|&(_, p)| p)
            .unwrap_or(f64::NAN)
    };
    let rr = get("round-robin");
    let lo = get("least-outstanding");
    let po2c = get("po2c");
    println!("## Headline\n");
    println!(
        "- po2c vs round-robin p95: {:.2}x lower ({} -> {} ms)",
        rr / po2c,
        fmt3(rr),
        fmt3(po2c)
    );
    println!(
        "- po2c vs full least-outstanding p95: {:.2}x (two sampled gauges \
         recover {}% of the full-scan win)",
        po2c / lo,
        ((rr - po2c) / (rr - lo).max(1e-9) * 100.0).round()
    );
}
