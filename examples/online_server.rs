//! The open-loop serving runtime in one page: a Poisson stream served
//! under a fixed policy vs. the online hill-climbing controller.
//!
//! ```bash
//! cargo run --release --example online_server
//! ```

use deeprecsys::prelude::*;

fn main() {
    let cfg = zoo::dlrm_rmc1();
    let cpu = CpuPlatform::skylake();
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(600.0),
        SizeDistribution::production(),
        7,
    )
    .take(8_000)
    .collect();

    // A deliberately bad fixed policy: unit batches drown the node in
    // per-request overhead.
    let bad = SchedulerPolicy::cpu_only(1);
    let fixed = Server::new(&cfg, cpu, None, ServerOptions::new(cpu.cores, bad));
    let r_fixed = fixed.serve(&queries, Serve::virtual_time());

    // Same stream, same bad starting point, controller attached.
    let opts = ServerOptions::new(cpu.cores, bad).with_controller(ControllerConfig::standard());
    let online = Server::new(&cfg, cpu, None, opts);
    let r_online = online.serve(&queries, Serve::virtual_time());

    println!(
        "fixed batch=1 : p95 {:8.2} ms, {:.0} QPS",
        r_fixed.latency.p95_ms, r_fixed.qps
    );
    println!(
        "online tuned  : p95 {:8.2} ms, {:.0} QPS (converged to batch {}, {} batches coalesced)",
        r_online.latency.p95_ms,
        r_online.qps,
        r_online.final_policy.max_batch,
        r_online.coalesced_batches,
    );
    println!(
        "controller trajectory (batch, window p95 ms): {:?}",
        r_online
            .batch_trajectory
            .iter()
            .map(|&(b, p)| (b, (p * 10.0).round() / 10.0))
            .collect::<Vec<_>>()
    );
}
