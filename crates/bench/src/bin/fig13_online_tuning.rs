//! **Figure 13, online edition**: the production diurnal scenario run
//! on the open-loop serving runtime (`drs-server`) instead of the
//! simulator — a day of load ramping ±30 % around its mean, served
//! three ways over the identical query stream:
//!
//! 1. the fixed production baseline batch size,
//! 2. the offline DeepRecSched-tuned policy, frozen,
//! 3. the online controller, cold-starting its climb from the paper's
//!    unit batch and hill-climbing against its own live tail.
//!
//! The paper's claim is that tuning the batch size cuts the production
//! tail (p95 1.39x, p99 1.31x); this binary shows the *online*
//! controller recovering most of the offline tuner's win without ever
//! consulting a simulator.

use deeprecsys::prelude::*;
use deeprecsys::table::{fmt3, TextTable};

fn tail_quarter(latencies: &[f64]) -> LatencySummary {
    let tail = &latencies[latencies.len() - latencies.len() / 4..];
    let mut rec = LatencyRecorder::with_capacity(tail.len());
    for &ms in tail {
        rec.record_ms(ms);
    }
    rec.summary()
}

fn main() {
    let opts = drs_bench::parse_args();
    drs_bench::header(
        "Figure 13 (online) — offline-tuned vs online-tuned tail latency under a diurnal ramp",
        "the online hill-climbing controller, cold-starting from a unit batch, \
         converges to the offline tuner's operating point as load shifts \
         (paper: tuned batching cuts production p95 by 1.39x)",
        &opts,
    );

    let cfg = zoo::dlrm_rmc1();
    let cluster = ClusterConfig::single_skylake();
    let workers = cluster.cpu.cores;
    let sla_ms = SlaTier::Medium.sla_ms(&cfg);

    // Offline phase: the simulator-backed tuner picks the reference
    // policy and tells us the node's capacity.
    let tuned = DeepRecSched::new(opts.search).tune_cpu(&cfg, cluster, sla_ms);
    let baseline_policy = SchedulerPolicy::static_baseline(workers);
    println!(
        "offline tuner: batch {} at {:.0} QPS under the {:.0} ms p95 SLA (baseline batch {})\n",
        tuned.policy.max_batch, tuned.qps, sla_ms, baseline_policy.max_batch
    );

    // A diurnal day at half the tuned capacity: the mean load is
    // comfortable, the peak is not — exactly where retuning pays.
    let base_qps = 0.5 * tuned.qps;
    let day_s = opts.pick(600.0, 30.0, 4.0);
    let num_queries = opts.pick(300_000, 30_000, 4_000);
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::diurnal(base_qps.max(1.0), 0.3, day_s),
        SizeDistribution::production(),
        opts.search.seed,
    )
    .take(num_queries)
    .collect();

    let controller_cfg = if opts.mode == drs_bench::Mode::Smoke {
        ControllerConfig::smoke()
    } else {
        ControllerConfig::standard()
    };
    // The backend is constructed and driven through the unified
    // `ServingStack` entry point; the one `Report` every stack returns
    // carries the server-specific counters (trajectory, retunes).
    let serve = |policy: SchedulerPolicy, controller: Option<ControllerConfig>| {
        let mut server_opts = ServerOptions::new(workers, policy);
        if let Some(c) = controller {
            server_opts = server_opts.with_controller(c);
        }
        let server = Server::new(&cfg, cluster.cpu, None, server_opts);
        ServingStack::serve_queries(&server, &queries)
    };

    let baseline = serve(baseline_policy, None);
    let offline = serve(tuned.policy, None);
    let online = serve(baseline_policy, Some(controller_cfg));

    let mut t = TextTable::new(vec![
        "scenario",
        "final batch",
        "steady p95/p99 (ms)",
        "overall p95/p99 (ms)",
        "QPS",
        "retunes",
    ]);
    for (name, r) in [
        ("fixed baseline", &baseline),
        ("offline-tuned", &offline),
        ("online controller", &online),
    ] {
        let steady = tail_quarter(&r.latencies_ms);
        t.row(vec![
            name.to_string(),
            r.final_policy.max_batch.to_string(),
            format!("{}/{}", fmt3(steady.p95_ms), fmt3(steady.p99_ms)),
            format!("{}/{}", fmt3(r.latency.p95_ms), fmt3(r.latency.p99_ms)),
            fmt3(r.qps),
            r.retunes.to_string(),
        ]);
    }
    println!(
        "{} queries, diurnal +/-30% around {:.0} QPS over {day_s} s, {workers} workers\n",
        queries.len(),
        base_qps
    );
    println!("{t}");

    let s_base = tail_quarter(&baseline.latencies_ms);
    let s_off = tail_quarter(&offline.latencies_ms);
    let s_on = tail_quarter(&online.latencies_ms);
    println!("## Steady-state tail (last quarter of the stream)\n");
    println!(
        "- offline tuning vs baseline: p95 {:.2}x, p99 {:.2}x",
        s_base.p95_ms / s_off.p95_ms.max(1e-9),
        s_base.p99_ms / s_off.p99_ms.max(1e-9),
    );
    println!(
        "- online vs offline (1.0 = full recovery): p95 {:.2}x, p99 {:.2}x",
        s_on.p95_ms / s_off.p95_ms.max(1e-9),
        s_on.p99_ms / s_off.p99_ms.max(1e-9),
    );
    println!(
        "- online controller trajectory (batch rung, window p95 ms): {:?}",
        online
            .batch_trajectory
            .iter()
            .map(|&(b, p)| (b, (p * 100.0).round() / 100.0))
            .collect::<Vec<_>>()
    );
}
