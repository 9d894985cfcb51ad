//! The online controller against the offline tuner: the serving-side
//! controller in `drs-server` must converge to the tail latency
//! DeepRecSched finds offline.

use drs_core::{ClusterConfig, SchedulerPolicy};
use drs_models::zoo;
use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution};
use drs_sched::{DeepRecSched, SearchOptions};
use drs_server::{ControllerConfig, Serve, Server, ServerOptions};

/// The convergence contract: starting from a
/// deliberately bad `max_batch`, the online controller must retune to
/// within 25 % of the offline tuner's tail latency at the same load —
/// while the bad policy left alone is far worse.
#[test]
fn online_controller_converges_to_offline_tail() {
    let cfg = zoo::dlrm_rmc1();
    let cluster = ClusterConfig::single_skylake();
    let sla_ms = 100.0;
    let tuned = DeepRecSched::new(SearchOptions::quick()).tune_cpu(&cfg, cluster, sla_ms);
    assert!(tuned.qps > 0.0, "offline tuner found an operating point");
    // Serve at half the tuned capacity: enough load that a bad batch
    // size visibly queues, enough headroom that the controller's
    // cold-start backlog (it pilots a unit batch first) can drain.
    // The horizon covers the cold-start climb plus the hysteresis-paced
    // walk-down re-judgments (each retune now waits for two confirming
    // windows before piloting a rung).
    let load = 0.5 * tuned.qps;
    let queries: Vec<_> = QueryGenerator::new(
        ArrivalProcess::poisson(load),
        SizeDistribution::production(),
        29,
    )
    .take(24_000)
    .collect();
    let workers = cluster.cpu.cores;

    let serve_fixed = |policy: SchedulerPolicy| {
        let server = Server::new(&cfg, cluster.cpu, None, ServerOptions::new(workers, policy));
        server.serve(&queries, Serve::virtual_time())
    };
    // A deliberately bad fixed policy: the largest rung of the
    // canonical ladder, far past the optimum for this load. The
    // controller-driven run ignores the initial max_batch and
    // cold-starts from the paper's unit batch — the other deliberately
    // bad extreme.
    let bad_policy = SchedulerPolicy::cpu_only(1024);
    let bad = serve_fixed(bad_policy);
    let offline = serve_fixed(tuned.policy);

    let online_opts =
        ServerOptions::new(workers, bad_policy).with_controller(ControllerConfig::standard());
    let online_server = Server::new(&cfg, cluster.cpu, None, online_opts);
    let online = online_server.serve(&queries, Serve::virtual_time());

    assert!(
        online.settled_latency.count > 0,
        "controller settled within the stream (trajectory: {:?})",
        online.batch_trajectory
    );
    // Converged-state tail: the last quarter of the stream, long after
    // the climb finished and its cold-start backlog drained.
    let tail_p95 = |latencies: &[f64]| {
        let tail = &latencies[latencies.len() - latencies.len() / 4..];
        let mut rec = drs_metrics::LatencyRecorder::with_capacity(tail.len());
        for &ms in tail {
            rec.record_ms(ms);
        }
        rec.summary().p95_ms
    };
    let p95_online = tail_p95(&online.latencies_ms);
    let p95_offline = tail_p95(&offline.latencies_ms);
    assert!(
        p95_online <= 1.25 * p95_offline,
        "online converged p95 {p95_online} ms vs offline {p95_offline} ms \
         (trajectory {:?}, final policy {:?})",
        online.batch_trajectory,
        online.final_policy
    );
    assert!(
        p95_online < tail_p95(&bad.latencies_ms),
        "online {p95_online} must beat the untuned bad policy {}",
        tail_p95(&bad.latencies_ms)
    );
}
