//! The virtual-time stack: how fast the host runs the simulator, the
//! virtual server, the cluster, the sharded cluster, the multi-tenant
//! node, the online controller and the offline tuner. No kernel runs
//! here; every number is host time per simulated query, and the values
//! the virtual clock produces appear only as exact-repeat canaries.

use crate::spec::{Tenant, Workload};
use crate::stats::{summarize, Sample};
use crate::stream::mix;
use drs_core::{
    ClusterConfig, ClusterTopology, MultiModelSpec, NodeSpec, ReportView, RoutingPolicy,
    SchedulerPolicy, ServingStack, TenantSpec,
};
use drs_models::zoo;
use drs_platform::{CpuPlatform, GpuPlatform, InterconnectModel};
use drs_query::{ArrivalProcess, MixedStream, Query, QueryGenerator, SizeDistribution};
use drs_sched::{DeepRecSched, SearchOptions};
use drs_server::{Cluster, ControllerConfig, Server, ServerOptions};
use drs_shard::{PlacementPolicy, ShardPlan};
use drs_sim::Simulation;
use drs_telemetry::{PulseRecorder, RingRecorder};
use std::time::Instant;

/// Repetitions of every replay and of the tuning job.
pub(crate) const REPS: usize = 3;
/// Virtual workers per node, as the paper's 40-thread Skylake.
const WORKERS: usize = 40;
const BATCH: u32 = 64;

/// Offered load of the replays on the workload's own model, QPS: about
/// 60 % of what `max_qps_under_sla_stack` found for the configuration
/// when the benchmark was written, frozen here so that a change to the
/// tuner cannot move the load the replays run at.
struct ReplayRates {
    sim: f64,
    server: f64,
    cluster4: f64,
}

fn replay_rates(model: &str) -> ReplayRates {
    match model {
        "DLRM-RMC1" => ReplayRates {
            sim: 730.0,
            server: 710.0,
            cluster4: 3_150.0,
        },
        "WND" => ReplayRates {
            sim: 5_000.0,
            server: 9_800.0,
            cluster4: 26_000.0,
        },
        "NCF" => ReplayRates {
            sim: 50_000.0,
            server: 157_000.0,
            cluster4: 354_000.0,
        },
        other => panic!("no replay rates calibrated for {other}"),
    }
}

/// Sharded DLRM-RMC2 on four nodes, co-located RMC1 + WND, and RMC1 under
/// the online controller: the same three configurations in every workload.
const SHARDED4_QPS: f64 = 850.0;
const COLO_QPS: (f64, f64) = (600.0, 300.0);
/// Base of the diurnal cycle; its peak (1.6 times this) stays under the
/// controller configuration's capacity.
const CONTROLLER_QPS: f64 = 215.0;

fn poisson(rate: f64, sizes: SizeDistribution, n: usize, seed: u64) -> Vec<Query> {
    QueryGenerator::new(ArrivalProcess::poisson(rate), sizes, seed)
        .take(n)
        .collect()
}

/// What one replay of a configuration produced on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Outcome {
    pub completed: u64,
    pub p95_ms: f64,
    pub retunes: u64,
}

type ServeFn = dyn Fn(&[Query]) -> Outcome;

/// One replay configuration: a prepared stream and a stack to serve it.
pub(crate) struct Replay {
    /// The per-layer metric its host speed is reported under.
    pub speed_metric: &'static str,
    /// The per-layer canary its virtual-clock p95 is reported under.
    pub canary_metric: &'static str,
    queries: Vec<Query>,
    serve: Box<ServeFn>,
}

fn outcome<S: ServingStack>(stack: &S, queries: &[Query]) -> Outcome {
    let r = stack.serve_queries(queries);
    Outcome {
        completed: r.completed(),
        p95_ms: r.latency().p95_ms,
        retunes: 0,
    }
}

fn skylake_server(t: &Tenant) -> Server {
    Server::new(
        &t.model,
        CpuPlatform::skylake(),
        None,
        ServerOptions::new(WORKERS, SchedulerPolicy::cpu_only(BATCH)),
    )
}

fn controller_server() -> Server {
    Server::new(
        &zoo::dlrm_rmc1(),
        CpuPlatform::skylake(),
        Some(GpuPlatform::gtx_1080ti()),
        ServerOptions::new(WORKERS, SchedulerPolicy::with_gpu(4, 192))
            .with_controller(ControllerConfig::standard()),
    )
}

fn diurnal(n: usize, seed: u64) -> Vec<Query> {
    // Two load cycles over the stream.
    let period_s = n as f64 / CONTROLLER_QPS / 2.0;
    QueryGenerator::new(
        ArrivalProcess::diurnal(CONTROLLER_QPS, 0.6, period_s),
        SizeDistribution::production(),
        seed,
    )
    .take(n)
    .collect()
}

/// The six replay configurations, streams generated. `n` queries each.
pub(crate) fn replays(w: &Workload, n: usize, seed: u64) -> Vec<Replay> {
    let t = w.tenants[0].clone();
    let rates = replay_rates(t.model.name);
    let seed = |salt: u64| mix(seed, 0x100 + salt);
    let production = SizeDistribution::production();

    let sim = Simulation::new(
        &t.model,
        ClusterConfig::skylake_with_gpu(),
        SchedulerPolicy::with_gpu(BATCH, 128),
    );
    let server = skylake_server(&t);
    let cluster4 = Cluster::new(
        &t.model,
        ClusterTopology::uniform(4, CpuPlatform::skylake(), None),
        RoutingPolicy::PowerOfTwoChoices { d: 2 },
        ServerOptions::new(WORKERS, SchedulerPolicy::cpu_only(BATCH)),
    );
    let rmc2 = zoo::dlrm_rmc2();
    let fleet = ClusterTopology::new(vec![
        NodeSpec::cpu_only(CpuPlatform::skylake())
            .with_mem_bytes(16 << 30);
        4
    ]);
    let plan = ShardPlan::place(&rmc2, &fleet, PlacementPolicy::LookupBalanced)
        .expect("DLRM-RMC2 fits four 16 GiB nodes");
    let sharded4 = Cluster::new_sharded(
        &rmc2,
        fleet,
        RoutingPolicy::ShardAware,
        plan,
        InterconnectModel::datacenter_100g(),
        ServerOptions::new(WORKERS, SchedulerPolicy::cpu_only(BATCH)),
    );
    let colo = Server::new_multi(
        &MultiModelSpec::new(vec![
            TenantSpec::new(zoo::dlrm_rmc1(), SchedulerPolicy::cpu_only(256)),
            TenantSpec::new(zoo::wide_and_deep(), SchedulerPolicy::cpu_only(BATCH)),
        ]),
        CpuPlatform::skylake(),
        None,
        ServerOptions::new(WORKERS, SchedulerPolicy::cpu_only(BATCH)),
    );
    let controller = controller_server();

    vec![
        Replay {
            speed_metric: "sim.queries_per_s",
            canary_metric: "sim.canary_p95_us",
            queries: poisson(rates.sim, t.sizes, n, seed(1)),
            serve: Box::new(move |q| outcome(&sim, q)),
        },
        Replay {
            speed_metric: "server.virtual_queries_per_s",
            canary_metric: "server.canary_p95_us",
            queries: poisson(rates.server, t.sizes, n, seed(2)),
            serve: Box::new(move |q| outcome(&server, q)),
        },
        Replay {
            speed_metric: "server.cluster4_queries_per_s",
            canary_metric: "server.canary_cluster4_p95_us",
            queries: poisson(rates.cluster4, t.sizes, n, seed(3)),
            serve: Box::new(move |q| outcome(&cluster4, q)),
        },
        Replay {
            speed_metric: "server.sharded4_queries_per_s",
            canary_metric: "server.canary_sharded4_p95_us",
            queries: poisson(SHARDED4_QPS, production, n, seed(4)),
            serve: Box::new(move |q| outcome(&sharded4, q)),
        },
        Replay {
            speed_metric: "server.multitenant_queries_per_s",
            canary_metric: "server.canary_multitenant_p95_us",
            queries: MixedStream::new(vec![
                QueryGenerator::new(ArrivalProcess::poisson(COLO_QPS.0), production, seed(5)),
                QueryGenerator::new(ArrivalProcess::poisson(COLO_QPS.1), production, seed(6)),
            ])
            .take(n)
            .collect(),
            serve: Box::new(move |q| outcome(&colo, q)),
        },
        Replay {
            speed_metric: "server.controller_queries_per_s",
            canary_metric: "server.canary_controller_p95_us",
            queries: diurnal(n, seed(7)),
            serve: Box::new(move |q| {
                let r = controller.serve_virtual(q);
                Outcome {
                    completed: r.completed,
                    p95_ms: r.latency.p95_ms,
                    retunes: r.retunes,
                }
            }),
        },
    ]
}

/// Host timings of the replays.
pub(crate) struct ReplayResult {
    /// Simulated queries per host second of each configuration, by its
    /// speed metric.
    pub per_config: Vec<(&'static str, Sample)>,
    /// All configurations together: queries of one pass over the six
    /// divided by the host seconds of that pass.
    pub total: Sample,
    /// The virtual-clock outcome of each configuration, by its canary
    /// metric.
    pub outcomes: Vec<(&'static str, Outcome)>,
    /// Configurations whose repetitions disagreed on the virtual clock.
    pub nondeterministic: Vec<&'static str>,
}

pub(crate) fn run_replays(replays: &[Replay]) -> ReplayResult {
    let mut secs = vec![Vec::with_capacity(REPS); replays.len()];
    let mut outcomes = Vec::new();
    let mut nondeterministic = Vec::new();
    for rep in 0..REPS {
        for (c, r) in replays.iter().enumerate() {
            let t = Instant::now();
            let o = (r.serve)(&r.queries);
            secs[c].push(t.elapsed().as_secs_f64());
            if rep == 0 {
                outcomes.push((r.canary_metric, o));
            } else if outcomes[c].1 != o && !nondeterministic.contains(&r.speed_metric) {
                nondeterministic.push(r.speed_metric);
            }
        }
    }
    let per_config = replays
        .iter()
        .zip(&secs)
        .map(|(r, s)| {
            let rates: Vec<f64> = s.iter().map(|t| r.queries.len() as f64 / t).collect();
            (r.speed_metric, summarize(&rates))
        })
        .collect();
    let queries: usize = replays.iter().map(|r| r.queries.len()).sum();
    let passes: Vec<f64> = (0..REPS)
        .map(|rep| queries as f64 / secs.iter().map(|s| s[rep]).sum::<f64>())
        .collect();
    ReplayResult {
        per_config,
        total: summarize(&passes),
        outcomes,
        nondeterministic,
    }
}

/// The tuner's options: `SearchOptions::standard()` with the probe length
/// scaled to the run, on the workload's own size distribution. The tuner
/// draws its own probe streams from its own fixed seed: the path its
/// searches take, and so the work it does, depends on that seed, and
/// `tune_s` is to time the same job in every run.
fn search_options(t: &Tenant, probe_queries: usize) -> SearchOptions {
    let mut opts = SearchOptions::standard().with_size_dist(t.sizes);
    opts.queries_per_probe = probe_queries;
    opts
}

/// Host seconds of `DeepRecSched::tune` for the workload's first model on
/// Skylake + GPU (batch-size climb, then offload-threshold climb).
pub(crate) fn tune(w: &Workload, probe_queries: usize) -> Sample {
    let t = &w.tenants[0];
    let sched = DeepRecSched::new(search_options(t, probe_queries));
    let secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(sched.tune(
                &t.model,
                ClusterConfig::skylake_with_gpu(),
                t.model.sla_ms,
            ));
            start.elapsed().as_secs_f64()
        })
        .collect();
    summarize(&secs)
}

/// The two phases of the tuner timed apart (once each).
pub(crate) struct TunePhases {
    pub cpu_s: f64,
    pub gpu_s: f64,
    pub rungs: usize,
    pub batch: u32,
    pub qps: f64,
}

pub(crate) fn tune_phases(w: &Workload, probe_queries: usize) -> TunePhases {
    let t = &w.tenants[0];
    let sched = DeepRecSched::new(search_options(t, probe_queries));
    let start = Instant::now();
    let cpu = sched.tune_cpu(&t.model, ClusterConfig::single_skylake(), t.model.sla_ms);
    let cpu_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let gpu = sched.tune_gpu(
        &t.model,
        ClusterConfig::skylake_with_gpu(),
        t.model.sla_ms,
        cpu.policy.max_batch,
    );
    let gpu_s = start.elapsed().as_secs_f64();
    TunePhases {
        cpu_s,
        gpu_s,
        rungs: cpu.trajectory.len() + gpu.trajectory.len(),
        batch: cpu.policy.max_batch,
        qps: cpu.qps,
    }
}

/// Host cost of recording: the virtual server replay traced into a
/// `RingRecorder` and metered into a `PulseRecorder`, each as a share of
/// the plain replay's host time; and the decision-log volume of the
/// controller replay, which repeats exactly.
pub(crate) struct Recording {
    pub trace_overhead_frac: Sample,
    pub pulse_overhead_frac: Sample,
    pub decision_events: u64,
}

pub(crate) fn recording(w: &Workload, n: usize, seed: u64) -> Recording {
    let t = &w.tenants[0];
    let server = skylake_server(t);
    let queries = poisson(
        replay_rates(t.model.name).server,
        t.sizes,
        n,
        mix(seed, 0x300),
    );
    let span_s = queries.last().map_or(1.0, |q| q.arrival_s);
    let pulse_interval_ns = ((span_s * 1e9) / 240.0).max(1.0) as u64;
    let (mut traced, mut pulsed) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let start = Instant::now();
        std::hint::black_box(server.serve_virtual(&queries).completed);
        let plain = start.elapsed().as_secs_f64();
        let mut ring = RingRecorder::new(queries.len());
        let start = Instant::now();
        std::hint::black_box(server.serve_virtual_traced(&queries, &mut ring).completed);
        traced.push(start.elapsed().as_secs_f64() / plain - 1.0);
        let mut pulse = PulseRecorder::new(pulse_interval_ns);
        let start = Instant::now();
        std::hint::black_box(server.serve_virtual_pulsed(&queries, &mut pulse).completed);
        pulsed.push(start.elapsed().as_secs_f64() / plain - 1.0);
    }
    let diurnal = diurnal(n, mix(seed, 0x107));
    let day_ns = diurnal.last().map_or(1.0, |q| q.arrival_s) * 1e9 / 2.0;
    let mut pulse = PulseRecorder::new((day_ns / 240.0).max(1.0) as u64);
    controller_server().serve_virtual_pulsed(&diurnal, &mut pulse);
    Recording {
        trace_overhead_frac: summarize(&traced),
        pulse_overhead_frac: summarize(&pulsed),
        decision_events: (pulse.decisions().len() + pulse.drr_rounds().len()) as u64,
    }
}
