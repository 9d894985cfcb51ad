//! One run of one workload: set-up, the measured phases, the checks, and
//! the result line.
//!
//! With tracing off a run measures only what a user of the system sees.
//! With tracing on it measures the layers: a traced window beside an
//! untraced one, the layer replay, the micro-probes, the virtual stack's
//! parts and the canaries. Every duration below is a share of
//! `--seconds`, so that a shorter run shortens every window by one factor.

use crate::fleet;
use crate::json::{self, Json};
use crate::probe;
use crate::real::{self, peak_rss_mb, Phase, PhaseResult, Stack, Window, WINDOWS};
use crate::replay::{self, Tracer, OPS};
use crate::spec::{self, MetricDecl, Scale, Spec, Workload};
use crate::stats::{highest_supported_percentile, summarize, Sample};
use drs_query::Query;
use drs_telemetry::{to_chrome_trace, Stage};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Times the whole set-up is repeated to take the median of.
const SETUPS: usize = 5;

/// Window lengths and job sizes, from `--seconds`.
///
/// The end-to-end run spends its real-path time on one loaded phase and on
/// saturation: with ~100 queries a second from the heavier models, splitting
/// the time over more load levels left every level too few samples to repeat
/// (see README.md, "What is not an end-to-end metric").
struct Plan {
    warm_s: f64,
    /// One window of the light-load phase (per-layer run only).
    lo_s: f64,
    hi_s: f64,
    sat_s: f64,
    /// Queries of each virtual replay configuration.
    replay_queries: usize,
    /// Queries of each load probe of the tuner.
    tune_probe_queries: usize,
    replay_budget: Duration,
    probe_budget: Duration,
}

impl Plan {
    fn new(seconds: f64, trace: bool) -> Plan {
        Plan {
            warm_s: 0.03 * seconds,
            lo_s: 0.10 * seconds,
            hi_s: if trace { 0.12 } else { 0.19 } * seconds,
            sat_s: if trace { 0.05 } else { 0.07 } * seconds,
            replay_queries: ((5_000.0 * seconds) as usize).max(2_000),
            tune_probe_queries: ((100.0 * seconds) as usize).max(240),
            replay_budget: Duration::from_secs_f64(0.09 * seconds),
            probe_budget: Duration::from_secs_f64(0.0035 * seconds),
        }
    }
}

/// Everything built before the first timed window.
struct Setup {
    stack: Stack,
    warm: Vec<Query>,
    lo: Vec<Vec<Query>>,
    hi: Vec<Vec<Query>>,
    sat: Vec<Vec<Query>>,
}

impl Setup {
    /// Models, golden check, first engine start, server, and every stream
    /// the real-path phases will offer.
    fn build(
        w: &Workload,
        scale: Scale,
        plan: &Plan,
        seed: u64,
        trace: bool,
    ) -> Result<Setup, String> {
        let stack = Stack::build(w, scale)?;
        let streams = |phase, window_s, windows| -> Vec<Vec<Query>> {
            (0..windows)
                .map(|i| stack.stream(phase, window_s, seed, i))
                .collect()
        };
        // The per-layer run serves one light window, its last loaded window
        // traced, and one saturated window.
        Ok(Setup {
            warm: stack.stream(Phase::Lo, plan.warm_s, seed, 99),
            lo: streams(Phase::Lo, plan.lo_s, usize::from(trace)),
            hi: streams(Phase::Hi, plan.hi_s, WINDOWS),
            sat: streams(Phase::Sat, plan.sat_s, if trace { 1 } else { WINDOWS }),
            stack,
        })
    }

    fn phase(&self, streams: &[Vec<Query>]) -> PhaseResult {
        PhaseResult {
            windows: streams
                .iter()
                .map(|qs| self.stack.serve_untraced(qs))
                .collect(),
        }
    }
}

/// What a run found.
pub(crate) struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, in words; empty when the outputs are correct.
    pub problems: Vec<String>,
    pub metrics: Vec<(String, Sample)>,
    /// Chrome `trace_event`s of the traced window and the layer replay.
    pub trace_events: Vec<Json>,
}

impl RunResult {
    fn new() -> RunResult {
        RunResult {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            trace_events: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, sample: Sample) {
        self.metrics.push((name.to_string(), sample));
    }

    fn count(&mut self, name: &str, v: f64) {
        self.put(name, Sample::single(v));
    }

    fn tally(&mut self, phase: &PhaseResult) {
        self.attempted += phase.attempted();
        self.failed += phase.failed();
        if phase.windows.iter().any(|w| w.report.is_none()) {
            self.problems
                .push("the server panicked in a measured window".into());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result object: exactly the declared metrics, in declared order.
    pub fn to_json(&self, decls: &[MetricDecl]) -> Result<Json, String> {
        let extra: Vec<&str> = self
            .metrics
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| !decls.iter().any(|d| d.name == *n))
            .collect();
        if !extra.is_empty() {
            return Err(format!(
                "measured but not declared in BENCHMARK.json: {extra:?}"
            ));
        }
        let mut metrics = Vec::with_capacity(decls.len());
        for d in decls {
            let (_, s) = self
                .metrics
                .iter()
                .find(|(n, _)| *n == d.name)
                .ok_or_else(|| {
                    format!("declared in BENCHMARK.json but not measured: {}", d.name)
                })?;
            if !s.median.is_finite() {
                return Err(format!("{} is not a finite number: {}", d.name, s.median));
            }
            metrics.push((
                d.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(s.median)),
                    ("unit".into(), Json::Str(d.unit.clone())),
                ]),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]))
    }

    /// Within-run spread of each metric: quartile distance over median.
    pub fn spreads(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(n, s)| (n.clone(), Json::Num(s.spread())))
                .collect(),
        )
    }
}

/// The end-to-end run: tracing off.
fn end_to_end(w: &Workload, seed: u64, scale: Scale) -> Result<RunResult, String> {
    let plan = Plan::new(scale.seconds, false);
    let mut out = RunResult::new();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take()); // one set of models in memory at a time
        let t = Instant::now();
        setup = Some(Setup::build(w, scale, &plan, seed, false)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("SETUPS > 0");
    let replays = fleet::replays(w, plan.replay_queries, seed);

    setup.stack.serve_untraced(&setup.warm); // discarded
    let hi = setup.phase(&setup.hi);
    let sat = setup.phase(&setup.sat);
    for phase in [&hi, &sat] {
        out.tally(phase);
    }
    let virt = fleet::run_replays(&replays);
    note_nondeterminism(&mut out, &virt.nondeterministic);
    let tune_s = fleet::tune(w, plan.tune_probe_queries);

    out.put("hi_p50_ms", hi.latency(0.5));
    out.put("sat_qps", sat.qps());
    out.put("virt_queries_per_s", virt.total);
    out.put("tune_s", tune_s);
    out.count("peak_rss_mb", peak_rss_mb());
    out.put("setup_s", summarize(&setup_s));

    println!(
        "# hi: {} latencies in {WINDOWS} windows",
        hi.windows.iter().map(|w| w.ok).sum::<u64>()
    );
    Ok(out)
}

fn note_nondeterminism(out: &mut RunResult, configs: &[&str]) {
    for c in configs {
        out.problems.push(format!(
            "virtual replay {c:?} gave different results on repetition"
        ));
    }
}

/// The per-layer run: tracing on.
fn per_layer(w: &Workload, seed: u64, scale: Scale) -> Result<RunResult, String> {
    let plan = Plan::new(scale.seconds, true);
    let b = plan.probe_budget;
    let mut out = RunResult::new();
    let setup = Setup::build(w, scale, &plan, seed, true)?;
    let stack = &setup.stack;
    probe::spin_s(); // the first spin pays for the clock ramping up
    let spin_before = probe::spin_s();

    // One light window, the loaded windows with the last one traced, one
    // saturated window.
    stack.serve_untraced(&setup.warm);
    let lo = setup.phase(&setup.lo);
    let (traced_stream, untraced_streams) = setup.hi.split_last().expect("WINDOWS > 0");
    let hi = setup.phase(untraced_streams);
    let (traced, ring) = stack.serve_traced(traced_stream);
    let traced = PhaseResult {
        windows: vec![traced],
    };
    let sat = setup.phase(&setup.sat);
    for phase in [&lo, &hi, &traced, &sat] {
        out.tally(phase);
    }
    let (traced, sat) = (&traced.windows[0], &sat.windows[0]);
    // Tail percentiles repeat too poorly from run to run to carry a bound
    // (README.md); they are reported here, at the percentile the sample
    // supports.
    out.put("server.lo_p50_ms", lo.latency(0.5));
    out.put("server.lo_p95_ms", lo.latency(0.95));
    out.put("server.hi_p95_ms", hi.latency(0.95));
    out.put("server.hi_p99_ms", hi.latency(0.99));
    for (name, phase) in [("lo", &lo), ("hi", &hi)] {
        let n = phase.windows.iter().map(|w| w.ok).min().unwrap_or(0) as usize;
        let supported = highest_supported_percentile(n).map_or(0.0, |q| q * 100.0);
        println!("# {name}: {n} latencies a window; the highest percentile with ten samples beyond it is p{supported}");
    }
    let hi = &hi.windows[0];
    let breakdown = traced
        .report
        .as_ref()
        .and_then(|r| r.stage_breakdown.clone())
        .unwrap_or_default();
    let stage = |s: Stage| breakdown.stages.get(s.index()).copied().unwrap_or_default();
    for (stem, s, with_p95) in [
        ("queue_wait", Stage::QueueWait, true),
        ("coalesce_wait", Stage::CoalesceWait, false),
        ("batch_residency", Stage::BatchResidency, true),
        ("engine_service", Stage::EngineService, true),
    ] {
        out.count(&format!("server.stage_{stem}_p50_ms"), stage(s).p50_ms);
        if with_p95 {
            out.count(&format!("server.stage_{stem}_p95_ms"), stage(s).p95_ms);
        }
    }
    let p50 = |win: &Window| win.counter(|r| r.latency.p50_ms);
    out.count("telemetry.trace_overhead_frac", p50(traced) / p50(hi) - 1.0);

    out.count("server.sent", out.attempted as f64);
    out.count("server.completed", (out.attempted - out.failed) as f64);
    let batches = hi.counter(|r| r.batches as f64).max(1.0);
    out.count("server.batches_hi", hi.counter(|r| r.batches as f64));
    out.count(
        "server.mean_batch_items_hi",
        hi.counter(|r| r.mean_batch_items),
    );
    out.count(
        "server.mean_batch_items_sat",
        sat.counter(|r| r.mean_batch_items),
    );
    out.count(
        "server.coalesced_batch_frac_hi",
        hi.counter(|r| r.coalesced_batches as f64) / batches,
    );
    out.count(
        "server.timeout_flush_frac_hi",
        hi.counter(|r| r.timeout_flushes as f64) / batches,
    );
    out.count(
        "server.backpressure_stalls_sat",
        sat.counter(|r| r.backpressure_stalls as f64),
    );
    out.count(
        "server.max_queue_depth_hi",
        hi.counter(|r| r.max_queue_depth as f64),
    );
    out.count(
        "server.cpu_utilization_hi",
        hi.counter(|r| r.cpu_utilization),
    );
    out.count(
        "server.cpu_utilization_sat",
        sat.counter(|r| r.cpu_utilization),
    );
    let in_sla = ring
        .spans()
        .filter(|s| s.latency_ms() <= w.tenants[s.tenant.min(w.tenants.len() - 1)].model.sla_ms)
        .count();
    out.count(
        "server.sla_hit_frac_hi",
        in_sla as f64 / traced.attempted as f64,
    );
    out.count(
        "server.window_overrun_frac_hi",
        hi.counter(|r| r.window_s) / hi.scheduled_s.max(f64::MIN_POSITIVE) - 1.0,
    );
    if let Ok(doc) = json::parse(&to_chrome_trace(ring.spans())) {
        out.trace_events.extend(
            doc.get("traceEvents")
                .map_or(&[][..], Json::as_arr)
                .iter()
                .cloned(),
        );
    }

    // Layer replay.
    let mut tracer = Tracer::new();
    let layers = replay::run(stack, plan.replay_budget, seed, &mut tracer);
    out.trace_events.extend(tracer.chrome_events());
    println!(
        "# layer replay: {} queries, {} engine requests, {} spans",
        layers.queries,
        layers.batches,
        tracer.spans.len()
    );
    out.put("query.gen_ns_per_query", layers.gen_ns_per_query);
    out.put("server.batcher_push_ns_per_item", layers.push_ns_per_item);
    out.put("models.inputs_gen_ns_per_item", layers.inputs_ns_per_item);
    out.put("engine.roundtrip_overhead_us", layers.roundtrip_overhead_us);
    out.put(
        "engine.roundtrip_overhead_p95_us",
        layers.roundtrip_overhead_p95_us,
    );
    out.put("models.forward_us_per_item", layers.forward_us_per_item);
    for ((_, stem), sample) in OPS.iter().zip(&layers.op_us_per_item) {
        out.put(&format!("nn.{stem}_us_per_item"), *sample);
    }
    out.put("nn.embedding_share", layers.embedding_share);

    // Micro-probes of the real path's layers, on the first tenant's model.
    let model = &stack.models[0];
    let full_batch =
        model.generate_inputs(real::MAX_BATCH as usize, &mut StdRng::seed_from_u64(seed));
    let batch_rows =
        (hi.counter(|r| r.mean_batch_items).round() as usize).clamp(1, real::MAX_BATCH as usize);
    out.put(
        "server.batcher_reform_ns_per_item",
        probe::batcher_reform(b),
    );
    out.put(
        "models.inputs_clone_ns_per_item",
        probe::inputs_clone(&full_batch, b),
    );
    out.put(
        "nn.embedding_gather_gbps",
        probe::embedding_gather_gbps(model, b, seed),
    );
    out.put(
        "tensor.linear_gflops",
        probe::linear_gflops(model, batch_rows, b, seed),
    );
    out.put("metrics.record_ns_per_sample", probe::latency_record(b));
    let forward_us = probe::forward_us(model, &full_batch, b);
    out.put(
        "platform.cost_model_ratio",
        probe::cost_model_ratio(model.config(), forward_us, full_batch.batch),
    );

    // The virtual stack, part by part.
    let virt = fleet::run_replays(&fleet::replays(w, plan.replay_queries, seed));
    note_nondeterminism(&mut out, &virt.nondeterministic);
    for (metric, sample) in &virt.per_config {
        out.put(metric, *sample);
    }
    out.put("server.router_routes_per_s", probe::router_routes(b, seed));
    out.put("shard.place_us", probe::shard_place_us(b));
    out.put(
        "nn.shard_gather_merge_gbps",
        probe::shard_gather_merge_gbps(b, seed),
    );
    out.put("core.event_queue_ns_per_op", probe::event_queue(b));
    let tune = fleet::tune_phases(w, plan.tune_probe_queries);
    out.count("sched.tune_cpu_s", tune.cpu_s);
    out.count("sched.tune_gpu_s", tune.gpu_s);
    out.count("sched.tune_rungs", tune.rungs as f64);
    let recording = fleet::recording(w, plan.replay_queries / 2, seed);
    out.put(
        "telemetry.virtual_trace_overhead_frac",
        recording.trace_overhead_frac,
    );
    out.put(
        "telemetry.virtual_pulse_overhead_frac",
        recording.pulse_overhead_frac,
    );
    out.put("telemetry.ring_record_ns_per_span", probe::ring_record(b));
    out.put("metrics.registry_sample_ns", probe::registry_sample(b));

    // Values of the virtual clock: exact repeats, never speeds.
    for (metric, o) in &virt.outcomes {
        out.count(metric, (o.p95_ms * 1e3).round());
    }
    out.count(
        "server.canary_retunes",
        virt.outcomes.last().map_or(0.0, |(_, o)| o.retunes as f64),
    );
    out.count(
        "server.canary_decision_events",
        recording.decision_events as f64,
    );
    out.count("sched.canary_batch", f64::from(tune.batch));
    out.count("sched.canary_qps", tune.qps.round());

    // The host, so that a rate above can be read against its ceiling.
    out.count("host.nproc", probe::nproc());
    out.put("host.copy_gbps", probe::copy_gbps(b));
    out.put("host.fma_gflops", probe::fma_gflops(b));
    out.count("host.spin_drift_frac", probe::spin_s() / spin_before - 1.0);
    Ok(out)
}

/// Runs `workload` in this process.
pub(crate) fn execute(
    workload: &str,
    seed: u64,
    scale: Scale,
    trace: bool,
) -> Result<RunResult, String> {
    let w = spec::workload(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    if trace {
        per_layer(&w, seed, scale)
    } else {
        end_to_end(&w, seed, scale)
    }
}

/// `--workload`: runs, prints every metric by name with its unit, and
/// ends with the result line. `Err` when the outputs were not correct.
pub(crate) fn one(
    spec: &Spec,
    workload: &str,
    seed: u64,
    scale: Scale,
    trace: bool,
    trace_out: Option<&str>,
) -> Result<(), String> {
    let started = Instant::now();
    let result = execute(workload, seed, scale, trace)?;
    let decls = spec.metrics(trace);
    let line = result.to_json(decls)?;
    println!(
        "# {workload} seed={seed} seconds={} trace={} scale={} threads={}",
        scale.seconds,
        u8::from(trace),
        if scale.smoke { "smoke" } else { "default" },
        probe::nproc(),
    );
    for d in decls {
        let (_, s) = result
            .metrics
            .iter()
            .find(|(n, _)| *n == d.name)
            .expect("checked by to_json");
        println!(
            "{:<44} {:>16.6} {:<8} quartiles {:.6} .. {:.6}, n={}",
            d.name, s.median, d.unit, s.q1, s.q3, s.n
        );
    }
    for p in &result.problems {
        println!("# INCORRECT: {p}");
    }
    println!("# wall {:.1} s", started.elapsed().as_secs_f64());
    println!("# spread {}", result.spreads().render());
    if let Some(path) = trace_out {
        let doc = Json::Obj(vec![(
            "traceEvents".into(),
            Json::Arr(result.trace_events.clone()),
        )]);
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", line.render());
    if result.correct() {
        Ok(())
    } else {
        Err(format!(
            "{workload}: outputs are not correct ({} failed of {})",
            result.failed, result.attempted
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, tracing off and on, at `--smoke` scale and in this
    /// process: each run is correct and measures exactly the metrics
    /// `BENCHMARK.json` declares for its mode (`to_json` refuses a missing
    /// or an undeclared name). The numbers mean nothing at this scale.
    #[test]
    fn smoke_runs_measure_exactly_the_declared_metrics() {
        let spec = Spec::embedded();
        for (workload, _) in &spec.workloads {
            for trace in [false, true] {
                let result = execute(workload, 7, Scale::new(1.0, true), trace)
                    .unwrap_or_else(|e| panic!("{workload} trace {trace}: {e}"));
                assert!(
                    result.correct(),
                    "{workload} trace {trace}: {:?}",
                    result.problems
                );
                assert!(result.attempted > 0);
                let line = result
                    .to_json(spec.metrics(trace))
                    .unwrap_or_else(|e| panic!("{workload}: {e}"));
                let parsed = json::parse(&line.render()).expect("the result line is JSON");
                let keys: Vec<&str> = match &parsed {
                    Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
                    _ => panic!("the result is an object"),
                };
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                if trace {
                    assert!(
                        !result.trace_events.is_empty(),
                        "a traced run records spans"
                    );
                    let doc =
                        Json::Obj(vec![("traceEvents".into(), Json::Arr(result.trace_events))]);
                    assert_eq!(json::parse(&doc.render()).expect("the trace is JSON"), doc);
                }
            }
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(execute("no_such_workload", 1, Scale::new(1.0, true), false).is_err());
    }
}
