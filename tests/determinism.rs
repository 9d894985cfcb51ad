//! Determinism contract: with a fixed seed, the workload generator and
//! the simulator must be **byte-identical** across runs and across
//! processes. Every benchmark comparison, paired A/B experiment, and
//! figure regeneration in this repo rests on this property; if one of
//! these tests fails, no perf number measured afterwards is trustworthy.
//!
//! The simulator's in-flight state is keyed by `BTreeMap`:
//! `clippy.toml` bans the hash collections workspace-wide, since their
//! iteration order changes from process to process.

use deeprecsys::prelude::*;
use deeprecsys::query::Trace;
use deeprecsys::sched::SlaTier;

/// Two generators with the same seed must serialize identical traces,
/// and a different seed must not.
#[test]
fn query_generator_is_byte_identical_per_seed() {
    let make = |seed: u64| {
        let gen = QueryGenerator::new(
            ArrivalProcess::poisson(1_000.0),
            SizeDistribution::production(),
            seed,
        );
        let mut buf = Vec::new();
        Trace::record(gen, 5_000)
            .write(&mut buf)
            .expect("in-memory write");
        buf
    };
    assert_eq!(make(7), make(7), "same seed must reproduce the trace");
    assert_ne!(make(7), make(8), "different seeds must differ");
}

/// The diurnal (time-varying) arrival path must be as reproducible as
/// the plain Poisson path.
#[test]
fn diurnal_arrivals_are_byte_identical_per_seed() {
    let make = || {
        let gen = QueryGenerator::new(
            ArrivalProcess::diurnal(500.0, 0.6, 86_400.0),
            SizeDistribution::production(),
            21,
        );
        let mut buf = Vec::new();
        Trace::record(gen, 2_000)
            .write(&mut buf)
            .expect("in-memory write");
        buf
    };
    assert_eq!(make(), make());
}

/// Two simulator runs with identical inputs must produce reports whose
/// full rendering (every latency sample, every counter) is identical.
#[test]
fn simulator_report_is_byte_identical_per_seed() {
    let run = |seed: u64| {
        let sim = Simulation::new(
            &zoo::dlrm_rmc1(),
            ClusterConfig::skylake_with_gpu(),
            SchedulerPolicy::with_gpu(64, 200),
        );
        let mut gen = QueryGenerator::new(
            ArrivalProcess::poisson(800.0),
            SizeDistribution::production(),
            seed,
        );
        let report = sim.run(&mut gen, RunOptions::queries(1_000));
        // Debug rendering covers every field, including the raw
        // latency vector: any drift anywhere shows up here.
        format!("{report:?}")
    };
    assert_eq!(run(11), run(11), "same seed must reproduce the report");
    assert_ne!(run(11), run(12), "different seeds must differ");
}

/// The full tuner (many chained QPS searches) must also be exactly
/// reproducible — this exercises long RNG streams through the climber.
#[test]
fn tuner_is_exactly_reproducible() {
    let tune = || {
        let cfg = zoo::ncf();
        let t = DeepRecInfra::new(cfg.clone())
            .tune(SlaTier::Medium.sla_ms(&cfg), &SearchOptions::quick());
        (format!("{:?}", t.policy), t.qps.to_bits(), t.trajectory)
    };
    assert_eq!(tune(), tune());
}
