//! Concurrency stress gate for the shared-pool DRR arbiter.
//!
//! Drives the real multi-tenant path (`Server::serve` on `Serve::real`) —
//! the deficit-round-robin arbiter feeding one shared engine pool —
//! with more workers than physical cores and compressed pacing, and
//! asserts the completion set is identical across repeated runs.
//! Per-query *latencies* are wall-clock and legitimately vary; which
//! queries complete (all of them, exactly once) must not.

use drs_core::{MultiModelSpec, SchedulerPolicy, TenantSpec};
use drs_models::{zoo, ModelScale, RecModel};
use drs_platform::CpuPlatform;
use drs_query::{ArrivalProcess, MixedStream, QueryGenerator, SizeDistribution};
use drs_server::{Serve, Server, ServerOptions};
use drs_telemetry::RingRecorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;

fn tiny(cfg: &drs_models::ModelConfig, seed: u64) -> Arc<RecModel> {
    let mut rng = StdRng::seed_from_u64(seed);
    Arc::new(RecModel::instantiate(cfg, ModelScale::tiny(), &mut rng))
}

fn mixed(rates: &[f64], seed: u64, n: usize) -> Vec<drs_query::Query> {
    MixedStream::new(
        rates
            .iter()
            .enumerate()
            .map(|(k, &r)| {
                QueryGenerator::new(
                    ArrivalProcess::poisson(r),
                    SizeDistribution::production(),
                    seed.wrapping_add(k as u64 * 0x9E37),
                )
            })
            .collect(),
    )
    .take(n)
    .collect()
}

/// Which query ids the traced run completed.
fn completion_set(rec: &RingRecorder) -> BTreeSet<u64> {
    assert_eq!(rec.dropped(), 0, "ring sized to retain the whole run");
    let mut seen = BTreeSet::new();
    for s in rec.spans() {
        assert!(
            seen.insert(s.query_id),
            "query {} completed twice",
            s.query_id
        );
    }
    seen
}

#[test]
fn drr_under_oversubscription_completes_every_query_each_run() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let (cfg_a, cfg_b, cfg_c) = (zoo::ncf(), zoo::wide_and_deep(), zoo::dlrm_rmc1());
    // Unequal DRR weights: the arbiter must interleave three lanes of
    // different priority on one oversubscribed pool.
    let spec = MultiModelSpec::new(vec![
        TenantSpec::new(cfg_a.clone(), SchedulerPolicy::cpu_only(8)),
        TenantSpec::new(cfg_b.clone(), SchedulerPolicy::cpu_only(8)).with_weight(2),
        TenantSpec::new(cfg_c.clone(), SchedulerPolicy::cpu_only(8)).with_weight(3),
    ]);
    let mut opts = ServerOptions::new(cores * 2, SchedulerPolicy::cpu_only(8));
    opts.warmup_frac = 0.0;
    // Compress pacing so the stress run finishes quickly; forward
    // passes are physical, so workers still contend for real cores.
    opts.time_scale = 64.0;
    // A node with a core per worker, so the pool keeps every worker
    // whatever the host's core count.
    let cpu = CpuPlatform {
        cores: opts.workers,
        ..CpuPlatform::skylake()
    };
    let server = Server::new_multi(&spec, cpu, None, opts);
    let models = vec![tiny(&cfg_a, 31), tiny(&cfg_b, 32), tiny(&cfg_c, 33)];
    let queries = mixed(&[900.0, 600.0, 300.0], 17, 240);
    let all_ids: BTreeSet<u64> = queries.iter().map(|q| q.id).collect();

    let mut baseline = None;
    for run in 0..3 {
        let mut rec = RingRecorder::new(queries.len());
        let report = server.serve(&queries, Serve::real(models.clone()).traced(&mut rec));
        assert_eq!(
            report.completed,
            queries.len() as u64,
            "run {run}: the arbiter must drain every lane"
        );
        let set = completion_set(&rec);
        assert_eq!(
            set, all_ids,
            "run {run}: completion set must cover the workload"
        );
        match &baseline {
            None => baseline = Some(set),
            Some(b) => assert_eq!(&set, b, "run {run}: completion set diverged across runs"),
        }
    }
}
