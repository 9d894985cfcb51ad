//! Integration: every Table-I model runs end to end through the real
//! serving path and produces valid CTRs.

use deeprecsys::prelude::*;
use deeprecsys::query::Query;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

/// Held by every test here: the operator profile times wall-clock
/// forwards, and the serving test's worker pool running beside it on
/// the same cores would be charged to whichever operator it preempts.
static CORES: Mutex<()> = Mutex::new(());

#[test]
fn all_models_serve_on_the_real_engine() {
    let _cores = CORES.lock().unwrap_or_else(|e| e.into_inner());
    let queries: Vec<Query> = [1u32, 17, 40]
        .iter()
        .enumerate()
        .map(|(i, &size)| Query {
            id: i as u64,
            size,
            arrival_s: i as f64 * 1e-3,
            tenant: TenantId::SOLO,
        })
        .collect();
    for cfg in zoo::all() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let model = Arc::new(RecModel::instantiate(&cfg, ModelScale::tiny(), &mut rng));
        let mut opts = ServerOptions::new(2, SchedulerPolicy::cpu_only(16));
        opts.warmup_frac = 0.0; // count every query
        let server = Server::new(&cfg, CpuPlatform::skylake(), None, opts);
        let report = server.serve(&queries, Serve::real(vec![model]));
        assert_eq!(report.completed, queries.len() as u64, "{}", cfg.name);
        assert!(report.qps > 0.0, "{}", cfg.name);
        assert_eq!(report.latencies_ms.len(), queries.len(), "{}", cfg.name);
        assert!(
            report
                .latencies_ms
                .iter()
                .all(|ms| ms.is_finite() && *ms >= 0.0),
            "{}: {:?}",
            cfg.name,
            report.latencies_ms
        );
    }
}

#[test]
fn measured_bottleneck_matches_paper_for_extreme_models() {
    // At realistic (default) scale the measured operator mix should
    // reproduce Table II for the clearest-cut models. We use DIEN
    // (recurrent-dominated) and WND (MLP-dominated): their dominance is
    // structural, not a close call.
    use deeprecsys::engine::profile_operators;
    use deeprecsys::models::characterize::classify_bottleneck;

    // Ten forwards per model: two took ~20 ms at tiny scale, short
    // enough that one scheduler slice lost inside an MLP layer flipped
    // DIEN's mix.
    const ITERS: usize = 10;
    let _cores = CORES.lock().unwrap_or_else(|e| e.into_inner());

    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let dien = RecModel::instantiate(&zoo::dien(), ModelScale::tiny(), &mut rng);
    let prof = profile_operators(&dien, 64, ITERS, 3);
    assert_eq!(
        classify_bottleneck(&prof.fractions()),
        "Attention-based GRU dominated"
    );

    let wnd = RecModel::instantiate(&zoo::wide_and_deep(), ModelScale::tiny(), &mut rng);
    let prof = profile_operators(&wnd, 64, ITERS, 3);
    assert_eq!(classify_bottleneck(&prof.fractions()), "MLP dominated");
}
