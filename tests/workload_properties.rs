//! Integration + property tests tying the workload model to the
//! system-level claims that depend on it.

use deeprecsys::prelude::*;
use deeprecsys::query::{tail_work_share, MAX_QUERY_SIZE};
use proptest::prelude::*;
use rand::SeedableRng;

#[test]
fn production_distribution_drives_different_optimum_than_lognormal() {
    // Figure 12a's setup: the same model + SLA tuned under the two
    // distributions. The production tail admits (at least) as large an
    // optimal batch; the distributions must be distinguishable to the
    // tuner (trajectories differ).
    let cfg = zoo::dlrm_rmc1();
    let sla = SlaTier::Medium.sla_ms(&cfg);
    let opts = SearchOptions::quick();
    let prod = DeepRecInfra::new(cfg.clone()).tune(sla, &opts);
    let logn = DeepRecInfra::new(cfg.clone())
        .with_size_dist(SizeDistribution::lognormal_matched())
        .tune(sla, &opts);
    assert_ne!(
        prod.trajectory, logn.trajectory,
        "tuner cannot distinguish the distributions"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Simulated completions conserve queries for any sane policy.
    #[test]
    fn sim_conserves_queries(batch in 1u32..512, seed in 0u64..100, rate in 50.0f64..5000.0) {
        let infra = DeepRecInfra::new(zoo::ncf());
        let r = infra.simulate(SchedulerPolicy::cpu_only(batch), rate, 300, seed);
        prop_assert_eq!(r.completed, 270); // 10% warm-up of 300
        prop_assert!(r.latency.p95_ms >= r.latency.p50_ms);
        prop_assert!(r.latency.max_ms >= r.latency.p99_ms);
    }

    /// Query splitting conserves work under the production distribution.
    #[test]
    fn split_conserves_production_sizes(seed in 0u64..500, batch in 1u32..1024) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let d = SizeDistribution::production();
        for _ in 0..50 {
            let size = d.sample(&mut rng);
            let parts: Vec<u32> = deeprecsys::query::split_query(size, batch).collect();
            prop_assert_eq!(parts.iter().sum::<u32>(), size);
            prop_assert!(parts.len() as u32 == size.div_ceil(batch));
        }
    }

    /// The heavy-tail work-share statistic stays in the calibrated band
    /// for any seed (Figure 6's premise is seed-independent).
    #[test]
    fn tail_work_share_stable(seed in 0u64..200) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sizes = SizeDistribution::production().sample_n(20_000, &mut rng);
        let share = tail_work_share(&sizes, 0.75);
        prop_assert!((0.40..0.75).contains(&share), "share {share}");
        prop_assert!(sizes.iter().all(|&s| s <= MAX_QUERY_SIZE));
    }
}
