//! Real-path tests of what `drs-engine`'s closed-loop harness claimed,
//! kept when that harness was deleted: the engine's one serving path is
//! [`crate::Server::serve_real`], so they drive that. The module keeps
//! the harness file's name so the suite's test ids (`serve::tests::…`)
//! did not change.

mod tests {
    use crate::{Server, ServerOptions};
    use drs_core::SchedulerPolicy;
    use drs_models::{zoo, ModelScale, RecModel};
    use drs_platform::CpuPlatform;
    use drs_query::{Query, TenantId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn model() -> Arc<RecModel> {
        let mut rng = StdRng::seed_from_u64(8);
        Arc::new(RecModel::instantiate(
            &zoo::dlrm_rmc1(),
            ModelScale::tiny(),
            &mut rng,
        ))
    }

    /// Every query arrives at once, so the pool runs flat out.
    fn burst(sizes: &[u32]) -> Vec<Query> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| Query {
                id: i as u64,
                size,
                arrival_s: 0.0,
                tenant: TenantId::SOLO,
            })
            .collect()
    }

    fn server(workers: usize, max_batch: u32) -> Server {
        let mut opts = ServerOptions::new(workers, SchedulerPolicy::cpu_only(max_batch));
        opts.warmup_frac = 0.0; // count every query
        Server::new(&zoo::dlrm_rmc1(), CpuPlatform::skylake(), None, opts)
    }

    #[test]
    fn serves_every_query() {
        let sizes = [10, 64, 3, 120, 7, 33];
        let report = server(3, 32).serve_real(model(), &burst(&sizes));
        assert_eq!(report.completed, sizes.len() as u64);
        assert_eq!(report.latency.count, sizes.len());
        assert!(report.qps > 0.0);
        let total_items: u64 = sizes.iter().map(|&s| s as u64).sum();
        assert!(
            (report.mean_batch_items * report.batches as f64 - total_items as f64).abs() < 1.0,
            "items conserved"
        );
    }

    #[test]
    fn parallel_workers_increase_throughput() {
        // With real threads this can be noisy; require only a clear win
        // on a comfortably parallel workload. On a box without enough
        // cores the win physically cannot appear, so skip.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 4 {
            eprintln!("skipping: needs >= 4 cores, have {cores}");
            return;
        }
        let queries = burst(&[64; 48]);
        let m = model();
        let r1 = server(1, 64).serve_real(Arc::clone(&m), &queries);
        let r4 = server(4, 64).serve_real(m, &queries);
        assert!(
            r4.qps > r1.qps * 1.5,
            "4 workers {} vs 1 worker {}",
            r4.qps,
            r1.qps
        );
    }
}
