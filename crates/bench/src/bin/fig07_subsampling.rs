//! Regenerates **Figure 7**: the latency distribution measured on a
//! handful of machines tracks the datacenter-scale distribution to
//! within ~10 %.

use deeprecsys::prelude::*;
use deeprecsys::table::{fmt3, TextTable};
use drs_metrics::{ks_distance, percentile_of_sorted};

fn run_cluster(
    cfg: &ModelConfig,
    machines: usize,
    per_machine_qps: f64,
    n: usize,
    seed: u64,
) -> Vec<f64> {
    let cluster = ClusterConfig::cluster(machines, CpuPlatform::skylake(), None);
    let sim = Simulation::new(cfg, cluster, SchedulerPolicy::cpu_only(64));
    let mut gen = QueryGenerator::new(
        ArrivalProcess::poisson(per_machine_qps * machines as f64),
        SizeDistribution::production(),
        seed,
    );
    sim.run(&mut gen, RunOptions::queries(n)).latencies_ms
}

fn main() {
    let opts = drs_bench::parse_args();
    drs_bench::header(
        "Figure 7 — subsampling the datacenter fleet with a few machines",
        "per-query latency distributions measured on a handful of nodes track \
         the datacenter-scale distribution within ~10% (max CDF deviation)",
        &opts,
    );

    let (dc_machines, few_machines) = (100usize, 4usize);
    let per_machine_qps = 600.0;
    let n_dc = opts.pick(100_000, 20_000, 4_000);
    let n_few = n_dc / (dc_machines / few_machines);

    let mut t = TextTable::new(vec![
        "model",
        "datacenter p50/p95/p99 (ms)",
        "subsample p50/p95/p99 (ms)",
        "max CDF deviation",
        "within 10%",
    ]);
    for cfg in [zoo::dlrm_rmc1(), zoo::dlrm_rmc3()] {
        let mut dc = run_cluster(&cfg, dc_machines, per_machine_qps, n_dc, opts.search.seed);
        let mut few = run_cluster(
            &cfg,
            few_machines,
            per_machine_qps,
            n_few.max(2_000),
            opts.search.seed + 1,
        );
        dc.sort_by(f64::total_cmp);
        few.sort_by(f64::total_cmp);
        let ks = ks_distance(&dc, &few);

        let summary = |sorted: &[f64]| {
            let p = |q| fmt3(percentile_of_sorted(sorted, q));
            format!("{}/{}/{}", p(0.50), p(0.95), p(0.99))
        };
        t.row(vec![
            cfg.name.to_string(),
            summary(&dc),
            summary(&few),
            format!("{:.1}%", ks * 100.0),
            if ks < 0.10 { "yes".into() } else { "no".into() },
        ]);
    }
    println!(
        "datacenter = {dc_machines} machines, subsample = {few_machines} machines, \
         equal per-machine load ({per_machine_qps} QPS each)\n"
    );
    println!("{t}");
}
