//! Regenerates **Figure 11** — the headline result: throughput (QPS)
//! and power efficiency (QPS/Watt) of DeepRecSched-CPU and
//! DeepRecSched-GPU versus the static production baseline, for all
//! eight models at Low/Medium/High tail-latency targets, normalized to
//! the baseline at the Low target, plus the geometric mean.

use deeprecsys::prelude::*;
use deeprecsys::table::TextTable;

fn main() {
    let opts = drs_bench::parse_args();
    drs_bench::header(
        "Figure 11 — DeepRecSched vs static baseline (headline)",
        "DRS-CPU: 1.7x/2.1x/2.7x QPS at low/med/high targets; DRS-GPU: \
         4.0x/5.1x/5.8x; QPS/W gains for DRS-CPU match QPS, DRS-GPU power \
         gains are smaller (GPU power overhead) and can invert for \
         memory-bound models",
        &opts,
    );

    let mut qps_table = TextTable::new(vec![
        "model",
        "tier",
        "baseline QPS",
        "DRS-CPU QPS",
        "DRS-CPU x",
        "DRS-GPU QPS",
        "DRS-GPU x",
    ]);
    let mut power_table = TextTable::new(vec![
        "model",
        "tier",
        "baseline QPS/W",
        "DRS-CPU QPS/W",
        "x",
        "DRS-GPU QPS/W",
        "x",
    ]);
    let mut cpu_gains: Vec<f64> = Vec::new();
    let mut gpu_gains: Vec<f64> = Vec::new();
    let mut cpu_pgains: Vec<f64> = Vec::new();
    let mut gpu_pgains: Vec<f64> = Vec::new();

    for cfg in zoo::all() {
        for tier in SlaTier::ALL {
            let sla = tier.sla_ms(&cfg);
            let cpu_cluster = ClusterConfig::single_skylake();
            let gpu_cluster = ClusterConfig::skylake_with_gpu();
            let sched = DeepRecSched::new(opts.search);

            let base = max_qps_under_sla(
                &cfg,
                cpu_cluster,
                SchedulerPolicy::static_baseline(cpu_cluster.cpu.cores),
                sla,
                &opts.search,
            );
            let drs_cpu = sched.tune_cpu(&cfg, cpu_cluster, sla);
            let drs_gpu = sched.tune(&cfg, gpu_cluster, sla);

            let qpw = |r: &Option<Report>| r.as_ref().map_or(0.0, |r| r.qps_per_watt);
            let base_qpw = qpw(&base.at_max);
            let cpu_qpw = qpw(&drs_cpu.at_max);
            let gpu_qpw = qpw(&drs_gpu.at_max);

            // When the static baseline cannot meet the SLA at all (its
            // fixed batch 25 violates the tail target even unloaded),
            // any positive DeepRecSched QPS is an "unlock" — reported
            // textually and excluded from the geomean.
            let rel = |x: f64, b: f64| if b > 0.0 { x / b } else { f64::NAN };
            let rel_label = |x: f64, b: f64| {
                if b > 0.0 {
                    format!("{:.2}x", x / b)
                } else if x > 0.0 {
                    "unlocked".to_string()
                } else {
                    "-".to_string()
                }
            };
            let cpu_x = rel(drs_cpu.qps, base.max_qps);
            let gpu_x = rel(drs_gpu.qps, base.max_qps);
            if cpu_x.is_finite() && cpu_x > 0.0 {
                cpu_gains.push(cpu_x);
            }
            if gpu_x.is_finite() && gpu_x > 0.0 {
                gpu_gains.push(gpu_x);
            }
            let cpu_px = rel(cpu_qpw, base_qpw);
            let gpu_px = rel(gpu_qpw, base_qpw);
            if cpu_px.is_finite() && cpu_px > 0.0 {
                cpu_pgains.push(cpu_px);
            }
            if gpu_px.is_finite() && gpu_px > 0.0 {
                gpu_pgains.push(gpu_px);
            }

            qps_table.row(vec![
                cfg.name.to_string(),
                tier.label().to_string(),
                format!("{:.0}", base.max_qps),
                format!("{:.0} (b={})", drs_cpu.qps, drs_cpu.policy.max_batch),
                rel_label(drs_cpu.qps, base.max_qps),
                format!(
                    "{:.0} (thr={})",
                    drs_gpu.qps,
                    drs_gpu
                        .policy
                        .gpu_threshold
                        .map_or("-".into(), |t| t.to_string())
                ),
                rel_label(drs_gpu.qps, base.max_qps),
            ]);
            power_table.row(vec![
                cfg.name.to_string(),
                tier.label().to_string(),
                format!("{base_qpw:.1}"),
                format!("{cpu_qpw:.1}"),
                rel_label(cpu_qpw, base_qpw),
                format!("{gpu_qpw:.1}"),
                rel_label(gpu_qpw, base_qpw),
            ]);
        }
    }

    println!("## (top) throughput under the p95 SLA\n\n{qps_table}");
    println!("## (bottom) power efficiency\n\n{power_table}");
    let g = |v: &[f64]| geomean(v).unwrap_or(f64::NAN);
    println!("## GeoMean across models and tiers\n");
    println!(
        "- DRS-CPU QPS gain:   {:.2}x (paper: 1.7-2.7x)",
        g(&cpu_gains)
    );
    println!(
        "- DRS-GPU QPS gain:   {:.2}x (paper: 4.0-5.8x)",
        g(&gpu_gains)
    );
    println!(
        "- DRS-CPU QPS/W gain: {:.2}x (paper: 1.7-2.7x)",
        g(&cpu_pgains)
    );
    println!(
        "- DRS-GPU QPS/W gain: {:.2}x (paper: 2.0-2.9x)",
        g(&gpu_pgains)
    );
}
