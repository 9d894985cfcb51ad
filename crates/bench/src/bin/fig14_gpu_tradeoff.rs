//! Regenerates **Figure 14**: (a) QPS versus the tail-latency target
//! for DeepRecSched-CPU and DeepRecSched-GPU, including the share of
//! work the GPU absorbs at each target and the lowest achievable
//! target per path; (b) the QPS/Watt crossover between the two.

use deeprecsys::prelude::*;
use deeprecsys::table::{fmt3, TextTable};

fn main() {
    let opts = drs_bench::parse_args();
    drs_bench::header(
        "Figure 14 — scheduling across CPUs and the accelerator (DLRM-RMC1)",
        "(a) the GPU path unlocks lower tail-latency targets than CPU-only \
         (paper: 41 ms vs 57 ms) and higher QPS at every target; the GPU work \
         share falls as the target relaxes (18% at 120 ms); (b) QPS/W favors \
         the GPU path at tight targets and CPU-only at relaxed ones",
        &opts,
    );

    // With the SW_STACK_FACTOR calibration the interesting band sits at
    // tens of milliseconds, matching the paper's 40-120 ms sweep; the
    // shapes under test are the GPU gain, the falling GPU share, and
    // the QPS/W crossover.
    let cfg = zoo::dlrm_rmc1();
    let sched = DeepRecSched::new(opts.search);
    let targets_ms = [8.0, 12.0, 16.0, 20.0, 30.0, 40.0, 60.0, 80.0, 100.0];

    let mut t = TextTable::new(vec![
        "SLA target (ms)",
        "DRS-CPU QPS",
        "DRS-GPU QPS",
        "GPU gain",
        "GPU work share",
        "DRS-CPU QPS/W",
        "DRS-GPU QPS/W",
        "QPS/W winner",
    ]);
    let mut lowest_cpu: Option<f64> = None;
    let mut lowest_gpu: Option<f64> = None;

    for &sla in &targets_ms {
        let cpu = sched.tune_cpu(&cfg, ClusterConfig::single_skylake(), sla);
        let gpu = sched.tune(&cfg, ClusterConfig::skylake_with_gpu(), sla);
        if cpu.qps > 0.0 && lowest_cpu.is_none() {
            lowest_cpu = Some(sla);
        }
        if gpu.qps > 0.0 && lowest_gpu.is_none() {
            lowest_gpu = Some(sla);
        }
        let qpw = |r: &Option<Report>| r.as_ref().map_or(0.0, |x| x.qps_per_watt);
        let share = gpu.at_max.as_ref().map_or(0.0, |r| r.gpu_work_fraction);
        let (cq, gq) = (qpw(&cpu.at_max), qpw(&gpu.at_max));
        t.row(vec![
            fmt3(sla),
            fmt3(cpu.qps),
            fmt3(gpu.qps),
            if cpu.qps > 0.0 {
                format!("{:.2}x", gpu.qps / cpu.qps)
            } else if gpu.qps > 0.0 {
                "CPU infeasible".into()
            } else {
                "-".into()
            },
            format!("{:.0}%", share * 100.0),
            fmt3(cq),
            fmt3(gq),
            if cq == 0.0 && gq == 0.0 {
                "-".into()
            } else if gq > cq {
                "GPU".into()
            } else {
                "CPU".into()
            },
        ]);
    }
    println!("{t}");
    println!(
        "lowest achievable target: CPU-only {} ms, with GPU {} ms",
        lowest_cpu.map_or("none".into(), fmt3),
        lowest_gpu.map_or("none".into(), fmt3)
    );
}
