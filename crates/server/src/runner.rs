//! Behavioural unit tests of [`crate::Simulation`], moved here
//! unmodified with the type from `drs-sim`'s `runner.rs` when its event
//! loop was replaced by this crate's. The module keeps that file's
//! name so the suite's test ids (`runner::tests::…`) did not change
//! when the loop under them did.

// What `runner.rs` had in scope for its test modules' `use super::*`.
use crate::simulation::{RunOptions, Simulation};
use drs_core::{ClusterConfig, SchedulerPolicy};
use drs_platform::{CpuPlatform, GpuPlatform};
use drs_query::QueryGenerator;

mod tests {
    use super::*;
    use drs_models::zoo;
    use drs_query::{ArrivalProcess, SizeDistribution};

    fn gen(rate: f64, seed: u64) -> QueryGenerator {
        QueryGenerator::new(
            ArrivalProcess::poisson(rate),
            SizeDistribution::production(),
            seed,
        )
    }

    #[test]
    fn completes_every_measured_query() {
        let sim = Simulation::new(
            &zoo::dlrm_rmc1(),
            ClusterConfig::single_skylake(),
            SchedulerPolicy::cpu_only(64),
        );
        let opts = RunOptions::queries(1000);
        let report = sim.run(&mut gen(100.0, 1), opts);
        assert_eq!(report.completed, 900, "10% warm-up excluded");
        assert_eq!(report.latencies_ms.len(), 900);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let sim = Simulation::new(
                &zoo::ncf(),
                ClusterConfig::single_skylake(),
                SchedulerPolicy::cpu_only(128),
            );
            sim.run(&mut gen(500.0, 42), RunOptions::queries(800))
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.latency.p95_ms, b.latency.p95_ms);
        assert_eq!(a.qps, b.qps);
        assert_eq!(a.latencies_ms, b.latencies_ms);
    }

    #[test]
    fn low_load_latency_is_service_time() {
        // At very low load, no queueing: mean latency ≈ a one-part
        // service time band.
        let sim = Simulation::new(
            &zoo::ncf(),
            ClusterConfig::single_skylake(),
            SchedulerPolicy::cpu_only(1024),
        );
        let report = sim.run(&mut gen(5.0, 3), RunOptions::queries(300));
        // NCF service for a ≤1000-item request is well under 10 ms.
        assert!(
            report.latency.p95_ms < 10.0,
            "p95 {}",
            report.latency.p95_ms
        );
        assert!(report.cpu_utilization < 0.1);
    }

    #[test]
    fn overload_explodes_latency_but_not_qps() {
        let sim = Simulation::new(
            &zoo::dlrm_rmc2(),
            ClusterConfig::single_skylake(),
            SchedulerPolicy::cpu_only(64),
        );
        let light = sim.run(&mut gen(50.0, 5), RunOptions::queries(1500));
        let heavy = sim.run(&mut gen(5000.0, 5), RunOptions::queries(1500));
        assert!(heavy.latency.p95_ms > 10.0 * light.latency.p95_ms);
        // Sustained QPS saturates at service capacity, far below the
        // offered 5000.
        assert!(heavy.qps < 4000.0);
    }

    #[test]
    fn throughput_matches_offered_when_underloaded() {
        let sim = Simulation::new(
            &zoo::dlrm_rmc1(),
            ClusterConfig::single_skylake(),
            SchedulerPolicy::cpu_only(128),
        );
        let report = sim.run(&mut gen(200.0, 7), RunOptions::queries(3000));
        assert!(
            (report.qps - 200.0).abs() / 200.0 < 0.1,
            "qps {} vs offered 200",
            report.qps
        );
    }

    #[test]
    fn more_machines_sustain_more_load() {
        let policy = SchedulerPolicy::cpu_only(64);
        let one = Simulation::new(&zoo::dlrm_rmc1(), ClusterConfig::single_skylake(), policy);
        let four = Simulation::new(
            &zoo::dlrm_rmc1(),
            ClusterConfig::cluster(4, CpuPlatform::skylake(), None),
            policy,
        );
        // Above one machine's knee (~9.5k QPS at batch 64), far below
        // four machines' aggregate capacity.
        let load = 12_000.0;
        let r1 = one.run(&mut gen(load, 11), RunOptions::queries(2000));
        let r4 = four.run(&mut gen(load, 11), RunOptions::queries(2000));
        assert!(
            r4.latency.p95_ms < r1.latency.p95_ms / 2.0,
            "4 machines p95 {} vs 1 machine {}",
            r4.latency.p95_ms,
            r1.latency.p95_ms
        );
    }

    #[test]
    fn gpu_offload_accounts_work_share() {
        let sim = Simulation::new(
            &zoo::dlrm_rmc1(),
            ClusterConfig::skylake_with_gpu(),
            SchedulerPolicy::with_gpu(64, 150),
        );
        let report = sim.run(&mut gen(100.0, 13), RunOptions::queries(1500));
        assert!(
            report.gpu_work_fraction > 0.1,
            "gpu share {}",
            report.gpu_work_fraction
        );
        assert!(report.gpu_work_fraction < 0.9);
        assert!(report.gpu_utilization > 0.0);
    }

    #[test]
    fn gpu_helps_under_heavy_tail_load() {
        // The core DeepRecSched-GPU effect: offloading big queries
        // relieves the CPU tail at loads where CPU-only saturates.
        // Just above the CPU-only knee for RMC1 at batch 64 (~9.5k QPS);
        // a threshold of 500 sends ~1 % of queries (≈12 % of items) to
        // the GPU, relieving the CPU tail without saturating the device.
        let load = 11_000.0;
        let cpu_only = Simulation::new(
            &zoo::dlrm_rmc1(),
            ClusterConfig::single_skylake(),
            SchedulerPolicy::cpu_only(64),
        );
        let with_gpu = Simulation::new(
            &zoo::dlrm_rmc1(),
            ClusterConfig::skylake_with_gpu(),
            SchedulerPolicy::with_gpu(64, 500),
        );
        let r_cpu = cpu_only.run(&mut gen(load, 17), RunOptions::queries(2500));
        let r_gpu = with_gpu.run(&mut gen(load, 17), RunOptions::queries(2500));
        assert!(
            r_gpu.latency.p95_ms < r_cpu.latency.p95_ms,
            "GPU p95 {} vs CPU p95 {}",
            r_gpu.latency.p95_ms,
            r_cpu.latency.p95_ms
        );
    }

    #[test]
    fn power_accounting_positive_and_bounded() {
        let sim = Simulation::new(
            &zoo::ncf(),
            ClusterConfig::skylake_with_gpu(),
            SchedulerPolicy::with_gpu(128, 100),
        );
        let report = sim.run(&mut gen(300.0, 19), RunOptions::queries(1000));
        let cpu = CpuPlatform::skylake();
        let gpu = GpuPlatform::gtx_1080ti();
        assert!(report.avg_power_w >= cpu.idle_w + gpu.idle_w - 1e-9);
        assert!(report.avg_power_w <= cpu.tdp_w + gpu.tdp_w + 1e-9);
        assert!(report.qps_per_watt > 0.0);
    }

    #[test]
    #[should_panic(expected = "GPU the cluster does not have")]
    fn offload_without_gpu_rejected() {
        let _ = Simulation::new(
            &zoo::ncf(),
            ClusterConfig::single_skylake(),
            SchedulerPolicy::with_gpu(64, 100),
        );
    }
}

mod probe {
    use super::*;
    use drs_models::zoo;
    use drs_query::{ArrivalProcess, SizeDistribution};

    #[test]
    #[ignore]
    fn capacity_probe() {
        for (name, cfg) in [
            ("RMC1", zoo::dlrm_rmc1()),
            ("RMC2", zoo::dlrm_rmc2()),
            ("RMC3", zoo::dlrm_rmc3()),
            ("NCF", zoo::ncf()),
            ("WND", zoo::wide_and_deep()),
            ("DIEN", zoo::dien()),
        ] {
            for load in [500.0, 2000.0, 8000.0, 16000.0, 32000.0] {
                let sim = Simulation::new(
                    &cfg,
                    ClusterConfig::single_skylake(),
                    SchedulerPolicy::cpu_only(64),
                );
                let mut gen = QueryGenerator::new(
                    ArrivalProcess::poisson(load),
                    SizeDistribution::production(),
                    7,
                );
                let r = sim.run(&mut gen, RunOptions::queries(2000));
                println!(
                    "{name} load {load}: qps {:.0} p95 {:.1}ms util {:.2}",
                    r.qps, r.latency.p95_ms, r.cpu_utilization
                );
            }
        }
    }
}

mod hetero_tests {
    use super::*;
    use drs_models::zoo;
    use drs_query::{ArrivalProcess, SizeDistribution};

    fn gen(rate: f64, seed: u64) -> QueryGenerator {
        QueryGenerator::new(
            ArrivalProcess::poisson(rate),
            SizeDistribution::production(),
            seed,
        )
    }

    fn capacity_proxy(sim: &Simulation, load: f64) -> f64 {
        let mut g = gen(load, 31);
        sim.run(&mut g, RunOptions::queries(2000)).qps
    }

    #[test]
    fn mixed_fleet_capacity_between_pure_fleets() {
        // 2 Skylake + 2 Broadwell should sustain throughput between
        // 4x Broadwell and 4x Skylake under deep saturation.
        let cfg = zoo::dlrm_rmc1();
        let policy = SchedulerPolicy::cpu_only(128);
        let load = 12_000.0; // saturates all three fleets
        let skl = Simulation::new(
            &cfg,
            ClusterConfig::cluster(4, CpuPlatform::skylake(), None),
            policy,
        );
        let bdw = Simulation::new(
            &cfg,
            ClusterConfig::cluster(4, CpuPlatform::broadwell(), None),
            policy,
        );
        let mix = Simulation::new_heterogeneous(
            &cfg,
            vec![
                CpuPlatform::skylake(),
                CpuPlatform::skylake(),
                CpuPlatform::broadwell(),
                CpuPlatform::broadwell(),
            ],
            None,
            policy,
        );
        let (q_skl, q_bdw, q_mix) = (
            capacity_proxy(&skl, load),
            capacity_proxy(&bdw, load),
            capacity_proxy(&mix, load),
        );
        let (lo, hi) = (q_skl.min(q_bdw), q_skl.max(q_bdw));
        assert!(
            q_mix > lo * 0.95 && q_mix < hi * 1.05,
            "mixed fleet {q_mix} outside [{lo}, {hi}]"
        );
    }

    #[test]
    fn hetero_fleet_completes_and_accounts_power() {
        let cfg = zoo::ncf();
        let sim = Simulation::new_heterogeneous(
            &cfg,
            vec![CpuPlatform::skylake(), CpuPlatform::broadwell()],
            None,
            SchedulerPolicy::cpu_only(64),
        );
        let r = sim.run(&mut gen(500.0, 9), RunOptions::queries(1000));
        assert_eq!(r.completed, 900);
        // Power must be at least both machines idling, at most both at
        // TDP.
        let idle = CpuPlatform::skylake().idle_w + CpuPlatform::broadwell().idle_w;
        let tdp = CpuPlatform::skylake().tdp_w + CpuPlatform::broadwell().tdp_w;
        assert!(r.avg_power_w >= idle - 1e-9 && r.avg_power_w <= tdp + 1e-9);
    }

    #[test]
    #[should_panic(expected = "a fleet needs machines")]
    fn empty_fleet_rejected() {
        let _ =
            Simulation::new_heterogeneous(&zoo::ncf(), vec![], None, SchedulerPolicy::cpu_only(64));
    }
}

mod trace_tests {
    use super::*;
    use drs_core::ServingStack;
    use drs_models::zoo;
    use drs_query::trace::Trace;
    use drs_query::{ArrivalProcess, SizeDistribution};

    #[test]
    fn trace_replay_matches_generator_run() {
        // Recording a stream and replaying it must produce the exact
        // same simulation results as running the stream directly.
        let cfg = zoo::dlrm_rmc1();
        let sim = Simulation::new(
            &cfg,
            ClusterConfig::single_skylake(),
            SchedulerPolicy::cpu_only(64),
        );
        let mk_gen = || {
            QueryGenerator::new(
                ArrivalProcess::poisson(500.0),
                SizeDistribution::production(),
                17,
            )
        };
        let direct = sim.run(&mut mk_gen(), RunOptions::queries(800));
        let trace = Trace::record(mk_gen(), 800);
        let replayed = ServingStack::serve_trace(&sim, &trace);
        assert_eq!(direct.completed, replayed.completed);
        assert_eq!(direct.latency.p95_ms, replayed.latency.p95_ms);
        assert_eq!(direct.latencies_ms, replayed.latencies_ms);
    }

    #[test]
    fn trace_replay_survives_serialization() {
        let cfg = zoo::ncf();
        let sim = Simulation::new(
            &cfg,
            ClusterConfig::single_skylake(),
            SchedulerPolicy::cpu_only(128),
        );
        let gen = QueryGenerator::new(
            ArrivalProcess::poisson(2000.0),
            SizeDistribution::production(),
            23,
        );
        let trace = Trace::record(gen, 500);
        let mut buf = Vec::new();
        trace.write(&mut buf).unwrap();
        let parsed = Trace::read(buf.as_slice()).unwrap();
        let a = ServingStack::serve_trace(&sim, &trace);
        let b = ServingStack::serve_trace(&sim, &parsed);
        // Nanosecond-rounded arrivals: distributions agree tightly.
        assert_eq!(a.completed, b.completed);
        assert!((a.latency.p95_ms - b.latency.p95_ms).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_rejected() {
        let sim = Simulation::new(
            &zoo::ncf(),
            ClusterConfig::single_skylake(),
            SchedulerPolicy::cpu_only(64),
        );
        let _ = ServingStack::serve_trace(&sim, &Trace::from_pairs(&[]));
    }
}
