//! Maximum sustainable QPS under a tail-latency SLA.
//!
//! The search is generic over the execution layer: any
//! [`ServingStack`] (the simulator, the open-loop server, a
//! router-fronted cluster) can sit under the binary search via
//! [`max_qps_under_sla_stack`]; [`max_qps_under_sla`] is the classic
//! simulator-backed entry point, now a thin wrapper.

use drs_core::{ClusterConfig, Report, ServingStack};
use drs_models::ModelConfig;
use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution};
use drs_sim::{SchedulerPolicy, Simulation};

/// Parameters of the load search shared by every tuner and experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchOptions {
    /// Queries simulated per load probe.
    pub queries_per_probe: usize,
    /// Relative QPS resolution of the binary search (e.g. 0.05 = 5 %).
    pub tolerance: f64,
    /// Query-size distribution of the workload.
    pub size_dist: SizeDistribution,
    /// Seed for the workload stream (shared across probes so that
    /// configuration comparisons are paired).
    pub seed: u64,
    /// Upper bound on the searched load, QPS.
    pub max_qps_bound: f64,
}

impl SearchOptions {
    /// Experiment-grade settings: 4 000 queries per probe, 4 %
    /// resolution, the production size distribution.
    pub fn standard() -> Self {
        SearchOptions {
            queries_per_probe: 4_000,
            tolerance: 0.04,
            size_dist: SizeDistribution::production(),
            seed: 0xDEEC,
            max_qps_bound: 2.0e5,
        }
    }

    /// CI-grade settings: fast and coarse.
    pub fn quick() -> Self {
        SearchOptions {
            queries_per_probe: 800,
            tolerance: 0.10,
            size_dist: SizeDistribution::production(),
            seed: 0xDEEC,
            max_qps_bound: 2.0e5,
        }
    }

    /// Smoke-test settings: the absolute minimum that still exercises
    /// every code path (floor finding, binary search, hill climbing).
    /// Numbers produced at this profile are **not** meaningful — it
    /// exists so the figure/table binaries can prove they still run
    /// end to end in a few seconds (`--smoke`).
    ///
    /// The probe window cannot shrink much below this: with the
    /// heavy-tailed production size distribution, windows of a few
    /// dozen queries make the measured p95 swing on a single tail
    /// query, collapsing every search to "infeasible" for unlucky
    /// seeds — which would leave the climbers' accept paths untested.
    pub fn smoke() -> Self {
        SearchOptions {
            queries_per_probe: 240,
            tolerance: 0.3,
            size_dist: SizeDistribution::production(),
            seed: 0xDEEC,
            max_qps_bound: 1.0e5,
        }
    }

    /// Returns a copy with a different size distribution (the Figure
    /// 12a lognormal-vs-production comparison).
    pub fn with_size_dist(mut self, d: SizeDistribution) -> Self {
        self.size_dist = d;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of a max-QPS search.
#[derive(Debug, Clone)]
pub struct QpsSearchResult {
    /// Highest offered load that met the SLA, in QPS. Zero when even a
    /// trickle of load violates the target (the SLA is unachievable
    /// under this configuration — Figure 14a's "lowest achievable
    /// tail-latency" effect).
    pub max_qps: f64,
    /// Simulation report at that operating point (`None` when
    /// `max_qps` is zero).
    pub at_max: Option<Report>,
}

/// One load probe against an arbitrary serving stack: a fresh seeded
/// Poisson stream at `rate_qps`, served in the stack's (virtual) time.
/// The report's offered load is pinned to the probed rate, matching
/// the historical simulator-backed probe exactly.
fn probe_stack<S: ServingStack>(stack: &S, rate_qps: f64, opts: &SearchOptions) -> Report {
    let queries: Vec<drs_query::Query> =
        QueryGenerator::new(ArrivalProcess::poisson(rate_qps), opts.size_dist, opts.seed)
            .take(opts.queries_per_probe)
            .collect();
    let mut report = stack.serve_queries(&queries);
    report.offered_qps = rate_qps;
    report
}

/// Binary-searches the offered Poisson load for the largest QPS whose
/// p95 latency meets `sla_ms` (Section III-B: "we measure throughput as
/// the number of queries per second that can be processed under a p95
/// tail-latency requirement") — the classic simulator-backed entry
/// point, delegating to [`max_qps_under_sla_stack`].
///
/// Deterministic: every probe replays the same seeded workload at a
/// different rate.
pub fn max_qps_under_sla(
    cfg: &ModelConfig,
    cluster: ClusterConfig,
    policy: SchedulerPolicy,
    sla_ms: f64,
    opts: &SearchOptions,
) -> QpsSearchResult {
    max_qps_under_sla_stack(&Simulation::new(cfg, cluster, policy), sla_ms, opts)
}

/// [`max_qps_under_sla`] over any [`ServingStack`]: the same floor /
/// exponential-bracket / binary-search ladder, with each probe served
/// by `stack` instead of a freshly built simulator. This is how the
/// tuner evaluates the open-loop server or a whole cluster without a
/// bespoke search per backend.
pub fn max_qps_under_sla_stack<S: ServingStack>(
    stack: &S,
    sla_ms: f64,
    opts: &SearchOptions,
) -> QpsSearchResult {
    assert!(sla_ms > 0.0, "SLA must be positive");
    let feasible = |rate: f64| -> Option<Report> {
        let r = probe_stack(stack, rate, opts);
        // Two conditions: the tail meets the SLA, and the system
        // actually *keeps up* with the offered load. The second guards
        // against the finite-window artifact where a short burst at an
        // absurd rate finishes "within SLA" only because the window
        // ends before the backlog does.
        (r.meets_sla(sla_ms) && r.qps >= 0.85 * rate).then_some(r)
    };

    // Establish a feasible floor.
    let mut lo = 16.0;
    let mut lo_report = loop {
        match feasible(lo) {
            Some(r) => break r,
            None => {
                lo /= 4.0;
                if lo < 0.25 {
                    return QpsSearchResult {
                        max_qps: 0.0,
                        at_max: None,
                    };
                }
            }
        }
    };

    // Grow exponentially to bracket the knee.
    let mut hi = lo * 2.0;
    while hi <= opts.max_qps_bound {
        match feasible(hi) {
            Some(r) => {
                lo = hi;
                lo_report = r;
                hi *= 2.0;
            }
            None => break,
        }
    }
    if hi > opts.max_qps_bound {
        return QpsSearchResult {
            max_qps: lo,
            at_max: Some(lo_report),
        };
    }

    // Binary search between feasible lo and infeasible hi.
    while (hi - lo) / hi > opts.tolerance {
        let mid = (lo + hi) / 2.0;
        match feasible(mid) {
            Some(r) => {
                lo = mid;
                lo_report = r;
            }
            None => hi = mid,
        }
    }
    QpsSearchResult {
        max_qps: lo,
        at_max: Some(lo_report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_models::zoo;

    #[test]
    fn finds_positive_capacity() {
        let cfg = zoo::dlrm_rmc1();
        let r = max_qps_under_sla(
            &cfg,
            ClusterConfig::single_skylake(),
            SchedulerPolicy::cpu_only(64),
            100.0,
            &SearchOptions::quick(),
        );
        assert!(r.max_qps > 50.0, "max qps {}", r.max_qps);
        let at = r.at_max.unwrap();
        assert!(at.latency.p95_ms <= 100.0);
    }

    #[test]
    fn laxer_sla_never_hurts() {
        let cfg = zoo::dlrm_rmc3();
        let opts = SearchOptions::quick();
        let policy = SchedulerPolicy::cpu_only(128);
        let tight = max_qps_under_sla(&cfg, ClusterConfig::single_skylake(), policy, 50.0, &opts);
        let loose = max_qps_under_sla(&cfg, ClusterConfig::single_skylake(), policy, 150.0, &opts);
        assert!(
            loose.max_qps >= tight.max_qps * 0.95,
            "tight {} loose {}",
            tight.max_qps,
            loose.max_qps
        );
    }

    #[test]
    fn impossible_sla_returns_zero() {
        let cfg = zoo::dlrm_rmc2();
        let r = max_qps_under_sla(
            &cfg,
            ClusterConfig::single_skylake(),
            SchedulerPolicy::cpu_only(1024),
            0.01, // 10 µs p95: unachievable
            &SearchOptions::quick(),
        );
        assert_eq!(r.max_qps, 0.0);
        assert!(r.at_max.is_none());
    }

    #[test]
    fn deterministic() {
        let cfg = zoo::ncf();
        let opts = SearchOptions::quick();
        let f = || {
            max_qps_under_sla(
                &cfg,
                ClusterConfig::single_skylake(),
                SchedulerPolicy::cpu_only(64),
                5.0,
                &opts,
            )
            .max_qps
        };
        assert_eq!(f(), f());
    }
}
