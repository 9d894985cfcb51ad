//! The two-phase hill climber (Section IV-C).

use crate::search::{max_qps_under_sla_stack, QpsSearchResult, SearchOptions};
use drs_core::{
    canonical_batch_ladder, canonical_threshold_ladder, ClusterConfig, LadderClimb, Report,
    SchedulerPolicy, ServingStack,
};
use drs_models::ModelConfig;
use drs_server::Simulation;

/// Generic 1-D hill climb over an ascending `ladder`.
///
/// Evaluates rungs in order, keeping the best score seen; stops after
/// `patience + 1` consecutive non-improving rungs (Section IV-C:
/// "increases the batch size to improve system throughput until the
/// achievable QPS degrades"). Ties keep the *earlier* (smaller) rung,
/// so a plateau never inflates the chosen knob.
///
/// Returns `(best rung, best result, full trajectory)` — the
/// trajectories are exactly the Figure 9/10 curves.
pub fn hill_climb_1d<F>(
    ladder: &[u32],
    patience: usize,
    eval: F,
) -> (u32, QpsSearchResult, Vec<(u32, f64)>)
where
    F: FnMut(u32) -> QpsSearchResult,
{
    hill_climb_1d_rel(ladder, patience, 0.0, eval)
}

/// [`hill_climb_1d`] with a relative improvement threshold.
///
/// A rung only displaces the incumbent when its score exceeds the
/// incumbent's by more than `rel_tol` (e.g. `0.10` = 10 %). The
/// production tuner passes the QPS search's own resolution here: the
/// binary search quantizes throughput to steps of `tolerance`, so two
/// rungs within one step of each other are indistinguishable
/// measurements and the smaller knob value — strictly better on
/// latency — must win the tie. Without this the chosen batch size can
/// *grow* as the SLA tightens, purely from measurement quantization.
///
/// The acceptance threshold and the stopping rule are deliberately
/// decoupled: patience counts rungs that fail to beat the best score
/// *observed* (strictly), not the incumbent. A slowly rising surface —
/// several consecutive sub-threshold gains — therefore keeps climbing
/// and is accepted once its *cumulative* gain over the incumbent
/// clears `rel_tol`, instead of being miscounted as degradation and
/// stopping the climb below the optimum.
///
/// The stepping rules themselves live in [`drs_core::LadderClimb`], so
/// the online controller (`drs-server`) replays the exact same
/// decisions one live measurement window at a time; this function is
/// the offline driver that evaluates rungs eagerly.
///
/// # Panics
///
/// Panics if the ladder is empty or not strictly monotonic (plateaus
/// and duplicate rungs are rejected — they would be evaluated twice
/// and can only lose ties), or if `rel_tol` is negative.
pub fn hill_climb_1d_rel<F>(
    ladder: &[u32],
    patience: usize,
    rel_tol: f64,
    mut eval: F,
) -> (u32, QpsSearchResult, Vec<(u32, f64)>)
where
    F: FnMut(u32) -> QpsSearchResult,
{
    let mut climb = LadderClimb::new(ladder.to_vec(), patience, rel_tol);
    let mut best: Option<QpsSearchResult> = None;
    let mut trajectory = Vec::with_capacity(ladder.len());
    while !climb.is_done() {
        let v = climb.current();
        let r = eval(v);
        trajectory.push((v, r.max_qps));
        if climb.observe(r.max_qps).accepted() {
            best = Some(r);
        }
    }
    let (best_val, _) = climb.best();
    (
        best_val,
        best.expect("a non-empty ladder yields at least one accept"),
        trajectory,
    )
}

/// A tuned configuration and the evidence behind it.
#[derive(Debug, Clone)]
pub struct TunedConfig {
    /// The chosen policy.
    pub policy: SchedulerPolicy,
    /// Max QPS under the SLA at that policy.
    pub qps: f64,
    /// Simulation report at the operating point (None if nothing was
    /// feasible).
    pub at_max: Option<Report>,
    /// `(knob value, max QPS)` pairs visited by the climb, in order —
    /// the Figure 9 / Figure 10 curves fall out of this.
    pub trajectory: Vec<(u32, f64)>,
}

/// The DeepRecSched tuner.
///
/// "DeepRecSched starts with a unit batch-size … and increases the
/// batch size to improve system throughput until the achievable QPS
/// degrades, while also maintaining the target tail latency.
/// DeepRecSched then tunes the query-size threshold … starting with a
/// unit query size threshold (i.e., all queries are processed on the
/// accelerator), applying hill-climbing to gradually increase the
/// threshold until the achievable QPS degrades." (Section IV-C)
#[derive(Debug, Clone)]
pub struct DeepRecSched {
    opts: SearchOptions,
    /// Candidate batch sizes, ascending.
    batch_ladder: Vec<u32>,
    /// Candidate GPU query-size thresholds, ascending.
    threshold_ladder: Vec<u32>,
    /// Consecutive non-improving rungs tolerated before stopping.
    patience: usize,
}

impl DeepRecSched {
    /// Creates a tuner with the canonical ladders: powers of two from 1
    /// to 1024 for batch size; 0 to the maximum query size for the
    /// offload threshold.
    pub fn new(opts: SearchOptions) -> Self {
        DeepRecSched {
            opts,
            batch_ladder: canonical_batch_ladder(),
            threshold_ladder: canonical_threshold_ladder(),
            patience: 1,
        }
    }

    /// The search options in use.
    pub fn options(&self) -> &SearchOptions {
        &self.opts
    }

    /// Overrides the batch ladder (ablation experiments).
    ///
    /// # Panics
    ///
    /// Panics if the ladder is empty or not strictly ascending.
    pub fn with_batch_ladder(mut self, ladder: Vec<u32>) -> Self {
        assert!(!ladder.is_empty(), "empty ladder");
        assert!(
            ladder.windows(2).all(|w| w[0] < w[1]),
            "ladder must be strictly ascending"
        );
        self.batch_ladder = ladder;
        self
    }

    /// Generic 1-D hill climb over `ladder`, scoring with `eval`.
    /// Returns the best value, its score/result, and the trajectory.
    ///
    /// Improvements are only credited beyond the QPS search's own
    /// resolution (`opts.tolerance`); see [`hill_climb_1d_rel`].
    fn climb<F>(&self, ladder: &[u32], eval: F) -> (u32, QpsSearchResult, Vec<(u32, f64)>)
    where
        F: FnMut(u32) -> QpsSearchResult,
    {
        hill_climb_1d_rel(ladder, self.patience, self.opts.tolerance, eval)
    }

    /// Phase 1: tune the per-request batch size on a CPU-only path.
    pub fn tune_cpu(&self, cfg: &ModelConfig, cluster: ClusterConfig, sla_ms: f64) -> TunedConfig {
        self.tune_cpu_on(|p| Simulation::new(cfg, cluster, p), sla_ms)
    }

    /// Phase 1 over any serving backend: `mk` builds the
    /// [`ServingStack`] (simulator, open-loop server, cluster) that
    /// evaluates each candidate policy. This is how one tuner serves
    /// sim-vs-real-vs-cluster without bespoke search code per backend.
    pub fn tune_cpu_on<S, F>(&self, mk: F, sla_ms: f64) -> TunedConfig
    where
        S: ServingStack,
        F: Fn(SchedulerPolicy) -> S,
    {
        let (batch, result, trajectory) = self.climb(&self.batch_ladder, |b| {
            max_qps_under_sla_stack(&mk(SchedulerPolicy::cpu_only(b)), sla_ms, &self.opts)
        });
        TunedConfig {
            policy: SchedulerPolicy::cpu_only(batch),
            qps: result.max_qps,
            at_max: result.at_max,
            trajectory,
        }
    }

    /// Phase 2: with the batch size fixed, tune the GPU offload
    /// threshold.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no GPU.
    pub fn tune_gpu(
        &self,
        cfg: &ModelConfig,
        cluster: ClusterConfig,
        sla_ms: f64,
        batch: u32,
    ) -> TunedConfig {
        assert!(cluster.gpu.is_some(), "tune_gpu needs a GPU in the cluster");
        self.tune_gpu_on(|p| Simulation::new(cfg, cluster, p), sla_ms, batch)
    }

    /// Phase 2 over any serving backend (see
    /// [`DeepRecSched::tune_cpu_on`]); the backend built by `mk` must
    /// accept offloading policies.
    pub fn tune_gpu_on<S, F>(&self, mk: F, sla_ms: f64, batch: u32) -> TunedConfig
    where
        S: ServingStack,
        F: Fn(SchedulerPolicy) -> S,
    {
        let (threshold, result, trajectory) = self.climb(&self.threshold_ladder, |t| {
            max_qps_under_sla_stack(&mk(SchedulerPolicy::with_gpu(batch, t)), sla_ms, &self.opts)
        });
        TunedConfig {
            policy: SchedulerPolicy::with_gpu(batch, threshold),
            qps: result.max_qps,
            at_max: result.at_max,
            trajectory,
        }
    }

    /// Full two-phase tune: batch size first (on the CPU path), then —
    /// when the cluster has a GPU — the offload threshold. Keeps the
    /// CPU-only policy if offloading never beats it.
    pub fn tune(&self, cfg: &ModelConfig, cluster: ClusterConfig, sla_ms: f64) -> TunedConfig {
        self.tune_on(
            |p| Simulation::new(cfg, cluster, p),
            sla_ms,
            cluster.gpu.is_some(),
        )
    }

    /// Full two-phase tune over any serving backend: batch size first,
    /// then — when `gpu_present` — the offload threshold, keeping the
    /// CPU-only policy if offloading never beats it.
    pub fn tune_on<S, F>(&self, mk: F, sla_ms: f64, gpu_present: bool) -> TunedConfig
    where
        S: ServingStack,
        F: Fn(SchedulerPolicy) -> S,
    {
        let cpu = self.tune_cpu_on(&mk, sla_ms);
        if !gpu_present {
            return cpu;
        }
        let gpu = self.tune_gpu_on(&mk, sla_ms, cpu.policy.max_batch);
        if gpu.qps > cpu.qps {
            gpu
        } else {
            cpu
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::max_qps_under_sla;
    use drs_models::zoo;

    fn quick() -> DeepRecSched {
        DeepRecSched::new(SearchOptions::quick())
    }

    #[test]
    fn climber_finds_near_optimum_on_trajectory() {
        // The chosen rung must be within tolerance of the best rung it
        // visited (hill climbing with patience can never return a
        // visited-but-worse point).
        let cfg = zoo::dlrm_rmc1();
        let tuned = quick().tune_cpu(&cfg, ClusterConfig::single_skylake(), 100.0);
        let best_seen = tuned
            .trajectory
            .iter()
            .map(|&(_, q)| q)
            .fold(0.0f64, f64::max);
        assert!(
            tuned.qps >= best_seen * 0.999,
            "returned {} but saw {}",
            tuned.qps,
            best_seen
        );
        assert!(tuned.policy.max_batch >= 1);
    }

    #[test]
    fn tuned_beats_static_baseline() {
        // The headline claim, in miniature: tuned batch ≥ baseline QPS.
        let cfg = zoo::dlrm_rmc1();
        let cluster = ClusterConfig::single_skylake();
        let opts = SearchOptions::quick();
        let baseline = max_qps_under_sla(
            &cfg,
            cluster,
            SchedulerPolicy::static_baseline(cluster.cpu.cores),
            100.0,
            &opts,
        );
        let tuned = quick().tune_cpu(&cfg, cluster, 100.0);
        assert!(
            tuned.qps >= baseline.max_qps,
            "tuned {} vs baseline {}",
            tuned.qps,
            baseline.max_qps
        );
    }

    #[test]
    fn gpu_tune_never_worse_than_cpu_tune() {
        let cfg = zoo::wide_and_deep();
        let sched = quick();
        let cpu = sched.tune_cpu(&cfg, ClusterConfig::single_skylake(), 25.0);
        let full = sched.tune(&cfg, ClusterConfig::skylake_with_gpu(), 25.0);
        assert!(
            full.qps >= cpu.qps * 0.98,
            "full {} vs cpu {}",
            full.qps,
            cpu.qps
        );
    }

    #[test]
    fn trajectory_starts_at_unit_values() {
        let cfg = zoo::ncf();
        let tuned = quick().tune_cpu(&cfg, ClusterConfig::single_skylake(), 5.0);
        assert_eq!(tuned.trajectory[0].0, 1, "climb starts at unit batch");
    }

    #[test]
    #[should_panic(expected = "needs a GPU")]
    fn tune_gpu_requires_gpu() {
        let cfg = zoo::ncf();
        let _ = quick().tune_gpu(&cfg, ClusterConfig::single_skylake(), 5.0, 64);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bad_ladder_rejected() {
        let _ = quick().with_batch_ladder(vec![4, 2]);
    }
}
