//! # DeepRecSys — at-scale neural recommendation inference, in Rust
//!
//! A from-scratch reproduction of *DeepRecSys: A System for Optimizing
//! End-To-End At-Scale Neural Recommendation Inference* (Gupta et al.,
//! ISCA 2020). This crate is the public face of the workspace: it
//! re-exports every subsystem and offers [`DeepRecInfra`], a high-level
//! handle combining the three ingredients of the paper's evaluation
//! methodology —
//!
//! 1. an industry-representative **model** ([`zoo`], Table I),
//! 2. a **real-time query workload** (Poisson arrivals over the
//!    production heavy-tail size distribution, Figure 5),
//! 3. a **hardware platform** (Skylake/Broadwell CPU models, optional
//!    GPU; Section V),
//!
//! — plus the **DeepRecSched** tuner that maximizes QPS under a p95
//! tail-latency SLA by balancing request- vs batch-level parallelism
//! and offloading large queries to the accelerator.
//!
//! It is the workspace's root package: the end-to-end tests under
//! `tests/` and the examples under `examples/` build against it.
//!
//! # Quickstart
//!
//! ```
//! use deeprecsys::prelude::*;
//!
//! // DLRM-RMC1 served on one Skylake under production traffic.
//! let infra = DeepRecInfra::new(zoo::dlrm_rmc1());
//! let report = infra.simulate(SchedulerPolicy::cpu_only(64), 500.0, 1000, 7);
//! assert!(report.latency.p95_ms > 0.0);
//!
//! // How much load can this policy sustain under the 100 ms SLA?
//! let cap = infra.max_qps(SchedulerPolicy::cpu_only(64), 100.0, &SearchOptions::quick());
//! assert!(cap.max_qps > 0.0);
//! ```

pub mod table;

pub use drs_core as core_types;
pub use drs_engine as engine;
pub use drs_metrics as metrics;
pub use drs_models as models;
pub use drs_nn as nn;
pub use drs_platform as platform;
pub use drs_query as query;
pub use drs_sched as sched;
pub use drs_server as server;
pub use drs_shard as shard;
pub use drs_sim as sim;
pub use drs_telemetry as telemetry;
pub use drs_tensor as tensor;

pub use drs_models::zoo;

/// Everything needed for typical experiments, in one import.
pub mod prelude {
    pub use crate::{DeepRecInfra, StackSpec};
    pub use drs_core::{
        ClusterConfig, ClusterTopology, MultiModelSpec, NodeId, NodeSpec, Report, RoutingPolicy,
        ServingStack, TenantBreakdown, TenantSpec,
    };
    pub use drs_engine::InferenceEngine;
    pub use drs_metrics::{
        geomean, parse_prometheus, LatencyRecorder, LatencySummary, MetricsRegistry,
    };
    pub use drs_models::{zoo, ModelConfig, ModelScale, RecModel};
    pub use drs_nn::{OpKind, OpProfiler, ShardedEmbeddingSet};
    pub use drs_platform::{CpuPlatform, GpuPlatform, InterconnectModel, ModelCost};
    pub use drs_query::{ArrivalProcess, MixedStream, QueryGenerator, SizeDistribution, TenantId};
    pub use drs_sched::{
        max_qps_under_sla, max_qps_under_sla_stack, DeepRecSched, SearchOptions, SlaTier,
        TunedConfig,
    };
    pub use drs_server::{
        BatchingConfig, Cluster, ControllerConfig, Router, Serve, Server, ServerOptions,
    };
    pub use drs_shard::{PlacementError, PlacementPolicy, ShardPlan};
    pub use drs_sim::{RunOptions, SchedulerPolicy, Simulation};
    pub use drs_telemetry::{
        parse_chrome_trace, to_chrome_trace, ControlDecision, DrrRound, MetricsSink, NoopMetrics,
        NoopSink, PulseRecorder, PulseSummary, QuerySpan, RetuneTrigger, RingRecorder, Stage,
        StageBreakdown, TraceSink,
    };
}

use drs_core::{ClusterConfig, Report, RoutingPolicy, ServingStack};
use drs_models::ModelConfig;
use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution};
use drs_sched::{max_qps_under_sla, DeepRecSched, QpsSearchResult, SearchOptions, TunedConfig};
use drs_server::{Cluster, Server, ServerOptions};
use drs_sim::{RunOptions, SchedulerPolicy, Simulation};

/// One model + one workload + one cluster: the unit every experiment in
/// the paper is run on (Figure 8's left half).
#[derive(Debug, Clone)]
pub struct DeepRecInfra {
    model: ModelConfig,
    size_dist: SizeDistribution,
    cluster: ClusterConfig,
}

impl DeepRecInfra {
    /// Infra for `model` with production traffic on a single Skylake.
    pub fn new(model: ModelConfig) -> Self {
        DeepRecInfra {
            model,
            size_dist: SizeDistribution::production(),
            cluster: ClusterConfig::single_skylake(),
        }
    }

    /// Replaces the cluster (e.g. Broadwell, GPU-attached, N machines).
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// Replaces the query-size distribution (Figure 12a's
    /// lognormal-vs-production comparison).
    pub fn with_size_dist(mut self, dist: SizeDistribution) -> Self {
        self.size_dist = dist;
        self
    }

    /// The model configuration.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The cluster configuration.
    pub fn cluster(&self) -> ClusterConfig {
        self.cluster
    }

    /// The query-size distribution.
    pub fn size_dist(&self) -> SizeDistribution {
        self.size_dist
    }

    /// Runs one simulation window at a Poisson load of `rate_qps`.
    pub fn simulate(
        &self,
        policy: SchedulerPolicy,
        rate_qps: f64,
        num_queries: usize,
        seed: u64,
    ) -> Report {
        let sim = Simulation::new(&self.model, self.cluster, policy);
        let mut gen = QueryGenerator::new(ArrivalProcess::poisson(rate_qps), self.size_dist, seed);
        sim.run(&mut gen, RunOptions::queries(num_queries))
    }

    /// Maximum sustainable QPS under `sla_ms` for a fixed policy.
    pub fn max_qps(
        &self,
        policy: SchedulerPolicy,
        sla_ms: f64,
        opts: &SearchOptions,
    ) -> QpsSearchResult {
        let opts = opts.with_size_dist(self.size_dist);
        max_qps_under_sla(&self.model, self.cluster, policy, sla_ms, &opts)
    }

    /// The production static baseline for this cluster (fixed batch =
    /// ⌈max query size / cores⌉, no GPU).
    pub fn baseline_policy(&self) -> SchedulerPolicy {
        SchedulerPolicy::static_baseline(self.cluster.cpu.cores)
    }

    /// Runs the full DeepRecSched tuner (batch size, then GPU threshold
    /// when the cluster has an accelerator).
    pub fn tune(&self, sla_ms: f64, opts: &SearchOptions) -> TunedConfig {
        let opts = opts.with_size_dist(self.size_dist);
        DeepRecSched::new(opts).tune(&self.model, self.cluster, sla_ms)
    }

    /// The one constructor for every execution layer: builds the
    /// serving stack described by `spec` over this infra's model and
    /// cluster, serving `policy`. Replaces the three bespoke call
    /// sites (simulator constructor, server constructor, cluster
    /// constructor) for experiments that drive a stack only through
    /// [`ServingStack`]; every stack returns the same [`Report`].
    ///
    /// ```
    /// use deeprecsys::prelude::*;
    ///
    /// let infra = DeepRecInfra::new(zoo::ncf())
    ///     .with_cluster(ClusterConfig::cluster(2, CpuPlatform::skylake(), None));
    /// let queries: Vec<_> = QueryGenerator::new(
    ///     ArrivalProcess::poisson(400.0),
    ///     SizeDistribution::production(),
    ///     7,
    /// )
    /// .take(300)
    /// .collect();
    /// for spec in [
    ///     StackSpec::Sim,
    ///     StackSpec::Server,
    ///     StackSpec::Cluster(RoutingPolicy::PowerOfTwoChoices { d: 2 }),
    /// ] {
    ///     let stack = infra.stack(SchedulerPolicy::cpu_only(64), spec);
    ///     let report = stack.serve_queries(&queries);
    ///     assert!(report.completed > 0, "{}", stack.label());
    /// }
    /// ```
    pub fn stack(&self, policy: SchedulerPolicy, spec: StackSpec) -> Box<dyn ServingStack> {
        let server_opts = || ServerOptions::new(self.cluster.cpu.cores, policy);
        match spec {
            StackSpec::Sim => Box::new(Simulation::new(&self.model, self.cluster, policy)),
            StackSpec::Server => Box::new(Server::new(
                &self.model,
                self.cluster.cpu,
                self.cluster.gpu,
                server_opts(),
            )),
            StackSpec::Cluster(routing) => Box::new(Cluster::new(
                &self.model,
                self.cluster.topology(),
                routing,
                server_opts(),
            )),
        }
    }
}

/// Which execution layer a [`DeepRecInfra::stack`] should build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StackSpec {
    /// The simulated datacenter ([`Simulation`]) over the infra's
    /// cluster.
    Sim,
    /// The open-loop virtual-time server on one node of the infra's
    /// cluster (its CPU core count as the worker pool).
    Server,
    /// A router-fronted [`Cluster`] over the infra's whole topology,
    /// dispatching under the given routing policy.
    Cluster(RoutingPolicy),
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_models::zoo;

    #[test]
    fn infra_builder_round_trip() {
        let infra = DeepRecInfra::new(zoo::ncf())
            .with_cluster(ClusterConfig::skylake_with_gpu())
            .with_size_dist(SizeDistribution::lognormal_matched());
        assert_eq!(infra.model().name, "NCF");
        assert!(infra.cluster().gpu.is_some());
        assert_eq!(infra.size_dist().name(), "lognormal");
    }

    #[test]
    fn simulate_and_search_work_together() {
        let infra = DeepRecInfra::new(zoo::dlrm_rmc1());
        let report = infra.simulate(infra.baseline_policy(), 300.0, 600, 3);
        assert!(report.completed > 0);
        let cap = infra.max_qps(infra.baseline_policy(), 100.0, &SearchOptions::quick());
        assert!(cap.max_qps > 0.0);
    }

    #[test]
    fn baseline_matches_cluster_cores() {
        let skl = DeepRecInfra::new(zoo::ncf());
        assert_eq!(skl.baseline_policy().max_batch, 25);
        let bdw = DeepRecInfra::new(zoo::ncf()).with_cluster(ClusterConfig::cluster(
            1,
            drs_platform::CpuPlatform::broadwell(),
            None,
        ));
        assert_eq!(bdw.baseline_policy().max_batch, 36);
    }
}
