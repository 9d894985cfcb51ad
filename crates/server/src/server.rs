//! The open-loop serving runtime: arrivals → batching queue → CPU
//! worker pool / GPU offload, with the online controller in the loop.

use crate::cluster::Cluster;
use crate::controller::ControllerConfig;
use crate::serve::Serve;
use drs_core::{
    ClusterTopology, MultiModelSpec, Report, RoutingPolicy, SchedulerPolicy, ServingStack,
};
use drs_models::{ModelConfig, RecModel};
use drs_platform::{CpuPlatform, GpuPlatform, ModelCost};
use drs_query::Query;
use drs_telemetry::{MetricsSink, TraceSink};
use std::sync::Arc;

/// Dynamic-batching parameters.
#[derive(Debug, Clone, Copy)]
pub struct BatchingConfig {
    /// How long a sub-batch residual may wait for company before the
    /// open batch ships anyway, microseconds. `0` disables coalescing:
    /// queries are then cut into balanced parts
    /// ([`drs_query::split_query`]) that all dispatch on arrival.
    pub coalesce_timeout_us: f64,
    /// Dispatch-queue depth at which the server counts backpressure
    /// (and, on the real engine, stops submitting until workers catch
    /// up).
    pub queue_bound: usize,
}

impl BatchingConfig {
    /// Serving defaults: a 200 µs coalesce window, 64 pending requests.
    pub fn standard() -> Self {
        BatchingConfig {
            coalesce_timeout_us: 200.0,
            queue_bound: 64,
        }
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// CPU worker slots (threads on the real engine, modelled cores in
    /// virtual time). A [`crate::Cluster`] grants this many slots per
    /// node, capped at each node's core count.
    pub workers: usize,
    /// Scheduling policy served when no controller is attached. With a
    /// controller, only its `gpu_threshold` is kept (for the batch
    /// phase): the controller pilots `max_batch` from the ladder base,
    /// per the paper's unit-batch starting point (Section IV-C).
    pub policy: SchedulerPolicy,
    /// Dynamic-batching parameters.
    pub batching: BatchingConfig,
    /// Online controller; `None` serves the fixed policy.
    pub controller: Option<ControllerConfig>,
    /// Leading fraction of queries excluded from statistics (warm-up).
    pub warmup_frac: f64,
    /// Seed for synthetic input generation (real engine) and the
    /// router's sampled dispatch policies (cluster).
    pub seed: u64,
    /// Real-mode pacing compression: 2.0 replays arrivals (and the
    /// GPU's virtual clock) at twice real time. CPU forward passes are
    /// physical and do not scale.
    pub time_scale: f64,
}

impl ServerOptions {
    /// Defaults: standard batching, no controller, 10 % warm-up, real
    /// time.
    pub fn new(workers: usize, policy: SchedulerPolicy) -> Self {
        ServerOptions {
            workers,
            policy,
            batching: BatchingConfig::standard(),
            controller: None,
            warmup_frac: 0.1,
            seed: 0,
            time_scale: 1.0,
        }
    }

    /// Attaches an online controller.
    pub fn with_controller(mut self, cfg: ControllerConfig) -> Self {
        self.controller = Some(cfg);
        self
    }

    /// Overrides the batching parameters.
    pub fn with_batching(mut self, batching: BatchingConfig) -> Self {
        self.batching = batching;
        self
    }

    /// Validates the hardware-independent invariants shared by every
    /// constructor (`Cluster::new*`, which `Server` builds on).
    ///
    /// # Panics
    ///
    /// Panics if any option is degenerate.
    pub(crate) fn validate(&self) {
        assert!(self.workers > 0, "need at least one worker");
        assert!(self.time_scale > 0.0, "time scale must be positive");
        assert!(
            (0.0..1.0).contains(&self.warmup_frac),
            "warm-up fraction must be in [0, 1)"
        );
        assert!(
            self.batching.queue_bound > 0,
            "queue bound must be positive"
        );
    }
}

/// An open-loop recommendation inference server for one model (or one
/// co-located spec) on one node: a one-node [`Cluster`] behind a
/// least-outstanding router.
///
/// Two execution substrates share one scheduling brain (batching
/// queue, offload routing, online controller), both reached through
/// [`Server::serve`]:
///
/// * [`Serve::virtual_time`] — deterministic virtual time; CPU and GPU
///   service times come from [`drs_platform::ModelCost`], so runs are
///   byte-reproducible ([`crate::Simulation`] is this loop with
///   coalescing, queue bound and controller off).
/// * [`Serve::real`] — wall-clock time; CPU batches execute as real
///   forward passes on a [`drs_engine::InferenceEngine`] worker pool
///   (with bounded-queue backpressure), while GPU offloads run on the
///   virtual-time cost model.
///
/// # Examples
///
/// ```
/// use drs_core::SchedulerPolicy;
/// use drs_models::zoo;
/// use drs_platform::CpuPlatform;
/// use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution};
/// use drs_server::{Serve, Server, ServerOptions};
///
/// let queries: Vec<_> = QueryGenerator::new(
///     ArrivalProcess::poisson(500.0),
///     SizeDistribution::production(),
///     7,
/// )
/// .take(400)
/// .collect();
/// let server = Server::new(
///     &zoo::dlrm_rmc1(),
///     CpuPlatform::skylake(),
///     None,
///     ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
/// );
/// let report = server.serve(&queries, Serve::virtual_time());
/// assert!(report.completed > 0);
/// assert!(report.latency.p95_ms > 0.0);
/// ```
#[derive(Debug)]
pub struct Server {
    cluster: Cluster,
}

impl Server {
    /// Builds a server for one model on one node. The node's worker
    /// pool is `opts.workers`, capped at the CPU's core count.
    ///
    /// # Panics
    ///
    /// Panics if options are degenerate or the policy offloads without
    /// a GPU on the node.
    pub fn new(
        cfg: &ModelConfig,
        cpu: CpuPlatform,
        gpu: Option<GpuPlatform>,
        opts: ServerOptions,
    ) -> Self {
        Server {
            cluster: Cluster::new(
                cfg,
                ClusterTopology::uniform(1, cpu, gpu),
                RoutingPolicy::LeastOutstanding,
                opts,
            ),
        }
    }

    /// Builds a server co-locating the spec's models on one node's
    /// shared worker pool: each tenant gets its own batching queue and
    /// (when `opts.controller` is set) its own online controller tuned
    /// against its own SLA tier, while the pool is arbitrated by
    /// deficit round-robin across tenants (PAPER §III: per-model
    /// knobs on shared hardware).
    ///
    /// `opts.policy` is ignored; each tenant serves its spec policy.
    ///
    /// # Panics
    ///
    /// Panics if options are degenerate or any tenant's policy
    /// offloads without a GPU on the node.
    pub fn new_multi(
        spec: &MultiModelSpec,
        cpu: CpuPlatform,
        gpu: Option<GpuPlatform>,
        opts: ServerOptions,
    ) -> Self {
        Server {
            cluster: Cluster::new_multi(
                spec,
                ClusterTopology::uniform(1, cpu, gpu),
                RoutingPolicy::LeastOutstanding,
                opts,
            ),
        }
    }

    /// The options this server runs with.
    pub fn options(&self) -> &ServerOptions {
        self.cluster.options()
    }

    /// The cost model in use (the first tenant's, on a multi-tenant
    /// server; shared with the simulator's math).
    pub fn cost(&self) -> &ModelCost {
        self.cluster.cost()
    }

    /// Number of co-located tenants this server serves.
    pub fn tenants(&self) -> usize {
        self.cluster.tenants()
    }

    /// Serves `queries` as `how` asks: [`Cluster::serve`] on the one
    /// node.
    ///
    /// # Panics
    ///
    /// Panics as [`Cluster::serve`] does.
    pub fn serve<S: TraceSink, M: MetricsSink>(
        &self,
        queries: &[Query],
        how: Serve<S, M>,
    ) -> Report {
        self.cluster.serve(queries, how)
    }

    /// `serve(queries, Serve::virtual_time())`, under the
    /// name the `benchmark/` package calls; panics as `serve` does.
    pub fn serve_virtual(&self, queries: &[Query]) -> Report {
        self.serve(queries, Serve::virtual_time())
    }

    /// `serve(queries, Serve::virtual_time().traced(sink))`, under the
    /// name the `benchmark/` package calls; panics as `serve` does.
    pub fn serve_virtual_traced<S: TraceSink>(&self, queries: &[Query], sink: &mut S) -> Report {
        self.serve(queries, Serve::virtual_time().traced(sink))
    }

    /// `serve(queries, Serve::virtual_time().pulsed(pulse))`, under the
    /// name the `benchmark/` package calls; panics as `serve` does.
    pub fn serve_virtual_pulsed<M: MetricsSink>(&self, queries: &[Query], pulse: &mut M) -> Report {
        self.serve(queries, Serve::virtual_time().pulsed(pulse))
    }

    /// `serve(queries, Serve::real(models).traced(sink))`, under the
    /// name the `benchmark/` package calls; panics as `serve` does.
    pub fn serve_real_multi_traced<S: TraceSink>(
        &self,
        models: Vec<Arc<RecModel>>,
        queries: &[Query],
        sink: &mut S,
    ) -> Report {
        self.serve(queries, Serve::real(models).traced(sink))
    }
}

impl ServingStack for Server {
    fn label(&self) -> String {
        if self.tenants() > 1 {
            format!("server multi x{}", self.tenants())
        } else {
            "server".to_string()
        }
    }

    fn serve_queries(&self, queries: &[Query]) -> Report {
        self.serve(queries, Serve::virtual_time())
    }
}
