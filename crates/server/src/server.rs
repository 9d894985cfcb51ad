//! The open-loop serving runtime: arrivals → batching queue → CPU
//! worker pool / GPU offload, with the online controller in the loop.

use crate::cluster::Router;
use crate::controller::ControllerConfig;
use crate::node::{self, NodeSetup, TenantSetup};
use crate::real;
use drs_core::{MultiModelSpec, Report, RoutingPolicy, SchedulerPolicy, ServingStack};
use drs_models::{ModelConfig, RecModel};
use drs_platform::{CpuPlatform, GpuPlatform, ModelCost};
use drs_query::Query;
use drs_telemetry::{MetricsSink, NoopMetrics, NoopSink, TraceSink};
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
    /// constructor (`Server::new`, `Cluster::new`).
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

/// An open-loop recommendation inference server for one model on one
/// node.
///
/// Two execution substrates share one scheduling brain (batching
/// queue, offload routing, online controller):
///
/// * [`Server::serve_virtual`] — deterministic virtual time; CPU and
///   GPU service times come from [`drs_platform::ModelCost`], so runs
///   are byte-reproducible ([`crate::Simulation`] is this loop with
///   coalescing, queue bound and controller off).
/// * [`Server::serve_real`] — wall-clock time; CPU batches execute as
///   real forward passes on a [`drs_engine::InferenceEngine`] worker
///   pool (with bounded-queue backpressure), while GPU offloads run on
///   the virtual-time cost model.
///
/// A `Server` is a one-node [`crate::Cluster`] behind a trivial
/// router: both clocks run the cluster's loops (`node.rs` in virtual
/// time, `real.rs` on the wall clock) with N = 1.
///
/// # Examples
///
/// ```
/// use drs_core::SchedulerPolicy;
/// use drs_models::zoo;
/// use drs_platform::CpuPlatform;
/// use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution};
/// use drs_server::{Server, ServerOptions};
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
/// let report = server.serve_virtual(&queries);
/// assert!(report.completed > 0);
/// assert!(report.latency.p95_ms > 0.0);
/// ```
#[derive(Debug)]
pub struct Server {
    /// Per-tenant cost models, in tenant order.
    costs: Vec<ModelCost>,
    /// Per-tenant serving parameters, in tenant order.
    tenants: Vec<TenantSetup>,
    cpu: CpuPlatform,
    gpu: Option<GpuPlatform>,
    opts: ServerOptions,
}

impl Server {
    /// Builds a server for one model on one node.
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
        opts.validate();
        assert!(
            opts.policy.gpu_threshold.is_none() || gpu.is_some(),
            "policy offloads to a GPU the node does not have"
        );
        Server {
            costs: vec![ModelCost::new(cfg)],
            tenants: vec![TenantSetup::solo(opts.policy, cfg.sla_ms)],
            cpu,
            gpu,
            opts,
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
        opts.validate();
        for t in spec.tenants() {
            assert!(
                t.policy.gpu_threshold.is_none() || gpu.is_some(),
                "tenant {} offloads to a GPU the node does not have",
                t.name
            );
        }
        Server {
            costs: spec
                .tenants()
                .iter()
                .map(|t| ModelCost::new(&t.model))
                .collect(),
            tenants: spec.tenants().iter().map(TenantSetup::from_spec).collect(),
            cpu,
            gpu,
            opts,
        }
    }

    /// The options this server runs with.
    pub fn options(&self) -> &ServerOptions {
        &self.opts
    }

    /// The cost model in use (the first tenant's, on a multi-tenant
    /// server; shared with the simulator's math).
    pub fn cost(&self) -> &ModelCost {
        &self.costs[0]
    }

    /// Number of co-located tenants this server serves.
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    fn setup(&self) -> NodeSetup {
        NodeSetup {
            cpu: self.cpu,
            gpu: self.gpu,
            workers: self.opts.workers,
        }
    }

    /// A single node behind a trivial router: the same loops a
    /// `Cluster` runs, with N = 1.
    fn router(&self) -> Router {
        Router::new(
            RoutingPolicy::LeastOutstanding,
            &[self.gpu.is_some()],
            0,
            self.opts.seed,
        )
    }

    /// Serves `queries` in deterministic virtual time and reports.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty.
    pub fn serve_virtual(&self, queries: &[Query]) -> Report {
        self.serve_virtual_traced(queries, &mut NoopSink)
    }

    /// [`Server::serve_virtual`] with query-lifecycle tracing: every
    /// measured query's per-stage span is recorded into `sink` (see
    /// [`drs_telemetry`]). With a recording sink the report also
    /// carries a [`drs_telemetry::StageBreakdown`].
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty.
    pub fn serve_virtual_traced<S: TraceSink>(&self, queries: &[Query], sink: &mut S) -> Report {
        self.serve_virtual_inner(queries, sink, &mut NoopMetrics)
    }

    /// [`Server::serve_virtual`] with fleet-pulse metrics: time-series
    /// gauges sample on the virtual clock at `pulse`'s interval, and
    /// controller re-tunes / DRR grants land in the decision log (see
    /// [`drs_telemetry::PulseRecorder`]). With a recording pulse the
    /// report also carries a [`drs_telemetry::PulseSummary`].
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty.
    pub fn serve_virtual_pulsed<M: MetricsSink>(&self, queries: &[Query], pulse: &mut M) -> Report {
        self.serve_virtual_inner(queries, &mut NoopSink, pulse)
    }

    fn serve_virtual_inner<S: TraceSink, M: MetricsSink>(
        &self,
        queries: &[Query],
        sink: &mut S,
        pulse: &mut M,
    ) -> Report {
        node::serve_virtual_multi(
            &self.costs,
            &self.tenants,
            &[self.setup()],
            &self.opts,
            self.router(),
            None,
            queries,
            sink,
            pulse,
        )
        .0
    }

    /// Serves `queries` on the real inference engine: arrivals are
    /// paced by the wall clock (compressed by `time_scale`), CPU
    /// batches run as physical forward passes through a bounded worker
    /// pool, GPU offloads complete on the cost model's virtual clock.
    /// (To replay a recorded [`drs_query::Trace`], pass
    /// `trace.replay().collect()`.)
    ///
    /// Latencies are reported on the (scaled) arrival clock, measured
    /// from each query's *scheduled* arrival (so submitter jitter
    /// counts as queueing, not as a shifted arrival), and at
    /// `time_scale = 1.0` they are wall-clock milliseconds. On a
    /// multi-tenant server use [`Server::serve_real_multi`] with one
    /// model per tenant.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty, the server co-locates more than
    /// one tenant, or the model geometry disagrees with the server's
    /// configuration.
    pub fn serve_real(&self, model: Arc<RecModel>, queries: &[Query]) -> Report {
        self.serve_real_multi(vec![model], queries)
    }

    /// The multi-tenant real path: one shared
    /// [`drs_engine::InferenceEngine`] worker pool executes every
    /// tenant's lane, with `models[t]` serving tenant `t`'s requests.
    /// Per-tenant batching queues and controllers run exactly as in
    /// virtual time, and lanes are arbitrated onto the pool by the
    /// same deficit-round-robin discipline the virtual node uses; GPU
    /// offloads share the virtual-time device with per-tenant pricing.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty, `models` does not provide exactly
    /// one model per tenant, or a model's geometry disagrees with its
    /// tenant's cost model.
    pub fn serve_real_multi(&self, models: Vec<Arc<RecModel>>, queries: &[Query]) -> Report {
        self.serve_real_observed(models, queries, &mut NoopSink, &mut NoopMetrics)
    }

    /// [`Server::serve_real_multi`] with query-lifecycle tracing into
    /// `sink` — [`Server::serve_real_observed`] without a pulse, kept
    /// under this name because the `benchmark/` package calls it.
    ///
    /// # Panics
    ///
    /// Panics as [`Server::serve_real_multi`] does.
    pub fn serve_real_multi_traced<S: TraceSink>(
        &self,
        models: Vec<Arc<RecModel>>,
        queries: &[Query],
        sink: &mut S,
    ) -> Report {
        self.serve_real_observed(models, queries, sink, &mut NoopMetrics)
    }

    /// [`Server::serve_real_multi`] observed: query-lifecycle spans go
    /// to `sink` and fleet-pulse metrics to `pulse`, either of which
    /// may be a no-op ([`NoopSink`], [`NoopMetrics`]). Span stages on
    /// the cost-model clock (GPU offloads) are identical to the
    /// virtual path's, while engine-executed stages carry scaled wall
    /// time. Pulse ticks fire on the model-time clock at event
    /// boundaries (GPU completions, arrivals), so on the offload-all
    /// path the sampled series are bit-identical to
    /// [`Server::serve_virtual_pulsed`]'s.
    ///
    /// # Panics
    ///
    /// Panics as [`Server::serve_real_multi`] does.
    pub fn serve_real_observed<S: TraceSink, M: MetricsSink>(
        &self,
        models: Vec<Arc<RecModel>>,
        queries: &[Query],
        sink: &mut S,
        pulse: &mut M,
    ) -> Report {
        real::serve(
            &self.costs,
            &self.tenants,
            &[self.setup()],
            &self.opts,
            self.router(),
            None,
            models,
            queries,
            sink,
            pulse,
        )
        .0
    }
}

impl ServingStack for Server {
    fn label(&self) -> String {
        if self.tenants.len() > 1 {
            format!("server multi x{}", self.tenants.len())
        } else {
            "server".to_string()
        }
    }

    fn serve_queries(&self, queries: &[Query]) -> Report {
        self.serve_virtual(queries)
    }
}
