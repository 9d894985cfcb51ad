//! The paper's simulated datacenter, as a configuration of the serving
//! loop.
//!
//! DeepRecInfra is one pipeline — arrivals → per-request batches → CPU
//! cores / accelerator — and this crate already runs it in virtual
//! time ([`crate::driver`]'s serving loop on its virtual clock, behind
//! [`crate::Cluster::serve`]). A [`Simulation`] is that
//! loop with the serving-tier extras switched off:
//!
//! * coalescing off (`coalesce_timeout_us = 0`), so every query is cut
//!   into balanced [`drs_query::split_query`] parts that queue for
//!   cores at once;
//! * no dispatch-queue bound and no online controller;
//! * one worker per core of each node;
//! * least-loaded dispatch whose gauge counts outstanding *requests*
//!   (CPU parts and offloaded queries), not queries.
//!
//! `crates/sim/tests/golden/sim_bits.txt` pins that this computes, bit
//! for bit, what `drs-sim`'s own discrete-event loop did before it was
//! deleted.

use crate::cluster::Router;
use crate::driver::{self, Fleet, Virtual};
use crate::node::{NodeSetup, TenantSetup};
use crate::server::{BatchingConfig, ServerOptions};
use drs_core::{
    ClusterConfig, ClusterTopology, NodeSpec, Report, RoutingPolicy, SchedulerPolicy, ServingStack,
    NS_PER_SEC,
};
use drs_models::ModelConfig;
use drs_platform::{CpuPlatform, GpuPlatform, ModelCost};
use drs_query::{Query, QueryGenerator};
use drs_telemetry::{NoopMetrics, NoopSink};

/// The standard warm-up: the leading 10 % of a window is not measured.
const WARMUP_FRAC: f64 = 0.1;

/// Length and measurement parameters of one simulation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Queries injected into the simulation.
    pub num_queries: usize,
    /// Leading fraction of queries excluded from statistics (warm-up).
    pub warmup_frac: f64,
}

impl RunOptions {
    /// A standard window of `n` queries with 10 % warm-up.
    pub fn queries(n: usize) -> Self {
        assert!(n > 0, "need at least one query");
        RunOptions {
            num_queries: n,
            warmup_frac: WARMUP_FRAC,
        }
    }
}

/// A configured simulation: model cost + cluster + scheduling policy.
///
/// `run` is `&self`, so one `Simulation` can evaluate many workloads
/// (the hill climber re-runs it with different generators). A stream
/// handed to [`ServingStack::serve_queries`] must be in arrival order
/// (non-decreasing `arrival_s`, as every generator and trace in the
/// workspace produces); an unordered one panics with
/// [`drs_core::UNORDERED_QUERIES_MSG`].
#[derive(Debug, Clone)]
pub struct Simulation {
    cost: ModelCost,
    policy: SchedulerPolicy,
    /// The p95 tier the report's tenant breakdown is judged against.
    sla_ms: f64,
    /// Per-node hardware (see [`Simulation::with_topology`]).
    topology: ClusterTopology,
}

impl Simulation {
    /// Builds a simulation for one model on one homogeneous cluster
    /// under one policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy requests GPU offload but the cluster has no
    /// GPU.
    pub fn new(cfg: &ModelConfig, cluster: ClusterConfig, policy: SchedulerPolicy) -> Self {
        Self::with_topology(cfg, cluster.topology(), policy)
    }

    /// Builds a simulation over an arbitrary [`ClusterTopology`]: nodes
    /// may differ in CPU generation and in whether they carry an
    /// accelerator, as found in production datacenters ("recommendation
    /// models are run across a variety of server class CPUs such as
    /// Intel Broadwell and Skylake", Section IV-A). Dispatch remains
    /// least-outstanding, so faster machines naturally absorb more
    /// queries; offloadable queries landing on a GPU-less node are
    /// simply split onto its CPU cores.
    ///
    /// # Panics
    ///
    /// Panics if the policy offloads and no node carries a GPU.
    pub fn with_topology(
        cfg: &ModelConfig,
        topology: ClusterTopology,
        policy: SchedulerPolicy,
    ) -> Self {
        assert!(
            policy.gpu_threshold.is_none() || topology.has_gpu(),
            "policy offloads to a GPU the cluster does not have"
        );
        Simulation {
            cost: ModelCost::new(cfg),
            policy,
            sla_ms: cfg.sla_ms,
            topology,
        }
    }

    /// Builds a simulation over a *heterogeneous* fleet — one CPU model
    /// per machine, every machine carrying the same optional GPU.
    /// Convenience wrapper over [`Simulation::with_topology`].
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is empty or the policy offloads without a GPU.
    pub fn new_heterogeneous(
        cfg: &ModelConfig,
        cpus: Vec<CpuPlatform>,
        gpu: Option<GpuPlatform>,
        policy: SchedulerPolicy,
    ) -> Self {
        assert!(!cpus.is_empty(), "a fleet needs machines");
        Self::with_topology(
            cfg,
            ClusterTopology::new(
                cpus.into_iter()
                    .map(|cpu| match gpu {
                        Some(g) => NodeSpec::with_gpu(cpu, g),
                        None => NodeSpec::cpu_only(cpu),
                    })
                    .collect(),
            ),
            policy,
        )
    }

    /// The scheduling policy under simulation.
    pub fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    /// The homogeneous view of the cluster under simulation (machine
    /// count plus the *first* node's hardware); heterogeneous fleets
    /// are fully described by [`Simulation::topology`].
    pub fn cluster(&self) -> ClusterConfig {
        let first = &self.topology.nodes()[0];
        ClusterConfig {
            machines: self.topology.len(),
            cpu: first.cpu,
            gpu: first.gpu,
        }
    }

    /// The per-node hardware under simulation.
    pub fn topology(&self) -> ClusterTopology {
        self.topology.clone()
    }

    /// The per-model cost model in use.
    pub fn cost(&self) -> &ModelCost {
        &self.cost
    }

    /// Runs one window of queries drawn from `gen` and reports
    /// measurements. Deterministic given the generator's seed.
    ///
    /// # Panics
    ///
    /// Panics if `opts.num_queries` is zero.
    pub fn run(&self, gen: &mut QueryGenerator, opts: RunOptions) -> Report {
        let offered_qps = gen.arrival().mean_rate_qps();
        let queries: Vec<Query> = gen.take(opts.num_queries).collect();
        let mut report = self.serve(&queries, opts.warmup_frac);
        report.offered_qps = offered_qps;
        report
    }

    /// The one way in: the serving loop, configured as the module docs
    /// list, with the one corner the simulator has always reported
    /// differently (an all-warm-up window) filled in.
    fn serve(&self, queries: &[Query], warmup_frac: f64) -> Report {
        let nodes = self.topology.nodes();
        let setups: Vec<NodeSetup> = nodes
            .iter()
            .map(|n| NodeSetup {
                cpu: n.cpu,
                gpu: n.gpu,
                workers: n.cpu.cores,
            })
            .collect();
        // (`workers` is what `Server`/`Cluster` size their node setups
        // from; the setups above already carry it per node.)
        let mut opts =
            ServerOptions::new(nodes[0].cpu.cores, self.policy).with_batching(BatchingConfig {
                coalesce_timeout_us: 0.0,
                queue_bound: usize::MAX,
            });
        opts.warmup_frac = warmup_frac;
        let router = Router::new(
            RoutingPolicy::LeastOutstanding,
            &self.topology.gpu_nodes(),
            0,
            opts.seed,
        )
        .counting_requests();
        let fleet = Fleet {
            costs: std::slice::from_ref(&self.cost),
            tenants: &[TenantSetup::solo(self.policy, self.sla_ms)],
            setups: &setups,
            opts: &opts,
            shard: None,
        };
        let clock = Virtual::new(&fleet);
        let (mut report, end_ns) = driver::serve(
            &fleet,
            router,
            clock,
            queries,
            &mut NoopSink,
            &mut NoopMetrics,
        );
        // A run that measured nothing (all warm-up) has no window of its
        // own: the simulator has always reported the whole span then.
        if report.window_s == 0.0 {
            report.window_s = (end_ns as f64 / NS_PER_SEC as f64).max(1e-9);
        }
        report
    }
}

/// Serves a prepared arrival stream (or, through the trait's
/// `serve_trace`, a recorded trace — the "query patterns profiled from
/// a production datacenter" path of Figure 8) with the standard 10 %
/// warm-up window.
impl ServingStack for Simulation {
    fn label(&self) -> String {
        format!("sim x{}", self.topology.len())
    }

    fn serve_queries(&self, queries: &[Query]) -> Report {
        self.serve(queries, WARMUP_FRAC)
    }
}
