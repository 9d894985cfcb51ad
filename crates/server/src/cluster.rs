//! Cluster serving: a front-end [`Router`] dispatching the arrival
//! stream across N per-node serving brains.
//!
//! The paper's production deployments hide a fleet of heterogeneous
//! machines behind a load balancer; the scale-out literature (Lui et
//! al.) shows the *routing policy* of that front end dominates cluster
//! tail latency. This module puts that knob on the real execution
//! path:
//!
//! * [`Router`] — consumes the arrival stream, tracks a per-node
//!   outstanding-work gauge, and picks a node per query under a
//!   [`RoutingPolicy`]; every tie breaks toward the smaller
//!   [`NodeId`], so cluster runs stay byte-deterministic.
//! * [`Cluster`] — N instances of the per-node brain (batching queue +
//!   offload executor + online controller) behind one router.
//!   [`Cluster::serve`] runs the whole fleet in deterministic virtual
//!   time or runs every node's CPU work on its own real thread pool,
//!   as its [`crate::Serve`] request says.

use crate::driver::{self, Fleet, Virtual};
use crate::node::{NodeSetup, TenantSetup};
use crate::real::Wall;
use crate::serve::{Clock, Serve};
use crate::server::ServerOptions;
use drs_core::{
    ClusterTopology, MultiModelSpec, NodeId, Report, RoutingPolicy, ServingStack, TenantId,
};
use drs_models::{BatchInputs, ModelConfig, RecModel};
use drs_platform::{InterconnectModel, ModelCost};
use drs_query::{Query, MAX_QUERY_SIZE};
use drs_shard::{ShardGeometry, ShardPlan};
use drs_telemetry::{MetricsSink, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default "large query" boundary for [`RoutingPolicy::SizeAware`]
/// when the serving policy has no offload threshold to borrow: the top
/// quartile of the production size distribution carries roughly half
/// the work (Figure 6), and 250 items is that quartile's boundary.
const DEFAULT_SIZE_AWARE_THRESHOLD: u32 = MAX_QUERY_SIZE / 4;

/// One pinned tenant's routable node set, with its own round-robin
/// cursor.
#[derive(Debug)]
struct TenantUniverse {
    mask: Vec<bool>,
    idx: Vec<usize>,
    rr_next: usize,
}

/// What one count on a node's outstanding-work gauge stands for.
/// Private to the router: the serving loops call the same hooks
/// whatever the unit, and the router decides which of them move the
/// gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GaugeUnit {
    /// A routed query, from [`Router::route`] to [`Router::complete`]
    /// — what every [`Router::new`] counts.
    Queries,
    /// A dispatched request — one CPU part of a split query, or one
    /// offloaded query — from dispatch to its own finish: the paper's
    /// least-loaded machine ([`crate::Simulation`]). A 1000-item
    /// query at batch 64 weighs 16 and sheds one per finished part.
    Requests,
}

/// The cluster front end: picks a node per query under a
/// [`RoutingPolicy`], tracking per-node outstanding queries.
///
/// The router is deliberately tiny — a gauge vector, a round-robin
/// cursor, and a seeded RNG for sampled policies — because it sits on
/// the per-query hot path (the benchmark's
/// `server.router_routes_per_s` probe times it).
///
/// # Examples
///
/// ```
/// use drs_core::{NodeId, RoutingPolicy, TenantId};
/// use drs_server::Router;
///
/// let mut r = Router::new(RoutingPolicy::LeastOutstanding, &[false, false], 250, 7);
/// let a = r.route(TenantId::SOLO, 10);
/// assert_eq!(a, NodeId(0), "empty gauges tie toward the smaller id");
/// assert_eq!(r.route(TenantId::SOLO, 10), NodeId(1), "node 0 now has one outstanding");
/// r.complete(a);
/// assert_eq!(r.route(TenantId::SOLO, 10), NodeId(0));
/// ```
#[derive(Debug)]
pub struct Router {
    policy: RoutingPolicy,
    unit: GaugeUnit,
    /// Work routed to each node and not yet finished, in `unit`s.
    outstanding: Vec<u64>,
    /// Queries routed to each node over the whole run.
    dispatched: Vec<u64>,
    gpu_nodes: Vec<bool>,
    /// Nodes the router may pick at all. All-true by default; a
    /// sharded cluster restricts it to the shard-holding nodes
    /// ([`Router::restrict_to`]), since only they can merge a query.
    eligible: Vec<bool>,
    /// Indices of eligible nodes, ascending (the sampling universe for
    /// the randomized policies).
    eligible_idx: Vec<usize>,
    /// Per-tenant placement constraints ([`Router::pin_tenant_to`]):
    /// tenant `k`'s queries only route inside `tenant_masks[k]` when
    /// set, further intersected with the global eligibility. Each pin
    /// carries its own round-robin cursor so rotation inside one
    /// tenant's universe is never disturbed by another tenant's
    /// routes.
    tenant_masks: Vec<Option<TenantUniverse>>,
    size_threshold: u32,
    /// Round-robin cursor of the default (unpinned) universe.
    rr_next: usize,
    rng: StdRng,
    /// Reusable candidate marks for the sampled policies (hot path:
    /// no per-query allocation).
    scratch: Vec<bool>,
}

impl Router {
    /// Builds a router over `gpu_nodes.len()` nodes. `size_threshold`
    /// is the "large query" boundary [`RoutingPolicy::SizeAware`]
    /// steers by; `seed` drives the sampled policies deterministically.
    ///
    /// # Panics
    ///
    /// Panics if there are no nodes, or if a
    /// [`RoutingPolicy::PowerOfTwoChoices`] has `d == 0`.
    pub fn new(policy: RoutingPolicy, gpu_nodes: &[bool], size_threshold: u32, seed: u64) -> Self {
        assert!(!gpu_nodes.is_empty(), "a router needs nodes");
        if let RoutingPolicy::PowerOfTwoChoices { d } = policy {
            assert!(d >= 1, "power-of-d-choices needs d >= 1");
        }
        Router {
            policy,
            unit: GaugeUnit::Queries,
            outstanding: vec![0; gpu_nodes.len()],
            dispatched: vec![0; gpu_nodes.len()],
            gpu_nodes: gpu_nodes.to_vec(),
            eligible: vec![true; gpu_nodes.len()],
            eligible_idx: (0..gpu_nodes.len()).collect(),
            tenant_masks: Vec::new(),
            size_threshold,
            rr_next: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            scratch: vec![false; gpu_nodes.len()],
        }
    }

    /// Makes the gauges count outstanding *requests* instead of
    /// queries (see [`GaugeUnit::Requests`]): [`Router::route`] still
    /// charges one, [`Router::fanned_out`] charges the rest of a split,
    /// [`Router::part_done`] releases, and [`Router::complete`] has
    /// nothing left to release. Whole-model serving only — a sharded
    /// fan-out is not a routed split.
    pub(crate) fn counting_requests(mut self) -> Self {
        self.unit = GaugeUnit::Requests;
        self
    }

    /// Restricts every policy's choice to the nodes marked in `mask`
    /// (a sharded cluster's shard-holding nodes).
    ///
    /// # Panics
    ///
    /// Panics if `mask` has the wrong length or admits no node.
    pub fn restrict_to(mut self, mask: &[bool]) -> Self {
        assert_eq!(mask.len(), self.outstanding.len(), "mask length mismatch");
        assert!(mask.contains(&true), "router needs an eligible node");
        self.eligible = mask.to_vec();
        self.eligible_idx = (0..mask.len()).filter(|&i| mask[i]).collect();
        self
    }

    /// Pins one tenant's queries to the nodes marked in `mask`
    /// (intersected with the global eligibility) — tenant-aware
    /// placement, e.g. an isolation tier that keeps a noisy service
    /// off latency-critical nodes. Unpinned tenants keep the full
    /// eligible universe.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has the wrong length or admits no eligible
    /// node.
    pub fn pin_tenant_to(mut self, tenant: TenantId, mask: &[bool]) -> Self {
        assert_eq!(mask.len(), self.outstanding.len(), "mask length mismatch");
        let combined: Vec<bool> = mask
            .iter()
            .zip(&self.eligible)
            .map(|(&m, &e)| m && e)
            .collect();
        let idx: Vec<usize> = (0..combined.len()).filter(|&i| combined[i]).collect();
        assert!(!idx.is_empty(), "tenant pin admits no eligible node");
        self.tenant_masks.resize_with(tenant.index() + 1, || None);
        self.tenant_masks[tenant.index()] = Some(TenantUniverse {
            mask: combined,
            idx,
            rr_next: 0,
        });
        self
    }

    /// Number of nodes behind the router.
    pub fn nodes(&self) -> usize {
        self.outstanding.len()
    }

    /// Whether node `i` may serve tenant `t`'s queries: the tenant's
    /// pin when set, the global eligibility otherwise.
    fn admits(&self, t: usize, i: usize) -> bool {
        match self.tenant_masks.get(t).and_then(|m| m.as_ref()) {
            Some(u) => u.mask[i],
            None => self.eligible[i],
        }
    }

    /// Tenant `t`'s routable universe as an index list, ascending.
    fn universe(&self, t: usize) -> &[usize] {
        match self.tenant_masks.get(t).and_then(|m| m.as_ref()) {
            Some(u) => &u.idx,
            None => &self.eligible_idx,
        }
    }

    /// Picks the node for `tenant`'s query of `size` items and charges
    /// its gauge. Ties always break toward the smaller [`NodeId`].
    pub fn route(&mut self, tenant: TenantId, size: u32) -> NodeId {
        let t = tenant.index();
        let pick = match self.policy {
            RoutingPolicy::RoundRobin => {
                // Cycle the tenant's universe in id order. Pinned
                // tenants carry their own cursor, so one tenant's
                // routes never perturb another's rotation.
                match self.tenant_masks.get_mut(t).and_then(|m| m.as_mut()) {
                    Some(u) => {
                        let pick = u.idx[u.rr_next];
                        u.rr_next = (u.rr_next + 1) % u.idx.len();
                        pick
                    }
                    None => {
                        let pick = self.eligible_idx[self.rr_next];
                        self.rr_next = (self.rr_next + 1) % self.eligible_idx.len();
                        pick
                    }
                }
            }
            RoutingPolicy::LeastOutstanding | RoutingPolicy::ShardAware => {
                // ShardAware: the fan-out is fixed by the plan, so the
                // routable decision left is the merge home — least
                // outstanding among the shard nodes.
                self.least_loaded(|i| self.admits(t, i))
            }
            RoutingPolicy::PowerOfTwoChoices { d } => {
                let universe_len = self.universe(t).len();
                if d >= universe_len {
                    self.least_loaded(|i| self.admits(t, i))
                } else {
                    // Sample d distinct candidates, then scan in id
                    // order so equal gauges keep the deterministic
                    // smaller-NodeId tie-break.
                    self.scratch.fill(false);
                    let mut chosen = 0usize;
                    while chosen < d {
                        let pos = self.rng.gen_range(0..universe_len);
                        let i = self.universe(t)[pos];
                        if !self.scratch[i] {
                            self.scratch[i] = true;
                            chosen += 1;
                        }
                    }
                    let marks = std::mem::take(&mut self.scratch);
                    let pick = self.least_loaded(|i| marks[i]);
                    self.scratch = marks;
                    pick
                }
            }
            RoutingPolicy::SizeAware => {
                // Large queries prefer accelerator-attached nodes (the
                // tail is exactly what the GPU amortizes); small
                // queries balance over the whole fleet.
                let has_eligible_gpu =
                    (0..self.gpu_nodes.len()).any(|i| self.gpu_nodes[i] && self.admits(t, i));
                if size > self.size_threshold && has_eligible_gpu {
                    self.least_loaded(|i| self.gpu_nodes[i] && self.admits(t, i))
                } else {
                    self.least_loaded(|i| self.admits(t, i))
                }
            }
        };
        self.outstanding[pick] += 1;
        self.dispatched[pick] += 1;
        NodeId(pick)
    }

    /// Releases one outstanding query from `node`'s gauge.
    ///
    /// # Panics
    ///
    /// Panics if the node has no outstanding queries.
    pub fn complete(&mut self, node: NodeId) {
        if self.unit == GaugeUnit::Queries {
            self.release(node);
        }
    }

    /// The query just routed to `node` was split into `parts` requests
    /// there (the serving loops call this for every CPU-path arrival).
    pub(crate) fn fanned_out(&mut self, node: NodeId, parts: usize) {
        if self.unit == GaugeUnit::Requests {
            // `route` already charged the first.
            self.outstanding[node.0] += parts as u64;
            self.release(node);
        }
    }

    /// One request finished on `node` — a CPU batch or an offloaded
    /// query (the serving loops call this at every such completion).
    pub(crate) fn part_done(&mut self, node: NodeId) {
        if self.unit == GaugeUnit::Requests {
            self.release(node);
        }
    }

    fn release(&mut self, node: NodeId) {
        assert!(self.outstanding[node.0] > 0, "gauge underflow at {node}");
        self.outstanding[node.0] -= 1;
    }

    /// Whether every gauge is back at zero — true after any run that
    /// finished all it routed, in either unit.
    pub(crate) fn is_idle(&self) -> bool {
        self.outstanding.iter().all(|&g| g == 0)
    }

    /// The current outstanding-work gauge of `node`.
    pub fn outstanding(&self, node: NodeId) -> u64 {
        self.outstanding[node.0]
    }

    /// Queries dispatched to each node so far, in [`NodeId`] order.
    pub fn dispatched(&self) -> &[u64] {
        &self.dispatched
    }

    /// First index minimizing the gauge among nodes accepted by
    /// `admit` — scanning in id order makes ties deterministic.
    fn least_loaded(&self, admit: impl Fn(usize) -> bool) -> usize {
        let mut best: Option<usize> = None;
        for i in 0..self.outstanding.len() {
            if !admit(i) {
                continue;
            }
            match best {
                Some(b) if self.outstanding[b] <= self.outstanding[i] => {}
                _ => best = Some(i),
            }
        }
        best.expect("admit accepted at least one node")
    }
}

/// N per-node serving brains behind a front-end [`Router`] — the
/// cluster-first serving stack.
///
/// Every node runs the same scheduling brain as a single
/// [`crate::Server`] (dynamic batching queue, GPU offload above the
/// policy threshold, optional online controller); the router spreads
/// the arrival stream across them under a [`RoutingPolicy`]. Nodes
/// without an accelerator serve the policy with its offload knob
/// stripped, so one policy drives a mixed fleet.
///
/// One entry point, [`Cluster::serve`], runs either clock:
///
/// * [`Serve::virtual_time`] — deterministic virtual time across the
///   whole fleet; byte-reproducible per seed (router ties break by
///   [`NodeId`]).
/// * [`Serve::real`] — every node's CPU batches execute as real
///   forward passes on its own [`drs_engine::InferenceEngine`] worker
///   pool.
///
/// A [`crate::Server`] is the one-node case.
///
/// # Examples
///
/// ```
/// use drs_core::{ClusterTopology, NodeSpec, RoutingPolicy, SchedulerPolicy};
/// use drs_models::zoo;
/// use drs_platform::CpuPlatform;
/// use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution};
/// use drs_server::{Cluster, Serve, ServerOptions};
///
/// let queries: Vec<_> = QueryGenerator::new(
///     ArrivalProcess::poisson(800.0),
///     SizeDistribution::production(),
///     7,
/// )
/// .take(400)
/// .collect();
/// let cluster = Cluster::new(
///     &zoo::dlrm_rmc1(),
///     ClusterTopology::uniform(2, CpuPlatform::skylake(), None),
///     RoutingPolicy::PowerOfTwoChoices { d: 2 },
///     ServerOptions::new(40, SchedulerPolicy::cpu_only(64)),
/// );
/// let report = cluster.serve(&queries, Serve::virtual_time());
/// assert!(report.completed > 0);
/// assert_eq!(report.node_queries.len(), 2);
/// ```
#[derive(Debug)]
pub struct Cluster {
    /// Per-tenant cost models, in tenant order.
    costs: Vec<ModelCost>,
    /// Per-tenant serving parameters, in tenant order.
    tenants: Vec<TenantSetup>,
    topology: ClusterTopology,
    routing: RoutingPolicy,
    opts: ServerOptions,
    /// Per-tenant node pins applied to the router
    /// ([`Cluster::pin_tenant_to`]).
    tenant_pins: Vec<(TenantId, Vec<bool>)>,
    /// Table-wise shard placement + the fabric pricing its exchange;
    /// `None` serves the model whole on every node.
    shard: Option<(ShardPlan, InterconnectModel)>,
}

impl Cluster {
    /// Builds a cluster for one model over `topology`, dispatching
    /// under `routing`. Each node gets `opts.workers` worker slots,
    /// capped at its own core count (heterogeneous fleets keep their
    /// hardware shape).
    ///
    /// # Panics
    ///
    /// Panics if options are degenerate or the policy offloads while no
    /// node carries a GPU.
    pub fn new(
        cfg: &ModelConfig,
        topology: ClusterTopology,
        routing: RoutingPolicy,
        opts: ServerOptions,
    ) -> Self {
        opts.validate();
        assert!(
            opts.policy.gpu_threshold.is_none() || topology.has_gpu(),
            "policy offloads to a GPU no node has"
        );
        Cluster {
            costs: vec![ModelCost::new(cfg)],
            tenants: vec![TenantSetup::solo(opts.policy, cfg.sla_ms)],
            topology,
            routing,
            opts,
            tenant_pins: Vec::new(),
            shard: None,
        }
    }

    /// Builds a cluster co-locating the spec's models on every node's
    /// shared worker pool: each node runs one batching queue and
    /// (when `opts.controller` is set) one online controller per
    /// tenant, tuned against its own SLA tier, with deficit
    /// round-robin arbitrating the pool across tenants. The router
    /// dispatches each query among the nodes its tenant may use (all,
    /// unless pinned via [`Cluster::pin_tenant_to`]).
    ///
    /// `opts.policy` is ignored; each tenant serves its spec policy.
    ///
    /// # Panics
    ///
    /// Panics if options are degenerate or any tenant's policy
    /// offloads while no node carries a GPU.
    pub fn new_multi(
        spec: &MultiModelSpec,
        topology: ClusterTopology,
        routing: RoutingPolicy,
        opts: ServerOptions,
    ) -> Self {
        opts.validate();
        for t in spec.tenants() {
            assert!(
                t.policy.gpu_threshold.is_none() || topology.has_gpu(),
                "tenant {} offloads to a GPU no node has",
                t.name
            );
        }
        Cluster {
            costs: spec
                .tenants()
                .iter()
                .map(|t| ModelCost::new(&t.model))
                .collect(),
            tenants: spec.tenants().iter().map(TenantSetup::from_spec).collect(),
            topology,
            routing,
            opts,
            tenant_pins: Vec::new(),
            shard: None,
        }
    }

    /// Pins one tenant's queries to the nodes marked in `mask` —
    /// tenant-aware placement on top of the dispatch policy.
    ///
    /// # Panics
    ///
    /// Panics if `mask` has the wrong length or admits no node (checked
    /// when the router is built at serve time).
    pub fn pin_tenant_to(mut self, tenant: TenantId, mask: &[bool]) -> Self {
        assert_eq!(mask.len(), self.topology.len(), "mask length mismatch");
        self.tenant_pins.push((tenant, mask.to_vec()));
        self
    }

    /// Builds a cluster serving one model *sharded table-wise* per
    /// `plan`: every query fans to each shard-holding node (which
    /// gathers and pools its local tables), the partials merge at a
    /// router-chosen home node, and the cross-node exchange is priced
    /// by `net`. This is the capacity-driven scale-out path — the only
    /// way a model whose tables exceed one node's `mem_bytes` serves
    /// at all.
    ///
    /// Sharded serving runs the CPU gather path; accelerator offload
    /// of sharded queries is a follow-on (the policy must not carry a
    /// `gpu_threshold`, and node GPUs sit idle).
    ///
    /// # Panics
    ///
    /// Panics if options are degenerate, the policy offloads, the plan
    /// was built for a different fleet shape, or the plan overfills a
    /// node's memory.
    pub fn new_sharded(
        cfg: &ModelConfig,
        topology: ClusterTopology,
        routing: RoutingPolicy,
        plan: ShardPlan,
        net: InterconnectModel,
        opts: ServerOptions,
    ) -> Self {
        opts.validate();
        assert!(
            opts.policy.gpu_threshold.is_none(),
            "sharded serving is CPU-path: the policy must not offload"
        );
        assert_eq!(
            plan.node_count(),
            topology.len(),
            "shard plan covers {} nodes, topology has {}",
            plan.node_count(),
            topology.len()
        );
        for (n, spec) in topology.nodes().iter().enumerate() {
            assert!(
                plan.bytes_on(NodeId(n)) <= spec.mem_bytes,
                "plan overfills node {n}: {} > {} bytes",
                plan.bytes_on(NodeId(n)),
                spec.mem_bytes
            );
        }
        Cluster {
            costs: vec![ModelCost::new(cfg)],
            tenants: vec![TenantSetup::solo(opts.policy, cfg.sla_ms)],
            topology,
            routing,
            opts,
            tenant_pins: Vec::new(),
            shard: Some((plan, net)),
        }
    }

    /// The shard plan in force, if the cluster serves a sharded model.
    pub fn shard_plan(&self) -> Option<&ShardPlan> {
        self.shard.as_ref().map(|(p, _)| p)
    }

    /// The fleet behind the router.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// The front-end dispatch policy.
    pub fn routing(&self) -> RoutingPolicy {
        self.routing
    }

    /// The options every node runs with.
    pub fn options(&self) -> &ServerOptions {
        &self.opts
    }

    /// The cost model in use (the first tenant's, on a multi-tenant
    /// cluster; shared with the simulator's math).
    pub fn cost(&self) -> &ModelCost {
        &self.costs[0]
    }

    /// Number of co-located tenants this cluster serves.
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    fn setups(&self) -> Vec<NodeSetup> {
        self.topology
            .nodes()
            .iter()
            .map(|n| NodeSetup {
                cpu: n.cpu,
                // Sharded serving is CPU-path: node GPUs sit idle so a
                // per-node controller cannot grow an offload knob for
                // queries that only carry a fraction of the model.
                gpu: if self.shard.is_some() { None } else { n.gpu },
                workers: self.opts.workers.min(n.cpu.cores),
            })
            .collect()
    }

    fn router(&self) -> Router {
        // The size-aware boundary is fixed at run start from the
        // *configured* policy. With an online controller attached,
        // node-local retunes move each node's offload threshold at
        // runtime but do not feed back into the router — the front end
        // keeps steering by the static boundary. Threshold-following
        // routing is deliberately out of scope until the controller
        // grows a cluster-level view.
        // Sharded serving disables the node GPUs (setups() strips
        // them), so the router must not see them either: SizeAware
        // would otherwise concentrate large queries' merge homes on
        // accelerators that sit idle. With an all-false mask it
        // degrades to least-outstanding, its documented fallback.
        let gpu_nodes = if self.shard.is_some() {
            vec![false; self.topology.len()]
        } else {
            self.topology.gpu_nodes()
        };
        let router = Router::new(
            self.routing,
            &gpu_nodes,
            self.opts
                .policy
                .gpu_threshold
                .unwrap_or(DEFAULT_SIZE_AWARE_THRESHOLD),
            self.opts.seed,
        );
        let mut router = match &self.shard {
            // Only a shard-holding node can merge a query, whatever
            // the dispatch policy.
            Some((plan, _)) => router.restrict_to(&plan.shard_mask()),
            None => router,
        };
        for (tenant, mask) in &self.tenant_pins {
            router = router.pin_tenant_to(*tenant, mask);
        }
        router
    }

    fn shard_geometry(&self) -> Option<ShardGeometry> {
        self.shard.as_ref().map(|(plan, net)| plan.geometry(*net))
    }

    /// Serves `queries` across the fleet on `how`'s clock, recording
    /// into its sinks, and reports.
    ///
    /// * [`Serve::virtual_time`] runs the whole fleet in deterministic
    ///   virtual time; byte-identical per seed (router ties break by
    ///   [`NodeId`]).
    /// * [`Serve::real`] paces arrivals by the wall clock (compressed
    ///   by `time_scale`): the router dispatches each query to a node,
    ///   whose batches run as physical forward passes through its own
    ///   bounded [`drs_engine::InferenceEngine`], `models[t]` serving
    ///   tenant `t` under the same deficit-round-robin arbiter as
    ///   virtual time. GPU offloads complete on each node's
    ///   virtual-clock executor. On a sharded cluster every query
    ///   instead fans out to each shard-holding node, which runs a
    ///   *real* partial forward over its local tables; the partials
    ///   meet at the router-chosen home, wait out the interconnect
    ///   exchange on the virtual clock, and the dense tail runs for
    ///   real on the home's engine, its CTRs landing in
    ///   [`Report::ctrs`].
    ///
    /// Spans go to the request's trace sink and fleet-pulse metrics to
    /// its pulse. On the real clock, cost-model-clocked stages (GPU
    /// offloads, shard exchanges) carry the same values as the virtual
    /// path and engine-executed stages carry scaled wall time; per-node
    /// gauges tick on the model-time clock anchored at the first
    /// arrival, so an offload-all run reproduces the virtual path's
    /// sampled series bit for bit. To replay a recorded
    /// [`drs_query::Trace`], pass `trace.replay().collect()`.
    ///
    /// `queries` must be in arrival order (non-decreasing `arrival_s`):
    /// the loop serves them off the slice in order, so its cost per
    /// event and its memory follow the queries in flight, not the
    /// stream. Query ids are labels — of spans, of the warm-up cut
    /// (ids below `warmup_frac` of the stream's length are not
    /// measured) and of [`Report::ctrs`] — and need not be unique or
    /// dense.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty ([`drs_core::EMPTY_QUERIES_MSG`]) or
    /// an `arrival_s` is NaN or smaller than the one before it
    /// ([`drs_core::UNORDERED_QUERIES_MSG`]); on the real clock, also
    /// if `models` does not provide exactly one model per tenant or a
    /// model's geometry disagrees with its tenant's cost model. Both
    /// stream checks run before any engine worker starts.
    pub fn serve<S: TraceSink, M: MetricsSink>(
        &self,
        queries: &[Query],
        how: Serve<S, M>,
    ) -> Report {
        let Serve {
            clock,
            mut sink,
            mut pulse,
        } = how;
        let shard = self.shard_geometry();
        let fleet = Fleet {
            costs: &self.costs,
            tenants: &self.tenants,
            setups: &self.setups(),
            opts: &self.opts,
            shard: shard.as_ref(),
        };
        let router = self.router();
        let (report, _) = match clock {
            Clock::Virtual => {
                let clock = Virtual::new(&fleet);
                driver::serve(&fleet, router, clock, queries, &mut sink, &mut pulse)
            }
            Clock::Real(models) => {
                let plan = self.shard.as_ref().map(|(plan, _)| plan);
                let clock = Wall::start(&fleet, models, plan, queries);
                driver::serve(&fleet, router, clock, queries, &mut sink, &mut pulse)
            }
        };
        report
    }
}

/// The deterministic inputs the sharded real path scores for query
/// `q`: derived from the serving `seed` and the query id alone, so
/// every shard node gathers over identical indices without shipping
/// them, and a test can regenerate them to pin the distributed
/// forward against the local [`RecModel::forward`]
/// (see `tests/sharded_real.rs`).
pub fn sharded_query_inputs(model: &RecModel, seed: u64, q: &Query) -> BatchInputs {
    let mut rng = StdRng::seed_from_u64(seed ^ q.id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    model.generate_inputs(q.size as usize, &mut rng)
}

impl ServingStack for Cluster {
    fn label(&self) -> String {
        match &self.shard {
            Some((plan, _)) => format!(
                "cluster[{} x{} sharded x{}]",
                self.routing.label(),
                self.topology.len(),
                plan.shard_nodes().len()
            ),
            None if self.tenants.len() > 1 => format!(
                "cluster[{} x{} multi x{}]",
                self.routing.label(),
                self.topology.len(),
                self.tenants.len()
            ),
            None => format!("cluster[{} x{}]", self.routing.label(), self.topology.len()),
        }
    }

    fn serve_queries(&self, queries: &[Query]) -> Report {
        self.serve(queries, Serve::virtual_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request unit, next to the query-unit doc-test on [`Router`]:
    /// `route` + `fanned_out(node, parts)` charge `parts` in total,
    /// `parts` × `part_done` release them, and `complete` is then a
    /// no-op; an offloaded query is one request.
    #[test]
    fn request_unit_charges_parts_and_releases_per_part() {
        let mut r = Router::new(RoutingPolicy::LeastOutstanding, &[false, true], 250, 7)
            .counting_requests();
        let split = r.route(TenantId::SOLO, 1000);
        r.fanned_out(split, 16);
        assert_eq!((split, r.outstanding(split)), (NodeId(0), 16));
        let offloaded = r.route(TenantId::SOLO, 400);
        assert_eq!((offloaded, r.outstanding(offloaded)), (NodeId(1), 1));
        assert_eq!(
            r.route(TenantId::SOLO, 10),
            NodeId(1),
            "2 requests on node 1 still weigh less than 16 parts on node 0"
        );
        r.fanned_out(NodeId(1), 1);
        assert_eq!(r.outstanding(NodeId(1)), 2);
        for left in (0..16).rev() {
            r.part_done(split);
            assert_eq!(r.outstanding(split), left);
        }
        r.complete(split);
        assert_eq!(
            r.outstanding(split),
            0,
            "nothing left for complete to release"
        );
        r.part_done(NodeId(1));
        r.part_done(NodeId(1));
        assert!(r.is_idle());
        assert_eq!(r.dispatched(), &[1, 2], "dispatch counts stay per query");
    }

    /// In the default query unit the request hooks leave the gauge
    /// alone — the serving loops call them unconditionally.
    #[test]
    fn query_unit_ignores_the_request_hooks() {
        let mut r = Router::new(RoutingPolicy::LeastOutstanding, &[false], 250, 7);
        let n = r.route(TenantId::SOLO, 1000);
        r.fanned_out(n, 16);
        r.part_done(n);
        assert_eq!(r.outstanding(n), 1);
        r.complete(n);
        assert!(r.is_idle());
    }
}
