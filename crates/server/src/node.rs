//! The per-node serving brain, instantiable N times behind a cluster
//! router.
//!
//! PR 2's `Server` fused three things into one run loop: per-node
//! scheduling state (batching queue, offload executor, online
//! controller), stream-wide measurement (per-query latency accounting,
//! warm-up windows), and the event loop itself. Cluster serving needs
//! the first to exist once *per node* while the second stays global, so
//! this module splits them:
//!
//! * [`NodeCore`] — one node's scheduling brain: one [`TenantLane`]
//!   per co-located service (its batching queue and its online
//!   controller), a shared GPU offload executor, and the node's
//!   backpressure gauges. A [`crate::Server`] owns one; a
//!   [`crate::Cluster`] owns N.
//! * [`StreamStats`] — stream-wide measurement shared across nodes:
//!   which queries are in flight, where each was routed, and the
//!   latency/throughput recorders (global and per-tenant) the final
//!   report is cut from.
//! * [`serve_virtual_multi`] — the deterministic virtual-time event
//!   loop over N nodes behind a [`crate::Router`]; `Server` runs it
//!   with a single node, `Cluster` with the whole topology.
//!
//! Multi-tenancy is the paper's co-located-services setting (§III):
//! several zoo models share one engine pool, each batching and tuning
//! its own knobs. The pool itself is arbitrated by deficit round-robin
//! across the per-tenant ready queues, so a heavy tenant's backlog
//! cannot starve a light tenant of workers — each lane earns
//! `weight × quantum` items of service per round and banks what it
//! does not use.

use crate::batcher::{Batch, BatchQueue, BatchStats};
use crate::cluster::Router;
use crate::controller::OnlineController;
use crate::gpu::GpuExecutor;
use crate::server::ServerOptions;
use drs_core::{
    assert_nonempty_queries, secs_to_ns, stream_offered_qps, us_to_ns, EventQueue, NodeId, Report,
    SchedulerPolicy, SimTime, TenantBreakdown, TenantId, TenantSpec, NS_PER_SEC,
};
use drs_metrics::{LatencyRecorder, StreamingLatency};
use drs_platform::{CpuPlatform, GpuPlatform, ModelCost};
use drs_query::Query;
use drs_shard::ShardGeometry;
use drs_telemetry::{ControlDecision, MetricsSink, QuerySpan, Stage, TraceSink, STAGE_COUNT};
use std::collections::{BTreeMap, VecDeque};

/// One node's hardware and worker allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeSetup {
    pub cpu: CpuPlatform,
    pub gpu: Option<GpuPlatform>,
    pub workers: usize,
}

/// One tenant's serving parameters, as a node's lanes are built from
/// them.
#[derive(Debug, Clone)]
pub(crate) struct TenantSetup {
    /// Knobs served when no controller is attached (and the seed of
    /// the controller's threshold phase).
    pub policy: SchedulerPolicy,
    /// Fair-share weight on the shared-pool arbiter.
    pub weight: u32,
    /// The p95 tier the tenant's report breakdown is judged against.
    pub report_sla_ms: f64,
    /// Overrides the controller's SLA normalization with the tenant's
    /// own tier; `None` keeps the `ControllerConfig` value (the
    /// single-tenant constructors' historical behaviour).
    pub controller_sla_ms: Option<f64>,
}

impl TenantSetup {
    /// The single-service tenant every legacy constructor reduces to.
    pub fn solo(policy: SchedulerPolicy, report_sla_ms: f64) -> Self {
        TenantSetup {
            policy,
            weight: 1,
            report_sla_ms,
            controller_sla_ms: None,
        }
    }

    /// One co-located tenant of a [`drs_core::MultiModelSpec`]: its
    /// own policy and weight, judged and tuned against its own tier.
    pub fn from_spec(t: &TenantSpec) -> Self {
        TenantSetup {
            policy: t.policy,
            weight: t.weight,
            report_sla_ms: t.sla_ms,
            controller_sla_ms: Some(t.sla_ms),
        }
    }
}

/// `(retunes, batch trajectory, threshold trajectory)` extracted from
/// one lane's controller at report time.
pub(crate) type ControllerOutputs = (u64, Vec<(u32, f64)>, Vec<(u32, f64)>);

/// Where one arrival went inside a node.
pub(crate) enum Route {
    /// Offloaded whole; device service runs over `[start, done]` in
    /// virtual time (`start > now` means the FIFO queued it).
    Gpu {
        /// Device service start (FIFO wait ends here).
        start: SimTime,
        /// Device completion time.
        done: SimTime,
    },
    /// Split/coalesced; these batches (of the query's tenant lane) are
    /// ready to dispatch now.
    Cpu(Vec<Batch>),
}

/// One tenant's scheduling lane inside a node: its own batching queue
/// and its own online controller, tuning independently of every other
/// lane (the paper's per-model knobs).
#[derive(Debug)]
struct TenantLane {
    fallback_policy: SchedulerPolicy,
    controller: Option<OnlineController>,
    batcher: BatchQueue,
    /// Set when the lane's controller changed its policy; the serving
    /// loop must re-read it and re-batch the lane's queued backlog.
    policy_dirty: bool,
}

impl TenantLane {
    fn policy(&self) -> SchedulerPolicy {
        self.controller
            .as_ref()
            .map_or(self.fallback_policy, |c| c.policy())
    }
}

/// One node's scheduling brain: per-tenant lanes + shared offload
/// executor + backpressure gauges. No measurement state — that lives
/// in [`StreamStats`].
pub(crate) struct NodeCore {
    lanes: Vec<TenantLane>,
    pub gpu: Option<GpuExecutor>,
    pub backpressure_stalls: u64,
    pub max_queue_depth: usize,
}

impl NodeCore {
    /// Builds the brain for one node, one lane per tenant. A node
    /// without an accelerator serves each tenant's policy with the
    /// offload knob stripped (its controllers then skip the threshold
    /// phase), so one cluster-wide spec can drive a mixed fleet.
    pub fn new(
        costs: &[ModelCost],
        tenants: &[TenantSetup],
        setup: &NodeSetup,
        opts: &ServerOptions,
    ) -> Self {
        assert_eq!(costs.len(), tenants.len(), "one cost model per tenant");
        // Round, do not floor-at-1: a zero timeout must stay zero
        // (coalescing disabled).
        let timeout_ns = (opts.batching.coalesce_timeout_us * 1e3).round() as SimTime;
        let lanes = tenants
            .iter()
            .map(|t| {
                let node_policy = if setup.gpu.is_some() {
                    t.policy
                } else {
                    SchedulerPolicy {
                        max_batch: t.policy.max_batch,
                        gpu_threshold: None,
                    }
                };
                let controller = opts.controller.clone().map(|c| {
                    let c = match t.controller_sla_ms {
                        Some(sla) => c.with_sla_ms(sla),
                        None => c,
                    };
                    OnlineController::new(c, node_policy, setup.gpu.is_some())
                });
                let initial = controller.as_ref().map_or(node_policy, |c| c.policy());
                TenantLane {
                    fallback_policy: node_policy,
                    controller,
                    batcher: BatchQueue::new(initial.max_batch, timeout_ns),
                    policy_dirty: false,
                }
            })
            .collect();
        NodeCore {
            lanes,
            gpu: setup
                .gpu
                .map(|g| GpuExecutor::new_multi(costs.to_vec(), setup.cpu, g)),
            backpressure_stalls: 0,
            max_queue_depth: 0,
        }
    }

    /// The policy lane `t` applies right now.
    pub fn policy(&self, t: usize) -> SchedulerPolicy {
        self.lanes[t].policy()
    }

    /// Lane `t`'s batching queue.
    pub fn batcher(&self, t: usize) -> &BatchQueue {
        &self.lanes[t].batcher
    }

    /// Lane `t`'s batching queue, mutably.
    pub fn batcher_mut(&mut self, t: usize) -> &mut BatchQueue {
        &mut self.lanes[t].batcher
    }

    /// The earliest coalesce deadline across all lanes (the real
    /// runtime's wake-up bound).
    pub fn earliest_deadline(&self) -> Option<SimTime> {
        self.lanes.iter().filter_map(|l| l.batcher.deadline()).min()
    }

    /// Batching counters summed over every lane.
    pub fn batch_stats(&self) -> BatchStats {
        let mut total = BatchStats::default();
        for lane in &self.lanes {
            total.merge(lane.batcher.stats());
        }
        total
    }

    /// Re-batches everything lane `t` has not dispatched yet at its
    /// retuned knob: re-reads the policy, flushes the open coalesce
    /// residual (a retune collapses the residual's remaining window to
    /// *now* — old work must not wait out a window formed under the
    /// old knob), and repacks `backlog` followed by that residual at
    /// the new batch size. Both runtimes route their retune through
    /// here so the stale-coalesce fix cannot drift between them.
    /// (Backlog first, then the flushed residual: its items arrived
    /// after the backlog's, and `reform` preserves per-query item
    /// order.)
    pub fn rebatch_lane(&mut self, t: usize, mut backlog: Vec<Batch>) -> Vec<Batch> {
        let pol = self.lanes[t].policy();
        let batcher = &mut self.lanes[t].batcher;
        let mut flushed = Vec::new();
        batcher.set_max_batch(pol.max_batch, &mut flushed);
        batcher.flush_all(&mut flushed);
        backlog.extend(flushed);
        let mut out = Vec::new();
        batcher.reform(backlog, &mut out);
        out
    }

    /// Routes one arrival inside the node: GPU offload or batch/split
    /// onto the query's tenant lane.
    pub fn on_arrival(&mut self, now: SimTime, q: &Query) -> Route {
        let t = q.tenant.index();
        if let Some(c) = &mut self.lanes[t].controller {
            c.on_arrival(now);
        }
        let pol = self.lanes[t].policy();
        if let Some(gpu) = self.gpu.as_mut().filter(|_| pol.offloads(q.size)) {
            let (start, done) = gpu.schedule_timed(now, t, q.size);
            Route::Gpu { start, done }
        } else {
            let mut out = Vec::new();
            let batcher = &mut self.lanes[t].batcher;
            batcher.set_max_batch(pol.max_batch, &mut out);
            batcher.push(now, q.id, q.size, &mut out);
            Route::Cpu(out)
        }
    }

    /// Feeds one finished query's latency to its lane's controller;
    /// returns whether that controller is settled (for the settled-tail
    /// recorder).
    pub fn on_query_done(&mut self, now: SimTime, t: usize, latency_ms: f64) -> bool {
        let lane = &mut self.lanes[t];
        match &mut lane.controller {
            Some(c) => {
                if c.on_complete(now, latency_ms) {
                    lane.policy_dirty = true;
                }
                c.is_settled()
            }
            None => true,
        }
    }

    /// Feeds one arrival to lane `t`'s controller without routing any
    /// work — the sharded merge home's control-loop signal (the work
    /// itself lands as partials on every shard node).
    pub fn note_controller_arrival(&mut self, now: SimTime, t: usize) {
        if let Some(c) = &mut self.lanes[t].controller {
            c.on_arrival(now);
        }
    }

    /// Routes one *shard partial* into the node: batch/split onto the
    /// query's tenant lane, bypassing both the GPU (sharded serving is
    /// CPU-path) and the controller's arrival accounting (the merge
    /// home owns the query's control-loop signal; remote shards just
    /// gather).
    pub fn on_partial_arrival(&mut self, now: SimTime, q: &Query) -> Vec<Batch> {
        let t = q.tenant.index();
        let pol = self.lanes[t].policy();
        let mut out = Vec::new();
        let batcher = &mut self.lanes[t].batcher;
        batcher.set_max_batch(pol.max_batch, &mut out);
        batcher.push(now, q.id, q.size, &mut out);
        out
    }

    /// Whether lane `t`'s policy changed since the last check (clears
    /// the flag).
    pub fn take_policy_dirty(&mut self, t: usize) -> bool {
        std::mem::take(&mut self.lanes[t].policy_dirty)
    }

    /// Drains every lane controller's committed re-tune decisions,
    /// stamping each with its lane's tenant index. The serving loop
    /// fills `node` (the brain does not know its own id) and feeds the
    /// result to the fleet-pulse decision log.
    pub fn drain_decisions(&mut self) -> Vec<ControlDecision> {
        let mut out = Vec::new();
        for (t, lane) in self.lanes.iter_mut().enumerate() {
            if let Some(c) = &mut lane.controller {
                for mut d in c.drain_decisions() {
                    d.tenant = t;
                    out.push(d);
                }
            }
        }
        out
    }

    pub fn note_queue_depth(&mut self, depth: usize) {
        self.max_queue_depth = self.max_queue_depth.max(depth);
    }

    /// Samples this node's (`n`'s) fleet-pulse gauges for the tick at
    /// `at`: the caller's unadmitted-work depth, the offload device's
    /// backlog, and each lane's knobs and banked DRR deficit. The
    /// virtual loop and the real runtime both sample through here, so
    /// the series keys and values cannot drift between them.
    pub fn sample_gauges<M: MetricsSink>(
        &self,
        pulse: &mut M,
        n: usize,
        at: SimTime,
        queue_depth: usize,
        deficits: &[u64],
    ) {
        if M::ENABLED {
            pulse.gauge(&format!("queue_depth_n{n}"), queue_depth as f64);
            if let Some(g) = &self.gpu {
                pulse.gauge(
                    &format!("gpu_backlog_ns_n{n}"),
                    g.busy_until().saturating_sub(at) as f64,
                );
                pulse.gauge(&format!("gpu_completed_n{n}"), g.completed() as f64);
            }
            for (t, &deficit) in deficits.iter().enumerate() {
                let pol = self.policy(t);
                pulse.gauge(&format!("max_batch_n{n}_t{t}"), pol.max_batch as f64);
                pulse.gauge(
                    &format!("gpu_threshold_n{n}_t{t}"),
                    pol.gpu_threshold.map_or(-1.0, f64::from),
                );
                pulse.gauge(&format!("drr_deficit_n{n}_t{t}"), deficit as f64);
            }
        }
    }

    /// Consumes the brain, returning each lane's controller outputs:
    /// `(retunes, batch trajectory, threshold trajectory)`, in tenant
    /// order.
    pub fn into_controller_outputs(self) -> Vec<ControllerOutputs> {
        self.lanes
            .into_iter()
            .map(|lane| match lane.controller {
                Some(c) => (c.retunes, c.batch_trajectory, c.threshold_trajectory),
                None => (0, Vec::new(), Vec::new()),
            })
            .collect()
    }
}

#[derive(Debug)]
struct QueryState {
    arrival: SimTime,
    items_left: u32,
    measured: bool,
    node: usize,
    tenant: usize,
    /// Virtual time the exchange + merge will take once the last
    /// partial lands (0 = unsharded: complete immediately).
    merge_ns: SimTime,
    /// Span bookkeeping: whether the query ran on the offload path,
    /// and the lifecycle marks of the segment that completed it (last
    /// credit wins — a deterministic attribution, since event order is
    /// deterministic).
    offloaded: bool,
    /// When the batch carrying the attributed segment was enqueued
    /// (CPU path) — the end of its coalesce wait.
    formed: SimTime,
    /// When that batch was dispatched to a worker, or when device
    /// service started (GPU path).
    dispatched: SimTime,
    /// When compute finished for a sharded query (the last partial's
    /// credit time), frozen before the exchange/merge delay runs.
    service_done: SimTime,
    /// The fabric-only share of `merge_ns`, preserved for the span
    /// after `merge_ns` itself is zeroed at merge scheduling.
    span_exchange_ns: SimTime,
}

impl QueryState {
    /// Cuts the query's lifecycle span: compute ended at
    /// `service_end`, the query completed at `end` (for unsharded
    /// queries the two coincide). Marks are clamped into monotone
    /// order, so the stage durations decompose `end - arrival`
    /// *exactly* by construction — also on the real runtime's
    /// wall-derived clock.
    fn span(&self, query_id: u64, service_end: SimTime, end: SimTime) -> QuerySpan {
        let mut stages = [0u64; STAGE_COUNT];
        let service_end = service_end.clamp(self.arrival, end);
        let dispatched = self.dispatched.clamp(self.arrival, service_end);
        if self.offloaded {
            stages[Stage::QueueWait.index()] = dispatched - self.arrival;
        } else {
            let formed = self.formed.clamp(self.arrival, dispatched);
            stages[Stage::CoalesceWait.index()] = formed - self.arrival;
            stages[Stage::BatchResidency.index()] = dispatched - formed;
        }
        stages[Stage::EngineService.index()] = service_end - dispatched;
        let merge = end - service_end;
        let exchange = self.span_exchange_ns.min(merge);
        stages[Stage::ShardExchange.index()] = exchange;
        stages[Stage::DenseTail.index()] = merge - exchange;
        QuerySpan {
            query_id,
            tenant: self.tenant,
            node: self.node,
            arrival_ns: self.arrival,
            end_ns: end,
            stages,
        }
    }
}

/// One fully completed query, as reported by
/// [`StreamStats::credit_items`].
pub(crate) struct FinishedQuery {
    pub node: usize,
    pub tenant: usize,
    pub latency_ms: f64,
    pub measured: bool,
    /// The query's stage timeline (`latency_ms` is its exact total).
    pub span: QuerySpan,
}

/// What crediting items against a query produced.
pub(crate) enum Credit {
    /// The query still has items in flight.
    Pending,
    /// The query completed end to end.
    Done(FinishedQuery),
    /// The last shard partial landed; the query completes after its
    /// exchange/merge delay (caller schedules the merge at the home
    /// node and later calls [`StreamStats::finish_exchanged`]).
    AwaitExchange {
        /// Merge home node.
        home: usize,
        /// Exchange + dense-tail delay, virtual ns.
        delay: SimTime,
    },
}

/// Stream-wide measurement shared by every node of a run.
pub(crate) struct StreamStats {
    warmup_n: u64,
    queries: BTreeMap<u64, QueryState>,
    /// Every measured latency, pre-sized for the run; its samples
    /// become the report's `latencies_ms` in completion order.
    latency: LatencyRecorder,
    settled: LatencyRecorder,
    completed_measured: u64,
    /// Per-tenant slices of the window, in tenant order — streaming
    /// digests, so a long soak's tenant tails cost constant memory.
    tenant_latency: Vec<StreamingLatency>,
    tenant_completed: Vec<u64>,
    items_total: u64,
    items_gpu: u64,
    /// Accumulated exchange + merge delay across measured sharded
    /// queries, and how many paid one.
    exchange_ns_total: u128,
    exchanged: u64,
    window_start: Option<SimTime>,
    window_end: SimTime,
    /// The stream's first arrival on this runtime's clock. Recorded
    /// spans are rebased to it, so span timestamps read "ns since the
    /// first arrival" on every runtime — the virtual loop clocks
    /// events at absolute arrival timestamps while the real runtime
    /// anchors model time at the first arrival, and the rebase is what
    /// lets offload-all spans compare bit-for-bit across the two.
    span_epoch: Option<SimTime>,
}

impl StreamStats {
    pub fn new(num_queries: usize, warmup_frac: f64, tenants: usize) -> Self {
        StreamStats {
            warmup_n: (num_queries as f64 * warmup_frac) as u64,
            queries: BTreeMap::new(),
            latency: LatencyRecorder::with_capacity(num_queries),
            settled: LatencyRecorder::new(),
            completed_measured: 0,
            tenant_latency: (0..tenants).map(|_| StreamingLatency::new()).collect(),
            tenant_completed: vec![0; tenants],
            items_total: 0,
            items_gpu: 0,
            exchange_ns_total: 0,
            exchanged: 0,
            window_start: None,
            window_end: 0,
            span_epoch: None,
        }
    }

    /// Registers an arrival routed to `node`; returns whether the query
    /// is inside the measurement window.
    pub fn note_arrival(&mut self, now: SimTime, q: &Query, node: usize) -> bool {
        self.note_arrival_sharded(now, q, node, 1, 0, 0)
    }

    /// Registers a sharded arrival: the query fans to `fanout` shard
    /// nodes (each contributing `q.size` partial items) and, once the
    /// last partial lands, completes after `merge_ns` of
    /// exchange + merge at `home`. `exchange_ns` is the cross-node
    /// (fabric-only) share of that delay — zero for a plan with no
    /// remote peers — and is what the exchange counters report.
    /// Returns whether the query is inside the measurement window.
    pub fn note_arrival_sharded(
        &mut self,
        now: SimTime,
        q: &Query,
        home: usize,
        fanout: u32,
        exchange_ns: SimTime,
        merge_ns: SimTime,
    ) -> bool {
        assert!(fanout >= 1, "a query must reach at least one node");
        assert!(exchange_ns <= merge_ns, "exchange is part of the merge");
        assert!(
            q.tenant.index() < self.tenant_completed.len(),
            "query {} tagged {} but the stack serves {} tenant(s)",
            q.id,
            q.tenant,
            self.tenant_completed.len()
        );
        let measured = q.id >= self.warmup_n;
        self.span_epoch.get_or_insert(now);
        let prev = self.queries.insert(
            q.id,
            QueryState {
                arrival: now,
                items_left: q.size * fanout,
                measured,
                node: home,
                tenant: q.tenant.index(),
                merge_ns,
                offloaded: false,
                formed: now,
                dispatched: now,
                service_done: now,
                span_exchange_ns: exchange_ns,
            },
        );
        assert!(prev.is_none(), "duplicate query id {}", q.id);
        if measured {
            self.items_total += q.size as u64;
            self.window_start.get_or_insert(now);
            if exchange_ns > 0 {
                self.exchange_ns_total += exchange_ns as u128;
                self.exchanged += 1;
            }
        }
        measured
    }

    /// Credits offloaded items to the GPU work share.
    pub fn note_gpu_items(&mut self, measured: bool, size: u32) {
        if measured {
            self.items_gpu += size as u64;
        }
    }

    pub fn remaining_items(&self, qid: u64) -> u32 {
        self.queries.get(&qid).expect("known query").items_left
    }

    /// Marks a query as GPU-offloaded with device service starting at
    /// `start` (its span then reads queue-wait → engine-service).
    pub fn span_gpu(&mut self, qid: u64, start: SimTime) {
        let st = self.queries.get_mut(&qid).expect("known query");
        st.offloaded = true;
        st.dispatched = start;
    }

    /// Stamps the CPU-path lifecycle marks of a batch about to credit
    /// one of the query's segments: when the batch left the coalesce
    /// buffer (`formed`) and when a worker picked it up
    /// (`dispatched`). The last credit's marks win.
    pub fn span_batch(&mut self, qid: u64, formed: SimTime, dispatched: SimTime) {
        let st = self.queries.get_mut(&qid).expect("known query");
        st.formed = formed;
        st.dispatched = dispatched;
    }

    /// Credits `items` of a query as done. On the query's last item:
    /// unsharded queries finish immediately ([`Credit::Done`] — the
    /// caller feeds the latency to the owning lane's controller and
    /// calls [`StreamStats::record`]); sharded queries return
    /// [`Credit::AwaitExchange`] and finish via
    /// [`StreamStats::finish_exchanged`] after the merge delay.
    pub fn credit_items(&mut self, now: SimTime, qid: u64, items: u32) -> Credit {
        let st = self.queries.get_mut(&qid).expect("known query");
        st.items_left -= items;
        if st.items_left > 0 {
            return Credit::Pending;
        }
        if st.merge_ns > 0 {
            let (home, delay) = (st.node, st.merge_ns);
            // Mark the merge as scheduled so a second crediting cannot
            // double-fire it, and freeze the compute end for the span.
            st.merge_ns = 0;
            st.service_done = now;
            return Credit::AwaitExchange { home, delay };
        }
        let st = self.queries.remove(&qid).expect("known query");
        Credit::Done(FinishedQuery {
            node: st.node,
            tenant: st.tenant,
            latency_ms: (now - st.arrival) as f64 / 1e6,
            measured: st.measured,
            span: st.span(qid, now, now),
        })
    }

    /// Completes a sharded query whose exchange/merge delay elapsed at
    /// `now`.
    pub fn finish_exchanged(&mut self, now: SimTime, qid: u64) -> FinishedQuery {
        let st = self.queries.remove(&qid).expect("known query");
        debug_assert_eq!(st.items_left, 0, "merge fired with items in flight");
        FinishedQuery {
            node: st.node,
            tenant: st.tenant,
            latency_ms: (now - st.arrival) as f64 / 1e6,
            measured: st.measured,
            span: st.span(qid, st.service_done, now),
        }
    }

    /// The "query settled" epilogue every completion path ends in:
    /// feeds the latency to the home lane's controller (`home` is node
    /// `f.node`'s brain), logs the re-tune decisions that provoked,
    /// records the query, and releases the router's gauge.
    pub fn settle<S: TraceSink, M: MetricsSink>(
        &mut self,
        now: SimTime,
        f: &FinishedQuery,
        home: &mut NodeCore,
        router: &mut Router,
        sink: &mut S,
        pulse: &mut M,
    ) {
        let settled = home.on_query_done(now, f.tenant, f.latency_ms);
        if M::ENABLED {
            for mut d in home.drain_decisions() {
                d.node = f.node;
                pulse.decision(d);
            }
        }
        self.record(now, f, settled, sink, pulse);
        router.complete(NodeId(f.node));
    }

    /// Records a finished query's latency (after its lane's controller
    /// saw it, so the settled flag is current), its fleet-pulse window
    /// observation when the pulse is live, and its span when the sink
    /// is live — measured queries only, matching every other recorder
    /// here.
    fn record<S: TraceSink, M: MetricsSink>(
        &mut self,
        now: SimTime,
        f: &FinishedQuery,
        settled: bool,
        sink: &mut S,
        pulse: &mut M,
    ) {
        if f.measured {
            self.latency.record_ms(f.latency_ms);
            if settled {
                self.settled.record_ms(f.latency_ms);
            }
            self.tenant_latency[f.tenant].observe_ms(f.latency_ms);
            self.tenant_completed[f.tenant] += 1;
            self.completed_measured += 1;
            self.window_end = self.window_end.max(now);
            if M::ENABLED {
                pulse.observe("latency_ms", f.latency_ms);
                pulse.inc("completed_total", 1);
            }
            if S::ENABLED {
                let epoch = self.span_epoch.unwrap_or(0);
                let mut span = f.span;
                span.arrival_ns -= epoch;
                span.end_ns -= epoch;
                debug_assert_eq!(span.latency_ms().to_bits(), f.latency_ms.to_bits());
                debug_assert_eq!(span.validate(), Ok(()));
                sink.record(&span);
            }
        }
    }
}

/// A run's CPU utilization: one value per node (prices each node's
/// power at its own load) plus the fleet-wide figure reported. The
/// real runtime measures both against the wall clock.
pub(crate) struct CpuUsage {
    pub per_node: Vec<f64>,
    pub overall: f64,
}

impl CpuUsage {
    /// Virtual time: each node's `(busy core-ns integral, workers)`
    /// normalized against the run's horizon; the fleet figure is the
    /// mean over nodes.
    fn from_integrals(nodes: &[(u128, usize)], end_ns: SimTime) -> Self {
        let end = end_ns.max(1) as f64;
        let per_node: Vec<f64> = (nodes.iter())
            .map(|&(busy, workers)| busy as f64 / (workers.max(1) as f64 * end))
            .collect();
        let overall = per_node.iter().sum::<f64>() / per_node.len().max(1) as f64;
        CpuUsage { per_node, overall }
    }
}

/// Everything a serving loop hands back for report assembly.
pub(crate) struct RunOutcome {
    pub stats: StreamStats,
    pub cores: Vec<NodeCore>,
    pub setups: Vec<NodeSetup>,
    pub tenant_setups: Vec<TenantSetup>,
    pub cpu_usage: CpuUsage,
    /// Measurement horizon in virtual ns (or model-time ns for real
    /// runs) the GPU busy integrals are normalized against.
    pub end_ns: SimTime,
    /// Queries dispatched to each node by the router.
    pub node_queries: Vec<u64>,
}

/// Cuts the final [`Report`] from a finished run: aggregates
/// batching stats across nodes and lanes, averages utilization, sums
/// power, slices the window per tenant, and reports node 0's
/// controller trajectory for tenant 0 (the representative lane — every
/// node climbs the same ladders).
pub(crate) fn assemble_report(outcome: RunOutcome, offered_qps: f64) -> Report {
    let RunOutcome {
        stats,
        cores,
        setups,
        tenant_setups,
        cpu_usage,
        end_ns,
        node_queries,
    } = outcome;
    let end = end_ns.max(1);

    let per_node_cpu_util = cpu_usage.per_node;
    let cpu_utilization = cpu_usage.overall;

    let per_node_gpu_util: Vec<Option<f64>> = cores
        .iter()
        .map(|c| {
            c.gpu
                .as_ref()
                .map(|g| (g.busy_ns() as f64 / end as f64).min(1.0))
        })
        .collect();
    let gpu_node_count = per_node_gpu_util.iter().flatten().count();
    let gpu_utilization = if gpu_node_count > 0 {
        per_node_gpu_util.iter().flatten().sum::<f64>() / gpu_node_count as f64
    } else {
        0.0
    };

    // Per-node power at per-node utilization (nodes of a heterogeneous
    // fleet differ in both TDP and observed load), summed node by node.
    let avg_power_w: f64 = setups
        .iter()
        .zip(&per_node_cpu_util)
        .zip(&per_node_gpu_util)
        .map(|((setup, cpu_util), gpu_util)| {
            let mut w = setup.cpu.power_w(*cpu_util);
            if let (Some(g), Some(u)) = (&setup.gpu, gpu_util) {
                w += g.power_w(*u);
            }
            w
        })
        .sum();

    let window_s = match stats.window_start {
        Some(start) if stats.window_end > start => {
            (stats.window_end - start) as f64 / NS_PER_SEC as f64
        }
        _ => 0.0,
    };
    let qps = if window_s > 0.0 {
        stats.completed_measured as f64 / window_s
    } else {
        0.0
    };

    let mut batch_stats = BatchStats::default();
    for c in &cores {
        batch_stats.merge(c.batch_stats());
    }
    let backpressure_stalls: u64 = cores.iter().map(|c| c.backpressure_stalls).sum();
    let max_queue_depth = cores.iter().map(|c| c.max_queue_depth).max().unwrap_or(0);
    let final_policy = cores[0].policy(0);
    let tenant_final_policies: Vec<SchedulerPolicy> = (0..tenant_setups.len())
        .map(|t| cores[0].policy(t))
        .collect();

    let tenant_breakdowns: Vec<TenantBreakdown> = tenant_setups
        .iter()
        .enumerate()
        .map(|(t, ts)| TenantBreakdown {
            tenant: TenantId(t as u32),
            completed: stats.tenant_completed[t],
            qps: if window_s > 0.0 {
                stats.tenant_completed[t] as f64 / window_s
            } else {
                0.0
            },
            latency: stats.tenant_latency[t].summary(),
            sla_ms: ts.report_sla_ms,
        })
        .collect();

    let mut retunes = 0;
    let mut batch_trajectory = Vec::new();
    let mut threshold_trajectory = Vec::new();
    for (i, core) in cores.into_iter().enumerate() {
        for (t, (r, bt, tt)) in core.into_controller_outputs().into_iter().enumerate() {
            retunes += r;
            if i == 0 && t == 0 {
                batch_trajectory = bt;
                threshold_trajectory = tt;
            }
        }
    }

    Report {
        offered_qps,
        completed: stats.completed_measured,
        qps,
        latency: stats.latency.summary(),
        settled_latency: stats.settled.summary(),
        gpu_work_fraction: if stats.items_total > 0 {
            stats.items_gpu as f64 / stats.items_total as f64
        } else {
            0.0
        },
        cpu_utilization,
        gpu_utilization,
        avg_power_w,
        qps_per_watt: if avg_power_w > 0.0 {
            qps / avg_power_w
        } else {
            0.0
        },
        window_s,
        batches: batch_stats.batches,
        full_batches: batch_stats.full_batches,
        coalesced_batches: batch_stats.coalesced_batches,
        timeout_flushes: batch_stats.timeout_flushes,
        mean_batch_items: if batch_stats.batches > 0 {
            batch_stats.items as f64 / batch_stats.batches as f64
        } else {
            0.0
        },
        backpressure_stalls,
        max_queue_depth,
        final_policy,
        retunes,
        batch_trajectory,
        threshold_trajectory,
        node_queries,
        exchanged_queries: stats.exchanged,
        mean_exchange_ms: if stats.exchanged > 0 {
            // Completion-weighted across nodes: one global accumulator
            // over every exchanged query, never an average of per-node
            // means (pinned by `tests/sharding.rs`).
            stats.exchange_ns_total as f64 / stats.exchanged as f64 / 1e6
        } else {
            0.0
        },
        tenant_breakdowns,
        tenant_final_policies,
        latencies_ms: stats.latency.into_samples(),
        // Attached by the loops from their sinks' streaming digests;
        // untraced runs have nothing to report.
        stage_breakdown: None,
        pulse: None,
        // Attached by the sharded real path, the one that collects them.
        ctrs: Vec::new(),
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival {
        idx: usize,
    },
    Coalesce {
        node: usize,
        tenant: usize,
    },
    CpuDone {
        node: usize,
        tenant: usize,
        /// The batch's slot in the node's in-flight table.
        slot: usize,
    },
    GpuDone {
        node: usize,
        qid: u64,
    },
    /// A sharded query's exchange + merge finished at its home node.
    ExchangeDone {
        node: usize,
        qid: u64,
    },
}

/// Items of shared-pool service a weight-1 tenant earns per
/// deficit-round-robin round. Any value at or above the largest batch
/// guarantees a lane drains at least one batch per round; smaller
/// values simply bank across rounds (classic DRR), at a few extra
/// arbiter iterations.
const DRR_QUANTUM_ITEMS: u64 = 256;

/// The deficit-round-robin discipline itself, shared verbatim by the
/// virtual node and the real-engine runtime so the two execution
/// layers cannot drift: banked service per lane, per-lane quantum
/// (`weight × DRR_QUANTUM_ITEMS`), and the rotation cursor. Lanes are
/// stored by the caller; the arbiter only owns the fairness state.
pub(crate) struct DrrArbiter {
    deficit: Vec<u64>,
    quantum: Vec<u64>,
    cursor: usize,
}

impl DrrArbiter {
    pub fn new(tenants: &[TenantSetup]) -> Self {
        DrrArbiter {
            deficit: vec![0; tenants.len()],
            quantum: tenants
                .iter()
                .map(|t| t.weight as u64 * DRR_QUANTUM_ITEMS)
                .collect(),
            cursor: 0,
        }
    }

    /// The deficit-round-robin pick: the next `(tenant, item)` the
    /// shared pool should serve, with `items` pricing a queued entry.
    /// Each visit to a lane that cannot afford its head banks one
    /// quantum and moves on; an emptied lane forfeits its bank (no
    /// hoarding while idle). Ties and rotation order are fixed by
    /// tenant index, so the arbiter is deterministic.
    pub fn next<T>(
        &mut self,
        lanes: &mut [VecDeque<T>],
        items: impl Fn(&T) -> u64,
    ) -> Option<(usize, T)> {
        if lanes.iter().all(|l| l.is_empty()) {
            return None;
        }
        loop {
            let t = self.cursor;
            if lanes[t].is_empty() {
                self.deficit[t] = 0;
                self.cursor = (t + 1) % lanes.len();
                continue;
            }
            let head_items = items(lanes[t].front().expect("non-empty lane"));
            if self.deficit[t] >= head_items {
                self.deficit[t] -= head_items;
                let b = lanes[t].pop_front().expect("non-empty lane");
                if lanes[t].is_empty() {
                    self.deficit[t] = 0;
                }
                return Some((t, b));
            }
            self.deficit[t] += self.quantum[t];
            self.cursor = (t + 1) % lanes.len();
        }
    }

    /// Returns a charge taken by [`DrrArbiter::next`] when the picked
    /// item could not actually be served (engine backpressure) and
    /// went back to its lane's head — otherwise a refused lane would
    /// pay twice for one batch.
    pub fn refund(&mut self, t: usize, items: u64) {
        self.deficit[t] += items;
    }

    /// The per-lane banked deficits, in tenant order — snapshotted
    /// into the fleet-pulse DRR round log after every grant.
    pub fn deficits(&self) -> &[u64] {
        &self.deficit
    }
}

/// A formed batch annotated with its lifecycle marks: when it left
/// the coalesce buffer onto its ready lane (`formed`) and when a
/// worker picked it up (`dispatched`, stamped at dispatch time). The
/// real runtime wraps its lanes' batches the same way so span
/// attribution cannot drift between execution layers.
pub(crate) struct TimedBatch {
    pub batch: Batch,
    pub formed: SimTime,
    pub dispatched: SimTime,
}

impl TimedBatch {
    pub fn formed_at(batch: Batch, formed: SimTime) -> Self {
        TimedBatch {
            batch,
            formed,
            dispatched: formed,
        }
    }
}

/// One node's virtual-time execution state around its [`NodeCore`]:
/// per-tenant ready queues arbitrated by deficit round-robin onto the
/// shared worker pool.
struct VirtualNode {
    core: NodeCore,
    /// Per-tenant dispatch queues, in tenant order, each batch carrying
    /// its formation time for span attribution.
    ready: Vec<VecDeque<TimedBatch>>,
    /// Batches queued across all lanes (the backpressure gauge).
    ready_total: usize,
    arbiter: DrrArbiter,
    /// Batches on a worker, by slot (the slot rides in the batch's
    /// `Ev::CpuDone`); `free` lists the empty slots.
    inflight: Vec<Option<TimedBatch>>,
    free: Vec<usize>,
    busy: usize,
    workers: usize,
    cpu: CpuPlatform,
    /// Under a shard plan, this node's share of the model's gather
    /// traffic: its batches cost
    /// [`ModelCost::shard_gather_request_us`] instead of the whole
    /// request.
    gather_fraction: Option<f64>,
    last_ns: SimTime,
    busy_core_ns: u128,
}

impl VirtualNode {
    fn new(
        costs: &[ModelCost],
        tenants: &[TenantSetup],
        setup: &NodeSetup,
        opts: &ServerOptions,
        gather_fraction: Option<f64>,
    ) -> Self {
        VirtualNode {
            core: NodeCore::new(costs, tenants, setup, opts),
            ready: tenants.iter().map(|_| VecDeque::new()).collect(),
            ready_total: 0,
            arbiter: DrrArbiter::new(tenants),
            inflight: Vec::new(),
            free: Vec::new(),
            busy: 0,
            workers: setup.workers,
            cpu: setup.cpu,
            gather_fraction,
            last_ns: 0,
            busy_core_ns: 0,
        }
    }

    /// Advances the busy-core integral to `now`.
    fn advance(&mut self, now: SimTime) {
        self.busy_core_ns += now.saturating_sub(self.last_ns) as u128 * self.busy as u128;
        self.last_ns = now;
    }

    /// Enqueues batches formed at `now` on lane `t`, counting each one
    /// that meets a dispatch pool already at its bound (the
    /// backpressure signal — same per-batch semantics as the real
    /// engine's refusals). The bound spans all lanes: the pool is
    /// shared, so one tenant's backlog is every tenant's pressure.
    fn enqueue(&mut self, now: SimTime, t: usize, batches: Vec<Batch>, bound: usize) {
        for b in batches {
            if self.ready_total >= bound {
                self.core.backpressure_stalls += 1;
            }
            self.ready[t].push_back(TimedBatch::formed_at(b, now));
            self.ready_total += 1;
        }
    }

    /// The next `(tenant, batch)` the shared pool should serve, via
    /// the shared [`DrrArbiter`] discipline.
    fn drr_next(&mut self) -> Option<(usize, TimedBatch)> {
        let picked = self.arbiter.next(&mut self.ready, |b| b.batch.items as u64);
        if picked.is_some() {
            self.ready_total -= 1;
        }
        picked
    }

    fn dispatch<M: MetricsSink>(
        &mut self,
        now: SimTime,
        costs: &[ModelCost],
        n: usize,
        events: &mut EventQueue<Ev>,
        pulse: &mut M,
    ) {
        while self.busy < self.workers {
            let Some((t, mut b)) = self.drr_next() else {
                break;
            };
            if M::ENABLED {
                pulse.drr_round(now, n, t, self.arbiter.deficits());
            }
            self.busy += 1;
            b.dispatched = now;
            let service = match self.gather_fraction {
                Some(f) => costs[t].shard_gather_request_us(
                    &self.cpu,
                    b.batch.items as usize,
                    self.busy,
                    f,
                ),
                None => costs[t].cpu_request_us(&self.cpu, b.batch.items as usize, self.busy),
            };
            let slot = match self.free.pop() {
                Some(slot) => slot,
                None => {
                    self.inflight.push(None);
                    self.inflight.len() - 1
                }
            };
            self.inflight[slot] = Some(b);
            events.push(
                now + us_to_ns(service),
                Ev::CpuDone {
                    node: n,
                    tenant: t,
                    slot,
                },
            );
        }
        self.core.note_queue_depth(self.ready_total);
    }

    /// Takes the finished batch out of in-flight `slot`.
    fn finish(&mut self, slot: usize) -> TimedBatch {
        self.busy -= 1;
        self.free.push(slot);
        self.inflight[slot].take().expect("live in-flight slot")
    }

    /// Lane `t`'s controller retuned: [`NodeCore::rebatch_lane`]
    /// repacks the queued backlog and the open coalesce residual at
    /// the new knob, so old work drains at the new knob's cost and
    /// nothing keeps waiting out a window formed under the old one
    /// (the residual's remaining window collapses to *now*, so the
    /// stale timer — armed for the old, later deadline — has nothing
    /// left to strand). Should a future reform path leave a live
    /// deadline instead, the re-arm below schedules its flush against
    /// the *new* `BatchQueue::deadline()` — the same guard the push
    /// paths use. (Repacked batches are the same queued work, not new
    /// pressure — no backpressure accounting here.)
    fn retune<M: MetricsSink>(
        &mut self,
        t: usize,
        now: SimTime,
        costs: &[ModelCost],
        n: usize,
        events: &mut EventQueue<Ev>,
        pulse: &mut M,
    ) {
        let deadline_before = self.core.batcher(t).deadline();
        let queued: Vec<Batch> = self.ready[t].drain(..).map(|tb| tb.batch).collect();
        self.ready_total -= queued.len();
        let out = self.core.rebatch_lane(t, queued);
        self.ready_total += out.len();
        // Repacked work re-forms *now*: its coalesce credit was already
        // earned under the old knob; residency restarts at the retune.
        self.ready[t].extend(out.into_iter().map(|b| TimedBatch::formed_at(b, now)));
        match self.core.batcher(t).deadline() {
            Some(d) if deadline_before != Some(d) => {
                events.push(d, Ev::Coalesce { node: n, tenant: t })
            }
            _ => {}
        }
        self.dispatch(now, costs, n, events, pulse);
    }
}

/// Serves `queries` across `setups.len()` nodes behind `router` in
/// deterministic virtual time, with one tenant lane per entry of
/// `tenants` on every node. Its two callers are
/// [`crate::Cluster::serve`] on the virtual clock (a [`crate::Server`]
/// is its one-node case) and [`crate::Simulation`].
///
/// With `shard` set, every arrival fans out to each shard-holding
/// node (which gathers its local tables' share), and the query
/// completes one exchange + dense-tail delay after its last partial —
/// partial-completion ties break by [`NodeId`] because arrivals push
/// partials in id order and the event queue is FIFO within a
/// timestamp, so runs stay byte-deterministic per seed.
///
/// Returns the report and the virtual time of the last event (the
/// run's span).
#[allow(clippy::too_many_arguments)] // the one internal loop every serving front shares
pub(crate) fn serve_virtual_multi<S: TraceSink, M: MetricsSink>(
    costs: &[ModelCost],
    tenants: &[TenantSetup],
    setups: &[NodeSetup],
    opts: &ServerOptions,
    mut router: Router,
    shard: Option<&ShardGeometry>,
    queries: &[Query],
    sink: &mut S,
    pulse: &mut M,
) -> (Report, SimTime) {
    assert_nonempty_queries(queries);
    let queue_bound = opts.batching.queue_bound;
    let mut stats = StreamStats::new(queries.len(), opts.warmup_frac, tenants.len());
    let mut nodes: Vec<VirtualNode> = setups
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let fraction = shard.map(|sh| sh.gather_fraction(i));
            VirtualNode::new(costs, tenants, s, opts, fraction)
        })
        .collect();
    let mut events: EventQueue<Ev> = EventQueue::new();
    for (idx, q) in queries.iter().enumerate() {
        events.push(secs_to_ns(q.arrival_s), Ev::Arrival { idx });
    }

    // Queues freshly formed batches on node `n`'s lane `t`, scheduling
    // a coalesce flush when the arrival opened a fresh buffer.
    #[allow(clippy::too_many_arguments)] // one call site's context, bundled
    fn queue_on<M: MetricsSink>(
        nodes: &mut [VirtualNode],
        n: usize,
        t: usize,
        batches: Vec<Batch>,
        deadline_before: Option<SimTime>,
        queue_bound: usize,
        now: SimTime,
        costs: &[ModelCost],
        events: &mut EventQueue<Ev>,
        pulse: &mut M,
    ) {
        nodes[n].enqueue(now, t, batches, queue_bound);
        // Schedule a flush only when this arrival opened a fresh
        // coalesce buffer; an unchanged deadline already has its event.
        match nodes[n].core.batcher(t).deadline() {
            Some(d) if deadline_before != Some(d) => {
                events.push(d, Ev::Coalesce { node: n, tenant: t })
            }
            _ => {}
        }
        nodes[n].dispatch(now, costs, n, events, pulse);
    }

    // Fleet-pulse sampling ticks on the virtual clock, draining before
    // each event pops so a sample at T reflects every state change
    // strictly before T and none at or after it — the alignment that
    // makes exported series byte-identical against the real runtime's
    // due-time clock. Times rebase to the stream's first arrival.
    let span_epoch = queries
        .iter()
        .map(|q| secs_to_ns(q.arrival_s))
        .min()
        .expect("non-empty stream");
    if M::ENABLED {
        pulse.set_epoch(span_epoch);
    }
    let tick_ns = pulse.interval_ns().max(1);
    let mut next_tick = span_epoch + tick_ns;

    let mut end_ns: SimTime = 0;
    loop {
        if M::ENABLED {
            if let Some(head) = events.peek_time() {
                while next_tick <= head {
                    for (n, node) in nodes.iter().enumerate() {
                        node.core.sample_gauges(
                            pulse,
                            n,
                            next_tick,
                            node.ready_total,
                            node.arbiter.deficits(),
                        );
                    }
                    pulse.tick(next_tick);
                    next_tick += tick_ns;
                }
            }
        }
        let Some((now, ev)) = events.pop() else {
            break;
        };
        end_ns = now;
        let touched = match ev {
            Ev::Arrival { idx } => {
                let q = &queries[idx];
                let t = q.tenant.index();
                let NodeId(home) = router.route(q.tenant, q.size);
                match shard {
                    Some(sh) => {
                        // Fan the query to every shard node; the home
                        // (router-chosen) merges after the exchange.
                        // The fabric-only share feeds the exchange
                        // counters; a peer-less plan exchanges nothing
                        // but still pays its dense tail at merge.
                        let exchange_us = sh.exchange_us(home, q.size);
                        let exchange_ns = if exchange_us > 0.0 {
                            us_to_ns(exchange_us)
                        } else {
                            0
                        };
                        let merge_ns =
                            us_to_ns(sh.merge_delay_us(&costs[t], &setups[home].cpu, home, q.size));
                        stats.note_arrival_sharded(
                            now,
                            q,
                            home,
                            sh.shard_nodes().len() as u32,
                            exchange_ns,
                            merge_ns,
                        );
                        // The home node's controller owns the query's
                        // control signal (arrival accounting here,
                        // completion at merge time).
                        nodes[home].core.note_controller_arrival(now, t);
                        for &n in sh.shard_nodes() {
                            nodes[n].advance(now);
                            let deadline_before = nodes[n].core.batcher(t).deadline();
                            let batches = nodes[n].core.on_partial_arrival(now, q);
                            queue_on(
                                &mut nodes,
                                n,
                                t,
                                batches,
                                deadline_before,
                                queue_bound,
                                now,
                                costs,
                                &mut events,
                                pulse,
                            );
                        }
                    }
                    None => {
                        let n = home;
                        nodes[n].advance(now);
                        let measured = stats.note_arrival(now, q, n);
                        let deadline_before = nodes[n].core.batcher(t).deadline();
                        match nodes[n].core.on_arrival(now, q) {
                            Route::Gpu { start, done } => {
                                stats.span_gpu(q.id, start);
                                stats.note_gpu_items(measured, q.size);
                                events.push(done, Ev::GpuDone { node: n, qid: q.id });
                            }
                            Route::Cpu(batches) => {
                                router.fanned_out(NodeId(n), batches.len());
                                queue_on(
                                    &mut nodes,
                                    n,
                                    t,
                                    batches,
                                    deadline_before,
                                    queue_bound,
                                    now,
                                    costs,
                                    &mut events,
                                    pulse,
                                );
                            }
                        }
                    }
                }
                home
            }
            Ev::Coalesce { node: n, tenant: t } => {
                nodes[n].advance(now);
                let mut out = Vec::new();
                nodes[n].core.batcher_mut(t).flush_due(now, &mut out);
                if !out.is_empty() {
                    nodes[n].enqueue(now, t, out, queue_bound);
                    nodes[n].dispatch(now, costs, n, &mut events, pulse);
                }
                n
            }
            Ev::CpuDone {
                node: n,
                tenant: t,
                slot,
            } => {
                nodes[n].advance(now);
                let tb = nodes[n].finish(slot);
                router.part_done(NodeId(n));
                for seg in &tb.batch.segments {
                    stats.span_batch(seg.query_id, tb.formed, tb.dispatched);
                    match stats.credit_items(now, seg.query_id, seg.items) {
                        Credit::Pending => {}
                        Credit::Done(f) => {
                            let home = &mut nodes[f.node].core;
                            stats.settle(now, &f, home, &mut router, sink, pulse);
                        }
                        Credit::AwaitExchange { home, delay } => events.push(
                            now + delay,
                            Ev::ExchangeDone {
                                node: home,
                                qid: seg.query_id,
                            },
                        ),
                    }
                }
                nodes[n].core.batcher_mut(t).recycle(tb.batch);
                nodes[n].dispatch(now, costs, n, &mut events, pulse);
                n
            }
            Ev::GpuDone { node: n, qid } => {
                nodes[n].advance(now);
                router.part_done(NodeId(n));
                let items = stats.remaining_items(qid);
                match stats.credit_items(now, qid, items) {
                    Credit::Pending => {}
                    Credit::Done(f) => {
                        let home = &mut nodes[f.node].core;
                        stats.settle(now, &f, home, &mut router, sink, pulse);
                    }
                    Credit::AwaitExchange { .. } => {
                        unreachable!("GPU offload never serves sharded queries")
                    }
                }
                n
            }
            Ev::ExchangeDone { node: n, qid } => {
                nodes[n].advance(now);
                let f = stats.finish_exchanged(now, qid);
                debug_assert_eq!(f.node, n, "merge fired at a non-home node");
                stats.settle(now, &f, &mut nodes[n].core, &mut router, sink, pulse);
                n
            }
        };
        for t in 0..tenants.len() {
            if nodes[touched].core.take_policy_dirty(t) {
                nodes[touched].retune(t, now, costs, touched, &mut events, pulse);
            }
        }
    }

    for node in &mut nodes {
        node.advance(end_ns);
        debug_assert!(
            node.inflight.iter().all(Option::is_none) && node.free.len() == node.inflight.len(),
            "a batch is still in flight after the last event"
        );
    }
    debug_assert!(router.is_idle(), "a router gauge did not return to zero");
    let node_queries = router.dispatched().to_vec();
    let (cores, busy): (Vec<NodeCore>, Vec<(u128, usize)>) = nodes
        .into_iter()
        .map(|v| (v.core, (v.busy_core_ns, v.workers)))
        .unzip();
    let mut report = assemble_report(
        RunOutcome {
            stats,
            cores,
            setups: setups.to_vec(),
            tenant_setups: tenants.to_vec(),
            cpu_usage: CpuUsage::from_integrals(&busy, end_ns),
            end_ns,
            node_queries,
        },
        stream_offered_qps(queries),
    );
    if S::ENABLED {
        report.stage_breakdown = sink.breakdown();
    }
    if M::ENABLED {
        report.pulse = pulse.summary();
    }
    (report, end_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(id: u64, items: u32) -> Batch {
        Batch {
            id,
            segments: vec![crate::batcher::BatchSegment {
                query_id: id,
                items,
            }],
            items,
            opened_at: 0,
        }
    }

    fn arbiter(weights: &[u32]) -> VirtualNode {
        let opts = ServerOptions::new(1, SchedulerPolicy::cpu_only(64));
        let cost = ModelCost::new(&drs_models::zoo::ncf());
        let costs: Vec<ModelCost> = weights.iter().map(|_| cost.clone()).collect();
        let tenants: Vec<TenantSetup> = weights
            .iter()
            .map(|&w| {
                let mut t = TenantSetup::solo(SchedulerPolicy::cpu_only(64), 100.0);
                t.weight = w;
                t
            })
            .collect();
        let setup = NodeSetup {
            cpu: CpuPlatform::skylake(),
            gpu: None,
            workers: 1,
        };
        VirtualNode::new(&costs, &tenants, &setup, &opts, None)
    }

    #[test]
    fn drr_interleaves_equal_weights() {
        let mut v = arbiter(&[1, 1]);
        for i in 0..4 {
            v.enqueue(0, 0, vec![batch(i, 64)], 1024);
            v.enqueue(0, 1, vec![batch(100 + i, 64)], 1024);
        }
        let mut order = Vec::new();
        while let Some((t, _)) = v.drr_next() {
            order.push(t);
        }
        // Quantum (256) covers four 64-item batches per visit, so each
        // lane drains its bank before the cursor rotates — but neither
        // lane serves more than its share ahead of the other.
        let served_0_first_half: usize = order[..4].iter().filter(|&&t| t == 0).count();
        assert_eq!(order.len(), 8);
        assert!(
            (1..=4).contains(&served_0_first_half),
            "lane 0 within its share early: {order:?}"
        );
        assert_eq!(order.iter().filter(|&&t| t == 0).count(), 4);
    }

    #[test]
    fn drr_weight_skews_service_under_contention() {
        let mut v = arbiter(&[2, 1]);
        for i in 0..12 {
            v.enqueue(0, 0, vec![batch(i, 256)], 1024);
            v.enqueue(0, 1, vec![batch(100 + i, 256)], 1024);
        }
        let mut order = Vec::new();
        for _ in 0..9 {
            order.push(v.drr_next().expect("backlog remains").0);
        }
        let t0 = order.iter().filter(|&&t| t == 0).count();
        assert_eq!(t0, 6, "weight 2 earns two thirds of the pool: {order:?}");
    }

    #[test]
    fn drr_big_batches_bank_across_rounds() {
        // Lane 0 queues 1024-item batches (4 quanta each); lane 1
        // queues 64-item ones. Lane 1 must keep being served while
        // lane 0 banks up — one big batch cannot monopolize the pool.
        let mut v = arbiter(&[1, 1]);
        for i in 0..2 {
            v.enqueue(0, 0, vec![batch(i, 1024)], 1024);
        }
        for i in 0..8 {
            v.enqueue(0, 1, vec![batch(100 + i, 64)], 1024);
        }
        let mut order = Vec::new();
        while let Some((t, b)) = v.drr_next() {
            order.push((t, b.batch.items));
        }
        assert_eq!(order.len(), 10);
        let first_big = order
            .iter()
            .position(|&(t, _)| t == 0)
            .expect("lane 0 served");
        assert!(
            order[..first_big].iter().filter(|&&(t, _)| t == 1).count() >= 4,
            "lane 1 served while lane 0 banks: {order:?}"
        );
    }

    #[test]
    fn drr_idle_lane_forfeits_bank() {
        let mut v = arbiter(&[1, 1]);
        v.enqueue(0, 0, vec![batch(0, 64)], 1024);
        while v.drr_next().is_some() {}
        // Lane 0 drained; its leftover deficit must not persist.
        assert_eq!(v.arbiter.deficit[0], 0, "emptied lane resets its bank");
    }
}
