//! What the serving loop is built from and what it reports with; the
//! loop itself, and each node's serving state, are [`crate::driver`]'s.
//!
//! * [`NodeSetup`] and [`TenantSetup`] — one node's hardware and one
//!   tenant's knobs, weight and tiers, as a run's nodes are built from
//!   them.
//! * [`StreamStats`] — stream-wide measurement shared across nodes:
//!   which queries are in flight (a ring keyed by stream position),
//!   where each was routed, and the latency/throughput recorders
//!   (global and per-tenant) the final report is cut from by
//!   [`assemble_report`].
//! * [`DrrArbiter`] — the deficit-round-robin discipline over a node's
//!   per-tenant ready lanes.
//!
//! Multi-tenancy is the paper's co-located-services setting (§III):
//! several zoo models share one engine pool, each batching and tuning
//! its own knobs. The pool itself is arbitrated by deficit round-robin
//! across the per-tenant ready queues, so a heavy tenant's backlog
//! cannot starve a light tenant of workers — each lane earns
//! `weight × quantum` items of service per round and banks what it
//! does not use.

use crate::batcher::BatchStats;
use crate::driver::{Fleet, Lane, Node};
use drs_core::{
    Report, SchedulerPolicy, SimTime, TenantBreakdown, TenantId, TenantSpec, NS_PER_SEC,
};
use drs_metrics::LatencyRecorder;
use drs_platform::{CpuPlatform, GpuPlatform};
use drs_query::Query;
use drs_telemetry::{MetricsSink, QuerySpan, Stage, TraceSink, STAGE_COUNT};
use std::collections::VecDeque;

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

#[derive(Debug)]
struct QueryState {
    /// The query's id: a label for its span, its warm-up verdict and
    /// (sharded, on the wall clock) its CTRs; nothing is keyed on it.
    id: u64,
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
    /// *exactly* by construction — also on the wall clock.
    fn span(&self, service_end: SimTime, end: SimTime) -> QuerySpan {
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
            query_id: self.id,
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
    /// Queries in flight by stream position: slot `i` is position
    /// `base + i`. A settled query leaves `None` until every older one
    /// has settled too, then the front is trimmed, so the ring spans
    /// the oldest unsettled query to the newest arrival.
    queries: VecDeque<Option<QueryState>>,
    base: usize,
    /// Every measured latency, pre-sized for the run; its samples
    /// become the report's `latencies_ms` in completion order.
    latency: LatencyRecorder,
    /// Measured latencies once the home lane's controller settled;
    /// `None` without controllers, where every query counts as settled
    /// and this would repeat `latency` sample for sample.
    settled: Option<LatencyRecorder>,
    completed_measured: u64,
    /// Per-tenant slices of the window, in tenant order: exact, like
    /// `latency`, since each tenant's SLA verdict is judged on them.
    tenant_latency: Vec<LatencyRecorder>,
    items_total: u64,
    items_gpu: u64,
    /// Accumulated exchange + merge delay across measured sharded
    /// queries, and how many paid one.
    exchange_ns_total: u128,
    exchanged: u64,
    window_start: Option<SimTime>,
    window_end: SimTime,
    /// The stream's first arrival. Recorded spans are rebased to it, so
    /// span timestamps read "ns since the first arrival" on both
    /// clocks.
    span_epoch: Option<SimTime>,
}

impl StreamStats {
    pub fn new(queries: &[Query], fleet: &Fleet) -> Self {
        // Pre-sized like `latency`: a tenant records at most its own
        // queries (an unknown tag is rejected at arrival).
        let mut tenant_queries = vec![0; fleet.tenants.len()];
        for q in queries {
            if let Some(n) = tenant_queries.get_mut(q.tenant.index()) {
                *n += 1;
            }
        }
        StreamStats {
            warmup_n: (queries.len() as f64 * fleet.opts.warmup_frac) as u64,
            queries: VecDeque::new(),
            base: 0,
            latency: LatencyRecorder::with_capacity(queries.len()),
            settled: fleet
                .opts
                .controller
                .as_ref()
                .map(|_| LatencyRecorder::new()),
            completed_measured: 0,
            tenant_latency: (tenant_queries.into_iter())
                .map(LatencyRecorder::with_capacity)
                .collect(),
            items_total: 0,
            items_gpu: 0,
            exchange_ns_total: 0,
            exchanged: 0,
            window_start: None,
            window_end: 0,
            span_epoch: None,
        }
    }

    /// Registers the next arrival, homed at `home` (arrivals register
    /// in stream order, so its key is its stream position): the query
    /// fans to `fanout` nodes (each contributing `q.size` items; 1
    /// unsharded) and, once the last partial lands, completes after
    /// `merge_ns` of exchange + merge at `home` (0 unsharded: at once).
    /// `exchange_ns` is the cross-node (fabric-only) share of that
    /// delay — zero for a plan with no remote peers — and is what the
    /// exchange counters report.
    pub fn note_arrival(
        &mut self,
        now: SimTime,
        q: &Query,
        home: usize,
        fanout: u32,
        exchange_ns: SimTime,
        merge_ns: SimTime,
    ) {
        assert!(fanout >= 1, "a query must reach at least one node");
        assert!(exchange_ns <= merge_ns, "exchange is part of the merge");
        assert!(
            q.tenant.index() < self.tenant_latency.len(),
            "query {} tagged {} but the stack serves {} tenant(s)",
            q.id,
            q.tenant,
            self.tenant_latency.len()
        );
        let measured = q.id >= self.warmup_n;
        self.span_epoch.get_or_insert(now);
        self.queries.push_back(Some(QueryState {
            id: q.id,
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
        }));
        if measured {
            self.items_total += q.size as u64;
            self.window_start.get_or_insert(now);
            if exchange_ns > 0 {
                self.exchange_ns_total += exchange_ns as u128;
                self.exchanged += 1;
            }
        }
    }

    /// Whether every registered query has settled.
    pub fn is_idle(&self) -> bool {
        self.queries.is_empty()
    }

    /// The in-flight query at `pos`.
    #[inline]
    fn state(&mut self, pos: usize) -> &mut QueryState {
        (self.queries.get_mut(pos - self.base))
            .and_then(Option::as_mut)
            .expect("in-flight query")
    }

    /// Takes the query at `pos` out of flight, trimming every settled
    /// slot off the ring's front.
    #[inline]
    fn settle(&mut self, pos: usize) -> QueryState {
        let st = (self.queries.get_mut(pos - self.base))
            .and_then(Option::take)
            .expect("in-flight query");
        while let Some(None) = self.queries.front() {
            self.queries.pop_front();
            self.base += 1;
        }
        st
    }

    pub fn remaining_items(&mut self, pos: usize) -> u32 {
        self.state(pos).items_left
    }

    /// Marks a query as GPU-offloaded with device service starting at
    /// `start` (its span then reads queue-wait → engine-service), and
    /// credits its items to the GPU work share.
    pub fn note_offload(&mut self, pos: usize, start: SimTime) {
        let st = self.state(pos);
        st.offloaded = true;
        st.dispatched = start;
        if st.measured {
            let items = st.items_left as u64;
            self.items_gpu += items;
        }
    }

    /// Stamps the CPU-path lifecycle marks of a batch about to credit
    /// one of the query's segments: when the batch left the coalesce
    /// buffer (`formed`) and when a worker picked it up
    /// (`dispatched`). The last credit's marks win.
    pub fn span_batch(&mut self, pos: usize, formed: SimTime, dispatched: SimTime) {
        let st = self.state(pos);
        st.formed = formed;
        st.dispatched = dispatched;
    }

    /// Credits `items` of a query as done. On the query's last item:
    /// unsharded queries finish immediately ([`Credit::Done`] — the
    /// caller feeds the latency to the owning lane's controller and
    /// calls [`StreamStats::record`]); sharded queries return
    /// [`Credit::AwaitExchange`] and finish via
    /// [`StreamStats::finish_exchanged`] after the merge delay.
    pub fn credit_items(&mut self, now: SimTime, pos: usize, items: u32) -> Credit {
        let st = self.state(pos);
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
        let st = self.settle(pos);
        Credit::Done(FinishedQuery {
            node: st.node,
            tenant: st.tenant,
            latency_ms: (now - st.arrival) as f64 / 1e6,
            measured: st.measured,
            span: st.span(now, now),
        })
    }

    /// Completes a sharded query whose exchange/merge delay elapsed at
    /// `now`.
    pub fn finish_exchanged(&mut self, now: SimTime, pos: usize) -> FinishedQuery {
        let st = self.settle(pos);
        debug_assert_eq!(st.items_left, 0, "merge fired with items in flight");
        FinishedQuery {
            node: st.node,
            tenant: st.tenant,
            latency_ms: (now - st.arrival) as f64 / 1e6,
            measured: st.measured,
            span: st.span(st.service_done, now),
        }
    }

    /// Records a finished query's latency (after its lane's controller
    /// saw it, so the settled flag is current), its fleet-pulse window
    /// observation when the pulse is live, and its span when the sink
    /// is live — measured queries only, matching every other recorder
    /// here.
    pub fn record<S: TraceSink, M: MetricsSink>(
        &mut self,
        now: SimTime,
        f: &FinishedQuery,
        settled: bool,
        sink: &mut S,
        pulse: &mut M,
    ) {
        if f.measured {
            self.latency.record_ms(f.latency_ms);
            if let Some(s) = self.settled.as_mut().filter(|_| settled) {
                s.record_ms(f.latency_ms);
            }
            self.tenant_latency[f.tenant].record_ms(f.latency_ms);
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
/// wall clock measures both against wall time.
pub(crate) struct CpuUsage {
    pub per_node: Vec<f64>,
    pub overall: f64,
}

/// What a clock measured over a finished run.
pub(crate) struct ClockTotals {
    pub cpu_usage: CpuUsage,
    /// Measurement horizon (virtual ns, or model-time ns since the
    /// first arrival on the wall clock) the GPU busy integrals are
    /// normalized against.
    pub end_ns: SimTime,
    /// `(query id, ctrs)` in completion order (sharded wall runs).
    pub ctrs: Vec<(u64, Vec<f32>)>,
}

/// Cuts the final [`Report`] from a finished run: aggregates
/// batching stats across nodes and lanes, averages utilization, sums
/// power, slices the window per tenant, and reports node 0's
/// controller trajectory for tenant 0 (the representative lane — every
/// node climbs the same ladders).
pub(crate) fn assemble_report<H>(
    fleet: &Fleet,
    stats: StreamStats,
    mut nodes: Vec<Node<H>>,
    totals: ClockTotals,
    node_queries: Vec<u64>,
    offered_qps: f64,
) -> Report {
    let end = totals.end_ns.max(1);
    let per_node_cpu_util = totals.cpu_usage.per_node;
    let cpu_utilization = totals.cpu_usage.overall;

    let per_node_gpu_util: Vec<Option<f64>> = nodes
        .iter()
        .map(|n| {
            n.gpu
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
    let avg_power_w: f64 = (fleet.setups)
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

    let lanes = || nodes.iter().flat_map(|n| &n.lanes);
    debug_assert!(
        (lanes().filter_map(|l| l.controller.as_ref())).all(|c| c.undrained_decisions() == 0),
        "every completion drains the decisions it provoked"
    );
    let mut batch_stats = BatchStats::default();
    for lane in lanes() {
        batch_stats.merge(lane.batcher.stats());
    }
    let retunes = lanes()
        .filter_map(|l| l.controller.as_ref())
        .map(|c| c.retunes)
        .sum();
    let backpressure_stalls: u64 = nodes.iter().map(|n| n.backpressure_stalls).sum();
    let max_queue_depth = nodes.iter().map(|n| n.max_queue_depth).max().unwrap_or(0);
    let tenant_final_policies: Vec<SchedulerPolicy> =
        nodes[0].lanes.iter().map(Lane::policy).collect();
    let (batch_trajectory, threshold_trajectory) = match nodes[0].lanes[0].controller.take() {
        Some(c) => (c.batch_trajectory, c.threshold_trajectory),
        None => (Vec::new(), Vec::new()),
    };

    let latency = stats.latency.summary();
    // A sole tenant's slice is the whole window: one sort serves both.
    let single_tenant = fleet.tenants.len() == 1;
    let tenant_breakdowns: Vec<TenantBreakdown> = (fleet.tenants)
        .iter()
        .enumerate()
        .map(|(t, ts)| {
            let completed = stats.tenant_latency[t].len() as u64;
            TenantBreakdown {
                tenant: TenantId(t as u32),
                completed,
                qps: if window_s > 0.0 {
                    completed as f64 / window_s
                } else {
                    0.0
                },
                latency: if single_tenant {
                    latency
                } else {
                    stats.tenant_latency[t].summary()
                },
                sla_ms: ts.report_sla_ms,
            }
        })
        .collect();

    Report {
        offered_qps,
        completed: stats.completed_measured,
        qps,
        latency,
        settled_latency: stats.settled.map_or(latency, |s| s.summary()),
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
        final_policy: tenant_final_policies[0],
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
        ctrs: totals.ctrs,
    }
}

/// Items of shared-pool service a weight-1 tenant earns per
/// deficit-round-robin round. Any value at or above the largest batch
/// guarantees a lane drains at least one batch per round; smaller
/// values simply bank across rounds (classic DRR), at a few extra
/// arbiter iterations.
const DRR_QUANTUM_ITEMS: u64 = 256;

/// The deficit-round-robin discipline: banked service per lane,
/// per-lane quantum (`weight × DRR_QUANTUM_ITEMS`), and the rotation
/// cursor. Lanes are stored by the caller; the arbiter only owns the
/// fairness state.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::Batch;

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

    /// An arbiter over one empty ready lane per weight.
    fn arbiter(weights: &[u32]) -> (DrrArbiter, Vec<VecDeque<Batch>>) {
        let tenants: Vec<TenantSetup> = weights
            .iter()
            .map(|&w| {
                let mut t = TenantSetup::solo(SchedulerPolicy::cpu_only(64), 100.0);
                t.weight = w;
                t
            })
            .collect();
        (
            DrrArbiter::new(&tenants),
            vec![VecDeque::new(); weights.len()],
        )
    }

    fn next(arb: &mut DrrArbiter, lanes: &mut [VecDeque<Batch>]) -> Option<(usize, Batch)> {
        arb.next(lanes, |b| b.items as u64)
    }

    #[test]
    fn drr_interleaves_equal_weights() {
        let (mut arb, mut lanes) = arbiter(&[1, 1]);
        for i in 0..4 {
            lanes[0].push_back(batch(i, 64));
            lanes[1].push_back(batch(100 + i, 64));
        }
        let mut order = Vec::new();
        while let Some((t, _)) = next(&mut arb, &mut lanes) {
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
        let (mut arb, mut lanes) = arbiter(&[2, 1]);
        for i in 0..12 {
            lanes[0].push_back(batch(i, 256));
            lanes[1].push_back(batch(100 + i, 256));
        }
        let mut order = Vec::new();
        for _ in 0..9 {
            order.push(next(&mut arb, &mut lanes).expect("backlog remains").0);
        }
        let t0 = order.iter().filter(|&&t| t == 0).count();
        assert_eq!(t0, 6, "weight 2 earns two thirds of the pool: {order:?}");
    }

    #[test]
    fn drr_big_batches_bank_across_rounds() {
        // Lane 0 queues 1024-item batches (4 quanta each); lane 1
        // queues 64-item ones. Lane 1 must keep being served while
        // lane 0 banks up — one big batch cannot monopolize the pool.
        let (mut arb, mut lanes) = arbiter(&[1, 1]);
        for i in 0..2 {
            lanes[0].push_back(batch(i, 1024));
        }
        for i in 0..8 {
            lanes[1].push_back(batch(100 + i, 64));
        }
        let mut order = Vec::new();
        while let Some((t, b)) = next(&mut arb, &mut lanes) {
            order.push((t, b.items));
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
        let (mut arb, mut lanes) = arbiter(&[1, 1]);
        lanes[0].push_back(batch(0, 64));
        while next(&mut arb, &mut lanes).is_some() {}
        // Lane 0 drained; its leftover deficit must not persist.
        assert_eq!(arb.deficits()[0], 0, "emptied lane resets its bank");
    }
}
