//! The one serving loop, generic over the clock it runs on.
//!
//! [`serve`] drives N nodes behind a [`Router`] through one event
//! loop. Every scheduling decision exists once, here: routing an
//! arrival, batching and splitting it, flushing a coalesce window,
//! granting the shared pool by deficit round-robin, re-batching a
//! retuned lane, crediting finished work, settling a query and ticking
//! the fleet pulse. A [`RunClock`] supplies only what genuinely differs
//! between deterministic virtual time ([`Virtual`], here) and the wall
//! clock ([`crate::real::Wall`]):
//!
//! * **the next event** — popping the [`EventQueue`], or pacing
//!   arrivals by the wall clock and blocking on the engines' fan-in
//!   channel. Both hand events out in the queue's order: by stamp,
//!   arrivals before timers at equal stamps, timers FIFO. So batch
//!   formation, and every offload-all run, matches virtual time by
//!   construction;
//! * **starting CPU work** — a free worker slot priced by
//!   [`ModelCost`], or admission to the node's
//!   [`drs_engine::InferenceEngine`];
//! * **the gauges that mean different things** — backpressure and
//!   queue depth (ready batches in virtual time; held requests plus the
//!   engine queue on the wall clock);
//! * **sharded work** — partials batched through the lanes with the
//!   exchange and dense tail priced as one merge delay, or per-query
//!   gathers joined and a dense tail run for real;
//! * **CPU utilisation** — the busy-core integral, or measured service
//!   time over wall time.
//!
//! With [`Fleet::shard`] set, every arrival fans out to each
//! shard-holding node and the query completes after its last partial
//! plus the exchange (and, in virtual time, the dense tail).
//! Partial-completion ties break by [`drs_core::NodeId`], because
//! arrivals push partials in id order and the queue is FIFO within a
//! timestamp, so runs stay byte-deterministic per seed.

use crate::batcher::{Batch, BatchQueue};
use crate::cluster::Router;
use crate::controller::OnlineController;
use crate::gpu::GpuExecutor;
use crate::node::{
    assemble_report, ClockTotals, CpuUsage, Credit, DrrArbiter, FinishedQuery, NodeSetup,
    StreamStats, TenantSetup,
};
use crate::server::ServerOptions;
use drs_core::{
    assert_nonempty_queries, secs_to_ns, stream_offered_qps, us_to_ns, EventQueue, NodeId, Report,
    SchedulerPolicy, SimTime,
};
use drs_platform::{CpuPlatform, ModelCost};
use drs_query::Query;
use drs_shard::ShardGeometry;
use drs_telemetry::{MetricsSink, TraceSink};
use std::collections::VecDeque;

/// What a run serves: per-tenant cost models and setups, per-node
/// hardware, the serving options and an optional shard plan.
pub(crate) struct Fleet<'a> {
    pub costs: &'a [ModelCost],
    pub tenants: &'a [TenantSetup],
    pub setups: &'a [NodeSetup],
    pub opts: &'a ServerOptions,
    pub shard: Option<&'a ShardGeometry>,
}

/// One event of a run. `D` is the clock's CPU-completion payload.
pub(crate) enum Ev<D> {
    Arrival {
        idx: usize,
    },
    /// Lane `tenant` of `node` may have a coalesce window to flush.
    Coalesce {
        node: usize,
        tenant: usize,
    },
    /// CPU work finished.
    CpuDone(D),
    GpuDone {
        node: usize,
        qid: u64,
    },
    /// A sharded query's exchange (+ priced merge) finished at its home
    /// node.
    ExchangeDone {
        node: usize,
        qid: u64,
    },
}

/// What one unit of CPU work computes.
pub(crate) enum Work {
    /// A tenant lane's batch.
    Batch(Batch),
    /// One shard node's embedding gather for sharded query `qid`.
    Gather { qid: u64, size: u32 },
    /// Sharded query `qid`'s dense tail, on its home node.
    Tail { qid: u64, size: u32 },
}

impl Work {
    /// Items of pool service the work costs its lane's DRR bank.
    #[inline]
    pub fn items(&self) -> u64 {
        match self {
            Work::Batch(b) => b.items as u64,
            Work::Gather { size, .. } | Work::Tail { size, .. } => *size as u64,
        }
    }
}

/// Queued or running work with its lifecycle marks: when it left the
/// coalesce buffer onto its ready lane (`formed`) and when a worker
/// took it (`dispatched`). `held` is whatever the clock keeps with it
/// (the wall clock's engine request, built once, kept across
/// refusals).
pub(crate) struct Job<H> {
    pub work: Work,
    pub formed: SimTime,
    pub dispatched: SimTime,
    pub held: H,
}

impl<H> Job<H> {
    #[inline]
    fn new(work: Work, formed: SimTime, held: H) -> Self {
        Job {
            work,
            formed,
            dispatched: formed,
            held,
        }
    }
}

/// What differs between the clocks a run is served on. This is the
/// whole interface: everything else is [`Serving`]'s.
pub(crate) trait RunClock {
    /// What a job carries for this clock besides its work.
    type Held: Default;
    /// A CPU completion's payload.
    type Done;
    /// Whether CPU completions are stamped on the model clock (so the
    /// pulse ticks due by then fire first).
    const PRICED: bool;
    /// Whether backpressure is counted when work is queued past
    /// `queue_bound`, rather than at the engine's first refusal.
    const BOUND_AT_ENQUEUE: bool;

    /// The next event, in `events`' order; `None` ends the run.
    /// `idle` says every arrival is booked and every query settled.
    fn next_event(
        &mut self,
        events: &mut EventQueue<Ev<Self::Done>>,
        idle: bool,
    ) -> Option<(SimTime, Ev<Self::Done>)>;

    /// Whether node `n` can take work now; checked before each DRR
    /// pick, so a pick is never taken back for want of a worker.
    fn can_start(&self, n: usize) -> bool;

    /// Starts tenant `t`'s `job` on node `n` at `now`. A refusal hands
    /// the job back with whether it was its first.
    fn start(
        &mut self,
        n: usize,
        t: usize,
        job: Job<Self::Held>,
        now: SimTime,
        events: &mut EventQueue<Ev<Self::Done>>,
    ) -> Result<(), (Job<Self::Held>, bool)>;

    /// Takes finished work back: `(node, tenant, job)`.
    fn finish(&mut self, done: Self::Done, now: SimTime) -> (usize, usize, Job<Self::Held>);

    /// Node `n`'s queue-depth gauge, given its `ready` queued jobs.
    fn queue_depth(&self, _n: usize, ready: usize) -> usize {
        ready
    }

    /// Samples the clock's own gauges for node `n` at a pulse tick.
    fn sample_gauges<M: MetricsSink>(&self, _pulse: &mut M, _n: usize) {}

    /// How long after its last partial sharded query `q` completes at
    /// `home` on this clock's merge path.
    fn merge_ns(&self, sh: &ShardGeometry, q: &Query, home: usize, exchange_ns: SimTime)
        -> SimTime;

    /// Per-query gathers for sharded query `q`, one per holder; `None`
    /// batches its partials through the lanes.
    fn gathers(&mut self, _q: &Query, _holders: &[usize]) -> Option<Vec<Self::Held>> {
        None
    }

    /// `qid`'s exchange finished: its dense tail as `(items, request)`
    /// to run at the home, or `None` when the merge delay priced it.
    fn tail(&mut self, _qid: u64) -> Option<(u32, Self::Held)> {
        None
    }

    /// Ends the run; `last` is the last event's stamp.
    fn finish_run(self, last: SimTime) -> ClockTotals;
}

/// One tenant's scheduling lane on a node: its own batching queue and
/// its own online controller, tuning independently of every other lane
/// (the paper's per-model knobs).
pub(crate) struct Lane {
    /// Knobs served when no controller is attached.
    fallback_policy: SchedulerPolicy,
    pub controller: Option<OnlineController>,
    pub batcher: BatchQueue,
    /// Set when the lane's controller changed its policy; the loop must
    /// re-read it and re-batch the lane's queued backlog.
    policy_dirty: bool,
}

impl Lane {
    /// The policy the lane applies right now.
    #[inline]
    pub fn policy(&self) -> SchedulerPolicy {
        self.controller
            .as_ref()
            .map_or(self.fallback_policy, |c| c.policy())
    }
}

/// One node's whole serving state: a lane per tenant, the ready queues
/// the deficit-round-robin arbiter grants the node's pool from, the
/// shared offload device and the backpressure gauges. A
/// [`crate::Server`] serves one; a [`crate::Cluster`] N.
pub(crate) struct Node<H> {
    pub lanes: Vec<Lane>,
    /// Jobs ready to start, per lane (the arbiter's view of the lanes).
    ready: Vec<VecDeque<Job<H>>>,
    /// Jobs queued across all lanes.
    ready_total: usize,
    arbiter: DrrArbiter,
    pub gpu: Option<GpuExecutor>,
    pub backpressure_stalls: u64,
    pub max_queue_depth: usize,
}

impl<H> Node<H> {
    /// Builds one node, one lane per tenant. A node without an
    /// accelerator serves each tenant's policy with the offload knob
    /// stripped (its controllers then skip the threshold phase), so one
    /// cluster-wide spec can drive a mixed fleet.
    fn new(fleet: &Fleet, setup: &NodeSetup) -> Self {
        let (costs, tenants, opts) = (fleet.costs, fleet.tenants, fleet.opts);
        assert_eq!(costs.len(), tenants.len(), "one cost model per tenant");
        // Round, do not floor-at-1: a zero timeout must stay zero
        // (coalescing disabled).
        let timeout_ns = (opts.batching.coalesce_timeout_us * 1e3).round() as SimTime;
        let lanes = (tenants.iter())
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
                Lane {
                    fallback_policy: node_policy,
                    controller,
                    batcher: BatchQueue::new(initial.max_batch, timeout_ns),
                    policy_dirty: false,
                }
            })
            .collect();
        Node {
            lanes,
            ready: tenants.iter().map(|_| VecDeque::new()).collect(),
            ready_total: 0,
            arbiter: DrrArbiter::new(tenants),
            gpu: (setup.gpu).map(|g| GpuExecutor::new_multi(costs.to_vec(), setup.cpu, g)),
            backpressure_stalls: 0,
            max_queue_depth: 0,
        }
    }
}

/// One run's state on clock `C`.
struct Serving<'a, C: RunClock, S, M> {
    queries: &'a [Query],
    queue_bound: usize,
    shard: Option<&'a ShardGeometry>,
    stats: StreamStats,
    router: Router,
    nodes: Vec<Node<C::Held>>,
    events: EventQueue<Ev<C::Done>>,
    clock: C,
    /// Arrivals booked so far.
    arrived: usize,
    sink: &'a mut S,
    pulse: &'a mut M,
    tick_ns: SimTime,
    next_tick: SimTime,
}

/// Serves `queries` across `fleet.setups.len()` nodes behind `router`
/// on `clock`, one tenant lane per entry of `fleet.tenants` on every
/// node. Its callers are [`crate::Cluster::serve`] (either clock; a
/// [`crate::Server`] is its one-node case) and [`crate::Simulation`].
///
/// Returns the report and the clock's horizon (in virtual time, the
/// stamp of the last event: the run's span).
pub(crate) fn serve<C: RunClock, S: TraceSink, M: MetricsSink>(
    fleet: &Fleet,
    router: Router,
    clock: C,
    queries: &[Query],
    sink: &mut S,
    pulse: &mut M,
) -> (Report, SimTime) {
    assert_nonempty_queries(queries);
    let mut events = EventQueue::new();
    for (idx, q) in queries.iter().enumerate() {
        events.push(secs_to_ns(q.arrival_s), Ev::Arrival { idx });
    }
    // Fleet-pulse ticks fire before each model-clock event, so a sample
    // at T reflects every state change strictly before T and none at
    // or after it. Times rebase to the stream's first arrival.
    let epoch = (queries.iter())
        .map(|q| secs_to_ns(q.arrival_s))
        .min()
        .expect("non-empty stream");
    if M::ENABLED {
        pulse.set_epoch(epoch);
    }
    let tick_ns = pulse.interval_ns().max(1);
    let run = Serving {
        queries,
        queue_bound: fleet.opts.batching.queue_bound,
        shard: fleet.shard,
        stats: StreamStats::new(queries, fleet.opts.warmup_frac, fleet.tenants.len()),
        router,
        nodes: fleet.setups.iter().map(|s| Node::new(fleet, s)).collect(),
        events,
        clock,
        arrived: 0,
        sink,
        pulse,
        tick_ns,
        next_tick: epoch + tick_ns,
    };
    run.run(fleet)
}

impl<C: RunClock, S: TraceSink, M: MetricsSink> Serving<'_, C, S, M> {
    fn run(mut self, fleet: &Fleet) -> (Report, SimTime) {
        let mut last = 0;
        loop {
            let idle = self.arrived == self.queries.len() && self.stats.is_idle();
            let Some((now, ev)) = self.clock.next_event(&mut self.events, idle) else {
                break;
            };
            last = now;
            if C::PRICED || !matches!(ev, Ev::CpuDone(_)) {
                self.fire_ticks(now);
            }
            let touched = match ev {
                Ev::Arrival { idx } => self.on_arrival(now, idx),
                Ev::Coalesce { node: n, tenant: t } => {
                    let batcher = &mut self.nodes[n].lanes[t].batcher;
                    let deadline_before = batcher.deadline();
                    let mut out = Vec::new();
                    batcher.flush_due(now, &mut out);
                    self.queue_batches(now, n, t, out, deadline_before);
                    n
                }
                Ev::CpuDone(done) => self.on_cpu_done(now, done),
                Ev::GpuDone { node: n, qid } => {
                    self.router.part_done(NodeId(n));
                    let items = self.stats.remaining_items(qid);
                    self.credit(now, qid, items);
                    n
                }
                Ev::ExchangeDone { node: n, qid } => {
                    match self.clock.tail(qid) {
                        None => {
                            let f = self.stats.finish_exchanged(now, qid);
                            debug_assert_eq!(f.node, n, "merge fired at a non-home node");
                            self.settle(now, &f);
                        }
                        Some((size, held)) => {
                            let job = Job::new(Work::Tail { qid, size }, now, held);
                            self.enqueue(n, 0, job);
                            self.dispatch(now, n);
                        }
                    }
                    n
                }
            };
            for t in 0..self.nodes[touched].lanes.len() {
                if std::mem::take(&mut self.nodes[touched].lanes[t].policy_dirty) {
                    self.retune(now, touched, t);
                }
            }
        }

        debug_assert!(
            self.router.is_idle(),
            "a router gauge did not return to zero"
        );
        let node_queries = self.router.dispatched().to_vec();
        let totals = self.clock.finish_run(last);
        let end_ns = totals.end_ns;
        let offered_qps = stream_offered_qps(self.queries);
        let mut report = assemble_report(
            fleet,
            self.stats,
            self.nodes,
            totals,
            node_queries,
            offered_qps,
        );
        if S::ENABLED {
            report.stage_breakdown = self.sink.breakdown();
        }
        if M::ENABLED {
            report.pulse = self.pulse.summary();
        }
        (report, end_ns)
    }

    /// Fires every fleet-pulse tick due at or before `at`, sampling
    /// each node's gauges: its queue depth, the offload device's
    /// backlog, each lane's knobs and banked DRR deficit, and the
    /// clock's own.
    fn fire_ticks(&mut self, at: SimTime) {
        if !M::ENABLED {
            return;
        }
        while self.next_tick <= at {
            let (pulse, tick) = (&mut *self.pulse, self.next_tick);
            for (n, node) in self.nodes.iter().enumerate() {
                let depth = self.clock.queue_depth(n, node.ready_total);
                pulse.gauge(&format!("queue_depth_n{n}"), depth as f64);
                if let Some(g) = &node.gpu {
                    let backlog = g.busy_until().saturating_sub(tick) as f64;
                    pulse.gauge(&format!("gpu_backlog_ns_n{n}"), backlog);
                    pulse.gauge(&format!("gpu_completed_n{n}"), g.completed() as f64);
                }
                for (t, &deficit) in node.arbiter.deficits().iter().enumerate() {
                    let pol = node.lanes[t].policy();
                    pulse.gauge(&format!("max_batch_n{n}_t{t}"), pol.max_batch as f64);
                    let threshold = pol.gpu_threshold.map_or(-1.0, f64::from);
                    pulse.gauge(&format!("gpu_threshold_n{n}_t{t}"), threshold);
                    pulse.gauge(&format!("drr_deficit_n{n}_t{t}"), deficit as f64);
                }
                self.clock.sample_gauges(pulse, n);
            }
            pulse.tick(tick);
            self.next_tick += self.tick_ns;
        }
    }

    /// Routes arrival `idx` to a node and offloads, batches or (sharded)
    /// fans it out there; returns the node whose controller saw it.
    fn on_arrival(&mut self, now: SimTime, idx: usize) -> usize {
        self.arrived += 1;
        let q = self.queries[idx];
        let t = q.tenant.index();
        let NodeId(home) = self.router.route(q.tenant, q.size);
        if let Some(sh) = self.shard {
            self.on_sharded_arrival(now, &q, home, sh);
            return home;
        }
        self.stats.note_arrival(now, &q, home, 1, 0, 0);
        let node = &mut self.nodes[home];
        let lane = &mut node.lanes[t];
        if let Some(c) = &mut lane.controller {
            c.on_arrival(now);
        }
        let offloads = lane.policy().offloads(q.size);
        if let Some(gpu) = node.gpu.as_mut().filter(|_| offloads) {
            // Whole-query offload: device service starts at `start`
            // (later than `now` when the FIFO queued it).
            let (start, done) = gpu.schedule_timed(now, t, q.size);
            self.stats.note_offload(q.id, start);
            let ev = Ev::GpuDone {
                node: home,
                qid: q.id,
            };
            self.events.push(done, ev);
        } else {
            let formed = self.push(now, home, &q);
            self.router.fanned_out(NodeId(home), formed);
        }
        home
    }

    /// Fans sharded query `q` out to every shard node; the home (the
    /// router's pick) owns its control signal (the partials just gather
    /// on the shard nodes) and merges it. The
    /// fabric-only share of the merge feeds the exchange counters; a
    /// peer-less plan exchanges nothing.
    fn on_sharded_arrival(&mut self, now: SimTime, q: &Query, home: usize, sh: &ShardGeometry) {
        let t = q.tenant.index();
        let exchange_us = sh.exchange_us(home, q.size);
        let exchange_ns = if exchange_us > 0.0 {
            us_to_ns(exchange_us)
        } else {
            0
        };
        let merge_ns = self.clock.merge_ns(sh, q, home, exchange_ns);
        let holders = sh.shard_nodes();
        let fanout = holders.len() as u32;
        (self.stats).note_arrival(now, q, home, fanout, exchange_ns, merge_ns);
        if let Some(c) = &mut self.nodes[home].lanes[t].controller {
            c.on_arrival(now);
        }
        match self.clock.gathers(q, holders) {
            Some(gathers) => {
                for (&n, held) in holders.iter().zip(gathers) {
                    let (qid, size) = (q.id, q.size);
                    self.enqueue(n, t, Job::new(Work::Gather { qid, size }, now, held));
                    self.dispatch(now, n);
                }
            }
            None => {
                for &n in holders {
                    self.push(now, n, q);
                }
            }
        }
    }

    /// Batches/splits `q` (a whole query, or one shard's partial) onto
    /// its lane on node `n` and queues what that formed; returns how
    /// many batches it formed.
    fn push(&mut self, now: SimTime, n: usize, q: &Query) -> usize {
        let t = q.tenant.index();
        let lane = &mut self.nodes[n].lanes[t];
        let deadline_before = lane.batcher.deadline();
        let max_batch = lane.policy().max_batch;
        let mut batches = Vec::new();
        lane.batcher.set_max_batch(max_batch, &mut batches);
        lane.batcher.push(now, q.id, q.size, &mut batches);
        let formed = batches.len();
        self.queue_batches(now, n, t, batches, deadline_before);
        formed
    }

    /// Queues batches formed at `now` on node `n`'s lane `t`, arms a
    /// coalesce flush when they left a new window open, and dispatches.
    fn queue_batches(
        &mut self,
        now: SimTime,
        n: usize,
        t: usize,
        batches: Vec<Batch>,
        deadline_before: Option<SimTime>,
    ) {
        for b in batches {
            self.enqueue(n, t, Job::new(Work::Batch(b), now, C::Held::default()));
        }
        self.arm_coalesce(n, t, deadline_before);
        self.dispatch(now, n);
    }

    /// Schedules lane `t`'s coalesce flush when its deadline moved; an
    /// unchanged deadline already has its event.
    fn arm_coalesce(&mut self, n: usize, t: usize, deadline_before: Option<SimTime>) {
        match self.nodes[n].lanes[t].batcher.deadline() {
            Some(d) if deadline_before != Some(d) => {
                self.events.push(d, Ev::Coalesce { node: n, tenant: t })
            }
            _ => {}
        }
    }

    /// Queues `job` on node `n`'s lane `t`. The bound spans all lanes:
    /// the pool is shared, so one tenant's backlog is every tenant's
    /// pressure.
    fn enqueue(&mut self, n: usize, t: usize, job: Job<C::Held>) {
        let node = &mut self.nodes[n];
        if C::BOUND_AT_ENQUEUE && node.ready_total >= self.queue_bound {
            node.backpressure_stalls += 1;
        }
        node.ready[t].push_back(job);
        node.ready_total += 1;
    }

    /// Grants node `n`'s pool in DRR order while the clock can start
    /// work. A refusal refunds the grant and puts the job back at its
    /// lane's head.
    fn dispatch(&mut self, now: SimTime, n: usize) {
        while self.clock.can_start(n) {
            let node = &mut self.nodes[n];
            let Some((t, job)) = node.arbiter.next(&mut node.ready, |j| j.work.items()) else {
                break;
            };
            node.ready_total -= 1;
            if M::ENABLED {
                self.pulse.drr_round(now, n, t, node.arbiter.deficits());
            }
            if let Err((job, first)) = self.clock.start(n, t, job, now, &mut self.events) {
                let node = &mut self.nodes[n];
                if first {
                    node.backpressure_stalls += 1;
                }
                node.arbiter.refund(t, job.work.items());
                node.ready[t].push_front(job);
                node.ready_total += 1;
                break;
            }
        }
        let node = &mut self.nodes[n];
        let depth = self.clock.queue_depth(n, node.ready_total);
        node.max_queue_depth = node.max_queue_depth.max(depth);
    }

    /// CPU work finished: credit its items, hand its batch's buffer
    /// back to the lane, and refill the pool.
    fn on_cpu_done(&mut self, now: SimTime, done: C::Done) -> usize {
        let (n, t, job) = self.clock.finish(done, now);
        self.router.part_done(NodeId(n));
        match job.work {
            Work::Batch(batch) => {
                for seg in &batch.segments {
                    (self.stats).span_batch(seg.query_id, job.formed, job.dispatched);
                    self.credit(now, seg.query_id, seg.items);
                }
                self.nodes[n].lanes[t].batcher.recycle(batch);
            }
            Work::Gather { qid, size } => self.credit(now, qid, size),
            Work::Tail { qid, .. } => {
                let f = self.stats.finish_exchanged(now, qid);
                debug_assert_eq!(f.node, n, "dense tail ran off the home node");
                self.settle(now, &f);
            }
        }
        self.dispatch(now, n);
        n
    }

    /// Credits `items` of query `qid` as done at `now`; its last item
    /// settles the query, or — sharded — starts its exchange.
    fn credit(&mut self, now: SimTime, qid: u64, items: u32) {
        match self.stats.credit_items(now, qid, items) {
            Credit::Pending => {}
            Credit::Done(f) => self.settle(now, &f),
            Credit::AwaitExchange { home, delay } => {
                (self.events).push(now + delay, Ev::ExchangeDone { node: home, qid })
            }
        }
    }

    /// The epilogue every completion path ends in: feeds the latency to
    /// the home lane's controller, drains the retune decisions that
    /// provoked (into the pulse's log when it is on), records the query
    /// (settled-tail too once that controller is settled), and releases
    /// the router's gauge.
    fn settle(&mut self, now: SimTime, f: &FinishedQuery) {
        let lane = &mut self.nodes[f.node].lanes[f.tenant];
        let settled = match &mut lane.controller {
            Some(c) => {
                lane.policy_dirty |= c.on_complete(now, f.latency_ms);
                // Only `on_complete` commits decisions, so this lane
                // holds every one not yet logged. Drained either way:
                // an un-pulsed run has no log to keep them for.
                let decisions = c.drain_decisions();
                if M::ENABLED {
                    for mut d in decisions {
                        (d.node, d.tenant) = (f.node, f.tenant);
                        self.pulse.decision(d);
                    }
                }
                c.is_settled()
            }
            None => true,
        };
        (self.stats).record(now, f, settled, self.sink, self.pulse);
        self.router.complete(NodeId(f.node));
    }

    /// Lane `t`'s controller retuned: the lane re-reads its policy and
    /// repacks its queued batches followed by its open coalesce
    /// residual at the new knob (the residual's items arrived after the
    /// backlog's, and `reform` keeps per-query item order), so old work
    /// drains at the new knob's cost and nothing waits out a window
    /// formed under the old one. Repacked work re-forms *now* (its
    /// coalesce credit was earned under the old knob) and is the same
    /// queued work, not new pressure. Should a reform path ever leave a
    /// live deadline, it is re-armed against the new one. Shard work is
    /// per query, never batched: it keeps its place.
    fn retune(&mut self, now: SimTime, n: usize, t: usize) {
        let node = &mut self.nodes[n];
        let lane = &mut node.lanes[t];
        let deadline_before = lane.batcher.deadline();
        let mut queued = Vec::new();
        for job in std::mem::take(&mut node.ready[t]) {
            match job.work {
                Work::Batch(b) => queued.push(b),
                _ => node.ready[t].push_back(job),
            }
        }
        node.ready_total -= queued.len();
        let max_batch = lane.policy().max_batch;
        lane.batcher.set_max_batch(max_batch, &mut queued);
        lane.batcher.flush_all(&mut queued);
        let mut out = Vec::new();
        lane.batcher.reform(queued, &mut out);
        node.ready_total += out.len();
        let repacked = out
            .into_iter()
            .map(|b| Job::new(Work::Batch(b), now, C::Held::default()));
        node.ready[t].extend(repacked);
        self.arm_coalesce(n, t, deadline_before);
        self.dispatch(now, n);
    }
}

/// A virtual-time CPU completion: the batch in `slot` of `node`'s
/// in-flight table.
pub(crate) struct SlotDone {
    node: usize,
    tenant: usize,
    slot: usize,
}

/// One node's virtual worker pool.
struct Pool {
    cpu: CpuPlatform,
    workers: usize,
    busy: usize,
    /// Jobs on a worker, by slot (the slot rides in the [`SlotDone`]);
    /// `free` lists the empty slots.
    inflight: Vec<Option<Job<()>>>,
    free: Vec<usize>,
    /// Under a shard plan, this node's share of the model's gather
    /// traffic: its batches cost [`ModelCost::shard_gather_request_us`]
    /// instead of the whole request.
    gather_fraction: Option<f64>,
    last_ns: SimTime,
    busy_core_ns: u128,
}

impl Pool {
    /// Advances the busy-core integral to `now`.
    #[inline]
    fn advance(&mut self, now: SimTime) {
        self.busy_core_ns += now.saturating_sub(self.last_ns) as u128 * self.busy as u128;
        self.last_ns = now;
    }
}

/// Deterministic virtual time: events pop off the queue, and CPU
/// batches complete after the service [`ModelCost`] prices them at.
pub(crate) struct Virtual<'a> {
    costs: &'a [ModelCost],
    pools: Vec<Pool>,
}

impl<'a> Virtual<'a> {
    pub fn new(fleet: &Fleet<'a>) -> Self {
        let pools = (fleet.setups.iter().enumerate())
            .map(|(i, s)| Pool {
                cpu: s.cpu,
                workers: s.workers,
                busy: 0,
                inflight: Vec::new(),
                free: Vec::new(),
                gather_fraction: fleet.shard.map(|sh| sh.gather_fraction(i)),
                last_ns: 0,
                busy_core_ns: 0,
            })
            .collect();
        Virtual {
            costs: fleet.costs,
            pools,
        }
    }
}

// The `#[inline]` hints on the virtual clock's per-event methods (and on
// `Pool::advance`, `Work::items`, `Job::new`) keep them in the loop: LLVM
// left them out-of-line without, and the tuner (`tune_s`, all virtual
// replays) ran ~10 % slower than the two-driver code it replaced.
impl RunClock for Virtual<'_> {
    type Held = ();
    type Done = SlotDone;
    const PRICED: bool = true;
    const BOUND_AT_ENQUEUE: bool = true;

    #[inline]
    fn next_event(
        &mut self,
        events: &mut EventQueue<Ev<SlotDone>>,
        _idle: bool,
    ) -> Option<(SimTime, Ev<SlotDone>)> {
        events.pop()
    }

    #[inline]
    fn can_start(&self, n: usize) -> bool {
        self.pools[n].busy < self.pools[n].workers
    }

    #[inline]
    fn start(
        &mut self,
        n: usize,
        t: usize,
        mut job: Job<()>,
        now: SimTime,
        events: &mut EventQueue<Ev<SlotDone>>,
    ) -> Result<(), (Job<()>, bool)> {
        let pool = &mut self.pools[n];
        pool.advance(now);
        pool.busy += 1;
        job.dispatched = now;
        // The one place a CPU batch is priced.
        let items = job.work.items() as usize;
        let service = match pool.gather_fraction {
            Some(f) => self.costs[t].shard_gather_request_us(&pool.cpu, items, pool.busy, f),
            None => self.costs[t].cpu_request_us(&pool.cpu, items, pool.busy),
        };
        let slot = pool.free.pop().unwrap_or_else(|| {
            pool.inflight.push(None);
            pool.inflight.len() - 1
        });
        pool.inflight[slot] = Some(job);
        let done = SlotDone {
            node: n,
            tenant: t,
            slot,
        };
        events.push(now + us_to_ns(service), Ev::CpuDone(done));
        Ok(())
    }

    #[inline]
    fn finish(&mut self, done: SlotDone, now: SimTime) -> (usize, usize, Job<()>) {
        let pool = &mut self.pools[done.node];
        pool.advance(now);
        pool.busy -= 1;
        pool.free.push(done.slot);
        let job = pool.inflight[done.slot]
            .take()
            .expect("live in-flight slot");
        (done.node, done.tenant, job)
    }

    /// The exchange plus the dense tail, priced.
    fn merge_ns(&self, sh: &ShardGeometry, q: &Query, home: usize, _exchange: SimTime) -> SimTime {
        let (cost, cpu) = (&self.costs[q.tenant.index()], &self.pools[home].cpu);
        us_to_ns(sh.merge_delay_us(cost, cpu, home, q.size))
    }

    fn finish_run(mut self, last: SimTime) -> ClockTotals {
        for pool in &mut self.pools {
            pool.advance(last);
            debug_assert!(
                pool.inflight.iter().all(Option::is_none) && pool.free.len() == pool.inflight.len(),
                "a batch is still in flight after the last event"
            );
        }
        // Each node's busy core-ns integral over the run's horizon; the
        // fleet figure is the mean over nodes.
        let end = last.max(1) as f64;
        let per_node: Vec<f64> = (self.pools.iter())
            .map(|p| p.busy_core_ns as f64 / (p.workers.max(1) as f64 * end))
            .collect();
        let overall = per_node.iter().sum::<f64>() / per_node.len().max(1) as f64;
        ClockTotals {
            cpu_usage: CpuUsage { per_node, overall },
            end_ns: last,
            ctrs: Vec::new(),
        }
    }
}
