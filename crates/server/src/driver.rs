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
//! * **the next event** — taking the head of the run's [`Events`], or
//!   pacing it by the wall clock and blocking on the engines' fan-in
//!   channel meanwhile. Both hand events out in [`Events`]' order: by
//!   stamp, arrivals before timers at equal stamps, arrivals in slice
//!   order, timers FIFO. So batch formation, and every offload-all run,
//!   matches virtual time by construction;
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
//!
//! The next event is either the arrival under a cursor into the
//! arrival-ordered stream or the head of the [`EventQueue`], which
//! holds only timers (coalesce flushes and completions). The loop's
//! state keys every query by its position in the stream, so a run's
//! memory and its cost per event follow the queries in flight, not the
//! stream's length; a steady-state query allocates nothing.

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
    assert_servable_queries, secs_to_ns, stream_offered_qps, us_to_ns, EventQueue, NodeId, Report,
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
/// Queries are named by their position in the stream (`pos`).
pub(crate) enum Ev<D> {
    /// Only [`Events`]' cursor hands these out; none is ever queued.
    Arrival {
        pos: usize,
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
        pos: usize,
    },
    /// A sharded query's exchange (+ priced merge) finished at its home
    /// node.
    ExchangeDone {
        node: usize,
        pos: usize,
    },
}

/// A run's event source: a cursor over the arrival-ordered stream for
/// arrivals, and an [`EventQueue`] for timers. The next event is the
/// cursor's arrival when its stamp is at or before the queue head's,
/// else the head. That is the order one queue holding every arrival,
/// pushed first, would give — arrivals in slice order, ahead of every
/// timer of an equal stamp — without an N-entry heap or a sort.
pub(crate) struct Events<'q, D> {
    queries: &'q [Query],
    /// The next arrival's position in `queries`.
    next: usize,
    timers: EventQueue<Ev<D>>,
}

impl<'q, D> Events<'q, D> {
    /// Arrivals from `queries` (non-decreasing `arrival_s`, checked by
    /// [`drs_core::assert_servable_queries`]), no timers yet.
    fn new(queries: &'q [Query]) -> Self {
        Events {
            queries,
            next: 0,
            timers: EventQueue::new(),
        }
    }

    /// Schedules a timer at `at`.
    #[inline]
    pub fn push(&mut self, at: SimTime, ev: Ev<D>) {
        debug_assert!(
            !matches!(ev, Ev::Arrival { .. }),
            "arrivals are the cursor's"
        );
        self.timers.push(at, ev);
    }

    /// The next arrival's stamp, while arrivals remain.
    #[inline]
    fn arrival_stamp(&self) -> Option<SimTime> {
        (self.queries.get(self.next)).map(|q| secs_to_ns(q.arrival_s))
    }

    /// Whether the next event is the cursor's arrival, and its stamp.
    #[inline]
    fn head(&self) -> Option<(SimTime, bool)> {
        match (self.arrival_stamp(), self.timers.peek()) {
            (Some(a), Some((t, _))) if a > t => Some((t, false)),
            (Some(a), _) => Some((a, true)),
            (None, timer) => timer.map(|(t, _)| (t, false)),
        }
    }

    /// The next event's stamp and whether it is a GPU completion,
    /// without taking it.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, bool)> {
        let (at, arrival) = self.head()?;
        let gpu = !arrival && matches!(self.timers.peek(), Some((_, Ev::GpuDone { .. })));
        Some((at, gpu))
    }

    /// Takes the next event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Ev<D>)> {
        match self.head()? {
            (at, true) => {
                let pos = self.next;
                self.next += 1;
                Some((at, Ev::Arrival { pos }))
            }
            (_, false) => self.timers.pop(),
        }
    }

    /// Whether every arrival has been handed out.
    #[inline]
    fn arrivals_done(&self) -> bool {
        self.next == self.queries.len()
    }
}

/// What one unit of CPU work computes.
pub(crate) enum Work {
    /// A tenant lane's batch; its segments name queries by position.
    Batch(Batch),
    /// One shard node's embedding gather for the sharded query at `pos`.
    Gather { pos: usize, size: u32 },
    /// The dense tail of the sharded query at `pos`, on its home node.
    Tail { pos: usize, size: u32 },
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
        events: &mut Events<'_, Self::Done>,
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
        events: &mut Events<'_, Self::Done>,
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

    /// Per-query gathers for sharded query `q` at stream position
    /// `pos`, one per holder; `None` batches its partials through the
    /// lanes.
    fn gathers(&mut self, _pos: usize, _q: &Query, _holders: &[usize]) -> Option<Vec<Self::Held>> {
        None
    }

    /// The exchange of the query at `pos` finished: its dense tail as
    /// `(items, request)` to run at the home, or `None` when the merge
    /// delay priced it.
    fn tail(&mut self, _pos: usize) -> Option<(u32, Self::Held)> {
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
    events: Events<'a, C::Done>,
    clock: C,
    /// The batches a lane formed or re-formed, and a retuned lane's
    /// queued backlog: buffers the loop reuses instead of allocating
    /// per arrival, flush or retune.
    formed: Vec<Batch>,
    backlog: Vec<Batch>,
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
    assert_servable_queries(queries);
    // Fleet-pulse ticks fire before each model-clock event, so a sample
    // at T reflects every state change strictly before T and none at
    // or after it. Times rebase to the stream's first arrival, which
    // is its earliest: the stream is arrival-ordered.
    let epoch = secs_to_ns(queries[0].arrival_s);
    if M::ENABLED {
        pulse.set_epoch(epoch);
    }
    let tick_ns = pulse.interval_ns().max(1);
    let run = Serving {
        queries,
        queue_bound: fleet.opts.batching.queue_bound,
        shard: fleet.shard,
        stats: StreamStats::new(queries, fleet),
        router,
        nodes: fleet.setups.iter().map(|s| Node::new(fleet, s)).collect(),
        events: Events::new(queries),
        clock,
        formed: Vec::new(),
        backlog: Vec::new(),
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
            let idle = self.events.arrivals_done() && self.stats.is_idle();
            let Some((now, ev)) = self.clock.next_event(&mut self.events, idle) else {
                break;
            };
            last = now;
            if C::PRICED || !matches!(ev, Ev::CpuDone(_)) {
                self.fire_ticks(now);
            }
            let touched = match ev {
                Ev::Arrival { pos } => self.on_arrival(now, pos),
                Ev::Coalesce { node: n, tenant: t } => {
                    let batcher = &mut self.nodes[n].lanes[t].batcher;
                    let deadline_before = batcher.deadline();
                    batcher.flush_due(now, &mut self.formed);
                    self.queue_batches(now, n, t, deadline_before);
                    n
                }
                Ev::CpuDone(done) => self.on_cpu_done(now, done),
                Ev::GpuDone { node: n, pos } => {
                    self.router.part_done(NodeId(n));
                    let items = self.stats.remaining_items(pos);
                    self.credit(now, pos, items);
                    n
                }
                Ev::ExchangeDone { node: n, pos } => {
                    match self.clock.tail(pos) {
                        None => {
                            let f = self.stats.finish_exchanged(now, pos);
                            debug_assert_eq!(f.node, n, "merge fired at a non-home node");
                            self.settle(now, &f);
                        }
                        Some((size, held)) => {
                            let job = Job::new(Work::Tail { pos, size }, now, held);
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

    /// Routes the arrival at `pos` to a node and offloads, batches or
    /// (sharded) fans it out there; returns the node whose controller
    /// saw it.
    fn on_arrival(&mut self, now: SimTime, pos: usize) -> usize {
        let q = self.queries[pos];
        let t = q.tenant.index();
        let NodeId(home) = self.router.route(q.tenant, q.size);
        if let Some(sh) = self.shard {
            self.on_sharded_arrival(now, pos, &q, home, sh);
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
            self.stats.note_offload(pos, start);
            self.events.push(done, Ev::GpuDone { node: home, pos });
        } else {
            let formed = self.push(now, home, pos, &q);
            self.router.fanned_out(NodeId(home), formed);
        }
        home
    }

    /// Fans sharded query `q` out to every shard node; the home (the
    /// router's pick) owns its control signal (the partials just gather
    /// on the shard nodes) and merges it. The
    /// fabric-only share of the merge feeds the exchange counters; a
    /// peer-less plan exchanges nothing.
    fn on_sharded_arrival(
        &mut self,
        now: SimTime,
        pos: usize,
        q: &Query,
        home: usize,
        sh: &ShardGeometry,
    ) {
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
        match self.clock.gathers(pos, q, holders) {
            Some(gathers) => {
                for (&n, held) in holders.iter().zip(gathers) {
                    let size = q.size;
                    self.enqueue(n, t, Job::new(Work::Gather { pos, size }, now, held));
                    self.dispatch(now, n);
                }
            }
            None => {
                for &n in holders {
                    self.push(now, n, pos, q);
                }
            }
        }
    }

    /// Batches/splits `q` (a whole query, or one shard's partial) onto
    /// its lane on node `n`, keyed by its stream position `pos`, and
    /// queues what that formed; returns how many batches it formed.
    fn push(&mut self, now: SimTime, n: usize, pos: usize, q: &Query) -> usize {
        let t = q.tenant.index();
        let lane = &mut self.nodes[n].lanes[t];
        let deadline_before = lane.batcher.deadline();
        let max_batch = lane.policy().max_batch;
        lane.batcher.set_max_batch(max_batch, &mut self.formed);
        lane.batcher.push(now, pos as u64, q.size, &mut self.formed);
        let formed = self.formed.len();
        self.queue_batches(now, n, t, deadline_before);
        formed
    }

    /// Queues the batches in `self.formed` (formed at `now` on node
    /// `n`'s lane `t`), arms a coalesce flush when they left a new
    /// window open, and dispatches.
    fn queue_batches(
        &mut self,
        now: SimTime,
        n: usize,
        t: usize,
        deadline_before: Option<SimTime>,
    ) {
        let mut formed = std::mem::take(&mut self.formed);
        for b in formed.drain(..) {
            self.enqueue(n, t, Job::new(Work::Batch(b), now, C::Held::default()));
        }
        self.formed = formed;
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
                    // The loop keys batch segments by stream position.
                    let pos = seg.query_id as usize;
                    (self.stats).span_batch(pos, job.formed, job.dispatched);
                    self.credit(now, pos, seg.items);
                }
                self.nodes[n].lanes[t].batcher.recycle(batch);
            }
            Work::Gather { pos, size } => self.credit(now, pos, size),
            Work::Tail { pos, .. } => {
                let f = self.stats.finish_exchanged(now, pos);
                debug_assert_eq!(f.node, n, "dense tail ran off the home node");
                self.settle(now, &f);
            }
        }
        self.dispatch(now, n);
        n
    }

    /// Credits `items` of the query at `pos` as done at `now`; its last
    /// item settles the query, or — sharded — starts its exchange.
    fn credit(&mut self, now: SimTime, pos: usize, items: u32) {
        match self.stats.credit_items(now, pos, items) {
            Credit::Pending => {}
            Credit::Done(f) => self.settle(now, &f),
            Credit::AwaitExchange { home, delay } => {
                (self.events).push(now + delay, Ev::ExchangeDone { node: home, pos })
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
                for mut d in c.drain_decisions() {
                    if M::ENABLED {
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
        let queued = &mut self.backlog;
        // One turn round the lane: its batches leave it in order, its
        // shard work goes back in order.
        for _ in 0..node.ready[t].len() {
            let job = node.ready[t].pop_front().expect("counted");
            match job.work {
                Work::Batch(b) => queued.push(b),
                _ => node.ready[t].push_back(job),
            }
        }
        node.ready_total -= queued.len();
        let max_batch = lane.policy().max_batch;
        lane.batcher.set_max_batch(max_batch, queued);
        lane.batcher.flush_all(queued);
        lane.batcher.reform(queued.drain(..), &mut self.formed);
        node.ready_total += self.formed.len();
        let repacked =
            (self.formed.drain(..)).map(|b| Job::new(Work::Batch(b), now, C::Held::default()));
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
        events: &mut Events<'_, SlotDone>,
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
        events: &mut Events<'_, SlotDone>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use drs_query::TenantId;

    /// A stream arriving at `stamps_ns`.
    fn stream(stamps_ns: &[SimTime]) -> Vec<Query> {
        (stamps_ns.iter().enumerate())
            .map(|(i, &ns)| Query {
                id: 100 + i as u64,
                size: 1,
                arrival_s: ns as f64 / 1e9,
                tenant: TenantId::SOLO,
            })
            .collect()
    }

    /// A timer labelled `k`.
    fn timer(k: u32) -> Ev<u32> {
        Ev::CpuDone(k)
    }

    /// `ev` as `a<pos>` (arrival) or `t<k>` (timer `k`).
    fn label(ev: &Ev<u32>) -> String {
        match ev {
            Ev::Arrival { pos } => format!("a{pos}"),
            Ev::CpuDone(k) => format!("t{k}"),
            _ => unreachable!("the tests queue only CPU timers"),
        }
    }

    fn drain(events: &mut Events<'_, u32>) -> Vec<(SimTime, String)> {
        std::iter::from_fn(|| events.pop())
            .map(|(at, ev)| (at, label(&ev)))
            .collect()
    }

    fn order(events: &mut Events<'_, u32>) -> Vec<String> {
        drain(events).into_iter().map(|(_, l)| l).collect()
    }

    #[test]
    fn equal_stamp_arrivals_leave_in_slice_order() {
        let qs = stream(&[1_000, 1_000, 1_000, 2_000, 2_000]);
        let mut events: Events<'_, u32> = Events::new(&qs);
        let got = drain(&mut events);
        let want: Vec<(SimTime, String)> = [(1_000, "a0"), (1_000, "a1"), (1_000, "a2")]
            .into_iter()
            .chain([(2_000, "a3"), (2_000, "a4")])
            .map(|(at, l)| (at, l.to_string()))
            .collect();
        assert_eq!(got, want);
        assert!(events.arrivals_done());
    }

    #[test]
    fn arrivals_leave_before_timers_of_their_stamp() {
        let qs = stream(&[1_000, 3_000]);
        let mut events = Events::new(&qs);
        events.push(1_000, timer(0));
        events.push(500, timer(1));
        events.push(3_000, timer(2));
        assert_eq!(order(&mut events), ["t1", "a0", "t0", "a1", "t2"]);
    }

    #[test]
    fn timers_stay_fifo() {
        let qs = stream(&[0]);
        let mut events = Events::new(&qs);
        for k in 0..5 {
            events.push(700, timer(k));
        }
        events.push(600, timer(5));
        assert_eq!(
            order(&mut events),
            ["a0", "t5", "t0", "t1", "t2", "t3", "t4"]
        );
    }

    #[test]
    fn new_queues_nothing() {
        let stamps: Vec<SimTime> = (0..1_000).map(|i| i * 10).collect();
        let qs = stream(&stamps);
        let events: Events<'_, u32> = Events::new(&qs);
        assert!(events.timers.is_empty(), "arrivals stay in the stream");
        assert_eq!(events.peek(), Some((0, false)));
    }

    #[test]
    fn peek_flags_only_a_gpu_completion_at_the_head() {
        let qs = stream(&[1_000]);
        let mut events: Events<'_, u32> = Events::new(&qs);
        events.push(1_000, Ev::GpuDone { node: 0, pos: 0 });
        assert_eq!(
            events.peek(),
            Some((1_000, false)),
            "the arrival leaves first"
        );
        events.pop();
        assert_eq!(events.peek(), Some((1_000, true)));
    }

    /// The cursor gives the order of the one queue it replaced, where
    /// every arrival was pushed before the run started: on a stream
    /// with ties, and timers pushed after each pop at or after the
    /// popped stamp, often on an arrival's stamp.
    #[test]
    fn cursor_matches_one_queue_holding_every_arrival() {
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        let mut at = 0;
        let stamps: Vec<SimTime> = (0..300)
            .map(|_| {
                at += next(3) * 100;
                at
            })
            .collect();
        let qs = stream(&stamps);
        let mut events = Events::new(&qs);
        let mut one = EventQueue::new();
        for (pos, &ns) in stamps.iter().enumerate() {
            one.push(ns, Ev::<u32>::Arrival { pos });
        }
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut k = 0;
        while let Some((now, ev)) = events.pop() {
            let (then, old) = one.pop().expect("as many events");
            got.push((now, label(&ev)));
            want.push((then, label(&old)));
            for _ in 0..next(3) {
                let at = now + next(4) * 100;
                events.push(at, timer(k));
                one.push(at, timer(k));
                k += 1;
            }
        }
        assert!(one.is_empty());
        assert!(k > 100, "timers interleave with the arrivals");
        assert_eq!(got, want);
    }
}
