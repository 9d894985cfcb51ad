//! The wall-clock runtime: the one pacing loop behind
//! [`crate::Cluster::serve`] on [`crate::Serve::real`] (and so behind
//! [`crate::Server`], its one-node case).
//!
//! The counterpart of [`node::serve_virtual_multi`] on physical
//! threads: N [`RealNode`]s behind a [`Router`], each with its own
//! [`InferenceEngine`] pool, paced by one wall→model clock. A `Server`
//! is the N = 1 case; a sharded `Cluster` is a *work type* on the same
//! struct (its arrivals fan per-query gathers instead of batching, and
//! its completions join, exchange, and run a dense tail), not another
//! runtime.
//!
//! Three invariants hold the numbers this runtime reports together:
//!
//! * **Block, don't poll.** Every engine of a run sends its
//!   completions into one fan-in channel (tagged with the node that
//!   produced them), and the submitter's only wait is a `recv_timeout`
//!   on it, bounded by the next model-time wake-up. A completion is
//!   therefore handled when it happens, for one node or eight; a
//!   sleep-and-poll loop would add its poll interval to every batch's
//!   service stage.
//! * **GPU completions fire in global order at their scheduled time.**
//!   Offloads complete on the cost model's clock, so they drain from
//!   one fleet-wide heap in `(time, query id)` order strictly before
//!   the next arrival's due time and are stamped with the scheduled
//!   instant, never the wall-derived drain instant, with the pulse
//!   ticks due by then firing first. That is the virtual event queue's
//!   order exactly, which is what makes an offload-all real run equal
//!   its virtual twin bit for bit however the wall clock jitters.
//! * **A batch is dispatched when the engine admits it.** The
//!   residency stage ends at the `try_submit` that succeeds, read off
//!   the clock then: input generation for the batches granted before
//!   it in the same pass is queueing the batch really waited out.

use crate::batcher::Batch;
use crate::cluster::{sharded_query_inputs, Router};
use crate::node::{
    self, CpuUsage, Credit, DrrArbiter, FinishedQuery, NodeCore, NodeSetup, Route, RunOutcome,
    StreamStats, TenantSetup, TimedBatch,
};
use crate::server::ServerOptions;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use drs_core::{
    assert_nonempty_queries, secs_to_ns, stream_offered_qps, us_to_ns, NodeId, Report, SimTime,
};
use drs_engine::{EngineCompletion, EngineRequest, InferenceEngine};
use drs_models::{BatchInputs, RecModel};
use drs_nn::{ShardPartial, ShardedEmbeddingSet};
use drs_platform::{InterconnectModel, ModelCost};
use drs_query::Query;
use drs_shard::{ShardGeometry, ShardPlan};
use drs_telemetry::{MetricsSink, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// What one engine request stands for.
enum Work {
    /// A tenant lane's batch (whole-model serving).
    Batch(TimedBatch),
    /// One shard node's embedding gather for sharded query `qid`.
    Gather { qid: u64, size: u32 },
    /// Sharded query `qid`'s dense tail, on its home node.
    Tail { qid: u64, size: u32 },
}

impl Work {
    /// Items of pool service the request costs its lane's DRR bank.
    fn items(&self) -> u64 {
        match self {
            Work::Batch(tb) => tb.batch.items as u64,
            Work::Gather { size, .. } | Work::Tail { size, .. } => *size as u64,
        }
    }
}

/// One entry of a node's admission lane.
struct Pending {
    work: Work,
    /// The engine request, once built: shard work arrives with it; a
    /// batch's inputs are generated at its first admission attempt and
    /// kept across refusals.
    req: Option<EngineRequest>,
    /// Set by the engine's first refusal — retries of a held request
    /// are not fresh backpressure.
    refused: bool,
}

impl Pending {
    fn batch(batch: Batch, formed: SimTime) -> Self {
        Pending {
            work: Work::Batch(TimedBatch::formed_at(batch, formed)),
            req: None,
            refused: false,
        }
    }
}

/// One node's wall-clock execution state around its [`NodeCore`].
struct RealNode {
    core: NodeCore,
    /// The same deficit-round-robin lane arbiter the virtual node runs.
    arbiter: DrrArbiter,
    /// The node's worker pool; `None` on a node outside the shard
    /// plan, which holds no tables and receives no work.
    engine: Option<InferenceEngine>,
    /// Per-tenant requests awaiting engine admission, oldest first.
    pending: Vec<VecDeque<Pending>>,
    pending_total: usize,
    /// Sum of worker-side service durations (wall ns) — the node's CPU
    /// busy integral.
    busy_service_ns: u128,
}

impl RealNode {
    /// Unadmitted depth: the engine's queue plus held requests.
    fn queue_depth(&self) -> usize {
        self.engine.as_ref().map_or(0, |e| e.queue_depth()) + self.pending_total
    }
}

/// The two things that complete on the model-time clock rather than
/// on an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    /// A GPU offload finishing on the cost model's device clock.
    GpuDone,
    /// A sharded query's partials crossing the fabric to its home.
    ExchangeDone,
}

/// Join state of one in-flight sharded query: the inputs every shard
/// node gathers over, the partials collected so far, the merge home.
struct ShardJoin {
    inputs: BatchInputs,
    partials: Vec<ShardPartial>,
    home: usize,
}

/// What sharded serving adds to the runtime. Gathers go per query, not
/// through the lane coalescer — each query's partials then slice
/// cleanly for its own merge, which keeps the distributed forward
/// bit-identical to the local one (`tests/sharded_real.rs`) — so a
/// sharded run has no batches to re-form on a retune, and (its engine
/// work having no virtual-time twin to cross-validate against) samples
/// no tick series.
struct ShardState {
    geom: ShardGeometry,
    set: Arc<ShardedEmbeddingSet>,
    joins: BTreeMap<u64, ShardJoin>,
    /// `(query id, ctrs)` in completion order.
    outputs: Vec<(u64, Vec<f32>)>,
}

/// Wall-clock serving state of one run.
struct RealRuntime<'s, S: TraceSink, M: MetricsSink> {
    stats: StreamStats,
    router: Router,
    nodes: Vec<RealNode>,
    /// The fan-in completion channel: every node's engine sends into
    /// it, tagging completions with the node index.
    done: Receiver<EngineCompletion>,
    /// One model per tenant, in tenant order.
    models: Vec<Arc<RecModel>>,
    /// Serving seed: drives batch input generation (`rng`) and the
    /// sharded path's per-query inputs.
    seed: u64,
    rng: StdRng,
    /// Engine request ids — unique across nodes and tenant lanes
    /// (batch ids are per-lane and collide).
    next_req: u64,
    /// Admitted request id → what it computes.
    inflight: BTreeMap<u64, Work>,
    /// Model-time completions fleet-wide, earliest `(time, query id)`
    /// first — the virtual event queue's order.
    timers: BinaryHeap<Reverse<(SimTime, u64, Timer)>>,
    shard: Option<ShardState>,
    outstanding: usize,
    clock: WallClock,
    /// Where completed queries' lifecycle spans go.
    sink: &'s mut S,
    /// Where fleet-pulse samples, retune decisions, and DRR grants go.
    pulse: &'s mut M,
    /// Pulse sampling interval, model-time ns.
    tick_ns: SimTime,
    /// Next pulse tick due, on the model-time clock anchored at 0.
    next_tick: SimTime,
}

/// Serves `queries` across `setups.len()` nodes behind `router` on
/// real engine pools, `models[t]` serving tenant `t`; with `shard`
/// set, serves `models[0]` sharded table-wise per the plan, and the
/// report carries every query's predicted CTRs in completion order
/// ([`Report::ctrs`]).
///
/// # Panics
///
/// Panics if `queries` is empty or `models` does not provide exactly
/// one model per tenant.
#[expect(clippy::too_many_arguments)] // the one internal loop every real front shares
pub(crate) fn serve<S: TraceSink, M: MetricsSink>(
    costs: &[ModelCost],
    tenants: &[TenantSetup],
    setups: &[NodeSetup],
    opts: &ServerOptions,
    router: Router,
    shard: Option<&(ShardPlan, InterconnectModel)>,
    models: Vec<Arc<RecModel>>,
    queries: &[Query],
    sink: &mut S,
    pulse: &mut M,
) -> Report {
    assert_nonempty_queries(queries);
    assert_eq!(
        models.len(),
        tenants.len(),
        "one model per tenant: got {} models for {} tenants",
        models.len(),
        tenants.len()
    );
    let shard = shard.map(|(plan, net)| ShardState {
        geom: plan.geometry(*net),
        set: Arc::new(models[0].sharded_embeddings(&plan.dense_assignment())),
        joins: BTreeMap::new(),
        outputs: Vec::with_capacity(queries.len()),
    });
    let (tx, done) = unbounded();
    let nodes = setups
        .iter()
        .enumerate()
        .map(|(n, s)| {
            let start = |resident| {
                InferenceEngine::start_fan_in(models.clone(), resident, s.workers, tx.clone(), n)
                    .with_queue_bound(opts.batching.queue_bound)
            };
            RealNode {
                core: NodeCore::new(costs, tenants, s, opts),
                arbiter: DrrArbiter::new(tenants),
                // Whole-model serving runs an engine on every node; a
                // sharded fleet runs one where shard k's tables live
                // (the k-th shard-holding node).
                engine: match &shard {
                    None => Some(start(None)),
                    Some(sh) => (sh.geom.shard_nodes().iter())
                        .position(|&holder| holder == n)
                        .map(|k| start(Some((Arc::clone(&sh.set), k)))),
                },
                pending: tenants.iter().map(|_| VecDeque::new()).collect(),
                pending_total: 0,
                busy_service_ns: 0,
            }
        })
        .collect();
    // The engines now hold the only senders: should their workers ever
    // all exit, `done` disconnects instead of going quiet.
    drop(tx);
    // The pulse clock anchors at model-time 0 (the first arrival), so
    // the first tick lands one interval in — where the virtual loop's
    // first epoch-rebased tick lands.
    let tick_ns = pulse.interval_ns().max(1);
    let mut rt = RealRuntime {
        stats: StreamStats::new(queries.len(), opts.warmup_frac, tenants.len()),
        router,
        nodes,
        done,
        models,
        seed: opts.seed,
        rng: StdRng::seed_from_u64(opts.seed),
        next_req: 0,
        inflight: BTreeMap::new(),
        timers: BinaryHeap::new(),
        shard,
        outstanding: 0,
        clock: WallClock::start(opts.time_scale),
        sink: &mut *sink,
        pulse: &mut *pulse,
        tick_ns,
        next_tick: tick_ns,
    };
    // Shift arrivals by an integer nanosecond offset so the paced
    // clock starts near zero while staying exactly the virtual clock
    // minus a constant — per-query latencies then match the virtual
    // path bit for bit wherever service is cost-model priced.
    let base_ns = secs_to_ns(queries[0].arrival_s);

    for q in queries {
        let due = secs_to_ns(q.arrival_s) - base_ns; // model-time ns
        loop {
            rt.pump(due);
            let now = rt.clock.model_now();
            if now >= due {
                break;
            }
            rt.await_completion(now, due, Duration::MAX);
        }
        // Dispatch on the scheduled arrival clock: routing gauges, GPU
        // FIFOs, coalesce windows, and controllers see `due`, not the
        // submitter's overshoot.
        rt.outstanding += 1;
        if rt.shard.is_some() {
            rt.on_sharded_arrival(due, q);
        } else {
            rt.on_arrival(due, q);
        }
    }

    // Drain the tail: everything still queued, batching, in flight on
    // an engine, or ticking down on the model-time clock.
    loop {
        rt.pump(SimTime::MAX);
        if rt.outstanding == 0 {
            break;
        }
        rt.await_completion(
            rt.clock.model_now(),
            SimTime::MAX,
            Duration::from_micros(200),
        );
    }

    let end_ns = rt.clock.model_now();
    // CPU utilization on this path is *measured* against the wall
    // clock; reporting it (and the power it implies) is the point.
    let wall_elapsed_ns = rt.clock.wall_elapsed_ns();
    let RealRuntime {
        stats,
        router,
        nodes,
        shard,
        ..
    } = rt;
    debug_assert!(router.is_idle(), "a router gauge did not return to zero");
    let total_workers: usize = setups.iter().map(|s| s.workers).sum();
    let total_busy: u128 = nodes.iter().map(|node| node.busy_service_ns).sum();
    let cpu_usage = CpuUsage {
        per_node: (nodes.iter().zip(setups))
            .map(|(node, s)| {
                node.busy_service_ns as f64 / (s.workers.max(1) as f64 * wall_elapsed_ns)
            })
            .collect(),
        overall: total_busy as f64 / (total_workers as f64 * wall_elapsed_ns),
    };
    let mut report = node::assemble_report(
        RunOutcome {
            stats,
            // Dropping each node's engine here joins its workers.
            cores: nodes.into_iter().map(|node| node.core).collect(),
            setups: setups.to_vec(),
            tenant_setups: tenants.to_vec(),
            cpu_usage,
            end_ns,
            node_queries: router.dispatched().to_vec(),
        },
        stream_offered_qps(queries),
    );
    if S::ENABLED {
        report.stage_breakdown = sink.breakdown();
    }
    if M::ENABLED {
        report.pulse = pulse.summary();
    }
    if let Some(sh) = shard {
        report.ctrs = sh.outputs;
    }
    report
}

/// The run's wall→model clock: model time is wall time since the
/// anchor, compressed by `scale` (`ServerOptions::time_scale`). It is
/// the only code in this crate that reads the wall clock (`clippy.toml`
/// bans `Instant::now` and the `Instant` differences outside a reviewed
/// `#[expect]`), and the one unscaled wall value it hands out is
/// `wall_elapsed_ns`, the measured-utilisation denominator.
struct WallClock {
    t0: std::time::Instant,
    scale: f64,
}

impl WallClock {
    #[expect(clippy::disallowed_methods)] // anchors the pacing loop
    fn start(scale: f64) -> Self {
        WallClock {
            t0: std::time::Instant::now(),
            scale,
        }
    }

    /// Model-time now: scaled wall nanoseconds since the anchor.
    #[expect(clippy::disallowed_methods)] // wall time enters model time here
    fn model_now(&self) -> SimTime {
        (self.t0.elapsed().as_secs_f64() * self.scale * 1e9) as SimTime
    }

    /// Unscaled wall nanoseconds since the anchor (at least 1).
    #[expect(clippy::disallowed_methods)] // the measured-utilisation denominator
    fn wall_elapsed_ns(&self) -> f64 {
        self.t0.elapsed().as_nanos().max(1) as f64
    }
}

impl<S: TraceSink, M: MetricsSink> RealRuntime<'_, S, M> {
    /// Blocks on the fan-in channel from model-time `now` until a
    /// completion arrives or the next model-time wake-up — `bound`,
    /// the earliest timer, or the earliest coalesce deadline —
    /// whichever is first. The wait is floored in *wall-clock* terms,
    /// after scaling (a model-time floor shrinks toward zero at high
    /// `time_scale` and the submitter busy-spins), and capped at `cap`.
    fn await_completion(&mut self, now: SimTime, bound: SimTime, cap: Duration) {
        let mut next = bound;
        if let Some(&Reverse((t, _, _))) = self.timers.peek() {
            next = next.min(t);
        }
        for node in &self.nodes {
            if let Some(d) = node.core.earliest_deadline() {
                next = next.min(d);
            }
        }
        let wait =
            Duration::from_secs_f64(next.saturating_sub(now) as f64 / self.clock.scale / 1e9)
                .max(Duration::from_micros(20));
        match self.done.recv_timeout(wait.min(cap)) {
            Ok(c) => self.on_completion(c),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                panic!("every engine worker exited with queries still outstanding")
            }
        }
    }

    /// Fires every fleet-pulse tick due at or before model-time `t`,
    /// sampling each node's gauges at the same tie-break the virtual
    /// loop uses (a tick at T fires before any event at T). Only
    /// model-time events drive this — GPU completions at their
    /// scheduled instants and arrivals at their due instants — never
    /// the raw wall clock, so on cost-model-priced paths the sampled
    /// series are bit-identical to the virtual runtime's. The
    /// engine-pool depth gauges are real-path extras (the virtual loop
    /// has no engine) and carry keys no virtual series uses.
    fn drain_ticks(&mut self, t: SimTime) {
        if M::ENABLED {
            while self.next_tick <= t {
                for (n, node) in self.nodes.iter().enumerate() {
                    node.core.sample_gauges(
                        &mut *self.pulse,
                        n,
                        self.next_tick,
                        node.queue_depth(),
                        node.arbiter.deficits(),
                    );
                    if let Some(engine) = &node.engine {
                        self.pulse.gauge(
                            &format!("engine_queue_depth_n{n}"),
                            engine.queue_depth() as f64,
                        );
                        self.pulse.gauge(
                            &format!("engine_peak_depth_n{n}"),
                            engine.peak_queue_depth() as f64,
                        );
                    }
                }
                self.pulse.tick(self.next_tick);
                self.next_tick += self.tick_ns;
            }
        }
    }

    /// Drains everything that is ready without blocking — engine
    /// completions, due timers, due coalesce flushes — then re-forms
    /// retuned lanes and offers held requests to the engines.
    ///
    /// GPU completions fire while strictly before `gpu_bound` (the
    /// next arrival's scheduled time), so they interleave with
    /// arrivals in exactly the virtual event order; an exchange
    /// releases a dense tail that runs for real, so it fires when the
    /// wall-derived clock reaches it.
    fn pump(&mut self, gpu_bound: SimTime) {
        loop {
            if let Ok(c) = self.done.try_recv() {
                self.on_completion(c);
                continue;
            }
            if let Some(&Reverse((t, qid, kind))) = self.timers.peek() {
                let due = match kind {
                    Timer::GpuDone => t < gpu_bound,
                    Timer::ExchangeDone => t <= self.clock.model_now(),
                };
                if due {
                    self.timers.pop();
                    match kind {
                        Timer::GpuDone => {
                            // Complete at the scheduled time, not the
                            // drain time; ticks due by then fire first.
                            self.drain_ticks(t);
                            let items = self.stats.remaining_items(qid);
                            self.credit(t, qid, items);
                        }
                        Timer::ExchangeDone => self.start_merge(qid),
                    }
                    continue;
                }
            }
            let now = self.clock.model_now();
            let mut flushed = false;
            for n in 0..self.nodes.len() {
                if (self.nodes[n].core.earliest_deadline()).is_some_and(|d| d <= now) {
                    for t in 0..self.nodes[n].pending.len() {
                        let batcher = self.nodes[n].core.batcher_mut(t);
                        if batcher.deadline().is_some_and(|d| d <= now) {
                            let mut out = Vec::new();
                            batcher.flush_due(now, &mut out);
                            self.queue_batches(now, n, t, out);
                        }
                    }
                    flushed = true;
                }
            }
            if !flushed {
                break;
            }
        }
        for n in 0..self.nodes.len() {
            if self.shard.is_none() {
                self.rebatch_retuned(n);
            }
            self.submit_pending(n);
        }
    }

    /// Re-forms node `n`'s lanes whose controller retuned since the
    /// last pass: [`NodeCore::rebatch_lane`] repacks everything not
    /// yet admitted to the engine (in-flight requests are committed)
    /// plus the open coalesce residual at the new knob. Cached
    /// requests are stale and regenerated.
    fn rebatch_retuned(&mut self, n: usize) {
        for t in 0..self.nodes[n].pending.len() {
            if self.nodes[n].core.take_policy_dirty(t) {
                let now = self.clock.model_now();
                let node = &mut self.nodes[n];
                let queued: Vec<Batch> = (node.pending[t].drain(..))
                    .map(|p| match p.work {
                        Work::Batch(tb) => tb.batch,
                        Work::Gather { .. } | Work::Tail { .. } => {
                            unreachable!("whole-model lanes hold only batches")
                        }
                    })
                    .collect();
                node.pending_total -= queued.len();
                let repacked = node.core.rebatch_lane(t, queued);
                node.pending_total += repacked.len();
                node.pending[t].extend(repacked.into_iter().map(|b| Pending::batch(b, now)));
            }
        }
    }

    /// A whole-model arrival: route to a node, then offload or batch.
    /// Pulse ticks due at or before the arrival fire first, as in the
    /// virtual event loop.
    fn on_arrival(&mut self, due: SimTime, q: &Query) {
        self.drain_ticks(due);
        let NodeId(n) = self.router.route(q.tenant, q.size);
        let measured = self.stats.note_arrival(due, q, n);
        match self.nodes[n].core.on_arrival(due, q) {
            Route::Gpu { start, done } => {
                self.stats.span_gpu(q.id, start);
                self.stats.note_gpu_items(measured, q.size);
                self.timers.push(Reverse((done, q.id, Timer::GpuDone)));
            }
            Route::Cpu(batches) => self.queue_batches(due, n, q.tenant.index(), batches),
        }
    }

    /// A sharded arrival: the router picks the merge home, and every
    /// shard-holding node gets a real gather over the query's inputs.
    fn on_sharded_arrival(&mut self, due: SimTime, q: &Query) {
        let sh = self.shard.as_mut().expect("sharded run");
        let NodeId(home) = self.router.route(q.tenant, q.size);
        let exchange_us = sh.geom.exchange_us(home, q.size);
        let exchange_ns = if exchange_us > 0.0 {
            us_to_ns(exchange_us)
        } else {
            0
        };
        let holders = sh.geom.shard_nodes().to_vec();
        // On the real path the model-clock share of the merge is the
        // fabric alone — the dense tail executes for real on the
        // home's engine. `.max(1)` keeps the exchange rendezvous even
        // on a peer-less plan.
        let merge_ns = exchange_ns.max(1);
        let fanout = holders.len() as u32;
        self.stats
            .note_arrival_sharded(due, q, home, fanout, exchange_ns, merge_ns);
        // The home node's controller owns the query's control signal,
        // as in virtual time.
        self.nodes[home]
            .core
            .note_controller_arrival(due, q.tenant.index());
        let inputs = sharded_query_inputs(&self.models[0], self.seed, q);
        let (qid, size) = (q.id, q.size);
        for &n in &holders {
            let req = EngineRequest::gather(self.next_req, inputs.clone());
            self.next_req += 1;
            self.hold(n, Work::Gather { qid, size }, req);
        }
        // Completions are handled on this thread, after this returns:
        // the join is in place before any gather can report.
        let join = ShardJoin {
            inputs,
            partials: Vec::with_capacity(holders.len()),
            home,
        };
        let sh = self.shard.as_mut().expect("sharded run");
        sh.joins.insert(qid, join);
    }

    /// The fabric wait elapsed: merge `qid`'s partials and run the
    /// dense tail for real on the home's engine.
    fn start_merge(&mut self, qid: u64) {
        let sh = self.shard.as_mut().expect("exchanges are sharded work");
        let join = sh.joins.remove(&qid).expect("live query");
        let size = join.inputs.batch as u32;
        let pooled = sh.set.merge(join.partials);
        let req = EngineRequest::dense_tail(self.next_req, join.inputs, pooled);
        self.next_req += 1;
        self.hold(join.home, Work::Tail { qid, size }, req);
    }

    /// Queues shard work on node `n` behind anything its engine has
    /// already refused (sharded serving is single-tenant: lane 0).
    fn hold(&mut self, n: usize, work: Work, req: EngineRequest) {
        self.nodes[n].pending[0].push_back(Pending {
            work,
            req: Some(req),
            refused: false,
        });
        self.nodes[n].pending_total += 1;
        self.submit_pending(n);
    }

    /// Queues batches formed at `formed` (model-time ns) on node `n`'s
    /// lane `t` for engine admission.
    fn queue_batches(&mut self, formed: SimTime, n: usize, t: usize, batches: Vec<Batch>) {
        let node = &mut self.nodes[n];
        node.pending_total += batches.len();
        node.pending[t].extend(batches.into_iter().map(|b| Pending::batch(b, formed)));
        self.submit_pending(n);
    }

    /// Offers node `n`'s held requests to its engine in DRR order
    /// until the lanes empty or the engine's bounded queue refuses
    /// one.
    fn submit_pending(&mut self, n: usize) {
        if self.nodes[n].engine.is_none() {
            return;
        }
        loop {
            let node = &mut self.nodes[n];
            let Some((t, mut p)) = node.arbiter.next(&mut node.pending, |p| p.work.items()) else {
                break;
            };
            node.pending_total -= 1;
            if M::ENABLED {
                let deficits = self.nodes[n].arbiter.deficits();
                self.pulse.drr_round(self.clock.model_now(), n, t, deficits);
            }
            let req = p.req.take().unwrap_or_else(|| {
                let inputs = self.models[t].generate_inputs(p.work.items() as usize, &mut self.rng);
                let req = EngineRequest::forward_for(self.next_req, t, inputs);
                self.next_req += 1;
                req
            });
            let rid = req.query_id;
            let engine = self.nodes[n].engine.as_ref().expect("checked above");
            match engine.try_submit(req) {
                Ok(()) => {
                    if let Work::Batch(tb) = &mut p.work {
                        // Admission is the dispatch mark: residency
                        // ends when the engine's bounded queue accepts
                        // the work.
                        tb.dispatched = self.clock.model_now();
                    }
                    self.inflight.insert(rid, p.work);
                }
                Err(req) => {
                    let node = &mut self.nodes[n];
                    if !p.refused {
                        node.core.backpressure_stalls += 1;
                    }
                    node.arbiter.refund(t, p.work.items());
                    node.pending[t].push_front(Pending {
                        work: p.work,
                        req: Some(req),
                        refused: true,
                    });
                    node.pending_total += 1;
                    break;
                }
            }
        }
        // Backpressure itself is counted at each refusal above; the
        // gauge tracks total unadmitted depth.
        let node = &mut self.nodes[n];
        let depth = node.queue_depth();
        node.core.note_queue_depth(depth);
    }

    /// Handles one engine completion, tagged with the node that ran
    /// it.
    fn on_completion(&mut self, c: EngineCompletion) {
        self.nodes[c.tag].busy_service_ns += c.service.as_nanos();
        let now = self.clock.model_now();
        match self.inflight.remove(&c.query_id).expect("known request") {
            Work::Batch(tb) => {
                debug_assert_eq!(tb.batch.items as usize, c.batch);
                for seg in &tb.batch.segments {
                    self.stats
                        .span_batch(seg.query_id, tb.formed, tb.dispatched);
                    self.credit(now, seg.query_id, seg.items);
                }
            }
            Work::Gather { qid, size } => {
                let sh = self.shard.as_mut().expect("gathers are sharded work");
                let join = sh.joins.get_mut(&qid).expect("live query");
                join.partials.push(c.partial.expect("gather partial"));
                self.credit(now, qid, size);
            }
            Work::Tail { qid, .. } => {
                let f = self.stats.finish_exchanged(now, qid);
                debug_assert_eq!(f.node, c.tag, "dense tail ran off the home node");
                self.settle(now, &f);
                let sh = self.shard.as_mut().expect("tails are sharded work");
                sh.outputs.push((qid, c.ctrs));
            }
        }
    }

    /// Credits `items` of query `qid` as done at `now`; its last item
    /// settles the query, or — sharded — starts its exchange.
    fn credit(&mut self, now: SimTime, qid: u64, items: u32) {
        match self.stats.credit_items(now, qid, items) {
            Credit::Pending => {}
            Credit::Done(f) => self.settle(now, &f),
            Credit::AwaitExchange { delay, .. } => {
                self.timers
                    .push(Reverse((now + delay, qid, Timer::ExchangeDone)));
            }
        }
    }

    fn settle(&mut self, now: SimTime, f: &FinishedQuery) {
        self.stats.settle(
            now,
            f,
            &mut self.nodes[f.node].core,
            &mut self.router,
            &mut *self.sink,
            &mut *self.pulse,
        );
        self.outstanding -= 1;
    }
}
