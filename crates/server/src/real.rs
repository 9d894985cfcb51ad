//! The wall clock: [`crate::driver`]'s serving loop on physical
//! threads, behind [`crate::Cluster::serve`] on [`crate::Serve::real`].
//!
//! Every node gets its own [`InferenceEngine`] pool; arrivals are paced
//! by one wall→model clock. A sharded cluster is a *work type* on the
//! same clock (its arrivals fan per-query gathers instead of batching,
//! and its exchanges release a dense tail), not another runtime.
//!
//! Three invariants hold the numbers this clock reports together:
//!
//! * **Block, don't poll.** Every engine of a run sends its
//!   completions into one fan-in channel (tagged with the node that
//!   produced them), and the loop's only wait is a `recv_timeout` on
//!   it, bounded by the next event's model time. A completion is
//!   therefore handled when it happens, for one node or eight; a
//!   sleep-and-poll loop would add its poll interval to every batch's
//!   service stage.
//! * **Events leave in the virtual run's order.** The wall clock takes
//!   the same [`Events`] as virtual time — the arrival cursor and the
//!   timer queue — and fires each event once the wall clock reaches
//!   its stamp, at that stamp. GPU completions live on the
//!   cost model's clock, so they fire as soon as they are next in
//!   order, without waiting for the wall clock. An overdue arrival
//!   therefore always lands before a coalesce flush due after it, and
//!   an offload-all real run equals its virtual twin bit for bit
//!   however the wall clock jitters.
//! * **A batch is dispatched when the engine admits it.** The
//!   residency stage ends at the `try_submit` that succeeds, read off
//!   the clock then: input generation for the batches granted before
//!   it in the same pass is queueing the batch really waited out.

use crate::cluster::sharded_query_inputs;
use crate::driver::{Ev, Events, Fleet, Job, RunClock, Work};
use crate::node::{ClockTotals, CpuUsage};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use drs_core::{secs_to_ns, SimTime};
use drs_engine::{EngineCompletion, EngineRequest, InferenceEngine};
use drs_models::{BatchInputs, RecModel};
use drs_nn::{ShardPartial, ShardedEmbeddingSet};
use drs_query::Query;
use drs_shard::{ShardGeometry, ShardPlan};
use drs_telemetry::MetricsSink;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// What a queued job keeps on the wall clock.
#[derive(Default)]
pub(crate) struct Held {
    /// The engine request, once built: shard work arrives with it; a
    /// batch's inputs are generated at its first admission attempt and
    /// kept across refusals.
    req: Option<EngineRequest>,
    /// Set by the engine's first refusal — retries of a held request
    /// are not fresh backpressure.
    refused: bool,
}

/// Join state of one in-flight sharded query: its id (the label its
/// CTRs are reported under), the inputs every shard node gathers over
/// (taken by its dense tail), the partials collected so far.
struct ShardJoin {
    id: u64,
    inputs: Option<BatchInputs>,
    partials: Vec<ShardPartial>,
}

/// What sharded serving adds to the clock. Gathers go per query, not
/// through the lane coalescer — each query's partials then slice
/// cleanly for its own merge, which keeps the distributed forward
/// bit-identical to the local one (`tests/sharded_real.rs`).
struct ShardState {
    set: Arc<ShardedEmbeddingSet>,
    /// By stream position, from the gathers until the tail finishes.
    joins: BTreeMap<usize, ShardJoin>,
    /// `(query id, ctrs)` in completion order.
    outputs: Vec<(u64, Vec<f32>)>,
}

/// The wall clock's side of a run.
pub(crate) struct Wall {
    clock: WallClock,
    /// Each node's worker pool; `None` on a node outside the shard
    /// plan, which holds no tables and receives no work.
    engines: Vec<Option<InferenceEngine>>,
    workers: Vec<usize>,
    /// Sum of worker-side service durations (wall ns) per node — the
    /// node's CPU busy integral.
    busy_service_ns: Vec<u128>,
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
    /// Admitted request id → its tenant and job.
    inflight: BTreeMap<u64, (usize, Job<Held>)>,
    shard: Option<ShardState>,
}

impl Wall {
    /// Starts every node's engine pool, `models[t]` serving tenant `t`;
    /// with `plan` set, serves `models[0]` sharded table-wise, node `n`
    /// holding shard `k` when it is the `k`-th of `fleet.shard`'s shard
    /// nodes.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty or out of arrival order, or if
    /// `models` does not provide exactly one model per tenant.
    pub fn start(
        fleet: &Fleet,
        models: Vec<Arc<RecModel>>,
        plan: Option<&ShardPlan>,
        queries: &[Query],
    ) -> Self {
        drs_core::assert_servable_queries(queries);
        assert_eq!(
            models.len(),
            fleet.tenants.len(),
            "one model per tenant: got {} models for {} tenants",
            models.len(),
            fleet.tenants.len()
        );
        let set = plan.map(|p| Arc::new(models[0].sharded_embeddings(&p.dense_assignment())));
        let holders = fleet.shard.map(ShardGeometry::shard_nodes);
        let (tx, done) = unbounded();
        let engines = (fleet.setups.iter().enumerate())
            .map(|(n, s)| {
                let start = |resident| {
                    InferenceEngine::start_fan_in(
                        models.clone(),
                        resident,
                        s.workers,
                        tx.clone(),
                        n,
                    )
                    .with_queue_bound(fleet.opts.batching.queue_bound)
                };
                // Whole-model serving runs an engine on every node; a
                // sharded fleet runs one where shard k's tables live
                // (the k-th shard-holding node).
                match (&set, holders) {
                    (Some(set), Some(holders)) => (holders.iter())
                        .position(|&holder| holder == n)
                        .map(|k| start(Some((Arc::clone(set), k)))),
                    _ => Some(start(None)),
                }
            })
            .collect();
        // The engines now hold the only senders: should their workers
        // ever all exit, `done` disconnects instead of going quiet.
        drop(tx);
        Wall {
            // Model time is the virtual clock's: the first arrival's
            // integer nanosecond stamp plus scaled wall time, so
            // per-query latencies match the virtual path bit for bit
            // wherever service is cost-model priced.
            clock: WallClock::start(fleet.opts.time_scale, secs_to_ns(queries[0].arrival_s)),
            engines,
            workers: fleet.setups.iter().map(|s| s.workers).collect(),
            busy_service_ns: vec![0; fleet.setups.len()],
            done,
            models,
            seed: fleet.opts.seed,
            rng: StdRng::seed_from_u64(fleet.opts.seed),
            next_req: 0,
            inflight: BTreeMap::new(),
            shard: set.map(|set| ShardState {
                set,
                joins: BTreeMap::new(),
                outputs: Vec::with_capacity(queries.len()),
            }),
        }
    }

    fn request_id(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req - 1
    }
}

/// The run's wall→model clock: model time is the anchor stamp plus
/// wall time since the start, compressed by `scale`
/// (`ServerOptions::time_scale`). It is the only code in this crate
/// that reads the wall clock (`clippy.toml` bans `Instant::now` and the
/// `Instant` differences outside a reviewed `#[expect]`), and the one
/// unscaled wall value it hands out is `wall_elapsed_ns`, the
/// measured-utilisation denominator.
struct WallClock {
    t0: std::time::Instant,
    scale: f64,
    anchor: SimTime,
}

impl WallClock {
    #[expect(clippy::disallowed_methods)] // anchors the pacing loop
    fn start(scale: f64, anchor: SimTime) -> Self {
        WallClock {
            t0: std::time::Instant::now(),
            scale,
            anchor,
        }
    }

    /// Model-time now: the anchor plus scaled wall nanoseconds since
    /// the start.
    #[expect(clippy::disallowed_methods)] // wall time enters model time here
    fn model_now(&self) -> SimTime {
        self.anchor + (self.t0.elapsed().as_secs_f64() * self.scale * 1e9) as SimTime
    }

    /// Unscaled wall nanoseconds since the start (at least 1).
    #[expect(clippy::disallowed_methods)] // the measured-utilisation denominator
    fn wall_elapsed_ns(&self) -> f64 {
        self.t0.elapsed().as_nanos().max(1) as f64
    }

    /// The wall wait from model time `now` until `at`, floored in
    /// *wall-clock* terms after scaling (a model-time floor shrinks
    /// toward zero at high `time_scale` and the loop busy-spins).
    fn wait(&self, now: SimTime, at: SimTime) -> Duration {
        Duration::from_secs_f64(at.saturating_sub(now) as f64 / self.scale / 1e9)
            .max(Duration::from_micros(20))
    }
}

impl RunClock for Wall {
    type Held = Held;
    type Done = EngineCompletion;
    const PRICED: bool = false;
    const BOUND_AT_ENQUEUE: bool = false;

    /// An engine completion when one is ready, stamped now; otherwise
    /// the queue's head once the wall clock reaches its stamp (a GPU
    /// completion at once), blocking on the fan-in channel meanwhile.
    /// Once every query has settled, stale coalesce timers are dropped.
    fn next_event(
        &mut self,
        events: &mut Events<'_, EngineCompletion>,
        idle: bool,
    ) -> Option<(SimTime, Ev<EngineCompletion>)> {
        if idle {
            return None;
        }
        loop {
            if let Ok(c) = self.done.try_recv() {
                return Some((self.clock.model_now(), Ev::CpuDone(c)));
            }
            let now = self.clock.model_now();
            let got = match events.peek() {
                Some((t, gpu)) if t <= now || gpu => return events.pop(),
                Some((t, _)) => self.done.recv_timeout(self.clock.wait(now, t)),
                None => (self.done.recv()).map_err(|_| RecvTimeoutError::Disconnected),
            };
            match got {
                Ok(c) => return Some((self.clock.model_now(), Ev::CpuDone(c))),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("every engine worker exited with queries still outstanding")
                }
            }
        }
    }

    fn can_start(&self, n: usize) -> bool {
        self.engines[n].is_some()
    }

    fn start(
        &mut self,
        n: usize,
        t: usize,
        mut job: Job<Held>,
        _now: SimTime,
        _events: &mut Events<'_, EngineCompletion>,
    ) -> Result<(), (Job<Held>, bool)> {
        let req = match job.held.req.take() {
            Some(req) => req,
            None => {
                let items = job.work.items() as usize;
                let inputs = self.models[t].generate_inputs(items, &mut self.rng);
                EngineRequest::forward_for(self.request_id(), t, inputs)
            }
        };
        let rid = req.query_id;
        let engine = self.engines[n].as_ref().expect("checked by can_start");
        match engine.try_submit(req) {
            Ok(()) => {
                // Admission is the dispatch mark: residency ends when
                // the engine's bounded queue accepts the work.
                job.dispatched = self.clock.model_now();
                self.inflight.insert(rid, (t, job));
                Ok(())
            }
            Err(req) => {
                let first = !job.held.refused;
                job.held = Held {
                    req: Some(req),
                    refused: true,
                };
                Err((job, first))
            }
        }
    }

    fn finish(&mut self, c: EngineCompletion, _now: SimTime) -> (usize, usize, Job<Held>) {
        self.busy_service_ns[c.tag] += c.service.as_nanos();
        let (t, job) = self.inflight.remove(&c.query_id).expect("known request");
        match &job.work {
            Work::Batch(b) => debug_assert_eq!(b.items as usize, c.batch),
            Work::Gather { pos, .. } => {
                let sh = self.shard.as_mut().expect("gathers are sharded work");
                let join = sh.joins.get_mut(pos).expect("live query");
                join.partials.push(c.partial.expect("gather partial"));
            }
            Work::Tail { pos, .. } => {
                let sh = self.shard.as_mut().expect("tails are sharded work");
                let join = sh.joins.remove(pos).expect("live query");
                sh.outputs.push((join.id, c.ctrs));
            }
        }
        (c.tag, t, job)
    }

    /// Unadmitted depth: the engine's queue plus held requests.
    fn queue_depth(&self, n: usize, ready: usize) -> usize {
        self.engines[n].as_ref().map_or(0, |e| e.queue_depth()) + ready
    }

    /// The engine-pool depth gauges, which virtual time has no engine
    /// for.
    fn sample_gauges<M: MetricsSink>(&self, pulse: &mut M, n: usize) {
        if let Some(engine) = &self.engines[n] {
            let depth = engine.queue_depth() as f64;
            pulse.gauge(&format!("engine_queue_depth_n{n}"), depth);
            let peak = engine.peak_queue_depth() as f64;
            pulse.gauge(&format!("engine_peak_depth_n{n}"), peak);
        }
    }

    /// The model-clock share of the merge is the fabric alone — the
    /// dense tail executes for real on the home's engine. `.max(1)`
    /// keeps the exchange rendezvous even on a peer-less plan.
    fn merge_ns(
        &self,
        _sh: &ShardGeometry,
        _q: &Query,
        _home: usize,
        exchange_ns: SimTime,
    ) -> SimTime {
        exchange_ns.max(1)
    }

    /// One real gather per holder over the query's deterministic
    /// inputs.
    fn gathers(&mut self, pos: usize, q: &Query, holders: &[usize]) -> Option<Vec<Held>> {
        let inputs = sharded_query_inputs(&self.models[0], self.seed, q);
        let held = (holders.iter())
            .map(|_| Held {
                req: Some(EngineRequest::gather(self.request_id(), inputs.clone())),
                refused: false,
            })
            .collect();
        let join = ShardJoin {
            id: q.id,
            inputs: Some(inputs),
            partials: Vec::with_capacity(holders.len()),
        };
        let sh = self.shard.as_mut().expect("sharded run");
        sh.joins.insert(pos, join);
        Some(held)
    }

    /// Merges the partials of the query at `pos` into a dense-tail
    /// request.
    fn tail(&mut self, pos: usize) -> Option<(u32, Held)> {
        let sh = self.shard.as_mut().expect("exchanges are sharded work");
        let join = sh.joins.get_mut(&pos).expect("live query");
        let inputs = join.inputs.take().expect("one tail per query");
        let size = inputs.batch as u32;
        let pooled = sh.set.merge(std::mem::take(&mut join.partials));
        let req = EngineRequest::dense_tail(self.request_id(), inputs, pooled);
        let held = Held {
            req: Some(req),
            refused: false,
        };
        Some((size, held))
    }

    /// CPU utilization on this clock is *measured* against the wall
    /// clock; reporting it (and the power it implies) is the point.
    /// Dropping the engines joins their workers.
    fn finish_run(self, _last: SimTime) -> ClockTotals {
        let end_ns = self.clock.model_now() - self.clock.anchor;
        let wall_ns = self.clock.wall_elapsed_ns();
        let total_workers: usize = self.workers.iter().sum();
        let total_busy: u128 = self.busy_service_ns.iter().sum();
        let cpu_usage = CpuUsage {
            per_node: (self.busy_service_ns.iter().zip(&self.workers))
                .map(|(&busy, &w)| busy as f64 / (w.max(1) as f64 * wall_ns))
                .collect(),
            overall: total_busy as f64 / (total_workers as f64 * wall_ns),
        };
        ClockTotals {
            cpu_usage,
            end_ns,
            ctrs: self.shard.map_or_else(Vec::new, |sh| sh.outputs),
        }
    }
}
