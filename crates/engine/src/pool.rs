//! The worker pool: threads executing real model forward passes.

use crossbeam::channel::{unbounded, Receiver, Sender};
use drs_models::{BatchInputs, RecModel};
use drs_nn::{OpKind, OpProfiler, ShardPartial, ShardedEmbeddingSet};
use drs_tensor::Matrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a worker does with a request's inputs.
#[derive(Debug)]
pub enum EngineWork {
    /// Full forward pass: embeddings plus the dense tail.
    Forward,
    /// Embedding gather for the engine's local shard only: the worker
    /// runs [`ShardedEmbeddingSet::forward_shard`] and returns the
    /// pooled partial instead of CTRs. Requires an engine started with
    /// [`InferenceEngine::start_sharded`].
    Gather,
    /// Dense tail over merged pooled partials — the sharded merge
    /// step. Carries the per-table pooled outputs gathered from the
    /// shard nodes; the worker runs
    /// [`RecModel::forward_from_pooled`] on them.
    Tail(Vec<Matrix>),
}

/// One inference request: a batch of inputs tagged with the query it
/// belongs to.
#[derive(Debug)]
pub struct EngineRequest {
    /// The query this request is a split of.
    pub query_id: u64,
    /// Which of the engine's models to run (the tenant index for
    /// multi-model pools; 0 on single-model engines).
    pub model: usize,
    /// What to execute.
    pub work: EngineWork,
    /// Batch inputs matching the engine's model geometry.
    pub inputs: BatchInputs,
}

impl EngineRequest {
    /// A full forward pass on a single-model engine.
    pub fn forward(query_id: u64, inputs: BatchInputs) -> Self {
        Self::forward_for(query_id, 0, inputs)
    }

    /// A full forward pass on model `model` of a multi-model engine.
    pub fn forward_for(query_id: u64, model: usize, inputs: BatchInputs) -> Self {
        EngineRequest {
            query_id,
            model,
            work: EngineWork::Forward,
            inputs,
        }
    }

    /// A local-shard embedding gather (sharded engines only).
    pub fn gather(query_id: u64, inputs: BatchInputs) -> Self {
        EngineRequest {
            query_id,
            model: 0,
            work: EngineWork::Gather,
            inputs,
        }
    }

    /// The dense tail over merged pooled partials.
    pub fn dense_tail(query_id: u64, inputs: BatchInputs, pooled: Vec<Matrix>) -> Self {
        EngineRequest {
            query_id,
            model: 0,
            work: EngineWork::Tail(pooled),
            inputs,
        }
    }
}

/// A finished request.
#[derive(Debug)]
pub struct EngineCompletion {
    /// The query this request belonged to.
    pub query_id: u64,
    /// The model index the request named.
    pub model: usize,
    /// Items scored in this request.
    pub batch: usize,
    /// Predicted CTRs, one per item (empty for gather requests).
    pub ctrs: Vec<f32>,
    /// The pooled partial, for gather requests only.
    pub partial: Option<ShardPartial>,
    /// Pure service time (excludes queueing).
    pub service: Duration,
    /// Per-operator breakdown of `service`.
    pub profile: OpProfiler,
    /// The tag the engine that ran the request was started with (0
    /// unless [`InferenceEngine::start_fan_in`] chose one).
    pub tag: usize,
}

/// A pool of worker threads serving inference requests for one model.
///
/// Requests submitted with [`InferenceEngine::submit`] are distributed
/// to idle workers through an unbounded MPMC channel; completions
/// arrive on [`InferenceEngine::completions`] in finish order.
///
/// Open-loop callers (the `drs-server` runtime) should prefer the
/// bounded path — [`InferenceEngine::with_queue_bound`] plus
/// [`InferenceEngine::try_submit`] — so a load spike surfaces as
/// backpressure at the dispatcher instead of unbounded buffering, and
/// [`InferenceEngine::try_completion`] to drain finished work without
/// blocking the submission loop. A caller driving several engines
/// starts them with [`InferenceEngine::start_fan_in`] on one shared
/// completion channel and blocks on that instead of polling each.
///
/// # Examples
///
/// ```
/// use drs_engine::{EngineRequest, InferenceEngine};
/// use drs_models::{zoo, ModelScale, RecModel};
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = Arc::new(RecModel::instantiate(&zoo::ncf(), ModelScale::tiny(), &mut rng));
/// let engine = InferenceEngine::start(Arc::clone(&model), 2);
/// let inputs = model.generate_inputs(4, &mut rng);
/// engine.submit(EngineRequest::forward(0, inputs));
/// let done = engine.completions().recv().unwrap();
/// assert_eq!(done.query_id, 0);
/// assert_eq!(done.ctrs.len(), 4);
/// engine.shutdown();
/// ```
#[derive(Debug)]
pub struct InferenceEngine {
    tx: Option<Sender<EngineRequest>>,
    /// Observer clone of the request channel, kept only for its depth
    /// gauge (never received from).
    rx_requests: Receiver<EngineRequest>,
    /// The private completion channel; `None` on a fan-in engine, whose
    /// workers send into the caller's channel.
    rx_done: Option<Receiver<EngineCompletion>>,
    queue_bound: Option<usize>,
    /// High-water mark of the request queue, updated at each submit —
    /// the fleet-pulse `engine_peak_depth` gauge.
    peak_depth: AtomicUsize,
    workers: Vec<JoinHandle<()>>,
}

/// Everything a worker thread needs to execute any [`EngineWork`].
struct WorkerContext {
    models: Vec<Arc<RecModel>>,
    shard: Option<(Arc<ShardedEmbeddingSet>, usize)>,
    /// Stamped on every completion.
    tag: usize,
}

impl WorkerContext {
    fn execute(&self, req: EngineRequest) -> EngineCompletion {
        let mut profile = OpProfiler::new();
        let start = Instant::now();
        let mut partial = None;
        let ctrs = match req.work {
            EngineWork::Forward => self.models[req.model].forward(&req.inputs, &mut profile),
            EngineWork::Gather => {
                let (set, shard) = self
                    .shard
                    .as_ref()
                    .expect("gather request on an unsharded engine");
                partial = Some(profile.time(OpKind::Embedding, || {
                    set.forward_shard(*shard, &req.inputs.sparse)
                }));
                Vec::new()
            }
            EngineWork::Tail(pooled) => {
                self.models[req.model].forward_from_pooled(&req.inputs, pooled, &mut profile)
            }
        };
        let service = start.elapsed();
        EngineCompletion {
            query_id: req.query_id,
            model: req.model,
            batch: req.inputs.batch,
            ctrs,
            partial,
            service,
            profile,
            tag: self.tag,
        }
    }
}

impl InferenceEngine {
    /// Spawns `workers` threads serving `model`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn start(model: Arc<RecModel>, workers: usize) -> Self {
        Self::start_multi(vec![model], workers)
    }

    /// Spawns `workers` threads serving several co-located models from
    /// one shared request queue — the multi-tenant pool shape, where
    /// [`EngineRequest::model`] selects the tenant's model.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or `models` is empty.
    pub fn start_multi(models: Vec<Arc<RecModel>>, workers: usize) -> Self {
        Self::start_private(models, None, workers)
    }

    /// Spawns `workers` threads serving `model` with shard `shard` of
    /// `set` resident: [`EngineWork::Gather`] requests run real
    /// partial forwards over the local tables, and
    /// [`EngineWork::Tail`] requests run the dense tail over merged
    /// partials — the two halves of sharded serving.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or `shard` is out of range.
    pub fn start_sharded(
        model: Arc<RecModel>,
        set: Arc<ShardedEmbeddingSet>,
        shard: usize,
        workers: usize,
    ) -> Self {
        Self::start_private(vec![model], Some((set, shard)), workers)
    }

    /// Spawns `workers` threads whose completions go straight into the
    /// caller's `done` channel, each stamped with `tag` — the fan-in
    /// shape: give every engine of a fleet a clone of one `Sender` and
    /// a distinct tag, and one blocking receive serves them all. With
    /// `shard` set, that shard of the set is resident as under
    /// [`InferenceEngine::start_sharded`]. Only the workers keep
    /// `done`, so once every engine on a channel is dropped its
    /// receiver reports disconnection rather than blocking forever.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, `models` is empty, or `shard` is
    /// out of range. [`InferenceEngine::completions`] and
    /// [`InferenceEngine::try_completion`] panic on the returned
    /// engine: it has no completion channel of its own.
    pub fn start_fan_in(
        models: Vec<Arc<RecModel>>,
        shard: Option<(Arc<ShardedEmbeddingSet>, usize)>,
        workers: usize,
        done: Sender<EngineCompletion>,
        tag: usize,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(!models.is_empty(), "need at least one model");
        if let Some((set, shard)) = &shard {
            assert!(
                *shard < set.num_shards(),
                "shard {shard} out of range ({} shards)",
                set.num_shards()
            );
        }
        let ctx = Arc::new(WorkerContext { models, shard, tag });
        let (tx, rx) = unbounded::<EngineRequest>();
        let handles = (0..workers)
            .map(|_| {
                let rx = rx.clone();
                let done = done.clone();
                let ctx = Arc::clone(&ctx);
                std::thread::spawn(move || {
                    while let Ok(req) = rx.recv() {
                        let _ = done.send(ctx.execute(req));
                    }
                })
            })
            .collect();
        InferenceEngine {
            tx: Some(tx),
            rx_requests: rx,
            rx_done: None,
            queue_bound: None,
            peak_depth: AtomicUsize::new(0),
            workers: handles,
        }
    }

    /// A fan-in engine over a completion channel of its own, tag 0.
    fn start_private(
        models: Vec<Arc<RecModel>>,
        shard: Option<(Arc<ShardedEmbeddingSet>, usize)>,
        workers: usize,
    ) -> Self {
        let (tx_done, rx_done) = unbounded::<EngineCompletion>();
        let mut engine = Self::start_fan_in(models, shard, workers, tx_done, 0);
        engine.rx_done = Some(rx_done);
        engine
    }

    /// Caps the request queue at `bound` pending requests: once the
    /// depth gauge reaches the bound, [`InferenceEngine::try_submit`]
    /// refuses work instead of buffering it. ([`InferenceEngine::submit`]
    /// stays unbounded for closed-loop callers that self-limit.)
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        assert!(bound > 0, "queue bound must be positive");
        self.queue_bound = Some(bound);
        self
    }

    /// Enqueues a request.
    ///
    /// # Panics
    ///
    /// Panics if called after [`InferenceEngine::shutdown`].
    pub fn submit(&self, request: EngineRequest) {
        self.tx
            .as_ref()
            .expect("engine is running")
            .send(request)
            .expect("workers alive");
        self.peak_depth
            .fetch_max(self.queue_depth(), Ordering::Relaxed);
    }

    /// Bounded submit: enqueues the request unless the pending-request
    /// queue is at the configured bound, in which case the request is
    /// handed back so the caller can hold it and exert backpressure.
    /// Without a configured bound this never refuses.
    ///
    /// # Panics
    ///
    /// Panics if called after [`InferenceEngine::shutdown`].
    pub fn try_submit(&self, request: EngineRequest) -> Result<(), EngineRequest> {
        if let Some(bound) = self.queue_bound {
            if self.queue_depth() >= bound {
                return Err(request);
            }
        }
        self.submit(request);
        Ok(())
    }

    /// Requests accepted but not yet picked up by a worker — the
    /// backpressure gauge behind [`InferenceEngine::try_submit`].
    pub fn queue_depth(&self) -> usize {
        self.rx_requests.len()
    }

    /// The configured request-queue bound, if any.
    pub fn queue_bound(&self) -> Option<usize> {
        self.queue_bound
    }

    /// The deepest the request queue has been since the engine
    /// started, measured just after each submit. A racing worker can
    /// dequeue before the measurement, so the mark is a lower bound on
    /// the true instantaneous peak — fine for a trend gauge.
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_depth.load(Ordering::Relaxed)
    }

    /// Non-blocking completion drain: returns a finished request if one
    /// is ready, `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics on an [`InferenceEngine::start_fan_in`] engine.
    pub fn try_completion(&self) -> Option<EngineCompletion> {
        self.completions().try_recv().ok()
    }

    /// The completion channel (finish order, not submit order).
    ///
    /// # Panics
    ///
    /// Panics on an [`InferenceEngine::start_fan_in`] engine: its
    /// completions arrive on the channel the caller supplied.
    pub fn completions(&self) -> &Receiver<EngineCompletion> {
        self.rx_done
            .as_ref()
            .expect("a fan-in engine completes into its caller's channel")
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Stops accepting work, drains the workers, and joins them
    /// (dropping the engine does the same).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for InferenceEngine {
    fn drop(&mut self) {
        self.tx.take(); // close the channel; workers exit on recv Err
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_models::{zoo, ModelScale};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> Arc<RecModel> {
        let mut rng = StdRng::seed_from_u64(5);
        Arc::new(RecModel::instantiate(
            &zoo::ncf(),
            ModelScale::tiny(),
            &mut rng,
        ))
    }

    #[test]
    fn completes_all_requests() {
        let model = tiny_model();
        let engine = InferenceEngine::start(Arc::clone(&model), 4);
        let mut rng = StdRng::seed_from_u64(6);
        let n = 32;
        for qid in 0..n {
            engine.submit(EngineRequest::forward(
                qid,
                model.generate_inputs(3, &mut rng),
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..n {
            let done = engine.completions().recv().unwrap();
            assert_eq!(done.ctrs.len(), 3);
            assert!(done.ctrs.iter().all(|p| (0.0..=1.0).contains(p)));
            assert!(done.service.as_nanos() > 0);
            assert_eq!(done.tag, 0, "a private-channel engine stamps tag 0");
            seen.insert(done.query_id);
        }
        assert_eq!(seen.len(), n as usize);
        engine.shutdown();
    }

    #[test]
    fn fan_in_engines_share_one_receiver() {
        use crossbeam::channel::{RecvTimeoutError, TryRecvError};
        let model = tiny_model();
        let mut rng = StdRng::seed_from_u64(8);
        let inputs: Vec<BatchInputs> = (0..24)
            .map(|_| model.generate_inputs(3, &mut rng))
            .collect();
        // The reference bits, from a private-channel engine.
        let private = InferenceEngine::start(Arc::clone(&model), 1);
        let expect: Vec<Vec<u32>> = inputs
            .iter()
            .map(|i| {
                private.submit(EngineRequest::forward(0, i.clone()));
                let done = private.completions().recv().unwrap();
                done.ctrs.iter().map(|p| p.to_bits()).collect()
            })
            .collect();
        drop(private);

        let (tx, rx) = unbounded::<EngineCompletion>();
        let engines = [
            InferenceEngine::start_fan_in(vec![Arc::clone(&model)], None, 1, tx.clone(), 0),
            InferenceEngine::start_fan_in(vec![Arc::clone(&model)], None, 3, tx.clone(), 1),
        ];
        drop(tx);
        // Request `i` goes to engine `i % 2`.
        for (i, input) in inputs.iter().enumerate() {
            engines[i % 2].submit(EngineRequest::forward(i as u64, input.clone()));
        }
        let mut seen = vec![false; inputs.len()];
        for _ in 0..inputs.len() {
            let done = rx.recv().expect("engines alive");
            let i = done.query_id as usize;
            assert!(!std::mem::replace(&mut seen[i], true), "request {i} twice");
            assert_eq!(done.tag, i % 2, "tagged by the engine it was submitted to");
            let bits: Vec<u32> = done.ctrs.iter().map(|p| p.to_bits()).collect();
            assert_eq!(bits, expect[i], "request {i}: CTR bits");
        }
        assert_eq!(rx.try_recv().err(), Some(TryRecvError::Empty));

        // Dropping the last engine drops the last sender: a receiver
        // left waiting sees disconnection, not a hang.
        let [a, b] = engines;
        drop(a);
        assert_eq!(rx.try_recv().err(), Some(TryRecvError::Empty));
        drop(b);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).err(),
            Some(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    #[should_panic(expected = "fan-in engine completes into its caller's channel")]
    fn fan_in_engine_has_no_private_completions() {
        let (tx, _rx) = unbounded::<EngineCompletion>();
        let engine = InferenceEngine::start_fan_in(vec![tiny_model()], None, 1, tx, 0);
        let _ = engine.completions();
    }

    #[test]
    fn drop_joins_workers() {
        let model = tiny_model();
        let engine = InferenceEngine::start(model, 2);
        drop(engine); // must not hang or leak
    }

    #[test]
    fn bounded_submit_exerts_backpressure() {
        let model = tiny_model();
        let bound = 2;
        let engine = InferenceEngine::start(Arc::clone(&model), 1).with_queue_bound(bound);
        assert_eq!(engine.queue_bound(), Some(bound));
        let mut rng = StdRng::seed_from_u64(7);
        // A single worker runs real forward passes (reads weights and
        // computes) while submission clones a prebuilt input (a strict
        // subset of that work): pushing in a tight loop must hit the
        // bound long before the worker drains 10k batches.
        let inputs = model.generate_inputs(64, &mut rng);
        let mut accepted = 0u32;
        let mut refused = false;
        for _ in 0..10_000 {
            let req = EngineRequest::forward(accepted as u64, inputs.clone());
            match engine.try_submit(req) {
                Ok(()) => accepted += 1,
                Err(back) => {
                    // The refused request comes back intact for retry.
                    assert_eq!(back.inputs.batch, 64);
                    refused = true;
                    break;
                }
            }
            assert!(engine.queue_depth() <= bound);
        }
        assert!(refused, "bound {bound} never refused in 10k submissions");
        // Everything accepted still completes.
        let mut done = 0;
        while done < accepted {
            if engine.try_completion().is_some() {
                done += 1;
            } else {
                std::thread::yield_now();
            }
        }
        assert!(engine.try_completion().is_none());
        engine.shutdown();
    }

    #[test]
    fn unbounded_try_submit_never_refuses() {
        let model = tiny_model();
        let engine = InferenceEngine::start(Arc::clone(&model), 1);
        let mut rng = StdRng::seed_from_u64(9);
        for qid in 0..64 {
            let req = EngineRequest::forward(qid, model.generate_inputs(2, &mut rng));
            assert!(engine.try_submit(req).is_ok());
        }
        for _ in 0..64 {
            let _ = engine.completions().recv().unwrap();
        }
        engine.shutdown();
    }

    #[test]
    fn multi_model_pool_routes_requests_by_model_index() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Arc::new(RecModel::instantiate(
            &zoo::ncf(),
            ModelScale::tiny(),
            &mut rng,
        ));
        let b = Arc::new(RecModel::instantiate(
            &zoo::wide_and_deep(),
            ModelScale::tiny(),
            &mut rng,
        ));
        let engine = InferenceEngine::start_multi(vec![Arc::clone(&a), Arc::clone(&b)], 2);
        let mut rng = StdRng::seed_from_u64(12);
        engine.submit(EngineRequest::forward_for(
            0,
            0,
            a.generate_inputs(3, &mut rng),
        ));
        engine.submit(EngineRequest::forward_for(
            1,
            1,
            b.generate_inputs(5, &mut rng),
        ));
        for _ in 0..2 {
            let done = engine.completions().recv().unwrap();
            let expect = if done.model == 0 { 3 } else { 5 };
            assert_eq!(done.batch, expect);
            assert_eq!(done.ctrs.len(), expect);
            assert!(done.partial.is_none());
        }
        engine.shutdown();
    }

    #[test]
    fn sharded_gather_plus_tail_matches_full_forward() {
        // Two shards of one model behind two engines: gathering both
        // partials and running the dense tail over the merge must be
        // bit-identical to the plain forward pass on the same inputs.
        let model = {
            let mut rng = StdRng::seed_from_u64(21);
            Arc::new(RecModel::instantiate(
                &zoo::dlrm_rmc1(),
                ModelScale::tiny(),
                &mut rng,
            ))
        };
        let tables = model
            .generate_inputs(1, &mut StdRng::seed_from_u64(0))
            .sparse
            .len();
        let assignment: Vec<usize> = (0..tables).map(|t| t % 2).collect();
        let set = Arc::new(model.sharded_embeddings(&assignment));
        let engines: Vec<_> = (0..2)
            .map(|s| InferenceEngine::start_sharded(Arc::clone(&model), Arc::clone(&set), s, 1))
            .collect();
        let mut rng = StdRng::seed_from_u64(22);
        let inputs = model.generate_inputs(6, &mut rng);

        let mut partials = Vec::new();
        for e in &engines {
            e.submit(EngineRequest::gather(7, inputs.clone()));
            let done = e.completions().recv().unwrap();
            assert!(done.ctrs.is_empty(), "gather returns partials, not CTRs");
            partials.push(done.partial.expect("gather carries a partial"));
        }
        let pooled = set.merge(partials);
        engines[0].submit(EngineRequest::dense_tail(7, inputs.clone(), pooled));
        let tail = engines[0].completions().recv().unwrap();

        let expect = model.forward(&inputs, &mut OpProfiler::new());
        assert_eq!(tail.ctrs, expect, "sharded path is bit-identical");
        for e in engines {
            e.shutdown();
        }
    }

    #[test]
    #[should_panic(expected = "queue bound must be positive")]
    fn zero_bound_rejected() {
        let _ = InferenceEngine::start(tiny_model(), 1).with_queue_bound(0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = InferenceEngine::start(tiny_model(), 0);
    }
}
