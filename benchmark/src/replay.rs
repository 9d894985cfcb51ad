//! Layer replay: the benchmark drives a prefix of the `hi` stream through
//! the serving pipeline by hand, on one thread, with a span around every
//! public call — generator, batcher, input synthesis, engine round trip.
//! Spans live in memory and are written as Chrome JSON when the run ends.
//! A layer's self time is its span minus the spans it caused.

use crate::json::Json;
use crate::real::{Stack, MAX_BATCH};
use crate::stats::{quantile, summarize, Sample};
use drs_core::secs_to_ns;
use drs_engine::{EngineRequest, InferenceEngine};
use drs_nn::{OpKind, OpProfiler};
use drs_query::{ArrivalProcess, MixedStream, QueryGenerator};
use drs_server::{Batch, BatchQueue, BatchingConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The query (or, below the batcher, the engine request) it served.
    pub id: u64,
}

/// In-memory span recorder for one thread.
pub(crate) struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(span), "spans close innermost first");
    }

    /// Records a call that ran elsewhere (the worker's forward pass) as
    /// the last `dur` of the innermost open span.
    pub fn child_ending_now(&mut self, name: &'static str, id: u64, dur: Duration) {
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub(dur.as_nanos() as u64);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            id,
        });
    }

    /// Duration of every span minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Chrome `trace_event` complete events, one per span.
    pub fn chrome_events(&self) -> Vec<Json> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("cat".into(), Json::Str("layer-replay".into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), Json::Num(100.0)),
                    ("tid".into(), Json::Num(1.0)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("span".into(), Json::Num(i as f64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("id".into(), Json::Num(s.id as f64)),
                        ]),
                    ),
                ])
            })
            .collect()
    }
}

/// What one segment of the replay measured.
#[derive(Default)]
struct Segment {
    queries: u64,
    items: u64,
    /// Items of the batches the engine served (an open residual is not).
    served_items: u64,
    gen_ns: u64,
    push_ns: u64,
    inputs_ns: u64,
    service_ns: u64,
    overhead_us: Vec<f64>,
    profile: OpProfiler,
}

/// The layer metrics of the replay: median and quartiles over its
/// segments.
pub(crate) struct LayerTimes {
    pub gen_ns_per_query: Sample,
    pub push_ns_per_item: Sample,
    pub inputs_ns_per_item: Sample,
    pub forward_us_per_item: Sample,
    pub roundtrip_overhead_us: Sample,
    pub roundtrip_overhead_p95_us: Sample,
    /// µs per item by operator, in `OpKind` order of [`OPS`].
    pub op_us_per_item: Vec<Sample>,
    pub embedding_share: Sample,
    pub queries: u64,
    pub batches: u64,
}

/// The operators `OpProfiler` attributes forward time to, with the metric
/// stem each is reported under.
pub(crate) const OPS: [(OpKind, &str); 6] = [
    (OpKind::Embedding, "embedding"),
    (OpKind::DenseFc, "dense_fc"),
    (OpKind::PredictFc, "predict_fc"),
    (OpKind::Attention, "attention"),
    (OpKind::Recurrent, "recurrent"),
    (OpKind::Interaction, "interaction"),
];

const SEGMENTS: usize = 3;

/// Replays the `hi` stream for about `budget`, in [`SEGMENTS`] equal parts.
pub(crate) fn run(stack: &Stack, budget: Duration, seed: u64, tracer: &mut Tracer) -> LayerTimes {
    let w = &stack.workload;
    let mut stream = MixedStream::new(
        w.tenants
            .iter()
            .enumerate()
            .map(|(k, t)| {
                QueryGenerator::new(ArrivalProcess::poisson(t.hi_qps), t.sizes, seed ^ k as u64)
            })
            .collect(),
    );
    let timeout_ns = (BatchingConfig::standard().coalesce_timeout_us * 1e3) as u64;
    let mut queues: Vec<BatchQueue> = w
        .tenants
        .iter()
        .map(|_| BatchQueue::new(MAX_BATCH, timeout_ns))
        .collect();
    let engine = InferenceEngine::start_multi(stack.models.clone(), 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_request = 0u64;
    let mut segments = Vec::with_capacity(SEGMENTS);
    let mut out: Vec<Batch> = Vec::new();
    let mut batches: Vec<(usize, Batch)> = Vec::new();

    for _ in 0..SEGMENTS {
        let mut seg = Segment::default();
        let first_span = tracer.spans.len();
        let started = Instant::now();
        while started.elapsed() < budget / SEGMENTS as u32 {
            let root = tracer.begin("query", seg.queries);
            let s = tracer.begin("query.gen", seg.queries);
            let q = stream.next().expect("the stream is endless");
            tracer.end(s);

            let lane = q.tenant.index();
            let now = secs_to_ns(q.arrival_s);
            let s = tracer.begin("server.batcher_push", q.id);
            batches.clear();
            for (l, queue) in queues.iter_mut().enumerate() {
                queue.flush_due(now, &mut out);
                batches.extend(out.drain(..).map(|b| (l, b)));
            }
            queues[lane].push(now, q.id, q.size, &mut out);
            batches.extend(out.drain(..).map(|b| (lane, b)));
            tracer.end(s);
            seg.queries += 1;
            seg.items += u64::from(q.size);

            for (model, batch) in batches.drain(..) {
                let s = tracer.begin("models.inputs_gen", next_request);
                let inputs = stack.models[model].generate_inputs(batch.items as usize, &mut rng);
                tracer.end(s);
                let s = tracer.begin("engine.roundtrip", next_request);
                engine.submit(EngineRequest::forward_for(next_request, model, inputs));
                let done = engine.completions().recv().expect("the worker is alive");
                tracer.child_ending_now("models.forward", next_request, done.service);
                tracer.end(s);
                next_request += 1;
                seg.served_items += u64::from(batch.items);
                seg.service_ns += done.service.as_nanos() as u64;
                seg.profile.merge(&done.profile);
            }
            tracer.end(root);
        }
        let own = tracer.self_ns();
        for (span, own_ns) in tracer.spans.iter().zip(&own).skip(first_span) {
            match span.name {
                "query.gen" => seg.gen_ns += own_ns,
                "server.batcher_push" => seg.push_ns += own_ns,
                "models.inputs_gen" => seg.inputs_ns += own_ns,
                "engine.roundtrip" => seg.overhead_us.push(*own_ns as f64 / 1e3),
                _ => {}
            }
        }
        segments.push(seg);
    }
    engine.shutdown();

    let over = |f: &dyn Fn(&Segment) -> f64| summarize(&segments.iter().map(f).collect::<Vec<_>>());
    let items = |s: &Segment| s.items.max(1) as f64;
    let served = |s: &Segment| s.served_items.max(1) as f64;
    LayerTimes {
        gen_ns_per_query: over(&|s| s.gen_ns as f64 / s.queries.max(1) as f64),
        push_ns_per_item: over(&|s| s.push_ns as f64 / items(s)),
        inputs_ns_per_item: over(&|s| s.inputs_ns as f64 / served(s)),
        forward_us_per_item: over(&|s| s.service_ns as f64 / 1e3 / served(s)),
        roundtrip_overhead_us: over(&|s| quantile_or_zero(&s.overhead_us, 0.5)),
        roundtrip_overhead_p95_us: over(&|s| quantile_or_zero(&s.overhead_us, 0.95)),
        op_us_per_item: OPS
            .iter()
            .map(|(kind, _)| over(&|s| s.profile.total_for(*kind).as_secs_f64() * 1e6 / served(s)))
            .collect(),
        embedding_share: over(&|s| {
            let total = s.profile.total().as_secs_f64();
            if total > 0.0 {
                s.profile.total_for(OpKind::Embedding).as_secs_f64() / total
            } else {
                0.0
            }
        }),
        queries: segments.iter().map(|s| s.queries).sum(),
        batches: next_request,
    }
}

fn quantile_or_zero(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        quantile(values, q)
    }
}
