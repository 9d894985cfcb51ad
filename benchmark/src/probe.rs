//! Micro-probes: one public call of one layer in a loop, inputs built
//! before the timed region, median and quartiles over repetitions; and
//! the host sentinels the kernel rates are read against.

use crate::fleet::REPS;
use crate::stats::{summarize, Sample};
use drs_core::{ClusterTopology, EventQueue, NodeSpec, RoutingPolicy};
use drs_metrics::{LatencyRecorder, MetricsRegistry};
use drs_models::{zoo, BatchInputs, ModelConfig, PoolingKind, RecModel};
use drs_nn::{EmbeddingBag, OpProfiler, Pooling, ShardedEmbeddingSet};
use drs_platform::{CpuPlatform, ModelCost};
use drs_query::{ArrivalProcess, QueryGenerator, SizeDistribution, TenantId};
use drs_server::{Batch, BatchQueue, Router};
use drs_shard::{PlacementPolicy, ShardPlan};
use drs_telemetry::{QuerySpan, RingRecorder, Stage, TraceSink, STAGE_COUNT};
use drs_tensor::{Activation, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nanoseconds per unit of work. Each repetition alternates `prepare`
/// (untimed: builds what one `run` consumes) and `run` (timed: returns
/// the units it did) until `budget` has passed.
pub(crate) fn ns_per_unit<T>(
    budget: Duration,
    mut prepare: impl FnMut() -> T,
    mut run: impl FnMut(T) -> u64,
) -> Sample {
    black_box(run(prepare())); // warm caches and lazy allocations
    let per_rep: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            let (mut busy, mut units) = (Duration::ZERO, 0u64);
            while started.elapsed() < budget {
                let input = prepare();
                let t = Instant::now();
                units += run(input);
                busy += t.elapsed();
            }
            busy.as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    summarize(&per_rep)
}

/// `BatchQueue::reform` of a 64-batch backlog formed at batch 16 after
/// the knob moved to 64, ns per item.
pub(crate) fn batcher_reform(budget: Duration) -> Sample {
    let mut forming = BatchQueue::new(16, 200_000);
    let mut backlog: Vec<Batch> = Vec::new();
    for q in 0..64 {
        forming.push(q * 1_000, q, 16, &mut backlog);
    }
    let items: u64 = backlog.iter().map(|b| u64::from(b.items)).sum();
    let mut queue = BatchQueue::new(16, 200_000);
    let mut out = Vec::new();
    queue.set_max_batch(64, &mut out);
    ns_per_unit(
        budget,
        || (0..32).map(|_| backlog.clone()).collect::<Vec<_>>(),
        |backlogs| {
            let n = backlogs.len() as u64;
            for b in backlogs {
                out.clear();
                queue.reform(b, &mut out);
                black_box(out.len());
            }
            n * items
        },
    )
}

/// Deep copy of a 64-item `BatchInputs`, ns per item.
pub(crate) fn inputs_clone(inputs: &BatchInputs, budget: Duration) -> Sample {
    ns_per_unit(
        budget,
        || (),
        |()| {
            for _ in 0..16 {
                black_box(inputs.clone());
            }
            16 * inputs.batch as u64
        },
    )
}

/// `RecModel::forward` of a 64-item batch on this thread, µs per call.
pub(crate) fn forward_us(model: &RecModel, inputs: &BatchInputs, budget: Duration) -> Sample {
    let mut prof = OpProfiler::new();
    ns_per_unit(
        budget,
        || (),
        |()| {
            black_box(model.forward(inputs, &mut prof));
            1
        },
    )
    .scaled(1e-3)
}

/// Measured forward time over what the analytic cost model charges the
/// virtual clock for the same request on one Skylake core.
pub(crate) fn cost_model_ratio(cfg: &ModelConfig, forward_us: Sample, batch: usize) -> Sample {
    forward_us.scaled(1.0 / ModelCost::new(cfg).cpu_request_us(&CpuPlatform::skylake(), batch, 1))
}

/// `EmbeddingBag::forward_plain` over tables of the model's shape with
/// fresh uniform indices for a 64-item batch. GB/s of *computed* bytes:
/// `bytes_gathered` counts rows × width, not what the memory system moved.
pub(crate) fn embedding_gather_gbps(model: &RecModel, budget: Duration, seed: u64) -> Sample {
    const BATCH: usize = 64;
    let (cfg, scale) = (model.config(), model.scale());
    let pooling = match cfg.pooling {
        PoolingKind::Sum => Pooling::Sum,
        _ => Pooling::Concat,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let tables: Vec<(EmbeddingBag, Vec<Vec<u32>>, u64)> = cfg
        .tables
        .iter()
        .zip(model.table_lookups())
        .map(|(t, &lookups)| {
            let rows = (t.rows as usize).min(scale.table_rows_cap);
            let bag = EmbeddingBag::new(rows, t.dim, pooling, &mut rng);
            let indices: Vec<Vec<u32>> = (0..BATCH)
                .map(|_| {
                    (0..lookups)
                        .map(|_| rng.gen_range(0..rows as u32))
                        .collect()
                })
                .collect();
            let bytes = bag.bytes_gathered(BATCH, lookups);
            (bag, indices, bytes)
        })
        .collect();
    let bytes: u64 = tables.iter().map(|(_, _, b)| b).sum();
    ns_per_unit(
        budget,
        || (),
        |()| {
            for (bag, indices, _) in &tables {
                black_box(bag.forward_plain(indices));
            }
            bytes
        },
    )
    .inverted(1.0)
}

/// `Matrix::linear` at `rows` × the model's widest fully connected layer;
/// GFLOP/s with flops computed as 2·m·n·k.
pub(crate) fn linear_gflops(model: &RecModel, rows: usize, budget: Duration, seed: u64) -> Sample {
    let cfg = model.config();
    let mut layers: Vec<(usize, usize)> = Vec::new();
    let mut chain = |first: usize, widths: &[usize]| {
        let mut k = first;
        for &n in widths {
            layers.push((k, n));
            k = n;
        }
    };
    chain(cfg.dense_input_dim, &cfg.dense_fc);
    chain(model.interaction_width(), &cfg.predict_fc);
    let (k, n) = layers
        .into_iter()
        .max_by_key(|(k, n)| k * n)
        .expect("a model has FC layers");
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Matrix::from_fn(rows, k, |_, _| rng.gen_range(-1.0..1.0));
    let w = Matrix::xavier_uniform(k, n, &mut rng);
    let bias = vec![0.01f32; n];
    let flops = 2 * (rows * k * n) as u64;
    ns_per_unit(
        budget,
        || (),
        |()| {
            black_box(x.linear(&w, &bias, Activation::Relu));
            flops
        },
    )
    .inverted(1.0)
}

/// `LatencyRecorder::record_ms` of 1 000 samples plus one `summary`, ns
/// per sample.
pub(crate) fn latency_record(budget: Duration) -> Sample {
    ns_per_unit(
        budget,
        || (),
        |()| {
            let mut rec = LatencyRecorder::new();
            for i in 0..1_000u32 {
                rec.record_ms(1.0 + f64::from(i % 97) * 0.13);
            }
            black_box(rec.summary().p95_ms);
            1_000
        },
    )
}

/// `Router::route` + `complete` under least-outstanding on 16 nodes with
/// 64 queries in flight, routes per second.
pub(crate) fn router_routes(budget: Duration, seed: u64) -> Sample {
    let sizes: Vec<u32> = QueryGenerator::new(
        ArrivalProcess::poisson(10_000.0),
        SizeDistribution::production(),
        seed,
    )
    .take(10_000)
    .map(|q| q.size)
    .collect();
    let gpu_nodes: Vec<bool> = (0..16).map(|i| i % 2 == 0).collect();
    ns_per_unit(
        budget,
        || Router::new(RoutingPolicy::LeastOutstanding, &gpu_nodes, 250, 11),
        |mut router| {
            let mut inflight = std::collections::VecDeque::with_capacity(65);
            for &size in &sizes {
                inflight.push_back(router.route(TenantId::SOLO, size));
                if inflight.len() > 64 {
                    router.complete(inflight.pop_front().expect("non-empty"));
                }
            }
            black_box(router.dispatched()[0]);
            sizes.len() as u64
        },
    )
    .inverted(1e9)
}

/// `ShardPlan::place` of DLRM-RMC2 on eight nodes, both policies, µs per
/// pair of placements.
pub(crate) fn shard_place_us(budget: Duration) -> Sample {
    let cfg = zoo::dlrm_rmc2();
    let fleet = ClusterTopology::new(vec![
        NodeSpec::cpu_only(CpuPlatform::skylake())
            .with_mem_bytes(16 << 30);
        8
    ]);
    ns_per_unit(
        budget,
        || (),
        |()| {
            for policy in [PlacementPolicy::SizeGreedy, PlacementPolicy::LookupBalanced] {
                black_box(
                    ShardPlan::place(&cfg, &fleet, policy)
                        .map(|p| p.node_count())
                        .ok(),
                );
            }
            1
        },
    )
    .scaled(1e-3)
}

/// `ShardedEmbeddingSet::forward_shard` on both shards plus `merge`,
/// 8 tables × 20 k rows × 32 wide, 80 lookups, batch 32. GB/s of computed
/// bytes.
pub(crate) fn shard_gather_merge_gbps(budget: Duration, seed: u64) -> Sample {
    const TABLES: usize = 8;
    const ROWS: usize = 20_000;
    const DIM: usize = 32;
    const LOOKUPS: usize = 80;
    const BATCH: usize = 32;
    let mut rng = StdRng::seed_from_u64(seed);
    let bags: Vec<EmbeddingBag> = (0..TABLES)
        .map(|_| EmbeddingBag::new(ROWS, DIM, Pooling::Sum, &mut rng))
        .collect();
    let indices: Vec<Vec<Vec<u32>>> = (0..TABLES)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    (0..LOOKUPS)
                        .map(|_| rng.gen_range(0..ROWS as u32))
                        .collect()
                })
                .collect()
        })
        .collect();
    let assignment: Vec<usize> = (0..TABLES).map(|t| t % 2).collect();
    let set = ShardedEmbeddingSet::new(bags, &assignment);
    let bytes = (TABLES * BATCH * LOOKUPS * DIM * std::mem::size_of::<f32>()) as u64;
    ns_per_unit(
        budget,
        || (),
        |()| {
            let partials: Vec<_> = (0..set.num_shards())
                .map(|s| set.forward_shard(s, &indices))
                .collect();
            black_box(set.merge(partials));
            bytes
        },
    )
    .inverted(1.0)
}

/// `EventQueue` push + pop with 1 024 events pending, ns per operation.
pub(crate) fn event_queue(budget: Duration) -> Sample {
    ns_per_unit(
        budget,
        || (),
        |()| {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut t = 0u64;
            for i in 0..1_024u32 {
                t = t
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                q.push(t >> 40, i);
            }
            for i in 0..8_192u32 {
                let (now, _) = q.pop().expect("queue holds events");
                t = t
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                q.push(now + (t >> 44), i);
            }
            black_box(q.len());
            2 * 8_192 + 1_024
        },
    )
}

/// `RingRecorder::record` of synthetic spans, ns per span.
pub(crate) fn ring_record(budget: Duration) -> Sample {
    let spans: Vec<QuerySpan> = (0..4_096u64)
        .map(|i| {
            let mut stages = [0u64; STAGE_COUNT];
            stages[Stage::QueueWait.index()] = 100_000 + i * 13;
            stages[Stage::EngineService.index()] = 2_000_000 + i * 7;
            QuerySpan {
                query_id: i,
                tenant: (i % 3) as usize,
                node: (i % 4) as usize,
                arrival_ns: i * 1_000_000,
                end_ns: i * 1_000_000 + stages.iter().sum::<u64>(),
                stages,
            }
        })
        .collect();
    ns_per_unit(
        budget,
        || RingRecorder::new(spans.len()),
        |mut ring| {
            for s in &spans {
                ring.record(s);
            }
            black_box(ring.recorded())
        },
    )
}

/// `MetricsRegistry::sample` after refreshing the 14 series of a two-node,
/// two-lane fleet, ns per sample.
pub(crate) fn registry_sample(budget: Duration) -> Sample {
    let keys: Vec<String> = (0..2)
        .flat_map(|n| {
            [format!("queue_depth_n{n}"), format!("gpu_backlog_ns_n{n}")]
                .into_iter()
                .chain((0..2).flat_map(move |l| {
                    [
                        format!("max_batch_n{n}_t{l}"),
                        format!("drr_deficit_n{n}_t{l}"),
                    ]
                }))
        })
        .collect();
    ns_per_unit(
        budget,
        || (),
        |()| {
            let mut reg = MetricsRegistry::new();
            for t in 0..1_000u64 {
                for (i, k) in keys.iter().enumerate() {
                    reg.set_gauge(k, ((t + i as u64) % 97) as f64);
                }
                reg.inc("completed_total", 3);
                reg.observe("latency_ms", 4.0 + (t % 11) as f64);
                reg.sample(t * 1_000_000);
            }
            black_box(reg.samples().len());
            1_000
        },
    )
}

/// Cores the process may use.
pub(crate) fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// STREAM-style copy of a 64 MB array, GB/s counting bytes read plus
/// bytes written.
pub(crate) fn copy_gbps(budget: Duration) -> Sample {
    let src = vec![1.5f32; 16 << 20];
    let mut dst = vec![0.0f32; 16 << 20];
    let bytes = (2 * src.len() * std::mem::size_of::<f32>()) as u64;
    ns_per_unit(
        budget,
        || (),
        |()| {
            dst.copy_from_slice(black_box(&src));
            black_box(dst[12_345]);
            bytes
        },
    )
    .inverted(1.0)
}

/// Multiply-add over 64 independent accumulators held in registers,
/// GFLOP/s at two flops per multiply-add: what this build's code
/// generation reaches on one core, not the chip's data-sheet peak.
pub(crate) fn fma_gflops(budget: Duration) -> Sample {
    const LANES: usize = 64;
    const ITERS: usize = 100_000;
    ns_per_unit(
        budget,
        || (),
        |()| {
            let mut acc = [1.0f32; LANES];
            let (a, b) = (black_box(0.999_9f32), black_box(1e-4f32));
            for _ in 0..ITERS {
                for v in acc.iter_mut() {
                    *v = *v * a + b;
                }
            }
            black_box(acc);
            (2 * LANES * ITERS) as u64
        },
    )
    .inverted(1.0)
}

/// A fixed integer spin, seconds. Timed before and after the workload:
/// if the two differ, something else had the core.
pub(crate) fn spin_s() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9u64);
    for _ in 0..30_000_000u32 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}
