//! Micro-benchmark: pooled embedding lookups — the irregular-access
//! primitive that dominates DLRM-RMC1/RMC2 (Figures 1b and 3).
//!
//! Two groups. `embedding_bag` replays **one** index set per case, so
//! after the warm-up the rows it touches sit in L2: it times the
//! kernel's arithmetic, not its misses. `embedding_bag_cold` rotates
//! through enough pre-generated index sets that a set's rows have been
//! evicted from L2 by the time it comes round again — the serving
//! path's regime, and the group to read when judging a gather change
//! (prefetch distance included).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drs_nn::{EmbeddingBag, Pooling};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn index_set(rng: &mut StdRng, rows: u32, batch: usize, lookups: usize) -> Vec<Vec<u32>> {
    (0..batch)
        .map(|_| (0..lookups).map(|_| rng.gen_range(0..rows)).collect())
        .collect()
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("embedding_bag");
    let mut rng = StdRng::seed_from_u64(5);
    let bag = EmbeddingBag::new(100_000, 32, Pooling::Sum, &mut rng);
    for &(batch, lookups) in &[(16usize, 80usize), (64, 80), (64, 20), (256, 80)] {
        let indices = index_set(&mut rng, 100_000, batch, lookups);
        group.throughput(Throughput::Elements((batch * lookups) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("b{batch}_l{lookups}")),
            &batch,
            |bch, _| bch.iter(|| bag.forward_plain(&indices)),
        );
    }
    group.finish();
}

fn bench_lookup_cold(c: &mut Criterion) {
    /// 128 MB per table: 30× this host's L2, so a uniform index misses it.
    const TABLE_FLOATS: usize = 32 << 20;
    /// Rows one rotation touches before a set repeats (16–32 MB of rows).
    const ROTATION_ROWS: usize = 1 << 17;
    const BATCH: usize = 64;
    let mut group = c.benchmark_group("embedding_bag_cold");
    let mut rng = StdRng::seed_from_u64(7);
    for dim in [32usize, 64] {
        let rows = TABLE_FLOATS / dim;
        for pooling in [Pooling::Sum, Pooling::Concat] {
            let bag = EmbeddingBag::new(rows, dim, pooling, &mut rng);
            for lookups in [1usize, 20, 80] {
                let sets: Vec<Vec<Vec<u32>>> = (0..(ROTATION_ROWS / (BATCH * lookups)).max(8))
                    .map(|_| index_set(&mut rng, rows as u32, BATCH, lookups))
                    .collect();
                let mut next = 0;
                group.throughput(Throughput::Elements((BATCH * lookups) as u64));
                group.bench_with_input(
                    BenchmarkId::from_parameter(format!("d{dim}_{pooling:?}_l{lookups}")),
                    &lookups,
                    |bch, _| {
                        bch.iter(|| {
                            next = (next + 1) % sets.len();
                            bag.forward_plain(&sets[next])
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lookup, bench_lookup_cold);
criterion_main!(benches);
