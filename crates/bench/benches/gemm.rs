//! Micro-benchmark: the GEMM kernel underlying every FC stack
//! (substrate for the Figure 3/4 measurements).
//!
//! Each shape runs twice: `packed/…` is what a layer pays per forward
//! (`PackedWeights::linear` on weights packed once, outside the timed
//! loop), `wrapper/…` is `Matrix::matmul_into`, which packs its
//! right-hand side on every call — the gap between the two is the
//! pack-per-call overhead of the convenience API.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drs_tensor::{Activation, Matrix, PackedWeights};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &(m, k, n) in &[
        // Skinny serving shapes: a coalesced handful of small queries
        // through WND's first two layers and RMC1's first predict layer.
        (9usize, 1640usize, 1024usize),
        (9, 1024, 512),
        (12, 352, 256),
        // Full batches.
        (16, 256, 256),
        (64, 256, 256),
        (64, 1640, 1024),
        (256, 512, 128),
    ] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::xavier_uniform(m, k, &mut rng);
        let b = Matrix::xavier_uniform(k, n, &mut rng);
        let packed = PackedWeights::pack(&b);
        let bias = vec![0.0; n];
        let mut out = Matrix::zeros(m, n);
        group.throughput(Throughput::Elements((2 * m * k * n) as u64));
        group.bench_with_input(
            BenchmarkId::new("packed", format!("{m}x{k}x{n}")),
            &(m, k, n),
            |bch, _| bch.iter(|| packed.linear(&a, &bias, Activation::Relu)),
        );
        group.bench_with_input(
            BenchmarkId::new("wrapper", format!("{m}x{k}x{n}")),
            &(m, k, n),
            |bch, _| bch.iter(|| a.matmul_into(&b, &mut out)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
