//! Property-based tests for the NN operator library.

use drs_nn::{AttentionUnit, EmbeddingBag, GruCell, Mlp, OpProfiler, Pooling, ShardedEmbeddingSet};
use drs_tensor::{Activation, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POOLINGS: [Pooling; 3] = [Pooling::Sum, Pooling::Mean, Pooling::Concat];
/// Both register widths of the gather kernel and widths beside them.
const DIMS: [usize; 6] = [1, 7, 16, 32, 33, 64];

/// A ragged batch (equal-length for `Concat`) of uniform indices.
fn ragged_batch(lens: &[usize], rows: u32, pooling: Pooling, rng: &mut StdRng) -> Vec<Vec<u32>> {
    lens.iter()
        .map(|&n| {
            let n = if pooling == Pooling::Concat {
                lens[0]
            } else {
                n
            };
            (0..n).map(|_| rng.gen_range(0..rows)).collect()
        })
        .collect()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    // Case budget audited so the whole workspace suite stays fast in
    // debug CI; raise at runtime with PROPTEST_CASES for a deeper soak.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sum-pooled embedding lookups are additive: pooling the
    /// concatenation of two index lists equals the sum of pooling each.
    #[test]
    fn embedding_sum_is_additive(
        a in prop::collection::vec(0u32..50, 1..8),
        b in prop::collection::vec(0u32..50, 1..8),
    ) {
        let mut rng = StdRng::seed_from_u64(5);
        let bag = EmbeddingBag::new(50, 8, Pooling::Sum, &mut rng);
        let combined: Vec<u32> = a.iter().chain(&b).cloned().collect();
        let whole = bag.forward_plain(&[combined]);
        let pa = bag.forward_plain(&[a]);
        let pb = bag.forward_plain(&[b]);
        for j in 0..8 {
            let sum = pa.get(0, j) + pb.get(0, j);
            prop_assert!((whole.get(0, j) - sum).abs() < 1e-4);
        }
    }

    /// Mean pooling of identical indices equals a single lookup.
    #[test]
    fn embedding_mean_idempotent_on_repeats(idx in 0u32..50, reps in 1usize..16) {
        let mut rng = StdRng::seed_from_u64(6);
        let bag = EmbeddingBag::new(50, 4, Pooling::Mean, &mut rng);
        let pooled = bag.forward_plain(&[vec![idx; reps]]);
        let single = bag.table().lookup(idx);
        for (j, &s) in single.iter().enumerate().take(4) {
            prop_assert!((pooled.get(0, j) - s).abs() < 1e-5);
        }
    }

    /// Sharding moves a table's gather, never its bits: per-shard
    /// partials merged equal the unsharded lookup for any placement,
    /// width, pooling and ragged batch.
    #[test]
    fn sharded_gather_merge_equals_unsharded_bitwise(
        dim in 0usize..DIMS.len(),
        pooling in 0usize..POOLINGS.len(),
        assignment in prop::collection::vec(0usize..4, 1..7),
        lens in prop::collection::vec(1usize..24, 1..6),
        seed in 0u64..1 << 32,
    ) {
        let (dim, pooling) = (DIMS[dim], POOLINGS[pooling]);
        let mut rng = StdRng::seed_from_u64(seed);
        let bags: Vec<EmbeddingBag> = assignment
            .iter()
            .map(|_| EmbeddingBag::new(128, dim, pooling, &mut rng))
            .collect();
        let indices: Vec<Vec<Vec<u32>>> = bags
            .iter()
            .map(|_| ragged_batch(&lens, 128, pooling, &mut rng))
            .collect();
        let set = ShardedEmbeddingSet::new(bags.clone(), &assignment);
        let partials = (0..set.num_shards())
            .map(|s| set.forward_shard(s, &indices))
            .collect();
        let merged = set.merge(partials);
        for (t, bag) in bags.iter().enumerate() {
            prop_assert_eq!(bits(&merged[t]), bits(&bag.forward_plain(&indices[t])), "table {}", t);
        }
    }

    /// MLP outputs are finite for any bounded input (no activation
    /// blow-up through a deep ReLU stack).
    #[test]
    fn mlp_outputs_finite(vals in prop::collection::vec(-100.0f32..100.0, 16)) {
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = Mlp::from_dims(&[16, 32, 16, 8, 1], Activation::Relu, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_vec(1, 16, vals);
        let y = mlp.forward_plain(&x);
        prop_assert!(y.as_slice().iter().all(|v| v.is_finite()));
        prop_assert!((0.0..=1.0).contains(&y.get(0, 0)));
    }

    /// Attention weights form a per-sample distribution for any batch,
    /// sequence length and embedding content.
    #[test]
    fn attention_weights_always_distributions(batch in 1usize..5, seq in 1usize..9, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(3);
        let att = AttentionUnit::new(8, 4, &mut rng);
        let mut data_rng = StdRng::seed_from_u64(seed);
        let cand = Matrix::xavier_uniform(batch, 8, &mut data_rng);
        let beh = Matrix::xavier_uniform(batch * seq, 8, &mut data_rng);
        let mut prof = OpProfiler::new();
        let w = att.scores(&cand, &beh, seq, &mut prof);
        for s in 0..batch {
            let sum: f32 = w[s * seq..(s + 1) * seq].iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "sample {s} sums to {sum}");
        }
    }

    /// GRU state stays in (-1, 1) from a zero start, for any input
    /// sequence (convexity of the update rule).
    #[test]
    fn gru_state_bounded(steps in 1usize..24, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(9);
        let cell = GruCell::new(6, 5, &mut rng);
        let mut data_rng = StdRng::seed_from_u64(seed);
        let mut h = Matrix::zeros(2, 5);
        for _ in 0..steps {
            let x = Matrix::xavier_uniform(2, 6, &mut data_rng);
            h = cell.step(&x, &h, None);
        }
        prop_assert!(h.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    /// AUGRU with all-zero attention is the identity on the state,
    /// regardless of inputs.
    #[test]
    fn augru_zero_attention_identity(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(13);
        let cell = GruCell::new(4, 4, &mut rng);
        let mut data_rng = StdRng::seed_from_u64(seed);
        let h0 = Matrix::xavier_uniform(3, 4, &mut data_rng);
        let x = Matrix::xavier_uniform(3, 4, &mut data_rng);
        let h1 = cell.step(&x, &h0, Some(&[0.0, 0.0, 0.0]));
        for (a, b) in h1.as_slice().iter().zip(h0.as_slice()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }
}
