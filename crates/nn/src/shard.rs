//! Table-wise sharded embedding lookup: local partial pools plus a
//! gather/merge step.
//!
//! Production embedding tables outgrow a single node's DRAM (tens of
//! GBs per model, Section II-A), so at-scale deployments partition the
//! tables across nodes and reassemble each query's pooled rows with a
//! network exchange ("Understanding Capacity-Driven Scale-Out Neural
//! Recommendation Inference", Lui et al.). This module provides the
//! numeric half of that story: a [`ShardedEmbeddingSet`] splits a
//! model's [`EmbeddingBag`]s table-wise over N shards, each shard
//! computes pooled partials for *its* tables only, and
//! [`ShardedEmbeddingSet::merge`] reassembles the full per-table
//! outputs — bit-identical to the unsharded lookup, because every
//! table's pooling runs whole on exactly one shard.
//!
//! Placement (which table goes where) is a systems decision and lives
//! in `drs-shard`; this type only needs the resulting
//! `table → shard` assignment.

use crate::embedding::EmbeddingBag;
use drs_tensor::Matrix;

/// One shard's pooled outputs: `(global table index, pooled rows)` for
/// every table the shard holds, in ascending table order.
#[derive(Debug)]
pub struct ShardPartial {
    /// Which shard produced this partial.
    pub shard: usize,
    /// Pooled output per local table, keyed by global table index.
    pub outputs: Vec<(usize, Matrix)>,
}

impl ShardPartial {
    /// Bytes this partial contributes to the gather/exchange payload
    /// (the pooled rows that must travel to the merging node).
    pub fn payload_bytes(&self) -> usize {
        self.outputs
            .iter()
            .map(|(_, m)| m.rows() * m.cols() * std::mem::size_of::<f32>())
            .sum()
    }
}

/// A model's embedding tables partitioned table-wise across shards.
///
/// # Examples
///
/// ```
/// use drs_nn::{EmbeddingBag, Pooling, ShardedEmbeddingSet};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let bags: Vec<_> = (0..3)
///     .map(|_| EmbeddingBag::new(100, 8, Pooling::Sum, &mut rng))
///     .collect();
/// let unsharded = bags.clone();
/// // Tables 0 and 2 on shard 0, table 1 on shard 1.
/// let set = ShardedEmbeddingSet::new(bags, &[0, 1, 0]);
/// let indices = vec![
///     vec![vec![1, 2], vec![3]],
///     vec![vec![4], vec![5, 6]],
///     vec![vec![7], vec![8]],
/// ];
/// let partials: Vec<_> = (0..set.num_shards())
///     .map(|s| set.forward_shard(s, &indices))
///     .collect();
/// let merged = set.merge(partials);
/// for (t, bag) in unsharded.iter().enumerate() {
///     assert_eq!(merged[t], bag.forward_plain(&indices[t]));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ShardedEmbeddingSet {
    /// `shards[s]` holds `(global table index, bag)` pairs, ascending
    /// by table index.
    shards: Vec<Vec<(usize, EmbeddingBag)>>,
    num_tables: usize,
}

impl ShardedEmbeddingSet {
    /// Partitions `bags` table-wise: table `t` lives on shard
    /// `assignment[t]`. Shards are dense `0..num_shards` where
    /// `num_shards = max(assignment) + 1`; empty shards are allowed
    /// (they produce empty partials).
    ///
    /// # Panics
    ///
    /// Panics if `bags` is empty or `assignment.len() != bags.len()`.
    pub fn new(bags: Vec<EmbeddingBag>, assignment: &[usize]) -> Self {
        assert!(!bags.is_empty(), "a sharded set needs tables");
        assert_eq!(
            assignment.len(),
            bags.len(),
            "assignment must cover every table exactly once"
        );
        let num_shards = assignment.iter().max().map_or(0, |&m| m + 1);
        let num_tables = bags.len();
        let mut shards: Vec<Vec<(usize, EmbeddingBag)>> = vec![Vec::new(); num_shards];
        for (t, (bag, &s)) in bags.into_iter().zip(assignment).enumerate() {
            shards[s].push((t, bag));
        }
        ShardedEmbeddingSet { shards, num_tables }
    }

    /// Number of shards (including any empty ones).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total tables across all shards.
    pub fn num_tables(&self) -> usize {
        self.num_tables
    }

    /// Global table indices held by `shard`, ascending.
    pub fn tables_on(&self, shard: usize) -> Vec<usize> {
        self.shards[shard].iter().map(|&(t, _)| t).collect()
    }

    /// Instantiated table bytes resident on `shard`.
    pub fn bytes_on(&self, shard: usize) -> usize {
        self.shards[shard]
            .iter()
            .map(|(_, b)| b.table().bytes())
            .sum()
    }

    /// Computes `shard`'s pooled partials. `all_indices[t]` is the
    /// batched index list for global table `t` (same shape as the
    /// unsharded per-table forward); only the shard's local tables are
    /// touched.
    ///
    /// # Panics
    ///
    /// Panics if `all_indices` does not cover every table, or an index
    /// list is invalid for its bag.
    pub fn forward_shard(&self, shard: usize, all_indices: &[Vec<Vec<u32>>]) -> ShardPartial {
        assert_eq!(
            all_indices.len(),
            self.num_tables,
            "expected index lists for {} tables, got {}",
            self.num_tables,
            all_indices.len()
        );
        ShardPartial {
            shard,
            outputs: self.shards[shard]
                .iter()
                .map(|(t, bag)| (*t, bag.forward_plain(&all_indices[*t])))
                .collect(),
        }
    }

    /// Reassembles per-table pooled outputs from shard partials, in
    /// global table order — the merge step a query's home node performs
    /// after the exchange. Bit-identical to running every table's bag
    /// unsharded, since each table pooled whole on one shard.
    ///
    /// # Panics
    ///
    /// Panics if the partials do not cover every table exactly once.
    pub fn merge(&self, partials: Vec<ShardPartial>) -> Vec<Matrix> {
        let mut merged: Vec<Option<Matrix>> = (0..self.num_tables).map(|_| None).collect();
        for p in partials {
            for (t, m) in p.outputs {
                assert!(
                    merged[t].is_none(),
                    "table {t} delivered by more than one partial"
                );
                merged[t] = Some(m);
            }
        }
        merged
            .into_iter()
            .enumerate()
            .map(|(t, m)| m.unwrap_or_else(|| panic!("no partial delivered table {t}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::Pooling;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bags(n: usize, pooling: Pooling) -> Vec<EmbeddingBag> {
        let mut rng = StdRng::seed_from_u64(11);
        (0..n)
            .map(|_| EmbeddingBag::new(64, 4, pooling, &mut rng))
            .collect()
    }

    fn indices(tables: usize, batch: usize, lookups: usize, seed: u64) -> Vec<Vec<Vec<u32>>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..tables)
            .map(|_| {
                (0..batch)
                    .map(|_| (0..lookups).map(|_| rng.gen_range(0..64)).collect())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn sharded_merge_equals_unsharded_bitexact() {
        for pooling in [Pooling::Sum, Pooling::Mean, Pooling::Concat] {
            let b = bags(5, pooling);
            let reference = b.clone();
            let idx = indices(5, 3, 4, 2);
            for assignment in [
                vec![0, 0, 0, 0, 0],
                vec![0, 1, 0, 1, 0],
                vec![2, 1, 0, 2, 1],
                vec![0, 1, 2, 3, 4],
            ] {
                let set = ShardedEmbeddingSet::new(b.clone(), &assignment);
                let partials: Vec<_> = (0..set.num_shards())
                    .map(|s| set.forward_shard(s, &idx))
                    .collect();
                let merged = set.merge(partials);
                for (t, bag) in reference.iter().enumerate() {
                    assert_eq!(
                        merged[t],
                        bag.forward_plain(&idx[t]),
                        "table {t} under {assignment:?}"
                    );
                }
            }
        }
    }

    /// `RecModel::sharded_embeddings` builds its set from cloned bags,
    /// and serving clones the set again: neither may cost a table the
    /// line alignment the gather kernel counts on.
    #[test]
    fn sharded_tables_stay_line_aligned() {
        let model_bags = bags(5, Pooling::Sum);
        let set = ShardedEmbeddingSet::new(model_bags.clone(), &[2, 1, 0, 2, 1]);
        for set in [set.clone(), set] {
            for (t, bag) in set.shards.iter().flatten() {
                let addr = bag.table().lookup(0).as_ptr() as usize;
                assert_eq!(addr % 64, 0, "table {t}");
            }
        }
    }

    #[test]
    fn shard_bookkeeping() {
        let set = ShardedEmbeddingSet::new(bags(4, Pooling::Sum), &[1, 0, 1, 1]);
        assert_eq!(set.num_shards(), 2);
        assert_eq!(set.num_tables(), 4);
        assert_eq!(set.tables_on(0), vec![1]);
        assert_eq!(set.tables_on(1), vec![0, 2, 3]);
        assert_eq!(set.bytes_on(0), 64 * 4 * 4);
        assert_eq!(set.bytes_on(1), 3 * 64 * 4 * 4);
    }

    #[test]
    fn partial_payload_counts_pooled_bytes() {
        let set = ShardedEmbeddingSet::new(bags(2, Pooling::Sum), &[0, 1]);
        let idx = indices(2, 3, 7, 5);
        let p = set.forward_shard(0, &idx);
        // Sum pooling: batch 3 rows of dim 4, f32.
        assert_eq!(p.payload_bytes(), 3 * 4 * 4);
    }

    #[test]
    fn empty_shards_allowed() {
        // Assignment skipping shard 1 leaves it empty but addressable.
        let set = ShardedEmbeddingSet::new(bags(2, Pooling::Sum), &[0, 2]);
        assert_eq!(set.num_shards(), 3);
        let idx = indices(2, 2, 2, 9);
        let p = set.forward_shard(1, &idx);
        assert!(p.outputs.is_empty());
        assert_eq!(p.payload_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "cover every table")]
    fn wrong_assignment_length_panics() {
        let _ = ShardedEmbeddingSet::new(bags(3, Pooling::Sum), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "no partial delivered table 1")]
    fn missing_partial_panics() {
        let set = ShardedEmbeddingSet::new(bags(2, Pooling::Sum), &[0, 1]);
        let idx = indices(2, 2, 2, 3);
        let p0 = set.forward_shard(0, &idx);
        let _ = set.merge(vec![p0]);
    }

    #[test]
    #[should_panic(expected = "more than one partial")]
    fn duplicate_partial_panics() {
        let set = ShardedEmbeddingSet::new(bags(2, Pooling::Sum), &[0, 1]);
        let idx = indices(2, 2, 2, 3);
        let p0 = set.forward_shard(0, &idx);
        let p0b = set.forward_shard(0, &idx);
        let p1 = set.forward_shard(1, &idx);
        let _ = set.merge(vec![p0, p0b, p1]);
    }
}
