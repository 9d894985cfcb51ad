//! Synthetic batch inputs matching a model's instantiated geometry.

use drs_tensor::Matrix;

/// Inputs for one forward pass over a batch of user–item pairs.
///
/// `sparse[t][b]` lists the embedding rows gathered from table `t` by
/// sample `b`. Built by [`crate::RecModel::generate_inputs`], which
/// draws indices uniformly from each table's instantiated row range —
/// uniform random indices are the *worst case* for locality and match
/// the paper's "irregular memory accesses" characterization.
#[derive(Debug, Clone)]
pub struct BatchInputs {
    /// Number of user–item pairs scored in this request.
    pub batch: usize,
    /// Dense (continuous) features, `batch × dense_input_dim`; `None`
    /// for models without dense inputs.
    pub dense: Option<Matrix>,
    /// Per-table, per-sample gathered indices.
    pub sparse: Vec<Vec<Vec<u32>>>,
}

impl BatchInputs {
    /// Validates the inputs against expected geometry.
    ///
    /// # Panics
    ///
    /// Panics if batch is zero or any per-table batch dimension is
    /// inconsistent.
    pub fn validate(&self) {
        assert!(self.batch > 0, "empty batch");
        if let Some(d) = &self.dense {
            assert_eq!(d.rows(), self.batch, "dense batch mismatch");
        }
        for (t, per_sample) in self.sparse.iter().enumerate() {
            assert_eq!(
                per_sample.len(),
                self.batch,
                "table {t} has {} samples, batch is {}",
                per_sample.len(),
                self.batch
            );
        }
    }

    /// Total embedding-row gathers across all tables and samples: a
    /// count of index entries, duplicates included — rows *asked for*,
    /// not cache lines moved (see `EmbeddingBag::bytes_gathered` for
    /// the byte view).
    pub fn total_lookups(&self) -> usize {
        self.sparse
            .iter()
            .flat_map(|per_sample| per_sample.iter().map(Vec::len))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_passes_consistent() {
        let b = BatchInputs {
            batch: 2,
            dense: Some(Matrix::zeros(2, 4)),
            sparse: vec![vec![vec![0, 1], vec![2, 3]]],
        };
        b.validate();
        assert_eq!(b.total_lookups(), 4);
    }

    #[test]
    #[should_panic(expected = "dense batch mismatch")]
    fn validate_rejects_dense_mismatch() {
        let b = BatchInputs {
            batch: 2,
            dense: Some(Matrix::zeros(3, 4)),
            sparse: vec![],
        };
        b.validate();
    }

    #[test]
    #[should_panic(expected = "table 0 has")]
    fn validate_rejects_sparse_mismatch() {
        let b = BatchInputs {
            batch: 2,
            dense: None,
            sparse: vec![vec![vec![0]]],
        };
        b.validate();
    }
}
