//! The runnable generalized recommendation model (Figure 2).

use crate::config::{InteractionKind, ModelConfig, ModelScale, PoolingKind, TableRole};
use crate::inputs::BatchInputs;
use drs_nn::{
    AttentionUnit, AuGru, EmbeddingBag, GruCell, Mlp, OpKind, OpProfiler, Pooling,
    ShardedEmbeddingSet,
};
use drs_tensor::{Activation, Matrix};
use rand::Rng;
use std::borrow::Cow;

/// An instantiated recommendation model with real weights, runnable on
/// the host CPU.
///
/// Construction follows Figure 2: the [`ModelConfig`] selects which of
/// the generalized architecture's components exist and how they are
/// sized; [`ModelScale`] caps embedding rows and sequence lengths so the
/// model fits in laptop memory (see DESIGN.md §2 for why this preserves
/// the systems behaviour under study).
///
/// The forward pass produces one click-through-rate per batch sample and
/// attributes every operator's wall-clock time to an
/// [`OpProfiler`] — the instrumentation behind Figure 3 and Table II.
#[derive(Debug)]
pub struct RecModel {
    cfg: ModelConfig,
    scale: ModelScale,
    dense_mlp: Option<Mlp>,
    predict: Vec<Mlp>,
    bags: Vec<EmbeddingBag>,
    /// Instantiated lookups per table (behavior sequences are capped).
    table_lookups: Vec<usize>,
    attention: Option<AttentionUnit>,
    gru: Option<GruCell>,
    augru: Option<AuGru>,
}

impl RecModel {
    /// Builds the model with fresh random weights.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ModelConfig::validate`] or is
    /// internally inconsistent (e.g. DIEN with `gru_hidden` different
    /// from the candidate embedding width).
    pub fn instantiate(cfg: &ModelConfig, scale: ModelScale, rng: &mut impl Rng) -> Self {
        cfg.validate();
        assert!(
            scale.table_rows_cap > 0 && scale.seq_len_cap > 0,
            "degenerate scale"
        );

        let mut bags = Vec::with_capacity(cfg.tables.len());
        let mut table_lookups = Vec::with_capacity(cfg.tables.len());
        for t in &cfg.tables {
            let rows = (t.rows as usize).min(scale.table_rows_cap);
            let pooling = match (cfg.pooling, t.role) {
                (PoolingKind::Sum, _) => Pooling::Sum,
                (PoolingKind::Concat | PoolingKind::Gmf, _) => Pooling::Concat,
                (PoolingKind::Attention | PoolingKind::AttentionRnn, _) => Pooling::Concat,
            };
            bags.push(EmbeddingBag::new(rows, t.dim, pooling, rng));
            let lookups = if t.role == TableRole::Behavior {
                t.lookups.min(scale.seq_len_cap)
            } else {
                t.lookups
            };
            table_lookups.push(lookups);
        }

        let dense_mlp = if cfg.dense_input_dim > 0 && !cfg.dense_fc.is_empty() {
            let mut dims = vec![cfg.dense_input_dim];
            dims.extend_from_slice(&cfg.dense_fc);
            Some(Mlp::from_dims(
                &dims,
                Activation::Relu,
                Activation::Relu,
                rng,
            ))
        } else {
            None
        };

        let (attention, gru, augru) = match cfg.pooling {
            PoolingKind::Attention => {
                let dim = candidate_dim(cfg);
                (
                    Some(AttentionUnit::new(dim, cfg.attention_hidden, rng)),
                    None,
                    None,
                )
            }
            PoolingKind::AttentionRnn => {
                let dim = candidate_dim(cfg);
                assert_eq!(
                    cfg.gru_hidden, dim,
                    "{}: DIEN-style models need gru_hidden == candidate dim \
                     so attention can score GRU states against the candidate",
                    cfg.name
                );
                (
                    Some(AttentionUnit::new(dim, cfg.attention_hidden, rng)),
                    Some(GruCell::new(dim, cfg.gru_hidden, rng)),
                    Some(AuGru::new(cfg.gru_hidden, cfg.gru_hidden, rng)),
                )
            }
            _ => (None, None, None),
        };

        let feat_width = interaction_width_for(cfg, &table_lookups);
        let mut predict_dims = vec![feat_width];
        predict_dims.extend_from_slice(&cfg.predict_fc);
        let predict = (0..cfg.num_tasks)
            .map(|_| Mlp::from_dims(&predict_dims, Activation::Relu, Activation::None, rng))
            .collect();

        RecModel {
            cfg: cfg.clone(),
            scale,
            dense_mlp,
            predict,
            bags,
            table_lookups,
            attention,
            gru,
            augru,
        }
    }

    /// The model's configuration (paper scale).
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The instantiation scale.
    pub fn scale(&self) -> ModelScale {
        self.scale
    }

    /// The model's paper name.
    pub fn name(&self) -> &str {
        self.cfg.name
    }

    /// Instantiated lookups per table (behavior sequences capped by the
    /// scale).
    pub fn table_lookups(&self) -> &[usize] {
        &self.table_lookups
    }

    /// Width of the feature vector entering the predictor stack.
    pub fn interaction_width(&self) -> usize {
        interaction_width_for(&self.cfg, &self.table_lookups)
    }

    /// Instantiated embedding storage in bytes.
    pub fn embedding_bytes(&self) -> usize {
        self.bags.iter().map(|b| b.table().bytes()).sum()
    }

    /// Total trainable parameters (MLPs + attention + GRUs; embeddings
    /// excluded).
    pub fn mlp_param_count(&self) -> usize {
        self.dense_mlp.as_ref().map_or(0, Mlp::param_count)
            + self.predict.iter().map(Mlp::param_count).sum::<usize>()
            + self
                .attention
                .as_ref()
                .map_or(0, AttentionUnit::param_count)
            + self.gru.as_ref().map_or(0, GruCell::param_count)
            + self.augru.as_ref().map_or(0, |g| g.cell().param_count())
    }

    /// Draws synthetic inputs matching this model's geometry: dense
    /// features from `U(-1, 1)` and uniformly random embedding indices
    /// (the locality worst case, matching production irregularity).
    pub fn generate_inputs(&self, batch: usize, rng: &mut impl Rng) -> BatchInputs {
        assert!(batch > 0, "empty batch");
        let dense = (self.cfg.dense_input_dim > 0).then(|| {
            Matrix::from_fn(batch, self.cfg.dense_input_dim, |_, _| {
                rng.gen_range(-1.0..1.0)
            })
        });
        let sparse = self
            .bags
            .iter()
            .zip(&self.table_lookups)
            .map(|(bag, &lookups)| {
                let rows = bag.table().rows() as u32;
                (0..batch)
                    .map(|_| (0..lookups).map(|_| rng.gen_range(0..rows)).collect())
                    .collect()
            })
            .collect();
        BatchInputs {
            batch,
            dense,
            sparse,
        }
    }

    /// Scores the batch, returning one CTR in `[0, 1]` per sample.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match this model's geometry.
    pub fn forward(&self, inputs: &BatchInputs, prof: &mut OpProfiler) -> Vec<f32> {
        self.validate_inputs(inputs);
        // Per-table pooled lookups in declaration order — the step
        // table-wise sharding distributes (see `forward_sharded`).
        let pooled: Vec<Matrix> = self
            .bags
            .iter()
            .zip(&inputs.sparse)
            .map(|(bag, idx)| bag.forward(idx, prof))
            .collect();
        self.forward_from_pooled(inputs, pooled, prof)
    }

    /// Partitions this model's embedding tables table-wise per
    /// `assignment` (table `t` on shard `assignment[t]`), cloning the
    /// instantiated weights into a [`ShardedEmbeddingSet`].
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not cover every table.
    pub fn sharded_embeddings(&self, assignment: &[usize]) -> ShardedEmbeddingSet {
        ShardedEmbeddingSet::new(self.bags.clone(), assignment)
    }

    /// Scores the batch through the sharded lookup path: every shard
    /// computes pooled partials for its local tables, the partials are
    /// merged, and the rest of the pass (interaction + predictors) runs
    /// as usual. Numerically identical to [`RecModel::forward`] —
    /// each table's pooling runs whole on exactly one shard, so
    /// sharding changes *where* a lookup executes, never its result
    /// (see `tests/sharded_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `set` does not match this model's
    /// geometry.
    pub fn forward_sharded(
        &self,
        inputs: &BatchInputs,
        set: &ShardedEmbeddingSet,
        prof: &mut OpProfiler,
    ) -> Vec<f32> {
        self.validate_inputs(inputs);
        assert_eq!(
            set.num_tables(),
            self.bags.len(),
            "{}: shard set covers {} tables, model has {}",
            self.cfg.name,
            set.num_tables(),
            self.bags.len()
        );
        let partials: Vec<_> = (0..set.num_shards())
            .map(|s| prof.time(OpKind::Embedding, || set.forward_shard(s, &inputs.sparse)))
            .collect();
        let pooled = set.merge(partials);
        self.forward_from_pooled(inputs, pooled, prof)
    }

    fn validate_inputs(&self, inputs: &BatchInputs) {
        inputs.validate();
        assert_eq!(
            inputs.sparse.len(),
            self.bags.len(),
            "{}: expected {} tables, got {}",
            self.cfg.name,
            self.bags.len(),
            inputs.sparse.len()
        );
    }

    /// The pass downstream of the per-table pooled lookups: dense
    /// path, sparse feature combination, interaction, predictors.
    /// `pooled[t]` is table `t`'s pooled output, however it was
    /// computed (locally or gathered from shards). Public so a serving
    /// runtime that gathers [`ShardedEmbeddingSet`] partials across
    /// nodes can run the dense tail at the merge point — the real
    /// counterpart of [`RecModel::forward_sharded`], which keeps every
    /// shard on one host.
    ///
    /// # Panics
    ///
    /// Panics if `pooled` does not match this model's table geometry.
    pub fn forward_from_pooled(
        &self,
        inputs: &BatchInputs,
        pooled: Vec<Matrix>,
        prof: &mut OpProfiler,
    ) -> Vec<f32> {
        let batch = inputs.batch;
        // Owns the attention models' candidate embedding, which `feats`
        // and every attention unit below borrow.
        let candidate;
        let mut feats: Vec<Cow<'_, Matrix>> = Vec::new();

        // Dense path.
        if let Some(dense) = &inputs.dense {
            feats.push(match &self.dense_mlp {
                Some(mlp) => Cow::Owned(mlp.forward(dense, OpKind::DenseFc, prof)),
                None => Cow::Borrowed(dense), // WnD: bypass to interaction
            });
        }

        // Sparse path.
        match self.cfg.pooling {
            PoolingKind::Sum | PoolingKind::Concat => {
                feats.extend(pooled.into_iter().map(Cow::Owned));
            }
            PoolingKind::Gmf => {
                for pair in pooled.chunks(2) {
                    let gmf = prof.time(OpKind::Interaction, || pair[0].hadamard(&pair[1]));
                    feats.push(Cow::Owned(gmf));
                }
            }
            PoolingKind::Attention | PoolingKind::AttentionRnn => {
                // Profile tables first, in declaration order, then the
                // (first) candidate, then one feature per behavior table.
                let mut first_candidate = None;
                let mut behavior_tables = Vec::new();
                for (i, m) in pooled.into_iter().enumerate() {
                    match self.cfg.tables[i].role {
                        TableRole::Profile => feats.push(Cow::Owned(m)),
                        TableRole::Candidate => {
                            first_candidate.get_or_insert(m);
                        }
                        TableRole::Behavior => behavior_tables.push((i, m)),
                    }
                }
                candidate = first_candidate.expect("validated: candidate exists");
                feats.push(Cow::Borrowed(&candidate));
                let att = self.attention.as_ref().expect("attention model");
                for (i, m) in behavior_tables {
                    let seq = self.table_lookups[i];
                    let dim = self.cfg.tables[i].dim;
                    // Concat-pooled `B × (seq·dim)` block is row-major
                    // identical to the `(B·seq) × dim` sequence view.
                    let behaviors = m.reshaped(batch * seq, dim);
                    feats.push(Cow::Owned(match self.cfg.pooling {
                        PoolingKind::Attention => att.forward(&candidate, &behaviors, seq, prof),
                        PoolingKind::AttentionRnn => {
                            let gru = self.gru.as_ref().expect("DIEN gru");
                            let augru = self.augru.as_ref().expect("DIEN augru");
                            let states = gru.forward_all(&behaviors, seq, prof);
                            let scores = att.scores(&candidate, &states, seq, prof);
                            augru.forward(&states, &scores, seq, prof)
                        }
                        _ => unreachable!(),
                    }));
                }
            }
        }

        // Feature interaction.
        let refs: Vec<&Matrix> = feats.iter().map(|m| &**m).collect();
        let feat = prof.time(OpKind::Interaction, || match self.cfg.interaction {
            InteractionKind::Concat => Matrix::concat_cols(&refs),
            InteractionKind::Sum => Matrix::sum_elementwise(&refs),
        });

        // Predictor stack(s); CTR = sigmoid of output unit 0, averaged
        // over tasks (MT-WnD scores multiple engagement objectives).
        let mut ctr = vec![0.0f32; batch];
        for mlp in &self.predict {
            let out = mlp.forward(&feat, OpKind::PredictFc, prof);
            for (b, c) in ctr.iter_mut().enumerate() {
                *c += Activation::Sigmoid.apply(out.get(b, 0));
            }
        }
        let inv = 1.0 / self.predict.len() as f32;
        for c in &mut ctr {
            *c *= inv;
        }
        ctr
    }
}

fn candidate_dim(cfg: &ModelConfig) -> usize {
    cfg.tables
        .iter()
        .find(|t| t.role == TableRole::Candidate)
        .expect("validated: candidate exists")
        .dim
}

/// Width of the interaction output — must agree exactly with what
/// [`RecModel::forward`] concatenates. Shared with `characterize` so the
/// analytic model and the runnable model can never diverge.
pub(crate) fn interaction_width_for(cfg: &ModelConfig, table_lookups: &[usize]) -> usize {
    let mut widths: Vec<usize> = Vec::new();
    if cfg.dense_input_dim > 0 {
        widths.push(if cfg.dense_fc.is_empty() {
            cfg.dense_input_dim
        } else {
            *cfg.dense_fc.last().expect("non-empty")
        });
    }
    match cfg.pooling {
        PoolingKind::Sum => {
            for t in &cfg.tables {
                widths.push(t.dim);
            }
        }
        PoolingKind::Concat => {
            for (t, &l) in cfg.tables.iter().zip(table_lookups) {
                widths.push(t.dim * l);
            }
        }
        PoolingKind::Gmf => {
            for pair in cfg.tables.chunks(2) {
                widths.push(pair[0].dim);
            }
        }
        PoolingKind::Attention | PoolingKind::AttentionRnn => {
            for t in &cfg.tables {
                if t.role == TableRole::Profile {
                    widths.push(t.dim);
                }
            }
            widths.push(candidate_dim(cfg));
            for t in &cfg.tables {
                if t.role == TableRole::Behavior {
                    widths.push(if cfg.pooling == PoolingKind::AttentionRnn {
                        cfg.gru_hidden
                    } else {
                        t.dim
                    });
                }
            }
        }
    }
    match cfg.interaction {
        InteractionKind::Concat => widths.iter().sum(),
        InteractionKind::Sum => {
            let w = widths[0];
            assert!(
                widths.iter().all(|&x| x == w),
                "{}: sum interaction needs equal widths, got {widths:?}",
                cfg.name
            );
            w
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny(cfg: &ModelConfig) -> RecModel {
        let mut rng = StdRng::seed_from_u64(7);
        RecModel::instantiate(cfg, ModelScale::tiny(), &mut rng)
    }

    #[test]
    fn all_zoo_models_forward_at_tiny_scale() {
        for cfg in zoo::all() {
            let model = tiny(&cfg);
            let mut rng = StdRng::seed_from_u64(1);
            for batch in [1usize, 3, 16] {
                let inputs = model.generate_inputs(batch, &mut rng);
                let mut prof = OpProfiler::new();
                let ctrs = model.forward(&inputs, &mut prof);
                assert_eq!(ctrs.len(), batch, "{}", cfg.name);
                assert!(
                    ctrs.iter().all(|p| (0.0..=1.0).contains(p)),
                    "{}: CTR outside [0,1]: {ctrs:?}",
                    cfg.name
                );
                assert!(prof.total().as_nanos() > 0, "{}", cfg.name);
            }
        }
    }

    #[test]
    fn forward_is_deterministic() {
        let cfg = zoo::dlrm_rmc1();
        let model = tiny(&cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let inputs = model.generate_inputs(4, &mut rng);
        let mut p1 = OpProfiler::new();
        let mut p2 = OpProfiler::new();
        assert_eq!(
            model.forward(&inputs, &mut p1),
            model.forward(&inputs, &mut p2)
        );
    }

    #[test]
    fn scale_caps_tables_and_sequences() {
        let cfg = zoo::din();
        let model = tiny(&cfg);
        assert!(model
            .bags_rows()
            .iter()
            .all(|&r| r <= ModelScale::tiny().table_rows_cap));
        // Behavior tables capped at 8 (tiny seq cap); profile stay 1.
        let b = model.table_lookups();
        assert!(b.contains(&8));
        assert!(b.contains(&1));
    }

    #[test]
    fn interaction_width_matches_forward() {
        // If these disagreed, the predictor matmul would panic on shape;
        // forward succeeding is the real assertion. Check a couple of
        // widths explicitly too.
        let ncf = tiny(&zoo::ncf());
        assert_eq!(ncf.interaction_width(), 2 * 32); // two GMF pairs
        let wnd = tiny(&zoo::wide_and_deep());
        assert_eq!(wnd.interaction_width(), 1000 + 20 * 32);
        let dien = tiny(&zoo::dien());
        assert_eq!(dien.interaction_width(), 8 * 32 + 32 + 32);
    }

    #[test]
    fn mt_wnd_averages_tasks() {
        let model = tiny(&zoo::mt_wide_and_deep());
        let mut rng = StdRng::seed_from_u64(5);
        let inputs = model.generate_inputs(2, &mut rng);
        let mut prof = OpProfiler::new();
        let ctrs = model.forward(&inputs, &mut prof);
        assert!(ctrs.iter().all(|p| (0.0..=1.0).contains(p)));
        // Four predictor stacks ran.
        assert_eq!(prof.count_for(OpKind::PredictFc), 4);
    }

    /// Every instantiated table, and the clones `sharded_embeddings`
    /// hands a shard set, start on a cache line (the gather kernel's
    /// 2-/4-lines-per-row layout).
    #[test]
    fn instantiated_and_cloned_tables_are_line_aligned() {
        for cfg in zoo::all() {
            let model = tiny(&cfg);
            for (t, bag) in model.bags.iter().chain(&model.bags.clone()).enumerate() {
                let addr = bag.table().lookup(0).as_ptr() as usize;
                assert_eq!(addr % 64, 0, "{} table {t}", cfg.name);
            }
        }
    }

    #[test]
    fn generate_inputs_respects_geometry() {
        let model = tiny(&zoo::dlrm_rmc2());
        let mut rng = StdRng::seed_from_u64(6);
        let inputs = model.generate_inputs(5, &mut rng);
        inputs.validate();
        assert_eq!(inputs.sparse.len(), 40);
        assert_eq!(inputs.total_lookups(), 5 * 40 * 80);
        assert!(inputs.dense.as_ref().unwrap().cols() == 256);
    }

    #[test]
    #[should_panic(expected = "expected 4 tables")]
    fn mismatched_inputs_panic() {
        let ncf = tiny(&zoo::ncf());
        let mut rng = StdRng::seed_from_u64(8);
        let other = tiny(&zoo::wide_and_deep());
        let inputs = other.generate_inputs(2, &mut rng);
        let mut prof = OpProfiler::new();
        let _ = ncf.forward(&inputs, &mut prof);
    }

    #[test]
    fn sum_interaction_supported() {
        use crate::config::TableConfig;
        let cfg = ModelConfig {
            name: "sum-model",
            domain: "-",
            dense_input_dim: 16,
            dense_fc: vec![32, 8],
            predict_fc: vec![4, 1],
            num_tasks: 1,
            tables: vec![TableConfig::multi_hot(100, 8, 4); 3],
            pooling: PoolingKind::Sum,
            interaction: InteractionKind::Sum,
            attention_hidden: 0,
            gru_hidden: 0,
            sla_ms: 1.0,
            paper_bottleneck: "-",
        };
        let model = tiny(&cfg);
        assert_eq!(model.interaction_width(), 8);
        let mut rng = StdRng::seed_from_u64(9);
        let inputs = model.generate_inputs(3, &mut rng);
        let mut prof = OpProfiler::new();
        let ctrs = model.forward(&inputs, &mut prof);
        assert_eq!(ctrs.len(), 3);
    }

    impl RecModel {
        fn bags_rows(&self) -> Vec<usize> {
            self.bags.iter().map(|b| b.table().rows()).collect()
        }
    }
}
