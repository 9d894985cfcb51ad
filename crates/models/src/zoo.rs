//! The eight Table-I model configurations.
//!
//! Widths and table geometries follow Table I of the paper; where the
//! paper gives a range ("Tens", "Hundreds", "≤ 40") we pick a
//! representative point and note it. Row counts are **paper scale**
//! (they make the analytic cost model honest); instantiation caps them
//! via [`crate::ModelScale`].
//!
//! SLA targets come from Table II.

use crate::config::{InteractionKind, ModelConfig, PoolingKind, TableConfig, TableRole};

/// Neural Collaborative Filtering: matrix factorization generalized with
/// MLPs. Four one-hot tables (two user, two item), GMF pooling, a small
/// predictor — the lightest model of the suite (5 ms SLA).
pub fn ncf() -> ModelConfig {
    ModelConfig {
        name: "NCF",
        domain: "Movies",
        dense_input_dim: 0,
        dense_fc: vec![],
        predict_fc: vec![256, 256, 128, 1],
        num_tasks: 1,
        tables: vec![
            TableConfig::one_hot(1_000_000, 32), // user (GMF)
            TableConfig::one_hot(1_000_000, 32), // item (GMF)
            TableConfig::one_hot(1_000_000, 32), // user (MLP)
            TableConfig::one_hot(1_000_000, 32), // item (MLP)
        ],
        pooling: PoolingKind::Gmf,
        interaction: InteractionKind::Concat,
        attention_hidden: 0,
        gru_hidden: 0,
        sla_ms: 5.0,
        paper_bottleneck: "MLP dominated",
    }
}

/// Google Play's Wide & Deep: ~1000 dense features bypass straight to
/// the interaction stage; tens of one-hot tables; a large predictor
/// stack (1024-512-256).
pub fn wide_and_deep() -> ModelConfig {
    ModelConfig {
        name: "WND",
        domain: "Play Store",
        dense_input_dim: 1000,
        dense_fc: vec![], // dense features bypass the bottom MLP
        predict_fc: vec![1024, 512, 256, 1],
        num_tasks: 1,
        tables: vec![TableConfig::one_hot(1_000_000, 32); 20],
        pooling: PoolingKind::Concat,
        interaction: InteractionKind::Concat,
        attention_hidden: 0,
        gru_hidden: 0,
        sla_ms: 25.0,
        paper_bottleneck: "MLP dominated",
    }
}

/// YouTube's Multi-Task Wide & Deep: WnD with N parallel predictor
/// stacks scoring multiple engagement objectives (CTR, likes, …).
pub fn mt_wide_and_deep() -> ModelConfig {
    ModelConfig {
        name: "MT-WND",
        domain: "YouTube",
        num_tasks: 4,
        ..wide_and_deep()
    }
    .renamed("MT-WND")
}

/// Facebook DLRM-RMC1: small FC stacks, ≤10 tables with ~80 pooled
/// lookups each — embedding-table dominated.
pub fn dlrm_rmc1() -> ModelConfig {
    ModelConfig {
        name: "DLRM-RMC1",
        domain: "Social Media",
        dense_input_dim: 256,
        dense_fc: vec![256, 128, 32],
        predict_fc: vec![256, 64, 1],
        num_tasks: 1,
        tables: vec![TableConfig::multi_hot(5_000_000, 32, 80); 10],
        pooling: PoolingKind::Sum,
        interaction: InteractionKind::Concat,
        attention_hidden: 0,
        gru_hidden: 0,
        sla_ms: 100.0,
        paper_bottleneck: "Embedding dominated",
    }
}

/// Facebook DLRM-RMC2: like RMC1 but with ~40 tables — the heaviest
/// embedding load of the suite (400 ms SLA).
pub fn dlrm_rmc2() -> ModelConfig {
    ModelConfig {
        name: "DLRM-RMC2",
        domain: "Social Media",
        dense_input_dim: 256,
        dense_fc: vec![256, 128, 32],
        predict_fc: vec![512, 128, 1],
        num_tasks: 1,
        tables: vec![TableConfig::multi_hot(5_000_000, 32, 80); 40],
        pooling: PoolingKind::Sum,
        interaction: InteractionKind::Concat,
        attention_hidden: 0,
        gru_hidden: 0,
        sla_ms: 400.0,
        paper_bottleneck: "Embedding dominated",
    }
}

/// Facebook DLRM-RMC3: a wide bottom MLP (2560-512-32) and few lookups —
/// the MLP-dominated DLRM variant.
pub fn dlrm_rmc3() -> ModelConfig {
    ModelConfig {
        name: "DLRM-RMC3",
        domain: "Social Media",
        dense_input_dim: 512,
        dense_fc: vec![2560, 512, 32],
        predict_fc: vec![512, 128, 1],
        num_tasks: 1,
        tables: vec![TableConfig::multi_hot(5_000_000, 32, 20); 10],
        pooling: PoolingKind::Sum,
        interaction: InteractionKind::Concat,
        attention_hidden: 0,
        gru_hidden: 0,
        sla_ms: 100.0,
        paper_bottleneck: "MLP dominated",
    }
}

/// Alibaba's Deep Interest Network: attention (local activation units)
/// over a ~200-item behavior history against the candidate item, plus a
/// dozen one-hot profile tables. Runtime splits across embedding,
/// concat, FC and sum — no single dominant operator.
pub fn din() -> ModelConfig {
    let mut tables = vec![TableConfig::one_hot(1_000_000, 64); 12];
    tables.push(TableConfig {
        rows: 100_000_000,
        dim: 64,
        lookups: 1,
        role: TableRole::Candidate,
    });
    for _ in 0..2 {
        tables.push(TableConfig {
            rows: 100_000_000,
            dim: 64,
            lookups: 200,
            role: TableRole::Behavior,
        });
    }
    ModelConfig {
        name: "DIN",
        domain: "E-commerce",
        dense_input_dim: 0,
        dense_fc: vec![],
        predict_fc: vec![200, 80, 2],
        num_tasks: 1,
        tables,
        pooling: PoolingKind::Attention,
        interaction: InteractionKind::Concat,
        attention_hidden: 36,
        gru_hidden: 0,
        sla_ms: 100.0,
        paper_bottleneck: "Embedding + Attention dominated",
    }
}

/// Alibaba's Deep Interest Evolution Network: DIN's attention feeding
/// attention-gated GRUs (interest extraction GRU + AUGRU evolution
/// layer) over a ~32-step history — recurrent-layer dominated.
pub fn dien() -> ModelConfig {
    let mut tables = vec![TableConfig::one_hot(1_000_000, 32); 8];
    tables.push(TableConfig {
        rows: 10_000_000,
        dim: 32,
        lookups: 1,
        role: TableRole::Candidate,
    });
    tables.push(TableConfig {
        rows: 10_000_000,
        dim: 32,
        lookups: 32,
        role: TableRole::Behavior,
    });
    ModelConfig {
        name: "DIEN",
        domain: "E-commerce",
        dense_input_dim: 0,
        dense_fc: vec![],
        predict_fc: vec![200, 80, 2],
        num_tasks: 1,
        tables,
        pooling: PoolingKind::AttentionRnn,
        interaction: InteractionKind::Concat,
        attention_hidden: 32,
        gru_hidden: 32,
        sla_ms: 35.0,
        paper_bottleneck: "Attention-based GRU dominated",
    }
}

/// Extension beyond Table I: a DLRM configured like the MLPerf
/// recommendation inference benchmark the paper's related-work section
/// anticipates ("MLPerf is developing a recommendation benchmark that
/// is more representative of industry e-commerce tasks", §VII) —
/// DLRM-style with a handful of very large one-hot tables plus many
/// small ones, a 13-wide dense input, and moderate FC stacks.
///
/// Not part of [`all`] (the paper's evaluation sweeps exactly the eight
/// Table-I models); available for follow-on experiments.
pub fn dlrm_mlperf() -> ModelConfig {
    let mut tables = vec![TableConfig::one_hot(40_000_000, 64); 4];
    tables.extend(vec![TableConfig::one_hot(10_000, 64); 22]);
    ModelConfig {
        name: "DLRM-MLPerf",
        domain: "E-commerce (benchmark)",
        dense_input_dim: 13,
        dense_fc: vec![512, 256, 64],
        predict_fc: vec![512, 256, 1],
        num_tasks: 1,
        tables,
        pooling: PoolingKind::Sum,
        interaction: InteractionKind::Concat,
        attention_hidden: 0,
        gru_hidden: 0,
        sla_ms: 100.0,
        paper_bottleneck: "Embedding dominated",
    }
}

/// All eight Table-I models, in the paper's presentation order.
pub fn all() -> Vec<ModelConfig> {
    vec![
        dlrm_rmc1(),
        dlrm_rmc2(),
        dlrm_rmc3(),
        ncf(),
        wide_and_deep(),
        mt_wide_and_deep(),
        din(),
        dien(),
    ]
}

/// Looks a model up by its paper name (case-insensitive).
pub fn by_name(name: &str) -> Option<ModelConfig> {
    all()
        .into_iter()
        .find(|m| m.name.eq_ignore_ascii_case(name))
}

impl ModelConfig {
    fn renamed(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_validate() {
        for cfg in all() {
            cfg.validate();
        }
    }

    #[test]
    fn eight_distinct_models() {
        let names: std::collections::BTreeSet<_> = all().iter().map(|m| m.name).collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("dlrm-rmc2").unwrap().name, "DLRM-RMC2");
        assert_eq!(by_name("WND").unwrap().name, "WND");
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn table_i_fidelity() {
        // Spot-check the headline Table I numbers.
        let rmc1 = dlrm_rmc1();
        assert_eq!(rmc1.tables.len(), 10);
        assert!(rmc1.tables.iter().all(|t| t.lookups == 80));
        assert_eq!(rmc1.dense_fc, vec![256, 128, 32]);
        assert_eq!(rmc1.predict_fc, vec![256, 64, 1]);

        let rmc2 = dlrm_rmc2();
        assert_eq!(rmc2.tables.len(), 40);
        assert_eq!(rmc2.predict_fc, vec![512, 128, 1]);

        let rmc3 = dlrm_rmc3();
        assert_eq!(rmc3.dense_fc, vec![2560, 512, 32]);
        assert!(rmc3.tables.iter().all(|t| t.lookups == 20));

        let n = ncf();
        assert_eq!(n.tables.len(), 4);
        assert_eq!(n.predict_fc, vec![256, 256, 128, 1]);

        let w = wide_and_deep();
        assert!(w.dense_fc.is_empty(), "WnD dense features bypass");
        assert_eq!(w.predict_fc, vec![1024, 512, 256, 1]);

        let mt = mt_wide_and_deep();
        assert_eq!(mt.num_tasks, 4);

        let d = din();
        assert_eq!(d.seq_len(), 200, "DIN: hundreds of lookups");
        assert_eq!(d.predict_fc, vec![200, 80, 2]);

        let de = dien();
        assert_eq!(de.seq_len(), 32, "DIEN: tens of lookups");
        assert!(de.gru_hidden > 0);
    }

    #[test]
    fn table_ii_sla_targets() {
        let sla: Vec<(&str, f64)> = all().iter().map(|m| (m.name, m.sla_ms)).collect();
        assert!(sla.contains(&("DLRM-RMC1", 100.0)));
        assert!(sla.contains(&("DLRM-RMC2", 400.0)));
        assert!(sla.contains(&("DLRM-RMC3", 100.0)));
        assert!(sla.contains(&("NCF", 5.0)));
        assert!(sla.contains(&("WND", 25.0)));
        assert!(sla.contains(&("MT-WND", 25.0)));
        assert!(sla.contains(&("DIN", 100.0)));
        assert!(sla.contains(&("DIEN", 35.0)));
    }

    #[test]
    fn paper_scale_storage_is_tens_of_gb() {
        // Section II-A: "embedding tables often require storage on the
        // order of tens of GBs".
        let rmc2_gb = dlrm_rmc2().embedding_bytes() as f64 / 1e9;
        assert!(rmc2_gb > 10.0, "RMC2 tables only {rmc2_gb} GB");
        let din_gb = din().embedding_bytes() as f64 / 1e9;
        assert!(din_gb > 10.0, "DIN tables only {din_gb} GB");
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::{ModelScale, RecModel};
    use drs_nn::OpProfiler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlperf_extension_validates_and_runs() {
        let cfg = dlrm_mlperf();
        cfg.validate();
        assert_eq!(cfg.tables.len(), 26);
        let mut rng = StdRng::seed_from_u64(2);
        let model = RecModel::instantiate(&cfg, ModelScale::tiny(), &mut rng);
        let inputs = model.generate_inputs(4, &mut rng);
        let mut prof = OpProfiler::new();
        let ctrs = model.forward(&inputs, &mut prof);
        assert!(ctrs.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn mlperf_not_in_table_i_sweep() {
        assert!(all().iter().all(|m| m.name != "DLRM-MLPerf"));
        assert_eq!(
            by_name("dlrm-mlperf"),
            None,
            "only Table-I models are looked up"
        );
    }
}
