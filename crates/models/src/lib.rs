//! The DeepRecInfra model zoo: eight industry-representative neural
//! recommendation models.
//!
//! Section III of the paper composes a *generalized* recommendation
//! architecture (Figure 2) — dense features through a bottom MLP, sparse
//! categorical features through embedding-table lookups with pooling,
//! a feature-interaction stage, and a predictor MLP producing a
//! click-through-rate — and instantiates it eight ways (Table I):
//!
//! | Model | Origin | Character |
//! |-------|--------|-----------|
//! | NCF | academic / Netflix-prize lineage | MLP-dominated, GMF pooling |
//! | Wide&Deep | Google Play store | MLP-dominated, wide dense input |
//! | MT-WnD | YouTube | N parallel predictor stacks |
//! | DLRM-RMC1 | Facebook | embedding-dominated (few tables, many lookups) |
//! | DLRM-RMC2 | Facebook | embedding-dominated (many tables) |
//! | DLRM-RMC3 | Facebook | MLP-dominated (big bottom FC) |
//! | DIN | Alibaba | attention + embedding dominated |
//! | DIEN | Alibaba | attention-based GRU dominated |
//!
//! [`ModelConfig`] captures the architecture parameters at **paper
//! scale** (up to 10⁹-row embedding tables); [`RecModel`] instantiates
//! runnable weights at a configurable [`ModelScale`] (tables capped so a
//! laptop can hold them — the irregular-access *pattern* is preserved,
//! see DESIGN.md §2). The [`characterize`] module computes analytic
//! FLOP/byte profiles from the paper-scale configs for the roofline and
//! cost models.
//!
//! # Examples
//!
//! ```
//! use drs_models::{zoo, ModelScale, RecModel};
//! use drs_nn::OpProfiler;
//! use rand::SeedableRng;
//!
//! let cfg = zoo::ncf();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = RecModel::instantiate(&cfg, ModelScale::tiny(), &mut rng);
//! let inputs = model.generate_inputs(4, &mut rng);
//! let mut prof = OpProfiler::new();
//! let ctrs = model.forward(&inputs, &mut prof);
//! assert_eq!(ctrs.len(), 4);
//! assert!(ctrs.iter().all(|p| (0.0..=1.0).contains(p)));
//! ```

pub mod characterize;
mod config;
mod inputs;
mod model;
pub mod opcost;
pub mod zoo;

pub use config::{InteractionKind, ModelConfig, ModelScale, PoolingKind, TableConfig, TableRole};
pub use inputs::BatchInputs;
pub use model::RecModel;
