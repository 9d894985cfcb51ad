//! Neural-network operators for recommendation models, with per-operator
//! wall-clock profiling.
//!
//! The generalized recommendation architecture of the paper (Figure 2)
//! composes a small set of operators:
//!
//! * [`Mlp`] — stacks of fully-connected layers (the Dense-FC and
//!   Predict-FC stacks),
//! * [`EmbeddingTable`] / [`EmbeddingBag`] — sparse categorical feature
//!   lookup with sum/mean/concat pooling,
//! * [`AttentionUnit`] — DIN's local activation unit (attention over a
//!   user-behavior sequence against a candidate item),
//! * [`GruCell`] / [`AuGru`] — DIEN's attention-gated recurrent layers,
//! * [`ShardedEmbeddingSet`] — table-wise sharded embedding lookup
//!   (local partial pools + gather/merge) for models whose tables
//!   exceed one node's memory,
//! * feature interaction (concat / sum) via `drs-tensor`.
//!
//! # The gather contract
//!
//! Every pooled embedding lookup — [`EmbeddingBag::forward`] /
//! [`EmbeddingBag::forward_plain`], [`ShardedEmbeddingSet::forward_shard`]
//! and the model passes built on them — flattens its batch once into a
//! CSR view (`values`: every gathered index in sample order; `offsets`:
//! where each sample's bag starts) and runs one gather-reduce walk over
//! it: the row a fixed distance further down `values` is
//! software-prefetched straight across bag boundaries, a bag's
//! accumulator lives in registers for the widths the model zoo uses (32
//! and 64; any other width accumulates through the output row), and
//! sum / mean / concat are three epilogues of the same walk. Tables are
//! stored 64-byte aligned, so a 32-wide row is exactly two cache lines
//! and a 64-wide row four.
//!
//! The result's bits are fixed by the summation order, not by the
//! kernel's shape (the [`drs_tensor::PackedWeights`] contract, restated
//! for gathers): **one accumulator per output element, initialised to
//! `+0.0`; a sample's rows added in the order its index list names
//! them; adds only** — no multiply by a unit scale, nothing fused;
//! `Mean` multiplies by `1.0 / len as f32` once, after the last add;
//! `Concat` copies rows verbatim. Register blocking, prefetch distance,
//! alignment and instruction set therefore cannot change a bit. The
//! plain nested loop the kernel replaced survives as its test-only
//! oracle, and `crates/models/tests/ctr_bits_golden.rs` pins every zoo
//! model's CTR bits above it.
//!
//! Every operator reports its execution time to an [`OpProfiler`] keyed
//! by [`OpKind`]; the Figure 3 operator-breakdown experiment is exactly a
//! dump of those profiles after running each model at batch size 64.
//!
//! # Examples
//!
//! ```
//! use drs_nn::{Mlp, OpKind, OpProfiler};
//! use drs_tensor::{Activation, Matrix};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mlp = Mlp::from_dims(&[8, 4, 1], Activation::Relu, Activation::Sigmoid, &mut rng);
//! let x = Matrix::zeros(16, 8); // batch of 16
//! let mut prof = OpProfiler::new();
//! let y = mlp.forward(&x, OpKind::PredictFc, &mut prof);
//! assert_eq!(y.rows(), 16);
//! assert_eq!(y.cols(), 1);
//! ```

mod attention;
mod embedding;
mod gru;
mod linear;
mod profile;
mod shard;

pub use attention::AttentionUnit;
pub use embedding::{EmbeddingBag, EmbeddingTable, Pooling};
pub use gru::{AuGru, GruCell};
pub use linear::{Linear, Mlp};
pub use profile::{OpKind, OpProfiler};
pub use shard::{ShardPartial, ShardedEmbeddingSet};
