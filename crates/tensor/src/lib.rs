//! Minimal dense f32 tensor kernels for the DeepRecSys reproduction.
//!
//! The paper's models run on Caffe2 with Intel MKL as the CPU backend.
//! This crate is our from-scratch substitute: just enough dense linear
//! algebra to execute the eight recommendation models *for real* in
//! `drs-engine` — a row-major [`Matrix`], [`PackedWeights`] with the one
//! GEMM kernel every layer runs on, fused bias+activation, and the
//! vector helpers the attention and GRU operators need.
//!
//! # The GEMM
//!
//! Weights are packed once, when a layer is built, into panels of
//! sixteen columns that are contiguous along `k`; each call packs the
//! (small) activation matrix into blocks of four rows the same way; a
//! 4 × 16 tile of accumulators then walks `k` once per (panel, row
//! block) and leaves through a fused bias + activation store. Panels
//! are the outer loop, so a layer's weights stream from memory once
//! per call instead of once per batch row. [`Matrix::matmul`],
//! [`Matrix::matmul_into`] and [`Matrix::linear`] pack their right-hand
//! side per call and run the same kernel.
//!
//! The kernel's contract is its **summation order**: one accumulator
//! per output element, products added in ascending `k`, multiply and
//! add rounded separately (never fused). Under that contract a kernel's
//! tile shape, its tails and its instruction set cannot change a single
//! bit — which is why this kernel could replace the earlier i-k-j loop
//! with every golden CTR intact, why an AVX2 build of the same source
//! is selected at run time without a second set of goldens, and why a
//! query's CTR does not depend on the batch it was coalesced into. The
//! i-k-j loop lives on as the `#[cfg(test)]` oracle the kernel is
//! compared against bit for bit.
//!
//! # Examples
//!
//! ```
//! use drs_tensor::Matrix;
//!
//! let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
//! let b = Matrix::identity(3);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), a.as_slice());
//! ```

mod matrix;
mod ops;
mod packed;

pub use matrix::Matrix;
pub use ops::{add_scaled, dot, softmax_in_place, Activation};
pub use packed::PackedWeights;
