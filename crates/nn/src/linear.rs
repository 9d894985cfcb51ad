//! Fully-connected layers and MLP stacks.

use crate::profile::{OpKind, OpProfiler};
use drs_tensor::{Activation, Matrix, PackedWeights};
use rand::Rng;

/// One fully-connected layer: `act(x × W + b)`.
///
/// Weights are `in_dim × out_dim` so a batch `B × in_dim` maps to
/// `B × out_dim`. They are packed for the GEMM kernel at construction
/// and held only in that form.
#[derive(Debug, Clone)]
pub struct Linear {
    weights: PackedWeights,
    bias: Vec<f32>,
    activation: Activation,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut impl Rng) -> Self {
        Linear {
            weights: PackedWeights::xavier_uniform(in_dim, out_dim, rng),
            bias: vec![0.0; out_dim],
            activation,
        }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Forward pass for a batch (`B × in_dim` → `B × out_dim`).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.weights.linear(x, &self.bias, self.activation)
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Multiply-accumulate FLOPs for a batch of `b` (2 FLOPs per MAC).
    pub fn flops(&self, b: usize) -> u64 {
        2 * (b * self.in_dim() * self.out_dim()) as u64
    }
}

/// A stack of fully-connected layers — the paper's `Dense-FC` and
/// `Predict-FC` stacks (Figure 2, Table I).
///
/// # Examples
///
/// ```
/// use drs_nn::Mlp;
/// use drs_tensor::{Activation, Matrix};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// // The paper writes stacks as e.g. "256-128-32"; with an input width
/// // of 64 that is dims = [64, 256, 128, 32].
/// let mlp = Mlp::from_dims(&[64, 256, 128, 32], Activation::Relu, Activation::Relu, &mut rng);
/// let y = mlp.forward_plain(&Matrix::zeros(4, 64));
/// assert_eq!(y.cols(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds a stack from layer widths `dims[0] → dims[1] → …`.
    ///
    /// Hidden layers use `hidden_act`; the final layer uses `final_act`
    /// (CTR heads pass [`Activation::Sigmoid`]).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given.
    pub fn from_dims(
        dims: &[usize],
        hidden_act: Activation,
        final_act: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for (i, w) in dims.windows(2).enumerate() {
            let is_last = i == dims.len() - 2;
            let act = if is_last { final_act } else { hidden_act };
            layers.push(Linear::new(w[0], w[1], act, rng));
        }
        Mlp { layers }
    }

    /// Input width expected by the first layer.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim()
    }

    /// Output width of the final layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass without profiling.
    pub fn forward_plain(&self, x: &Matrix) -> Matrix {
        let mut cur = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Forward pass, attributing time to `kind` in `prof`.
    pub fn forward(&self, x: &Matrix, kind: OpKind, prof: &mut OpProfiler) -> Matrix {
        prof.time(kind, || self.forward_plain(x))
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Total FLOPs for a batch of `b`.
    pub fn flops(&self, b: usize) -> u64 {
        self.layers.iter().map(|l| l.flops(b)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(8, 3, Activation::Relu, &mut rng);
        let y = l.forward(&Matrix::zeros(5, 8));
        assert_eq!((y.rows(), y.cols()), (5, 3));
        assert_eq!(l.param_count(), 8 * 3 + 3);
        assert_eq!(l.flops(2), 2 * 2 * 8 * 3);
    }

    #[test]
    fn mlp_stacks_layers() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mlp::from_dims(
            &[10, 7, 4, 1],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        assert_eq!(m.depth(), 3);
        assert_eq!(m.in_dim(), 10);
        assert_eq!(m.out_dim(), 1);
        let y = m.forward_plain(&Matrix::zeros(3, 10));
        assert_eq!((y.rows(), y.cols()), (3, 1));
        // Sigmoid head keeps outputs in (0, 1).
        assert!(y.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn mlp_relu_hidden_outputs_nonnegative() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = Mlp::from_dims(&[6, 4], Activation::Relu, Activation::Relu, &mut rng);
        let x = Matrix::from_fn(8, 6, |r, c| ((r + c) as f32) - 5.0);
        let y = m.forward_plain(&x);
        assert!(y.as_slice().iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn mlp_profiled_matches_plain() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Mlp::from_dims(&[4, 4, 2], Activation::Relu, Activation::None, &mut rng);
        let x = Matrix::from_fn(2, 4, |r, c| (r + c) as f32 * 0.1);
        let mut prof = OpProfiler::new();
        let a = m.forward(&x, OpKind::DenseFc, &mut prof);
        let b = m.forward_plain(&x);
        assert_eq!(a, b);
        assert_eq!(prof.count_for(OpKind::DenseFc), 1);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_too_few_dims_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = Mlp::from_dims(&[5], Activation::Relu, Activation::Relu, &mut rng);
    }

    #[test]
    fn flops_scale_linearly_with_batch() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = Mlp::from_dims(&[16, 8, 4], Activation::Relu, Activation::Relu, &mut rng);
        assert_eq!(m.flops(2), 2 * m.flops(1));
        assert_eq!(m.flops(64), 64 * m.flops(1));
    }

    #[test]
    fn deterministic_under_seed() {
        let mk = || {
            let mut rng = StdRng::seed_from_u64(77);
            Mlp::from_dims(&[5, 3], Activation::Relu, Activation::None, &mut rng)
        };
        let x = Matrix::from_fn(1, 5, |_, c| c as f32);
        assert_eq!(mk().forward_plain(&x), mk().forward_plain(&x));
    }
}
