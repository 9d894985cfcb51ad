//! Gated recurrent units for DIEN's interest-evolution layers.
//!
//! DIEN augments DIN with recurrence: user behaviors are run through GRU
//! layers, and the *interest evolution* layer uses an attention-gated
//! GRU (AUGRU) whose update gate is scaled by the relevance of each
//! behavior to the candidate item (Zhou et al., AAAI'19; Section III-A1
//! of the DeepRecSys paper). The paper's characterization shows DIEN's
//! runtime is dominated by these recurrent layers (Figure 3).

use crate::profile::{OpKind, OpProfiler};
use drs_tensor::{Activation, Matrix, PackedWeights};
use rand::Rng;

/// A single GRU cell with input width `in_dim` and state width `hidden`.
///
/// Update rule (batch-major, `x`: `B × in_dim`, `h`: `B × hidden`):
///
/// ```text
/// z = σ(x·Wz + h·Uz + bz)
/// r = σ(x·Wr + h·Ur + br)
/// h̃ = tanh(x·Wh + (r ⊙ h)·Uh + bh)
/// h' = (1 − z) ⊙ h + z ⊙ h̃
/// ```
///
/// The six weight matrices are packed for the GEMM kernel at
/// construction and held only in that form.
#[derive(Debug, Clone)]
pub struct GruCell {
    wz: PackedWeights,
    uz: PackedWeights,
    bz: Vec<f32>,
    wr: PackedWeights,
    ur: PackedWeights,
    br: Vec<f32>,
    wh: PackedWeights,
    uh: PackedWeights,
    bh: Vec<f32>,
}

impl GruCell {
    /// Creates a cell with Xavier-uniform weights and zero biases.
    pub fn new(in_dim: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        GruCell {
            wz: PackedWeights::xavier_uniform(in_dim, hidden, rng),
            uz: PackedWeights::xavier_uniform(hidden, hidden, rng),
            bz: vec![0.0; hidden],
            wr: PackedWeights::xavier_uniform(in_dim, hidden, rng),
            ur: PackedWeights::xavier_uniform(hidden, hidden, rng),
            br: vec![0.0; hidden],
            wh: PackedWeights::xavier_uniform(in_dim, hidden, rng),
            uh: PackedWeights::xavier_uniform(hidden, hidden, rng),
            bh: vec![0.0; hidden],
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.wz.rows()
    }

    /// Hidden-state width.
    pub fn hidden(&self) -> usize {
        self.wz.cols()
    }

    /// Trainable parameters.
    pub fn param_count(&self) -> usize {
        3 * (self.in_dim() * self.hidden() + self.hidden() * self.hidden() + self.hidden())
    }

    /// `act(x·W + h·U + b)`: the second product lands on the first's
    /// buffer, bias and activation ride its store.
    fn gate(
        x: &Matrix,
        h: &Matrix,
        w: &PackedWeights,
        u: &PackedWeights,
        b: &[f32],
        act: Activation,
    ) -> Matrix {
        let mut g = w.matmul(x);
        u.linear_acc(h, b, act, &mut g);
        g
    }

    /// One timestep; `att_scale` (one weight per sample, or `None`)
    /// scales the update gate — this is the AUGRU variant used by DIEN's
    /// interest-evolution layer. Plain GRU behaviour is `att_scale =
    /// None`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn step(&self, x: &Matrix, h: &Matrix, att_scale: Option<&[f32]>) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "input width mismatch");
        assert_eq!(h.cols(), self.hidden(), "state width mismatch");
        assert_eq!(x.rows(), h.rows(), "batch mismatch");
        if let Some(a) = att_scale {
            assert_eq!(a.len(), x.rows(), "one attention weight per sample");
        }
        let z = Self::gate(x, h, &self.wz, &self.uz, &self.bz, Activation::Sigmoid);
        let r = Self::gate(x, h, &self.wr, &self.ur, &self.br, Activation::Sigmoid);
        let rh = r.hadamard(h);
        let cand = Self::gate(x, &rh, &self.wh, &self.uh, &self.bh, Activation::Tanh);
        let mut out = Matrix::zeros(h.rows(), self.hidden());
        for b in 0..h.rows() {
            let scale = att_scale.map_or(1.0, |a| a[b]);
            for j in 0..self.hidden() {
                let zj = scale * z.get(b, j);
                out.set(b, j, (1.0 - zj) * h.get(b, j) + zj * cand.get(b, j));
            }
        }
        out
    }
}

impl GruCell {
    /// Runs a plain GRU over a sample-major sequence, returning the
    /// hidden state at **every** timestep as a `(B·seq) × hidden` matrix
    /// (same layout as the input).
    ///
    /// DIEN's *interest extraction* layer needs all intermediate states:
    /// they become the inputs to the attention-gated AUGRU layer above
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `seq == 0` or `xs.rows()` is not a multiple of `seq`.
    pub fn forward_all(&self, xs: &Matrix, seq: usize, prof: &mut OpProfiler) -> Matrix {
        assert!(seq > 0, "empty sequence");
        assert_eq!(xs.rows() % seq, 0, "rows must be batch × seq");
        let batch = xs.rows() / seq;
        prof.time(OpKind::Recurrent, || {
            let mut h = Matrix::zeros(batch, self.hidden());
            let mut xt = Matrix::zeros(batch, self.in_dim());
            let mut out = Matrix::zeros(batch * seq, self.hidden());
            for t in 0..seq {
                for b in 0..batch {
                    xt.row_mut(b).copy_from_slice(xs.row(b * seq + t));
                }
                h = self.step(&xt, &h, None);
                for b in 0..batch {
                    out.row_mut(b * seq + t).copy_from_slice(h.row(b));
                }
            }
            out
        })
    }
}

/// Attention-gated GRU over a behavior sequence (DIEN's interest
/// evolution).
///
/// # Examples
///
/// ```
/// use drs_nn::{AuGru, OpProfiler};
/// use drs_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let augru = AuGru::new(8, 16, &mut rng);
/// let batch = 2;
/// let seq = 4;
/// let xs = Matrix::zeros(batch * seq, 8);
/// let scores = vec![0.25; batch * seq];
/// let mut prof = OpProfiler::new();
/// let h = augru.forward(&xs, &scores, seq, &mut prof);
/// assert_eq!((h.rows(), h.cols()), (2, 16));
/// ```
#[derive(Debug, Clone)]
pub struct AuGru {
    cell: GruCell,
}

impl AuGru {
    /// Creates an AUGRU with the given input and hidden widths.
    pub fn new(in_dim: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        AuGru {
            cell: GruCell::new(in_dim, hidden, rng),
        }
    }

    /// The underlying cell.
    pub fn cell(&self) -> &GruCell {
        &self.cell
    }

    /// Runs the sequence and returns the final hidden state (`B ×
    /// hidden`).
    ///
    /// * `xs` — `(B·seq) × in_dim`, sample-major.
    /// * `scores` — `B·seq` attention weights (same layout).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or `seq == 0`.
    pub fn forward(
        &self,
        xs: &Matrix,
        scores: &[f32],
        seq: usize,
        prof: &mut OpProfiler,
    ) -> Matrix {
        assert!(seq > 0, "empty sequence");
        assert_eq!(xs.rows() % seq, 0, "rows must be batch × seq");
        let batch = xs.rows() / seq;
        assert_eq!(scores.len(), xs.rows(), "one score per (sample, step)");
        prof.time(OpKind::Recurrent, || {
            let mut h = Matrix::zeros(batch, self.cell.hidden());
            let mut xt = Matrix::zeros(batch, self.cell.in_dim());
            let mut at = vec![0.0f32; batch];
            for t in 0..seq {
                for b in 0..batch {
                    xt.row_mut(b).copy_from_slice(xs.row(b * seq + t));
                    at[b] = scores[b * seq + t];
                }
                h = self.cell.step(&xt, &h, Some(&at));
            }
            h
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cell() -> GruCell {
        let mut rng = StdRng::seed_from_u64(13);
        GruCell::new(4, 6, &mut rng)
    }

    #[test]
    fn step_shapes() {
        let c = cell();
        let h = c.step(&Matrix::zeros(3, 4), &Matrix::zeros(3, 6), None);
        assert_eq!((h.rows(), h.cols()), (3, 6));
    }

    #[test]
    fn zero_attention_freezes_state() {
        // AUGRU with attention weight 0 must leave h unchanged: the
        // update gate is fully closed.
        let c = cell();
        let mut rng = StdRng::seed_from_u64(5);
        let h0 = Matrix::xavier_uniform(2, 6, &mut rng);
        let x = Matrix::xavier_uniform(2, 4, &mut rng);
        let h1 = c.step(&x, &h0, Some(&[0.0, 0.0]));
        for (a, b) in h1.as_slice().iter().zip(h0.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn state_stays_bounded() {
        // GRU state is a convex mix of h and tanh(..) ∈ (−1, 1), so with
        // h0 = 0 it remains in (−1, 1) forever.
        let c = cell();
        let mut rng = StdRng::seed_from_u64(6);
        let mut h = Matrix::zeros(2, 6);
        for _ in 0..50 {
            let x = Matrix::xavier_uniform(2, 4, &mut rng);
            h = c.step(&x, &h, None);
        }
        assert!(h.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn param_count_formula() {
        let c = cell();
        assert_eq!(c.param_count(), 3 * (4 * 6 + 6 * 6 + 6));
    }

    #[test]
    fn augru_sequence_shapes_and_profiling() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = AuGru::new(4, 6, &mut rng);
        let xs = Matrix::xavier_uniform(2 * 5, 4, &mut rng);
        let scores = vec![0.2; 10];
        let mut prof = OpProfiler::new();
        let h = g.forward(&xs, &scores, 5, &mut prof);
        assert_eq!((h.rows(), h.cols()), (2, 6));
        assert_eq!(prof.count_for(OpKind::Recurrent), 1);
    }

    #[test]
    fn augru_deterministic() {
        let mk = || {
            let mut rng = StdRng::seed_from_u64(33);
            AuGru::new(3, 4, &mut rng)
        };
        let xs = Matrix::from_fn(6, 3, |r, c| (r * 3 + c) as f32 * 0.01);
        let scores = vec![0.5; 6];
        let mut p1 = OpProfiler::new();
        let mut p2 = OpProfiler::new();
        assert_eq!(
            mk().forward(&xs, &scores, 3, &mut p1),
            mk().forward(&xs, &scores, 3, &mut p2)
        );
    }

    #[test]
    #[should_panic(expected = "one score per")]
    fn augru_score_length_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = AuGru::new(3, 4, &mut rng);
        let mut prof = OpProfiler::new();
        let _ = g.forward(&Matrix::zeros(6, 3), &[0.1; 5], 3, &mut prof);
    }

    #[test]
    #[should_panic(expected = "batch mismatch")]
    fn step_batch_mismatch_panics() {
        let c = cell();
        let _ = c.step(&Matrix::zeros(2, 4), &Matrix::zeros(3, 6), None);
    }
}
