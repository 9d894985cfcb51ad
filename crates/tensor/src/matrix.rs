//! Row-major dense f32 matrix; its products run on [`PackedWeights`].

use crate::ops::Activation;
use crate::packed::PackedWeights;
use rand::Rng;

/// A row-major dense matrix of `f32`.
///
/// Rows index samples within a batch throughout this workspace: a batch
/// of `B` feature vectors of width `D` is a `B × D` matrix.
///
/// # Examples
///
/// ```
/// use drs_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
/// assert_eq!(m.get(1, 0), 2.0);
/// assert_eq!(m.row(1), &[2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Xavier/Glorot-uniform initialized matrix: samples from
    /// `U(-limit, limit)` with `limit = sqrt(6 / (rows + cols))`.
    ///
    /// This is the standard initialization for the FC stacks in the model
    /// zoo; it keeps forward activations in a numerically sane range so
    /// CTR outputs stay meaningful at any batch size.
    pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let limit = xavier_limit(rows, cols);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(rng.gen_range(-limit..=limit));
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs`, allocating the output.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product into a preallocated output (overwrites `out`).
    ///
    /// A convenience wrapper for tests, benches and one-off products:
    /// it packs `rhs` into [`PackedWeights`] on every call and runs the
    /// same micro-kernel the layers use, so it returns the bits they
    /// would (see the summation-order contract there). A caller that
    /// multiplies by the same `rhs` repeatedly packs it once instead.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        PackedWeights::pack(rhs).matmul_into(self, out);
    }

    /// Fused `act(self × weights + bias)`, the fully-connected-layer
    /// primitive. `bias.len()` must equal `weights.cols()`. Packs
    /// `weights` per call, like [`Matrix::matmul_into`]; layers hold
    /// [`PackedWeights`] and call [`PackedWeights::linear`].
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn linear(&self, weights: &Matrix, bias: &[f32], act: Activation) -> Matrix {
        PackedWeights::pack(weights).linear(self, bias, act)
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Concatenates matrices horizontally (same row count).
    ///
    /// This is the `Concat` feature-interaction operator of Figure 2.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat of zero matrices");
        let rows = parts[0].rows;
        assert!(
            parts.iter().all(|m| m.rows == rows),
            "row counts differ in concat"
        );
        let cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for m in parts {
                out.data[r * cols + offset..r * cols + offset + m.cols].copy_from_slice(m.row(r));
                offset += m.cols;
            }
        }
        out
    }

    /// Element-wise sum of matrices with identical shape.
    ///
    /// This is the `Sum` feature-interaction operator of Figure 2.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes differ.
    pub fn sum_elementwise(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "sum of zero matrices");
        let (rows, cols) = (parts[0].rows, parts[0].cols);
        assert!(
            parts.iter().all(|m| m.rows == rows && m.cols == cols),
            "shapes differ in sum"
        );
        let mut out = parts[0].clone();
        for m in &parts[1..] {
            for (o, v) in out.data.iter_mut().zip(&m.data) {
                *o += v;
            }
        }
        out
    }

    /// Element-wise (Hadamard) product with another matrix of the same
    /// shape — used by NCF's generalized matrix factorization pooling.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "hadamard shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Frobenius norm (for test assertions on weight magnitudes).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Consumes the matrix, returning its row-major storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the matrix with a new shape covering the same
    /// row-major data (free; no copy).
    ///
    /// Used to view a `B × (seq·dim)` concat-pooled embedding block as
    /// the `(B·seq) × dim` sequence the attention/GRU operators expect —
    /// the row-major layouts coincide.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` differs from the element count.
    pub fn reshaped(self, rows: usize, cols: usize) -> Matrix {
        assert_eq!(
            rows * cols,
            self.data.len(),
            "cannot reshape {} elements to {rows}x{cols}",
            self.data.len()
        );
        Matrix {
            rows,
            cols,
            data: self.data,
        }
    }
}

/// The Xavier/Glorot-uniform bound for a `rows × cols` weight matrix.
pub(crate) fn xavier_limit(rows: usize, cols: usize) -> f32 {
    (6.0 / (rows + cols) as f64).sqrt() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = Matrix::xavier_uniform(7, 13, &mut rng);
        let b = Matrix::xavier_uniform(13, 5, &mut rng);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::xavier_uniform(4, 6, &mut rng);
        let c = a.matmul(&Matrix::identity(6));
        assert_eq!(c, a);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn linear_applies_bias_and_activation() {
        let x = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let w = Matrix::identity(2);
        let out = x.linear(&w, &[0.5, 0.5], Activation::Relu);
        assert_eq!(out.as_slice(), &[1.5, 0.0]);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 3.0]);
        let b = Matrix::from_vec(2, 2, vec![10.0, 20.0, 30.0, 40.0]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.row(0), &[1.0, 10.0, 20.0]);
        assert_eq!(c.row(1), &[3.0, 30.0, 40.0]);
    }

    #[test]
    #[should_panic(expected = "row counts differ")]
    fn concat_mismatched_rows_panics() {
        let a = Matrix::zeros(2, 1);
        let b = Matrix::zeros(3, 1);
        let _ = Matrix::concat_cols(&[&a, &b]);
    }

    #[test]
    fn sum_elementwise_adds() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![10.0, 20.0]);
        let s = Matrix::sum_elementwise(&[&a, &b]);
        assert_eq!(s.as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn hadamard_multiplies() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::xavier_uniform(3, 5, &mut rng);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn xavier_within_limit() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = Matrix::xavier_uniform(100, 50, &mut rng);
        let limit = (6.0f64 / 150.0).sqrt() as f32 + 1e-6;
        assert!(m.as_slice().iter().all(|v| v.abs() <= limit));
        // Not all zeros.
        assert!(m.frobenius_norm() > 0.0);
    }

    #[test]
    fn row_access() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.row(2), &[20.0, 21.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let m = Matrix::zeros(1, 1);
        let _ = m.row(1);
    }
}
