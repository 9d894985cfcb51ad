//! Pre-packed weights and the register-blocked GEMM micro-kernel that
//! every matrix product in the workspace runs on.

use crate::matrix::{xavier_limit, Matrix};
use crate::ops::Activation;
use rand::Rng;

/// Rows of the micro-tile: activation rows whose accumulators live in
/// registers together while one weight panel streams past.
const MR: usize = 4;

/// Columns of the micro-tile and of a packed weight panel: sixteen
/// `f32`, two AVX2 (four SSE/NEON) vectors per tile row.
const NR: usize = 16;

/// What happens to an accumulator tile on its way to memory.
#[derive(Clone, Copy)]
struct Epilogue<'a> {
    /// Add the product to what `out` already holds instead of
    /// overwriting it.
    accumulate: bool,
    /// Added after the product (and after the accumulate, if any).
    bias: Option<&'a [f32]>,
    /// Applied last.
    act: Activation,
}

/// A `k × n` weight matrix stored for the GEMM micro-kernel.
///
/// The columns are cut into `ceil(n / 16)` panels of sixteen; inside a
/// panel the sixteen values of row 0 come first, then row 1's, down to
/// row `k − 1`, so the kernel reads one panel front to back while it
/// walks `k` (FBGEMM's pre-packed-B layout). The last panel is
/// zero-padded to full width; the padding is multiplied but never
/// stored. Layers pack once at construction and keep only this form.
///
/// # Summation order
///
/// Every output element has exactly one `f32` accumulator. It starts at
/// `+0.0` and receives `a[i][kk] * b[kk][j]` for `kk = 0, 1, …, k − 1`,
/// as a rounded multiply followed by a rounded add (Rust never
/// contracts the pair into a fused multiply-add). Then, in this order:
/// the previous output value (accumulating calls only), the bias, the
/// activation. Tile shape, row tails, panel padding and the instruction
/// set the kernel was compiled for only decide *which* elements are
/// computed side by side, never the order within one, so every kernel
/// honouring this contract returns the same bits — and row `i` of a
/// batch scores exactly as it would alone, whichever batch it rides in.
///
/// The kernel multiplies every term: a `0.0` activation against an
/// infinite (or NaN) weight yields NaN, as IEEE 754 says. (The i-k-j
/// loop this kernel replaced skipped zero activations, so it returned a
/// finite value there; for finite operands the two agree bit for bit.)
///
/// # Examples
///
/// ```
/// use drs_tensor::{Activation, Matrix, PackedWeights};
///
/// let w = PackedWeights::pack(&Matrix::identity(2));
/// let x = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
/// let y = w.linear(&x, &[0.5, 0.5], Activation::Relu);
/// assert_eq!(y.as_slice(), &[1.5, 0.0]);
/// ```
#[derive(Debug, Clone)]
pub struct PackedWeights {
    rows: usize,
    cols: usize,
    panels: Vec<f32>,
}

impl PackedWeights {
    /// Packs a row-major `k × n` weight matrix.
    pub fn pack(weights: &Matrix) -> Self {
        Self::from_row_chunks(weights.rows(), weights.cols(), |kk, j0, dst| {
            dst.copy_from_slice(&weights.row(kk)[j0..j0 + dst.len()]);
        })
    }

    /// Xavier/Glorot-uniform weights, generated in place: the values
    /// and the RNG stream of packing [`Matrix::xavier_uniform`]'s
    /// result, without the unpacked copy ever existing.
    pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let limit = xavier_limit(rows, cols);
        Self::from_row_chunks(rows, cols, |_, _, dst| {
            dst.fill_with(|| rng.gen_range(-limit..=limit));
        })
    }

    /// Builds the panels in row-major order: `fill(kk, j0, dst)` writes
    /// the values of row `kk`, columns `j0..j0 + dst.len()`.
    fn from_row_chunks(
        rows: usize,
        cols: usize,
        mut fill: impl FnMut(usize, usize, &mut [f32]),
    ) -> Self {
        let mut panels = vec![0.0; cols.div_ceil(NR) * rows * NR];
        for kk in 0..rows {
            for j0 in (0..cols).step_by(NR) {
                let at = (j0 / NR * rows + kk) * NR;
                fill(kk, j0, &mut panels[at..at + NR.min(cols - j0)]);
            }
        }
        PackedWeights { rows, cols, panels }
    }

    /// Rows of the weight matrix: the input width `k`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the weight matrix: the output width `n`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `x × W`, allocating the output.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.rows()`.
    pub fn matmul(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.cols);
        self.matmul_into(x, &mut out);
        out
    }

    /// `x × W` into a preallocated output (overwrites `out`).
    pub(crate) fn matmul_into(&self, x: &Matrix, out: &mut Matrix) {
        let epilogue = Epilogue {
            accumulate: false,
            bias: None,
            act: Activation::None,
        };
        self.gemm(x, out, epilogue);
    }

    /// Fused `act(x × W + bias)`, the fully-connected-layer primitive.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.rows()` or `bias.len() !=
    /// self.cols()`.
    pub fn linear(&self, x: &Matrix, bias: &[f32], act: Activation) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.cols);
        let epilogue = Epilogue {
            accumulate: false,
            bias: Some(bias),
            act,
        };
        self.gemm(x, &mut out, epilogue);
        out
    }

    /// Fused `out = act(out + x × W + bias)`: a second product summed
    /// onto a first without a temporary, as a GRU gate's
    /// `σ(x·W + h·U + b)` needs. The product is complete before it
    /// meets `out`, so the result equals computing both products apart
    /// and adding them.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.rows()`, `bias.len() != self.cols()`
    /// or `out` is not `x.rows() × self.cols()`.
    pub fn linear_acc(&self, x: &Matrix, bias: &[f32], act: Activation, out: &mut Matrix) {
        let epilogue = Epilogue {
            accumulate: true,
            bias: Some(bias),
            act,
        };
        self.gemm(x, out, epilogue);
    }

    fn gemm(&self, x: &Matrix, out: &mut Matrix, epilogue: Epilogue<'_>) {
        assert_eq!(
            x.cols(),
            self.rows,
            "inner dimensions differ: {}x{} × {}x{}",
            x.rows(),
            x.cols(),
            self.rows,
            self.cols
        );
        assert_eq!(out.rows(), x.rows(), "output rows mismatch");
        assert_eq!(out.cols(), self.cols, "output cols mismatch");
        if let Some(bias) = epilogue.bias {
            assert_eq!(bias.len(), self.cols, "bias length mismatch");
        }
        let a = pack_rows(x);
        let job = Gemm {
            m: x.rows(),
            k: self.rows,
            n: self.cols,
            a: &a,
            panels: &self.panels,
            epilogue,
        };
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `run_avx2` needs AVX2, which the line above just
            // found on the running CPU.
            #[expect(unsafe_code)]
            unsafe {
                job.run_avx2(out.as_mut_slice())
            };
            return;
        }
        job.run(out.as_mut_slice());
    }
}

/// Packs the activation rows into micro-panels: each block of [`MR`]
/// rows (the last block may hold fewer) is stored `k`-major, the
/// block's values at `kk = 0` first, so the kernel reads it front to
/// back beside the weight panel. Block `b` starts at `b · MR · k`.
fn pack_rows(x: &Matrix) -> Vec<f32> {
    let k = x.cols();
    let mut packed = vec![0.0; x.rows() * k];
    if k == 0 {
        return packed;
    }
    for (src, dst) in x.as_slice().chunks(MR * k).zip(packed.chunks_mut(MR * k)) {
        let height = src.len() / k;
        for (r, row) in src.chunks_exact(k).enumerate() {
            for (d, &v) in dst[r..].iter_mut().step_by(height).zip(row) {
                *d = v;
            }
        }
    }
    packed
}

/// One product, ready to run: packed operands and what to do with the
/// result.
struct Gemm<'a> {
    m: usize,
    k: usize,
    n: usize,
    a: &'a [f32],
    panels: &'a [f32],
    epilogue: Epilogue<'a>,
}

impl Gemm<'_> {
    /// The loop nest again, compiled with AVX2 enabled (wider vectors,
    /// sixteen of them). It is the same source as [`Gemm::run`] and no
    /// operation is reordered or fused, so the bits match.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_avx2(&self, out: &mut [f32]) {
        self.run(out);
    }

    /// The loop nest, inlined into its caller and compiled for that
    /// caller's instruction set. Panel-outer, row-block-inner: the
    /// weights stream from memory once per call while the packed
    /// activations stay in cache.
    #[inline(always)]
    fn run(&self, out: &mut [f32]) {
        let (m, k, n) = (self.m, self.k, self.n);
        for p in 0..n.div_ceil(NR) {
            let panel = &self.panels[p * k * NR..(p + 1) * k * NR];
            let mut i0 = 0;
            while i0 < m {
                let height = MR.min(m - i0);
                let a = &self.a[i0 * k..(i0 + height) * k];
                let rows = &mut out[i0 * n..(i0 + height) * n];
                match height {
                    1 => self.tile::<1>(a, panel, rows, p * NR),
                    2 => self.tile::<2>(a, panel, rows, p * NR),
                    3 => self.tile::<3>(a, panel, rows, p * NR),
                    _ => self.tile::<MR>(a, panel, rows, p * NR),
                }
                i0 += height;
            }
        }
    }

    /// The micro-kernel: an `R × NR` tile of accumulators walks `k`
    /// once, then goes through the epilogue into columns `j0..` of the
    /// `R` output rows in `rows`.
    #[inline(always)]
    fn tile<const R: usize>(&self, a: &[f32], panel: &[f32], rows: &mut [f32], j0: usize) {
        let mut acc = [[0.0f32; NR]; R];
        for (av, bv) in a.chunks_exact(R).zip(panel.chunks_exact(NR)) {
            let av: &[f32; R] = av.try_into().expect("chunks_exact(R)");
            let bv: &[f32; NR] = bv.try_into().expect("chunks_exact(NR)");
            for (acc_row, &a_rk) in acc.iter_mut().zip(av) {
                for (c, &b) in acc_row.iter_mut().zip(bv) {
                    *c += a_rk * b;
                }
            }
        }
        let width = NR.min(self.n - j0);
        let Epilogue {
            accumulate,
            bias,
            act,
        } = self.epilogue;
        for (acc_row, out_row) in acc.iter().zip(rows.chunks_exact_mut(self.n)) {
            // A copy, so the accumulators themselves never need an
            // address and stay in registers through the `k` loop.
            let mut v = *acc_row;
            let dst = &mut out_row[j0..j0 + width];
            if accumulate {
                for (v, &prev) in v.iter_mut().zip(dst.iter()) {
                    *v += prev;
                }
            }
            if let Some(bias) = bias {
                for (v, &b) in v.iter_mut().zip(&bias[j0..j0 + width]) {
                    *v += b;
                }
            }
            act.apply_slice(&mut v[..width]);
            dst.copy_from_slice(&v[..width]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ACTIVATIONS: [Activation; 4] = [
        Activation::None,
        Activation::Relu,
        Activation::Sigmoid,
        Activation::Tanh,
    ];

    /// The oracle: the i-k-j GEMM every layer ran before the packed
    /// kernel, kept verbatim (zero skip included), followed by bias and
    /// activation exactly as `Matrix::linear` applied them.
    fn reference_linear(x: &Matrix, w: &Matrix, bias: &[f32], act: Activation) -> Matrix {
        let (k, n) = (w.rows(), w.cols());
        assert_eq!(x.cols(), k);
        let mut out = Matrix::zeros(x.rows(), n);
        for i in 0..x.rows() {
            let c_row = out.row_mut(i);
            for (kk, &a_ik) in x.row(i).iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                for (c, &b) in c_row.iter_mut().zip(w.row(kk)) {
                    *c += a_ik * b;
                }
            }
            for (v, b) in c_row.iter_mut().zip(bias) {
                *v += b;
            }
            act.apply_slice(c_row);
        }
        out
    }

    /// Activations as a post-ReLU layer hands them on: about half
    /// exact zeros, the rest in `(-1, 1)`.
    fn sparse_input(m: usize, k: usize, rng: &mut StdRng) -> Matrix {
        Matrix::from_fn(m, k, |_, _| {
            if rng.gen_bool(0.5) {
                0.0
            } else {
                rng.gen_range(-1.0..1.0)
            }
        })
    }

    fn problem(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = sparse_input(m, k, &mut rng);
        let w = Matrix::xavier_uniform(k, n, &mut rng);
        let bias = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
        (x, w, bias)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn assert_linear_matches_reference(m: usize, k: usize, n: usize, seed: u64, act: Activation) {
        let (x, w, bias) = problem(m, k, n, seed);
        let got = PackedWeights::pack(&w).linear(&x, &bias, act);
        let want = reference_linear(&x, &w, &bias, act);
        assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n} {act:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Bit-identity with the oracle over shapes that hit every row
        /// tail, every column tail and `k < NR`.
        #[test]
        fn linear_bit_equals_reference(
            m in 1usize..=70,
            k in 1usize..=300,
            n in 1usize..=70,
            seed in 0u64..1_000_000,
        ) {
            for act in ACTIVATIONS {
                assert_linear_matches_reference(m, k, n, seed, act);
            }
        }

        /// Row `i` of a batch scores exactly as it would alone: the
        /// server splits and coalesces queries freely.
        #[test]
        fn batch_composition_does_not_change_a_row(
            m in 1usize..=70,
            k in 1usize..=300,
            n in 1usize..=70,
            seed in 0u64..1_000_000,
        ) {
            let (x, w, bias) = problem(m, k, n, seed);
            let w = PackedWeights::pack(&w);
            let whole = w.linear(&x, &bias, Activation::Relu);
            for i in 0..m {
                let row = Matrix::from_vec(1, k, x.row(i).to_vec());
                let alone = w.linear(&row, &bias, Activation::Relu);
                prop_assert_eq!(bits(&alone), bits(&Matrix::from_vec(1, n, whole.row(i).to_vec())));
            }
        }

        /// `linear_acc` equals computing the two products apart and
        /// adding them, the way `GruCell` used to.
        #[test]
        fn linear_acc_bit_equals_separate_products(
            m in 1usize..=9,
            k in 1usize..=40,
            n in 1usize..=40,
            seed in 0u64..1_000_000,
        ) {
            let (x, w, bias) = problem(m, k, n, seed);
            let (h, u, zero) = problem(m, n, n, seed + 1);
            let zero = vec![0.0; zero.len()];
            let mut want = Matrix::sum_elementwise(&[
                &reference_linear(&x, &w, &zero, Activation::None),
                &reference_linear(&h, &u, &zero, Activation::None),
            ]);
            for r in 0..m {
                let row = want.row_mut(r);
                for (v, b) in row.iter_mut().zip(&bias) {
                    *v += b;
                }
                Activation::Sigmoid.apply_slice(row);
            }
            let mut got = PackedWeights::pack(&w).matmul(&x);
            PackedWeights::pack(&u).linear_acc(&h, &bias, Activation::Sigmoid, &mut got);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    /// The shapes the model zoo actually runs: WND's first layer at a
    /// coalesced and at a full batch, RMC1's, NCF's, and a CTR head.
    #[test]
    fn zoo_shapes_bit_equal_reference() {
        let shapes = [
            (9, 1640, 1024),
            (64, 1640, 1024),
            (64, 352, 256),
            (8, 128, 256),
            (64, 256, 1),
        ];
        for (i, (m, k, n)) in shapes.into_iter().enumerate() {
            let act = ACTIVATIONS[(i + 1) % ACTIVATIONS.len()];
            assert_linear_matches_reference(m, k, n, 7 + i as u64, act);
        }
    }

    #[test]
    fn xavier_uniform_is_packed_matrix_xavier_uniform() {
        for (rows, cols) in [(5, 1), (7, 16), (33, 40)] {
            let direct = PackedWeights::xavier_uniform(rows, cols, &mut StdRng::seed_from_u64(9));
            let matrix = Matrix::xavier_uniform(rows, cols, &mut StdRng::seed_from_u64(9));
            assert_eq!(direct.panels, PackedWeights::pack(&matrix).panels);
        }
    }

    #[test]
    fn matmul_wrappers_bit_equal_reference() {
        let (x, w, _) = problem(7, 33, 19, 3);
        let want = reference_linear(&x, &w, &[0.0; 19], Activation::None);
        assert_eq!(bits(&x.matmul(&w)), bits(&want));
        let mut out = Matrix::from_fn(7, 19, |_, _| f32::NAN);
        x.matmul_into(&w, &mut out);
        assert_eq!(bits(&out), bits(&want));
    }

    /// The one place the packed kernel and the old loop differ: the
    /// old loop skipped a zero activation, the kernel multiplies it.
    #[test]
    fn zero_times_infinity_is_nan() {
        let x = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let w = Matrix::from_vec(2, 1, vec![f32::INFINITY, 2.0]);
        let got = PackedWeights::pack(&w).linear(&x, &[0.0], Activation::None);
        assert!(got.get(0, 0).is_nan());
        let old = reference_linear(&x, &w, &[0.0], Activation::None);
        assert_eq!(old.get(0, 0), 2.0);
    }

    #[test]
    fn empty_dimensions_are_handled() {
        let w = PackedWeights::pack(&Matrix::zeros(0, 3));
        let y = w.linear(&Matrix::zeros(2, 0), &[1.0, -2.0, 3.0], Activation::Relu);
        assert_eq!(y.as_slice(), &[1.0, 0.0, 3.0, 1.0, 0.0, 3.0]);
        let w = PackedWeights::pack(&Matrix::zeros(3, 0));
        assert_eq!(w.matmul(&Matrix::zeros(2, 3)).as_slice(), &[] as &[f32]);
        let w = PackedWeights::pack(&Matrix::identity(3));
        assert_eq!(w.matmul(&Matrix::zeros(0, 3)).rows(), 0);
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn wrong_bias_length_panics() {
        let w = PackedWeights::pack(&Matrix::identity(2));
        let _ = w.linear(&Matrix::zeros(1, 2), &[0.0], Activation::None);
    }

    /// The baseline build and the AVX2 build of the loop nest are one
    /// source body; with no fused multiply-add they must agree on
    /// every bit.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_build_bit_equals_baseline_build() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for (m, k, n) in [
            (1, 5, 1),
            (3, 17, 16),
            (6, 300, 33),
            (9, 1640, 64),
            (64, 352, 256),
        ] {
            let (x, w, bias) = problem(m, k, n, 11);
            let w = PackedWeights::pack(&w);
            let a = pack_rows(&x);
            for (accumulate, act) in [(false, Activation::Relu), (true, Activation::Tanh)] {
                let job = Gemm {
                    m,
                    k,
                    n,
                    a: &a,
                    panels: &w.panels,
                    epilogue: Epilogue {
                        accumulate,
                        bias: Some(&bias),
                        act,
                    },
                };
                let mut baseline = vec![0.25f32; m * n];
                let mut avx2 = baseline.clone();
                job.run(&mut baseline);
                // SAFETY: AVX2 was detected at the top of the test.
                #[expect(unsafe_code)]
                unsafe {
                    job.run_avx2(&mut avx2)
                };
                let as_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(as_bits(&baseline), as_bits(&avx2), "{m}x{k}x{n}");
            }
        }
    }
}
