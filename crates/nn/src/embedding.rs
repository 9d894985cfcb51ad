//! Embedding tables and pooled lookup (the sparse-feature path).
//!
//! Embedding operations are the defining workload of recommendation
//! inference (Section II-A of the paper): each categorical feature owns a
//! table of latent vectors; a query performs one-hot or multi-hot lookups
//! into it, and the gathered rows are combined by a *pooling* operator.
//! The accesses are data-dependent and effectively random, so a gather's
//! speed is set by how many cache misses the core keeps in flight — which
//! is why DLRM-RMC1/2 and DIN are memory-bound, and why the lookup is one
//! kernel built around that number.
//!
//! # The gather kernel
//!
//! Every pooled lookup lands on [`gather_reduce`]: the batch is
//! flattened once into a CSR view — `values`, every gathered index in
//! sample order, and `offsets`, where each sample's bag starts
//! (TorchRec's jagged layout, FBGEMM's `SparseLengthsSum` shape) — and
//! one [`walk`] visits it. The walk software-prefetches the row
//! [`AHEAD`] positions further down `values`, straight across bag
//! boundaries, which is what the flat view buys; a bag's accumulator is
//! a local `[f32; D]` (registers) for the widths the model zoo uses, 32
//! and 64, and the output row for any other width; `Sum`, `Mean` and
//! `Concat` are the walk's three epilogues (store, store-and-scale,
//! copy). Tables are stored 64-byte aligned, so a 32-wide row is
//! exactly two cache lines and a 64-wide row four — unaligned, the
//! prefetch buys nothing.
//!
//! What the result's bits depend on — summation order, never the
//! kernel's shape — is the crate docs' "gather contract";
//! `reference_pool`, the nested loop this kernel replaced, fences it
//! in the tests.

use crate::profile::{OpKind, OpProfiler};
use drs_tensor::Matrix;
use rand::Rng;
use std::ops::Range;

/// `f32`s per 64-byte cache line: the alignment of table storage and
/// the stride of the prefetch hints.
const LINE: usize = 16;

/// How many positions ahead of the walk the gather kernel prefetches.
///
/// Chosen on `cargo bench --bench embedding_lookup`, group
/// `embedding_bag_cold` (128 MB table, rotating index sets; 2-core
/// Sapphire Rapids VM; best median of 3 runs), µs per 64-sample ×
/// 80-lookup `Sum` batch at dim 32 / dim 64: the `add_scaled` loop this
/// kernel replaced 140 / 297; this kernel prefetching nothing 93 / 205,
/// 4 ahead 93 / 138, 8 ahead 89 / 120, **16 ahead 79 / 115**, 32 ahead
/// 87 / 109, 64 ahead 102 / 154. 16 and 32 are inside each other's
/// run-to-run spread and 64 is past the knee; the shorter distance wins
/// the tie because it also covers short batches (at 20 lookups,
/// 20 / 29 against 23 / 28).
const AHEAD: usize = 16;

/// How gathered embedding rows are combined (Figure 2's "sparse feature
/// pooling").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pooling {
    /// Element-wise sum of the gathered rows (DLRM's `SparseLengthsSum`).
    #[default]
    Sum,
    /// Element-wise mean of the gathered rows.
    Mean,
    /// Concatenation — requires every sample to gather the same number of
    /// rows (used by the one-hot models: NCF, WnD, MT-WnD).
    Concat,
}

/// One embedding table: `rows × dim` latent vectors, stored so that row
/// 0 starts on a 64-byte boundary.
#[derive(Debug)]
pub struct EmbeddingTable {
    rows: usize,
    dim: usize,
    /// The table is `buf[start..start + rows * dim]`. `buf` is
    /// over-allocated by one cache line so `start` can land on a line
    /// boundary without an aligned allocator.
    buf: Vec<f32>,
    start: usize,
}

impl EmbeddingTable {
    /// Creates a table with entries drawn from `U(-0.1, 0.1)`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `dim` is zero.
    pub fn new(rows: usize, dim: usize, rng: &mut impl Rng) -> Self {
        assert!(rows > 0 && dim > 0, "embedding table must be non-empty");
        Self::aligned(rows, dim, (0..rows * dim).map(|_| rng.gen_range(-0.1..0.1)))
    }

    /// Stores `rows * dim` values from `values` line-aligned, in one
    /// allocation and one pass.
    ///
    /// The padding and the values go in through a single `extend`, with
    /// no other `&mut buf` call after the allocation: a `resize` for the
    /// padding first made LLVM lose track of the buffer pointer and keep
    /// the caller's RNG state in memory across the fill loop, which is
    /// most of model set-up (+70 % on the benchmark's `setup_s`).
    fn aligned(rows: usize, dim: usize, values: impl Iterator<Item = f32>) -> Self {
        let mut buf: Vec<f32> = Vec::with_capacity(rows * dim + LINE);
        // `align_offset` may decline to answer; the table is then merely
        // unaligned, never wrong.
        let start = match buf.as_ptr().align_offset(LINE * std::mem::size_of::<f32>()) {
            offset if offset < LINE => offset,
            _ => 0,
        };
        buf.extend(std::iter::repeat_n(0.0, start).chain(values));
        assert_eq!(buf.len(), start + rows * dim, "table data length");
        EmbeddingTable {
            rows,
            dim,
            buf,
            start,
        }
    }

    /// Number of rows (feature cardinality).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Latent dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Storage footprint in bytes: `rows × dim` `f32`s (the alignment
    /// padding, at most one cache line per table, is not counted).
    pub fn bytes(&self) -> usize {
        self.rows * self.dim * std::mem::size_of::<f32>()
    }

    /// Borrow the embedding vector for `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn lookup(&self, index: u32) -> &[f32] {
        self.view().row(index)
    }

    fn view(&self) -> TableView<'_> {
        TableView {
            data: &self.buf[self.start..],
            rows: self.rows,
            dim: self.dim,
        }
    }
}

/// A derived `Clone` would copy `start` onto a buffer with a different
/// address and silently lose the alignment.
impl Clone for EmbeddingTable {
    fn clone(&self) -> Self {
        Self::aligned(self.rows, self.dim, self.view().data.iter().copied())
    }
}

/// A table's aligned data, resolved once per gather call.
struct TableView<'a> {
    data: &'a [f32],
    rows: usize,
    dim: usize,
}

impl<'a> TableView<'a> {
    #[inline(always)]
    fn row(&self, index: u32) -> &'a [f32] {
        let i = index as usize;
        assert!(i < self.rows, "embedding index {i} >= {}", self.rows);
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Asks the core to start loading row `index`, which the walk has
    /// not range-checked yet.
    #[inline(always)]
    fn prefetch(&self, index: u32) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let row = self
                .data
                .as_ptr()
                .wrapping_add((index as usize).wrapping_mul(self.dim));
            for line in 0..self.dim.div_ceil(LINE) {
                // SAFETY: a prefetch is a hint — it never faults and
                // nothing is read through the pointer, so an address
                // from an out-of-range `index` is harmless; SSE is part
                // of the x86_64 baseline.
                #[expect(unsafe_code)]
                unsafe {
                    _mm_prefetch::<_MM_HINT_T0>(row.wrapping_add(line * LINE).cast())
                };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = index;
    }
}

/// The one walk under every pooled lookup: visits `values[span]` in
/// ascending order, handing `each` the position and its table row, with
/// the row [`AHEAD`] positions further on — in whichever bag — already
/// requested from memory.
#[inline(always)]
fn walk<'a>(
    table: &TableView<'a>,
    values: &[u32],
    span: Range<usize>,
    mut each: impl FnMut(usize, &'a [f32]),
) {
    for p in span {
        if let Some(&ahead) = values.get(p + AHEAD) {
            table.prefetch(ahead);
        }
        each(p, table.row(values[p]));
    }
}

/// Sums one bag into `dst` with the accumulator in registers.
#[inline(always)]
fn sum_in_registers<const D: usize>(
    table: &TableView<'_>,
    values: &[u32],
    span: Range<usize>,
    dst: &mut [f32],
) {
    // Lets the row arithmetic and the prefetch-line loop fold `dim`.
    assert_eq!(table.dim, D, "width matched on dim");
    let mut acc = [0.0f32; D];
    walk(table, values, span, |_, row| {
        let row = row.first_chunk::<D>().expect("width matched on dim");
        for (a, r) in acc.iter_mut().zip(row) {
            *a += r;
        }
    });
    dst.copy_from_slice(&acc);
}

/// Gather-reduce over a CSR batch: sample `b` pools the table rows
/// named by `values[offsets[b]..offsets[b + 1]]`.
fn gather_reduce(
    table: &EmbeddingTable,
    pooling: Pooling,
    values: &[u32],
    offsets: &[u32],
) -> Matrix {
    let batch = offsets.len() - 1;
    let dim = table.dim;
    let table = table.view();
    let bag = |b: usize| offsets[b] as usize..offsets[b + 1] as usize;
    // The walk only reaches ahead from a position it visits.
    values.iter().take(AHEAD).for_each(|&i| table.prefetch(i));
    if pooling == Pooling::Concat {
        let lookups = bag(0).len();
        assert!(lookups > 0, "sample 0 gathers zero rows");
        assert!(
            (1..batch).all(|b| bag(b).len() == lookups),
            "concat pooling requires equal lookup counts"
        );
        let mut out = Matrix::zeros(batch, dim * lookups);
        let flat = out.as_mut_slice();
        walk(&table, values, 0..values.len(), |p, row| {
            flat[p * dim..(p + 1) * dim].copy_from_slice(row);
        });
        return out;
    }
    let mut out = Matrix::zeros(batch, dim);
    for (b, dst) in out.as_mut_slice().chunks_exact_mut(dim).enumerate() {
        let span = bag(b);
        assert!(!span.is_empty(), "sample {b} gathers zero rows");
        let len = span.len();
        match dim {
            32 => sum_in_registers::<32>(&table, values, span, dst),
            64 => sum_in_registers::<64>(&table, values, span, dst),
            _ => walk(&table, values, span, |_, row| {
                for (a, r) in dst.iter_mut().zip(row) {
                    *a += r;
                }
            }),
        }
        if pooling == Pooling::Mean {
            let inv = 1.0 / len as f32;
            for v in dst.iter_mut() {
                *v *= inv;
            }
        }
    }
    out
}

/// Flattens a nested batch into the kernel's CSR view `(values,
/// offsets)`.
fn flatten(indices: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
    let total: usize = indices.iter().map(Vec::len).sum();
    assert!(
        u32::try_from(total).is_ok(),
        "batch gathers {total} rows, offsets are u32"
    );
    let mut values = Vec::with_capacity(total);
    let mut offsets = Vec::with_capacity(indices.len() + 1);
    offsets.push(0);
    for idx in indices {
        values.extend_from_slice(idx);
        offsets.push(values.len() as u32);
    }
    (values, offsets)
}

/// An embedding table plus its pooling operator: the batched sparse
/// lookup primitive.
///
/// Every lookup runs the crate's one gather kernel (see the
/// [crate docs](crate#the-gather-contract)) under its bit-identity
/// contract: one accumulator per output element, initialised to `+0.0`;
/// a sample's rows added in the order its index list names them; adds
/// only; [`Pooling::Mean`] multiplies by `1.0 / len as f32` once, after
/// the last add; [`Pooling::Concat`] copies rows verbatim. Register
/// blocking, prefetch distance, table alignment and instruction set
/// cannot change a bit of the result.
///
/// # Examples
///
/// ```
/// use drs_nn::{EmbeddingBag, Pooling};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let bag = EmbeddingBag::new(100, 8, Pooling::Sum, &mut rng);
/// // Batch of two samples, each looking up three rows.
/// let idx = vec![vec![1, 5, 9], vec![0, 0, 2]];
/// let pooled = bag.forward_plain(&idx);
/// assert_eq!((pooled.rows(), pooled.cols()), (2, 8));
/// ```
#[derive(Debug, Clone)]
pub struct EmbeddingBag {
    table: EmbeddingTable,
    pooling: Pooling,
}

impl EmbeddingBag {
    /// Creates a bag over a freshly initialized table.
    pub fn new(rows: usize, dim: usize, pooling: Pooling, rng: &mut impl Rng) -> Self {
        EmbeddingBag {
            table: EmbeddingTable::new(rows, dim, rng),
            pooling,
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &EmbeddingTable {
        &self.table
    }

    /// The pooling operator.
    pub fn pooling(&self) -> Pooling {
        self.pooling
    }

    /// Output width for samples gathering `lookups` rows each.
    pub fn out_dim(&self, lookups: usize) -> usize {
        match self.pooling {
            Pooling::Sum | Pooling::Mean => self.table.dim,
            Pooling::Concat => self.table.dim * lookups,
        }
    }

    /// Batched pooled lookup. `indices[b]` lists the rows gathered by
    /// sample `b`.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, any index list is empty, any index
    /// is out of range, or (for [`Pooling::Concat`]) lookup counts
    /// differ across samples.
    pub fn forward_plain(&self, indices: &[Vec<u32>]) -> Matrix {
        assert!(!indices.is_empty(), "empty batch");
        let (values, offsets) = flatten(indices);
        gather_reduce(&self.table, self.pooling, &values, &offsets)
    }

    /// Batched pooled lookup, attributed to [`OpKind::Embedding`].
    pub fn forward(&self, indices: &[Vec<u32>], prof: &mut OpProfiler) -> Matrix {
        prof.time(OpKind::Embedding, || self.forward_plain(indices))
    }

    /// Bytes of table data a batch gathering `lookups` rows per sample
    /// asks for: rows × width × 4, a *computed* count. With line-aligned
    /// tables a 32- or 64-wide row is exactly 2 or 4 cache lines, so for
    /// those widths it is also what the memory system moves on a cold
    /// gather; rows that hit in cache move less, other widths straddle
    /// lines and move more.
    pub fn bytes_gathered(&self, batch: usize, lookups: usize) -> u64 {
        (batch * lookups * self.table.dim * std::mem::size_of::<f32>()) as u64
    }
}

/// The nested `add_scaled` loop the gather kernel replaced, verbatim:
/// the oracle the kernel is fenced against, bit for bit.
#[cfg(test)]
fn reference_pool(bag: &EmbeddingBag, indices: &[Vec<u32>]) -> Matrix {
    use drs_tensor::add_scaled;
    assert!(!indices.is_empty(), "empty batch");
    let dim = bag.table.dim;
    match bag.pooling {
        Pooling::Sum | Pooling::Mean => {
            let mut out = Matrix::zeros(indices.len(), dim);
            for (b, idx) in indices.iter().enumerate() {
                assert!(!idx.is_empty(), "sample {b} gathers zero rows");
                let row = out.row_mut(b);
                for &i in idx {
                    add_scaled(row, bag.table.lookup(i), 1.0);
                }
                if bag.pooling == Pooling::Mean {
                    let inv = 1.0 / idx.len() as f32;
                    for v in row.iter_mut() {
                        *v *= inv;
                    }
                }
            }
            out
        }
        Pooling::Concat => {
            let lookups = indices[0].len();
            assert!(lookups > 0, "sample 0 gathers zero rows");
            assert!(
                indices.iter().all(|l| l.len() == lookups),
                "concat pooling requires equal lookup counts"
            );
            let mut out = Matrix::zeros(indices.len(), dim * lookups);
            for (b, idx) in indices.iter().enumerate() {
                let row = out.row_mut(b);
                for (j, &i) in idx.iter().enumerate() {
                    row[j * dim..(j + 1) * dim].copy_from_slice(bag.table.lookup(i));
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bag(pooling: Pooling) -> EmbeddingBag {
        let mut rng = StdRng::seed_from_u64(9);
        EmbeddingBag::new(16, 4, pooling, &mut rng)
    }

    #[test]
    fn sum_pooling_adds_rows() {
        let b = bag(Pooling::Sum);
        let idx = vec![vec![3, 3]];
        let out = b.forward_plain(&idx);
        let row3 = b.table().lookup(3);
        for (o, r) in out.row(0).iter().zip(row3) {
            assert!((o - 2.0 * r).abs() < 1e-6);
        }
    }

    #[test]
    fn mean_pooling_divides() {
        let b = bag(Pooling::Mean);
        let out = b.forward_plain(&[vec![1, 1, 1, 1]]);
        for (o, r) in out.row(0).iter().zip(b.table().lookup(1)) {
            assert!((o - r).abs() < 1e-6);
        }
    }

    #[test]
    fn concat_pooling_widens() {
        let b = bag(Pooling::Concat);
        let out = b.forward_plain(&[vec![0, 1], vec![2, 3]]);
        assert_eq!(out.cols(), 8);
        assert_eq!(&out.row(1)[0..4], b.table().lookup(2));
        assert_eq!(&out.row(1)[4..8], b.table().lookup(3));
    }

    #[test]
    #[should_panic(expected = "equal lookup counts")]
    fn concat_ragged_panics() {
        let b = bag(Pooling::Concat);
        let _ = b.forward_plain(&[vec![0, 1], vec![2]]);
    }

    #[test]
    #[should_panic(expected = ">= 16")]
    fn out_of_range_index_panics() {
        let b = bag(Pooling::Sum);
        let _ = b.forward_plain(&[vec![16]]);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_lookup_panics() {
        let b = bag(Pooling::Sum);
        let _ = b.forward_plain(&[vec![]]);
    }

    #[test]
    fn out_dim_by_pooling() {
        assert_eq!(bag(Pooling::Sum).out_dim(80), 4);
        assert_eq!(bag(Pooling::Mean).out_dim(80), 4);
        assert_eq!(bag(Pooling::Concat).out_dim(3), 12);
    }

    #[test]
    fn bytes_gathered_scales() {
        let b = bag(Pooling::Sum);
        assert_eq!(b.bytes_gathered(2, 80), 2 * 80 * 4 * 4);
    }

    #[test]
    fn table_bytes() {
        let b = bag(Pooling::Sum);
        assert_eq!(b.table().bytes(), 16 * 4 * 4);
    }

    #[test]
    fn profiled_records_embedding_time() {
        let b = bag(Pooling::Sum);
        let mut prof = OpProfiler::new();
        let _ = b.forward(&[vec![1, 2]], &mut prof);
        assert_eq!(prof.count_for(OpKind::Embedding), 1);
    }

    const POOLINGS: [Pooling; 3] = [Pooling::Sum, Pooling::Mean, Pooling::Concat];
    /// Both register widths, a sub-line width, a line, and two that
    /// straddle lines.
    const DIMS: [usize; 6] = [1, 7, 16, 32, 33, 64];
    const ROWS: usize = 97;

    /// A table salted with the values where summation order and a
    /// dropped `1.0 *` could show: signed zeros, subnormals, and
    /// magnitudes that absorb or overflow their neighbours.
    fn hostile_bag(dim: usize, pooling: Pooling, seed: u64) -> EmbeddingBag {
        const SPECIAL: [f32; 10] = [
            -0.0,
            0.0,
            1e-40,
            -1e-40,
            1e30,
            -1e30,
            3e38,
            -3e38,
            1.0,
            -16777216.0,
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..ROWS * dim)
            .map(|_| match rng.gen_range(0..2 * SPECIAL.len()) {
                k if k < SPECIAL.len() => SPECIAL[k],
                _ => rng.gen_range(-0.1..0.1),
            })
            .collect();
        EmbeddingBag {
            table: EmbeddingTable::aligned(ROWS, dim, data.into_iter()),
            pooling,
        }
    }

    fn assert_kernel_matches_reference(bag: &EmbeddingBag, indices: &[Vec<u32>]) {
        let (got, want) = (bag.forward_plain(indices), reference_pool(bag, indices));
        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got),
            bits(&want),
            "dim {} {:?} {indices:?}",
            bag.table.dim,
            bag.pooling
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The kernel equals the loop it replaced, bit for bit, over
        /// ragged bags, duplicate indices, the last row, every pooling
        /// and every width class.
        #[test]
        fn kernel_matches_reference_bitwise(
            dim in 0usize..DIMS.len(),
            pooling in 0usize..POOLINGS.len(),
            lens in prop::collection::vec(1usize..40, 1..12),
            seed in 0u64..1 << 32,
        ) {
            let bag = hostile_bag(DIMS[dim], POOLINGS[pooling], seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
            let mut indices: Vec<Vec<u32>> = lens
                .iter()
                .map(|&n| {
                    let n = if bag.pooling == Pooling::Concat { lens[0] } else { n };
                    (0..n).map(|_| rng.gen_range(0..ROWS as u32)).collect()
                })
                .collect();
            let last = indices.len() - 1;
            indices[last][0] = ROWS as u32 - 1;
            if indices[0].len() > 1 {
                indices[0][1] = indices[0][0];
            }
            assert_kernel_matches_reference(&bag, &indices);
        }
    }

    #[test]
    fn kernel_matches_reference_around_the_prefetch_window() {
        for total in [1, AHEAD - 1, AHEAD, AHEAD + 1] {
            for dim in DIMS {
                for pooling in POOLINGS {
                    let bag = hostile_bag(dim, pooling, total as u64);
                    let ids: Vec<u32> = (0..total as u32).map(|i| (i * 29) % ROWS as u32).collect();
                    // One bag holding every lookup, then bags of one row.
                    assert_kernel_matches_reference(&bag, std::slice::from_ref(&ids));
                    let singles: Vec<Vec<u32>> = ids.iter().map(|&i| vec![i]).collect();
                    assert_kernel_matches_reference(&bag, &singles);
                }
            }
        }
    }

    /// An index the walk has prefetched — a wild address, `AHEAD`
    /// positions before it is consumed — is still rejected only when
    /// the walk reaches it, by the range check and with its message.
    #[test]
    #[should_panic(expected = "embedding index 4294967295 >= 16")]
    fn prefetched_out_of_range_index_panics_when_reached() {
        let mut rng = StdRng::seed_from_u64(9);
        let b = EmbeddingBag::new(16, 32, Pooling::Sum, &mut rng);
        let mut second = vec![3u32; AHEAD];
        second[7] = u32::MAX;
        let _ = b.forward_plain(&[vec![1; AHEAD], second]);
    }

    fn line_aligned(table: &EmbeddingTable) -> bool {
        (table.lookup(0).as_ptr() as usize).is_multiple_of(64)
    }

    #[test]
    fn tables_are_line_aligned_and_clones_stay_so() {
        let mut rng = StdRng::seed_from_u64(3);
        // Several sizes, so the allocator hands back differently
        // placed buffers.
        for (rows, dim) in [(1, 1), (16, 4), (97, 33), (1000, 32), (5000, 64)] {
            let b = EmbeddingBag::new(rows, dim, Pooling::Sum, &mut rng);
            let c = b.clone();
            assert!(line_aligned(b.table()), "{rows}x{dim}");
            assert!(line_aligned(c.table()), "{rows}x{dim} clone");
            assert_eq!(c.table().bytes(), rows * dim * 4);
            assert_eq!(c.table().view().data, b.table().view().data);
        }
    }

    /// The goldens rely on a table consuming exactly the RNG stream a
    /// plain collected `Vec` would.
    #[test]
    fn table_draws_the_plain_rng_stream() {
        let (rows, dim) = (300, 7);
        let mut plain_rng = StdRng::seed_from_u64(77);
        let plain: Vec<f32> = (0..rows * dim)
            .map(|_| plain_rng.gen_range(-0.1..0.1))
            .collect();
        let mut rng = StdRng::seed_from_u64(77);
        let table = EmbeddingTable::new(rows, dim, &mut rng);
        assert_eq!(table.lookup(0), &plain[..dim]);
        assert_eq!(table.lookup(1)[0], plain[dim]);
        assert_eq!(table.lookup(rows as u32 - 1), &plain[(rows - 1) * dim..]);
        assert_eq!(rng.gen_range(0..u64::MAX), plain_rng.gen_range(0..u64::MAX));
    }
}
