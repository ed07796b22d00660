//! Dense, row-major `f32` matrices.
//!
//! [`Matrix`] is the single storage type used throughout the workspace:
//! node-feature tables, weight matrices, minibatch activations and
//! gradients are all 2-D. The matrix products are **register-tiled**:
//! the output is processed in fixed-width blocks of rows and columns
//! whose accumulators live in registers, so LLVM autovectorizes the
//! inner loop and the output is written once instead of once per `k`.
//!
//! ## The accumulation-order contract
//!
//! Tiling reorders only the *independent* output dimensions (`i`, `j`).
//! For every output element the contraction index `k` runs strictly
//! ascending from a `+0.0` accumulator — exactly the naive triple loop
//! of `hignn-oracle` — so the tiled kernels are **bitwise identical**
//! to the reference implementation (f32 addition is not associative;
//! per-element `k` order is the spec, see DESIGN.md "Performance &
//! determinism contract"). The fused variants
//! ([`Matrix::gather_mean_pool_rows`],
//! [`Matrix::concat2_matmul_rows_range`])
//! preserve the same per-element order as the ops they fuse.
//!
//! The `nt` layout (`a * b^T`) is computed by **packing** a transposed
//! copy of `b` into a 64-byte-aligned scratch panel and running the
//! `nn` kernel over it: a copy is `O(k·n)` against the product's
//! `O(m·k·n)`, and it turns the contraction-major `b` walk into the
//! contiguous row loads the tiled kernel wants. Packing permutes only
//! *where* elements live — per output element the contraction still
//! ascends once from `+0.0` — so packed `nt` stays bitwise
//! oracle-identical while matching the `nn` kernel's throughput.
//!
//! Every product dispatches through [`crate::simd`], which runs the
//! AVX2 panel when the CPU has one — the same per-element chain, so the
//! same bits — and [`mm_nn`] / [`mm_tn`] below otherwise: they are the
//! portable backend and the reference the vector path is tested against
//! (DESIGN.md §9).

use crate::simd;
use crate::workspace::AlignedBuf;
use std::cell::RefCell;
use std::fmt;

/// Output-row block height of the register-tiled matmul micro-kernels.
const MR: usize = 4;
/// Output-column block width of the register-tiled matmul micro-kernels.
const NR: usize = 8;

thread_local! {
    /// Per-thread pack scratch for the `nt` layout's transposed B
    /// panel. Retained across calls so steady-state `matmul_nt` (and
    /// the tape ops built on it) allocates nothing; callers that hold a
    /// [`crate::Workspace`] lease their panel from it instead via
    /// [`Matrix::matmul_nt_into_scratch`].
    static NT_PACK: RefCell<AlignedBuf> = RefCell::new(AlignedBuf::new());
}

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix whose entry `(i, j)` is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a 1 x n row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Matrix { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Creates an n x 1 column matrix from a slice.
    pub fn column_vector(values: &[f32]) -> Self {
        Matrix { rows: values.len(), cols: 1, data: values.to_vec() }
    }

    /// Creates an n x 1 column matrix taking ownership of `values` (no copy).
    pub fn column_from_vec(values: Vec<f32>) -> Self {
        Matrix { rows: values.len(), cols: 1, data: values }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows, "row {} out of bounds ({} rows)", i, self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies `src` into row `i`.
    pub fn set_row(&mut self, i: usize, src: &[f32]) {
        assert_eq!(src.len(), self.cols);
        self.row_mut(i).copy_from_slice(src);
    }

    /// Matrix product `self * rhs` (register-tiled, bitwise identical to
    /// the naive `ijk` triple loop: per output element, `k` ascends from
    /// a `+0.0` accumulator).
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] writing into a caller-provided output matrix
    /// (overwrites every entry; `out` need not be zeroed).
    pub(crate) fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.carried_into(rhs, 0, None, out);
    }

    /// One leg of a contraction evaluated in pieces: `self` (`m x c`)
    /// times rows `w_row0..w_row0 + c` of `w`, every output row's
    /// accumulators starting from `carry` (`1 x w.cols()`; `None` is
    /// `+0.0`) instead of zero.
    ///
    /// Each output element has one accumulator that takes one term per
    /// ascending `t` — a multiply then an add — never depending on the
    /// row count or on where the contraction is split. So stopping
    /// `[u | x] * w` after `u`'s columns and resuming from those
    /// partial sums,
    /// `x.matmul_carried(w, c, Some(&u.matmul_carried(w, 0, None)))`,
    /// is bit for bit `concat_cols(&[&u, &x])` times `w` when every row
    /// of the concatenation starts with the same `u` — which then is
    /// multiplied once, not once per row.
    pub fn matmul_carried(&self, w: &Matrix, w_row0: usize, carry: Option<&Matrix>) -> Matrix {
        let mut out = Matrix::zeros(self.rows, w.cols);
        self.carried_into(w, w_row0, carry, &mut out);
        out
    }

    fn carried_into(&self, w: &Matrix, w_row0: usize, carry: Option<&Matrix>, out: &mut Matrix) {
        assert!(w_row0 + self.cols <= w.rows, "matmul_carried: weight rows out of bounds");
        assert_eq!(out.shape(), (self.rows, w.cols), "matmul_into: bad output shape");
        let carry = carry.map(|c| {
            assert_eq!(c.shape(), (1, w.cols), "matmul_carried: carry must be 1 x {}", w.cols);
            c.data.as_slice()
        });
        let (m, kk, n) = (self.rows, self.cols, w.cols);
        let b = &w.data[w_row0 * n..(w_row0 + kk) * n];
        simd::mm_nn(&self.data, m, kk, b, n, carry, &mut out.data);
    }

    /// Product of a contiguous row range of `self` with `rhs`
    /// (`self[range] * rhs`), bitwise identical to gathering the rows
    /// first.
    pub fn matmul_rows_range(&self, range: std::ops::Range<usize>, rhs: &Matrix) -> Matrix {
        assert!(range.end <= self.rows, "matmul_rows_range: range out of bounds");
        assert_eq!(self.cols, rhs.rows, "matmul_rows_range: inner dimension mismatch");
        let m = range.len();
        let mut out = Matrix::zeros(m, rhs.cols);
        let a = &self.data[range.start * self.cols..range.end * self.cols];
        simd::mm_nn(a, m, self.cols, &rhs.data, rhs.cols, None, &mut out.data);
        out
    }

    /// Matrix product `self * rhs^T` without materialising the transpose.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] writing into a caller-provided output matrix
    /// (overwrites every entry; `out` need not be zeroed) and using the
    /// per-thread pack scratch.
    pub(crate) fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        NT_PACK.with(|cell| {
            self.matmul_nt_into_scratch(rhs, out, &mut cell.borrow_mut());
        });
    }

    /// [`Matrix::matmul_nt_into`] packing the transposed B panel
    /// into a caller-provided aligned scratch buffer (lease it from a
    /// [`crate::Workspace`] on the training hot path; contents are
    /// overwritten).
    pub(crate) fn matmul_nt_into_scratch(&self, rhs: &Matrix, out: &mut Matrix, scratch: &mut AlignedBuf) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.shape(), (self.rows, rhs.rows), "matmul_nt_into: bad output shape");
        let (kk, n) = (self.cols, rhs.rows);
        scratch.resize_for_overwrite(kk * n);
        let bt = scratch.as_mut_slice();
        pack_transposed(&rhs.data, n, kk, bt);
        simd::mm_nn(&self.data, self.rows, kk, bt, n, None, &mut out.data);
    }

    /// Matrix product `self^T * rhs` without materialising the transpose.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] writing into a caller-provided output matrix
    /// (overwrites every entry; `out` need not be zeroed).
    pub(crate) fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.shape(), (self.cols, rhs.cols), "matmul_tn_into: bad output shape");
        simd::mm_tn(&self.data, self.rows, self.cols, &rhs.data, rhs.cols, &mut out.data);
    }

    /// Fused `[a[range] | b] * w` over a contiguous row range of `a`,
    /// without materialising the concatenation; `b` must already have
    /// `range.len()` rows.
    ///
    /// Bitwise identical to
    /// `Matrix::concat_cols(&[&a_range, &b]).matmul(&w)`: for every
    /// output element the contraction runs over `a`'s columns then `b`'s
    /// columns in ascending order — the same per-element order the
    /// concatenated product uses.
    pub fn concat2_matmul_rows_range(
        a: &Matrix,
        range: std::ops::Range<usize>,
        b: &Matrix,
        w: &Matrix,
    ) -> Matrix {
        assert!(range.end <= a.rows, "concat2_matmul: range out of bounds");
        let m = range.len();
        assert_eq!(b.rows, m, "concat2_matmul: row mismatch");
        assert_eq!(a.cols + b.cols, w.rows, "concat2_matmul: inner dimension mismatch");
        let mut out = Matrix::zeros(m, w.cols);
        let a1 = &a.data[range.start * a.cols..range.end * a.cols];
        mm_cat2(a1, a.cols, &b.data, b.cols, m, &w.data, w.cols, &mut out.data);
        out
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Elementwise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// In-place `self += rhs`.
    pub(crate) fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Returns `alpha * self`.
    pub fn scale(&self, alpha: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * alpha).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// In-place scale.
    pub(crate) fn scale_assign(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Adds a `1 x cols` row vector to every row, in place.
    pub fn add_row_broadcast_assign(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "add_row_broadcast: bias must have one row");
        assert_eq!(bias.cols, self.cols, "add_row_broadcast: column mismatch");
        for i in 0..self.rows {
            let start = i * self.cols;
            for (o, &b) in self.data[start..start + self.cols].iter_mut().zip(bias.data.iter()) {
                *o += b;
            }
        }
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Applies `f` to every entry in place (same values as [`Matrix::map`]
    /// without the allocation).
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Concatenates matrices horizontally (same row count).
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols: no parts");
        let rows = parts[0].rows;
        for p in parts {
            assert_eq!(p.rows, rows, "concat_cols: row mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let out_row = out.row_mut(i);
            let mut offset = 0;
            for p in parts {
                out_row[offset..offset + p.cols].copy_from_slice(p.row(i));
                offset += p.cols;
            }
        }
        out
    }

    /// Stacks matrices vertically (same column count).
    pub fn concat_rows(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_rows: no parts");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "concat_rows: column mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Gathers the given rows into a new matrix (`out.row(k) = self.row(idx[k])`).
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (k, &i) in idx.iter().enumerate() {
            out.set_row(k, self.row(i));
        }
        out
    }

    /// Mean of each group of `group` consecutive rows.
    ///
    /// The row count must be a multiple of `group`; the result has
    /// `rows / group` rows.
    pub fn mean_pool_rows(&self, group: usize) -> Matrix {
        assert!(group > 0, "mean_pool_rows: group must be positive");
        assert_eq!(self.rows % group, 0, "mean_pool_rows: {} rows not divisible by {}", self.rows, group);
        let mut out = Matrix::zeros(self.rows / group, self.cols);
        self.mean_pool_rows_into(group, &mut out);
        out
    }

    /// [`Matrix::mean_pool_rows`] writing into a caller-provided output
    /// matrix (overwrites every entry; `out` need not be zeroed).
    pub(crate) fn mean_pool_rows_into(&self, group: usize, out: &mut Matrix) {
        assert!(group > 0 && self.rows.is_multiple_of(group), "mean_pool_rows_into: bad grouping");
        assert_eq!(
            out.shape(),
            (self.rows / group, self.cols),
            "mean_pool_rows_into: bad output shape"
        );
        let inv = 1.0 / group as f32;
        for g in 0..self.rows / group {
            let out_row = &mut out.data[g * self.cols..(g + 1) * self.cols];
            out_row.fill(0.0);
            for r in 0..group {
                let src = &self.data[(g * group + r) * self.cols..(g * group + r + 1) * self.cols];
                for (o, &s) in out_row.iter_mut().zip(src) {
                    *o += s;
                }
            }
            for o in out_row.iter_mut() {
                *o *= inv;
            }
        }
    }

    /// Fused `self.gather_rows(idx).mean_pool_rows(group)` that never
    /// materialises the gathered intermediate.
    ///
    /// Bitwise identical to the two-op composition: output row `g`
    /// accumulates source rows `idx[g*group..(g+1)*group]` in ascending
    /// position order, then multiplies by `1/group` — exactly what
    /// [`Matrix::mean_pool_rows`] does to the gathered copy.
    pub fn gather_mean_pool_rows(&self, idx: &[usize], group: usize) -> Matrix {
        assert!(group > 0, "gather_mean_pool_rows: group must be positive");
        assert_eq!(
            idx.len() % group,
            0,
            "gather_mean_pool_rows: {} indices not divisible by {}",
            idx.len(),
            group
        );
        let mut out = Matrix::zeros(idx.len() / group, self.cols);
        self.gather_mean_pool_rows_into(idx, group, &mut out);
        out
    }

    /// [`Matrix::gather_mean_pool_rows`] writing into a caller-provided
    /// output matrix (overwrites every entry; `out` need not be zeroed).
    pub fn gather_mean_pool_rows_into(&self, idx: &[usize], group: usize, out: &mut Matrix) {
        assert!(
            group > 0 && idx.len().is_multiple_of(group),
            "gather_mean_pool_rows_into: bad grouping"
        );
        assert_eq!(
            out.shape(),
            (idx.len() / group, self.cols),
            "gather_mean_pool_rows_into: bad output shape"
        );
        simd::gather_mean_pool(&self.data, self.cols, idx, group, &mut out.data);
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries (0 for an empty matrix).
    pub(crate) fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Sum of squared entries.
    pub(crate) fn sum_squares(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum()
    }

    /// Squared Euclidean distance between row `i` of `self` and
    /// `other_row`, accumulated over coordinates in index order from
    /// `+0.0` (`Iterator::sum` would start at `-0.0` and give the
    /// zero-column distance the wrong sign).
    pub fn row_sq_dist(&self, i: usize, other_row: &[f32]) -> f32 {
        debug_assert_eq!(other_row.len(), self.cols);
        self.row(i).iter().zip(other_row).fold(0.0, |acc, (a, b)| {
            let d = a - b;
            acc + d * d
        })
    }

    /// L2-normalises every row in place (rows with near-zero norm are left
    /// untouched).
    pub fn l2_normalize_rows(&mut self) {
        for i in 0..self.rows {
            let norm: f32 = self.row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
            if norm > 1e-12 {
                for v in self.row_mut(i) {
                    *v /= norm;
                }
            }
        }
    }

    /// True when all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute difference to another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }
}

/// Output row `g` of `out` is the mean of `src` rows
/// `idx[g*group..(g+1)*group]`, summed in index order (the portable
/// backend of [`simd::gather_mean_pool`]; an out-of-range index panics
/// on the row slice).
pub(crate) fn gather_mean_pool(
    src: &[f32],
    cols: usize,
    idx: &[usize],
    group: usize,
    out: &mut [f32],
) {
    let inv = 1.0 / group as f32;
    for (g, group_idx) in idx.chunks_exact(group).enumerate() {
        let out_row = &mut out[g * cols..(g + 1) * cols];
        out_row.fill(0.0);
        for &i in group_idx {
            let srow = &src[i * cols..(i + 1) * cols];
            for (o, &s) in out_row.iter_mut().zip(srow) {
                *o += s;
            }
        }
        for o in out_row.iter_mut() {
            *o *= inv;
        }
    }
}

// ---- register-tiled matmul micro-kernels ------------------------------
//
// All three layouts share the same structure: the output is covered by
// MR x NR register blocks; inside a block the contraction index `t`
// ascends once while MR*NR accumulators stay in registers. Remainder
// edges fall back to a scalar per-element loop with the identical
// ascending-`t` accumulation, so every output element — tiled or not —
// is bitwise the oracle's naive triple loop.

/// `out = a * b` where `a` is `m x kk` and `b` is `kk x n` (row-major).
/// Every output row's accumulators start from `carry` (`n` partial
/// sums; `None` is `+0.0`) — see [`Matrix::matmul_carried`].
pub(crate) fn mm_nn(
    a: &[f32],
    m: usize,
    kk: usize,
    b: &[f32],
    n: usize,
    carry: Option<&[f32]>,
    out: &mut [f32],
) {
    let mut i = 0;
    while i < m {
        let ib = MR.min(m - i);
        let mut j = 0;
        while j < n {
            let jb = NR.min(n - j);
            if ib == MR && jb == NR {
                let ar: [&[f32]; MR] =
                    std::array::from_fn(|ii| &a[(i + ii) * kk..(i + ii + 1) * kk]);
                let start: [f32; NR] =
                    carry.map_or([0.0; NR], |c| c[j..j + NR].try_into().expect("NR window"));
                let mut acc = [start; MR];
                for t in 0..kk {
                    let bv: &[f32; NR] =
                        b[t * n + j..t * n + j + NR].try_into().expect("NR window");
                    for ii in 0..MR {
                        let av = ar[ii][t];
                        for jj in 0..NR {
                            acc[ii][jj] += av * bv[jj];
                        }
                    }
                }
                for ii in 0..MR {
                    out[(i + ii) * n + j..(i + ii) * n + j + NR].copy_from_slice(&acc[ii]);
                }
            } else {
                for ii in 0..ib {
                    let arow = &a[(i + ii) * kk..(i + ii + 1) * kk];
                    for jj in 0..jb {
                        let mut acc = carry.map_or(0.0, |c| c[j + jj]);
                        for (t, &av) in arow.iter().enumerate() {
                            acc += av * b[t * n + j + jj];
                        }
                        out[(i + ii) * n + j + jj] = acc;
                    }
                }
            }
            j += jb;
        }
        i += ib;
    }
}

/// Packs row-major `b` (`n x kk`) as its transpose (`kk x n`) into
/// `bt`, in cache-blocked tiles. Packing only permutes element
/// *positions* — the `nn` kernel run over the packed panel still
/// accumulates each output element over ascending `t` from `+0.0`, so
/// packed `nt` is bitwise the oracle's naive loop.
fn pack_transposed(b: &[f32], n: usize, kk: usize, bt: &mut [f32]) {
    const TB: usize = 32;
    debug_assert!(b.len() >= n * kk && bt.len() >= kk * n);
    let mut j0 = 0;
    while j0 < n {
        let jb = TB.min(n - j0);
        let mut t0 = 0;
        while t0 < kk {
            let tb = TB.min(kk - t0);
            for j in j0..j0 + jb {
                let brow = &b[j * kk + t0..j * kk + t0 + tb];
                for (t, &v) in brow.iter().enumerate() {
                    bt[(t0 + t) * n + j] = v;
                }
            }
            t0 += tb;
        }
        j0 += jb;
    }
}

/// `out = a^T * b` where `a` is `kk x m` and `b` is `kk x n` (row-major).
pub(crate) fn mm_tn(a: &[f32], kk: usize, m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let mut i = 0;
    while i < m {
        let ib = MR.min(m - i);
        let mut j = 0;
        while j < n {
            let jb = NR.min(n - j);
            if ib == MR && jb == NR {
                let mut acc = [[0.0f32; NR]; MR];
                for t in 0..kk {
                    let arow = &a[t * m + i..t * m + i + MR];
                    let bv: &[f32; NR] =
                        b[t * n + j..t * n + j + NR].try_into().expect("NR window");
                    for ii in 0..MR {
                        let av = arow[ii];
                        for jj in 0..NR {
                            acc[ii][jj] += av * bv[jj];
                        }
                    }
                }
                for ii in 0..MR {
                    out[(i + ii) * n + j..(i + ii) * n + j + NR].copy_from_slice(&acc[ii]);
                }
            } else {
                for ii in 0..ib {
                    for jj in 0..jb {
                        let mut acc = 0.0f32;
                        for t in 0..kk {
                            acc += a[t * m + i + ii] * b[t * n + j + jj];
                        }
                        out[(i + ii) * n + j + jj] = acc;
                    }
                }
            }
            j += jb;
        }
        i += ib;
    }
}

/// `out = [a1 | a2] * w` where `a1` is `m x c1`, `a2` is `m x c2` and `w`
/// is `(c1 + c2) x n` — the concatenation is never materialised. Each
/// output element accumulates `a1`'s columns then `a2`'s columns in
/// ascending order, matching the concatenated product bit for bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mm_cat2(
    a1: &[f32],
    c1: usize,
    a2: &[f32],
    c2: usize,
    m: usize,
    w: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let mut i = 0;
    while i < m {
        let ib = MR.min(m - i);
        let mut j = 0;
        while j < n {
            let jb = NR.min(n - j);
            if ib == MR && jb == NR {
                let mut acc = [[0.0f32; NR]; MR];
                let a1r: [&[f32]; MR] =
                    std::array::from_fn(|ii| &a1[(i + ii) * c1..(i + ii + 1) * c1]);
                for t in 0..c1 {
                    let bv: &[f32; NR] =
                        w[t * n + j..t * n + j + NR].try_into().expect("NR window");
                    for ii in 0..MR {
                        let av = a1r[ii][t];
                        for jj in 0..NR {
                            acc[ii][jj] += av * bv[jj];
                        }
                    }
                }
                let a2r: [&[f32]; MR] =
                    std::array::from_fn(|ii| &a2[(i + ii) * c2..(i + ii + 1) * c2]);
                // `t` also computes the W row offset, so a plain range
                // loop stays clearer than zipping four slices.
                #[allow(clippy::needless_range_loop)]
                for t in 0..c2 {
                    let wrow = (c1 + t) * n + j;
                    let bv: &[f32; NR] = w[wrow..wrow + NR].try_into().expect("NR window");
                    for ii in 0..MR {
                        let av = a2r[ii][t];
                        for jj in 0..NR {
                            acc[ii][jj] += av * bv[jj];
                        }
                    }
                }
                for ii in 0..MR {
                    out[(i + ii) * n + j..(i + ii) * n + j + NR].copy_from_slice(&acc[ii]);
                }
            } else {
                for ii in 0..ib {
                    for jj in 0..jb {
                        let mut acc = 0.0f32;
                        for t in 0..c1 {
                            acc += a1[(i + ii) * c1 + t] * w[t * n + j + jj];
                        }
                        for t in 0..c2 {
                            acc += a2[(i + ii) * c2 + t] * w[(c1 + t) * n + j + jj];
                        }
                        out[(i + ii) * n + j + jj] = acc;
                    }
                }
            }
            j += jb;
        }
        i += ib;
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for i in 0..show {
            write!(f, "  [")?;
            let cols = self.cols.min(8);
            for j in 0..cols {
                write!(f, "{:9.4}", self.get(i, j))?;
                if j + 1 < cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn construction_and_access() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.shape(), (2, 3));
        assert_eq!(a.get(0, 2), 3.0);
        assert_eq!(a.get(1, 0), 4.0);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_fn_matches_layout() {
        let a = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f32);
        assert_eq!(a.get(2, 1), 21.0);
        assert_eq!(a.data(), &[0.0, 1.0, 10.0, 11.0, 20.0, 21.0]);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_checks_length() {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = m(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = m(2, 3, &[1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = m(4, 3, &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0]);
        let expected = a.matmul(&b.transpose());
        assert!(a.matmul_nt(&b).max_abs_diff(&expected) < 1e-6);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = m(3, 2, &[1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = m(3, 4, &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0]);
        let expected = a.transpose().matmul(&b);
        assert!(a.matmul_tn(&b).max_abs_diff(&expected) < 1e-6);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.add(&b).data(), &[6.0, 8.0, 10.0, 12.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn broadcast_bias() {
        let mut out = m(2, 3, &[0.0; 6]);
        let bias = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        out.add_row_broadcast_assign(&bias);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn concat_cols_layout() {
        let a = m(2, 1, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let c = Matrix::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_rows_layout() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let c = Matrix::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn gather_rows_copies() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0]);
        assert_eq!(g.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn mean_pool_groups() {
        let a = m(4, 2, &[1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0]);
        let p = a.mean_pool_rows(2);
        assert_eq!(p.shape(), (2, 2));
        assert_eq!(p.row(0), &[2.0, 3.0]);
        assert_eq!(p.row(1), &[20.0, 30.0]);
    }

    #[test]
    fn reductions() {
        let a = m(2, 2, &[1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.sum_squares(), 30.0);
    }

    #[test]
    fn normalize_rows() {
        let mut a = m(2, 2, &[3.0, 4.0, 0.0, 0.0]);
        a.l2_normalize_rows();
        assert!((a.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((a.get(0, 1) - 0.8).abs() < 1e-6);
        assert_eq!(a.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn sq_dist() {
        let a = m(1, 2, &[0.0, 0.0]);
        assert_eq!(a.row_sq_dist(0, &[3.0, 4.0]), 25.0);
    }

    /// Naive `ijk` reference: one `+0.0` accumulator per output element,
    /// contraction index ascending — the bitwise spec for every kernel.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for t in 0..a.cols() {
                    acc += a.get(i, t) * b.get(t, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn pseudo(rows: usize, cols: usize, seed: u32) -> Matrix {
        // Deterministic, sign-mixed, irregular values (LCG).
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        Matrix::from_fn(rows, cols, |_, _| {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            ((s >> 8) as f32 / (1 << 23) as f32) - 1.0
        })
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
        }
    }

    #[test]
    fn tiled_matmul_bitwise_matches_naive_across_tile_edges() {
        // Cover interior tiles, row/col remainders and tiny shapes.
        for &(m_, k_, n_) in
            &[(1, 1, 1), (3, 5, 7), (4, 8, 8), (5, 9, 11), (8, 16, 8), (13, 6, 17), (16, 32, 9)]
        {
            let a = pseudo(m_, k_, (m_ * 100 + k_) as u32);
            let b = pseudo(k_, n_, (k_ * 100 + n_) as u32);
            assert_bits_eq(&a.matmul(&b), &naive_matmul(&a, &b), "nn");
            let bt = pseudo(n_, k_, (n_ * 37 + k_) as u32);
            assert_bits_eq(&a.matmul_nt(&bt), &naive_matmul(&a, &bt.transpose()), "nt");
            let at = pseudo(k_, m_, (k_ * 53 + m_) as u32);
            let b2 = pseudo(k_, n_, (k_ * 71 + n_) as u32);
            assert_bits_eq(&at.matmul_tn(&b2), &naive_matmul(&at.transpose(), &b2), "tn");
        }
    }

    #[test]
    fn packed_nt_is_bitwise_across_pack_tile_edges() {
        // Shapes crossing the 32-wide pack tile in both k and n, plus
        // exact-tile and one-off boundaries.
        for &(m_, k_, n_) in &[(40, 65, 50), (4, 32, 32), (7, 33, 31), (2, 100, 3), (33, 1, 64)] {
            let a = pseudo(m_, k_, (m_ * 19 + k_) as u32);
            let b = pseudo(n_, k_, (n_ * 23 + k_) as u32);
            assert_bits_eq(&a.matmul_nt(&b), &naive_matmul(&a, &b.transpose()), "nt packed");
        }
    }

    #[test]
    fn carried_matmul_is_bitwise_the_concatenated_product() {
        // Stop `[u | x] * w` after `split` columns and resume from the
        // partial sums. The n values cross the 8-wide portable tile, the
        // 16-wide AVX2 panel, its one-vector edge panel and its scalar
        // column tail; the m values cross the 4-row block and include
        // the empty batch. CI's HIGNN_FORCE_PORTABLE_SIMD=1 leg re-runs
        // this on the portable backend.
        let (kk, c) = (13, 5);
        for split in [0, 1, c, kk - 1, kk] {
            for m_ in [0, 1, 3, 4, 5, 9] {
                for n_ in [1, 7, 8, 9, 16, 17, 64] {
                    let seed = (split * 1000 + m_ * 100 + n_) as u32;
                    let u = pseudo(1, split, seed);
                    let x = pseudo(m_, kk - split, seed + 1);
                    let w = pseudo(kk, n_, seed + 2);
                    let u_rows = Matrix::from_fn(m_, split, |_, j| u.get(0, j));
                    let want = Matrix::concat_cols(&[&u_rows, &x]).matmul(&w);
                    let prefix = u.matmul_carried(&w, 0, None);
                    let got = x.matmul_carried(&w, split, Some(&prefix));
                    assert_bits_eq(&got, &want, &format!("split {split} m {m_} n {n_}"));
                }
            }
        }
    }

    #[test]
    fn matmul_rows_range_matches_gather() {
        let a = pseudo(20, 6, 1);
        let b = pseudo(6, 10, 2);
        let idx: Vec<usize> = (5..17).collect();
        assert_bits_eq(
            &a.matmul_rows_range(5..17, &b),
            &a.gather_rows(&idx).matmul(&b),
            "rows_range",
        );
    }

    #[test]
    fn concat2_matmul_matches_concat_then_matmul() {
        for &(m_, c1, c2, n_) in &[(1, 1, 1, 1), (4, 8, 8, 8), (7, 5, 3, 11), (12, 32, 32, 9)] {
            let a = pseudo(m_, c1, 11);
            let b = pseudo(m_, c2, 22);
            let w = pseudo(c1 + c2, n_, 33);
            assert_bits_eq(
                &Matrix::concat2_matmul_rows_range(&a, 0..m_, &b, &w),
                &Matrix::concat_cols(&[&a, &b]).matmul(&w),
                "cat2",
            );
        }
    }

    #[test]
    fn gather_mean_pool_matches_composition() {
        let src = pseudo(9, 5, 44);
        let idx = vec![0usize, 8, 3, 3, 1, 7, 2, 6, 5, 0, 4, 8];
        for group in [1usize, 2, 3, 4, 6, 12] {
            assert_bits_eq(
                &src.gather_mean_pool_rows(&idx, group),
                &src.gather_rows(&idx).mean_pool_rows(group),
                "gather_mean_pool",
            );
        }
    }

    #[test]
    fn owned_constructors_match_slice_constructors() {
        let v = vec![1.0f32, -2.0, 3.5];
        assert_eq!(Matrix::column_from_vec(v.clone()), Matrix::column_vector(&v));
    }

    #[test]
    fn in_place_variants_match_allocating_ones() {
        let a = pseudo(5, 4, 55);
        let mut c = a.clone();
        c.map_assign(|v| if v > 0.0 { v } else { 0.01 * v });
        assert_bits_eq(&c, &a.map(|v| if v > 0.0 { v } else { 0.01 * v }), "map");
    }
}
