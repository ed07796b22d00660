//! Explicit SIMD kernels under the one numeric contract.
//!
//! ## Why `core::arch` intrinsics and not `std::simd`
//!
//! The workspace builds on **stable** Rust; `std::simd` is still
//! nightly-only. `core::arch::x86_64` intrinsics are stable, and the
//! AVX2 subset used here covers every x86-64 server this system
//! targets. Dispatch is decided **once per process** at runtime
//! ([`backend`]): if the vector unit is present the vector kernels
//! run, otherwise the matmuls fall back to the register-tiled kernels
//! of [`crate::matrix`] and the rest to scalar loops — with the same
//! bits. Setting `HIGNN_FORCE_PORTABLE_SIMD=1` pins the portable
//! fallback, which is how CI proves the fallback path on machines that
//! *do* have AVX2.
//!
//! ## One contract (DESIGN.md §9)
//!
//! Every kernel is bit-identical to the naive oracle: per output
//! element the contraction index ascends from the accumulator's start
//! value, each term a multiply and then an add, rounded separately —
//! no FMA anywhere. Vector width does not enter into it: a kernel that
//! gives every output element its own lane runs that chain verbatim,
//! eight at a time. So the matmuls ([`mm_nn`], [`mm_tn`]),
//! [`gather_mean_pool`], [`leaky_relu`], [`leaky_relu_bwd`] and
//! [`PackedRows::sq_dists`] all use the AVX2 unit, and the two backends
//! agree to the bit.

use crate::matrix::{self, Matrix};
use crate::workspace::AlignedBuf;
use std::sync::OnceLock;

/// Environment variable that pins the portable fallback even when the
/// CPU supports the vector kernels (any value but `0`). Read once, at
/// first kernel dispatch.
pub(crate) const FORCE_PORTABLE_ENV: &str = "HIGNN_FORCE_PORTABLE_SIMD";

/// Which implementation backs the kernels of this module in this process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdBackend {
    /// `core::arch` AVX2 intrinsics, on a CPU that reports AVX2 (no
    /// kernel uses FMA).
    Avx2,
    /// Portable fallback, no vector intrinsics: [`crate::matrix`]'s
    /// register-tiled matmuls and scalar loops, with the same bits as
    /// [`SimdBackend::Avx2`].
    Portable,
}

impl SimdBackend {
    /// Stable name for benchmark output and CI assertions.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Portable => "portable",
        }
    }
}

/// The SIMD backend for this process: decided once from CPU feature
/// detection and [`FORCE_PORTABLE_ENV`], then cached.
pub fn backend() -> SimdBackend {
    static BACKEND: OnceLock<SimdBackend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        if std::env::var_os(FORCE_PORTABLE_ENV).is_some_and(|v| v != "0") {
            return SimdBackend::Portable;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                return SimdBackend::Avx2;
            }
        }
        SimdBackend::Portable
    })
}

// ---- matmul kernels ------------------------------------------------------
//
// The products share one microkernel shape: 4 output rows x 16 output
// columns (two 8-lane vectors per row) accumulate in registers while
// the contraction index `t` ascends once; the A element is broadcast
// and the B row is loaded contiguously, so every output element owns
// one lane and its chain `acc <- acc + a*b` is the oracle's, the
// multiply and the add rounded separately. Packed-`nt` shares this
// kernel after an explicit transpose. Sub-vector column tails run a
// scalar multiply-then-add loop in the same order.

/// `out = a * b`; `a` is `m x kk`, `b` is `kk x n`. Every output row's
/// accumulators start from `carry` (`n` partial sums; `None` is
/// `+0.0`). [`matrix::mm_nn`] is the portable backend, and bit for bit
/// what this computes on either.
///
/// # Panics
/// Panics when a slice is shorter than its shape.
pub(crate) fn mm_nn(
    a: &[f32],
    m: usize,
    kk: usize,
    b: &[f32],
    n: usize,
    carry: Option<&[f32]>,
    out: &mut [f32],
) {
    assert!(a.len() >= m * kk && b.len() >= kk * n && out.len() >= m * n, "mm_nn: short slice");
    assert!(carry.is_none_or(|c| c.len() >= n), "mm_nn: carry shorter than a row");
    #[cfg(target_arch = "x86_64")]
    if backend() == SimdBackend::Avx2 {
        // SAFETY: backend() proved avx2; the asserts above are the
        // bounds the kernel's unchecked reads and stores rely on.
        unsafe { avx2::mm_nn(a, m, kk, b, n, carry, out) };
        return;
    }
    matrix::mm_nn(a, m, kk, b, n, carry, out);
}

/// `out = a^T * b`; `a` is `kk x m`, `b` is `kk x n`. [`matrix::mm_tn`]
/// is the portable backend.
///
/// # Panics
/// Panics when a slice is shorter than its shape.
pub(crate) fn mm_tn(a: &[f32], kk: usize, m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert!(a.len() >= kk * m && b.len() >= kk * n && out.len() >= m * n, "mm_tn: short slice");
    #[cfg(target_arch = "x86_64")]
    if backend() == SimdBackend::Avx2 {
        // SAFETY: backend() proved avx2; the assert above is the bound
        // the kernel's unchecked reads and stores rely on.
        unsafe { avx2::mm_tn(a, kk, m, b, n, out) };
        return;
    }
    matrix::mm_tn(a, kk, m, b, n, out);
}

// ---- kernels whose lanes never interact ----------------------------------

/// Fused gather -> mean-pool over rows: output row `g` averages `src`
/// rows `idx[g*group..(g+1)*group]`, summed in index order from `+0.0`
/// and then scaled by `1/group`. Columns are independent lanes, so both
/// backends give the bits of `gather_rows` + `mean_pool_rows`.
///
/// # Panics
/// Panics on a zero `group`, an `idx` not a multiple of it, a short
/// `out`, or an index past the last full `cols`-wide row of `src`.
pub(crate) fn gather_mean_pool(src: &[f32], cols: usize, idx: &[usize], group: usize, out: &mut [f32]) {
    assert!(group > 0 && idx.len().is_multiple_of(group), "gather_mean_pool: bad grouping");
    assert!(out.len() >= (idx.len() / group) * cols, "gather_mean_pool: short output");
    if let Some(&bad) = idx.iter().find(|&&i| (i + 1) * cols > src.len()) {
        panic!("gather_mean_pool: index {bad} out of bounds ({} rows)", src.len() / cols.max(1));
    }
    #[cfg(target_arch = "x86_64")]
    if backend() == SimdBackend::Avx2 {
        // SAFETY: backend() proved avx2; the asserts above bound every
        // row the kernel reads through a raw pointer and `out`.
        unsafe { avx2::gather_mean_pool(src, cols, idx, group, out) };
        return;
    }
    matrix::gather_mean_pool(src, cols, idx, group, out);
}

/// In-place leaky ReLU: `x = if x > 0 { x } else { alpha * x }` (a NaN
/// is scaled, like any value that is not positive).
pub fn leaky_relu(x: &mut [f32], alpha: f32) {
    #[cfg(target_arch = "x86_64")]
    if backend() == SimdBackend::Avx2 {
        // SAFETY: backend() proved avx2.
        unsafe { avx2::leaky_relu(x, alpha) };
        return;
    }
    for v in x {
        *v = if *v > 0.0 { *v } else { alpha * *v };
    }
}

/// In-place leaky-ReLU backward: `g *= alpha` wherever `x <= 0` (a NaN
/// `x` leaves `g` alone).
///
/// # Panics
/// Panics unless `g` and `x` have the same length.
pub fn leaky_relu_bwd(g: &mut [f32], x: &[f32], alpha: f32) {
    assert_eq!(g.len(), x.len(), "leaky_relu_bwd: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if backend() == SimdBackend::Avx2 {
        // SAFETY: backend() proved avx2; equal lengths asserted.
        unsafe { avx2::leaky_relu_bwd(g, x, alpha) };
        return;
    }
    for (gv, &xv) in g.iter_mut().zip(x) {
        if xv <= 0.0 {
            *gv *= alpha;
        }
    }
}

// ---- lane-per-row squared distances -------------------------------------

/// Rows per [`PackedRows`] block: one 8-lane vector register.
const LANES: usize = 8;

/// A row set packed lane-major for the "distance from one point to
/// every row" scan that dominates K-means (`O(n·k·d)` in both the
/// assignment step and k-means++ seeding).
///
/// Layout `[block][dim][lane]`: block `b` holds rows `8b..8b+8`, and
/// inside it the eight values of dimension `t` are contiguous, so one
/// vector load fetches coordinate `t` of eight rows. The last block is
/// zero-padded; its padded lanes are computed and thrown away.
///
/// Each row owns one lane, and the lane's accumulator adds
/// `(row[t] - point[t])²` for `t` ascending from `+0.0` with a
/// separate multiply and add — exactly the chain of
/// [`Matrix::row_sq_dist`] and the oracle's `sq_dist`. Lanes never
/// interact, so vector width buys throughput without touching any
/// row's summation order, and both backends give the same bits.
#[derive(Clone, Debug)]
pub struct PackedRows {
    /// `rows.div_ceil(LANES) * cols * LANES` values, 64-byte aligned so
    /// no vector load straddles a cache line.
    data: AlignedBuf,
    rows: usize,
    cols: usize,
}

impl PackedRows {
    /// Packs the rows of `m`. Pack once per pass over many points: the
    /// copy costs as much as one point's scan.
    pub fn pack(m: &Matrix) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        let mut data = AlignedBuf::new();
        // A fresh buffer grows zeroed, which is the lane padding.
        data.resize_for_overwrite(rows.div_ceil(LANES) * cols * LANES);
        let packed = data.as_mut_slice();
        for i in 0..rows {
            let base = (i / LANES) * cols * LANES + i % LANES;
            for (t, &v) in m.row(i).iter().enumerate() {
                packed[base + t * LANES] = v;
            }
        }
        PackedRows { data, rows, cols }
    }

    /// Overwrites packed row `i` with `row`, as if `pack` had seen it:
    /// a holder whose rows change one at a time keeps its mirror
    /// current in `O(cols)` instead of re-packing.
    ///
    /// # Panics
    /// Panics if `i` is out of range or `row` has the wrong length.
    pub fn set_row(&mut self, i: usize, row: &[f32]) {
        assert!(i < self.rows, "set_row: row {i} out of range ({})", self.rows);
        assert_eq!(row.len(), self.cols, "set_row: dimension mismatch");
        let base = (i / LANES) * self.cols * LANES + i % LANES;
        let packed = self.data.as_mut_slice();
        for (t, &v) in row.iter().enumerate() {
            packed[base + t * LANES] = v;
        }
    }

    /// Writes the squared Euclidean distance from `point` to row `i`
    /// into `out[i]`, bit-identical to `m.row_sq_dist(i, point)` on the
    /// packed matrix `m` (a NaN is a NaN in both; IEEE 754 does not
    /// fix its sign or payload, so neither does this).
    ///
    /// # Panics
    /// Panics unless `point.len()` is the packed column count and
    /// `out.len()` the packed row count.
    pub fn sq_dists(&self, point: &[f32], out: &mut [f32]) {
        assert_eq!(point.len(), self.cols, "sq_dists: point dimension mismatch");
        assert_eq!(out.len(), self.rows, "sq_dists: one output per packed row");
        let packed = self.data.as_slice();
        #[cfg(target_arch = "x86_64")]
        if backend() == SimdBackend::Avx2 {
            // SAFETY: backend() proved avx2; `pack` sized `packed` to
            // `rows.div_ceil(8) * cols * 8` and the asserts above tie
            // `out` and `point` to those same `rows` and `cols`.
            unsafe { avx2::sq_dists(packed, point, out) };
            return;
        }
        let stride = self.cols * LANES;
        for (b, out_block) in out.chunks_mut(LANES).enumerate() {
            let mut acc = [0f32; LANES];
            let dims = packed[b * stride..(b + 1) * stride].chunks_exact(LANES);
            for (lanes, &p) in dims.zip(point) {
                for (a, &v) in acc.iter_mut().zip(lanes) {
                    let diff = v - p;
                    *a += diff * diff;
                }
            }
            out_block.copy_from_slice(&acc[..out_block.len()]);
        }
    }
}

// ---- AVX2 backend --------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    /// Lanes per vector register.
    const L: usize = 8;
    /// Output-row block of the broadcast microkernel.
    const MRF: usize = 4;
    /// Output-column block (two vectors wide).
    const NRF: usize = 2 * L;

    /// The shared 4x16 broadcast microkernel over `t in 0..kk`:
    /// `a_at(ii, t)` supplies the broadcast element for output row
    /// `i + ii`, and `brow(t)` the index of B's contiguous row. Every
    /// row's accumulators start from `carry[j..j + jb]` (`None` is
    /// `+0.0`). A lane's `acc + a*b` rounds twice like the oracle's
    /// scalar chain, so the output has its bits.
    ///
    /// # Safety
    /// Caller proves avx2 and that every index reached is in bounds:
    /// `a_at` for `ii < ib`, `b[brow(t) + j..+jb]`,
    /// `out[(i+ii)*n + j..+jb]`, `carry[j..+jb]`; and `ib >= 1`.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn panel<F: Fn(usize, usize) -> f32>(
        kk: usize,
        b: &[f32],
        n: usize,
        carry: Option<&[f32]>,
        out: &mut [f32],
        i: usize,
        ib: usize,
        j: usize,
        jb: usize,
        a_at: F,
        brow: impl Fn(usize) -> usize,
    ) {
        // What the accumulator vector of columns `j + jj..+L` starts from.
        let start =
            |jj: usize| carry.map_or(_mm256_setzero_ps(), |c| _mm256_loadu_ps(c.as_ptr().add(j + jj)));
        // One term of eight chains.
        let madd = |a: __m256, b: __m256, acc: __m256| _mm256_add_ps(acc, _mm256_mul_ps(a, b));
        if ib == MRF && jb == NRF {
            let mut acc = [[start(0), start(L)]; MRF];
            for t in 0..kk {
                let base = brow(t) + j;
                let b0 = _mm256_loadu_ps(b.as_ptr().add(base));
                let b1 = _mm256_loadu_ps(b.as_ptr().add(base + L));
                for (ii, row) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(a_at(ii, t));
                    row[0] = madd(av, b0, row[0]);
                    row[1] = madd(av, b1, row[1]);
                }
            }
            for (ii, row) in acc.iter().enumerate() {
                let o = (i + ii) * n + j;
                _mm256_storeu_ps(out.as_mut_ptr().add(o), row[0]);
                _mm256_storeu_ps(out.as_mut_ptr().add(o + L), row[1]);
            }
        } else {
            // Edge panel (short rows and/or columns). A vector of
            // columns still keeps MRF rows in flight: rows past `ib`
            // recompute the last real row and are not stored, so the
            // trip count is constant and the accumulators stay in
            // registers. Scalar for the sub-vector tail.
            let mut jj = 0;
            while jj + L <= jb {
                let mut acc = [start(jj); MRF];
                for t in 0..kk {
                    let bv = _mm256_loadu_ps(b.as_ptr().add(brow(t) + j + jj));
                    for (ii, row) in acc.iter_mut().enumerate() {
                        *row = madd(_mm256_set1_ps(a_at(ii.min(ib - 1), t)), bv, *row);
                    }
                }
                for (ii, row) in acc.iter().take(ib).enumerate() {
                    _mm256_storeu_ps(out.as_mut_ptr().add((i + ii) * n + j + jj), *row);
                }
                jj += L;
            }
            for ii in 0..ib {
                for jj in jj..jb {
                    let mut s = carry.map_or(0.0, |c| c[j + jj]);
                    for t in 0..kk {
                        s += a_at(ii, t) * b[brow(t) + j + jj];
                    }
                    out[(i + ii) * n + j + jj] = s;
                }
            }
        }
    }

    /// Covers the `m x n` output with microkernel panels.
    ///
    /// # Safety
    /// Same contract as [`panel`], over the full output.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn cover<F: Fn(usize, usize, usize) -> f32>(
        m: usize,
        kk: usize,
        b: &[f32],
        n: usize,
        carry: Option<&[f32]>,
        out: &mut [f32],
        a_at: F,
        brow: impl Fn(usize) -> usize + Copy,
    ) {
        let mut i = 0;
        while i < m {
            let ib = MRF.min(m - i);
            let mut j = 0;
            while j < n {
                let jb = NRF.min(n - j);
                panel(kk, b, n, carry, out, i, ib, j, jb, |ii, t| a_at(i, ii, t), brow);
                j += jb;
            }
            i += ib;
        }
    }

    /// # Safety
    /// avx2 present; `a` is `m x kk`, `b` is `kk x n`, `out` holds
    /// `m * n` entries and `carry`, if any, `n`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn mm_nn(
        a: &[f32],
        m: usize,
        kk: usize,
        b: &[f32],
        n: usize,
        carry: Option<&[f32]>,
        out: &mut [f32],
    ) {
        let a_at = |i: usize, ii: usize, t: usize| *a.get_unchecked((i + ii) * kk + t);
        cover(m, kk, b, n, carry, out, a_at, |t| t * n);
    }

    /// # Safety
    /// avx2 present; `a` is `kk x m`, `b` is `kk x n`, `out` holds
    /// `m * n` entries.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn mm_tn(a: &[f32], kk: usize, m: usize, b: &[f32], n: usize, out: &mut [f32]) {
        let a_at = |i: usize, ii: usize, t: usize| *a.get_unchecked(t * m + i + ii);
        cover(m, kk, b, n, None, out, a_at, |t| t * n);
    }

    /// # Safety
    /// avx2 present; every `idx` entry addresses a full `cols` row of
    /// `src`; `out` holds `(idx.len() / group) * cols` entries.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn gather_mean_pool(
        src: &[f32],
        cols: usize,
        idx: &[usize],
        group: usize,
        out: &mut [f32],
    ) {
        let inv = _mm256_set1_ps(1.0 / group as f32);
        let main = cols - cols % L;
        for (g, group_idx) in idx.chunks_exact(group).enumerate() {
            let out_base = g * cols;
            let mut j = 0;
            while j < main {
                let mut acc = _mm256_setzero_ps();
                for &i in group_idx {
                    acc = _mm256_add_ps(acc, _mm256_loadu_ps(src.as_ptr().add(i * cols + j)));
                }
                _mm256_storeu_ps(out.as_mut_ptr().add(out_base + j), _mm256_mul_ps(acc, inv));
                j += L;
            }
            let inv_s = 1.0 / group as f32;
            for jj in main..cols {
                let mut s = 0.0f32;
                for &i in group_idx {
                    s += src[i * cols + jj];
                }
                out[out_base + jj] = s * inv_s;
            }
        }
    }

    /// # Safety
    /// avx2 present.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn leaky_relu(x: &mut [f32], alpha: f32) {
        let av = _mm256_set1_ps(alpha);
        let zero = _mm256_setzero_ps();
        let main = x.len() - x.len() % L;
        let mut j = 0;
        while j < main {
            let v = _mm256_loadu_ps(x.as_ptr().add(j));
            let neg = _mm256_mul_ps(av, v);
            // v > 0 ? v : alpha * v  (NaN compares false -> scaled, same
            // as the scalar `if v > 0` branch).
            let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(v, zero);
            _mm256_storeu_ps(x.as_mut_ptr().add(j), _mm256_blendv_ps(neg, v, mask));
            j += L;
        }
        for v in &mut x[main..] {
            *v = if *v > 0.0 { *v } else { alpha * *v };
        }
    }

    /// # Safety
    /// avx2 present; `g.len() == x.len()`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn leaky_relu_bwd(g: &mut [f32], x: &[f32], alpha: f32) {
        let av = _mm256_set1_ps(alpha);
        let zero = _mm256_setzero_ps();
        let main = g.len() - g.len() % L;
        let mut j = 0;
        while j < main {
            let gv = _mm256_loadu_ps(g.as_ptr().add(j));
            let xv = _mm256_loadu_ps(x.as_ptr().add(j));
            let scaled = _mm256_mul_ps(gv, av);
            // x <= 0 ? g * alpha : g  (a NaN x compares false and keeps
            // g, same as the scalar `if x <= 0` branch).
            let mask = _mm256_cmp_ps::<_CMP_LE_OQ>(xv, zero);
            _mm256_storeu_ps(g.as_mut_ptr().add(j), _mm256_blendv_ps(gv, scaled, mask));
            j += L;
        }
        for (gv, &xv) in g[main..].iter_mut().zip(&x[main..]) {
            if xv <= 0.0 {
                *gv *= alpha;
            }
        }
    }

    /// Distance accumulators for `NB` consecutive blocks starting at
    /// `base`: lane `l` of accumulator `j` sums `(row[t] - point[t])²`
    /// over `t` ascending for row `l` of block `j`. Multiply and add
    /// stay separate instructions — an FMA would round once where the
    /// oracle rounds twice.
    ///
    /// # Safety
    /// avx2 present; `base` addresses `NB * point.len() * L` readable
    /// values.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn block_sq_dists<const NB: usize>(base: *const f32, point: &[f32]) -> [__m256; NB] {
        let stride = point.len() * L;
        let mut acc = [_mm256_setzero_ps(); NB];
        for (t, &p) in point.iter().enumerate() {
            let pv = _mm256_set1_ps(p);
            for (j, a) in acc.iter_mut().enumerate() {
                let diff = _mm256_sub_ps(_mm256_loadu_ps(base.add(j * stride + t * L)), pv);
                *a = _mm256_add_ps(*a, _mm256_mul_ps(diff, diff));
            }
        }
        acc
    }

    /// The [`super::PackedRows::sq_dists`] scan: four blocks (32 rows)
    /// advance per step so the four add chains hide each other's
    /// latency, then the remaining blocks run one at a time.
    ///
    /// # Safety
    /// avx2 present; `packed.len() == out.len().div_ceil(L) *
    /// point.len() * L`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn sq_dists(packed: &[f32], point: &[f32], out: &mut [f32]) {
        const NB: usize = 4;
        let stride = point.len() * L;
        let full_blocks = out.len() / L;
        let mut b = 0;
        while b + NB <= full_blocks {
            let acc = block_sq_dists::<NB>(packed.as_ptr().add(b * stride), point);
            for (j, a) in acc.iter().enumerate() {
                _mm256_storeu_ps(out.as_mut_ptr().add((b + j) * L), *a);
            }
            b += NB;
        }
        for out_block in out[b * L..].chunks_mut(L) {
            let [acc] = block_sq_dists::<1>(packed.as_ptr().add(b * stride), point);
            // The last block may be partial: its padded lanes stop here.
            let mut lanes = [0f32; L];
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
            out_block.copy_from_slice(&lanes[..out_block.len()]);
            b += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(len: usize, seed: u32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                ((s >> 8) as f32 / (1 << 23) as f32) - 1.0
            })
            .collect()
    }

    #[test]
    fn backend_is_cached_and_named() {
        let b = backend();
        assert_eq!(b, backend(), "backend must be stable across calls");
        assert!(matches!(b.name(), "avx2" | "portable"));
        // CI's portable step exports the variable and runs this test: a
        // fallback that silently failed to engage must fail there.
        if std::env::var_os(FORCE_PORTABLE_ENV).is_some_and(|v| v != "0") {
            assert_eq!(b, SimdBackend::Portable, "forced portable fallback was not taken");
        }
    }

    /// Bit equality, except that a NaN only has to be a NaN: IEEE 754
    /// fixes neither its sign nor its payload, and which operand's NaN
    /// survives an add is the compiler's choice of operand order.
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}[{k}]: {g} ({:#x}) vs {w} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// The values whose handling is easiest to get wrong, written over
    /// the start of `values`.
    fn with_specials(mut values: Vec<f32>) -> Vec<f32> {
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
        for (v, s) in values.iter_mut().step_by(3).zip(specials) {
            *v = s;
        }
        values
    }

    #[test]
    fn bitwise_matmuls_match_the_portable_kernels_bit_for_bit_at_every_edge() {
        // Row counts around the 4-row block (and none), column counts
        // around the 16-column panel, its 8-lane edge vector and the
        // scalar tail, contractions from empty up; with and without a
        // carry; plain values and NaN / inf / -0.0. Under
        // HIGNN_FORCE_PORTABLE_SIMD=1 both sides are the same code.
        for m in [0usize, 1, 2, 3, 4, 5, 7] {
            for n in [1usize, 7, 8, 9, 15, 16, 17, 24, 31, 33] {
                for kk in [0usize, 1, 13] {
                    for (special, carried) in [(false, false), (false, true), (true, false), (true, true)] {
                        let seed = (m * 1000 + n * 10 + kk) as u32;
                        let (mut a, mut b) = (pseudo(m * kk, seed), pseudo(kk * n, seed + 1));
                        let mut carry_row = pseudo(n, seed + 2);
                        if special {
                            a = with_specials(a);
                            b = with_specials(b);
                            carry_row = with_specials(carry_row);
                        }
                        let carry = carried.then_some(carry_row.as_slice());
                        let what = format!("m {m} n {n} kk {kk} special {special} carried {carried}");

                        let (mut got, mut want) = (vec![7.0f32; m * n], vec![9.0f32; m * n]);
                        mm_nn(&a, m, kk, &b, n, carry, &mut got);
                        matrix::mm_nn(&a, m, kk, &b, n, carry, &mut want);
                        assert_same_bits(&got, &want, &format!("nn {what}"));

                        // tn: `a` read as `kk x m` is a different matrix; fine.
                        if !carried {
                            mm_tn(&a, kk, m, &b, n, &mut got);
                            matrix::mm_tn(&a, kk, m, &b, n, &mut want);
                            assert_same_bits(&got, &want, &format!("tn {what}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "short slice")]
    fn matmul_dispatch_checks_lengths_in_release_too() {
        let (a, b) = (vec![0.0f32; 4 * 3], vec![0.0f32; 3 * 16]);
        let mut out = vec![0.0f32; 4 * 16 - 1];
        mm_nn(&a, 4, 3, &b, 16, None, &mut out);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_mean_pool_checks_indices_before_the_raw_reads() {
        let src = vec![0.0f32; 3 * 8];
        let mut out = vec![0.0f32; 8];
        gather_mean_pool(&src, 8, &[0, 3], 2, &mut out);
    }

    #[test]
    fn gather_mean_pool_matches_scalar_exactly() {
        // 13 columns: one vector and a scalar tail; 5: tail only. Row 0
        // carries NaN, +-inf and -0.0, and -0.0 + -0.0 keeps its sign
        // only if the sum starts from +0.0 in both.
        let idx = vec![0usize, 8, 3, 3, 1, 7, 2, 6, 5, 0, 4, 8];
        for cols in [5usize, 13, 16] {
            let mut src = with_specials(pseudo(9 * cols, 44));
            src[3 * cols..4 * cols].fill(-0.0);
            for group in [1usize, 2, 3, 4, 6, 12] {
                let mut vector = vec![0.0f32; (idx.len() / group) * cols];
                let mut scalar = vector.clone();
                gather_mean_pool(&src, cols, &idx, group, &mut vector);
                matrix::gather_mean_pool(&src, cols, &idx, group, &mut scalar);
                let what = format!("gather_mean_pool cols {cols} group {group}");
                assert_same_bits(&vector, &scalar, &what);
            }
        }
    }

    #[test]
    fn packed_sq_dists_match_row_sq_dist_bitwise_at_every_lane_and_block_edge() {
        // Row counts around the 8-lane block and the 4-block (32-row)
        // step of the AVX2 kernel, plus the empty set; column counts
        // from none up. Row 0 carries the values whose handling is
        // easiest to get wrong.
        for rows in [0usize, 1, 7, 8, 9, 31, 32, 33, 40, 65] {
            for cols in [0usize, 1, 2, 31, 32, 33] {
                let values = pseudo(rows * cols, (rows * 41 + cols) as u32);
                let mut m = Matrix::from_vec(rows, cols, values);
                let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
                for (v, s) in m.data_mut().iter_mut().take(cols).zip(specials) {
                    *v = s;
                }
                let point = pseudo(cols, 99);
                let mut out = vec![f32::NAN; rows];
                let mut packed = PackedRows::pack(&m);
                packed.sq_dists(&point, &mut out);
                let want: Vec<f32> = (0..rows).map(|i| m.row_sq_dist(i, &point)).collect();
                assert_same_bits(&out, &want, &format!("{rows}x{cols}"));
                if cols == 0 {
                    assert!(out.iter().all(|d| d.to_bits() == 0), "empty sum is +0.0");
                }
                // Rewriting the last row in place equals packing the
                // edited matrix afresh.
                if rows > 0 {
                    let row = pseudo(cols, 7);
                    m.set_row(rows - 1, &row);
                    packed.set_row(rows - 1, &row);
                    packed.sq_dists(&point, &mut out);
                    let want: Vec<f32> = (0..rows).map(|i| m.row_sq_dist(i, &point)).collect();
                    assert_same_bits(&out, &want, &format!("{rows}x{cols} after set_row"));
                }
            }
        }
    }

    #[test]
    fn elementwise_kernels_match_scalar() {
        // 37 values: four vectors and a scalar tail, specials in both.
        let mut x = with_specials(pseudo(37, 9));
        x[32..].copy_from_slice(&[f32::NAN, f32::NEG_INFINITY, -0.0, f32::INFINITY, 0.0]);
        for alpha in [0.01f32, 0.0] {
            let mut vector = x.clone();
            leaky_relu(&mut vector, alpha);
            let scalar: Vec<f32> =
                x.iter().map(|&v| if v > 0.0 { v } else { alpha * v }).collect();
            assert_same_bits(&vector, &scalar, "leaky relu");

            let mut g_vector = with_specials(pseudo(37, 10));
            g_vector.rotate_left(1);
            let mut g_scalar = g_vector.clone();
            leaky_relu_bwd(&mut g_vector, &x, alpha);
            for (gv, &xv) in g_scalar.iter_mut().zip(&x) {
                if xv <= 0.0 {
                    *gv *= alpha;
                }
            }
            assert_same_bits(&g_vector, &g_scalar, "leaky relu backward");
        }
    }
}
