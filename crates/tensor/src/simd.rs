//! Explicit SIMD kernels and the two-tier math-mode contract.
//!
//! ## Why `core::arch` intrinsics and not `std::simd`
//!
//! The workspace builds on **stable** Rust; `std::simd` is still
//! nightly-only. `core::arch::x86_64` intrinsics are stable, and the
//! AVX2+FMA subset used here covers every x86-64 server this system
//! targets. Dispatch is decided **once per process** at runtime
//! ([`backend`]): if AVX2 and FMA are both present the vector kernels
//! run, otherwise the matmul and gather kernels fall back to the
//! register-tiled Bitwise kernels of [`crate::matrix`] (and the
//! elementwise ones to scalar loops) — so a FastMath build without AVX2
//! is bit-identical to Bitwise, never silently wrong. Setting
//! `HIGNN_FORCE_PORTABLE_SIMD=1` pins the portable fallback, which is
//! how CI proves the fallback path on machines that *do* have AVX2.
//!
//! ## The two tiers (DESIGN.md §14)
//!
//! * [`MathMode::Bitwise`] — the proven default. Every kernel is
//!   bit-identical to the naive oracle: per output element the
//!   contraction index ascends from a `+0.0` accumulator. The kernels
//!   in [`crate::matrix`] implement this tier, and one kernel in this
//!   module does too: [`PackedRows::sq_dists`], the K-means distance
//!   scan, which runs in *both* tiers. It gives every row its own
//!   vector lane, so the lanes hold independent per-row sums in the
//!   oracle's order — separate multiply and add, no FMA, no cross-lane
//!   reduction — and the AVX2 and portable backends agree to the bit.
//! * [`MathMode::FastMath`] — the `*_fast` kernels below. They may
//!   *reorder* accumulation across vector lanes and contract
//!   multiply-add pairs into single-rounding FMAs, so results differ
//!   from the oracle in the low bits. They are verified
//!   **differentially**: each kernel within a stated tolerance of an
//!   `f64` oracle (see the differential-oracle suite and the kernels
//!   bench, which exits 5 on divergence), plus end-metric equivalence
//!   of a full training run. Within the tier, results are still
//!   deterministic: the lane structure is fixed, so the same inputs
//!   give the same bits on the same backend, and N worker threads
//!   remain bit-identical to 1.
//!
//! Elementwise kernels (leaky ReLU forward/backward, axpy) are
//! value-identical to their scalar forms — vector lanes never interact
//! — but ship in this module because they only run under FastMath; the
//! Adam update uses FMA contraction and is toleranced like the matmuls.

use crate::matrix::{self, Matrix};
use crate::workspace::AlignedBuf;
use std::sync::OnceLock;

/// Which numeric contract a computation runs under. See the module
/// docs; threaded from `HignnBuilder`/`TrainSpec` through the tape,
/// trainer, and the serve scorer, and recorded in checkpoint metadata
/// (resume refuses a mismatch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MathMode {
    /// Bit-identical to the naive oracle (the proven default).
    #[default]
    Bitwise,
    /// SIMD kernels; accumulation may be reordered for vector lanes.
    /// Verified within tolerances against the `f64` oracle.
    FastMath,
}

impl MathMode {
    /// Parses a CLI token (`bitwise` | `fast`).
    pub fn parse(token: &str) -> Result<MathMode, String> {
        match token {
            "bitwise" => Ok(MathMode::Bitwise),
            "fast" => Ok(MathMode::FastMath),
            other => Err(format!(
                "unknown math mode `{other}`: expected `bitwise` (bit-identical to the \
                 oracle) or `fast` (SIMD kernels, toleranced)"
            )),
        }
    }

    /// The CLI/checkpoint-meta name (`bitwise` | `fast`).
    pub fn name(self) -> &'static str {
        match self {
            MathMode::Bitwise => "bitwise",
            MathMode::FastMath => "fast",
        }
    }

    /// Stable id recorded in checkpoint metadata (v5+).
    pub fn id(self) -> u64 {
        match self {
            MathMode::Bitwise => 0,
            MathMode::FastMath => 1,
        }
    }

    /// Inverse of [`MathMode::id`].
    pub fn from_id(id: u64) -> Option<MathMode> {
        match id {
            0 => Some(MathMode::Bitwise),
            1 => Some(MathMode::FastMath),
            _ => None,
        }
    }
}

/// Environment variable that pins the portable fallback even when the
/// CPU supports the vector kernels (any value but `0`). Read once, at
/// first kernel dispatch.
pub const FORCE_PORTABLE_ENV: &str = "HIGNN_FORCE_PORTABLE_SIMD";

/// Which implementation backs the kernels of this module in this process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdBackend {
    /// AVX2 + FMA `core::arch` intrinsics.
    Avx2Fma,
    /// Portable fallback: the Bitwise kernels (no vector intrinsics).
    Portable,
}

impl SimdBackend {
    /// Stable name for benchmark output and CI assertions.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Avx2Fma => "avx2+fma",
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
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return SimdBackend::Avx2Fma;
            }
        }
        SimdBackend::Portable
    })
}

// ---- FastMath matmul kernels -------------------------------------------
//
// All three products share one microkernel shape: 4 output rows x 16
// output columns (two 8-lane vectors per row) accumulate in registers
// while the contraction index `t` ascends once; the A element is
// broadcast, the B row is loaded contiguously, and `acc = fma(a, b,
// acc)` contracts each multiply-add into one rounding. Per-element `t`
// order is *preserved* — only the FMA rounding differs from Bitwise —
// except in packed-`nt`, which shares this kernel after an explicit
// transpose. Remainder rows/columns run a scalar loop in the same order.

/// `out = a * b`, `a` is `m x kk`, `b` is `kk x n` (FastMath tier).
/// Every output row's accumulators start from `carry` (`n` partial
/// sums; `None` is `+0.0`), as in the Bitwise [`matrix::mm_nn`].
pub fn mm_nn_fast(
    a: &[f32],
    m: usize,
    kk: usize,
    b: &[f32],
    n: usize,
    carry: Option<&[f32]>,
    out: &mut [f32],
) {
    debug_assert!(a.len() >= m * kk && b.len() >= kk * n && out.len() >= m * n);
    assert!(carry.is_none_or(|c| c.len() >= n), "mm_nn_fast: carry shorter than a row");
    #[cfg(target_arch = "x86_64")]
    if backend() == SimdBackend::Avx2Fma {
        // SAFETY: backend() proved avx2+fma; slice bounds checked above.
        unsafe { avx2::mm_nn(a, m, kk, b, n, carry, out) };
        return;
    }
    matrix::mm_nn(a, m, kk, b, n, carry, out);
}

/// `out = a^T * b`, `a` is `kk x m`, `b` is `kk x n` (FastMath tier).
pub fn mm_tn_fast(a: &[f32], kk: usize, m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert!(a.len() >= kk * m && b.len() >= kk * n && out.len() >= m * n);
    #[cfg(target_arch = "x86_64")]
    if backend() == SimdBackend::Avx2Fma {
        // SAFETY: backend() proved avx2+fma; slice bounds checked above.
        unsafe { avx2::mm_tn(a, kk, m, b, n, out) };
        return;
    }
    matrix::mm_tn(a, kk, m, b, n, out);
}

/// Fused gather -> mean-pool over rows (FastMath tier): output row `g`
/// averages `src` rows `idx[g*group..(g+1)*group]`. Columns are
/// independent lanes, so values match the Bitwise kernel exactly; it
/// lives in this tier because it uses the vector units.
pub fn gather_mean_pool_fast(
    src: &[f32],
    cols: usize,
    idx: &[usize],
    group: usize,
    out: &mut [f32],
) {
    debug_assert!(group > 0 && idx.len().is_multiple_of(group));
    debug_assert!(out.len() >= (idx.len() / group) * cols);
    #[cfg(target_arch = "x86_64")]
    if backend() == SimdBackend::Avx2Fma {
        // SAFETY: backend() proved avx2+fma; bounds checked above plus
        // the same per-index row bound the Bitwise kernel asserts.
        unsafe { avx2::gather_mean_pool(src, cols, idx, group, out) };
        return;
    }
    matrix::gather_mean_pool(src, cols, idx, group, out);
}

// ---- FastMath elementwise kernels --------------------------------------

/// In-place leaky ReLU: `x = if x > 0 { x } else { alpha * x }`.
/// Value-identical to the scalar form (lanes never interact).
pub fn leaky_relu_fast(x: &mut [f32], alpha: f32) {
    #[cfg(target_arch = "x86_64")]
    if backend() == SimdBackend::Avx2Fma {
        // SAFETY: backend() proved avx2+fma.
        unsafe { avx2::leaky_relu(x, alpha) };
        return;
    }
    for v in x {
        if *v <= 0.0 {
            *v *= alpha;
        }
    }
}

/// In-place leaky-ReLU backward: `g *= alpha` wherever `x <= 0`.
pub fn leaky_relu_bwd_fast(g: &mut [f32], x: &[f32], alpha: f32) {
    debug_assert_eq!(g.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if backend() == SimdBackend::Avx2Fma {
        // SAFETY: backend() proved avx2+fma; equal lengths checked.
        unsafe { avx2::leaky_relu_bwd(g, x, alpha) };
        return;
    }
    for (gv, &xv) in g.iter_mut().zip(x) {
        if xv <= 0.0 {
            *gv *= alpha;
        }
    }
}

/// In-place `y += alpha * x` (FMA-contracted under AVX2).
pub fn axpy_fast(y: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if backend() == SimdBackend::Avx2Fma {
        // SAFETY: backend() proved avx2+fma; equal lengths checked.
        unsafe { avx2::axpy(y, alpha, x) };
        return;
    }
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

// ---- Bitwise lane-per-row squared distances -----------------------------

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
/// This is a **Bitwise-tier** kernel. Each row owns one lane, and the
/// lane's accumulator adds `(row[t] - point[t])²` for `t` ascending
/// from `+0.0` with a separate multiply and add — exactly the chain of
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
        if backend() == SimdBackend::Avx2Fma {
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

/// One fused Adam update over a parameter/gradient pair:
///
/// ```text
/// m = beta1 * m + (1 - beta1) * g
/// v = beta2 * v + (1 - beta2) * g^2
/// p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
/// ```
///
/// Same math as the scalar optimizer loop; FMA contraction makes the
/// low bits differ, which is why it belongs to the FastMath tier.
#[allow(clippy::too_many_arguments)]
pub fn adam_step_fast(
    p: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
) {
    debug_assert!(p.len() == m.len() && m.len() == v.len() && v.len() == g.len());
    #[cfg(target_arch = "x86_64")]
    if backend() == SimdBackend::Avx2Fma {
        // SAFETY: backend() proved avx2+fma; equal lengths checked.
        unsafe { avx2::adam_step(p, m, v, g, lr, beta1, beta2, eps, bc1, bc2) };
        return;
    }
    for i in 0..p.len() {
        let gi = g[i];
        m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
        v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
        let m_hat = m[i] / bc1;
        let v_hat = v[i] / bc2;
        p[i] -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

// ---- AVX2 + FMA backend -------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    /// Lanes per vector register.
    const L: usize = 8;
    /// Output-row block of the broadcast-FMA microkernel.
    const MRF: usize = 4;
    /// Output-column block (two vectors wide).
    const NRF: usize = 2 * L;

    /// The shared 4x16 broadcast-FMA microkernel over `t in 0..kk`:
    /// `a_at(ii, t)` supplies the broadcast element for output row
    /// `i + ii`, and `brow(t)` the index of B's contiguous row. Every
    /// row's accumulators start from `carry[j..j + jb]` (`None` is
    /// `+0.0`).
    ///
    /// # Safety
    /// Caller proves avx2+fma and that every index reached is in
    /// bounds: `a_at` for `ii < ib`, `b[brow(t) + j..+jb]`,
    /// `out[(i+ii)*n + j..+jb]`, `carry[j..+jb]`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
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
        if ib == MRF && jb == NRF {
            let mut acc = [[start(0), start(L)]; MRF];
            for t in 0..kk {
                let base = brow(t) + j;
                let b0 = _mm256_loadu_ps(b.as_ptr().add(base));
                let b1 = _mm256_loadu_ps(b.as_ptr().add(base + L));
                for (ii, row) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(a_at(ii, t));
                    row[0] = _mm256_fmadd_ps(av, b0, row[0]);
                    row[1] = _mm256_fmadd_ps(av, b1, row[1]);
                }
            }
            for (ii, row) in acc.iter().enumerate() {
                let o = (i + ii) * n + j;
                _mm256_storeu_ps(out.as_mut_ptr().add(o), row[0]);
                _mm256_storeu_ps(out.as_mut_ptr().add(o + L), row[1]);
            }
        } else {
            // Edge panel (short rows and/or columns): one vector at a
            // time per row, scalar for the sub-vector tail.
            for ii in 0..ib {
                let mut jj = 0;
                while jj + L <= jb {
                    let mut acc = start(jj);
                    for t in 0..kk {
                        let bv = _mm256_loadu_ps(b.as_ptr().add(brow(t) + j + jj));
                        acc = _mm256_fmadd_ps(_mm256_set1_ps(a_at(ii, t)), bv, acc);
                    }
                    _mm256_storeu_ps(out.as_mut_ptr().add((i + ii) * n + j + jj), acc);
                    jj += L;
                }
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
    #[target_feature(enable = "avx2", enable = "fma")]
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
    /// avx2+fma present; `a` is `m x kk`, `b` is `kk x n`, `out` holds
    /// `m * n` entries and `carry`, if any, `n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn mm_nn(
        a: &[f32],
        m: usize,
        kk: usize,
        b: &[f32],
        n: usize,
        carry: Option<&[f32]>,
        out: &mut [f32],
    ) {
        cover(m, kk, b, n, carry, out, |i, ii, t| *a.get_unchecked((i + ii) * kk + t), |t| t * n);
    }

    /// # Safety
    /// avx2+fma present; `a` is `kk x m`, `b` is `kk x n`, `out` holds
    /// `m * n` entries.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn mm_tn(a: &[f32], kk: usize, m: usize, b: &[f32], n: usize, out: &mut [f32]) {
        cover(m, kk, b, n, None, out, |i, ii, t| *a.get_unchecked(t * m + i + ii), |t| t * n);
    }

    /// # Safety
    /// avx2+fma present; every `idx` entry addresses a full `cols` row
    /// of `src`; `out` holds `(idx.len() / group) * cols` entries.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn gather_mean_pool(
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
    /// avx2+fma present.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn leaky_relu(x: &mut [f32], alpha: f32) {
        let av = _mm256_set1_ps(alpha);
        let zero = _mm256_setzero_ps();
        let main = x.len() - x.len() % L;
        let mut j = 0;
        while j < main {
            let v = _mm256_loadu_ps(x.as_ptr().add(j));
            let neg = _mm256_mul_ps(v, av);
            // v > 0 ? v : alpha * v  (NaN compares false -> scaled, same
            // as the scalar `if v > 0` branch).
            let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(v, zero);
            _mm256_storeu_ps(x.as_mut_ptr().add(j), _mm256_blendv_ps(neg, v, mask));
            j += L;
        }
        for v in &mut x[main..] {
            if *v <= 0.0 {
                *v *= alpha;
            }
        }
    }

    /// # Safety
    /// avx2+fma present; `g.len() == x.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn leaky_relu_bwd(g: &mut [f32], x: &[f32], alpha: f32) {
        let av = _mm256_set1_ps(alpha);
        let zero = _mm256_setzero_ps();
        let main = g.len() - g.len() % L;
        let mut j = 0;
        while j < main {
            let gv = _mm256_loadu_ps(g.as_ptr().add(j));
            let xv = _mm256_loadu_ps(x.as_ptr().add(j));
            let scaled = _mm256_mul_ps(gv, av);
            let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(xv, zero);
            _mm256_storeu_ps(g.as_mut_ptr().add(j), _mm256_blendv_ps(scaled, gv, mask));
            j += L;
        }
        for (gv, &xv) in g[main..].iter_mut().zip(&x[main..]) {
            if xv <= 0.0 {
                *gv *= alpha;
            }
        }
    }

    /// # Safety
    /// avx2+fma present; `y.len() == x.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
        let av = _mm256_set1_ps(alpha);
        let main = y.len() - y.len() % L;
        let mut j = 0;
        while j < main {
            let yv = _mm256_loadu_ps(y.as_ptr().add(j));
            let xv = _mm256_loadu_ps(x.as_ptr().add(j));
            _mm256_storeu_ps(y.as_mut_ptr().add(j), _mm256_fmadd_ps(av, xv, yv));
            j += L;
        }
        for (yv, &xv) in y[main..].iter_mut().zip(&x[main..]) {
            *yv += alpha * xv;
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
    pub unsafe fn sq_dists(packed: &[f32], point: &[f32], out: &mut [f32]) {
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

    /// # Safety
    /// avx2+fma present; `p`, `m`, `v`, `g` all the same length.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn adam_step(
        p: &mut [f32],
        m: &mut [f32],
        v: &mut [f32],
        g: &[f32],
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        bc1: f32,
        bc2: f32,
    ) {
        let b1 = _mm256_set1_ps(beta1);
        let b2 = _mm256_set1_ps(beta2);
        let c1 = _mm256_set1_ps(1.0 - beta1);
        let c2 = _mm256_set1_ps(1.0 - beta2);
        let inv_bc1 = _mm256_set1_ps(1.0 / bc1);
        let inv_bc2 = _mm256_set1_ps(1.0 / bc2);
        let lrv = _mm256_set1_ps(lr);
        let epsv = _mm256_set1_ps(eps);
        let main = p.len() - p.len() % L;
        let mut j = 0;
        while j < main {
            let gv = _mm256_loadu_ps(g.as_ptr().add(j));
            let mv = _mm256_fmadd_ps(b1, _mm256_loadu_ps(m.as_ptr().add(j)), _mm256_mul_ps(c1, gv));
            let vv = _mm256_fmadd_ps(
                b2,
                _mm256_loadu_ps(v.as_ptr().add(j)),
                _mm256_mul_ps(c2, _mm256_mul_ps(gv, gv)),
            );
            _mm256_storeu_ps(m.as_mut_ptr().add(j), mv);
            _mm256_storeu_ps(v.as_mut_ptr().add(j), vv);
            let m_hat = _mm256_mul_ps(mv, inv_bc1);
            let v_hat = _mm256_mul_ps(vv, inv_bc2);
            let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), epsv);
            let step = _mm256_div_ps(_mm256_mul_ps(lrv, m_hat), denom);
            let pv = _mm256_sub_ps(_mm256_loadu_ps(p.as_ptr().add(j)), step);
            _mm256_storeu_ps(p.as_mut_ptr().add(j), pv);
            j += L;
        }
        for i in main..p.len() {
            let gi = g[i];
            m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
            v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
            let m_hat = m[i] * (1.0 / bc1);
            let v_hat = v[i] * (1.0 / bc2);
            p[i] -= lr * m_hat / (v_hat.sqrt() + eps);
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

    /// f64 reference for tolerance checks.
    fn mm_nn_f64(a: &[f32], m: usize, kk: usize, b: &[f32], n: usize) -> Vec<f64> {
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for t in 0..kk {
                    acc += a[i * kk + t] as f64 * b[t * n + j] as f64;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn assert_close(actual: &[f32], oracle: &[f64], tol: f64, what: &str) {
        for (k, (&a, &o)) in actual.iter().zip(oracle).enumerate() {
            let err = (a as f64 - o).abs();
            assert!(err <= tol * (1.0 + o.abs()), "{what}[{k}]: {a} vs {o} (err {err})");
        }
    }

    #[test]
    fn mode_ids_roundtrip_and_parse() {
        for mode in [MathMode::Bitwise, MathMode::FastMath] {
            assert_eq!(MathMode::from_id(mode.id()), Some(mode));
            assert_eq!(MathMode::parse(mode.name()), Ok(mode));
        }
        assert_eq!(MathMode::from_id(7), None);
        let err = MathMode::parse("quantum").unwrap_err();
        assert!(err.contains("bitwise") && err.contains("fast"), "{err}");
    }

    #[test]
    fn backend_is_cached_and_named() {
        let b = backend();
        assert_eq!(b, backend(), "backend must be stable across calls");
        assert!(matches!(b.name(), "avx2+fma" | "portable"));
        // CI's portable step exports the variable and runs this test: a
        // fallback that silently failed to engage must fail there.
        if std::env::var_os(FORCE_PORTABLE_ENV).is_some_and(|v| v != "0") {
            assert_eq!(b, SimdBackend::Portable, "forced portable fallback was not taken");
        }
    }

    #[test]
    fn fast_matmuls_match_f64_oracle_within_tolerance() {
        // Tile-interior, remainder-edge and tiny shapes.
        for &(m, k, n) in
            &[(1, 1, 1), (4, 8, 16), (5, 17, 33), (8, 3, 40), (13, 7, 19), (16, 64, 40), (33, 31, 47)]
        {
            let a = pseudo(m * k, (m * 7 + k) as u32);
            let b = pseudo(k * n, (k * 13 + n) as u32);
            let oracle = mm_nn_f64(&a, m, k, &b, n);
            let mut out = vec![0.0f32; m * n];
            mm_nn_fast(&a, m, k, &b, n, None, &mut out);
            assert_close(&out, &oracle, 1e-5, "mm_nn_fast");

            // tn: build a^T (k x m) whose transpose is `a`.
            let mut at = vec![0.0f32; k * m];
            for i in 0..m {
                for t in 0..k {
                    at[t * m + i] = a[i * k + t];
                }
            }
            let mut out_tn = vec![0.0f32; m * n];
            mm_tn_fast(&at, k, m, &b, n, &mut out_tn);
            assert_close(&out_tn, &oracle, 1e-5, "mm_tn_fast");
        }
    }

    #[test]
    fn fast_gather_mean_pool_matches_scalar_exactly() {
        let src = pseudo(9 * 13, 44);
        let idx = vec![0usize, 8, 3, 3, 1, 7, 2, 6, 5, 0, 4, 8];
        for group in [1usize, 2, 3, 4, 6, 12] {
            let mut fast = vec![0.0f32; (idx.len() / group) * 13];
            let mut scalar = fast.clone();
            gather_mean_pool_fast(&src, 13, &idx, group, &mut fast);
            matrix::gather_mean_pool(&src, 13, &idx, group, &mut scalar);
            assert_eq!(
                fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "columns are independent lanes: values must match exactly (group {group})"
            );
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
                PackedRows::pack(&m).sq_dists(&point, &mut out);
                for (i, got) in out.iter().enumerate() {
                    let want = m.row_sq_dist(i, &point);
                    // A NaN's sign and payload are the compiler's
                    // choice of operand order; everything else is bits.
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "{rows}x{cols} row {i}: {got} vs {want}"
                    );
                }
                if cols == 0 {
                    assert!(out.iter().all(|d| d.to_bits() == 0), "empty sum is +0.0");
                }
            }
        }
    }

    #[test]
    fn fast_elementwise_kernels_match_scalar() {
        let x = pseudo(37, 9);
        let mut fast = x.clone();
        leaky_relu_fast(&mut fast, 0.01);
        let scalar: Vec<f32> =
            x.iter().map(|&v| if v > 0.0 { v } else { 0.01 * v }).collect();
        assert_eq!(fast, scalar, "leaky relu is value-identical");

        let mut g_fast = pseudo(37, 10);
        let mut g_scalar = g_fast.clone();
        leaky_relu_bwd_fast(&mut g_fast, &x, 0.01);
        for (gv, &xv) in g_scalar.iter_mut().zip(&x) {
            if xv <= 0.0 {
                *gv *= 0.01;
            }
        }
        assert_eq!(g_fast, g_scalar, "leaky relu backward is value-identical");

        let mut y = pseudo(37, 11);
        let y0 = y.clone();
        axpy_fast(&mut y, 0.25, &x);
        for (k, ((&yv, &y0v), &xv)) in y.iter().zip(&y0).zip(&x).enumerate() {
            let err = (yv as f64 - (y0v as f64 + 0.25 * xv as f64)).abs();
            assert!(err < 1e-6, "axpy[{k}]: {yv} vs {y0v} + 0.25*{xv}");
        }
    }

    #[test]
    fn fast_adam_step_matches_f64_reference() {
        let n = 41;
        let (mut p, mut m, g) = (pseudo(n, 1), pseudo(n, 2), pseudo(n, 4));
        let mut v: Vec<f32> = pseudo(n, 3).iter().map(|x| x.abs()).collect();
        let (p0, m0, v0) = (p.clone(), m.clone(), v.clone());
        let (lr, b1, b2, eps, bc1, bc2) = (1e-2f32, 0.9f32, 0.999f32, 1e-8f32, 0.1f32, 0.001f32);
        adam_step_fast(&mut p, &mut m, &mut v, &g, lr, b1, b2, eps, bc1, bc2);
        for i in 0..n {
            let gi = g[i] as f64;
            let mi = b1 as f64 * m0[i] as f64 + (1.0 - b1 as f64) * gi;
            let vi = b2 as f64 * v0[i] as f64 + (1.0 - b2 as f64) * gi * gi;
            let want = p0[i] as f64 - lr as f64 * (mi / bc1 as f64) / ((vi / bc2 as f64).sqrt() + eps as f64);
            let err = (p[i] as f64 - want).abs();
            assert!(err <= 1e-4 * (1.0 + want.abs()), "adam[{i}]: {} vs {want}", p[i]);
        }
    }
}
