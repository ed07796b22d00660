//! Textbook dense linear algebra in `f32`.
//!
//! These mirror `hignn_tensor::Matrix::{matmul, matmul_nt, matmul_tn}`
//! in the *naive* `ijk` loop nesting: for each output entry, one scalar
//! accumulator summed over the contraction index in increasing order.
//! The optimized kernels reorder the loops for cache behaviour (`ikj`,
//! fused transposes, zero-skipping) but never change the per-entry
//! accumulation order, so for finite inputs the results are required to
//! agree **bitwise** — the differential suite asserts exactly that.

use crate::Rows32;

/// `C = A * B` with the classic triple loop.
///
/// # Panics
/// Panics on inner-dimension mismatch or ragged rows.
pub fn matmul(a: &Rows32, b: &Rows32) -> Rows32 {
    let (m, k) = shape(a);
    let (k2, n) = shape(b);
    assert_eq!(k, k2, "matmul: inner dimensions {k} vs {k2}");
    let mut c = vec![vec![0.0f32; n]; m];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for t in 0..k {
                acc += a[i][t] * b[t][j];
            }
            c[i][j] = acc;
        }
    }
    c
}

/// `C = A * B^T` without materialising the transpose.
pub fn matmul_nt(a: &Rows32, b: &Rows32) -> Rows32 {
    let (m, k) = shape(a);
    let (n, k2) = shape(b);
    assert_eq!(k, k2, "matmul_nt: inner dimensions {k} vs {k2}");
    let mut c = vec![vec![0.0f32; n]; m];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for t in 0..k {
                acc += a[i][t] * b[j][t];
            }
            c[i][j] = acc;
        }
    }
    c
}

/// `C = A^T * B` without materialising the transpose.
pub fn matmul_tn(a: &Rows32, b: &Rows32) -> Rows32 {
    let (k, m) = shape(a);
    let (k2, n) = shape(b);
    assert_eq!(k, k2, "matmul_tn: inner dimensions {k} vs {k2}");
    let mut c = vec![vec![0.0f32; n]; m];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for t in 0..k {
                acc += a[t][i] * b[t][j];
            }
            c[i][j] = acc;
        }
    }
    c
}

/// `(rows, cols)` of a row-major matrix, checking that it is not ragged.
pub(crate) fn shape(m: &Rows32) -> (usize, usize) {
    let cols = m.first().map_or(0, |r| r.len());
    for r in m {
        assert_eq!(r.len(), cols, "ragged matrix");
    }
    (m.len(), cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_matmul() {
        let a = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let b = vec![vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]];
        assert_eq!(matmul(&a, &b), vec![vec![58.0, 64.0], vec![139.0, 154.0]]);
    }

    #[test]
    fn transposed_products_agree_with_explicit_transpose() {
        let a = vec![vec![1.0, -2.0], vec![3.0, 0.5], vec![5.0, -6.0]];
        let b = vec![vec![1.0, 0.0], vec![-1.0, 3.0], vec![2.0, 2.0]];
        let at: Rows32 = (0..2).map(|j| (0..3).map(|i| a[i][j]).collect()).collect();
        let bt: Rows32 = (0..2).map(|j| (0..3).map(|i| b[i][j]).collect()).collect();
        assert_eq!(matmul_nt(&a, &b), matmul(&a, &bt));
        assert_eq!(matmul_tn(&a, &b), matmul(&at, &b));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn rejects_mismatched_shapes() {
        matmul(&vec![vec![1.0, 2.0]], &vec![vec![1.0]]);
    }
}
