//! Textbook MLP forward pass and binary cross-entropy (paper Eq. 7).
//!
//! Mirrors `hignn_tensor::nn::Mlp::infer` — hidden layers use leaky
//! ReLU, the final layer is linear and produces logits — with plain
//! per-entry loops. Each output entry is a scalar `f32` accumulation
//! over the contraction index in increasing order followed by one bias
//! add, the same per-entry order the optimized kernel uses, so the
//! forward pass must agree **bitwise**.
//!
//! [`bce_with_logits`] replicates the numerically stable form the tape
//! evaluates (`max(x, 0) - x·t + ln(1 + e^{-|x|})`, per-sample in
//! `f32`, summed in `f64`, divided by `n`, cast back to `f32`), so the
//! scalar loss is bitwise-comparable too.

use crate::linalg::shape;
use crate::Rows32;

/// One fully connected layer: weight matrix (`in_dim x out_dim`, row
/// major) and a bias vector of length `out_dim`.
#[derive(Clone, Debug)]
pub struct DenseLayer {
    pub w: Rows32,
    pub b: Vec<f32>,
}

/// `y = x W + b` with the classic loops: accumulate over the input
/// dimension, then add the bias once.
pub(crate) fn dense(x: &Rows32, layer: &DenseLayer) -> Rows32 {
    let (m, k) = shape(x);
    let (k2, n) = shape(&layer.w);
    assert_eq!(k, k2, "dense: input dim {k} vs weight rows {k2}");
    assert_eq!(layer.b.len(), n, "dense: bias length mismatch");
    let mut y = vec![vec![0.0f32; n]; m];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for t in 0..k {
                acc += x[i][t] * layer.w[t][j];
            }
            y[i][j] = acc + layer.b[j];
        }
    }
    y
}

/// Elementwise leaky ReLU, `v if v > 0 else slope * v`.
pub(crate) fn leaky_relu(x: &Rows32, slope: f32) -> Rows32 {
    x.iter()
        .map(|row| row.iter().map(|&v| if v > 0.0 { v } else { slope * v }).collect())
        .collect()
}

/// Full MLP forward: leaky ReLU (given slope) after every layer except
/// the last, which stays linear (logits). This is the paper's Eq. 7
/// predictor head shape.
pub fn forward(x: &Rows32, layers: &[DenseLayer], slope: f32) -> Rows32 {
    assert!(!layers.is_empty(), "forward: need at least one layer");
    let mut h = x.clone();
    let last = layers.len() - 1;
    for (l, layer) in layers.iter().enumerate() {
        h = dense(&h, layer);
        if l != last {
            h = leaky_relu(&h, slope);
        }
    }
    h
}

/// Mean binary cross-entropy over logits (an `n x 1` column), in the
/// same numerically stable form and accumulation order as
/// `Tape::bce_with_logits`.
pub fn bce_with_logits(logits: &Rows32, targets: &[f32]) -> f32 {
    let (rows, cols) = shape(logits);
    assert_eq!(cols, 1, "bce_with_logits: logits must be n x 1");
    assert_eq!(rows, targets.len(), "bce_with_logits: target length mismatch");
    let n = targets.len().max(1) as f32;
    let mut total = 0.0f64;
    for (row, &t) in logits.iter().zip(targets) {
        let x = row[0];
        let loss = x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
        total += loss as f64;
    }
    (total / n as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_matches_hand_computation() {
        let layer = DenseLayer {
            w: vec![vec![1.0, -1.0], vec![2.0, 0.5]],
            b: vec![0.25, -0.25],
        };
        let y = dense(&vec![vec![3.0, 4.0]], &layer);
        assert_eq!(y, vec![vec![3.0 + 8.0 + 0.25, -3.0 + 2.0 - 0.25]]);
    }

    #[test]
    fn hidden_layers_are_leaky_but_output_is_linear() {
        // One hidden layer that produces a negative value, identity-ish
        // output layer: the hidden negative is scaled by the slope, the
        // output negative is not.
        let hidden = DenseLayer { w: vec![vec![1.0]], b: vec![0.0] };
        let out = DenseLayer { w: vec![vec![1.0]], b: vec![0.0] };
        let y = forward(&vec![vec![-2.0]], &[hidden, out], 0.01);
        assert_eq!(y, vec![vec![-0.02]]);
        let y_single = forward(&vec![vec![-2.0]], &[DenseLayer {
            w: vec![vec![1.0]],
            b: vec![0.0],
        }], 0.01);
        assert_eq!(y_single, vec![vec![-2.0]]);
    }

    #[test]
    fn bce_at_zero_logit_is_ln_two() {
        let loss = bce_with_logits(&vec![vec![0.0], vec![0.0]], &[0.0, 1.0]);
        assert!((loss - std::f32::consts::LN_2).abs() < 1e-7);
    }

    #[test]
    fn bce_rewards_confident_correct_logits() {
        let good = bce_with_logits(&vec![vec![8.0]], &[1.0]);
        let bad = bce_with_logits(&vec![vec![-8.0]], &[1.0]);
        assert!(good < 0.01);
        assert!(bad > 5.0);
    }
}
