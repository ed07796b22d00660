//! Textbook bipartite GraphSAGE inference (paper Eqs. 1–4) in `f64`.
//!
//! Computes the same exact full-neighbourhood propagation as
//! `hignn::BipartiteSage::embed_all` — at every step both sides
//! simultaneously aggregate the opposite side's *previous* embeddings
//! (unweighted mean, isolated vertices get zeros), transform them by
//! the cross-side matrix `M`, concatenate with their own previous
//! embedding, and project through `W` and a bias with leaky ReLU — but
//! in double precision with plain adjacency-list loops. Because the
//! optimized path accumulates in `f32`, the differential suite compares
//! within a tolerance; the oracle's `f64` value is the better estimate
//! of the mathematical result.

use crate::Rows64;

/// One step's parameters for one side: cross-side transform `M`
/// (`d_in x d_in`), projection `W` (`2 d_in x d_out`), bias (`d_out`).
#[derive(Clone, Debug)]
pub struct SageStep {
    pub m: Rows64,
    pub w: Rows64,
    pub b: Vec<f64>,
}

/// Unweighted neighbourhood mean of the opposite side's embeddings.
/// `adjacency[v]` lists the opposite-side neighbours of vertex `v`;
/// vertices with no neighbours aggregate to a zero vector.
pub(crate) fn neighborhood_mean(adjacency: &[Vec<usize>], opposite: &Rows64, dim: usize) -> Rows64 {
    let mut out = vec![vec![0.0f64; dim]; adjacency.len()];
    for (v, nbrs) in adjacency.iter().enumerate() {
        if nbrs.is_empty() {
            continue;
        }
        for &nb in nbrs {
            for t in 0..dim {
                out[v][t] += opposite[nb][t];
            }
        }
        let inv = 1.0 / nbrs.len() as f64;
        for t in 0..dim {
            out[v][t] *= inv;
        }
    }
    out
}

/// One side's dense update `h <- leakyrelu([h | agg M] W + b)` (Eqs. 3/4).
fn dense_step(h: &Rows64, agg: &Rows64, step: &SageStep, slope: f64) -> Rows64 {
    let d_in = step.m.len();
    let d_out = step.b.len();
    let mut out = vec![vec![0.0f64; d_out]; h.len()];
    for v in 0..h.len() {
        // transformed = agg[v] * M
        let mut transformed = vec![0.0f64; d_in];
        for j in 0..d_in {
            for t in 0..d_in {
                transformed[j] += agg[v][t] * step.m[t][j];
            }
        }
        // cat = [h[v] | transformed], then cat * W + b, then leaky ReLU.
        for j in 0..d_out {
            let mut acc = 0.0f64;
            for t in 0..d_in {
                acc += h[v][t] * step.w[t][j];
            }
            for t in 0..d_in {
                acc += transformed[t] * step.w[d_in + t][j];
            }
            acc += step.b[j];
            out[v][j] = if acc > 0.0 { acc } else { slope * acc };
        }
    }
    out
}

/// Full-neighbourhood inference for both sides. `user_adj[u]` lists the
/// item neighbours of user `u`, `item_adj[i]` the user neighbours of
/// item `i`; `user_steps` / `item_steps` are the per-step parameters
/// (step `p` uses index `p - 1`). Returns the step-`P` embeddings
/// `(users, items)`.
#[allow(clippy::too_many_arguments)]
pub fn embed_all(
    user_adj: &[Vec<usize>],
    item_adj: &[Vec<usize>],
    user_feats: &Rows64,
    item_feats: &Rows64,
    user_steps: &[SageStep],
    item_steps: &[SageStep],
    slope: f64,
) -> (Rows64, Rows64) {
    assert_eq!(user_steps.len(), item_steps.len(), "step count mismatch");
    let mut hu = user_feats.clone();
    let mut hi = item_feats.clone();
    for p in 0..user_steps.len() {
        let d = hi.first().map_or(0, |r| r.len());
        let agg_u = neighborhood_mean(user_adj, &hi, d);
        let agg_i = neighborhood_mean(item_adj, &hu, d);
        let new_hu = dense_step(&hu, &agg_u, &user_steps[p], slope);
        let new_hi = dense_step(&hi, &agg_i, &item_steps[p], slope);
        hu = new_hu;
        hi = new_hi;
    }
    (hu, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_step(d: usize) -> SageStep {
        // W = [I; 0] so the update returns the self embedding unchanged
        // (all inputs non-negative keeps leaky ReLU inert).
        let mut w = vec![vec![0.0; d]; 2 * d];
        for (j, row) in w.iter_mut().enumerate().take(d) {
            row[j] = 1.0;
        }
        let m = (0..d)
            .map(|i| (0..d).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
            .collect();
        SageStep { m, w, b: vec![0.0; d] }
    }

    #[test]
    fn mean_aggregation_with_isolated_vertex() {
        let adj = vec![vec![0, 1], vec![]];
        let opp = vec![vec![2.0, 4.0], vec![4.0, 8.0]];
        let agg = neighborhood_mean(&adj, &opp, 2);
        assert_eq!(agg[0], vec![3.0, 6.0]);
        assert_eq!(agg[1], vec![0.0, 0.0]);
    }

    #[test]
    fn identity_parameters_pass_features_through() {
        let user_adj = vec![vec![0], vec![0]];
        let item_adj = vec![vec![0, 1]];
        let uf = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let if_ = vec![vec![5.0, 6.0]];
        let steps = [identity_step(2)];
        let (zu, zi) = embed_all(&user_adj, &item_adj, &uf, &if_, &steps, &steps, 0.01);
        assert_eq!(zu, uf);
        assert_eq!(zi, if_);
    }

    #[test]
    fn negative_preactivations_are_leaky() {
        // W = [-I; 0] turns a positive feature negative; the slope applies.
        let mut step = identity_step(1);
        step.w[0][0] = -1.0;
        let (zu, _) = embed_all(&[vec![]], &[vec![]], &vec![vec![5.0]], &vec![vec![0.0]], &[step.clone()], &[step], 0.5);
        assert_eq!(zu, vec![vec![-2.5]]);
    }
}
