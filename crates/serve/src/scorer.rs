//! The Eq. 7 ranking head.
//!
//! The paper scores a (user, item) pair with a fully connected net over
//! `concat(z_u^H, z_i^H)` — leaky ReLU hidden layers, a linear logit
//! output (Eq. 7 / Fig. 2). The serving scorer is exactly that net,
//! with weights drawn deterministically from a seed: the HGHI format
//! carries no trained head, so the head is part of the *serving
//! configuration* — the same `(model, scorer seed)` pair always ranks
//! identically, on every thread count and platform the workspace's
//! bitwise kernel proofs cover.
//!
//! ## Prefix / resume evaluation
//!
//! Every row a request scores starts with the same `z_u^H`, so the
//! concatenation is never built. The first layer's contraction is
//! stopped after the user columns — `Scorer::user_prefix`, one
//! `1 x user_dim` product per request — and each candidate batch
//! resumes it from those partial sums over the item columns only
//! (`Scorer::score_prefixed`). The kernels add one term per ascending
//! input column into one accumulator per output, so stopping and
//! resuming performs the very additions of the concatenated product:
//! same score bits, with the user half of layer 0
//! paid once instead of once per candidate
//! (`hignn_tensor::Matrix::matmul_carried`).
//!
//! Internal tree nodes are scored by the **same** MLP on their
//! representative features (see [`crate::model::ServeModel`]), which is
//! what makes coarse scores predictive of the leaf scores beneath them
//! — the TDM-style trick that lets the beam prune branches instead of
//! items.

use hignn_tensor::nn::{Activation, Mlp};
use hignn_tensor::param::ParamStore;
use hignn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default seed for the scorer head. Fixed so that a model file alone
/// determines the ranking; override with `--scorer-seed`.
pub const DEFAULT_SCORER_SEED: u64 = 2020;

/// Hidden widths of the serving head (input and the 1-logit output are
/// implied). Smaller than the paper's offline 256/128/64 predictor —
/// the serving head trades capacity for per-request latency.
const HIDDEN: [usize; 2] = [64, 32];

/// The deterministic Eq. 7 MLP ranking head.
#[derive(Clone)]
pub struct Scorer {
    store: ParamStore,
    mlp: Mlp,
    user_dim: usize,
    item_dim: usize,
}

impl std::fmt::Debug for Scorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scorer")
            .field("user_dim", &self.user_dim)
            .field("item_dim", &self.item_dim)
            .field("hidden", &HIDDEN)
            .finish_non_exhaustive()
    }
}

impl Scorer {
    /// Builds the head for the given feature dimensions, initialising
    /// weights from `seed` (He-uniform hidden layers, Xavier output,
    /// zero biases — the workspace's standard `Mlp` initialisation).
    pub(crate) fn new(user_dim: usize, item_dim: usize, seed: u64) -> Scorer {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = [user_dim + item_dim, HIDDEN[0], HIDDEN[1], 1];
        let mlp = Mlp::new(&mut store, "serve.scorer", &dims, Activation::LeakyRelu, &mut rng);
        Scorer { store, mlp, user_dim, item_dim }
    }

    /// Scores `user_row` against the feature rows `feats[id]` for each
    /// id in `ids`, returning one logit per id in order: the Eq. 7 MLP
    /// on `[user_row | feats[id]]`, evaluated as prefix + resume (see
    /// the module docs) and bit for bit the MLP run on the materialised
    /// rows.
    ///
    /// Scores are **per-row bitwise independent**: the MLP inference
    /// kernels accumulate each output row in isolation (proven bitwise
    /// against the naive differential oracle), and every row resumes
    /// from the same prefix, so an item's score never depends on which
    /// other candidates share its batch. That row independence is what
    /// makes beam-∞ scoring bitwise identical to exhaustive scoring.
    pub fn score_against(&self, user_row: &[f32], feats: &Matrix, ids: &[u32]) -> Vec<f32> {
        self.score_prefixed(&self.user_prefix(user_row), feats, ids)
    }

    /// Layer 0's partial sums over the user columns: computed once per
    /// request, resumed from by every [`Scorer::score_prefixed`] batch.
    pub(crate) fn user_prefix(&self, user_row: &[f32]) -> Matrix {
        assert_eq!(user_row.len(), self.user_dim, "scorer: user feature dim mismatch");
        let w0 = self.store.get(self.mlp.layers()[0].weight());
        Matrix::row_vector(user_row).matmul_carried(w0, 0, None)
    }

    /// [`Scorer::score_against`] for the user whose
    /// [`Scorer::user_prefix`] is `prefix`.
    pub(crate) fn score_prefixed(&self, prefix: &Matrix, feats: &Matrix, ids: &[u32]) -> Vec<f32> {
        assert_eq!(feats.cols(), self.item_dim, "scorer: candidate feature dim mismatch");
        let mut items = Matrix::zeros(ids.len(), self.item_dim);
        for (r, &id) in ids.iter().enumerate() {
            items.set_row(r, feats.row(id as usize));
        }
        self.mlp.infer_split(&self.store, prefix, &items).into_data()
    }

    /// Exports the head's weights as plain `(weight rows, bias)` pairs,
    /// one per layer — the representation the differential-oracle test
    /// feeds to `hignn_oracle::mlp::forward` to cross-check exhaustive
    /// scores bitwise without sharing any inference code.
    pub fn export_layers(&self) -> Vec<(Vec<Vec<f32>>, Vec<f32>)> {
        self.mlp
            .layers()
            .iter()
            .map(|layer| {
                let w = self.store.get(layer.weight());
                let rows = (0..w.rows()).map(|r| w.row(r).to_vec()).collect();
                let b = self.store.get(layer.bias()).row(0).to_vec();
                (rows, b)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_scores_different_seed_different_scores() {
        let a = Scorer::new(4, 4, 7);
        let b = Scorer::new(4, 4, 7);
        let c = Scorer::new(4, 4, 8);
        let feats = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32 * 0.25 - 1.0);
        let user = [0.5, -0.25, 1.0, 0.125];
        let ids = [0u32, 1, 2];
        let sa = a.score_against(&user, &feats, &ids);
        let sb = b.score_against(&user, &feats, &ids);
        let sc = c.score_against(&user, &feats, &ids);
        assert_eq!(
            sa.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            sb.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_ne!(sa, sc, "different seeds must give a different head");
    }

    #[test]
    fn scores_are_batch_independent() {
        let s = Scorer::new(3, 3, 1);
        let feats = Matrix::from_fn(5, 3, |i, j| ((i + 1) as f32).powi(j as i32 + 1) * 0.1);
        let user = [0.25, -0.5, 0.75];
        let all = s.score_against(&user, &feats, &[0, 1, 2, 3, 4]);
        // Each candidate scored alone, and in a shuffled subset, gets
        // exactly the same bits.
        for id in 0..5u32 {
            let solo = s.score_against(&user, &feats, &[id]);
            assert_eq!(solo[0].to_bits(), all[id as usize].to_bits(), "item {id}");
        }
        let subset = s.score_against(&user, &feats, &[4, 1, 3]);
        assert_eq!(subset[0].to_bits(), all[4].to_bits());
        assert_eq!(subset[1].to_bits(), all[1].to_bits());
        assert_eq!(subset[2].to_bits(), all[3].to_bits());
    }

    /// The reference `score_against` replaced: the MLP on materialised
    /// `[user | item]` rows.
    fn materialised_scores(s: &Scorer, user: &[f32], feats: &Matrix, ids: &[u32]) -> Vec<f32> {
        let mut x = Matrix::zeros(ids.len(), s.user_dim + s.item_dim);
        for (r, &id) in ids.iter().enumerate() {
            x.row_mut(r)[..s.user_dim].copy_from_slice(user);
            x.row_mut(r)[s.user_dim..].copy_from_slice(feats.row(id as usize));
        }
        s.mlp.infer(&s.store, &x).into_data()
    }

    #[test]
    fn prefix_resume_scores_equal_the_materialised_rows_bitwise() {
        let feats = Matrix::from_fn(23, 5, |i, j| ((i * 5 + j) as f32 * 0.37).sin() * 1.5);
        let user = [0.5, -0.25, 1.0, 0.125, -1.75, 0.3, 2.0];
        let all: Vec<u32> = (0..23).collect();
        let s = Scorer::new(7, 5, 11);
        // Empty, one row, a shuffled subset with a repeat, everything.
        for ids in [&[][..], &[4], &[22, 0, 9, 9, 3], &all] {
            let got = s.score_against(&user, &feats, ids);
            let want = materialised_scores(&s, &user, &feats, ids);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{} ids",
                ids.len()
            );
        }
    }

    #[test]
    fn exported_layers_have_the_head_shape() {
        let s = Scorer::new(6, 6, 0);
        let layers = s.export_layers();
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[0].0.len(), 12); // in_dim rows
        assert_eq!(layers[0].0[0].len(), 64);
        assert_eq!(layers[1].0.len(), 64);
        assert_eq!(layers[1].0[0].len(), 32);
        assert_eq!(layers[2].0.len(), 32);
        assert_eq!(layers[2].0[0].len(), 1);
        assert_eq!(layers[2].1.len(), 1);
    }
}
