//! The full Eq. 5 edge-reconstruction loss in `f64`, with
//! finite-difference gradients — the independent check of the autograd
//! engine.
//!
//! The paper's unsupervised bipartite-graph loss is
//!
//! ```text
//! J_BG = BCE₁(f[z_u, z_i, ln(1 + S(u,i))])
//!      + Q_u · BCE₀(f[z_{u_n}, z_i, γ])
//!      + Q_i · BCE₀(f[z_u, z_{i_n}, γ])
//! ```
//!
//! where `z` are the bipartite GraphSAGE embeddings (Eqs. 1–4,
//! *including* the cross-side matrices `M_u^i` / `M_i^u`), `f` is the
//! similarity MLP over `[z_u | z_i | weight]`, and each BCE term is the
//! mean over its pair list. [`Eq5Setup`] holds every parameter as plain
//! `f64` data; [`Eq5Setup::loss`] evaluates the whole composition
//! naively (full-neighbourhood embeddings — the deterministic variant
//! the differential test builds on the tape), and [`Eq5Setup::fd_grad`]
//! differentiates it by central finite differences, one parameter entry
//! at a time. Nothing here knows about tapes, `Var`s, or adjoints — the
//! gradients come straight from the loss definition, which is exactly
//! what makes them a trustworthy oracle for `Tape::backward`.

use crate::sage::{embed_all, SageStep};
use crate::Rows64;

/// One fully connected scorer layer in `f64`.
#[derive(Clone, Debug)]
pub struct Dense64 {
    pub w: Rows64,
    pub b: Vec<f64>,
}

/// Which parameter tensor a finite difference perturbs. Step and layer
/// indices are 0-based (`UserM(0)` is the paper's `M_i^u` at step 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Eq5Param {
    /// User-side cross-side matrix `M` of step `p`.
    UserM(usize),
    /// User-side projection `W` of step `p`.
    UserW(usize),
    /// User-side bias of step `p`.
    UserB(usize),
    /// Item-side cross-side matrix `M` of step `p`.
    ItemM(usize),
    /// Item-side projection `W` of step `p`.
    ItemW(usize),
    /// Item-side bias of step `p`.
    ItemB(usize),
    /// Scorer layer `l` weight.
    ScorerW(usize),
    /// Scorer layer `l` bias.
    ScorerB(usize),
}

/// A complete, self-contained Eq. 5 problem instance.
#[derive(Clone, Debug)]
pub struct Eq5Setup {
    /// `user_adj[u]` = item neighbours of user `u`.
    pub user_adj: Vec<Vec<usize>>,
    /// `item_adj[i]` = user neighbours of item `i`.
    pub item_adj: Vec<Vec<usize>>,
    pub user_feats: Rows64,
    pub item_feats: Rows64,
    pub user_steps: Vec<SageStep>,
    pub item_steps: Vec<SageStep>,
    /// Similarity MLP `f` over `[z_u | z_i | weight]` (leaky-ReLU
    /// hidden layers, linear output logit).
    pub scorer: Vec<Dense64>,
    /// Leaky-ReLU negative slope (0.01 in the paper).
    pub slope: f64,
    /// Positive edges `(u, i, raw_weight)`; the scorer sees
    /// `ln(1 + raw_weight)`.
    pub positives: Vec<(usize, usize, f64)>,
    /// Negative-user pairs `(u_n, i)` scored against target 0.
    pub neg_user_pairs: Vec<(usize, usize)>,
    /// Negative-item pairs `(u, i_n)` scored against target 0.
    pub neg_item_pairs: Vec<(usize, usize)>,
    /// Edge-weight stand-in `γ` fed to `f` for negative pairs.
    pub gamma: f64,
    /// Loss weight `Q_u` of the negative-user term.
    pub q_users: f64,
    /// Loss weight `Q_i` of the negative-item term.
    pub q_items: f64,
}

/// Numerically stable `-log σ(±x)` as BCE with logits:
/// `max(x, 0) - x·t + ln(1 + e^{-|x|})`.
fn bce(logit: f64, target: f64) -> f64 {
    logit.max(0.0) - logit * target + (1.0 + (-logit.abs()).exp()).ln()
}

/// Forward pass of the scorer MLP on one input row, returning the logit.
fn score(scorer: &[Dense64], slope: f64, input: &[f64]) -> f64 {
    let mut h = input.to_vec();
    let last = scorer.len() - 1;
    for (l, layer) in scorer.iter().enumerate() {
        let mut next = vec![0.0f64; layer.b.len()];
        for (j, out) in next.iter_mut().enumerate() {
            let mut acc = 0.0f64;
            for (t, &v) in h.iter().enumerate() {
                acc += v * layer.w[t][j];
            }
            acc += layer.b[j];
            *out = if l != last && acc <= 0.0 { slope * acc } else { acc };
        }
        h = next;
    }
    assert_eq!(h.len(), 1, "scorer must end in a single logit");
    h[0]
}

impl Eq5Setup {
    /// Evaluates `J_BG` exactly as written above.
    pub fn loss(&self) -> f64 {
        let (zu, zi) = embed_all(
            &self.user_adj,
            &self.item_adj,
            &self.user_feats,
            &self.item_feats,
            &self.user_steps,
            &self.item_steps,
            self.slope,
        );
        let pair_input = |u: usize, i: usize, weight: f64| -> Vec<f64> {
            let mut row = zu[u].clone();
            row.extend_from_slice(&zi[i]);
            row.push(weight);
            row
        };
        let mean_bce = |pairs: &mut dyn Iterator<Item = (f64, f64)>| -> f64 {
            let mut total = 0.0f64;
            let mut n = 0usize;
            for (logit, target) in pairs {
                total += bce(logit, target);
                n += 1;
            }
            total / n.max(1) as f64
        };
        let pos = mean_bce(&mut self.positives.iter().map(|&(u, i, w)| {
            (score(&self.scorer, self.slope, &pair_input(u, i, (1.0 + w).ln())), 1.0)
        }));
        let negu = mean_bce(&mut self.neg_user_pairs.iter().map(|&(un, i)| {
            (score(&self.scorer, self.slope, &pair_input(un, i, self.gamma)), 0.0)
        }));
        let negi = mean_bce(&mut self.neg_item_pairs.iter().map(|&(u, in_)| {
            (score(&self.scorer, self.slope, &pair_input(u, in_, self.gamma)), 0.0)
        }));
        pos + self.q_users * negu + self.q_items * negi
    }

    /// `(rows, cols)` of a parameter tensor (biases are `1 x d`).
    pub(crate) fn param_shape(&self, p: Eq5Param) -> (usize, usize) {
        let (m, is_bias) = self.param_ref(p);
        if is_bias { (1, m[0].len()) } else { (m.len(), m[0].len()) }
    }

    fn param_ref(&self, p: Eq5Param) -> (Rows64, bool) {
        match p {
            Eq5Param::UserM(s) => (self.user_steps[s].m.clone(), false),
            Eq5Param::UserW(s) => (self.user_steps[s].w.clone(), false),
            Eq5Param::UserB(s) => (vec![self.user_steps[s].b.clone()], true),
            Eq5Param::ItemM(s) => (self.item_steps[s].m.clone(), false),
            Eq5Param::ItemW(s) => (self.item_steps[s].w.clone(), false),
            Eq5Param::ItemB(s) => (vec![self.item_steps[s].b.clone()], true),
            Eq5Param::ScorerW(l) => (self.scorer[l].w.clone(), false),
            Eq5Param::ScorerB(l) => (vec![self.scorer[l].b.clone()], true),
        }
    }

    fn entry_mut(&mut self, p: Eq5Param, r: usize, c: usize) -> &mut f64 {
        match p {
            Eq5Param::UserM(s) => &mut self.user_steps[s].m[r][c],
            Eq5Param::UserW(s) => &mut self.user_steps[s].w[r][c],
            Eq5Param::UserB(s) => {
                assert_eq!(r, 0);
                &mut self.user_steps[s].b[c]
            }
            Eq5Param::ItemM(s) => &mut self.item_steps[s].m[r][c],
            Eq5Param::ItemW(s) => &mut self.item_steps[s].w[r][c],
            Eq5Param::ItemB(s) => {
                assert_eq!(r, 0);
                &mut self.item_steps[s].b[c]
            }
            Eq5Param::ScorerW(l) => &mut self.scorer[l].w[r][c],
            Eq5Param::ScorerB(l) => {
                assert_eq!(r, 0);
                &mut self.scorer[l].b[c]
            }
        }
    }

    /// Central finite difference `∂J/∂θ[r][c] ≈ (J(θ+ε) - J(θ-ε)) / 2ε`
    /// for a single entry. The setup is restored afterwards.
    pub(crate) fn central_diff(&mut self, p: Eq5Param, r: usize, c: usize, eps: f64) -> f64 {
        let original = *self.entry_mut(p, r, c);
        *self.entry_mut(p, r, c) = original + eps;
        let plus = self.loss();
        *self.entry_mut(p, r, c) = original - eps;
        let minus = self.loss();
        *self.entry_mut(p, r, c) = original;
        (plus - minus) / (2.0 * eps)
    }

    /// Finite-difference gradient of the whole parameter tensor.
    pub fn fd_grad(&mut self, p: Eq5Param, eps: f64) -> Rows64 {
        let (rows, cols) = self.param_shape(p);
        let mut g = vec![vec![0.0f64; cols]; rows];
        for r in 0..rows {
            for c in 0..cols {
                g[r][c] = self.central_diff(p, r, c, eps);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic instance: 2 users, 2 items, one SAGE step
    /// with dimension 2, scorer 5 -> 2 -> 1.
    fn tiny() -> Eq5Setup {
        let step = |scale: f64| SageStep {
            m: vec![vec![0.3 * scale, -0.1], vec![0.2, 0.4 * scale]],
            w: vec![
                vec![0.5, -0.2],
                vec![0.1, 0.3],
                vec![-0.4, 0.2],
                vec![0.25, -0.15],
            ],
            b: vec![0.05, -0.05],
        };
        Eq5Setup {
            user_adj: vec![vec![0, 1], vec![1]],
            item_adj: vec![vec![0], vec![0, 1]],
            user_feats: vec![vec![0.8, -0.3], vec![-0.5, 0.6]],
            item_feats: vec![vec![0.2, 0.9], vec![-0.7, 0.1]],
            user_steps: vec![step(1.0)],
            item_steps: vec![step(-1.0)],
            scorer: vec![
                Dense64 {
                    w: vec![
                        vec![0.3, -0.2],
                        vec![-0.1, 0.4],
                        vec![0.2, 0.1],
                        vec![0.15, -0.3],
                        vec![0.5, 0.25],
                    ],
                    b: vec![0.02, -0.02],
                },
                Dense64 { w: vec![vec![0.6], vec![-0.35]], b: vec![0.01] },
            ],
            slope: 0.01,
            positives: vec![(0, 0, 2.0), (0, 1, 1.0), (1, 1, 3.0)],
            neg_user_pairs: vec![(1, 0), (0, 1)],
            neg_item_pairs: vec![(0, 1), (1, 0)],
            gamma: 0.7,
            q_users: 2.0,
            q_items: 3.0,
        }
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let l = tiny().loss();
        assert!(l.is_finite() && l > 0.0, "loss = {l}");
    }

    #[test]
    fn central_diff_restores_the_setup() {
        let mut s = tiny();
        let before = s.loss();
        let _ = s.central_diff(Eq5Param::UserM(0), 1, 0, 1e-4);
        assert_eq!(s.loss(), before);
    }

    #[test]
    fn fd_grads_are_nonzero_for_every_parameter() {
        // Every parameter (both cross-side matrices included) must
        // influence the loss on this instance.
        let mut s = tiny();
        for p in [
            Eq5Param::UserM(0),
            Eq5Param::UserW(0),
            Eq5Param::UserB(0),
            Eq5Param::ItemM(0),
            Eq5Param::ItemW(0),
            Eq5Param::ItemB(0),
            Eq5Param::ScorerW(0),
            Eq5Param::ScorerB(0),
            Eq5Param::ScorerW(1),
            Eq5Param::ScorerB(1),
        ] {
            let g = s.fd_grad(p, 1e-5);
            let max = g.iter().flatten().fold(0.0f64, |a, &v| a.max(v.abs()));
            assert!(max > 1e-9, "{p:?} gradient is all zero");
        }
    }

    #[test]
    fn gamma_only_affects_negative_terms() {
        let mut s = tiny();
        s.neg_user_pairs.clear();
        s.neg_item_pairs.clear();
        let base = s.loss();
        s.gamma = 10.0;
        assert_eq!(s.loss(), base);
    }
}
