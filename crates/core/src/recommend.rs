//! Top-K recommendation on top of the CVR predictor.
//!
//! The paper's introduction motivates HiGNN with *"improving the
//! performance of top-K recommendation and preference ranking"*; this
//! module provides the serving-side utilities: rank a candidate set for
//! a user with a trained predictor, and evaluate precision/recall@K
//! against held-out purchases.

use crate::predictor::{CvrPredictor, FeatureBlocks, Sample};
use std::collections::{HashMap, HashSet};

/// Scores `candidates` for `user` and returns the top `k` as
/// `(item, probability)`, best first. Ties break toward the smaller
/// item id (deterministic).
pub fn recommend_top_k(
    model: &CvrPredictor,
    features: &FeatureBlocks,
    user: u32,
    candidates: &[u32],
    k: usize,
) -> Vec<(u32, f32)> {
    let samples: Vec<Sample> =
        candidates.iter().map(|&i| Sample::new(user, i, false)).collect();
    let probs = model.predict(features, &samples);
    let mut scored: Vec<(u32, f32)> =
        candidates.iter().copied().zip(probs).collect();
    // NaN probabilities rank last; otherwise descending, ties by item id.
    scored.sort_by(|a, b| {
        a.1.is_nan().cmp(&b.1.is_nan()).then(b.1.total_cmp(&a.1)).then(a.0.cmp(&b.0))
    });
    scored.truncate(k);
    scored
}

/// Precision@K / recall@K of top-K recommendations against a set of
/// held-out positive `(user, item)` pairs.
///
/// For every user with at least one held-out positive, the model ranks
/// `candidates` and the top `k` are checked against that user's
/// positives; metrics are averaged over users (macro average, the usual
/// top-K protocol).
pub fn evaluate_top_k(
    model: &CvrPredictor,
    features: &FeatureBlocks,
    positives: &[(u32, u32)],
    candidates: &[u32],
    k: usize,
) -> TopKReport {
    let mut by_user: HashMap<u32, HashSet<u32>> = HashMap::new();
    for &(u, i) in positives {
        by_user.entry(u).or_default().insert(i);
    }
    let mut users: Vec<u32> = by_user.keys().copied().collect();
    users.sort_unstable();
    let mut precision = 0f64;
    let mut recall = 0f64;
    let mut hit_users = 0usize;
    for &u in &users {
        let wanted = &by_user[&u];
        let top = recommend_top_k(model, features, u, candidates, k);
        let hits = top.iter().filter(|(i, _)| wanted.contains(i)).count();
        precision += hits as f64 / k.max(1) as f64;
        recall += hits as f64 / wanted.len() as f64;
        if hits > 0 {
            hit_users += 1;
        }
    }
    let n = users.len().max(1) as f64;
    TopKReport {
        users: users.len(),
        precision_at_k: precision / n,
        recall_at_k: recall / n,
        hit_rate: hit_users as f64 / n,
        k,
    }
}

/// Macro-averaged top-K metrics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopKReport {
    /// Users evaluated (those with at least one held-out positive).
    pub users: usize,
    /// Mean precision@K.
    pub precision_at_k: f64,
    /// Mean recall@K.
    pub recall_at_k: f64,
    /// Fraction of users with at least one hit in their top K.
    pub hit_rate: f64,
    /// The K used.
    pub k: usize,
}

impl std::fmt::Display for TopKReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "P@{} {:.4} | R@{} {:.4} | hit-rate {:.4} ({} users)",
            self.k, self.precision_at_k, self.k, self.recall_at_k, self.hit_rate, self.users
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorConfig;
    use hignn_tensor::Matrix;

    /// A predictor trained so that user u likes item u (diagonal signal
    /// through the hierarchical blocks).
    fn diagonal_model() -> (CvrPredictor, Matrix, Matrix, Matrix, Matrix) {
        let n = 12;
        let uh = Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 });
        let ih = uh.clone();
        let up = Matrix::zeros(n, 1);
        let is = Matrix::zeros(n, 1);
        let mut train = Vec::new();
        for u in 0..n as u32 {
            for i in 0..n as u32 {
                train.push(Sample::new(u, i, u == i));
            }
        }
        let features = FeatureBlocks {
            user_hier: Some(&uh),
            item_hier: Some(&ih),
            user_profiles: &up,
            item_stats: &is,
        };
        let model = CvrPredictor::train(
            &features,
            &train,
            &PredictorConfig { epochs: 60, batch: 64, hidden: vec![24], lr: 5e-3, ..Default::default() },
        );
        (model, uh, ih, up, is)
    }

    #[test]
    fn top_k_ranks_the_diagonal_item_first() {
        let (model, uh, ih, up, is) = diagonal_model();
        let features = FeatureBlocks {
            user_hier: Some(&uh),
            item_hier: Some(&ih),
            user_profiles: &up,
            item_stats: &is,
        };
        let candidates: Vec<u32> = (0..12).collect();
        let mut correct = 0;
        for u in 0..12u32 {
            let top = recommend_top_k(&model, &features, u, &candidates, 3);
            assert_eq!(top.len(), 3);
            if top[0].0 == u {
                correct += 1;
            }
        }
        assert!(correct >= 9, "only {correct}/12 users got their item first");
    }

    #[test]
    fn nan_probability_ranks_last_instead_of_panicking() {
        let (model, uh, ih, up, mut is) = diagonal_model();
        is.set(4, 0, f32::NAN);
        let features = FeatureBlocks {
            user_hier: Some(&uh),
            item_hier: Some(&ih),
            user_profiles: &up,
            item_stats: &is,
        };
        let candidates: Vec<u32> = (0..12).collect();
        let top = recommend_top_k(&model, &features, 4, &candidates, 12);
        assert!(top[11].0 == 4 && top[11].1.is_nan(), "{top:?}");
        assert!(top[..11].iter().all(|&(_, p)| !p.is_nan()));
    }

    #[test]
    fn evaluate_top_k_reports_sane_metrics() {
        let (model, uh, ih, up, is) = diagonal_model();
        let features = FeatureBlocks {
            user_hier: Some(&uh),
            item_hier: Some(&ih),
            user_profiles: &up,
            item_stats: &is,
        };
        let candidates: Vec<u32> = (0..12).collect();
        let positives: Vec<(u32, u32)> = (0..12).map(|u| (u, u)).collect();
        let report = evaluate_top_k(&model, &features, &positives, &candidates, 3);
        assert_eq!(report.users, 12);
        assert!(report.recall_at_k > 0.7, "recall {}", report.recall_at_k);
        assert!(report.hit_rate >= report.recall_at_k - 1e-9);
        // Each user has exactly 1 positive: precision@3 = recall/3.
        assert!((report.precision_at_k - report.recall_at_k / 3.0).abs() < 1e-9);
    }

    #[test]
    fn top_k_clamps_and_is_deterministic() {
        let (model, uh, ih, up, is) = diagonal_model();
        let features = FeatureBlocks {
            user_hier: Some(&uh),
            item_hier: Some(&ih),
            user_profiles: &up,
            item_stats: &is,
        };
        let candidates = vec![3u32, 5];
        let a = recommend_top_k(&model, &features, 1, &candidates, 10);
        let b = recommend_top_k(&model, &features, 1, &candidates, 10);
        assert_eq!(a.len(), 2); // clamped to candidate count
        assert_eq!(a, b);
    }
}
