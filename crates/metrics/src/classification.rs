//! Classification and ranking metrics beyond AUC.

/// Mean binary cross entropy (log loss) of probabilities against labels.
///
/// Probabilities are clamped to `[eps, 1 - eps]` with `eps = 1e-7`.
pub fn log_loss(probs: &[f32], labels: &[bool]) -> f64 {
    assert_eq!(probs.len(), labels.len(), "log_loss: length mismatch");
    if probs.is_empty() {
        return 0.0;
    }
    let eps = 1e-7f64;
    let mut total = 0f64;
    for (&p, &l) in probs.iter().zip(labels) {
        let p = (p as f64).clamp(eps, 1.0 - eps);
        total -= if l { p.ln() } else { (1.0 - p).ln() };
    }
    total / probs.len() as f64
}

/// Accuracy at a decision threshold.
pub fn accuracy(probs: &[f32], labels: &[bool], threshold: f32) -> f64 {
    assert_eq!(probs.len(), labels.len(), "accuracy: length mismatch");
    if probs.is_empty() {
        return 0.0;
    }
    let correct = probs
        .iter()
        .zip(labels)
        .filter(|&(&p, &l)| (p >= threshold) == l)
        .count();
    correct as f64 / probs.len() as f64
}

/// Indices of `scores` from highest to lowest; NaN scores rank last, so
/// one can never displace a real score from the top `k`.
fn descending_order(scores: &[f32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[a].is_nan().cmp(&scores[b].is_nan()).then(scores[b].total_cmp(&scores[a]))
    });
    order
}

/// Precision of the top-`k` scored items: the fraction of the `k` highest
/// scores whose labels are positive.
pub fn precision_at_k(scores: &[f32], labels: &[bool], k: usize) -> f64 {
    assert_eq!(scores.len(), labels.len(), "precision_at_k: length mismatch");
    let k = k.min(scores.len());
    if k == 0 {
        return 0.0;
    }
    let order = descending_order(scores);
    let hits = order[..k].iter().filter(|&&i| labels[i]).count();
    hits as f64 / k as f64
}

/// Recall of the top-`k`: fraction of all positives ranked in the top `k`.
pub fn recall_at_k(scores: &[f32], labels: &[bool], k: usize) -> f64 {
    assert_eq!(scores.len(), labels.len(), "recall_at_k: length mismatch");
    let positives = labels.iter().filter(|&&l| l).count();
    if positives == 0 {
        return 0.0;
    }
    let k = k.min(scores.len());
    let order = descending_order(scores);
    let hits = order[..k].iter().filter(|&&i| labels[i]).count();
    hits as f64 / positives as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_at_k_ranks_nan_scores_last() {
        // A NaN of either sign must neither panic the sort nor take a slot.
        let scores = [f32::NAN, 0.9, 0.1, -f32::NAN];
        let labels = [false, true, true, false];
        assert_eq!(precision_at_k(&scores, &labels, 2), 1.0);
    }

    #[test]
    fn recall_at_k_ranks_nan_scores_last() {
        let scores = [f32::NAN, 0.9, 0.1, -f32::NAN];
        let labels = [true, true, false, false];
        assert_eq!(recall_at_k(&scores, &labels, 2), 0.5);
    }

    #[test]
    fn log_loss_perfect_and_bad() {
        let good = log_loss(&[0.99, 0.01], &[true, false]);
        let bad = log_loss(&[0.01, 0.99], &[true, false]);
        assert!(good < 0.05);
        assert!(bad > 3.0);
    }

    #[test]
    fn log_loss_handles_extremes() {
        let l = log_loss(&[1.0, 0.0], &[false, true]);
        assert!(l.is_finite());
    }

    #[test]
    fn accuracy_threshold() {
        let probs = [0.9, 0.2, 0.6, 0.4];
        let labels = [true, false, false, true];
        assert!((accuracy(&probs, &labels, 0.5) - 0.5).abs() < 1e-12);
        assert_eq!(accuracy(&[], &[], 0.5), 0.0);
    }

    #[test]
    fn precision_at_k_basic() {
        let scores = [0.9, 0.8, 0.7, 0.1];
        let labels = [true, false, true, true];
        assert!((precision_at_k(&scores, &labels, 2) - 0.5).abs() < 1e-12);
        assert!((precision_at_k(&scores, &labels, 3) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(precision_at_k(&scores, &labels, 0), 0.0);
        // k larger than n clamps.
        assert!((precision_at_k(&scores, &labels, 10) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn recall_at_k_basic() {
        let scores = [0.9, 0.8, 0.7, 0.1];
        let labels = [true, false, true, true];
        assert!((recall_at_k(&scores, &labels, 1) - 1.0 / 3.0).abs() < 1e-12);
        assert!((recall_at_k(&scores, &labels, 4) - 1.0).abs() < 1e-12);
        assert_eq!(recall_at_k(&scores, &[false; 4], 2), 0.0);
    }
}
