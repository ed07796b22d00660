//! Taxonomy quality metrics (paper Section V.D.1).
//!
//! *Accuracy*: the paper has domain experts pick 100 topics, sample 100
//! items per topic, and judge whether items belong; our synthetic
//! generator's ground-truth labels play the expert's role, so a sampled
//! item counts as correct when its ground-truth topic matches the
//! majority ground-truth topic of its assigned cluster.
//!
//! *Diversity*: *"Items belonging to a qualified topic should cover more
//! than two different categories. We define diversity as the ratio of the
//! number of qualified topics to the number of all topics"* — measured
//! against the (separate) ontology category labels.

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};

/// Groups item indices by their assigned topic.
fn topic_members(assignment: &[u32]) -> HashMap<u32, Vec<usize>> {
    let mut map: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, &t) in assignment.iter().enumerate() {
        map.entry(t).or_default().push(i);
    }
    map
}

/// Expert-style accuracy: sample up to `topics_sampled` topics and up to
/// `items_per_topic` items in each; an item is correct when its
/// ground-truth label equals the majority ground-truth label of its topic.
///
/// Singleton-only inputs trivially score 1.0; the experiment binaries use
/// the paper's 100×100 sampling.
pub fn taxonomy_accuracy(
    assignment: &[u32],
    ground_truth: &[u32],
    topics_sampled: usize,
    items_per_topic: usize,
    rng: &mut impl Rng,
) -> f64 {
    assert_eq!(assignment.len(), ground_truth.len(), "taxonomy_accuracy: length mismatch");
    let members = topic_members(assignment);
    let mut topics: Vec<&Vec<usize>> = members.values().collect();
    topics.sort_by_key(|m| m[0]); // deterministic order before sampling
    topics.shuffle(rng);
    let mut correct = 0usize;
    let mut total = 0usize;
    for items in topics.into_iter().take(topics_sampled) {
        // Majority ground-truth label of the whole topic.
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for &i in items {
            *counts.entry(ground_truth[i]).or_insert(0) += 1;
        }
        let majority = counts
            .iter()
            .max_by_key(|&(label, c)| (*c, u32::MAX - label))
            .map(|(&label, _)| label)
            .unwrap();
        let mut sample: Vec<usize> = items.clone();
        sample.shuffle(rng);
        for &i in sample.iter().take(items_per_topic) {
            total += 1;
            if ground_truth[i] == majority {
                correct += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

/// Diversity: the fraction of topics whose members cover at least
/// `min_categories` distinct ontology categories (the paper's "more than
/// two different categories" ⇒ `min_categories = 3`).
pub fn taxonomy_diversity(
    assignment: &[u32],
    categories: &[u32],
    min_categories: usize,
) -> f64 {
    assert_eq!(assignment.len(), categories.len(), "taxonomy_diversity: length mismatch");
    let members = topic_members(assignment);
    if members.is_empty() {
        return 0.0;
    }
    let qualified = members
        .values()
        .filter(|items| {
            let mut cats: Vec<u32> = items.iter().map(|&i| categories[i]).collect();
            cats.sort_unstable();
            cats.dedup();
            cats.len() >= min_categories
        })
        .count();
    qualified as f64 / members.len() as f64
}

/// Normalised mutual information between two labelings — an additional
/// clustering-quality diagnostic not in the paper but useful for tests
/// and ablations. Every sum runs over sorted label keys, so identical
/// inputs give identical bits.
pub fn normalized_mutual_info(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len(), "normalized_mutual_info: length mismatch");
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let mut ca: BTreeMap<u32, f64> = BTreeMap::new();
    let mut cb: BTreeMap<u32, f64> = BTreeMap::new();
    let mut joint: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for i in 0..n {
        *ca.entry(a[i]).or_insert(0.0) += 1.0;
        *cb.entry(b[i]).or_insert(0.0) += 1.0;
        *joint.entry((a[i], b[i])).or_insert(0.0) += 1.0;
    }
    let n = n as f64;
    let mut mi = 0f64;
    for (&(x, y), &c) in &joint {
        let pxy = c / n;
        let px = ca[&x] / n;
        let py = cb[&y] / n;
        mi += pxy * (pxy / (px * py)).ln();
    }
    let h = |counts: &BTreeMap<u32, f64>| -> f64 {
        counts
            .values()
            .map(|&c| {
                let p = c / n;
                -p * p.ln()
            })
            .sum()
    };
    let (ha, hb) = (h(&ca), h(&cb));
    if ha <= 1e-12 || hb <= 1e-12 {
        // Convention matching scikit-learn: two constant labelings agree
        // perfectly (1.0); a constant vs an informative labeling carries
        // no mutual information (0.0).
        return if ha <= 1e-12 && hb <= 1e-12 { 1.0 } else { 0.0 };
    }
    (mi / (ha * hb).sqrt()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn accuracy_perfect_clustering() {
        let mut rng = StdRng::seed_from_u64(1);
        let assignment = vec![0, 0, 1, 1, 2, 2];
        let truth = vec![5, 5, 7, 7, 9, 9];
        let acc = taxonomy_accuracy(&assignment, &truth, 10, 10, &mut rng);
        assert!((acc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_mixed_topics() {
        let mut rng = StdRng::seed_from_u64(2);
        // Topic 0 has 3 of label 1, 1 of label 2 -> majority 1, accuracy 3/4.
        let assignment = vec![0, 0, 0, 0];
        let truth = vec![1, 1, 1, 2];
        let acc = taxonomy_accuracy(&assignment, &truth, 10, 10, &mut rng);
        assert!((acc - 0.75).abs() < 1e-12);
    }

    #[test]
    fn accuracy_sampling_bounds_items() {
        let mut rng = StdRng::seed_from_u64(3);
        let assignment = vec![0; 1000];
        let truth = vec![1; 1000];
        let acc = taxonomy_accuracy(&assignment, &truth, 1, 5, &mut rng);
        assert!((acc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diversity_counts_qualified_topics() {
        // Topic 0 covers 3 categories (qualified), topic 1 covers 1.
        let assignment = vec![0, 0, 0, 1, 1];
        let categories = vec![10, 11, 12, 20, 20];
        let d = taxonomy_diversity(&assignment, &categories, 3);
        assert!((d - 0.5).abs() < 1e-12);
        // With threshold 1 everything qualifies.
        assert!((taxonomy_diversity(&assignment, &categories, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diversity_empty() {
        assert_eq!(taxonomy_diversity(&[], &[], 3), 0.0);
    }

    #[test]
    fn nmi_identical_and_independent() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((normalized_mutual_info(&a, &a) - 1.0).abs() < 1e-9);
        // Permuted labels still match perfectly.
        let b = vec![7, 7, 3, 3, 5, 5];
        assert!((normalized_mutual_info(&a, &b) - 1.0).abs() < 1e-9);
        // A constant labeling carries no information.
        let c = vec![1; 6];
        let nmi = normalized_mutual_info(&a, &c);
        assert!(nmi < 0.05, "nmi {nmi}");
    }

    #[test]
    fn nmi_is_bit_identical_across_repeated_calls() {
        // 40 x 40 labels with every joint cell occupied (2 or 3 times):
        // enough f64 terms that a per-call summation order (each
        // `HashMap` draws its own `RandomState`) moves the last digits.
        let n = 4000usize;
        let a: Vec<u32> = (0..n).map(|i| (i % 40) as u32).collect();
        let b: Vec<u32> = (0..n).map(|i| ((i / 40 * 7 + i) % 40) as u32).collect();
        let first = normalized_mutual_info(&a, &b).to_bits();
        for call in 1..64 {
            assert_eq!(normalized_mutual_info(&a, &b).to_bits(), first, "call {call}");
        }
    }
}
