//! Cross-crate integration: query-item dataset → word2vec features →
//! HiGNN taxonomy → structural and description invariants; SHOAL
//! comparison machinery.

use hignn_baselines::build_shoal;
use hignn_integration_tests::taxonomy_fixture::{features, tiny_qi, tiny_taxonomy};
use hignn_metrics::{taxonomy_accuracy, taxonomy_diversity};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn taxonomy_structure_is_consistent() {
    let ds = tiny_qi(7);
    let tax = tiny_taxonomy(&ds, 1);
    assert!(tax.num_levels() >= 1);
    for level in 1..=tax.num_levels() {
        // Every item in exactly one topic.
        let total: usize = tax.level_topics(level).iter().map(|t| t.items.len()).sum();
        assert_eq!(total, ds.graph.num_right());
        // Parent/child agreement.
        if level < tax.num_levels() {
            for t in tax.level_topics(level) {
                let p = tax.parent(level, t.id).unwrap();
                assert!(tax.children(level + 1, p).contains(&t.id));
            }
        }
    }
}

#[test]
fn taxonomy_beats_random_assignment_on_structure() {
    let ds = tiny_qi(8);
    let tax = tiny_taxonomy(&ds, 2);
    let assignment = tax.item_assignment(1);
    let truth: Vec<u32> =
        (0..ds.graph.num_right()).map(|i| ds.truth.item_leaf_index(i)).collect();
    let mut rng = StdRng::seed_from_u64(3);
    let k = assignment.iter().copied().max().unwrap() as usize + 1;
    let random: Vec<u32> =
        (0..assignment.len()).map(|_| rng.gen_range(0..k as u32)).collect();
    let acc_tax = taxonomy_accuracy(&assignment, &truth, 100, 100, &mut rng);
    let acc_rand = taxonomy_accuracy(&random, &truth, 100, 100, &mut rng);
    assert!(
        acc_tax > acc_rand,
        "taxonomy accuracy {acc_tax} should beat random {acc_rand}"
    );
}

#[test]
fn shoal_runs_on_same_features_and_counts() {
    let ds = tiny_qi(9);
    let tax = tiny_taxonomy(&ds, 4);
    let (_qf, if_) = features(&ds, 4);
    let counts: Vec<usize> = (1..=tax.num_levels())
        .map(|l| {
            tax.item_assignment(l).iter().copied().max().unwrap() as usize + 1
        })
        .collect();
    let shoal = build_shoal(&if_, &counts);
    assert_eq!(shoal.num_levels(), tax.num_levels());
    for (lvl, a) in shoal.item_levels.iter().enumerate() {
        assert_eq!(a.len(), ds.graph.num_right());
        let div = taxonomy_diversity(a, &ds.truth.item_category, 3);
        assert!((0.0..=1.0).contains(&div), "level {lvl} diversity {div}");
    }
}

#[test]
fn descriptions_reference_real_queries() {
    let ds = tiny_qi(10);
    let tax = tiny_taxonomy(&ds, 5);
    let mut labelled = 0;
    for level in 1..=tax.num_levels() {
        for t in tax.level_topics(level) {
            for &q in &t.description_queries {
                assert!((q as usize) < ds.query_texts.len());
            }
            if !t.description.is_empty() {
                labelled += 1;
                assert!(ds.query_texts.contains(&t.description));
            }
        }
    }
    assert!(labelled > 0, "no topics were labelled");
}

use rand::Rng;
