//! Cross-crate integration: save a trained hierarchy, reload it, and
//! verify downstream consumers (predictor features, taxonomy-style
//! assignments) behave identically; and a checkpoint write that fails
//! leaves no record behind.

use hignn::io::{read_hierarchy_bytes, write_hierarchy};
use hignn::prelude::*;
use hignn_baselines::Variant;
use hignn_datasets::taobao::{generate_taobao, TaobaoConfig};
use hignn_datasets::InteractionDataset;
use hignn_graph::SamplingMode;
use hignn_integration_tests::crash_after_level;
use hignn_metrics::auc;

fn tiny_inputs() -> (InteractionDataset, HignnConfig) {
    let ds = generate_taobao(&TaobaoConfig {
        num_users: 200,
        num_items: 120,
        train_interactions: 4000,
        test_interactions: 800,
        branching: vec![3, 3],
        num_categories: 10,
        focus: 0.7,
        base_purchase_logit: -2.5,
        affinity_gain: 4.0,
        quality_gain: 0.4,
        feature_dim: 8,
        max_history: 8,
        seed: 91,
    });
    let cfg = HignnConfig {
        levels: 2,
        sage: BipartiteSageConfig {
            input_dim: 8,
            dim: 8,
            fanouts: vec![4, 2],
            sampling: SamplingMode::WeightBiased,
            ..Default::default()
        },
        train: SageTrainConfig { epochs: 2, batch_edges: 128, ..Default::default() },
        cluster_counts: ClusterCounts::AlphaDecay { alpha: 5.0 },
        kmeans: KMeansAlgo::Lloyd,
        normalize: true,
        seed: 92,
    };
    (ds, cfg)
}

fn tiny() -> (InteractionDataset, Hierarchy) {
    let (ds, cfg) = tiny_inputs();
    let h = build_hierarchy(&ds.graph, &ds.user_features, &ds.item_features, &cfg);
    (ds, h)
}

fn serialize(h: &Hierarchy) -> Vec<u8> {
    let mut buf = Vec::new();
    write_hierarchy(&mut buf, h).expect("in-memory write cannot fail");
    buf
}

#[test]
fn a_failed_checkpoint_write_leaves_no_record_and_a_rerun_recovers() {
    let (ds, cfg) = tiny_inputs();
    let build = |opts: &BuildOptions<'_>| {
        build_hierarchy_with(&ds.graph, &ds.user_features, &ds.item_features, &cfg, opts)
    };
    let clean = serialize(&build(&BuildOptions::default()).unwrap());
    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("hignn_persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::create(dir).unwrap()
    };
    let checkpointed = |store, resume| BuildOptions { checkpoint: Some(store), resume, threads: 1 };

    // A directory where the fresh run's meta temp file goes makes the
    // first commit fail before anything is renamed into place.
    let store = scratch("meta");
    let blocker = store.dir().join("meta.tmp");
    std::fs::create_dir(&blocker).unwrap();
    let err = build(&checkpointed(&store, false)).unwrap_err();
    assert_eq!(err.exit_code(), 3, "expected an I/O error, got: {err}");
    assert!(!store.has_meta(), "a failed first meta write must leave no record");
    std::fs::remove_dir(&blocker).unwrap();
    let rerun = build(&checkpointed(&store, false)).unwrap();
    assert_eq!(serialize(&rerun), clean, "a fresh rerun diverged from the clean run");
    let _ = std::fs::remove_dir_all(store.dir());

    // The same for level 1's record: the meta still says no level is
    // done, and resuming starts from level 1.
    let store = scratch("level");
    crash_after_level(&store, 0, || build(&checkpointed(&store, false)));
    assert!(!store.level_path(1).exists(), "a level record appeared");
    let rerun = build(&checkpointed(&store, true)).unwrap();
    assert_eq!(serialize(&rerun), clean, "the resumed rerun diverged from the clean run");
    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn reloaded_hierarchy_drives_identical_predictions() {
    let (ds, h) = tiny();
    let mut buf = Vec::new();
    write_hierarchy(&mut buf, &h).unwrap();
    let reloaded = read_hierarchy_bytes(&buf).unwrap();

    let to_pred = |samples: &[hignn_datasets::Sample]| -> Vec<hignn::predictor::Sample> {
        samples
            .iter()
            .map(|s| hignn::predictor::Sample::new(s.user, s.item, s.label))
            .collect()
    };
    let labels: Vec<bool> = ds.test.iter().map(|s| s.label).collect();

    let mut aucs = Vec::new();
    for hierarchy in [&h, &reloaded] {
        let (uh, ih) = Variant::HiGnn.embeddings(hierarchy);
        let features = FeatureBlocks {
            user_hier: uh.as_ref(),
            item_hier: ih.as_ref(),
            user_profiles: &ds.user_profiles,
            item_stats: &ds.item_stats,
        };
        let model = CvrPredictor::train(
            &features,
            &to_pred(&ds.train),
            &PredictorConfig { epochs: 1, batch: 256, hidden: vec![32], seed: 7, ..Default::default() },
        );
        let probs = model.predict(&features, &to_pred(&ds.test));
        aucs.push(auc(&probs, &labels));
    }
    // Same inputs + same seed: byte-identical training, identical AUC.
    assert_eq!(aucs[0], aucs[1]);
}

#[test]
fn reloaded_hierarchy_preserves_cluster_structure() {
    let (ds, h) = tiny();
    let mut buf = Vec::new();
    write_hierarchy(&mut buf, &h).unwrap();
    let reloaded = read_hierarchy_bytes(&buf).unwrap();
    for level in 1..=h.num_levels() {
        let a = h.item_clusters_at(level);
        let b = reloaded.item_clusters_at(level);
        for i in 0..ds.num_items() {
            assert_eq!(a.cluster_of(i), b.cluster_of(i));
        }
    }
    for u in [0usize, 11, 57] {
        assert_eq!(h.user_chain(u), reloaded.user_chain(u));
        assert_eq!(h.hierarchical_user(u), reloaded.hierarchical_user(u));
    }
}
