//! Serving unseen users: train a HiGNN model once, then fold brand-new
//! users (who did not exist at training time) into the hierarchy from
//! just a handful of observed clicks, and produce top-K recommendations
//! for them — the production loop behind the paper's deployment story.
//!
//! Run with:
//! ```sh
//! cargo run --release -p hignn-examples --bin serve_new_users
//! ```

use hignn::prelude::*;
use hignn_datasets::taobao::{generate_taobao, TaobaoConfig};

fn main() {
    let ds = generate_taobao(&TaobaoConfig::taobao1(0.15));
    println!(
        "catalogue: {} users, {} items, {} train edges",
        ds.num_users(),
        ds.num_items(),
        ds.graph.num_edges()
    );

    // 1. Train the full model once (hierarchy + per-level GraphSAGE kept
    //    for fold-in).
    println!("training HiGNN model ...");
    let cfg = HignnConfig {
        levels: 2,
        sage: BipartiteSageConfig { input_dim: ds.user_features.cols(), ..Default::default() },
        train: SageTrainConfig { epochs: 3, trainable_features: true, ..Default::default() },
        cluster_counts: ClusterCounts::AlphaDecay { alpha: 5.0 },
        kmeans: KMeansAlgo::Lloyd,
        normalize: true,
        seed: 21,
    };
    let model = HignnModel::train(&ds.graph, &ds.user_features, &ds.item_features, &cfg)
        .expect("training failed");
    println!(
        "hierarchy: {} levels, hierarchical user dim {}",
        model.hierarchy.num_levels(),
        model.hierarchy.user_dim()
    );

    // 2. Train the CVR predictor on the existing users.
    let zu = model.hierarchy.hierarchical_users();
    let zi = model.hierarchy.hierarchical_items();
    let features = FeatureBlocks {
        user_hier: Some(&zu),
        item_hier: Some(&zi),
        user_profiles: &ds.user_profiles,
        item_stats: &ds.item_stats,
    };
    let train: Vec<hignn::predictor::Sample> = ds
        .train
        .iter()
        .map(|s| hignn::predictor::Sample::new(s.user, s.item, s.label))
        .collect();
    let predictor = CvrPredictor::train(
        &features,
        &train,
        &PredictorConfig { epochs: 2, batch: 512, ..Default::default() },
    );

    // 3. A brand-new visitor arrives and clicks three items. Fold them in
    //    (no retraining) and look at where they land.
    let session_clicks = vec![(3u32, 2.0f32), (17, 1.0), (42, 1.0)];
    println!("\nnew visitor clicked items {:?}", session_clicks.iter().map(|c| c.0).collect::<Vec<_>>());
    let folded =
        model.fold_in_users(std::slice::from_ref(&session_clicks)).expect("clicks on known items");
    println!("folded-in hierarchical embedding: 1 x {}", folded.cols());

    // 4. Recommend top-5 items for the new visitor by splicing its
    //    embedding into the feature blocks (appended as a virtual user).
    let mut zu_ext = hignn_tensor::Matrix::zeros(zu.rows() + 1, zu.cols());
    for u in 0..zu.rows() {
        zu_ext.set_row(u, zu.row(u));
    }
    zu_ext.set_row(zu.rows(), folded.row(0));
    let mut profiles_ext = hignn_tensor::Matrix::zeros(ds.user_profiles.rows() + 1, ds.user_profiles.cols());
    for u in 0..ds.user_profiles.rows() {
        profiles_ext.set_row(u, ds.user_profiles.row(u));
    }
    let features_ext = FeatureBlocks {
        user_hier: Some(&zu_ext),
        item_hier: Some(&zi),
        user_profiles: &profiles_ext,
        item_stats: &ds.item_stats,
    };
    let virtual_user = zu.rows() as u32;
    let candidates: Vec<u32> = (0..ds.num_items() as u32).collect();
    let top = recommend_top_k(&predictor, &features_ext, virtual_user, &candidates, 5);
    println!("\ntop-5 recommendations for the new visitor:");
    for (rank, (item, p)) in top.iter().enumerate() {
        let leaf = ds.truth.item_leaf_index(*item as usize);
        println!("  {}. item {:>4}  p = {:.3}  (ground-truth topic {leaf})", rank + 1, item, p);
    }
    let clicked_leaf = ds.truth.item_leaf_index(session_clicks[0].0 as usize);
    println!("\n(first clicked item's ground-truth topic: {clicked_leaf})");
}
