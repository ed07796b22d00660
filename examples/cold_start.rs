//! Cold-start recommendation (paper Section IV.C): on a sparse
//! new-arrivals dataset, compare a graph-free ranking against HiGNN's
//! hierarchy-backed ranking in a simulated two-day A/B test — the
//! scenario behind the paper's Table IV.
//!
//! Run with:
//! ```sh
//! cargo run --release -p hignn-examples --bin cold_start
//! ```

use hignn::prelude::*;
use hignn_baselines::Variant;
use hignn_datasets::taobao::{generate_taobao, TaobaoConfig};
use hignn_simulator::{run_ab, AbConfig, PopularityRanker, ScoreFnRanker};

fn to_pred(samples: &[hignn_datasets::Sample]) -> Vec<hignn::predictor::Sample> {
    samples
        .iter()
        .map(|s| hignn::predictor::Sample::new(s.user, s.item, s.label))
        .collect()
}

fn main() {
    // Sparse cold-start world: many items, few interactions each.
    let ds = generate_taobao(&TaobaoConfig::taobao2(0.25));
    println!(
        "cold-start dataset: {} users, {} items, {} edges (density {:.2e})",
        ds.num_users(),
        ds.num_items(),
        ds.graph.num_edges(),
        ds.graph.density()
    );

    // Train the hierarchy and the CVR predictor on it.
    println!("training HiGNN ...");
    let cfg = HignnConfig {
        levels: 3,
        sage: BipartiteSageConfig { input_dim: ds.user_features.cols(), ..Default::default() },
        train: SageTrainConfig { epochs: 4, trainable_features: true, ..Default::default() },
        cluster_counts: ClusterCounts::AlphaDecay { alpha: 5.0 },
        kmeans: KMeansAlgo::Lloyd,
        normalize: true,
        seed: 13,
    };
    let hierarchy = build_hierarchy(&ds.graph, &ds.user_features, &ds.item_features, &cfg);
    let (uh, ih) = Variant::HiGnn.embeddings(&hierarchy);
    let features = FeatureBlocks {
        user_hier: uh.as_ref(),
        item_hier: ih.as_ref(),
        user_profiles: &ds.user_profiles,
        item_stats: &ds.item_stats,
    };
    let model = CvrPredictor::train(
        &features,
        &to_pred(&ds.train),
        &PredictorConfig { epochs: 3, batch: 512, ..Default::default() },
    );

    // Control: popularity ranking (what a system without personalisation
    // serves to cold items). Treatment: HiGNN scoring.
    let popularity: Vec<f32> = (0..ds.num_items())
        .map(|i| ds.graph.neighbors(hignn_graph::Side::Right, i).1.iter().sum::<f32>())
        .collect();
    let control = PopularityRanker::new(popularity);
    let treatment = ScoreFnRanker::new("HiGNN", |user, candidates| {
        let samples: Vec<hignn::predictor::Sample> = candidates
            .iter()
            .map(|&i| hignn::predictor::Sample::new(user as u32, i, false))
            .collect();
        model.predict(&features, &samples)
    });

    // Candidate pool: the coldest half of the catalogue.
    let mut by_clicks: Vec<(u32, f32)> = (0..ds.num_items() as u32)
        .map(|i| {
            (i, ds.graph.neighbors(hignn_graph::Side::Right, i as usize).1.iter().sum::<f32>())
        })
        .collect();
    by_clicks.sort_by(|a, b| a.1.total_cmp(&b.1));
    let pool: Vec<u32> = by_clicks[..ds.num_items() / 2].iter().map(|&(i, _)| i).collect();

    println!("running 2-day A/B on {} cold items ...", pool.len());
    let outcome = run_ab(
        &ds.truth,
        &pool,
        &control,
        &treatment,
        &AbConfig { sessions_per_day: 4000, days: 2, seed: 77, ..Default::default() },
    );
    for (d, cmp) in outcome.days.iter().enumerate() {
        println!("\nday {}:\n{cmp}", d + 1);
    }
    println!("\ncombined:\n{}", outcome.total());
}
