//! The small query-item taxonomy build shared by the end-to-end
//! taxonomy tests and the determinism suite.

use hignn::prelude::*;
use hignn_datasets::query_item::{generate_query_item, QueryItemConfig};
use hignn_graph::SamplingMode;
use hignn_tensor::Matrix;
use hignn_text::{mean_embedding, train_word2vec, Word2VecConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small query-item click dataset with a planted 3 x 3 category tree.
pub fn tiny_qi(seed: u64) -> hignn_datasets::QueryItemDataset {
    generate_query_item(&QueryItemConfig {
        num_queries: 150,
        num_items: 250,
        interactions: 5000,
        branching: vec![3, 3],
        num_categories: 15,
        focus: 0.85,
        title_tokens: 6,
        query_tokens: 3,
        seed,
    })
}

/// Mean word2vec title/query embeddings: `(query features, item features)`.
pub fn features(ds: &hignn_datasets::QueryItemDataset, seed: u64) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let emb = train_word2vec(
        &ds.corpus(),
        ds.vocab.counts(),
        &Word2VecConfig { dim: 16, epochs: 2, ..Default::default() },
        &mut rng,
    );
    let to = |tokens: &[Vec<u32>]| {
        let mut m = Matrix::zeros(tokens.len(), 16);
        for (r, t) in tokens.iter().enumerate() {
            m.set_row(r, &mean_embedding(t, &emb));
        }
        m
    };
    (to(&ds.query_tokens), to(&ds.item_tokens))
}

/// A two-level taxonomy built over [`tiny_qi`] with [`features`].
pub fn tiny_taxonomy(ds: &hignn_datasets::QueryItemDataset, seed: u64) -> Taxonomy {
    let (qf, if_) = features(ds, seed);
    let cfg = TaxonomyConfig {
        hignn: HignnConfig {
            levels: 2,
            sage: BipartiteSageConfig {
                input_dim: 16,
                dim: 16,
                fanouts: vec![4, 2],
                sampling: SamplingMode::WeightBiased,
                shared_weights: true,
                ..Default::default()
            },
            train: SageTrainConfig { epochs: 2, batch_edges: 128, ..Default::default() },
            cluster_counts: ClusterCounts::Fixed(vec![(20, 25), (5, 6)]),
            kmeans: KMeansAlgo::Lloyd,
            normalize: true,
            seed,
        },
        ..Default::default()
    };
    build_taxonomy(
        &ds.graph,
        &qf,
        &if_,
        &ds.query_texts,
        &ds.query_tokens,
        &ds.item_tokens,
        &cfg,
    )
}
