//! A fully trained HiGNN model: the hierarchy plus the per-level
//! GraphSAGE modules that produced it.
//!
//! Keeping the trained modules enables *fold-in* inference for vertices
//! that did not exist at training time — the everyday production need
//! behind the paper's deployment story (new users arrive continuously;
//! retraining the stack per user is not an option). A new user is folded
//! in by:
//!
//! 1. appending it to the interaction graph with its observed clicks,
//! 2. running the trained level-1 GraphSAGE's exact inference to get its
//!    level-1 embedding,
//! 3. assigning it to the nearest level-1 user cluster centroid, and
//! 4. following the existing cluster chain upward for the coarser-level
//!    embeddings.

use crate::sage::with_null_row;
use crate::stack::{build_hierarchy, Hierarchy, HignnConfig};
use crate::trainer::{train_unsupervised, TrainedSage};
use hignn_cluster::kmeans::{mean_by_cluster, nearest_centroid};
use hignn_graph::BipartiteGraph;
use hignn_tensor::Matrix;

/// A trained hierarchy together with its level models and the training
/// inputs needed for fold-in inference.
pub struct HignnModel {
    /// The learned hierarchical structure.
    pub hierarchy: Hierarchy,
    /// The trained GraphSAGE of each level (finest first).
    pub level_models: Vec<TrainedSage>,
    graph: BipartiteGraph,
    user_feats: Matrix,
    item_feats: Matrix,
}

impl HignnModel {
    /// Trains the full stack, keeping the level models (the plain
    /// [`build_hierarchy`] discards them).
    pub fn train(
        graph: &BipartiteGraph,
        user_feats: &Matrix,
        item_feats: &Matrix,
        cfg: &HignnConfig,
    ) -> Self {
        // Build the hierarchy, then retrain level models against the same
        // seeds; `train_unsupervised` is deterministic given (graph,
        // feats, seed), so the level-1 model here is exactly the one the
        // hierarchy used.
        let hierarchy = build_hierarchy(graph, user_feats, item_feats, cfg);
        let mut level_models = Vec::with_capacity(hierarchy.num_levels());
        let mut g = graph.clone();
        let mut xu = user_feats.clone();
        let mut xi = item_feats.clone();
        for (idx, level) in hierarchy.levels().iter().enumerate() {
            let sage_cfg = crate::sage::BipartiteSageConfig {
                input_dim: xu.cols(),
                ..cfg.sage.clone()
            };
            let mut train_cfg = cfg.train.clone();
            if idx > 0 {
                train_cfg.trainable_features = false;
            }
            if g.num_edges() < 2000 {
                train_cfg.epochs = (train_cfg.epochs * 4).min(60);
            }
            let trained = train_unsupervised(
                &g,
                &xu,
                &xi,
                sage_cfg,
                &train_cfg,
                cfg.seed.wrapping_add(idx as u64 + 1),
            );
            level_models.push(trained);
            // Advance inputs exactly as build_hierarchy did.
            g = level.coarsened.clone();
            xu = mean_by_cluster(
                &level.user_embeddings,
                level.user_assignment.as_slice(),
                level.user_assignment.num_clusters(),
            );
            xi = mean_by_cluster(
                &level.item_embeddings,
                level.item_assignment.as_slice(),
                level.item_assignment.num_clusters(),
            );
        }
        HignnModel {
            hierarchy,
            level_models,
            graph: graph.clone(),
            user_feats: user_feats.clone(),
            item_feats: item_feats.clone(),
        }
    }

    /// Folds new users into the trained hierarchy.
    ///
    /// `new_user_edges[k]` lists the `k`-th new user's clicked items as
    /// `(item, weight)` pairs. Returns each new user's hierarchical
    /// embedding (`new_users x user_dim`), computed without retraining:
    /// level-1 embeddings come from the trained GraphSAGE over the
    /// extended graph; coarser levels follow the nearest level-1 cluster's
    /// existing chain.
    pub fn fold_in_users(&self, new_user_edges: &[Vec<(u32, f32)>]) -> Matrix {
        let n_old = self.graph.num_left();
        let n_new = new_user_edges.len();
        if n_new == 0 {
            return Matrix::zeros(0, self.hierarchy.user_dim());
        }
        // Extended graph: original edges + new users' clicks.
        let mut edges: Vec<(u32, u32, f32)> = self.graph.edges().to_vec();
        for (k, clicks) in new_user_edges.iter().enumerate() {
            for &(item, w) in clicks {
                assert!(
                    (item as usize) < self.graph.num_right(),
                    "fold_in_users: unknown item {item}"
                );
                edges.push(((n_old + k) as u32, item, w.max(1e-3)));
            }
        }
        let extended =
            BipartiteGraph::from_edges(n_old + n_new, self.graph.num_right(), edges);
        // Extended user features: new users get the null (zero) feature,
        // or the learned table's null row when features were trainable.
        let level1 = &self.level_models[0];
        let (uf, if_) = match level1.feature_params {
            Some((u, i)) => (level1.store.get(u).clone(), level1.store.get(i).clone()),
            None => (with_null_row(&self.user_feats), with_null_row(&self.item_feats)),
        };
        let null_row: Vec<f32> = uf.row(uf.rows() - 1).to_vec();
        let mut ext_uf = Matrix::zeros(n_old + n_new, uf.cols());
        for u in 0..n_old {
            ext_uf.set_row(u, uf.row(u));
        }
        for k in 0..n_new {
            ext_uf.set_row(n_old + k, &null_row);
        }
        let item_rows: Vec<usize> = (0..self.graph.num_right()).collect();
        let if_trim = if_.gather_rows(&item_rows);
        let (mut zu, _zi) = level1.sage.embed_all(&level1.store, &extended, &ext_uf, &if_trim);
        zu.l2_normalize_rows();

        // Level-1 cluster centroids from the stored level embeddings.
        let level1_data = &self.hierarchy.levels()[0];
        let centroids = mean_by_cluster(
            &level1_data.user_embeddings,
            level1_data.user_assignment.as_slice(),
            level1_data.user_assignment.num_clusters(),
        );
        let mut out = Matrix::zeros(n_new, self.hierarchy.user_dim());
        for k in 0..n_new {
            let z1 = zu.row(n_old + k);
            let (cluster, _) = nearest_centroid(&centroids, z1);
            // Assemble: own level-1 embedding, then the chain of the
            // nearest cluster for the coarser levels.
            let mut row = Vec::with_capacity(self.hierarchy.user_dim());
            row.extend_from_slice(z1);
            let mut v = cluster;
            for level in &self.hierarchy.levels()[1..] {
                row.extend_from_slice(level.user_embeddings.row(v));
                v = level.user_assignment.cluster_of(v) as usize;
            }
            out.set_row(k, &row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use hignn_graph::SamplingMode;
    use hignn_tensor::init;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn block_graph(rng: &mut StdRng) -> BipartiteGraph {
        let mut edges = Vec::new();
        for u in 0..30u32 {
            let base = if u < 15 { 0 } else { 15 };
            for _ in 0..5 {
                edges.push((u, base + rng.gen_range(0..15u32), 1.0));
            }
        }
        BipartiteGraph::from_edges(30, 30, edges)
    }

    fn cfg(seed: u64) -> HignnConfig {
        HignnConfig {
            levels: 2,
            sage: BipartiteSageConfig {
                input_dim: 8,
                dim: 8,
                fanouts: vec![4, 2],
                sampling: SamplingMode::Uniform,
                ..Default::default()
            },
            train: SageTrainConfig {
                epochs: 4,
                batch_edges: 32,
                neg_pool: 16,
                trainable_features: true,
                ..Default::default()
            },
            cluster_counts: ClusterCounts::Fixed(vec![(6, 6), (2, 2)]),
            kmeans: KMeansAlgo::Lloyd,
            normalize: true,
            seed,
        }
    }

    #[test]
    fn model_keeps_one_sage_per_level() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(30, 8, &mut rng);
        let if_ = init::xavier_uniform(30, 8, &mut rng);
        let model = HignnModel::train(&g, &uf, &if_, &cfg(2));
        assert_eq!(model.level_models.len(), model.hierarchy.num_levels());
        assert_eq!(model.graph.num_left(), 30);
    }

    #[test]
    fn fold_in_shapes_and_determinism() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(30, 8, &mut rng);
        let if_ = init::xavier_uniform(30, 8, &mut rng);
        let model = HignnModel::train(&g, &uf, &if_, &cfg(4));
        let new_users = vec![vec![(0u32, 2.0f32), (1, 1.0)], vec![(20, 3.0)]];
        let z1 = model.fold_in_users(&new_users);
        let z2 = model.fold_in_users(&new_users);
        assert_eq!(z1.shape(), (2, model.hierarchy.user_dim()));
        assert!(z1.max_abs_diff(&z2) < 1e-9);
        assert!(z1.all_finite());
        // Empty input.
        assert_eq!(model.fold_in_users(&[]).rows(), 0);
    }

    #[test]
    fn folded_user_lands_near_its_block() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(30, 8, &mut rng);
        let if_ = init::xavier_uniform(30, 8, &mut rng);
        // More epochs than the other model tests: this one asserts a
        // geometric property of the learned space, which needs the
        // block structure to actually be learned, not just initialised.
        let mut train_cfg = cfg(6);
        train_cfg.train.epochs = 12;
        train_cfg.train.lr = 5e-3;
        let model = HignnModel::train(&g, &uf, &if_, &train_cfg);
        // New user clicking only block-A items should be closer (on the
        // hierarchical embedding) to block-A users than block-B users on
        // average.
        let new_users = vec![vec![(0u32, 1.0f32), (3, 1.0), (7, 1.0), (11, 1.0)]];
        let z = model.fold_in_users(&new_users);
        let zu = model.hierarchy.hierarchical_users();
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
        };
        let d_a: f32 =
            (0..15).map(|u| dist(z.row(0), zu.row(u))).sum::<f32>() / 15.0;
        let d_b: f32 =
            (15..30).map(|u| dist(z.row(0), zu.row(u))).sum::<f32>() / 15.0;
        assert!(d_a < d_b, "folded user not near its block: A {d_a} vs B {d_b}");
    }

    #[test]
    #[should_panic(expected = "unknown item")]
    fn fold_in_rejects_unknown_items() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(30, 8, &mut rng);
        let if_ = init::xavier_uniform(30, 8, &mut rng);
        let model = HignnModel::train(&g, &uf, &if_, &cfg(8));
        model.fold_in_users(&[vec![(999, 1.0)]]);
    }
}
