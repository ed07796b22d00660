//! A fully trained HiGNN model: the hierarchy plus the per-level
//! GraphSAGE modules that produced it.
//!
//! Keeping the trained modules enables *fold-in* inference for vertices
//! that did not exist at training time — the everyday production need
//! behind the paper's deployment story (new users arrive continuously;
//! retraining the stack per user is not an option). The modules are the
//! ones the stack's level loop trained: [`HignnModel::train`] runs that
//! loop once, with the configuration checks every build runs, and keeps
//! what the plain [`crate::stack::build_hierarchy`] drops. A new user is
//! folded in by:
//!
//! 1. appending it to the interaction graph with its observed clicks,
//! 2. running the trained level-1 GraphSAGE's exact inference to get its
//!    level-1 embedding (L2-normalised when the stack's were),
//! 3. assigning it to the nearest level-1 user cluster centroid, and
//! 4. following the existing cluster chain upward for the coarser-level
//!    embeddings.

use crate::error::HignnError;
use crate::sage::with_null_row;
use crate::stack::{build_levels, BuildOptions, Hierarchy, HignnConfig};
use crate::trainer::TrainedSage;
use hignn_cluster::kmeans::{mean_by_cluster, nearest_centroid};
use hignn_graph::BipartiteGraph;
use hignn_tensor::parallel::ParallelExecutor;
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
    /// [`HignnConfig::normalize`] of the build, applied to folded rows.
    normalize: bool,
}

impl HignnModel {
    /// Trains the full stack once, keeping each level's GraphSAGE.
    /// A bad configuration is [`HignnError::Config`] and non-finite
    /// training [`HignnError::Diverged`], as in
    /// [`crate::stack::build_hierarchy_with`].
    pub fn train(
        graph: &BipartiteGraph,
        user_feats: &Matrix,
        item_feats: &Matrix,
        cfg: &HignnConfig,
    ) -> Result<Self, HignnError> {
        let mut level_models = Vec::with_capacity(cfg.levels);
        let hierarchy = build_levels(
            graph,
            user_feats,
            item_feats,
            cfg,
            &BuildOptions::default(),
            |trained| level_models.push(trained),
        )?;
        Ok(HignnModel {
            hierarchy,
            level_models,
            graph: graph.clone(),
            user_feats: user_feats.clone(),
            item_feats: item_feats.clone(),
            normalize: cfg.normalize,
        })
    }

    /// Folds new users into the trained hierarchy.
    ///
    /// `new_user_edges[k]` lists the `k`-th new user's clicked items as
    /// `(item, weight)` pairs. Returns each new user's hierarchical
    /// embedding (`new_users x user_dim`), computed without retraining:
    /// level-1 embeddings come from the trained GraphSAGE over the
    /// extended graph; coarser levels follow the nearest level-1 cluster's
    /// existing chain. An unknown item or a non-positive or non-finite
    /// weight is refused with [`HignnError::Config`].
    pub fn fold_in_users(&self, new_user_edges: &[Vec<(u32, f32)>]) -> Result<Matrix, HignnError> {
        let n_old = self.graph.num_left();
        let n_new = new_user_edges.len();
        if n_new == 0 {
            return Ok(Matrix::zeros(0, self.hierarchy.user_dim()));
        }
        // Extended graph: original edges + new users' clicks.
        let mut edges: Vec<(u32, u32, f32)> = self.graph.edges().to_vec();
        for (k, clicks) in new_user_edges.iter().enumerate() {
            for &(item, w) in clicks {
                if item as usize >= self.graph.num_right() {
                    return Err(HignnError::Config(format!(
                        "fold_in_users: new user {k} clicked unknown item {item} ({} items)",
                        self.graph.num_right()
                    )));
                }
                if !w.is_finite() || w <= 0.0 {
                    return Err(HignnError::Config(format!(
                        "fold_in_users: new user {k}'s click on item {item} has non-positive or \
                         non-finite weight {w}"
                    )));
                }
                edges.push(((n_old + k) as u32, item, w));
            }
        }
        let extended =
            BipartiteGraph::from_edges(n_old + n_new, self.graph.num_right(), edges);
        // New users get the null row: zeros, or the learned table's null
        // row when features were trainable. Inference drops the item
        // side's null row itself.
        let level1 = &self.level_models[0];
        let padded;
        let (uf, if_) = match level1.feature_params {
            Some((u, i)) => (level1.store.get(u), level1.store.get(i)),
            None => {
                padded = with_null_row(&self.user_feats);
                (&padded, &self.item_feats)
            }
        };
        let rows: Vec<usize> = (0..n_old).chain(std::iter::repeat_n(n_old, n_new)).collect();
        let ext_uf = uf.gather_rows(&rows);
        let one = ParallelExecutor::single();
        let (mut zu, _zi) = level1.sage.embed_all(&level1.store, &extended, &ext_uf, if_, &one);
        if self.normalize {
            zu.l2_normalize_rows();
        }

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
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::trainer::param_bits;
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
        let model = HignnModel::train(&g, &uf, &if_, &cfg(2)).unwrap();
        assert_eq!(model.level_models.len(), model.hierarchy.num_levels());
        assert_eq!(model.graph.num_left(), 30);
    }

    #[test]
    fn fold_in_shapes_and_determinism() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(30, 8, &mut rng);
        let if_ = init::xavier_uniform(30, 8, &mut rng);
        let model = HignnModel::train(&g, &uf, &if_, &cfg(4)).unwrap();
        let new_users = vec![vec![(0u32, 2.0f32), (1, 1.0)], vec![(20, 3.0)]];
        let z1 = model.fold_in_users(&new_users).unwrap();
        let z2 = model.fold_in_users(&new_users).unwrap();
        assert_eq!(z1.shape(), (2, model.hierarchy.user_dim()));
        assert!(z1.max_abs_diff(&z2) < 1e-9);
        assert!(z1.all_finite());
        // Empty input.
        assert_eq!(model.fold_in_users(&[]).unwrap().rows(), 0);
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
        let model = HignnModel::train(&g, &uf, &if_, &train_cfg).unwrap();
        // New user clicking only block-A items should be closer (on the
        // hierarchical embedding) to block-A users than block-B users on
        // average.
        let new_users = vec![vec![(0u32, 1.0f32), (3, 1.0), (7, 1.0), (11, 1.0)]];
        let z = model.fold_in_users(&new_users).unwrap();
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
    fn fold_in_rejects_unknown_items() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(30, 8, &mut rng);
        let if_ = init::xavier_uniform(30, 8, &mut rng);
        let model = HignnModel::train(&g, &uf, &if_, &cfg(8)).unwrap();
        match model.fold_in_users(&[vec![(0, 1.0)], vec![(999, 1.0)]]) {
            Err(HignnError::Config(msg)) => assert!(msg.contains("unknown item 999"), "{msg}"),
            other => panic!("expected a Config error, got {other:?}"),
        }
    }

    #[test]
    fn fold_in_rejects_non_positive_and_non_finite_weights() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(30, 8, &mut rng);
        let if_ = init::xavier_uniform(30, 8, &mut rng);
        let model = HignnModel::train(&g, &uf, &if_, &cfg(10)).unwrap();
        for w in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -1.0] {
            match model.fold_in_users(&[vec![(3, 1.0), (4, w)]]) {
                Err(HignnError::Config(msg)) => assert!(msg.contains("weight"), "{w}: {msg}"),
                other => panic!("weight {w}: expected a Config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn fold_in_keeps_the_builds_normalisation() {
        // With `normalize: false` the stack stores raw level-1 rows, so
        // the folded user's level-1 block is the level-1 SAGE's raw
        // inference row over the graph with the user appended.
        let mut rng = StdRng::seed_from_u64(13);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(30, 8, &mut rng);
        let if_ = init::xavier_uniform(30, 8, &mut rng);
        let mut c = cfg(14);
        c.normalize = false;
        c.train.trainable_features = false;
        let model = HignnModel::train(&g, &uf, &if_, &c).unwrap();
        let clicks = vec![(2u32, 1.0f32), (5, 2.0), (9, 1.0)];
        let folded = model.fold_in_users(std::slice::from_ref(&clicks)).unwrap();

        let mut edges = g.edges().to_vec();
        edges.extend(clicks.iter().map(|&(i, w)| (30, i, w)));
        let extended = BipartiteGraph::from_edges(31, 30, edges);
        let ext_uf = Matrix::concat_rows(&[&uf, &Matrix::zeros(1, 8)]);
        let (zu, _) = model.level_models[0].embed_all(&extended, &ext_uf, &if_);
        let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&folded.row(0)[..zu.cols()]), bits(zu.row(30)));
        let norm = zu.row(30).iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() > 1e-3, "the raw row is already unit-norm ({norm})");
    }

    #[test]
    fn level_models_are_what_each_level_trained() {
        // Each kept module equals, bit for bit, a standalone
        // `train_unsupervised` on that level's inputs under the stack's
        // per-level policy: fixed features above level 1, 4x epochs
        // (capped at 60) under 2 000 edges, seed `cfg.seed + level`.
        let mut rng = StdRng::seed_from_u64(11);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(30, 8, &mut rng);
        let if_ = init::xavier_uniform(30, 8, &mut rng);
        let c = cfg(12);
        let model = HignnModel::train(&g, &uf, &if_, &c).unwrap();
        let plain = build_hierarchy(&g, &uf, &if_, &c);
        assert_eq!(model.level_models.len(), 2);
        assert_eq!(model.hierarchy.num_levels(), plain.num_levels());

        let (mut lg, mut xu, mut xi) = (g, uf, if_);
        let levels = model.hierarchy.levels().iter().zip(plain.levels());
        for (l, ((level, plain_level), kept)) in levels.zip(&model.level_models).enumerate() {
            assert_eq!(level.user_embeddings, plain_level.user_embeddings);
            assert_eq!(level.item_embeddings, plain_level.item_embeddings);
            assert_eq!(level.user_assignment.as_slice(), plain_level.user_assignment.as_slice());
            assert_eq!(level.item_assignment.as_slice(), plain_level.item_assignment.as_slice());

            let mut train = c.train.clone();
            train.trainable_features &= l == 0;
            if lg.num_edges() < 2000 {
                train.epochs = (train.epochs * 4).min(60);
            }
            let sage = BipartiteSageConfig { input_dim: xu.cols(), ..c.sage.clone() };
            let alone = train_unsupervised(&lg, &xu, &xi, sage, &train, c.seed + l as u64 + 1);
            assert_eq!(param_bits(kept), param_bits(&alone), "level {}", l + 1);
            assert_eq!(kept.epoch_losses, level.epoch_losses);

            lg = level.coarsened.clone();
            let mean = |z: &Matrix, a: &hignn_graph::Assignment| {
                mean_by_cluster(z, a.as_slice(), a.num_clusters())
            };
            xu = mean(&level.user_embeddings, &level.user_assignment);
            xi = mean(&level.item_embeddings, &level.item_assignment);
        }
    }
}
