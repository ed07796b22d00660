//! Builder-style configuration: one validated entry point for training.
//!
//! A hierarchy build reads [`HignnConfig`] (with its [`SageTrainConfig`]
//! and [`BipartiteSageConfig`]) and [`BuildOptions`]. [`HignnBuilder`]
//! sets every knob (including the `threads` worker count, which appears
//! here **exactly once**) through one chainable builder, and
//! [`HignnBuilder::build`] validates the whole configuration up front,
//! before anything touches the filesystem, returning a frozen
//! [`TrainSpec`] that runs the build. The checks themselves are
//! [`HignnConfig::validate`], which [`build_hierarchy_with`] runs too, so
//! a build that skips the builder refuses a bad configuration with the
//! same [`HignnError::Config`] instead of panicking inside the trainer.
//!
//! ```
//! use hignn::prelude::*;
//! use hignn_graph::BipartiteGraph;
//! use hignn_tensor::init;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut edges = Vec::new();
//! for u in 0..20u32 {
//!     let base = if u < 10 { 0 } else { 10 };
//!     for k in 0..4u32 { edges.push((u, base + (u + k) % 10, 1.0)); }
//! }
//! let graph = BipartiteGraph::from_edges(20, 20, edges);
//! let mut rng = StdRng::seed_from_u64(0);
//! let user_feats = init::xavier_uniform(20, 8, &mut rng);
//! let item_feats = init::xavier_uniform(20, 8, &mut rng);
//!
//! let spec = HignnBuilder::new()
//!     .levels(2)
//!     .input_dim(8)
//!     .embedding_dim(8)
//!     .fanouts(vec![3, 2])
//!     .epochs(1)
//!     .batch_edges(32)
//!     .alpha_decay(4.0)
//!     .seed(7)
//!     .threads(1)
//!     .build()
//!     .unwrap();
//! let hierarchy = spec.run(&graph, &user_feats, &item_feats).unwrap();
//! assert_eq!(hierarchy.hierarchical_users().rows(), 20);
//! ```

use std::path::{Path, PathBuf};

use crate::checkpoint::CheckpointStore;
use crate::error::HignnError;
use crate::sage::BipartiteSageConfig;
use crate::stack::{
    build_hierarchy_with, BuildOptions, ClusterCounts, Hierarchy, HignnConfig, KMeansAlgo,
};
use crate::trainer::SageTrainConfig;
use hignn_graph::{BipartiteGraph, SamplingMode};
use hignn_tensor::Matrix;

/// Chainable, validated configuration of a full HiGNN training run.
///
/// Construct with [`HignnBuilder::new`] (paper defaults), override what
/// you need, then call [`HignnBuilder::build`] to validate everything at
/// once and obtain a [`TrainSpec`].
#[derive(Clone, Debug)]
pub struct HignnBuilder {
    cfg: HignnConfig,
    threads: usize,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
}

impl Default for HignnBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl HignnBuilder {
    /// A builder with the paper's defaults (3 levels, mean aggregator,
    /// alpha-decay cluster counts, 1 worker thread).
    pub fn new() -> Self {
        HignnBuilder {
            cfg: HignnConfig::default(),
            threads: 1,
            checkpoint_dir: None,
            resume: false,
        }
    }

    // --- hierarchy shape -------------------------------------------------

    /// Number of levels `L`.
    pub fn levels(mut self, levels: usize) -> Self {
        self.cfg.levels = levels;
        self
    }

    /// Base RNG seed (each level derives its own stream).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// L2-normalise each level's embeddings (default on).
    pub fn normalize(mut self, normalize: bool) -> Self {
        self.cfg.normalize = normalize;
        self
    }

    // --- GraphSAGE -------------------------------------------------------

    /// Input feature dimensionality of level 1.
    pub fn input_dim(mut self, dim: usize) -> Self {
        self.cfg.sage.input_dim = dim;
        self
    }

    /// Embedding dimensionality of every step output.
    pub fn embedding_dim(mut self, dim: usize) -> Self {
        self.cfg.sage.dim = dim;
        self
    }

    /// Neighbours sampled per depth (`fanouts.len()` = number of steps).
    pub fn fanouts(mut self, fanouts: Vec<usize>) -> Self {
        self.cfg.sage.fanouts = fanouts;
        self
    }

    /// Neighbour sampling mode (uniform or edge-weight-biased).
    pub fn sampling(mut self, mode: SamplingMode) -> Self {
        self.cfg.sage.sampling = mode;
        self
    }

    /// Replaces the whole GraphSAGE sub-config at once.
    pub fn sage_config(mut self, sage: BipartiteSageConfig) -> Self {
        self.cfg.sage = sage;
        self
    }

    // --- training --------------------------------------------------------

    /// Training epochs per level.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.cfg.train.epochs = epochs;
        self
    }

    /// Edges per minibatch.
    pub fn batch_edges(mut self, batch_edges: usize) -> Self {
        self.cfg.train.batch_edges = batch_edges;
        self
    }

    /// Learning rate.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.cfg.train.lr = lr;
        self
    }

    /// Learn level-1 input features instead of using the provided ones.
    pub fn trainable_features(mut self, trainable: bool) -> Self {
        self.cfg.train.trainable_features = trainable;
        self
    }

    /// Replaces the whole training sub-config at once.
    pub fn train_config(mut self, train: SageTrainConfig) -> Self {
        self.cfg.train = train;
        self
    }

    // --- clustering ------------------------------------------------------

    /// Cluster-count strategy `K_l = K_{l-1} / alpha`.
    pub fn alpha_decay(mut self, alpha: f64) -> Self {
        self.cfg.cluster_counts = ClusterCounts::AlphaDecay { alpha };
        self
    }

    /// K-means variant (Lloyd or single-pass).
    pub fn kmeans(mut self, algo: KMeansAlgo) -> Self {
        self.cfg.kmeans = algo;
        self
    }

    // --- execution -------------------------------------------------------

    /// Worker threads for training, inference, and clustering. Purely
    /// physical: any value >= 1 produces bit-identical hierarchies.
    /// This is the *only* place the thread count is configured.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Persist per-level checkpoints under `dir` (created on demand).
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Resume from the checkpoint directory instead of starting fresh.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    // --- finalisation ----------------------------------------------------

    /// Validates every knob at once ([`HignnConfig::validate`], the
    /// check every build runs) and freezes the configuration.
    pub fn build(self) -> Result<TrainSpec, HignnError> {
        self.cfg.validate(self.threads, self.resume, self.checkpoint_dir.is_some())?;
        Ok(TrainSpec {
            cfg: self.cfg,
            threads: self.threads,
            checkpoint_dir: self.checkpoint_dir,
            resume: self.resume,
        })
    }
}

/// A validated, frozen training configuration produced by
/// [`HignnBuilder::build`]. Running it is deterministic in everything
/// except [`HignnBuilder::threads`], which is purely physical.
#[derive(Clone, Debug)]
pub struct TrainSpec {
    cfg: HignnConfig,
    threads: usize,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
}

impl TrainSpec {
    /// The underlying (validated) stack configuration.
    pub fn config(&self) -> &HignnConfig {
        &self.cfg
    }

    /// Checkpoint directory, if checkpointing is enabled.
    pub fn checkpoint_dir(&self) -> Option<&Path> {
        self.checkpoint_dir.as_deref()
    }

    /// Builds the full hierarchy (Algorithm 1) under this spec.
    /// Non-finite training is [`HignnError::Diverged`] (exit code 5).
    pub fn run(
        &self,
        graph: &BipartiteGraph,
        user_feats: &Matrix,
        item_feats: &Matrix,
    ) -> Result<Hierarchy, HignnError> {
        let store = match &self.checkpoint_dir {
            Some(dir) => Some(CheckpointStore::create(dir)?),
            None => None,
        };
        let opts = BuildOptions {
            checkpoint: store.as_ref(),
            resume: self.resume,
            threads: self.threads,
        };
        build_hierarchy_with(graph, user_feats, item_feats, &self.cfg, &opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hignn_tensor::init;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_inputs() -> (BipartiteGraph, Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut edges = Vec::new();
        for u in 0..24u32 {
            let b = u / 8;
            for _ in 0..4 {
                edges.push((u, b * 8 + rng.gen_range(0..8), 1.0));
            }
        }
        let g = BipartiteGraph::from_edges(24, 24, edges);
        let uf = init::xavier_uniform(24, 8, &mut rng);
        let if_ = init::xavier_uniform(24, 8, &mut rng);
        (g, uf, if_)
    }

    fn small_builder() -> HignnBuilder {
        HignnBuilder::new()
            .levels(2)
            .input_dim(8)
            .embedding_dim(8)
            .fanouts(vec![4, 3])
            .sampling(SamplingMode::Uniform)
            .epochs(2)
            .batch_edges(32)
            .alpha_decay(4.0)
            .seed(1)
    }

    #[test]
    fn builder_runs_a_build() {
        let (g, uf, if_) = toy_inputs();
        let spec = small_builder().build().unwrap();
        let h = spec.run(&g, &uf, &if_).unwrap();
        assert_eq!(h.num_levels(), 2);
        assert_eq!(h.num_users(), 24);
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        // Every case is refused with the same `Config` error by the
        // builder and by `build_hierarchy_with`, which is what
        // `build_hierarchy`, `build_taxonomy` and `HignnModel` call.
        let (g, uf, if_) = toy_inputs();
        // Knobs without a setter of their own are set on the config.
        let with = |set: fn(&mut HignnConfig)| {
            let mut b = small_builder();
            set(&mut b.cfg);
            b
        };
        let cases: Vec<(HignnBuilder, &str)> = vec![
            (small_builder().levels(0), "levels"),
            (small_builder().threads(0), "threads"),
            (small_builder().fanouts(vec![]), "fanouts"),
            (small_builder().fanouts(vec![4, 0]), "fanout"),
            (small_builder().embedding_dim(0), "dim"),
            (small_builder().epochs(0), "epochs"),
            (small_builder().batch_edges(0), "batch_edges"),
            (small_builder().learning_rate(f32::NAN), "learning rate"),
            (small_builder().learning_rate(-1.0), "learning rate"),
            (with(|c| c.train.grad_shards = 0), "grad_shards"),
            (small_builder().alpha_decay(1.0), "alpha"),
            (with(|c| c.cluster_counts = ClusterCounts::Fixed(vec![])), "cluster counts"),
            (with(|c| c.cluster_counts = ClusterCounts::ChSelect { divisors: vec![] }), "divisor"),
            (small_builder().resume(true), "checkpoint"),
        ];
        let expect_config = |result: Result<(), HignnError>, path: &str, needle: &str| {
            match result {
                Err(HignnError::Config(msg)) => {
                    assert!(msg.contains(needle), "{path}: {msg:?} should mention {needle:?}")
                }
                other => panic!("{path}: expected a Config error about {needle:?}, got {other:?}"),
            }
        };
        for (builder, needle) in cases {
            let (resume, threads) = (builder.resume, builder.threads);
            let opts = BuildOptions { checkpoint: None, resume, threads };
            let direct = build_hierarchy_with(&g, &uf, &if_, &builder.cfg, &opts);
            expect_config(direct.map(drop), "build_hierarchy_with", needle);
            expect_config(builder.build().map(drop), "builder", needle);
        }
        // One input_dim sizes both sides: 8-wide users, 6-wide items.
        let narrow = init::xavier_uniform(24, 6, &mut StdRng::seed_from_u64(4));
        let cfg = small_builder().build().unwrap().cfg;
        let direct = build_hierarchy_with(&g, &uf, &narrow, &cfg, &BuildOptions::default());
        expect_config(direct.map(drop), "build_hierarchy_with", "input_dim");
    }

    #[test]
    fn threads_do_not_change_the_result() {
        let (g, uf, if_) = toy_inputs();
        let h1 = small_builder().threads(1).build().unwrap().run(&g, &uf, &if_).unwrap();
        let h4 = small_builder().threads(4).build().unwrap().run(&g, &uf, &if_).unwrap();
        assert_eq!(h1.num_levels(), h4.num_levels());
        for (l1, l4) in h1.levels().iter().zip(h4.levels()) {
            assert_eq!(l1.user_embeddings.data(), l4.user_embeddings.data());
            assert_eq!(l1.item_embeddings.data(), l4.item_embeddings.data());
            assert_eq!(l1.user_assignment.as_slice(), l4.user_assignment.as_slice());
            assert_eq!(l1.item_assignment.as_slice(), l4.item_assignment.as_slice());
        }
    }
}
