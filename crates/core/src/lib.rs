//! # hignn
//!
//! A from-scratch Rust implementation of **HiGNN** — *Hierarchical
//! Bipartite Graph Neural Networks: Towards Large-Scale E-commerce
//! Applications* (Li et al., ICDE 2020).
//!
//! HiGNN stacks bipartite GraphSAGE modules and a deterministic clustering
//! algorithm alternately: each level trains a two-sided GraphSAGE on the
//! current bipartite graph, K-means clusters both sides' embeddings, and
//! the clusters become the vertices of a coarsened graph for the next
//! level. The result is *hierarchical user preference* and *hierarchical
//! item attractiveness* embeddings used for CVR/CTR prediction
//! (Section IV) and unsupervised topic-driven taxonomy construction
//! (Section V).
//!
//! Modules:
//!
//! * [`builder`] — validated builder-style configuration
//!   ([`HignnBuilder`] → [`TrainSpec`]), the preferred entry point.
//! * [`sage`] — bipartite GraphSAGE (Eqs. 1-4; shared-weight query-item
//!   variant of Eqs. 8-11).
//! * [`trainer`] — unsupervised edge-reconstruction training with negative
//!   sampling (Eqs. 5, 12).
//! * [`stack`] — the HiGNN hierarchy (Algorithm 1), coarsening via Eq. 6.
//! * [`predictor`] — the supervised DNN of Fig. 2 (Eq. 7).
//! * [`taxonomy`] — topic-driven taxonomy with representative-query
//!   descriptions (Eqs. 13-16).
//! * [`io`] — binary persistence for trained hierarchies (CRC-checked
//!   sections, atomic writes).
//! * [`ingest`] — streaming edge ingestion: inductive inference for new
//!   vertices, incremental cluster maintenance with bounded re-coarsen,
//!   and the CRC-framed `HGHD` delta format for replica catch-up.
//! * [`checkpoint`] — crash-safe per-level training checkpoints and resume.
//! * [`error`] — structured errors with distinct process exit codes.
//! * [`model`] — trained model with fold-in inference for unseen users.
//! * [`recommend`] — top-K recommendation and evaluation utilities.
//!
//! ## Quickstart
//!
//! ```
//! use hignn::prelude::*;
//! use hignn_graph::BipartiteGraph;
//! use hignn_tensor::init;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A toy 2-community user-item graph.
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
//! let hierarchy = HignnBuilder::new()
//!     .levels(2)
//!     .input_dim(8)
//!     .embedding_dim(8)
//!     .fanouts(vec![3, 2])
//!     .epochs(1)
//!     .batch_edges(32)
//!     .alpha_decay(4.0)
//!     .seed(7)
//!     .build()
//!     .expect("validated configuration")
//!     .run(&graph, &user_feats, &item_feats)
//!     .expect("finite inputs and no checkpointing");
//! assert_eq!(hierarchy.hierarchical_users().rows(), 20);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod checkpoint;
mod crc32;
pub mod error;
mod fingerprint;
pub mod ingest;
pub mod io;
pub mod model;
pub mod predictor;
pub mod recommend;
pub mod sage;
pub mod stack;
pub mod taxonomy;
pub mod trainer;

/// Convenient re-exports of the main API surface.
pub mod prelude {
    pub use crate::builder::{HignnBuilder, TrainSpec};
    pub use crate::checkpoint::{run_fingerprint, CheckpointMeta, CheckpointStore};
    pub use crate::error::HignnError;
    pub use crate::ingest::{
        apply_delta, hierarchy_fingerprint, load_delta, read_delta_bytes, save_delta, write_delta,
        HierarchyDelta, IngestConfig, IngestEngine, IngestReport, NodeArrival,
    };
    pub use crate::predictor::{CvrPredictor, FeatureBlocks, PredictorConfig, Sample};
    pub use crate::sage::{Aggregator, BipartiteSage, BipartiteSageConfig};
    pub use crate::stack::{
        build_hierarchy, build_hierarchy_with, BuildOptions, ClusterCounts, Hierarchy, HignnConfig,
        KMeansAlgo, Level,
    };
    pub use crate::taxonomy::{build_taxonomy, Taxonomy, TaxonomyConfig, Topic};
    pub use crate::model::HignnModel;
    pub use crate::recommend::{evaluate_top_k, recommend_top_k, TopKReport};
    pub use crate::trainer::{
        train_unsupervised, train_unsupervised_checked, SageTrainConfig, TrainError, TrainedSage,
    };
    pub use hignn_tensor::ParallelExecutor;
}

pub use prelude::*;
