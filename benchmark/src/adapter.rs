//! The only file that names the program under test.
//!
//! Every call the benchmark makes into `hignn*` goes through a function
//! here, and only un-suffixed public entry points are used, so a PR
//! that collapses the `_with` / `_mode` siblings (ROADMAP item 3) or
//! changes a signature has exactly one file to adapt — and needs a
//! benchmark issue for that line (see the README). The types
//! re-exported below are read elsewhere only as plain data
//! (`Matrix::rows/cols/row`, the fields of `ScoredItem`,
//! `IngestReport` and `HierarchyDelta`).

use std::path::Path;

use hignn::ingest::{hierarchy_fingerprint, read_delta_bytes, write_delta};
use hignn::prelude::*;
use hignn::trainer::train_unsupervised;
use hignn_cluster::kmeans::{assign_all, kmeans, nearest_centroid, KMeansConfig};
use hignn_datasets::taobao::{generate_taobao, TaobaoConfig};
use hignn_graph::{coarsen, sample_neighbors, Assignment, NegativeSampler, SamplingMode, Side};
use hignn_metrics::taxonomy::normalized_mutual_info;
use hignn_serve::BeamWidth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use hignn::ingest::{HierarchyDelta, IngestReport};
pub use hignn::stack::Hierarchy;
pub use hignn::trainer::TrainedSage;
pub use hignn_graph::BipartiteGraph;
pub use hignn_serve::{ScoredItem, ServeModel};
pub use hignn_tensor::Matrix;

/// One weighted interaction `(user, item, weight)`.
pub type Edge = (u32, u32, f32);

/// Scorer seed the CLI serves with by default; the scorer is part of
/// the program, not of the workload.
const SCORER_SEED: u64 = hignn_serve::DEFAULT_SCORER_SEED;

/// Model settings shared by every workload (`pipeline::hignn_config`).
pub const EMBEDDING_DIM: usize = 32;
pub const FANOUTS: [usize; 2] = [8, 4];
pub const BATCH_EDGES: usize = 256;
pub const ALPHA: f64 = 5.0;
/// Negatives per positive edge on each side (`SageTrainConfig` default);
/// with the positive pair it fixes the zero-logit loss `7 ln 2`.
pub const NEGATIVES_PER_SIDE: usize = 3;

/// Which synthetic generator a workload draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    /// `TaobaoConfig::taobao1`: many interactions per node.
    Dense,
    /// `TaobaoConfig::taobao2`: cold-start, few interactions per node.
    Sparse,
}

/// What the benchmark keeps of a generated dataset.
pub struct Dataset {
    pub num_users: usize,
    pub num_items: usize,
    pub edges: Vec<Edge>,
    pub user_features: Matrix,
    pub item_features: Matrix,
    /// Ground-truth leaf topic of every item (the NMI reference).
    pub item_leaf: Vec<u32>,
}

pub fn generate(kind: DatasetKind, scale: f64, seed: u64) -> Dataset {
    let base = match kind {
        DatasetKind::Dense => TaobaoConfig::taobao1(scale),
        DatasetKind::Sparse => TaobaoConfig::taobao2(scale),
    };
    let ds = generate_taobao(&TaobaoConfig { seed, ..base });
    let item_leaf = (0..ds.num_items())
        .map(|i| ds.truth.item_leaf_index(i))
        .collect();
    Dataset {
        num_users: ds.num_users(),
        num_items: ds.num_items(),
        edges: ds.graph.edges().to_vec(),
        user_features: ds.user_features,
        item_features: ds.item_features,
        item_leaf,
    }
}

/// First `rows` rows of `m`, copied (features of the base vertices).
pub fn row_prefix(m: &Matrix, rows: usize) -> Matrix {
    let cols = m.cols();
    Matrix::from_vec(rows, cols, m.data()[..rows * cols].to_vec())
}

pub fn graph_from_edges(num_users: usize, num_items: usize, edges: &[Edge]) -> BipartiteGraph {
    BipartiteGraph::from_edges(num_users, num_items, edges.iter().copied())
}

pub fn num_edges(graph: &BipartiteGraph) -> usize {
    graph.num_edges()
}

pub fn simd_backend() -> &'static str {
    hignn_tensor::simd::backend().name()
}

// --- training ----------------------------------------------------------

/// The knobs a workload sets; everything else is the shared model
/// configuration above.
#[derive(Clone, Copy, Debug)]
pub struct TrainSettings {
    pub levels: usize,
    pub epochs: usize,
    pub seed: u64,
}

pub fn train(
    s: TrainSettings,
    threads: usize,
    graph: &BipartiteGraph,
    user_feats: &Matrix,
    item_feats: &Matrix,
) -> Result<Hierarchy, String> {
    HignnBuilder::new()
        .levels(s.levels)
        .input_dim(user_feats.cols())
        .embedding_dim(EMBEDDING_DIM)
        .fanouts(FANOUTS.to_vec())
        .sampling(SamplingMode::WeightBiased)
        .epochs(s.epochs)
        .batch_edges(BATCH_EDGES)
        .learning_rate(2e-3)
        .trainable_features(true)
        .alpha_decay(ALPHA)
        .seed(s.seed)
        .threads(threads)
        .build()
        .and_then(|spec| spec.run(graph, user_feats, item_feats))
        .map_err(|e| e.to_string())
}

/// One level-1 GraphSAGE training run of `epochs` epochs, outside the
/// stack (the `core::trainer` probe).
pub fn train_level1(
    graph: &BipartiteGraph,
    user_feats: &Matrix,
    item_feats: &Matrix,
    epochs: usize,
    seed: u64,
) -> TrainedSage {
    let sage = BipartiteSageConfig {
        input_dim: user_feats.cols(),
        dim: EMBEDDING_DIM,
        fanouts: FANOUTS.to_vec(),
        sampling: SamplingMode::WeightBiased,
        ..Default::default()
    };
    let cfg = SageTrainConfig {
        epochs,
        batch_edges: BATCH_EDGES,
        lr: 2e-3,
        trainable_features: true,
        ..Default::default()
    };
    train_unsupervised(graph, user_feats, item_feats, sage, &cfg, seed)
}

pub fn embed_all(
    trained: &TrainedSage,
    graph: &BipartiteGraph,
    user_feats: &Matrix,
    item_feats: &Matrix,
) -> (Matrix, Matrix) {
    trained.embed_all(graph, user_feats, item_feats)
}

pub fn fingerprint(h: &Hierarchy) -> u64 {
    hierarchy_fingerprint(h)
}

pub fn embeddings_finite(h: &Hierarchy) -> bool {
    h.levels()
        .iter()
        .all(|l| l.user_embeddings.all_finite() && l.item_embeddings.all_finite())
}

/// Mean loss of each level-1 epoch.
pub fn level1_losses(h: &Hierarchy) -> &[f32] {
    &h.levels()[0].epoch_losses
}

pub fn level1_item_embeddings(h: &Hierarchy) -> &Matrix {
    &h.levels()[0].item_embeddings
}

/// Level-1 cluster assignments `(users, items)`.
pub fn level1_assignments(h: &Hierarchy) -> (&Assignment, &Assignment) {
    let l = &h.levels()[0];
    (&l.user_assignment, &l.item_assignment)
}

pub fn item_topic_nmi(h: &Hierarchy, item_leaf: &[u32]) -> f64 {
    normalized_mutual_info(h.levels()[0].item_assignment.as_slice(), item_leaf)
}

// --- persistence ---------------------------------------------------------

pub fn save_model(path: &Path, h: &Hierarchy) -> Result<(), String> {
    hignn::io::save_hierarchy(path, h).map_err(|e| e.to_string())
}

pub fn load_hierarchy(path: &Path) -> Result<Hierarchy, String> {
    hignn::io::load_hierarchy(path).map_err(|e| e.to_string())
}

pub fn load_model(path: &Path) -> Result<ServeModel, String> {
    ServeModel::load(path, SCORER_SEED).map_err(|e| e.to_string())
}

pub fn prepare_model(h: Hierarchy) -> ServeModel {
    ServeModel::from_hierarchy(h, SCORER_SEED)
}

// --- serving -------------------------------------------------------------

/// `None` is beam ∞.
pub type Beam = Option<usize>;

fn beam_width(beam: Beam) -> BeamWidth {
    beam.map_or(BeamWidth::Infinite, BeamWidth::Finite)
}

pub fn top_k(
    model: &ServeModel,
    user: usize,
    k: usize,
    beam: Beam,
) -> Result<Vec<ScoredItem>, String> {
    model
        .top_k(user, k, beam_width(beam))
        .map_err(|e| e.to_string())
}

pub fn exhaustive_top_k(
    model: &ServeModel,
    user: usize,
    k: usize,
) -> Result<Vec<ScoredItem>, String> {
    model.exhaustive_top_k(user, k).map_err(|e| e.to_string())
}

/// Answers `users` on `threads` serving workers; true if every request
/// succeeded.
pub fn serve_batch(
    model: &ServeModel,
    users: &[usize],
    k: usize,
    beam: Beam,
    threads: usize,
) -> bool {
    let requests: Vec<hignn_serve::TopKRequest> = users
        .iter()
        .map(|&user| hignn_serve::TopKRequest {
            user,
            k,
            beam: beam_width(beam),
        })
        .collect();
    model
        .serve_batch(&requests, &ParallelExecutor::new(threads))
        .iter()
        .all(Result::is_ok)
}

pub fn num_users(model: &ServeModel) -> usize {
    model.num_users()
}

pub fn num_items(model: &ServeModel) -> usize {
    model.num_items()
}

pub fn hierarchy_of(model: &ServeModel) -> &Hierarchy {
    model.hierarchy()
}

/// `(users, items)` a hierarchy covers.
#[cfg(test)]
pub fn hierarchy_shape(h: &Hierarchy) -> (usize, usize) {
    (h.num_users(), h.num_items())
}

/// The public pieces a beam descent is made of, for re-doing one from
/// outside: tier count, tier-`l` representatives and children (1-based),
/// and the exact leaf features.
pub fn num_tiers(model: &ServeModel) -> usize {
    model.num_levels()
}

pub fn node_reps(model: &ServeModel, tier: usize) -> &Matrix {
    model.node_reps(tier)
}

pub fn children(model: &ServeModel, tier: usize) -> &[Vec<u32>] {
    model.children(tier)
}

pub fn item_features(model: &ServeModel) -> &Matrix {
    model.item_features()
}

/// Scores `user` against rows `ids` of `feats` with the model's scorer.
pub fn score_against(model: &ServeModel, user: usize, feats: &Matrix, ids: &[u32]) -> Vec<f32> {
    model
        .scorer()
        .score_against(model.user_features().row(user), feats, ids)
}

// --- streaming -------------------------------------------------------------

/// The ingesting writer.
pub struct Writer(IngestEngine);

impl Writer {
    pub fn new(h: Hierarchy, graph: BipartiteGraph) -> Result<Writer, String> {
        IngestEngine::new(h, graph, IngestConfig::default())
            .map(Writer)
            .map_err(|e| e.to_string())
    }

    pub fn ingest(&mut self, batch: &[Edge]) -> Result<(IngestReport, HierarchyDelta), String> {
        self.0.ingest(batch).map_err(|e| e.to_string())
    }

    pub fn hierarchy(&self) -> &Hierarchy {
        self.0.hierarchy()
    }
}

pub fn encode_delta(delta: &HierarchyDelta) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    write_delta(&mut bytes, delta).map_err(|e| e.to_string())?;
    Ok(bytes)
}

pub fn decode_delta(bytes: &[u8]) -> Result<HierarchyDelta, String> {
    read_delta_bytes(bytes).map_err(|e| e.to_string())
}

pub fn apply_delta(replica: &mut ServeModel, delta: &HierarchyDelta) -> Result<(), String> {
    replica.apply_delta(delta).map_err(|e| e.to_string())
}

/// The `core::ingest` half of a replica's apply: patches a bare
/// hierarchy, without the serving state `apply_delta` also maintains.
pub fn apply_delta_to_hierarchy(h: &mut Hierarchy, delta: &HierarchyDelta) -> Result<(), String> {
    hignn::ingest::apply_delta(h, delta).map_err(|e| e.to_string())
}

// --- spans the program already emits ----------------------------------------

/// Total of one `hignn-obs` span name.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramSpan {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
}

/// Turns the program's own span recording on (from a clean registry) or
/// off. Recording is inert by the program's contract: it changes no
/// output bit.
pub fn program_spans_enable(on: bool) {
    if on {
        hignn_obs::global().reset();
    }
    hignn_obs::set_enabled(on);
}

/// Reads the spans a `levels`-level build emits.
pub fn program_spans(levels: usize) -> Vec<ProgramSpan> {
    let phases = (1..=levels)
        .flat_map(|l| ["train", "embed", "cluster", "coarsen"].map(|p| format!("level{l}.{p}")));
    let inner = [
        "train.epoch",
        "cluster.kmeans",
        "graph.coarsen",
        "sage.embed_all",
    ]
    .map(String::from);
    phases
        .chain(inner)
        .filter_map(|name| {
            let stat = hignn_obs::global().span_get(&name)?;
            Some(ProgramSpan {
                name,
                count: stat.count,
                total_ns: stat.total_nanos,
            })
        })
        .collect()
}

// --- isolated layer probes -------------------------------------------------

/// `[8, 4]` weight-biased neighbour sampling for every endpoint of one
/// epoch: both hops, both sides. Returns the vertices sampled for.
pub fn sample_epoch_neighbors(graph: &BipartiteGraph, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampled_for = 0;
    for (side, pick) in [(Side::Left, 0usize), (Side::Right, 1)] {
        let endpoints: Vec<usize> = graph
            .edges()
            .iter()
            .map(|&(u, i, _)| if pick == 0 { u as usize } else { i as usize })
            .collect();
        let hop1 = sample_neighbors(
            graph,
            side,
            &endpoints,
            FANOUTS[0],
            SamplingMode::WeightBiased,
            &mut rng,
        );
        // Isolated vertices yield the null index; it has no neighbours
        // to sample, so it is left out of the second hop.
        let null = graph.num_vertices(side.opposite());
        let frontier: Vec<usize> = hop1.iter().copied().filter(|&v| v < null).collect();
        let hop2 = sample_neighbors(
            graph,
            side.opposite(),
            &frontier,
            FANOUTS[1],
            SamplingMode::WeightBiased,
            &mut rng,
        );
        std::hint::black_box(&hop2);
        sampled_for += endpoints.len() + frontier.len();
    }
    sampled_for
}

/// Draws `n` degree-biased negatives on the item side.
pub fn sample_negatives(graph: &BipartiteGraph, n: usize, seed: u64) -> Vec<usize> {
    let sampler = NegativeSampler::degree_biased(graph, Side::Right);
    sampler.sample_many(n, &mut StdRng::seed_from_u64(seed))
}

pub fn coarsen_graph(
    graph: &BipartiteGraph,
    users: &Assignment,
    items: &Assignment,
) -> BipartiteGraph {
    coarsen(graph, users, items)
}

/// What one Lloyd run reports.
pub struct KMeansRun {
    pub centroids: Matrix,
    pub iterations: usize,
}

pub fn kmeans_run(data: &Matrix, k: usize, seed: u64) -> KMeansRun {
    let res = kmeans(
        data,
        &KMeansConfig::new(k),
        &mut StdRng::seed_from_u64(seed),
    );
    KMeansRun {
        centroids: res.centroids,
        iterations: res.iterations,
    }
}

pub fn assign_rows(centroids: &Matrix, data: &Matrix) -> Vec<u32> {
    assign_all(centroids, data, &ParallelExecutor::single()).0
}

pub fn nearest(centroids: &Matrix, point: &[f32]) -> usize {
    nearest_centroid(centroids, point).0
}

/// A seeded matrix with entries in `[-1, 1)`.
pub fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    )
}

pub fn matmul_nn(a: &Matrix, b: &Matrix) -> Matrix {
    a.matmul(b)
}

pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    a.matmul_nt(b)
}

pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    a.matmul_tn(b)
}

pub fn gather_mean_pool(m: &Matrix, idx: &[usize], group: usize) -> Matrix {
    m.gather_mean_pool_rows(idx, group)
}
