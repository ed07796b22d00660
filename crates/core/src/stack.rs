//! The HiGNN hierarchy (paper Algorithm 1).
//!
//! HiGNN stacks bipartite GraphSAGE modules and a deterministic clustering
//! algorithm alternately: level `l` trains a GraphSAGE on `G^{l-1}`,
//! K-means clusters each side's embeddings (`K_u(Z_u^l)`, `K_i(Z_i^l)`),
//! the clusters become the vertices of a coarsened graph `G^l` with
//! summed edge weights (Eq. 6) and mean-member-embedding features, and the
//! process repeats until `L` levels are built.
//!
//! The learned [`Hierarchy`] exposes the paper's *hierarchical user
//! preference* `z_u^H = CONCAT(z_u^1, ..., z_u^L)` and *hierarchical item
//! attractiveness* `z_i^H` by chasing each vertex up its cluster chain.

use crate::checkpoint::{run_fingerprint, CheckpointMeta, CheckpointStore};
use crate::error::HignnError;
use crate::sage::BipartiteSageConfig;
use crate::trainer::{train_unsupervised_checked, SageTrainConfig, TrainError, TrainedSage};
use hignn_cluster::ch_index::select_k_by_ch;
use hignn_cluster::kmeans::{kmeans_with, mean_by_cluster, KMeansConfig};
use hignn_cluster::streaming::single_pass_kmeans;
use hignn_graph::{coarsen, Assignment, BipartiteGraph};
use hignn_tensor::parallel::ParallelExecutor;
use hignn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How many clusters each level uses.
#[derive(Clone, Debug)]
pub enum ClusterCounts {
    /// `K_l = K_{l-1} / alpha` (the supervised pipeline's strategy;
    /// the paper finds `alpha = 5` best).
    AlphaDecay {
        /// The decay factor `alpha`.
        alpha: f64,
    },
    /// Explicit `(K_u, K_i)` per level.
    Fixed(Vec<(usize, usize)>),
    /// Calinski-Harabasz-guided selection (the taxonomy pipeline's
    /// strategy, Eq. 13): per level, the candidate `k` maximising CH wins.
    ChSelect {
        /// Candidate divisors of the current vertex count.
        divisors: Vec<f64>,
    },
}

/// Which K-means variant clusters each level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KMeansAlgo {
    /// Full Lloyd iterations (k-means++ seeded).
    Lloyd,
    /// Single-pass (MacQueen) K-means — the paper's large-scale choice.
    SinglePass,
}

/// Configuration of the full HiGNN stack.
#[derive(Clone, Debug)]
pub struct HignnConfig {
    /// Number of levels `L` (the paper uses 3 for prediction, 4 for
    /// taxonomy).
    pub levels: usize,
    /// GraphSAGE configuration (its `input_dim` is overridden per level).
    pub sage: BipartiteSageConfig,
    /// Unsupervised training hyper-parameters.
    pub train: SageTrainConfig,
    /// Cluster-count strategy.
    pub cluster_counts: ClusterCounts,
    /// K-means variant.
    pub kmeans: KMeansAlgo,
    /// L2-normalise each level's embeddings before clustering and
    /// output (GraphSAGE's standard practice; keeps Euclidean K-means
    /// from clustering by degree-driven norm instead of topic).
    pub normalize: bool,
    /// Base RNG seed (each level derives its own).
    pub seed: u64,
}

impl Default for HignnConfig {
    fn default() -> Self {
        HignnConfig {
            levels: 3,
            sage: BipartiteSageConfig::default(),
            train: SageTrainConfig::default(),
            cluster_counts: ClusterCounts::AlphaDecay { alpha: 5.0 },
            kmeans: KMeansAlgo::Lloyd,
            normalize: true,
            seed: 0,
        }
    }
}

impl HignnConfig {
    /// Checks every knob of a build, plus the `threads` worker count and
    /// the resume flag of the run that carries it, before anything is
    /// trained or written. [`crate::builder::HignnBuilder::build`] calls
    /// it (so the CLI exits 2 before it touches the filesystem), and so
    /// does [`build_hierarchy_with`], which every other entry point goes
    /// through.
    pub(crate) fn validate(
        &self,
        threads: usize,
        resume: bool,
        checkpointed: bool,
    ) -> Result<(), HignnError> {
        let err = |msg: String| Err(HignnError::Config(msg));
        if self.levels == 0 {
            return err("levels must be at least 1".into());
        }
        if threads == 0 {
            return err("threads must be at least 1 (0 workers cannot make progress)".into());
        }
        if self.sage.fanouts.is_empty() {
            return err("fanouts must name at least one aggregation step".into());
        }
        if self.sage.fanouts.contains(&0) {
            return err("every fanout must be at least 1".into());
        }
        if self.sage.input_dim == 0 || self.sage.dim == 0 {
            return err("input_dim and embedding_dim must be positive".into());
        }
        if self.train.epochs == 0 {
            return err("epochs must be at least 1".into());
        }
        if self.train.batch_edges == 0 {
            return err("batch_edges must be at least 1".into());
        }
        if !(self.train.lr.is_finite() && self.train.lr > 0.0) {
            return err(format!("learning rate must be finite and positive, got {}", self.train.lr));
        }
        if self.train.grad_shards == 0 {
            return err("grad_shards must be at least 1".into());
        }
        match &self.cluster_counts {
            ClusterCounts::AlphaDecay { alpha } => {
                if !(alpha.is_finite() && *alpha > 1.0) {
                    return err(format!("alpha decay factor must be > 1, got {alpha}"));
                }
            }
            ClusterCounts::Fixed(counts) => {
                if counts.is_empty() {
                    return err("fixed cluster counts must name at least one level".into());
                }
            }
            ClusterCounts::ChSelect { divisors } => {
                if divisors.is_empty() {
                    return err("CH selection needs at least one candidate divisor".into());
                }
            }
        }
        if resume && !checkpointed {
            return err("resume requires a checkpoint directory".into());
        }
        Ok(())
    }
}

/// One learned level of the hierarchy.
#[derive(Clone, Debug)]
pub struct Level {
    /// `Z_u^l`: embeddings of the left vertices of `G^{l-1}`.
    pub user_embeddings: Matrix,
    /// `Z_i^l`: embeddings of the right vertices of `G^{l-1}`.
    pub item_embeddings: Matrix,
    /// `C_u^l`: left vertices of `G^{l-1}` → left vertices of `G^l`.
    pub user_assignment: Assignment,
    /// `C_i^l`: right-side assignment.
    pub item_assignment: Assignment,
    /// `G^l` as trained; ingestion leaves it, like `Z^{l+1}`, unchanged.
    pub coarsened: BipartiteGraph,
    /// Mean unsupervised loss per training epoch (diagnostic).
    pub epoch_losses: Vec<f32>,
}

/// The full hierarchical structure `{G^l, Z_u^l, Z_i^l}`.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    levels: Vec<Level>,
    num_users: usize,
    num_items: usize,
}

impl Hierarchy {
    /// Reassembles a hierarchy from its parts (used by
    /// [`crate::io::read_hierarchy_bytes`]). Validates that assignment chains
    /// line up: level 1 covers the original vertices, and each level's
    /// cluster count matches the next level's vertex count.
    pub fn from_parts(
        levels: Vec<Level>,
        num_users: usize,
        num_items: usize,
    ) -> Result<Self, String> {
        let h = Hierarchy { levels, num_users, num_items };
        h.validate()?;
        Ok(h)
    }

    /// Checks the assignment-chain invariants (shared by
    /// [`Hierarchy::from_parts`] and the streaming mutation path in
    /// [`crate::ingest`], which revalidates after patching level 1).
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.levels.is_empty() {
            return Err("no levels".into());
        }
        if self.levels[0].user_assignment.num_vertices() != self.num_users {
            return Err(format!(
                "level 1 covers {} users, expected {}",
                self.levels[0].user_assignment.num_vertices(),
                self.num_users
            ));
        }
        if self.levels[0].item_assignment.num_vertices() != self.num_items {
            return Err(format!(
                "level 1 covers {} items, expected {}",
                self.levels[0].item_assignment.num_vertices(),
                self.num_items
            ));
        }
        for w in self.levels.windows(2) {
            if w[0].user_assignment.num_clusters() != w[1].user_assignment.num_vertices() {
                return Err("user assignment chain mismatch".into());
            }
            if w[0].item_assignment.num_clusters() != w[1].item_assignment.num_vertices() {
                return Err("item assignment chain mismatch".into());
            }
        }
        Ok(())
    }

    /// Crate-private mutable access for the streaming ingest path
    /// ([`crate::ingest::apply_delta`]), which appends level-1 vertices
    /// and patches level-1 assignments, then revalidates via
    /// [`Hierarchy::validate`]. Not public: external code must go
    /// through the delta protocol so the chain invariants cannot be
    /// silently broken.
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<Level>, &mut usize, &mut usize) {
        (&mut self.levels, &mut self.num_users, &mut self.num_items)
    }

    /// Number of levels actually built (may be fewer than requested when
    /// the graph collapses early).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The levels, finest first.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Number of original users.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of original items.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Dimensionality of the hierarchical user embedding `z_u^H`.
    pub fn user_dim(&self) -> usize {
        self.levels.iter().map(|l| l.user_embeddings.cols()).sum()
    }

    /// Dimensionality of the hierarchical item embedding `z_i^H`.
    pub fn item_dim(&self) -> usize {
        self.levels.iter().map(|l| l.item_embeddings.cols()).sum()
    }

    /// The cluster chain of user `u`: its vertex id in `G^{l-1}` for each
    /// level `l = 1..=L` (`chain[0] == u`).
    pub fn user_chain(&self, u: usize) -> Vec<usize> {
        let mut chain = Vec::with_capacity(self.levels.len());
        let mut v = u;
        for level in &self.levels {
            chain.push(v);
            v = level.user_assignment.cluster_of(v) as usize;
        }
        chain
    }

    /// The cluster chain of item `i`.
    pub fn item_chain(&self, i: usize) -> Vec<usize> {
        let mut chain = Vec::with_capacity(self.levels.len());
        let mut v = i;
        for level in &self.levels {
            chain.push(v);
            v = level.item_assignment.cluster_of(v) as usize;
        }
        chain
    }

    /// `z_u^H = CONCAT(z_u^1, z_u^2, ..., z_u^L)` for one user.
    pub fn hierarchical_user(&self, u: usize) -> Vec<f32> {
        let chain = self.user_chain(u);
        let mut out = Vec::with_capacity(self.user_dim());
        for (level, &v) in self.levels.iter().zip(&chain) {
            out.extend_from_slice(level.user_embeddings.row(v));
        }
        out
    }

    /// `z_i^H` for one item.
    pub fn hierarchical_item(&self, i: usize) -> Vec<f32> {
        let chain = self.item_chain(i);
        let mut out = Vec::with_capacity(self.item_dim());
        for (level, &v) in self.levels.iter().zip(&chain) {
            out.extend_from_slice(level.item_embeddings.row(v));
        }
        out
    }

    /// Hierarchical embeddings of all users (`num_users x user_dim`).
    pub fn hierarchical_users(&self) -> Matrix {
        let mut out = Matrix::zeros(self.num_users, self.user_dim());
        for u in 0..self.num_users {
            out.set_row(u, &self.hierarchical_user(u));
        }
        out
    }

    /// Hierarchical embeddings of all items (`num_items x item_dim`).
    pub fn hierarchical_items(&self) -> Matrix {
        let mut out = Matrix::zeros(self.num_items, self.item_dim());
        for i in 0..self.num_items {
            out.set_row(i, &self.hierarchical_item(i));
        }
        out
    }

    /// Item assignment at hierarchy level `l` (1-based), composed down to
    /// the original items — i.e. each original item's cluster id in `G^l`.
    pub fn item_clusters_at(&self, l: usize) -> Assignment {
        assert!(l >= 1 && l <= self.levels.len(), "level out of range");
        let mut acc = self.levels[0].item_assignment.clone();
        for level in &self.levels[1..l] {
            acc = acc.compose(&level.item_assignment);
        }
        acc
    }

    /// User assignment at hierarchy level `l` (1-based), composed down to
    /// the original users.
    pub fn user_clusters_at(&self, l: usize) -> Assignment {
        assert!(l >= 1 && l <= self.levels.len(), "level out of range");
        let mut acc = self.levels[0].user_assignment.clone();
        for level in &self.levels[1..l] {
            acc = acc.compose(&level.user_assignment);
        }
        acc
    }
}

/// `(k, precomputed assignment)` per side — CH selection already ran
/// K-means, so its assignment is reused instead of clustering twice.
type SideCounts = (usize, Option<Vec<u32>>);

fn pick_counts(
    strategy: &ClusterCounts,
    level: usize,
    zu: &Matrix,
    zi: &Matrix,
    rng: &mut StdRng,
) -> (SideCounts, SideCounts) {
    let clamp = |k: usize, n: usize| k.clamp(2.min(n.max(1)), n.max(1));
    match strategy {
        ClusterCounts::AlphaDecay { alpha } => {
            let ku = clamp((zu.rows() as f64 / alpha).round() as usize, zu.rows());
            let ki = clamp((zi.rows() as f64 / alpha).round() as usize, zi.rows());
            ((ku, None), (ki, None))
        }
        ClusterCounts::Fixed(counts) => {
            let (ku, ki) = counts
                .get(level - 1)
                .copied()
                .unwrap_or_else(|| *counts.last().expect("Fixed counts empty"));
            ((clamp(ku, zu.rows()), None), (clamp(ki, zi.rows()), None))
        }
        ClusterCounts::ChSelect { divisors } => {
            let pick = |z: &Matrix, rng: &mut StdRng| -> SideCounts {
                let candidates: Vec<usize> = divisors
                    .iter()
                    .map(|d| clamp((z.rows() as f64 / d).round() as usize, z.rows()))
                    .filter(|&k| k >= 2 && k < z.rows())
                    .collect();
                if candidates.is_empty() {
                    return (clamp(2, z.rows()), None);
                }
                let (k, assignment, _ch) = select_k_by_ch(z, &candidates, rng);
                (k, Some(assignment))
            };
            (pick(zu, rng), pick(zi, rng))
        }
    }
}

/// Options for [`build_hierarchy_with`]: checkpointing, resume and the
/// worker count.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions<'a> {
    /// Where to persist per-level checkpoints (`None` = no
    /// checkpointing, the plain [`build_hierarchy`] behaviour).
    pub checkpoint: Option<&'a CheckpointStore>,
    /// Resume from the checkpoint directory instead of starting fresh.
    /// Requires `checkpoint` and a meta record whose fingerprint
    /// matches the current inputs.
    pub resume: bool,
    /// Worker threads for training, inference, and clustering. Purely
    /// physical: any value produces bit-identical hierarchies (and
    /// checkpoints written at one thread count resume at any other),
    /// because all work decomposition is derived from the config, never
    /// from this knob.
    pub threads: usize,
}

impl Default for BuildOptions<'_> {
    fn default() -> Self {
        BuildOptions { checkpoint: None, resume: false, threads: 1 }
    }
}

/// The stopping condition of Algorithm 1's outer loop: a coarsened
/// graph too small (or too sparse) to cluster further.
fn coarse_exhausted(g: &BipartiteGraph) -> bool {
    g.num_edges() == 0 || g.num_left() < 4 || g.num_right() < 4
}

/// Seed of level `level`'s clustering RNG. Each level derives its own
/// stream (rather than sharing one sequential generator) so that a
/// resumed build replays the exact stream of an uninterrupted one.
fn level_rng_seed(base: u64, level: usize) -> u64 {
    (base ^ 0xC1A5).wrapping_add(((level - 1) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Trains, clusters, and coarsens one level, handing its trained
/// GraphSAGE to `keep` once the level's embeddings are checked. Pure
/// function of its arguments — the determinism that makes
/// checkpoint/resume byte-identical.
fn build_one_level(
    g: &BipartiteGraph,
    xu: &Matrix,
    xi: &Matrix,
    cfg: &HignnConfig,
    level: usize,
    exec: &ParallelExecutor,
    keep: &mut impl FnMut(TrainedSage),
) -> Result<Level, HignnError> {
    let mut rng = StdRng::seed_from_u64(level_rng_seed(cfg.seed, level));
    // (Z_u^l, Z_i^l) <- BG(G^{l-1}, X_u^{l-1}, X_i^{l-1})
    let sage_cfg = BipartiteSageConfig { input_dim: xu.cols(), ..cfg.sage.clone() };
    // Trainable feature tables only make sense at level 1 (raw
    // vertices with uninformative features); coarser levels inherit
    // informative mean-member embeddings.
    let mut train_cfg = cfg.train.clone();
    if level > 1 {
        train_cfg.trainable_features = false;
    }
    // Coarsened graphs are orders of magnitude smaller; give them
    // proportionally more epochs (still cheap) so the upper levels
    // are not undertrained relative to level 1.
    if g.num_edges() < 2000 {
        train_cfg.epochs = (train_cfg.epochs * 4).min(60);
    }
    let train_seed = cfg.seed.wrapping_add(level as u64);
    // Algorithm-1 phase spans: `level{l}.{train,embed,cluster,coarsen}`.
    let trained = {
        let _span = hignn_obs::span_owned(format!("level{level}.train"));
        train_unsupervised_checked(g, xu, xi, sage_cfg, &train_cfg, train_seed, exec).map_err(
            |TrainError::NonFinite { epoch, detail }| HignnError::Diverged { level, epoch, detail },
        )
    }?;
    let (mut zu, mut zi) = {
        let _span = hignn_obs::span_owned(format!("level{level}.embed"));
        trained.embed_all_with(g, xu, xi, exec)
    };
    if cfg.normalize {
        zu.l2_normalize_rows();
        zi.l2_normalize_rows();
    }
    if !(zu.all_finite() && zi.all_finite()) {
        return Err(HignnError::Diverged {
            level,
            epoch: train_cfg.epochs.saturating_sub(1),
            detail: "non-finite level embedding after inference".into(),
        });
    }
    let epoch_losses = trained.epoch_losses.clone();
    keep(trained);

    // C_u^l, C_i^l <- K_u(Z_u^l), K_i(Z_i^l)
    let (au, ai) = {
        let _span = hignn_obs::span_owned(format!("level{level}.cluster"));
        let ((ku, au_pre), (ki, ai_pre)) =
            pick_counts(&cfg.cluster_counts, level, &zu, &zi, &mut rng);
        let cluster = |z: &Matrix, k: usize, pre: Option<Vec<u32>>, rng: &mut StdRng| -> Vec<u32> {
            if let Some(a) = pre {
                return a;
            }
            match cfg.kmeans {
                KMeansAlgo::Lloyd => kmeans_with(z, &KMeansConfig::new(k), rng, exec).assignment,
                KMeansAlgo::SinglePass => single_pass_kmeans(z, k, 4 * k, rng, exec).1,
            }
        };
        let au_raw = cluster(&zu, ku, au_pre, &mut rng);
        let ai_raw = cluster(&zi, ki, ai_pre, &mut rng);
        let num_ku =
            au_raw.iter().map(|&c| c as usize + 1).max().unwrap_or(1).max(ku.min(zu.rows()));
        let num_ki =
            ai_raw.iter().map(|&c| c as usize + 1).max().unwrap_or(1).max(ki.min(zi.rows()));
        (Assignment::new(au_raw, num_ku), Assignment::new(ai_raw, num_ki))
    };

    // G^l <- F(C_u^l, C_i^l, G^{l-1}); its features come from `next_inputs`.
    let coarsened = {
        let _span = hignn_obs::span_owned(format!("level{level}.coarsen"));
        coarsen(g, &au, &ai)
    };

    Ok(Level {
        user_embeddings: zu,
        item_embeddings: zi,
        user_assignment: au,
        item_assignment: ai,
        coarsened,
        epoch_losses,
    })
}

/// `(X_u^l, X_i^l)`: the input features of the level above a finished
/// level — each cluster's mean member embedding. A deterministic
/// function of the stored level, so a resumed build replays it from a
/// checkpoint and persists nothing extra.
fn next_inputs(level: &Level) -> (Matrix, Matrix) {
    let side = |z: &Matrix, a: &Assignment| mean_by_cluster(z, a.as_slice(), a.num_clusters());
    (
        side(&level.user_embeddings, &level.user_assignment),
        side(&level.item_embeddings, &level.item_assignment),
    )
}

/// Builds the full HiGNN hierarchy over `graph` (Algorithm 1).
///
/// Stops early (returning fewer levels) if a coarsened graph becomes too
/// small to cluster further or loses all edges. Convenience wrapper
/// over [`build_hierarchy_with`] with default options (no
/// checkpointing).
///
/// # Panics
/// If `cfg` is invalid ([`HignnError::Config`]) or training produces a
/// non-finite loss, parameter or embedding ([`HignnError::Diverged`]);
/// call [`build_hierarchy_with`] to get either as an error instead.
pub fn build_hierarchy(
    graph: &BipartiteGraph,
    user_feats: &Matrix,
    item_feats: &Matrix,
    cfg: &HignnConfig,
) -> Hierarchy {
    build_hierarchy_with(graph, user_feats, item_feats, cfg, &BuildOptions::default())
        .unwrap_or_else(|e| panic!("build_hierarchy: {e}"))
}

/// [`build_hierarchy`] with crash safety: per-level checkpointing and
/// resume. A bad configuration is [`HignnError::Config`] before anything
/// runs ([`HignnConfig::validate`], plus user and item features of one
/// width, one row per vertex), and non-finite training is always checked
/// and returned as [`HignnError::Diverged`].
///
/// With `opts.checkpoint` set, every completed level is persisted
/// atomically before the next begins, and `opts.resume` continues an
/// interrupted run from its last durable level — producing a hierarchy
/// **identical** to the uninterrupted one (each level's RNG stream is
/// derived independently from `cfg.seed`, so nothing depends on how
/// many levels ran in this process).
pub fn build_hierarchy_with(
    graph: &BipartiteGraph,
    user_feats: &Matrix,
    item_feats: &Matrix,
    cfg: &HignnConfig,
    opts: &BuildOptions<'_>,
) -> Result<Hierarchy, HignnError> {
    build_levels(graph, user_feats, item_feats, cfg, opts, drop)
}

/// The level loop of [`build_hierarchy_with`], the one code that trains
/// a level. Each level's trained GraphSAGE goes to `keep` as soon as its
/// embeddings are checked; levels restored from a checkpoint have none.
pub(crate) fn build_levels(
    graph: &BipartiteGraph,
    user_feats: &Matrix,
    item_feats: &Matrix,
    cfg: &HignnConfig,
    opts: &BuildOptions<'_>,
    mut keep: impl FnMut(TrainedSage),
) -> Result<Hierarchy, HignnError> {
    cfg.validate(opts.threads, opts.resume, opts.checkpoint.is_some())?;
    let (uf, itf) = (user_feats.shape(), item_feats.shape());
    if uf.1 != itf.1 || (uf.0, itf.0) != (graph.num_left(), graph.num_right()) {
        return Err(HignnError::Config(format!(
            "user features {uf:?} and item features {itf:?} for {} users and {} items: one \
             input_dim sizes both sides, one row per vertex",
            graph.num_left(),
            graph.num_right()
        )));
    }

    let fingerprint = run_fingerprint(graph, user_feats, item_feats, cfg);
    // The meta commit point, carrying the observability counters so far
    // (empty when metrics are off) so a resumed run continues them.
    let commit_meta = |store: &CheckpointStore, levels_done: usize| {
        let meta = CheckpointMeta {
            fingerprint,
            seed: cfg.seed,
            levels_total: cfg.levels as u64,
            levels_done: levels_done as u64,
            threads: opts.threads as u64,
        };
        let snapshot = if hignn_obs::enabled() {
            hignn_obs::global().snapshot()
        } else {
            hignn_obs::MetricsSnapshot::default()
        };
        store.write_meta(&meta, &snapshot)
    };
    let mut levels: Vec<Level> = Vec::with_capacity(cfg.levels);
    if let Some(store) = opts.checkpoint {
        if opts.resume {
            let (_meta, loaded) = store.load_state(fingerprint, cfg.levels)?;
            levels = loaded;
            if hignn_obs::log_enabled() {
                hignn_obs::log_event(
                    "resume",
                    &[("levels_done", hignn_obs::LogValue::Uint(levels.len() as u64))],
                );
            }
        } else {
            // Fresh run: (re)initialise the meta record.
            commit_meta(store, 0)?;
        }
    }

    let exec = ParallelExecutor::new(opts.threads);
    for level in levels.len() + 1..=cfg.levels {
        let last = levels.last();
        if last.is_some_and(|l| coarse_exhausted(&l.coarsened)) {
            break;
        }
        // Level l's inputs are a deterministic function of level l-1 as
        // stored, so a resumed build replays them from its checkpoint.
        let next = last.map(next_inputs);
        let (g, xu, xi) = match (last, &next) {
            (Some(last), Some((xu, xi))) => (&last.coarsened, xu, xi),
            _ => (graph, user_feats, item_feats),
        };
        let built = build_one_level(g, xu, xi, cfg, level, &exec, &mut keep)?;

        // Count the level before the meta commit point so the
        // checkpointed counter snapshot includes it.
        if hignn_obs::enabled() {
            hignn_obs::counter_add("stack.levels_built", 1);
        }
        if let Some(store) = opts.checkpoint {
            // Level record first, then the meta commit point: a
            // crash in between leaves an orphan level file that a
            // resumed run simply overwrites.
            store.save_level(level, &built)?;
            commit_meta(store, level)?;
        }

        if hignn_obs::log_enabled() {
            use hignn_obs::LogValue;
            hignn_obs::log_event(
                "level_done",
                &[
                    ("level", LogValue::Uint(level as u64)),
                    ("user_clusters", LogValue::Uint(built.user_assignment.num_clusters() as u64)),
                    ("item_clusters", LogValue::Uint(built.item_assignment.num_clusters() as u64)),
                    ("coarse_edges", LogValue::Uint(built.coarsened.num_edges() as u64)),
                ],
            );
        }
        levels.push(built);
    }

    Ok(Hierarchy { levels, num_users: graph.num_left(), num_items: graph.num_right() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hignn_graph::SamplingMode;
    use hignn_tensor::init;
    use rand::Rng;

    fn block_graph(blocks: usize, per: usize, rng: &mut StdRng) -> BipartiteGraph {
        let n = blocks * per;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            let b = u as usize / per;
            for _ in 0..5 {
                let i = (b * per + rng.gen_range(0..per)) as u32;
                edges.push((u, i, 1.0));
            }
        }
        BipartiteGraph::from_edges(n, n, edges)
    }

    fn small_cfg(levels: usize) -> HignnConfig {
        HignnConfig {
            levels,
            sage: BipartiteSageConfig {
                input_dim: 8,
                dim: 8,
                fanouts: vec![4, 3],
                sampling: SamplingMode::Uniform,
                ..Default::default()
            },
            train: SageTrainConfig {
                epochs: 3,
                batch_edges: 32,
                lr: 5e-3,
                neg_pool: 16,
                ..Default::default()
            },
            cluster_counts: ClusterCounts::AlphaDecay { alpha: 4.0 },
            kmeans: KMeansAlgo::Lloyd,
            normalize: true,
            seed: 1,
        }
    }

    #[test]
    fn builds_requested_levels() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = block_graph(4, 10, &mut rng);
        let uf = init::xavier_uniform(40, 8, &mut rng);
        let if_ = init::xavier_uniform(40, 8, &mut rng);
        let h = build_hierarchy(&g, &uf, &if_, &small_cfg(2));
        assert_eq!(h.num_levels(), 2);
        assert_eq!(h.num_users(), 40);
        // Level 1 embeds original vertices; level 2 embeds ~40/4 clusters.
        assert_eq!(h.levels()[0].user_embeddings.rows(), 40);
        let k1 = h.levels()[0].user_assignment.num_clusters();
        assert_eq!(h.levels()[1].user_embeddings.rows(), k1);
        assert!((2..=12).contains(&k1), "k1 = {k1}");
    }

    #[test]
    fn hierarchical_embeddings_concat_levels() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = block_graph(3, 8, &mut rng);
        let uf = init::xavier_uniform(24, 8, &mut rng);
        let if_ = init::xavier_uniform(24, 8, &mut rng);
        let h = build_hierarchy(&g, &uf, &if_, &small_cfg(2));
        assert_eq!(h.user_dim(), 16);
        let zh = h.hierarchical_users();
        assert_eq!(zh.shape(), (24, 16));
        // The chained embedding equals level embeddings at chain positions.
        let chain = h.user_chain(5);
        let manual: Vec<f32> = h.levels()[0]
            .user_embeddings
            .row(chain[0])
            .iter()
            .chain(h.levels()[1].user_embeddings.row(chain[1]))
            .copied()
            .collect();
        assert_eq!(zh.row(5), manual.as_slice());
    }

    #[test]
    fn coarsening_preserves_total_weight() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = block_graph(3, 8, &mut rng);
        let uf = init::xavier_uniform(24, 8, &mut rng);
        let if_ = init::xavier_uniform(24, 8, &mut rng);
        let h = build_hierarchy(&g, &uf, &if_, &small_cfg(2));
        for level in h.levels() {
            assert!((level.coarsened.total_weight() - g.total_weight()).abs() < 1e-3);
        }
    }

    #[test]
    fn clusters_at_composes() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = block_graph(3, 8, &mut rng);
        let uf = init::xavier_uniform(24, 8, &mut rng);
        let if_ = init::xavier_uniform(24, 8, &mut rng);
        let h = build_hierarchy(&g, &uf, &if_, &small_cfg(2));
        let at2 = h.item_clusters_at(2);
        for i in 0..24 {
            let chain = h.item_chain(i);
            let expected = h.levels()[1].item_assignment.cluster_of(chain[1]);
            assert_eq!(at2.cluster_of(i), expected);
        }
    }

    #[test]
    fn recovers_block_structure_at_top_level() {
        // 3 blocks of 12; after one level with alpha ~ 12 the user clusters
        // should align with blocks far better than chance.
        let mut rng = StdRng::seed_from_u64(9);
        let g = block_graph(3, 12, &mut rng);
        let uf = init::xavier_uniform(36, 8, &mut rng);
        let if_ = init::xavier_uniform(36, 8, &mut rng);
        let mut cfg = small_cfg(1);
        cfg.cluster_counts = ClusterCounts::Fixed(vec![(3, 3)]);
        cfg.train.epochs = 30;
        cfg.train.lr = 1e-2;
        let h = build_hierarchy(&g, &uf, &if_, &cfg);
        let assignment: Vec<u32> = (0..36)
            .map(|u| h.levels()[0].user_assignment.cluster_of(u))
            .collect();
        let truth: Vec<u32> = (0..36).map(|u| (u / 12) as u32).collect();
        let nmi = hignn_metrics::normalized_mutual_info(&assignment, &truth);
        assert!(nmi > 0.5, "block recovery NMI {nmi}");
    }

    #[test]
    fn ch_select_strategy_runs() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = block_graph(3, 8, &mut rng);
        let uf = init::xavier_uniform(24, 8, &mut rng);
        let if_ = init::xavier_uniform(24, 8, &mut rng);
        let mut cfg = small_cfg(2);
        cfg.cluster_counts = ClusterCounts::ChSelect { divisors: vec![3.0, 5.0, 8.0] };
        let h = build_hierarchy(&g, &uf, &if_, &cfg);
        assert!(h.num_levels() >= 1);
    }

    #[test]
    fn single_pass_kmeans_strategy_runs() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = block_graph(3, 8, &mut rng);
        let uf = init::xavier_uniform(24, 8, &mut rng);
        let if_ = init::xavier_uniform(24, 8, &mut rng);
        let mut cfg = small_cfg(1);
        cfg.kmeans = KMeansAlgo::SinglePass;
        let h = build_hierarchy(&g, &uf, &if_, &cfg);
        assert_eq!(h.num_levels(), 1);
    }
}
