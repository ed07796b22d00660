//! Unsupervised training of bipartite GraphSAGE (paper Eqs. 5 and 12).
//!
//! The bipartite graph-based loss encourages connected user-item pairs to
//! score high through a learned similarity network `f` (an MLP over the
//! concatenated embeddings and the edge weight) while negative users and
//! items drawn from a degree-biased distribution `P_n` score low:
//!
//! ```text
//! J_BG = -log σ(f[concat(z_u, z_i), S(u,i)])
//!        - Q_u · E_{u_n ~ P_n(u)} log σ(-f[concat(z_{u_n}, z_i), γ])
//!        - Q_i · E_{i_n ~ P_n(i)} log σ(-f[concat(z_u, z_{i_n}), γ])
//! ```
//!
//! (The paper writes `log σ(f[...])` for the negative terms as well; as in
//! GraphSAGE we implement the standard sign convention — negatives are
//! pushed toward low scores — which is BCE with target 0.)
//!
//! Negative embeddings are computed once per shard as a shared pool and
//! paired with positives by row gathering. A shard of `n` edges embeds
//! its `n` users, its `n` items and a pool of `neg_pool` users and
//! `neg_pool` items, i.e. `2 + 2·neg_pool/n` roots per edge: 6.0 at the
//! defaults (256-edge batches in 8 shards of 32, pool 64), three times
//! the positive-only cost, against `2 + Q_u + Q_i` = 8 if each edge
//! embedded its own negatives (ROADMAP item 23).
//!
//! ## Data-parallel execution
//!
//! Each minibatch is split into [`SageTrainConfig::grad_shards`] logical
//! shards. Workers launched by a
//! [`hignn_tensor::parallel::ParallelExecutor`] share `&ParamStore`
//! immutably, run the forward/backward pass for their shard on a private
//! [`Tape`] with a shard-local RNG seeded from
//! `(seed, epoch, batch, shard)`, and the per-shard gradients are
//! combined by [`hignn_tensor::parallel::reduce_gradients`] in a fixed
//! tree order before a single optimizer step. Each worker owns one
//! [`Workspace`] buffer pool for the whole run
//! ([`ParallelExecutor::map_with`] runs shard `s` on worker `s % k`),
//! and a shard's gradient buffers go back to its worker's pool after
//! the step, so a warm minibatch leases every buffer from a pool. A
//! shard's Eq. 5 pass draws only from its `(seed, epoch, batch, shard)`
//! RNG and builds its tape ops in one fixed order. Because the
//! decomposition and every RNG stream depend only on the configuration
//! — never on the worker count — an N-thread run is bit-identical to a
//! 1-thread run.
//! There is one numeric tier: every kernel the tape and the optimizer
//! call has the naive oracle's bits (no FMA; DESIGN.md §9).

use crate::sage::{with_null_row, BipartiteSage, BipartiteSageConfig, FeatureSource};
use hignn_graph::{BipartiteGraph, NegativeSampler, Side};
use hignn_obs as obs;
use hignn_tensor::nn::{Activation, Mlp};
use hignn_tensor::optim::Adam;
use hignn_tensor::parallel::{reduce_gradients, ParallelExecutor};
use hignn_tensor::{Gradients, Matrix, ParamStore, Tape, Var, Workspace, WorkspaceStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Hyper-parameters for unsupervised GraphSAGE training.
#[derive(Clone, Debug)]
pub struct SageTrainConfig {
    /// Epochs over the edge list.
    pub epochs: usize,
    /// Edges per minibatch.
    pub batch_edges: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Negative users per positive edge (`Q_u`).
    pub neg_users: usize,
    /// Negative items per positive edge (`Q_i`).
    pub neg_items: usize,
    /// Edge-weight stand-in fed to `f` for negative pairs (`γ`). `None`
    /// (the default) uses each batch's mean transformed positive weight,
    /// which keeps the weight column uninformative for positive/negative
    /// discrimination — otherwise the scorer can minimise the loss by
    /// keying on the weight input alone and never training the
    /// embeddings.
    pub gamma: Option<f32>,
    /// Decoupled weight decay (the paper uses L2 regularisation).
    pub weight_decay: f32,
    /// Size of the shared negative pool, drawn per gradient shard: each
    /// shard samples and embeds its own pool of this many users and this
    /// many items (at least `max(neg_users, neg_items)`).
    pub neg_pool: usize,
    /// Hidden widths of the similarity MLP `f`.
    pub scorer_hidden: Vec<usize>,
    /// Treat the input features as trainable embedding tables initialised
    /// from the provided matrices. The standard treatment when vertices
    /// carry no informative raw features (our synthetic nodes use random
    /// "id-hash" features); production HiGNN has real profile features
    /// and keeps this off.
    pub trainable_features: bool,
    /// Logical gradient shards per minibatch. Part of the numeric
    /// contract: shard boundaries and per-shard RNG streams are derived
    /// from this count (never from the thread count), so changing it
    /// changes results, while changing the worker count does not. The
    /// executor runs up to this many shards concurrently.
    pub grad_shards: usize,
}

impl Default for SageTrainConfig {
    fn default() -> Self {
        SageTrainConfig {
            epochs: 2,
            batch_edges: 256,
            lr: 1e-3,
            neg_users: 3,
            neg_items: 3,
            gamma: None,
            weight_decay: 1e-5,
            neg_pool: 64,
            scorer_hidden: vec![64],
            trainable_features: false,
            grad_shards: 8,
        }
    }
}

/// Sampling stride for the per-batch derived metrics (gradient norm,
/// batch wall-clock). Counters and loss histograms stay exact per
/// batch; only these two — whose derivation cost scales with the model
/// or touches the clock twice — record every `OBS_SAMPLE`-th minibatch,
/// keeping the metrics-on overhead within the bench noise band.
const OBS_SAMPLE: usize = 8;

/// L2 norm of all gradient entries, accumulated in an f64 owned by the
/// instrumentation — the training-side f32 state is only read, so the
/// inertness contract (DESIGN.md §10) holds by construction. Called only
/// when metrics are enabled.
fn grad_l2_norm(grads: &Gradients) -> f64 {
    let mut sum_sq = 0f64;
    for (_, m) in grads.iter() {
        for &v in m.data() {
            sum_sq += (v as f64) * (v as f64);
        }
    }
    sum_sq.sqrt()
}

/// Derives the RNG seed for one gradient shard from the run seed and the
/// shard's logical coordinates (epoch, batch, shard index). SplitMix64-
/// style finalising so nearby coordinates yield unrelated streams.
fn shard_seed(seed: u64, epoch: u64, batch: u64, shard: u64) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for v in [epoch, batch, shard] {
        h ^= v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h.rotate_left(27).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    h
}

/// A trained GraphSAGE level: module + scorer + their parameters.
pub struct TrainedSage {
    /// The GraphSAGE module.
    pub sage: BipartiteSage,
    /// The similarity network `f`.
    pub scorer: Mlp,
    /// Parameter store holding both.
    pub store: ParamStore,
    /// Trainable feature tables, when
    /// [`SageTrainConfig::trainable_features`] was set.
    pub feature_params: Option<(hignn_tensor::ParamId, hignn_tensor::ParamId)>,
    /// Mean training loss per epoch (diagnostic).
    pub epoch_losses: Vec<f32>,
}

impl TrainedSage {
    /// Full-graph inference of both sides' final embeddings. When the
    /// features were trainable, the learned tables are used instead of
    /// the provided matrices.
    pub fn embed_all(
        &self,
        graph: &BipartiteGraph,
        user_feats: &Matrix,
        item_feats: &Matrix,
    ) -> (Matrix, Matrix) {
        self.embed_all_with(graph, user_feats, item_feats, &ParallelExecutor::single())
    }

    /// [`TrainedSage::embed_all`] with an explicit executor; bit-identical
    /// at any worker count.
    pub(crate) fn embed_all_with(
        &self,
        graph: &BipartiteGraph,
        user_feats: &Matrix,
        item_feats: &Matrix,
        exec: &ParallelExecutor,
    ) -> (Matrix, Matrix) {
        match self.feature_params {
            Some((u, i)) => {
                self.sage.embed_all(&self.store, graph, self.store.get(u), self.store.get(i), exec)
            }
            None => self.sage.embed_all(&self.store, graph, user_feats, item_feats, exec),
        }
    }

    /// Scores user-item pairs (higher = more likely connected), given
    /// already-computed embeddings; used by tests and link-prediction
    /// evaluations.
    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "HGHI 3 (ROADMAP item 22) lets serving score with this head")
    )]
    pub(crate) fn score_pairs(
        &self,
        zu: &Matrix,
        zi: &Matrix,
        pairs: &[(u32, u32)],
        weight: f32,
    ) -> Vec<f32> {
        let d = zu.cols();
        let mut input = Matrix::zeros(pairs.len(), 2 * d + 1);
        for (k, &(u, i)) in pairs.iter().enumerate() {
            let row = input.row_mut(k);
            row[..d].copy_from_slice(zu.row(u as usize));
            row[d..2 * d].copy_from_slice(zi.row(i as usize));
            row[2 * d] = weight;
        }
        let logits = self.scorer.infer(&self.store, &input);
        (0..pairs.len()).map(|k| logits.get(k, 0)).collect()
    }
}

/// Why [`train_unsupervised_checked`] stopped early.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrainError {
    /// A non-finite loss or parameter appeared. Every epoch's mean loss
    /// and every parameter matrix are checked, so the first NaN/Inf
    /// stops training instead of silently poisoning the levels above.
    NonFinite {
        /// 0-based epoch at which it was detected.
        epoch: usize,
        /// What was non-finite (e.g. `mean epoch loss = NaN`).
        detail: String,
    },
}

/// Trains one bipartite GraphSAGE level on `graph` with the unsupervised
/// loss, returning the trained module. Convenience wrapper over
/// [`train_unsupervised_checked`] with a single-threaded executor
/// (bit-identical to any other thread count).
///
/// # Panics
/// If an epoch's mean loss or a parameter becomes non-finite
/// ([`TrainError::NonFinite`]); call [`train_unsupervised_checked`] to
/// get that as an error instead.
pub fn train_unsupervised(
    graph: &BipartiteGraph,
    user_feats: &Matrix,
    item_feats: &Matrix,
    sage_cfg: BipartiteSageConfig,
    cfg: &SageTrainConfig,
    seed: u64,
) -> TrainedSage {
    train_unsupervised_checked(
        graph,
        user_feats,
        item_feats,
        sage_cfg,
        cfg,
        seed,
        &ParallelExecutor::single(),
    )
    .expect("train_unsupervised: training diverged")
}

/// What every shard of one minibatch reads, shared immutably across
/// workers.
struct BatchCtx<'a> {
    store: &'a ParamStore,
    sage: &'a BipartiteSage,
    scorer: &'a Mlp,
    graph: &'a BipartiteGraph,
    user_src: FeatureSource<'a>,
    item_src: FeatureSource<'a>,
    cfg: &'a SageTrainConfig,
    /// Degree-biased `P_n(u)`, built once per run.
    neg_user_sampler: &'a NegativeSampler,
    /// Degree-biased `P_n(i)`, built once per run.
    neg_item_sampler: &'a NegativeSampler,
    /// User endpoint of each positive edge.
    users: &'a [usize],
    /// Item endpoint of each positive edge.
    items: &'a [usize],
    /// Transformed positive edge weights `ln(1 + S(u,i))`.
    weights: &'a [f32],
    /// Batch-wide negative-pair weight `γ` (identical across shards of a
    /// batch regardless of decomposition).
    gamma: f32,
}

/// Pairs every positive row with `q` pool draws: returns parallel
/// `(pool_idx, pos_idx)` index vectors of length `n * q`.
fn gather_pairs(n: usize, q: usize, pool: usize, rng: &mut StdRng) -> (Vec<usize>, Vec<usize>) {
    let mut pool_idx = Vec::with_capacity(n * q);
    let mut pos_idx = Vec::with_capacity(n * q);
    for k in 0..n {
        for _ in 0..q {
            pool_idx.push(rng.gen_range(0..pool));
            pos_idx.push(k);
        }
    }
    (pool_idx, pos_idx)
}

/// Builds the Eq. 5 loss of the positive edges `shard` on `tape`.
///
/// The draw and op order is fixed: sample the negative user pool, then
/// the negative item pool; embed positive users, positive items,
/// negative users, negative items; score the positives; pair and score
/// the negative users, then the negative items.
fn eq5_shard_loss(
    ctx: &BatchCtx<'_>,
    tape: &mut Tape<'_>,
    shard: Range<usize>,
    rng: &mut StdRng,
) -> Var {
    let cfg = ctx.cfg;
    let (users, items) = (&ctx.users[shard.clone()], &ctx.items[shard.clone()]);
    let n = users.len();
    let pool = cfg.neg_pool.max(cfg.neg_users.max(cfg.neg_items));
    let neg_users: Vec<usize> = ctx.neg_user_sampler.sample_many(pool, rng);
    let neg_items: Vec<usize> = ctx.neg_item_sampler.sample_many(pool, rng);

    let (graph, us, is) = (ctx.graph, ctx.user_src, ctx.item_src);
    let zu = ctx.sage.embed_batch(tape, graph, Side::Left, users, us, is, rng);
    let zi = ctx.sage.embed_batch(tape, graph, Side::Right, items, us, is, rng);
    let zun = ctx.sage.embed_batch(tape, graph, Side::Left, &neg_users, us, is, rng);
    let zin = ctx.sage.embed_batch(tape, graph, Side::Right, &neg_items, us, is, rng);

    // Positive scores.
    let w_col = tape.input(Matrix::column_vector(&ctx.weights[shard]));
    let pos_in = tape.concat_cols(&[zu, zi, w_col]);
    let pos_logits = ctx.scorer.forward(tape, pos_in);
    let pos_loss = tape.bce_with_logits(pos_logits, &vec![1.0f32; n]);

    // Negative pairs: each positive edge's vertex against Q pool draws.
    let (pool_idx, pos_idx) = gather_pairs(n, cfg.neg_users, pool, rng);
    let zun_g = tape.gather_rows(zun, &pool_idx);
    let zi_g = tape.gather_rows(zi, &pos_idx);
    let g_col = tape.input(Matrix::full(pool_idx.len(), 1, ctx.gamma));
    let negu_in = tape.concat_cols(&[zun_g, zi_g, g_col]);
    let negu_logits = ctx.scorer.forward(tape, negu_in);
    let negu_loss = tape.bce_with_logits(negu_logits, &vec![0.0f32; pool_idx.len()]);

    let (pool_idx, pos_idx) = gather_pairs(n, cfg.neg_items, pool, rng);
    let zin_g = tape.gather_rows(zin, &pool_idx);
    let zu_g = tape.gather_rows(zu, &pos_idx);
    let g_col = tape.input(Matrix::full(pool_idx.len(), 1, ctx.gamma));
    let negi_in = tape.concat_cols(&[zu_g, zin_g, g_col]);
    let negi_logits = ctx.scorer.forward(tape, negi_in);
    let negi_loss = tape.bce_with_logits(negi_logits, &vec![0.0f32; pool_idx.len()]);

    // J = pos + Q_u * E[neg_u] + Q_i * E[neg_i].
    let negu_scaled = tape.scale(negu_loss, cfg.neg_users as f32);
    let negi_scaled = tape.scale(negi_loss, cfg.neg_items as f32);
    let loss = tape.add(pos_loss, negu_scaled);
    tape.add(loss, negi_scaled)
}

/// Forward/backward for one shard of a minibatch on a private tape.
///
/// Returns the shard's loss and gradients, both already scaled by the
/// shard's share of the batch rows, so the caller just sums losses and
/// tree-reduces gradients in shard order.
fn shard_pass(
    ctx: &BatchCtx<'_>,
    ws: &Workspace,
    shard: Range<usize>,
    rng: &mut StdRng,
) -> (f32, Gradients) {
    let weight = shard.len() as f32 / ctx.users.len() as f32;
    let mut tape = Tape::with_workspace(ctx.store, ws);
    let loss = eq5_shard_loss(ctx, &mut tape, shard, rng);
    let loss_val = tape.scalar(loss);
    let mut grads = tape.backward(loss);
    // Hand every node buffer back to the shard's workspace so the next
    // minibatch's tape allocates nothing after warmup.
    tape.recycle();
    grads.scale(weight);
    (loss_val * weight, grads)
}

/// Like [`train_unsupervised`], but with an explicit executor and the
/// non-finite check returned as [`TrainError::NonFinite`].
///
/// `exec` controls only physical concurrency: any worker count yields
/// bit-identical parameters (see the module docs for why).
pub fn train_unsupervised_checked(
    graph: &BipartiteGraph,
    user_feats: &Matrix,
    item_feats: &Matrix,
    sage_cfg: BipartiteSageConfig,
    cfg: &SageTrainConfig,
    seed: u64,
    exec: &ParallelExecutor,
) -> Result<TrainedSage, TrainError> {
    assert!(graph.num_edges() > 0, "train_unsupervised: graph has no edges");
    let neg_user_sampler = NegativeSampler::degree_biased(graph, Side::Left);
    let neg_item_sampler = NegativeSampler::degree_biased(graph, Side::Right);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let sage = BipartiteSage::new(&mut store, "sage", sage_cfg, &mut rng);
    let d = sage.output_dim();
    let mut scorer_dims = vec![2 * d + 1];
    scorer_dims.extend_from_slice(&cfg.scorer_hidden);
    scorer_dims.push(1);
    let scorer = Mlp::new(&mut store, "scorer", &scorer_dims, Activation::LeakyRelu, &mut rng);

    let uf = with_null_row(user_feats);
    let if_ = with_null_row(item_feats);
    let feature_params = if cfg.trainable_features {
        Some((store.add("feat.user", uf.clone()), store.add("feat.item", if_.clone())))
    } else {
        None
    };
    let user_src = match feature_params {
        Some((u, _)) => FeatureSource::Trainable(u),
        None => FeatureSource::Fixed(&uf),
    };
    let item_src = match feature_params {
        Some((_, i)) => FeatureSource::Trainable(i),
        None => FeatureSource::Fixed(&if_),
    };
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);

    let edges = graph.edges();
    let mut order: Vec<usize> = (0..edges.len()).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);

    // One buffer pool per executor worker, reused across every minibatch
    // of the run. `map_with` runs shard `s` on `workspaces[s % k]`, and
    // after the optimizer step each shard's gradient buffers go back to
    // that same pool, so once the first batch has warmed the pools a
    // minibatch allocates nothing from them.
    let mut workspaces: Vec<Workspace> =
        (0..exec.workers().min(cfg.grad_shards.max(1))).map(|_| Workspace::new()).collect();

    for epoch in 0..cfg.epochs {
        let _epoch_span = obs::span("train.epoch");
        // Shuffle edge order.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut epoch_loss = 0f64;
        let mut batches = 0usize;
        for (batch_idx, chunk) in order.chunks(cfg.batch_edges).enumerate() {
            let batch_start =
                (obs::enabled() && batch_idx % OBS_SAMPLE == 0).then(std::time::Instant::now);
            let batch: Vec<(u32, u32, f32)> = chunk.iter().map(|&k| edges[k]).collect();
            let users: Vec<usize> = batch.iter().map(|&(u, _, _)| u as usize).collect();
            let items: Vec<usize> = batch.iter().map(|&(_, i, _)| i as usize).collect();
            let weights: Vec<f32> = batch.iter().map(|&(_, _, w)| (1.0 + w).ln()).collect();
            let n = batch.len();

            // Batch-wide gamma, computed before dispatch so every shard
            // sees the same value regardless of decomposition.
            let gamma = cfg
                .gamma
                .unwrap_or_else(|| weights.iter().sum::<f32>() / n.max(1) as f32);

            // Logical shards: boundaries depend only on n and the
            // configured shard count, never on the worker count.
            let shard_len = n.div_ceil(cfg.grad_shards.max(1));
            let num_shards = n.div_ceil(shard_len);
            let ctx = BatchCtx {
                store: &store,
                sage: &sage,
                scorer: &scorer,
                graph,
                user_src,
                item_src,
                cfg,
                neg_user_sampler: &neg_user_sampler,
                neg_item_sampler: &neg_item_sampler,
                users: &users,
                items: &items,
                weights: &weights,
                gamma,
            };
            let (shard_losses, mut shard_grads): (Vec<f32>, Vec<Gradients>) = exec
                .map_with(&mut workspaces, num_shards, |ws, s| {
                    let lo = s * shard_len;
                    let hi = (lo + shard_len).min(n);
                    let mut shard_rng = StdRng::seed_from_u64(shard_seed(
                        seed,
                        epoch as u64,
                        batch_idx as u64,
                        s as u64,
                    ));
                    shard_pass(&ctx, ws, lo..hi, &mut shard_rng)
                })
                .into_iter()
                .unzip();

            // Losses sum in shard order; gradients reduce into shard 0 by
            // a fixed pairwise tree — both independent of the worker count.
            let batch_loss: f64 = shard_losses.iter().map(|&l| l as f64).sum();
            reduce_gradients(&mut shard_grads);
            let grads = &shard_grads[0];

            epoch_loss += batch_loss;
            batches += 1;
            opt.step(&mut store, grads);

            // Per-minibatch instrumentation: reads of already-computed
            // values only (plus the clock), gated so a metrics-off run
            // does none of this work. Counters and the loss histograms
            // (which report contracts assert per-batch) flush through a
            // single registry lock; the two derived metrics with real
            // per-batch cost — the O(params) gradient-norm reduction
            // and the clock pair — are sampled every [`OBS_SAMPLE`]-th
            // batch (`batch_start` is only `Some` on sampled batches).
            if obs::enabled() {
                let counters = [("train.batches", 1u64), ("train.edges", n as u64)];
                if let Some(t0) = batch_start {
                    let grad_norm = grad_l2_norm(grads);
                    obs::record_batch(
                        &counters,
                        &[
                            ("train.batch_loss", batch_loss),
                            ("train.grad_norm", grad_norm),
                            ("train.batch_seconds", t0.elapsed().as_secs_f64()),
                        ],
                        &[],
                    );
                } else {
                    obs::record_batch(
                        &counters,
                        &[("train.batch_loss", batch_loss)],
                        &[],
                    );
                }
            }
            if obs::log_enabled() {
                obs::maybe_heartbeat(|| {
                    vec![
                        ("epoch", obs::LogValue::Uint(epoch as u64)),
                        ("batch", obs::LogValue::Uint(batch_idx as u64)),
                        ("batch_loss", obs::LogValue::Float(batch_loss)),
                    ]
                });
            }
            // Hand every shard's gradient buffers (the reduced total in
            // shard 0, the partial sums in the rest) back to the pool of
            // the worker that leased them.
            let k = workspaces.len();
            for (s, g) in shard_grads.into_iter().enumerate() {
                g.recycle_into(&workspaces[s % k]);
            }
        }
        let mean_loss = (epoch_loss / batches.max(1) as f64) as f32;
        epoch_losses.push(mean_loss);

        if obs::enabled() {
            obs::counter_add("train.epochs", 1);
            obs::series_push("train.epoch_loss", mean_loss as f64);
            obs::gauge_set("train.last_epoch_loss", mean_loss as f64);
        }
        if obs::log_enabled() {
            obs::heartbeat(&[
                ("epoch", obs::LogValue::Uint(epoch as u64)),
                ("epoch_loss", obs::LogValue::Float(mean_loss as f64)),
                ("batches", obs::LogValue::Uint(batches as u64)),
            ]);
        }

        if !mean_loss.is_finite() {
            return Err(TrainError::NonFinite {
                epoch,
                detail: format!("mean epoch loss = {mean_loss}"),
            });
        }
        if !store.all_finite() {
            return Err(TrainError::NonFinite {
                epoch,
                detail: "non-finite parameter after optimizer step".into(),
            });
        }
    }

    // Surface the buffer-pool counters (leases served, pool misses,
    // retained capacity) summed over the workers' pools. Counters
    // accumulate across levels of a hierarchical run; the retained-*
    // figures are point-in-time, hence gauges.
    if obs::enabled() {
        let total =
            workspaces.iter().fold(WorkspaceStats::default(), |acc, ws| acc.merge(&ws.stats()));
        obs::counter_add("workspace.leases", total.leases);
        obs::counter_add("workspace.fresh_allocs", total.fresh_allocs);
        obs::gauge_set("workspace.retained_buffers", total.retained_buffers as f64);
        obs::gauge_set("workspace.retained_elems", total.retained_elems as f64);
    }

    Ok(TrainedSage { sage, scorer, store, feature_params, epoch_losses })
}

/// Every parameter of `trained` by name with its bits, in a fixed
/// order; panics if the list misses one. For tests that compare two
/// trained modules bit for bit.
#[cfg(test)]
pub(crate) fn param_bits(trained: &TrainedSage) -> Vec<(String, Vec<u32>)> {
    let mut names = Vec::new();
    if trained.feature_params.is_some() {
        names.extend(["feat.user".to_string(), "feat.item".to_string()]);
    }
    for side in ["user", "item"] {
        for p in 1..=trained.sage.num_steps() {
            names.extend(["m", "w", "b"].map(|k| format!("sage.{side}.{k}{p}")));
        }
    }
    for l in 0.. {
        if trained.store.id(&format!("scorer.l{l}.w")).is_none() {
            break;
        }
        names.extend(["w", "b"].map(|k| format!("scorer.l{l}.{k}")));
    }
    let bits: Vec<(String, Vec<u32>)> = names
        .into_iter()
        .map(|name| {
            let id = trained.store.id(&name).unwrap_or_else(|| panic!("no parameter {name}"));
            let m = trained.store.get(id);
            (name, m.data().iter().map(|v| v.to_bits()).collect())
        })
        .collect();
    let covered: usize = bits.iter().map(|(_, b)| b.len()).sum();
    assert_eq!(covered, trained.store.num_scalars(), "a parameter is missing from the list");
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use hignn_graph::SamplingMode;
    use hignn_metrics::auc;
    use hignn_tensor::init;

    /// Two-block bipartite graph: users 0..10 click items 0..10, users
    /// 10..20 click items 10..20.
    fn block_graph(rng: &mut StdRng) -> BipartiteGraph {
        let mut edges = Vec::new();
        for u in 0..20u32 {
            let base = if u < 10 { 0 } else { 10 };
            for _ in 0..6 {
                let i = base + rng.gen_range(0..10u32);
                edges.push((u, i, 1.0));
            }
        }
        BipartiteGraph::from_edges(20, 20, edges)
    }

    fn small_cfg() -> (BipartiteSageConfig, SageTrainConfig) {
        (
            BipartiteSageConfig {
                input_dim: 8,
                dim: 8,
                fanouts: vec![4, 3],
                sampling: SamplingMode::Uniform,
                ..Default::default()
            },
            SageTrainConfig {
                epochs: 40,
                batch_edges: 32,
                lr: 1e-2,
                neg_pool: 16,
                ..Default::default()
            },
        )
    }

    #[test]
    fn loss_decreases() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(20, 8, &mut rng);
        let if_ = init::xavier_uniform(20, 8, &mut rng);
        let (scfg, tcfg) = small_cfg();
        let trained = train_unsupervised(&g, &uf, &if_, scfg, &tcfg, 42);
        let first = trained.epoch_losses[0];
        let last = *trained.epoch_losses.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert!(trained.store.all_finite());
    }

    #[test]
    fn link_prediction_beats_random() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(20, 8, &mut rng);
        let if_ = init::xavier_uniform(20, 8, &mut rng);
        let (scfg, tcfg) = small_cfg();
        let trained = train_unsupervised(&g, &uf, &if_, scfg, &tcfg, 43);
        let (zu, zi) = trained.embed_all(&g, &uf, &if_);
        // Positive pairs: in-block; negatives: cross-block.
        let mut pairs = Vec::new();
        let mut labels = Vec::new();
        for u in 0..20u32 {
            for i in 0..20u32 {
                let same_block = (u < 10) == (i < 10);
                pairs.push((u, i));
                labels.push(same_block);
            }
        }
        let scores = trained.score_pairs(&zu, &zi, &pairs, 0.5);
        let a = auc(&scores, &labels);
        assert!(a > 0.75, "link-pred AUC {a}");
    }

    #[test]
    fn shared_weights_train_and_infer() {
        // The query-item variant: one weight set for both sides.
        let mut rng = StdRng::seed_from_u64(4);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(20, 8, &mut rng);
        let if_ = init::xavier_uniform(20, 8, &mut rng);
        let (mut scfg, mut tcfg) = small_cfg();
        scfg.shared_weights = true;
        tcfg.epochs = 5;
        let trained = train_unsupervised(&g, &uf, &if_, scfg, &tcfg, 50);
        let (zu, zi) = trained.embed_all(&g, &uf, &if_);
        assert!(zu.all_finite() && zi.all_finite());
        assert!(trained.epoch_losses.last().unwrap() < &trained.epoch_losses[0]);
    }

    #[test]
    fn max_aggregator_trains() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(20, 8, &mut rng);
        let if_ = init::xavier_uniform(20, 8, &mut rng);
        let (mut scfg, mut tcfg) = small_cfg();
        scfg.aggregator = crate::sage::Aggregator::Max;
        tcfg.epochs = 3;
        let trained = train_unsupervised(&g, &uf, &if_, scfg, &tcfg, 51);
        assert!(trained.store.all_finite());
        let (zu, _) = trained.embed_all(&g, &uf, &if_);
        assert!(zu.all_finite());
    }

    #[test]
    fn trainable_features_receive_updates() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(20, 8, &mut rng);
        let if_ = init::xavier_uniform(20, 8, &mut rng);
        let (scfg, mut tcfg) = small_cfg();
        tcfg.trainable_features = true;
        tcfg.epochs = 2;
        let trained = train_unsupervised(&g, &uf, &if_, scfg, &tcfg, 52);
        let (u_id, i_id) = trained.feature_params.expect("feature params registered");
        // The learned tables must have moved away from their initial
        // values (null row excluded, which only moves if isolated
        // vertices appear in batches).
        let learned_u = trained.store.get(u_id);
        let initial_u = with_null_row(&uf);
        assert_eq!(learned_u.shape(), initial_u.shape());
        assert!(learned_u.max_abs_diff(&initial_u) > 1e-5);
        assert!(trained.store.get(i_id).all_finite());
    }

    #[test]
    fn fixed_gamma_is_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(20, 8, &mut rng);
        let if_ = init::xavier_uniform(20, 8, &mut rng);
        let (scfg, mut tcfg) = small_cfg();
        tcfg.gamma = Some(0.5);
        tcfg.epochs = 2;
        let trained = train_unsupervised(&g, &uf, &if_, scfg, &tcfg, 53);
        assert!(trained.store.all_finite());
    }

    #[test]
    fn degenerate_weight_edges_train() {
        // Near-zero edge weights + WeightBiased neighbour sampling: the
        // degenerate-weight regime the sampler's uniform fallback guards
        // (the all-zero case itself is covered in hignn-graph, where the
        // unchecked constructor lives), exercised here through the Eq. 5
        // loss's sampler call sites.
        let mut rng = StdRng::seed_from_u64(34);
        let mut edges = Vec::new();
        for u in 0..12u32 {
            for _ in 0..4 {
                edges.push((u, rng.gen_range(0..12u32), 1e-30));
            }
        }
        let g = BipartiteGraph::from_edges(12, 12, edges);
        let uf = init::xavier_uniform(12, 8, &mut rng);
        let if_ = init::xavier_uniform(12, 8, &mut rng);
        let (mut scfg, mut tcfg) = small_cfg();
        scfg.sampling = SamplingMode::WeightBiased;
        tcfg.epochs = 2;
        let trained = train_unsupervised(&g, &uf, &if_, scfg, &tcfg, 64);
        assert!(
            trained.store.all_finite(),
            "non-finite parameters on a degenerate-weight graph"
        );
    }

    #[test]
    fn eight_shards_train_the_same_bits_on_1_2_and_3_workers() {
        // Three workers do not divide eight shards: worker 0 runs shards
        // 0, 3, 6, worker 2 only 2 and 5.
        let mut rng = StdRng::seed_from_u64(9);
        let g = block_graph(&mut rng);
        let uf = init::xavier_uniform(20, 8, &mut rng);
        let if_ = init::xavier_uniform(20, 8, &mut rng);
        let (scfg, mut tcfg) = small_cfg();
        tcfg.epochs = 3;
        tcfg.trainable_features = true;
        assert_eq!(tcfg.grad_shards, 8);
        let train = |workers: usize| {
            let exec = ParallelExecutor::new(workers);
            train_unsupervised_checked(&g, &uf, &if_, scfg.clone(), &tcfg, 54, &exec)
                .expect("finite training")
        };
        let one = train(1);
        let one_bits = param_bits(&one);
        for workers in [2, 3] {
            let other = train(workers);
            assert_eq!(param_bits(&other), one_bits, "{workers} workers changed a parameter");
            assert_eq!(
                other.epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                one.epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    #[should_panic(expected = "no edges")]
    fn empty_graph_rejected() {
        let g = BipartiteGraph::from_edges(2, 2, Vec::<(u32, u32, f32)>::new());
        let uf = Matrix::zeros(2, 4);
        let if_ = Matrix::zeros(2, 4);
        let (mut scfg, tcfg) = small_cfg();
        scfg.input_dim = 4;
        train_unsupervised(&g, &uf, &if_, scfg, &tcfg, 1);
    }
}
