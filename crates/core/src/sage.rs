//! Bipartite GraphSAGE (paper Section III.B and V.B).
//!
//! Two-sided GraphSAGE over a weighted bipartite graph: at each step `p` a
//! user aggregates its item neighbours' step-`p-1` embeddings (Eq. 1),
//! transformed into user space by `M_i→u`, concatenated with its own
//! previous embedding, and projected through `W_u^p` with a nonlinearity
//! (Eq. 3); items do the symmetric thing (Eqs. 2, 4). The query-item
//! variant of Section V.B shares the weight matrices across sides because
//! both sides live in one word-embedding space — enabled here with
//! [`BipartiteSageConfig::shared_weights`].
//!
//! Training uses fixed-fanout sampled minibatches ([`BipartiteSage::embed_batch`]);
//! inference uses exact full-neighbourhood propagation
//! ([`BipartiteSage::embed_all`]) so cluster inputs are deterministic.

use hignn_graph::{BipartiteGraph, SamplingMode, Side};
use hignn_tensor::nn::Activation;
use hignn_tensor::parallel::{ParallelExecutor, ROW_CHUNK};
use hignn_tensor::{init, Matrix, ParamId, ParamStore, Tape, Var};
use rand::Rng;

/// Neighbourhood aggregation variants. The paper adopts the mean
/// aggregator ("Any type of aggregator is available and we adopt mean
/// aggregator in our demonstration"); sum and max are provided for
/// ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregator {
    /// Mean of neighbour embeddings (the paper's choice).
    Mean,
    /// Sum of neighbour embeddings.
    Sum,
    /// Element-wise max of neighbour embeddings.
    Max,
}

/// Configuration of a bipartite GraphSAGE module.
#[derive(Clone, Debug)]
pub struct BipartiteSageConfig {
    /// Input feature dimensionality (`d_u = d_i` is assumed; the paper
    /// sets both to 32).
    pub input_dim: usize,
    /// Embedding dimensionality of every step output.
    pub dim: usize,
    /// Neighbours sampled per depth during training (`fanouts.len()` is
    /// the number of aggregation steps `P`; the paper's complexity
    /// analysis uses `K1`, `K2`).
    pub fanouts: Vec<usize>,
    /// Uniform or edge-weight-biased neighbour sampling.
    pub sampling: SamplingMode,
    /// Aggregator (mean in the paper).
    pub aggregator: Aggregator,
    /// Hidden activation (leaky ReLU in the paper).
    pub activation: Activation,
    /// Share `W^p`/`M^p` across sides (query-item variant, Section V.B).
    pub shared_weights: bool,
}

impl Default for BipartiteSageConfig {
    fn default() -> Self {
        BipartiteSageConfig {
            input_dim: 32,
            dim: 32,
            fanouts: vec![8, 4],
            sampling: SamplingMode::WeightBiased,
            aggregator: Aggregator::Mean,
            activation: Activation::LeakyRelu,
            shared_weights: false,
        }
    }
}

/// Where a side's input features come from during minibatch training.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FeatureSource<'a> {
    /// Constant features (must include the null zero row).
    Fixed(&'a Matrix),
    /// Trainable feature table registered in the parameter store (must
    /// include the null row). Gradients flow into the table.
    Trainable(ParamId),
}

/// Per-side, per-step parameters.
#[derive(Clone, Debug)]
struct StepParams {
    /// Cross-side transformation `M` (`d_{p-1} x d_{p-1}`).
    m: ParamId,
    /// Projection `W^p` (`2 d_{p-1} x d_p`).
    w: ParamId,
    /// Bias (`1 x d_p`).
    b: ParamId,
}

/// A bipartite GraphSAGE module with parameters registered in a
/// [`ParamStore`].
#[derive(Clone, Debug)]
pub struct BipartiteSage {
    cfg: BipartiteSageConfig,
    /// `user_steps[p-1]` used when the updated side is the left side.
    user_steps: Vec<StepParams>,
    /// `item_steps[p-1]` used when the updated side is the right side
    /// (aliases `user_steps` under shared weights).
    item_steps: Vec<StepParams>,
}

impl BipartiteSage {
    /// Registers parameters under `name.*` in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        cfg: BipartiteSageConfig,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!cfg.fanouts.is_empty(), "BipartiteSage: need at least one step");
        fn make_side(
            store: &mut ParamStore,
            name: &str,
            side: &str,
            cfg: &BipartiteSageConfig,
            rng: &mut impl Rng,
        ) -> Vec<StepParams> {
            (1..=cfg.fanouts.len())
                .map(|p| {
                    let d_in = if p == 1 { cfg.input_dim } else { cfg.dim };
                    let m = store.add(
                        format!("{name}.{side}.m{p}"),
                        init::xavier_uniform(d_in, d_in, rng),
                    );
                    let w = store.add(
                        format!("{name}.{side}.w{p}"),
                        init::he_uniform(2 * d_in, cfg.dim, rng),
                    );
                    let b = store.add(format!("{name}.{side}.b{p}"), Matrix::zeros(1, cfg.dim));
                    StepParams { m, w, b }
                })
                .collect()
        }
        let user_steps = make_side(store, name, "user", &cfg, rng);
        let item_steps = if cfg.shared_weights {
            user_steps.clone()
        } else {
            make_side(store, name, "item", &cfg, rng)
        };
        BipartiteSage { cfg, user_steps, item_steps }
    }

    /// Number of aggregation steps `P`.
    pub(crate) fn num_steps(&self) -> usize {
        self.cfg.fanouts.len()
    }

    /// Output embedding dimensionality.
    pub(crate) fn output_dim(&self) -> usize {
        self.cfg.dim
    }

    fn steps_for(&self, side: Side) -> &[StepParams] {
        match side {
            Side::Left => &self.user_steps,
            Side::Right => &self.item_steps,
        }
    }

    /// Computes step-`P` embeddings for `batch` vertices of `side` with
    /// sampled neighbourhoods (training path; gradients flow into all
    /// step parameters).
    ///
    /// Each side's input features are fixed or trainable. Fixed features
    /// must carry one extra zero row at index `n` (see [`with_null_row`])
    /// used for isolated vertices; trainable features are parameter
    /// matrices (with null row) that receive gradients — the standard
    /// treatment when vertices carry no informative raw features.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn embed_batch(
        &self,
        tape: &mut Tape,
        graph: &BipartiteGraph,
        side: Side,
        batch: &[usize],
        user_feats: FeatureSource<'_>,
        item_feats: FeatureSource<'_>,
        rng: &mut impl Rng,
    ) -> Var {
        // Counters only on the sampled-training path: it runs inside
        // parallel shard workers, where a span's clock read per call
        // would be the costliest part of the instrumentation.
        hignn_obs::counter_add("sage.embed_batch_calls", 1);
        hignn_obs::counter_add("sage.embed_batch_rows", batch.len() as u64);
        let p_max = self.num_steps();
        // Build the sampled layer tree: layers[0] = batch, layers[l+1] =
        // fanout-sampled neighbours of layers[l].
        let mut layers: Vec<Vec<usize>> = vec![batch.to_vec()];
        for l in 0..p_max {
            let layer_side = side_at(side, l);
            let next = sample_layer(
                graph,
                layer_side,
                &layers[l],
                self.cfg.fanouts[l],
                self.cfg.sampling,
                rng,
            );
            layers.push(next);
        }
        // Initial embeddings. Fixed features are gathered outside the tape
        // (constants, no gradient); trainable features are gathered on the
        // tape so gradients scatter back into the embedding table.
        //
        // For mean/sum aggregation the deepest layer is consumed exactly
        // once — by the pooling at step p = 1 — so its gathered
        // `|batch|·∏fanouts x d` matrix is never materialized: the fused
        // gather + mean-pool reads feature rows straight into the pooled
        // output (bitwise identical to gather-then-pool; see the tape
        // tests). Max aggregation needs the individual rows, so it keeps
        // the unfused path.
        let fuse_deepest = self.cfg.aggregator != Aggregator::Max;
        let mut trainable_vars: [Option<Var>; 2] = [None, None];
        fn table_var(tape: &mut Tape, vars: &mut [Option<Var>; 2], slot: usize, pid: ParamId) -> Var {
            *vars[slot].get_or_insert_with(|| tape.param(pid))
        }
        let src_for = |l: usize| -> (FeatureSource<'_>, usize) {
            match side_at(side, l) {
                Side::Left => (user_feats, 0),
                Side::Right => (item_feats, 1),
            }
        };
        let mut h: Vec<Var> = Vec::with_capacity(layers.len());
        for (l, ids) in layers.iter().enumerate() {
            if fuse_deepest && l == p_max {
                break;
            }
            let (src, slot) = src_for(l);
            let v = match src {
                FeatureSource::Fixed(m) => tape.input(m.gather_rows(ids)),
                FeatureSource::Trainable(pid) => {
                    let table = table_var(tape, &mut trainable_vars, slot, pid);
                    tape.gather_rows(table, ids)
                }
            };
            h.push(v);
        }
        // Steps p = 1..=P update layers 0..=P-p.
        for p in 1..=p_max {
            for l in 0..=(p_max - p) {
                let layer_side = side_at(side, l);
                let params = &self.steps_for(layer_side)[p - 1];
                let fanout = self.cfg.fanouts[l];
                let agg = if fuse_deepest && p == 1 && l + 1 == p_max {
                    let (src, slot) = src_for(p_max);
                    let pooled = match src {
                        FeatureSource::Fixed(m) => {
                            let mut out = Matrix::zeros(layers[p_max].len() / fanout, m.cols());
                            m.gather_mean_pool_rows_into(&layers[p_max], fanout, &mut out);
                            tape.input(out)
                        }
                        FeatureSource::Trainable(pid) => {
                            let table = table_var(tape, &mut trainable_vars, slot, pid);
                            tape.gather_mean_pool_rows(table, &layers[p_max], fanout)
                        }
                    };
                    match self.cfg.aggregator {
                        Aggregator::Sum => tape.scale(pooled, fanout as f32),
                        _ => pooled,
                    }
                } else {
                    match self.cfg.aggregator {
                        Aggregator::Mean => tape.mean_pool_rows(h[l + 1], fanout),
                        Aggregator::Sum => {
                            let m = tape.mean_pool_rows(h[l + 1], fanout);
                            tape.scale(m, fanout as f32)
                        }
                        Aggregator::Max => tape.max_pool_rows(h[l + 1], fanout),
                    }
                };
                let m = tape.param(params.m);
                let transformed = tape.matmul(agg, m);
                let cat = tape.concat_cols(&[h[l], transformed]);
                let w = tape.param(params.w);
                let b = tape.param(params.b);
                let lin = tape.matmul(cat, w);
                let lin = tape.add_bias(lin, b);
                h[l] = apply_activation(tape, self.cfg.activation, lin);
            }
        }
        h[0]
    }

    /// Deterministic full-neighbourhood inference for every vertex of
    /// both sides (tape-free). Returns `(user_embeddings, item_embeddings)`.
    /// Both the neighbourhood aggregation and the dense update are
    /// embarrassingly row-parallel, so they run over fixed
    /// [`ROW_CHUNK`]-row chunks merged in chunk order — bit-identical at
    /// any worker count of `exec`.
    pub fn embed_all(
        &self,
        store: &ParamStore,
        graph: &BipartiteGraph,
        user_feats: &Matrix,
        item_feats: &Matrix,
        exec: &ParallelExecutor,
    ) -> (Matrix, Matrix) {
        let _span = hignn_obs::span("sage.embed_all");
        hignn_obs::counter_add(
            "sage.embed_all_rows",
            (graph.num_left() + graph.num_right()) as u64,
        );
        // Accepts features with or without the null row. Borrows the
        // caller's matrix when it already has the right shape — the first
        // propagation step only reads it, so no copy is needed.
        fn take(m: &Matrix, n: usize) -> std::borrow::Cow<'_, Matrix> {
            if m.rows() == n + 1 {
                std::borrow::Cow::Owned(m.gather_rows(&(0..n).collect::<Vec<_>>()))
            } else {
                assert_eq!(m.rows(), n, "embed_all: feature row mismatch");
                std::borrow::Cow::Borrowed(m)
            }
        }
        let mut hu = take(user_feats, graph.num_left());
        let mut hi = take(item_feats, graph.num_right());
        for p in 1..=self.num_steps() {
            let agg_u = neighborhood_mean(graph, Side::Left, &hi, self.cfg.aggregator, exec);
            let agg_i = neighborhood_mean(graph, Side::Right, &hu, self.cfg.aggregator, exec);
            let up = &self.user_steps[p - 1];
            let ip = &self.item_steps[p - 1];
            let new_hu = dense_step(store, &hu, &agg_u, up, self.cfg.activation, exec);
            let new_hi = dense_step(store, &hi, &agg_i, ip, self.cfg.activation, exec);
            hu = std::borrow::Cow::Owned(new_hu);
            hi = std::borrow::Cow::Owned(new_hi);
        }
        (hu.into_owned(), hi.into_owned())
    }
}

/// Concatenates per-chunk row blocks produced by
/// [`ParallelExecutor::map_chunks`] back into one matrix, handling the
/// zero-chunk (empty input) case.
fn concat_chunks(chunks: &[Matrix], cols: usize) -> Matrix {
    if chunks.is_empty() {
        return Matrix::zeros(0, cols);
    }
    let refs: Vec<&Matrix> = chunks.iter().collect();
    Matrix::concat_rows(&refs)
}

fn apply_activation(tape: &mut Tape, act: Activation, x: Var) -> Var {
    match act {
        Activation::LeakyRelu => tape.leaky_relu(x, 0.01),
        Activation::Relu => tape.relu(x),
        Activation::Tanh => tape.tanh(x),
        Activation::Identity => x,
    }
}

/// One dense update `h <- act([h | agg M] W + b)`, row-chunked over the
/// executor. Every output row is an independent dot-product accumulation
/// (the `ikj` matmul never mixes rows), so the chunked result is
/// bit-identical to the sequential one.
fn dense_step(
    store: &ParamStore,
    h_self: &Matrix,
    h_agg: &Matrix,
    params: &StepParams,
    act: Activation,
    exec: &ParallelExecutor,
) -> Matrix {
    let m = store.get(params.m);
    let w = store.get(params.w);
    let b = store.get(params.b);
    // Each chunk slices its rows in place (no gather copies), uses the
    // fused concat-matmul kernel (no `[h | agg M]` materialization), and
    // applies bias + activation in place on the output block.
    let chunks = exec.map_chunks(h_self.rows(), ROW_CHUNK, |_, range| {
        let transformed = h_agg.matmul_rows_range(range.clone(), m);
        let mut lin = Matrix::concat2_matmul_rows_range(h_self, range, &transformed, w);
        lin.add_row_broadcast_assign(b);
        match act {
            Activation::LeakyRelu => lin.map_assign(|v| if v > 0.0 { v } else { 0.01 * v }),
            Activation::Relu => lin.map_assign(|v| v.max(0.0)),
            Activation::Tanh => lin.map_assign(f32::tanh),
            Activation::Identity => {}
        }
        lin
    });
    concat_chunks(&chunks, w.cols())
}

/// Exact neighbourhood mean (or sum) for every vertex of `side`, given
/// the opposite side's current embeddings. Isolated vertices get zeros.
/// Vertices are aggregated in fixed [`ROW_CHUNK`]-sized chunks merged in
/// chunk order, so the result is bit-identical at any worker count of
/// `exec`.
pub fn neighborhood_mean(
    graph: &BipartiteGraph,
    side: Side,
    opposite_embeddings: &Matrix,
    aggregator: Aggregator,
    exec: &ParallelExecutor,
) -> Matrix {
    let n = graph.num_vertices(side);
    let d = opposite_embeddings.cols();
    let chunks = exec.map_chunks(n, ROW_CHUNK, |_, range| {
        let mut out = Matrix::zeros(range.len(), d);
        for (local, v) in range.enumerate() {
            let (nbrs, _) = graph.neighbors(side, v);
            if nbrs.is_empty() {
                continue;
            }
            match aggregator {
                Aggregator::Mean | Aggregator::Sum => {
                    let inv = match aggregator {
                        Aggregator::Mean => 1.0 / nbrs.len() as f32,
                        _ => 1.0,
                    };
                    let row = out.row_mut(local);
                    for &nb in nbrs {
                        for (o, &e) in row.iter_mut().zip(opposite_embeddings.row(nb as usize)) {
                            *o += e * inv;
                        }
                    }
                }
                Aggregator::Max => {
                    let row = out.row_mut(local);
                    row.fill(f32::MIN);
                    for &nb in nbrs {
                        for (o, &e) in row.iter_mut().zip(opposite_embeddings.row(nb as usize)) {
                            if e > *o {
                                *o = e;
                            }
                        }
                    }
                }
            }
        }
        out
    });
    concat_chunks(&chunks, d)
}

/// The side of layer `l` in a sampled tree rooted at `root_side`.
#[inline]
fn side_at(root_side: Side, l: usize) -> Side {
    if l.is_multiple_of(2) {
        root_side
    } else {
        root_side.opposite()
    }
}

/// Fanout-samples the next layer, treating the null sentinel
/// (`graph.num_vertices(layer_side)`) as a vertex whose neighbours are
/// all null. Each run of consecutive real vertices is one
/// `sample_neighbors` call, which draws exactly what per-vertex calls
/// would, in the same order.
fn sample_layer(
    graph: &BipartiteGraph,
    layer_side: Side,
    vertices: &[usize],
    fanout: usize,
    mode: SamplingMode,
    rng: &mut impl Rng,
) -> Vec<usize> {
    let null_self = graph.num_vertices(layer_side);
    let null_next = graph.num_vertices(layer_side.opposite());
    let mut out = Vec::with_capacity(vertices.len() * fanout);
    for (k, run) in vertices.split(|&v| v == null_self).enumerate() {
        // One null sentinel stood between this run and the previous one.
        if k > 0 {
            out.extend(std::iter::repeat_n(null_next, fanout));
        }
        out.extend(hignn_graph::sample_neighbors(graph, layer_side, run, fanout, mode, rng));
    }
    out
}

/// Appends one zero row (the null-vertex feature) to a feature matrix.
pub(crate) fn with_null_row(feats: &Matrix) -> Matrix {
    let zero = Matrix::zeros(1, feats.cols());
    Matrix::concat_rows(&[feats, &zero])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_graph() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            4,
            3,
            vec![
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 0, 1.0),
                (2, 2, 3.0),
                // user 3 is isolated
            ],
        )
    }

    fn toy_cfg() -> BipartiteSageConfig {
        BipartiteSageConfig {
            input_dim: 4,
            dim: 6,
            fanouts: vec![3, 2],
            sampling: SamplingMode::Uniform,
            ..Default::default()
        }
    }

    fn feats(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        init::xavier_uniform(rows, cols, &mut rng)
    }

    #[test]
    fn embed_batch_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let sage = BipartiteSage::new(&mut store, "sage", toy_cfg(), &mut rng);
        let g = toy_graph();
        let uf = with_null_row(&feats(4, 4, 2));
        let if_ = with_null_row(&feats(3, 4, 3));
        let mut tape = Tape::new(&store);
        let (fixed_u, fixed_i) = (FeatureSource::Fixed(&uf), FeatureSource::Fixed(&if_));
        let z = sage.embed_batch(&mut tape, &g, Side::Left, &[0, 1, 3], fixed_u, fixed_i, &mut rng);
        assert_eq!((z.rows(), z.cols()), (3, 6));
        assert!(tape.value(z).all_finite());
        // Item side too.
        let zi = sage.embed_batch(&mut tape, &g, Side::Right, &[0, 2], fixed_u, fixed_i, &mut rng);
        assert_eq!((zi.rows(), zi.cols()), (2, 6));
    }

    #[test]
    fn gradients_flow_to_all_steps() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let sage = BipartiteSage::new(&mut store, "sage", toy_cfg(), &mut rng);
        let g = toy_graph();
        let uf = with_null_row(&feats(4, 4, 5));
        let if_ = with_null_row(&feats(3, 4, 6));
        let mut tape = Tape::new(&store);
        let (fixed_u, fixed_i) = (FeatureSource::Fixed(&uf), FeatureSource::Fixed(&if_));
        let z = sage.embed_batch(&mut tape, &g, Side::Left, &[0, 1, 2], fixed_u, fixed_i, &mut rng);
        let loss = tape.sum_squares(z);
        let grads = tape.backward(loss);
        // Both user steps must receive gradients; item step 1 as well
        // (layer 1 holds items and is updated at p = 1).
        for p in &sage.user_steps {
            assert!(grads.get(p.w).is_some(), "missing user W grad");
        }
        assert!(grads.get(sage.item_steps[0].w).is_some(), "missing item W grad");
    }

    #[test]
    fn sample_layer_draws_what_per_vertex_calls_draw() {
        let g = toy_graph();
        let null = g.num_vertices(Side::Left);
        // Nulls first, last, back to back and between real vertices;
        // user 3 is isolated.
        let layer = [null, 0, 1, 3, null, null, 2, 0, null];
        for mode in [SamplingMode::Uniform, SamplingMode::WeightBiased] {
            let mut rng_runs = StdRng::seed_from_u64(8);
            let runs = sample_layer(&g, Side::Left, &layer, 3, mode, &mut rng_runs);
            let mut rng_each = StdRng::seed_from_u64(8);
            let mut each = Vec::new();
            for &v in &layer {
                if v == null {
                    each.extend([g.num_vertices(Side::Right); 3]);
                } else {
                    let rng = &mut rng_each;
                    each.extend(hignn_graph::sample_neighbors(&g, Side::Left, &[v], 3, mode, rng));
                }
            }
            assert_eq!(runs, each, "{mode:?}");
            let (next_runs, next_each) = (rng_runs.gen::<u64>(), rng_each.gen::<u64>());
            assert_eq!(next_runs, next_each, "{mode:?}: RNG streams diverged");
        }
    }

    #[test]
    fn embed_all_shapes_and_determinism() {
        let one = ParallelExecutor::single();
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let sage = BipartiteSage::new(&mut store, "sage", toy_cfg(), &mut rng);
        let g = toy_graph();
        let uf = feats(4, 4, 8);
        let if_ = feats(3, 4, 9);
        let (zu1, zi1) = sage.embed_all(&store, &g, &uf, &if_, &one);
        let (zu2, zi2) = sage.embed_all(&store, &g, &uf, &if_, &one);
        assert_eq!(zu1.shape(), (4, 6));
        assert_eq!(zi1.shape(), (3, 6));
        assert_eq!(zu1, zu2);
        assert_eq!(zi1, zi2);
        assert!(zu1.all_finite() && zi1.all_finite());
    }

    #[test]
    fn embed_all_worker_count_does_not_change_bits() {
        let one = ParallelExecutor::single();
        // > 2 chunks of ROW_CHUNK rows so the parallel path really splits.
        let n = 600u32;
        let mut edges = Vec::new();
        for u in 0..n {
            for j in 0..3u32 {
                edges.push((u, u.wrapping_mul(7).wrapping_add(j * 131) % n, 1.0 + j as f32));
            }
        }
        let g = BipartiteGraph::from_edges(n as usize, n as usize, edges);
        let mut rng = StdRng::seed_from_u64(14);
        let mut store = ParamStore::new();
        let sage = BipartiteSage::new(&mut store, "sage", toy_cfg(), &mut rng);
        let uf = feats(n as usize, 4, 15);
        let if_ = feats(n as usize, 4, 16);
        let (zu1, zi1) = sage.embed_all(&store, &g, &uf, &if_, &one);
        for workers in [2, 4, 8] {
            let exec = ParallelExecutor::new(workers);
            let (zu, zi) = sage.embed_all(&store, &g, &uf, &if_, &exec);
            assert_eq!(zu.data(), zu1.data(), "user side, workers = {workers}");
            assert_eq!(zi.data(), zi1.data(), "item side, workers = {workers}");
        }
    }

    #[test]
    fn embed_all_accepts_null_row_features() {
        let one = ParallelExecutor::single();
        let mut rng = StdRng::seed_from_u64(10);
        let mut store = ParamStore::new();
        let sage = BipartiteSage::new(&mut store, "sage", toy_cfg(), &mut rng);
        let g = toy_graph();
        let uf = feats(4, 4, 11);
        let if_ = feats(3, 4, 12);
        let (a, _) = sage.embed_all(&store, &g, &uf, &if_, &one);
        let (b, _) = sage.embed_all(&store, &g, &with_null_row(&uf), &with_null_row(&if_), &one);
        assert!(a.max_abs_diff(&b) < 1e-6);
    }

    #[test]
    fn shared_weights_halve_parameters() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut s1 = ParamStore::new();
        let _ = BipartiteSage::new(&mut s1, "a", toy_cfg(), &mut rng);
        let mut s2 = ParamStore::new();
        let cfg = BipartiteSageConfig { shared_weights: true, ..toy_cfg() };
        let _ = BipartiteSage::new(&mut s2, "b", cfg, &mut rng);
        assert_eq!(s2.num_scalars() * 2, s1.num_scalars());
    }

    #[test]
    fn neighborhood_mean_handles_isolated() {
        let one = ParallelExecutor::single();
        let g = toy_graph();
        let emb = Matrix::from_vec(3, 2, vec![1.0, 0.0, 3.0, 0.0, 5.0, 6.0]);
        let m = neighborhood_mean(&g, Side::Left, &emb, Aggregator::Mean, &one);
        assert_eq!(m.row(0), &[2.0, 0.0]); // mean of items 0, 1
        assert_eq!(m.row(3), &[0.0, 0.0]); // isolated user
        let s = neighborhood_mean(&g, Side::Left, &emb, Aggregator::Sum, &one);
        assert_eq!(s.row(0), &[4.0, 0.0]);
    }

    #[test]
    fn similar_users_get_similar_embeddings() {
        // Users 0 and 1 share item 0; user 2 is attached elsewhere. After
        // propagation (identity-free params aside), the structural signal
        // should make 0/1 closer than 0/2 on average across seeds.
        let g = BipartiteGraph::from_edges(
            3,
            4,
            vec![
                (0, 0, 5.0),
                (0, 1, 5.0),
                (1, 0, 5.0),
                (1, 1, 5.0),
                (2, 2, 5.0),
                (2, 3, 5.0),
            ],
        );
        let one = ParallelExecutor::single();
        let mut closer = 0;
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = ParamStore::new();
            let sage = BipartiteSage::new(&mut store, "s", toy_cfg(), &mut rng);
            let uf = feats(3, 4, seed + 100);
            let if_ = feats(4, 4, seed + 200);
            let (zu, _) = sage.embed_all(&store, &g, &uf, &if_, &one);
            let d01 = zu.row_sq_dist(0, zu.row(1));
            let d02 = zu.row_sq_dist(0, zu.row(2));
            if d01 < d02 {
                closer += 1;
            }
        }
        assert!(closer >= 4, "structure not reflected: {closer}/5");
    }
}
