//! Differential testing of every optimized hot path against the
//! transparently naive `hignn-oracle` crate.
//!
//! Each property draws randomized inputs (seeded, reproducible from a
//! persisted case index — see tests/README.md) and checks that the
//! optimized implementation agrees with the textbook one:
//!
//! * **bitwise** where the `f32` accumulation order provably matches
//!   (dense matmul in all three transpose layouts, `Mlp::infer`,
//!   K-means assignment / update / full Lloyd runs on single-chunk
//!   inputs, the Eq. 6 cluster feature, Eq. 6 coarsened edge weights);
//! * **within explicit tolerances** where precision or grouping differ
//!   (the Eq. 5 loss and its gradients against `f64` central finite
//!   differences, full bipartite SAGE inference against the `f64`
//!   reference, BM25 against a recounting scorer).
//!
//! The `broken_kernel_detection` module proves the harness has veto
//! power: a 1-ulp corruption of a matmul entry and a sign-flipped
//! gradient both make the comparisons fail.

// Entry-by-entry index loops keep the comparison helpers' iteration
// order obvious, matching the oracle crate's own style.
#![allow(clippy::needless_range_loop)]

use hignn::sage::{BipartiteSage, BipartiteSageConfig};
use hignn_cluster::kmeans::{assign_all, kmeans, kmeans_pp_seed, mean_by_cluster, KMeansConfig};
use hignn_graph::coarsen::{coarsen, Assignment};
use hignn_graph::{BipartiteGraph, Side};
use hignn_integration_tests::strategies::{
    adjacency, bipartite_graph, matrix_exact, max_abs_diff64, to_rows32, to_rows64,
};
use hignn_oracle as oracle;
use hignn_oracle::eq5::{Dense64, Eq5Param, Eq5Setup};
use hignn_oracle::sage::SageStep;
use hignn_tensor::nn::{Activation, Mlp};
use hignn_tensor::parallel::{ParallelExecutor, ROW_CHUNK};
use hignn_tensor::{Matrix, PackedRows, ParamId, ParamStore, Tape, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---- comparison helpers (Result-returning so the deliberate-break
// ---- tests can assert that corruption is detected) ----------------------

/// Bitwise equality between an optimized matrix and oracle rows.
fn bitwise_eq(actual: &Matrix, expected: &[Vec<f32>], what: &str) -> Result<(), String> {
    if actual.rows() != expected.len() {
        return Err(format!("{what}: row count {} vs {}", actual.rows(), expected.len()));
    }
    for i in 0..actual.rows() {
        if actual.cols() != expected[i].len() {
            return Err(format!("{what}: col count {} vs {}", actual.cols(), expected[i].len()));
        }
        for j in 0..actual.cols() {
            let (a, e) = (actual.get(i, j), expected[i][j]);
            if a.to_bits() != e.to_bits() {
                return Err(format!(
                    "{what}: entry ({i}, {j}) differs: {a:?} ({:#010x}) vs oracle {e:?} ({:#010x})",
                    a.to_bits(),
                    e.to_bits()
                ));
            }
        }
    }
    Ok(())
}

/// Tolerance check of an analytic gradient against oracle finite
/// differences: `|analytic - fd| <= tol * (1 + |fd|)` per entry.
fn grad_close(analytic: &Matrix, fd: &[Vec<f64>], tol: f64, what: &str) -> Result<(), String> {
    if analytic.rows() != fd.len() || analytic.cols() != fd[0].len() {
        return Err(format!(
            "{what}: shape {:?} vs fd {}x{}",
            analytic.shape(),
            fd.len(),
            fd[0].len()
        ));
    }
    for i in 0..analytic.rows() {
        for j in 0..analytic.cols() {
            let a = analytic.get(i, j) as f64;
            let f = fd[i][j];
            let err = (a - f).abs();
            if err > tol * (1.0 + f.abs()) {
                return Err(format!(
                    "{what}: grad ({i}, {j}) analytic {a} vs finite-difference {f} (err {err})"
                ));
            }
        }
    }
    Ok(())
}

// ---- 1. dense matmul: bitwise -------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_all_layouts_match_oracle_bitwise(
        (m, k, n) in (1usize..8, 1usize..8, 1usize..8),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        // Draw the operand entries from the seed so the three layouts
        // share conforming shapes without a 6-deep flat_map.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = hignn_tensor::init::xavier_uniform(m, k, &mut rng);
        let b = hignn_tensor::init::xavier_uniform(k, n, &mut rng);
        let oa = to_rows32(&a);
        let ob = to_rows32(&b);
        bitwise_eq(&a.matmul(&b), &oracle::linalg::matmul(&oa, &ob), "matmul").unwrap();

        // A * B^T with B drawn n x k; A^T * B with A drawn k x m.
        let bt = hignn_tensor::init::xavier_uniform(n, k, &mut rng);
        bitwise_eq(&a.matmul_nt(&bt), &oracle::linalg::matmul_nt(&oa, &to_rows32(&bt)), "matmul_nt")
            .unwrap();
        let at = hignn_tensor::init::xavier_uniform(k, m, &mut rng);
        bitwise_eq(&at.matmul_tn(&b), &oracle::linalg::matmul_tn(&to_rows32(&at), &ob), "matmul_tn")
            .unwrap();
    }

    #[test]
    fn matmul_with_zero_entries_matches_oracle_bitwise(
        mask_a in prop::collection::vec(any::<bool>(), 12),
        mask_b in prop::collection::vec(any::<bool>(), 12),
        vals_a in prop::collection::vec(-3.0f32..3.0, 12),
        vals_b in prop::collection::vec(-3.0f32..3.0, 12),
    ) {
        // The optimized kernel skips zero entries of A; prove the skip
        // never changes bits even on zero-riddled inputs.
        let da: Vec<f32> = vals_a.iter().zip(&mask_a).map(|(&v, &z)| if z { 0.0 } else { v }).collect();
        let db: Vec<f32> = vals_b.iter().zip(&mask_b).map(|(&v, &z)| if z { 0.0 } else { v }).collect();
        let a = Matrix::from_vec(3, 4, da);
        let b = Matrix::from_vec(4, 3, db);
        bitwise_eq(&a.matmul(&b), &oracle::linalg::matmul(&to_rows32(&a), &to_rows32(&b)), "zero-skip matmul")
            .unwrap();
    }
}

// ---- 2. K-means: assignment, update feature, full Lloyd — bitwise -------

/// Centroid counts on both sides of every lane (8 rows) and block-step
/// (32 rows) boundary of the packed distance kernel, and dimensions
/// around the same widths.
const EDGE_KS: [usize; 8] = [1, 7, 8, 9, 31, 32, 33, 40];
const EDGE_DS: [usize; 4] = [1, 31, 32, 33];

/// Strategy: one `(k, d)` pair from [`EDGE_KS`] x [`EDGE_DS`].
fn edge_k_d() -> impl Strategy<Value = (usize, usize)> {
    (0..EDGE_KS.len(), 0..EDGE_DS.len()).prop_map(|(ki, di)| (EDGE_KS[ki], EDGE_DS[di]))
}

/// Strategy: a coordinate that is often a value a distance kernel can
/// mishandle.
fn tricky_f32() -> impl Strategy<Value = f32> {
    const SPECIALS: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
    (0..3 * SPECIALS.len(), -4.0f32..4.0)
        .prop_map(|(i, ordinary)| SPECIALS.get(i).copied().unwrap_or(ordinary))
}

#[test]
fn zero_dimensional_distances_are_positive_zero() {
    // With no coordinates the sum is empty: the oracle's accumulator
    // starts at +0.0, and every optimized path must report that sign.
    let (data, centroids) = (Matrix::zeros(9, 0), Matrix::zeros(3, 0));
    assert_eq!(oracle::kmeans::sq_dist(&[], &[]).to_bits(), 0);
    assert_eq!(centroids.row_sq_dist(0, data.row(0)).to_bits(), 0);
    let mut dists = [f32::NAN; 3];
    PackedRows::pack(&centroids).sq_dists(data.row(0), &mut dists);
    assert_eq!(dists.map(f32::to_bits), [0; 3]);
    let (assignment, inertia) = assign_all(&centroids, &data, &ParallelExecutor::single());
    assert_eq!(assignment, vec![0; 9]);
    assert_eq!(inertia.to_bits(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_sq_dists_match_scalar_and_oracle_bitwise_on_special_values(
        (rows, cols) in (1usize..70, 1usize..36),
        seed in proptest::arbitrary::any::<u64>(),
        salt in prop::collection::vec((0usize..70 * 36, tricky_f32()), 0..24),
        point_salt in prop::collection::vec((0usize..36, tricky_f32()), 0..4),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = hignn_tensor::init::xavier_uniform(rows, cols, &mut rng);
        let mut point = hignn_tensor::init::xavier_uniform(1, cols, &mut rng).row(0).to_vec();
        for (at, v) in salt {
            m.data_mut()[at % (rows * cols)] = v;
        }
        for (at, v) in point_salt {
            point[at % cols] = v;
        }
        let mut dists = vec![0f32; rows];
        PackedRows::pack(&m).sq_dists(&point, &mut dists);
        // A NaN must be a NaN everywhere, but IEEE 754 leaves its sign
        // and payload to the hardware and the compiler's operand order,
        // so only non-NaN results are compared by bits.
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        for i in 0..rows {
            let scalar = m.row_sq_dist(i, &point);
            let naive = oracle::kmeans::sq_dist(m.row(i), &point);
            prop_assert!(same(dists[i], scalar), "row {}: {} vs scalar {}", i, dists[i], scalar);
            prop_assert!(same(dists[i], naive), "row {}: {} vs oracle {}", i, dists[i], naive);
        }
    }

    #[test]
    fn kmeans_pp_seeding_matches_oracle_bitwise_past_one_row_chunk(
        n in ROW_CHUNK + 1..2 * ROW_CHUNK + 40,
        (k, d) in edge_k_d(),
        data_seed in proptest::arbitrary::any::<u64>(),
        kmeans_seed in proptest::arbitrary::any::<u64>(),
    ) {
        use rand::RngCore;
        let data = hignn_tensor::init::xavier_uniform(n, d, &mut StdRng::seed_from_u64(data_seed));
        let (mut ours_rng, mut oracle_rng) =
            (StdRng::seed_from_u64(kmeans_seed), StdRng::seed_from_u64(kmeans_seed));
        let ours = kmeans_pp_seed(&data, k, &mut ours_rng);
        let theirs = oracle::kmeans::kmeans_pp(&to_rows32(&data), k, &mut oracle_rng);
        bitwise_eq(&ours, &theirs, "k-means++ seeds").unwrap();
        // Same draws consumed, so whatever runs next sees the same stream.
        prop_assert_eq!(ours_rng.next_u64(), oracle_rng.next_u64());
    }

    #[test]
    fn kmeans_assignment_and_inertia_match_oracle_bitwise(
        n in 1usize..60,
        (k, d) in edge_k_d(),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = hignn_tensor::init::xavier_uniform(n, d, &mut rng);
        let centroids = hignn_tensor::init::xavier_uniform(k, d, &mut rng);
        let (assignment, inertia) = assign_all(&centroids, &data, &ParallelExecutor::single());
        let (o_assignment, o_inertia) = oracle::kmeans::assign(&to_rows32(&data), &to_rows32(&centroids));
        // Per-point assignments are order-independent: bitwise at any n.
        prop_assert_eq!(&assignment, &o_assignment);
        // The inertia sum is chunk-ordered; below ROW_CHUNK rows there is
        // one chunk and the f64 sum order matches exactly.
        prop_assert!(n <= ROW_CHUNK);
        prop_assert_eq!(inertia.to_bits(), o_inertia.to_bits(), "inertia {} vs {}", inertia, o_inertia);
    }

    #[test]
    fn mean_by_cluster_matches_oracle_bitwise(
        (n, k, d) in (1usize..40, 1usize..6, 1usize..5),
        seed in proptest::arbitrary::any::<u64>(),
        assignment_seed in proptest::arbitrary::any::<u64>(),
    ) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let data = hignn_tensor::init::xavier_uniform(n, d, &mut rng);
        let mut arng = StdRng::seed_from_u64(assignment_seed);
        let assignment: Vec<u32> = (0..n).map(|_| arng.gen_range(0..k as u32)).collect();
        let ours = mean_by_cluster(&data, &assignment, k);
        let theirs = oracle::kmeans::mean_by_cluster(&to_rows32(&data), &assignment, k);
        bitwise_eq(&ours, &theirs, "mean_by_cluster").unwrap();
    }

    #[test]
    fn full_kmeans_matches_naive_lloyd_bitwise(
        n in 2usize..50,
        (k, d) in edge_k_d(),
        data_seed in proptest::arbitrary::any::<u64>(),
        kmeans_seed in proptest::arbitrary::any::<u64>(),
    ) {
        // Single-chunk regime (n <= ROW_CHUNK): seeding consumes the same
        // RNG stream, every Lloyd iteration accumulates in the same
        // order, so the entire run must be bit-identical.
        prop_assert!(n <= ROW_CHUNK);
        let mut rng = StdRng::seed_from_u64(data_seed);
        let data = hignn_tensor::init::xavier_uniform(n, d, &mut rng);
        let cfg = KMeansConfig::new(k); // max_iters 50, tol 1e-4
        let ours = kmeans(&data, &cfg, &mut StdRng::seed_from_u64(kmeans_seed));
        let (o_centroids, o_assignment, o_inertia, o_iters) = oracle::kmeans::kmeans_full(
            &to_rows32(&data),
            k,
            cfg.max_iters,
            cfg.tol,
            &mut StdRng::seed_from_u64(kmeans_seed),
        );
        prop_assert_eq!(&ours.assignment, &o_assignment);
        prop_assert_eq!(ours.iterations, o_iters);
        bitwise_eq(&ours.centroids, &o_centroids, "kmeans centroids").unwrap();
        prop_assert_eq!(ours.inertia.to_bits(), o_inertia.to_bits(), "inertia {} vs {}", ours.inertia, o_inertia);
    }
}

// ---- 3. Eq. 6 coarsening: bitwise ---------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coarsened_edge_weights_match_oracle_bitwise(
        (nl, nr, edges) in bipartite_graph(10, 10, 30),
        kl in 1usize..5,
        kr in 1usize..5,
        assignment_seed in proptest::arbitrary::any::<u64>(),
    ) {
        use rand::Rng;
        let g = BipartiteGraph::from_edges(nl, nr, edges);
        let mut arng = StdRng::seed_from_u64(assignment_seed);
        let la: Vec<u32> = (0..nl).map(|_| arng.gen_range(0..kl as u32)).collect();
        let ra: Vec<u32> = (0..nr).map(|_| arng.gen_range(0..kr as u32)).collect();
        let c = coarsen(&g, &Assignment::new(la.clone(), kl), &Assignment::new(ra.clone(), kr));
        // The oracle consumes the graph's merged, sorted edge list — the
        // same order the optimized coarsening folds weights in.
        let table = oracle::coarsen::coarsen_weights(g.edges(), &la, &ra, kl, kr);
        for (cl, row) in table.iter().enumerate() {
            for (cr, &w) in row.iter().enumerate() {
                let ours = c.edge_weight(cl, cr);
                if w > 0.0 {
                    prop_assert_eq!(ours.map(f32::to_bits), Some(w.to_bits()),
                        "cluster edge ({}, {}): {:?} vs oracle {}", cl, cr, ours, w);
                } else {
                    prop_assert_eq!(ours, None, "spurious cluster edge ({}, {})", cl, cr);
                }
            }
        }
    }
}

// ---- 4. BM25: f64 reference ---------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bm25_scores_match_recounting_oracle(
        docs in prop::collection::vec(prop::collection::vec(0u32..20, 0..15), 1..8),
        query in prop::collection::vec(0u32..25, 0..10),
    ) {
        let idx = hignn_text::Bm25Index::new(&docs);
        let ours = idx.score_all(&query);
        let theirs = oracle::bm25::score_all(&query, &docs);
        for (d, (a, e)) in ours.iter().zip(&theirs).enumerate() {
            prop_assert!((a - e).abs() <= 1e-12 * (1.0 + e.abs()),
                "doc {}: {} vs oracle {}", d, a, e);
        }
    }
}

// ---- 5. MLP forward (Eq. 7 head): bitwise -------------------------------

/// Reads an [`Mlp`]'s registered parameters back as oracle layers.
fn oracle_layers(mlp: &Mlp, store: &ParamStore) -> Vec<oracle::mlp::DenseLayer> {
    mlp.layers()
        .iter()
        .map(|l| oracle::mlp::DenseLayer {
            w: to_rows32(store.get(l.weight())),
            b: store.get(l.bias()).row(0).to_vec(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mlp_infer_matches_oracle_bitwise(
        (rows, d0, h1, h2) in (1usize..10, 1usize..6, 1usize..8, 1usize..8),
        init_seed in proptest::arbitrary::any::<u64>(),
        x_seed in proptest::arbitrary::any::<u64>(),
    ) {
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "head",
            &[d0, h1, h2, 1],
            Activation::LeakyRelu,
            &mut StdRng::seed_from_u64(init_seed),
        );
        let x = hignn_tensor::init::xavier_uniform(rows, d0, &mut StdRng::seed_from_u64(x_seed));
        let ours = mlp.infer(&store, &x);
        let theirs = oracle::mlp::forward(&to_rows32(&x), &oracle_layers(&mlp, &store), 0.01);
        bitwise_eq(&ours, &theirs, "mlp infer").unwrap();
    }

    #[test]
    fn bce_with_logits_matches_oracle_bitwise(
        logits in prop::collection::vec(-6.0f32..6.0, 1..20),
        target_bits in prop::collection::vec(any::<bool>(), 1..20),
    ) {
        let n = logits.len().min(target_bits.len());
        let targets: Vec<f32> = target_bits[..n].iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let l = tape.input(Matrix::column_vector(&logits[..n]));
        let loss = tape.bce_with_logits(l, &targets);
        let ours = tape.scalar(loss);
        let theirs = oracle::mlp::bce_with_logits(
            &logits[..n].iter().map(|&v| vec![v]).collect::<Vec<_>>(),
            &targets,
        );
        prop_assert_eq!(ours.to_bits(), theirs.to_bits(), "bce {} vs {}", ours, theirs);
    }
}

// ---- 6. Full bipartite SAGE inference: f64 reference --------------------

/// Reads one side's registered step parameters back as oracle steps.
fn oracle_steps(store: &ParamStore, name: &str, side: &str, num_steps: usize) -> Vec<SageStep> {
    (1..=num_steps)
        .map(|p| SageStep {
            m: to_rows64(store.get(store.id(&format!("{name}.{side}.m{p}")).unwrap())),
            w: to_rows64(store.get(store.id(&format!("{name}.{side}.w{p}")).unwrap())),
            b: store
                .get(store.id(&format!("{name}.{side}.b{p}")).unwrap())
                .row(0)
                .iter()
                .map(|&v| v as f64)
                .collect(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn embed_all_matches_f64_oracle(
        (nl, nr, edges) in bipartite_graph(8, 8, 24),
        init_seed in proptest::arbitrary::any::<u64>(),
        feat_seed in proptest::arbitrary::any::<u64>(),
    ) {
        const D: usize = 3;
        let g = BipartiteGraph::from_edges(nl, nr, edges);
        let mut store = ParamStore::new();
        let cfg = BipartiteSageConfig {
            input_dim: D,
            dim: D,
            fanouts: vec![2, 2], // P = 2; fanouts themselves are unused by embed_all
            ..Default::default()
        };
        let sage = BipartiteSage::new(&mut store, "sage", cfg, &mut StdRng::seed_from_u64(init_seed));
        let mut frng = StdRng::seed_from_u64(feat_seed);
        let uf = hignn_tensor::init::xavier_uniform(nl, D, &mut frng);
        let if_ = hignn_tensor::init::xavier_uniform(nr, D, &mut frng);

        let (zu, zi) = sage.embed_all(&store, &g, &uf, &if_, &ParallelExecutor::single());
        let (ozu, ozi) = oracle::sage::embed_all(
            &adjacency(&g, Side::Left),
            &adjacency(&g, Side::Right),
            &to_rows64(&uf),
            &to_rows64(&if_),
            &oracle_steps(&store, "sage", "user", 2),
            &oracle_steps(&store, "sage", "item", 2),
            0.01,
        );
        prop_assert!(max_abs_diff64(&zu, &ozu) < 5e-4, "user side diverged: {}", max_abs_diff64(&zu, &ozu));
        prop_assert!(max_abs_diff64(&zi, &ozi) < 5e-4, "item side diverged: {}", max_abs_diff64(&zi, &ozi));
    }
}

// ---- 7. Eq. 5 loss + gradients vs finite differences --------------------

const EQ5_DIM: usize = 3;
const EQ5_HIDDEN: usize = 4;

/// One randomized Eq. 5 instance: the optimized side (a [`ParamStore`]
/// plus everything needed to build the loss on a [`Tape`]) and the
/// naive side (an [`Eq5Setup`] holding the same numbers in `f64`).
struct Eq5Fixture {
    graph: BipartiteGraph,
    uf: Matrix,
    if_: Matrix,
    store: ParamStore,
    /// Tape-side parameter ids in the same order as `oracle_params`.
    param_ids: Vec<(Eq5Param, ParamId)>,
    positives: Vec<(usize, usize, f32)>,
    neg_user_pairs: Vec<(usize, usize)>,
    neg_item_pairs: Vec<(usize, usize)>,
    gamma: f32,
    q_users: f32,
    q_items: f32,
    oracle: Eq5Setup,
}

/// Raw draw feeding [`build_eq5_fixture`]. All parameter entries come
/// from the proptest case RNG, so a persisted case index reproduces the
/// whole instance.
#[derive(Clone, Debug)]
struct Eq5Draw {
    nl: usize,
    nr: usize,
    edges: Vec<(u32, u32, f32)>,
    param_seed: u64,
    neg_user_pairs: Vec<(usize, usize)>,
    neg_item_pairs: Vec<(usize, usize)>,
    gamma: f32,
    q_users: f32,
    q_items: f32,
}

fn eq5_draw() -> impl Strategy<Value = Eq5Draw> {
    (2usize..5, 2usize..5).prop_flat_map(|(nl, nr)| {
        (
            Just((nl, nr)),
            prop::collection::vec((0..nl as u32, 0..nr as u32, 0.5f32..4.0), 1..10),
            proptest::arbitrary::any::<u64>(),
            (
                prop::collection::vec((0..nl, 0..nr), 1..5),
                prop::collection::vec((0..nl, 0..nr), 1..5),
            ),
            (0.1f32..1.5, 0.5f32..3.0, 0.5f32..3.0),
        )
            .prop_map(|((nl, nr), edges, param_seed, (negu, negi), (gamma, qu, qi))| Eq5Draw {
                nl,
                nr,
                edges,
                param_seed,
                neg_user_pairs: negu,
                neg_item_pairs: negi,
                gamma,
                q_users: qu,
                q_items: qi,
            })
    })
}

fn build_eq5_fixture(draw: Eq5Draw) -> Eq5Fixture {
    let d = EQ5_DIM;
    let h = EQ5_HIDDEN;
    let graph = BipartiteGraph::from_edges(draw.nl, draw.nr, draw.edges);
    let mut rng = StdRng::seed_from_u64(draw.param_seed);
    let uf = hignn_tensor::init::xavier_uniform(draw.nl, d, &mut rng);
    let if_ = hignn_tensor::init::xavier_uniform(draw.nr, d, &mut rng);

    let mut store = ParamStore::new();
    let add = |store: &mut ParamStore, name: &str, rows: usize, cols: usize, rng: &mut StdRng| {
        let m = hignn_tensor::init::xavier_uniform(rows, cols, rng);
        store.add(name.to_string(), m)
    };
    let um = add(&mut store, "eq5.user.m", d, d, &mut rng);
    let uw = add(&mut store, "eq5.user.w", 2 * d, d, &mut rng);
    let ub = add(&mut store, "eq5.user.b", 1, d, &mut rng);
    let im = add(&mut store, "eq5.item.m", d, d, &mut rng);
    let iw = add(&mut store, "eq5.item.w", 2 * d, d, &mut rng);
    let ib = add(&mut store, "eq5.item.b", 1, d, &mut rng);
    let s0w = add(&mut store, "eq5.scorer.l0.w", 2 * d + 1, h, &mut rng);
    let s0b = add(&mut store, "eq5.scorer.l0.b", 1, h, &mut rng);
    let s1w = add(&mut store, "eq5.scorer.l1.w", h, 1, &mut rng);
    let s1b = add(&mut store, "eq5.scorer.l1.b", 1, 1, &mut rng);

    let param_ids = vec![
        (Eq5Param::UserM(0), um),
        (Eq5Param::UserW(0), uw),
        (Eq5Param::UserB(0), ub),
        (Eq5Param::ItemM(0), im),
        (Eq5Param::ItemW(0), iw),
        (Eq5Param::ItemB(0), ib),
        (Eq5Param::ScorerW(0), s0w),
        (Eq5Param::ScorerB(0), s0b),
        (Eq5Param::ScorerW(1), s1w),
        (Eq5Param::ScorerB(1), s1b),
    ];

    let positives: Vec<(usize, usize, f32)> = graph
        .edges()
        .iter()
        .map(|&(u, i, w)| (u as usize, i as usize, w))
        .collect();

    let step64 = |m: ParamId, w: ParamId, b: ParamId| SageStep {
        m: to_rows64(store.get(m)),
        w: to_rows64(store.get(w)),
        b: store.get(b).row(0).iter().map(|&v| v as f64).collect(),
    };
    let oracle = Eq5Setup {
        user_adj: adjacency(&graph, Side::Left),
        item_adj: adjacency(&graph, Side::Right),
        user_feats: to_rows64(&uf),
        item_feats: to_rows64(&if_),
        user_steps: vec![step64(um, uw, ub)],
        item_steps: vec![step64(im, iw, ib)],
        scorer: vec![
            Dense64 {
                w: to_rows64(store.get(s0w)),
                b: store.get(s0b).row(0).iter().map(|&v| v as f64).collect(),
            },
            Dense64 {
                w: to_rows64(store.get(s1w)),
                b: store.get(s1b).row(0).iter().map(|&v| v as f64).collect(),
            },
        ],
        slope: 0.01,
        positives: positives.iter().map(|&(u, i, w)| (u, i, w as f64)).collect(),
        neg_user_pairs: draw.neg_user_pairs.clone(),
        neg_item_pairs: draw.neg_item_pairs.clone(),
        gamma: draw.gamma as f64,
        q_users: draw.q_users as f64,
        q_items: draw.q_items as f64,
    };

    Eq5Fixture {
        graph,
        uf,
        if_,
        store,
        param_ids,
        positives,
        neg_user_pairs: draw.neg_user_pairs,
        neg_item_pairs: draw.neg_item_pairs,
        gamma: draw.gamma,
        q_users: draw.q_users,
        q_items: draw.q_items,
        oracle,
    }
}

/// Builds the deterministic full-neighbourhood Eq. 5 loss on a tape:
/// one SAGE step for both sides (exact neighbourhood means via
/// `segment_mean`, cross-side matmul by `M`, concat, project, leaky
/// ReLU), then the scorer MLP over positive and negative pairs, then
/// `J = pos + Q_u * neg_u + Q_i * neg_i`.
fn tape_eq5_loss(fx: &Eq5Fixture, tape: &mut Tape) -> Var {
    let id_of = |p: Eq5Param| fx.param_ids.iter().find(|(q, _)| *q == p).unwrap().1;
    let flat_l: Vec<usize> =
        fx.graph.flat_neighbors(Side::Left).iter().map(|&v| v as usize).collect();
    let flat_r: Vec<usize> =
        fx.graph.flat_neighbors(Side::Right).iter().map(|&v| v as usize).collect();
    let offs_l = fx.graph.offsets(Side::Left).to_vec();
    let offs_r = fx.graph.offsets(Side::Right).to_vec();

    let hu = tape.input(fx.uf.clone());
    let hi = tape.input(fx.if_.clone());
    let gathered_i = tape.gather_rows(hi, &flat_l);
    let agg_u = tape.segment_mean(gathered_i, &offs_l);
    let gathered_u = tape.gather_rows(hu, &flat_r);
    let agg_i = tape.segment_mean(gathered_u, &offs_r);

    let dense = |tape: &mut Tape, h: Var, agg: Var, m: ParamId, w: ParamId, b: ParamId| {
        let mp = tape.param(m);
        let t = tape.matmul(agg, mp);
        let cat = tape.concat_cols(&[h, t]);
        let wp = tape.param(w);
        let lin = tape.matmul(cat, wp);
        let bp = tape.param(b);
        let lin = tape.add_bias(lin, bp);
        tape.leaky_relu(lin, 0.01)
    };
    let zu = dense(
        tape,
        hu,
        agg_u,
        id_of(Eq5Param::UserM(0)),
        id_of(Eq5Param::UserW(0)),
        id_of(Eq5Param::UserB(0)),
    );
    let zi = dense(
        tape,
        hi,
        agg_i,
        id_of(Eq5Param::ItemM(0)),
        id_of(Eq5Param::ItemW(0)),
        id_of(Eq5Param::ItemB(0)),
    );

    let scorer = |tape: &mut Tape, x: Var| {
        let w0 = tape.param(id_of(Eq5Param::ScorerW(0)));
        let b0 = tape.param(id_of(Eq5Param::ScorerB(0)));
        let h = tape.matmul(x, w0);
        let h = tape.add_bias(h, b0);
        let h = tape.leaky_relu(h, 0.01);
        let w1 = tape.param(id_of(Eq5Param::ScorerW(1)));
        let b1 = tape.param(id_of(Eq5Param::ScorerB(1)));
        let o = tape.matmul(h, w1);
        tape.add_bias(o, b1)
    };
    let pair_term = |tape: &mut Tape,
                     users: &[usize],
                     items: &[usize],
                     weight_col: Matrix,
                     target: f32| {
        let zu_g = tape.gather_rows(zu, users);
        let zi_g = tape.gather_rows(zi, items);
        let w_col = tape.input(weight_col);
        let input = tape.concat_cols(&[zu_g, zi_g, w_col]);
        let logits = scorer(tape, input);
        let targets = vec![target; users.len()];
        tape.bce_with_logits(logits, &targets)
    };

    let pos_users: Vec<usize> = fx.positives.iter().map(|&(u, _, _)| u).collect();
    let pos_items: Vec<usize> = fx.positives.iter().map(|&(_, i, _)| i).collect();
    let pos_weights: Vec<f32> = fx.positives.iter().map(|&(_, _, w)| (1.0 + w).ln()).collect();
    let pos_loss =
        pair_term(tape, &pos_users, &pos_items, Matrix::column_from_vec(pos_weights), 1.0);

    let negu_users: Vec<usize> = fx.neg_user_pairs.iter().map(|&(u, _)| u).collect();
    let negu_items: Vec<usize> = fx.neg_user_pairs.iter().map(|&(_, i)| i).collect();
    let negu_loss = pair_term(
        tape,
        &negu_users,
        &negu_items,
        Matrix::full(negu_users.len(), 1, fx.gamma),
        0.0,
    );
    let negi_users: Vec<usize> = fx.neg_item_pairs.iter().map(|&(u, _)| u).collect();
    let negi_items: Vec<usize> = fx.neg_item_pairs.iter().map(|&(_, i)| i).collect();
    let negi_loss = pair_term(
        tape,
        &negi_users,
        &negi_items,
        Matrix::full(negi_users.len(), 1, fx.gamma),
        0.0,
    );

    let negu_scaled = tape.scale(negu_loss, fx.q_users);
    let negi_scaled = tape.scale(negi_loss, fx.q_items);
    let loss = tape.add(pos_loss, negu_scaled);
    tape.add(loss, negi_scaled)
}

/// Checks one tensor's analytic gradient against oracle finite
/// differences, retrying a failed entry with a 100x smaller step before
/// declaring a mismatch — the retry collapses the rare case where the
/// primary step straddles a leaky-ReLU kink while leaving genuine bugs
/// (wrong sign, wrong formula) failing at every step size.
fn check_eq5_grad(
    setup: &mut Eq5Setup,
    p: Eq5Param,
    analytic: &Matrix,
    tol: f64,
) -> Result<(), String> {
    let coarse = setup.fd_grad(p, 1e-4);
    match grad_close(analytic, &coarse, tol, &format!("{p:?}")) {
        Ok(()) => Ok(()),
        Err(_) => {
            let fine = setup.fd_grad(p, 1e-6);
            grad_close(analytic, &fine, tol, &format!("{p:?} (fine step)"))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn eq5_loss_and_gradients_match_finite_differences(draw in eq5_draw()) {
        let fx = build_eq5_fixture(draw);
        let mut tape = Tape::new(&fx.store);
        let loss = tape_eq5_loss(&fx, &mut tape);
        let loss_val = tape.scalar(loss) as f64;
        let oracle_loss = fx.oracle.loss();
        prop_assert!(
            (loss_val - oracle_loss).abs() <= 1e-3 * (1.0 + oracle_loss.abs()),
            "Eq.5 forward diverged: tape {} vs oracle {}", loss_val, oracle_loss
        );

        let grads = tape.backward(loss);
        let mut setup = fx.oracle.clone();
        for &(p, id) in &fx.param_ids {
            let analytic = grads.get(id).unwrap_or_else(|| panic!("no gradient for {p:?}"));
            check_eq5_grad(&mut setup, p, analytic, 5e-3).unwrap();
        }
    }
}

// ---- 8. Tiled kernels, fused gather + pool, pooled tape: bitwise --------
//
// The matmul kernels process 4x16 output panels on AVX2 (4x8 blocks on
// the portable backend) with an 8-lane edge vector and scalar remainder
// edges; these properties push the shapes past two full panels so
// interiors, remainders, and their seams are all crossed, and check
// every output bit against the naive oracle. Leaky ReLU forward and
// backward are held to the scalar rule's bits. The
// fused gather + mean-pool and the workspace-pooled tape are compared
// against their unfused / fresh-allocation references, which earlier
// sections already tie to the oracle.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tiled_matmul_tile_crossing_shapes_match_oracle_bitwise(
        (m, k, n) in (1usize..21, 1usize..14, 1usize..41),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = hignn_tensor::init::xavier_uniform(m, k, &mut rng);
        let b = hignn_tensor::init::xavier_uniform(k, n, &mut rng);
        let oa = to_rows32(&a);
        let ob = to_rows32(&b);
        let product = oracle::linalg::matmul(&oa, &ob);
        bitwise_eq(&a.matmul(&b), &product, "tiled matmul nn").unwrap();
        // Stopped after `split` columns and resumed from the partial
        // sums, from either start value (`+0.0`, a carried row): every
        // row of `a` is given row 0's first `split` columns, the shared
        // prefix `matmul_carried` multiplies once.
        for split in 0..=k {
            let prefix = Matrix::from_fn(1, split, |_, j| a.get(0, j));
            let tail = Matrix::from_fn(m, k - split, |i, j| a.get(i, split + j));
            let rows = Matrix::from_fn(m, k, |i, j| a.get(if j < split { 0 } else { i }, j));
            let carry = prefix.matmul_carried(&b, 0, None);
            bitwise_eq(
                &tail.matmul_carried(&b, split, Some(&carry)),
                &oracle::linalg::matmul(&to_rows32(&rows), &ob),
                "carried matmul",
            )
            .unwrap();
            // (The oracle reads the column count off `b`'s first row.)
            if split < k {
                bitwise_eq(
                    &tail.matmul_carried(&b, split, None),
                    &oracle::linalg::matmul(&to_rows32(&tail), &ob[split..].to_vec()),
                    "matmul from a weight row offset",
                )
                .unwrap();
            }
        }
        let bt = hignn_tensor::init::xavier_uniform(n, k, &mut rng);
        bitwise_eq(
            &a.matmul_nt(&bt),
            &oracle::linalg::matmul_nt(&oa, &to_rows32(&bt)),
            "tiled matmul nt",
        )
        .unwrap();
        let at = hignn_tensor::init::xavier_uniform(k, m, &mut rng);
        bitwise_eq(
            &at.matmul_tn(&b),
            &oracle::linalg::matmul_tn(&to_rows32(&at), &ob),
            "tiled matmul tn",
        )
        .unwrap();
    }

    #[test]
    fn fused_concat_matmul_matches_concat_then_matmul_bitwise(
        (rows, da, db, n) in (1usize..18, 1usize..9, 1usize..9, 1usize..18),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = hignn_tensor::init::xavier_uniform(rows, da, &mut rng);
        let b = hignn_tensor::init::xavier_uniform(rows, db, &mut rng);
        let w = hignn_tensor::init::xavier_uniform(da + db, n, &mut rng);
        let reference = Matrix::concat_cols(&[&a, &b]).matmul(&w);
        let fused = Matrix::concat2_matmul_rows_range(&a, 0..rows, &b, &w);
        bitwise_eq(&fused, &to_rows32(&reference), "concat2_matmul").unwrap();
    }

    #[test]
    fn fused_gather_mean_pool_matches_composition_bitwise(
        (table_rows, d, groups, group) in (1usize..40, 1usize..9, 0usize..12, 1usize..7),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let table = hignn_tensor::init::xavier_uniform(table_rows, d, &mut rng);
        let idx: Vec<usize> = (0..groups * group).map(|_| rng.gen_range(0..table_rows)).collect();
        let reference = table.gather_rows(&idx).mean_pool_rows(group);
        let fused = table.gather_mean_pool_rows(&idx, group);
        bitwise_eq(&fused, &to_rows32(&reference), "gather_mean_pool_rows").unwrap();
    }

    #[test]
    fn gather_mean_pool_is_value_identical(
        (table_rows, d, groups, group) in (1usize..40, 1usize..40, 1usize..12, 1usize..7),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let table = hignn_tensor::init::xavier_uniform(table_rows, d, &mut rng);
        let idx: Vec<usize> =
            (0..groups * group).map(|_| rng.gen_range(0..table_rows)).collect();
        // The one (vector) kernel, past several vector widths, against
        // the unfused scalar ops.
        let reference = table.gather_rows(&idx).mean_pool_rows(group);
        let mut fused = Matrix::zeros(groups, d);
        table.gather_mean_pool_rows_into(&idx, group, &mut fused);
        bitwise_eq(&fused, &to_rows32(&reference), "gather_mean_pool_rows_into").unwrap();
    }

    #[test]
    fn elementwise_kernels_match_oracles(
        vals in prop::collection::vec(-3.0f32..3.0, 1..70),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        use hignn_tensor::simd;
        use rand::Rng;
        let mut fwd = vals.clone();
        simd::leaky_relu(&mut fwd, 0.01);
        for (i, (&f, &x)) in fwd.iter().zip(&vals).enumerate() {
            let want = if x > 0.0 { x } else { 0.01 * x };
            prop_assert_eq!(f.to_bits(), want.to_bits(), "leaky_relu[{}]: {} vs {}", i, f, want);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let gin: Vec<f32> = vals.iter().map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let mut bwd = gin.clone();
        simd::leaky_relu_bwd(&mut bwd, &vals, 0.01);
        for (i, ((&g, &g0), &x)) in bwd.iter().zip(&gin).zip(&vals).enumerate() {
            let want = if x > 0.0 { g0 } else { 0.01 * g0 };
            prop_assert_eq!(g.to_bits(), want.to_bits(), "leaky_relu_bwd[{}]", i);
        }
    }

    #[test]
    fn pooled_tape_step_matches_fresh_tape_bitwise(
        (n, d, h) in (1usize..12, 1usize..6, 1usize..8),
        init_seed in proptest::arbitrary::any::<u64>(),
        x_seed in proptest::arbitrary::any::<u64>(),
        target_bits in prop::collection::vec(any::<bool>(), 12),
    ) {
        let mut rng = StdRng::seed_from_u64(init_seed);
        let mut store = ParamStore::new();
        let w1 = store.add("w1", hignn_tensor::init::xavier_uniform(d, h, &mut rng));
        let b1 = store.add("b1", Matrix::zeros(1, h));
        let w2 = store.add("w2", hignn_tensor::init::xavier_uniform(h, 1, &mut rng));
        let x = hignn_tensor::init::xavier_uniform(n, d, &mut StdRng::seed_from_u64(x_seed));
        let targets: Vec<f32> =
            target_bits[..n].iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();

        let step = |tape: &mut Tape| -> (f32, Vec<Vec<u32>>) {
            let xv = tape.input(x.clone());
            let (w1v, b1v, w2v) = (tape.param(w1), tape.param(b1), tape.param(w2));
            let h1 = tape.matmul(xv, w1v);
            let h1 = tape.add_bias(h1, b1v);
            let h1 = tape.leaky_relu(h1, 0.01);
            let logits = tape.matmul(h1, w2v);
            let loss = tape.bce_with_logits(logits, &targets);
            let loss_val = tape.scalar(loss);
            let grads = tape.backward(loss);
            let bits = [w1, b1, w2]
                .iter()
                .map(|&p| grads.get(p).unwrap().data().iter().map(|v| v.to_bits()).collect())
                .collect();
            (loss_val, bits)
        };

        let mut fresh = Tape::new(&store);
        let (fresh_loss, fresh_bits) = step(&mut fresh);
        let ws = hignn_tensor::Workspace::new();
        // Two pooled runs: the first leases fresh buffers, the second
        // reuses recycled (dirtied) ones — both must match bitwise.
        for round in 0..2 {
            let mut pooled = Tape::with_workspace(&store, &ws);
            let (loss, bits) = step(&mut pooled);
            pooled.recycle();
            prop_assert_eq!(loss.to_bits(), fresh_loss.to_bits(),
                "pooled round {} loss {} vs fresh {}", round, loss, fresh_loss);
            prop_assert_eq!(&bits, &fresh_bits, "pooled round {} gradients diverged", round);
        }
    }
}

// ---- deliberate-break detection -----------------------------------------

mod broken_kernel_detection {
    use super::*;

    fn fixed_eq5_fixture() -> Eq5Fixture {
        build_eq5_fixture(Eq5Draw {
            nl: 3,
            nr: 3,
            edges: vec![(0, 0, 1.5), (0, 1, 2.0), (1, 0, 1.0), (2, 2, 3.0)],
            param_seed: 7,
            neg_user_pairs: vec![(1, 2), (2, 0)],
            neg_item_pairs: vec![(0, 2), (2, 1)],
            gamma: 0.8,
            q_users: 2.0,
            q_items: 1.5,
        })
    }

    #[test]
    fn sign_flipped_eq5_gradient_is_rejected() {
        let fx = fixed_eq5_fixture();
        let mut tape = Tape::new(&fx.store);
        let loss = tape_eq5_loss(&fx, &mut tape);
        let grads = tape.backward(loss);
        let id = fx.param_ids.iter().find(|(p, _)| *p == Eq5Param::UserM(0)).unwrap().1;
        let analytic = grads.get(id).expect("gradient for M_u");
        let mut setup = fx.oracle.clone();

        // Sanity: the untouched gradient passes and is non-trivial.
        check_eq5_grad(&mut setup, Eq5Param::UserM(0), analytic, 5e-3).unwrap();
        let fd = setup.fd_grad(Eq5Param::UserM(0), 1e-4);
        let fd_max = fd.iter().flatten().fold(0.0f64, |a, &v| a.max(v.abs()));
        assert!(fd_max > 1e-4, "instance too degenerate to detect a sign flip ({fd_max})");

        // The break: the Eq. 5 gradient with its sign flipped (the
        // classic backward-pass bug) must be rejected.
        let flipped = analytic.map(|v| -v);
        let verdict = check_eq5_grad(&mut setup, Eq5Param::UserM(0), &flipped, 5e-3);
        assert!(verdict.is_err(), "sign-flipped gradient was not detected");
    }

    #[test]
    fn one_ulp_matmul_corruption_is_rejected() {
        let a = Matrix::from_vec(2, 3, vec![0.7, -1.2, 0.4, 2.0, 0.3, -0.9]);
        let b = Matrix::from_vec(3, 2, vec![1.1, 0.2, -0.6, 0.8, 0.5, -1.4]);
        let product = a.matmul(&b);
        let expected = oracle::linalg::matmul(&to_rows32(&a), &to_rows32(&b));
        bitwise_eq(&product, &expected, "matmul").unwrap();

        // Corrupt a single output entry by one ulp: still "equal" under
        // any epsilon comparison, but the bitwise oracle must catch it.
        let mut corrupted = product;
        let v = corrupted.get(1, 1);
        corrupted.set(1, 1, f32::from_bits(v.to_bits() ^ 1));
        assert!(
            bitwise_eq(&corrupted, &expected, "matmul").is_err(),
            "1-ulp corruption was not detected"
        );
    }

    #[test]
    fn fused_product_is_rejected_by_the_bitwise_oracle() {
        // If an FMA ever leaked into the exact path, this is what its
        // output would look like — each term's multiply and add rounded
        // once instead of twice — and the bitwise oracle must refuse it
        // on either backend.
        let mut rng = StdRng::seed_from_u64(42);
        let a = hignn_tensor::init::xavier_uniform(9, 13, &mut rng);
        let b = hignn_tensor::init::xavier_uniform(13, 17, &mut rng);
        let expected = oracle::linalg::matmul(&to_rows32(&a), &to_rows32(&b));
        bitwise_eq(&a.matmul(&b), &expected, "matmul").unwrap();
        let fused = Matrix::from_fn(9, 17, |i, j| {
            (0..13).fold(0.0f32, |acc, t| a.get(i, t).mul_add(b.get(t, j), acc))
        });
        assert!(
            bitwise_eq(&fused, &expected, "fused matmul").is_err(),
            "an FMA-contracted product matched the oracle in every element of this input"
        );
    }

    #[test]
    fn wrong_kmeans_tie_break_is_rejected() {
        // Duplicate centroids force a tie; an implementation that broke
        // the first-minimum-wins rule would disagree with the oracle.
        let data = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let centroids = Matrix::from_vec(2, 1, vec![2.0, 2.0]);
        let (ours, _) = assign_all(&centroids, &data, &ParallelExecutor::single());
        let (theirs, _) = oracle::kmeans::assign(&to_rows32(&data), &to_rows32(&centroids));
        assert_eq!(ours, theirs);
        assert!(ours.iter().all(|&c| c == 0), "tie must go to the first centroid");
        let last_wins: Vec<u32> = ours.iter().map(|_| 1).collect();
        assert_ne!(last_wins, theirs, "oracle cannot distinguish tie-break rules");
    }
}

// ---- strategies smoke test (the shared module itself) --------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn matrix_roundtrips_through_oracle_rows(m in matrix_exact(4, 3, 2.0)) {
        let rows = to_rows32(&m);
        let back = hignn_integration_tests::strategies::from_rows32(&rows);
        prop_assert_eq!(m.data(), back.data());
    }
}
