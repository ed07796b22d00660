//! The serving engine's oracle contract, under proptest.
//!
//! Three properties anchor the beam-search approximation to an
//! exhaustive ground truth, over randomly shaped hierarchies:
//!
//! 1. **Beam ∞ is bitwise identical to exhaustive scoring** — same
//!    items, same score *bits* — at 1 and 4 serving threads.
//! 2. **Exhaustive scores themselves are bitwise identical to the
//!    differential oracle**: the scorer's exported weights fed through
//!    `hignn_oracle::mlp::forward` (naive triple loops, no shared
//!    inference code) reproduce every leaf logit bit.
//! 3. **Recall@k is non-decreasing in beam width** — widening the beam
//!    never loses a true top-k item.
//!
//! Failures persist their seeds to `proptest-regressions/` so a caught
//! counterexample replays forever.

use hignn::stack::{Hierarchy, Level};
use hignn_graph::{Assignment, BipartiteGraph};
use hignn_oracle::mlp::{forward, DenseLayer};
use hignn_serve::{BeamWidth, ServeModel, TopKRequest};
use hignn_tensor::{Matrix, ParallelExecutor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random but *valid* hierarchy: `levels` levels of random
/// embeddings and surjective assignments with geometrically shrinking
/// cluster counts. Deterministic in `seed`, so proptest shrinking and
/// regression replay reproduce the exact hierarchy.
fn random_hierarchy(
    num_users: usize,
    num_items: usize,
    dim: usize,
    levels: usize,
    seed: u64,
) -> Hierarchy {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut n_u = num_users;
    let mut n_i = num_items;
    let mut built = Vec::with_capacity(levels);
    for _ in 0..levels {
        // Surjective: entity v < k pins cluster v, the rest draw freely.
        let k_u = rng.gen_range(1..=n_u);
        let k_i = rng.gen_range(1..=n_i);
        let assign = |n: usize, k: usize, rng: &mut StdRng| {
            Assignment::new(
                (0..n).map(|v| if v < k { v as u32 } else { rng.gen_range(0..k as u32) }).collect(),
                k,
            )
        };
        let user_assignment = assign(n_u, k_u, &mut rng);
        let item_assignment = assign(n_i, k_i, &mut rng);
        let embed = |n: usize, rng: &mut StdRng| {
            Matrix::from_vec(n, dim, (0..n * dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
        };
        built.push(Level {
            user_embeddings: embed(n_u, &mut rng),
            item_embeddings: embed(n_i, &mut rng),
            user_assignment,
            item_assignment,
            coarsened: BipartiteGraph::from_edges(k_u, k_i, vec![(0, 0, 1.0)]),
            epoch_losses: vec![],
        });
        n_u = k_u;
        n_i = k_i;
    }
    Hierarchy::from_parts(built, num_users, num_items).expect("random hierarchy is consistent")
}

fn bits(items: &[hignn_serve::ScoredItem]) -> Vec<(u32, u32)> {
    items.iter().map(|s| (s.item, s.score.to_bits())).collect()
}

fn recall(approx: &[hignn_serve::ScoredItem], exact: &[hignn_serve::ScoredItem]) -> f64 {
    let hits = exact.iter().filter(|e| approx.iter().any(|a| a.item == e.item)).count();
    hits as f64 / exact.len().max(1) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 1: with nothing pruned, the coarse-to-fine descent must
    /// return exactly what scoring every item returns — items AND score
    /// bits — on the inline path and through `serve_batch` at 1 and 4
    /// threads.
    #[test]
    fn beam_infinity_is_bitwise_exhaustive_at_1_and_4_threads(
        num_users in 2usize..5,
        num_items in 4usize..24,
        dim in 1usize..4,
        levels in 1usize..4,
        seed in any::<u64>(),
        k in 1usize..12,
    ) {
        let k = k.min(num_items);
        let h = random_hierarchy(num_users, num_items, dim, levels, seed);
        let requests: Vec<TopKRequest> = (0..num_users)
            .map(|user| TopKRequest { user, k, beam: BeamWidth::Infinite })
            .collect();
        let model = ServeModel::from_hierarchy(h, seed ^ 0x5E12);
        let exact: Vec<_> =
            (0..num_users).map(|u| model.exhaustive_top_k(u, k).unwrap()).collect();
        for (u, want) in exact.iter().enumerate() {
            let got = model.top_k(u, k, BeamWidth::Infinite).unwrap();
            prop_assert_eq!(bits(&got), bits(want), "inline beam-inf diverged for user {}", u);
        }
        for threads in [1usize, 4] {
            let exec = ParallelExecutor::new(threads);
            let got = model.serve_batch(&requests, &exec);
            for (u, (g, want)) in got.iter().zip(&exact).enumerate() {
                let g = g.as_ref().expect("valid request");
                prop_assert_eq!(
                    bits(g), bits(want),
                    "{}-thread serve_batch diverged for user {}", threads, u
                );
            }
        }
    }

    /// Property 2: exhaustive leaf scores match the differential oracle
    /// bitwise. The oracle gets only the exported weights and the plain
    /// concatenated features — a shared-bug in the inference kernels
    /// cannot hide.
    #[test]
    fn exhaustive_scores_match_the_naive_oracle_bitwise(
        num_users in 2usize..4,
        num_items in 4usize..16,
        dim in 1usize..4,
        levels in 1usize..3,
        seed in any::<u64>(),
    ) {
        let h = random_hierarchy(num_users, num_items, dim, levels, seed);
        let model = ServeModel::from_hierarchy(h, seed ^ 0x0AC1E);
        let layers: Vec<DenseLayer> = model
            .scorer()
            .export_layers()
            .into_iter()
            .map(|(w, b)| DenseLayer { w, b })
            .collect();
        for user in 0..num_users {
            let ranked = model.exhaustive_top_k(user, num_items).unwrap();
            let uf = model.user_features().row(user);
            for s in &ranked {
                let mut x = uf.to_vec();
                x.extend_from_slice(model.item_features().row(s.item as usize));
                let y = forward(&vec![x], &layers, 0.01);
                prop_assert_eq!(
                    y[0][0].to_bits(), s.score.to_bits(),
                    "oracle logit diverged for user {} item {}", user, s.item
                );
            }
        }
    }

    /// Property 3: recall@k against the exhaustive top-k never drops
    /// when the beam widens (survivor sets are nested prefixes under the
    /// total ranking order).
    #[test]
    fn recall_is_monotone_in_beam_width(
        num_users in 2usize..5,
        num_items in 6usize..24,
        dim in 1usize..4,
        levels in 1usize..4,
        seed in any::<u64>(),
        k in 1usize..8,
    ) {
        let k = k.min(num_items);
        let h = random_hierarchy(num_users, num_items, dim, levels, seed);
        let model = ServeModel::from_hierarchy(h, seed ^ 0xBEA3);
        let widths = [
            BeamWidth::Finite(1),
            BeamWidth::Finite(2),
            BeamWidth::Finite(3),
            BeamWidth::Finite(5),
            BeamWidth::Finite(8),
            BeamWidth::Finite(num_items),
            BeamWidth::Infinite,
        ];
        for user in 0..num_users {
            let exact = model.exhaustive_top_k(user, k).unwrap();
            let mut prev = -1.0f64;
            for beam in widths {
                let approx = model.top_k(user, k, beam).unwrap();
                let r = recall(&approx, &exact);
                prop_assert!(
                    r >= prev,
                    "recall dropped {} -> {} at beam {} for user {}", prev, r, beam, user
                );
                prev = r;
            }
            prop_assert_eq!(prev, 1.0, "beam-inf recall must be perfect for user {}", user);
        }
    }
}
