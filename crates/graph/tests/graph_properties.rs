//! Property-based tests for the bipartite-graph substrate.

use hignn_graph::coarsen::{coarsen, Assignment};
use hignn_graph::{sample_neighbors, BipartiteGraph, SamplingMode, Side};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Triples of ids and float bits.
type Bits = Vec<(u32, u32, u32)>;

/// Everything a graph stores, floats by bits: the edge list, both CSR
/// sides' neighbours, weights and prefix sums, and the total weight.
fn graph_bits(g: &BipartiteGraph) -> (Bits, Vec<Bits>, u64) {
    let edges = g.edges().iter().map(|&(l, r, w)| (l, r, w.to_bits())).collect();
    let mut slices = Vec::new();
    for side in [Side::Left, Side::Right] {
        for v in 0..g.num_vertices(side) {
            let (nbrs, ws, cum) = g.neighbors_cum(side, v);
            let slice = nbrs.iter().zip(ws).zip(cum);
            slices.push(slice.map(|((&n, w), c)| (n, w.to_bits(), c.to_bits())).collect());
        }
    }
    (edges, slices, g.total_weight().to_bits())
}

fn graph_strategy() -> impl Strategy<Value = BipartiteGraph> {
    (2usize..10, 2usize..10)
        .prop_flat_map(|(nl, nr)| {
            let edges =
                prop::collection::vec((0..nl as u32, 0..nr as u32, 0.1f32..5.0), 1..30);
            (Just(nl), Just(nr), edges)
        })
        .prop_map(|(nl, nr, edges)| BipartiteGraph::from_edges(nl, nr, edges))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sampled_neighbors_are_real_neighbors(g in graph_strategy(), seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vertices: Vec<usize> = (0..g.num_left()).collect();
        for mode in [SamplingMode::Uniform, SamplingMode::WeightBiased] {
            let sampled = sample_neighbors(&g, Side::Left, &vertices, 4, mode, &mut rng);
            prop_assert_eq!(sampled.len(), vertices.len() * 4);
            for (k, &s) in sampled.iter().enumerate() {
                let v = vertices[k / 4];
                let (nbrs, _) = g.neighbors(Side::Left, v);
                if nbrs.is_empty() {
                    prop_assert_eq!(s, g.num_right()); // null sentinel
                } else {
                    prop_assert!(nbrs.contains(&(s as u32)));
                }
            }
        }
    }

    #[test]
    fn edge_weights_positive_and_merged(g in graph_strategy()) {
        for &(l, r, w) in g.edges() {
            prop_assert!(w > 0.0);
            prop_assert_eq!(g.edge_weight(l as usize, r as usize), Some(w));
        }
        // Total weight equals sum over both CSR directions.
        let left_sum: f64 = g.weighted_degrees(Side::Left).iter().sum();
        let right_sum: f64 = g.weighted_degrees(Side::Right).iter().sum();
        prop_assert!((left_sum - g.total_weight()).abs() < 1e-3);
        prop_assert!((right_sum - g.total_weight()).abs() < 1e-3);
    }

    /// The sort-and-merge build against an insertion-order reference
    /// map: few distinct endpoints, so most draws are parallel edges, in
    /// arbitrary order. Every merged weight and the total must keep
    /// their bits (f32 addition is order-sensitive), and both CSR sides
    /// must list neighbours in strictly increasing order with matching
    /// weights and prefix sums.
    #[test]
    fn from_edges_folds_parallel_edges_in_input_order(
        raw in prop::collection::vec((0u32..4, 0u32..5, 0.1f32..5.0), 1..60),
    ) {
        let mut reference: BTreeMap<(u32, u32), f32> = BTreeMap::new();
        for &(l, r, w) in &raw {
            *reference.entry((l, r)).or_insert(0.0) += w;
        }
        let g = BipartiteGraph::from_edges(4, 5, raw);
        let got: Vec<(u32, u32, u32)> =
            g.edges().iter().map(|&(l, r, w)| (l, r, w.to_bits())).collect();
        let want: Vec<(u32, u32, u32)> =
            reference.iter().map(|(&(l, r), w)| (l, r, w.to_bits())).collect();
        prop_assert_eq!(got, want);
        let total: f64 = reference.values().map(|&w| w as f64).sum();
        prop_assert_eq!(g.total_weight().to_bits(), total.to_bits());
        for side in [Side::Left, Side::Right] {
            for v in 0..g.num_vertices(side) {
                let (nbrs, ws, cum) = g.neighbors_cum(side, v);
                prop_assert!(nbrs.windows(2).all(|n| n[0] < n[1]), "{:?} {}: {:?}", side, v, nbrs);
                let mut acc = 0f32;
                for (k, &n) in nbrs.iter().enumerate() {
                    let key = if side == Side::Left { (v as u32, n) } else { (n, v as u32) };
                    prop_assert_eq!(ws[k].to_bits(), reference[&key].to_bits());
                    acc += ws[k];
                    prop_assert_eq!(cum[k].to_bits(), acc.to_bits());
                }
            }
        }
    }

    /// `append_edges` is `from_edges` over the concatenated edge list,
    /// bit for bit, after each of three appends in a row. Few distinct
    /// endpoints, so batches repeat pairs among themselves and onto base
    /// edges; batch ids reach past the base on both sides, and a batch
    /// may be empty (which may still grow a side).
    #[test]
    fn append_edges_equals_from_edges_of_the_concatenation(
        base in prop::collection::vec((0u32..4, 0u32..5, 0.1f32..5.0), 0..30),
        batches in prop::collection::vec(
            (prop::collection::vec((0u32..7, 0u32..8, 0.1f32..5.0), 0..12), 0usize..2),
            3,
        ),
    ) {
        let (mut nl, mut nr) = (4, 5);
        let mut g = BipartiteGraph::from_edges(nl, nr, base.clone());
        let mut all = base;
        for (batch, spare) in &batches {
            let widest = |side: fn(&(u32, u32, f32)) -> u32| {
                batch.iter().map(|e| side(e) as usize + 1).max().unwrap_or(0)
            };
            nl = nl.max(widest(|e| e.0)) + spare;
            nr = nr.max(widest(|e| e.1));
            g.append_edges(nl, nr, batch);
            all.extend_from_slice(batch);
            let rebuilt = BipartiteGraph::from_edges(nl, nr, all.clone());
            prop_assert_eq!((g.num_left(), g.num_right()), (nl, nr));
            prop_assert_eq!(graph_bits(&g), graph_bits(&rebuilt));
        }
    }

    #[test]
    fn coarsen_by_identity_is_isomorphic(g in graph_strategy()) {
        let c = coarsen(
            &g,
            &Assignment::identity(g.num_left()),
            &Assignment::identity(g.num_right()),
        );
        prop_assert_eq!(c.edges(), g.edges());
    }

    #[test]
    fn double_coarsen_equals_composed_coarsen(g in graph_strategy()) {
        // Coarsening twice equals coarsening once by the composition.
        let nl = g.num_left();
        let nr = g.num_right();
        let l1 = Assignment::new((0..nl).map(|v| (v / 2) as u32).collect(), nl.div_ceil(2));
        let r1 = Assignment::new((0..nr).map(|v| (v / 2) as u32).collect(), nr.div_ceil(2));
        let g1 = coarsen(&g, &l1, &r1);
        let l2 = Assignment::new(
            (0..g1.num_left()).map(|v| (v / 2) as u32).collect(),
            g1.num_left().div_ceil(2),
        );
        let r2 = Assignment::new(
            (0..g1.num_right()).map(|v| (v / 2) as u32).collect(),
            g1.num_right().div_ceil(2),
        );
        let g2 = coarsen(&g1, &l2, &r2);
        let composed = coarsen(&g, &l1.compose(&l2), &r1.compose(&r2));
        // Weights may differ by f32 summation order; structure must match
        // exactly and weights within rounding.
        prop_assert_eq!(g2.num_edges(), composed.num_edges());
        for (a, b) in g2.edges().iter().zip(composed.edges()) {
            prop_assert_eq!((a.0, a.1), (b.0, b.1));
            prop_assert!((a.2 - b.2).abs() <= 1e-4 * (1.0 + a.2.abs()));
        }
    }

    #[test]
    fn graph_serialization_roundtrips(g in graph_strategy()) {
        use hignn_graph::serialize::{read_graph, write_graph};
        let mut buf = Vec::new();
        write_graph(&mut buf, &g).unwrap();
        let back = read_graph(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back.edges(), g.edges());
        prop_assert_eq!(back.num_left(), g.num_left());
        prop_assert_eq!(back.num_right(), g.num_right());
    }
}
