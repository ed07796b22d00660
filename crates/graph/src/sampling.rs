//! Neighbour and negative sampling.
//!
//! Bipartite GraphSAGE minibatches sample a fixed fanout of neighbours per
//! vertex at each depth (the paper's complexity analysis, Section III.D,
//! speaks of `K1`/`K2` neighbours at depths 1 and 2). The unsupervised
//! losses (Eqs. 5 and 12) additionally need negative samples drawn from a
//! degree-biased distribution `P_n` — implemented here with Walker's alias
//! method using the customary `deg^0.75` unigram distribution.

use crate::bipartite::{BipartiteGraph, Side};
use rand::Rng;

/// Sentinel index returned for vertices with no neighbours.
///
/// Callers append one zero row at this index to the opposite side's
/// feature matrix, so isolated vertices aggregate a zero vector instead of
/// noise.
pub(crate) fn null_vertex(graph: &BipartiteGraph, side: Side) -> usize {
    graph.num_vertices(side.opposite())
}

/// How neighbours are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingMode {
    /// Each neighbour equally likely.
    Uniform,
    /// Probability proportional to edge weight `S(e)` — repeated clicks
    /// make a neighbour more likely to be aggregated.
    WeightBiased,
}

/// Samples exactly `fanout` neighbours (with replacement) for each vertex
/// in `vertices`, flattened into one vector of length
/// `vertices.len() * fanout`.
///
/// Vertices without neighbours yield [`null_vertex`] entries.
pub fn sample_neighbors(
    graph: &BipartiteGraph,
    side: Side,
    vertices: &[usize],
    fanout: usize,
    mode: SamplingMode,
    rng: &mut impl Rng,
) -> Vec<usize> {
    let null = null_vertex(graph, side);
    let mut out = Vec::with_capacity(vertices.len() * fanout);
    for &v in vertices {
        let (nbrs, _w, cum) = graph.neighbors_cum(side, v);
        if nbrs.is_empty() {
            out.extend(std::iter::repeat_n(null, fanout));
            continue;
        }
        match mode {
            SamplingMode::Uniform => {
                for _ in 0..fanout {
                    out.push(nbrs[rng.gen_range(0..nbrs.len())] as usize);
                }
            }
            SamplingMode::WeightBiased => {
                let total = *cum.last().unwrap();
                if total > 0.0 {
                    for _ in 0..fanout {
                        let x = rng.gen_range(0.0..total);
                        // First slot whose cumulative weight exceeds x.
                        let k = cum.partition_point(|&c| c <= x).min(nbrs.len() - 1);
                        out.push(nbrs[k] as usize);
                    }
                } else {
                    // All incident weights are 0 (or the total is NaN):
                    // `gen_range(0.0..0.0)` would panic on an empty range,
                    // and there is no weight signal to bias by — fall back
                    // to uniform. Both branches consume exactly one RNG
                    // draw per sample (the vendored rand pulls a single
                    // u64 for float and bounded-int ranges alike), so the
                    // stream stays aligned for every other vertex.
                    for _ in 0..fanout {
                        out.push(nbrs[rng.gen_range(0..nbrs.len())] as usize);
                    }
                }
            }
        }
    }
    out
}

/// Walker alias table for O(1) sampling from an arbitrary discrete
/// distribution.
#[derive(Clone, Debug)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds a table from non-negative weights (not necessarily
    /// normalised).
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "AliasTable: empty weights");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "AliasTable: weights sum to zero");
        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers are numerically 1.0.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Draws one index.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen_range(0.0..1.0) < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// Degree-biased negative sampler over one side of a bipartite graph.
///
/// Implements the `P_n` distribution of Eqs. 5 and 12 as the standard
/// `deg(v)^power` unigram distribution (`power = 0.75` by convention);
/// vertices with zero degree receive a small floor so that every vertex
/// can appear as a negative.
#[derive(Clone, Debug)]
pub struct NegativeSampler {
    table: AliasTable,
}

impl NegativeSampler {
    /// Builds a sampler for vertices on `side` of `graph`.
    pub(crate) fn new(graph: &BipartiteGraph, side: Side, power: f64) -> Self {
        let weights: Vec<f64> = graph
            .degrees(side)
            .iter()
            .map(|&d| (d as f64).powf(power).max(1e-3))
            .collect();
        NegativeSampler { table: AliasTable::new(&weights) }
    }

    /// Side-generic constructor with the conventional `deg^0.75` unigram
    /// smoothing — the `P_n` the Eq. 5 training loss draws negatives
    /// from. The trainer builds its samplers through this (one call per
    /// side) instead of hard-coding the power at its call site.
    pub fn degree_biased(graph: &BipartiteGraph, side: Side) -> Self {
        Self::new(graph, side, 0.75)
    }

    /// Draws `n` negative vertex ids.
    pub fn sample_many(&self, n: usize, rng: &mut impl Rng) -> Vec<usize> {
        (0..n).map(|_| self.table.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            3,
            3,
            vec![(0, 0, 1.0), (0, 1, 9.0), (1, 1, 1.0)],
        )
    }

    #[test]
    fn fixed_fanout_shape() {
        let g = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let s = sample_neighbors(&g, Side::Left, &[0, 1], 4, SamplingMode::Uniform, &mut rng);
        assert_eq!(s.len(), 8);
        // User 1 has only neighbour 1.
        assert!(s[4..].iter().all(|&x| x == 1));
    }

    #[test]
    fn isolated_vertices_get_null() {
        let g = toy();
        let mut rng = StdRng::seed_from_u64(2);
        let s = sample_neighbors(&g, Side::Left, &[2], 3, SamplingMode::Uniform, &mut rng);
        assert_eq!(s, vec![null_vertex(&g, Side::Left); 3]);
        assert_eq!(null_vertex(&g, Side::Left), 3); // == num_right
    }

    #[test]
    fn weight_bias_prefers_heavy_edges() {
        let g = toy();
        let mut rng = StdRng::seed_from_u64(3);
        let s =
            sample_neighbors(&g, Side::Left, &[0], 10_000, SamplingMode::WeightBiased, &mut rng);
        let heavy = s.iter().filter(|&&x| x == 1).count() as f64 / s.len() as f64;
        assert!((heavy - 0.9).abs() < 0.02, "heavy fraction {heavy}");
    }

    #[test]
    fn weight_bias_zero_total_falls_back_to_uniform() {
        // All edges incident to user 0 have weight 0. Pre-fix this hit
        // `gen_range(0.0..0.0)` — an empty range — and panicked.
        let g = BipartiteGraph::from_edges_unchecked(
            2,
            2,
            vec![(0, 0, 0.0), (0, 1, 0.0), (1, 1, 3.0)],
        );
        let mut rng = StdRng::seed_from_u64(11);
        let s = sample_neighbors(
            &g,
            Side::Left,
            &[0, 1],
            10_000,
            SamplingMode::WeightBiased,
            &mut rng,
        );
        assert_eq!(s.len(), 20_000);
        // Zero-total vertex: uniform over its two neighbours.
        let first = s[..10_000].iter().filter(|&&x| x == 0).count() as f64 / 10_000.0;
        assert!((first - 0.5).abs() < 0.02, "first fraction {first}");
        // The positive-weight vertex still samples weight-biased.
        assert!(s[10_000..].iter().all(|&x| x == 1));
    }

    #[test]
    fn zero_total_fallback_keeps_rng_stream_aligned() {
        // The fallback must consume exactly one draw per sample, so the
        // samples for vertices *after* a zero-total vertex are identical
        // to what they'd be if the zero-total vertex were uniform-mode.
        let g = BipartiteGraph::from_edges_unchecked(
            2,
            2,
            vec![(0, 0, 0.0), (0, 1, 0.0), (1, 0, 1.0), (1, 1, 3.0)],
        );
        let mut rng_a = StdRng::seed_from_u64(12);
        let a = sample_neighbors(&g, Side::Left, &[0, 1], 8, SamplingMode::WeightBiased, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(12);
        let b0 = sample_neighbors(&g, Side::Left, &[0], 8, SamplingMode::Uniform, &mut rng_b);
        let b1 = sample_neighbors(&g, Side::Left, &[1], 8, SamplingMode::WeightBiased, &mut rng_b);
        assert_eq!(&a[..8], &b0[..]);
        assert_eq!(&a[8..], &b1[..]);
    }

    #[test]
    fn uniform_is_roughly_even() {
        let g = toy();
        let mut rng = StdRng::seed_from_u64(4);
        let s = sample_neighbors(&g, Side::Left, &[0], 10_000, SamplingMode::Uniform, &mut rng);
        let first = s.iter().filter(|&&x| x == 0).count() as f64 / s.len() as f64;
        assert!((first - 0.5).abs() < 0.02, "first fraction {first}");
    }

    #[test]
    fn alias_table_matches_distribution() {
        let table = AliasTable::new(&[1.0, 2.0, 7.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        let freqs: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert!((freqs[0] - 0.1).abs() < 0.01);
        assert!((freqs[1] - 0.2).abs() < 0.01);
        assert!((freqs[2] - 0.7).abs() < 0.01);
    }

    #[test]
    fn alias_table_single_category() {
        let table = AliasTable::new(&[5.0]);
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(table.sample(&mut rng), 0);
        assert_eq!(table.prob.len(), 1);
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn alias_table_rejects_zero_mass() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    fn negative_sampler_biased_to_popular() {
        let g = BipartiteGraph::from_edges(
            4,
            2,
            vec![(0, 0, 1.0), (1, 0, 1.0), (2, 0, 1.0), (3, 1, 1.0)],
        );
        let sampler = NegativeSampler::new(&g, Side::Right, 0.75);
        let mut rng = StdRng::seed_from_u64(7);
        let draws = sampler.sample_many(50_000, &mut rng);
        let popular = draws.iter().filter(|&&v| v == 0).count() as f64 / draws.len() as f64;
        // deg 3 vs deg 1 with 0.75 power: 3^0.75 / (3^0.75 + 1) ≈ 0.695.
        assert!((popular - 0.695).abs() < 0.02, "popular fraction {popular}");
    }

    #[test]
    fn degree_biased_matches_explicit_power() {
        let g = toy();
        let a = NegativeSampler::degree_biased(&g, Side::Right);
        let b = NegativeSampler::new(&g, Side::Right, 0.75);
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        assert_eq!(a.sample_many(1000, &mut ra), b.sample_many(1000, &mut rb));
    }

    #[test]
    fn objective_constructor_path_keeps_zero_weight_fallback() {
        // Regression at the trainer-facing call site: the Eq. 5 loss
        // builds its samplers with `degree_biased` and embeds
        // through weight-biased neighbour sampling. On a graph whose
        // incident weights are all zero, both must stay panic-free (PR 5
        // uniform fallback) and deterministic.
        let g = BipartiteGraph::from_edges_unchecked(
            3,
            3,
            vec![(0, 0, 0.0), (0, 1, 0.0), (1, 1, 0.0), (2, 2, 0.0)],
        );
        let users = NegativeSampler::degree_biased(&g, Side::Left);
        let items = NegativeSampler::degree_biased(&g, Side::Right);
        let draw = |s: &NegativeSampler| s.sample_many(32, &mut StdRng::seed_from_u64(5));
        assert_eq!(draw(&users), draw(&users));
        assert_eq!(draw(&items), draw(&items));
        let mut rng = StdRng::seed_from_u64(13);
        let s = sample_neighbors(
            &g,
            Side::Left,
            &[0, 1, 2],
            16,
            SamplingMode::WeightBiased,
            &mut rng,
        );
        assert_eq!(s.len(), 48);
        assert!(s.iter().all(|&x| x <= 2), "fallback must stay within real neighbours");
    }

    #[test]
    fn negative_sampler_covers_zero_degree() {
        let g = BipartiteGraph::from_edges(2, 2, vec![(0, 0, 1.0)]);
        let sampler = NegativeSampler::new(&g, Side::Right, 0.75);
        let mut rng = StdRng::seed_from_u64(8);
        // Vertex 1 has zero degree but must still be sampleable.
        let draws = sampler.sample_many(10_000, &mut rng);
        assert!(draws.contains(&1));
    }
}
