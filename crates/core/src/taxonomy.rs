//! Topic-driven taxonomy construction (paper Section V).
//!
//! On a query-item graph, HiGNN's coarsening levels *are* the taxonomy:
//! level-`l` item clusters form the level-`l` topics, and the cluster
//! chain gives the parent links. Each topic is then labelled with its
//! most *representative* query (Eqs. 14-16):
//!
//! * `pop(q, t_k)` — how frequently `q` leads into topic `t_k`,
//! * `con(q, t_k)` — a softmax over BM25 relevances of `q` against each
//!   topic's concatenated item titles `D_k` (Eq. 16),
//! * `r(q, t_k) = sqrt(pop · con)` (Eq. 14).

use crate::stack::{build_hierarchy, Hierarchy, HignnConfig};
use hignn_graph::{BipartiteGraph, Side};
use hignn_text::Bm25Index;
use hignn_tensor::Matrix;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Configuration of taxonomy construction.
#[derive(Clone, Debug)]
pub struct TaxonomyConfig {
    /// The underlying HiGNN configuration (Section V uses `L = 4`,
    /// shared-weight GraphSAGE, and CH-guided cluster counts).
    pub hignn: HignnConfig,
    /// Representative queries kept per topic.
    pub descriptions_per_topic: usize,
    /// Cap on BM25 relevance before the softmax (numerical safety).
    pub max_relevance: f64,
}

impl Default for TaxonomyConfig {
    fn default() -> Self {
        TaxonomyConfig {
            hignn: HignnConfig::default(),
            descriptions_per_topic: 3,
            max_relevance: 30.0,
        }
    }
}

/// One topic of the taxonomy.
#[derive(Clone, Debug)]
pub struct Topic {
    /// Cluster id within its level (vertex id in `G^l`'s right side).
    pub id: usize,
    /// Hierarchy level (1 = finest).
    pub level: usize,
    /// Original item ids in the topic.
    pub items: Vec<u32>,
    /// Queries whose strongest click mass lands in this topic.
    pub queries: Vec<u32>,
    /// The most representative query's text (empty if no query reaches
    /// the topic).
    pub description: String,
    /// Top representative queries by `r(q, t_k)`, best first.
    pub description_queries: Vec<u32>,
}

/// A hierarchical topic-driven taxonomy.
pub struct Taxonomy {
    /// The underlying HiGNN hierarchy.
    pub hierarchy: Hierarchy,
    /// `topics[l-1]` holds the topics of level `l`, indexed by cluster id.
    pub topics: Vec<Vec<Topic>>,
}

impl Taxonomy {
    /// Number of taxonomy levels.
    pub fn num_levels(&self) -> usize {
        self.topics.len()
    }

    /// Topics at `level` (1-based).
    pub fn level_topics(&self, level: usize) -> &[Topic] {
        &self.topics[level - 1]
    }

    /// Original-item topic assignment for a whole level (cluster ids).
    pub fn item_assignment(&self, level: usize) -> Vec<u32> {
        let a = self.hierarchy.item_clusters_at(level);
        (0..self.hierarchy.num_items()).map(|i| a.cluster_of(i)).collect()
    }

    /// Parent topic id (at `level + 1`) of a topic, or `None` at the top
    /// level.
    pub fn parent(&self, level: usize, topic_id: usize) -> Option<usize> {
        if level >= self.num_levels() {
            return None;
        }
        Some(self.hierarchy.levels()[level].item_assignment.cluster_of(topic_id) as usize)
    }

    /// Child topic ids (at `level - 1`) of a topic.
    pub fn children(&self, level: usize, topic_id: usize) -> Vec<usize> {
        if level <= 1 {
            return Vec::new();
        }
        let assignment = &self.hierarchy.levels()[level - 1].item_assignment;
        (0..assignment.num_vertices())
            .filter(|&c| assignment.cluster_of(c) as usize == topic_id)
            .collect()
    }

    /// Renders the taxonomy as an indented tree (coarsest level first) —
    /// the Fig. 5 case-study view. `max_children` bounds the branches
    /// printed per topic, `max_depth` the levels shown.
    pub fn render(&self, max_children: usize, max_depth: usize) -> String {
        let mut out = String::new();
        let top = self.num_levels();
        for topic in self.level_topics(top).iter().take(max_children) {
            self.render_node(&mut out, top, topic.id, 0, max_children, max_depth);
        }
        out
    }

    fn render_node(
        &self,
        out: &mut String,
        level: usize,
        topic_id: usize,
        indent: usize,
        max_children: usize,
        max_depth: usize,
    ) {
        let topic = &self.topics[level - 1][topic_id];
        let desc = if topic.description.is_empty() { "(unnamed)" } else { &topic.description };
        let _ = writeln!(
            out,
            "{}- [L{} #{:>3}] \"{}\" ({} items)",
            "  ".repeat(indent),
            level,
            topic_id,
            desc,
            topic.items.len()
        );
        if indent + 1 >= max_depth || level <= 1 {
            return;
        }
        for child in self.children(level, topic_id).into_iter().take(max_children) {
            self.render_node(out, level - 1, child, indent + 1, max_children, max_depth);
        }
    }
}

/// The topic holding most of a query's click mass (ties: smaller topic
/// id). A NaN mass never wins.
fn strongest_topic(clicks: &BTreeMap<usize, f64>) -> Option<usize> {
    clicks
        .iter()
        .max_by(|a, b| b.1.is_nan().cmp(&a.1.is_nan()).then(a.1.total_cmp(b.1)).then(b.0.cmp(a.0)))
        .map(|(&t, _)| t)
}

/// A topic's describing queries: the `keep` highest representativeness
/// scores `r(q, t) = sqrt(pop * con)` (ties: smaller query id). `max(0.0)`
/// scrubs a NaN product to score 0, so it ranks after every positive
/// score and the total order is plain descending.
fn rank_descriptions(mut scored: Vec<(f64, u32)>, keep: usize) -> Vec<u32> {
    for s in &mut scored {
        s.0 = s.0.max(0.0).sqrt();
    }
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.iter().take(keep).map(|&(_, q)| q).collect()
}

/// Builds a taxonomy from a query-item graph.
///
/// `query_feats` / `item_feats` are the shared-space features (mean
/// word2vec vectors in the paper); `query_texts` provides description
/// strings; `query_tokens` / `item_tokens` the encoded token bags used by
/// popularity/BM25 scoring.
pub fn build_taxonomy(
    graph: &BipartiteGraph,
    query_feats: &Matrix,
    item_feats: &Matrix,
    query_texts: &[String],
    query_tokens: &[Vec<u32>],
    item_tokens: &[Vec<u32>],
    cfg: &TaxonomyConfig,
) -> Taxonomy {
    assert_eq!(query_texts.len(), graph.num_left(), "query text count");
    assert_eq!(item_tokens.len(), graph.num_right(), "item token count");
    let hierarchy = build_hierarchy(graph, query_feats, item_feats, &cfg.hignn);
    let mut topics = Vec::with_capacity(hierarchy.num_levels());
    for level in 1..=hierarchy.num_levels() {
        let assignment = hierarchy.item_clusters_at(level);
        let k = assignment.num_clusters();
        // Topic membership.
        let mut items: Vec<Vec<u32>> = vec![Vec::new(); k];
        for i in 0..graph.num_right() {
            items[assignment.cluster_of(i) as usize].push(i as u32);
        }
        // Click mass per (query, topic).
        let mut query_topic_clicks: Vec<BTreeMap<usize, f64>> =
            vec![BTreeMap::new(); graph.num_left()];
        let mut topic_clicks = vec![0f64; k];
        for &(q, i, w) in graph.edges() {
            let t = assignment.cluster_of(i as usize) as usize;
            *query_topic_clicks[q as usize].entry(t).or_insert(0.0) += w as f64;
            topic_clicks[t] += w as f64;
        }
        // Topic documents for BM25 (concatenated item title tokens).
        let docs: Vec<Vec<u32>> = items
            .iter()
            .map(|members| {
                members
                    .iter()
                    .flat_map(|&i| item_tokens[i as usize].iter().copied())
                    .collect()
            })
            .collect();
        let bm25 = Bm25Index::new(&docs);

        // Queries per topic: strongest click mass wins.
        let mut topic_queries: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (q, clicks) in query_topic_clicks.iter().enumerate() {
            if let Some(t) = strongest_topic(clicks) {
                topic_queries[t].push(q as u32);
            }
        }

        // Representativeness r(q, t) = sqrt(pop * con) for candidates.
        let mut level_topics = Vec::with_capacity(k);
        for t in 0..k {
            let mut scored: Vec<(f64, u32)> = Vec::new();
            for (q, clicks) in query_topic_clicks.iter().enumerate() {
                let Some(&mass) = clicks.get(&t) else { continue };
                let pop = (1.0 + mass).ln() / (1.0 + topic_clicks[t]).ln().max(1e-9);
                let rel_t = bm25.score(&query_tokens[q], t).min(cfg.max_relevance);
                // Softmax concentration (Eq. 16) over the topics the query
                // actually reaches plus t itself, summed in ascending topic
                // id so the f64 total is the same in every process.
                let mut denom = 1.0f64;
                for &other in clicks.keys() {
                    denom += bm25.score(&query_tokens[q], other).min(cfg.max_relevance).exp();
                }
                let con = rel_t.exp() / denom;
                scored.push((pop * con, q as u32));
            }
            let description_queries = rank_descriptions(scored, cfg.descriptions_per_topic);
            let description = description_queries
                .first()
                .map(|&q| query_texts[q as usize].clone())
                .unwrap_or_default();
            level_topics.push(Topic {
                id: t,
                level,
                items: items[t].clone(),
                queries: topic_queries[t].clone(),
                description,
                description_queries,
            });
        }
        topics.push(level_topics);
    }
    // Consistency: every original item appears in exactly one topic per level.
    debug_assert!(topics.iter().all(|lvl| {
        lvl.iter().map(|t| t.items.len()).sum::<usize>() == graph.num_vertices(Side::Right)
    }));
    Taxonomy { hierarchy, topics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sage::BipartiteSageConfig;
    use crate::stack::{ClusterCounts, KMeansAlgo};
    use crate::trainer::SageTrainConfig;
    use hignn_graph::SamplingMode;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two topic blocks: queries/items 0..n/2 on topic A with token 1,
    /// the rest on topic B with token 2.
    #[allow(clippy::type_complexity)]
    fn blocky() -> (BipartiteGraph, Matrix, Matrix, Vec<String>, Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let n = 24;
        let mut rng = StdRng::seed_from_u64(3);
        let mut edges = Vec::new();
        for q in 0..n as u32 {
            let base = if q < (n / 2) as u32 { 0 } else { n as u32 / 2 };
            for _ in 0..4 {
                edges.push((q, base + rng.gen_range(0..(n / 2) as u32), 1.0));
            }
        }
        let g = BipartiteGraph::from_edges(n, n, edges);
        // Features reflect topic (simulating word2vec means).
        let feat = |k: usize| {
            Matrix::from_fn(n, 8, |r, c| {
                let topic = if r < n / 2 { 0.5 } else { -0.5 };
                if c < 4 {
                    topic + 0.01 * ((r * 7 + c * 3 + k) % 13) as f32
                } else {
                    0.01 * ((r * 5 + c + k) % 11) as f32
                }
            })
        };
        let qt: Vec<Vec<u32>> =
            (0..n).map(|q| vec![if q < n / 2 { 1 } else { 2 }, 3]).collect();
        let it: Vec<Vec<u32>> =
            (0..n).map(|i| vec![if i < n / 2 { 1 } else { 2 }, 4]).collect();
        let texts: Vec<String> =
            (0..n).map(|q| format!("query-{} {}", q, if q < n / 2 { "alpha" } else { "beta" })).collect();
        (g, feat(0), feat(1), texts, qt, it)
    }

    fn tiny_cfg(levels: usize) -> TaxonomyConfig {
        TaxonomyConfig {
            hignn: HignnConfig {
                levels,
                sage: BipartiteSageConfig {
                    input_dim: 8,
                    dim: 8,
                    fanouts: vec![3, 2],
                    sampling: SamplingMode::Uniform,
                    shared_weights: true,
                    ..Default::default()
                },
                train: SageTrainConfig {
                    epochs: 3,
                    batch_edges: 32,
                    neg_pool: 12,
                    ..Default::default()
                },
                cluster_counts: ClusterCounts::Fixed(vec![(6, 6), (2, 2)]),
                kmeans: KMeansAlgo::Lloyd,
                normalize: true,
                seed: 9,
            },
            ..Default::default()
        }
    }

    #[test]
    fn builds_topics_with_descriptions() {
        let (g, qf, if_, texts, qt, it) = blocky();
        let tax = build_taxonomy(&g, &qf, &if_, &texts, &qt, &it, &tiny_cfg(2));
        assert_eq!(tax.num_levels(), 2);
        // Every item is in exactly one topic per level.
        for level in 1..=2 {
            let total: usize = tax.level_topics(level).iter().map(|t| t.items.len()).sum();
            assert_eq!(total, 24);
        }
        // Non-empty topics are labelled.
        for t in tax.level_topics(2) {
            if !t.items.is_empty() && !t.queries.is_empty() {
                assert!(!t.description.is_empty(), "topic {} unlabelled", t.id);
            }
        }
    }

    #[test]
    fn strongest_topic_ignores_nan_mass_and_breaks_ties_low() {
        let clicks = BTreeMap::from([(0, f64::NAN), (1, 2.0), (2, 2.0), (3, -f64::NAN)]);
        assert_eq!(strongest_topic(&clicks), Some(1));
        assert_eq!(strongest_topic(&BTreeMap::new()), None);
        // The description ranking applies the same policy to NaN scores.
        let scored = vec![(f64::NAN, 0), (0.25, 3), (0.25, 2), (-f64::NAN, 1), (0.81, 4)];
        assert_eq!(rank_descriptions(scored.clone(), 3), vec![4, 2, 3]);
        assert_eq!(rank_descriptions(scored, 9), vec![4, 2, 3, 0, 1]);
    }

    #[test]
    fn parent_child_links_are_consistent() {
        let (g, qf, if_, texts, qt, it) = blocky();
        let tax = build_taxonomy(&g, &qf, &if_, &texts, &qt, &it, &tiny_cfg(2));
        for t in tax.level_topics(1) {
            let p = tax.parent(1, t.id).unwrap();
            assert!(tax.children(2, p).contains(&t.id));
        }
        for t in tax.level_topics(2) {
            assert!(tax.parent(2, t.id).is_none());
        }
    }

    #[test]
    fn item_topics_match_assignment() {
        let (g, qf, if_, texts, qt, it) = blocky();
        let tax = build_taxonomy(&g, &qf, &if_, &texts, &qt, &it, &tiny_cfg(2));
        let a = tax.item_assignment(1);
        for (i, &t) in a.iter().enumerate() {
            assert!(tax.level_topics(1)[t as usize].items.contains(&(i as u32)));
        }
    }

    #[test]
    fn render_produces_tree_text() {
        let (g, qf, if_, texts, qt, it) = blocky();
        let tax = build_taxonomy(&g, &qf, &if_, &texts, &qt, &it, &tiny_cfg(2));
        let rendered = tax.render(5, 3);
        assert!(rendered.contains("[L2"), "{rendered}");
        assert!(rendered.contains("items)"));
    }

    #[test]
    fn descriptions_come_from_in_topic_queries() {
        let (g, qf, if_, texts, qt, it) = blocky();
        let tax = build_taxonomy(&g, &qf, &if_, &texts, &qt, &it, &tiny_cfg(2));
        let a2 = tax.item_assignment(2);
        for t in tax.level_topics(2) {
            for &q in &t.description_queries {
                // Any describing query must actually click into the topic.
                let clicks_in: f64 = g
                    .edges()
                    .iter()
                    .filter(|&&(eq, i, _)| {
                        eq == q && a2[i as usize] as usize == t.id
                    })
                    .map(|&(_, _, w)| w as f64)
                    .sum();
                assert!(clicks_in > 0.0, "query {q} does not reach topic {}", t.id);
            }
        }
    }
}
