//! Synthetic query-item click datasets (Taobao #3 analogue, paper
//! Section V).
//!
//! In the taxonomy pipeline both sides of the bipartite graph carry
//! *text*: queries are search strings, items have titles, and both are
//! embedded into the same word2vec space. The generator attaches queries
//! to topic-tree nodes (general queries sit higher in the tree,
//! specific queries at leaves), gives items token bags from their leaf's
//! pool, and draws click edges between queries and items whose topics
//! agree — reproducing the premise that co-click structure reflects shared
//! search intention.

use crate::hierarchy::TopicHierarchy;
use hignn_graph::{AliasTable, BipartiteGraph};
use hignn_text::vocab::{tokenize, Vocab};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Configuration of the query-item generator.
#[derive(Clone, Debug)]
pub struct QueryItemConfig {
    /// Number of distinct queries.
    pub num_queries: usize,
    /// Number of items.
    pub num_items: usize,
    /// Click events to draw.
    pub interactions: usize,
    /// Topic-tree branching factors (the paper uses a 4-level taxonomy).
    pub branching: Vec<usize>,
    /// Number of ontology categories (for the diversity metric).
    pub num_categories: usize,
    /// Probability that a click stays inside the query's topic subtree.
    pub focus: f64,
    /// Tokens per item title.
    pub title_tokens: usize,
    /// Tokens per query.
    pub query_tokens: usize,
    /// RNG seed.
    pub seed: u64,
}

impl QueryItemConfig {
    /// Default laptop-scale configuration in the spirit of Taobao #3
    /// (Table V), scaled by `scale`.
    pub fn taobao3(scale: f64) -> Self {
        let s = scale.max(0.01);
        QueryItemConfig {
            num_queries: (2500.0 * s) as usize,
            num_items: (4000.0 * s) as usize,
            interactions: (60_000.0 * s) as usize,
            branching: vec![4, 4, 3],
            num_categories: 40,
            focus: 0.85,
            title_tokens: 6,
            query_tokens: 3,
            seed: 20200430,
        }
    }
}

/// Ground truth of a generated query-item dataset.
#[derive(Clone, Debug)]
pub struct QueryItemTruth {
    /// The planted topic tree.
    pub hierarchy: TopicHierarchy,
    /// Tree node each query is attached to (any level ≥ 1).
    pub query_node: Vec<u32>,
    /// Leaf topic per item.
    pub item_leaf: Vec<u32>,
    /// Ontology category per item.
    pub item_category: Vec<u32>,
}

impl QueryItemTruth {
    /// The item's leaf topic as a dense index in `0..num_leaves`.
    pub fn item_leaf_index(&self, item: usize) -> u32 {
        self.item_leaf[item] - self.hierarchy.leaves().start as u32
    }

    /// The item's ancestor topic at `level`, as a dense index within that
    /// level (useful for evaluating coarser taxonomy levels).
    pub fn item_topic_at_level(&self, item: usize, level: usize) -> u32 {
        let node = self
            .hierarchy
            .ancestor_at_level(self.item_leaf[item] as usize, level);
        (node - self.hierarchy.level_nodes(level).start) as u32
    }
}

/// A generated query-item dataset.
#[derive(Clone, Debug)]
pub struct QueryItemDataset {
    /// Click graph (left = queries, right = items; weight = click count).
    pub graph: BipartiteGraph,
    /// Raw query strings.
    pub query_texts: Vec<String>,
    /// Raw item titles.
    pub item_texts: Vec<String>,
    /// Vocabulary over all texts.
    pub vocab: Vocab,
    /// Encoded query token ids.
    pub query_tokens: Vec<Vec<u32>>,
    /// Encoded item title token ids.
    pub item_tokens: Vec<Vec<u32>>,
    /// Planted structure.
    pub truth: QueryItemTruth,
}

impl QueryItemDataset {
    /// Sentences for word2vec training: all query and title token
    /// sequences.
    pub fn corpus(&self) -> Vec<Vec<u32>> {
        self.query_tokens
            .iter()
            .chain(self.item_tokens.iter())
            .cloned()
            .collect()
    }
}

/// Generates a dataset from `cfg`.
pub fn generate_query_item(cfg: &QueryItemConfig) -> QueryItemDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let hierarchy = TopicHierarchy::new(&cfg.branching);
    let depth = hierarchy.depth();
    let leaves: Vec<usize> = hierarchy.leaves().collect();

    let leaf_categories: Vec<Vec<u32>> = leaves
        .iter()
        .map(|_| {
            let count = rng.gen_range(3..=5);
            (0..count).map(|_| rng.gen_range(0..cfg.num_categories as u32)).collect()
        })
        .collect();

    // ---- items ---------------------------------------------------------
    // Titles mix *intent* tokens (from the topic tree, ambiguous) with
    // *product-type* tokens (from the item's ontology category). Real
    // titles are dominated by type words ("dress", "sunglasses"), so a
    // text-only method clusters by category, while shared search intent
    // is only visible through co-click structure — the gap the paper's
    // diversity metric measures.
    let category_tokens: Vec<Vec<String>> = (0..cfg.num_categories)
        .map(|c| (0..3).map(|k| format!("type{c}w{k}")).collect())
        .collect();
    let mut item_leaf = Vec::with_capacity(cfg.num_items);
    let mut item_category = Vec::with_capacity(cfg.num_items);
    let mut item_popularity = Vec::with_capacity(cfg.num_items);
    let mut item_texts = Vec::with_capacity(cfg.num_items);
    for _ in 0..cfg.num_items {
        let leaf_idx = rng.gen_range(0..leaves.len());
        let leaf = leaves[leaf_idx];
        item_leaf.push(leaf as u32);
        let cats = &leaf_categories[leaf_idx];
        let category = cats[rng.gen_range(0..cats.len())];
        item_category.push(category);
        item_popularity.push({
            let u: f64 = rng.gen_range(1e-4..1.0);
            u.powf(-0.7).min(60.0)
        });
        let mut tokens =
            hierarchy.sample_tokens(leaf, cfg.title_tokens, 0.4, 0.2, &mut rng);
        let type_pool = &category_tokens[category as usize];
        for slot in tokens.iter_mut() {
            if rng.gen_range(0.0..1.0) < 0.45 {
                *slot = type_pool[rng.gen_range(0..type_pool.len())].clone();
            }
        }
        item_texts.push(tokens.join(" "));
    }
    let mut leaf_items: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, &leaf) in item_leaf.iter().enumerate() {
        leaf_items.entry(leaf as usize).or_default().push(i);
    }
    let leaf_alias: HashMap<usize, AliasTable> = leaf_items
        .iter()
        .map(|(&leaf, items)| {
            let w: Vec<f64> = items.iter().map(|&i| item_popularity[i]).collect();
            (leaf, AliasTable::new(&w))
        })
        .collect();
    let global_alias = AliasTable::new(&item_popularity);

    // ---- queries --------------------------------------------------------
    // Specific queries (leaves) dominate; general queries sit higher.
    let mut query_node = Vec::with_capacity(cfg.num_queries);
    let mut query_freq = Vec::with_capacity(cfg.num_queries);
    let mut query_texts = Vec::with_capacity(cfg.num_queries);
    for _ in 0..cfg.num_queries {
        let level = {
            let x: f64 = rng.gen_range(0.0..1.0);
            if x < 0.6 || depth == 1 {
                depth
            } else if x < 0.85 || depth == 2 {
                depth - 1
            } else {
                depth.saturating_sub(2).max(1)
            }
        };
        let range = hierarchy.level_nodes(level);
        let node = rng.gen_range(range.start..range.end);
        query_node.push(node as u32);
        query_freq.push({
            let u: f64 = rng.gen_range(1e-4..1.0);
            u.powf(-0.6).min(40.0)
        });
        query_texts.push(
            hierarchy
                .sample_tokens(node, cfg.query_tokens, 0.55, 0.2, &mut rng)
                .join(" "),
        );
    }
    let query_alias = AliasTable::new(&query_freq);

    // ---- click edges ----------------------------------------------------
    let mut pairs: HashMap<(u32, u32), u32> = HashMap::new();
    for _ in 0..cfg.interactions {
        let q = query_alias.sample(&mut rng);
        let node = query_node[q] as usize;
        let item = if rng.gen_range(0.0..1.0) < cfg.focus {
            // Stay inside the query's subtree: descend uniformly to a leaf.
            let mut cur = node;
            while hierarchy.level(cur) < depth {
                let kids = hierarchy.children(cur);
                cur = kids[rng.gen_range(0..kids.len())];
            }
            match leaf_alias.get(&cur) {
                Some(alias) => leaf_items[&cur][alias.sample(&mut rng)],
                None => global_alias.sample(&mut rng),
            }
        } else {
            global_alias.sample(&mut rng) // exploratory / noisy click
        };
        *pairs.entry((q as u32, item as u32)).or_insert(0) += 1;
    }
    let graph = BipartiteGraph::from_edges(
        cfg.num_queries,
        cfg.num_items,
        pairs.into_iter().map(|((q, i), c)| (q, i, c as f32)),
    );

    // ---- vocabulary -----------------------------------------------------
    let tokenized: Vec<Vec<String>> = query_texts
        .iter()
        .chain(item_texts.iter())
        .map(|t| tokenize(t))
        .collect();
    let vocab = Vocab::build(tokenized.iter().map(|d| d.as_slice()), 1);
    let query_tokens: Vec<Vec<u32>> =
        query_texts.iter().map(|t| vocab.encode_text(t)).collect();
    let item_tokens: Vec<Vec<u32>> =
        item_texts.iter().map(|t| vocab.encode_text(t)).collect();

    QueryItemDataset {
        graph,
        query_texts,
        item_texts,
        vocab,
        query_tokens,
        item_tokens,
        truth: QueryItemTruth { hierarchy, query_node, item_leaf, item_category },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> QueryItemConfig {
        QueryItemConfig {
            num_queries: 120,
            num_items: 200,
            interactions: 4000,
            branching: vec![3, 3],
            num_categories: 12,
            focus: 0.85,
            title_tokens: 5,
            query_tokens: 3,
            seed: 11,
        }
    }

    #[test]
    fn shapes_and_determinism() {
        let a = generate_query_item(&tiny());
        assert_eq!(a.graph.num_left(), 120);
        assert_eq!(a.graph.num_right(), 200);
        assert_eq!(a.query_texts.len(), 120);
        assert_eq!(a.item_tokens.len(), 200);
        assert!(!a.vocab.is_empty());
        let b = generate_query_item(&tiny());
        assert_eq!(a.graph.edges(), b.graph.edges());
        assert_eq!(a.query_texts, b.query_texts);
    }

    #[test]
    fn clicks_respect_query_subtree() {
        let ds = generate_query_item(&tiny());
        let t = &ds.truth;
        let mut inside = 0usize;
        let mut total = 0usize;
        for &(q, i, w) in ds.graph.edges() {
            let node = t.query_node[q as usize] as usize;
            let leaf = t.item_leaf[i as usize] as usize;
            let w = w as usize;
            total += w;
            if t.hierarchy.is_ancestor(node, leaf) {
                inside += w;
            }
        }
        let frac = inside as f64 / total as f64;
        assert!(frac > 0.7, "in-subtree click fraction {frac}");
    }

    #[test]
    fn titles_are_topical_but_ambiguous() {
        let ds = generate_query_item(&tiny());
        let t = &ds.truth;
        // Titles carry leaf-pool tokens (topical signal) but deliberately
        // not exclusively (ambiguity: ancestor mixing + generic tokens).
        let mut own = 0usize;
        let mut total = 0usize;
        for (i, text) in ds.item_texts.iter().enumerate() {
            let leaf = t.item_leaf[i] as usize;
            let pool = t.hierarchy.own_tokens(leaf);
            for tok in text.split(' ') {
                total += 1;
                if pool.iter().any(|p| p == tok) {
                    own += 1;
                }
            }
        }
        let frac = own as f64 / total as f64;
        assert!(frac > 0.15, "titles lost topical signal: {frac}");
        assert!(frac < 0.75, "titles too unambiguous: {frac}");
    }

    #[test]
    fn corpus_covers_both_sides() {
        let ds = generate_query_item(&tiny());
        assert_eq!(ds.corpus().len(), 120 + 200);
    }

    #[test]
    fn leaf_index_is_dense() {
        let ds = generate_query_item(&tiny());
        let n_leaves = ds.truth.hierarchy.num_leaves() as u32;
        for i in 0..ds.graph.num_right() {
            assert!(ds.truth.item_leaf_index(i) < n_leaves);
        }
    }

    #[test]
    fn topic_at_level_matches_hierarchy() {
        let ds = generate_query_item(&tiny());
        let t = &ds.truth;
        for i in 0..10 {
            let l1 = t.item_topic_at_level(i, 1);
            assert!((l1 as usize) < t.hierarchy.level_nodes(1).len());
        }
    }
}
