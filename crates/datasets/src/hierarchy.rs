//! Ground-truth topic hierarchies for synthetic data generation.
//!
//! The paper's motivating example (Fig. 1) is a topic tree over shopping
//! scenarios ("trip to beach" ⊂ "outdoor activities"). Our generators
//! plant such a tree as the *latent* structure behind every synthetic
//! dataset: items live at leaves, users/queries have affinities to
//! subtrees, and HiGNN's job is to rediscover the tree from interactions
//! alone. Keeping the tree explicit gives every experiment exact ground
//! truth (taking the role of the paper's human experts).

use rand::Rng;

/// A rooted tree of topics. Node 0 is the root; nodes are stored in BFS
/// order, so all nodes of one level are contiguous.
#[derive(Clone, Debug)]
pub struct TopicHierarchy {
    parent: Vec<usize>,
    children: Vec<Vec<usize>>,
    level: Vec<usize>,
    level_ranges: Vec<std::ops::Range<usize>>,
    token_pools: Vec<Vec<String>>,
}

/// Word roots used to compose pseudo-realistic token pools
/// (deterministic in the node id).
const ROOTS: &[&str] = &[
    "home", "kitchen", "beauty", "care", "clean", "sport", "outdoor", "baby", "garden", "pet",
    "phone", "audio", "camp", "beach", "dress", "shoe", "skin", "hair", "health", "smart",
    "office", "travel", "light", "cook", "bath", "tea", "toy", "game", "bike", "run",
    "yoga", "fish", "art", "music", "book", "craft", "wine", "snack", "fresh", "cozy",
];

impl TopicHierarchy {
    /// Builds a hierarchy with the given branching factors;
    /// `branching.len()` is the depth below the root. For example
    /// `&[5, 4, 3]` creates 5 level-1 topics, 20 level-2 topics, and 60
    /// leaf topics.
    pub(crate) fn new(branching: &[usize]) -> Self {
        assert!(!branching.is_empty(), "TopicHierarchy: need at least one level");
        assert!(branching.iter().all(|&b| b > 0), "TopicHierarchy: zero branching");
        let mut parent = vec![0usize];
        let mut children: Vec<Vec<usize>> = vec![Vec::new()];
        let mut level = vec![0usize];
        let mut level_ranges = Vec::with_capacity(branching.len() + 1);
        level_ranges.push(0..1);
        let mut frontier = vec![0usize];
        for (depth, &b) in branching.iter().enumerate() {
            let start = parent.len();
            let mut next = Vec::with_capacity(frontier.len() * b);
            for &node in &frontier {
                for _ in 0..b {
                    let id = parent.len();
                    parent.push(node);
                    children.push(Vec::new());
                    children[node].push(id);
                    level.push(depth + 1);
                    next.push(id);
                }
            }
            level_ranges.push(start..parent.len());
            frontier = next;
        }
        let n = parent.len();
        // Token pool per node: a few tokens distinctive to the node.
        let token_pools = (0..n)
            .map(|id| {
                (0..4)
                    .map(|k| {
                        let root = ROOTS[(id * 13 + k * 5) % ROOTS.len()];
                        format!("{root}{id}x{k}")
                    })
                    .collect()
            })
            .collect();
        TopicHierarchy { parent, children, level, level_ranges, token_pools }
    }

    /// Depth below the root (number of branching levels).
    pub fn depth(&self) -> usize {
        self.level_ranges.len() - 1
    }

    /// Ids of all nodes on `level` (0 = root).
    pub fn level_nodes(&self, level: usize) -> std::ops::Range<usize> {
        self.level_ranges[level].clone()
    }

    /// Ids of the leaf topics (deepest level).
    pub(crate) fn leaves(&self) -> std::ops::Range<usize> {
        self.level_ranges[self.depth()].clone()
    }

    /// Number of leaf topics.
    pub fn num_leaves(&self) -> usize {
        self.leaves().len()
    }

    /// Children of `node`.
    pub(crate) fn children(&self, node: usize) -> &[usize] {
        &self.children[node]
    }

    /// Level of `node` (0 = root).
    pub(crate) fn level(&self, node: usize) -> usize {
        self.level[node]
    }

    /// The ancestor of `node` at `level` (walks up; `level` must not
    /// exceed the node's own level).
    pub(crate) fn ancestor_at_level(&self, node: usize, level: usize) -> usize {
        assert!(level <= self.level[node], "ancestor_at_level: node is above level");
        let mut cur = node;
        while self.level[cur] > level {
            cur = self.parent[cur];
        }
        cur
    }

    /// True when `ancestor` lies on the root path of `node` (inclusive).
    #[cfg(test)]
    pub(crate) fn is_ancestor(&self, ancestor: usize, node: usize) -> bool {
        if self.level[ancestor] > self.level[node] {
            return false;
        }
        self.ancestor_at_level(node, self.level[ancestor]) == ancestor
    }

    /// Distinctive tokens of `node` itself.
    #[cfg(test)]
    pub(crate) fn own_tokens(&self, node: usize) -> &[String] {
        &self.token_pools[node]
    }

    /// Samples `count` tokens for content attached to `node`: mostly the
    /// node's own tokens, mixed with ancestor tokens with decreasing
    /// probability — this plants the hierarchical co-occurrence signal
    /// word2vec and HiGNN pick up — under explicit ambiguity controls.
    ///
    /// * `own_prob` — probability of stopping at each node while walking
    ///   toward the root (lower = more ancestor mixing, more ambiguous
    ///   text).
    /// * `generic_prob` — probability of emitting a topic-free generic
    ///   token instead (stopword-like noise shared across all topics).
    ///
    /// Real e-commerce titles are ambiguous: the same words appear across
    /// many topics, and only interaction structure disambiguates. These
    /// knobs reproduce that — the taxonomy experiments rely on them so
    /// that fixed text embeddings (SHOAL) genuinely underdetermine the
    /// topic while click structure (HiGNN) resolves it.
    pub(crate) fn sample_tokens(
        &self,
        node: usize,
        count: usize,
        own_prob: f64,
        generic_prob: f64,
        rng: &mut impl Rng,
    ) -> Vec<String> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            if rng.gen_range(0.0..1.0) < generic_prob {
                out.push(ROOTS[rng.gen_range(0..ROOTS.len())].to_owned());
                continue;
            }
            let mut cur = node;
            while cur != 0 && rng.gen_range(0.0..1.0) > own_prob {
                cur = self.parent[cur];
            }
            let pool = &self.token_pools[cur];
            out.push(pool[rng.gen_range(0..pool.len())].clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shape_of_tree() {
        let h = TopicHierarchy::new(&[3, 2]);
        assert_eq!(h.parent.len(), 1 + 3 + 6);
        assert_eq!(h.depth(), 2);
        assert_eq!(h.num_leaves(), 6);
        assert_eq!(h.level_nodes(1), 1..4);
        assert_eq!(h.leaves(), 4..10);
    }

    #[test]
    fn parent_child_consistency() {
        let h = TopicHierarchy::new(&[2, 3]);
        for node in 1..h.parent.len() {
            let p = h.parent[node];
            assert!(h.children(p).contains(&node));
            assert_eq!(h.level(node), h.level(p) + 1);
        }
        assert_eq!(h.parent[0], 0);
    }

    #[test]
    fn ancestors_and_leaves_under() {
        let h = TopicHierarchy::new(&[2, 2, 2]);
        let leaf = h.leaves().start;
        let l1 = h.ancestor_at_level(leaf, 1);
        assert_eq!(h.level(l1), 1);
        assert!(h.is_ancestor(l1, leaf));
        assert!(h.is_ancestor(0, leaf));
        assert!(!h.is_ancestor(leaf, l1));
        assert_eq!(h.leaves().filter(|&l| h.is_ancestor(l1, l)).count(), 4);
    }

    #[test]
    fn token_sampling_prefers_own_pool() {
        let h = TopicHierarchy::new(&[2, 2]);
        let mut rng = StdRng::seed_from_u64(1);
        let leaf = h.leaves().start;
        let toks = h.sample_tokens(leaf, 1000, 0.6, 0.0, &mut rng);
        let own = h.own_tokens(leaf);
        let own_frac =
            toks.iter().filter(|t| own.contains(t)).count() as f64 / toks.len() as f64;
        assert!(own_frac > 0.5, "own fraction {own_frac}");
    }

    #[test]
    #[should_panic(expected = "node is above level")]
    fn ancestor_above_level_panics() {
        let h = TopicHierarchy::new(&[2]);
        h.ancestor_at_level(0, 1);
    }
}
