//! Cluster-induced graph coarsening (paper Eq. 6 and the
//! `F(C_u, C_i, G^{l-1})` step of Algorithm 1).
//!
//! Given cluster assignments for both sides, the coarsened graph has one
//! vertex per cluster and an edge `(C_u, C_i)` whose weight is the sum of
//! all member edge weights: `S(C_u, C_i) = Σ S(e)` over
//! `e = (u, i), u ∈ C_u, i ∈ C_i`. An edge exists iff that sum is
//! positive — exactly the paper's rule.
//!
//! [`coarsen`] is one map: each fine edge's endpoints go through the two
//! assignments and the result is handed to
//! [`BipartiteGraph::from_edges`], whose stable sort-and-merge sums each
//! cluster pair's member weights in fine `(u, i)` order.

use crate::bipartite::BipartiteGraph;

/// A cluster assignment of one vertex side: `assignment[v]` is the cluster
/// id of vertex `v`, in `0..num_clusters`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    assignment: Vec<u32>,
    num_clusters: usize,
}

impl Assignment {
    /// Wraps a raw assignment vector.
    ///
    /// # Panics
    /// Panics if any entry is `>= num_clusters`.
    pub fn new(assignment: Vec<u32>, num_clusters: usize) -> Self {
        assert!(
            assignment.iter().all(|&c| (c as usize) < num_clusters),
            "assignment id out of range (num_clusters = {num_clusters})"
        );
        Assignment { assignment, num_clusters }
    }

    /// The identity assignment (every vertex its own cluster).
    pub fn identity(n: usize) -> Self {
        Assignment { assignment: (0..n as u32).collect(), num_clusters: n }
    }

    /// Cluster id of vertex `v`.
    #[inline]
    pub fn cluster_of(&self, v: usize) -> u32 {
        self.assignment[v]
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Number of assigned vertices.
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// Raw assignment slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.assignment
    }

    /// Members of each cluster.
    pub fn members(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.num_clusters];
        for (v, &c) in self.assignment.iter().enumerate() {
            out[c as usize].push(v as u32);
        }
        out
    }

    /// Size of each cluster.
    pub fn sizes(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.num_clusters];
        for &c in &self.assignment {
            out[c as usize] += 1;
        }
        out
    }

    /// Composes this assignment with a coarser one applied to its
    /// clusters: the result maps each original vertex to the coarser
    /// cluster of its cluster. Used to chase a vertex up the HiGNN
    /// hierarchy (`u → C_u^1 → C_u^2 → ...`).
    pub fn compose(&self, coarser: &Assignment) -> Assignment {
        assert_eq!(
            self.num_clusters,
            coarser.num_vertices(),
            "compose: coarser assignment must cover this assignment's clusters"
        );
        let assignment = self
            .assignment
            .iter()
            .map(|&c| coarser.cluster_of(c as usize))
            .collect();
        Assignment { assignment, num_clusters: coarser.num_clusters() }
    }
}

/// Coarsens `graph` by the given left/right assignments (Eq. 6).
pub fn coarsen(
    graph: &BipartiteGraph,
    left: &Assignment,
    right: &Assignment,
) -> BipartiteGraph {
    let _span = hignn_obs::span("graph.coarsen");
    if hignn_obs::enabled() {
        hignn_obs::counter_add("graph.coarsen_calls", 1);
        hignn_obs::counter_add("graph.coarsen_edges_in", graph.num_edges() as u64);
    }
    assert_eq!(left.num_vertices(), graph.num_left(), "left assignment size mismatch");
    assert_eq!(right.num_vertices(), graph.num_right(), "right assignment size mismatch");
    BipartiteGraph::from_edges(
        left.num_clusters(),
        right.num_clusters(),
        graph.edges().iter().map(|&(l, r, w)| {
            (left.cluster_of(l as usize), right.cluster_of(r as usize), w)
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> BipartiteGraph {
        // 4 users, 4 items.
        BipartiteGraph::from_edges(
            4,
            4,
            vec![
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 0, 3.0),
                (2, 2, 4.0),
                (3, 3, 5.0),
                (3, 2, 6.0),
            ],
        )
    }

    #[test]
    fn coarsen_sums_weights() {
        let g = toy();
        // Users {0,1} -> 0, {2,3} -> 1; items {0,1} -> 0, {2,3} -> 1.
        let left = Assignment::new(vec![0, 0, 1, 1], 2);
        let right = Assignment::new(vec![0, 0, 1, 1], 2);
        let c = coarsen(&g, &left, &right);
        assert_eq!(c.num_left(), 2);
        assert_eq!(c.num_right(), 2);
        assert_eq!(c.num_edges(), 2);
        assert_eq!(c.edge_weight(0, 0), Some(6.0)); // 1 + 2 + 3
        assert_eq!(c.edge_weight(1, 1), Some(15.0)); // 4 + 5 + 6
        assert_eq!(c.edge_weight(0, 1), None);
    }

    #[test]
    fn total_weight_is_preserved() {
        let g = toy();
        let left = Assignment::new(vec![0, 1, 0, 1], 2);
        let right = Assignment::new(vec![1, 0, 1, 0], 2);
        let c = coarsen(&g, &left, &right);
        assert!((c.total_weight() - g.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn identity_assignment_roundtrip() {
        let g = toy();
        let c = coarsen(
            &g,
            &Assignment::identity(g.num_left()),
            &Assignment::identity(g.num_right()),
        );
        assert_eq!(c.num_edges(), g.num_edges());
        for &(l, r, w) in g.edges() {
            assert_eq!(c.edge_weight(l as usize, r as usize), Some(w));
        }
    }

    #[test]
    fn compose_chases_hierarchy() {
        let fine = Assignment::new(vec![0, 0, 1, 2], 3);
        let coarse = Assignment::new(vec![0, 0, 1], 2);
        let chased = fine.compose(&coarse);
        assert_eq!(chased.as_slice(), &[0, 0, 0, 1]);
        assert_eq!(chased.num_clusters(), 2);
    }

    #[test]
    fn members_and_sizes() {
        let a = Assignment::new(vec![1, 0, 1, 1], 2);
        assert_eq!(a.sizes(), vec![1, 3]);
        let m = a.members();
        assert_eq!(m[0], vec![1]);
        assert_eq!(m[1], vec![0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_assignment() {
        Assignment::new(vec![0, 2], 2);
    }

    #[test]
    fn coarsen_to_single_cluster() {
        let g = toy();
        let c = coarsen(
            &g,
            &Assignment::new(vec![0; 4], 1),
            &Assignment::new(vec![0; 4], 1),
        );
        assert_eq!(c.num_edges(), 1);
        assert_eq!(c.edge_weight(0, 0), Some(21.0));
    }
}
