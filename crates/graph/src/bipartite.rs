//! Weighted bipartite graphs in compressed sparse row form.
//!
//! The paper's data model (Section III.A) is a quadruple
//! `G = (U, I, E, S)`: two vertex sets (users/queries on the *left*,
//! items on the *right*), an edge set, and a weight function `S(e)`
//! giving the connection strength (click counts). [`BipartiteGraph`]
//! stores both adjacency directions in CSR with per-slice cumulative
//! weights so that weight-biased neighbour sampling is a binary search.
//!
//! A graph is built by sort-and-merge: the edges are stable-sorted by
//! `(left, right)` and adjacent equal pairs are folded in input order,
//! so a merged weight is `w₁ + w₂ + …` exactly as the edges arrived
//! (f32 addition is order-sensitive, and training, coarsening and
//! delta replay all rely on these bits). Input that is already sorted
//! — a decoded graph, or a sorted base plus a short tail of new edges —
//! costs one linear pass. Both CSR sides are then filled by a stable
//! counting placement, which leaves every slice in increasing
//! neighbour order without a per-vertex sort.
//!
//! A streaming writer grows its graph with
//! [`BipartiteGraph::append_edges`] instead: the same fold, applied to
//! the batch alone and merged into the arrays in place, so a batch
//! costs what it carries rather than a rebuild.

/// Which side of the bipartite graph a vertex belongs to.
///
/// In the supervised pipeline the left side holds users and the right side
/// items; in the taxonomy pipeline the left side holds queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// Users (supervised pipeline) or queries (taxonomy pipeline).
    Left,
    /// Items.
    Right,
}

impl Side {
    /// The other side.
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// One direction of CSR adjacency.
#[derive(Clone, Debug, Default)]
struct Csr {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    weights: Vec<f32>,
    /// Cumulative weights within each vertex's slice; `cum[k]` is the sum of
    /// `weights[offsets[v]..=k]` for `k` in the slice of `v`.
    cum_weights: Vec<f32>,
}

impl Csr {
    /// `edges` must be sorted by `(a, b)` with no duplicate pair. The
    /// placement below is a stable counting sort by source, so the
    /// unswapped side keeps the list's order and the swapped side sees,
    /// per `b`, its `a`s in the order they occur — increasing either way.
    fn build(num_src: usize, edges: &[(u32, u32, f32)], swap: bool) -> Csr {
        let mut offsets = vec![0usize; num_src + 1];
        for &(a, b, _) in edges {
            let src = if swap { b } else { a };
            offsets[src as usize + 1] += 1;
        }
        for v in 0..num_src {
            offsets[v + 1] += offsets[v];
        }
        let total = offsets[num_src];
        let mut neighbors = vec![0u32; total];
        let mut weights = vec![0f32; total];
        let mut cum_weights = vec![0f32; total];
        let mut cursor = offsets[..num_src].to_vec();
        for &(a, b, w) in edges {
            let (src, dst) = if swap { (b, a) } else { (a, b) };
            let pos = cursor[src as usize];
            cursor[src as usize] += 1;
            let before = if pos == offsets[src as usize] { 0.0 } else { cum_weights[pos - 1] };
            neighbors[pos] = dst;
            weights[pos] = w;
            cum_weights[pos] = before + w;
        }
        debug_assert!(
            offsets.windows(2).all(|o| neighbors[o[0]..o[1]].windows(2).all(|n| n[0] < n[1])),
            "CSR slices must come out in strictly increasing neighbour order"
        );
        Csr { offsets, neighbors, weights, cum_weights }
    }

    #[inline]
    fn slice(&self, v: usize) -> (&[u32], &[f32], &[f32]) {
        let (lo, hi) = (self.offsets[v], self.offsets[v + 1]);
        (&self.neighbors[lo..hi], &self.weights[lo..hi], &self.cum_weights[lo..hi])
    }

    /// Flat index of `dst` in `src`'s slice if present, else where it
    /// would go. A source beyond the table has an empty slice at the end.
    fn find(&self, src: usize, dst: u32) -> Result<usize, usize> {
        let Some(&hi) = self.offsets.get(src + 1) else {
            return Err(self.neighbors.len());
        };
        let lo = self.offsets[src];
        self.neighbors[lo..hi].binary_search(&dst).map(|k| lo + k).map_err(|k| lo + k)
    }

    /// Grows the table to `num_src` sources and inserts `new` — sorted
    /// by `(src, dst)`, no pair already present — before the old
    /// entries at `at` (from [`Csr::find`] on the old arrays). Prefix
    /// sums of the grown slices are left to [`Csr::resum`].
    fn insert(&mut self, num_src: usize, new: &[(u32, u32, f32)], at: &[usize]) {
        insert_sorted(&mut self.neighbors, at, |j| new[j].1);
        insert_sorted(&mut self.weights, at, |j| new[j].2);
        insert_sorted(&mut self.cum_weights, at, |_| 0.0);
        let old_len = self.offsets[self.offsets.len() - 1];
        self.offsets.resize(num_src + 1, old_len);
        // Each offset moves by the number of entries inserted before it.
        let mut before = 0;
        for (v, offset) in self.offsets.iter_mut().enumerate().skip(1) {
            while before < new.len() && (new[before].0 as usize) < v {
                before += 1;
            }
            *offset += before;
        }
    }

    /// Recomputes `src`'s prefix sums the way [`Csr::build`] does.
    fn resum(&mut self, src: usize) {
        let (lo, hi) = (self.offsets[src], self.offsets[src + 1]);
        let mut acc = 0.0;
        for (cum, &w) in self.cum_weights[lo..hi].iter_mut().zip(&self.weights[lo..hi]) {
            acc += w;
            *cum = acc;
        }
    }
}

/// Inserts `item(j)` before old element `at[j]` (`at` ascending): one
/// pass from the back moves every old element at most once.
fn insert_sorted<T: Copy + Default>(v: &mut Vec<T>, at: &[usize], item: impl Fn(usize) -> T) {
    let mut end = v.len();
    v.resize(end + at.len(), T::default());
    for (j, &pos) in at.iter().enumerate().rev() {
        v.copy_within(pos..end, pos + j + 1);
        v[pos + j] = item(j);
        end = pos;
    }
}

/// The sort key of an edge: `(left, right)` as one integer.
fn key(&(l, r, _): &(u32, u32, f32)) -> u64 {
    u64::from(l) << 32 | u64::from(r)
}

fn check_edges(num_left: usize, num_right: usize, edges: &[(u32, u32, f32)], check_weights: bool) {
    for &(l, r, w) in edges {
        assert!((l as usize) < num_left, "left vertex {l} out of range ({num_left})");
        assert!((r as usize) < num_right, "right vertex {r} out of range ({num_right})");
        if check_weights {
            assert!(w > 0.0, "edge weight must be positive, got {w}");
        }
    }
}

/// A weighted bipartite graph `G = (U, I, E, S)`.
#[derive(Clone, Debug)]
pub struct BipartiteGraph {
    num_left: usize,
    num_right: usize,
    edges: Vec<(u32, u32, f32)>,
    left: Csr,
    right: Csr,
}

impl BipartiteGraph {
    /// Builds a graph from `(left, right, weight)` edges.
    ///
    /// Parallel edges are merged by summing their weights in input order
    /// — this is how repeated clicks become connection strength, and it is
    /// exactly the accumulation rule of the coarsening step (Eq. 6).
    ///
    /// # Panics
    /// Panics on out-of-range vertex ids or non-positive weights.
    pub fn from_edges(
        num_left: usize,
        num_right: usize,
        raw_edges: impl IntoIterator<Item = (u32, u32, f32)>,
    ) -> Self {
        Self::build(num_left, num_right, raw_edges, true)
    }

    /// Test-only constructor that skips the positive-weight check, so
    /// degenerate states the public constructors reject (e.g. a vertex
    /// whose incident edges all have weight 0) can still be exercised
    /// against defensive code paths such as weight-biased sampling.
    #[cfg(test)]
    pub(crate) fn from_edges_unchecked(
        num_left: usize,
        num_right: usize,
        raw_edges: impl IntoIterator<Item = (u32, u32, f32)>,
    ) -> Self {
        Self::build(num_left, num_right, raw_edges, false)
    }

    fn build(
        num_left: usize,
        num_right: usize,
        raw_edges: impl IntoIterator<Item = (u32, u32, f32)>,
        check_weights: bool,
    ) -> Self {
        let mut edges: Vec<(u32, u32, f32)> = raw_edges.into_iter().collect();
        check_edges(num_left, num_right, &edges, check_weights);
        // Stable, so parallel edges stay in input order and their weights
        // fold left to right; an already sorted prefix is one run.
        edges.sort_by_key(key);
        edges.dedup_by(|edge, kept| {
            let parallel = (edge.0, edge.1) == (kept.0, kept.1);
            if parallel {
                kept.2 += edge.2;
            }
            parallel
        });
        let left = Csr::build(num_left, &edges, false);
        let right = Csr::build(num_right, &edges, true);
        BipartiteGraph { num_left, num_right, edges, left, right }
    }

    /// Grows the graph to `num_left x num_right` and merges `batch` into
    /// it in place, with the bits of
    /// `from_edges(num_left, num_right, self.edges() ++ batch)`:
    ///
    /// * the batch is stable-sorted alone, and each run of parallel
    ///   edges folds in batch order onto the base weight if the pair
    ///   exists (`w₀ + b₁ + b₂ …`), else onto its first edge;
    /// * new pairs go into the edge list and both CSR sides with one
    ///   backward merge per array, so an old entry moves at most once;
    /// * `cum_weights` is re-summed only on the slices the batch touched.
    ///
    /// The cost is the batch's sort plus the array tails behind the
    /// first insertion point, never a rebuild; the arrays grow in place.
    ///
    /// # Panics
    /// Panics if a side would shrink, on out-of-range vertex ids or on
    /// non-positive weights, before changing anything.
    pub fn append_edges(&mut self, num_left: usize, num_right: usize, batch: &[(u32, u32, f32)]) {
        assert!(
            num_left >= self.num_left && num_right >= self.num_right,
            "append_edges: {}x{} cannot shrink to {num_left}x{num_right}",
            self.num_left,
            self.num_right
        );
        check_edges(num_left, num_right, batch, true);
        let mut sorted = batch.to_vec();
        sorted.sort_by_key(key);
        let mut inserts = Vec::new();
        let mut touched = Vec::new();
        for run in sorted.chunk_by(|a, b| key(a) == key(b)) {
            let (l, r, first) = run[0];
            touched.push((l, r));
            match self.left.find(l as usize, r) {
                Ok(k) => {
                    let w = run.iter().fold(self.edges[k].2, |w, e| w + e.2);
                    self.edges[k].2 = w;
                    self.left.weights[k] = w;
                    let k = self.right.find(r as usize, l).expect("both CSR sides hold every edge");
                    self.right.weights[k] = w;
                }
                Err(_) => inserts.push((l, r, run[1..].iter().fold(first, |w, e| w + e.2))),
            }
        }
        let at: Vec<usize> =
            inserts.iter().map(|&(l, r, _)| self.left.find(l as usize, r).unwrap_err()).collect();
        insert_sorted(&mut self.edges, &at, |j| inserts[j]);
        self.left.insert(num_left, &inserts, &at);
        let mut swapped: Vec<_> = inserts.iter().map(|&(l, r, w)| (r, l, w)).collect();
        swapped.sort_unstable_by_key(key);
        let at: Vec<usize> =
            swapped.iter().map(|&(r, l, _)| self.right.find(r as usize, l).unwrap_err()).collect();
        self.right.insert(num_right, &swapped, &at);
        for &(l, r) in &touched {
            self.left.resum(l as usize);
            self.right.resum(r as usize);
        }
        (self.num_left, self.num_right) = (num_left, num_right);
    }

    /// Number of left vertices (users / queries).
    pub fn num_left(&self) -> usize {
        self.num_left
    }

    /// Number of right vertices (items).
    pub fn num_right(&self) -> usize {
        self.num_right
    }

    /// Number of vertices on `side`.
    pub fn num_vertices(&self, side: Side) -> usize {
        match side {
            Side::Left => self.num_left,
            Side::Right => self.num_right,
        }
    }

    /// Number of (merged) edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The merged edge list, sorted by `(left, right)`.
    pub fn edges(&self) -> &[(u32, u32, f32)] {
        &self.edges
    }

    /// Sum of all edge weights, accumulated in edge-list order.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|&(_, _, w)| w as f64).sum()
    }

    /// Edge density `|E| / (|U| * |I|)`.
    pub fn density(&self) -> f64 {
        if self.num_left == 0 || self.num_right == 0 {
            0.0
        } else {
            self.edges.len() as f64 / (self.num_left as f64 * self.num_right as f64)
        }
    }

    /// Neighbour ids (on the opposite side) and their edge weights.
    pub fn neighbors(&self, side: Side, v: usize) -> (&[u32], &[f32]) {
        let (n, w, _) = self.csr(side).slice(v);
        (n, w)
    }

    /// Neighbour ids, edge weights, and within-slice cumulative weights
    /// (for weight-biased sampling via binary search).
    pub fn neighbors_cum(&self, side: Side, v: usize) -> (&[u32], &[f32], &[f32]) {
        self.csr(side).slice(v)
    }

    /// The weight of edge `(l, r)`, if present.
    pub fn edge_weight(&self, l: usize, r: usize) -> Option<f32> {
        let (nbrs, ws, _) = self.left.slice(l);
        nbrs.binary_search(&(r as u32)).ok().map(|k| ws[k])
    }

    /// Degrees of every vertex on `side`.
    pub fn degrees(&self, side: Side) -> Vec<usize> {
        let csr = self.csr(side);
        csr.offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Weighted degree (sum of incident edge weights) of every vertex.
    pub fn weighted_degrees(&self, side: Side) -> Vec<f64> {
        let csr = self.csr(side);
        (0..self.num_vertices(side))
            .map(|v| {
                let (lo, hi) = (csr.offsets[v], csr.offsets[v + 1]);
                csr.weights[lo..hi].iter().map(|&w| w as f64).sum()
            })
            .collect()
    }

    /// CSR offsets for `side` (useful for building segment-mean inputs).
    pub fn offsets(&self, side: Side) -> &[usize] {
        &self.csr(side).offsets
    }

    /// Flat neighbour array for `side` (aligned with [`Self::offsets`]).
    pub fn flat_neighbors(&self, side: Side) -> &[u32] {
        &self.csr(side).neighbors
    }

    fn csr(&self, side: Side) -> &Csr {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> BipartiteGraph {
        // 3 users, 2 items.
        BipartiteGraph::from_edges(
            3,
            2,
            vec![(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0), (2, 0, 4.0)],
        )
    }

    #[test]
    fn basic_shape() {
        let g = toy();
        assert_eq!(g.num_left(), 3);
        assert_eq!(g.num_right(), 2);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.total_weight(), 10.0);
        assert!((g.density() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_both_sides() {
        let g = toy();
        let (n, w) = g.neighbors(Side::Left, 0);
        assert_eq!(n, &[0, 1]);
        assert_eq!(w, &[1.0, 2.0]);
        let (n, w) = g.neighbors(Side::Right, 1);
        assert_eq!(n, &[0, 1]);
        assert_eq!(w, &[2.0, 3.0]);
        assert_eq!(g.degrees(Side::Left)[1], 1);
        assert_eq!(g.degrees(Side::Right)[0], 2);
    }

    #[test]
    fn parallel_edges_merge_by_sum() {
        let g = BipartiteGraph::from_edges(1, 1, vec![(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 0), Some(3.5));
    }

    #[test]
    fn append_edges_folds_onto_base_weights_in_batch_order() {
        let mut g = toy();
        // (0, 1) exists with weight 2; (1, 0) is new and repeated; (3, 2)
        // grows both sides.
        let batch = [(0, 1, 0.1), (1, 0, 0.2), (0, 1, 0.3), (1, 0, 0.4), (3, 2, 1.0)];
        g.append_edges(4, 3, &batch);
        assert_eq!(g.edge_weight(0, 1), Some(2.0 + 0.1 + 0.3));
        assert_eq!(g.edge_weight(1, 0), Some(0.2 + 0.4));
        assert_eq!(g.neighbors(Side::Right, 0), (&[0, 1, 2][..], &[1.0, 0.2 + 0.4, 4.0][..]));
        let (_, _, cum) = g.neighbors_cum(Side::Left, 1);
        assert_eq!(cum, &[0.2 + 0.4, 0.2 + 0.4 + 3.0]);
        g.append_edges(5, 3, &[]);
        let all = toy().edges().iter().chain(&batch).copied().collect::<Vec<_>>();
        assert_eq!(g.edges(), BipartiteGraph::from_edges(5, 3, all).edges());
        assert_eq!(g.degrees(Side::Left)[4], 0);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn append_edges_never_shrinks() {
        toy().append_edges(2, 2, &[]);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = toy();
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
        assert_eq!(g.edge_weight(1, 0), None);
    }

    #[test]
    fn cumulative_weights_are_prefix_sums() {
        let g = toy();
        let (_, w, cum) = g.neighbors_cum(Side::Left, 0);
        assert_eq!(w, &[1.0, 2.0]);
        assert_eq!(cum, &[1.0, 3.0]);
    }

    #[test]
    fn isolated_vertices_have_empty_slices() {
        let g = BipartiteGraph::from_edges(3, 3, vec![(0, 0, 1.0)]);
        assert_eq!(g.degrees(Side::Left)[2], 0);
        let (n, w) = g.neighbors(Side::Left, 2);
        assert!(n.is_empty() && w.is_empty());
    }

    #[test]
    fn degrees_and_weighted_degrees() {
        let g = toy();
        assert_eq!(g.degrees(Side::Left), vec![2, 1, 1]);
        assert_eq!(g.degrees(Side::Right), vec![2, 2]);
        assert_eq!(g.weighted_degrees(Side::Right), vec![5.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        BipartiteGraph::from_edges(1, 1, vec![(1, 0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_weight() {
        BipartiteGraph::from_edges(1, 1, vec![(0, 0, 0.0)]);
    }

    #[test]
    fn side_opposite() {
        assert_eq!(Side::Left.opposite(), Side::Right);
        assert_eq!(Side::Right.opposite(), Side::Left);
    }
}
