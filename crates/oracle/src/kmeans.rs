//! Textbook Lloyd's K-means, k-means++ seeding, and the Eq. 6 cluster
//! feature (mean member embedding).
//!
//! Mirrors the *mathematical specification* implemented by
//! `hignn_cluster::kmeans` with plain per-point loops:
//!
//! * squared distances accumulate in `f32` over coordinates in index
//!   order (the same order `Matrix::row_sq_dist` uses), so per-point
//!   assignments are required to agree **bitwise** at any input size;
//! * centroid sums accumulate over points in index order, which matches
//!   the optimized update exactly when the input fits in a single
//!   parallel row-chunk (`n <= ROW_CHUNK`, i.e. 256 rows) — the
//!   differential suite asserts bitwise equality in that regime and the
//!   chunked merge is itself covered by the determinism suite;
//! * the k-means++ reference consumes its RNG in exactly the documented
//!   order (one `gen_range(0..n)` for the first centre, then per centre
//!   one `gen_range` on the summed squared distances), which is part of
//!   the seeding's deterministic contract.

use crate::Rows32;
use rand::Rng;

/// Squared Euclidean distance, `f32` accumulation in coordinate order.
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sq_dist: dimension mismatch");
    let mut acc = 0.0f32;
    for t in 0..a.len() {
        let d = a[t] - b[t];
        acc += d * d;
    }
    acc
}

/// Index and squared distance of the nearest centroid; the first
/// minimum wins ties (strict `<` scan in centroid order).
pub(crate) fn nearest(centroids: &Rows32, point: &[f32]) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_d = f32::MAX;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = sq_dist(centroid, point);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// The assignment step: each point to its nearest centroid, plus the
/// total inertia (`f64` sum of per-point squared distances, in point
/// order).
pub fn assign(points: &Rows32, centroids: &Rows32) -> (Vec<u32>, f64) {
    let mut assignment = Vec::with_capacity(points.len());
    let mut inertia = 0f64;
    for p in points {
        let (c, d) = nearest(centroids, p);
        assignment.push(c as u32);
        inertia += d as f64;
    }
    (assignment, inertia)
}

/// The Eq. 6 cluster feature: the mean embedding of each cluster's
/// members ("the average user embedding of users who belong to the
/// cluster"). Empty clusters get a zero row.
pub fn mean_by_cluster(points: &Rows32, assignment: &[u32], k: usize) -> Rows32 {
    assert_eq!(points.len(), assignment.len(), "mean_by_cluster: size mismatch");
    let d = points.first().map_or(0, |p| p.len());
    let mut sums = vec![vec![0.0f32; d]; k];
    let mut counts = vec![0usize; k];
    for (p, &c) in points.iter().zip(assignment) {
        let c = c as usize;
        assert!(c < k, "cluster id {c} out of range");
        counts[c] += 1;
        for t in 0..d {
            sums[c][t] += p[t];
        }
    }
    for (c, count) in counts.iter().enumerate() {
        if *count > 0 {
            let inv = 1.0 / *count as f32;
            for s in &mut sums[c] {
                *s *= inv;
            }
        }
    }
    sums
}

/// The update step: mean member embedding per cluster, with an empty
/// cluster re-seeded at the point farthest from its assigned centroid.
///
/// Centroids are rewritten **in place, in cluster order** — so the
/// farthest-point search for an empty cluster `c` measures against the
/// already-updated rows `< c` and the old rows `>= c`, exactly like the
/// optimized loop. Distance ties pick the later point index (matching
/// `Iterator::max_by`, which keeps the last maximum).
pub(crate) fn update(
    points: &Rows32,
    assignment: &[u32],
    centroids: &Rows32,
) -> Rows32 {
    let k = centroids.len();
    let means = mean_by_cluster(points, assignment, k);
    let mut counts = vec![0usize; k];
    for &c in assignment {
        counts[c as usize] += 1;
    }
    let mut new_centroids = centroids.clone();
    for c in 0..k {
        if counts[c] == 0 {
            let mut far = 0usize;
            let mut far_d = f32::MIN;
            for (i, p) in points.iter().enumerate() {
                let d = sq_dist(&new_centroids[assignment[i] as usize], p);
                if d >= far_d {
                    far_d = d;
                    far = i;
                }
            }
            new_centroids[c] = points[far].clone();
        } else {
            new_centroids[c] = means[c].clone();
        }
    }
    new_centroids
}

/// Lloyd iterations from explicit initial centroids, replicating the
/// optimized loop's convergence rule: stop when the relative inertia
/// improvement over the previous iteration falls below `tol`, then
/// re-assign against the final centroids.
pub(crate) fn lloyd(
    points: &Rows32,
    initial_centroids: Rows32,
    max_iters: usize,
    tol: f64,
) -> (Rows32, Vec<u32>, f64, usize) {
    assert!(!points.is_empty(), "lloyd: no points");
    let mut centroids = initial_centroids;
    let mut inertia = f64::MAX;
    let mut iterations = 0;
    for iter in 0..max_iters {
        iterations = iter + 1;
        let (assignment, new_inertia) = assign(points, &centroids);
        centroids = update(points, &assignment, &centroids);
        if inertia.is_finite() {
            let improvement = (inertia - new_inertia) / inertia.max(1e-12);
            if improvement.abs() < tol {
                break;
            }
        }
        inertia = new_inertia;
    }
    let (assignment, final_inertia) = assign(points, &centroids);
    (centroids, assignment, final_inertia, iterations)
}

/// k-means++ seeding: first centre uniform, each further centre drawn
/// with probability proportional to its squared distance from the
/// nearest already-chosen centre. Consumes the RNG in the exact order
/// documented by `hignn_cluster::kmeans::kmeans_pp_seed`.
pub fn kmeans_pp(points: &Rows32, k: usize, rng: &mut impl Rng) -> Rows32 {
    let n = points.len();
    let k = k.min(n);
    let mut centroids: Rows32 = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..n)].clone());
    let mut dist2: Vec<f32> = points.iter().map(|p| sq_dist(&centroids[0], p)).collect();
    for _ in 1..k {
        let total: f64 = dist2.iter().map(|&d| d as f64).sum();
        let chosen = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut x = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in dist2.iter().enumerate() {
                x -= d as f64;
                if x <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(points[chosen].clone());
        let c = centroids.len() - 1;
        for (i, d) in dist2.iter_mut().enumerate() {
            let nd = sq_dist(&centroids[c], &points[i]);
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

/// Full reference K-means: k-means++ seeding then [`lloyd`], clamping
/// `k` to the number of points like the optimized implementation.
pub fn kmeans_full(
    points: &Rows32,
    k: usize,
    max_iters: usize,
    tol: f64,
    rng: &mut impl Rng,
) -> (Rows32, Vec<u32>, f64, usize) {
    assert!(k > 0, "kmeans_full: k must be positive");
    let seeds = kmeans_pp(points, k, rng);
    lloyd(points, seeds, max_iters, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn two_blobs_separate() {
        let points: Rows32 =
            vec![vec![0.0], vec![0.1], vec![0.2], vec![9.9], vec![10.0], vec![10.1]];
        let (_, assignment, inertia, _) =
            kmeans_full(&points, 2, 50, 1e-4, &mut StdRng::seed_from_u64(0));
        assert_eq!(assignment[0], assignment[1]);
        assert_eq!(assignment[0], assignment[2]);
        assert_eq!(assignment[3], assignment[5]);
        assert_ne!(assignment[0], assignment[3]);
        assert!(inertia < 0.1);
    }

    #[test]
    fn mean_by_cluster_averages_and_zeros_empty() {
        let points: Rows32 = vec![vec![0.0, 0.0], vec![2.0, 2.0], vec![10.0, 0.0]];
        let m = mean_by_cluster(&points, &[0, 0, 1], 3);
        assert_eq!(m[0], vec![1.0, 1.0]);
        assert_eq!(m[1], vec![10.0, 0.0]);
        assert_eq!(m[2], vec![0.0, 0.0]);
    }

    #[test]
    fn empty_cluster_reseeds_at_farthest_point() {
        let points: Rows32 = vec![vec![0.0], vec![1.0], vec![100.0]];
        // All points assigned to cluster 0 of 2; cluster 1 is empty and
        // must be re-seeded at the farthest point (index 2).
        let centroids: Rows32 = vec![vec![0.0], vec![50.0]];
        let updated = update(&points, &[0, 0, 0], &centroids);
        assert_eq!(updated[1], vec![100.0]);
    }

    #[test]
    fn assignment_first_minimum_wins_ties() {
        let centroids: Rows32 = vec![vec![1.0], vec![1.0]];
        let (assignment, _) = assign(&vec![vec![1.0]], &centroids);
        assert_eq!(assignment, vec![0]);
    }
}
