//! K-means clustering (k-means++ seeding + Lloyd iterations).
//!
//! This is the deterministic clustering stage of HiGNN (Algorithm 1,
//! `K_u(Z_u^l)` / `K_i(Z_i^l)`): given the embedding matrix a bipartite
//! GraphSAGE level produced, cluster each side in its own feature space.
//!
//! The assignment and update steps run data-parallel over fixed row
//! chunks ([`ROW_CHUNK`]); per-chunk partials merge in chunk order, so
//! any worker count produces bit-identical clusterings (see
//! [`hignn_tensor::parallel`]). Both O(n·k·d) distance scans — batch
//! assignment and k-means++ seeding — go through [`PackedRows`], whose
//! distances are bit-identical to the scalar [`nearest_centroid`] scan
//! the tests compare against; so does the streaming estimator
//! ([`crate::streaming::SequentialKMeans`]), which keeps its centroids
//! packed between points.

use hignn_tensor::parallel::{ParallelExecutor, ROW_CHUNK};
use hignn_tensor::{Matrix, PackedRows};
use rand::Rng;

/// Configuration for [`kmeans`].
#[derive(Clone, Debug)]
pub struct KMeansConfig {
    /// Number of clusters. Clamped to the number of points.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence tolerance on relative inertia improvement.
    pub tol: f64,
}

impl KMeansConfig {
    /// Standard configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        KMeansConfig { k, max_iters: 50, tol: 1e-4 }
    }
}

/// Result of a clustering run.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// `k x d` centroid matrix.
    pub centroids: Matrix,
    /// Cluster id per point.
    pub assignment: Vec<u32>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Lloyd iterations performed.
    pub iterations: usize,
}

impl KMeansResult {
    /// Number of clusters.
    pub(crate) fn k(&self) -> usize {
        self.centroids.rows()
    }
}

/// Runs k-means++ seeding followed by Lloyd iterations.
///
/// ```
/// use hignn_cluster::kmeans::{kmeans, KMeansConfig};
/// use hignn_tensor::Matrix;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let data = Matrix::from_vec(4, 1, vec![0.0, 0.1, 9.9, 10.0]);
/// let res = kmeans(&data, &KMeansConfig::new(2), &mut StdRng::seed_from_u64(0));
/// assert_eq!(res.assignment[0], res.assignment[1]);
/// assert_ne!(res.assignment[0], res.assignment[3]);
/// ```
///
/// # Panics
/// Panics if `data` has no rows or `cfg.k == 0`.
pub fn kmeans(data: &Matrix, cfg: &KMeansConfig, rng: &mut impl Rng) -> KMeansResult {
    kmeans_with(data, cfg, rng, &ParallelExecutor::single())
}

/// [`kmeans`] with an explicit executor for the assignment and update
/// steps. The worker count never changes the result: both steps
/// decompose over fixed [`ROW_CHUNK`] row chunks whose partials merge
/// in chunk order, so `kmeans_with(.., N workers)` is bit-identical to
/// [`kmeans`].
pub fn kmeans_with(
    data: &Matrix,
    cfg: &KMeansConfig,
    rng: &mut impl Rng,
    exec: &ParallelExecutor,
) -> KMeansResult {
    let _span = hignn_obs::span("cluster.kmeans");
    assert!(data.rows() > 0, "kmeans: empty data");
    assert!(cfg.k > 0, "kmeans: k must be positive");
    let k = cfg.k.min(data.rows());
    let d = data.cols();
    let mut centroids = kmeans_pp_seed(data, k, rng);
    let mut assignment = vec![0u32; data.rows()];
    let mut inertia = f64::MAX;
    let mut iterations = 0;

    for iter in 0..cfg.max_iters {
        iterations = iter + 1;
        // Assignment step (parallel over row chunks).
        let new_inertia;
        (assignment, new_inertia) = assign_all(&centroids, data, exec);
        // Update step: per-chunk partial sums/counts, merged in chunk
        // order so the f32 accumulation order is fixed.
        let partials = exec.map_chunks(data.rows(), ROW_CHUNK, |_, range| {
            let mut sums = vec![0f32; k * d];
            let mut counts = vec![0usize; k];
            for i in range {
                let c = assignment[i] as usize;
                counts[c] += 1;
                for (s, &v) in sums[c * d..(c + 1) * d].iter_mut().zip(data.row(i)) {
                    *s += v;
                }
            }
            (sums, counts)
        });
        let mut sums = Matrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for (part_sums, part_counts) in partials {
            for (s, v) in sums.data_mut().iter_mut().zip(part_sums) {
                *s += v;
            }
            for (c, v) in counts.iter_mut().zip(part_counts) {
                *c += v;
            }
        }
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                // Re-seed an empty cluster at the point farthest from its
                // centroid, the standard fix that keeps k clusters alive.
                // Non-finite distances are demoted below every finite one
                // (`farthest_score`), so a NaN-feature row can neither
                // panic the comparator nor become a reseed target.
                let far = (0..data.rows())
                    .max_by(|&a, &b| {
                        let da = farthest_score(
                            centroids.row_sq_dist(assignment[a] as usize, data.row(a)),
                        );
                        let db = farthest_score(
                            centroids.row_sq_dist(assignment[b] as usize, data.row(b)),
                        );
                        da.total_cmp(&db)
                    })
                    .unwrap();
                centroids.set_row(c, data.row(far));
            } else {
                let inv = 1.0 / count as f32;
                let sum_row: Vec<f32> = sums.row(c).iter().map(|&s| s * inv).collect();
                centroids.set_row(c, &sum_row);
            }
        }
        // Convergence check on relative improvement.
        if inertia.is_finite() {
            let improvement = (inertia - new_inertia) / inertia.max(1e-12);
            if improvement.abs() < cfg.tol {
                break;
            }
        }
        inertia = new_inertia;
    }

    // Final assignment against the last centroid update.
    let (assignment, final_inertia) = assign_all(&centroids, data, exec);
    if hignn_obs::enabled() {
        hignn_obs::counter_add("cluster.kmeans_runs", 1);
        hignn_obs::counter_add("cluster.kmeans_iterations", iterations as u64);
        hignn_obs::counter_add("cluster.kmeans_points", data.rows() as u64);
        hignn_obs::gauge_set("cluster.last_inertia", final_inertia);
    }
    KMeansResult { centroids, assignment, inertia: final_inertia, iterations }
}

/// Assigns every row of `data` to its nearest centroid, data-parallel
/// over fixed [`ROW_CHUNK`] chunks. Returns the assignment plus the
/// total squared distance (inertia), with per-chunk partial inertias
/// summed in chunk order — bit-identical at any worker count.
///
/// The centroids are packed once per call and every row scans them
/// through [`PackedRows::sq_dists`]; index and distance are
/// bit-identical to [`nearest_centroid`] on the same row.
pub fn assign_all(
    centroids: &Matrix,
    data: &Matrix,
    exec: &ParallelExecutor,
) -> (Vec<u32>, f64) {
    // Serial fallback for small problems: below the work threshold,
    // thread spawn overhead dominates the O(n·k·d) step itself. Chunk
    // decomposition is unchanged, so this never changes bits.
    let exec = &exec.throttle(data.rows() * data.cols() * centroids.rows());
    let packed = PackedRows::pack(centroids);
    let chunks = exec.map_chunks(data.rows(), ROW_CHUNK, |_, range| {
        let mut dists = vec![0f32; centroids.rows()];
        let mut assigned = Vec::with_capacity(range.len());
        let mut inertia = 0f64;
        for i in range {
            packed.sq_dists(data.row(i), &mut dists);
            let (c, d) = nearest(dists.iter().copied());
            assigned.push(c as u32);
            inertia += d as f64;
        }
        (assigned, inertia)
    });
    let mut assignment = Vec::with_capacity(data.rows());
    let mut inertia = 0f64;
    for (assigned, partial) in chunks {
        assignment.extend(assigned);
        inertia += partial;
    }
    (assignment, inertia)
}

/// k-means++ seeding: first centre uniform, subsequent centres with
/// probability proportional to squared distance from the nearest chosen
/// centre. A row with non-finite distance (NaN features, overflow)
/// gets zero seeding weight — it can never be drawn as a centre, and
/// it cannot poison the cumulative sum into a `gen_range(0.0..NaN)`
/// panic. For all-finite data this is the identity, so bits are
/// unchanged.
///
/// The data is packed once, so each new centre's `n` distances come
/// from one [`PackedRows::sq_dists`] call; `(x - c)²` and `(c - x)²`
/// are the same bits, so this is the scalar per-row scan exactly.
pub fn kmeans_pp_seed(data: &Matrix, k: usize, rng: &mut impl Rng) -> Matrix {
    let n = data.rows();
    let k = k.min(n);
    let mut centroids = Matrix::zeros(k, data.cols());
    let first = rng.gen_range(0..n);
    centroids.set_row(0, data.row(first));
    let weight = |d: f32| if d.is_finite() { d as f64 } else { 0.0 };
    let packed = PackedRows::pack(data);
    let mut dist2 = vec![0f32; n];
    packed.sq_dists(data.row(first), &mut dist2);
    let mut new_dist2 = vec![0f32; n];
    for c in 1..k {
        let total: f64 = dist2.iter().map(|&d| weight(d)).sum();
        let chosen = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut x = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in dist2.iter().enumerate() {
                x -= weight(d);
                if x <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.set_row(c, data.row(chosen));
        packed.sq_dists(data.row(chosen), &mut new_dist2);
        for (d, &nd) in dist2.iter_mut().zip(&new_dist2) {
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

/// Index and squared distance of the centroid nearest to `point`: the
/// row-major scalar scan, for callers holding one point at a time
/// (batches go through [`assign_all`], which packs the centroids once).
#[inline]
pub fn nearest_centroid(centroids: &Matrix, point: &[f32]) -> (usize, f32) {
    nearest((0..centroids.rows()).map(|c| centroids.row_sq_dist(c, point)))
}

/// Position and value of the smallest of `dists`, scanned in order.
///
/// NaN sorts *last*: `d < best_d` is false for a NaN of either sign, so
/// a NaN distance — from a NaN-feature point, a poisoned centroid, or
/// `inf - inf` — can never win over any finite or infinite one, and
/// ties keep the lowest centroid index. (`f32::total_cmp` would agree
/// on every other squared distance — none is `-0.0` — but it sorts a
/// *negative* NaN first, and which sign a NaN gets is the hardware's
/// and the compiler's choice.) A point whose distance to *every*
/// centroid is NaN deterministically maps to centroid 0 with reported
/// distance `f32::INFINITY`.
#[inline]
pub(crate) fn nearest(dists: impl Iterator<Item = f32>) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (c, d) in dists.enumerate() {
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// Maps a squared distance to a "how far" score for empty-cluster
/// reseeding: non-finite values (NaN, `inf` from overflow) become
/// `f32::NEG_INFINITY` so they are never chosen as reseed targets —
/// copying a NaN row into a centroid would poison every later
/// assignment round.
#[inline]
fn farthest_score(d: f32) -> f32 {
    if d.is_finite() {
        d
    } else {
        f32::NEG_INFINITY
    }
}

/// Mean member embedding per cluster — the paper's cluster feature
/// `X_{C_u}` ("the average user embedding of users who belong to the
/// cluster").
///
/// Clusters with no members get a zero row.
pub fn mean_by_cluster(data: &Matrix, assignment: &[u32], k: usize) -> Matrix {
    assert_eq!(data.rows(), assignment.len(), "mean_by_cluster: size mismatch");
    let mut out = Matrix::zeros(k, data.cols());
    let mut counts = vec![0usize; k];
    for (i, &c) in assignment.iter().enumerate() {
        let c = c as usize;
        assert!(c < k, "cluster id {c} out of range");
        counts[c] += 1;
        for (o, &v) in out.row_mut(c).iter_mut().zip(data.row(i)) {
            *o += v;
        }
    }
    for (c, &count) in counts.iter().enumerate() {
        if count > 0 {
            let inv = 1.0 / count as f32;
            for o in out.row_mut(c) {
                *o *= inv;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Three well-separated blobs in 2-D.
    fn blobs(rng: &mut StdRng) -> (Matrix, Vec<u32>) {
        let centers = [(0.0f32, 0.0f32), (10.0, 10.0), (-10.0, 10.0)];
        let mut data = Matrix::zeros(90, 2);
        let mut truth = Vec::with_capacity(90);
        for i in 0..90 {
            let c = i % 3;
            let (cx, cy) = centers[c];
            data.set(i, 0, cx + rng.gen_range(-1.0..1.0));
            data.set(i, 1, cy + rng.gen_range(-1.0..1.0));
            truth.push(c as u32);
        }
        (data, truth)
    }

    /// Fraction of point pairs on which two clusterings agree (Rand index).
    fn rand_index(a: &[u32], b: &[u32]) -> f64 {
        let n = a.len();
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                total += 1;
                if (a[i] == a[j]) == (b[i] == b[j]) {
                    agree += 1;
                }
            }
        }
        agree as f64 / total as f64
    }

    #[test]
    fn recovers_separated_blobs() {
        let mut rng = StdRng::seed_from_u64(42);
        let (data, truth) = blobs(&mut rng);
        let res = kmeans(&data, &KMeansConfig::new(3), &mut rng);
        assert_eq!(res.k(), 3);
        assert!(rand_index(&res.assignment, &truth) > 0.99);
        assert!(res.inertia < 90.0 * 2.0); // within-blob variance only
    }

    #[test]
    fn k_clamped_to_n() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = Matrix::from_vec(2, 1, vec![0.0, 5.0]);
        let res = kmeans(&data, &KMeansConfig::new(10), &mut rng);
        assert_eq!(res.k(), 2);
        assert!(res.inertia < 1e-9);
    }

    #[test]
    fn single_cluster() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = Matrix::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        let res = kmeans(&data, &KMeansConfig::new(1), &mut rng);
        assert!(res.assignment.iter().all(|&c| c == 0));
        assert!((res.centroids.get(0, 0) - 1.5).abs() < 1e-5);
    }

    #[test]
    fn identical_points_dont_crash() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = Matrix::from_vec(5, 2, vec![1.0; 10]);
        let res = kmeans(&data, &KMeansConfig::new(3), &mut rng);
        assert!(res.inertia < 1e-9);
        assert!(res.assignment.iter().all(|&c| (c as usize) < res.k()));
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = blobs(&mut StdRng::seed_from_u64(9));
        let r1 = kmeans(&data, &KMeansConfig::new(3), &mut StdRng::seed_from_u64(5));
        let r2 = kmeans(&data, &KMeansConfig::new(3), &mut StdRng::seed_from_u64(5));
        assert_eq!(r1.assignment, r2.assignment);
    }

    #[test]
    fn worker_count_does_not_change_bits() {
        // > ROW_CHUNK points so the parallel path genuinely chunks.
        let mut rng = StdRng::seed_from_u64(11);
        let n = 700;
        let mut data = Matrix::zeros(n, 3);
        for i in 0..n {
            for j in 0..3 {
                data.set(i, j, rng.gen_range(-1.0f32..1.0) + (i % 4) as f32 * 5.0);
            }
        }
        let base = kmeans(&data, &KMeansConfig::new(4), &mut StdRng::seed_from_u64(3));
        for workers in [2, 4, 8] {
            let exec = ParallelExecutor::new(workers);
            let r = kmeans_with(&data, &KMeansConfig::new(4), &mut StdRng::seed_from_u64(3), &exec);
            assert_eq!(r.assignment, base.assignment, "workers = {workers}");
            assert_eq!(r.centroids.data(), base.centroids.data(), "workers = {workers}");
            assert_eq!(r.inertia.to_bits(), base.inertia.to_bits(), "workers = {workers}");
        }
    }

    #[test]
    fn mean_by_cluster_averages() {
        let data = Matrix::from_vec(4, 2, vec![0.0, 0.0, 2.0, 2.0, 10.0, 0.0, 0.0, 10.0]);
        let m = mean_by_cluster(&data, &[0, 0, 1, 1], 3);
        assert_eq!(m.row(0), &[1.0, 1.0]);
        assert_eq!(m.row(1), &[5.0, 5.0]);
        assert_eq!(m.row(2), &[0.0, 0.0]); // empty cluster
    }

    #[test]
    fn nearest_centroid_is_nan_last() {
        let centroids = Matrix::from_vec(3, 2, vec![0.0, 0.0, 10.0, 10.0, f32::NAN, f32::NAN]);
        // A finite point never lands on the poisoned centroid 2, whose
        // distance is NaN and therefore sorts last.
        let (c, d) = nearest_centroid(&centroids, &[9.0, 9.0]);
        assert_eq!(c, 1);
        assert!(d.is_finite());
        // An all-NaN point has NaN distance to every centroid: it maps
        // deterministically to centroid 0 with distance +inf.
        let (c, d) = nearest_centroid(&centroids, &[f32::NAN, f32::NAN]);
        assert_eq!(c, 0);
        assert_eq!(d, f32::INFINITY);
        // `inf - inf` is a NaN whose sign the hardware picks (negative
        // on x86, which total order would sort *first*): it loses too.
        let centroids = Matrix::from_vec(2, 1, vec![1.0, f32::INFINITY]);
        let (c, d) = nearest_centroid(&centroids, &[f32::INFINITY]);
        assert_eq!((c, d), (0, f32::INFINITY));
    }

    #[test]
    fn kmeans_survives_nan_row() {
        // A NaN row must neither panic the empty-cluster reseed
        // comparator (formerly `partial_cmp().unwrap()`) nor be copied
        // into a centroid. The run stays deterministic.
        let mut data = Matrix::from_vec(7, 1, vec![0.0, 0.1, 0.2, 9.9, 10.0, 10.1, 0.0]);
        data.set(6, 0, f32::NAN);
        let r1 = kmeans(&data, &KMeansConfig::new(2), &mut StdRng::seed_from_u64(4));
        let r2 = kmeans(&data, &KMeansConfig::new(2), &mut StdRng::seed_from_u64(4));
        assert_eq!(r1.assignment, r2.assignment);
        assert_eq!(r1.centroids.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                   r2.centroids.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        // The NaN row pollutes the running mean of whichever cluster it
        // joins in the update step, but the reseed policy keeps at
        // least one centroid finite, so finite points stay servable.
        assert!((0..r1.k()).any(|c| r1.centroids.row(c).iter().all(|v| v.is_finite())));
    }

    #[test]
    fn seeding_spreads_centers() {
        // With two tight far-apart blobs, the two seeds should land in
        // different blobs essentially always.
        let mut rng = StdRng::seed_from_u64(7);
        let mut data = Matrix::zeros(20, 1);
        for i in 0..10 {
            data.set(i, 0, rng.gen_range(-0.1..0.1));
            data.set(10 + i, 0, 100.0 + rng.gen_range(-0.1..0.1));
        }
        for seed in 0..20 {
            let mut r = StdRng::seed_from_u64(seed);
            let seeds = kmeans_pp_seed(&data, 2, &mut r);
            let gap = (seeds.get(0, 0) - seeds.get(1, 0)).abs();
            assert!(gap > 50.0, "seed {seed}: centers too close ({gap})");
        }
    }
}
