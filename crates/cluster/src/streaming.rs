//! Single-pass K-means.
//!
//! The paper's complexity analysis (Section III.D) states: *"For the first
//! layer of Kmeans, we use the single-pass version which estimates the
//! cluster centers with a single pass over all data and is appropriate for
//! large-scale clustering"*, giving `O(M*K_u + N*K_i)`. [`SequentialKMeans`]
//! implements that estimator (MacQueen-style running means).

use crate::kmeans::{assign_all, kmeans_pp_seed, nearest};
use hignn_tensor::parallel::ParallelExecutor;
use hignn_tensor::{Matrix, PackedRows};
use rand::Rng;

/// MacQueen sequential (single-pass) K-means.
///
/// Centres are seeded with k-means++ on a bounded prefix sample, then each
/// point is assigned to its nearest centre exactly once and the centre is
/// moved by the running-mean rule `c += (x - c) / n_c`.
///
/// # Invariants
///
/// * `counts.len() == centroids.rows()`, always.
/// * `counts[c] == 0` iff centre `c` has never received a point, in
///   which case its row still holds its *seed position* — it is a
///   **dead cluster**, not a zero row. [`Self::observe`] increments the
///   count *before* forming the learning rate `1/counts[c]`, so the
///   rate is always finite; no refactor may reorder those two steps
///   (the `debug_assert!` guards it).
/// * Dead clusters are a policy decision for the caller:
///   [`Self::dead_clusters`] reports them and nothing reseeds them —
///   streaming ingestion needs stable cluster ids.
/// * Non-finite points (any NaN/±inf feature) are routed
///   deterministically by the NaN-last
///   [`crate::kmeans::nearest_centroid`] rule and **never update a
///   centre**: one bad row cannot poison a running mean and thereby
///   corrupt every later assignment.
/// * `packed` mirrors `centroids` row for row: every write to a centre
///   goes to both, so [`Self::observe`] and [`Self::assign`] scan the
///   mirror through [`PackedRows::sq_dists`], whose distances are
///   bit-identical to the scalar `nearest_centroid` scan.
#[derive(Clone, Debug)]
pub struct SequentialKMeans {
    centroids: Matrix,
    packed: PackedRows,
    counts: Vec<usize>,
}

impl SequentialKMeans {
    /// Seeds `k` centres from `seed_sample` (k-means++).
    pub(crate) fn new(seed_sample: &Matrix, k: usize, rng: &mut impl Rng) -> Self {
        let centroids = kmeans_pp_seed(seed_sample, k, rng);
        let counts = vec![0usize; centroids.rows()];
        Self::from_state(centroids, counts)
    }

    /// Reconstructs the estimator from persisted state — the entry
    /// point for streaming ingestion, which resumes from the exact
    /// per-cluster member means and sizes of a trained hierarchy.
    ///
    /// # Panics
    /// Panics if `counts.len() != centroids.rows()`.
    pub fn from_state(centroids: Matrix, counts: Vec<usize>) -> Self {
        assert_eq!(
            counts.len(),
            centroids.rows(),
            "SequentialKMeans::from_state: one count per centroid"
        );
        let packed = PackedRows::pack(&centroids);
        SequentialKMeans { centroids, packed, counts }
    }

    /// Consumes one point, returning its assigned cluster.
    ///
    /// A non-finite point is assigned (NaN-last, deterministic) but
    /// does **not** move the centre or bump its count.
    pub fn observe(&mut self, point: &[f32]) -> u32 {
        let c = self.assign(point) as usize;
        if !point.iter().all(|v| v.is_finite()) {
            return c as u32;
        }
        self.counts[c] += 1;
        debug_assert!(self.counts[c] > 0, "count must be bumped before the learning rate");
        let lr = 1.0 / self.counts[c] as f32;
        let row = self.centroids.row_mut(c);
        for (cv, &pv) in row.iter_mut().zip(point) {
            *cv += lr * (pv - *cv);
        }
        self.packed.set_row(c, self.centroids.row(c));
        c as u32
    }

    /// Current centroids.
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Assigns a point without updating centres: the nearest centre,
    /// NaN-last, lowest index on ties.
    pub fn assign(&self, point: &[f32]) -> u32 {
        let mut dists = vec![0f32; self.centroids.rows()];
        self.packed.sq_dists(point, &mut dists);
        nearest(dists.into_iter()).0 as u32
    }

    /// Overwrites one centre and its count with exact values (used
    /// after a re-coarsen recomputes member means offline).
    ///
    /// # Panics
    /// Panics if `c` is out of range or `center` has the wrong length.
    pub fn set_center(&mut self, c: usize, center: &[f32], count: usize) {
        assert_eq!(center.len(), self.centroids.cols(), "set_center: dimension mismatch");
        self.centroids.set_row(c, center);
        self.packed.set_row(c, center);
        self.counts[c] = count;
    }

    /// Ids of dead clusters — centres that never received a point and
    /// therefore still sit at their seed position.
    pub fn dead_clusters(&self) -> Vec<usize> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n == 0)
            .map(|(c, _)| c)
            .collect()
    }
}

/// Runs single-pass K-means over an entire matrix: seed on a prefix
/// sample, stream all rows once, then re-assign every row against the
/// final centres (so the output assignment is consistent). The MacQueen
/// streaming pass is inherently sequential (each observation moves a
/// centre), so only the final full re-assignment — the other O(n·k·d)
/// half — runs on `exec`. Bit-identical at any worker count.
pub fn single_pass_kmeans(
    data: &Matrix,
    k: usize,
    seed_sample_size: usize,
    rng: &mut impl Rng,
    exec: &ParallelExecutor,
) -> (Matrix, Vec<u32>) {
    let _span = hignn_obs::span("cluster.single_pass_kmeans");
    hignn_obs::counter_add("cluster.single_pass_points", data.rows() as u64);
    assert!(data.rows() > 0, "single_pass_kmeans: empty data");
    let sample_rows = seed_sample_size.clamp(k.min(data.rows()), data.rows());
    let sample_idx: Vec<usize> = (0..sample_rows).collect();
    let sample = data.gather_rows(&sample_idx);
    let mut skm = SequentialKMeans::new(&sample, k, rng);
    for i in 0..data.rows() {
        skm.observe(data.row(i));
    }
    let (assignment, _inertia) = assign_all(&skm.centroids, data, exec);
    (skm.centroids, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_blobs(rng: &mut StdRng, n_per: usize) -> Matrix {
        let mut data = Matrix::zeros(2 * n_per, 2);
        for i in 0..n_per {
            data.set(i, 0, rng.gen_range(-1.0..1.0));
            data.set(i, 1, rng.gen_range(-1.0..1.0));
            data.set(n_per + i, 0, 20.0 + rng.gen_range(-1.0..1.0));
            data.set(n_per + i, 1, 20.0 + rng.gen_range(-1.0..1.0));
        }
        data
    }

    #[test]
    fn single_pass_separates_blobs() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = two_blobs(&mut rng, 200);
        let (_c, assignment) =
            single_pass_kmeans(&data, 2, 64, &mut rng, &ParallelExecutor::single());
        // All of blob A in one cluster, all of blob B in the other.
        let a = assignment[0];
        assert!(assignment[..200].iter().all(|&x| x == a));
        assert!(assignment[200..].iter().all(|&x| x != a));
    }

    #[test]
    fn sequential_running_mean_is_exact_for_one_cluster() {
        let mut rng = StdRng::seed_from_u64(2);
        let seed = Matrix::from_vec(1, 1, vec![0.0]);
        let mut skm = SequentialKMeans::new(&seed, 1, &mut rng);
        for v in [2.0f32, 4.0, 6.0] {
            skm.observe(&[v]);
        }
        // Running mean starting from seed 0: after 2,4,6 -> mean of [2,4,6]
        // because the first observation resets toward (0 + (2-0)/1) = 2.
        assert!((skm.centroids().get(0, 0) - 4.0).abs() < 1e-5);
        assert_eq!(skm.counts, [3]);
    }

    #[test]
    fn assign_does_not_mutate() {
        let mut rng = StdRng::seed_from_u64(4);
        let seed = Matrix::from_vec(2, 1, vec![0.0, 10.0]);
        let skm = SequentialKMeans::new(&seed, 2, &mut rng);
        let before = skm.centroids().clone();
        let _ = skm.assign(&[3.0]);
        assert_eq!(skm.centroids(), &before);
    }

    #[test]
    fn worker_count_does_not_change_bits() {
        let mut rng = StdRng::seed_from_u64(8);
        let data = two_blobs(&mut rng, 400); // 800 rows > ROW_CHUNK
        let single = ParallelExecutor::single();
        let (c1, a1) = single_pass_kmeans(&data, 2, 64, &mut StdRng::seed_from_u64(5), &single);
        for workers in [2, 4] {
            let exec = ParallelExecutor::new(workers);
            let (c, a) = single_pass_kmeans(&data, 2, 64, &mut StdRng::seed_from_u64(5), &exec);
            assert_eq!(a, a1, "single-pass workers = {workers}");
            assert_eq!(c.data(), c1.data(), "single-pass workers = {workers}");
        }
    }

    #[test]
    fn nan_row_is_routed_deterministically_and_never_poisons_a_centre() {
        // Regression: a NaN-feature point used to win the running-mean
        // update for whatever centre the broken comparator picked,
        // turning that centroid NaN and corrupting every later
        // assignment. Now it is assigned NaN-last (centre 0) and the
        // estimator state is untouched.
        let mut skm = SequentialKMeans::from_state(
            Matrix::from_vec(2, 2, vec![0.0, 0.0, 10.0, 10.0]),
            vec![4, 4],
        );
        let before = skm.centroids().clone();
        let c = skm.observe(&[f32::NAN, 1.0]);
        assert_eq!(c, 0, "NaN-last routing is deterministic");
        assert_eq!(skm.centroids(), &before, "centre must not absorb NaN");
        assert_eq!(skm.counts, [4, 4], "counts must not change");
        // assign() follows the same policy.
        assert_eq!(skm.assign(&[f32::NAN, f32::NAN]), 0);
        // Later finite points still stream normally.
        let c = skm.observe(&[9.0, 9.0]);
        assert_eq!(c, 1);
        assert_eq!(skm.counts, [4, 5]);
        assert!(skm.centroids().row(1).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn packed_mirror_assigns_like_the_scalar_scan() {
        // 37 centres (four 8-lane blocks and a partial one) of odd width;
        // a reference estimator steps beside the real one with the
        // scalar `nearest_centroid` scan and the same update rule.
        use crate::kmeans::nearest_centroid;
        let (k, dim) = (37, 5);
        let mut rng = StdRng::seed_from_u64(21);
        let mut centroids =
            Matrix::from_vec(k, dim, (0..k * dim).map(|_| rng.gen_range(-1.0..1.0)).collect());
        // Centres 30 and 4 coincide, so a point on them ties exactly.
        let twin = centroids.row(30).to_vec();
        centroids.set_row(4, &twin);
        let mut skm = SequentialKMeans::from_state(centroids.clone(), vec![1; k]);
        let (mut reference, mut counts) = (centroids, vec![1usize; k]);
        for step in 0..300 {
            let mut point: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.2..1.2)).collect();
            if step % 7 == 0 {
                point[2] = f32::NAN;
            }
            if step % 5 == 0 {
                point = reference.row(4).to_vec();
            }
            let (want, _) = nearest_centroid(&reference, &point);
            assert_eq!(skm.assign(&point) as usize, want, "assign, step {step}");
            assert_eq!(skm.observe(&point) as usize, want, "observe, step {step}");
            if point.iter().all(|v| v.is_finite()) {
                counts[want] += 1;
                let lr = 1.0 / counts[want] as f32;
                for (c, &p) in reference.row_mut(want).iter_mut().zip(&point) {
                    *c += lr * (p - *c);
                }
            }
            if step % 13 == 0 {
                let c = step % k;
                let row: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                skm.set_center(c, &row, 3);
                reference.set_row(c, &row);
                counts[c] = 3;
            }
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(skm.centroids()), bits(&reference), "centroids, step {step}");
            assert_eq!(skm.counts, counts);
        }
        let tied = SequentialKMeans::from_state(
            Matrix::from_vec(3, 2, vec![2.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
            vec![1; 3],
        );
        assert_eq!(tied.assign(&[1.0, 0.0]), 0, "equidistant from all three");
        assert_eq!(tied.assign(&[0.0, 0.0]), 1, "on two coincident centres");
    }

    #[test]
    fn dead_cluster_keeps_its_seed_and_is_reported() {
        // Centre 2 is seeded far from all data: it never receives a
        // point, keeps its seed position bit-exactly (documented
        // invariant), and is reported by dead_clusters().
        let mut skm = SequentialKMeans::from_state(
            Matrix::from_vec(3, 1, vec![0.0, 10.0, 1000.0]),
            vec![0, 0, 0],
        );
        let data = Matrix::from_vec(6, 1, vec![0.0, 1.0, -1.0, 9.0, 10.0, 11.0]);
        for i in 0..data.rows() {
            skm.observe(data.row(i));
        }
        assert_eq!(skm.counts[2], 0);
        assert_eq!(skm.centroids().get(2, 0), 1000.0, "dead centre keeps its seed");
        assert_eq!(skm.dead_clusters(), vec![2]);
    }

    #[test]
    fn handles_k_greater_than_sample() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = Matrix::from_vec(3, 1, vec![0.0, 5.0, 10.0]);
        let (c, assignment) =
            single_pass_kmeans(&data, 10, 10, &mut rng, &ParallelExecutor::single());
        assert!(c.rows() <= 3);
        assert_eq!(assignment.len(), 3);
    }
}
