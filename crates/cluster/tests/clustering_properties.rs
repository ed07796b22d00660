//! Property-based tests for the clustering substrate.

use hignn_cluster::agglomerative::average_linkage;
use hignn_cluster::ch_index::calinski_harabasz;
use hignn_cluster::kmeans::{assign_all, kmeans, mean_by_cluster, nearest_centroid, KMeansConfig};
use hignn_tensor::parallel::{ParallelExecutor, ROW_CHUNK};
use hignn_tensor::Matrix;
use proptest::prelude::*;

fn data_strategy() -> impl Strategy<Value = Matrix> {
    (4usize..30).prop_flat_map(|n| {
        prop::collection::vec(-10.0f32..10.0, n * 2)
            .prop_map(move |v| Matrix::from_vec(n, 2, v))
    })
}

/// Centroid and dimension counts on both sides of every lane (8) and
/// block-step (32) boundary of the packed distance kernel.
const EDGE_KS: [usize; 8] = [1, 7, 8, 9, 31, 32, 33, 40];
const EDGE_DS: [usize; 4] = [1, 31, 32, 33];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn assign_all_equals_per_point_nearest_centroid_bitwise(
        (n, ki, di) in (1usize..3 * ROW_CHUNK, 0usize..EDGE_KS.len(), 0usize..EDGE_DS.len()),
        seed in 0u64..1000,
        workers in 1usize..4,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (k, d) = (EDGE_KS[ki], EDGE_DS[di]);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut centroids = Matrix::from_fn(k, d, |_, _| rng.gen_range(-2.0f32..2.0));
        let mut data = Matrix::from_fn(n, d, |_, _| rng.gen_range(-2.0f32..2.0));
        // Duplicate centroids, and points sitting exactly on them, so
        // zero-distance ties must go to the lowest index.
        let first = centroids.row(0).to_vec();
        centroids.set_row(k - 1, &first);
        centroids.set_row(k / 2, &first);
        data.set_row(0, &first);
        // Rows the NaN-last policy has to route: a NaN feature, and an
        // infinite one whose distance to an infinite centroid is
        // `inf - inf` — a NaN of whichever sign the hardware picks.
        if k > 1 {
            centroids.set(1, d - 1, f32::INFINITY);
        }
        data.set(n / 2, d - 1, f32::INFINITY);
        data.set(n - 1, 0, f32::NAN);

        let (assignment, inertia) = assign_all(&centroids, &data, &ParallelExecutor::new(workers));
        // The reference: the scalar per-point scan, inertia summed per
        // ROW_CHUNK chunk and then across chunks.
        let rows: Vec<usize> = (0..n).collect();
        let mut want_inertia = 0f64;
        for chunk in rows.chunks(ROW_CHUNK) {
            let mut partial = 0f64;
            for &i in chunk {
                let (c, dist) = nearest_centroid(&centroids, data.row(i));
                prop_assert_eq!(assignment[i] as usize, c, "row {}", i);
                partial += dist as f64;
            }
            want_inertia += partial;
        }
        prop_assert_eq!(assignment[0], 0, "tie goes to the lowest index");
        prop_assert_eq!(inertia.to_bits(), want_inertia.to_bits(), "{inertia} vs {want_inertia}");
    }

    #[test]
    fn kmeans_assignment_is_locally_optimal(data in data_strategy(), k in 1usize..6, seed in 0u64..50) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let res = kmeans(&data, &KMeansConfig::new(k), &mut rng);
        // Every point is assigned to its nearest centroid.
        for i in 0..data.rows() {
            let (best, _) = nearest_centroid(&res.centroids, data.row(i));
            let assigned_d = res.centroids.row_sq_dist(res.assignment[i] as usize, data.row(i));
            let best_d = res.centroids.row_sq_dist(best, data.row(i));
            prop_assert!(assigned_d <= best_d + 1e-5);
        }
        // Inertia equals the sum of assigned squared distances.
        let manual: f64 = (0..data.rows())
            .map(|i| res.centroids.row_sq_dist(res.assignment[i] as usize, data.row(i)) as f64)
            .sum();
        prop_assert!((res.inertia - manual).abs() < 1e-3 * (1.0 + manual));
    }

    #[test]
    fn kmeans_inertia_never_worse_with_more_clusters(data in data_strategy(), seed in 0u64..20) {
        use rand::{rngs::StdRng, SeedableRng};
        // Best-of-3 restarts to smooth out local optima, then k=1 vs k=3.
        let best = |k: usize| -> f64 {
            (0..3)
                .map(|s| {
                    let mut rng = StdRng::seed_from_u64(seed * 7 + s);
                    kmeans(&data, &KMeansConfig::new(k), &mut rng).inertia
                })
                .fold(f64::MAX, f64::min)
        };
        let k1 = best(1);
        let k3 = best(3.min(data.rows()));
        prop_assert!(k3 <= k1 + 1e-3 * (1.0 + k1), "k3 {k3} > k1 {k1}");
    }

    #[test]
    fn mean_by_cluster_is_centroid_of_members(data in data_strategy(), k in 1usize..5) {
        let assignment: Vec<u32> = (0..data.rows()).map(|i| (i % k) as u32).collect();
        let means = mean_by_cluster(&data, &assignment, k);
        for c in 0..k {
            let members: Vec<usize> =
                (0..data.rows()).filter(|&i| assignment[i] as usize == c).collect();
            if members.is_empty() {
                continue;
            }
            for col in 0..2 {
                let manual: f32 = members.iter().map(|&i| data.get(i, col)).sum::<f32>()
                    / members.len() as f32;
                prop_assert!((means.get(c, col) - manual).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn hac_cuts_are_nested(data in data_strategy()) {
        let dend = average_linkage(&data);
        let n = data.rows();
        let fine = dend.cut_k((n / 2).max(2));
        let coarse = dend.cut_k(2);
        // Same fine cluster => same coarse cluster (hierarchical nesting).
        for i in 0..n {
            for j in 0..n {
                if fine[i] == fine[j] {
                    prop_assert_eq!(coarse[i], coarse[j]);
                }
            }
        }
    }

    #[test]
    fn ch_index_nonnegative_and_finite_on_nondegenerate(data in data_strategy(), k in 2usize..4) {
        prop_assume!(data.rows() > k);
        let assignment: Vec<u32> = (0..data.rows()).map(|i| (i % k) as u32).collect();
        let ch = calinski_harabasz(&data, &assignment, k);
        prop_assert!(ch >= 0.0);
    }
}
