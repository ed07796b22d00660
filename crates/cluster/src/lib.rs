//! # hignn-cluster
//!
//! Clustering substrate for the HiGNN reproduction:
//!
//! * [`mod@kmeans`] — k-means++ seeded Lloyd iterations, the deterministic
//!   clustering step `K_u`/`K_i` of Algorithm 1, plus the cluster-feature
//!   averaging rule (mean member embedding).
//! * [`streaming`] — the single-pass K-means the paper's complexity
//!   analysis assumes (`O(M·K_u + N·K_i)`).
//! * [`ch_index`] — Calinski-Harabasz index (Eq. 13) and CH-guided
//!   cluster-count selection for taxonomy construction.
//! * [`agglomerative`] — average-linkage HAC (NN-chain) used by the SHOAL
//!   baseline.
//!
//! ## Example
//!
//! ```
//! use hignn_cluster::kmeans::{kmeans, KMeansConfig};
//! use hignn_tensor::Matrix;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let data = Matrix::from_vec(4, 1, vec![0.0, 0.1, 9.9, 10.0]);
//! let res = kmeans(&data, &KMeansConfig::new(2), &mut rng);
//! assert_eq!(res.assignment[0], res.assignment[1]);
//! assert_ne!(res.assignment[0], res.assignment[2]);
//! ```

#![warn(missing_docs)]

pub mod agglomerative;
pub mod ch_index;
pub mod kmeans;
pub mod streaming;

pub use agglomerative::{average_linkage, Dendrogram, Merge};
pub use ch_index::{calinski_harabasz, select_k_by_ch};
pub use kmeans::{kmeans, mean_by_cluster, KMeansConfig, KMeansResult};
pub use streaming::{single_pass_kmeans, SequentialKMeans};
