//! SHOAL — the paper's deployed taxonomy baseline (Li et al., VLDB 2019).
//!
//! *"SHOAL ... also considers a hierarchical graph-based strategy but only
//! uses a well-defined metric to calculate the query-item embeddings.
//! SHOAL doesn't apply a trainable graph neural network to learn the
//! non-linear interactions"* (Section V.D). We implement it as
//! average-linkage hierarchical agglomerative clustering over *fixed*
//! embeddings (mean word2vec vectors), cut at the same per-level cluster
//! counts HiGNN uses (the paper's fair-comparison setting).

use hignn_cluster::agglomerative::average_linkage;
use hignn_tensor::Matrix;

/// A SHOAL taxonomy: item topic assignments per level (finest first).
#[derive(Clone, Debug)]
pub struct ShoalTaxonomy {
    /// `item_levels[l-1][i]` is item `i`'s topic at level `l`.
    pub item_levels: Vec<Vec<u32>>,
    /// The per-level cluster counts actually produced.
    pub level_counts: Vec<usize>,
}

impl ShoalTaxonomy {
    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.item_levels.len()
    }
}

/// Builds the SHOAL taxonomy by cutting one agglomerative dendrogram over
/// `item_feats` at each cluster count in `cluster_counts` (finest first,
/// strictly decreasing is expected but not required).
pub fn build_shoal(item_feats: &Matrix, cluster_counts: &[usize]) -> ShoalTaxonomy {
    assert!(!cluster_counts.is_empty(), "build_shoal: no levels requested");
    let dendrogram = average_linkage(item_feats);
    let mut item_levels = Vec::with_capacity(cluster_counts.len());
    let mut level_counts = Vec::with_capacity(cluster_counts.len());
    for &k in cluster_counts {
        let cut = dendrogram.cut_k(k);
        let actual = cut.iter().copied().max().map_or(0, |m| m as usize + 1);
        item_levels.push(cut);
        level_counts.push(actual);
    }
    ShoalTaxonomy { item_levels, level_counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_feats() -> Matrix {
        // Three 1-D blobs of 6 points each.
        let mut data = Vec::new();
        for c in 0..3 {
            for i in 0..6 {
                data.push(c as f32 * 50.0 + i as f32 * 0.1);
            }
        }
        Matrix::from_vec(18, 1, data)
    }

    #[test]
    fn cuts_match_requested_counts() {
        let tax = build_shoal(&blob_feats(), &[6, 3, 2]);
        assert_eq!(tax.num_levels(), 3);
        assert_eq!(tax.level_counts, vec![6, 3, 2]);
        assert_eq!(tax.item_levels[0].len(), 18);
    }

    #[test]
    fn level_3_recovers_blobs_nested_in_level_2() {
        let tax = build_shoal(&blob_feats(), &[3, 2]);
        let fine = &tax.item_levels[0];
        // Finest cut at 3 recovers the 3 blobs exactly.
        for b in 0..3 {
            let first = fine[b * 6];
            assert!(fine[b * 6..(b + 1) * 6].iter().all(|&x| x == first));
        }
        // Coarser level merges blobs (2 clusters), and is a coarsening of
        // the finer one: same fine cluster -> same coarse cluster.
        let coarse = &tax.item_levels[1];
        for i in 0..18 {
            for j in 0..18 {
                if fine[i] == fine[j] {
                    assert_eq!(coarse[i], coarse[j]);
                }
            }
        }
    }

    #[test]
    fn single_level() {
        let tax = build_shoal(&blob_feats(), &[4]);
        assert_eq!(tax.num_levels(), 1);
        assert!(tax.level_counts[0] <= 4);
    }
}
