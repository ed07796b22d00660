//! Okapi BM25 relevance scoring.
//!
//! The topic-description concentration score (paper Eq. 16) uses
//! `rel(q, D_k)`, *"the BM25 relevance"* between a query and the
//! concatenated titles of all items in topic `k`. [`Bm25Index`] indexes a
//! fixed document collection (one document per topic) and scores encoded
//! queries against any document.

use std::collections::HashMap;

/// A BM25 index over a fixed set of documents.
#[derive(Clone, Debug)]
pub struct Bm25Index {
    /// Per-document term frequencies.
    term_freqs: Vec<HashMap<u32, u32>>,
    /// Document lengths in tokens.
    doc_lens: Vec<usize>,
    /// Document frequency per term.
    doc_freq: HashMap<u32, u32>,
    avg_len: f64,
    k1: f64,
    b: f64,
}

impl Bm25Index {
    /// Builds an index with the standard parameters `k1 = 1.2`, `b = 0.75`.
    pub fn new(docs: &[Vec<u32>]) -> Self {
        let mut term_freqs = Vec::with_capacity(docs.len());
        let mut doc_freq: HashMap<u32, u32> = HashMap::new();
        let mut doc_lens = Vec::with_capacity(docs.len());
        for doc in docs {
            let mut tf: HashMap<u32, u32> = HashMap::new();
            for &t in doc {
                *tf.entry(t).or_insert(0) += 1;
            }
            for &t in tf.keys() {
                *doc_freq.entry(t).or_insert(0) += 1;
            }
            doc_lens.push(doc.len());
            term_freqs.push(tf);
        }
        let avg_len = if docs.is_empty() {
            0.0
        } else {
            doc_lens.iter().sum::<usize>() as f64 / docs.len() as f64
        };
        Bm25Index { term_freqs, doc_lens, doc_freq, avg_len, k1: 1.2, b: 0.75 }
    }

    /// Number of indexed documents.
    pub(crate) fn num_docs(&self) -> usize {
        self.term_freqs.len()
    }

    /// BM25 score of `query` against document `doc_id`.
    ///
    /// Uses the non-negative IDF variant
    /// `ln(1 + (N - df + 0.5) / (df + 0.5))`.
    pub fn score(&self, query: &[u32], doc_id: usize) -> f64 {
        let n = self.num_docs() as f64;
        let tf_map = &self.term_freqs[doc_id];
        let dl = self.doc_lens[doc_id] as f64;
        let norm = self.k1 * (1.0 - self.b + self.b * dl / self.avg_len.max(1e-12));
        let mut score = 0.0;
        for &t in query {
            let Some(&tf) = tf_map.get(&t) else { continue };
            let df = *self.doc_freq.get(&t).unwrap_or(&0) as f64;
            let idf = (1.0 + (n - df + 0.5) / (df + 0.5)).ln();
            let tf = tf as f64;
            score += idf * tf * (self.k1 + 1.0) / (tf + norm);
        }
        score
    }

    /// Scores `query` against every document.
    pub fn score_all(&self, query: &[u32]) -> Vec<f64> {
        (0..self.num_docs()).map(|d| self.score(query, d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Documents over a tiny integer vocabulary.
    fn docs() -> Vec<Vec<u32>> {
        vec![
            vec![0, 0, 1, 2],       // doc 0: mostly term 0
            vec![3, 3, 3, 4],       // doc 1: mostly term 3
            vec![0, 3, 5, 5, 5, 5], // doc 2: term 5 heavy
        ]
    }

    #[test]
    fn relevant_doc_scores_highest() {
        let idx = Bm25Index::new(&docs());
        let s = idx.score_all(&[3]);
        assert!(s[1] > 0.0 && s[1] > s[0] && s[1] > s[2], "{s:?}");
        let s = idx.score_all(&[5, 5]);
        assert!(s[2] > s[0] && s[2] > s[1], "{s:?}");
    }

    #[test]
    fn rare_terms_weigh_more() {
        let idx = Bm25Index::new(&docs());
        // Term 1 appears in one doc, term 0 in two: same tf=1 in doc 0,
        // but term 1 has higher idf.
        let s_rare = idx.score(&[1], 0);
        let s_common = idx.score(&[0], 2); // tf=1 occurrence of term 0 in doc 2
        assert!(s_rare > s_common, "rare {s_rare} vs common {s_common}");
    }

    #[test]
    fn missing_terms_score_zero() {
        let idx = Bm25Index::new(&docs());
        assert_eq!(idx.score(&[99], 0), 0.0);
        assert_eq!(idx.score(&[], 1), 0.0);
    }

    #[test]
    fn score_all_covers_every_doc() {
        let idx = Bm25Index::new(&docs());
        let scores = idx.score_all(&[0]);
        assert_eq!(scores.len(), 3);
        assert!(scores[0] > scores[1]); // doc 1 lacks term 0
    }

    #[test]
    fn empty_index() {
        let idx = Bm25Index::new(&[]);
        assert_eq!(idx.num_docs(), 0);
        assert!(idx.score_all(&[1]).is_empty());
    }

    #[test]
    fn degenerate_queries_never_panic() {
        let idx = Bm25Index::new(&docs());
        // Empty query: every document scores 0.0.
        assert_eq!(idx.score_all(&[]), vec![0.0; 3]);
        // Query of only unseen (zero-tf) terms behaves the same.
        assert_eq!(idx.score_all(&[99, 100]), vec![0.0; 3]);
        // Index over empty documents, empty query.
        let empty_docs = Bm25Index::new(&[vec![], vec![]]);
        assert_eq!(empty_docs.score_all(&[]), vec![0.0; 2]);
    }

    #[test]
    fn length_normalisation_penalises_long_docs() {
        // Same tf of the query term; longer doc should score lower.
        let d = vec![vec![7, 1, 2], vec![7, 1, 2, 3, 4, 5, 6, 8, 9, 10]];
        let idx = Bm25Index::new(&d);
        assert!(idx.score(&[7], 0) > idx.score(&[7], 1));
    }
}
