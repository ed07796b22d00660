//! Textbook Okapi BM25, straight from the formula.
//!
//! Unlike `hignn_text::Bm25Index`, nothing is precomputed: every score
//! call recounts term frequencies and document frequencies from the raw
//! token lists. Same non-negative IDF variant
//! (`ln(1 + (N - df + 0.5) / (df + 0.5))`) and same parameters
//! (`k1 = 1.2`, `b = 0.75` by default). All arithmetic is `f64`; the
//! optimized index groups the terms differently (e.g. hash-map term
//! counts, cached average length), so the differential suite compares
//! within a tolerance, not bitwise.

/// Number of occurrences of `term` in `doc`.
fn term_frequency(term: u32, doc: &[u32]) -> usize {
    doc.iter().filter(|&&t| t == term).count()
}

/// Number of documents containing `term`.
fn doc_frequency(term: u32, docs: &[Vec<u32>]) -> usize {
    docs.iter().filter(|d| d.contains(&term)).count()
}

/// Mean document length in tokens (0 for an empty collection).
fn average_length(docs: &[Vec<u32>]) -> f64 {
    if docs.is_empty() {
        0.0
    } else {
        docs.iter().map(|d| d.len()).sum::<usize>() as f64 / docs.len() as f64
    }
}

/// BM25 score of `query` against `docs[doc_id]` with explicit `k1`/`b`.
pub(crate) fn score_with_params(
    query: &[u32],
    docs: &[Vec<u32>],
    doc_id: usize,
    k1: f64,
    b: f64,
) -> f64 {
    let n = docs.len() as f64;
    let doc = &docs[doc_id];
    let dl = doc.len() as f64;
    let avg = average_length(docs);
    let mut total = 0.0f64;
    for &term in query {
        let tf = term_frequency(term, doc) as f64;
        if tf == 0.0 {
            continue;
        }
        let df = doc_frequency(term, docs) as f64;
        let idf = (1.0 + (n - df + 0.5) / (df + 0.5)).ln();
        let norm = k1 * (1.0 - b + b * dl / avg.max(1e-12));
        total += idf * tf * (k1 + 1.0) / (tf + norm);
    }
    total
}

/// BM25 score with the standard parameters `k1 = 1.2`, `b = 0.75`.
pub(crate) fn score(query: &[u32], docs: &[Vec<u32>], doc_id: usize) -> f64 {
    score_with_params(query, docs, doc_id, 1.2, 0.75)
}

/// Scores `query` against every document.
pub fn score_all(query: &[u32], docs: &[Vec<u32>]) -> Vec<f64> {
    (0..docs.len()).map(|d| score(query, docs, d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<Vec<u32>> {
        vec![vec![0, 0, 1, 2], vec![3, 3, 3, 4], vec![0, 3, 5, 5, 5, 5]]
    }

    #[test]
    fn relevant_doc_scores_highest() {
        let scores = score_all(&[3], &docs());
        assert!(scores[1] > scores[0]);
        assert!(scores[1] > scores[2]);
    }

    #[test]
    fn absent_terms_contribute_nothing() {
        assert_eq!(score(&[99], &docs(), 0), 0.0);
        assert_eq!(score(&[], &docs(), 1), 0.0);
    }

    #[test]
    fn repeated_query_terms_count_each_occurrence() {
        // The outer loop walks the raw query, so a duplicated query term
        // scores twice — matching the optimized index's behaviour.
        let once = score(&[5], &docs(), 2);
        let twice = score(&[5, 5], &docs(), 2);
        assert!((twice - 2.0 * once).abs() < 1e-12);
    }
}
