//! # hignn-text
//!
//! Text substrate for the HiGNN reproduction's taxonomy pipeline
//! (paper Section V): a tokeniser and frequency vocabulary ([`vocab`]),
//! from-scratch skip-gram word2vec with negative sampling ([`word2vec`])
//! used to embed queries and item titles into one latent space, and Okapi
//! BM25 ([`bm25`]) used by the topic-description concentration score
//! (Eq. 16).
//!
//! ## Example
//!
//! ```
//! use hignn_text::vocab::{tokenize, Vocab};
//! use hignn_text::bm25::Bm25Index;
//!
//! let docs: Vec<Vec<String>> = ["beach dress summer", "running shoes sport"]
//!     .iter().map(|t| tokenize(t)).collect();
//! let vocab = Vocab::build(docs.iter().map(|d| d.as_slice()), 1);
//! let encoded: Vec<Vec<u32>> = docs.iter().map(|d| vocab.encode(d)).collect();
//! let idx = Bm25Index::new(&encoded);
//! let query = vocab.encode_text("beach dress");
//! assert!(idx.score(&query, 0) > idx.score(&query, 1));
//! ```

#![warn(missing_docs)]

pub mod bm25;
pub mod vocab;
pub mod word2vec;

pub use bm25::Bm25Index;
pub use vocab::{tokenize, Vocab};
pub use word2vec::{cosine, mean_embedding, train_word2vec, Word2VecConfig};
