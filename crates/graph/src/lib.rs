//! # hignn-graph
//!
//! Bipartite-graph substrate for the HiGNN reproduction: weighted
//! bipartite graphs in CSR form ([`BipartiteGraph`]), fixed-fanout and
//! weight-biased neighbour sampling plus degree-biased negative sampling
//! ([`sampling`]), and cluster-induced coarsening implementing the paper's
//! Eq. 6 ([`mod@coarsen`]).
//!
//! ## Example
//!
//! ```
//! use hignn_graph::{BipartiteGraph, Side};
//! use hignn_graph::coarsen::{coarsen, Assignment};
//!
//! // 4 users x 2 items.
//! let g = BipartiteGraph::from_edges(4, 2, vec![
//!     (0, 0, 1.0), (1, 0, 2.0), (2, 1, 1.0), (3, 1, 4.0),
//! ]);
//! assert_eq!(g.degrees(Side::Right), vec![2, 2]);
//!
//! // Merge users pairwise, keep items.
//! let c = coarsen(
//!     &g,
//!     &Assignment::new(vec![0, 0, 1, 1], 2),
//!     &Assignment::identity(2),
//! );
//! assert_eq!(c.edge_weight(0, 0), Some(3.0));
//! ```

#![warn(missing_docs)]

pub mod bipartite;
pub mod coarsen;
pub mod edgelist;
pub mod sampling;
pub mod serialize;
pub mod stats;

pub use bipartite::{BipartiteGraph, Side};
pub use coarsen::{coarsen, Assignment};
pub use sampling::{sample_neighbors, AliasTable, NegativeSampler, SamplingMode};
pub use stats::GraphStats;
