//! Naive, textbook reference implementations of the HiGNN numerical
//! core — the *differential oracle* the optimized crates are tested
//! against.
//!
//! Every optimized hot path in this workspace (the `ikj` matmul and the
//! tape in `hignn-tensor`, the data-parallel K-means in `hignn-cluster`,
//! the Eq. 6 coarsening in `hignn-graph`, BM25 in `hignn-text`, the
//! Eq. 5 training loss and exact inference in `hignn`) has a slow,
//! obviously-correct counterpart here, written straight from the paper's
//! equations with no attention paid to performance. The property-based
//! differential suite in `tests/tests/differential_oracle.rs` generates
//! randomized inputs and asserts the optimized implementations agree
//! with this crate — bitwise where the floating-point accumulation
//! order provably matches, within explicit tolerances otherwise.
//!
//! Design rules for this crate:
//!
//! * **Zero code sharing with the optimized crates.** Nothing here
//!   depends on `hignn-tensor`, `hignn-cluster`, `hignn-graph`,
//!   `hignn-text`, or `hignn`. Matrices are plain `Vec<Vec<f32>>` /
//!   `Vec<Vec<f64>>`, graphs are plain adjacency lists.
//! * **Readability over speed.** Triple loops, per-query term
//!   recounting, full `O(n·k·d)` Lloyd scans. If a reviewer cannot
//!   verify a function against the paper in one read, it does not
//!   belong here.
//! * **Two precisions, on purpose.** Functions promising *bitwise*
//!   agreement ([`linalg`], [`kmeans`], [`coarsen`], [`mlp`]) accumulate
//!   in `f32` in index order — the same order the optimized loops use —
//!   so equality is exact, not approximate. The Eq. 5 loss and its
//!   finite-difference gradients ([`eq5`]) use `f64` throughout: the
//!   oracle there approximates the *mathematical* gradient, which is
//!   exactly what an independent check of the autograd engine wants.

// Index loops *are* the specification here: they make the accumulation
// order visible, which is what the bitwise comparisons depend on.
#![allow(clippy::needless_range_loop)]

pub mod bm25;
pub mod coarsen;
pub mod eq5;
pub mod kmeans;
pub mod linalg;
pub mod mlp;
pub mod sage;

/// A dense row-major `f32` matrix as a plain vector of rows — the only
/// "tensor type" the bitwise oracles use.
pub(crate) type Rows32 = Vec<Vec<f32>>;

/// A dense row-major `f64` matrix as a plain vector of rows — used by
/// the `f64` oracles ([`sage`], [`eq5`]).
pub(crate) type Rows64 = Vec<Vec<f64>>;
