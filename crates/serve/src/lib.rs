//! # hignn-serve
//!
//! Online top-k retrieval over a trained HiGNN hierarchy — the paper's
//! serving endgame (Sec. IV, Table 4 online A/B), built as
//! *hierarchy-as-index*: the cluster tree the training stack already
//! produces doubles as an approximate-nearest-neighbour index.
//!
//! ## How a request is answered
//!
//! [`ServeModel`] loads an HGHI model **read-only** through the
//! zero-copy section reader (`hignn::io::read_hierarchy_bytes`): the
//! file is read into memory once, every CRC-framed section is verified
//! and parsed in place, and each level is decoded exactly once at load
//! — no mutation, no re-decode per request. At load it precomputes
//!
//! * the hierarchical user/item embeddings `z_u^H` / `z_i^H`
//!   (concatenated per-level cluster-chain embeddings),
//! * per-tier *representative features* for every internal cluster
//!   node — recursive child-means of the tier below, so a tier-`l`
//!   node's feature shares its exact ancestor-chain components and
//!   summarises its descendants in the finer components, and
//! * per-tier children lists for descending the tree.
//!
//! [`ServeModel::top_k`] then runs **coarse-to-fine beam search**:
//! score the level-`L` cluster representatives with the Eq. 7 MLP
//! scorer, keep the best [`BeamWidth`] nodes, descend into their
//! children, repeat down to tier 1, and finally re-rank the surviving
//! leaf items *exactly* on their true `z_i^H` features. The answer is
//! the best `k` of the leaves the beam reached, so a finite beam can
//! return **fewer than `k`** items (beam 1 reaches one tier-1 cluster);
//! beam ∞ always returns `k`. The scorer never builds a `[user | item]`
//! row: the user's half of its first layer is computed once per request
//! and every candidate batch resumes from it (see [`scorer`]).
//!
//! ## The oracle contract
//!
//! The engine's approximation knob is anchored to an exhaustive oracle:
//!
//! * **Beam width ∞ is bitwise identical to exhaustive scoring.** With
//!   nothing pruned the leaf candidate set is every item; per-row MLP
//!   inference is bitwise independent of batch composition (proven
//!   against the differential oracle in PR 3/4; every row resumes from
//!   the same per-request prefix, itself a function of the user alone),
//!   and ranking uses one total order — so `top_k(∞)` returns exactly
//!   [`ServeModel::exhaustive_top_k`]'s items *and score bits*.
//! * **Recall@k is non-decreasing in beam width.** Survivors at width
//!   `w` are a prefix of survivors at width `w+1` at every tier, so
//!   candidate sets are nested and exact leaf re-ranking can only gain
//!   true top-k items.
//!
//! Both properties are enforced under proptest in
//! `tests/tests/serve_oracle.rs`.
//!
//! ## Determinism scope
//!
//! [`ServeModel::serve_batch`] threads requests through the workspace's
//! `ParallelExecutor`; results come back in request order, and for a
//! fixed request order N serving threads return bitwise the same
//! responses as 1. Ranking is NaN-safe: a non-finite score can never
//! outrank a real one or poison the sort (`f32::total_cmp` plus an
//! explicit NaN-last class, the PR 5 fix pattern).

#![warn(missing_docs)]

pub mod bench;
pub mod engine;
pub mod model;
pub mod scorer;

pub use bench::{latency_sweep, recall_sweep, LatencyPoint, RecallPoint};
pub use engine::{BeamWidth, ScoredItem, TopKRequest, DEFAULT_BEAM_WIDTH, DEFAULT_TOP_K};
pub use model::ServeModel;
pub use scorer::{Scorer, DEFAULT_SCORER_SEED};
