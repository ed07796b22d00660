//! # hignn-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation. See DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.
//!
//! Binaries (each accepts `--scale`, `--seed`, `--quick`):
//!
//! * `table1_datasets` — Tables I & II (dataset/sample statistics).
//! * `table3_auc` — Table III (AUC of all six methods on both datasets).
//! * `fig3_sensitivity` — Figure 3 (AUC vs level L, AUC vs K-decay α).
//! * `table4_online_ab` — Table IV (two-day online A/B lifts).
//! * `table5_taxonomy_dataset` — Tables V & VI.
//! * `table7_taxonomy_quality` — Table VII (SHOAL vs HiGNN).
//! * `fig5_case_study` — Figure 5 (rendered topic tree).
//! * `ab_taxonomy_ctr` — Section V.D.4 (taxonomy-matched recommendation CTR).
//! * `topk_eval`, `ablation_quality` — extension experiments.
//! * `ingest` — quality experiment (streaming staleness gap).

#![warn(missing_docs)]

pub mod args;
pub mod pipeline;
pub mod report;

pub use args::ExpArgs;
