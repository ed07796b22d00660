//! Thread-count determinism integration tests.
//!
//! The parallel execution layer's contract is that the worker count is
//! purely physical: training, inference, and clustering at N threads are
//! **bit-identical** to 1 thread, because every work decomposition
//! (gradient shards, row chunks, per-shard RNG streams) is derived from
//! the configuration, never from the thread count. These tests drive
//! that contract end to end:
//!
//! * a full hierarchy build at 1 thread and at 4 threads serialises to
//!   the identical HGHI v2 file;
//! * property test: any thread count in 1..=8 reproduces the 1-thread
//!   hierarchy byte-for-byte;
//! * a build checkpointed at one thread count, and stopped by a blocked
//!   level write, resumes at a *different* thread count and still
//!   reproduces the uninterrupted run byte-for-byte;
//! * the `HIGNN_TEST_THREADS` env knob lets CI re-run the same assertion
//!   across its thread matrix;
//! * two `build_taxonomy` runs in one process give the same topics.

use hignn::io::write_hierarchy;
use hignn::prelude::*;
use hignn_graph::{BipartiteGraph, SamplingMode};
use hignn_integration_tests::crash_after_level;
use hignn_tensor::{init, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

// ---------------------------------------------------------------------
// Helpers (mirror `crash_recovery.rs`).

/// A small clustered graph + features + config that trains fast but
/// exercises both training levels, Lloyd clustering, and inference.
fn small_setup() -> (BipartiteGraph, Matrix, Matrix, HignnConfig) {
    let mut rng = StdRng::seed_from_u64(23);
    let (blocks, per) = (4usize, 10usize);
    let n = blocks * per;
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        let b = u as usize / per;
        for _ in 0..5 {
            let i = (b * per + rng.gen_range(0..per)) as u32;
            edges.push((u, i, 1.0));
        }
    }
    let g = BipartiteGraph::from_edges(n, n, edges);
    let uf = init::xavier_uniform(n, 8, &mut rng);
    let if_ = init::xavier_uniform(n, 8, &mut rng);
    let cfg = HignnConfig {
        levels: 2,
        sage: BipartiteSageConfig {
            input_dim: 8,
            dim: 8,
            fanouts: vec![4, 3],
            sampling: SamplingMode::Uniform,
            ..Default::default()
        },
        train: SageTrainConfig { epochs: 3, batch_edges: 32, neg_pool: 16, ..Default::default() },
        cluster_counts: ClusterCounts::AlphaDecay { alpha: 4.0 },
        kmeans: KMeansAlgo::Lloyd,
        normalize: true,
        seed: 29,
    };
    (g, uf, if_, cfg)
}

fn serialize(h: &Hierarchy) -> Vec<u8> {
    let mut buf = Vec::new();
    write_hierarchy(&mut buf, h).expect("in-memory write cannot fail");
    buf
}

fn build_at(threads: usize) -> Vec<u8> {
    let (g, uf, if_, cfg) = small_setup();
    let h = build_hierarchy_with(
        &g,
        &uf,
        &if_,
        &cfg,
        &BuildOptions { threads, ..Default::default() },
    )
    .unwrap();
    serialize(&h)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hignn_det_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// 1 thread vs 4 threads: identical hierarchy, identical HGHI v2 file.

#[test]
fn four_threads_produce_the_identical_hghi_file() {
    let baseline = build_at(1);
    assert_eq!(build_at(4), baseline, "4-thread build diverged from 1-thread build");
}

// ---------------------------------------------------------------------
// Observability inertness: metrics recording may not change a bit of
// the built hierarchy, at any thread count (DESIGN.md §10).

#[test]
fn metrics_recording_is_bitwise_inert_at_1_and_4_threads() {
    let baseline = build_at(1);
    hignn_obs::global().reset();
    hignn_obs::set_enabled(true);
    let observed_1 = build_at(1);
    let observed_4 = build_at(4);
    hignn_obs::set_enabled(false);
    assert_eq!(observed_1, baseline, "metrics-on 1-thread build diverged from metrics-off");
    assert_eq!(observed_4, baseline, "metrics-on 4-thread build diverged from metrics-off");
    // The run was actually observed, not silently disabled.
    assert!(
        hignn_obs::global().counter_get("train.batches") > 0,
        "metrics-on build recorded no batches"
    );
    hignn_obs::global().reset();
}

#[test]
fn hierarchy_fields_match_across_thread_counts() {
    // Field-level comparison (not just the serialised file) so a failure
    // pinpoints which artefact diverged.
    let (g, uf, if_, cfg) = small_setup();
    let h1 = build_hierarchy_with(&g, &uf, &if_, &cfg, &BuildOptions::default()).unwrap();
    let h4 = build_hierarchy_with(
        &g,
        &uf,
        &if_,
        &cfg,
        &BuildOptions { threads: 4, ..Default::default() },
    )
    .unwrap();
    assert_eq!(h1.num_levels(), h4.num_levels());
    for (l, (a, b)) in h1.levels().iter().zip(h4.levels()).enumerate() {
        assert_eq!(a.user_embeddings.data(), b.user_embeddings.data(), "level {l} Z_u");
        assert_eq!(a.item_embeddings.data(), b.item_embeddings.data(), "level {l} Z_i");
        assert_eq!(a.user_assignment.as_slice(), b.user_assignment.as_slice(), "level {l} C_u");
        assert_eq!(a.item_assignment.as_slice(), b.item_assignment.as_slice(), "level {l} C_i");
        assert_eq!(a.epoch_losses, b.epoch_losses, "level {l} losses");
    }
    // So is the hierarchical extraction.
    assert_eq!(h1.hierarchical_users().data(), h4.hierarchical_users().data());
    assert_eq!(h1.hierarchical_items().data(), h4.hierarchical_items().data());
}

// ---------------------------------------------------------------------
// CI matrix knob: HIGNN_TEST_THREADS re-runs the contract at the
// workflow-selected worker count (defaults to 2).

#[test]
fn env_selected_thread_count_matches_one_thread() {
    let threads: usize = std::env::var("HIGNN_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    assert!(threads >= 1, "HIGNN_TEST_THREADS must be >= 1");
    assert_eq!(
        build_at(threads),
        build_at(1),
        "HIGNN_TEST_THREADS={threads} build diverged from 1-thread build"
    );
}

// ---------------------------------------------------------------------
// Crash/resume under the parallel trainer, with the thread count
// *changing* across the crash: a checkpoint written at N threads must
// resume byte-identically at M threads.

#[test]
fn checkpoint_written_at_4_threads_resumes_at_1_and_2() {
    let (g, uf, if_, cfg) = small_setup();
    let clean_bytes = build_at(1);

    for resume_threads in [1usize, 2] {
        let dir = scratch(&format!("x{resume_threads}"));
        let store = CheckpointStore::create(&dir).unwrap();
        crash_after_level(&store, 1, || {
            let opts = BuildOptions { checkpoint: Some(&store), threads: 4, ..Default::default() };
            build_hierarchy_with(&g, &uf, &if_, &cfg, &opts)
        });
        // Provenance: the interrupted run recorded its worker count.
        assert_eq!(store.read_meta().unwrap().0.threads, 4);

        let opts = BuildOptions { checkpoint: Some(&store), resume: true, threads: resume_threads };
        let resumed = build_hierarchy_with(&g, &uf, &if_, &cfg, &opts).unwrap();
        assert_eq!(
            serialize(&resumed),
            clean_bytes,
            "crash at 4 threads + resume at {resume_threads} diverged from 1-thread clean run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Property test: every thread count in 1..=8 reproduces the 1-thread
// hierarchy, for several grad-shard counts (the *logical* decomposition
// may change results; the *physical* one never does).

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn any_thread_count_is_bit_identical_to_one_thread(threads in 2usize..=8) {
        prop_assert_eq!(build_at(threads), build_at(1));
    }
}

// ---------------------------------------------------------------------
// Golden parity of the Eq. 5 trainer: the hash below is the FNV-1a of
// the serialised `build_at(1)` hierarchy, captured before the trainer's
// loss was first refactored. A refactor of the trainer must keep
// reproducing it, at 1 and 4 threads.

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[test]
fn edge_reconstruction_matches_pre_refactor_golden() {
    let bytes = build_at(1);
    assert_eq!(
        fnv1a(&bytes),
        6_834_896_770_852_577_748,
        "the Eq. 5 trainer diverged from the pre-refactor golden (1 thread)"
    );
    assert_eq!(build_at(4), bytes, "the Eq. 5 trainer diverged at 4 threads");
}

#[test]
fn grad_shards_change_bits_but_threads_never_do() {
    // Sanity check of the contract's two halves: grad_shards is part of
    // the numeric configuration (different shard counts legitimately
    // give different — equally valid — results), while threads is not.
    let (g, uf, if_, mut cfg) = small_setup();
    cfg.train.grad_shards = 2;
    let two_shards = serialize(
        &build_hierarchy_with(&g, &uf, &if_, &cfg, &BuildOptions::default()).unwrap(),
    );
    let two_shards_4t = serialize(
        &build_hierarchy_with(
            &g,
            &uf,
            &if_,
            &cfg,
            &BuildOptions { threads: 4, ..Default::default() },
        )
        .unwrap(),
    );
    assert_eq!(two_shards, two_shards_4t, "threads changed bits at grad_shards = 2");

    cfg.train.grad_shards = 8;
    let eight_shards = serialize(
        &build_hierarchy_with(&g, &uf, &if_, &cfg, &BuildOptions::default()).unwrap(),
    );
    assert_ne!(
        two_shards, eight_shards,
        "different shard counts should (in general) give different bits — if this ever \
         fails spuriously, the fixture is degenerate, not the engine"
    );
}

// ---------------------------------------------------------------------
// Section V under the same contract: two `build_taxonomy` runs in one
// process must agree on every topic. The Eq. 16 denominator is an f64
// sum over the topics a query reaches, so it must run in a fixed key
// order; a per-instance hash order would differ between the two runs.

#[test]
fn taxonomy_is_identical_across_runs_in_one_process() {
    use hignn_integration_tests::taxonomy_fixture::{tiny_qi, tiny_taxonomy};
    let ds = tiny_qi(10);
    let (a, b) = (tiny_taxonomy(&ds, 5), tiny_taxonomy(&ds, 5));
    assert_eq!(a.num_levels(), b.num_levels());
    for level in 1..=a.num_levels() {
        let (ta, tb) = (a.level_topics(level), b.level_topics(level));
        assert_eq!(ta.len(), tb.len(), "level {level} topic count");
        for (x, y) in ta.iter().zip(tb) {
            let at = format!("level {level} topic {}", x.id);
            assert_eq!(x.items, y.items, "{at}: items");
            assert_eq!(x.queries, y.queries, "{at}: queries");
            assert_eq!(x.description, y.description, "{at}: description");
            assert_eq!(x.description_queries, y.description_queries, "{at}: description queries");
        }
    }
}
