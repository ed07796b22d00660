//! End-to-end observability integration tests (DESIGN.md §10).
//!
//! * Counter continuation: a run that crashes mid-hierarchy and resumes
//!   from its checkpoint ends with exactly the counter totals of an
//!   uninterrupted run — the metrics snapshot rides inside checkpoint
//!   metadata and is restored on resume.
//! * Structured logging: a logged build emits heartbeat and per-level
//!   events; in JSON mode every line is a well-formed object.
//!
//! The obs registry and toggles are process-global, so every test here
//! serialises on one mutex (this file is its own test binary, so no
//! other workspace test shares the process).

use hignn::checkpoint::CheckpointStore;
use hignn::prelude::*;
use hignn_graph::{BipartiteGraph, SamplingMode};
use hignn_integration_tests::crash_after_level;
use hignn_obs::{LogFormat, MetricsSnapshot};
use hignn_tensor::parallel::ParallelExecutor;
use hignn_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn small_setup() -> (BipartiteGraph, Matrix, Matrix, HignnConfig) {
    let mut rng = StdRng::seed_from_u64(31);
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
        train: SageTrainConfig { epochs: 2, batch_edges: 32, neg_pool: 16, ..Default::default() },
        cluster_counts: ClusterCounts::AlphaDecay { alpha: 4.0 },
        kmeans: KMeansAlgo::Lloyd,
        normalize: true,
        seed: 37,
    };
    (g, uf, if_, cfg)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hignn_obs_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Current global counters as a snapshot (sorted, comparable).
fn counters_now() -> MetricsSnapshot {
    hignn_obs::global().snapshot()
}

#[test]
fn resumed_run_continues_counters_to_clean_run_totals() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (g, uf, if_, cfg) = small_setup();

    // Uninterrupted, checkpointed run: the counter ground truth.
    let clean_dir = scratch("clean");
    let clean_store = CheckpointStore::create(&clean_dir).unwrap();
    hignn_obs::global().reset();
    hignn_obs::set_enabled(true);
    build_hierarchy_with(
        &g,
        &uf,
        &if_,
        &cfg,
        &BuildOptions { checkpoint: Some(&clean_store), ..Default::default() },
    )
    .unwrap();
    let clean_totals = counters_now();
    hignn_obs::set_enabled(false);
    assert!(!clean_totals.is_empty(), "clean run recorded nothing");

    // Die after level 1's checkpoint (level 2's write is blocked), in a
    // "process" of its own (simulated by resetting the registry
    // afterwards).
    let dir = scratch("crash");
    let store = CheckpointStore::create(&dir).unwrap();
    hignn_obs::global().reset();
    hignn_obs::set_enabled(true);
    crash_after_level(&store, 1, || {
        let opts = BuildOptions { checkpoint: Some(&store), ..Default::default() };
        build_hierarchy_with(&g, &uf, &if_, &cfg, &opts)
    });
    hignn_obs::set_enabled(false);

    // The durable meta carries the counters committed with level 1;
    // level 2's counters died with the "process".
    let (_meta, snap) = store.read_meta().unwrap();
    assert!(
        snap.counters.iter().any(|(k, v)| k == "stack.levels_built" && *v == 1),
        "snapshot should record 1 built level: {snap:?}"
    );

    // Fresh process: registry starts empty, resume restores the
    // snapshot and finishes the build.
    hignn_obs::global().reset();
    hignn_obs::set_enabled(true);
    build_hierarchy_with(
        &g,
        &uf,
        &if_,
        &cfg,
        &BuildOptions { checkpoint: Some(&store), resume: true, ..Default::default() },
    )
    .unwrap();
    let resumed_totals = counters_now();
    hignn_obs::set_enabled(false);
    hignn_obs::global().reset();

    assert_eq!(
        resumed_totals, clean_totals,
        "crash+resume counter totals must equal the uninterrupted run's"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_disabled_build_records_nothing() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (g, uf, if_, cfg) = small_setup();
    hignn_obs::global().reset();
    hignn_obs::set_enabled(false);
    build_hierarchy(&g, &uf, &if_, &cfg);
    assert!(
        counters_now().is_empty(),
        "metrics-off build must not touch the registry"
    );
}

#[test]
fn logged_build_emits_json_heartbeats_and_level_events() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (g, uf, if_, cfg) = small_setup();
    let lines = Arc::new(Mutex::new(Vec::new()));
    hignn_obs::log::set_test_sink(Some(lines.clone()));
    hignn_obs::set_log_format(Some(LogFormat::Json));
    build_hierarchy(&g, &uf, &if_, &cfg);
    hignn_obs::set_log_format(None);
    hignn_obs::log::set_test_sink(None);
    let lines = lines.lock().unwrap().clone();

    assert!(
        lines.iter().any(|l| l.contains("\"event\":\"heartbeat\"")),
        "no heartbeat emitted: {lines:?}"
    );
    let level_done = lines.iter().filter(|l| l.contains("\"event\":\"level_done\"")).count();
    assert_eq!(level_done, 2, "expected one level_done per level: {lines:?}");
    for line in &lines {
        // Minimal JSON well-formedness: one object per line, quoted
        // event key first, balanced braces, no raw newlines.
        assert!(line.starts_with("{\"event\":\"") && line.ends_with('}'), "bad line: {line}");
        assert!(!line.contains('\n'));
    }
}

/// `workspace.fresh_allocs` after one `train_unsupervised_checked` run of
/// `epochs` epochs on [`small_setup`]'s graph (7 batches an epoch, the
/// last one short).
fn fresh_allocs_after(epochs: usize, trainable_features: bool, threads: usize) -> u64 {
    let (g, uf, if_, cfg) = small_setup();
    let train = SageTrainConfig { epochs, trainable_features, ..cfg.train };
    hignn_obs::global().reset();
    hignn_obs::set_enabled(true);
    let exec = ParallelExecutor::new(threads);
    let trained = train_unsupervised_checked(&g, &uf, &if_, cfg.sage, &train, 5, &exec);
    hignn_obs::set_enabled(false);
    assert!(trained.is_ok(), "training diverged");
    hignn_obs::global().counter_get("workspace.fresh_allocs")
}

#[test]
fn warm_training_leases_every_buffer_from_its_pool() {
    // Each worker's buffer pool is warm after the first batches; from
    // then on a minibatch — tape buffers and the gradients handed back
    // after the optimizer step — allocates nothing, so two more epochs
    // add no fresh allocation. Trainable features are level 1's
    // table-sized gradients; fixed ones are a coarse level's.
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for trainable in [true, false] {
        for threads in [1, 3] {
            let two = fresh_allocs_after(2, trainable, threads);
            let four = fresh_allocs_after(4, trainable, threads);
            assert!(two > 0, "the counter was not recorded");
            assert_eq!(
                two, four,
                "trainable features {trainable}, {threads} threads: {} fresh allocations \
                 in epochs 3-4",
                four.saturating_sub(two)
            );
        }
    }
}

#[test]
fn hignn_model_trains_each_level_once() {
    // `HignnModel::train` keeps the modules the stack's level loop
    // trained, so it runs exactly the SGD and sampling of a plain build.
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (g, uf, if_, cfg) = small_setup();
    let work = |run: &dyn Fn()| {
        hignn_obs::global().reset();
        hignn_obs::set_enabled(true);
        run();
        hignn_obs::set_enabled(false);
        let registry = hignn_obs::global();
        (registry.counter_get("train.epochs"), registry.counter_get("sage.embed_batch_rows"))
    };
    let plain = work(&|| drop(build_hierarchy(&g, &uf, &if_, &cfg)));
    let model = work(&|| drop(HignnModel::train(&g, &uf, &if_, &cfg).unwrap()));
    hignn_obs::global().reset();
    assert!(plain.0 > 0 && plain.1 > 0, "the counters were not recorded: {plain:?}");
    assert_eq!(model, plain, "(train.epochs, sage.embed_batch_rows) of HignnModel vs build");
}
