//! The four on-disk containers — `HGHI` models, `HGCK`/`HGCL`
//! checkpoint records, `HGHD` deltas — share one codec
//! (`hignn::io`), and every load path refuses the same two things the
//! same way: a version word other than the one this build writes, and
//! bytes after the last section. Both are `Corrupt` (exit 4), never a
//! panic, and never touch what is on disk.

use hignn::ingest::{load_delta, save_delta, HierarchyDelta};
use hignn::io::load_hierarchy;
use hignn::prelude::*;
use hignn_graph::{BipartiteGraph, SamplingMode};
use hignn_integration_tests::crash_after_level;
use hignn_serve::{ServeModel, DEFAULT_SCORER_SEED};
use hignn_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

type Load = Box<dyn Fn() -> Result<(), HignnError>>;

/// One container file and every public path that loads it.
struct Case {
    magic: &'static [u8; 4],
    file: PathBuf,
    loads: Vec<(&'static str, Load)>,
}

fn small_setup() -> (BipartiteGraph, Matrix, Matrix, HignnConfig) {
    let mut rng = StdRng::seed_from_u64(43);
    let n = 24usize;
    let edges: Vec<(u32, u32, f32)> = (0..n as u32)
        .flat_map(|u| [(u, u / 6 * 6 + rng.gen_range(0..6u32), 1.0), (u, u, 1.0)])
        .collect();
    let g = BipartiteGraph::from_edges(n, n, edges);
    let uf = init::xavier_uniform(n, 4, &mut rng);
    let if_ = init::xavier_uniform(n, 4, &mut rng);
    let cfg = HignnConfig {
        levels: 2,
        sage: BipartiteSageConfig {
            input_dim: 4,
            dim: 4,
            fanouts: vec![3, 2],
            sampling: SamplingMode::Uniform,
            ..Default::default()
        },
        train: SageTrainConfig { epochs: 1, batch_edges: 16, neg_pool: 8, ..Default::default() },
        cluster_counts: ClusterCounts::Fixed(vec![(6, 6), (2, 2)]),
        kmeans: KMeansAlgo::Lloyd,
        normalize: true,
        seed: 19,
    };
    (g, uf, if_, cfg)
}

fn resume(store: &CheckpointStore) -> Result<Hierarchy, HignnError> {
    let (g, uf, if_, cfg) = small_setup();
    let opts = BuildOptions { checkpoint: Some(store), resume: true, ..Default::default() };
    build_hierarchy_with(&g, &uf, &if_, &cfg, &opts)
}

fn dir_bytes(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
        .collect()
}

/// Writes one file of each kind under a fresh scratch directory: a
/// model, an (empty) delta, and a checkpoint directory holding level 1
/// of a two-level run.
fn cases(tag: &str) -> (PathBuf, CheckpointStore, Vec<Case>) {
    let dir = std::env::temp_dir().join(format!("hignn_fmt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::create(dir.join("ck")).unwrap();
    let (g, uf, if_, cfg) = small_setup();
    crash_after_level(&store, 1, || {
        let opts = BuildOptions { checkpoint: Some(&store), ..Default::default() };
        build_hierarchy_with(&g, &uf, &if_, &cfg, &opts)
    });
    let fingerprint = run_fingerprint(&g, &uf, &if_, &cfg);
    let load_state = |store: CheckpointStore| -> Load {
        Box::new(move || store.load_state(fingerprint, 2).map(|_| ()))
    };

    let model = dir.join("model.hgh");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/serve_model_v2.hghi");
    std::fs::copy(fixture, &model).unwrap();

    let delta = dir.join("delta.hgd");
    let empty = HierarchyDelta {
        seq: 1,
        base_users: 0,
        base_items: 0,
        base_fingerprint: 0,
        patched_fingerprint: 0,
        new_edges: vec![],
        new_users: vec![],
        new_items: vec![],
        user_moves: vec![],
        item_moves: vec![],
    };
    save_delta(&delta, &empty).unwrap();

    let (m1, m2, d) = (model.clone(), model.clone(), delta.clone());
    let cases = vec![
        Case {
            magic: b"HGHI",
            file: model,
            loads: vec![
                (
                    "load_hierarchy",
                    Box::new(move || {
                        load_hierarchy(&m1).map(|_| ()).map_err(|e| HignnError::io_path(&m1, e))
                    }),
                ),
                (
                    "ServeModel::load",
                    Box::new(move || ServeModel::load(&m2, DEFAULT_SCORER_SEED).map(|_| ())),
                ),
            ],
        },
        Case {
            magic: b"HGCK",
            file: store.dir().join("meta.hgck"),
            loads: vec![("load_state", load_state(store.clone()))],
        },
        Case {
            magic: b"HGCL",
            file: store.level_path(1),
            loads: vec![("load_state", load_state(store.clone()))],
        },
        Case {
            magic: b"HGHD",
            file: delta,
            loads: vec![(
                "load_delta",
                Box::new(move || {
                    load_delta(&d).map(|_| ()).map_err(|e| HignnError::io_path(&d, e))
                }),
            )],
        },
    ];
    for case in &cases {
        assert_eq!(&std::fs::read(&case.file).unwrap()[..4], case.magic);
        for (path, load) in &case.loads {
            load().unwrap_or_else(|e| panic!("clean {path} failed: {e}"));
        }
    }
    (dir, store, cases)
}

/// Damages `case.file` with `damage`, expects every load path to call it
/// corrupt with a message containing each of `needles`, then restores it.
fn assert_refused(case: &Case, store: &CheckpointStore, damage: &[u8], needles: &[String]) {
    let clean = std::fs::read(&case.file).unwrap();
    std::fs::write(&case.file, damage).unwrap();
    let check = |path: &str, err: HignnError| {
        let name = String::from_utf8_lossy(case.magic);
        assert!(matches!(err, HignnError::Corrupt { .. }), "{name} via {path}: {err}");
        assert_eq!(err.exit_code(), 4, "{name} via {path}: {err}");
        for needle in needles {
            assert!(err.to_string().contains(needle), "{name} via {path}: no `{needle}` in: {err}");
        }
    };
    for (path, load) in &case.loads {
        check(path, load().expect_err("damaged file loaded"));
    }
    if case.file.starts_with(store.dir()) {
        // The same refusal under `--resume`, and it leaves the
        // checkpoint directory byte-for-byte as it found it.
        let before = dir_bytes(store.dir());
        check("--resume", resume(store).expect_err("damaged checkpoint resumed"));
        assert_eq!(dir_bytes(store.dir()), before, "refused resume changed the checkpoint");
    }
    std::fs::write(&case.file, clean).unwrap();
}

#[test]
fn every_container_rejects_every_version_but_its_own() {
    // `current - 1` is each format's predecessor: HGHI 1, checkpoint 4,
    // and the HGHD 1 delta that still shipped coarse graphs.
    let (dir, store, cases) = cases("version");
    for case in &cases {
        let clean = std::fs::read(&case.file).unwrap();
        let current = u32::from_le_bytes(clean[4..8].try_into().unwrap());
        for found in [0, current - 1, current + 1] {
            let mut other = clean.clone();
            other[4..8].copy_from_slice(&found.to_le_bytes());
            let needles =
                [format!("unsupported version {found}"), format!("reads version {current}")];
            assert_refused(case, &store, &other, &needles);
        }
    }
    // Nothing above was mutated: the interrupted run still resumes.
    assert_eq!(resume(&store).unwrap().num_levels(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_container_rejects_trailing_bytes() {
    let (dir, store, cases) = cases("trailing");
    for case in &cases {
        let mut padded = std::fs::read(&case.file).unwrap();
        padded.push(0);
        assert_refused(case, &store, &padded, &["trailing".to_string()]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
