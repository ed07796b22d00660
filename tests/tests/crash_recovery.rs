//! Crash-safety integration tests: checkpoint/resume determinism,
//! corruption detection, and format fuzzing.
//!
//! These drive the whole recovery story at the library level with real
//! faults: a blocked write, bytes edited on disk, and files a crash
//! leaves beside the commit point (the CLI tests in `hignn-cli` cover
//! the same story through the binary's flags and exit codes, and
//! `kill_resume` kills the process itself):
//!
//! * a build that dies after any level and is resumed from its
//!   checkpoint produces a hierarchy **byte-identical** to an
//!   uninterrupted run, at 1 and at 4 threads;
//! * every truncation of a level record and every byte flipped in it is
//!   detected as a checksum/format error (exit class 4), never a panic
//!   and never a silently wrong hierarchy;
//! * an orphan level record and a torn temp file beside the meta commit
//!   point are ignored and overwritten;
//! * the `HGHI` codec round-trips arbitrary synthetic hierarchies
//!   (property-tested) and rejects truncation at every 64-byte boundary.

use hignn::io::{read_hierarchy_bytes, write_hierarchy};
use hignn::prelude::*;
use hignn_graph::{Assignment, BipartiteGraph, SamplingMode};
use hignn_integration_tests::crash_after_level;
use hignn_tensor::{init, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

// ---------------------------------------------------------------------
// Helpers.

/// A small clustered graph + features + config that trains in well
/// under a second but still builds two honest levels.
fn small_setup() -> (BipartiteGraph, Matrix, Matrix, HignnConfig) {
    let mut rng = StdRng::seed_from_u64(41);
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
        seed: 17,
    };
    (g, uf, if_, cfg)
}

/// `small_setup`'s build under `cfg`, checkpointed into `store`.
fn checkpointed(
    cfg: &HignnConfig,
    store: &CheckpointStore,
    resume: bool,
    threads: usize,
) -> Result<Hierarchy, HignnError> {
    let (g, uf, if_, _) = small_setup();
    let opts = BuildOptions { checkpoint: Some(store), resume, threads };
    build_hierarchy_with(&g, &uf, &if_, cfg, &opts)
}

fn serialize(h: &Hierarchy) -> Vec<u8> {
    let mut buf = Vec::new();
    write_hierarchy(&mut buf, h).expect("in-memory write cannot fail");
    buf
}

/// The serialised uninterrupted, uncheckpointed build.
fn clean_bytes() -> Vec<u8> {
    let (g, uf, if_, cfg) = small_setup();
    serialize(&build_hierarchy_with(&g, &uf, &if_, &cfg, &BuildOptions::default()).unwrap())
}

/// A unique scratch directory per test (parallel test binaries share
/// the system temp dir).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hignn_cr_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// Resume after a crash reproduces the uninterrupted run byte-for-byte.

#[test]
fn resume_after_crash_at_each_level_is_byte_identical() {
    let (_, _, _, cfg) = small_setup();
    let clean = clean_bytes();
    for threads in [1usize, 4] {
        // Dies after level 1: level 2's write is blocked, so level 2 is
        // lost entirely and must be retrained from scratch on resume.
        let dir = scratch(&format!("lvl1_t{threads}"));
        let store = CheckpointStore::create(&dir).unwrap();
        crash_after_level(&store, 1, || checkpointed(&cfg, &store, false, threads));
        let resumed = checkpointed(&cfg, &store, true, threads).unwrap();
        assert_eq!(serialize(&resumed), clean, "crash after level 1, {threads} threads");
        let _ = std::fs::remove_dir_all(&dir);

        // Dies after level 2's commit, before the model is written:
        // resume loads every level and trains nothing.
        let dir = scratch(&format!("lvl2_t{threads}"));
        let store = CheckpointStore::create(&dir).unwrap();
        assert_eq!(serialize(&checkpointed(&cfg, &store, false, threads).unwrap()), clean);
        let resumed = checkpointed(&cfg, &store, true, threads).unwrap();
        assert_eq!(serialize(&resumed), clean, "crash after level 2, {threads} threads");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_refuses_different_inputs() {
    let (_, _, _, cfg) = small_setup();
    let dir = scratch("fingerprint");
    let store = CheckpointStore::create(&dir).unwrap();
    crash_after_level(&store, 1, || checkpointed(&cfg, &store, false, 1));

    // Same graph, different seed: a different run. Resuming must be
    // refused (config error), not silently splice two runs together.
    let mut other = cfg.clone();
    other.seed = cfg.seed + 1;
    for threads in [1usize, 4] {
        let err = checkpointed(&other, &store, true, threads).unwrap_err();
        assert_eq!(err.exit_code(), 2, "expected config refusal, got: {err}");
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_ignores_orphan_and_torn_residue() {
    let (_, _, _, cfg) = small_setup();
    let clean = clean_bytes();
    // A complete level-2 record from another run (a different seed).
    let mut other = cfg.clone();
    other.seed = cfg.seed + 1;
    let other_dir = scratch("residue_other");
    let other_store = CheckpointStore::create(&other_dir).unwrap();
    checkpointed(&other, &other_store, false, 1).unwrap();
    let orphan = std::fs::read(other_store.level_path(2)).unwrap();
    let _ = std::fs::remove_dir_all(&other_dir);

    for threads in [1usize, 4] {
        let dir = scratch(&format!("residue_t{threads}"));
        let store = CheckpointStore::create(&dir).unwrap();
        crash_after_level(&store, 1, || checkpointed(&cfg, &store, false, threads));
        // What a crash between level 2's rename and the meta commit
        // leaves, plus a temp file torn mid-write by an earlier crash.
        std::fs::write(store.level_path(2), &orphan).unwrap();
        std::fs::write(store.level_path(2).with_extension("tmp"), b"HGCL\x05\0\0\0torn").unwrap();

        let resumed = checkpointed(&cfg, &store, true, threads).unwrap();
        assert_eq!(serialize(&resumed), clean, "residue changed the resumed run ({threads} threads)");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        assert_ne!(std::fs::read(store.level_path(2)).unwrap(), orphan, "orphan not overwritten");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Damage to a durable level record is always detected — never a panic,
// never a silently wrong result — and a refused resume touches nothing.

/// Builds once to the directory a crash after level 1 leaves, then for
/// each damaged copy `damage` makes of the pristine `level_01.hgcl`:
/// writes it, asserts resume at 1 and 4 threads is refused as corrupt
/// (exit 4) without touching the record, and restores the record.
/// Finally resumes the restored directory, which must still finish to
/// the clean run's bytes.
fn assert_every_damage_refused(tag: &str, damage: impl Fn(&[u8]) -> Vec<(String, Vec<u8>)>) {
    let (_, _, _, cfg) = small_setup();
    let dir = scratch(tag);
    let store = CheckpointStore::create(&dir).unwrap();
    crash_after_level(&store, 1, || checkpointed(&cfg, &store, false, 1));
    let level = store.level_path(1);
    let pristine = std::fs::read(&level).unwrap();
    for (what, damaged) in damage(&pristine) {
        std::fs::write(&level, &damaged).unwrap();
        for threads in [1usize, 4] {
            let err = checkpointed(&cfg, &store, true, threads)
                .expect_err(&format!("{what}: damage went undetected"));
            assert_eq!(err.exit_code(), 4, "{what}: expected corruption, got: {err}");
        }
        assert_eq!(std::fs::read(&level).unwrap(), damaged, "{what}: a refused resume wrote");
        std::fs::write(&level, &pristine).unwrap();
    }
    let resumed = checkpointed(&cfg, &store, true, 2).unwrap();
    assert_eq!(serialize(&resumed), clean_bytes(), "{tag}: restored checkpoint diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_byte_flip_is_detected_on_resume() {
    // Every 97th byte, from the magic through the CRC, each flipped
    // under a different single-bit mask.
    assert_every_damage_refused("corrupt", |pristine| {
        let flips: Vec<_> = (0..pristine.len())
            .step_by(97)
            .enumerate()
            .map(|(k, at)| {
                let mut bytes = pristine.to_vec();
                bytes[at] ^= 1 << (k % 8);
                (format!("flip at byte {at} of {}", pristine.len()), bytes)
            })
            .collect();
        assert!(flips.len() >= 16, "only {} flips", flips.len());
        flips
    });
}

#[test]
fn every_truncation_is_detected_on_resume() {
    // 0 = empty file; small values cut inside magic/version/length;
    // larger ones cut inside the CRC-protected payload.
    assert_every_damage_refused("trunc", |pristine| {
        [0usize, 3, 4, 8, 15, 16, 64, 500]
            .map(|keep| (format!("keep {keep} bytes"), pristine[..keep].to_vec()))
            .to_vec()
    });
}

// ---------------------------------------------------------------------
// The finiteness check is always on: poisoned inputs surface as a
// structured divergence error (exit 5) with default options, through
// both the options path and the builder the benchmark uses.

#[test]
fn nan_features_trigger_divergence_abort() {
    let (g, _uf, if_, cfg) = small_setup();
    let uf = Matrix::from_vec(g.num_left(), 8, vec![f32::NAN; g.num_left() * 8]);
    let err = build_hierarchy_with(&g, &uf, &if_, &cfg, &BuildOptions::default()).unwrap_err();
    assert_eq!(err.exit_code(), 5, "expected divergence, got: {err}");
    assert!(err.to_string().contains("level 1"), "{err}");

    let err = HignnBuilder::new()
        .levels(cfg.levels)
        .sage_config(cfg.sage.clone())
        .train_config(cfg.train.clone())
        .alpha_decay(4.0)
        .seed(cfg.seed)
        .build()
        .expect("valid configuration")
        .run(&g, &uf, &if_)
        .unwrap_err();
    assert!(matches!(err, HignnError::Diverged { level: 1, .. }), "expected Diverged: {err}");
    assert_eq!(err.exit_code(), 5);
}

// ---------------------------------------------------------------------
// Codec fuzzing: truncation at every 64-byte boundary and single-byte
// corruption must yield clean errors.

#[test]
fn truncation_at_every_64_byte_boundary_errors_cleanly() {
    let (g, uf, if_, cfg) = small_setup();
    let h = build_hierarchy_with(&g, &uf, &if_, &cfg, &BuildOptions::default()).unwrap();

    let bytes = serialize(&h);
    assert!(read_hierarchy_bytes(&bytes).is_ok());
    for cut in (0..bytes.len()).step_by(64).chain([bytes.len() - 1]) {
        assert!(
            read_hierarchy_bytes(&bytes[..cut]).is_err(),
            "file cut at byte {cut} of {} parsed successfully",
            bytes.len()
        );
    }
}

#[test]
fn single_byte_corruption_of_v2_file_errors_cleanly() {
    let (g, uf, if_, cfg) = small_setup();
    let h = build_hierarchy_with(&g, &uf, &if_, &cfg, &BuildOptions::default()).unwrap();
    let clean = serialize(&h);
    // Different stride and mask than the unit test in `core::io`, for
    // wider combined coverage of byte positions.
    for pos in (0..clean.len()).step_by(13) {
        let mut evil = clean.clone();
        evil[pos] ^= 0x80;
        assert!(
            read_hierarchy_bytes(&evil).is_err(),
            "flip at byte {pos} of {} went undetected",
            clean.len()
        );
    }
}

// ---------------------------------------------------------------------
// Property tests: the codec round-trips arbitrary well-formed
// hierarchies, not just trained ones.

/// Builds a structurally valid but otherwise arbitrary hierarchy from a
/// seed: random sizes, random embeddings, random (chain-consistent)
/// assignments, random coarsened graphs, random loss history.
fn synth_hierarchy(seed: u64) -> Hierarchy {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_users = rng.gen_range(4usize..20);
    let num_items = rng.gen_range(4usize..20);
    let dim = rng.gen_range(2usize..6);
    let num_levels = rng.gen_range(1usize..4);

    let mut levels = Vec::new();
    let (mut nu, mut ni) = (num_users, num_items);
    for _ in 0..num_levels {
        let ku = rng.gen_range(2..=nu.clamp(2, 6));
        let ki = rng.gen_range(2..=ni.clamp(2, 6));
        // Guarantee every cluster id stays in range; coverage of all
        // clusters is not required by the format.
        let ua: Vec<u32> = (0..nu).map(|_| rng.gen_range(0..ku as u32)).collect();
        let ia: Vec<u32> = (0..ni).map(|_| rng.gen_range(0..ki as u32)).collect();
        let num_edges = rng.gen_range(0usize..12);
        let edges: Vec<(u32, u32, f32)> = (0..num_edges)
            .map(|_| {
                (
                    rng.gen_range(0..ku as u32),
                    rng.gen_range(0..ki as u32),
                    rng.gen_range(0.5f32..4.0),
                )
            })
            .collect();
        let num_losses = rng.gen_range(0usize..4);
        levels.push(Level {
            user_embeddings: init::xavier_uniform(nu, dim, &mut rng),
            item_embeddings: init::xavier_uniform(ni, dim, &mut rng),
            user_assignment: Assignment::new(ua, ku),
            item_assignment: Assignment::new(ia, ki),
            coarsened: BipartiteGraph::from_edges(ku, ki, edges),
            epoch_losses: (0..num_losses).map(|_| rng.gen_range(0.0f32..2.0)).collect(),
        });
        nu = ku;
        ni = ki;
    }
    Hierarchy::from_parts(levels, num_users, num_items).expect("synthetic hierarchy is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn synthetic_hierarchy_v2_roundtrip(seed in 0u64..100_000) {
        let h = synth_hierarchy(seed);
        let bytes = serialize(&h);
        let back = read_hierarchy_bytes(&bytes).unwrap();
        // Re-serialisation being byte-identical covers every field of
        // every level in one comparison.
        prop_assert_eq!(serialize(&back), bytes);
        prop_assert_eq!(back.num_users(), h.num_users());
        prop_assert_eq!(back.num_items(), h.num_items());
        prop_assert_eq!(back.num_levels(), h.num_levels());
    }

    #[test]
    fn synthetic_hierarchy_truncation_always_errors(
        seed in 0u64..100_000,
        frac in 0.0f64..1.0,
    ) {
        let h = synth_hierarchy(seed);
        let bytes = serialize(&h);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(read_hierarchy_bytes(&bytes[..cut]).is_err());
    }
}
