//! Serving-engine robustness: determinism of repeated queries, NaN
//! poisoning, malformed requests, and corrupt model files.

use hignn::error::HignnError;
use hignn::io::save_hierarchy;
use hignn::stack::{Hierarchy, Level};
use hignn_graph::{Assignment, BipartiteGraph};
use hignn_serve::{BeamWidth, ScoredItem, ServeModel, TopKRequest, DEFAULT_BEAM_WIDTH};
use hignn_tensor::{Matrix, ParallelExecutor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hignn_serve_engine_{}_{name}", std::process::id()))
}

/// A deterministic random 2-level hierarchy (8 users, 20 items).
fn hierarchy(seed: u64) -> Hierarchy {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = 3;
    let mut embed = |n: usize| {
        Matrix::from_vec(n, dim, (0..n * dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
    };
    let level1 = Level {
        user_embeddings: embed(8),
        item_embeddings: embed(20),
        user_assignment: Assignment::new((0..8).map(|v| (v % 3) as u32).collect(), 3),
        item_assignment: Assignment::new((0..20).map(|v| (v % 5) as u32).collect(), 5),
        coarsened: BipartiteGraph::from_edges(3, 5, vec![(0, 0, 1.0)]),
        epoch_losses: vec![],
    };
    let mut embed2 = |n: usize| {
        Matrix::from_vec(n, dim, (0..n * dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
    };
    let level2 = Level {
        user_embeddings: embed2(3),
        item_embeddings: embed2(5),
        user_assignment: Assignment::new(vec![0, 1, 0], 2),
        item_assignment: Assignment::new(vec![0, 1, 0, 1, 0], 2),
        coarsened: BipartiteGraph::from_edges(2, 2, vec![(0, 0, 1.0)]),
        epoch_losses: vec![],
    };
    Hierarchy::from_parts(vec![level1, level2], 8, 20).unwrap()
}

fn bits(items: &[ScoredItem]) -> Vec<(u32, u32)> {
    items.iter().map(|s| (s.item, s.score.to_bits())).collect()
}

#[test]
fn repeated_identical_queries_are_bitwise_identical() {
    let model = ServeModel::from_hierarchy(hierarchy(11), 2020);
    for beam in [BeamWidth::Finite(2), DEFAULT_BEAM_WIDTH, BeamWidth::Infinite] {
        let first = model.top_k(3, 5, beam).unwrap();
        for _ in 0..5 {
            let again = model.top_k(3, 5, beam).unwrap();
            assert_eq!(bits(&again), bits(&first), "beam {beam}");
        }
    }
    // Two independently loaded models over the same file agree too.
    let path = temp_path("repeat.hgh");
    save_hierarchy(&path, &hierarchy(11)).unwrap();
    let a = ServeModel::load(&path, 2020).unwrap().top_k(3, 5, DEFAULT_BEAM_WIDTH).unwrap();
    let b = ServeModel::load(&path, 2020).unwrap().top_k(3, 5, DEFAULT_BEAM_WIDTH).unwrap();
    assert_eq!(bits(&a), bits(&b));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn thread_count_never_changes_a_batch() {
    let model = ServeModel::from_hierarchy(hierarchy(23), 7);
    let requests: Vec<TopKRequest> = (0..32)
        .map(|i| TopKRequest { user: i % 8, k: 1 + i % 7, beam: BeamWidth::Finite(1 + i % 4) })
        .collect();
    let collect = |threads: usize| -> Vec<Vec<(u32, u32)>> {
        model
            .serve_batch(&requests, &ParallelExecutor::new(threads))
            .iter()
            .map(|r| bits(r.as_ref().unwrap()))
            .collect()
    };
    let one = collect(1);
    assert_eq!(collect(2), one);
    assert_eq!(collect(4), one);
}

/// The PR 5 NaN lesson, applied to serving: a NaN-scored item must sort
/// after every finite-scored item (plain `total_cmp` descending would
/// rank positive NaN *above* +inf) and must never panic the sort or
/// poison the rest of the ranking.
/// The contract documented on `ServeModel::top_k`: the answer is the
/// best `k` of the leaves the beam reached, which a narrow beam can
/// make fewer than `k`. Beam 1 on this tree reaches one tier-1 cluster
/// (4 of the 20 items).
#[test]
fn a_narrow_beam_returns_the_leaves_it_reached_even_if_fewer_than_k() {
    let model = ServeModel::from_hierarchy(hierarchy(11), 2020);
    let exact = model.exhaustive_top_k(3, 20).unwrap();
    let short = model.top_k(3, 10, BeamWidth::Finite(1)).unwrap();
    assert_eq!(short.len(), 4, "beam 1 reaches exactly one 4-item cluster");
    let cluster = short[0].item % 5;
    assert!(short.iter().all(|s| s.item % 5 == cluster), "{short:?}");
    // Exactly re-ranked: the exhaustive ranking restricted to the cluster.
    let want: Vec<ScoredItem> = exact.iter().copied().filter(|s| s.item % 5 == cluster).collect();
    assert_eq!(bits(&short), bits(&want));
    // A beam that reaches at least k leaves fills the list; beam inf always does.
    assert_eq!(model.top_k(3, 10, BeamWidth::Finite(3)).unwrap().len(), 10);
    assert_eq!(model.top_k(3, 10, BeamWidth::Infinite).unwrap().len(), 10);
    assert_eq!(model.top_k(3, 20, BeamWidth::Infinite).unwrap().len(), 20);
}

#[test]
fn nan_features_never_poison_the_ranking() {
    let h = hierarchy(31);
    // Wreck item 0's level-1 embedding with NaN: its z_i^H — and every
    // score it takes part in — becomes NaN.
    let broken = Hierarchy::from_parts(
        {
            let mut levels = h.levels().to_vec();
            let dim = levels[0].item_embeddings.cols();
            levels[0].item_embeddings.set_row(0, &vec![f32::NAN; dim]);
            levels
        },
        h.num_users(),
        h.num_items(),
    )
    .unwrap();
    let model = ServeModel::from_hierarchy(broken, 2020);
    for user in 0..model.num_users() {
        let all = model.exhaustive_top_k(user, model.num_items()).unwrap();
        assert_eq!(all.len(), model.num_items());
        // Finite scores first; NaN (item 0) dead last.
        let first_nan = all.iter().position(|s| s.score.is_nan()).unwrap();
        assert!(
            all[first_nan..].iter().all(|s| s.score.is_nan()),
            "NaN scores must be contiguous at the tail"
        );
        assert_eq!(all.last().unwrap().item, 0, "the NaN item sorts last, not first");
        // A top-k that doesn't need the NaN item never returns it.
        let top = model.top_k(user, 3, BeamWidth::Infinite).unwrap();
        assert!(top.iter().all(|s| !s.score.is_nan()), "user {user}: {top:?}");
    }
    // Sanity: the unbroken model scores the same user without NaN.
    let clean = ServeModel::from_hierarchy(h, 2020);
    let top = clean.exhaustive_top_k(0, 5).unwrap();
    assert!(top.iter().all(|s| s.score.is_finite()));
}

#[test]
fn malformed_requests_are_config_errors_not_panics() {
    let model = ServeModel::from_hierarchy(hierarchy(47), 2020);
    // k = 0.
    let err = model.top_k(0, 0, DEFAULT_BEAM_WIDTH).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");
    assert!(err.to_string().contains("at least 1"), "{err}");
    // k > num_items.
    let err = model.top_k(0, model.num_items() + 1, DEFAULT_BEAM_WIDTH).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");
    assert!(err.to_string().contains("exceeds"), "{err}");
    // Unknown user.
    let err = model.top_k(model.num_users(), 1, DEFAULT_BEAM_WIDTH).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");
    assert!(err.to_string().contains("unknown user"), "{err}");
    // The same contract holds through the batch path, and one bad
    // request never sinks its neighbours.
    let requests = [
        TopKRequest { user: 0, k: 3, beam: DEFAULT_BEAM_WIDTH },
        TopKRequest { user: 999, k: 3, beam: DEFAULT_BEAM_WIDTH },
        TopKRequest { user: 1, k: 3, beam: DEFAULT_BEAM_WIDTH },
    ];
    let results = model.serve_batch(&requests, &ParallelExecutor::new(2));
    assert!(results[0].is_ok());
    assert_eq!(results[1].as_ref().unwrap_err().exit_code(), 2);
    assert!(results[2].is_ok());
}

/// Every truncation and every flipped byte of a model file must surface
/// as a structured error (Corrupt, exit 4 — or Io, exit 3, for a cut
/// that removes the header), never a panic or a silently wrong model.
#[test]
fn corrupt_model_files_are_rejected_structurally() {
    let path = temp_path("corrupt.hgh");
    save_hierarchy(&path, &hierarchy(59)).unwrap();
    let good = std::fs::read(&path).unwrap();
    assert!(ServeModel::load(&path, 1).is_ok());

    // Truncations at every 17th length.
    for cut in (0..good.len()).step_by(17) {
        std::fs::write(&path, &good[..cut]).unwrap();
        let err = ServeModel::load(&path, 1).unwrap_err();
        assert!(
            matches!(err, HignnError::Corrupt { .. } | HignnError::Io { .. }),
            "truncation at {cut}: unexpected {err}"
        );
        assert!(err.exit_code() == 3 || err.exit_code() == 4, "truncation at {cut}");
    }
    // Single-byte flips at every 13th offset. Flips inside a section
    // payload or frame must be caught by the CRC (exit 4); flips in the
    // 8-byte magic/version header may also read as Io (exit 3).
    for off in (0..good.len()).step_by(13) {
        let mut bad = good.clone();
        bad[off] ^= 0x20;
        std::fs::write(&path, &bad).unwrap();
        match ServeModel::load(&path, 1) {
            Err(err) => assert!(
                err.exit_code() == 3 || err.exit_code() == 4,
                "flip at {off}: unexpected {err}"
            ),
            // A flip inside a section *length* field can still frame a
            // CRC-valid subset only if the CRC collides — that would be
            // a miracle; a clean load here means the flip landed in a
            // byte the format legitimately ignores. The v2 format has
            // none, so a successful load is a failure.
            Ok(_) => panic!("flip at {off} went undetected"),
        }
    }
    let _ = std::fs::remove_file(&path);
}
