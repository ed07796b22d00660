//! Streaming-ingestion contracts: the HGHD delta format fails closed on
//! any corruption (the same discipline `persistence.rs` enforces for
//! the model format), delta application is exact and refuses wrong
//! bases, ingestion commutes with persistence bitwise, and a serving
//! replica patched in place is indistinguishable from one rebuilt from
//! scratch.

use hignn::ingest::{
    apply_delta, apply_delta_to_base, hierarchy_fingerprint, read_delta_bytes, write_delta,
    HierarchyDelta, HierarchyDigest, IngestConfig, IngestEngine,
};
use hignn::io::{read_hierarchy_bytes, save_hierarchy, write_hierarchy};
use hignn::prelude::*;
use hignn::stack::Hierarchy;
use hignn_datasets::taobao::{generate_taobao, TaobaoConfig};
use hignn_graph::BipartiteGraph;
use hignn_serve::{BeamWidth, ServeModel};
use hignn_tensor::init;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIM: usize = 8;

type Batch = Vec<(u32, u32, f32)>;

/// A trained base hierarchy over a prefix of a synthetic Taobao graph,
/// plus the held-out suffix edges (which introduce new users and items)
/// split into two ingestion batches.
fn trained_base() -> (Hierarchy, BipartiteGraph, Batch, Batch) {
    let ds = generate_taobao(&TaobaoConfig { seed: 11, ..TaobaoConfig::taobao1(0.05) });
    let old_u = ds.num_users() - 3;
    let old_i = ds.num_items() - 4;
    let mut base = Vec::new();
    let mut held = Vec::new();
    for &(u, i, w) in ds.graph.edges() {
        if (u as usize) < old_u && (i as usize) < old_i {
            base.push((u, i, w));
        } else {
            held.push((u, i, w));
        }
    }
    assert!(held.len() >= 4, "need a non-trivial holdout, got {}", held.len());
    let graph = BipartiteGraph::from_edges(old_u, old_i, base);
    let mut rng = StdRng::seed_from_u64(5);
    let uf = init::xavier_uniform(old_u, DIM, &mut rng);
    let if_ = init::xavier_uniform(old_i, DIM, &mut rng);
    let hierarchy = HignnBuilder::new()
        .levels(2)
        .input_dim(DIM)
        .embedding_dim(DIM)
        .epochs(1)
        .alpha_decay(6.0)
        .seed(3)
        .build()
        .unwrap()
        .run(&graph, &uf, &if_)
        .unwrap();
    let mid = held.len() / 2;
    let batch2 = held.split_off(mid);
    (hierarchy, graph, held, batch2)
}

fn bytes_of(h: &Hierarchy) -> Vec<u8> {
    let mut buf = Vec::new();
    write_hierarchy(&mut buf, h).unwrap();
    buf
}

fn ingest_once() -> (Hierarchy, HierarchyDelta, Hierarchy) {
    let (h, g, batch, _) = trained_base();
    let base = h.clone();
    let mut engine = IngestEngine::new(h, g, IngestConfig::default()).unwrap();
    let (_, delta) = engine.ingest(&batch).unwrap();
    let patched = engine.hierarchy().clone();
    (base, delta, patched)
}

#[test]
fn delta_corruption_corpus_fails_closed() {
    let (_, delta, _) = ingest_once();
    let mut clean = Vec::new();
    write_delta(&mut clean, &delta).unwrap();
    // The delta must decode cleanly...
    read_delta_bytes(&clean).unwrap();
    // ...but every spread single-byte flip is detected,
    for pos in (0..clean.len()).step_by(17) {
        let mut evil = clean.clone();
        evil[pos] ^= 0x40;
        assert!(read_delta_bytes(&evil).is_err(), "flip at byte {pos}/{} accepted", clean.len());
    }
    // every prefix truncation errors instead of panicking,
    for cut in (0..clean.len()).step_by(23) {
        assert!(read_delta_bytes(&clean[..cut]).is_err(), "truncation at {cut} accepted");
    }
    // and trailing garbage is rejected.
    let mut padded = clean.clone();
    padded.extend_from_slice(b"junk");
    assert!(read_delta_bytes(&padded).is_err());
}

/// HGHD 2 carries nothing that grows with the model: each delta cut
/// against the trained base is exactly
/// `176 + 12·E + (4 + 4d)·(U + I) + 8·(M_u + M_i)` bytes.
#[test]
fn trained_base_deltas_are_sized_by_the_batch_alone() {
    let (h, g, batch1, batch2) = trained_base();
    let dim = h.levels()[0].user_embeddings.cols();
    let mut writer = IngestEngine::new(h, g, IngestConfig::default()).unwrap();
    let mut arrived = 0;
    for batch in [&batch1, &batch2] {
        let (_, d) = writer.ingest(batch).unwrap();
        let arrivals = d.new_users.len() + d.new_items.len();
        let moves = d.user_moves.len() + d.item_moves.len();
        let mut wire = Vec::new();
        write_delta(&mut wire, &d).unwrap();
        let pinned = 176 + 12 * d.new_edges.len() + (4 + 4 * dim) * arrivals + 8 * moves;
        assert_eq!(wire.len(), pinned, "delta {}", d.seq);
        arrived += arrivals;
    }
    assert!(arrived > 0, "the holdout introduced no vertices");
}

#[test]
fn apply_delta_is_exact_and_idempotence_is_refused() {
    let (base, delta, patched) = ingest_once();
    // Two independent fresh copies patch to identical bytes.
    let mut a = base.clone();
    let mut b = base;
    apply_delta(&mut a, &delta).unwrap();
    apply_delta(&mut b, &delta).unwrap();
    assert_eq!(bytes_of(&a), bytes_of(&b));
    assert_eq!(bytes_of(&a), bytes_of(&patched), "replica != writer");
    assert_eq!(hierarchy_fingerprint(&a), delta.patched_fingerprint);
    // A second application is refused (fingerprint/base checks) and the
    // hierarchy is left byte-identical.
    let before = bytes_of(&a);
    let err = apply_delta(&mut a, &delta).unwrap_err();
    assert_eq!(err.exit_code(), 4, "double apply must be corruption: {err}");
    assert_eq!(bytes_of(&a), before, "failed apply must not mutate");
}

/// A delta whose `patched_fingerprint` lies passes every pre-mutation
/// check (re-encoding gives it valid CRCs) and is only caught after the
/// patch; the patch must then be rolled back completely — through the
/// bare-hierarchy entry point and through `ServeModel`, whose serving
/// features must not end up under a half-patched hierarchy.
#[test]
fn tampered_patched_fingerprint_is_refused_and_rolled_back() {
    let (base, delta, patched) = ingest_once();
    let mut forged = delta.clone();
    forged.patched_fingerprint ^= 1;
    let mut wire = Vec::new();
    write_delta(&mut wire, &forged).unwrap();
    let forged = read_delta_bytes(&wire).expect("a re-encoded delta has valid CRCs");

    let mut h = base.clone();
    let before = bytes_of(&h);
    let err = apply_delta(&mut h, &forged).unwrap_err();
    assert_eq!(err.exit_code(), 4, "{err}");
    assert!(err.to_string().contains("patched fingerprint"), "{err}");
    assert_eq!(bytes_of(&h), before, "refused delta left the hierarchy patched");
    apply_delta(&mut h, &delta).expect("genuine delta applies after the refusal");
    assert_eq!(bytes_of(&h), bytes_of(&patched));

    let seed = 2020;
    let mut live = ServeModel::from_hierarchy(base.clone(), seed);
    let untouched = ServeModel::from_hierarchy(base, seed);
    let err = live.apply_delta(&forged).unwrap_err();
    assert_eq!(err.exit_code(), 4, "{err}");
    assert_eq!(bytes_of(live.hierarchy()), before);
    assert_eq!(live.user_features().data(), untouched.user_features().data());
    assert_eq!(live.item_features().data(), untouched.item_features().data());
    let bits = |m: &ServeModel| -> Vec<(u32, u32)> {
        let top = m.top_k(0, 5, BeamWidth::Finite(4)).unwrap();
        top.iter().map(|s| (s.item, s.score.to_bits())).collect()
    };
    assert_eq!(bits(&live), bits(&untouched));
    live.apply_delta(&delta).expect("genuine delta applies after the refusal");
    let rebuilt = ServeModel::from_hierarchy(patched, seed);
    assert_eq!(live.item_features().data(), rebuilt.item_features().data());
    assert_eq!(bits(&live), bits(&rebuilt));
}

/// The digest both sides carry is `hierarchy_fingerprint` from scratch
/// after every delta of a chain. The writer's is the `patched_fingerprint`
/// it stamps (and the next delta's base); the replica's is carried
/// through `apply_delta_to_base`. A tampered delta leaves the replica's
/// digest where it was, so the genuine delta still applies.
#[test]
fn carried_digests_equal_the_fingerprint_from_scratch() {
    let (h, g, batch1, batch2) = trained_base();
    let mut replica = h.clone();
    let mut digest = HierarchyDigest::new(&replica);
    let cfg = IngestConfig { drift_threshold: 1e-6, ..IngestConfig::default() };
    let mut writer = IngestEngine::new(h, g, cfg).unwrap();
    let (first, rest) = batch2.split_at(batch2.len() / 2);
    let mut base = digest.value();
    for batch in [&batch1[..], first, &[], rest] {
        let (_, delta) = writer.ingest(batch).unwrap();
        assert_eq!(delta.base_fingerprint, base, "delta {} chains", delta.seq);
        assert_eq!(delta.patched_fingerprint, hierarchy_fingerprint(writer.hierarchy()));

        let mut forged = delta.clone();
        forged.patched_fingerprint ^= 1;
        assert!(apply_delta_to_base(&mut replica, &mut digest, &forged).is_err());
        assert_eq!(digest.value(), base, "a refused delta advanced the digest");
        assert_eq!(digest.value(), hierarchy_fingerprint(&replica));

        apply_delta_to_base(&mut replica, &mut digest, &delta).unwrap();
        assert_eq!(digest.value(), hierarchy_fingerprint(&replica), "delta {}", delta.seq);
        assert_eq!(digest.value(), delta.patched_fingerprint);
        base = digest.value();
    }
    assert_eq!(bytes_of(&replica), bytes_of(writer.hierarchy()));
}

#[test]
fn ingest_then_save_equals_save_then_ingest() {
    let (h, g, batch, _) = trained_base();
    // Path 1: ingest the live trained hierarchy, then serialise.
    let mut e1 = IngestEngine::new(h.clone(), g.clone(), IngestConfig::default()).unwrap();
    e1.ingest(&batch).unwrap();
    let live = bytes_of(e1.hierarchy());
    // Path 2: serialise, reload (as a restarted process would), ingest.
    let reloaded = read_hierarchy_bytes(&bytes_of(&h)).unwrap();
    let mut e2 = IngestEngine::new(reloaded, g, IngestConfig::default()).unwrap();
    e2.ingest(&batch).unwrap();
    let cold = bytes_of(e2.hierarchy());
    assert_eq!(live, cold, "ingestion must commute with persistence bitwise");
}

/// The in-place serving patch against `from_hierarchy` on the writer's
/// hierarchy, after each delta of a chain: once with the default drift
/// threshold (arrivals only) and once with a tiny one, which re-coarsens
/// dirty clusters and so moves items between tier-1 children lists.
#[test]
fn serve_model_apply_delta_matches_full_rebuild_bitwise() {
    let seed = 2020;
    for drift_threshold in [IngestConfig::default().drift_threshold, 1e-6] {
        let (h, g, batch1, batch2) = trained_base();
        let mut live = ServeModel::from_hierarchy(h.clone(), seed);
        let cfg = IngestConfig { drift_threshold, ..IngestConfig::default() };
        let mut writer = IngestEngine::new(h, g, cfg).unwrap();
        let mut item_moves = 0;
        for batch in [&batch1, &batch2] {
            let (_, delta) = writer.ingest(batch).unwrap();
            item_moves += delta.item_moves.len();
            live.apply_delta(&delta).unwrap();
            let rebuilt = ServeModel::from_hierarchy(writer.hierarchy().clone(), seed);
            let what = format!("threshold {drift_threshold}, delta {}", delta.seq);
            assert_same_serving(&live, &rebuilt, &what);
        }
        if drift_threshold < 1e-3 {
            assert!(item_moves > 0, "a tiny threshold moved no item");
        }
    }
}

/// The replica reads a delta's item moves before it patches. A move
/// past the patched catalogue is refused (exit 4, nothing changed)
/// rather than indexing out of bounds; an item moved away and back,
/// which leaves the patched hierarchy and its fingerprint as they were,
/// is followed through both moves.
#[test]
fn serve_replica_reads_untrusted_item_moves_safely() {
    let (base, delta, patched) = ingest_once();
    let seed = 2020;
    let mut live = ServeModel::from_hierarchy(base.clone(), seed);
    let mut past = delta.clone();
    past.item_moves.push(((base.num_items() + delta.new_items.len()) as u32, 0));
    let err = live.apply_delta(&past).unwrap_err();
    assert_eq!(err.exit_code(), 4, "{err}");
    assert_eq!(bytes_of(live.hierarchy()), bytes_of(&base));

    let level1 = &base.levels()[0].item_assignment;
    let home = level1.cluster_of(0);
    let away = (home + 1) % level1.num_clusters() as u32;
    let mut round_trip = delta;
    round_trip.item_moves.splice(0..0, [(0, away), (0, home)]);
    live.apply_delta(&round_trip).unwrap();
    let rebuilt = ServeModel::from_hierarchy(patched, seed);
    assert_same_serving(&live, &rebuilt, "item 0 moved away and back");
}

fn assert_same_serving(live: &ServeModel, rebuilt: &ServeModel, what: &str) {
    assert_eq!(
        live.user_features().data(),
        rebuilt.user_features().data(),
        "incremental z_u^H differs from rebuild ({what})"
    );
    assert_eq!(live.item_features().data(), rebuilt.item_features().data(), "{what}");
    for l in 1..=live.num_levels() {
        assert_eq!(live.children(l), rebuilt.children(l), "children at tier {l} ({what})");
        let bits = |m: &ServeModel| -> Vec<u32> {
            m.node_reps(l).data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(live), bits(rebuilt), "reps at tier {l} ({what})");
    }
    // And the serving surface agrees bit for bit, old and new users.
    let k = 5.min(live.num_users());
    for user in [0, live.num_users() - 1] {
        for beam in [BeamWidth::Finite(4), BeamWidth::Infinite] {
            let a = live.top_k(user, k, beam).unwrap();
            let b = rebuilt.top_k(user, k, beam).unwrap();
            let ab: Vec<(u32, u32)> = a.iter().map(|s| (s.item, s.score.to_bits())).collect();
            let bb: Vec<(u32, u32)> = b.iter().map(|s| (s.item, s.score.to_bits())).collect();
            assert_eq!(ab, bb, "user {user} beam {beam} ({what})");
        }
    }
}

/// One edge naming an id billions past the end would ask for a
/// billion-row CSR offset table and embedding matrix. A batch may add at
/// most one vertex per edge on each side; past that it is a config
/// error (exit 2) and nothing changes, while a gap within the bound is
/// legal.
#[test]
fn a_batch_cannot_grow_a_side_past_one_vertex_per_edge() {
    let (h, g, batch, _) = trained_base();
    let (old_u, old_i) = (h.num_users() as u32, h.num_items() as u32);
    let mut writer = IngestEngine::new(h, g, IngestConfig::default()).unwrap();
    let (before, edges_before) = (bytes_of(writer.hierarchy()), writer.graph().edges().to_vec());
    let far = [
        vec![(0, u32::MAX - 1, 1.0)],
        vec![(u32::MAX - 1, 0, 1.0)],
        vec![(old_u + 2, 0, 1.0), (old_u, 0, 1.0)],
    ];
    for bad in &far {
        let err = writer.ingest(bad).unwrap_err();
        assert!(matches!(err, HignnError::Config(_)), "{bad:?}: {err}");
        assert_eq!(err.exit_code(), 2);
        assert_eq!(bytes_of(writer.hierarchy()), before, "{bad:?} changed the hierarchy");
        assert_eq!(writer.graph().edges(), &edges_before[..], "{bad:?} changed the graph");
        assert_eq!(writer.seq(), 0);
    }
    // Two edges may add two vertices per side, one of them a gap.
    let (report, _) = writer.ingest(&[(old_u + 1, 0, 1.0), (0, old_i + 1, 1.0)]).unwrap();
    assert_eq!((report.new_users, report.new_items), (2, 2));
    writer.ingest(&batch).unwrap();
}

#[test]
fn serve_replica_catches_up_across_two_deltas_without_reload() {
    let (h, g, batch1, batch2) = trained_base();
    let dir = std::env::temp_dir().join(format!("hignn_ingest_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("base.hgh");
    save_hierarchy(&path, &h).unwrap();
    // The replica loads the base model from disk once...
    let mut replica = ServeModel::load(&path, 7).unwrap();
    // ...while the writer keeps ingesting.
    let mut writer = IngestEngine::new(h, g, IngestConfig::default()).unwrap();
    let (_, d1) = writer.ingest(&batch1).unwrap();
    let (_, d2) = writer.ingest(&batch2).unwrap();
    assert_eq!((d1.seq, d2.seq), (1, 2));
    assert_eq!(d2.base_fingerprint, d1.patched_fingerprint, "deltas chain");
    // Catch up in order, never reloading the file.
    replica.apply_delta(&d1).unwrap();
    replica.apply_delta(&d2).unwrap();
    assert_eq!(bytes_of(replica.hierarchy()), bytes_of(writer.hierarchy()));
    // Out-of-order application is refused and mutates nothing; the
    // chain then applies in order.
    let mut stale = ServeModel::load(&path, 7).unwrap();
    let base_bytes = bytes_of(stale.hierarchy());
    let err = stale.apply_delta(&d2).unwrap_err();
    assert_eq!(err.exit_code(), 4, "skipping a delta must be detected: {err}");
    assert_eq!(bytes_of(stale.hierarchy()), base_bytes, "refused delta mutated the replica");
    stale.apply_delta(&d1).unwrap();
    // The replica now holds the fingerprint d1 was verified against. A
    // second delta that lies about its result is rolled back, one cut
    // for another base and a replay of d1 are refused, and none of them
    // disturbs what the genuine d2 needs.
    let after_d1 = bytes_of(stale.hierarchy());
    let (mut forged, mut wrong_base) = (d2.clone(), d2.clone());
    forged.patched_fingerprint ^= 1;
    wrong_base.base_fingerprint ^= 1;
    let refused =
        [(&forged, "patched fingerprint"), (&wrong_base, "base fingerprint"), (&d1, "base")];
    for (bad, what) in refused {
        let err = stale.apply_delta(bad).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains(what), "{err}");
        assert_eq!(bytes_of(stale.hierarchy()), after_d1, "refused delta mutated the replica");
    }
    stale.apply_delta(&d2).unwrap();
    assert_eq!(bytes_of(stale.hierarchy()), bytes_of(writer.hierarchy()));
    assert_eq!(stale.item_features().data(), replica.item_features().data());
    let _ = std::fs::remove_dir_all(&dir);
}
