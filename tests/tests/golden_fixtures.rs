//! Golden-file regression tests for the HGHI hierarchy format.
//!
//! The committed fixture under `fixtures/` pins the on-disk encoding of
//! the one format version this build reads and writes. Unlike
//! round-trip tests (which a symmetric encoding bug passes), it catches
//! *any* byte-level change to the format: a writer change breaks the
//! byte-exact re-encode assertion, a reader change breaks the load
//! assertion. If you change the format deliberately, bump the version
//! and replace the fixture; the old version is then refused as corrupt
//! (no release has shipped, so nobody holds old files).
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! cargo test -p hignn-integration-tests --test golden_fixtures -- --ignored
//! ```

use hignn::io::{read_hierarchy_bytes, write_hierarchy};
use hignn::stack::{Hierarchy, Level};
use hignn_graph::{Assignment, BipartiteGraph};
use hignn_tensor::Matrix;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

/// A small hand-built hierarchy. Every float is exactly representable
/// (dyadic rationals), every field deterministic — so the encoded bytes
/// are identical on every platform and the fixtures never churn.
fn golden_hierarchy() -> Hierarchy {
    let level1 = Level {
        user_embeddings: Matrix::from_vec(
            4,
            2,
            vec![0.5, -0.25, 1.0, 0.75, -1.5, 0.125, 2.0, -0.5],
        ),
        item_embeddings: Matrix::from_vec(3, 2, vec![0.25, 0.5, -0.75, 1.25, 0.0, -2.0]),
        user_assignment: Assignment::new(vec![0, 1, 0, 1], 2),
        item_assignment: Assignment::new(vec![0, 0, 1], 2),
        coarsened: BipartiteGraph::from_edges(
            2,
            2,
            vec![(0, 0, 1.5), (0, 1, 0.5), (1, 1, 2.0)],
        ),
        epoch_losses: vec![0.75, 0.5],
    };
    let level2 = Level {
        user_embeddings: Matrix::from_vec(2, 2, vec![0.5, 0.5, -0.25, 0.125]),
        item_embeddings: Matrix::from_vec(2, 2, vec![1.0, -1.0, 0.75, 0.25]),
        user_assignment: Assignment::new(vec![0, 0], 1),
        item_assignment: Assignment::new(vec![0, 1], 2),
        coarsened: BipartiteGraph::from_edges(1, 2, vec![(0, 0, 2.0), (0, 1, 0.25)]),
        epoch_losses: vec![0.25],
    };
    Hierarchy::from_parts(vec![level1, level2], 4, 3).expect("golden hierarchy is consistent")
}

fn assert_hierarchy_matches_golden(h: &Hierarchy) {
    let golden = golden_hierarchy();
    assert_eq!(h.num_users(), golden.num_users());
    assert_eq!(h.num_items(), golden.num_items());
    assert_eq!(h.num_levels(), golden.num_levels());
    for (got, want) in h.levels().iter().zip(golden.levels()) {
        assert_eq!(got.user_embeddings, want.user_embeddings);
        assert_eq!(got.item_embeddings, want.item_embeddings);
        assert_eq!(got.user_assignment, want.user_assignment);
        assert_eq!(got.item_assignment, want.item_assignment);
        assert_eq!(got.coarsened.edges(), want.coarsened.edges());
        assert_eq!(got.epoch_losses, want.epoch_losses);
    }
}

#[test]
fn v2_fixture_loads_and_writer_reproduces_it_byte_exactly() {
    let bytes = std::fs::read(fixture_path("hierarchy_v2.hghi"))
        .expect("fixture missing — run the ignored regenerate test and commit the files");
    let loaded = read_hierarchy_bytes(&bytes).expect("v2 fixture must load");
    assert_hierarchy_matches_golden(&loaded);

    let mut reencoded = Vec::new();
    write_hierarchy(&mut reencoded, &golden_hierarchy()).unwrap();
    assert_eq!(
        reencoded, bytes,
        "v2 writer no longer produces the committed bytes — the format changed"
    );
}

#[test]
fn version_headers_are_pinned() {
    let v2 = std::fs::read(fixture_path("hierarchy_v2.hghi")).unwrap();
    assert_eq!(&v2[..4], b"HGHI");
    assert_eq!(u32::from_le_bytes(v2[4..8].try_into().unwrap()), 2);
    assert_eq!(hignn::io::FORMAT_VERSION, 2);
}

/// Writes the fixture. Ignored by default — run explicitly (and commit
/// the result) only after an intentional format change.
#[test]
#[ignore = "regenerates the committed fixtures; run only on intentional format changes"]
fn regenerate_golden_fixtures() {
    let h = golden_hierarchy();
    std::fs::create_dir_all(fixture_path("")).unwrap();
    let mut v2 = Vec::new();
    write_hierarchy(&mut v2, &h).unwrap();
    std::fs::write(fixture_path("hierarchy_v2.hghi"), v2).unwrap();
}
