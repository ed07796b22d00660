//! Shared helpers for the integration tests in tests/tests/*.rs.

pub mod strategies;
pub mod taxonomy_fixture;

use hignn::prelude::*;

/// Runs `build`, a fresh checkpointed build into `store`, with the
/// write of level `l + 1`'s record blocked by a real fault: a directory
/// sits where that record's temp file goes, so its atomic write fails.
/// Asserts the build fails with an I/O error (exit 3) and the meta
/// commit point says exactly `l` levels are done, which is the
/// directory a crash anywhere after level `l`'s commit leaves behind.
///
/// The blocker is removed before the asserts, so a caller that lists or
/// reads the whole directory sees only checkpoint records.
pub fn crash_after_level(
    store: &CheckpointStore,
    l: usize,
    build: impl FnOnce() -> Result<Hierarchy, HignnError>,
) {
    let blocker = store.level_path(l + 1).with_extension("tmp");
    std::fs::create_dir(&blocker).expect("create the blocking directory");
    let result = build();
    std::fs::remove_dir(&blocker).expect("remove the blocking directory");
    let err = match result {
        Ok(_) => panic!("the build finished although level {}'s write was blocked", l + 1),
        Err(e) => e,
    };
    assert_eq!(err.exit_code(), 3, "expected an I/O error, got: {err}");
    let (meta, _) = store.read_meta().expect("the meta commit point survives");
    assert_eq!(meta.levels_done, l as u64, "the meta must say {l} levels are done");
}
