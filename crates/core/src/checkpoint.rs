//! Crash-safe checkpointing for hierarchy training.
//!
//! A [`CheckpointStore`] is a directory holding one meta record and one
//! record per completed hierarchy level, both in the container layout
//! of [`crate::io`] (magic, version word, CRC-framed sections):
//!
//! ```text
//! <dir>/meta.hgck      := "HGCK" u32(version=5) section(meta)
//! meta                 := u64(fingerprint) u64(seed)
//!                         u64(levels_total) u64(levels_done)
//!                         u64(threads) u64(0) u64(0)
//!                         metrics_snapshot
//! <dir>/level_NN.hgcl  := "HGCL" u32(version=5) section(level)
//! ```
//!
//! The sixth and seventh words are reserved and always `0`. The sixth
//! once named the training objective, with `1` and `2` for the removed
//! contrastive and cluster-constraint losses; the seventh once named the
//! math tier, with `1` for the removed fast-math tier. Eq. 5 is the one
//! loss and there is one numeric contract now, so
//! [`CheckpointStore::read_meta`] refuses any other value in either word
//! with a config error (exit 2). `threads` and the
//! [`hignn_obs::MetricsSnapshot`] (the observability counters at
//! checkpoint time, so a resumed run continues them) are provenance
//! only: they never enter the fingerprint and cannot change the resumed
//! model's bytes (inertness, DESIGN.md §10). Any other version word is
//! corruption (exit 4); nothing in the directory is touched.
//!
//! Every write is atomic (temp file + fsync + rename), and the meta
//! record is only advanced *after* its level record is durably on disk,
//! so the meta is the commit point: a crash at any instant leaves a
//! directory that resumes cleanly. The `fingerprint` ties a checkpoint
//! to its exact inputs (graph, features, config), so resuming against
//! different data is refused instead of silently producing a chimera.

use crate::error::HignnError;
use crate::fingerprint::Fingerprint;
use crate::io::{atomic_write, decode_level, encode_level, write_section, Container};
use crate::stack::{HignnConfig, Level};
use hignn_graph::BipartiteGraph;
use hignn_obs::MetricsSnapshot;
use hignn_tensor::Matrix;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

const CKPT_VERSION: u32 = 5;
const META: Container =
    Container { magic: b"HGCK", version: CKPT_VERSION, name: "checkpoint meta" };
const LEVEL: Container =
    Container { magic: b"HGCL", version: CKPT_VERSION, name: "checkpoint level" };
/// Bytes of the seven fixed `u64` words that open the meta payload.
const META_FIXED_LEN: usize = 56;

/// The meta record of a checkpoint directory: which run it belongs to
/// and how far that run got.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// [`run_fingerprint`] of the inputs this checkpoint belongs to.
    pub fingerprint: u64,
    /// The run's base RNG seed (informational; the fingerprint already
    /// covers it).
    pub seed: u64,
    /// Requested number of levels (`HignnConfig::levels`).
    pub levels_total: u64,
    /// Completed levels with durable level records.
    pub levels_done: u64,
    /// Worker threads of the run that wrote this record (provenance
    /// only — resuming at a different thread count is fully supported
    /// and yields identical bytes).
    pub threads: u64,
}

/// A directory of per-level training checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, HignnError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| HignnError::io_path(&dir, e))?;
        Ok(CheckpointStore { dir })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn meta_path(&self) -> PathBuf {
        self.dir.join("meta.hgck")
    }

    /// Path of the record for 1-based level `idx`.
    pub fn level_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("level_{idx:02}.hgcl"))
    }

    /// Whether a meta record exists (i.e. there is something to resume).
    pub fn has_meta(&self) -> bool {
        self.meta_path().exists()
    }

    /// Atomically writes the meta record. `snapshot` is the
    /// observability counters to embed (empty when metrics are off) so
    /// a resumed run continues them.
    pub(crate) fn write_meta(
        &self,
        meta: &CheckpointMeta,
        snapshot: &MetricsSnapshot,
    ) -> Result<(), HignnError> {
        let mut payload = Vec::with_capacity(META_FIXED_LEN + 4);
        for word in [
            meta.fingerprint,
            meta.seed,
            meta.levels_total,
            meta.levels_done,
            meta.threads,
            0,
            0,
        ] {
            payload.extend_from_slice(&word.to_le_bytes());
        }
        payload.extend_from_slice(&snapshot.encode());
        write_record(&self.meta_path(), &META, &payload)
    }

    /// Reads and validates the meta record and its embedded metrics
    /// snapshot. A sixth word other than `0` (a run trained under a
    /// removed objective) or a seventh word other than `0` (a run
    /// written under the removed fast-math tier) is a config error,
    /// exit 2.
    pub fn read_meta(&self) -> Result<(CheckpointMeta, MetricsSnapshot), HignnError> {
        let path = self.meta_path();
        let bytes = fs::read(&path).map_err(|e| HignnError::io_path(&path, e))?;
        let corrupt = |detail: String| HignnError::corrupt(path.display().to_string(), detail);
        let payload = read_record(&META, &bytes, "checkpoint meta")
            .map_err(|e| corrupt(e.to_string()))?;
        if payload.len() < META_FIXED_LEN + 4 {
            return Err(corrupt(format!(
                "meta payload is {} bytes, expected >= 4 + {META_FIXED_LEN}",
                payload.len()
            )));
        }
        let word = |k: usize| {
            u64::from_le_bytes(payload[k * 8..(k + 1) * 8].try_into().expect("len checked"))
        };
        let meta = CheckpointMeta {
            fingerprint: word(0),
            seed: word(1),
            levels_total: word(2),
            levels_done: word(3),
            threads: word(4),
        };
        if meta.levels_done > meta.levels_total {
            return Err(corrupt(format!(
                "levels_done {} > levels_total {}",
                meta.levels_done, meta.levels_total
            )));
        }
        let snapshot = MetricsSnapshot::decode(&payload[META_FIXED_LEN..])
            .map_err(|e| corrupt(format!("bad metrics snapshot: {e}")))?;
        if word(5) != 0 {
            return Err(HignnError::Config(format!(
                "checkpoint in {} was trained under a removed objective (objective word {}: \
                 1 was `contrastive`, 2 was `cluster`); this build trains only the Eq. 5 \
                 edge loss and cannot resume it",
                self.dir.display(),
                word(5),
            )));
        }
        if word(6) != 0 {
            return Err(HignnError::Config(format!(
                "checkpoint in {} was written under the removed fast-math tier (math word \
                 {}); this build has one numeric contract and cannot resume it",
                self.dir.display(),
                word(6),
            )));
        }
        Ok((meta, snapshot))
    }

    /// Atomically writes the record for 1-based level `idx`.
    pub(crate) fn save_level(&self, idx: usize, level: &Level) -> Result<(), HignnError> {
        write_record(&self.level_path(idx), &LEVEL, &encode_level(level))
    }

    /// Reads and CRC-validates the record for 1-based level `idx`.
    pub(crate) fn load_level(&self, idx: usize) -> Result<Level, HignnError> {
        let path = self.level_path(idx);
        let bytes = fs::read(&path).map_err(|e| HignnError::io_path(&path, e))?;
        let what = format!("checkpoint level {idx}");
        read_record(&LEVEL, &bytes, &what)
            .and_then(|payload| decode_level(payload, &what))
            .map_err(|e| HignnError::corrupt(path.display().to_string(), e.to_string()))
    }

    /// Loads the resumable state for a run with the given inputs:
    /// validates the meta record against `expected_fingerprint` and
    /// `levels_total`, then loads every completed level.
    ///
    /// When metrics are enabled, the meta record's snapshot counters
    /// are added into the global registry so the resumed run's report
    /// continues from the original run's totals instead of restarting
    /// at zero.
    pub fn load_state(
        &self,
        expected_fingerprint: u64,
        levels_total: usize,
    ) -> Result<(CheckpointMeta, Vec<Level>), HignnError> {
        let (meta, snapshot) = self.read_meta()?;
        if meta.fingerprint != expected_fingerprint {
            return Err(HignnError::Config(format!(
                "checkpoint in {} was written for different inputs \
                 (fingerprint {:#018x}, current run {:#018x}); refusing to resume",
                self.dir.display(),
                meta.fingerprint,
                expected_fingerprint,
            )));
        }
        if meta.levels_total != levels_total as u64 {
            return Err(HignnError::Config(format!(
                "checkpoint in {} targets {} levels but the current config asks for \
                 {levels_total}; refusing to resume",
                self.dir.display(),
                meta.levels_total,
            )));
        }
        let mut levels = Vec::with_capacity(meta.levels_done as usize);
        for idx in 1..=meta.levels_done as usize {
            levels.push(self.load_level(idx)?);
        }
        if hignn_obs::enabled() {
            hignn_obs::global().restore(&snapshot);
        }
        Ok((meta, levels))
    }
}

/// Atomically writes a one-section record of kind `container`.
fn write_record(path: &Path, container: &Container, payload: &[u8]) -> Result<(), HignnError> {
    let mut buf = Vec::with_capacity(payload.len() + 20);
    container.preamble(&mut buf).expect("in-memory write cannot fail");
    write_section(&mut buf, payload).expect("in-memory write cannot fail");
    atomic_write(path, &buf).map_err(|e| HignnError::io_path(path, e))
}

/// The payload of a one-section record of kind `container`. The file's
/// bytes are already in memory, so every failure — truncation and
/// trailing bytes included — is corruption (exit 4), not generic I/O.
fn read_record<'a>(container: &Container, bytes: &'a [u8], what: &str) -> io::Result<&'a [u8]> {
    let mut cursor = container.open(bytes)?;
    let payload = cursor.next_section(what)?;
    cursor.finish()?;
    Ok(payload)
}

/// Hash of a run's full inputs (graph, features, config), through the
/// same one-pass hasher as [`crate::ingest::hierarchy_fingerprint`].
///
/// Ties a checkpoint directory to the exact training inputs; any change
/// to the graph, features, or hyper-parameters yields a different
/// fingerprint and a refused resume.
pub fn run_fingerprint(
    graph: &BipartiteGraph,
    user_feats: &Matrix,
    item_feats: &Matrix,
    cfg: &HignnConfig,
) -> u64 {
    let mut f = Fingerprint::new();
    f.graph(graph);
    f.matrix(user_feats);
    f.matrix(item_feats);
    // The config is hashed through its Debug form: stable within a
    // build, and automatically covers every field (including the seed).
    f.bytes(format!("{cfg:?}").as_bytes());
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip_and_corruption_detection() {
        let dir = std::env::temp_dir().join(format!("hignn_ckpt_meta_{}", std::process::id()));
        let store = CheckpointStore::create(&dir).unwrap();
        let meta = CheckpointMeta {
            fingerprint: 0xDEAD_BEEF,
            seed: 7,
            levels_total: 3,
            levels_done: 1,
            threads: 4,
        };
        store.write_meta(&meta, &MetricsSnapshot::default()).unwrap();
        assert!(store.has_meta());
        assert_eq!(store.read_meta().unwrap().0, meta);
        // Flip one byte inside the payload: must be detected as corrupt.
        let path = dir.join("meta.hgck");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 6; // inside payload/CRC region
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.read_meta().unwrap_err();
        assert_eq!(err.exit_code(), 4, "expected corruption, got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_snapshot_roundtrips_through_meta() {
        let dir = std::env::temp_dir().join(format!("hignn_ckpt_snap_{}", std::process::id()));
        let store = CheckpointStore::create(&dir).unwrap();
        let meta = CheckpointMeta {
            fingerprint: 0xABCD,
            seed: 3,
            levels_total: 2,
            levels_done: 2,
            threads: 1,
        };
        let snap = MetricsSnapshot {
            counters: vec![("train.batches".into(), 120), ("train.epochs".into(), 6)],
        };
        store.write_meta(&meta, &snap).unwrap();
        assert_eq!(store.read_meta().unwrap(), (meta, snap));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Hand-writes a meta record whose seven fixed words are `words`.
    fn write_raw_meta(dir: &Path, words: [u64; 7]) {
        let mut payload = Vec::with_capacity(META_FIXED_LEN + 4);
        for w in words {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        payload.extend_from_slice(&MetricsSnapshot::default().encode());
        write_record(&dir.join("meta.hgck"), &META, &payload).unwrap();
    }

    /// Asserts that `store` refuses to resume with a config error whose
    /// message contains `needle`, leaving the directory byte-identical
    /// with no file added. The fingerprint passed is wrong too, so the
    /// refusal must come before the fingerprint check.
    fn assert_refused_untouched(store: &CheckpointStore, needle: &str) {
        let dir = store.dir();
        let before = std::fs::read(dir.join("meta.hgck")).unwrap();
        let err = store.load_state(0x4444, 2).unwrap_err();
        assert_eq!(err.exit_code(), 2, "expected a config error: {err}");
        assert!(err.to_string().contains(needle), "{err} should mention {needle:?}");
        let after = std::fs::read(dir.join("meta.hgck")).unwrap();
        assert_eq!(before, after, "a refused resume must not touch the directory");
        assert_eq!(std::fs::read_dir(dir).unwrap().count(), 1, "no file was added");
    }

    /// With every reserved word back at 0, a wrong fingerprint is
    /// refused and the right one resumes.
    fn assert_zero_words_resume(store: &CheckpointStore) {
        write_raw_meta(store.dir(), [0x3333, 1, 2, 0, 1, 0, 0]);
        let err = store.load_state(0x4444, 2).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        let (got, levels) = store.load_state(0x3333, 2).unwrap();
        let want = CheckpointMeta {
            fingerprint: 0x3333,
            seed: 1,
            levels_total: 2,
            levels_done: 0,
            threads: 1,
        };
        assert_eq!(got, want);
        assert!(levels.is_empty());
    }

    #[test]
    fn load_state_refuses_removed_objective_word_before_fingerprint() {
        let dir = std::env::temp_dir().join(format!("hignn_ckpt_obj_{}", std::process::id()));
        let store = CheckpointStore::create(&dir).unwrap();
        // Metas as the removed contrastive (1) and cluster (2) objectives
        // wrote them: sixth word 1 or 2.
        for removed in [1, 2] {
            write_raw_meta(&dir, [0x3333, 1, 2, 0, 1, removed, 0]);
            assert_refused_untouched(&store, "removed objective");
        }
        assert_zero_words_resume(&store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_state_refuses_math_mismatch_before_fingerprint() {
        let dir = std::env::temp_dir().join(format!("hignn_ckpt_math_{}", std::process::id()));
        let store = CheckpointStore::create(&dir).unwrap();
        // A meta as the removed fast-math tier wrote it: seventh word 1.
        write_raw_meta(&dir, [0x3333, 1, 2, 0, 1, 0, 1]);
        assert_refused_untouched(&store, "removed fast-math tier");
        assert_zero_words_resume(&store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_with_undecodable_snapshot_is_corrupt() {
        let dir = std::env::temp_dir().join(format!("hignn_ckpt_badsnap_{}", std::process::id()));
        let store = CheckpointStore::create(&dir).unwrap();
        // Fixed words plus snapshot bytes that claim one entry but stop
        // short — CRC is valid, so only snapshot decoding can object.
        let mut payload = Vec::with_capacity(META_FIXED_LEN + 8);
        for w in [1u64, 2, 3, 1, 4, 0, 0] {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        payload.extend_from_slice(&1u32.to_le_bytes()); // entry_count = 1
        payload.extend_from_slice(&4u32.to_le_bytes()); // name_len = 4, then nothing
        write_record(&dir.join("meta.hgck"), &META, &payload).unwrap();
        let err = store.read_meta().unwrap_err();
        assert_eq!(err.exit_code(), 4, "expected corruption, got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_meta_is_io_not_corrupt() {
        let dir = std::env::temp_dir().join(format!("hignn_ckpt_none_{}", std::process::id()));
        let store = CheckpointStore::create(&dir).unwrap();
        let err = store.read_meta().unwrap_err();
        assert_eq!(err.exit_code(), 3, "missing file is I/O, got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
