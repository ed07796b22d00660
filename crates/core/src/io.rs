//! Persistence for trained hierarchies, and the one container codec
//! every on-disk artifact shares.
//!
//! Training the HiGNN stack is the expensive step; serving only needs
//! the per-level embeddings and cluster assignments. [`save_hierarchy`]
//! / [`load_hierarchy`] write the whole structure in a dependency-free
//! binary format built from the substrate formats
//! (`hignn_tensor::serialize`, `hignn_graph::serialize`).
//!
//! All four artifacts — `HGHI` models (here), `HGCK`/`HGCL` checkpoint
//! records ([`crate::checkpoint`]) and `HGHD` deltas
//! ([`crate::ingest`]) — are one [`Container`] layout:
//!
//! ```text
//! container := magic[4] u32(version) section*
//! section   := u64(payload_len) payload u32(crc32 of payload)
//! ```
//!
//! and the `HGHI` model (version 2) fills it with:
//!
//! ```text
//! hierarchy := "HGHI" u32(version=2) section(header) section(level)*
//! header    := u64(num_users) u64(num_items) u64(num_levels)
//! level     := matrix(user_emb) matrix(item_emb)
//!              assignment(user) assignment(item) graph(coarsened)
//!              u64(num_losses) f32*
//! assignment := u64(num_clusters) u64(len) u32*
//! ```
//!
//! Each container reads exactly the version it writes; any other
//! version word is `InvalidData` naming both numbers. There is one
//! frame decoder ([`SectionCursor`]) and it guarantees:
//!
//! * a section's CRC32 is verified before its payload is parsed, so
//!   random corruption surfaces as `InvalidData`, never as a silently
//!   wrong hierarchy;
//! * declared lengths are validated against the bytes actually present,
//!   so a corrupt length cannot trigger a huge allocation;
//! * truncation at any cut point and bytes after the last section are
//!   both `InvalidData` (fuzzed in `tests/`).
//!
//! `InvalidData` is what [`crate::error::HignnError::io`] promotes to
//! `Corrupt` (exit code 4).

use crate::crc32::crc32;
use crate::stack::{Hierarchy, Level};
use hignn_graph::serialize::{read_graph, write_graph};
use hignn_graph::Assignment;
use hignn_tensor::serialize::{read_matrix, write_matrix};
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// The `HGHI` format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 2;
const HIERARCHY: Container =
    Container { magic: b"HGHI", version: FORMAT_VERSION, name: "hierarchy" };

/// Hard cap on a single section's declared payload length (1 GiB).
/// Catches corrupt headers long before address-space exhaustion.
const MAX_SECTION_LEN: u64 = 1 << 30;

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

// ---------------------------------------------------------------------
// The container codec: preamble + CRC-framed sections.

/// One on-disk container kind: its magic, the single version this build
/// reads and writes, and the name its errors carry.
pub(crate) struct Container {
    pub(crate) magic: &'static [u8; 4],
    pub(crate) version: u32,
    pub(crate) name: &'static str,
}

impl Container {
    /// Writes the magic and version word that precede the sections.
    pub(crate) fn preamble<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(self.magic)?;
        w.write_all(&self.version.to_le_bytes())
    }

    /// Checks the magic and version word of an in-memory image and
    /// returns a cursor over its sections. Finish with
    /// [`SectionCursor::finish`] to reject trailing bytes.
    pub(crate) fn open<'a>(&self, bytes: &'a [u8]) -> io::Result<SectionCursor<'a>> {
        let name = self.name;
        if bytes.len() < 8 {
            return Err(bad_data(&format!("{name}: truncated before version word")));
        }
        if &bytes[..4] != self.magic {
            return Err(bad_data(&format!("{name}: bad magic")));
        }
        let found = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
        if found != self.version {
            return Err(bad_data(&format!(
                "{name}: unsupported version {found} (this build reads version {})",
                self.version
            )));
        }
        Ok(SectionCursor { buf: bytes, pos: 8, name })
    }
}

/// Writes one length-prefixed, CRC-trailed section.
pub(crate) fn write_section<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    write_u64(w, payload.len() as u64)?;
    w.write_all(payload)?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    Ok(())
}

/// The frame decoder: walks the CRC-framed sections of a container
/// image held in memory and hands back *borrowed* payload slices after
/// verifying each frame — declared length within the 1 GiB plausibility
/// cap and the buffer, trailing CRC32 matching the payload. Nothing is
/// copied and nothing is mutated; a truncated or bit-flipped image can
/// never panic the reader or silently yield wrong sections.
#[derive(Clone, Debug)]
pub(crate) struct SectionCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    name: &'static str,
}

impl<'a> SectionCursor<'a> {
    /// Verifies and returns the next section's payload as a borrowed
    /// slice, advancing past its frame.
    pub(crate) fn next_section(&mut self, what: &str) -> io::Result<&'a [u8]> {
        let rest = &self.buf[self.pos..];
        if rest.len() < 8 {
            return Err(bad_data(&format!("{what}: truncated section (length missing)")));
        }
        let len = u64::from_le_bytes(rest[..8].try_into().unwrap());
        if len > MAX_SECTION_LEN {
            return Err(bad_data(&format!("{what}: implausible section length {len}")));
        }
        let len = len as usize;
        let body = &rest[8..];
        if body.len() < len {
            return Err(bad_data(&format!(
                "{what}: truncated section (declared {len} bytes, found {})",
                body.len()
            )));
        }
        let payload = &body[..len];
        let tail = &body[len..];
        if tail.len() < 4 {
            return Err(bad_data(&format!("{what}: truncated section (checksum missing)")));
        }
        let expected = u32::from_le_bytes(tail[..4].try_into().unwrap());
        let actual = crc32(payload);
        if actual != expected {
            return Err(bad_data(&format!(
                "{what}: checksum mismatch (stored {expected:#010x}, computed {actual:#010x})"
            )));
        }
        self.pos += 8 + len + 4;
        Ok(payload)
    }

    /// Ends the walk: every byte of the image must have been consumed.
    pub(crate) fn finish(self) -> io::Result<()> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(bad_data(&format!(
                "{}: {n} trailing bytes after the last section",
                self.name
            ))),
        }
    }
}

/// Reads a hierarchy from an in-memory byte image — the one `HGHI`
/// reader, behind both [`load_hierarchy`] and the serving view
/// (`hignn-serve`). Payloads are CRC-verified and parsed in place.
pub fn read_hierarchy_bytes(bytes: &[u8]) -> io::Result<Hierarchy> {
    let mut cursor = HIERARCHY.open(bytes)?;
    let header = cursor.next_section("hierarchy header")?;
    if header.len() != 24 {
        return Err(bad_data(&format!(
            "hierarchy header: expected 24 bytes, got {}",
            header.len()
        )));
    }
    let num_users = u64::from_le_bytes(header[..8].try_into().unwrap()) as usize;
    let num_items = u64::from_le_bytes(header[8..16].try_into().unwrap()) as usize;
    let num_levels = u64::from_le_bytes(header[16..24].try_into().unwrap()) as usize;
    if num_levels > 64 {
        return Err(bad_data("hierarchy: implausible level count"));
    }
    let mut levels = Vec::with_capacity(num_levels);
    for l in 0..num_levels {
        let what = format!("hierarchy level {}", l + 1);
        let payload = cursor.next_section(&what)?;
        levels.push(decode_level(payload, &what)?);
    }
    cursor.finish()?;
    Hierarchy::from_parts(levels, num_users, num_items)
        .map_err(|e| bad_data(&format!("hierarchy: {e}")))
}

// ---------------------------------------------------------------------
// Assignment + level codecs.

fn write_assignment<W: Write>(w: &mut W, a: &Assignment) -> io::Result<()> {
    write_u64(w, a.num_clusters() as u64)?;
    write_u64(w, a.num_vertices() as u64)?;
    for &c in a.as_slice() {
        w.write_all(&c.to_le_bytes())?;
    }
    Ok(())
}

fn read_assignment<R: Read>(r: &mut R) -> io::Result<Assignment> {
    let num_clusters = read_u64(r)? as usize;
    let len = read_u64(r)? as usize;
    if len > 1 << 32 || num_clusters > 1 << 32 {
        return Err(bad_data("assignment: implausible size"));
    }
    // Grow incrementally rather than trusting the declared length with
    // one big allocation; truncation then fails at EOF cheaply.
    let mut values = Vec::new();
    let mut buf = [0u8; 4];
    for _ in 0..len {
        r.read_exact(&mut buf)
            .map_err(|_| bad_data("assignment: truncated cluster array"))?;
        let c = u32::from_le_bytes(buf);
        if c as usize >= num_clusters {
            return Err(bad_data("assignment: cluster id out of range"));
        }
        values.push(c);
    }
    Ok(Assignment::new(values, num_clusters))
}

fn write_level<W: Write>(w: &mut W, level: &Level) -> io::Result<()> {
    write_matrix(w, &level.user_embeddings)?;
    write_matrix(w, &level.item_embeddings)?;
    write_assignment(w, &level.user_assignment)?;
    write_assignment(w, &level.item_assignment)?;
    write_graph(w, &level.coarsened)?;
    write_u64(w, level.epoch_losses.len() as u64)?;
    for &l in &level.epoch_losses {
        w.write_all(&l.to_le_bytes())?;
    }
    Ok(())
}

fn read_level<R: Read>(r: &mut R) -> io::Result<Level> {
    let user_embeddings = read_matrix(r)?;
    let item_embeddings = read_matrix(r)?;
    let user_assignment = read_assignment(r)?;
    let item_assignment = read_assignment(r)?;
    let coarsened = read_graph(r)?;
    let num_losses = read_u64(r)? as usize;
    if num_losses > 1 << 20 {
        return Err(bad_data("hierarchy: implausible loss count"));
    }
    let mut epoch_losses = Vec::new();
    let mut buf = [0u8; 4];
    for _ in 0..num_losses {
        r.read_exact(&mut buf)
            .map_err(|_| bad_data("hierarchy: truncated loss history"))?;
        epoch_losses.push(f32::from_le_bytes(buf));
    }
    if user_assignment.num_vertices() != user_embeddings.rows()
        || item_assignment.num_vertices() != item_embeddings.rows()
    {
        return Err(bad_data("hierarchy: level shape mismatch"));
    }
    Ok(Level {
        user_embeddings,
        item_embeddings,
        user_assignment,
        item_assignment,
        coarsened,
        epoch_losses,
    })
}

/// Encodes one level into a standalone byte buffer (also used for
/// per-level checkpoint records).
pub(crate) fn encode_level(level: &Level) -> Vec<u8> {
    let mut buf = Vec::new();
    write_level(&mut buf, level).expect("in-memory write cannot fail");
    buf
}

/// Decodes one level payload, rejecting trailing garbage (also used
/// for per-level checkpoint records).
pub(crate) fn decode_level(bytes: &[u8], what: &str) -> io::Result<Level> {
    let mut slice = bytes;
    let level = read_level(&mut slice)?;
    if !slice.is_empty() {
        return Err(bad_data(&format!("{what}: {} trailing bytes after level", slice.len())));
    }
    Ok(level)
}

// ---------------------------------------------------------------------
// Whole-hierarchy writer and file entry points.

/// Writes a hierarchy in the `HGHI` format.
pub fn write_hierarchy<W: Write>(w: &mut W, h: &Hierarchy) -> io::Result<()> {
    HIERARCHY.preamble(w)?;
    let mut header = Vec::with_capacity(24);
    write_u64(&mut header, h.num_users() as u64)?;
    write_u64(&mut header, h.num_items() as u64)?;
    write_u64(&mut header, h.num_levels() as u64)?;
    write_section(w, &header)?;
    for level in h.levels() {
        write_section(w, &encode_level(level))?;
    }
    Ok(())
}

/// Saves a hierarchy to a file **atomically**: the bytes are written to
/// a sibling temp file, fsynced, then renamed over the target, so a
/// crash mid-save can never leave a half-written model at `path`.
pub fn save_hierarchy(path: impl AsRef<Path>, h: &Hierarchy) -> io::Result<()> {
    let _span = hignn_obs::span("io.save_hierarchy");
    let mut bytes = Vec::new();
    write_hierarchy(&mut bytes, h)?;
    if hignn_obs::enabled() {
        hignn_obs::counter_add("io.hierarchy_bytes_written", bytes.len() as u64);
    }
    atomic_write(path.as_ref(), &bytes)
}

/// Loads a hierarchy from a file: `fs::read` + [`read_hierarchy_bytes`].
pub fn load_hierarchy(path: impl AsRef<Path>) -> io::Result<Hierarchy> {
    let _span = hignn_obs::span("io.load_hierarchy");
    let bytes = std::fs::read(path)?;
    hignn_obs::counter_add("io.hierarchy_bytes_read", bytes.len() as u64);
    read_hierarchy_bytes(&bytes)
}

/// Writes `bytes` to `path` via temp file + fsync + rename (+ directory
/// fsync), the strongest crash-atomicity portable file systems offer.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = BufWriter::new(File::create(&tmp)?);
        f.write_all(bytes)?;
        f.flush()?;
        f.get_ref().sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself. Directory fsync is best-effort: some
    // platforms refuse to open directories for writing.
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use hignn_graph::{BipartiteGraph, SamplingMode};
    use hignn_tensor::init;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_hierarchy() -> Hierarchy {
        let mut rng = StdRng::seed_from_u64(3);
        let mut edges = Vec::new();
        for u in 0..16u32 {
            for _ in 0..3 {
                edges.push((u, rng.gen_range(0..16u32), 1.0));
            }
        }
        let g = BipartiteGraph::from_edges(16, 16, edges);
        let uf = init::xavier_uniform(16, 6, &mut rng);
        let if_ = init::xavier_uniform(16, 6, &mut rng);
        let cfg = HignnConfig {
            levels: 2,
            sage: BipartiteSageConfig {
                input_dim: 6,
                dim: 6,
                fanouts: vec![3, 2],
                sampling: SamplingMode::Uniform,
                ..Default::default()
            },
            train: SageTrainConfig { epochs: 1, batch_edges: 16, neg_pool: 8, ..Default::default() },
            cluster_counts: ClusterCounts::Fixed(vec![(6, 6), (2, 2)]),
            kmeans: KMeansAlgo::Lloyd,
            normalize: true,
            seed: 4,
        };
        build_hierarchy(&g, &uf, &if_, &cfg)
    }

    fn encoded(h: &Hierarchy) -> Vec<u8> {
        let mut buf = Vec::new();
        write_hierarchy(&mut buf, h).unwrap();
        buf
    }

    fn assert_same_levels(a: &Hierarchy, b: &Hierarchy) {
        assert_eq!(a.num_levels(), b.num_levels());
        assert_eq!(a.num_users(), b.num_users());
        assert_eq!(a.num_items(), b.num_items());
        for (a, b) in a.levels().iter().zip(b.levels()) {
            assert_eq!(a.user_embeddings, b.user_embeddings);
            assert_eq!(a.item_embeddings, b.item_embeddings);
            assert_eq!(a.user_assignment, b.user_assignment);
            assert_eq!(a.item_assignment, b.item_assignment);
            assert_eq!(a.coarsened.edges(), b.coarsened.edges());
            assert_eq!(a.epoch_losses, b.epoch_losses);
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let h = tiny_hierarchy();
        let back = read_hierarchy_bytes(&encoded(&h)).unwrap();
        assert_same_levels(&h, &back);
        // Derived hierarchical embeddings are identical.
        assert!(h.hierarchical_users().max_abs_diff(&back.hierarchical_users()) < 1e-9);
    }

    #[test]
    fn file_roundtrip() {
        let h = tiny_hierarchy();
        let path = std::env::temp_dir().join("hignn_io_test.hgh");
        save_hierarchy(&path, &h).unwrap();
        let back = load_hierarchy(&path).unwrap();
        assert_eq!(back.num_levels(), h.num_levels());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_corrupt_stream() {
        let mut buf = encoded(&tiny_hierarchy());
        // Truncation errors out rather than panicking.
        assert!(read_hierarchy_bytes(&buf[..buf.len() / 2]).is_err());
        buf[0] = b'X';
        assert!(read_hierarchy_bytes(&buf).is_err());
    }

    #[test]
    fn detects_every_single_byte_corruption_in_payloads() {
        let clean = encoded(&tiny_hierarchy());
        // Flip one byte at a spread of positions; the reader must error
        // (checksum/format) — silently wrong data is the failure mode
        // this format exists to prevent. Every byte of the file is
        // covered by magic/version checks, section length validation,
        // or a section CRC.
        for pos in (0..clean.len()).step_by(17) {
            let mut evil = clean.clone();
            evil[pos] ^= 0x40;
            assert!(read_hierarchy_bytes(&evil).is_err(), "flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn implausible_section_length_is_rejected_without_allocation() {
        let mut buf = encoded(&tiny_hierarchy());
        // Overwrite the header section's length with a huge value; the
        // reader must reject it (not attempt a 2^60-byte allocation).
        buf[8..16].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let err = read_hierarchy_bytes(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    /// The file entry point and the in-memory one (the serving path)
    /// are one decoder and must return the same hierarchy.
    #[test]
    fn file_and_in_memory_readers_return_the_same_hierarchy() {
        let h = tiny_hierarchy();
        let path = std::env::temp_dir().join(format!("hignn_io_same_{}.hgh", std::process::id()));
        save_hierarchy(&path, &h).unwrap();
        let from_file = load_hierarchy(&path).unwrap();
        let from_bytes = read_hierarchy_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_same_levels(&from_file, &from_bytes);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_copy_reader_rejects_every_truncation_and_corruption() {
        let mut bytes = encoded(&tiny_hierarchy());
        // Every prefix truncation errors instead of panicking.
        for cut in (0..bytes.len()).step_by(23) {
            let err = read_hierarchy_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}: {err}");
        }
        // Trailing garbage after the last level is rejected.
        bytes.extend_from_slice(&[0u8; 9]);
        let err = read_hierarchy_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn section_cursor_returns_borrowed_payloads() {
        let mut framed = Vec::new();
        write_section(&mut framed, b"alpha").unwrap();
        write_section(&mut framed, b"").unwrap();
        write_section(&mut framed, b"omega").unwrap();
        let mut cur = SectionCursor { buf: &framed, pos: 0, name: "frames" };
        let a = cur.next_section("a").unwrap();
        assert_eq!(a, b"alpha");
        // Zero-copy: the payload slice points into the framed buffer.
        assert_eq!(a.as_ptr(), framed[8..].as_ptr());
        assert_eq!(cur.next_section("b").unwrap(), b"");
        assert_eq!(cur.next_section("c").unwrap(), b"omega");
        assert!(cur.next_section("past end").is_err());
        cur.finish().unwrap();
    }

    #[test]
    fn atomic_save_leaves_no_temp_file() {
        let h = tiny_hierarchy();
        let dir = std::env::temp_dir().join(format!("hignn_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.hgh");
        save_hierarchy(&path, &h).unwrap();
        assert!(path.exists());
        assert!(!path.with_extension("tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
