//! Binary serialisation for matrices and parameter stores.
//!
//! Training a HiGNN hierarchy is the expensive step; serving wants to
//! load embeddings and weights without retraining. This module provides
//! a small, dependency-free little-endian binary format:
//!
//! ```text
//! matrix  := "HGMX" u32(version=1) u64(rows) u64(cols) f32[rows*cols]
//! params  := "HGPS" u32(version=1) u64(count) { u32(name_len) name matrix }*
//! ```
//!
//! All readers validate magic numbers and version, returning
//! `io::ErrorKind::InvalidData` on mismatch.

use crate::matrix::Matrix;
use crate::param::ParamStore;
use std::io::{self, Read, Write};

const MATRIX_MAGIC: &[u8; 4] = b"HGMX";
const PARAMS_MAGIC: &[u8; 4] = b"HGPS";
const VERSION: u32 = 1;

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn check_header<R: Read>(r: &mut R, magic: &[u8; 4], what: &str) -> io::Result<()> {
    let mut m = [0u8; 4];
    r.read_exact(&mut m)?;
    if &m != magic {
        return Err(bad_data(&format!("{what}: bad magic")));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(bad_data(&format!("{what}: unsupported version {version}")));
    }
    Ok(())
}

/// Writes a matrix in the `HGMX` format.
pub fn write_matrix<W: Write>(w: &mut W, m: &Matrix) -> io::Result<()> {
    w.write_all(MATRIX_MAGIC)?;
    write_u32(w, VERSION)?;
    write_u64(w, m.rows() as u64)?;
    write_u64(w, m.cols() as u64)?;
    for &v in m.data() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a matrix in the `HGMX` format.
pub fn read_matrix<R: Read>(r: &mut R) -> io::Result<Matrix> {
    check_header(r, MATRIX_MAGIC, "matrix")?;
    let rows = read_u64(r).map_err(|_| bad_data("matrix: truncated in `rows` field"))? as usize;
    let cols = read_u64(r).map_err(|_| bad_data("matrix: truncated in `cols` field"))? as usize;
    let count = rows
        .checked_mul(cols)
        .ok_or_else(|| bad_data("matrix: dimension overflow (rows * cols)"))?;
    // Sanity cap: refuse absurd sizes from corrupted headers.
    if count > 1 << 32 {
        return Err(bad_data("matrix: implausible size"));
    }
    // Grow incrementally instead of pre-allocating the declared size:
    // a corrupt header then fails at EOF without a giant allocation.
    let mut data = Vec::new();
    let mut buf = [0u8; 4];
    for k in 0..count {
        r.read_exact(&mut buf).map_err(|_| {
            bad_data(&format!("matrix: truncated in `data` (element {k} of {count})"))
        })?;
        data.push(f32::from_le_bytes(buf));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Writes a parameter store (names + values) in the `HGPS` format.
#[cfg_attr(
    not(test),
    expect(dead_code, reason = "HGHI 3 (ROADMAP item 22) stores each level's parameters with it")
)]
pub(crate) fn write_param_store<W: Write>(w: &mut W, store: &ParamStore) -> io::Result<()> {
    w.write_all(PARAMS_MAGIC)?;
    write_u32(w, VERSION)?;
    write_u64(w, store.len() as u64)?;
    for (_, name, value) in store.iter() {
        let bytes = name.as_bytes();
        write_u32(w, bytes.len() as u32)?;
        w.write_all(bytes)?;
        write_matrix(w, value)?;
    }
    Ok(())
}

/// Reads a parameter store in the `HGPS` format. Parameter ids are
/// assigned in file order, which matches the order they were registered
/// when the store was written — so models reconstructed with the same
/// code see the same ids.
#[cfg_attr(
    not(test),
    expect(dead_code, reason = "HGHI 3 (ROADMAP item 22) stores each level's parameters with it")
)]
pub(crate) fn read_param_store<R: Read>(r: &mut R) -> io::Result<ParamStore> {
    check_header(r, PARAMS_MAGIC, "param store")?;
    let count =
        read_u64(r).map_err(|_| bad_data("param store: truncated in `count` field"))? as usize;
    if count > 1 << 24 {
        return Err(bad_data("param store: implausible count"));
    }
    let mut store = ParamStore::new();
    for k in 0..count {
        let name_len = read_u32(r)
            .map_err(|_| bad_data(&format!("param store: truncated in `name_len` (entry {k})")))?
            as usize;
        if name_len > 4096 {
            return Err(bad_data(&format!(
                "param store: implausible name length {name_len} (entry {k})"
            )));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)
            .map_err(|_| bad_data(&format!("param store: truncated in `name` (entry {k})")))?;
        let name = String::from_utf8(name)
            .map_err(|_| bad_data(&format!("param store: non-UTF8 name (entry {k})")))?;
        let value = read_matrix(r)
            .map_err(|e| bad_data(&format!("param store: entry {k} (`{name}`): {e}")))?;
        store.add(name, value);
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matrix_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = init::xavier_uniform(7, 5, &mut rng);
        let mut buf = Vec::new();
        write_matrix(&mut buf, &m).unwrap();
        let back = read_matrix(&mut buf.as_slice()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let m = Matrix::zeros(0, 3);
        let mut buf = Vec::new();
        write_matrix(&mut buf, &m).unwrap();
        let back = read_matrix(&mut buf.as_slice()).unwrap();
        assert_eq!(back.shape(), (0, 3));
    }

    #[test]
    fn param_store_roundtrip_preserves_names_and_order() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let a = store.add("layer.w", init::xavier_uniform(3, 4, &mut rng));
        let b = store.add("layer.b", Matrix::zeros(1, 4));
        let mut buf = Vec::new();
        write_param_store(&mut buf, &store).unwrap();
        let back = read_param_store(&mut buf.as_slice()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.id("layer.w"), Some(a));
        assert_eq!(back.id("layer.b"), Some(b));
        assert_eq!(back.get(a), store.get(a));
        assert_eq!(back.get(b), store.get(b));
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_matrix(&mut &b"NOPE\0\0\0\0"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncated_data() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut buf = Vec::new();
        write_matrix(&mut buf, &m).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_matrix(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_wrong_version() {
        let m = Matrix::zeros(1, 1);
        let mut buf = Vec::new();
        write_matrix(&mut buf, &m).unwrap();
        buf[4] = 99; // corrupt version
        assert!(read_matrix(&mut buf.as_slice()).is_err());
    }
}
