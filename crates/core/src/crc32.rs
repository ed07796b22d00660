//! CRC-32 (IEEE 802.3 polynomial) for checkpoint and hierarchy
//! integrity sections.
//!
//! Table-driven, slicing-by-8: eight bytes are folded per step through
//! eight 256-entry tables, with a byte-at-a-time loop for the tail.
//! Matches the ubiquitous zlib/`cksum -o 3` CRC so externally generated
//! files can be checked with standard tools.

/// `TABLES[0]` is the classic byte table for the reflected polynomial
/// `0xEDB88320`; `TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, which is what lets eight input bytes be folded at once.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time definition the sliced loop must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    proptest! {
        /// Every length 0..=64 at a random offset into random bytes, so
        /// each head alignment and each tail length 0..8 is hit.
        #[test]
        fn sliced_matches_bytewise(
            data in prop::collection::vec(any::<u8>(), 80),
            offset in 0usize..16,
        ) {
            for len in 0..=64 {
                let window = &data[offset..offset + len];
                prop_assert_eq!(crc32(window), crc32_bytewise(window), "len {}", len);
            }
        }
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let data = vec![0xA5u8; 1024];
        let base = crc32(&data);
        for byte in [0usize, 13, 512, 1023] {
            for bit in [0u8, 3, 7] {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }
}
