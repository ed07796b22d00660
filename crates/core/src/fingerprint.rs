//! The one content hasher behind [`crate::ingest::hierarchy_fingerprint`]
//! and [`crate::checkpoint::run_fingerprint`].
//!
//! A 64-bit state absorbs one 64-bit word per step,
//! `h ← rotl((h ⊕ w) · K, 29)` with `K` odd. For a fixed word the step
//! is a bijection of the state, and for a fixed state a bijection of
//! the word, so two inputs that differ in exactly one word can never
//! collide: the states differ right after that word and every later
//! step, and [`Fingerprint::finish`] maps distinct states to distinct
//! states. Inputs that differ in several words collide with the usual
//! 2⁻⁶⁴ of a non-cryptographic hash — this guards against divergence
//! and mix-ups, not against an adversary.
//!
//! Arrays are read in place, two 32-bit elements per word (floats by
//! `to_bits`), and every slice is preceded by its length so adjacent
//! fields cannot trade elements without changing the word stream.

use hignn_graph::BipartiteGraph;
use hignn_tensor::Matrix;

/// Odd multiplier (the 64-bit golden-ratio constant).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

pub(crate) struct Fingerprint(u64);

impl Fingerprint {
    pub(crate) fn new() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    #[inline(always)]
    pub(crate) fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(K).rotate_left(29);
    }

    /// `xs.len()`, then the elements' 32-bit images two per word.
    #[inline(always)]
    fn pairs<T: Copy>(&mut self, xs: &[T], bits: impl Fn(T) -> u32) {
        self.word(xs.len() as u64);
        let mut chunks = xs.chunks_exact(2);
        for pair in &mut chunks {
            self.word(u64::from(bits(pair[0])) | u64::from(bits(pair[1])) << 32);
        }
        if let [last] = *chunks.remainder() {
            self.word(u64::from(bits(last)));
        }
    }

    pub(crate) fn u32s(&mut self, xs: &[u32]) {
        self.pairs(xs, |x| x);
    }

    pub(crate) fn f32s(&mut self, xs: &[f32]) {
        self.pairs(xs, f32::to_bits);
    }

    /// `bytes.len()`, then the bytes eight per word (the last word
    /// zero-padded; the length disambiguates it).
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    /// Shape, then the row-major data.
    pub(crate) fn matrix(&mut self, m: &Matrix) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        self.f32s(m.data());
    }

    /// Both vertex counts, the edge count, then per edge its endpoints
    /// as one word and its weight bits as the next.
    pub(crate) fn graph(&mut self, g: &BipartiteGraph) {
        self.word(g.num_left() as u64);
        self.word(g.num_right() as u64);
        self.word(g.num_edges() as u64);
        for &(l, r, w) in g.edges() {
            self.word(u64::from(l) | u64::from(r) << 32);
            self.word(u64::from(w.to_bits()));
        }
    }

    /// Final avalanche (the SplitMix64 finaliser, itself a bijection).
    pub(crate) fn finish(self) -> u64 {
        let mut h = self.0;
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(f: impl FnOnce(&mut Fingerprint)) -> u64 {
        let mut h = Fingerprint::new();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn slice_boundaries_do_not_alias() {
        // The same elements split differently across two slices.
        let a = of(|h| {
            h.u32s(&[1, 2, 3]);
            h.u32s(&[4]);
        });
        let b = of(|h| {
            h.u32s(&[1, 2]);
            h.u32s(&[3, 4]);
        });
        assert_ne!(a, b);
        // A trailing zero element is not the odd tail's padding.
        assert_ne!(of(|h| h.u32s(&[7])), of(|h| h.u32s(&[7, 0])));
        assert_ne!(of(|h| h.bytes(b"abc")), of(|h| h.bytes(b"abc\0")));
    }

    #[test]
    fn floats_are_hashed_by_bits() {
        assert_ne!(of(|h| h.f32s(&[0.0])), of(|h| h.f32s(&[-0.0])));
        let nan = f32::from_bits(0x7FC0_0001);
        assert_eq!(of(|h| h.f32s(&[nan, 1.0])), of(|h| h.f32s(&[nan, 1.0])));
    }

    #[test]
    fn every_single_word_change_is_detected() {
        let base: Vec<u32> = (0..257).collect();
        let clean = of(|h| h.u32s(&base));
        for i in 0..base.len() {
            for bit in [0, 13, 31] {
                let mut evil = base.clone();
                evil[i] ^= 1 << bit;
                assert_ne!(of(|h| h.u32s(&evil)), clean, "element {i} bit {bit}");
            }
        }
    }
}
