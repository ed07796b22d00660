//! The one content hasher behind [`hierarchy_fingerprint`] and
//! [`crate::checkpoint::run_fingerprint`], and the digest tree that
//! lets a streaming holder keep the former current per batch.
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
//! `to_bits`), and every slice is preceded by its length — or, for an
//! embedding matrix's row chain, followed by its shape — so adjacent
//! fields cannot trade elements without changing the word stream.

use crate::stack::{Hierarchy, Level};
use hignn_graph::{Assignment, BipartiteGraph};
use hignn_tensor::Matrix;

/// Odd multiplier (the 64-bit golden-ratio constant).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Clone, Copy, Debug)]
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
        self.unprefixed(xs, bits);
    }

    /// The elements' 32-bit images two per word; an odd length's last
    /// element is its own word.
    #[inline(always)]
    fn unprefixed<T: Copy>(&mut self, xs: &[T], bits: impl Fn(T) -> u32) {
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

// ---------------------------------------------------------------------
// The hierarchy digest tree.

/// One tree node: `words` through a fresh state, finished.
fn node(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut f = Fingerprint::new();
    for w in words {
        f.word(w);
    }
    f.finish()
}

/// An embedding matrix's chain, still open: its rows absorbed in order
/// (two floats per word, an odd width's last float its own word), its
/// shape not yet. Appended rows extend it without re-reading the rest.
#[derive(Clone, Copy, Debug)]
struct RowChain {
    state: Fingerprint,
    rows: usize,
}

impl RowChain {
    fn new() -> RowChain {
        RowChain { state: Fingerprint::new(), rows: 0 }
    }

    /// Absorbs the rows of `m` this chain has not seen yet.
    fn extend(&mut self, m: &Matrix) {
        debug_assert!(m.rows() >= self.rows, "a row chain only grows");
        for r in self.rows..m.rows() {
            self.state.unprefixed(m.row(r), f32::to_bits);
        }
        self.rows = m.rows();
    }

    /// `E`: the chain closed by the matrix shape.
    fn close(&self, cols: usize) -> u64 {
        let mut f = self.state;
        f.word(self.rows as u64);
        f.word(cols as u64);
        f.finish()
    }
}

fn matrix_digest(m: &Matrix) -> u64 {
    let mut chain = RowChain::new();
    chain.extend(m);
    chain.close(m.cols())
}

/// `A`: the cluster count, then the entries.
fn assignment_digest(a: &Assignment) -> u64 {
    let mut f = Fingerprint::new();
    f.word(a.num_clusters() as u64);
    f.u32s(a.as_slice());
    f.finish()
}

/// `S_l`: the coarse graph, then the loss history.
fn stored_digest(level: &Level) -> u64 {
    let mut f = Fingerprint::new();
    f.graph(&level.coarsened);
    f.f32s(&level.epoch_losses);
    f.finish()
}

/// `D_l = H(E_u, E_i, A_u, A_i, S_l)`.
fn level_digest(users: u64, items: u64, level: &Level, stored: u64) -> u64 {
    let au = assignment_digest(&level.user_assignment);
    let ai = assignment_digest(&level.item_assignment);
    node([users, items, au, ai, stored])
}

/// [`hierarchy_fingerprint`], held open for a holder that patches its
/// hierarchy by streaming deltas.
///
/// The fingerprint is a digest tree, `H(n_u, n_i, L, D_1, …, D_L)` with
/// `D_l = H(E_u, E_i, A_u, A_i, S_l)`: `E` is an embedding matrix's row
/// chain closed by its shape, `A` an assignment's digest and `S_l`
/// level `l`'s coarse graph and losses. A delta only appends level-1
/// rows and rewrites level-1 assignments, so the digest keeps the two
/// level-1 row chains open and `S_1`, `D_2 … D_L` finished; advancing
/// past a delta absorbs the arrivals' rows and re-hashes the level-1
/// assignments, never the rest of the model.
///
/// A digest is only as good as its pairing with one hierarchy: take it
/// with [`HierarchyDigest::new`] and advance it only through
/// [`crate::ingest::apply_delta_to_base`] (or the writer's own ingest),
/// together with that hierarchy.
#[derive(Clone, Debug)]
pub struct HierarchyDigest {
    users: RowChain,
    items: RowChain,
    /// `S_1`.
    level1_stored: u64,
    /// `D_2 … D_L`.
    upper: Vec<u64>,
    /// The finished digest.
    value: u64,
}

impl HierarchyDigest {
    /// The digest of `h`, from scratch.
    pub fn new(h: &Hierarchy) -> HierarchyDigest {
        let (first, upper) = h.levels().split_first().expect("a hierarchy has at least one level");
        let upper = upper
            .iter()
            .map(|l| {
                let users = matrix_digest(&l.user_embeddings);
                let items = matrix_digest(&l.item_embeddings);
                level_digest(users, items, l, stored_digest(l))
            })
            .collect();
        let mut digest = HierarchyDigest {
            users: RowChain::new(),
            items: RowChain::new(),
            level1_stored: stored_digest(first),
            upper,
            value: 0,
        };
        digest.advance(h);
        digest
    }

    /// The fingerprint: [`hierarchy_fingerprint`] of the hierarchy this
    /// digest is paired with.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The digest of `h`, which must be this digest's hierarchy with
    /// level-1 rows appended and level-1 assignments rewritten, and
    /// nothing else changed. Reads only the appended rows and the two
    /// level-1 assignments.
    pub(crate) fn advanced(&self, h: &Hierarchy) -> HierarchyDigest {
        let mut next = self.clone();
        next.advance(h);
        debug_assert_eq!(next.value, HierarchyDigest::new(h).value, "digest off its hierarchy");
        next
    }

    fn advance(&mut self, h: &Hierarchy) {
        let l0 = &h.levels()[0];
        self.users.extend(&l0.user_embeddings);
        self.items.extend(&l0.item_embeddings);
        let users = self.users.close(l0.user_embeddings.cols());
        let items = self.items.close(l0.item_embeddings.cols());
        let d1 = level_digest(users, items, l0, self.level1_stored);
        let counts = [h.num_users(), h.num_items(), h.num_levels()].map(|n| n as u64);
        self.value = node(counts.into_iter().chain([d1]).chain(self.upper.iter().copied()));
    }
}

/// Order-sensitive 64-bit fingerprint of a hierarchy: the root of the
/// [`HierarchyDigest`] tree, taken from scratch. It covers exactly what
/// [`crate::io::write_hierarchy`] serialises — user/item/level counts,
/// then per level both embedding matrices with their shapes, both
/// assignments with their cluster counts, the coarsened graph's
/// dimensions and edges, and the loss history — so two hierarchies that
/// serialise bit-identically fingerprint equal, and a difference in any
/// one stored value changes the fingerprint. This is the identity the
/// delta protocol's base/patched checks rely on.
pub fn hierarchy_fingerprint(h: &Hierarchy) -> u64 {
    HierarchyDigest::new(h).value()
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
    fn row_chains_pair_within_rows() {
        // An odd width's last float is its own word, so a 2x3 matrix is
        // not its data hashed as one 6-float run, and regrouping the
        // same floats into another shape changes the digest.
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut flat = Fingerprint::new();
        flat.unprefixed(m.data(), f32::to_bits);
        flat.word(2);
        flat.word(3);
        assert_ne!(matrix_digest(&m), flat.finish());
        let regrouped = Matrix::from_vec(3, 2, m.data().to_vec());
        assert_ne!(matrix_digest(&m), matrix_digest(&regrouped));
        // Extending an open chain row by row is hashing the whole.
        let mut chain = RowChain::new();
        chain.extend(&Matrix::from_vec(1, 3, m.row(0).to_vec()));
        chain.extend(&m);
        assert_eq!(chain.close(3), matrix_digest(&m));
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
