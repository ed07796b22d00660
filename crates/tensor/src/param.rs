//! Trainable parameter storage shared across forward passes.
//!
//! A [`ParamStore`] owns every trainable matrix of a model. Each training
//! step builds a fresh [`crate::tape::Tape`] against the store, runs
//! backward to obtain [`Gradients`], and hands both to an optimizer.
//! Keeping parameters outside the tape is what makes data-parallel
//! training work: worker threads launched by
//! [`crate::parallel::ParallelExecutor`] share `&ParamStore` immutably,
//! build private tapes over thread-count-independent shards of the
//! batch, and their per-shard [`Gradients`] are combined by
//! [`crate::parallel::reduce_gradients`] in a fixed tree order before a
//! single optimizer step — so results do not depend on the worker count.
//! [`Gradients::recycle_into`] then returns each shard's buffers to its
//! worker's [`crate::Workspace`].

use crate::matrix::Matrix;
use std::collections::HashMap;

/// Opaque handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index of the parameter within its store.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// A named collection of trainable matrices.
#[derive(Clone, Default)]
pub struct ParamStore {
    values: Vec<Matrix>,
    names: Vec<String>,
    by_name: HashMap<String, usize>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter under a unique name.
    ///
    /// # Panics
    /// Panics if `name` is already registered.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "parameter `{name}` registered twice"
        );
        let id = self.values.len();
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.values.push(value);
        ParamId(id)
    }

    /// Looks a parameter up by name.
    pub fn id(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied().map(ParamId)
    }

    /// The parameter's registered name.
    pub(crate) fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Borrows a parameter value.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutably borrows a parameter value (used by optimizers).
    pub(crate) fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// Number of registered parameters.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Total number of trainable scalars.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Iterates over `(id, name, value)` triples.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Matrix)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ParamId(i), self.names[i].as_str(), v))
    }

    /// True when every parameter entry is finite (NaN/Inf detector).
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(Matrix::all_finite)
    }
}

/// Per-parameter gradients produced by a backward pass.
#[derive(Clone, Default)]
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Creates an empty gradient set sized for `store`.
    pub(crate) fn new(store: &ParamStore) -> Self {
        Gradients { grads: vec![None; store.len()] }
    }

    /// Adds an owned gradient buffer into the slot for `id` without
    /// copying: the first contribution is moved into the slot; later
    /// contributions are summed and the (now dead) buffer is handed back
    /// so the caller can recycle it.
    pub(crate) fn accumulate_owned(&mut self, id: ParamId, g: Matrix) -> Option<Matrix> {
        if id.0 >= self.grads.len() {
            self.grads.resize(id.0 + 1, None);
        }
        match &mut self.grads[id.0] {
            Some(existing) => {
                existing.add_assign(&g);
                Some(g)
            }
            slot @ None => {
                *slot = Some(g);
                None
            }
        }
    }

    /// Borrows the gradient for `id`, if any was produced.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.grads.get(id.0).and_then(Option::as_ref)
    }

    /// Adds another gradient set into this one: overlapping entries
    /// are summed (`self + other`, leaving `other`'s buffer in place) and
    /// entries that only exist in `other` are moved, not cloned.
    pub(crate) fn add_from(&mut self, other: &mut Gradients) {
        if other.grads.len() > self.grads.len() {
            self.grads.resize(other.grads.len(), None);
        }
        for (mine, theirs) in self.grads.iter_mut().zip(&mut other.grads) {
            match (mine, theirs) {
                (Some(existing), Some(g)) => existing.add_assign(g),
                (slot @ None, theirs) => *slot = theirs.take(),
                (Some(_), None) => {}
            }
        }
    }

    /// Consumes the gradient set, returning every buffer to `ws` — the
    /// trainer hands each shard's gradients back to the pool that leased
    /// them once the optimizer has stepped.
    pub fn recycle_into(self, ws: &crate::workspace::Workspace) {
        for g in self.grads.into_iter().flatten() {
            ws.reclaim(g.into_data());
        }
    }

    /// Scales every gradient by `alpha` (e.g. averaging shard gradients).
    pub fn scale(&mut self, alpha: f32) {
        for g in self.grads.iter_mut().flatten() {
            g.scale_assign(alpha);
        }
    }

    /// Iterates over `(id, grad)` pairs that were produced.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.grads
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|g| (ParamId(i), g)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut s = ParamStore::new();
        let a = s.add("w1", Matrix::zeros(2, 3));
        let b = s.add("w2", Matrix::zeros(3, 1));
        assert_eq!(s.id("w1"), Some(a));
        assert_eq!(s.id("w2"), Some(b));
        assert_eq!(s.id("nope"), None);
        assert_eq!(s.name(a), "w1");
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 9);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_name_panics() {
        let mut s = ParamStore::new();
        s.add("w", Matrix::zeros(1, 1));
        s.add("w", Matrix::zeros(1, 1));
    }

    #[test]
    fn gradients_accumulate_and_merge() {
        let mut s = ParamStore::new();
        let a = s.add("a", Matrix::zeros(1, 2));
        let b = s.add("b", Matrix::zeros(1, 2));
        let mut g1 = Gradients::new(&s);
        g1.accumulate_owned(a, Matrix::row_vector(&[1.0, 2.0]));
        g1.accumulate_owned(a, Matrix::row_vector(&[1.0, 2.0]));
        let mut g2 = Gradients::new(&s);
        g2.accumulate_owned(a, Matrix::row_vector(&[1.0, 0.0]));
        g2.accumulate_owned(b, Matrix::row_vector(&[0.5, 0.5]));
        g1.add_from(&mut g2);
        assert_eq!(g1.get(a).unwrap().data(), &[3.0, 4.0]);
        assert_eq!(g1.get(b).unwrap().data(), &[0.5, 0.5]);
        // The summed entry stays with `g2`; the moved one left it.
        assert_eq!(g2.get(a).unwrap().data(), &[1.0, 0.0]);
        assert!(g2.get(b).is_none());
    }
}
