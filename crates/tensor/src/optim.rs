//! The optimizer.
//!
//! The paper trains every component with stochastic gradient descent
//! (Section III.B) and its supervised predictor with standard
//! deep-learning settings (lr 1e-3, batch 1024, L2 regularisation);
//! every trainer here steps [`Adam`]. Weight decay is applied decoupled
//! from the gradient (AdamW-style) so the L2 strength is independent of
//! the loss scale.

use crate::param::{Gradients, ParamStore};
use crate::Matrix;

/// Adam (Kingma & Ba) with bias correction and decoupled weight decay.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Adam with the standard betas (0.9, 0.999) and eps 1e-8.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adds decoupled weight decay (AdamW).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Applies one update step given accumulated gradients.
    pub fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        self.t += 1;
        if self.m.len() < store.len() {
            self.m.resize(store.len(), None);
            self.v.resize(store.len(), None);
        }
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (id, g) in grads.iter() {
            let m = self.m[id.index()].get_or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
            let v = self.v[id.index()].get_or_insert_with(|| Matrix::zeros(g.rows(), g.cols()));
            for ((mi, vi), &gi) in m.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            if self.weight_decay > 0.0 {
                let decay = 1.0 - self.lr * self.weight_decay;
                store.get_mut(id).scale_assign(decay);
            }
            let p = store.get_mut(id);
            for ((pi, &mi), &vi) in p.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                *pi -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamStore;
    use crate::tape::Tape;

    /// Minimise f(p) = (p - 3)^2 and check convergence.
    fn converges_to_three(opt: &mut Adam, steps: usize) -> f32 {
        let mut store = ParamStore::new();
        let p = store.add("p", Matrix::from_vec(1, 1, vec![0.0]));
        for _ in 0..steps {
            let mut t = Tape::new(&store);
            let v = t.param(p);
            let minus_target = t.input(Matrix::from_vec(1, 1, vec![-3.0]));
            let diff = t.add(v, minus_target);
            let loss = t.sum_squares(diff);
            let grads = t.backward(loss);
            opt.step(&mut store, &grads);
        }
        store.get(p).get(0, 0)
    }

    #[test]
    fn adam_converges() {
        let mut opt = Adam::new(0.1);
        let p = converges_to_three(&mut opt, 300);
        assert!((p - 3.0).abs() < 1e-2, "p = {p}");
    }

    #[test]
    fn weight_decay_shrinks_unused_direction() {
        // With pure decay (zero gradient signal beyond decay), weights shrink.
        let mut store = ParamStore::new();
        let p = store.add("p", Matrix::from_vec(1, 1, vec![10.0]));
        let mut opt = Adam::new(0.1).with_weight_decay(1.0);
        let mut grads = Gradients::new(&store);
        grads.accumulate_owned(p, Matrix::zeros(1, 1));
        for _ in 0..10 {
            opt.step(&mut store, &grads);
        }
        let v = store.get(p).get(0, 0);
        assert!(v < 10.0 && v > 0.0, "v = {v}");
    }

    #[test]
    fn adam_handles_sparse_gradients() {
        // Parameters that only sometimes receive gradients must keep
        // consistent state (embedding tables in DIN hit this path).
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::from_vec(1, 1, vec![1.0]));
        let b = store.add("b", Matrix::from_vec(1, 1, vec![1.0]));
        let mut opt = Adam::new(0.1);
        for step in 0..50 {
            let mut grads = Gradients::new(&store);
            grads.accumulate_owned(a, Matrix::from_vec(1, 1, vec![1.0]));
            if step % 2 == 0 {
                grads.accumulate_owned(b, Matrix::from_vec(1, 1, vec![1.0]));
            }
            opt.step(&mut store, &grads);
        }
        assert!(store.get(a).get(0, 0) < store.get(b).get(0, 0));
        assert!(store.all_finite());
    }
}
