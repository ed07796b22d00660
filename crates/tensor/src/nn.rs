//! Neural-network building blocks on top of the tape.
//!
//! [`Linear`] and [`Mlp`] register their weights in a [`ParamStore`] once
//! and can then be applied on any number of tapes. The paper's supervised
//! predictor (Fig. 2: fully connected 256/128/64 with leaky ReLU) and the
//! edge scorer `f` of Eqs. 5/12 are both instances of [`Mlp`].

use crate::init::{he_uniform, xavier_uniform};
use crate::param::{ParamId, ParamStore};
use crate::simd;
use crate::tape::{Tape, Var};
use crate::Matrix;
use rand::Rng;

/// Activation functions available to [`Mlp`] hidden layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Leaky ReLU with slope 0.01 (the paper's choice).
    LeakyRelu,
    /// Standard ReLU.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// No nonlinearity.
    Identity,
}

impl Activation {
    fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::LeakyRelu => tape.leaky_relu(x, 0.01),
            Activation::Relu => tape.relu(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Identity => x,
        }
    }
}

/// A fully connected layer `y = x W + b`.
#[derive(Clone, Copy, Debug)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
}

impl Linear {
    /// Registers a layer's parameters under `name.w` / `name.b`.
    ///
    /// `activation` only selects the initialisation scheme (He for ReLU
    /// family, Xavier otherwise); the caller applies the activation itself.
    pub(crate) fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        let w = match activation {
            Activation::LeakyRelu | Activation::Relu => he_uniform(in_dim, out_dim, rng),
            _ => xavier_uniform(in_dim, out_dim, rng),
        };
        let w = store.add(format!("{name}.w"), w);
        let b = store.add(format!("{name}.b"), Matrix::zeros(1, out_dim));
        Linear { w, b, in_dim }
    }

    /// Applies the layer on a tape.
    pub(crate) fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        assert_eq!(x.cols(), self.in_dim, "Linear: input dim mismatch");
        let w = tape.param(self.w);
        let b = tape.param(self.b);
        let h = tape.matmul(x, w);
        tape.add_bias(h, b)
    }

    /// Tape-free inference.
    pub(crate) fn infer(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        let mut y = x.matmul(store.get(self.w));
        y.add_row_broadcast_assign(store.get(self.b));
        y
    }

    /// Weight parameter id.
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// Bias parameter id.
    pub fn bias(&self) -> ParamId {
        self.b
    }
}

/// A multi-layer perceptron with a shared hidden activation and a linear
/// output layer.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths.
    ///
    /// `dims` lists `[input, hidden..., output]`; e.g. the paper's
    /// predictor head is `&[in, 256, 128, 64, 1]`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dims: &[usize],
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp: need at least input and output dims");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for (l, pair) in dims.windows(2).enumerate() {
            let act = if l + 2 == dims.len() { Activation::Identity } else { activation };
            layers.push(Linear::new(
                store,
                &format!("{name}.l{l}"),
                pair[0],
                pair[1],
                act,
                rng,
            ));
        }
        Mlp { layers, activation }
    }

    /// Applies the MLP; hidden layers use the configured activation, the
    /// output layer is linear (producing logits).
    pub fn forward(&self, tape: &mut Tape, mut x: Var) -> Var {
        let last = self.layers.len() - 1;
        for (l, layer) in self.layers.iter().enumerate() {
            x = layer.forward(tape, x);
            if l != last {
                x = self.activation.apply(tape, x);
            }
        }
        x
    }

    /// Tape-free inference producing logits.
    pub fn infer(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        self.infer_after_first(store, self.layers[0].infer(store, x))
    }

    /// [`Mlp::infer`] on rows `[u | tail[r]]` that all begin with the
    /// same `u`, given `carry = u.matmul_carried(w0, 0, None)`
    /// — layer 0's partial sums over `u`'s columns (`w0` is
    /// `layers()[0]`'s weight). Layer 0 resumes from `carry` over the
    /// `tail` columns ([`Matrix::matmul_carried`]), so `u` is multiplied
    /// once for the batch and the logits are bit for bit those of the
    /// materialised rows.
    pub fn infer_split(&self, store: &ParamStore, carry: &Matrix, tail: &Matrix) -> Matrix {
        let first = &self.layers[0];
        assert!(tail.cols() <= first.in_dim, "Mlp: tail wider than the input");
        let w_row0 = first.in_dim - tail.cols();
        let mut h = tail.matmul_carried(store.get(first.w), w_row0, Some(carry));
        h.add_row_broadcast_assign(store.get(first.b));
        self.infer_after_first(store, h)
    }

    /// Runs layers `1..` on `h`, the first layer's pre-activation output.
    fn infer_after_first(&self, store: &ParamStore, mut h: Matrix) -> Matrix {
        for layer in &self.layers[1..] {
            // The previous layer was a hidden one: activate in place.
            match self.activation {
                Activation::LeakyRelu => simd::leaky_relu(h.data_mut(), 0.01),
                Activation::Relu => h.map_assign(|v| v.max(0.0)),
                Activation::Tanh => h.map_assign(f32::tanh),
                Activation::Identity => {}
            }
            h = layer.infer(store, &h);
        }
        h
    }

    /// The underlying layers.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = Linear::new(&mut store, "fc", 4, 3, Activation::Identity, &mut rng);
        let mut t = Tape::new(&store);
        let x = t.input(Matrix::zeros(5, 4));
        let y = layer.forward(&mut t, x);
        assert_eq!((y.rows(), y.cols()), (5, 3));
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[3, 8, 2], Activation::LeakyRelu, &mut rng);
        let x = crate::init::xavier_uniform(6, 3, &mut rng);
        let mut t = Tape::new(&store);
        let xv = t.input(x.clone());
        let y = mlp.forward(&mut t, xv);
        let y_infer = mlp.infer(&store, &x);
        assert!(t.value(y).max_abs_diff(&y_infer) < 1e-6);
    }

    #[test]
    fn mlp_learns_xor() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "xor", &[2, 8, 1], Activation::Tanh, &mut rng);
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let targets = [0.0, 1.0, 1.0, 0.0];
        let mut opt = Adam::new(0.05);
        let mut final_loss = f32::MAX;
        for _ in 0..500 {
            let mut t = Tape::new(&store);
            let xv = t.input(x.clone());
            let logits = mlp.forward(&mut t, xv);
            let loss = t.bce_with_logits(logits, &targets);
            final_loss = t.scalar(loss);
            let grads = t.backward(loss);
            opt.step(&mut store, &grads);
        }
        assert!(final_loss < 0.1, "XOR did not converge: loss {final_loss}");
        let preds = mlp.infer(&store, &x);
        for (i, &t) in targets.iter().enumerate() {
            let p = crate::tape::stable_sigmoid(preds.get(i, 0));
            assert!((p - t).abs() < 0.3, "sample {i}: pred {p} target {t}");
        }
    }

    #[test]
    fn param_ids_cover_all_layers() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[3, 5, 4, 1], Activation::Relu, &mut rng);
        assert_eq!(mlp.layers().len(), 3);
        assert_eq!(store.len(), 6);
        assert_eq!(store.get(mlp.layers()[0].weight()).shape(), (3, 5));
        assert_eq!(store.get(mlp.layers()[2].weight()).shape(), (4, 1));
    }
}
