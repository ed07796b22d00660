//! Finite-difference gradient checking.
//!
//! Every autograd op in this crate is validated against central
//! finite differences. The checker re-runs the caller's forward closure on
//! perturbed copies of the parameter store, so it works for any graph the
//! tape can express.

use crate::matrix::Matrix;
use crate::param::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// Computes the numerical gradient of `f` (a scalar-valued forward pass)
/// with respect to parameter `id`, via central differences with step `eps`.
pub(crate) fn numerical_grad(
    store: &ParamStore,
    id: ParamId,
    eps: f32,
    f: &mut dyn FnMut(&mut Tape) -> Var,
) -> Matrix {
    let shape = store.get(id).shape();
    let mut grad = Matrix::zeros(shape.0, shape.1);
    for i in 0..shape.0 {
        for j in 0..shape.1 {
            let eval = |delta: f32, f: &mut dyn FnMut(&mut Tape) -> Var| -> f32 {
                let mut perturbed = store.clone();
                let v = perturbed.get(id).get(i, j);
                perturbed.get_mut(id).set(i, j, v + delta);
                let mut tape = Tape::new(&perturbed);
                let out = f(&mut tape);
                tape.scalar(out)
            };
            let plus = eval(eps, f);
            let minus = eval(-eps, f);
            grad.set(i, j, (plus - minus) / (2.0 * eps));
        }
    }
    grad
}

/// Asserts that analytic gradients from [`Tape::backward`] match numerical
/// gradients for every parameter in `ids`.
///
/// `tol` is an absolute-plus-relative tolerance: the check fails when
/// `|analytic - numeric| > tol * (1 + |numeric|)` for any entry.
///
/// # Panics
/// Panics with a diagnostic message on mismatch — intended for use inside
/// tests.
pub fn check_param_grads(
    store: &ParamStore,
    ids: &[ParamId],
    eps: f32,
    tol: f32,
    mut f: impl FnMut(&mut Tape) -> Var,
) {
    // Analytic gradients.
    let mut tape = Tape::new(store);
    let loss = f(&mut tape);
    let analytic = tape.backward(loss);

    for &id in ids {
        let numeric = numerical_grad(store, id, eps, &mut f);
        let analytic_g = analytic
            .get(id)
            .unwrap_or_else(|| panic!("no analytic gradient for param `{}`", store.name(id)));
        assert_eq!(analytic_g.shape(), numeric.shape());
        for i in 0..numeric.rows() {
            for j in 0..numeric.cols() {
                let a = analytic_g.get(i, j);
                let n = numeric.get(i, j);
                let err = (a - n).abs();
                assert!(
                    err <= tol * (1.0 + n.abs()),
                    "grad mismatch for `{}`[{},{}]: analytic {} vs numeric {} (err {})",
                    store.name(id),
                    i,
                    j,
                    a,
                    n,
                    err
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numerical_grad_of_square() {
        let mut store = ParamStore::new();
        let p = store.add("p", Matrix::from_vec(1, 2, vec![3.0, -2.0]));
        let g = numerical_grad(&store, p, 1e-2, &mut |t| {
            let v = t.param(p);
            t.sum_squares(v)
        });
        assert!((g.get(0, 0) - 6.0).abs() < 1e-2);
        assert!((g.get(0, 1) + 4.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "grad mismatch")]
    fn check_detects_wrong_gradient() {
        let mut store = ParamStore::new();
        let p = store.add("p", Matrix::from_vec(1, 1, vec![2.0]));
        // Force a mismatch by pairing an absurdly sloppy eps (which ruins
        // the numeric estimate for a quadratic away from small steps) with
        // an absurdly tight tolerance.
        check_param_grads(&store, &[p], 10.0, 1e-9, |t| {
            let v = t.param(p);
            let sq = t.sum_squares(v);
            let cube_ish = t.mul(sq, v); // p^3: non-quadratic so large eps biases the estimate
            t.sum_all(cube_ish)
        });
    }
}
