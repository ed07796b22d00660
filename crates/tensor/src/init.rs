//! Weight initialisation schemes.
//!
//! All initialisers are deterministic given the caller's RNG, which keeps
//! every experiment in the workspace reproducible from a single seed.

use crate::matrix::Matrix;
use rand::Rng;

/// Uniform initialisation in `[-limit, limit]`.
pub(crate) fn uniform(rows: usize, cols: usize, limit: f32, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-limit..=limit))
}

/// Xavier/Glorot uniform initialisation: `limit = sqrt(6 / (fan_in + fan_out))`.
///
/// Appropriate for the sigmoid/tanh-free linear layers and the final
/// sigmoid output layer used by HiGNN's predictors.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let limit = (6.0 / (rows + cols) as f32).sqrt();
    uniform(rows, cols, limit, rng)
}

/// He (Kaiming) uniform initialisation: `limit = sqrt(6 / fan_in)`.
///
/// Appropriate for leaky-ReLU hidden layers (the paper uses leaky ReLU
/// throughout its fully connected stacks).
pub fn he_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let limit = (6.0 / rows as f32).sqrt();
    uniform(rows, cols, limit, rng)
}

/// Approximately standard-normal initialisation scaled by `std`.
///
/// Uses the sum-of-uniforms (Irwin-Hall) approximation so we do not need a
/// dedicated normal distribution dependency; 12 uniform draws give a
/// distribution with mean 0 and variance 1 that is normal to well within
/// the tolerance any initialiser requires.
pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        let s: f32 = (0..12).map(|_| rng.gen_range(0.0f32..1.0)).sum::<f32>() - 6.0;
        s * std
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = xavier_uniform(64, 32, &mut rng);
        let limit = (6.0f32 / 96.0).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= limit + 1e-6));
        // Not degenerate: plenty of distinct values.
        assert!(w.data().iter().any(|&v| v > limit * 0.5));
        assert!(w.data().iter().any(|&v| v < -limit * 0.5));
    }

    #[test]
    fn he_within_limit() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = he_uniform(100, 10, &mut rng);
        let limit = (6.0f32 / 100.0).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= limit + 1e-6));
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = normal(200, 50, 2.0, &mut rng);
        let mean = w.mean();
        let var = w.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>()
            / (w.len() as f32 - 1.0);
        assert!(mean.abs() < 0.05, "mean {}", mean);
        assert!((var - 4.0).abs() < 0.2, "var {}", var);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(xavier_uniform(8, 8, &mut a), xavier_uniform(8, 8, &mut b));
    }
}
