//! Supervised deep neural network with HiGNN (paper Section IV.A, Fig. 2).
//!
//! The predictor concatenates, per `(user, item)` sample:
//!
//! * the hierarchical user preference `z_u^H` (optional — `HIA-only`
//!   ablation drops it),
//! * the hierarchical item attractiveness `z_i^H` (optional — `HUP-only`
//!   drops it),
//! * user profile features (gender, purchasing power, ...),
//! * item statistic features (click count, purchase count, ...),
//!
//! and feeds the result through fully connected layers (the paper uses
//! 256/128/64 with leaky ReLU, sigmoid output, cross-entropy loss Eq. 7,
//! lr 1e-3, batch 1024, L2 regularisation).

use hignn_tensor::nn::{Activation, Mlp};
use hignn_tensor::optim::Adam;
use hignn_tensor::{stable_sigmoid, Matrix, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One labelled `(user, item)` pair (structurally identical to
/// `hignn_datasets::Sample`; the two crates stay decoupled because the
/// core library must not depend on the synthetic data generators).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// User id.
    pub user: u32,
    /// Item id.
    pub item: u32,
    /// Conversion label.
    pub label: bool,
}

impl Sample {
    /// Convenience constructor.
    pub fn new(user: u32, item: u32, label: bool) -> Self {
        Sample { user, item, label }
    }
}

/// The per-entity feature blocks the predictor consumes.
#[derive(Clone, Copy)]
pub struct FeatureBlocks<'a> {
    /// Hierarchical user embeddings (`num_users x d_u^H`), or `None` for
    /// the HIA-only ablation.
    pub user_hier: Option<&'a Matrix>,
    /// Hierarchical item embeddings, or `None` for HUP-only.
    pub item_hier: Option<&'a Matrix>,
    /// User profile features (`num_users x p`).
    pub user_profiles: &'a Matrix,
    /// Item statistic features (`num_items x q`).
    pub item_stats: &'a Matrix,
}

impl<'a> FeatureBlocks<'a> {
    /// Total input dimensionality per sample.
    pub fn input_dim(&self) -> usize {
        self.user_hier.map_or(0, Matrix::cols)
            + self.item_hier.map_or(0, Matrix::cols)
            + self.user_profiles.cols()
            + self.item_stats.cols()
    }

    /// Assembles the input matrix for a slice of samples.
    pub(crate) fn assemble(&self, samples: &[Sample]) -> Matrix {
        let d = self.input_dim();
        let mut out = Matrix::zeros(samples.len(), d);
        for (k, s) in samples.iter().enumerate() {
            let row = out.row_mut(k);
            let mut off = 0;
            if let Some(uh) = self.user_hier {
                let src = uh.row(s.user as usize);
                row[off..off + src.len()].copy_from_slice(src);
                off += src.len();
            }
            if let Some(ih) = self.item_hier {
                let src = ih.row(s.item as usize);
                row[off..off + src.len()].copy_from_slice(src);
                off += src.len();
            }
            let src = self.user_profiles.row(s.user as usize);
            row[off..off + src.len()].copy_from_slice(src);
            off += src.len();
            let src = self.item_stats.row(s.item as usize);
            row[off..off + src.len()].copy_from_slice(src);
        }
        out
    }
}

/// Hyper-parameters of the prediction head.
#[derive(Clone, Debug)]
pub struct PredictorConfig {
    /// Hidden layer widths (paper: 256, 128, 64).
    pub hidden: Vec<usize>,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// Minibatch size (paper: 1024).
    pub batch: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Decoupled weight decay (the paper's L2 regularisation).
    pub weight_decay: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            hidden: vec![256, 128, 64],
            lr: 1e-3,
            batch: 1024,
            epochs: 3,
            weight_decay: 1e-5,
            seed: 0,
        }
    }
}

/// A trained CVR/CTR prediction network.
pub struct CvrPredictor {
    mlp: Mlp,
    store: ParamStore,
    input_dim: usize,
    /// Mean training loss per epoch (diagnostic).
    pub epoch_losses: Vec<f32>,
}

impl CvrPredictor {
    /// Trains the predictor on `train` samples with the given feature
    /// blocks.
    pub fn train(features: &FeatureBlocks, train: &[Sample], cfg: &PredictorConfig) -> Self {
        assert!(!train.is_empty(), "CvrPredictor: empty training set");
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF17);
        let input_dim = features.input_dim();
        let mut dims = vec![input_dim];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(1);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "cvr", &dims, Activation::LeakyRelu, &mut rng);
        let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);

        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut total = 0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch) {
                let batch: Vec<Sample> = chunk.iter().map(|&k| train[k]).collect();
                let x = features.assemble(&batch);
                let targets: Vec<f32> =
                    batch.iter().map(|s| if s.label { 1.0 } else { 0.0 }).collect();
                let mut tape = Tape::new(&store);
                let xv = tape.input(x);
                let logits = mlp.forward(&mut tape, xv);
                let loss = tape.bce_with_logits(logits, &targets);
                total += tape.scalar(loss) as f64;
                batches += 1;
                let grads = tape.backward(loss);
                opt.step(&mut store, &grads);
            }
            epoch_losses.push((total / batches.max(1) as f64) as f32);
        }
        CvrPredictor { mlp, store, input_dim, epoch_losses }
    }

    /// Predicted conversion probabilities for `samples`.
    pub fn predict(&self, features: &FeatureBlocks, samples: &[Sample]) -> Vec<f32> {
        assert_eq!(features.input_dim(), self.input_dim, "feature dim mismatch");
        // Chunked inference keeps peak memory bounded.
        let mut out = Vec::with_capacity(samples.len());
        for chunk in samples.chunks(4096) {
            let x = features.assemble(chunk);
            let logits = self.mlp.infer(&self.store, &x);
            out.extend((0..chunk.len()).map(|k| stable_sigmoid(logits.get(k, 0))));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hignn_metrics::auc;
    use hignn_tensor::init;

    /// A synthetic task where the label depends on the dot product of the
    /// user and item "hierarchical" embeddings.
    fn synthetic() -> (Matrix, Matrix, Matrix, Matrix, Vec<Sample>, Vec<Sample>) {
        let mut rng = StdRng::seed_from_u64(3);
        let nu = 60;
        let ni = 40;
        let uh = init::xavier_uniform(nu, 6, &mut rng);
        let ih = init::xavier_uniform(ni, 6, &mut rng);
        let up = Matrix::zeros(nu, 2);
        let is = Matrix::zeros(ni, 2);
        let mut samples = Vec::new();
        for u in 0..nu {
            for i in 0..ni {
                let dot: f32 = uh.row(u).iter().zip(ih.row(i)).map(|(a, b)| a * b).sum();
                let label = dot > 0.0;
                samples.push(Sample { user: u as u32, item: i as u32, label });
            }
        }
        // Deterministic split.
        let test = samples.split_off(samples.len() * 4 / 5);
        (uh, ih, up, is, samples, test)
    }

    #[test]
    fn learns_dot_product_signal() {
        let (uh, ih, up, is, train, test) = synthetic();
        let features = FeatureBlocks {
            user_hier: Some(&uh),
            item_hier: Some(&ih),
            user_profiles: &up,
            item_stats: &is,
        };
        let cfg = PredictorConfig {
            hidden: vec![32, 16],
            batch: 128,
            epochs: 12,
            lr: 3e-3,
            ..Default::default()
        };
        let model = CvrPredictor::train(&features, &train, &cfg);
        let probs = model.predict(&features, &test);
        let labels: Vec<bool> = test.iter().map(|s| s.label).collect();
        let a = auc(&probs, &labels);
        assert!(a > 0.9, "AUC {a}");
        assert!(model.epoch_losses.last().unwrap() < &model.epoch_losses[0]);
    }

    #[test]
    fn ablations_change_input_dim() {
        let (uh, ih, up, is, ..) = synthetic();
        let full = FeatureBlocks {
            user_hier: Some(&uh),
            item_hier: Some(&ih),
            user_profiles: &up,
            item_stats: &is,
        };
        let hup = FeatureBlocks { item_hier: None, ..full };
        let hia = FeatureBlocks { user_hier: None, ..full };
        assert_eq!(full.input_dim(), 6 + 6 + 2 + 2);
        assert_eq!(hup.input_dim(), 6 + 2 + 2);
        assert_eq!(hia.input_dim(), 6 + 2 + 2);
    }

    #[test]
    fn assemble_layout() {
        let uh = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let ih = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        let up = Matrix::from_vec(1, 1, vec![5.0]);
        let is = Matrix::from_vec(1, 1, vec![6.0]);
        let f = FeatureBlocks {
            user_hier: Some(&uh),
            item_hier: Some(&ih),
            user_profiles: &up,
            item_stats: &is,
        };
        let x = f.assemble(&[Sample { user: 0, item: 0, label: true }]);
        assert_eq!(x.row(0), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn rejects_empty_training() {
        let up = Matrix::zeros(1, 1);
        let is = Matrix::zeros(1, 1);
        let f = FeatureBlocks { user_hier: None, item_hier: None, user_profiles: &up, item_stats: &is };
        CvrPredictor::train(&f, &[], &PredictorConfig::default());
    }

    #[test]
    #[should_panic(expected = "feature dim mismatch")]
    fn rejects_mismatched_features_at_predict() {
        let up = Matrix::zeros(2, 1);
        let is = Matrix::zeros(2, 1);
        let f = FeatureBlocks { user_hier: None, item_hier: None, user_profiles: &up, item_stats: &is };
        let cfg = PredictorConfig { hidden: vec![4], epochs: 1, batch: 4, ..Default::default() };
        let model = CvrPredictor::train(
            &f,
            &[Sample { user: 0, item: 0, label: true }, Sample { user: 1, item: 1, label: false }],
            &cfg,
        );
        let uh = Matrix::zeros(2, 3);
        let f2 = FeatureBlocks { user_hier: Some(&uh), ..f };
        model.predict(&f2, &[Sample { user: 0, item: 0, label: true }]);
    }
}
