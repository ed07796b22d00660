//! DIN — Deep Interest Network (Zhou et al., KDD 2018), the paper's
//! graph-free comparator.
//!
//! *"A popular deep neural network method without graph structure
//! information and hierarchical information ... can be regarded as a
//! special case of our proposed method at level 0 (L = 0)."* (Sec. IV.B.2)
//!
//! This implementation follows DIN's core idea: a trainable item-id
//! embedding table, a local-activation unit scoring each history item
//! against the candidate (sigmoid gate, *unnormalised* weighted sum
//! pooling as in the original paper), and an MLP over
//! `concat(interest, candidate, user profile, item stats)`.

use hignn::predictor::Sample;
use hignn_tensor::nn::{Activation, Mlp};
use hignn_tensor::optim::Adam;
use hignn_tensor::{init, stable_sigmoid, Matrix, ParamId, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters of the DIN baseline.
#[derive(Clone, Debug)]
pub struct DinConfig {
    /// Item-id embedding dimensionality.
    pub embed_dim: usize,
    /// History items attended per sample (shorter histories are padded
    /// with a zero-embedding null item).
    pub history_len: usize,
    /// Hidden widths of the activation unit.
    pub attention_hidden: usize,
    /// Hidden widths of the prediction MLP.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub lr: f32,
    /// Minibatch size.
    pub batch: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DinConfig {
    fn default() -> Self {
        DinConfig {
            embed_dim: 16,
            history_len: 10,
            attention_hidden: 32,
            hidden: vec![128, 64],
            lr: 1e-3,
            batch: 512,
            epochs: 3,
            weight_decay: 1e-5,
            seed: 0,
        }
    }
}

/// A trained DIN model.
pub struct DinModel {
    cfg: DinConfig,
    store: ParamStore,
    embeddings: ParamId,
    attention: Mlp,
    head: Mlp,
    num_items: usize,
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
}

impl DinModel {
    /// Trains DIN on `train` samples.
    ///
    /// `histories[u]` lists user `u`'s clicked items; `user_profiles` and
    /// `item_stats` are the same side features the HiGNN predictor uses.
    pub fn train(
        num_items: usize,
        histories: &[Vec<u32>],
        user_profiles: &Matrix,
        item_stats: &Matrix,
        train: &[Sample],
        cfg: &DinConfig,
    ) -> Self {
        assert!(!train.is_empty(), "DinModel: empty training set");
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD19);
        let mut store = ParamStore::new();
        // Item embedding table with one extra zero row for padding.
        let embeddings = store.add(
            "din.items",
            init::normal(num_items + 1, cfg.embed_dim, 0.05, &mut rng),
        );
        // Activation unit: concat(e_hist, e_cand, e_hist ⊙ e_cand) -> score.
        let attention = Mlp::new(
            &mut store,
            "din.att",
            &[3 * cfg.embed_dim, cfg.attention_hidden, 1],
            Activation::LeakyRelu,
            &mut rng,
        );
        let head_in = 2 * cfg.embed_dim + user_profiles.cols() + item_stats.cols();
        let mut dims = vec![head_in];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(1);
        let head = Mlp::new(&mut store, "din.head", &dims, Activation::LeakyRelu, &mut rng);

        let mut model = DinModel {
            cfg: cfg.clone(),
            store,
            embeddings,
            attention,
            head,
            num_items,
            epoch_losses: Vec::new(),
        };
        let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
        let mut order: Vec<usize> = (0..train.len()).collect();
        for _ in 0..cfg.epochs {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut total = 0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch) {
                let batch: Vec<Sample> = chunk.iter().map(|&k| train[k]).collect();
                let targets: Vec<f32> =
                    batch.iter().map(|s| if s.label { 1.0 } else { 0.0 }).collect();
                let mut tape = Tape::new(&model.store);
                let logits =
                    model.forward(&mut tape, histories, user_profiles, item_stats, &batch);
                let loss = tape.bce_with_logits(logits, &targets);
                total += tape.scalar(loss) as f64;
                batches += 1;
                let grads = tape.backward(loss);
                opt.step(&mut model.store, &grads);
            }
            model.epoch_losses.push((total / batches.max(1) as f64) as f32);
        }
        model
    }

    /// Builds the DIN forward graph for a batch, returning logits.
    fn forward(
        &self,
        tape: &mut Tape,
        histories: &[Vec<u32>],
        user_profiles: &Matrix,
        item_stats: &Matrix,
        batch: &[Sample],
    ) -> hignn_tensor::Var {
        let t = self.cfg.history_len;
        let pad = self.num_items; // zero-embedding row
        let emb = tape.param(self.embeddings);
        // History indices (B*T) and candidate indices repeated (B*T).
        let mut hist_idx = Vec::with_capacity(batch.len() * t);
        let mut cand_rep_idx = Vec::with_capacity(batch.len() * t);
        let mut cand_idx = Vec::with_capacity(batch.len());
        for s in batch {
            let h = &histories[s.user as usize];
            for k in 0..t {
                hist_idx.push(h.get(k).map_or(pad, |&i| i as usize));
                cand_rep_idx.push(s.item as usize);
            }
            cand_idx.push(s.item as usize);
        }
        let e_hist = tape.gather_rows(emb, &hist_idx);
        let e_cand_rep = tape.gather_rows(emb, &cand_rep_idx);
        let e_cand = tape.gather_rows(emb, &cand_idx);
        // Local activation unit.
        let prod = tape.mul(e_hist, e_cand_rep);
        let att_in = tape.concat_cols(&[e_hist, e_cand_rep, prod]);
        let att_logit = self.attention.forward(tape, att_in);
        let att = tape.sigmoid(att_logit);
        // Unnormalised weighted sum pooling (padding rows are zero
        // embeddings, so they contribute nothing).
        let weighted = tape.mul_col_broadcast(e_hist, att);
        let pooled_mean = tape.mean_pool_rows(weighted, t);
        let interest = tape.scale(pooled_mean, t as f32);
        // Prediction head.
        let profiles = tape.input(user_profiles.gather_rows(
            &batch.iter().map(|s| s.user as usize).collect::<Vec<_>>(),
        ));
        let stats = tape.input(item_stats.gather_rows(
            &batch.iter().map(|s| s.item as usize).collect::<Vec<_>>(),
        ));
        let head_in = tape.concat_cols(&[interest, e_cand, profiles, stats]);
        self.head.forward(tape, head_in)
    }

    /// Predicted conversion probabilities for `samples`.
    pub fn predict(
        &self,
        histories: &[Vec<u32>],
        user_profiles: &Matrix,
        item_stats: &Matrix,
        samples: &[Sample],
    ) -> Vec<f32> {
        let mut out = Vec::with_capacity(samples.len());
        for chunk in samples.chunks(2048) {
            let mut tape = Tape::new(&self.store);
            let logits = self.forward(&mut tape, histories, user_profiles, item_stats, chunk);
            let lm = tape.value(logits);
            out.extend((0..chunk.len()).map(|k| stable_sigmoid(lm.get(k, 0))));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hignn_metrics::auc;

    /// Synthetic task: each item has a latent type 0/1; users only buy
    /// items whose type matches the majority type of their history.
    #[allow(clippy::type_complexity)]
    fn synthetic() -> (usize, Vec<Vec<u32>>, Matrix, Matrix, Vec<Sample>, Vec<Sample>) {
        let mut rng = StdRng::seed_from_u64(5);
        let num_items = 40;
        let num_users = 50;
        let item_type: Vec<u32> = (0..num_items).map(|i| (i % 2) as u32).collect();
        let histories: Vec<Vec<u32>> = (0..num_users)
            .map(|u| {
                let ty = (u % 2) as u32;
                (0..6)
                    .map(|_| {
                        let mut i = rng.gen_range(0..num_items as u32);
                        while item_type[i as usize] != ty {
                            i = rng.gen_range(0..num_items as u32);
                        }
                        i
                    })
                    .collect()
            })
            .collect();
        let up = Matrix::zeros(num_users, 1);
        let is = Matrix::zeros(num_items, 1);
        let mut samples = Vec::new();
        for u in 0..num_users as u32 {
            for _ in 0..20 {
                let i = rng.gen_range(0..num_items as u32);
                let label = item_type[i as usize] == (u % 2);
                samples.push(Sample { user: u, item: i, label });
            }
        }
        let test = samples.split_off(samples.len() * 4 / 5);
        (num_items, histories, up, is, samples, test)
    }

    #[test]
    fn din_learns_history_signal() {
        let (num_items, histories, up, is, train, test) = synthetic();
        let cfg = DinConfig {
            embed_dim: 8,
            history_len: 6,
            attention_hidden: 16,
            hidden: vec![32],
            epochs: 15,
            batch: 128,
            lr: 5e-3,
            ..Default::default()
        };
        let model = DinModel::train(num_items, &histories, &up, &is, &train, &cfg);
        let probs = model.predict(&histories, &up, &is, &test);
        let labels: Vec<bool> = test.iter().map(|s| s.label).collect();
        let a = auc(&probs, &labels);
        assert!(a > 0.85, "DIN AUC {a}");
        assert!(model.epoch_losses.last().unwrap() < &model.epoch_losses[0]);
    }

    #[test]
    fn handles_empty_histories() {
        let (num_items, _, up, is, train, test) = synthetic();
        let empty: Vec<Vec<u32>> = vec![Vec::new(); 50];
        let cfg = DinConfig { embed_dim: 4, history_len: 4, hidden: vec![8], epochs: 1, batch: 64, ..Default::default() };
        let model = DinModel::train(num_items, &empty, &up, &is, &train, &cfg);
        let probs = model.predict(&empty, &up, &is, &test);
        assert_eq!(probs.len(), test.len());
        assert!(probs.iter().all(|p| p.is_finite() && (0.0..=1.0).contains(p)));
    }
}
