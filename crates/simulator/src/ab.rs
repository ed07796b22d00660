//! Two-arm A/B serving simulation (paper Table IV and Section V.D.4).
//!
//! The simulator replays identical visit streams through a control and a
//! treatment ranking policy. Per session it draws a visiting user and a
//! candidate item pool, each arm ranks and shows its top items, and the
//! simulated user clicks/purchases according to the *planted* behaviour
//! model of the dataset's [`GroundTruth`] (affinity + quality logistic
//! with position bias). Common random numbers — the same click/purchase
//! uniforms for both arms — remove almost all cross-arm noise, so ranking
//! quality differences surface directly in UV / CNT / CTR / CVR lifts.

use crate::ranker::Ranker;
use hignn_datasets::GroundTruth;
use hignn_metrics::{AbComparison, ArmStats};
use hignn_tensor::stable_sigmoid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Configuration of the serving simulation.
#[derive(Clone, Debug)]
pub struct AbConfig {
    /// Sessions simulated per day.
    pub sessions_per_day: usize,
    /// Items shown per session.
    pub items_per_page: usize,
    /// Candidate pool size sampled per session.
    pub candidates: usize,
    /// Number of days (the paper reports two).
    pub days: usize,
    /// Click-logit intercept.
    pub click_base_logit: f32,
    /// Click-logit gain on centred affinity.
    pub click_affinity_gain: f32,
    /// Click-logit gain on item quality.
    pub click_quality_gain: f32,
    /// Multiplicative position-bias decay per rank.
    pub position_decay: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AbConfig {
    fn default() -> Self {
        AbConfig {
            sessions_per_day: 20_000,
            items_per_page: 6,
            candidates: 40,
            days: 2,
            click_base_logit: -1.2,
            click_affinity_gain: 3.0,
            click_quality_gain: 0.5,
            position_decay: 0.9,
            seed: 99,
        }
    }
}

/// Per-day outcome of an A/B run.
#[derive(Clone, Debug)]
pub struct AbOutcome {
    /// One comparison per simulated day.
    pub days: Vec<AbComparison>,
}

impl AbOutcome {
    /// Aggregates all days into one comparison.
    pub fn total(&self) -> AbComparison {
        let sum = |pick: fn(&AbComparison) -> ArmStats| -> ArmStats {
            let mut acc = ArmStats::default();
            for d in &self.days {
                let a = pick(d);
                acc.visits += a.visits;
                acc.clicks += a.clicks;
                acc.unique_clicked_visitors += a.unique_clicked_visitors;
                acc.transactions += a.transactions;
            }
            acc
        };
        AbComparison { control: sum(|d| d.control), treatment: sum(|d| d.treatment) }
    }
}

/// Runs a control-vs-treatment A/B test over the planted behaviour model.
///
/// `candidate_pool` restricts the items eligible for recommendation (the
/// paper's online test serves *new arrival products*); pass all items for
/// an unrestricted run.
pub fn run_ab(
    truth: &GroundTruth,
    candidate_pool: &[u32],
    control: &dyn Ranker,
    treatment: &dyn Ranker,
    cfg: &AbConfig,
) -> AbOutcome {
    assert!(!candidate_pool.is_empty(), "run_ab: empty candidate pool");
    assert!(cfg.items_per_page <= cfg.candidates, "run_ab: page larger than pool");
    let num_users = truth.user_paths.len();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut days = Vec::with_capacity(cfg.days);

    for _day in 0..cfg.days {
        let mut arms = [ArmStats::default(), ArmStats::default()];
        let mut clicked_users: [HashSet<u32>; 2] = [HashSet::new(), HashSet::new()];
        for _session in 0..cfg.sessions_per_day {
            let user = rng.gen_range(0..num_users);
            // Candidate pool for this session (without replacement-ish).
            let candidates: Vec<u32> = (0..cfg.candidates)
                .map(|_| candidate_pool[rng.gen_range(0..candidate_pool.len())])
                .collect();
            // Common random numbers for both arms.
            let click_u: Vec<f32> =
                (0..cfg.items_per_page).map(|_| rng.gen_range(0.0f32..1.0)).collect();
            let buy_u: Vec<f32> =
                (0..cfg.items_per_page).map(|_| rng.gen_range(0.0f32..1.0)).collect();

            for (arm_idx, ranker) in [control, treatment].into_iter().enumerate() {
                let scores = ranker.score(user, &candidates);
                debug_assert_eq!(scores.len(), candidates.len());
                let mut order: Vec<usize> = (0..candidates.len()).collect();
                // NaN scores rank last; otherwise descending, ties by slot.
                order.sort_by(|&a, &b| {
                    (scores[a].is_nan().cmp(&scores[b].is_nan()))
                        .then(scores[b].total_cmp(&scores[a]))
                        .then(a.cmp(&b))
                });
                let arm = &mut arms[arm_idx];
                for (rank, &slot) in order.iter().take(cfg.items_per_page).enumerate() {
                    let item = candidates[slot] as usize;
                    arm.visits += 1;
                    let affinity = truth.affinity(user, item);
                    let p_click = stable_sigmoid(
                        cfg.click_base_logit
                            + cfg.click_affinity_gain * (affinity - 0.5)
                            + cfg.click_quality_gain * truth.item_quality[item],
                    ) * cfg.position_decay.powi(rank as i32);
                    if click_u[rank] < p_click {
                        arm.clicks += 1;
                        clicked_users[arm_idx].insert(user as u32);
                        if buy_u[rank] < truth.purchase_prob(user, item) {
                            arm.transactions += 1;
                        }
                    }
                }
            }
        }
        arms[0].unique_clicked_visitors = clicked_users[0].len() as u64;
        arms[1].unique_clicked_visitors = clicked_users[1].len() as u64;
        days.push(AbComparison { control: arms[0], treatment: arms[1] });
    }
    AbOutcome { days }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranker::{RandomRanker, ScoreFnRanker};
    use hignn_datasets::taobao::{generate_taobao, TaobaoConfig};

    fn tiny_truth() -> GroundTruth {
        let cfg = TaobaoConfig {
            num_users: 150,
            num_items: 120,
            train_interactions: 2000,
            test_interactions: 100,
            branching: vec![3, 3],
            num_categories: 10,
            focus: 0.8,
            base_purchase_logit: -1.0,
            affinity_gain: 2.5,
            quality_gain: 0.5,
            feature_dim: 4,
            max_history: 5,
            seed: 31,
        };
        generate_taobao(&cfg).truth
    }

    fn tiny_ab() -> AbConfig {
        AbConfig { sessions_per_day: 600, days: 2, candidates: 20, items_per_page: 4, ..Default::default() }
    }

    #[test]
    fn oracle_beats_random() {
        let truth = tiny_truth();
        let pool: Vec<u32> = (0..120).collect();
        let oracle = ScoreFnRanker::new("oracle", |u, c| {
            c.iter().map(|&i| truth.affinity(u, i as usize)).collect()
        });
        let random = RandomRanker::new(3);
        let outcome = run_ab(&truth, &pool, &random, &oracle, &tiny_ab());
        let total = outcome.total();
        assert!(
            total.ctr_lift() > 5.0,
            "oracle CTR lift too small: {:+.2}%",
            total.ctr_lift()
        );
        assert!(total.cnt_lift() > 5.0, "CNT lift {:+.2}%", total.cnt_lift());
    }

    #[test]
    fn nan_scores_rank_like_the_lowest_score() {
        // A ranker emitting NaN must not panic the page sort.
        let truth = tiny_truth();
        let pool: Vec<u32> = (0..120).collect();
        let scorer = |hole: f32| {
            let truth = &truth;
            ScoreFnRanker::new("holey", move |u, c: &[u32]| {
                c.iter()
                    .map(|&i| if i % 3 == 0 { hole } else { truth.affinity(u, i as usize) })
                    .collect()
            })
        };
        let outcome =
            run_ab(&truth, &pool, &scorer(f32::NEG_INFINITY), &scorer(f32::NAN), &tiny_ab());
        let total = outcome.total();
        assert_eq!(total.control, total.treatment);
    }

    #[test]
    fn identical_rankers_tie() {
        let truth = tiny_truth();
        let pool: Vec<u32> = (0..120).collect();
        let a = RandomRanker::new(5);
        let b = RandomRanker::new(5);
        let outcome = run_ab(&truth, &pool, &a, &b, &tiny_ab());
        let total = outcome.total();
        // Same policy + common random numbers = exactly identical arms.
        assert_eq!(total.control, total.treatment);
        assert_eq!(total.ctr_lift(), 0.0);
    }

    #[test]
    fn produces_one_comparison_per_day() {
        let truth = tiny_truth();
        let pool: Vec<u32> = (0..120).collect();
        let a = RandomRanker::new(1);
        let b = RandomRanker::new(2);
        let cfg = AbConfig { days: 3, sessions_per_day: 50, candidates: 10, items_per_page: 3, ..Default::default() };
        let outcome = run_ab(&truth, &pool, &a, &b, &cfg);
        assert_eq!(outcome.days.len(), 3);
        for d in &outcome.days {
            assert_eq!(d.control.visits, 150);
            assert_eq!(d.treatment.visits, 150);
        }
    }

    #[test]
    fn restricted_pool_only_serves_pool_items() {
        let truth = tiny_truth();
        // Pool of a single item: every visit shows it; CTR is defined.
        let pool = vec![7u32];
        let a = RandomRanker::new(1);
        let b = RandomRanker::new(2);
        let cfg = AbConfig { days: 1, sessions_per_day: 30, candidates: 3, items_per_page: 2, ..Default::default() };
        let outcome = run_ab(&truth, &pool, &a, &b, &cfg);
        assert_eq!(outcome.days[0].control.visits, 60);
    }

    #[test]
    fn position_bias_reduces_clicks_down_the_page() {
        // With a ranker whose ordering is stable, lower positions should
        // accumulate fewer clicks thanks to position_decay < 1. We check
        // indirectly: decay 1.0 vs 0.5 must change total clicks.
        let truth = tiny_truth();
        let pool: Vec<u32> = (0..120).collect();
        let a = RandomRanker::new(9);
        let run = |decay: f32| {
            let cfg = AbConfig {
                sessions_per_day: 400,
                days: 1,
                candidates: 10,
                items_per_page: 5,
                position_decay: decay,
                seed: 21,
                ..Default::default()
            };
            run_ab(&truth, &pool, &a, &a, &cfg).total().control.clicks
        };
        let no_decay = run(1.0);
        let strong_decay = run(0.5);
        assert!(
            strong_decay < no_decay,
            "decay 0.5 clicks {strong_decay} !< decay 1.0 clicks {no_decay}"
        );
    }

    #[test]
    #[should_panic(expected = "page larger than pool")]
    fn oversized_page_rejected() {
        let truth = tiny_truth();
        let a = RandomRanker::new(1);
        let cfg = AbConfig { candidates: 3, items_per_page: 5, ..Default::default() };
        run_ab(&truth, &[1], &a, &a, &cfg);
    }

    #[test]
    #[should_panic(expected = "empty candidate pool")]
    fn empty_pool_rejected() {
        let truth = tiny_truth();
        let a = RandomRanker::new(1);
        run_ab(&truth, &[], &a, &a, &tiny_ab());
    }
}
