//! Ranking policies served by the simulator.
//!
//! A [`Ranker`] scores candidate items for a user; the serving loop shows
//! the top-scored items. Model-backed rankers (HiGNN predictor, DIN) are
//! wrapped via [`ScoreFnRanker`]; [`PopularityRanker`] and
//! [`RandomRanker`] provide non-personalised controls; and
//! [`TopicAffinityRanker`] recommends within the topics a user has
//! historically clicked — the taxonomy-matched recommendation policy of
//! the paper's Section V.D.4 A/B test.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A serving-time ranking policy.
pub trait Ranker {
    /// Scores each candidate item for `user` (higher = ranked earlier).
    fn score(&self, user: usize, candidates: &[u32]) -> Vec<f32>;

    /// Display name.
    fn name(&self) -> &str;
}

/// The boxed scoring function wrapped by [`ScoreFnRanker`].
pub(crate) type ScoreFn<'a> = Box<dyn Fn(usize, &[u32]) -> Vec<f32> + 'a>;

/// Wraps any scoring closure as a ranker.
pub struct ScoreFnRanker<'a> {
    name: String,
    f: ScoreFn<'a>,
}

impl<'a> ScoreFnRanker<'a> {
    /// Creates a ranker from a batch scoring function.
    pub fn new(name: impl Into<String>, f: impl Fn(usize, &[u32]) -> Vec<f32> + 'a) -> Self {
        ScoreFnRanker { name: name.into(), f: Box::new(f) }
    }
}

impl Ranker for ScoreFnRanker<'_> {
    fn score(&self, user: usize, candidates: &[u32]) -> Vec<f32> {
        (self.f)(user, candidates)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Ranks by a static per-item popularity score.
pub struct PopularityRanker {
    scores: Vec<f32>,
}

impl PopularityRanker {
    /// Creates a ranker from per-item popularity values.
    pub fn new(scores: Vec<f32>) -> Self {
        PopularityRanker { scores }
    }
}

impl Ranker for PopularityRanker {
    fn score(&self, _user: usize, candidates: &[u32]) -> Vec<f32> {
        candidates.iter().map(|&i| self.scores[i as usize]).collect()
    }

    fn name(&self) -> &str {
        "popularity"
    }
}

/// Random ranking (deterministic per `(user, item)` pair so A/B reruns
/// are stable).
pub struct RandomRanker {
    seed: u64,
}

impl RandomRanker {
    /// Creates a random ranker with a fixed seed.
    pub fn new(seed: u64) -> Self {
        RandomRanker { seed }
    }
}

impl Ranker for RandomRanker {
    fn score(&self, user: usize, candidates: &[u32]) -> Vec<f32> {
        candidates
            .iter()
            .map(|&i| {
                let mut rng =
                    StdRng::seed_from_u64(self.seed ^ (user as u64) << 32 ^ i as u64);
                rng.gen_range(0.0f32..1.0)
            })
            .collect()
    }

    fn name(&self) -> &str {
        "random"
    }
}

/// Taxonomy-matched recommendations: an item scores by how much click
/// mass its topic received from this user's history, with a small
/// popularity tiebreak. The quality of the *topic assignment* directly
/// drives the quality of the ranking — which is exactly what the
/// Section V.D.4 A/B test measures (HiGNN topics vs SHOAL topics).
pub struct TopicAffinityRanker {
    name: String,
    /// Item → topic id.
    item_topic: Vec<u32>,
    /// Per-user click mass per topic (dense, `num_topics` wide).
    user_topic_mass: Vec<Vec<f32>>,
    /// Popularity tiebreak per item, scaled small.
    popularity: Vec<f32>,
}

impl TopicAffinityRanker {
    /// Builds the ranker from a topic assignment and user click
    /// histories (`histories[u]` lists clicked item ids).
    pub fn new(
        name: impl Into<String>,
        item_topic: Vec<u32>,
        histories: &[Vec<u32>],
        popularity: Vec<f32>,
    ) -> Self {
        let num_topics = item_topic.iter().copied().max().map_or(1, |m| m as usize + 1);
        let user_topic_mass = histories
            .iter()
            .map(|h| {
                let mut mass = vec![0f32; num_topics];
                for &i in h {
                    mass[item_topic[i as usize] as usize] += 1.0;
                }
                // Normalise so users with long histories don't dominate.
                let total: f32 = mass.iter().sum();
                if total > 0.0 {
                    for m in &mut mass {
                        *m /= total;
                    }
                }
                mass
            })
            .collect();
        let max_pop = popularity.iter().cloned().fold(1e-9f32, f32::max);
        let popularity = popularity.iter().map(|&p| 0.01 * p / max_pop).collect();
        TopicAffinityRanker { name: name.into(), item_topic, user_topic_mass, popularity }
    }
}

impl Ranker for TopicAffinityRanker {
    fn score(&self, user: usize, candidates: &[u32]) -> Vec<f32> {
        let mass = &self.user_topic_mass[user];
        candidates
            .iter()
            .map(|&i| {
                mass[self.item_topic[i as usize] as usize] + self.popularity[i as usize]
            })
            .collect()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popularity_ranks_by_score() {
        let r = PopularityRanker::new(vec![0.1, 0.9, 0.5]);
        let s = r.score(0, &[0, 1, 2]);
        assert!(s[1] > s[2] && s[2] > s[0]);
    }

    #[test]
    fn random_is_deterministic_per_pair() {
        let r = RandomRanker::new(7);
        assert_eq!(r.score(3, &[1, 2]), r.score(3, &[1, 2]));
        assert_ne!(r.score(3, &[1]), r.score(4, &[1]));
    }

    #[test]
    fn topic_affinity_prefers_history_topics() {
        // Items 0,1 in topic 0; items 2,3 in topic 1.
        let item_topic = vec![0, 0, 1, 1];
        let histories = vec![vec![0, 0, 1], vec![2, 3]];
        let r = TopicAffinityRanker::new("t", item_topic, &histories, vec![1.0; 4]);
        let s0 = r.score(0, &[1, 2]);
        assert!(s0[0] > s0[1], "user 0 should prefer topic 0: {s0:?}");
        let s1 = r.score(1, &[1, 2]);
        assert!(s1[1] > s1[0], "user 1 should prefer topic 1: {s1:?}");
    }

    #[test]
    fn empty_history_falls_back_to_popularity() {
        let item_topic = vec![0, 1];
        let histories = vec![vec![]];
        let r = TopicAffinityRanker::new("t", item_topic, &histories, vec![1.0, 5.0]);
        let s = r.score(0, &[0, 1]);
        assert!(s[1] > s[0]);
    }

    #[test]
    fn score_fn_wrapper() {
        let r = ScoreFnRanker::new("wrapped", |u, c| {
            c.iter().map(|&i| (u as f32) + i as f32).collect()
        });
        assert_eq!(r.name(), "wrapped");
        assert_eq!(r.score(1, &[0, 2]), vec![1.0, 3.0]);
    }
}
