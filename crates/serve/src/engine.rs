//! Coarse-to-fine beam search and exact exhaustive scoring.

use crate::model::ServeModel;
use hignn::error::HignnError;
use hignn_tensor::{Matrix, ParallelExecutor};
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// Default `k` for top-k requests.
pub const DEFAULT_TOP_K: usize = 10;

/// Default beam width (per tier). Wide enough that recall@10 stays high
/// on the synthetic benchmarks, narrow enough that descent visits a
/// small fraction of the catalogue.
pub const DEFAULT_BEAM_WIDTH: BeamWidth = BeamWidth::Finite(16);

/// How many branches survive at each tier of the descent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BeamWidth {
    /// Keep the best `n` nodes per tier (`n >= 1`).
    Finite(usize),
    /// Prune nothing. Guaranteed bitwise identical to
    /// [`ServeModel::exhaustive_top_k`].
    Infinite,
}

impl BeamWidth {
    /// How many nodes of a tier survive (everything when infinite).
    fn keep(self) -> usize {
        match self {
            BeamWidth::Finite(n) => n,
            BeamWidth::Infinite => usize::MAX,
        }
    }
}

impl FromStr for BeamWidth {
    type Err = String;

    fn from_str(s: &str) -> Result<BeamWidth, String> {
        match s {
            "inf" | "infinite" => Ok(BeamWidth::Infinite),
            _ => match s.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(BeamWidth::Finite(n)),
                _ => Err(format!(
                    "beam width must be a positive integer or `inf`, got `{s}`"
                )),
            },
        }
    }
}

impl fmt::Display for BeamWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BeamWidth::Finite(n) => write!(f, "{n}"),
            BeamWidth::Infinite => write!(f, "inf"),
        }
    }
}

/// One top-k request (used by [`ServeModel::serve_batch`]).
#[derive(Clone, Copy, Debug)]
pub struct TopKRequest {
    /// Original user id.
    pub user: usize,
    /// How many items to return.
    pub k: usize,
    /// Per-tier beam width.
    pub beam: BeamWidth,
}

/// One ranked recommendation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredItem {
    /// Original item id.
    pub item: u32,
    /// The Eq. 7 logit.
    pub score: f32,
}

/// The total ranking order: finite scores before NaN (a NaN score can
/// never outrank a real one — `total_cmp` alone would put positive NaN
/// *above* +inf), then score descending by `total_cmp` (deterministic
/// on every bit pattern), then item/node id ascending as the tie-break.
fn rank_cmp(a: &ScoredItem, b: &ScoredItem) -> Ordering {
    match (a.score.is_nan(), b.score.is_nan()) {
        (false, true) => Ordering::Less,
        (true, false) => Ordering::Greater,
        _ => b.score.total_cmp(&a.score).then(a.item.cmp(&b.item)),
    }
}

/// Cuts `items` down to its best `keep` under [`rank_cmp`], ranked. `rank_cmp` is a total order, so selecting the
/// head and sorting only it leaves exactly the prefix a full sort would
/// — without ordering the candidates nobody will read.
fn keep_best(items: &mut Vec<ScoredItem>, keep: usize) {
    if (1..items.len()).contains(&keep) {
        items.select_nth_unstable_by(keep - 1, rank_cmp);
    }
    items.truncate(keep);
    items.sort_unstable_by(rank_cmp);
}

/// Scores `ids` against `feats` rows for the user whose
/// [`crate::Scorer::user_prefix`] is `prefix`, and returns the best
/// `keep` of them, ranked.
fn rank(
    model: &ServeModel,
    prefix: &Matrix,
    feats: &Matrix,
    ids: &[u32],
    keep: usize,
) -> Vec<ScoredItem> {
    let scores = model.scorer().score_prefixed(prefix, feats, ids);
    let mut ranked: Vec<ScoredItem> = ids
        .iter()
        .zip(&scores)
        .map(|(&item, &score)| ScoredItem { item, score })
        .collect();
    keep_best(&mut ranked, keep);
    ranked
}

impl ServeModel {
    fn validate(&self, user: usize, k: usize) -> Result<(), HignnError> {
        if k == 0 {
            return Err(HignnError::Config("top-k request: k must be at least 1, got 0".into()));
        }
        if k > self.num_items() {
            return Err(HignnError::Config(format!(
                "top-k request: k = {k} exceeds the {} items in the model",
                self.num_items()
            )));
        }
        if user >= self.num_users() {
            return Err(HignnError::Config(format!(
                "top-k request: unknown user {user} (model covers users 0..{})",
                self.num_users()
            )));
        }
        Ok(())
    }

    /// Answers one top-k request by coarse-to-fine beam search.
    ///
    /// Tier `L` cluster representatives are scored first; the best
    /// `beam` nodes survive and their children are scored next, down to
    /// tier 1; the surviving leaves are re-ranked *exactly* on their
    /// true `z_i^H` features. `BeamWidth::Infinite` prunes nothing and
    /// is bitwise identical to [`ServeModel::exhaustive_top_k`].
    ///
    /// **The list may be shorter than `k`.** It holds the best `k` of
    /// the leaves the beam *reached*: a finite beam keeps at most `beam`
    /// nodes per tier, so it reaches at most `beam` tier-1 clusters'
    /// items (beam 1 on clusters of ~5 items returns ~5 for `k = 10`).
    /// A short list is a property of the beam, not an error; callers
    /// that need `k` results widen the beam. `BeamWidth::Infinite`
    /// always returns exactly `k`.
    ///
    /// Errors with [`HignnError::Config`] (exit 2) on `k == 0`,
    /// `k > num_items`, or an unknown user — a malformed request never
    /// panics the serving loop.
    pub fn top_k(
        &self,
        user: usize,
        k: usize,
        beam: BeamWidth,
    ) -> Result<Vec<ScoredItem>, HignnError> {
        self.validate(user, k)?;
        // The user's half of the scorer's first layer: once per
        // request, reused on every tier and on the leaf re-rank.
        let prefix = self.scorer().user_prefix(self.user_features().row(user));
        // Descend tier L -> 1, pruning to the beam at every tier.
        let mut frontier: Vec<u32> = (0..self.node_reps(self.num_levels()).rows() as u32).collect();
        for tier in (1..=self.num_levels()).rev() {
            let ranked = rank(self, &prefix, self.node_reps(tier), &frontier, beam.keep());
            let kids = self.children(tier);
            frontier = ranked
                .iter()
                .flat_map(|node| kids[node.item as usize].iter().copied())
                .collect();
        }
        // Exact Eq. 7 re-rank of the surviving leaves.
        Ok(rank(self, &prefix, self.item_features(), &frontier, k))
    }

    /// Scores **every** item exactly and returns the top k — the oracle
    /// the beam search is tested against, and the `recall@k` reference.
    pub fn exhaustive_top_k(&self, user: usize, k: usize) -> Result<Vec<ScoredItem>, HignnError> {
        self.validate(user, k)?;
        let prefix = self.scorer().user_prefix(self.user_features().row(user));
        let all: Vec<u32> = (0..self.num_items() as u32).collect();
        Ok(rank(self, &prefix, self.item_features(), &all, k))
    }

    /// Serves a batch of requests on `exec`'s worker threads.
    ///
    /// Results come back in request order, one per request; each is the
    /// same value `top_k` would return inline, so for a fixed request
    /// order N threads are bitwise identical to 1 (the executor's
    /// standing determinism contract).
    pub fn serve_batch(
        &self,
        requests: &[TopKRequest],
        exec: &ParallelExecutor,
    ) -> Vec<Result<Vec<ScoredItem>, HignnError>> {
        exec.map(requests.len(), |i| {
            let r = &requests[i];
            self.top_k(r.user, r.k, r.beam)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beam_width_parses_and_displays() {
        assert_eq!("8".parse::<BeamWidth>().unwrap(), BeamWidth::Finite(8));
        assert_eq!("inf".parse::<BeamWidth>().unwrap(), BeamWidth::Infinite);
        assert_eq!("infinite".parse::<BeamWidth>().unwrap(), BeamWidth::Infinite);
        for bad in ["0", "-3", "wide", "", "1.5"] {
            assert!(bad.parse::<BeamWidth>().is_err(), "`{bad}` must be rejected");
        }
        assert_eq!(BeamWidth::Finite(16).to_string(), "16");
        assert_eq!(BeamWidth::Infinite.to_string(), "inf");
    }

    #[test]
    fn ranking_order_is_nan_safe_and_deterministic() {
        let mut items = [
            ScoredItem { item: 5, score: f32::NAN },
            ScoredItem { item: 1, score: 1.0 },
            ScoredItem { item: 4, score: f32::NEG_INFINITY },
            ScoredItem { item: 3, score: 1.0 },
            ScoredItem { item: 0, score: f32::INFINITY },
            ScoredItem { item: 2, score: -2.0 },
        ];
        items.sort_unstable_by(rank_cmp);
        let order: Vec<u32> = items.iter().map(|s| s.item).collect();
        // +inf first, ties by id, -inf still ahead of NaN, NaN dead last.
        assert_eq!(order, vec![0, 1, 3, 2, 4, 5]);
    }

    #[test]
    fn keeping_the_best_equals_sorting_then_truncating() {
        // Ties, both infinities, NaNs of either sign, signed zeros.
        let scores = [
            1.0, f32::NAN, -2.0, 1.0, f32::INFINITY, 0.0, -0.0, f32::NEG_INFINITY, 1.0, -f32::NAN,
            3.5, -2.0, f32::INFINITY, 0.0,
        ];
        let items: Vec<ScoredItem> = scores
            .iter()
            .enumerate()
            // Ids out of order, so a tie is not already sorted by id.
            .map(|(i, &score)| ScoredItem { item: (i as u32 * 5) % 14, score })
            .collect();
        let mut sorted = items.clone();
        sorted.sort_unstable_by(rank_cmp);
        let bits = |v: &[ScoredItem]| -> Vec<(u32, u32)> {
            v.iter().map(|s| (s.item, s.score.to_bits())).collect()
        };
        for keep in 0..=items.len() + 1 {
            let mut kept = items.clone();
            keep_best(&mut kept, keep);
            assert_eq!(bits(&kept), bits(&sorted[..keep.min(items.len())]), "keep {keep}");
        }
    }
}
