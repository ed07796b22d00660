//! Measurement helpers for the serving engine: latency/QPS sweeps over
//! thread counts and recall-vs-beam-width sweeps against the exhaustive
//! oracle, as the CLI's `serve-bench` subcommand reports them.

use crate::engine::{BeamWidth, TopKRequest};
use crate::model::ServeModel;
use hignn::error::HignnError;
use hignn_tensor::ParallelExecutor;
use std::time::Instant;

/// Latency/throughput of one thread count over a fixed request stream.
#[derive(Clone, Copy, Debug)]
pub struct LatencyPoint {
    /// Serving threads used.
    pub threads: usize,
    /// Requests answered.
    pub requests: usize,
    /// Median per-request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-request latency, microseconds (nearest-rank).
    pub p99_us: f64,
    /// Requests per second over the whole batch (wall clock).
    pub qps: f64,
}

/// Recall@k of one beam width against exhaustive scoring.
#[derive(Clone, Copy, Debug)]
pub struct RecallPoint {
    /// The beam width measured.
    pub beam: BeamWidth,
    /// Mean recall@k over all measured users, in `[0, 1]`.
    pub recall: f64,
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of a sorted sample, or
/// `None` for an empty sample — a percentile of nothing is undefined,
/// and the old `assert!` here turned a zero-request sweep into a panic
/// backtrace instead of a structured exit-2 error.
fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Fraction of `exact`'s items that `approx` recovered.
pub(crate) fn recall_at_k(approx: &[u32], exact: &[u32]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hits = exact.iter().filter(|id| approx.contains(id)).count();
    hits as f64 / exact.len() as f64
}

/// Times `requests` through [`ServeModel::serve_batch`] on `threads`
/// workers. Each request is timed individually inside its worker (for
/// the percentiles); QPS uses the whole batch's wall clock.
///
/// An empty request stream is a configuration error
/// ([`HignnError::Config`], exit 2): percentiles of zero samples are
/// undefined.
///
/// # Panics
/// Panics if any request in the stream is invalid — the sweep measures
/// the happy path, so a malformed stream is a harness bug.
pub fn latency_sweep(
    model: &ServeModel,
    requests: &[TopKRequest],
    threads: usize,
) -> Result<LatencyPoint, HignnError> {
    if requests.is_empty() {
        return Err(HignnError::Config(
            "latency_sweep: empty request stream (need at least 1 request for percentiles)".into(),
        ));
    }
    let exec = ParallelExecutor::new(threads);
    let t0 = Instant::now();
    let timed = exec.map(requests.len(), |i| {
        let r = &requests[i];
        let t = Instant::now();
        let out = model.top_k(r.user, r.k, r.beam);
        (t.elapsed().as_secs_f64() * 1e6, out)
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut lat: Vec<f64> = Vec::with_capacity(timed.len());
    for (us, out) in timed {
        out.expect("latency_sweep: invalid request in the stream");
        lat.push(us);
    }
    lat.sort_by(f64::total_cmp);
    // The guard above makes the sample non-empty.
    let p50_us = percentile(&lat, 50.0).expect("non-empty sample");
    let p99_us = percentile(&lat, 99.0).expect("non-empty sample");
    Ok(LatencyPoint {
        threads,
        requests: requests.len(),
        p50_us,
        p99_us,
        qps: requests.len() as f64 / wall.max(1e-9),
    })
}

/// Mean recall@k at `beam` over `users`, against [`ServeModel::exhaustive_top_k`].
///
/// An empty user sample is a configuration error
/// ([`HignnError::Config`], exit 2).
///
/// # Panics
/// Panics on an invalid `(user, k)` — see [`latency_sweep`].
pub fn recall_sweep(
    model: &ServeModel,
    users: &[usize],
    k: usize,
    beam: BeamWidth,
) -> Result<RecallPoint, HignnError> {
    if users.is_empty() {
        return Err(HignnError::Config(
            "recall_sweep: no users to measure (need at least 1)".into(),
        ));
    }
    let mut total = 0.0;
    for &user in users {
        let approx: Vec<u32> = model
            .top_k(user, k, beam)
            .expect("recall_sweep: invalid request")
            .iter()
            .map(|s| s.item)
            .collect();
        let exact: Vec<u32> = model
            .exhaustive_top_k(user, k)
            .expect("recall_sweep: invalid request")
            .iter()
            .map(|s| s.item)
            .collect();
        total += recall_at_k(&approx, &exact);
    }
    Ok(RecallPoint { beam, recall: total / users.len() as f64 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn percentile_of_empty_sample_is_none_not_panic() {
        // Regression: this was an `assert!` panic before.
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[], 99.0), None);
    }

    #[test]
    fn empty_sweeps_are_config_errors_not_panics() {
        use hignn::stack::{Hierarchy, Level};
        use hignn_graph::{Assignment, BipartiteGraph};
        use hignn_tensor::Matrix;
        let level1 = Level {
            user_embeddings: Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
            item_embeddings: Matrix::from_vec(2, 2, vec![1.0, 0.0, -1.0, 0.0]),
            user_assignment: Assignment::new(vec![0, 0], 1),
            item_assignment: Assignment::new(vec![0, 1], 2),
            coarsened: BipartiteGraph::from_edges(1, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]),
            epoch_losses: vec![],
        };
        let h = Hierarchy::from_parts(vec![level1], 2, 2).unwrap();
        let model = ServeModel::from_hierarchy(h, 0);
        // Regression: both used to die on `assert!` backtraces; now a
        // structured Config error drives exit code 2.
        let err = latency_sweep(&model, &[], 1).unwrap_err();
        assert!(matches!(err, HignnError::Config(_)), "{err}");
        assert_eq!(err.exit_code(), 2);
        let err = recall_sweep(&model, &[], 5, BeamWidth::Finite(2)).unwrap_err();
        assert!(matches!(err, HignnError::Config(_)), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn recall_counts_overlap() {
        assert_eq!(recall_at_k(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(recall_at_k(&[1, 2, 9], &[1, 2, 3]), 2.0 / 3.0);
        assert_eq!(recall_at_k(&[], &[1]), 0.0);
        assert_eq!(recall_at_k(&[], &[]), 1.0);
    }
}
