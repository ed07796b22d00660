//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root is this
//! file rendered by `hignn-benchmark manifest`; a test keeps them equal.

use crate::json::{obj, s, Json};

/// Seconds one run spends on its workload's primary phase.
pub const RUN_SECONDS: u32 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    ("train_dense", "SGD-bound build on a dense graph: tensor, graph sampling and core::trainer do nearly all the work, cluster almost none"),
    ("train_sparse_deep", "3-level build on a sparse graph with many nodes: level-1 K-means is about a third of the wall, so cluster/coarsen/embed_all changes show here and not on train_dense"),
    ("serve_topk", "read-only beam-16 top-10 serving on a catalogue large enough for the beam to prune: serve and the scorer matmul do all the work"),
    ("stream_replica", "writes beside reads: 32-edge batches through ingest, delta encode/decode and replica apply_delta, then serving from the patched replica"),
];

const TRAIN: &[&str] = &["train_dense", "train_sparse_deep"];
const SERVE: &[&str] = &["serve_topk"];
const STREAM: &[&str] = &["stream_replica"];
const SERVING: &[&str] = &["serve_topk", "stream_replica"];
const ALL: &[&str] = &[
    "train_dense",
    "train_sparse_deep",
    "serve_topk",
    "stream_replica",
];

/// `(name, unit, better, bound, gated on)`: what a user of the system
/// would see. The bound is the share of the parent's median by which
/// the metric may worsen before a change counts as a regression. Every
/// workload reports every metric (the driver wants that); `compare`
/// judges a metric on the workloads it is gated on — those that spend
/// `--seconds` on the phase it measures — and only prints it elsewhere.
pub const END_TO_END: [(&str, &str, Better, f64, &[&str]); 11] = [
    ("setup_s", "s", Lower, 0.25, ALL),
    ("peak_rss_mb", "MB", Lower, 0.10, ALL),
    ("train_edges_per_s", "edges/s", Higher, 0.25, TRAIN),
    ("item_topic_nmi", "ratio", Higher, 0.05, TRAIN),
    ("topk_p50_us", "us", Lower, 0.25, SERVING),
    ("topk_qps", "req/s", Higher, 0.25, SERVE),
    ("recall_at_10", "ratio", Higher, 0.03, SERVE),
    ("ingest_edges_per_s", "edges/s", Higher, 0.25, STREAM),
    ("replica_lag_p50_ms", "ms", Lower, 0.25, STREAM),
    ("replica_lag_p90_ms", "ms", Lower, 0.25, STREAM),
    ("delta_bytes_per_edge", "B/edge", Lower, 0.01, STREAM),
];

/// `(name, unit, better)`: single layers, named after the crate or
/// module measured. They have no bound.
pub const PER_LAYER: [(&str, &str, Better); 56] = [
    ("datasets.generate_s", "s", Lower),
    ("graph.sample_ns_per_node", "ns", Lower),
    ("graph.negative_ns_per_draw", "ns", Lower),
    ("graph.from_edges_ms", "ms", Lower),
    ("graph.coarsen_ms", "ms", Lower),
    ("tensor.matmul_nn_gflops", "GFLOP/s", Higher),
    ("tensor.matmul_nt_gflops", "GFLOP/s", Higher),
    ("tensor.matmul_tn_gflops", "GFLOP/s", Higher),
    ("tensor.gather_mean_pool_ms", "ms", Lower),
    ("tensor.parallel_speedup_t2", "ratio", Higher),
    ("cluster.kmeans_s", "s", Lower),
    ("cluster.kmeans_iterations", "count", Lower),
    ("cluster.assign_rows_per_s", "rows/s", Higher),
    ("cluster.nearest_centroid_ns", "ns", Lower),
    ("core.stack.train_s", "s", Lower),
    ("core.stack.embed_s", "s", Lower),
    ("core.stack.cluster_s", "s", Lower),
    ("core.stack.coarsen_s", "s", Lower),
    ("core.stack.level1_train_s", "s", Lower),
    ("core.stack.self_s", "s", Lower),
    ("core.trainer.epoch_s", "s", Lower),
    ("core.trainer.batches", "count", Lower),
    ("core.trainer.final_loss", "loss", Lower),
    ("core.sage.embed_all_s", "s", Lower),
    ("core.io.save_ms", "ms", Lower),
    ("core.io.load_ms", "ms", Lower),
    ("core.io.model_bytes", "B", Lower),
    ("core.ingest.ingest_ms_b32", "ms", Lower),
    ("core.ingest.ingest_ms_b512", "ms", Lower),
    ("core.ingest.encode_ms", "ms", Lower),
    ("core.ingest.decode_ms", "ms", Lower),
    ("core.ingest.apply_ms", "ms", Lower),
    ("core.ingest.fingerprint_ms", "ms", Lower),
    ("core.ingest.delta_bytes_b32", "B", Lower),
    ("core.ingest.delta_bytes_b512", "B", Lower),
    ("core.ingest.new_nodes", "count", Higher),
    ("core.ingest.moved_nodes", "count", Lower),
    ("core.ingest.dirty_clusters", "count", Lower),
    ("serve.load_ms", "ms", Lower),
    ("serve.prepare_ms", "ms", Lower),
    ("serve.score_rows_per_s_b64", "rows/s", Higher),
    ("serve.score_rows_per_s_all", "rows/s", Higher),
    ("serve.topk_us_beam1", "us", Lower),
    ("serve.topk_us_beam4", "us", Lower),
    ("serve.topk_us_beam16", "us", Lower),
    ("serve.topk_us_beam64", "us", Lower),
    ("serve.topk_us_beaminf", "us", Lower),
    ("serve.rows_scored_per_query", "count", Lower),
    ("serve.scored_frac", "ratio", Lower),
    ("serve.recall_at_10_beam4", "ratio", Higher),
    ("serve.recall_at_10_beam64", "ratio", Higher),
    ("serve.topk_p99_us", "us", Lower),
    ("serve.batch_qps_t2", "req/s", Higher),
    ("serve.apply_delta_ms", "ms", Lower),
    ("serve.topk_after_apply_us", "us", Lower),
    ("obs.spans", "count", Higher),
];

/// Unit of a metric of either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    let end_to_end = END_TO_END.iter().map(|m| (m.0, m.1));
    end_to_end
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|&(name, why)| obj([("name", s(name)), ("why", s(why))]));
    let end_to_end = END_TO_END.iter().map(|&(name, unit, better, bound, _)| {
        obj([
            ("name", s(name)),
            ("unit", s(unit)),
            ("better", s(better.name())),
            ("bound", Json::Num(bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|&(name, unit, better)| {
        obj([
            ("name", s(name)),
            ("unit", s(unit)),
            ("better", s(better.name())),
        ])
    });
    obj([
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;

    #[test]
    fn benchmark_json_is_the_rendered_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `hignn-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let ok = |n: &str| {
            n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names
            .iter()
            .all(|n| ok(n) && n.starts_with(|c: char| c.is_ascii_alphanumeric())));
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1))
            .all(unit_ok));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        // 0.25 is the cap of the driver's contract.
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        assert!(END_TO_END
            .iter()
            .all(|m| !m.4.is_empty() && m.4.iter().all(|w| Workload::parse(w).is_some())));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert_eq!(WORKLOADS.map(|w| w.0), Workload::ALL.map(Workload::name));
        assert_eq!(END_TO_END[0].0, "setup_s");
    }
}
