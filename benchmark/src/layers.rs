//! The traced run: one pass over the lifecycle with the span recorder
//! on, plus isolated probes of each layer on the workload's own inputs.
//!
//! Layers are measured from outside, by timing calls into public
//! functions. `TrainSpec::run` is one opaque call, so its split into
//! `core.stack.*` comes from the spans the program already emits
//! (`hignn-obs`), switched on for that one build.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::adapter::{self, HierarchyDelta, ProgramSpan, ServeModel};
use crate::gen::{self, Phase, Workload, BATCH_EDGES, BEAM, CORPUS_SEED, TOP_K};
use crate::lifecycle::{self, Ops, Outcome, ServeRounds};
use crate::stats::{percentile, summarize};
use crate::trace::Recorder;

/// Requests in the traced serving section, and per beam-width probe.
const TRACED_REQUESTS: usize = 1500;
const PROBE_REQUESTS: usize = 300;
/// Edges per batch of the large-batch ingest probe.
const LARGE_BATCH_EDGES: usize = 512;

pub struct Traced {
    pub outcome: Outcome,
    /// The benchmark's own spans.
    pub rec: Recorder,
    /// Totals of the spans the program emitted during the traced build.
    pub program_spans: Vec<ProgramSpan>,
}

/// Median wall time in seconds of `repeats` calls of `f`.
fn median_s<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    summarize(&samples).map_or(f64::NAN, |s| s.median)
}

pub fn run(workload: Workload, seed: u64, model_path: &Path) -> Traced {
    let mut traced = Traced {
        outcome: Outcome::default(),
        rec: Recorder::new(true),
        program_spans: Vec::new(),
    };
    probe(workload, seed, model_path, &mut traced);
    let spans = traced.rec.spans().len() + traced.program_spans.len();
    traced.outcome.metrics.exact("obs.spans", spans as f64);
    traced
}

/// After each applied batch, outside the lag window: the `core::ingest`
/// half of the apply on a bare hierarchy, the fingerprint, and the
/// first request the patched replica answers.
fn replica_probe(
    mut bare: adapter::Hierarchy,
) -> impl FnMut(&mut Recorder, &HierarchyDelta, &ServeModel, &mut Ops) {
    let mut user = 0;
    move |rec, delta, replica, ops| {
        let applied = rec.span("core.ingest.apply_delta", |_| {
            adapter::apply_delta_to_hierarchy(&mut bare, delta)
        });
        ops.op("core apply_delta", applied);
        black_box(rec.span("core.ingest.fingerprint", |_| adapter::fingerprint(&bare)));
        let answer = rec.span("serve.topk_after_apply", |_| {
            adapter::top_k(replica, user, TOP_K, Some(BEAM))
        });
        ops.op("top_k after apply", answer);
        user = (user + 1) % adapter::num_users(replica);
    }
}

fn probe(workload: Workload, seed: u64, model_path: &Path, traced: &mut Traced) -> Option<()> {
    let Traced {
        outcome,
        rec,
        program_spans,
    } = traced;
    let Outcome {
        metrics,
        ops,
        notes,
    } = outcome;
    let spec = workload.spec();

    // datasets, graph
    let inputs = rec.span("datasets.generate", |_| gen::build_inputs(&spec, seed));
    metrics.exact("datasets.generate_s", inputs.generate_s);
    let build_graph =
        || adapter::graph_from_edges(inputs.base_users, inputs.base_items, &inputs.base_edges);
    let graph = build_graph();
    let edges = adapter::num_edges(&graph);
    metrics.exact("graph.from_edges_ms", median_s(9, build_graph) * 1e3);
    let mut sampled_for = 0;
    let sample_s = rec.span("graph.sample_neighbors", |_| {
        median_s(3, || {
            sampled_for = adapter::sample_epoch_neighbors(&graph, seed)
        })
    });
    metrics.exact(
        "graph.sample_ns_per_node",
        sample_s * 1e9 / sampled_for as f64,
    );
    let draws = 200_000;
    let negative_s = rec.span("graph.negative_sampler", |_| {
        median_s(3, || adapter::sample_negatives(&graph, draws, seed))
    });
    metrics.exact(
        "graph.negative_ns_per_draw",
        negative_s * 1e9 / draws as f64,
    );

    // tensor: the training-sized products (2048 x 64 x 32) and the
    // fused neighbour gather + mean.
    let (m, k, n) = (2048, 64, 32);
    let gflops = |s: f64| 2.0 * (m * k * n) as f64 / s / 1e9;
    let (a, b) = (
        adapter::random_matrix(m, k, seed),
        adapter::random_matrix(k, n, seed ^ 1),
    );
    let (bt, c) = (
        adapter::random_matrix(n, k, seed ^ 2),
        adapter::random_matrix(m, n, seed ^ 3),
    );
    rec.span("tensor.matmul", |_| {
        metrics.exact(
            "tensor.matmul_nn_gflops",
            gflops(median_s(41, || adapter::matmul_nn(&a, &b))),
        );
        metrics.exact(
            "tensor.matmul_nt_gflops",
            gflops(median_s(41, || adapter::matmul_nt(&a, &bt))),
        );
        metrics.exact(
            "tensor.matmul_tn_gflops",
            gflops(median_s(41, || adapter::matmul_tn(&a, &c))),
        );
    });
    let (groups, fanout) = (2048, adapter::FANOUTS[0]);
    let source = adapter::random_matrix(4096, adapter::EMBEDDING_DIM, seed ^ 4);
    let idx = gen::sample_users(&mut gen::request_rng(seed ^ 5), 4096, groups * fanout);
    let pool_s = rec.span("tensor.gather_mean_pool", |_| {
        median_s(41, || adapter::gather_mean_pool(&source, &idx, fanout))
    });
    metrics.exact("tensor.gather_mean_pool_ms", pool_s * 1e3);

    // core::trainer and core::sage: one level-1 epoch outside the stack.
    let t = Instant::now();
    let sage = rec.span("core.trainer.epoch", |_| {
        adapter::train_level1(
            &graph,
            &inputs.user_features,
            &inputs.item_features,
            1,
            CORPUS_SEED,
        )
    });
    metrics.exact("core.trainer.epoch_s", t.elapsed().as_secs_f64());
    metrics.exact(
        "core.trainer.batches",
        edges.div_ceil(adapter::BATCH_EDGES) as f64,
    );
    metrics.exact(
        "core.trainer.final_loss",
        f64::from(sage.epoch_losses.last().copied().unwrap_or(f32::NAN)),
    );
    let embed_s = rec.span("core.sage.embed_all", |_| {
        median_s(5, || {
            adapter::embed_all(&sage, &graph, &inputs.user_features, &inputs.item_features)
        })
    });
    metrics.exact("core.sage.embed_all_s", embed_s);

    // core::stack: a two-thread build, then a one-thread build with the
    // program's spans on. The first build of a process reads up to 10 %
    // slow whatever it is, and the thread-scaling figure — reported
    // only — takes that one: it understates the speed-up by that much.
    let (_, two_thread_s) = lifecycle::train_checked(&spec, 2, &inputs, &graph, ops)?;
    adapter::program_spans_enable(true);
    let traced = rec.span("core.stack.build", |_| {
        lifecycle::train_checked(&spec, 1, &inputs, &graph, ops)
    });
    adapter::program_spans_enable(false);
    *program_spans = adapter::program_spans(spec.levels);
    let (h, traced_s) = traced?;
    metrics.exact("tensor.parallel_speedup_t2", traced_s / two_thread_s);
    let phase_s = |suffix: &str| -> f64 {
        program_spans
            .iter()
            .filter(|s| s.name.starts_with("level") && s.name.ends_with(suffix))
            .map(|s| s.total_ns as f64 / 1e9)
            .sum()
    };
    let parts = [
        phase_s(".train"),
        phase_s(".embed"),
        phase_s(".cluster"),
        phase_s(".coarsen"),
    ];
    for (name, s) in ["train_s", "embed_s", "cluster_s", "coarsen_s"]
        .iter()
        .zip(parts)
    {
        metrics.exact(&format!("core.stack.{name}"), s);
    }
    let level1_train_s = program_spans
        .iter()
        .find(|s| s.name == "level1.train")
        .map_or(0.0, |s| s.total_ns as f64 / 1e9);
    metrics.exact("core.stack.level1_train_s", level1_train_s);
    metrics.exact("core.stack.self_s", traced_s - parts.iter().sum::<f64>());
    notes.push(format!(
        "core.stack spans cover {:.1} % of the traced build ({traced_s:.3} s; 2 threads {two_thread_s:.3} s); cluster share {:.1} %",
        100.0 * parts.iter().sum::<f64>() / traced_s,
        100.0 * parts[2] / traced_s,
    ));

    // cluster and coarsen, on the level-1 embeddings the build produced.
    let z = adapter::level1_item_embeddings(&h);
    let k_items = ((z.rows() as f64 / adapter::ALPHA) as usize).max(1);
    let t = Instant::now();
    let km = rec.span("cluster.kmeans", |_| {
        adapter::kmeans_run(z, k_items, CORPUS_SEED)
    });
    metrics.exact("cluster.kmeans_s", t.elapsed().as_secs_f64());
    metrics.exact("cluster.kmeans_iterations", km.iterations as f64);
    let assign_s = rec.span("cluster.assign_all", |_| {
        median_s(3, || adapter::assign_rows(&km.centroids, z))
    });
    metrics.exact("cluster.assign_rows_per_s", z.rows() as f64 / assign_s);
    let nearest_s = median_s(3, || {
        (0..z.rows())
            .map(|r| adapter::nearest(&km.centroids, z.row(r)))
            .sum::<usize>()
    });
    metrics.exact(
        "cluster.nearest_centroid_ns",
        nearest_s * 1e9 / z.rows() as f64,
    );
    let (users_l1, items_l1) = adapter::level1_assignments(&h);
    let coarsen_s = rec.span("graph.coarsen", |_| {
        median_s(9, || adapter::coarsen_graph(&graph, users_l1, items_l1))
    });
    metrics.exact("graph.coarsen_ms", coarsen_s * 1e3);

    // core::io and the serve-side load.
    let save_s = median_s(5, || adapter::save_model(model_path, &h));
    metrics.exact("core.io.save_ms", save_s * 1e3);
    metrics.exact(
        "core.io.model_bytes",
        std::fs::metadata(model_path).map_or(0.0, |m| m.len() as f64),
    );
    metrics.exact(
        "core.io.load_ms",
        median_s(5, || adapter::load_hierarchy(model_path)) * 1e3,
    );
    metrics.exact(
        "serve.load_ms",
        median_s(5, || adapter::load_model(model_path)) * 1e3,
    );
    let copies: Vec<_> = (0..5).map(|_| h.clone()).collect();
    let mut copies = copies.into_iter();
    metrics.exact(
        "serve.prepare_ms",
        median_s(5, || copies.next().map(adapter::prepare_model)) * 1e3,
    );
    let model = &lifecycle::persist(&h, model_path, ops)?;

    // serve: the scorer, the beam-width sweep, and the traced requests.
    let num_items = adapter::num_items(model);
    let all_ids: Vec<u32> = (0..num_items as u32).collect();
    let feats = adapter::item_features(model);
    let score_s =
        |ids: &[u32], repeats| median_s(repeats, || adapter::score_against(model, 0, feats, ids));
    metrics.exact(
        "serve.score_rows_per_s_b64",
        64.0 / score_s(&all_ids[..64.min(num_items)], 201),
    );
    metrics.exact(
        "serve.score_rows_per_s_all",
        num_items as f64 / score_s(&all_ids, 21),
    );
    let rng = &mut gen::request_rng(seed);
    let probe_users = gen::sample_users(rng, adapter::num_users(model), PROBE_REQUESTS);
    for (name, beam) in [
        ("beam1", Some(1)),
        ("beam4", Some(4)),
        ("beam16", Some(BEAM)),
        ("beam64", Some(64)),
        ("beaminf", None),
    ] {
        let users = &probe_users[..if beam.is_some() {
            PROBE_REQUESTS
        } else {
            PROBE_REQUESTS / 5
        }];
        let t = Instant::now();
        for &u in users {
            ops.op("top_k", adapter::top_k(model, u, TOP_K, beam));
        }
        metrics.exact(
            &format!("serve.topk_us_{name}"),
            t.elapsed().as_secs_f64() * 1e6 / users.len() as f64,
        );
    }
    let quality = lifecycle::serve_quality(model, ops);
    metrics.exact("serve.rows_scored_per_query", quality.rows_scored_per_query);
    metrics.exact(
        "serve.scored_frac",
        quality.rows_scored_per_query / num_items as f64,
    );
    for (name, beam) in [("beam4", 4), ("beam64", 64)] {
        let r = lifecycle::recall(model, &quality.recall_users, &quality.exact, beam, ops);
        metrics.exact(&format!("serve.recall_at_10_{name}"), r);
    }
    notes.push(format!(
        "recall@10 at beam {BEAM}: {:.4}",
        quality.recall_at_10
    ));
    let serve_users = gen::sample_users(rng, adapter::num_users(model), TRACED_REQUESTS);
    let mut served = ServeRounds::default();
    lifecycle::serve_round(model, &serve_users, rec, ops, &mut served);
    metrics.exact(
        "serve.topk_p99_us",
        percentile(&served.latencies_us, 99.0).ok()?,
    );
    let t = Instant::now();
    ops.check(
        "serve_batch on 2 workers answers every request",
        adapter::serve_batch(model, &serve_users, TOP_K, Some(BEAM), 2),
    );
    metrics.exact(
        "serve.batch_qps_t2",
        serve_users.len() as f64 / t.elapsed().as_secs_f64(),
    );

    // core::ingest and the serve-side writes, traced: the whole stream
    // where streaming is the primary phase, its first batches elsewhere.
    let batches = lifecycle::round_batches(&inputs, spec.primary == Phase::Stream);
    let mut probe_replica = replica_probe(adapter::hierarchy_of(model).clone());
    let round = lifecycle::stream_round(model, &graph, &batches, rec, &mut probe_replica, ops)?;
    let n = batches.len() as f64;
    let per_batch_ms = |rec: &Recorder, span: &str| rec.total_s(span) * 1e3 / n;
    metrics.exact(
        "core.ingest.ingest_ms_b32",
        per_batch_ms(rec, "core.ingest.ingest"),
    );
    metrics.exact(
        "core.ingest.encode_ms",
        per_batch_ms(rec, "core.ingest.write_delta"),
    );
    metrics.exact(
        "core.ingest.decode_ms",
        per_batch_ms(rec, "core.ingest.read_delta_bytes"),
    );
    metrics.exact(
        "core.ingest.apply_ms",
        per_batch_ms(rec, "core.ingest.apply_delta"),
    );
    metrics.exact(
        "core.ingest.fingerprint_ms",
        per_batch_ms(rec, "core.ingest.fingerprint"),
    );
    metrics.exact("core.ingest.delta_bytes_b32", round.delta_bytes as f64 / n);
    let r = &round.report;
    metrics.exact("core.ingest.new_nodes", (r.new_users + r.new_items) as f64);
    metrics.exact(
        "core.ingest.moved_nodes",
        (r.moved_users + r.moved_items) as f64,
    );
    metrics.exact(
        "core.ingest.dirty_clusters",
        (r.dirty_user_clusters + r.dirty_item_clusters) as f64,
    );
    metrics.exact(
        "serve.apply_delta_ms",
        per_batch_ms(rec, "serve.apply_delta"),
    );
    metrics.exact(
        "serve.topk_after_apply_us",
        per_batch_ms(rec, "serve.topk_after_apply") * 1e3,
    );
    let in_batch: f64 = [
        "core.ingest.ingest",
        "core.ingest.write_delta",
        "core.ingest.read_delta_bytes",
        "serve.apply_delta",
    ]
    .iter()
    .map(|s| rec.total_s(s))
    .sum();
    notes.push(format!(
        "the four per-batch spans cover {:.1} % of replica lag (stream.batch self time {:.3} ms per batch)",
        100.0 * in_batch / rec.total_s("stream.batch"),
        rec.self_s("stream.batch") * 1e3 / n,
    ));

    // The same stream in batches of 512 separates the per-batch fixed
    // cost from the per-edge cost. Its spans share names with the
    // 32-edge ones, so they go to a recorder of their own and are left
    // out of the trace file.
    let large: Vec<&[adapter::Edge]> = inputs.stream.chunks(LARGE_BATCH_EDGES).collect();
    let large_rec = &mut Recorder::new(true);
    let large_round =
        lifecycle::stream_round(model, &graph, &large, large_rec, &mut |_, _, _, _| {}, ops)?;
    metrics.exact(
        "core.ingest.delta_bytes_b512",
        large_round.delta_bytes as f64 / large.len() as f64,
    );
    metrics.exact(
        "core.ingest.ingest_ms_b512",
        large_rec.total_s("core.ingest.ingest") * 1e3 / large.len() as f64,
    );

    notes.push(format!(
        "{} batches of {BATCH_EDGES} edges, {} of {LARGE_BATCH_EDGES}",
        batches.len(),
        large.len(),
    ));
    Some(())
}
