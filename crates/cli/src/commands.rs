//! The `hignn` subcommands.
//!
//! Every failure surfaces as a [`HignnError`], which the binary
//! (`main.rs`) maps to a distinct exit code: 2 usage/config, 3 I/O,
//! 4 corruption, 5 divergence (non-finite training, always checked).

use crate::opts::Opts;
use hignn::checkpoint::CheckpointStore;
use hignn::io::{load_hierarchy, save_hierarchy};
use hignn::prelude::*;
use hignn_graph::edgelist::{read_edge_list_with, LinePolicy, ParsedEdgeList};
use hignn_graph::GraphStats;
use hignn_serve::{
    latency_sweep, recall_sweep, BeamWidth, ServeModel, TopKRequest, DEFAULT_BEAM_WIDTH,
    DEFAULT_SCORER_SEED, DEFAULT_TOP_K,
};
use hignn_tensor::serialize::write_matrix;
use hignn_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufWriter, Write};

/// Usage text printed by `hignn help`.
pub(crate) const USAGE: &str = "\
hignn — Hierarchical Bipartite Graph Neural Networks (ICDE 2020)

USAGE:
  hignn stats    --edges FILE [--lenient]
  hignn train    --edges FILE --out MODEL [--levels 3] [--alpha 5]
                 [--dim 32] [--epochs 4] [--seed 0] [--no-normalize]
                 [--threads N] [--checkpoint DIR | --resume DIR] [--lenient]
                 [--metrics FILE.json] [--log-format plain|json]
  hignn info     --model MODEL
  hignn embed    --model MODEL --side user|item --out FILE.hgmx
  hignn generate --out FILE [--kind taobao1|taobao2] [--scale 0.5] [--seed 0]
  hignn topk     --model MODEL --user U [--topk 10] [--beam-width 16]
                 [--scorer-seed 2020]
  hignn serve-bench --model MODEL [--topk 10] [--beam-width 16]
                 [--serve-threads N] [--requests 256] [--scorer-seed 2020]
  hignn ingest   --model MODEL --base-edges FILE --new-edges FILE
                 --out-model MODEL2 --out-delta DELTA
                 [--drift-threshold 0.05] [--no-normalize] [--lenient]
  hignn apply-delta --model MODEL --delta DELTA --out MODEL2
  hignn help

THREADS:
  --threads N trains, infers, and clusters on N worker threads
  (default: all available cores). The thread count never changes the
  result — any N produces a bit-identical model, and a checkpoint
  written at one thread count resumes at any other.

CRASH RECOVERY:
  --checkpoint DIR persists each completed level atomically; after a
  crash, rerun the same command with --resume DIR to continue from the
  last durable level. The resumed model is identical to an
  uninterrupted run. Checkpoints are CRC-checked and fingerprinted
  against the training inputs. --resume DIR equally continues a run
  stopped by an I/O error or by `timeout`. Every epoch's loss and
  parameters, and every level's embeddings, are checked for NaN/Inf; a
  non-finite value stops the run with exit code 5.

OBSERVABILITY:
  --metrics FILE.json writes a schema-stable JSON run report
  (hignn-metrics/v1): counters, gauges, per-level phase span timings,
  per-epoch loss series, minibatch loss/grad-norm/latency histograms,
  and workspace buffer-pool stats. --log-format plain|json emits
  progress heartbeats and per-level events on stderr (stdout stays
  clean). Both are inert: enabling them never changes a bit of the
  trained model. Counter totals ride inside checkpoint metadata, so a
  resumed run continues its counters instead of restarting at zero.

SERVING:
  `topk` answers one recommendation request by coarse-to-fine beam
  search over the trained cluster tree: level-L cluster representatives
  are scored first, the best --beam-width branches descend, and the
  surviving leaves are re-ranked exactly (Eq. 7 MLP). --beam-width inf
  prunes nothing and is bitwise identical to exhaustively scoring every
  item. A narrow beam can reach fewer than --topk items; the header then
  reads `N of k (beam W reached N items)`. The Eq. 7 head is derived
  deterministically from --scorer-seed, so (model, seed) fully
  determines every ranking. `serve-bench` replays
  --requests requests through the engine on --serve-threads workers
  (default: all cores; any N is bitwise identical to 1) and reports
  p50/p99 latency, QPS, and recall@k against the exhaustive oracle.

STREAMING (DESIGN.md §13):
  `ingest` appends a batch of new interactions (which may introduce new
  users and items — ids unseen in --base-edges declare new vertices) to
  a trained model without retraining: new vertices get inductive
  level-1 embeddings (weighted neighbour means), stream through the
  single-pass K-means to join existing clusters, and clusters whose
  centroid drifted past --drift-threshold are re-coarsened bounded to
  their own members. The patched model is written to --out-model and a
  CRC-framed HGHD delta to --out-delta. `apply-delta` replays such a
  delta onto a replica's copy of the *base* model, producing the
  identical patched model byte for byte; a delta applied to the wrong
  base, or applied twice, is refused (fingerprint check, exit 4).
  --no-normalize must match how the model was trained.

EXIT CODES:
  0 ok | 2 usage/config | 3 I/O | 4 corrupt data | 5 diverged (NaN/Inf)

FORMATS:
  edges  : text lines `left right [weight]` (tab/space/comma separated,
           `#` comments); vertex ids are compacted to dense ranges
  MODEL  : binary hierarchy (hignn::io, CRC-checked HGHI v2; any other
           version is refused as corrupt, exit 4)
  .hgmx  : binary matrix (hignn_tensor::serialize)
";

/// Runs a parsed command, writing human output to `out`. The binary
/// maps the error's [`HignnError::exit_code`] to the process status.
pub fn run(opts: &Opts, out: &mut dyn Write) -> Result<(), HignnError> {
    match opts.command.as_str() {
        "stats" => stats(opts, out),
        "train" => train(opts, out),
        "info" => info(opts, out),
        "embed" => embed(opts, out),
        "generate" => generate(opts, out),
        "topk" => topk(opts, out),
        "serve-bench" => serve_bench(opts, out),
        "ingest" => ingest(opts, out),
        "apply-delta" => apply_delta_cmd(opts, out),
        "help" | "" => {
            let _ = writeln!(out, "{USAGE}");
            Ok(())
        }
        other => Err(HignnError::Config(format!("unknown command `{other}` (try `hignn help`)"))),
    }
}

fn emit(out: &mut dyn Write, text: String) {
    let _ = writeln!(out, "{text}");
}

/// Lifts the option parser's string errors into usage errors (exit 2).
fn usage<T>(r: Result<T, String>) -> Result<T, HignnError> {
    r.map_err(HignnError::Config)
}

fn load_edges(opts: &Opts, out: &mut dyn Write) -> Result<ParsedEdgeList, HignnError> {
    let path = usage(opts.require("edges"))?;
    let policy = if opts.flag("lenient") { LinePolicy::Lenient } else { LinePolicy::Strict };
    let file = File::open(path).map_err(|e| HignnError::io(path, e))?;
    let parsed = read_edge_list_with(file, policy).map_err(|e| HignnError::io(path, e))?;
    if parsed.skipped_lines > 0 {
        emit(out, format!("warning: skipped {} malformed lines in {path}", parsed.skipped_lines));
    }
    Ok(parsed)
}

fn stats(opts: &Opts, out: &mut dyn Write) -> Result<(), HignnError> {
    usage(opts.assert_known(&["edges", "lenient"]))?;
    let parsed = load_edges(opts, out)?;
    emit(out, GraphStats::compute(&parsed.graph).to_string());
    Ok(())
}

fn train(opts: &Opts, out: &mut dyn Write) -> Result<(), HignnError> {
    usage(opts.assert_known(&[
        "edges", "out", "levels", "alpha", "dim", "epochs", "seed", "no-normalize",
        "threads", "checkpoint", "resume", "lenient", "metrics", "log-format",
    ]))?;
    let model_path = usage(opts.require("out"))?.to_string();
    let levels: usize = usage(opts.get_or("levels", 3))?;
    let alpha: f64 = usage(opts.get_or("alpha", 5.0))?;
    let dim: usize = usage(opts.get_or("dim", 32))?;
    let epochs: usize = usage(opts.get_or("epochs", 4))?;
    let seed: u64 = usage(opts.get_or("seed", 0))?;
    let default_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads: usize = usage(opts.get_or("threads", default_threads))?;

    // Crash-safety options. `--resume DIR` implies checkpointing to DIR.
    let (ckpt_dir, resume) = match (opts.get("resume"), opts.get("checkpoint")) {
        (Some(_), Some(_)) => {
            return Err(HignnError::Config(
                "--checkpoint and --resume are mutually exclusive (resume implies \
                 checkpointing to the same directory)"
                    .into(),
            ));
        }
        (Some(d), None) => (Some(d.to_string()), true),
        (None, Some(d)) => (Some(d.to_string()), false),
        (None, None) => (None, false),
    };
    // Observability: both knobs validate (and thus can exit 2) before
    // any filesystem access. Recording is inert — it never changes the
    // trained model — so flipping these alters no result bytes.
    let metrics_path = opts.get("metrics").map(str::to_string);
    match opts.get("log-format") {
        None => {}
        Some("plain") => hignn_obs::set_log_format(Some(hignn_obs::LogFormat::Plain)),
        Some("json") => hignn_obs::set_log_format(Some(hignn_obs::LogFormat::Json)),
        Some(other) => {
            return Err(HignnError::Config(format!(
                "--log-format must be plain or json, got `{other}`"
            )));
        }
    }
    if metrics_path.is_some() {
        hignn_obs::set_enabled(true);
        hignn_obs::global().reset();
    }

    // One validated spec carries every knob (including --threads). Built
    // before any filesystem access, so usage/config errors (exit 2) take
    // precedence over I/O errors (exit 3).
    let mut builder = HignnBuilder::new()
        .levels(levels)
        .input_dim(dim)
        .embedding_dim(dim)
        .epochs(epochs)
        // Text edge lists carry no vertex features; use trainable random
        // tables (the featureless-graph treatment, see DESIGN.md §6).
        .trainable_features(true)
        .alpha_decay(alpha)
        .kmeans(KMeansAlgo::Lloyd)
        .normalize(!opts.flag("no-normalize"))
        .seed(seed)
        .threads(threads)
        .resume(resume);
    if let Some(dir) = &ckpt_dir {
        builder = builder.checkpoint_dir(dir);
    }
    let spec = builder.build()?;

    let parsed = load_edges(opts, out)?;
    let g = &parsed.graph;
    emit(
        out,
        format!(
            "training HiGNN: {} x {} vertices, {} edges, L = {levels}, alpha = {alpha}",
            g.num_left(),
            g.num_right(),
            g.num_edges()
        ),
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCE1);
    let scale = 1.0 / (dim as f32).sqrt();
    let uf = init::normal(g.num_left(), dim, scale, &mut rng);
    let if_ = init::normal(g.num_right(), dim, scale, &mut rng);

    if resume {
        let dir = spec.checkpoint_dir().expect("resume implies a checkpoint directory");
        let (meta, _) = CheckpointStore::create(dir)?.read_meta()?;
        emit(
            out,
            format!(
                "resuming from checkpoint: {}/{} levels already complete",
                meta.levels_done, meta.levels_total
            ),
        );
    }
    let hierarchy = spec.run(g, &uf, &if_)?;
    for (l, level) in hierarchy.levels().iter().enumerate() {
        emit(
            out,
            format!(
                "level {}: {} -> {} user clusters, {} -> {} item clusters, loss {:.4}",
                l + 1,
                level.user_embeddings.rows(),
                level.user_assignment.num_clusters(),
                level.item_embeddings.rows(),
                level.item_assignment.num_clusters(),
                level.epoch_losses.last().copied().unwrap_or(f32::NAN)
            ),
        );
    }
    save_hierarchy(&model_path, &hierarchy).map_err(|e| HignnError::io(&model_path, e))?;
    emit(out, format!("saved model to {model_path}"));
    if let Some(path) = &metrics_path {
        let report = hignn_obs::report::render(
            hignn_obs::global(),
            &[
                ("command", hignn_obs::report::json_str("train")),
                ("seed", hignn_obs::report::json_u64(seed)),
                ("levels", hignn_obs::report::json_u64(levels as u64)),
                ("threads", hignn_obs::report::json_u64(threads as u64)),
            ],
        );
        hignn_obs::set_enabled(false);
        std::fs::write(path, &report).map_err(|e| HignnError::io(path, e))?;
        emit(out, format!("wrote metrics report to {path}"));
    }
    Ok(())
}

fn info(opts: &Opts, out: &mut dyn Write) -> Result<(), HignnError> {
    usage(opts.assert_known(&["model"]))?;
    let path = usage(opts.require("model"))?;
    let h = load_hierarchy(path).map_err(|e| HignnError::io(path, e))?;
    emit(
        out,
        format!(
            "hierarchy: {} levels | {} users (dim {}) | {} items (dim {})",
            h.num_levels(),
            h.num_users(),
            h.user_dim(),
            h.num_items(),
            h.item_dim()
        ),
    );
    for (l, level) in h.levels().iter().enumerate() {
        emit(
            out,
            format!(
                "  level {}: {} user clusters, {} item clusters, coarsened graph {} edges as trained",
                l + 1,
                level.user_assignment.num_clusters(),
                level.item_assignment.num_clusters(),
                level.coarsened.num_edges()
            ),
        );
    }
    Ok(())
}

fn embed(opts: &Opts, out: &mut dyn Write) -> Result<(), HignnError> {
    usage(opts.assert_known(&["model", "side", "out"]))?;
    let path = usage(opts.require("model"))?;
    let side = usage(opts.require("side"))?.to_string();
    let out_path = usage(opts.require("out"))?.to_string();
    let h = load_hierarchy(path).map_err(|e| HignnError::io(path, e))?;
    let matrix: Matrix = match side.as_str() {
        "user" => h.hierarchical_users(),
        "item" => h.hierarchical_items(),
        other => {
            return Err(HignnError::Config(format!(
                "--side must be `user` or `item`, got `{other}`"
            )));
        }
    };
    let file = File::create(&out_path).map_err(|e| HignnError::io(&out_path, e))?;
    let mut w = BufWriter::new(file);
    write_matrix(&mut w, &matrix).map_err(|e| HignnError::io(&out_path, e))?;
    emit(
        out,
        format!(
            "wrote {} {}x{} hierarchical embeddings to {out_path}",
            side,
            matrix.rows(),
            matrix.cols()
        ),
    );
    Ok(())
}

fn generate(opts: &Opts, out: &mut dyn Write) -> Result<(), HignnError> {
    use hignn_datasets::taobao::{generate_taobao, TaobaoConfig};
    use hignn_graph::edgelist::write_edge_list;
    usage(opts.assert_known(&["out", "kind", "scale", "seed"]))?;
    let out_path = usage(opts.require("out"))?.to_string();
    let kind = opts.get("kind").unwrap_or("taobao1");
    let scale: f64 = usage(opts.get_or("scale", 0.5))?;
    let seed: u64 = usage(opts.get_or("seed", 0))?;
    let cfg = match kind {
        "taobao1" => TaobaoConfig { seed, ..TaobaoConfig::taobao1(scale) },
        "taobao2" => TaobaoConfig { seed, ..TaobaoConfig::taobao2(scale) },
        other => {
            return Err(HignnError::Config(format!(
                "--kind must be taobao1 or taobao2, got `{other}`"
            )));
        }
    };
    let ds = generate_taobao(&cfg);
    let file = File::create(&out_path).map_err(|e| HignnError::io(&out_path, e))?;
    let mut w = BufWriter::new(file);
    write_edge_list(&mut w, &ds.graph).map_err(|e| HignnError::io(&out_path, e))?;
    emit(
        out,
        format!(
            "wrote {} edges ({} users x {} items, {kind}, scale {scale}) to {out_path}",
            ds.graph.num_edges(),
            ds.num_users(),
            ds.num_items()
        ),
    );
    Ok(())
}

/// Parses `--beam-width` (positive integer or `inf`; defaults to the
/// engine's default width).
fn parse_beam(opts: &Opts) -> Result<BeamWidth, HignnError> {
    match opts.get("beam-width") {
        None => Ok(DEFAULT_BEAM_WIDTH),
        Some(token) => token
            .parse()
            .map_err(|e: String| HignnError::Config(format!("--beam-width: {e}"))),
    }
}

fn topk(opts: &Opts, out: &mut dyn Write) -> Result<(), HignnError> {
    usage(opts.assert_known(&["model", "user", "topk", "beam-width", "scorer-seed"]))?;
    let path = usage(opts.require("model"))?;
    let user: usize = usage(opts.require("user"))?
        .parse()
        .map_err(|_| HignnError::Config("--user must be a non-negative integer".into()))?;
    let k: usize = usage(opts.get_or("topk", DEFAULT_TOP_K))?;
    let beam = parse_beam(opts)?;
    let seed: u64 = usage(opts.get_or("scorer-seed", DEFAULT_SCORER_SEED))?;
    let model = ServeModel::load(path, seed)?;
    let ranked = model.top_k(user, k, beam)?;
    // A finite beam can reach fewer than k leaves (`ServeModel::top_k`).
    let n = ranked.len();
    let header = if n < k {
        format!("user {user} top-{k}: {n} of {k} (beam {beam} reached {n} items, scorer seed {seed}):")
    } else {
        format!("user {user} top-{k} (beam {beam}, scorer seed {seed}):")
    };
    emit(out, header);
    for (rank, s) in ranked.iter().enumerate() {
        emit(out, format!("  {:>3}. item {:<10} score {:+.6}", rank + 1, s.item, s.score));
    }
    Ok(())
}

fn serve_bench(opts: &Opts, out: &mut dyn Write) -> Result<(), HignnError> {
    usage(opts.assert_known(&[
        "model", "topk", "beam-width", "serve-threads", "requests", "scorer-seed",
    ]))?;
    let path = usage(opts.require("model"))?;
    let k: usize = usage(opts.get_or("topk", DEFAULT_TOP_K))?;
    let beam = parse_beam(opts)?;
    let seed: u64 = usage(opts.get_or("scorer-seed", DEFAULT_SCORER_SEED))?;
    let default_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads: usize = usage(opts.get_or("serve-threads", default_threads))?;
    if threads == 0 {
        return Err(HignnError::Config("--serve-threads must be at least 1".into()));
    }
    let requests: usize = usage(opts.get_or("requests", 256))?;
    if requests == 0 {
        return Err(HignnError::Config("--requests must be at least 1".into()));
    }
    let model = ServeModel::load(path, seed)?;
    // Surface bad (k, user-range) combinations as usage errors before
    // the sweep, which asserts requests are valid.
    model.top_k(0, k, beam)?;
    let stream: Vec<TopKRequest> = (0..requests)
        .map(|i| TopKRequest { user: i % model.num_users(), k, beam })
        .collect();
    emit(
        out,
        format!(
            "serve-bench: {} users, {} items, {} levels | {requests} requests, beam {beam}",
            model.num_users(),
            model.num_items(),
            model.num_levels()
        ),
    );
    let lat = latency_sweep(&model, &stream, threads)?;
    emit(
        out,
        format!(
            "latency ({} threads): p50 {:.1}us | p99 {:.1}us | {:.0} qps",
            lat.threads, lat.p50_us, lat.p99_us, lat.qps
        ),
    );
    let users: Vec<usize> = (0..model.num_users().min(64)).collect();
    let rec = recall_sweep(&model, &users, k, beam)?;
    emit(out, format!("recall@{k} vs exhaustive (beam {beam}): {:.4}", rec.recall));
    Ok(())
}

/// Reads one edge-list file under the shared `--lenient` policy.
fn read_edges_file(
    path: &str,
    opts: &Opts,
    out: &mut dyn Write,
) -> Result<ParsedEdgeList, HignnError> {
    let policy = if opts.flag("lenient") { LinePolicy::Lenient } else { LinePolicy::Strict };
    let file = File::open(path).map_err(|e| HignnError::io(path, e))?;
    let parsed = read_edge_list_with(file, policy).map_err(|e| HignnError::io(path, e))?;
    if parsed.skipped_lines > 0 {
        emit(out, format!("warning: skipped {} malformed lines in {path}", parsed.skipped_lines));
    }
    Ok(parsed)
}

fn ingest(opts: &Opts, out: &mut dyn Write) -> Result<(), HignnError> {
    use hignn::ingest::{save_delta, IngestConfig, IngestEngine};
    use std::collections::HashMap;
    usage(opts.assert_known(&[
        "model", "base-edges", "new-edges", "out-model", "out-delta", "drift-threshold",
        "no-normalize", "lenient",
    ]))?;
    let model_path = usage(opts.require("model"))?.to_string();
    let base_path = usage(opts.require("base-edges"))?.to_string();
    let new_path = usage(opts.require("new-edges"))?.to_string();
    let out_model = usage(opts.require("out-model"))?.to_string();
    let out_delta = usage(opts.require("out-delta"))?.to_string();
    let drift_threshold: f32 = usage(opts.get_or("drift-threshold", 0.05_f32))?;
    if drift_threshold.is_nan() || drift_threshold < 0.0 {
        return Err(HignnError::Config("--drift-threshold must be >= 0".into()));
    }
    let cfg = IngestConfig { drift_threshold, normalize: !opts.flag("no-normalize") };

    let hierarchy = load_hierarchy(&model_path).map_err(|e| HignnError::io(&model_path, e))?;
    let base = read_edges_file(&base_path, opts, out)?;
    let batch = read_edges_file(&new_path, opts, out)?;

    // The model was trained on --base-edges with original ids compacted
    // to dense ranges; remap the new batch through the same tables,
    // handing unseen originals fresh dense ids above the base ranges.
    let mut left: HashMap<u64, u32> =
        base.left_ids.iter().enumerate().map(|(d, &o)| (o, d as u32)).collect();
    let mut right: HashMap<u64, u32> =
        base.right_ids.iter().enumerate().map(|(d, &o)| (o, d as u32)).collect();
    let mut edges = Vec::with_capacity(batch.graph.num_edges());
    for &(l, r, w) in batch.graph.edges() {
        let nl = left.len() as u32;
        let u = *left.entry(batch.left_ids[l as usize]).or_insert(nl);
        let nr = right.len() as u32;
        let i = *right.entry(batch.right_ids[r as usize]).or_insert(nr);
        edges.push((u, i, w));
    }

    let mut engine = IngestEngine::new(hierarchy, base.graph, cfg)?;
    let (report, delta) = engine.ingest(&edges)?;
    emit(
        out,
        format!(
            "ingested {} edges: +{} users, +{} items | moved {} users, {} items | \
             dirty clusters {}u/{}i | max drift {:.2e}u/{:.2e}i | dead {}u/{}i",
            report.new_edges,
            report.new_users,
            report.new_items,
            report.moved_users,
            report.moved_items,
            report.dirty_user_clusters,
            report.dirty_item_clusters,
            report.max_user_drift,
            report.max_item_drift,
            report.dead_user_clusters,
            report.dead_item_clusters,
        ),
    );
    save_delta(&out_delta, &delta).map_err(|e| HignnError::io(&out_delta, e))?;
    emit(out, format!("wrote delta seq {} to {out_delta}", delta.seq));
    save_hierarchy(&out_model, engine.hierarchy()).map_err(|e| HignnError::io(&out_model, e))?;
    emit(
        out,
        format!(
            "saved patched model ({} users, {} items) to {out_model}",
            engine.hierarchy().num_users(),
            engine.hierarchy().num_items()
        ),
    );
    Ok(())
}

fn apply_delta_cmd(opts: &Opts, out: &mut dyn Write) -> Result<(), HignnError> {
    use hignn::ingest::load_delta;
    usage(opts.assert_known(&["model", "delta", "out"]))?;
    let model_path = usage(opts.require("model"))?.to_string();
    let delta_path = usage(opts.require("delta"))?.to_string();
    let out_path = usage(opts.require("out"))?.to_string();
    let mut hierarchy =
        load_hierarchy(&model_path).map_err(|e| HignnError::io(&model_path, e))?;
    let delta = load_delta(&delta_path).map_err(|e| HignnError::io(&delta_path, e))?;
    hignn::ingest::apply_delta(&mut hierarchy, &delta)?;
    save_hierarchy(&out_path, &hierarchy).map_err(|e| HignnError::io(&out_path, e))?;
    emit(
        out,
        format!(
            "applied delta seq {} ({} users, {} items) -> {out_path}",
            delta.seq,
            hierarchy.num_users(),
            hierarchy.num_items()
        ),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Opts;

    fn run_args(args: &[&str]) -> (Result<(), HignnError>, String) {
        let opts = Opts::parse(args.iter().map(|s| s.to_string())).unwrap();
        let mut buf = Vec::new();
        let result = run(&opts, &mut buf);
        (result, String::from_utf8(buf).unwrap())
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hignn_cli_test_{}_{name}", std::process::id()))
    }

    #[test]
    fn help_prints_usage() {
        let (res, text) = run_args(&["help"]);
        assert!(res.is_ok());
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let (res, _) = run_args(&["bogus"]);
        let err = res.unwrap_err();
        assert!(err.to_string().contains("bogus"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn typoed_flag_errors_instead_of_being_ignored() {
        let (res, _) = run_args(&["train", "--edges", "e.tsv", "--out", "m.hgh", "--levles", "2"]);
        let err = res.unwrap_err();
        assert_eq!(err.exit_code(), 2, "typo must be a usage error: {err}");
        assert!(err.to_string().contains("levles"), "{err}");
    }

    #[test]
    fn zero_threads_is_a_usage_error() {
        let (res, _) = run_args(&[
            "train", "--edges", "e.tsv", "--out", "m.hgh", "--threads", "0",
        ]);
        let err = res.unwrap_err();
        assert_eq!(err.exit_code(), 2, "--threads 0 must exit 2: {err}");
        assert!(err.to_string().contains("threads"), "{err}");
    }

    #[test]
    fn generate_stats_train_info_embed_roundtrip() {
        let edges = temp_path("edges.tsv");
        let model = temp_path("model.hgh");
        let emb = temp_path("users.hgmx");
        let edges_s = edges.to_str().unwrap();
        let model_s = model.to_str().unwrap();
        let emb_s = emb.to_str().unwrap();

        // generate
        let (res, text) =
            run_args(&["generate", "--out", edges_s, "--kind", "taobao2", "--scale", "0.05", "--seed", "4"]);
        assert!(res.is_ok(), "{res:?}");
        assert!(text.contains("wrote"));

        // stats
        let (res, text) = run_args(&["stats", "--edges", edges_s]);
        assert!(res.is_ok(), "{res:?}");
        assert!(text.contains("density"));

        // train (tiny settings)
        let (res, text) = run_args(&[
            "train", "--edges", edges_s, "--out", model_s, "--levels", "2", "--dim", "8",
            "--epochs", "1", "--alpha", "6",
        ]);
        assert!(res.is_ok(), "{res:?}");
        assert!(text.contains("saved model"));

        // info
        let (res, text) = run_args(&["info", "--model", model_s]);
        assert!(res.is_ok(), "{res:?}");
        assert!(text.contains("hierarchy: 2 levels"), "{text}");

        // embed
        let (res, text) = run_args(&["embed", "--model", model_s, "--side", "user", "--out", emb_s]);
        assert!(res.is_ok(), "{res:?}");
        assert!(text.contains("hierarchical embeddings"));
        // The written matrix parses back.
        let m = hignn_tensor::serialize::read_matrix(
            &mut std::io::BufReader::new(File::open(&emb).unwrap()),
        )
        .unwrap();
        assert_eq!(m.cols(), 16); // 2 levels x dim 8

        for p in [edges, model, emb] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn crash_and_resume_reproduces_uninterrupted_model() {
        let edges = temp_path("cr_edges.tsv");
        let clean = temp_path("cr_clean.hgh");
        let resumed = temp_path("cr_resumed.hgh");
        let ckpt = temp_path("cr_ckpt");
        let edges_s = edges.to_str().unwrap();

        let (res, _) = run_args(&["generate", "--out", edges_s, "--scale", "0.04", "--seed", "9"]);
        assert!(res.is_ok(), "{res:?}");

        let base = [
            "train", "--edges", edges_s, "--levels", "2", "--dim", "8", "--epochs", "1",
            "--alpha", "6", "--seed", "3",
        ];
        // Uninterrupted run.
        let mut clean_args = base.to_vec();
        clean_args.extend(["--out", clean.to_str().unwrap()]);
        let (res, _) = run_args(&clean_args);
        assert!(res.is_ok(), "{res:?}");

        let ckpt_s = ckpt.to_str().unwrap();
        for threads in ["1", "4"] {
            // Die after level 1's checkpoint: a directory where level 2's
            // temp file goes makes its write fail (exit 3).
            let _ = std::fs::remove_dir_all(&ckpt);
            std::fs::create_dir_all(ckpt.join("level_02.tmp")).unwrap();
            let mut crash_args = base.to_vec();
            crash_args.extend([
                "--out", resumed.to_str().unwrap(), "--checkpoint", ckpt_s, "--threads", threads,
            ]);
            let (res, _) = run_args(&crash_args);
            let err = res.unwrap_err();
            assert_eq!(err.exit_code(), 3, "expected an I/O exit, got: {err}");
            assert!(!resumed.exists(), "crashed run must not have written a model");
            std::fs::remove_dir(ckpt.join("level_02.tmp")).unwrap();

            // Resume and finish.
            let mut resume_args = base.to_vec();
            resume_args.extend([
                "--out", resumed.to_str().unwrap(), "--resume", ckpt_s, "--threads", threads,
            ]);
            let (res, text) = run_args(&resume_args);
            assert!(res.is_ok(), "{res:?}");
            assert!(text.contains("resuming from checkpoint: 1/2"), "{text}");

            // Byte-for-byte identical to the uninterrupted model.
            let a = std::fs::read(&clean).unwrap();
            let b = std::fs::read(&resumed).unwrap();
            assert_eq!(a, b, "resumed model differs from uninterrupted run ({threads} threads)");
            std::fs::remove_file(&resumed).unwrap();
        }

        // Resuming with a different seed is refused (fingerprint).
        let mut wrong = base.to_vec();
        let last = wrong.len() - 1;
        wrong[last] = "4"; // --seed 4
        wrong.extend(["--out", resumed.to_str().unwrap(), "--resume", ckpt_s]);
        let (res, _) = run_args(&wrong);
        let err = res.unwrap_err();
        assert_eq!(err.exit_code(), 2, "fingerprint mismatch is a config error: {err}");
        assert!(err.to_string().contains("fingerprint"), "{err}");

        for p in [edges, clean, resumed] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&ckpt);
    }

    #[test]
    fn corrupted_checkpoint_is_detected_on_resume() {
        let edges = temp_path("cor_edges.tsv");
        let model = temp_path("cor_model.hgh");
        let ckpt = temp_path("cor_ckpt");
        let edges_s = edges.to_str().unwrap();
        let ckpt_s = ckpt.to_str().unwrap();

        let (res, _) = run_args(&["generate", "--out", edges_s, "--scale", "0.04", "--seed", "9"]);
        assert!(res.is_ok(), "{res:?}");
        let base = [
            "train", "--edges", edges_s, "--out", model.to_str().unwrap(), "--levels", "2",
            "--dim", "8", "--epochs", "1", "--alpha", "6", "--seed", "3",
        ];
        // A checkpointed run, then bit rot in its level-1 record.
        let mut checkpointed = base.to_vec();
        checkpointed.extend(["--checkpoint", ckpt_s]);
        let (res, _) = run_args(&checkpointed);
        assert!(res.is_ok(), "{res:?}");
        let level = ckpt.join("level_01.hgcl");
        let mut bytes = std::fs::read(&level).unwrap();
        bytes[100] ^= 64;
        std::fs::write(&level, &bytes).unwrap();

        // Resume must detect the corruption (exit 4), never panic or
        // silently produce a wrong model.
        for threads in ["1", "4"] {
            let mut resume = base.to_vec();
            resume.extend(["--resume", ckpt_s, "--threads", threads]);
            let (res, _) = run_args(&resume);
            let err = res.unwrap_err();
            assert_eq!(err.exit_code(), 4, "expected corruption exit, got: {err}");
        }

        let _ = std::fs::remove_file(edges);
        let _ = std::fs::remove_file(model);
        let _ = std::fs::remove_dir_all(&ckpt);
    }

    #[test]
    fn removed_math_flag_is_an_unknown_option() {
        // Spelled in two pieces so a tree-wide grep for the removed flags
        // stays empty.
        let flag = ["--", "math"].concat();
        let objective = ["--", "objective"].concat();
        let fault = ["--", "fault"].concat();
        let train = ["train", "--edges", "e.tsv", "--out", "m.hgh", &flag, "bitwise"];
        let topk = ["topk", "--model", "m.hgh", "--user", "0", &flag, "bitwise"];
        // The removed objective, fault-injection, divergence, deadline
        // and retry knobs, each with a value that was once valid.
        let removed = [
            (objective.as_str(), "edge"),
            (fault.as_str(), "crash-after-level=1"),
            ("--on-divergence", "rollback"),
            ("--deadline-secs", "60"),
            ("--max-retries", "3"),
            ("--retry-base-ms", "0"),
        ];
        let supervision = removed
            .map(|(flag, value)| ["train", "--edges", "e.tsv", "--out", "m.hgh", flag, value]);
        for args in [&train[..], &topk[..]].into_iter().chain(supervision.iter().map(|a| &a[..])) {
            let flag = args[5];
            let (res, _) = run_args(args);
            let err = res.unwrap_err();
            assert_eq!(err.exit_code(), 2, "{flag} on `{}` must exit 2: {err}", args[0]);
            assert!(err.to_string().contains(&format!("unknown option {flag}")), "{err}");
        }
    }

    #[test]
    fn lenient_flag_reports_skipped_lines() {
        let edges = temp_path("len_edges.tsv");
        std::fs::write(&edges, "1 2 1.0\nbroken line\n3 4 1.0\n5 6 1.0\n7 8 1.0\n").unwrap();
        let edges_s = edges.to_str().unwrap();
        // Strict (default): fails naming the line and content.
        let (res, _) = run_args(&["stats", "--edges", edges_s]);
        let err = res.unwrap_err();
        assert_eq!(err.exit_code(), 4, "malformed text is corrupt data: {err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        // Lenient: succeeds with a warning.
        let (res, text) = run_args(&["stats", "--edges", edges_s, "--lenient"]);
        assert!(res.is_ok(), "{res:?}");
        assert!(text.contains("skipped 1 malformed"), "{text}");
        let _ = std::fs::remove_file(&edges);
    }

    #[test]
    fn embed_rejects_bad_side() {
        let (res, _) = run_args(&["embed", "--model", "nope.hgh", "--side", "user", "--out", "x"]);
        assert!(res.is_err()); // missing model file
        let model = temp_path("side_model.hgh");
        let edges = temp_path("side_edges.tsv");
        let (r1, _) = run_args(&["generate", "--out", edges.to_str().unwrap(), "--scale", "0.05"]);
        assert!(r1.is_ok());
        let (r2, _) = run_args(&[
            "train", "--edges", edges.to_str().unwrap(), "--out", model.to_str().unwrap(),
            "--levels", "1", "--dim", "4", "--epochs", "1",
        ]);
        assert!(r2.is_ok());
        let (res, _) = run_args(&[
            "embed", "--model", model.to_str().unwrap(), "--side", "sideways", "--out", "x",
        ]);
        let err = res.unwrap_err();
        assert!(err.to_string().contains("sideways"));
        assert_eq!(err.exit_code(), 2);
        let _ = std::fs::remove_file(model);
        let _ = std::fs::remove_file(edges);
    }

    /// Generates and trains a tiny model, returning its path (caller
    /// removes it).
    fn tiny_model(tag: &str) -> std::path::PathBuf {
        let edges = temp_path(&format!("{tag}_edges.tsv"));
        let model = temp_path(&format!("{tag}_model.hgh"));
        let (res, _) =
            run_args(&["generate", "--out", edges.to_str().unwrap(), "--scale", "0.05", "--seed", "7"]);
        assert!(res.is_ok(), "{res:?}");
        let (res, _) = run_args(&[
            "train", "--edges", edges.to_str().unwrap(), "--out", model.to_str().unwrap(),
            "--levels", "2", "--dim", "8", "--epochs", "1", "--alpha", "6",
        ]);
        assert!(res.is_ok(), "{res:?}");
        let _ = std::fs::remove_file(edges);
        model
    }

    #[test]
    fn topk_serves_and_beam_inf_matches_default_schema() {
        let model = tiny_model("topk");
        let model_s = model.to_str().unwrap();
        let (res, text) = run_args(&["topk", "--model", model_s, "--user", "0", "--topk", "5"]);
        assert!(res.is_ok(), "{res:?}");
        assert!(text.contains("top-5"), "{text}");
        assert_eq!(text.lines().filter(|l| l.contains("item")).count(), 5, "{text}");

        // Beam inf parses and serves too.
        let (res, text) = run_args(&[
            "topk", "--model", model_s, "--user", "1", "--beam-width", "inf",
        ]);
        assert!(res.is_ok(), "{res:?}");
        assert!(text.contains("beam inf"), "{text}");

        // A beam too narrow to reach k leaves says so in the header and
        // lists exactly what it reached.
        let (res, text) = run_args(&[
            "topk", "--model", model_s, "--user", "1", "--topk", "60", "--beam-width", "1",
        ]);
        assert!(res.is_ok(), "{res:?}");
        let listed = text.lines().filter(|l| l.contains("item ")).count();
        assert!(listed < 60, "beam 1 must not reach 60 leaves: {text}");
        assert!(
            text.contains(&format!("{listed} of 60 (beam 1 reached {listed} items")),
            "{text}"
        );

        // Identical query, identical output (engine determinism through
        // the CLI surface).
        let (_, a) = run_args(&["topk", "--model", model_s, "--user", "2"]);
        let (_, b) = run_args(&["topk", "--model", model_s, "--user", "2"]);
        assert_eq!(a, b);
        let _ = std::fs::remove_file(model);
    }

    #[test]
    fn malformed_serve_requests_are_usage_errors_not_panics() {
        let model = tiny_model("badreq");
        let model_s = model.to_str().unwrap();
        // k = 0.
        let (res, _) = run_args(&["topk", "--model", model_s, "--user", "0", "--topk", "0"]);
        let err = res.unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("at least 1"), "{err}");
        // k > number of items.
        let (res, _) = run_args(&["topk", "--model", model_s, "--user", "0", "--topk", "9999999"]);
        let err = res.unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("exceeds"), "{err}");
        // Unknown user.
        let (res, _) = run_args(&["topk", "--model", model_s, "--user", "9999999"]);
        let err = res.unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("unknown user"), "{err}");
        // Bad beam width.
        for bad in ["0", "wide"] {
            let (res, _) =
                run_args(&["topk", "--model", model_s, "--user", "0", "--beam-width", bad]);
            let err = res.unwrap_err();
            assert_eq!(err.exit_code(), 2, "beam `{bad}`: {err}");
            assert!(err.to_string().contains("beam-width"), "{err}");
        }
        // serve-bench validates its own knobs.
        let (res, _) = run_args(&["serve-bench", "--model", model_s, "--serve-threads", "0"]);
        assert_eq!(res.unwrap_err().exit_code(), 2);
        let (res, _) = run_args(&["serve-bench", "--model", model_s, "--requests", "0"]);
        assert_eq!(res.unwrap_err().exit_code(), 2);
        let _ = std::fs::remove_file(model);
    }

    #[test]
    fn corrupt_model_is_a_structured_serve_error() {
        let model = tiny_model("corrupt_serve");
        let model_s = model.to_str().unwrap();
        let mut bytes = std::fs::read(&model).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&model, &bytes).unwrap();
        let (res, _) = run_args(&["topk", "--model", model_s, "--user", "0"]);
        let err = res.unwrap_err();
        assert_eq!(err.exit_code(), 4, "corrupt model must exit 4: {err}");
        // Missing model file stays an I/O error.
        let (res, _) = run_args(&["topk", "--model", "/nonexistent/m.hgh", "--user", "0"]);
        assert_eq!(res.unwrap_err().exit_code(), 3);
        let _ = std::fs::remove_file(model);
    }

    #[test]
    fn serve_bench_reports_latency_and_perfect_recall_at_beam_inf() {
        let model = tiny_model("sbench");
        let model_s = model.to_str().unwrap();
        let (res, text) = run_args(&[
            "serve-bench", "--model", model_s, "--requests", "16", "--serve-threads", "2",
            "--beam-width", "inf", "--topk", "5",
        ]);
        assert!(res.is_ok(), "{res:?}");
        assert!(text.contains("p50"), "{text}");
        assert!(text.contains("qps"), "{text}");
        assert!(text.contains("recall@5 vs exhaustive (beam inf): 1.0000"), "{text}");
        let _ = std::fs::remove_file(model);
    }

    #[test]
    fn ingest_patches_model_and_delta_replays_bitwise() {
        let edges = temp_path("ing_edges.tsv");
        let model = temp_path("ing_model.hgh");
        let newe = temp_path("ing_new.tsv");
        let patched = temp_path("ing_patched.hgh");
        let replayed = temp_path("ing_replayed.hgh");
        let delta = temp_path("ing_delta.hgd");
        let edges_s = edges.to_str().unwrap();
        let model_s = model.to_str().unwrap();

        let (res, _) =
            run_args(&["generate", "--out", edges_s, "--scale", "0.05", "--seed", "7"]);
        assert!(res.is_ok(), "{res:?}");
        let (res, _) = run_args(&[
            "train", "--edges", edges_s, "--out", model_s, "--levels", "2", "--dim", "8",
            "--epochs", "1", "--alpha", "6",
        ]);
        assert!(res.is_ok(), "{res:?}");
        let (_, info_before) = run_args(&["info", "--model", model_s]);
        let users_before: usize = info_before
            .split("levels | ")
            .nth(1)
            .and_then(|s| s.split(" users").next())
            .unwrap()
            .parse()
            .unwrap();

        // Original id 900000 is unseen in the base file -> a new user;
        // 55 is a new item; ids 0/1 are existing vertices.
        std::fs::write(
            &newe,
            "900000\t0\t1.0\n900000\t1\t2.0\n0\t900055\t1.0\n900000\t900055\t1.0\n",
        )
        .unwrap();
        let (res, text) = run_args(&[
            "ingest", "--model", model_s, "--base-edges", edges_s, "--new-edges",
            newe.to_str().unwrap(), "--out-model", patched.to_str().unwrap(), "--out-delta",
            delta.to_str().unwrap(),
        ]);
        assert!(res.is_ok(), "{res:?}");
        assert!(text.contains("+1 users, +1 items"), "{text}");
        assert!(text.contains("wrote delta seq 1"), "{text}");

        // Replaying the delta on the base model reproduces the patched
        // model byte for byte — the replica catch-up contract.
        let (res, _) = run_args(&[
            "apply-delta", "--model", model_s, "--delta", delta.to_str().unwrap(), "--out",
            replayed.to_str().unwrap(),
        ]);
        assert!(res.is_ok(), "{res:?}");
        assert_eq!(
            std::fs::read(&patched).unwrap(),
            std::fs::read(&replayed).unwrap(),
            "apply-delta output differs from the ingesting writer's model"
        );

        // The patched model serves the brand-new user.
        let new_user = users_before.to_string();
        let (res, text) = run_args(&[
            "topk", "--model", patched.to_str().unwrap(), "--user", &new_user, "--topk", "5",
        ]);
        assert!(res.is_ok(), "new user must be servable: {res:?}");
        assert!(text.contains("top-5"), "{text}");
        // ...and the base model still does not know it.
        let (res, _) = run_args(&["topk", "--model", model_s, "--user", &new_user]);
        assert_eq!(res.unwrap_err().exit_code(), 2);

        // Applying the delta to the *patched* model (wrong base /
        // double apply) is refused as corruption.
        let (res, _) = run_args(&[
            "apply-delta", "--model", patched.to_str().unwrap(), "--delta",
            delta.to_str().unwrap(), "--out", replayed.to_str().unwrap(),
        ]);
        assert_eq!(res.unwrap_err().exit_code(), 4, "double apply must exit 4");

        // A corrupt delta file is a structured error, exit 4.
        let mut bytes = std::fs::read(&delta).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&delta, &bytes).unwrap();
        let (res, _) = run_args(&[
            "apply-delta", "--model", model_s, "--delta", delta.to_str().unwrap(), "--out",
            replayed.to_str().unwrap(),
        ]);
        assert_eq!(res.unwrap_err().exit_code(), 4, "corrupt delta must exit 4");

        for p in [edges, model, newe, patched, replayed, delta] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn ingest_flags_are_validated() {
        // Missing required flags exit 2.
        let (res, _) = run_args(&["ingest", "--model", "m.hgh"]);
        assert_eq!(res.unwrap_err().exit_code(), 2);
        let (res, _) = run_args(&["apply-delta", "--model", "m.hgh"]);
        assert_eq!(res.unwrap_err().exit_code(), 2);
        // Negative drift threshold exits 2 before touching the disk.
        let (res, _) = run_args(&[
            "ingest", "--model", "m.hgh", "--base-edges", "b.tsv", "--new-edges", "n.tsv",
            "--out-model", "p.hgh", "--out-delta", "d.hgd", "--drift-threshold", "-1",
        ]);
        let err = res.unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("drift-threshold"), "{err}");
    }

    #[test]
    fn stats_reports_missing_file() {
        let (res, _) = run_args(&["stats", "--edges", "/nonexistent/x.tsv"]);
        let err = res.unwrap_err();
        assert_eq!(err.exit_code(), 3, "missing file is an I/O error: {err}");
    }

    #[test]
    fn bad_log_format_is_a_usage_error() {
        let (res, _) = run_args(&[
            "train", "--edges", "e.tsv", "--out", "m.hgh", "--log-format", "xml",
        ]);
        let err = res.unwrap_err();
        assert_eq!(err.exit_code(), 2, "--log-format xml must exit 2: {err}");
        assert!(err.to_string().contains("log-format"), "{err}");
    }

    #[test]
    fn metrics_report_is_written_and_inert() {
        let edges = temp_path("met_edges.tsv");
        let plain = temp_path("met_plain.hgh");
        let observed = temp_path("met_observed.hgh");
        let report = temp_path("met_report.json");
        let edges_s = edges.to_str().unwrap();

        let (res, _) = run_args(&["generate", "--out", edges_s, "--scale", "0.04", "--seed", "2"]);
        assert!(res.is_ok(), "{res:?}");
        let base = [
            "train", "--edges", edges_s, "--levels", "2", "--dim", "8", "--epochs", "2",
            "--alpha", "6", "--seed", "5",
        ];
        // Metrics off.
        let mut off = base.to_vec();
        off.extend(["--out", plain.to_str().unwrap()]);
        let (res, _) = run_args(&off);
        assert!(res.is_ok(), "{res:?}");
        // Metrics on.
        let mut on = base.to_vec();
        let report_s = report.to_str().unwrap();
        on.extend(["--out", observed.to_str().unwrap(), "--metrics", report_s]);
        let (res, text) = run_args(&on);
        assert!(res.is_ok(), "{res:?}");
        assert!(text.contains("wrote metrics report"), "{text}");

        // Inertness: observing the run changed no model bytes.
        let a = std::fs::read(&plain).unwrap();
        let b = std::fs::read(&observed).unwrap();
        assert_eq!(a, b, "metrics-on model differs from metrics-off model");

        // The report carries every promised section.
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"schema\":\"hignn-metrics/v1\""), "{json}");
        assert!(json.contains("\"command\":\"train\""));
        assert!(json.contains("\"seed\":5"));
        for key in [
            "train.batches",
            "train.epochs",
            "stack.levels_built",
            "workspace.leases",
            "train.batch_loss",
            "train.epoch_loss",
            "level1.train",
            "level1.cluster",
            "level2.embed",
            "io.save_hierarchy",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "report missing {key}: {json}");
        }

        for p in [edges, plain, observed, report] {
            let _ = std::fs::remove_file(p);
        }
    }
}
