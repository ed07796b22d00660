//! The lifecycle every workload runs: generate → split → train → save →
//! load → serve → stream held-out edges to a replica → serve again.
//!
//! A workload fixes the input shape and which phase `--seconds` is
//! spent on; the other phases still run, briefly, because every
//! workload reports every end-to-end metric. Each phase repeats at
//! least [`MIN_REPEATS`] times and reports the median of its repeats.
//! All load is generated in-process, closed loop, on one thread.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::adapter::{
    self, BipartiteGraph, Edge, Hierarchy, HierarchyDelta, IngestReport, ScoredItem, ServeModel,
    Writer,
};
use crate::gen::{self, Inputs, Phase, Spec, Workload, BATCH_EDGES, BEAM, CORPUS_SEED, TOP_K};
use crate::stats::{highest_supported_percentile, percentile, summarize, Summary};
use crate::trace::Recorder;

/// Minimum repeats of set-up and of every timed section.
pub const MIN_REPEATS: usize = 3;
/// Set-up without training is tens of milliseconds; more repeats steady
/// its median at no cost.
const SETUP_REPEATS_NO_TRAINING: usize = 51;
/// Requests per serving round and before the first one.
const ROUND_REQUESTS: usize = 1000;
const WARMUP_REQUESTS: usize = 500;
/// Users in the recall sample and in each bitwise check.
const RECALL_USERS: usize = 256;
const BEAM_INF_USERS: usize = 32;
const REPLICA_CHECK_USERS: usize = 64;
/// Batches per streaming round when streaming is not the primary phase.
pub const SECONDARY_ROUND_BATCHES: usize = 32;
/// Share of `--seconds` a phase gets when it is not the primary one.
const SECONDARY_SHARE: f64 = 0.2;

/// Operations attempted and failed. An output check is an operation: a
/// wrong answer counts like a refused one.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Ops {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    pub fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|e| self.fail(format!("{what}: {e}"))).ok()
    }
}

/// Named results of a run, in the order they were measured.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, Summary)>);

impl Metrics {
    pub fn put(&mut self, name: &str, summary: Summary) {
        self.0.push((name.to_string(), summary));
    }

    pub fn exact(&mut self, name: &str, value: f64) {
        self.put(name, Summary::exact(value));
    }

    /// Median and band of `samples`; an empty sample (every operation
    /// of the section failed) records nothing, and the missing metric
    /// fails the run.
    pub fn repeats(&mut self, name: &str, samples: &[f64]) {
        if let Ok(s) = summarize(samples) {
            self.put(name, s);
        }
    }
}

/// Runs `round` at least [`MIN_REPEATS`] times, then for as long as
/// another round of the last one's length still fits in `budget_s`.
/// Stops early if a round fails.
fn repeat_within(budget_s: f64, mut round: impl FnMut() -> bool) {
    let start = Instant::now();
    let mut done = 0;
    loop {
        let t = Instant::now();
        if !round() {
            return;
        }
        done += 1;
        if done >= MIN_REPEATS
            && start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > budget_s
        {
            return;
        }
    }
}

// --- set-up and training -----------------------------------------------------

pub struct Setup {
    pub inputs: Inputs,
    pub graph: BipartiteGraph,
    /// When the workload trains in set-up: the model as re-opened for
    /// serving, and the wall time of the build.
    pub trained: Option<(ServeModel, f64)>,
}

/// One `TrainSpec::run` with its output checks; returns the hierarchy
/// and the wall time of the call.
pub fn train_checked(
    spec: &Spec,
    threads: usize,
    inputs: &Inputs,
    graph: &BipartiteGraph,
    ops: &mut Ops,
) -> Option<(Hierarchy, f64)> {
    let settings = adapter::TrainSettings {
        levels: spec.levels,
        epochs: spec.epochs,
        seed: CORPUS_SEED,
    };
    let t = Instant::now();
    let result = adapter::train(
        settings,
        threads,
        graph,
        &inputs.user_features,
        &inputs.item_features,
    );
    let wall_s = t.elapsed().as_secs_f64();
    let h = ops.op("train", result)?;
    ops.check(
        "train: every embedding is finite",
        adapter::embeddings_finite(&h),
    );
    let losses = adapter::level1_losses(&h);
    // An untrained scorer outputs logit 0 for every pair, which costs
    // ln 2 for the positive and for each negative.
    let zero_logit_loss = (1 + 2 * adapter::NEGATIVES_PER_SIDE) as f32 * std::f32::consts::LN_2;
    let learned = match (losses.first(), losses.last()) {
        (Some(first), Some(last)) if losses.len() > 1 => last < first,
        (Some(only), _) => *only < zero_logit_loss,
        _ => false,
    };
    ops.check(
        "train: level-1 loss fell (below the first epoch's, or below the zero-logit loss)",
        learned,
    );
    Some((h, wall_s))
}

/// Saves `h`, re-opens it for serving, and removes the file. Every
/// later phase starts from the re-opened model.
pub fn persist(h: &Hierarchy, path: &Path, ops: &mut Ops) -> Option<ServeModel> {
    ops.op("save_hierarchy", adapter::save_model(path, h))?;
    let model = ops.op("ServeModel::load", adapter::load_model(path));
    // A leftover file is harmless (the directory is ignored), so a failed
    // removal is not an operation of the program under test.
    let _ = std::fs::remove_file(path);
    model
}

/// Everything before the first timed section: generate, split, build
/// the base graph, and — unless training is what the workload times —
/// train, save and load.
pub fn set_up(workload: Workload, seed: u64, model_path: &Path, ops: &mut Ops) -> Option<Setup> {
    let spec = workload.spec();
    let inputs = gen::build_inputs(&spec, seed);
    let graph = adapter::graph_from_edges(inputs.base_users, inputs.base_items, &inputs.base_edges);
    if spec.primary == Phase::Train {
        return Some(Setup {
            inputs,
            graph,
            trained: None,
        });
    }
    let (h, wall_s) = train_checked(&spec, 1, &inputs, &graph, ops)?;
    let base = persist(&h, model_path, ops)?;
    Some(Setup {
        inputs,
        graph,
        trained: Some((base, wall_s)),
    })
}

// --- serving ---------------------------------------------------------------

/// The total ranking order of the serving engine: real scores before
/// NaN, score descending, id ascending.
fn rank(ids: &[u32], scores: &[f32]) -> Vec<ScoredItem> {
    let mut ranked: Vec<ScoredItem> = ids
        .iter()
        .zip(scores)
        .map(|(&item, &score)| ScoredItem { item, score })
        .collect();
    ranked.sort_unstable_by(|a, b| {
        a.score
            .is_nan()
            .cmp(&b.score.is_nan())
            .then(b.score.total_cmp(&a.score))
            .then(a.item.cmp(&b.item))
    });
    ranked
}

fn bits(items: &[ScoredItem]) -> Vec<(u32, u32)> {
    items.iter().map(|s| (s.item, s.score.to_bits())).collect()
}

/// A beam descent re-done from the model's public parts. Returns the
/// top-k and how many rows the scorer saw.
pub fn descend(model: &ServeModel, user: usize, k: usize, beam: usize) -> (Vec<ScoredItem>, usize) {
    let tiers = adapter::num_tiers(model);
    let mut frontier: Vec<u32> = (0..adapter::node_reps(model, tiers).rows() as u32).collect();
    let mut rows_scored = 0;
    for tier in (1..=tiers).rev() {
        let reps = adapter::node_reps(model, tier);
        rows_scored += frontier.len();
        let mut ranked = rank(
            &frontier,
            &adapter::score_against(model, user, reps, &frontier),
        );
        ranked.truncate(beam);
        let kids = adapter::children(model, tier);
        frontier = ranked
            .iter()
            .flat_map(|n| kids[n.item as usize].iter().copied())
            .collect();
    }
    rows_scored += frontier.len();
    let feats = adapter::item_features(model);
    let mut leaves = rank(
        &frontier,
        &adapter::score_against(model, user, feats, &frontier),
    );
    leaves.truncate(k);
    (leaves, rows_scored)
}

/// "p99 = 812.4 (n = 29000)": the highest percentile with at least ten
/// samples beyond it, for the report.
fn tail_note(samples: &[f64]) -> String {
    let tail = highest_supported_percentile(samples.len())
        .and_then(|p| Some((p, percentile(samples, p).ok()?)));
    tail.map_or_else(
        || format!("no percentile (n = {})", samples.len()),
        |(p, v)| format!("p{p} = {v:.1} (n = {})", samples.len()),
    )
}

/// Per-round figures of a serving section.
#[derive(Default)]
pub struct ServeRounds {
    pub p50_us: Vec<f64>,
    pub qps: Vec<f64>,
    /// Every request's wall time, for the tail.
    pub latencies_us: Vec<f64>,
}

/// One round: `users.len()` beam-16 top-10 requests from one caller,
/// each sent when the previous one returns.
pub fn serve_round(
    model: &ServeModel,
    users: &[usize],
    rec: &mut Recorder,
    ops: &mut Ops,
    out: &mut ServeRounds,
) {
    let mut latencies = Vec::with_capacity(users.len());
    let start = Instant::now();
    for &user in users {
        let t = Instant::now();
        let answer = rec.span("serve.top_k", |_| {
            adapter::top_k(model, user, TOP_K, Some(BEAM))
        });
        let dt = t.elapsed();
        if ops
            .op("top_k", answer)
            .is_some_and(|items| items.len() == TOP_K)
        {
            latencies.push(dt.as_secs_f64() * 1e6);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    // A failed request has no latency and still counts in the rate's wall.
    if let Ok(p50) = percentile(&latencies, 50.0) {
        out.p50_us.push(p50);
        out.qps.push(latencies.len() as f64 / wall_s);
    }
    out.latencies_us.extend(latencies);
}

pub fn serve_rounds(
    model: &ServeModel,
    rng: &mut rand::rngs::StdRng,
    budget_s: f64,
    rec: &mut Recorder,
    ops: &mut Ops,
) -> ServeRounds {
    let num_users = adapter::num_users(model);
    for user in gen::sample_users(rng, num_users, WARMUP_REQUESTS) {
        std::hint::black_box(adapter::top_k(model, user, TOP_K, Some(BEAM)).ok());
    }
    let mut out = ServeRounds::default();
    repeat_within(budget_s, || {
        let users = gen::sample_users(rng, num_users, ROUND_REQUESTS);
        serve_round(model, &users, rec, ops, &mut out);
        true
    });
    out
}

/// Exhaustive top-k of each user, the recall reference.
fn exhaustive_answers(model: &ServeModel, users: &[usize], ops: &mut Ops) -> Vec<Vec<ScoredItem>> {
    users
        .iter()
        .map(|&u| {
            ops.op(
                "exhaustive_top_k",
                adapter::exhaustive_top_k(model, u, TOP_K),
            )
            .unwrap_or_default()
        })
        .collect()
}

/// Mean share of the exhaustive top-k that beam `beam` returns.
pub fn recall(
    model: &ServeModel,
    users: &[usize],
    exact: &[Vec<ScoredItem>],
    beam: usize,
    ops: &mut Ops,
) -> f64 {
    let mut hit = 0usize;
    for (&user, truth) in users.iter().zip(exact) {
        let got = ops
            .op("top_k", adapter::top_k(model, user, TOP_K, Some(beam)))
            .unwrap_or_default();
        hit += got
            .iter()
            .filter(|g| truth.iter().any(|t| t.item == g.item))
            .count();
    }
    hit as f64 / (users.len() * TOP_K) as f64
}

/// Quality figures and output checks of a served model.
pub struct ServeQuality {
    pub recall_at_10: f64,
    pub rows_scored_per_query: f64,
    pub recall_users: Vec<usize>,
    pub exact: Vec<Vec<ScoredItem>>,
}

pub fn serve_quality(model: &ServeModel, ops: &mut Ops) -> ServeQuality {
    // Evenly spread over the id range rather than drawn from the seed:
    // on a pinned model the recall of a fixed user set is an exact
    // figure, and a sample of 256 would add 5 % of sampling spread to it.
    let num_users = adapter::num_users(model);
    let recall_users: Vec<usize> = (0..RECALL_USERS)
        .map(|k| k * num_users / RECALL_USERS)
        .collect();
    let exact = exhaustive_answers(model, &recall_users, ops);
    let recall_at_10 = recall(model, &recall_users, &exact, BEAM, ops);

    let mut rows_scored = 0;
    for (&user, truth) in recall_users.iter().zip(&exact).take(BEAM_INF_USERS) {
        let unpruned = adapter::top_k(model, user, TOP_K, None).unwrap_or_default();
        ops.check(
            "serve: top_k(beam inf) equals exhaustive_top_k bitwise",
            bits(&unpruned) == bits(truth),
        );
        let (redone, rows) = descend(model, user, TOP_K, BEAM);
        let served = adapter::top_k(model, user, TOP_K, Some(BEAM)).unwrap_or_default();
        ops.check(
            "serve: descent re-done from public parts equals top_k",
            bits(&redone) == bits(&served),
        );
        rows_scored += rows;
    }
    ServeQuality {
        recall_at_10,
        rows_scored_per_query: rows_scored as f64 / BEAM_INF_USERS as f64,
        recall_users,
        exact,
    }
}

// --- streaming ---------------------------------------------------------------

/// What one pass over (a prefix of) the stream measured.
pub struct StreamRound {
    /// Batch handed to the writer → replica has applied it, per batch.
    pub lag_ms: Vec<f64>,
    /// Writer busy time: `ingest` + `write_delta`.
    pub busy_s: f64,
    pub edges: usize,
    pub delta_bytes: usize,
    pub report: IngestReport,
    pub writer: Writer,
    pub replica: ServeModel,
}

/// What the traced run does after each applied batch, outside the lag
/// window.
pub type AfterApply<'a> = &'a mut dyn FnMut(&mut Recorder, &HierarchyDelta, &ServeModel, &mut Ops);

fn add_reports(total: &mut IngestReport, r: &IngestReport) {
    total.new_users += r.new_users;
    total.new_items += r.new_items;
    total.new_edges += r.new_edges;
    total.moved_users += r.moved_users;
    total.moved_items += r.moved_items;
    total.dirty_user_clusters += r.dirty_user_clusters;
    total.dirty_item_clusters += r.dirty_item_clusters;
}

/// Streams `batches` from a fresh copy of the base model: per batch
/// `ingest` → `write_delta` → `read_delta_bytes` → replica `apply_delta`.
pub fn stream_round(
    base: &ServeModel,
    graph: &BipartiteGraph,
    batches: &[&[Edge]],
    rec: &mut Recorder,
    after_apply: AfterApply<'_>,
    ops: &mut Ops,
) -> Option<StreamRound> {
    let writer = ops.op(
        "IngestEngine::new",
        Writer::new(adapter::hierarchy_of(base).clone(), graph.clone()),
    )?;
    let mut round = StreamRound {
        lag_ms: Vec::with_capacity(batches.len()),
        busy_s: 0.0,
        edges: 0,
        delta_bytes: 0,
        report: IngestReport::default(),
        writer,
        replica: base.clone(),
    };
    for &batch in batches {
        let StreamRound {
            writer, replica, ..
        } = &mut round;
        let t = Instant::now();
        let mut busy = Duration::ZERO;
        let outcome: Result<(IngestReport, HierarchyDelta, usize), String> =
            rec.span("stream.batch", |rec| {
                let (report, delta) = rec.span("core.ingest.ingest", |_| writer.ingest(batch))?;
                let encoded =
                    rec.span("core.ingest.write_delta", |_| adapter::encode_delta(&delta))?;
                busy = t.elapsed();
                let decoded = rec.span("core.ingest.read_delta_bytes", |_| {
                    adapter::decode_delta(&encoded)
                })?;
                rec.span("serve.apply_delta", |_| {
                    adapter::apply_delta(replica, &decoded)
                })?;
                Ok((report, decoded, encoded.len()))
            });
        let lag = t.elapsed();
        let (report, delta, bytes) = ops.op("stream batch", outcome)?;
        // The writer states its own fingerprint in the delta it emits.
        ops.check(
            "stream: replica fingerprint equals the writer's after the delta",
            adapter::fingerprint(adapter::hierarchy_of(&round.replica))
                == delta.patched_fingerprint,
        );
        after_apply(rec, &delta, &round.replica, ops);
        round.lag_ms.push(lag.as_secs_f64() * 1e3);
        round.busy_s += busy.as_secs_f64();
        round.edges += batch.len();
        round.delta_bytes += bytes;
        add_reports(&mut round.report, &report);
    }
    Some(round)
}

/// The patched replica must rank exactly like a model prepared from the
/// writer's hierarchy.
fn check_replica(round: &StreamRound, rng: &mut rand::rngs::StdRng, ops: &mut Ops) {
    let rebuilt = adapter::prepare_model(round.writer.hierarchy().clone());
    let users = gen::sample_users(rng, adapter::num_users(&rebuilt), REPLICA_CHECK_USERS);
    let same = users.iter().all(|&u| {
        let a = adapter::top_k(&round.replica, u, TOP_K, Some(BEAM)).unwrap_or_default();
        let b = adapter::top_k(&rebuilt, u, TOP_K, Some(BEAM)).unwrap_or_default();
        !a.is_empty() && bits(&a) == bits(&b)
    });
    ops.check(
        "stream: replica top-k equals from_hierarchy(writer hierarchy) bitwise",
        same,
    );
}

/// Per-round figures of a streaming section.
#[derive(Default)]
pub struct StreamRounds {
    pub lag_p50_ms: Vec<f64>,
    pub lag_p90_ms: Vec<f64>,
    pub ingest_edges_per_s: Vec<f64>,
    /// Every batch's lag, for the tail.
    pub lag_ms: Vec<f64>,
    /// From the first round; every round streams the same batches.
    pub delta_bytes_per_edge: Option<f64>,
    pub batches_per_round: usize,
}

impl StreamRounds {
    pub fn record(&mut self, round: &StreamRound) {
        if let (Ok(p50), Ok(p90)) = (
            percentile(&round.lag_ms, 50.0),
            percentile(&round.lag_ms, 90.0),
        ) {
            self.lag_p50_ms.push(p50);
            self.lag_p90_ms.push(p90);
            self.ingest_edges_per_s
                .push(round.edges as f64 / round.busy_s);
        }
        self.delta_bytes_per_edge
            .get_or_insert(round.delta_bytes as f64 / round.edges as f64);
        self.batches_per_round = round.lag_ms.len();
        self.lag_ms.extend(&round.lag_ms);
    }
}

/// The batches a round streams: the whole stream when streaming is the
/// primary phase, its first [`SECONDARY_ROUND_BATCHES`] otherwise.
pub fn round_batches(inputs: &Inputs, primary: bool) -> Vec<&[Edge]> {
    let take = if primary {
        usize::MAX
    } else {
        SECONDARY_ROUND_BATCHES
    };
    inputs.stream.chunks(BATCH_EDGES).take(take).collect()
}

// --- the untraced run ----------------------------------------------------------

#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub ops: Ops,
    /// Free-form facts for the human-readable report.
    pub notes: Vec<String>,
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Measures every end-to-end metric of `workload`, tracing off.
pub fn run(workload: Workload, seed: u64, seconds: f64, model_path: &Path) -> Outcome {
    let mut out = Outcome::default();
    measure(workload, seed, seconds, model_path, &mut out);
    if let Some(mb) = peak_rss_mb() {
        out.metrics.exact("peak_rss_mb", mb);
    }
    out
}

fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    model_path: &Path,
    out: &mut Outcome,
) -> Option<()> {
    let Outcome {
        metrics,
        ops,
        notes,
    } = out;
    let spec = workload.spec();
    let rec = &mut Recorder::new(false);
    let started = Instant::now();
    let mut phase_walls = Vec::new();
    let mut phase_done =
        |name: &str| phase_walls.push(format!("{name} {:.1}", started.elapsed().as_secs_f64()));
    let budget = |phase: Phase| {
        if spec.primary == phase {
            seconds
        } else {
            seconds * SECONDARY_SHARE
        }
    };

    // Set-up, repeated; the last one's products are used.
    let repeats = if spec.primary == Phase::Train {
        SETUP_REPEATS_NO_TRAINING
    } else {
        MIN_REPEATS
    };
    let (mut setup_s, mut train_s, mut fingerprints) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let setup = set_up(workload, seed, model_path, ops)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((base, wall_s)) = &setup.trained {
            train_s.push(*wall_s);
            fingerprints.push(adapter::fingerprint(adapter::hierarchy_of(base)));
        }
        last = Some(setup);
    }
    let Setup {
        inputs,
        graph,
        trained,
    } = last?;
    metrics.repeats("setup_s", &setup_s);
    phase_done("set-up");

    // Training: the timed section of the train workloads, part of
    // set-up for the others.
    let base = match trained {
        Some((base, _)) => base,
        None => {
            let mut last_build = None;
            repeat_within(budget(Phase::Train), || {
                let round = train_checked(&spec, 1, &inputs, &graph, ops);
                let ok = round.is_some();
                if let Some((h, wall_s)) = round {
                    train_s.push(wall_s);
                    fingerprints.push(adapter::fingerprint(&h));
                    last_build = Some(h);
                }
                ok
            });
            persist(&last_build?, model_path, ops)?
        }
    };
    phase_done("train");
    ops.check(
        "train: hierarchy_fingerprint identical across repeats",
        fingerprints.len() >= MIN_REPEATS && fingerprints.windows(2).all(|p| p[0] == p[1]),
    );
    let edge_epochs = (adapter::num_edges(&graph) * spec.epochs) as f64;
    let rates: Vec<f64> = train_s.iter().map(|s| edge_epochs / s).collect();
    metrics.repeats("train_edges_per_s", &rates);
    metrics.exact(
        "item_topic_nmi",
        adapter::item_topic_nmi(adapter::hierarchy_of(&base), &inputs.item_leaf),
    );
    notes.push(format!(
        "base graph {} x {}, {} edges; {} held-out edges in {} batches; {} builds of {} levels",
        inputs.base_users,
        inputs.base_items,
        adapter::num_edges(&graph),
        inputs.stream.len(),
        inputs.stream.chunks(BATCH_EDGES).len(),
        train_s.len(),
        adapter::num_tiers(&base),
    ));

    // Serving and streaming. `stream_replica` serves from the patched
    // replica after each pass over the stream; the others serve the
    // loaded base model and then stream a prefix.
    let rng = &mut gen::request_rng(seed);
    let primary_stream = spec.primary == Phase::Stream;
    let batches = round_batches(&inputs, primary_stream);
    let mut served = ServeRounds::default();
    let mut quality = None;
    if !primary_stream {
        served = serve_rounds(&base, rng, budget(Phase::Serve), rec, ops);
        quality = Some(serve_quality(&base, ops));
        phase_done("serve");
    }
    let mut streamed = StreamRounds::default();
    let mut last_round = None;
    repeat_within(budget(Phase::Stream), || {
        let Some(round) = stream_round(&base, &graph, &batches, rec, &mut |_, _, _, _| {}, ops)
        else {
            return false;
        };
        streamed.record(&round);
        if primary_stream {
            let users = gen::sample_users(rng, adapter::num_users(&round.replica), ROUND_REQUESTS);
            serve_round(&round.replica, &users, rec, ops, &mut served);
        }
        last_round = Some(round);
        true
    });
    let last_round = last_round?;
    check_replica(&last_round, rng, ops);
    let quality = quality.unwrap_or_else(|| serve_quality(&last_round.replica, ops));
    phase_done("stream");
    notes.push(format!(
        "seconds since start at the end of each phase: {}",
        phase_walls.join(", ")
    ));

    metrics.repeats("topk_p50_us", &served.p50_us);
    metrics.repeats("topk_qps", &served.qps);
    metrics.exact("recall_at_10", quality.recall_at_10);
    metrics.repeats("ingest_edges_per_s", &streamed.ingest_edges_per_s);
    metrics.repeats("replica_lag_p50_ms", &streamed.lag_p50_ms);
    metrics.repeats("replica_lag_p90_ms", &streamed.lag_p90_ms);
    metrics.exact("delta_bytes_per_edge", streamed.delta_bytes_per_edge?);
    notes.push(format!(
        "top_k us {} in {} rounds, {:.1} rows scored per query; replica lag ms {} in {} rounds of {} batches",
        tail_note(&served.latencies_us),
        served.p50_us.len(),
        quality.rows_scored_per_query,
        tail_note(&streamed.lag_ms),
        streamed.lag_p50_ms.len(),
        streamed.batches_per_round,
    ));
    Some(())
}
