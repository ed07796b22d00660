//! `hignn-benchmark`: the repository's lifecycle benchmark.
//!
//! ```text
//! hignn-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! hignn-benchmark all [--seed N] [--seconds S]                       every workload, untraced then traced
//! hignn-benchmark compare A.json B.json                              is B no worse than A?
//! hignn-benchmark manifest                                           the text of BENCHMARK.json
//! ```
//!
//! Run it through `benchmark/run.sh`, which builds it first.

mod adapter;
mod catalog;
mod compare;
mod gen;
mod json;
mod layers;
mod lifecycle;
mod report;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use gen::Workload;
use json::{obj, s, Json};

const DEFAULT_SEED: u64 = 2020;
/// Where runs write: detail files, traces, `results.json`, and the model
/// file while it is being re-opened. Relative to the repository root.
const OUT_DIR: &str = "benchmark/out";
const USAGE_ERROR: u8 = 2;

/// `--name value` pairs; anything else is a usage error.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [name, value] if known.contains(&name.as_str()) => {
                    pairs.push((name.clone(), value.clone()))
                }
                [name, ..] => {
                    return Err(format!(
                        "unknown flag or missing value: `{name}` (known: {known:?})"
                    ))
                }
                [] => unreachable!("chunks are never empty"),
            }
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {name}: `{v}`")),
        }
    }
}

fn host(seed: u64) -> stats::Host {
    stats::Host::detect(adapter::simd_backend(), seed, lifecycle::MIN_REPEATS)
}

fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    std::fs::write(path, value.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn detail_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!("run-{workload}-trace{}.json", u8::from(trace)))
}

/// One workload, one process: prints every metric, writes the run's
/// detail file (and the trace file of a traced run), and ends with the
/// result line.
fn single(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = flags.get("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = flags.parsed("--seed", DEFAULT_SEED)?;
    let seconds = flags.parsed("--seconds", f64::from(catalog::RUN_SECONDS))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    let trace = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    let out = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let model_path = out.join(format!("model-{name}-{}.hgh", std::process::id()));

    let (outcome, expected): (_, Vec<&str>) = if trace {
        let traced = layers::run(workload, seed, &model_path);
        let file = report::trace_file(name, &host(seed), traced.rec.spans(), &traced.program_spans);
        write_json(&out.join(format!("trace-{name}.json")), &file)?;
        (
            traced.outcome,
            catalog::PER_LAYER.iter().map(|m| m.0).collect(),
        )
    } else {
        let outcome = lifecycle::run(workload, seed, seconds, &model_path);
        (outcome, catalog::END_TO_END.iter().map(|m| m.0).collect())
    };
    report::print_human(name, &outcome, &expected);
    write_json(
        &detail_path(&out, name, trace),
        &report::detail(&outcome, &expected),
    )?;
    println!("{}", report::result_line(&outcome, &expected));
    Ok(report::is_correct(&outcome, &expected))
}

/// Every workload in its own process (so peak RSS is per workload),
/// untraced then traced, assembled into `results.json`.
fn all(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--seed", "--seconds"])?;
    let seed: u64 = flags.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.parsed("--seconds", f64::from(catalog::RUN_SECONDS))?;
    let out = PathBuf::from(OUT_DIR);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // The four untraced runs first, then the four traced ones.
    let mut correct = true;
    let mut run = |workload: Workload, trace: bool| -> Result<Json, String> {
        let name = workload.name();
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        correct &= status.success();
        let path = detail_path(&out, name, trace);
        Json::parse(
            &std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?,
        )
    };
    let untraced = Workload::ALL
        .iter()
        .map(|&w| run(w, false))
        .collect::<Result<Vec<_>, _>>()?;
    let traced = Workload::ALL
        .iter()
        .map(|&w| run(w, true))
        .collect::<Result<Vec<_>, _>>()?;
    let field = |run: &Json, key: &str| run.get(key).cloned().unwrap_or(Json::Null);
    let workloads =
        Workload::ALL
            .iter()
            .zip(untraced.iter().zip(&traced))
            .map(|(w, (untraced, traced))| {
                let fields = obj([
                    ("correct", field(untraced, "correct")),
                    ("ops_attempted", field(untraced, "ops_attempted")),
                    ("ops_failed", field(untraced, "ops_failed")),
                    ("failures", field(untraced, "failures")),
                    ("notes", field(untraced, "notes")),
                    ("end_to_end", field(untraced, "metrics")),
                    ("traced_correct", field(traced, "correct")),
                    ("traced_notes", field(traced, "notes")),
                    ("per_layer", field(traced, "metrics")),
                ]);
                (w.name(), fields)
            });
    let results = obj([
        ("schema", s(report::SCHEMA)),
        ("host", report::host_json(&host(seed))),
        ("run_seconds", Json::Num(seconds)),
        ("workloads", obj(workloads)),
    ]);
    let path = out.join("results.json");
    write_json(&path, &results)?;
    println!("wrote {}", path.display());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", catalog::manifest());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: hignn-benchmark compare A.json B.json".into()),
        },
        Some("all") => all(&args[1..]),
        _ => single(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("hignn-benchmark: {message}");
            ExitCode::from(USAGE_ERROR)
        }
    }
}
