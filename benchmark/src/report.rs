//! What a run prints and writes.

use crate::adapter::ProgramSpan;
use crate::catalog;
use crate::json::{obj, s, Json};
use crate::lifecycle::Outcome;
use crate::stats::{Host, Summary};
use crate::trace::Span;

pub const SCHEMA: &str = "hignn-benchmark/v1";

pub fn host_json(h: &Host) -> Json {
    obj([
        ("nproc", Json::Num(h.nproc as f64)),
        ("cpu_model", s(&h.cpu_model)),
        ("simd_backend", s(&h.simd_backend)),
        ("rustc", s(&h.rustc)),
        ("git_commit", s(&h.git_commit)),
        ("seed", Json::Num(h.seed as f64)),
        ("repeats", Json::Num(h.repeats as f64)),
    ])
}

fn summary_json(name: &str, sum: &Summary) -> Json {
    obj([
        ("value", Json::Num(sum.median)),
        ("unit", s(catalog::unit_of(name).unwrap_or("?"))),
        ("min", Json::Num(sum.min)),
        ("max", Json::Num(sum.max)),
        ("q1", Json::Num(sum.q1)),
        ("q3", Json::Num(sum.q3)),
        ("n", Json::Num(sum.n as f64)),
    ])
}

/// The metrics of `expected` that the run produced, and whether it
/// produced every one of them with a finite value.
fn select<'a>(outcome: &'a Outcome, expected: &[&str]) -> (Vec<(&'a str, &'a Summary)>, bool) {
    let found: Vec<_> = expected
        .iter()
        .filter_map(|&name| {
            outcome
                .metrics
                .0
                .iter()
                .find(|(n, sum)| n == name && sum.median.is_finite())
        })
        .map(|(n, sum)| (n.as_str(), sum))
        .collect();
    let complete = found.len() == expected.len();
    (found, complete)
}

/// A run is correct when no operation or check failed and every
/// expected metric was measured.
pub fn is_correct(outcome: &Outcome, expected: &[&str]) -> bool {
    outcome.ops.failed == 0 && select(outcome, expected).1
}

/// The last line of standard output: the result the driver reads.
pub fn result_line(outcome: &Outcome, expected: &[&str]) -> String {
    let (found, _) = select(outcome, expected);
    let metrics = found.iter().map(|&(name, sum)| {
        (
            name,
            obj([
                ("value", Json::Num(sum.median)),
                ("unit", s(catalog::unit_of(name).unwrap_or("?"))),
            ]),
        )
    });
    obj([
        ("correct", Json::Bool(is_correct(outcome, expected))),
        ("attempted", Json::Num(outcome.ops.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.ops.failed as f64)),
        ("metrics", obj(metrics)),
    ])
    .compact()
}

/// Every metric by name with its unit, median and min–max band.
pub fn print_human(workload: &str, outcome: &Outcome, expected: &[&str]) {
    let (found, complete) = select(outcome, expected);
    println!("workload {workload}");
    for (name, sum) in found {
        let unit = catalog::unit_of(name).unwrap_or("?");
        if sum.n > 1 {
            println!(
                "  {name:<32} {:>14.4} {unit:<8} [{:.4} .. {:.4}, n = {}]",
                sum.median, sum.min, sum.max, sum.n
            );
        } else {
            println!("  {name:<32} {:>14.4} {unit}", sum.median);
        }
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        outcome.ops.attempted, outcome.ops.failed
    );
    for failure in &outcome.ops.failures {
        println!("  FAILED {failure}");
    }
    if !complete {
        let missing: Vec<_> = expected
            .iter()
            .filter(|e| !outcome.metrics.0.iter().any(|(n, _)| n == *e))
            .collect();
        println!("  FAILED metrics not measured: {missing:?}");
    }
}

/// One run in full: what `results.json` is assembled from.
pub fn detail(outcome: &Outcome, expected: &[&str]) -> Json {
    let (found, _) = select(outcome, expected);
    obj([
        ("correct", Json::Bool(is_correct(outcome, expected))),
        ("ops_attempted", Json::Num(outcome.ops.attempted as f64)),
        ("ops_failed", Json::Num(outcome.ops.failed as f64)),
        (
            "failures",
            Json::Arr(outcome.ops.failures.iter().map(|f| s(f)).collect()),
        ),
        (
            "notes",
            Json::Arr(outcome.notes.iter().map(|n| s(n)).collect()),
        ),
        (
            "metrics",
            obj(found
                .iter()
                .map(|&(name, sum)| (name, summary_json(name, sum)))),
        ),
    ])
}

/// `trace-<workload>.json`: the benchmark's own spans, and the totals
/// of the spans the program emitted during the one traced build.
pub fn trace_file(
    workload: &str,
    host: &Host,
    spans: &[Span],
    program_spans: &[ProgramSpan],
) -> Json {
    let spans = spans.iter().map(|sp| {
        Json::Arr(vec![
            Json::Num(f64::from(sp.id)),
            sp.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
            s(sp.name),
            Json::Num(sp.start_ns as f64),
            Json::Num(sp.end_ns as f64),
        ])
    });
    let program = program_spans.iter().map(|sp| {
        obj([
            ("name", s(&sp.name)),
            ("count", Json::Num(sp.count as f64)),
            ("total_ns", Json::Num(sp.total_ns as f64)),
        ])
    });
    obj([
        ("schema", s(SCHEMA)),
        ("workload", s(workload)),
        ("host", host_json(host)),
        (
            "span_fields",
            Json::Arr(
                ["id", "parent", "name", "start_ns", "end_ns"]
                    .map(s)
                    .to_vec(),
            ),
        ),
        ("spans", Json::Arr(spans.collect())),
        ("program_spans", Json::Arr(program.collect())),
    ])
}
