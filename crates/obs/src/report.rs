//! Schema-stable JSON run reports (`--metrics <path>`).
//!
//! The emitted document is `hignn-metrics/v1`, documented in DESIGN.md
//! §10. Keys within each section are sorted (the registry stores
//! `BTreeMap`s), so two runs with the same metric set produce the same
//! key order; the only hand-rolled JSON here is a minimal writer — the
//! workspace is zero-dependency by policy.

use crate::registry::{Histogram, Registry, SpanStat};

/// Identifier stamped into every report's top-level `schema` key.
pub(crate) const SCHEMA: &str = "hignn-metrics/v1";

/// Escape a string for inclusion inside a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON value. Non-finite values (which valid JSON
/// cannot carry) become `null`; finite values use Rust's shortest
/// round-trip formatting.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        // `{:?}` prints e.g. `1.0`; integers-valued floats keep the dot,
        // which keeps the type stable for consumers.
        s
    } else {
        "null".to_owned()
    }
}

fn render_histogram(h: &Histogram) -> String {
    let buckets = h
        .buckets
        .iter()
        .map(|(k, v)| {
            let label = if *k == Histogram::ZERO_BUCKET {
                "zero".to_owned()
            } else {
                k.to_string()
            };
            format!("\"{label}\":{v}")
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"count\":{},\"non_finite\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"log2_buckets\":{{{buckets}}}}}",
        h.count,
        h.non_finite,
        json_f64(h.sum),
        h.min.map_or("null".to_owned(), json_f64),
        h.max.map_or("null".to_owned(), json_f64),
        h.mean().map_or("null".to_owned(), json_f64),
    )
}

fn render_span(s: &SpanStat) -> String {
    let mean = if s.count > 0 {
        s.total_seconds() / s.count as f64
    } else {
        0.0
    };
    format!(
        "{{\"count\":{},\"total_seconds\":{},\"mean_seconds\":{},\"max_seconds\":{}}}",
        s.count,
        json_f64(s.total_seconds()),
        json_f64(mean),
        json_f64(s.max_nanos as f64 / 1e9),
    )
}

fn render_map<V>(entries: &std::collections::BTreeMap<String, V>, f: impl Fn(&V) -> String) -> String {
    let body = entries
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape(k), f(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{body}}}")
}

/// Render the full report for `registry`.
///
/// `extras` are caller-supplied top-level entries (e.g. `command`,
/// `seed`); each value must already be valid JSON (use
/// [`json_str`]/[`json_u64`] to build them). Extras are
/// emitted before the metric sections, in the order given.
pub fn render(registry: &Registry, extras: &[(&str, String)]) -> String {
    registry.with_sorted(|counters, gauges, histograms, series, spans| {
        let mut parts = vec![format!("\"schema\":\"{SCHEMA}\"")];
        for (k, v) in extras {
            parts.push(format!("\"{}\":{}", escape(k), v));
        }
        parts.push(format!("\"counters\":{}", render_map(counters, |v| v.to_string())));
        parts.push(format!("\"gauges\":{}", render_map(gauges, |v| json_f64(*v))));
        parts.push(format!(
            "\"histograms\":{}",
            render_map(histograms, render_histogram)
        ));
        parts.push(format!(
            "\"series\":{}",
            render_map(series, |vs| {
                let body = vs.iter().map(|v| json_f64(*v)).collect::<Vec<_>>().join(",");
                format!("[{body}]")
            })
        ));
        parts.push(format!("\"spans\":{}", render_map(spans, render_span)));
        format!("{{{}}}\n", parts.join(","))
    })
}

/// Build a JSON string literal for use as an extras value.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Build a JSON integer for use as an extras value.
pub fn json_u64(v: u64) -> String {
    v.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_all_sections_sorted() {
        let r = Registry::new();
        r.counter_add("b", 2);
        r.counter_add("a", 1);
        r.gauge_set("g", 0.5);
        r.record_batch(&[], &[("h", 0.25)], &[]);
        r.series_push("s", 1.0);
        r.span_record("sp", 2_000_000_000);
        let json = render(&r, &[("command", json_str("train")), ("seed", json_u64(7))]);
        assert!(json.starts_with(&format!("{{\"schema\":\"{SCHEMA}\"")));
        assert!(json.contains("\"command\":\"train\""));
        assert!(json.contains("\"seed\":7"));
        // Sorted counter keys.
        let a = json.find("\"a\":1").unwrap();
        let b = json.find("\"b\":2").unwrap();
        assert!(a < b);
        assert!(json.contains("\"h\":{\"count\":1"));
        assert!(json.contains("\"log2_buckets\":{\"-2\":1}"));
        assert!(json.contains("\"s\":[1.0]"));
        assert!(json.contains("\"total_seconds\":2.0"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn escaping_and_non_finite() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2.0");
    }
}
