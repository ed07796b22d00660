//! The metric registry: a thread-safe store of counters, gauges,
//! histograms, series, and span timers.
//!
//! All mutation goes through a single [`std::sync::Mutex`]; callers are
//! expected to record at coarse granularity (per minibatch, per level,
//! per I/O operation), where one uncontended lock acquisition is noise.
//! The hot-path guard lives one layer up: the free functions in the
//! crate root check the global enabled flag with a relaxed atomic load
//! and skip the lock (and the `Instant::now()` call for spans) entirely
//! when observability is off.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::snapshot::MetricsSnapshot;

/// Aggregate statistics over a stream of recorded values.
///
/// Buckets are base-2 logarithmic over the absolute value: a finite
/// non-zero sample `v` lands in the bucket keyed by
/// `v.abs().log2().floor()` clamped to `[-64, 64]`, so e.g. key `-3`
/// covers `[0.125, 0.25)`. Zero samples are counted in the bucket keyed
/// by [`Histogram::ZERO_BUCKET`]. Non-finite samples (NaN, ±inf) are
/// tallied in `non_finite` and excluded from `sum`/`min`/`max` — the
/// registry must never panic or poison aggregates because the observed
/// computation diverged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Number of finite samples recorded.
    pub count: u64,
    /// Number of NaN/±inf samples (recorded but not aggregated).
    pub non_finite: u64,
    /// Sum of finite samples.
    pub sum: f64,
    /// Smallest finite sample, if any.
    pub min: Option<f64>,
    /// Largest finite sample, if any.
    pub max: Option<f64>,
    /// Sparse log2 buckets (see type docs).
    pub buckets: BTreeMap<i32, u64>,
}

impl Histogram {
    /// Bucket key reserved for exactly-zero samples.
    pub(crate) const ZERO_BUCKET: i32 = i32::MIN;

    fn record(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
        let key = if v == 0.0 {
            Self::ZERO_BUCKET
        } else {
            (v.abs().log2().floor() as i64).clamp(-64, 64) as i32
        };
        *self.buckets.entry(key).or_insert(0) += 1;
    }

    /// Mean of finite samples, or `None` when empty.
    pub(crate) fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// Accumulated wall-clock time for a named span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans under this name.
    pub count: u64,
    /// Total wall-clock nanoseconds across all completions.
    pub total_nanos: u64,
    /// Longest single completion, in nanoseconds.
    pub max_nanos: u64,
}

impl SpanStat {
    /// Total accumulated seconds.
    pub(crate) fn total_seconds(&self) -> f64 {
        self.total_nanos as f64 / 1e9
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, Vec<f64>>,
    spans: BTreeMap<String, SpanStat>,
}

/// Thread-safe metric store. Most code uses the process-global instance
/// via the free functions in the crate root; a local `Registry` is
/// handy in tests.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// Create an empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock can only come from OOM inside a
        // BTreeMap insert; recovering the data beats poisoning forever.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `delta` to the monotone counter `name`.
    pub(crate) fn counter_add(&self, name: &str, delta: u64) {
        let mut g = self.lock();
        let c = g.counters.entry(name.to_owned()).or_insert(0);
        *c = c.saturating_add(delta);
    }

    /// Read a counter (0 when never written).
    pub fn counter_get(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Set the last-value gauge `name`.
    pub(crate) fn gauge_set(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_owned(), value);
    }

    /// Read a gauge, if ever set.
    #[cfg(test)]
    pub(crate) fn gauge_get(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Record a whole batch of metric mutations under a single lock
    /// acquisition: counter deltas, then histogram samples, then series
    /// appends. Hot loops that would otherwise take the registry lock
    /// many times per iteration (e.g. the per-minibatch block in the
    /// trainer) should collect their updates and flush them through
    /// this entry point.
    pub(crate) fn record_batch(
        &self,
        counters: &[(&str, u64)],
        histograms: &[(&str, f64)],
        series: &[(&str, f64)],
    ) {
        let mut g = self.lock();
        for &(name, delta) in counters {
            let c = g.counters.entry(name.to_owned()).or_insert(0);
            *c = c.saturating_add(delta);
        }
        for &(name, value) in histograms {
            g.histograms.entry(name.to_owned()).or_default().record(value);
        }
        for &(name, value) in series {
            g.series.entry(name.to_owned()).or_default().push(value);
        }
    }

    /// Read a snapshot of histogram `name`, if any samples were recorded.
    #[cfg(test)]
    pub(crate) fn histogram_get(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Append one value to the ordered series `name`.
    pub(crate) fn series_push(&self, name: &str, value: f64) {
        self.lock()
            .series
            .entry(name.to_owned())
            .or_default()
            .push(value);
    }

    /// Read a copy of series `name` (empty when never written).
    #[cfg(test)]
    pub(crate) fn series_get(&self, name: &str) -> Vec<f64> {
        self.lock().series.get(name).cloned().unwrap_or_default()
    }

    /// Record one completed span of `nanos` wall-clock nanoseconds.
    pub(crate) fn span_record(&self, name: &str, nanos: u64) {
        let mut g = self.lock();
        let s = g.spans.entry(name.to_owned()).or_default();
        s.count += 1;
        s.total_nanos = s.total_nanos.saturating_add(nanos);
        s.max_nanos = s.max_nanos.max(nanos);
    }

    /// Read accumulated stats for span `name`, if ever completed.
    pub fn span_get(&self, name: &str) -> Option<SpanStat> {
        self.lock().spans.get(name).copied()
    }

    /// Clear every metric.
    pub fn reset(&self) {
        *self.lock() = Inner::default();
    }

    /// Capture the current counter values (the durable subset carried in
    /// checkpoint metadata — see DESIGN.md §10).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .lock()
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    /// Fold a snapshot back in by *adding* each counter, so a resumed
    /// run continues from the totals recorded at checkpoint time.
    pub fn restore(&self, snap: &MetricsSnapshot) {
        let mut g = self.lock();
        for (k, v) in &snap.counters {
            let c = g.counters.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
    }

    /// Visit every metric under one lock, in sorted key order per kind.
    /// Used by the JSON renderer.
    pub(crate) fn with_sorted<R>(
        &self,
        f: impl FnOnce(
            &BTreeMap<String, u64>,
            &BTreeMap<String, f64>,
            &BTreeMap<String, Histogram>,
            &BTreeMap<String, Vec<f64>>,
            &BTreeMap<String, SpanStat>,
        ) -> R,
    ) -> R {
        let g = self.lock();
        f(&g.counters, &g.gauges, &g.histograms, &g.series, &g.spans)
    }
}

/// RAII timer: records elapsed wall-clock into the global registry's
/// span `name` on drop. Obtained from [`crate::span`]; inert (no clock
/// read, no lock) when observability is disabled.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    state: Option<(String, Instant)>,
}

impl SpanGuard {
    pub(crate) fn started(name: String) -> Self {
        Self {
            state: Some((name, Instant::now())),
        }
    }

    pub(crate) fn disabled() -> Self {
        Self { state: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, start)) = self.state.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            crate::global().span_record(&name, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = Registry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        assert_eq!(r.counter_get("a"), 5);
        assert_eq!(r.counter_get("missing"), 0);
        r.counter_add("a", u64::MAX);
        assert_eq!(r.counter_get("a"), u64::MAX);
    }

    #[test]
    fn histogram_buckets_and_non_finite() {
        let r = Registry::new();
        for v in [0.0, 0.15, 0.2, 1.5, f64::NAN, f64::INFINITY] {
            r.record_batch(&[], &[("h", v)], &[]);
        }
        let h = r.histogram_get("h").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.non_finite, 2);
        assert_eq!(h.min, Some(0.0));
        assert_eq!(h.max, Some(1.5));
        assert_eq!(h.buckets[&Histogram::ZERO_BUCKET], 1);
        // 0.15 and 0.2 both live in [2^-3, 2^-2); 1.5 in [2^0, 2^1).
        assert_eq!(h.buckets[&-3], 2);
        assert_eq!(h.buckets[&0], 1);
        assert!((h.mean().unwrap() - (0.0 + 0.15 + 0.2 + 1.5) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn spans_series_gauges_roundtrip() {
        let r = Registry::new();
        r.span_record("s", 10);
        r.span_record("s", 30);
        let s = r.span_get("s").unwrap();
        assert_eq!((s.count, s.total_nanos, s.max_nanos), (2, 40, 30));
        r.series_push("x", 1.0);
        r.series_push("x", 2.0);
        assert_eq!(r.series_get("x"), vec![1.0, 2.0]);
        r.gauge_set("g", 7.5);
        assert_eq!(r.gauge_get("g"), Some(7.5));
        r.reset();
        assert!(r.span_get("s").is_none());
        assert!(r.series_get("x").is_empty());
    }

    #[test]
    fn record_batch_matches_individual_calls() {
        let batched = Registry::new();
        batched.record_batch(
            &[("c", 2), ("c", 3), ("d", 1)],
            &[("h", 0.5), ("h", 1.5)],
            &[("s", 1.0), ("s", 2.0)],
        );
        let single = Registry::new();
        single.counter_add("c", 2);
        single.counter_add("c", 3);
        single.counter_add("d", 1);
        single.record_batch(&[], &[("h", 0.5)], &[]);
        single.record_batch(&[], &[("h", 1.5)], &[]);
        single.series_push("s", 1.0);
        single.series_push("s", 2.0);
        assert_eq!(batched.counter_get("c"), single.counter_get("c"));
        assert_eq!(batched.counter_get("d"), single.counter_get("d"));
        assert_eq!(batched.histogram_get("h"), single.histogram_get("h"));
        assert_eq!(batched.series_get("s"), single.series_get("s"));
    }

    #[test]
    fn snapshot_restore_adds() {
        let r = Registry::new();
        r.counter_add("train.batches", 7);
        let snap = r.snapshot();
        let fresh = Registry::new();
        fresh.counter_add("train.batches", 1);
        fresh.restore(&snap);
        assert_eq!(fresh.counter_get("train.batches"), 8);
    }
}
