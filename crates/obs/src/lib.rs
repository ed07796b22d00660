//! Zero-dependency observability for the HiGNN workspace: counters,
//! gauges, histograms, ordered series, and scoped span timers behind a
//! process-global registry, plus schema-stable JSON run reports and
//! structured progress logging.
//!
//! # Inertness contract
//!
//! Instrumentation must be *provably inert*: enabling metrics may not
//! change a single bit of any model, checkpoint, or embedding. The
//! design enforces this structurally —
//!
//! - recording only ever *reads* already-computed values (a loss, a
//!   gradient matrix, a buffer-pool counter) and the monotonic clock;
//!   it never draws from an RNG and never participates in any float
//!   accumulation the training path depends on;
//! - every recording entry point is gated on [`enabled`] (one relaxed
//!   atomic load), so a metrics-off run skips even the clock reads;
//! - derived quantities (e.g. the gradient L2 norm) are computed in
//!   separate f64 accumulators owned by the instrumentation, leaving
//!   the f32 training-side accumulation order untouched.
//!
//! The contract is asserted end-to-end: the determinism suite builds a
//! hierarchy with metrics on and off at 1 and N threads and compares
//! serialized bytes.
//!
//! # Global state
//!
//! Metric recording (`set_enabled`) and progress logging
//! (`log::set_log_format`) are independent toggles, both off by
//! default. Everything records into [`global`], a lazily-created
//! [`Registry`]; library code therefore needs no plumbing, and the CLI
//! decides per-invocation whether anything is observed at all.

#![warn(missing_docs)]

pub mod log;
pub mod registry;
pub mod report;
pub mod snapshot;

pub use log::{
    heartbeat, log_enabled, log_event, log_format, maybe_heartbeat, set_heartbeat_interval,
    set_log_format, LogFormat, LogValue,
};
pub use registry::{Histogram, Registry, SpanGuard, SpanStat};
pub use snapshot::MetricsSnapshot;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-global registry all free functions record into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Turn metric recording on or off process-wide. Off (the default)
/// makes every recording helper in this crate a no-op after a single
/// relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric recording is currently enabled.
///
/// Instrumentation sites with non-trivial derivation cost (e.g. a
/// gradient-norm reduction) should check this themselves so the
/// derivation is skipped too, not just the registry write.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Add `delta` to global counter `name` (no-op when disabled).
pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        global().counter_add(name, delta);
    }
}

/// Set global gauge `name` (no-op when disabled).
pub fn gauge_set(name: &str, value: f64) {
    if enabled() {
        global().gauge_set(name, value);
    }
}

/// Flush a batch of counter deltas, histogram samples, and series
/// appends into the global registry under one lock acquisition (no-op
/// when disabled). See [`Registry::record_batch`].
pub fn record_batch(counters: &[(&str, u64)], histograms: &[(&str, f64)], series: &[(&str, f64)]) {
    if enabled() {
        global().record_batch(counters, histograms, series);
    }
}

/// Append to global series `name` (no-op when disabled).
pub fn series_push(name: &str, value: f64) {
    if enabled() {
        global().series_push(name, value);
    }
}

/// Start a scoped wall-clock timer that records into global span
/// `name` when dropped. When metrics are disabled the guard is inert
/// (no clock read, nothing recorded on drop).
pub fn span(name: &str) -> SpanGuard {
    if enabled() {
        SpanGuard::started(name.to_owned())
    } else {
        SpanGuard::disabled()
    }
}

/// [`span`] for pre-built (e.g. per-level formatted) names, avoiding a
/// second allocation when the caller already owns the `String`.
pub fn span_owned(name: String) -> SpanGuard {
    if enabled() {
        SpanGuard::started(name)
    } else {
        SpanGuard::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The enabled flag and registry are process-global; serialize.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_helpers_record_nothing() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        global().reset();
        counter_add("c", 1);
        gauge_set("g", 1.0);
        record_batch(&[], &[("h", 1.0)], &[]);
        series_push("s", 1.0);
        drop(span("sp"));
        assert_eq!(global().counter_get("c"), 0);
        assert!(global().gauge_get("g").is_none());
        assert!(global().histogram_get("h").is_none());
        assert!(global().series_get("s").is_empty());
        assert!(global().span_get("sp").is_none());
    }

    #[test]
    fn enabled_helpers_record_into_global() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        global().reset();
        counter_add("c", 2);
        record_batch(&[], &[("h", 0.5)], &[]);
        {
            let _sp = span("sp");
        }
        set_enabled(false);
        assert_eq!(global().counter_get("c"), 2);
        assert_eq!(global().histogram_get("h").unwrap().count, 1);
        assert_eq!(global().span_get("sp").unwrap().count, 1);
        global().reset();
    }
}
