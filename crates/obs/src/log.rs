//! Structured progress logging: plain or JSON lines on stderr, plus a
//! rate-limited heartbeat.
//!
//! Logging is off by default and independent of metric recording; the
//! CLI's `--log-format {plain,json}` turns it on. Lines go to stderr so
//! machine-readable command output on stdout stays clean.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::report::{escape, json_f64};

/// Output encoding for progress lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogFormat {
    /// Human-oriented `[hignn] event key=value ...` lines.
    Plain,
    /// One JSON object per line: `{"event":"...","key":value,...}`.
    Json,
}

/// A single typed field of a log event.
#[derive(Clone, Debug)]
pub enum LogValue {
    /// Unsigned integer field.
    Uint(u64),
    /// Floating-point field (rendered as `null` in JSON if non-finite).
    Float(f64),
    /// String field.
    Str(String),
}

impl LogValue {
    fn render_json(&self) -> String {
        match self {
            LogValue::Uint(v) => v.to_string(),
            LogValue::Float(v) => json_f64(*v),
            LogValue::Str(s) => format!("\"{}\"", escape(s)),
        }
    }

    fn render_plain(&self) -> String {
        match self {
            LogValue::Uint(v) => v.to_string(),
            LogValue::Float(v) => format!("{v:.6}"),
            LogValue::Str(s) => s.clone(),
        }
    }
}

// 0 = off, 1 = plain, 2 = json.
static LOG_FORMAT: AtomicU8 = AtomicU8::new(0);
// Milliseconds since `epoch()` of the last heartbeat, +1 (0 = never).
static LAST_HEARTBEAT: AtomicU64 = AtomicU64::new(0);
// Minimum milliseconds between rate-limited heartbeats.
static HEARTBEAT_INTERVAL_MS: AtomicU64 = AtomicU64::new(5_000);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

type Sink = Mutex<Option<std::sync::Arc<Mutex<Vec<String>>>>>;
fn test_sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Redirect emitted lines into a buffer instead of stderr (testing only).
#[doc(hidden)]
pub fn set_test_sink(sink: Option<std::sync::Arc<Mutex<Vec<String>>>>) {
    *test_sink().lock().unwrap_or_else(|e| e.into_inner()) = sink;
}

/// Select the log format, or `None` to disable logging entirely.
pub fn set_log_format(format: Option<LogFormat>) {
    let v = match format {
        None => 0,
        Some(LogFormat::Plain) => 1,
        Some(LogFormat::Json) => 2,
    };
    LOG_FORMAT.store(v, Ordering::Relaxed);
}

/// The currently selected log format, if logging is enabled.
pub fn log_format() -> Option<LogFormat> {
    match LOG_FORMAT.load(Ordering::Relaxed) {
        1 => Some(LogFormat::Plain),
        2 => Some(LogFormat::Json),
        _ => None,
    }
}

/// True when progress lines should be emitted.
pub fn log_enabled() -> bool {
    LOG_FORMAT.load(Ordering::Relaxed) != 0
}

/// Set the minimum spacing between rate-limited heartbeats
/// (see [`maybe_heartbeat`]). Zero means every call fires.
pub fn set_heartbeat_interval(interval: Duration) {
    HEARTBEAT_INTERVAL_MS.store(interval.as_millis() as u64, Ordering::Relaxed);
}

fn emit_line(line: String) {
    let guard = test_sink().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(buf) = guard.as_ref() {
        buf.lock().unwrap_or_else(|e| e.into_inner()).push(line);
    } else {
        eprintln!("{line}");
    }
}

/// Emit one progress line for `event` if logging is enabled.
pub fn log_event(event: &str, fields: &[(&str, LogValue)]) {
    let Some(format) = log_format() else { return };
    let line = match format {
        LogFormat::Plain => {
            let body = fields
                .iter()
                .map(|(k, v)| format!("{k}={}", v.render_plain()))
                .collect::<Vec<_>>()
                .join(" ");
            if body.is_empty() {
                format!("[hignn] {event}")
            } else {
                format!("[hignn] {event} {body}")
            }
        }
        LogFormat::Json => {
            let mut parts = vec![format!("\"event\":\"{}\"", escape(event))];
            parts.extend(
                fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", escape(k), v.render_json())),
            );
            format!("{{{}}}", parts.join(","))
        }
    };
    emit_line(line);
}

/// Emit a `heartbeat` event unconditionally (used at natural progress
/// boundaries such as epoch ends). An `elapsed_s` field with time since
/// process start is appended automatically.
pub fn heartbeat(fields: &[(&str, LogValue)]) {
    if !log_enabled() {
        return;
    }
    let elapsed = epoch().elapsed().as_secs_f64();
    LAST_HEARTBEAT.store(
        epoch().elapsed().as_millis() as u64 + 1,
        Ordering::Relaxed,
    );
    let mut all = fields.to_vec();
    all.push(("elapsed_s", LogValue::Float(elapsed)));
    log_event("heartbeat", &all);
}

/// Rate-limited heartbeat for tight loops: fires only when at least the
/// configured interval has passed since the last heartbeat. The field
/// closure runs only when the line will actually be emitted. Returns
/// whether a line was emitted.
pub fn maybe_heartbeat(fields: impl FnOnce() -> Vec<(&'static str, LogValue)>) -> bool {
    if !log_enabled() {
        return false;
    }
    let now = epoch().elapsed().as_millis() as u64 + 1;
    let last = LAST_HEARTBEAT.load(Ordering::Relaxed);
    let interval = HEARTBEAT_INTERVAL_MS.load(Ordering::Relaxed);
    if last != 0 && now.saturating_sub(last) < interval {
        return false;
    }
    // Racing emitters may both pass the check; heartbeats are advisory,
    // so an occasional double line beats a CAS loop here.
    heartbeat(&fields());
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // Log state is process-global; serialize the tests that touch it.
    fn with_captured_lines(format: Option<LogFormat>, f: impl FnOnce()) -> Vec<String> {
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let buf = Arc::new(Mutex::new(Vec::new()));
        set_test_sink(Some(buf.clone()));
        set_log_format(format);
        f();
        set_log_format(None);
        set_test_sink(None);
        let lines = buf.lock().unwrap().clone();
        lines
    }

    #[test]
    fn json_lines_are_valid_objects() {
        let lines = with_captured_lines(Some(LogFormat::Json), || {
            log_event(
                "epoch",
                &[
                    ("epoch", LogValue::Uint(3)),
                    ("loss", LogValue::Float(0.5)),
                    ("note", LogValue::Str("a\"b".into())),
                ],
            );
        });
        assert_eq!(
            lines,
            vec![r#"{"event":"epoch","epoch":3,"loss":0.5,"note":"a\"b"}"#]
        );
    }

    #[test]
    fn plain_lines_and_heartbeat_rate_limit() {
        let lines = with_captured_lines(Some(LogFormat::Plain), || {
            set_heartbeat_interval(Duration::from_secs(3600));
            heartbeat(&[("epoch", LogValue::Uint(1))]);
            // Immediately after an unconditional heartbeat, the
            // rate-limited variant must not fire.
            assert!(!maybe_heartbeat(Vec::new));
            set_heartbeat_interval(Duration::ZERO);
            assert!(maybe_heartbeat(|| vec![("batch", LogValue::Uint(2))]));
            set_heartbeat_interval(Duration::from_secs(5));
        });
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("[hignn] heartbeat epoch=1 elapsed_s="));
        assert!(lines[1].starts_with("[hignn] heartbeat batch=2 elapsed_s="));
    }

    #[test]
    fn disabled_logging_emits_nothing() {
        let lines = with_captured_lines(None, || {
            log_event("x", &[]);
            assert!(!maybe_heartbeat(Vec::new));
        });
        assert!(lines.is_empty());
    }
}
