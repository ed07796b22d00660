//! In-memory span recorder owned by the benchmark.
//!
//! Spans wrap the calls the benchmark itself makes into the program;
//! they are kept in memory and written out once, at exit. A disabled
//! recorder reads no clock and stores nothing, so the untraced run pays
//! one branch per call.

use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Id of the span that was open when this one began; `None` for a
    /// root (one per request, batch or build).
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of whichever span
    /// is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Self time of every span called `name`: its duration minus the
    /// part its children cover. Children of one span never overlap (the
    /// benchmark is one thread), so that part is their summed duration.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns - covered[s.id as usize]) as f64 / 1e9)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.span("root", |rec| {
            rec.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            rec.span("child", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert!(rec.total_s("child") >= 0.005);
        let parts = rec.self_s("root") + rec.total_s("child");
        assert!((parts - rec.total_s("root")).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("root", |rec| rec.span("child", |_| 7)), 7);
        assert!(rec.spans().is_empty());
    }
}
