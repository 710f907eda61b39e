//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start, an end and the span that
//! caused it.  Spans stay in memory while the workload runs and are written
//! out as JSON lines when it ends.  A disabled tracer records nothing, so an
//! untraced pass pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `checker.quotient`.
    pub name: &'static str,
    /// The enclosing span's index, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off between passes.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggling tracing inside a span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that encloses later spans; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("close without an open span");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span named `name`, returning its result and
    /// its wall time (measured whether or not tracing is on).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        self.open(name);
        let started = Instant::now();
        let out = f();
        let took = started.elapsed();
        self.close();
        (out, took)
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in seconds over the spans in `range`: each
    /// span's duration minus the part of it that its child spans cover.
    #[must_use]
    pub fn self_seconds_by_layer(&self, range: Range<usize>) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[range.clone()];
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent.filter(|p| range.contains(p)) {
                child_ns[parent - range.start] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.layer()).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines: `{"id","parent","name","start_ns","end_ns"}`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut tracer = Tracer::new(false);
        tracer.open("bench.job");
        let (value, took) = tracer.span("checker.call", || 41 + 1);
        tracer.close();
        assert_eq!(value, 42);
        assert!(took <= Duration::from_secs(1));
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(true);
        tracer.open("bench.job");
        tracer.span("spool.submit", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        tracer.span("daemon.execute", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        tracer.close();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = tracer.self_seconds_by_layer(0..tracer.spans().len());
        let children = spans[1].seconds() + spans[2].seconds();
        let expected = spans[0].seconds() - children;
        assert!((own["bench"] - expected).abs() < 1e-9);
        assert!((own["spool"] - spans[1].seconds()).abs() < 1e-12);
        assert_eq!(tracer.to_jsonl().lines().count(), 3);
    }
}
