//! Metrics collection: counters and named spans.
//!
//! The Figure-3 reproduction needs per-region cost breakdowns (Region A:
//! RM-dominant, Region B: RPDTAB fetch, Region C: handshake). Scenario
//! actors mark named spans as the protocol progresses; after the run, the
//! harness aggregates span durations per name.

use std::collections::HashMap;

use crate::time::{SimDuration, SimTime};

/// A named interval recorded during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name, e.g. `"t_job"` or `"region_b"`.
    pub name: String,
    /// Start of the interval.
    pub start: SimTime,
    /// End of the interval.
    pub end: SimTime,
}

impl Span {
    /// Duration covered by the span.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Counters and spans accumulated during a simulation run.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: HashMap<String, u64>,
    spans: Vec<Span>,
    open: HashMap<String, SimTime>,
    marks: HashMap<String, SimTime>,
}

impl Metrics {
    /// Increment a named counter by `by`.
    pub fn count(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Read a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record a point-in-time mark (e.g. critical-path event `e3`).
    ///
    /// Re-marking a name overwrites; the last mark wins.
    pub fn mark(&mut self, name: &str, at: SimTime) {
        self.marks.insert(name.to_string(), at);
    }

    /// Read a mark.
    pub fn mark_at(&self, name: &str) -> Option<SimTime> {
        self.marks.get(name).copied()
    }

    /// Duration between two marks, if both exist and are ordered.
    pub fn between(&self, from: &str, to: &str) -> Option<SimDuration> {
        let a = self.mark_at(from)?;
        let b = self.mark_at(to)?;
        (b >= a).then(|| b - a)
    }

    /// Open a span; it stays open until [`Metrics::span_end`].
    pub fn span_begin(&mut self, name: &str, at: SimTime) {
        self.open.insert(name.to_string(), at);
    }

    /// Close a span opened with [`Metrics::span_begin`].
    ///
    /// Closing a span that was never opened is ignored (scenarios often
    /// have optional phases).
    pub fn span_end(&mut self, name: &str, at: SimTime) {
        if let Some(start) = self.open.remove(name) {
            self.spans.push(Span { name: name.to_string(), start, end: at });
        }
    }

    /// Record a complete span directly.
    pub fn span(&mut self, name: &str, start: SimTime, end: SimTime) {
        self.spans.push(Span { name: name.to_string(), start, end });
    }

    /// All closed spans, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All counters, sorted by name (stable output for reports).
    pub fn counters_sorted(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self.counters.iter().map(|(k, &n)| (k.as_str(), n)).collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum of the durations of the closed spans named `name`.
    fn span_total(m: &Metrics, name: &str) -> SimDuration {
        m.spans().iter().filter(|s| s.name == name).map(Span::duration).sum()
    }

    #[test]
    fn counters_accumulate_and_default_zero() {
        let mut m = Metrics::default();
        assert_eq!(m.counter("msgs"), 0);
        m.count("msgs", 2);
        m.count("msgs", 3);
        assert_eq!(m.counter("msgs"), 5);
    }

    #[test]
    fn spans_sum_by_name() {
        let mut m = Metrics::default();
        m.span("x", SimTime(0), SimTime(10));
        m.span("x", SimTime(20), SimTime(25));
        m.span("y", SimTime(0), SimTime(100));
        assert_eq!(span_total(&m, "x"), SimDuration(15));
        assert_eq!(span_total(&m, "y"), SimDuration(100));
        assert_eq!(span_total(&m, "z"), SimDuration::ZERO);
    }

    #[test]
    fn begin_end_pairs_close_properly() {
        let mut m = Metrics::default();
        m.span_begin("fetch", SimTime(5));
        assert!(m.spans().is_empty(), "an open span is not recorded yet");
        m.span_end("fetch", SimTime(9));
        assert_eq!(span_total(&m, "fetch"), SimDuration(4));
        // ending a never-opened span is a no-op
        m.span_end("ghost", SimTime(100));
        assert_eq!(m.spans().len(), 1);
    }

    #[test]
    fn marks_and_between() {
        let mut m = Metrics::default();
        m.mark("e2", SimTime(100));
        m.mark("e3", SimTime(350));
        assert_eq!(m.between("e2", "e3"), Some(SimDuration(250)));
        assert_eq!(m.between("e3", "e2"), None, "reversed order yields None");
        assert_eq!(m.between("e2", "missing"), None);
    }

    #[test]
    fn counters_sorted_is_stable() {
        let mut m = Metrics::default();
        m.count("b", 1);
        m.count("a", 2);
        assert_eq!(m.counters_sorted(), vec![("a", 2), ("b", 1)]);
    }
}
