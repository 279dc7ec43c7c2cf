//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! session it belongs to. Spans are kept in memory while the run measures
//! and written out at exit; a layer's *self time* is its spans' duration
//! minus the part their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{num, quote};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-prefixed name (`core.launch_and_spawn`, `client.kill`, ...).
    pub name: &'static str,
    /// Start, microseconds from the recorder's origin.
    pub start_us: f64,
    /// End, microseconds from the recorder's origin.
    pub end_us: f64,
    /// Index of the causing span in the same buffer.
    pub parent: Option<usize>,
    /// Session identifier shared by all spans of one request; 0 for
    /// generation-level spans.
    pub session: u64,
}

/// A span buffer. Each thread records into its own and the owner
/// [`absorb`](SpanBuf::absorb)s them, so recording takes no lock.
#[derive(Debug, Clone)]
pub struct SpanBuf {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-name totals over a buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, microseconds.
    pub total_us: f64,
    /// Summed duration not covered by child spans, microseconds.
    pub self_us: f64,
}

impl SpanBuf {
    /// An empty buffer measuring from `origin`.
    pub fn new(origin: Instant) -> SpanBuf {
        SpanBuf { origin, spans: Vec::new() }
    }

    /// An empty buffer sharing this one's origin (for another thread).
    pub fn sibling(&self) -> SpanBuf {
        SpanBuf::new(self.origin)
    }

    /// Record `[start, end]`; returns the span's index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        session: u64,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span { name, start_us: at(start), end_us: at(end), parent, session });
        self.spans.len() - 1
    }

    /// Move `other`'s spans in, re-basing their parent indices.
    pub fn absorb(&mut self, other: SpanBuf) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_us) {
            let dur = s.end_us - s.start_us;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_us += dur;
            t.self_us += (dur - covered).max(0.0);
        }
        out
    }

    /// The buffer as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\":{},\"seed\":{seed},\"unit\":\"us\",\"spans\":[",
            quote(workload)
        );
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{id},\"name\":{},\"start\":{},\"end\":{},\"parent\":{parent},\"session\":{}}}",
                quote(s.name),
                num(s.start_us),
                num(s.end_us),
                s.session
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut buf = SpanBuf::new(t0);
        let root = buf.record("session", at(0), at(10), None, 1);
        let launch = buf.record("core.launch_and_spawn", at(0), at(7), Some(root), 1);
        buf.record("core.t_daemon", at(2), at(6), Some(launch), 1);
        buf.record("core.kill", at(7), at(10), Some(root), 1);

        let totals = buf.totals();
        assert!((totals["session"].self_us - 0.0).abs() < 1e-6);
        assert!((totals["core.launch_and_spawn"].self_us - 3000.0).abs() < 1e-6);
        assert!((totals["core.t_daemon"].self_us - 4000.0).abs() < 1e-6);
        assert_eq!(totals["core.kill"].count, 1);
    }

    #[test]
    fn absorb_rebases_parents_and_json_parses() {
        let t0 = Instant::now();
        let mut a = SpanBuf::new(t0);
        a.record("session", t0, t0, None, 1);
        let mut b = a.sibling();
        let root = b.record("session", t0, t0, None, 2);
        b.record("client.launch", t0, t0, Some(root), 2);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));

        let doc = Json::parse(&a.to_json("storm_closed", 9)).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 3);
    }
}
