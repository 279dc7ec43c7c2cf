//! What running one generation yields, shared by every workload path.

use std::time::{Duration, Instant};

use crate::metrics::Layer;
use crate::spans::SpanBuf;

/// One attempted session.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Launched/attached, passed every correctness check, and torn down.
    pub ok: bool,
    /// Request issued (open loop: due) → daemons ready reply.
    pub ready_ms: f64,
    /// Kill/detach request → reply.
    pub teardown_ms: f64,
    /// Request issued/due → teardown reply.
    pub total_ms: f64,
}

impl Sample {
    /// A session that failed: it counts as attempted, as failed, and as
    /// missing every latency limit.
    pub const FAILED: Sample =
        Sample { ok: false, ready_ms: f64::INFINITY, teardown_ms: 0.0, total_ms: f64::INFINITY };
}

/// The result of one generation.
#[derive(Debug, Default)]
pub struct GenOutcome {
    /// One sample per planned session, in plan order.
    pub samples: Vec<Sample>,
    /// Unmeasured sessions run beside the planned ones (the open loop's
    /// filler); they count in throughput and CPU per session, not in
    /// `attempted`.
    pub filler_sessions: usize,
    /// Wall time from the first request to the last teardown reply;
    /// bring-up and shutdown of the generation are outside it.
    pub wall: Duration,
    /// What went wrong, session- or generation-level. Any entry clears the
    /// run's `correct` flag.
    pub errors: Vec<String>,
}

impl GenOutcome {
    /// A generation whose program instance could not be brought up: every
    /// planned session failed.
    pub fn all_failed(sessions: usize, why: String) -> GenOutcome {
        GenOutcome {
            samples: vec![Sample::FAILED; sessions],
            filler_sessions: 0,
            wall: Duration::ZERO,
            errors: vec![why],
        }
    }
}

/// Where a traced generation records its per-layer samples and spans.
#[derive(Debug)]
pub struct Trace {
    /// Per-layer samples.
    pub layer: Layer,
    /// Spans around the benchmark's calls.
    pub spans: SpanBuf,
}

impl Trace {
    /// An empty trace whose spans count from now.
    pub fn new() -> Trace {
        Trace { layer: Layer::default(), spans: SpanBuf::new(Instant::now()) }
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

/// Identifier shared by the spans of one session.
pub fn session_id(gen_no: usize, idx: usize) -> u64 {
    (gen_no as u64 + 1) * 100_000 + idx as u64
}
