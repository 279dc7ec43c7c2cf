//! Background phi-accrual failure suspicion (DESIGN.md §12).
//!
//! PR 5's `heartbeat(timeout)` is a *caller-driven* sweep: detection
//! latency for a silent death (a `kill -9` that never runs the crash
//! path's FIN) is however long the caller chose to block, and nobody is
//! watching between sweeps. This module replaces that with a per-overlay
//! monitor thread fed by cheap periodic beats from every interior comm
//! daemon over a dedicated channel (not the tree — beats must not perturb
//! wave aggregation or crash counters):
//!
//! * each comm sends its position every `beat_interval`; the monitor
//!   timestamps arrivals itself, so sender-side scheduling jitter is part
//!   of the measured distribution rather than a source of clock skew;
//! * per node the monitor keeps a sliding window of inter-arrival times
//!   and computes the phi-accrual suspicion value
//!   `φ(t) = −log₁₀(1 − CDF(t))` of the time since the last beat under a
//!   normal fit of that window (logistic approximation of the normal CDF,
//!   as in the Hayashibara et al. detector and its Akka implementation);
//! * suspicion is *graded*: `φ ≥ suspect_phi` raises
//!   [`SuspicionLevel::Suspect`] (exported via `/metrics`, no action),
//!   `φ ≥ dead_phi` declares [`SuspicionLevel::Dead`], marks the node
//!   dead in the shared [`RouteTable`] and posts the crash path's
//!   `ChildGone` notice on the root's up link — so a front end blocked in
//!   `wait_failure` wakes for it, and detection feeds the PR 5 repair
//!   machinery with no new repair code;
//! * nodes under a planned drain are exempt (they stop beating *on
//!   purpose*), and nodes repaired out of the route table are unenrolled.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, RecvTimeoutError};
use parking_lot::Mutex;

use crate::recovery::{OverlayStats, RouteTable};
use crate::spec::NodePos;

/// Tunables for the phi-accrual detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhiAccrualParams {
    /// Nominal inter-beat interval each enrolled comm daemon is told to
    /// use. The monitor polls at half this interval.
    pub beat_interval: Duration,
    /// Sliding inter-arrival history window per node.
    pub window: usize,
    /// φ threshold for [`SuspicionLevel::Suspect`] (observability only).
    pub suspect_phi: f64,
    /// φ threshold for [`SuspicionLevel::Dead`] (marks the node dead in
    /// the route table, feeding the repair path).
    pub dead_phi: f64,
    /// Floor on the fitted standard deviation: beats over in-process
    /// channels can be so regular that a raw fit would declare death on
    /// microseconds of jitter.
    pub min_stddev: Duration,
}

impl Default for PhiAccrualParams {
    /// Defaults sized for the in-process overlay: 25 ms beats, φ=1 to
    /// suspect, φ=8 to declare death (≈ mean + 11.5 σ under the logistic
    /// approximation — with the 5 ms σ floor, roughly 80–100 ms of silence).
    fn default() -> Self {
        PhiAccrualParams {
            beat_interval: Duration::from_millis(25),
            window: 64,
            suspect_phi: 1.0,
            dead_phi: 8.0,
            min_stddev: Duration::from_millis(5),
        }
    }
}

/// Graded suspicion of one enrolled node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SuspicionLevel {
    /// Beats arriving as expected.
    Alive,
    /// φ crossed the suspect threshold: late, not yet declared dead.
    Suspect,
    /// φ crossed the dead threshold: marked dead in the route table.
    Dead,
}

/// One node's current suspicion state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuspicionEntry {
    /// Graded level.
    pub level: SuspicionLevel,
    /// The φ value behind it (grows without bound while a node is silent).
    pub phi: f64,
}

/// Shared, read-only view of the monitor's per-node suspicion state
/// (exported as the `/metrics` per-child suspicion gauge).
#[derive(Debug, Default)]
pub struct SuspicionTable {
    inner: Mutex<HashMap<NodePos, SuspicionEntry>>,
}

impl SuspicionTable {
    /// Current level for `pos`, if enrolled.
    pub fn level(&self, pos: NodePos) -> Option<SuspicionLevel> {
        self.inner.lock().get(&pos).map(|e| e.level)
    }

    /// Point-in-time copy of every enrolled node, in position order.
    pub fn snapshot(&self) -> Vec<(NodePos, SuspicionEntry)> {
        let mut v: Vec<(NodePos, SuspicionEntry)> =
            self.inner.lock().iter().map(|(p, e)| (*p, *e)).collect();
        v.sort_by_key(|(p, _)| *p);
        v
    }

    fn set(&self, pos: NodePos, entry: SuspicionEntry) {
        self.inner.lock().insert(pos, entry);
    }

    fn remove(&self, pos: NodePos) {
        self.inner.lock().remove(&pos);
    }
}

/// The phi-accrual suspicion value for `elapsed` since the last arrival,
/// under a normal fit with `mean`/`stddev` inter-arrival statistics.
///
/// `φ = −log₁₀(1 − CDF(elapsed))`, with the normal CDF evaluated via the
/// standard logistic approximation: φ ≈ 0.3 when `elapsed == mean`, and
/// grows roughly linearly in `(elapsed − mean)/stddev` beyond it, so a
/// threshold of φ=8 sits near mean + 11.5 σ.
pub fn phi(elapsed: Duration, mean: Duration, stddev: Duration) -> f64 {
    let s = stddev.as_secs_f64().max(1e-9);
    let y = (elapsed.as_secs_f64() - mean.as_secs_f64()) / s;
    let e = (-y * (1.5976 + 0.070_566 * y * y)).exp();
    if elapsed > mean {
        -(e / (1.0 + e)).log10()
    } else {
        -(1.0 - 1.0 / (1.0 + e)).log10()
    }
}

/// Handle on a running suspicion monitor: dropping it stops the thread.
/// Obtained from `Maintenance::start_suspicion`.
#[derive(Debug)]
pub struct SuspicionHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
    table: Arc<SuspicionTable>,
}

impl SuspicionHandle {
    /// The live suspicion state the monitor maintains.
    pub fn table(&self) -> Arc<SuspicionTable> {
        Arc::clone(&self.table)
    }
}

impl Drop for SuspicionHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Per-node arrival history inside the monitor.
struct History {
    last: Instant,
    intervals: VecDeque<f64>,
}

/// Spawn the monitor thread. `beat_rx` carries enrolled nodes' positions;
/// `draining` is shared with the front end so planned drains are never
/// misread as deaths.
pub(crate) fn spawn_monitor(
    beat_rx: Receiver<NodePos>,
    params: PhiAccrualParams,
    route: Arc<RouteTable>,
    stats: Arc<OverlayStats>,
    draining: Arc<Mutex<HashSet<NodePos>>>,
) -> SuspicionHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let table = Arc::new(SuspicionTable::default());
    let stop2 = Arc::clone(&stop);
    let table2 = Arc::clone(&table);
    let join = std::thread::Builder::new()
        .name("tbon-suspicion".into())
        .spawn(move || monitor_loop(beat_rx, params, route, stats, draining, stop2, table2))
        .expect("spawn suspicion monitor");
    SuspicionHandle { stop, join: Some(join), table }
}

fn monitor_loop(
    beat_rx: Receiver<NodePos>,
    params: PhiAccrualParams,
    route: Arc<RouteTable>,
    stats: Arc<OverlayStats>,
    draining: Arc<Mutex<HashSet<NodePos>>>,
    stop: Arc<AtomicBool>,
    table: Arc<SuspicionTable>,
) {
    let poll = (params.beat_interval / 2).max(Duration::from_millis(1));
    let window = params.window.max(2);
    let mut hist: HashMap<NodePos, History> = HashMap::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Block for at most one poll interval, then batch-drain whatever
        // else arrived so a wide overlay's beats cost one sweep, not one
        // wakeup each.
        let mut arrivals: Vec<NodePos> = Vec::new();
        match beat_rx.recv_timeout(poll) {
            Ok(pos) => arrivals.push(pos),
            Err(RecvTimeoutError::Timeout) => {}
            // Every enrolled daemon exited (overlay teardown): done.
            Err(RecvTimeoutError::Disconnected) => return,
        }
        arrivals.extend(beat_rx.try_iter());
        let now = Instant::now();
        stats.add_beats(arrivals.len() as u64);
        for pos in arrivals {
            match hist.get_mut(&pos) {
                Some(h) => {
                    h.intervals.push_back(now.saturating_duration_since(h.last).as_secs_f64());
                    while h.intervals.len() > window {
                        h.intervals.pop_front();
                    }
                    h.last = now;
                }
                None => {
                    // Seed with the nominal interval: one real sample plus
                    // the prior gives the fit something to stand on before
                    // the window fills.
                    let mut intervals = VecDeque::with_capacity(window);
                    intervals.push_back(params.beat_interval.as_secs_f64());
                    hist.insert(pos, History { last: now, intervals });
                }
            }
        }

        // Evaluation sweep.
        hist.retain(|pos, _| {
            // Repaired-away (or never-routed) nodes unenroll; their stale
            // suspicion rows would otherwise outlive them in /metrics.
            if !route.is_routed(*pos) {
                table.remove(*pos);
                false
            } else {
                true
            }
        });
        let exempt = draining.lock().clone();
        for (pos, h) in &hist {
            if exempt.contains(pos) {
                // A draining node stops beating on purpose; freeze its row.
                continue;
            }
            let n = h.intervals.len() as f64;
            let mean = h.intervals.iter().sum::<f64>() / n;
            let var = h.intervals.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
            let stddev = var.sqrt().max(params.min_stddev.as_secs_f64());
            let p = phi(
                now.saturating_duration_since(h.last),
                Duration::from_secs_f64(mean.max(0.0)),
                Duration::from_secs_f64(stddev),
            );
            let level = if p >= params.dead_phi {
                SuspicionLevel::Dead
            } else if p >= params.suspect_phi {
                SuspicionLevel::Suspect
            } else {
                SuspicionLevel::Alive
            };
            let prev = table.level(*pos);
            if level >= SuspicionLevel::Suspect && prev.is_none_or(|l| l < SuspicionLevel::Suspect)
            {
                stats.add_suspicions(1);
            }
            // The row goes out before the route mark it explains, and the
            // counter before the notice: whoever sees the node routed dead
            // finds `Dead` here, not `Suspect`, and whoever the notice
            // wakes finds the death counted.
            table.set(*pos, SuspicionEntry { level, phi: p });
            if level == SuspicionLevel::Dead && route.mark_dead(*pos) {
                stats.add_suspicion_deaths(1);
                route.post_child_gone(*pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;
    use crossbeam_channel::unbounded;

    fn pos(level: u32, index: u32) -> NodePos {
        NodePos { level, index }
    }

    fn fast_params() -> PhiAccrualParams {
        PhiAccrualParams {
            beat_interval: Duration::from_millis(5),
            window: 16,
            suspect_phi: 1.0,
            dead_phi: 3.0,
            min_stddev: Duration::from_millis(2),
        }
    }

    #[test]
    fn phi_is_small_at_the_mean_and_grows_monotonically() {
        let mean = Duration::from_millis(25);
        let sd = Duration::from_millis(5);
        let at_mean = phi(mean, mean, sd);
        assert!(at_mean < 0.5, "φ at the mean should be ≈0.3, got {at_mean}");
        let mut prev = 0.0;
        for ms in [25u64, 30, 40, 60, 100, 200] {
            let p = phi(Duration::from_millis(ms), mean, sd);
            assert!(p >= prev, "φ must be monotone in elapsed ({ms}ms: {p} < {prev})");
            prev = p;
        }
        assert!(prev > 8.0, "200ms of silence on a 25±5ms beat must exceed φ=8, got {prev}");
        // Early arrivals are never suspicious.
        assert!(phi(Duration::from_millis(1), mean, sd) < at_mean);
    }

    /// The detector's core promise: a node that silently stops beating is
    /// marked dead in the route table (feeding the normal repair path),
    /// while a node that keeps beating is not.
    #[test]
    fn silent_node_is_marked_dead_while_beating_node_survives() {
        let spec = TopologySpec::parse("1x2x4").unwrap();
        let route = Arc::new(RouteTable::new(&spec));
        let stats = Arc::new(OverlayStats::default());
        let draining = Arc::new(Mutex::new(HashSet::new()));
        let (tx, rx) = unbounded();
        let handle = spawn_monitor(
            rx,
            fast_params(),
            Arc::clone(&route),
            Arc::clone(&stats),
            Arc::clone(&draining),
        );

        // Both comms beat for a while; then comm (1,1) goes silent.
        for _ in 0..10 {
            tx.send(pos(1, 0)).unwrap();
            tx.send(pos(1, 1)).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while route.is_alive(pos(1, 1)) {
            assert!(Instant::now() < deadline, "suspicion never declared the silent node dead");
            tx.send(pos(1, 0)).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(route.is_alive(pos(1, 0)), "the beating node must not be suspected dead");
        assert_eq!(handle.table().level(pos(1, 1)), Some(SuspicionLevel::Dead));
        let snap = stats.snapshot();
        assert!(snap.suspicion_deaths >= 1);
        assert!(snap.suspicions_raised >= 1, "death passes through Suspect first");
        assert!(snap.beats_received > 0);
        drop(handle);
    }

    /// Planned drains stop beating on purpose: the draining set must
    /// exempt them from being declared dead.
    #[test]
    fn draining_node_is_exempt_from_suspicion() {
        let spec = TopologySpec::parse("1x2x4").unwrap();
        let route = Arc::new(RouteTable::new(&spec));
        let stats = Arc::new(OverlayStats::default());
        let draining = Arc::new(Mutex::new(HashSet::new()));
        let (tx, rx) = unbounded();
        let handle = spawn_monitor(
            rx,
            fast_params(),
            Arc::clone(&route),
            Arc::clone(&stats),
            Arc::clone(&draining),
        );
        for _ in 0..6 {
            tx.send(pos(1, 0)).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        draining.lock().insert(pos(1, 0));
        // Long silence — far past the dead threshold — must not kill it.
        std::thread::sleep(Duration::from_millis(150));
        assert!(route.is_alive(pos(1, 0)), "draining node misread as dead");
        assert_eq!(stats.snapshot().suspicion_deaths, 0);
        drop(handle);
    }
}
