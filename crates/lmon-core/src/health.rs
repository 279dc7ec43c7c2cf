//! Session health: the front end's degraded → healed status surface.
//!
//! Overlay layers above `lmon-core` (the TBON's self-healing recovery,
//! DESIGN.md §9) detect daemon deaths and repair around them; this module
//! is where those transitions become *tool-visible*. The FE keeps one
//! [`HealthMonitor`] per session; integration layers (e.g.
//! `lmon-tools::jobsnap_tbon`) record a [`HealthState::Degraded`]
//! transition when a failure is detected and [`HealthState::Healed`] when
//! the repair completes, so a tool can distinguish "never failed" from
//! "failed and recovered" without knowing anything about overlay internals.
//!
//! Because a persistent daemon (`lmon-daemon`, DESIGN.md §10) keeps one
//! front end alive across millions of sessions, the monitor is a *ring
//! buffer*, not an append-only log: each session retains at most
//! [`DEFAULT_HISTORY_CAP`] transitions (configurable via
//! [`HealthMonitor::with_capacity`]), with the oldest evicted first and the
//! eviction count surfaced through [`HealthMonitor::dropped_total`]. The
//! monitor lives in its session's front-end record, which leaves when the
//! session is killed or detached; only the 64 most recently ended sessions
//! are kept (see `LmonFrontEnd::session_health` docs), so health state for
//! dead sessions cannot accumulate either.

use std::collections::VecDeque;

/// Default per-session transition history bound.
///
/// Chosen so that even a pathological flapping overlay (degrade/heal every
/// few seconds for days) costs a session a few tens of kilobytes, while
/// still retaining far more context than any tool inspects in practice.
pub const DEFAULT_HISTORY_CAP: usize = 256;

/// The health of a session's daemon fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// No failure has been observed.
    Healthy,
    /// A failure was detected and not yet repaired; collective results may
    /// be delayed or incomplete.
    Degraded,
    /// A failure was repaired: the fabric is whole again, but the session
    /// has a recovery in its history (its overlay runs under a newer
    /// epoch).
    Healed,
    /// A planned maintenance drain is in progress (DESIGN.md §12): one of
    /// the session's comm daemons is flushing its in-flight waves before
    /// detaching. Not a failure — collectives may momentarily stall but
    /// no data is lost.
    Draining,
    /// A planned replacement completed: the fabric is whole, running under
    /// a newer epoch, with at least one daemon swapped for a hot spare.
    /// Distinguished from [`HealthState::Healed`] so tools can tell a
    /// rolling upgrade from a recovered failure.
    Upgraded,
}

/// One recorded health transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTransition {
    /// The state entered.
    pub state: HealthState,
    /// The overlay epoch at (or created by) the transition.
    pub epoch: u64,
    /// Human-readable cause (e.g. `"comm daemon (1,3) died, 8 orphans"`).
    pub detail: String,
}

/// Per-session health log: current state plus a bounded transition history.
#[derive(Debug)]
pub struct HealthMonitor {
    log: VecDeque<HealthTransition>,
    cap: usize,
    dropped: u64,
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor::with_capacity(DEFAULT_HISTORY_CAP)
    }
}

impl HealthMonitor {
    /// A fresh, healthy monitor with the default history bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh monitor retaining at most `cap` transitions (minimum 1: the
    /// current state must always be representable).
    pub fn with_capacity(cap: usize) -> Self {
        HealthMonitor { log: VecDeque::new(), cap: cap.max(1), dropped: 0 }
    }

    /// Record a transition, evicting the oldest retained one when the ring
    /// is full.
    pub fn record(&mut self, state: HealthState, epoch: u64, detail: impl Into<String>) {
        if self.log.len() == self.cap {
            self.log.pop_front();
            self.dropped += 1;
        }
        self.log.push_back(HealthTransition { state, epoch, detail: detail.into() });
    }

    /// The current state ([`HealthState::Healthy`] when nothing was ever
    /// recorded).
    pub fn current(&self) -> HealthState {
        self.log.back().map(|t| t.state).unwrap_or(HealthState::Healthy)
    }

    /// The retained transition history, oldest first. At most
    /// [`Self::capacity`] entries; older ones are counted by
    /// [`Self::dropped_total`].
    pub fn history(&self) -> impl Iterator<Item = &HealthTransition> {
        self.log.iter()
    }

    /// Number of transitions currently retained.
    pub fn retained(&self) -> usize {
        self.log.len()
    }

    /// The history bound this monitor was built with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Lifetime count of transitions evicted by the ring bound.
    pub fn dropped_total(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_monitor_is_healthy() {
        let m = HealthMonitor::new();
        assert_eq!(m.current(), HealthState::Healthy);
        assert_eq!(m.retained(), 0);
        assert_eq!(m.capacity(), DEFAULT_HISTORY_CAP);
    }

    #[test]
    fn degraded_then_healed_transition_sequence() {
        let mut m = HealthMonitor::new();
        m.record(HealthState::Degraded, 0, "comm daemon died");
        assert_eq!(m.current(), HealthState::Degraded);
        m.record(HealthState::Healed, 1, "orphans adopted");
        assert_eq!(m.current(), HealthState::Healed);
        let states: Vec<HealthState> = m.history().map(|t| t.state).collect();
        assert_eq!(states, vec![HealthState::Degraded, HealthState::Healed]);
        assert_eq!(m.history().nth(1).unwrap().epoch, 1);
    }

    #[test]
    fn ring_bound_evicts_oldest_and_counts() {
        let mut m = HealthMonitor::with_capacity(4);
        for epoch in 0..10u64 {
            m.record(HealthState::Degraded, epoch, format!("event {epoch}"));
        }
        assert_eq!(m.retained(), 4, "ring never exceeds its capacity");
        assert_eq!(m.dropped_total(), 6, "every record is retained or counted as dropped");
        // The *newest* transitions are the retained ones.
        let epochs: Vec<u64> = m.history().map(|t| t.epoch).collect();
        assert_eq!(epochs, vec![6, 7, 8, 9]);
        // Current state still reflects the latest record.
        assert_eq!(m.current(), HealthState::Degraded);
    }

    #[test]
    fn capacity_is_clamped_to_at_least_one() {
        let mut m = HealthMonitor::with_capacity(0);
        assert_eq!(m.capacity(), 1);
        m.record(HealthState::Degraded, 0, "a");
        m.record(HealthState::Healed, 1, "b");
        assert_eq!(m.retained(), 1);
        assert_eq!(m.current(), HealthState::Healed, "current state survives eviction");
    }

    #[test]
    fn planned_maintenance_states_are_not_failures() {
        let mut m = HealthMonitor::new();
        m.record(HealthState::Draining, 0, "draining comm (1,0)");
        assert_eq!(m.current(), HealthState::Draining, "a planned drain is not a failure");
        m.record(HealthState::Upgraded, 1, "replaced by spare (1,8)");
        assert_eq!(m.current(), HealthState::Upgraded);
    }

    #[test]
    fn memory_is_bounded_across_many_records() {
        // The daemon-regression shape at monitor level: a session that
        // flaps for a long time retains only `cap` transitions.
        let mut m = HealthMonitor::with_capacity(8);
        for i in 0..10_000u64 {
            m.record(HealthState::Degraded, i, "flap");
        }
        assert_eq!(m.retained(), 8);
        assert_eq!(m.dropped_total(), 10_000 - 8);
    }
}
