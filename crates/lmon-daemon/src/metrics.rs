//! Prometheus exposition rendering for the daemon's `/metrics` endpoint.
//!
//! Three existing observability surfaces are exported, unchanged, under a
//! stable `lmond_` namespace:
//!
//! * `lmon_core::fe::TransportStats` — per-front-end mux accounting (the
//!   paper's one-channel-per-component invariant as live gauges);
//! * `lmon_tbon::OverlayStatsSnapshot` — overlay recovery counters
//!   (DESIGN.md §9);
//! * `lmon_core::fe::HealthSummary` — the bounded session-health ledger.
//!
//! Plus the daemon's own admission/session counters. Everything is plain
//! text/plain; the renderer is deliberately dependency-free (no registry
//! crate exists offline) and the format is pinned by unit tests: every
//! sample line is `name{label="v",...} value` or `name value`, with
//! `# HELP`/`# TYPE` comments preceding each family.

use std::time::Duration;

use lmon_core::fe::{HealthSummary, TransportStats};
use lmon_core::HealthState;
use lmon_tbon::OverlayStatsSnapshot;

use crate::admission::AdmissionStats;

/// Everything the renderer needs, gathered by the daemon at scrape time.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Daemon uptime.
    pub uptime: Duration,
    /// Federation groups the FE pool is sharded into (DESIGN.md §13).
    pub fed_groups: usize,
    /// Whole-group FE failovers served.
    pub fed_failovers: u64,
    /// Live (admitted, not yet detached/killed) sessions.
    pub sessions_active: usize,
    /// Lifetime launches served successfully.
    pub launches_total: u64,
    /// Lifetime launches that failed after admission.
    pub launch_failures_total: u64,
    /// Admission counters.
    pub admission: AdmissionStats,
    /// One entry per pooled front end, index = `fe` label.
    pub transports: Vec<TransportStats>,
    /// One entry per pooled front end, index = `fe` label.
    pub healths: Vec<HealthSummary>,
    /// Aggregated overlay recovery counters.
    pub overlay: OverlayStatsSnapshot,
    /// Live sessions per current health state, across the pool (an ended
    /// session's retired monitor counts in no state).
    pub health_states: Vec<(HealthState, usize)>,
    /// Per-child phi-accrual suspicion levels from recent upgrade drills:
    /// `(overlay index, "level:index" child label, level)` with level
    /// 0 = alive, 1 = suspect, 2 = dead (DESIGN.md §12).
    pub suspicion_levels: Vec<(usize, String, u8)>,
}

struct Renderer {
    out: String,
}

impl Renderer {
    fn family(&mut self, name: &str, kind: &str, help: &str) {
        self.out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    }

    fn sample(&mut self, name: &str, labels: &[(&str, String)], value: impl std::fmt::Display) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(&format!("{k}=\"{v}\""));
            }
            self.out.push('}');
        }
        self.out.push_str(&format!(" {value}\n"));
    }

    fn gauge(&mut self, name: &str, help: &str, value: impl std::fmt::Display) {
        self.family(name, "gauge", help);
        self.sample(name, &[], value);
    }

    fn counter(&mut self, name: &str, help: &str, value: impl std::fmt::Display) {
        self.family(name, "counter", help);
        self.sample(name, &[], value);
    }
}

/// Render the snapshot in Prometheus exposition format.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut r = Renderer { out: String::new() };

    // --- daemon + admission --------------------------------------------
    r.gauge("lmond_uptime_seconds", "Daemon uptime.", snap.uptime.as_secs_f64());
    r.gauge("lmond_fed_groups", "Federation groups in the FE shard pool.", snap.fed_groups);
    r.counter("lmond_fed_failovers_total", "Whole-group FE failovers served.", snap.fed_failovers);
    r.gauge("lmond_sessions_active", "Sessions currently admitted and live.", snap.sessions_active);
    r.counter("lmond_launches_total", "Successful launches served.", snap.launches_total);
    r.counter(
        "lmond_launch_failures_total",
        "Launches that failed after admission.",
        snap.launch_failures_total,
    );
    r.gauge(
        "lmond_admission_in_flight",
        "Sessions holding an admission permit.",
        snap.admission.in_flight,
    );
    r.gauge(
        "lmond_admission_queue_depth",
        "Launch requests blocked in the admission queue.",
        snap.admission.waiting,
    );
    r.gauge(
        "lmond_admission_peak_in_flight",
        "High-water mark of concurrently admitted sessions.",
        snap.admission.peak_in_flight,
    );
    r.gauge(
        "lmond_admission_peak_queue_depth",
        "High-water mark of the admission queue.",
        snap.admission.peak_waiting,
    );
    r.counter(
        "lmond_admission_admitted_total",
        "Requests admitted.",
        snap.admission.admitted_total,
    );
    r.counter(
        "lmond_admission_rejected_total",
        "Requests rejected (queue full or shutdown).",
        snap.admission.rejected_total,
    );
    r.counter(
        "lmond_admission_released_total",
        "Permits released by ended sessions.",
        snap.admission.released_total,
    );

    // --- TransportStats, one series per pooled FE ----------------------
    let fe_label = |i: usize| vec![("fe", i.to_string())];
    macro_rules! per_fe_gauge {
        ($name:literal, $help:literal, $field:ident) => {
            r.family($name, "gauge", $help);
            for (i, t) in snap.transports.iter().enumerate() {
                r.sample($name, &fe_label(i), t.$field);
            }
        };
    }
    per_fe_gauge!(
        "lmond_transport_be_physical_links",
        "Physical channels to the BE component (1 by mux construction).",
        be_physical_links
    );
    per_fe_gauge!(
        "lmond_transport_be_sessions",
        "Logical BE sessions multiplexed on the link.",
        be_sessions
    );
    per_fe_gauge!(
        "lmond_transport_be_peak_sessions",
        "High-water mark of simultaneous BE sessions.",
        be_peak_sessions
    );
    per_fe_gauge!(
        "lmond_transport_mw_physical_links",
        "Physical channels to the MW component.",
        mw_physical_links
    );
    per_fe_gauge!(
        "lmond_transport_mw_sessions",
        "Logical MW sessions multiplexed on the link.",
        mw_sessions
    );
    per_fe_gauge!(
        "lmond_transport_mw_peak_sessions",
        "High-water mark of simultaneous MW sessions.",
        mw_peak_sessions
    );

    // --- OverlayStats ---------------------------------------------------
    macro_rules! overlay_counter {
        ($name:literal, $help:literal, $field:ident) => {
            r.counter($name, $help, snap.overlay.$field);
        };
    }
    overlay_counter!(
        "lmond_overlay_stale_packets_dropped_total",
        "Up-packets dropped for carrying a pre-repair epoch.",
        stale_packets_dropped
    );
    overlay_counter!(
        "lmond_overlay_stale_waves_dropped_total",
        "Aggregation waves discarded at an epoch bump.",
        stale_waves_dropped
    );
    overlay_counter!(
        "lmond_overlay_severed_packets_discarded_total",
        "Up-packets discarded on severed links.",
        severed_packets_discarded
    );
    overlay_counter!(
        "lmond_overlay_link_down_notices_total",
        "Deterministic link-close notices sent.",
        link_down_notices
    );
    overlay_counter!(
        "lmond_overlay_deaths_detected_total",
        "Node deaths detected at the front end.",
        deaths_detected
    );
    overlay_counter!("lmond_overlay_pings_sent_total", "Heartbeat probes broadcast.", pings_sent);
    overlay_counter!(
        "lmond_overlay_pongs_received_total",
        "Heartbeat responses received.",
        pongs_received
    );
    overlay_counter!(
        "lmond_overlay_repairs_completed_total",
        "Grandparent-adoption repairs completed.",
        repairs_completed
    );
    overlay_counter!(
        "lmond_overlay_orphans_adopted_total",
        "Orphaned daemons re-parented by repairs.",
        orphans_adopted
    );

    // --- planned maintenance (DESIGN.md §12) ----------------------------
    overlay_counter!(
        "lmond_overlay_drains_completed_total",
        "Planned drains completed (comm daemon flushed and detached).",
        drains_completed
    );
    overlay_counter!(
        "lmond_overlay_spares_registered_total",
        "Hot spares registered at overlay build time.",
        spares_registered
    );
    overlay_counter!(
        "lmond_overlay_spares_activated_total",
        "Hot spares consumed by repairs or upgrades.",
        spares_activated
    );
    r.gauge(
        "lmond_overlay_spares_idle",
        "Hot spares still idle in the pool (registered minus activated).",
        snap.overlay.spares_registered.saturating_sub(snap.overlay.spares_activated),
    );
    overlay_counter!(
        "lmond_overlay_beats_received_total",
        "Liveness beats received by suspicion monitors.",
        beats_received
    );
    overlay_counter!(
        "lmond_overlay_suspicions_raised_total",
        "Nodes whose phi crossed the suspect threshold.",
        suspicions_raised
    );
    overlay_counter!(
        "lmond_overlay_suspicion_deaths_total",
        "Silent deaths declared by the phi-accrual detector.",
        suspicion_deaths
    );
    overlay_counter!(
        "lmond_overlay_upgrades_completed_total",
        "Comm daemons replaced by completed upgrade steps.",
        upgrades_completed
    );
    overlay_counter!(
        "lmond_overlay_upgrades_failed_total",
        "Upgrade steps that failed and fell back to the repair path.",
        upgrades_failed
    );
    r.family(
        "lmond_overlay_suspicion_level",
        "gauge",
        "Per-child phi-accrual suspicion (0=alive, 1=suspect, 2=dead).",
    );
    for (overlay, child, level) in &snap.suspicion_levels {
        r.sample(
            "lmond_overlay_suspicion_level",
            &[("overlay", overlay.to_string()), ("child", child.clone())],
            level,
        );
    }

    // --- HealthMonitor ledger -------------------------------------------
    macro_rules! per_fe_health {
        ($name:literal, $kind:literal, $help:literal, $field:ident) => {
            r.family($name, $kind, $help);
            for (i, h) in snap.healths.iter().enumerate() {
                r.sample($name, &fe_label(i), h.$field);
            }
        };
    }
    per_fe_health!(
        "lmond_health_live_sessions",
        "gauge",
        "Sessions with a live health monitor.",
        live_sessions
    );
    per_fe_health!(
        "lmond_health_retired_sessions",
        "gauge",
        "Monitors retained for recently ended sessions (bounded).",
        retired_sessions
    );
    per_fe_health!(
        "lmond_health_transitions_retained",
        "gauge",
        "Health transitions currently held in memory.",
        transitions_retained
    );
    per_fe_health!(
        "lmond_health_transitions_recorded_total",
        "counter",
        "Lifetime health transitions recorded.",
        transitions_recorded
    );
    per_fe_health!(
        "lmond_health_transitions_dropped_total",
        "counter",
        "Health transitions evicted by the memory bounds.",
        transitions_dropped
    );
    r.family(
        "lmond_health_sessions",
        "gauge",
        "Live sessions by current health state, across the pool.",
    );
    for (state, count) in &snap.health_states {
        let label = match state {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Healed => "healed",
            HealthState::Draining => "draining",
            HealthState::Upgraded => "upgraded",
        };
        r.sample("lmond_health_sessions", &[("state", label.to_string())], count);
    }

    r.out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            uptime: Duration::from_secs(90),
            fed_groups: 4,
            fed_failovers: 2,
            sessions_active: 3,
            launches_total: 12,
            launch_failures_total: 1,
            admission: AdmissionStats {
                in_flight: 3,
                waiting: 2,
                peak_in_flight: 8,
                peak_waiting: 10,
                admitted_total: 13,
                rejected_total: 4,
                released_total: 10,
            },
            transports: vec![TransportStats {
                be_physical_links: 1,
                be_sessions: 3,
                be_peak_sessions: 8,
                mw_physical_links: 1,
                mw_sessions: 0,
                mw_peak_sessions: 1,
            }],
            healths: vec![HealthSummary {
                live_sessions: 1,
                retired_sessions: 2,
                degraded_sessions: 1,
                healed_sessions: 1,
                draining_sessions: 0,
                upgraded_sessions: 1,
                transitions_retained: 5,
                transitions_recorded: 40,
                transitions_dropped: 35,
            }],
            overlay: OverlayStatsSnapshot {
                spares_registered: 4,
                spares_activated: 1,
                ..OverlayStatsSnapshot::default()
            },
            health_states: vec![
                (HealthState::Healthy, 2),
                (HealthState::Degraded, 1),
                (HealthState::Healed, 0),
                (HealthState::Draining, 0),
                (HealthState::Upgraded, 1),
            ],
            suspicion_levels: vec![(0, "1:0".into(), 0), (0, "1:3".into(), 2)],
        }
    }

    #[test]
    fn renders_all_three_catalogs() {
        let text = render_prometheus(&snapshot());
        // One representative series per exported surface.
        assert!(text.contains("lmond_transport_be_sessions{fe=\"0\"} 3"), "{text}");
        assert!(text.contains("lmond_overlay_repairs_completed_total 0"), "{text}");
        assert!(text.contains("lmond_health_transitions_recorded_total{fe=\"0\"} 40"), "{text}");
        assert!(text.contains("lmond_health_sessions{state=\"degraded\"} 1"), "{text}");
        assert!(text.contains("lmond_admission_queue_depth 2"), "{text}");
        assert!(text.contains("lmond_uptime_seconds 90"), "{text}");
        // DESIGN.md §13 FE-shard families: the group count and the one
        // failover counter.
        assert!(text.contains("lmond_fed_groups 4"), "{text}");
        assert!(text.contains("lmond_fed_failovers_total 2"), "{text}");
        assert!(!text.contains("lmond_fed_epoch"), "{text}");
        // DESIGN.md §12 planned-maintenance families.
        assert!(text.contains("lmond_overlay_spares_registered_total 4"), "{text}");
        assert!(text.contains("lmond_overlay_spares_idle 3"), "{text}");
        assert!(text.contains("lmond_overlay_upgrades_completed_total 0"), "{text}");
        assert!(text.contains("lmond_health_sessions{state=\"upgraded\"} 1"), "{text}");
        assert!(
            text.contains("lmond_overlay_suspicion_level{overlay=\"0\",child=\"1:3\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn exposition_format_is_well_formed() {
        let text = render_prometheus(&snapshot());
        let mut families = 0;
        for line in text.lines() {
            if line.starts_with("# HELP") || line.starts_with("# TYPE") {
                if line.starts_with("# TYPE") {
                    families += 1;
                    let kind = line.split_whitespace().last().unwrap();
                    assert!(kind == "gauge" || kind == "counter", "bad type: {line}");
                }
                continue;
            }
            // `name{labels} value` or `name value`; the value parses as f64.
            let (head, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad: {line}"));
            assert!(value.parse::<f64>().is_ok(), "non-numeric value: {line}");
            let name = head.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name: {line}"
            );
            assert!(name.starts_with("lmond_"), "unnamespaced metric: {line}");
        }
        assert!(families > 25, "expected a full catalog, got {families} families");
    }
}
