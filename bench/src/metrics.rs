//! The metrics the benchmark declares — the same names, units and bounds
//! `BENCHMARK.json` carries (`tests/smoke.rs` checks the two agree) — and
//! the accumulator the per-layer ones are reduced from.

use std::collections::BTreeMap;

use crate::stats::{mean, quantile};

/// An end-to-end metric: what a tool user of the launch stack would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The eight end-to-end metrics, reported on every workload. The bounds are
/// what this box's own run-to-run noise allows (README, "Steadiness"), not
/// the 10 % the benchmark was first specified with. CPU time per session is
/// a per-layer metric (`proc.cpu_ms_per_session`): on the sleep-bound
/// workload it follows the host's phases, not the code.
pub const END_TO_END: [EndToEndDef; 8] = [
    EndToEndDef { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEndDef { name: "time_to_ready_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEndDef { name: "time_to_ready_p90_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEndDef { name: "teardown_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEndDef { name: "session_total_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEndDef { name: "sessions_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEndDef { name: "slo_met_share", unit: "ratio", better: "higher", bound: 0.05 },
    EndToEndDef { name: "rss_peak_mb", unit: "MB", better: "lower", bound: 0.20 },
];

/// How a per-layer metric is reduced from its samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// Median.
    P50,
    /// 99th percentile.
    P99,
    /// Arithmetic mean.
    Mean,
    /// Largest sample.
    Max,
    /// Most recent sample (single-valued metrics).
    Last,
}

/// A per-layer metric; the prefix of its name is the module it measures.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// Metric name, also the key samples are pushed under.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Reduction over the run's samples.
    pub reduce: Reduce,
}

const fn layer(name: &'static str, unit: &'static str, reduce: Reduce) -> LayerDef {
    LayerDef { name, unit, better: "lower", reduce }
}

/// The per-layer ladder. README.md says which end-to-end metric each one
/// should move, on which workload.
pub const PER_LAYER: [LayerDef; 45] = [
    layer("loadgen.plan_hash", "count", Reduce::Last),
    layer("loadgen.sleep_overshoot_p99_us", "us", Reduce::P99),
    layer("loadgen.conn_wait_share", "ratio", Reduce::Mean),
    layer("daemon.bringup_ms", "ms", Reduce::P50),
    layer("daemon.control_rtt_us", "us", Reduce::P50),
    layer("daemon.codec_us_per_op", "us", Reduce::P50),
    layer("daemon.dispatch_launch_ms_p50", "ms", Reduce::P50),
    layer("daemon.dispatch_kill_ms_p50", "ms", Reduce::P50),
    layer("daemon.socket_overhead_ms", "ms", Reduce::Last),
    layer("daemon.admission_wait_ms_mean", "ms", Reduce::Mean),
    layer("daemon.admission_peak_waiting", "count", Reduce::Max),
    layer("daemon.metrics_scrape_us", "us", Reduce::P50),
    layer("daemon.residual_sessions", "count", Reduce::Max),
    layer("core.t_job_ms_p50", "ms", Reduce::P50),
    layer("core.t_rpdtab_fetch_ms_p50", "ms", Reduce::P50),
    layer("core.t_daemon_ms_p50", "ms", Reduce::P50),
    layer("core.t_handshake_ms_p50", "ms", Reduce::P50),
    layer("core.t_setup_ms_p50", "ms", Reduce::P50),
    layer("core.other_ms_p50", "ms", Reduce::P50),
    layer("core.budget_residual_share", "ratio", Reduce::Mean),
    layer("core.fe_init_ms", "ms", Reduce::P50),
    layer("core.kill_ms_p50", "ms", Reduce::P50),
    layer("core.detach_ms_p50", "ms", Reduce::P50),
    layer("core.teardown_slope_us_per_session", "us", Reduce::P50),
    layer("core.time_to_ready_p99_ms", "ms", Reduce::P99),
    layer("rm.launch_job_ms_p50", "ms", Reduce::P50),
    layer("rm.kill_job_ms_p50", "ms", Reduce::P50),
    layer("cluster.fanout_spawn_ms_p50", "ms", Reduce::P50),
    layer("cluster.proc_records_per_session", "count", Reduce::Mean),
    layer("cluster.launchers_left_per_1k_sessions", "count", Reduce::Mean),
    layer("proto.rpdtab_bytes", "count", Reduce::Last),
    layer("proto.rpdtab_encode_us", "us", Reduce::P50),
    layer("proto.rpdtab_decode_us", "us", Reduce::P50),
    layer("proto.mux_roundtrip_us", "us", Reduce::P50),
    layer("iccl.barrier_us", "us", Reduce::P50),
    layer("tbon.overlay_build_us", "us", Reduce::P50),
    layer("tools.stat_wave_ms_p50", "ms", Reduce::P50),
    LayerDef { name: "tools.stat_classes", unit: "count", better: "higher", reduce: Reduce::Last },
    layer("sim.scenario_ms", "ms", Reduce::P50),
    layer("sim.scenario_trace_lines", "count", Reduce::Last),
    layer("proc.threads_end", "count", Reduce::Last),
    layer("proc.rss_growth_kb_per_session", "kB", Reduce::Last),
    layer("proc.ctx_switches_per_session", "count", Reduce::Mean),
    layer("proc.cpu_ms_per_session", "ms", Reduce::Last),
    layer("trace.overhead_share", "ratio", Reduce::Last),
];

/// Named sample lists. Keys that are not per-layer metric names are
/// intermediate series (`client.launch_ms`) that derived metrics read.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layer {
    /// Add one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Move another accumulator's samples in.
    pub fn absorb(&mut self, other: Layer) {
        for (name, mut values) in other.samples {
            self.samples.entry(name).or_default().append(&mut values);
        }
    }

    /// Drop the samples under `name`.
    pub fn clear(&mut self, name: &str) {
        self.samples.remove(name);
    }

    /// The samples under `name` (empty when none were pushed).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// `def` reduced over its samples; `None` when there are none.
    pub fn reduce(&self, def: &LayerDef) -> Option<f64> {
        let values = self.samples(def.name);
        if values.is_empty() {
            return None;
        }
        Some(match def.reduce {
            Reduce::P50 => quantile(values, 0.5),
            Reduce::P99 => quantile(values, 0.99),
            Reduce::Mean => mean(values),
            Reduce::Max => values.iter().copied().fold(f64::MIN, f64::max),
            Reduce::Last => values[values.len() - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for n in names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn reduce_follows_the_declared_rule() {
        let mut l = Layer::default();
        for v in [3.0, 1.0, 2.0] {
            l.push("daemon.admission_peak_waiting", v);
            l.push("daemon.bringup_ms", v);
        }
        let def = |name| PER_LAYER.iter().find(|d| d.name == name).expect("declared");
        assert_eq!(l.reduce(def("daemon.admission_peak_waiting")), Some(3.0));
        assert_eq!(l.reduce(def("daemon.bringup_ms")), Some(2.0));
        assert_eq!(l.reduce(def("loadgen.plan_hash")), None);
    }
}
