//! `upgrade_rolling` — planned maintenance, quantified (DESIGN.md §12).
//!
//! Measurements backing the ISSUE 9 acceptance criteria: the rolling
//! comm-daemon upgrade walk over a spare-backed overlay (per-step drain
//! and replace latency, p50/p99), and silent-halt detection latency under
//! background phi-accrual suspicion versus the PR 5 caller-driven
//! heartbeat sweep it replaces.
//!
//! Per upgrade iteration a fresh overlay is built, connected, probed
//! healthy, put under suspicion, and walked end to end with
//! `Maintenance::rolling_upgrade`; the walk must finish with zero
//! unplanned repairs and the next broadcast must still reach every BE
//! (`sessions_uninterrupted`). Detection cycles halt one comm silently
//! (`FrontEndpoint::halt_comm`, the `kill -9` analogue) and time
//! phi-accrual suspicion against a caller-driven sweep; the sweep baseline
//! includes the half-interval a death waits, on average, before the next
//! scheduled sweep even begins (PR 5 ran sweeps on a 100 ms cadence).
//!
//! Results are printed and written to `BENCH_upgrade.json` at
//! the workspace root (CI uploads it as an artifact); the JSON carries a
//! `baseline` block (this subsystem's first committed numbers) so the
//! trajectory is self-describing. Quick mode for CI: `LMON_BENCH_QUICK=1`.
//!
//! **Regression gate** ([`lmon_bench::gate`]): the primary shape's median
//! per-step upgrade latency `step_p50_us` against the committed
//! `BENCH_upgrade.json`, with the step/healthy-RTT ratio as the
//! hardware-neutral signal.

use std::time::{Duration, Instant};

use lmon_bench::gate::{self, int, median, num, obj, percentile, text, Better, Gate, Json};
use lmon_tbon::filter::FilterKind;
use lmon_tbon::spec::{NodePos, TopologySpec};
use lmon_tbon::PhiAccrualParams;
use lmon_testkit::{FaultPlan, LiveOverlay};

/// Tree shapes measured, primary (gated) shape first — every shape
/// carries a full spare pool so each walk step replaces from a spare.
const SHAPES: &[&str] = &["1x8x64+8", "1x4x32+4"];

/// The PR 5 sweep cadence: a silent death waits, on average, half this
/// interval before the sweep that attributes it even begins.
const SWEEP_INTERVAL: Duration = Duration::from_millis(100);

struct UpgradeCycle {
    healthy_rtt_us: f64,
    /// Per-step drain latencies (µs) from [`UpgradeStep::drain`].
    drain_us: Vec<f64>,
    /// Per-step total latencies (µs): drain + re-adopt + verify.
    step_us: Vec<f64>,
    rolling_total_us: f64,
    uninterrupted: bool,
}

/// One full rolling-upgrade walk on a fresh spare-backed overlay.
fn one_upgrade_cycle(shape: &str) -> UpgradeCycle {
    let spec = TopologySpec::parse(shape).expect("valid shape");
    let leaves = spec.leaf_count();
    let mut live = LiveOverlay::launch_echo(shape, &FaultPlan::new());
    live.front.await_connections(leaves, Duration::from_secs(20)).expect("connect");
    let _table = live.front.maintenance().start_suspicion(PhiAccrualParams::default());
    let stream = live.front.open_stream(FilterKind::Concat).expect("stream");

    // Healthy round trip (wave 1): the same-run hardware normalizer.
    let h0 = Instant::now();
    live.front.broadcast(stream, 1, vec![]).expect("healthy broadcast");
    let pkt = live.front.gather(stream, 1, Duration::from_secs(20)).expect("healthy gather");
    let healthy_rtt_us = h0.elapsed().as_secs_f64() * 1e6;
    assert_eq!(pkt.payload.len(), leaves as usize);

    let t0 = Instant::now();
    let report =
        live.front.maintenance().rolling_upgrade(Duration::from_secs(20)).expect("rolling upgrade");
    let rolling_total_us = t0.elapsed().as_secs_f64() * 1e6;

    // Zero interruption: no unplanned repairs anywhere in the walk, and
    // the very next wave still reaches every BE.
    live.front.broadcast(stream, 2, vec![]).expect("post-upgrade broadcast");
    let pkt = live.front.gather(stream, 2, Duration::from_secs(20)).expect("post-upgrade gather");
    let uninterrupted = report.unplanned_repairs == 0 && pkt.payload.len() == leaves as usize;

    let drain_us = report.steps.iter().map(|s| s.drain.as_secs_f64() * 1e6).collect();
    let step_us = report.steps.iter().map(|s| s.total.as_secs_f64() * 1e6).collect();
    live.shutdown();
    UpgradeCycle { healthy_rtt_us, drain_us, step_us, rolling_total_us, uninterrupted }
}

/// A connected overlay of `shape` and its middle first-level comm daemon,
/// the silent-halt victim.
fn overlay_with_victim(shape: &str) -> (LiveOverlay, NodePos) {
    let spec = TopologySpec::parse(shape).expect("valid shape");
    let victim = NodePos { level: 1, index: spec.levels()[1] / 2 };
    let mut live = LiveOverlay::launch_echo(shape, &FaultPlan::new());
    live.front.await_connections(spec.leaf_count(), Duration::from_secs(20)).expect("connect");
    (live, victim)
}

/// Halt one comm silently and time detection by background phi-accrual
/// suspicion (halt → route-table death visible to `wait_failure`).
fn one_phi_detect_cycle(shape: &str) -> f64 {
    let (mut live, victim) = overlay_with_victim(shape);
    let _table = live.front.maintenance().start_suspicion(PhiAccrualParams::default());
    let t0 = Instant::now();
    live.front.halt_comm(victim).expect("halt switch");
    let dead = live.front.wait_failure(Duration::from_secs(20)).expect("suspicion detects");
    assert_eq!(dead, victim);
    let detect_us = t0.elapsed().as_secs_f64() * 1e6;
    live.shutdown();
    detect_us
}

/// The same silent halt detected the PR 5 way: a caller-driven heartbeat
/// sweep. The measured figure is the sweep's own execution time plus the
/// average half-interval the death sits undetected before the next
/// scheduled sweep starts.
fn one_sweep_detect_cycle(shape: &str) -> f64 {
    let (mut live, victim) = overlay_with_victim(shape);
    live.front.halt_comm(victim).expect("halt switch");
    let t0 = Instant::now();
    loop {
        let missing = live.front.heartbeat(SWEEP_INTERVAL);
        if missing.contains(&victim) {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(20), "sweep never attributed the halt");
    }
    let detect_us = (t0.elapsed() + SWEEP_INTERVAL / 2).as_secs_f64() * 1e6;
    live.shutdown();
    detect_us
}

/// The artifact row of one shape. Acceptance is asserted here: every walk
/// finished with zero unplanned repairs and a complete post-upgrade wave,
/// and phi-accrual detection is no slower than the caller-driven sweep it
/// replaces.
fn measure(shape: &str, iters: usize) -> Json {
    let cycles: Vec<UpgradeCycle> = (0..iters).map(|_| one_upgrade_cycle(shape)).collect();
    let drains: Vec<f64> = cycles.iter().flat_map(|c| c.drain_us.iter().copied()).collect();
    let steps: Vec<f64> = cycles.iter().flat_map(|c| c.step_us.iter().copied()).collect();
    let phi_detect_us = median((0..iters).map(|_| one_phi_detect_cycle(shape)).collect());
    let sweep_detect_us = median((0..iters).map(|_| one_sweep_detect_cycle(shape)).collect());
    let uninterrupted = cycles.iter().filter(|c| c.uninterrupted).count();
    assert_eq!(uninterrupted, iters, "{shape}: an upgrade walk interrupted the session");
    assert!(
        phi_detect_us <= sweep_detect_us,
        "{shape}: phi-accrual detection ({phi_detect_us:.0}us) slower than the PR 5 sweep \
         baseline ({sweep_detect_us:.0}us)"
    );
    obj([
        ("shape", text(shape)),
        ("iterations", int(iters)),
        ("steps_per_walk", int(cycles[0].step_us.len())),
        ("healthy_rtt_us", num(median(cycles.iter().map(|c| c.healthy_rtt_us).collect()), 0)),
        ("drain_p50_us", num(percentile(drains.clone(), 0.50), 0)),
        ("drain_p99_us", num(percentile(drains, 0.99), 0)),
        ("step_p50_us", num(percentile(steps.clone(), 0.50), 0)),
        ("step_p99_us", num(percentile(steps, 0.99), 0)),
        ("rolling_total_us", num(median(cycles.iter().map(|c| c.rolling_total_us).collect()), 0)),
        ("phi_detect_us", num(phi_detect_us, 0)),
        ("sweep_detect_us", num(sweep_detect_us, 0)),
        ("sessions_uninterrupted", int(uninterrupted)),
    ])
}

fn main() {
    let mode = gate::Mode::from_env();
    let iters = if mode.quick { 3 } else { 10 };
    let shapes: Vec<Json> = SHAPES.iter().map(|s| measure(s, iters)).collect();
    // First committed numbers for this subsystem (quick mode, the CI
    // configuration), so any later reader of the JSON sees the trajectory
    // without digging through git history.
    let baseline = obj([
        ("pr", int(9)),
        ("shape", text("1x8x64+8")),
        ("step_p50_us", num(621.0, 0)),
        ("healthy_rtt_us", num(403.0, 0)),
    ]);
    gate::publish(
        "BENCH_upgrade.json",
        mode,
        [("shapes", Json::Arr(shapes)), ("baseline", baseline)],
        &Gate {
            row: &["shapes", SHAPES[0]],
            metric: "step_p50_us",
            normalizer: "healthy_rtt_us",
            better: Better::Lower,
        },
    );
}
