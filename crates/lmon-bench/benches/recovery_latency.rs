//! `recovery_latency` — the self-healing TBON, quantified.
//!
//! Measurements backing the ISSUE 5 acceptance criteria: how long the
//! overlay takes to go from a comm-daemon kill to the first *post-heal*
//! end-to-end broadcast (kill → detect → repair → broadcast+gather), per
//! tree shape, with the phase breakdown and the same-run healthy
//! broadcast RTT as the hardware normalizer.
//!
//! Per iteration a fresh overlay is built, connected, and probed healthy;
//! then an interior comm daemon is killed through the deterministic crash
//! path (`FrontEndpoint::crash_comm` — the same LinkDown/ChildGone close a
//! `CommFault` crash runs), the failure is detected, repaired by
//! grandparent adoption, and the next broadcast must reach every BE.
//!
//! Results are printed and written to `BENCH_recovery.json` at
//! the workspace root (CI uploads it as an artifact); the JSON carries a
//! `baseline` block (this subsystem's first committed numbers) so the
//! trajectory is self-describing. Quick mode for CI: `LMON_BENCH_QUICK=1`.
//!
//! **Regression gate** ([`lmon_bench::gate`]): the primary shape's median
//! `recovery_latency_us` against the committed `BENCH_recovery.json`, with
//! the recovery/healthy-RTT ratio as the hardware-neutral signal.

use std::time::{Duration, Instant};

use lmon_bench::gate::{self, int, median, num, obj, text, Better, Gate, Json};
use lmon_tbon::filter::FilterKind;
use lmon_tbon::spec::{NodePos, TopologySpec};
use lmon_testkit::{FaultPlan, LiveOverlay};

/// Tree shapes measured, primary (gated) shape first.
const SHAPES: &[&str] = &["1x8x64", "1x16x256"];

#[derive(Debug, Clone, Copy)]
struct RecoverySample {
    healthy_rtt_us: f64,
    detect_us: f64,
    repair_us: f64,
    total_us: f64,
}

/// One kill-and-heal cycle on a fresh overlay.
fn one_cycle(shape: &str) -> RecoverySample {
    let spec = TopologySpec::parse(shape).expect("valid shape");
    let leaves = spec.leaf_count();
    // Kill the middle comm daemon of the first interior level.
    let victim = NodePos { level: 1, index: spec.levels()[1] / 2 };

    let mut live = LiveOverlay::launch_echo(shape, &FaultPlan::new());
    live.front.await_connections(leaves, Duration::from_secs(20)).expect("connect");
    let stream = live.front.open_stream(FilterKind::Concat).expect("stream");

    // Healthy round trip (wave 1): the same-run hardware normalizer.
    let h0 = Instant::now();
    live.front.broadcast(stream, 1, vec![]).expect("healthy broadcast");
    let pkt = live.front.gather(stream, 1, Duration::from_secs(20)).expect("healthy gather");
    let healthy_rtt_us = h0.elapsed().as_secs_f64() * 1e6;
    assert_eq!(pkt.payload.len(), leaves as usize);

    // Kill → detect → repair → first post-heal end-to-end broadcast.
    let t0 = Instant::now();
    live.front.crash_comm(victim).expect("kill switch");
    let dead = live.front.wait_failure(Duration::from_secs(20)).expect("detect");
    assert_eq!(dead, victim);
    let detect_us = t0.elapsed().as_secs_f64() * 1e6;
    let reports = live.front.heal_failures().expect("repair");
    assert_eq!(reports.len(), 1);
    let repair_us = t0.elapsed().as_secs_f64() * 1e6 - detect_us;
    live.front.broadcast(stream, 2, vec![]).expect("post-heal broadcast");
    let pkt = live.front.gather(stream, 2, Duration::from_secs(20)).expect("post-heal gather");
    let total_us = t0.elapsed().as_secs_f64() * 1e6;
    assert_eq!(pkt.payload.len(), leaves as usize, "heal must recover every BE");

    live.shutdown();
    RecoverySample { healthy_rtt_us, detect_us, repair_us, total_us }
}

/// The artifact row of one shape: medians over `iters` kill-and-heal cycles.
fn measure(shape: &str, iters: usize) -> Json {
    let samples: Vec<RecoverySample> = (0..iters).map(|_| one_cycle(shape)).collect();
    let med =
        |field: fn(&RecoverySample) -> f64| num(median(samples.iter().map(field).collect()), 0);
    obj([
        ("shape", text(shape)),
        ("iterations", int(iters)),
        ("healthy_rtt_us", med(|s| s.healthy_rtt_us)),
        ("detect_us", med(|s| s.detect_us)),
        ("repair_us", med(|s| s.repair_us)),
        ("recovery_latency_us", med(|s| s.total_us)),
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
        ("pr", int(5)),
        ("shape", text("1x8x64")),
        ("recovery_latency_us", num(548.0, 0)),
        ("healthy_rtt_us", num(390.0, 0)),
    ]);
    gate::publish(
        "BENCH_recovery.json",
        mode,
        [("shapes", Json::Arr(shapes)), ("baseline", baseline)],
        &Gate {
            row: &["shapes", SHAPES[0]],
            metric: "recovery_latency_us",
            normalizer: "healthy_rtt_us",
            better: Better::Lower,
        },
    );
}
