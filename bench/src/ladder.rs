//! The layer ladder: one probe per layer, each a few repetitions of the
//! layer's public entry point at the workload's shape, run beside the
//! sessions at the end of a traced run.
//!
//! Metrics the sessions themselves cross are reported from the session path;
//! the ladder supplies the rest, so every per-layer metric is measured on
//! every workload and a change to a layer a workload bypasses still shows
//! where that layer's cost went.

use std::path::Path;
use std::time::{Duration, Instant};

use launchmon::cluster::{
    fanout, ClusterConfig, NodeId, ProcSpec, VirtualCluster, DEFAULT_LAUNCH_WORKERS,
};
use launchmon::iccl::{ChannelFabric, IcclComm, Topology};
use launchmon::proto::rpdtab::synthetic_rpdtab;
use launchmon::proto::wire::{WireDecode, WireEncode};
use launchmon::proto::{LmonpMsg, MsgChannel, MsgType, Rpdtab, SessionMux};
use launchmon::rm::{JobSpec, ResourceManager, SlurmRm};
use launchmon::tbon::filter::FilterRegistry;
use launchmon::tbon::overlay::Overlay;
use launchmon::tbon::TopologySpec;
use launchmon::testkit::Scenario;

use crate::direct::{launch, oneshot_body, push_breakdown, push_stat, stat_once, Instance};
use crate::gen::Trace;
use crate::metrics::Layer;
use crate::plan::{Op, Shape, Spec};
use crate::stats::{ms, us};
use crate::storm::{self, StormCfg};

/// Shape of the plain job the tool probe attaches to (the `tool_attach`
/// workload's).
const STAT_SHAPE: Shape = Shape { nodes: 32, tpn: 16 };

/// Generation number of the daemon probe (names its scratch socket and its
/// spans' sessions); no plan has this many generations.
const PROBE_GEN_NO: usize = 9_999;

/// Run every probe; samples land in `layer`. A probe that cannot run says
/// why in the returned list and leaves its metrics without samples.
pub fn run(spec: &Spec, seed: u64, out_dir: &Path, layer: &mut Layer) -> Vec<String> {
    let mut errors = Vec::new();
    proto(spec, layer);
    iccl(spec, layer);
    tbon(layer);
    cluster(spec, layer);
    rm(spec, layer, &mut errors);
    sim(seed, layer);
    core_and_tools(spec, layer, &mut errors);
    daemon(spec, out_dir, layer, &mut errors);
    loadgen(layer);
    errors
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// `lmon-proto`: RPDTAB codec at the workload's table size, and one echo
/// over an `open`ed endpoint of a `SessionMux::pair`.
fn proto(spec: &Spec, layer: &mut Layer) {
    let table = synthetic_rpdtab(spec.probe_shape.nodes, spec.probe_shape.tpn, "app");
    for _ in 0..20 {
        let (bytes, enc) = timed(|| table.to_bytes());
        let (decoded, dec) = timed(|| Rpdtab::from_bytes(&bytes));
        layer.push("proto.rpdtab_bytes", bytes.len() as f64);
        layer.push("proto.rpdtab_encode_us", us(enc));
        layer.push("proto.rpdtab_decode_us", us(dec));
        std::hint::black_box(decoded.map(|t| t.len()).unwrap_or(0));
    }

    let (near, far) = SessionMux::pair();
    let (Ok(a), Ok(b)) = (near.open(1), far.open(1)) else { return };
    for _ in 0..200 {
        let t = Instant::now();
        let echoed = a
            .send(LmonpMsg::of_type(MsgType::BeUsrData))
            .and_then(|()| b.recv())
            .and_then(|m| b.send(m))
            .and_then(|()| a.recv());
        if echoed.is_ok() {
            layer.push("proto.mux_roundtrip_us", us(t.elapsed()));
        }
    }
}

/// `lmon-iccl`: build the mesh for the workload's node count and run one
/// barrier on it, one thread per rank.
fn iccl(spec: &Spec, layer: &mut Layer) {
    for _ in 0..10 {
        let t = Instant::now();
        let fabrics = ChannelFabric::mesh(spec.probe_shape.nodes as u32);
        std::thread::scope(|scope| {
            for fabric in fabrics {
                scope.spawn(move || {
                    let _ = IcclComm::new(fabric, Topology::Binomial).barrier();
                });
            }
        });
        layer.push("iccl.barrier_us", us(t.elapsed()));
    }
}

/// `lmon-tbon`: links of a 1-deep overlay over 32 leaves.
fn tbon(layer: &mut Layer) {
    let spec = TopologySpec::one_deep(32);
    for _ in 0..20 {
        let (overlay, took) = timed(|| Overlay::build(&spec, FilterRegistry::new()));
        layer.push("tbon.overlay_build_us", us(took));
        drop(overlay);
    }
}

/// `lmon-cluster`: the bounded fan-out over `spawn_active`, one process per
/// node at the workload's spawn latency.
fn cluster(spec: &Spec, layer: &mut Layer) {
    let nodes = spec.probe_shape.nodes;
    for _ in 0..10 {
        let cluster = VirtualCluster::new(ClusterConfig {
            spawn_latency: spec.spawn_latency,
            ..ClusterConfig::with_nodes(nodes)
        });
        let (pids, took) = timed(|| {
            fanout((0..nodes as u32).collect(), DEFAULT_LAUNCH_WORKERS, |_, i| {
                cluster.spawn_active(NodeId::Compute(i), ProcSpec::named("probe"), |_ctx| {})
            })
        });
        layer.push("cluster.fanout_spawn_ms_p50", ms(took));
        for pid in pids.into_iter().flatten() {
            let _ = cluster.wait_pid(pid);
            let _ = cluster.join_thread(pid);
        }
    }
}

/// `lmon-rm`: a plain job of the workload's shape, launched and killed.
fn rm(spec: &Spec, layer: &mut Layer, errors: &mut Vec<String>) {
    let shape = spec.probe_shape;
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(shape.nodes));
    let rm = SlurmRm::new(cluster.clone());
    for i in 0..5 {
        let (job, up) =
            timed(|| rm.launch_job(&JobSpec::new("probe", shape.nodes, shape.tpn), false));
        let job = match job {
            Ok(j) => j,
            Err(e) => return errors.push(format!("ladder rm probe {i}: launch_job: {e}")),
        };
        let (killed, down) = timed(|| rm.kill_job(&job));
        if let Err(e) = killed {
            return errors.push(format!("ladder rm probe {i}: kill_job: {e}"));
        }
        layer.push("rm.launch_job_ms_p50", ms(up));
        layer.push("rm.kill_job_ms_p50", ms(down));
        let _ = cluster.wait_pid(job.launcher_pid);
        let _ = cluster.join_thread(job.launcher_pid);
    }
}

/// `lmon-sim` / `lmon-testkit` / `lmon-model`: off the live path; kept so a
/// simulator merge can show equal trace-line counts.
fn sim(seed: u64, layer: &mut Layer) {
    for _ in 0..3 {
        let (report, took) = timed(|| Scenario::new("1x4x32").seed(seed).run());
        layer.push("sim.scenario_ms", ms(took));
        layer.push("sim.scenario_trace_lines", report.dump().lines().count() as f64);
    }
}

/// `lmon-core` and `lmon-tools` on a front end of their own: a few
/// launch → kill sessions at the workload's shape, then a few STAT
/// attach → wave → detach sessions against a plain job.
fn core_and_tools(spec: &Spec, layer: &mut Layer, errors: &mut Vec<String>) {
    let nodes = spec.cluster_nodes.max(STAT_SHAPE.nodes);
    let inst = match Instance::start(nodes, spec.spawn_latency) {
        Ok(i) => i,
        Err(e) => return errors.push(format!("ladder core probe: {e}")),
    };
    layer.push("core.fe_init_ms", ms(inst.fe_init));
    let body = oneshot_body();
    for i in 0..4 {
        let op = Op { app: format!("probe{i}"), shape: spec.probe_shape, due: Duration::ZERO };
        let t0 = Instant::now();
        match launch(&inst.fe, &op, &body) {
            Ok(l) => {
                if let Some(b) = &l.breakdown {
                    push_breakdown(layer, b, l.ready - t0);
                }
                let (killed, took) = timed(|| inst.fe.kill(l.sid));
                if killed.is_ok() {
                    layer.push("core.kill_ms_p50", ms(took));
                }
            }
            Err(e) => errors.push(format!("ladder core probe {i}: {e}")),
        }
    }
    match inst.start_job("probe_job", STAT_SHAPE) {
        Ok(job) => {
            let mut reference = None;
            for i in 0..4 {
                match stat_once(&inst.fe, job.launcher_pid, STAT_SHAPE, &mut reference) {
                    Ok(times) => push_stat(layer, &times),
                    Err(e) => errors.push(format!("ladder tools probe {i}: {e}")),
                }
            }
            let _ = inst.rm.kill_job(&job);
        }
        Err(e) => errors.push(format!("ladder tools probe: {e}")),
    }
    inst.stop();
}

/// `lmon-daemon`: one traced storm generation of sixteen sessions at the
/// workload's shape on one connection — every other one in-process — through
/// the same code the storm workloads run.
fn daemon(spec: &Spec, out_dir: &Path, layer: &mut Layer, errors: &mut Vec<String>) {
    let cfg = StormCfg {
        admission_limit: 8,
        open: false,
        cluster_nodes: spec.cluster_nodes.max(spec.probe_shape.nodes),
        connections: 1,
        probe_every: 2,
        out_dir: out_dir.to_path_buf(),
    };
    let ops: Vec<Op> = (0..16)
        .map(|i| Op { app: format!("probe{i}"), shape: spec.probe_shape, due: Duration::ZERO })
        .collect();
    let mut trace = Trace::new();
    let outcome = storm::run_gen(&cfg, PROBE_GEN_NO, &ops, Some(&mut trace));
    errors.extend(outcome.errors.into_iter().map(|e| format!("ladder daemon probe: {e}")));
    // The probe daemon's process counters describe the probe, not the
    // workload.
    let mut probe = trace.layer;
    for name in [
        "cluster.proc_records_per_session",
        "cluster.launchers_left_per_1k_sessions",
        "proc.ctx_switches_per_session",
    ] {
        probe.clear(name);
    }
    layer.absorb(probe);
}

/// The load generator's own timer: how late a sleep to a deadline wakes.
fn loadgen(layer: &mut Layer) {
    for _ in 0..200 {
        let due = Instant::now() + Duration::from_micros(250);
        std::thread::sleep(Duration::from_micros(250));
        layer.push("loadgen.sleep_overshoot_p99_us", us(due.elapsed()));
    }
    layer.push("loadgen.conn_wait_share", 0.0);
}
