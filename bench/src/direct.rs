//! The direct workloads: the front end called from this process, with
//! `lmon-daemon` bypassed.
//!
//! One generation is one program instance — virtual cluster, SLURM-like
//! resource manager, `LmonFrontEnd` (which starts the engine) — serving the
//! generation's sessions on one thread, then shut down.

use std::sync::Arc;
use std::time::{Duration, Instant};

use launchmon::cluster::{ClusterConfig, Pid, VirtualCluster};
use launchmon::core::be::BeMain;
use launchmon::core::fe::LmonFrontEnd;
use launchmon::core::{CriticalEvent, LaunchBreakdown, SessionId, TimelineRecorder};
use launchmon::proto::payload::DaemonSpec;
use launchmon::rm::{JobHandle, JobSpec, ResourceManager, SlurmRm};
use launchmon::tools::stat::{run_stat_launchmon, trace::expected_class_count, PrefixTree};

use crate::gen::{session_id, GenOutcome, Sample, Trace};
use crate::metrics::Layer;
use crate::plan::{Op, Shape, Spec};
use crate::spans::SpanBuf;
use crate::stats::{ms, voluntary_ctx_switches};

/// A cluster, its resource manager and a front end on it.
pub struct Instance {
    /// The virtual cluster.
    pub cluster: VirtualCluster,
    /// The resource manager the front end drives.
    pub rm: Arc<dyn ResourceManager>,
    /// The front end (engine running).
    pub fe: LmonFrontEnd,
    /// How long `LmonFrontEnd::init` took.
    pub fe_init: Duration,
}

impl Instance {
    /// Bring a fresh instance up.
    pub fn start(nodes: usize, spawn_latency: Duration) -> Result<Instance, String> {
        let cluster = VirtualCluster::new(ClusterConfig {
            spawn_latency,
            ..ClusterConfig::with_nodes(nodes)
        });
        let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
        let t = Instant::now();
        let fe = LmonFrontEnd::init(Arc::clone(&rm)).map_err(|e| format!("fe init: {e}"))?;
        Ok(Instance { cluster, rm, fe, fe_init: t.elapsed() })
    }

    /// Start a plain (tool-free) job and wait until its tasks exist, as an
    /// attaching tool would find it.
    pub fn start_job(&self, app: &str, shape: Shape) -> Result<JobHandle, String> {
        let job = self
            .rm
            .launch_job(&JobSpec::new(app, shape.nodes, shape.tpn), false)
            .map_err(|e| format!("launch_job: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        let live = || self.cluster.compute_nodes().iter().map(|n| n.live_count()).sum::<usize>();
        while live() < shape.nodes * shape.tpn {
            if Instant::now() > deadline {
                return Err("job tasks did not appear within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(job)
    }

    /// Shut the front end (and its engine) down.
    pub fn stop(self) {
        let _ = self.fe.shutdown();
    }
}

/// Process records in a cluster's tables, terminal ones included (README,
/// D1).
pub fn proc_records(cluster: &VirtualCluster) -> usize {
    cluster.front_end().pids().len()
        + cluster.compute_nodes().iter().map(|n| n.pids().len()).sum::<usize>()
}

/// Kill what a generation left running on the front-end node — RM
/// launchers whose kill was lost (README, D4) — so a leaked launcher's
/// 2 ms poll loop and the cluster it pins do not distort the generations
/// after it. Returns how many there were; the engine is expected to be
/// alive and is not counted.
pub fn sweep_launchers(cluster: &VirtualCluster) -> usize {
    let fe_node = cluster.front_end();
    let mut left = 0;
    for pid in fe_node.pids() {
        let Some(rec) = fe_node.proc(pid) else { continue };
        if !rec.shared.state().is_terminal() && rec.spec.exe != "launchmon_engine" {
            left += 1;
            let _ = cluster.kill(pid);
        }
    }
    left
}

/// Daemon body of every direct launch: bootstrap barrier, then exit.
pub fn oneshot_body() -> BeMain {
    Arc::new(|be| {
        let _ = be.barrier();
    })
}

/// One launch with its timestamps.
pub struct LaunchTimes {
    /// Front-end session.
    pub sid: SessionId,
    /// `create_session` + `launch_and_spawn` returned.
    pub ready: Instant,
    /// The launch's critical-path breakdown.
    pub breakdown: Option<LaunchBreakdown>,
}

/// `create_session` + `launch_and_spawn` of `op`, with the per-session
/// correctness checks.
pub fn launch(fe: &LmonFrontEnd, op: &Op, body: &BeMain) -> Result<LaunchTimes, String> {
    let sid = fe.create_session();
    let out = fe
        .launch_and_spawn(
            sid,
            &op.app,
            &[],
            op.shape.nodes,
            op.shape.tpn,
            DaemonSpec::bare("launch_bench_be"),
            Arc::clone(body),
        )
        .map_err(|e| format!("launch_and_spawn: {e}"))?;
    let ready = Instant::now();
    if out.daemon_count != op.shape.nodes {
        return Err(format!("{} daemons for {} nodes", out.daemon_count, op.shape.nodes));
    }
    if out.rpdtab.len() != op.shape.nodes * op.shape.tpn {
        return Err(format!(
            "RPDTAB has {} rows, want {}",
            out.rpdtab.len(),
            op.shape.nodes * op.shape.tpn
        ));
    }
    Ok(LaunchTimes { sid, ready, breakdown: out.breakdown })
}

/// Push a launch's breakdown under the `core.*` names, and how far the
/// parts are from summing to the benchmark's own request → ready time.
pub fn push_breakdown(layer: &mut Layer, b: &LaunchBreakdown, ready: Duration) {
    layer.push("core.t_job_ms_p50", ms(b.t_job));
    layer.push("core.t_rpdtab_fetch_ms_p50", ms(b.t_rpdtab_fetch));
    layer.push("core.t_daemon_ms_p50", ms(b.t_daemon));
    layer.push("core.t_handshake_ms_p50", ms(b.t_handshake));
    layer.push("core.t_setup_ms_p50", ms(b.t_setup));
    layer.push("core.other_ms_p50", ms(b.other()));
    let parts = b.t_job + b.t_rpdtab_fetch + b.t_daemon + b.t_handshake + b.other();
    let residual = (ready.as_secs_f64() - parts.as_secs_f64()).abs() / ready.as_secs_f64();
    layer.push("core.budget_residual_share", residual);
}

/// Child spans of a launch, from the session's critical-path marks.
fn breakdown_spans(spans: &mut SpanBuf, tl: &TimelineRecorder, parent: usize, sid: u64) {
    use CriticalEvent::*;
    let mut child = |name, from, to, parent| match (tl.at(from), tl.at(to)) {
        (Some(a), Some(b)) => Some(spans.record(name, a, b, Some(parent), sid)),
        _ => None,
    };
    child("core.t_job", E2LauncherExec, E3AtBreakpoint, parent);
    child("core.t_rpdtab_fetch", E3AtBreakpoint, E4RpdtabFetched, parent);
    child("core.t_daemon", E5DaemonSpawnStart, E6DaemonsSpawned, parent);
    if let Some(hs) = child("core.t_handshake", E7HandshakeStart, E10Ready, parent) {
        child("core.t_setup", E8SetupStart, E9SetupDone, hs);
    }
}

/// One generation of `launch_and_spawn` → `kill` sessions.
pub fn run_launch_gen(
    spec: &Spec,
    gen_no: usize,
    ops: &[Op],
    mut trace: Option<&mut Trace>,
) -> GenOutcome {
    let ctx0 = trace.is_some().then(voluntary_ctx_switches);
    let t_up = Instant::now();
    let inst = match Instance::start(spec.cluster_nodes, spec.spawn_latency) {
        Ok(i) => i,
        Err(e) => return GenOutcome::all_failed(ops.len(), e),
    };
    if let Some(t) = trace.as_deref_mut() {
        t.layer.push("core.fe_init_ms", ms(inst.fe_init));
        t.spans.record("core.fe_init", t_up, Instant::now(), None, 0);
    }
    let body = oneshot_body();
    let mut outcome = GenOutcome::default();
    let start = Instant::now();
    for (idx, op) in ops.iter().enumerate() {
        let t0 = Instant::now();
        let launched = match launch(&inst.fe, op, &body) {
            Ok(l) => l,
            Err(e) => {
                outcome.errors.push(format!("session {idx} ({}): {e}", op.app));
                outcome.samples.push(Sample::FAILED);
                continue;
            }
        };
        let t2 = Instant::now();
        let killed = inst.fe.kill(launched.sid);
        let t3 = Instant::now();
        if let Err(e) = &killed {
            outcome.errors.push(format!("session {idx}: kill: {e}"));
        }
        outcome.samples.push(Sample {
            ok: killed.is_ok(),
            ready_ms: ms(launched.ready - t0),
            teardown_ms: ms(t3 - t2),
            total_ms: ms(t3 - t0),
        });

        let Some(t) = trace.as_deref_mut() else { continue };
        t.layer.push("core.kill_ms_p50", ms(t3 - t2));
        if let Some(b) = &launched.breakdown {
            push_breakdown(&mut t.layer, b, launched.ready - t0);
        }
        let sid = session_id(gen_no, idx);
        let root = t.spans.record("session", t0, t3, None, sid);
        let call = t.spans.record("core.launch_and_spawn", t0, launched.ready, Some(root), sid);
        if let Ok(tl) = inst.fe.timeline(launched.sid) {
            breakdown_spans(&mut t.spans, &tl, call, sid);
        }
        t.spans.record("core.kill", t2, t3, Some(root), sid);
    }
    outcome.wall = start.elapsed();
    finish_gen(inst, ops.len(), ctx0, trace);
    outcome
}

/// End-of-generation counters of a traced generation, then shutdown.
fn finish_gen(inst: Instance, sessions: usize, ctx0: Option<f64>, trace: Option<&mut Trace>) {
    let left = sweep_launchers(&inst.cluster);
    let Some(t) = trace else { return inst.stop() };
    let sessions = sessions.max(1) as f64;
    t.layer.push("cluster.launchers_left_per_1k_sessions", 1e3 * left as f64 / sessions);
    t.layer.push("cluster.proc_records_per_session", proc_records(&inst.cluster) as f64 / sessions);
    let ctx = voluntary_ctx_switches() - ctx0.unwrap_or(0.0);
    t.layer.push("proc.ctx_switches_per_session", ctx / sessions);
    let t_down = Instant::now();
    inst.stop();
    t.spans.record("core.fe_shutdown", t_down, Instant::now(), None, 0);
}

/// One STAT attach → sample wave → detach, with its correctness checks
/// against the generation's first tree.
pub struct StatTimes {
    /// `StatOutcome::connect_time`: start → every daemon on the overlay.
    pub ready: Duration,
    /// Sample wave and merge: `total_time − connect_time`.
    pub wave: Duration,
    /// Overlay shutdown + `detach`: call wall time − `total_time`.
    pub teardown: Duration,
    /// Equivalence classes found.
    pub classes: usize,
}

/// Run `run_stat_launchmon` once and check its result.
pub fn stat_once(
    fe: &LmonFrontEnd,
    launcher: Pid,
    shape: Shape,
    reference: &mut Option<PrefixTree>,
) -> Result<StatTimes, String> {
    let t0 = Instant::now();
    let out = run_stat_launchmon(fe, launcher, shape.nodes as u32)
        .map_err(|e| format!("run_stat_launchmon: {e}"))?;
    let wall = t0.elapsed();
    let want = expected_class_count((shape.nodes * shape.tpn) as u32);
    if out.classes.len() != want {
        return Err(format!("{} equivalence classes, want {want}", out.classes.len()));
    }
    let times = StatTimes {
        ready: out.connect_time,
        wave: out.total_time.saturating_sub(out.connect_time),
        teardown: wall.saturating_sub(out.total_time),
        classes: out.classes.len(),
    };
    match reference {
        Some(first) if *first != out.tree => Err("STAT tree differs from the first".into()),
        Some(_) => Ok(times),
        None => {
            *reference = Some(out.tree);
            Ok(times)
        }
    }
}

/// One generation of attach → tool → detach sessions against one running
/// job.
pub fn run_attach_gen(
    spec: &Spec,
    gen_no: usize,
    ops: &[Op],
    mut trace: Option<&mut Trace>,
) -> GenOutcome {
    let ctx0 = trace.is_some().then(voluntary_ctx_switches);
    let shape = spec.probe_shape;
    let t_up = Instant::now();
    let up = Instance::start(spec.cluster_nodes, spec.spawn_latency).and_then(|inst| {
        let app = ops.first().map_or("mpi_app", |op| op.app.as_str());
        let job = inst.start_job(app, shape);
        job.map(|job| (inst, job))
    });
    let (inst, job) = match up {
        Ok(up) => up,
        Err(e) => return GenOutcome::all_failed(ops.len(), e),
    };
    if let Some(t) = trace.as_deref_mut() {
        t.layer.push("core.fe_init_ms", ms(inst.fe_init));
        t.spans.record("core.fe_init", t_up, Instant::now(), None, 0);
    }
    let mut outcome = GenOutcome::default();
    let mut reference = None;
    let start = Instant::now();
    for idx in 0..ops.len() {
        let t0 = Instant::now();
        let times = match stat_once(&inst.fe, job.launcher_pid, shape, &mut reference) {
            Ok(t) => t,
            Err(e) => {
                outcome.errors.push(format!("session {idx}: {e}"));
                outcome.samples.push(Sample::FAILED);
                continue;
            }
        };
        let t3 = Instant::now();
        outcome.samples.push(Sample {
            ok: true,
            ready_ms: ms(times.ready),
            teardown_ms: ms(times.teardown),
            total_ms: ms(t3 - t0),
        });

        let Some(t) = trace.as_deref_mut() else { continue };
        push_stat(&mut t.layer, &times);
        let sid = session_id(gen_no, idx);
        let root = t.spans.record("session", t0, t3, None, sid);
        let call = t.spans.record("tools.run_stat_launchmon", t0, t3, Some(root), sid);
        let connected = t0 + times.ready;
        let sampled = connected + times.wave;
        t.spans.record("core.attach_and_spawn", t0, connected, Some(call), sid);
        t.spans.record("tools.stat_wave", connected, sampled, Some(call), sid);
        t.spans.record("core.detach", sampled, t3, Some(call), sid);
    }
    outcome.wall = start.elapsed();
    if let Err(e) = inst.rm.kill_job(&job) {
        outcome.errors.push(format!("generation {gen_no}: kill_job: {e}"));
    }
    finish_gen(inst, ops.len(), ctx0, trace);
    outcome
}

/// Push one STAT session's tool-side timings.
pub fn push_stat(layer: &mut Layer, times: &StatTimes) {
    layer.push("tools.stat_wave_ms_p50", ms(times.wave));
    layer.push("tools.stat_classes", times.classes as f64);
    layer.push("core.detach_ms_p50", ms(times.teardown));
}
