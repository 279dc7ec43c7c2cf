//! The `storm_*` workloads: sessions through `lmond`'s control socket.
//!
//! One generation is one daemon: `bind_and_start` on a scratch Unix socket,
//! the client connections, the generation's sessions (`LAUNCH` → check →
//! `KILL`), the end-of-generation checks, shutdown.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use launchmon::daemon::{
    bind_and_start, control::parse_reply_header, Daemon, DaemonClient, DaemonConfig, Reply, Request,
};

use launchmon::cluster::VirtualCluster;

use crate::direct::{proc_records, sweep_launchers};
use crate::gen::{session_id, GenOutcome, Sample, Trace};
use crate::metrics::Layer;
use crate::plan::{Op, Shape};
use crate::spans::SpanBuf;
use crate::stats::{ms, us, voluntary_ctx_switches};

/// Daemon body every storm session runs: the bootstrap barrier, then exit,
/// so a killed session leaves no parked thread behind (README, D2).
const BODY: &str = "oneshot";

/// In a traced generation of the storm workloads every eighth session also
/// pings, and every eighth (offset by four) goes in-process through
/// `Daemon::dispatch`.
pub const PROBE_EVERY: usize = 8;

/// Fixed parameters of a storm workload.
#[derive(Debug, Clone)]
pub struct StormCfg {
    /// `DaemonConfig::admission_limit`.
    pub admission_limit: usize,
    /// Open loop (requests are due on the plan's schedule) or closed.
    pub open: bool,
    /// Nodes per backend cluster.
    pub cluster_nodes: usize,
    /// Client connections, one thread each.
    pub connections: usize,
    /// Traced generations: one session in this many pings, one goes
    /// in-process.
    pub probe_every: usize,
    /// Directory scratch sockets are created in.
    pub out_dir: PathBuf,
}

/// A scratch socket path that is removed, with its reaper lock file, on
/// every exit path. It lives under the benchmark's output directory rather
/// than `scratch_socket_path`'s system temp directory because a run may
/// write only inside its checkout.
struct ScratchSocket(PathBuf);

impl ScratchSocket {
    fn new(dir: &Path, gen_no: usize) -> std::io::Result<ScratchSocket> {
        std::fs::create_dir_all(dir)?;
        let sock = ScratchSocket(dir.join(format!("lb-{}-{gen_no}.sock", std::process::id())));
        sock.remove();
        Ok(sock)
    }

    fn lock_path(&self) -> PathBuf {
        let mut p = self.0.clone().into_os_string();
        p.push(".lock");
        p.into()
    }

    fn remove(&self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.lock_path());
    }
}

impl Drop for ScratchSocket {
    fn drop(&mut self) {
        self.remove();
    }
}

/// What a launch reply carries, whichever way the request went.
struct Launched {
    gsid: u64,
    daemons: usize,
    wait_ms: u64,
    launch_ms: u64,
}

fn launch_request(op: &Op) -> Request {
    Request::Launch {
        app: op.app.clone(),
        nodes: op.shape.nodes,
        tasks_per_node: op.shape.tpn,
        body: BODY.into(),
    }
}

fn launch_line(op: &Op) -> String {
    format!("LAUNCH {} {} {} {BODY}", op.app, op.shape.nodes, op.shape.tpn)
}

/// Launch in-process, bypassing socket and codec.
fn dispatch_launch(daemon: &Daemon, op: &Op) -> Result<Launched, String> {
    match daemon.dispatch(&launch_request(op)) {
        Reply::Ok(fields) => {
            let get = |key: &str| {
                fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.parse::<u64>().ok())
                    .ok_or_else(|| format!("launch reply lacks {key}"))
            };
            Ok(Launched {
                gsid: get("gsid")?,
                daemons: get("daemons")? as usize,
                wait_ms: get("wait_ms")?,
                launch_ms: get("launch_ms")?,
            })
        }
        other => Err(other.render().trim_end().to_string()),
    }
}

fn dispatch_kill(daemon: &Daemon, gsid: u64) -> Result<(), String> {
    match daemon.dispatch(&Request::Kill { gsid }) {
        Reply::Ok(_) => Ok(()),
        other => Err(other.render().trim_end().to_string()),
    }
}

/// Time `Request::parse` + `Reply::render` + `parse_reply_header` on the
/// lines a launch and its kill put on the wire.
fn codec_probe(op: &Op, l: &Launched) -> Duration {
    let launch_reply = Reply::ok(&[
        ("gsid", l.gsid.to_string()),
        ("fe", "0".into()),
        ("group", "0".into()),
        ("daemons", l.daemons.to_string()),
        ("wait_ms", l.wait_ms.to_string()),
        ("launch_ms", l.launch_ms.to_string()),
    ]);
    let kill_reply = Reply::ok(&[("gsid", l.gsid.to_string()), ("killed", "1".into())]);
    let lines = [(launch_line(op), launch_reply), (format!("KILL {}", l.gsid), kill_reply)];
    let t = Instant::now();
    for (line, reply) in &lines {
        let parsed = Request::parse(std::hint::black_box(line));
        let rendered = reply.render();
        let header = parse_reply_header(rendered.trim_end());
        let _ = std::hint::black_box((parsed, header));
    }
    t.elapsed()
}

/// Open loop: a connection stops starting filler sessions this long before
/// its next arrival is due, so the arrival usually finds it idle.
const FILLER_GUARD: Duration = Duration::from_millis(4);

/// Shape of a filler session: the smallest of the storm mix.
const FILLER_SHAPE: Shape = Shape { nodes: 4, tpn: 8 };

/// One unmeasured launch → kill that keeps the daemon busy between
/// arrivals; checked like any other session.
fn filler_session(conn: &mut DaemonClient) -> Result<(), String> {
    let r = conn
        .launch("filler", FILLER_SHAPE.nodes, FILLER_SHAPE.tpn, BODY)
        .map_err(|e| format!("launch: {e}"))?;
    if r.daemons != FILLER_SHAPE.nodes {
        return Err(format!("{} daemons for {} nodes", r.daemons, FILLER_SHAPE.nodes));
    }
    conn.kill(r.gsid).map_err(|e| format!("kill: {e}"))
}

/// What one connection's thread brings back.
#[derive(Default)]
struct WorkerOut {
    /// Filler sessions run.
    filler: usize,
    samples: Vec<(usize, Sample)>,
    errors: Vec<String>,
    layer: Layer,
    spans: Option<SpanBuf>,
}

struct Shared<'a> {
    cfg: &'a StormCfg,
    gen_no: usize,
    ops: &'a [Op],
    next: AtomicUsize,
    start: Instant,
    daemon: Arc<Daemon>,
}

fn worker(sh: &Shared<'_>, conn: &mut DaemonClient, mut spans: Option<SpanBuf>) -> WorkerOut {
    let traced = spans.is_some();
    let mut out = WorkerOut::default();
    loop {
        let idx = sh.next.fetch_add(1, Ordering::Relaxed);
        let Some(op) = sh.ops.get(idx) else { break };

        // Open loop: the request is timed from when it was due, so a stall
        // is charged to the requests queued behind it.
        let issued = if sh.cfg.open {
            let due = sh.start + op.due;
            // Until the arrival is nearly due the connection runs filler
            // sessions: on an otherwise idle box every hand-off inside a
            // session wakes a halted vCPU through the host's scheduler, and
            // the run measures the host (README, "Steadiness").
            while Instant::now() + FILLER_GUARD < due {
                let t = Instant::now();
                out.filler += 1;
                if let Err(e) = filler_session(conn) {
                    out.errors.push(format!("filler before session {idx}: {e}"));
                }
                if let Some(spans) = spans.as_mut() {
                    spans.record("loadgen.filler", t, Instant::now(), None, 0);
                }
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
                if traced {
                    out.layer.push("loadgen.sleep_overshoot_p99_us", us(due.elapsed()));
                }
            }
            if traced {
                out.layer.push("loadgen.conn_wait_share", if now < due { 0.0 } else { 1.0 });
            }
            due
        } else {
            Instant::now()
        };
        let every = sh.cfg.probe_every.max(2);
        let in_process = traced && idx % every == every / 2;

        let t0 = Instant::now();
        let launched = if in_process {
            dispatch_launch(&sh.daemon, op)
        } else {
            conn.launch(&op.app, op.shape.nodes, op.shape.tpn, BODY)
                .map(|r| Launched {
                    gsid: r.gsid,
                    daemons: r.daemons,
                    wait_ms: r.wait_ms,
                    launch_ms: r.launch_ms,
                })
                .map_err(|e| e.to_string())
        };
        let t1 = Instant::now();
        let launched = match launched {
            Ok(l) => l,
            Err(e) => {
                out.errors.push(format!("session {idx} ({}): launch: {e}", op.app));
                out.samples.push((idx, Sample::FAILED));
                continue;
            }
        };
        let mut ok = launched.daemons == op.shape.nodes;
        if !ok {
            out.errors.push(format!(
                "session {idx}: {} daemons for {} nodes",
                launched.daemons, op.shape.nodes
            ));
        }

        let t2 = Instant::now();
        let killed = if in_process {
            dispatch_kill(&sh.daemon, launched.gsid)
        } else {
            conn.kill(launched.gsid).map_err(|e| e.to_string())
        };
        let t3 = Instant::now();
        if let Err(e) = killed {
            out.errors.push(format!("session {idx}: kill: {e}"));
            ok = false;
        }
        out.samples.push((
            idx,
            Sample {
                ok,
                ready_ms: ms(t1 - issued),
                teardown_ms: ms(t3 - t2),
                total_ms: ms(t3 - issued),
            },
        ));

        // Everything below is bookkeeping of a traced generation, after the
        // session's last timestamp.
        let Some(spans) = spans.as_mut() else { continue };
        let (launch_key, shape_key, kill_key, launch_span, kill_span) = if in_process {
            (
                "daemon.dispatch_launch_ms_p50",
                "daemon.dispatch_launch_shape",
                "daemon.dispatch_kill_ms_p50",
                "daemon.dispatch_launch",
                "daemon.dispatch_kill",
            )
        } else {
            (
                "client.launch_ms",
                "client.launch_shape",
                "client.kill_ms",
                "client.launch",
                "client.kill",
            )
        };
        out.layer.push(launch_key, ms(t1 - t0));
        out.layer.push(shape_key, (op.shape.nodes * 1000 + op.shape.tpn) as f64);
        out.layer.push(kill_key, ms(t3 - t2));
        out.layer.push("daemon.admission_wait_ms_mean", launched.wait_ms as f64);

        let sid = session_id(sh.gen_no, idx);
        let root = spans.record("session", issued, t3, None, sid);
        if sh.cfg.open && t0 > issued {
            spans.record("loadgen.queue", issued, t0, Some(root), sid);
        }
        let launch = spans.record(launch_span, t0, t1, Some(root), sid);
        // The reply's own millisecond fields place the daemon's two phases
        // inside the call; they end where the reply was written.
        let fe_start =
            t1.checked_sub(Duration::from_millis(launched.launch_ms)).map_or(t0, |t| t.max(t0));
        let wait_start =
            fe_start.checked_sub(Duration::from_millis(launched.wait_ms)).map_or(t0, |t| t.max(t0));
        spans.record("daemon.admission_wait", wait_start, fe_start, Some(launch), sid);
        spans.record("daemon.fe_launch", fe_start, t1, Some(launch), sid);
        spans.record(kill_span, t2, t3, Some(root), sid);

        if idx.is_multiple_of(every) {
            let t = Instant::now();
            if conn.ping().is_ok() {
                let end = Instant::now();
                out.layer.push("daemon.control_rtt_us", us(end - t));
                spans.record("daemon.ping", t, end, None, sid);
            }
            out.layer.push("daemon.codec_us_per_op", us(codec_probe(op, &launched)));
        }
    }
    out.spans = spans;
    out
}

fn backend_clusters(daemon: &Daemon) -> impl Iterator<Item = &VirtualCluster> {
    (0..).map_while(|i| daemon.backend_fe(i)).map(|fe| fe.rm().cluster())
}

/// Run one generation against a fresh daemon.
pub fn run_gen(
    cfg: &StormCfg,
    gen_no: usize,
    ops: &[Op],
    mut trace: Option<&mut Trace>,
) -> GenOutcome {
    let fail = |why: String| GenOutcome::all_failed(ops.len(), why);
    let ctx0 = trace.is_some().then(voluntary_ctx_switches);

    let t_up = Instant::now();
    let sock = match ScratchSocket::new(&cfg.out_dir, gen_no) {
        Ok(s) => s,
        Err(e) => return fail(format!("scratch socket in {}: {e}", cfg.out_dir.display())),
    };
    let daemon_cfg = DaemonConfig {
        backends: 2,
        groups: 1,
        cluster_nodes: cfg.cluster_nodes,
        admission_limit: cfg.admission_limit,
        queue_capacity: 2048,
        ..DaemonConfig::default()
    };
    let handle = match bind_and_start(daemon_cfg, &sock.0, None) {
        Ok(h) => h,
        Err(e) => return fail(format!("bind_and_start: {e}")),
    };
    let conns: Result<Vec<DaemonClient>, _> =
        (0..cfg.connections).map(|_| DaemonClient::connect_unix(&sock.0)).collect();
    let mut conns = match conns {
        Ok(c) => c,
        Err(e) => {
            handle.shutdown();
            return fail(format!("connect: {e}"));
        }
    };
    let up_end = Instant::now();

    let shared = Shared {
        cfg,
        gen_no,
        ops,
        next: AtomicUsize::new(0),
        start: Instant::now(),
        daemon: Arc::clone(handle.daemon()),
    };
    let mut outcome =
        GenOutcome { samples: vec![Sample::FAILED; ops.len()], ..GenOutcome::default() };
    let worker_outs: Vec<std::thread::Result<WorkerOut>> = std::thread::scope(|scope| {
        let joins: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let spans = trace.as_ref().map(|t| t.spans.sibling());
                let shared = &shared;
                scope.spawn(move || worker(shared, conn, spans))
            })
            .collect();
        joins.into_iter().map(|j| j.join()).collect()
    });
    outcome.wall = shared.start.elapsed();
    for out in worker_outs {
        match out {
            Ok(out) => {
                for (idx, sample) in out.samples {
                    outcome.samples[idx] = sample;
                }
                outcome.filler_sessions += out.filler;
                outcome.errors.extend(out.errors);
                if let Some(t) = trace.as_deref_mut() {
                    t.layer.absorb(out.layer);
                    t.spans.absorb(out.spans.expect("traced worker returns its spans"));
                }
            }
            // The sessions the thread had claimed keep their FAILED sample.
            Err(_) => outcome.errors.push("client thread panicked".into()),
        }
    }

    // End-of-generation checks: nothing may be left in the daemon.
    let daemon = Arc::clone(handle.daemon());
    match conns[0].status() {
        Ok(st) if st.sessions + st.in_flight == 0 => {}
        Ok(st) => outcome.errors.push(format!(
            "generation {gen_no}: {} sessions / {} in flight left",
            st.sessions, st.in_flight
        )),
        Err(e) => outcome.errors.push(format!("generation {gen_no}: status: {e}")),
    }
    let launchers_left: usize = backend_clusters(&daemon).map(sweep_launchers).sum();
    if let Some(t) = trace.as_deref_mut() {
        t.layer.push("daemon.bringup_ms", ms(up_end - t_up));
        t.spans.record("daemon.bringup", t_up, up_end, None, 0);
        let adm = daemon.admission().stats();
        t.layer.push("daemon.residual_sessions", (daemon.sessions_active() + adm.in_flight) as f64);
        t.layer.push("daemon.admission_peak_waiting", adm.peak_waiting as f64);
        let t_scrape = Instant::now();
        std::hint::black_box(daemon.render_metrics());
        let scrape_end = Instant::now();
        t.layer.push("daemon.metrics_scrape_us", us(scrape_end - t_scrape));
        t.spans.record("daemon.metrics_scrape", t_scrape, scrape_end, None, 0);
        let sessions = ops.len().max(1) as f64;
        t.layer
            .push("cluster.launchers_left_per_1k_sessions", 1e3 * launchers_left as f64 / sessions);
        t.layer.push(
            "cluster.proc_records_per_session",
            backend_clusters(&daemon).map(proc_records).sum::<usize>() as f64 / sessions,
        );
        let ctx = voluntary_ctx_switches() - ctx0.unwrap_or(0.0);
        t.layer.push("proc.ctx_switches_per_session", ctx / sessions);
    }

    drop(conns);
    drop(daemon);
    let t_down = Instant::now();
    handle.shutdown();
    if let Some(t) = trace {
        t.spans.record("daemon.shutdown", t_down, Instant::now(), None, 0);
    }
    outcome
}
