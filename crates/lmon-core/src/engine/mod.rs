//! The LaunchMON Engine.
//!
//! "The essence of LaunchMON is its ability to interact with a wide array
//! of RMs. To capture the required job information through APAI, the
//! LaunchMON Engine ... must trace the job's RM process. This typically
//! requires debugger capabilities as well as a co-location with the target
//! RM process. In addition, the LaunchMON Engine acts as a proxy for
//! LaunchMON's other components ... by translating a series of commands
//! between them and the RM." (§3.1)
//!
//! The engine runs as its own process on the front-end node of the virtual
//! cluster (co-located with RM launchers, which also run there) and serves
//! LMONP commands from the front-end API:
//!
//! * `FeLaunchReq` — run `launchAndSpawn`: execute the launcher under trace
//!   control, run it to `MPIR_Breakpoint`, fetch the RPDTAB, bulk-launch
//!   daemons through the RM.
//! * `FeAttachReq` — `attachAndSpawn`: adopt a running launcher, read the
//!   APAI directly, bulk-launch daemons.
//! * `FeSpawnMwReq` — allocate middleware nodes and launch TBON daemons.
//! * `FeDetachReq` / `FeKillReq` — release or destroy the session's job.
//!
//! The three spawning requests bulk-launch through one function, launch and
//! attach share everything that follows "job stopped, RPDTAB in hand", and
//! what the engine records for a session leaves with the session.
//!
//! The paper builds the tracing side as a Driver → Event Manager → Event
//! Decoder → Event Handler pipeline behind abstract classes a port inherits
//! (§3.1). Here it is one loop, `run_to_breakpoint`, that matches the trace
//! controller's events directly: both RMs speak MPIR, so "is the job
//! tool-ready?" is answered once, by [`lmon_rm::mpir`] and that match. The
//! porting seam is [`ResourceManager`], which has one implementation per RM.

pub mod channel;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use lmon_cluster::node::NodeId;
use lmon_cluster::process::{Pid, ProcShared, ProcSpec};
use lmon_cluster::trace::{TraceController, TraceEvent};
use lmon_proto::header::MsgType;
use lmon_proto::msg::LmonpMsg;
use lmon_proto::payload::{AttachRequest, DaemonInfo, JobStatus, LaunchRequest, SpawnMwRequest};
use lmon_proto::rpdtab::Rpdtab;
use lmon_proto::wire::{put_seq, WireEncode};
use lmon_rm::api::{Allocation, DaemonBody, JobHandle, JobSpec, ResourceManager};
use lmon_rm::mpir;

use crate::engine::channel::{EngineCommand, EngineEndpoint, EngineSidecar};
use crate::error::{LmonError, LmonResult};
use crate::session::SessionId;
use crate::timeline::{CriticalEvent, TimelineRecorder};

/// How long a launched launcher may go without a trace event before the
/// launch gives up on reaching `MPIR_Breakpoint`.
const EVENT_WAIT: Duration = Duration::from_secs(30);

/// A job under engine control.
enum EngineJob {
    /// Launched by the engine (launchAndSpawn): full RM handle retained.
    Launched { handle: JobHandle, ctl: TraceController },
    /// Adopted at attach time: only pids are known.
    Attached {
        launcher_pid: Pid,
        rpdtab: Rpdtab,
        #[allow(dead_code)] // retained so the trace attachment lives with the job
        ctl: TraceController,
    },
}

/// Reply sink handed to command handlers: forwards one reply on the
/// command's own reply channel, returning `false` when the front end has
/// abandoned the exchange so the handler can cancel unobservable work.
type ReplySink<'a> = dyn Fn(LmonpMsg) -> bool + 'a;

/// Everything the engine holds for one session, shared between the command
/// loop and the worker threads running spawn-bearing commands. Removed
/// whole when the session detaches or is killed.
#[derive(Default)]
struct EngineSession {
    /// The job under engine control, once launch or attach co-located it.
    job: Option<EngineJob>,
    /// Every daemon the session spawned, back end and middleware alike,
    /// with the node the RM placed it on: the session owns these process
    /// records, and they leave their nodes' tables when the session ends.
    daemons: Vec<(NodeId, Pid)>,
    /// Middleware node allocations, handed back to the RM with the session.
    mw_allocs: Vec<Allocation>,
}

/// A spawn-bearing command in flight: the daemon image the RM is to
/// bulk-launch, and where the command's replies go.
struct SpawnCmd<'a> {
    session: SessionId,
    body: DaemonBody,
    sidecar: EngineSidecar,
    timeline: TimelineRecorder,
    reply: &'a ReplySink<'a>,
}

/// Engine state: one per engine process. Cloning shares the state — each
/// worker thread handling a spawn-bearing command holds a clone.
#[derive(Clone)]
pub struct Engine {
    rm: Arc<dyn ResourceManager>,
    sessions: Arc<parking_lot::Mutex<HashMap<SessionId, EngineSession>>>,
}

impl Engine {
    /// Spawn the engine as a process on the cluster front end, returning
    /// the FE-side endpoint and the engine's pid.
    pub fn spawn(rm: Arc<dyn ResourceManager>) -> LmonResult<(EngineEndpoint, Pid)> {
        let (fe_end, inlet) = channel::engine_channel();
        let cluster = rm.cluster().clone();
        let pid = cluster
            .spawn_active(NodeId::FrontEnd, ProcSpec::named("launchmon_engine"), move |_ctx| {
                let engine = Engine { rm, sessions: Arc::default() };
                // Spawn-bearing commands run on worker threads so concurrent
                // launches overlap their engine phases; each answers on its
                // own exchange's reply channel.
                let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
                // The loop ends when the front end drops its endpoint.
                while let Ok((cmd, reply)) = inlet.recv() {
                    let reply = move |r| reply.send(r).is_ok();
                    if matches!(
                        cmd.msg.mtype,
                        MsgType::FeLaunchReq | MsgType::FeAttachReq | MsgType::FeSpawnMwReq
                    ) {
                        // Replies stream back as the handler produces them —
                        // the RPDTAB reply leaves before the daemon spawn
                        // starts, so the FE overlaps its handshake staging
                        // with the spawn.
                        let engine = engine.clone();
                        let work = move || engine.handle(cmd, &reply);
                        workers.push(std::thread::spawn(work));
                        workers.retain(|h| !h.is_finished());
                    } else {
                        engine.handle(cmd, &reply);
                    }
                }
                for h in workers {
                    let _ = h.join();
                }
            })
            .map_err(LmonError::Cluster)?;
        Ok((fe_end, pid))
    }

    /// Process one command. Replies go out through `reply` as soon as
    /// they are produced — spawn-bearing requests stream their RPDTAB
    /// reply *before* the daemon spawn, so the FE pipelines the BE
    /// handshake against it. The sink returns `false` when the front end
    /// has abandoned this exchange, which cancels the remaining (now
    /// unobservable) work: a launch then kills the job it started. A
    /// handler's `Err` becomes the command's one error reply, terminal
    /// wherever in the reply sequence it lands: the FE sees it where the
    /// next reply would have been and fails the session.
    fn handle(&self, cmd: EngineCommand, reply: &ReplySink<'_>) {
        let EngineCommand { session, msg, sidecar } = cmd;
        let spawn = |mut sidecar: EngineSidecar| {
            // Checked before any job is launched or node allocated for it.
            let missing = || format!("{:?} missing daemon body", msg.mtype);
            let body = sidecar.body.take().ok_or_else(missing)?;
            let timeline = sidecar.timeline.take().unwrap_or_default();
            Ok(SpawnCmd { session, body, sidecar, timeline, reply })
        };
        let result = match msg.mtype {
            MsgType::FeLaunchReq => spawn(sidecar).and_then(|cmd| self.handle_launch(&msg, cmd)),
            MsgType::FeAttachReq => spawn(sidecar).and_then(|cmd| self.handle_attach(&msg, cmd)),
            MsgType::FeSpawnMwReq => spawn(sidecar).and_then(|cmd| self.handle_spawn_mw(&msg, cmd)),
            MsgType::FeDetachReq => self.end_session(session, JobStatus::Detached, reply),
            MsgType::FeKillReq => self.end_session(session, JobStatus::Killed, reply),
            other => Err(format!("unexpected message {other:?}")),
        };
        if let Err(text) = result {
            let error = LmonpMsg::of_type(MsgType::EngineError);
            reply(error.with_lmon_payload(text.into_bytes()).as_error());
        }
    }

    /// launchAndSpawn's own part: start the job under trace control and
    /// stop it at `MPIR_Breakpoint`, where the proctable is valid.
    fn handle_launch(&self, msg: &LmonpMsg, cmd: SpawnCmd<'_>) -> Result<(), String> {
        let req: LaunchRequest = msg.decode_lmon().map_err(|e| format!("launch req: {e}"))?;
        let timeline = &cmd.timeline;

        // e2: execute the RM launcher under engine control.
        timeline.mark(CriticalEvent::E2LauncherExec);
        let spec = JobSpec {
            app_exe: req.app_exe,
            app_args: req.app_args,
            nodes: req.nodes as usize,
            tasks_per_node: req.tasks_per_node as usize,
        };
        let mut handle = self.rm.launch_job(&spec, true).map_err(|e| format!("launch_job: {e}"))?;
        // The engine owns the job from here on: every exit that does not hand
        // it to the session kills it, or a failed launch (or one whose front
        // end abandoned the exchange) leaves its launcher and tasks in the
        // process tables and its allocation held.
        let stopped = self.stop_at_breakpoint(&mut handle, timeline);
        let alloc = handle.allocation.clone();
        let mut unclaimed = Some(handle);
        let result = stopped.and_then(|(ctl, rpdtab)| {
            self.colocate(cmd, rpdtab, &alloc, |_| {
                let handle = unclaimed.take().expect("the session claims the job once");
                EngineJob::Launched { handle, ctl }
            })
        });
        if let Some(handle) = unclaimed {
            let _ = self.rm.kill_job(&handle);
        }
        result
    }

    /// Let a launched job run to `MPIR_Breakpoint`, where the proctable is
    /// valid, and read its RPDTAB.
    fn stop_at_breakpoint(
        &self,
        handle: &mut JobHandle,
        timeline: &TimelineRecorder,
    ) -> Result<(TraceController, Rpdtab), String> {
        let (ctl, shared) = self.trace(handle.launcher_pid)?;
        mpir::set_being_debugged(&ctl, &shared);
        handle.release();

        run_to_breakpoint(&ctl, EVENT_WAIT).map_err(|e| format!("breakpoint: {e}"))?;
        timeline.mark(CriticalEvent::E3AtBreakpoint);

        // Region B: fetch the RPDTAB out of the launcher's address space.
        let rpdtab = mpir::fetch_proctable(&ctl).map_err(|e| format!("rpdtab: {e}"))?;
        timeline.mark(CriticalEvent::E4RpdtabFetched);
        Ok((ctl, rpdtab))
    }

    /// attachAndSpawn's own part: adopt a running launcher and rebuild the
    /// job's footprint from its proctable.
    fn handle_attach(&self, msg: &LmonpMsg, cmd: SpawnCmd<'_>) -> Result<(), String> {
        let req: AttachRequest = msg.decode_lmon().map_err(|e| format!("attach req: {e}"))?;
        let timeline = &cmd.timeline;
        timeline.mark(CriticalEvent::E2LauncherExec);
        let launcher_pid = Pid(req.launcher_pid);
        let (ctl, _shared) = self.trace(launcher_pid)?;

        // The job is already running: poll the APAI until the proctable is
        // valid (it almost always already is).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let rpdtab = loop {
            match mpir::fetch_proctable(&ctl) {
                Ok(t) => break t,
                Err(e) if std::time::Instant::now() >= deadline => {
                    return Err(format!("rpdtab: {e}"))
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(2)),
            }
        };
        timeline.mark(CriticalEvent::E3AtBreakpoint);
        timeline.mark(CriticalEvent::E4RpdtabFetched);

        // Reconstruct the allocation footprint from the RPDTAB hosts.
        let cluster = self.rm.cluster();
        let nodes = rpdtab
            .hosts()
            .iter()
            .map(|host| cluster.node_by_host(host).map(|n| n.id))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("host map: {e}"))?;
        let alloc = Allocation { id: u64::from(cmd.session.0), nodes };
        self.colocate(cmd, rpdtab, &alloc, |rpdtab| EngineJob::Attached {
            launcher_pid,
            rpdtab,
            ctl,
        })
    }

    /// Put a launcher process under trace control.
    fn trace(&self, launcher: Pid) -> Result<(TraceController, Arc<ProcShared>), String> {
        let (_node, rec) =
            self.rm.cluster().find_proc(launcher).map_err(|e| format!("launcher proc: {e}"))?;
        let ctl = TraceController::attach(launcher, rec.shared.clone())
            .map_err(|e| format!("attach: {e}"))?;
        Ok((ctl, rec.shared.clone()))
    }

    /// The tail launch and attach share once the job is stopped (or
    /// adopted) with its RPDTAB in hand: stream the table, co-locate the
    /// daemons over the job's footprint, let a launched job run, and take
    /// ownership of the job for the session.
    fn colocate(
        &self,
        cmd: SpawnCmd<'_>,
        rpdtab: Rpdtab,
        alloc: &Allocation,
        job: impl FnOnce(Rpdtab) -> EngineJob,
    ) -> Result<(), String> {
        // Stream the RPDTAB now, before the spawn: the FE stages the BE
        // handshake against it while daemons are still coming up. Channel
        // FIFO order guarantees it can never arrive after the spawn ack.
        let (session, reply) = (cmd.session, cmd.reply);
        if !reply(LmonpMsg::of_type(MsgType::EngineRpdtab).with_lmon(&rpdtab)) {
            return Ok(()); // exchange abandoned; don't spawn daemons nobody will use
        }
        let pids = self.spawn_daemons(cmd, alloc)?;
        let job = job(rpdtab);
        if let EngineJob::Launched { ctl, .. } = &job {
            ctl.continue_proc(); // let the job run under tool control
        }
        self.sessions.lock().entry(session).or_default().job = Some(job);
        let master = self.daemon_info(alloc, &pids, 0);
        reply(LmonpMsg::of_type(MsgType::EngineAck).with_lmon(&master));
        Ok(())
    }

    /// The co-location core of every spawn-bearing request (e5/e6): the
    /// RM's bulk daemon launch onto `alloc`, with the pids recorded against
    /// the session so a later kill reaches them. Returns them in rank order.
    fn spawn_daemons(&self, cmd: SpawnCmd<'_>, alloc: &Allocation) -> Result<Vec<Pid>, String> {
        let SpawnCmd { session, body, sidecar, timeline, .. } = cmd;
        let EngineSidecar { daemon_exe: exe, daemon_args: args, daemon_env: env, .. } = sidecar;
        timeline.mark(CriticalEvent::E5DaemonSpawnStart);
        let spawned = self.rm.spawn_daemons(alloc, &exe, &args, &env, body);
        let pids = spawned.map_err(|e| format!("spawn daemons: {e}"))?;
        timeline.mark(CriticalEvent::E6DaemonsSpawned);
        let placed = alloc.nodes.iter().copied().zip(pids.iter().copied());
        self.sessions.lock().entry(session).or_default().daemons.extend(placed);
        Ok(pids)
    }

    /// Identity of the rank-`rank` daemon of a spawn: the RM places daemon
    /// `i` on the allocation's `i`-th node.
    fn daemon_info(&self, alloc: &Allocation, pids: &[Pid], rank: usize) -> DaemonInfo {
        let node = alloc.nodes.get(rank).and_then(|id| self.rm.cluster().node(*id).ok());
        DaemonInfo {
            rank: rank as u32,
            size: pids.len() as u32,
            host: node.map(|n| n.hostname.clone()).unwrap_or_default(),
            pid: pids.get(rank).map_or(0, |p| p.0),
        }
    }

    /// launchMwDaemons: the daemons land on freshly allocated nodes, and
    /// the ack says where the RM put each one, in rank order — the front
    /// end assigns personalities from that, not from a guess.
    fn handle_spawn_mw(&self, msg: &LmonpMsg, cmd: SpawnCmd<'_>) -> Result<(), String> {
        let req: SpawnMwRequest = msg.decode_lmon().map_err(|e| format!("mw req: {e}"))?;
        let (session, reply) = (cmd.session, cmd.reply);
        let alloc =
            self.rm.allocate_mw_nodes(req.count as usize).map_err(|e| format!("mw alloc: {e}"))?;
        let pids = self.spawn_daemons(cmd, &alloc).inspect_err(|_| {
            self.rm.release_allocation(&alloc);
        })?;
        let placed: Vec<DaemonInfo> =
            (0..pids.len()).map(|rank| self.daemon_info(&alloc, &pids, rank)).collect();
        self.sessions.lock().entry(session).or_default().mw_allocs.push(alloc);
        let mut placement = Vec::new();
        put_seq(&mut placement, &placed);
        reply(LmonpMsg::of_type(MsgType::EngineAck).with_lmon_payload(placement));
        Ok(())
    }

    /// Detach or kill: the session's record leaves the engine whole, and the
    /// process records the session owns leave the cluster with it. Kill
    /// takes the daemons first, then the job; detach resumes the job and
    /// only drops the daemons' records (the FE has already ordered them to
    /// shut down) — a dropped record detaches its thread, so a finished
    /// daemon's stack is returned instead of pinned for the cluster's life.
    fn end_session(
        &self,
        id: SessionId,
        end: JobStatus,
        reply: &ReplySink<'_>,
    ) -> Result<(), String> {
        let kill = end == JobStatus::Killed;
        let verb = if kill { "kill" } else { "detach" };
        let session = self.sessions.lock().remove(&id).unwrap_or_default();
        let cluster = self.rm.cluster();
        for (node_id, pid) in session.daemons {
            let Ok(node) = cluster.node(node_id) else { continue };
            if kill {
                node.kill_matching(|r| r.pid == pid);
            } else {
                node.reap(pid);
            }
        }
        for alloc in &session.mw_allocs {
            self.rm.release_allocation(alloc);
        }
        match session.job.ok_or_else(|| format!("{verb}: no job for session {}", id.0))? {
            EngineJob::Launched { handle, ctl } => {
                // Drop the controller: detaches and resumes the launcher.
                ctl.continue_proc();
                drop(ctl);
                if kill {
                    self.rm.kill_job(&handle).map_err(|e| format!("kill: {e}"))?;
                }
            }
            EngineJob::Attached { launcher_pid, rpdtab, ctl } => {
                drop(ctl);
                if kill {
                    // An adopted job has no RM handle: its footprint is the
                    // proctable's hosts, its records the proctable's pids.
                    let pids: HashSet<u64> = rpdtab.entries().iter().map(|e| e.pid).collect();
                    for host in rpdtab.hosts() {
                        if let Ok(node) = cluster.node_by_host(&host) {
                            node.kill_matching(|r| pids.contains(&r.pid.0));
                        }
                    }
                    cluster.front_end().kill_matching(|r| r.pid == launcher_pid);
                }
            }
        }
        let status = LmonpMsg::of_type(MsgType::EngineStatus);
        reply(status.with_lmon_payload(end.to_bytes()));
        Ok(())
    }
}

/// Let a traced launcher run until it stops at `MPIR_Breakpoint`, where the
/// job is tool-ready. Any other stop is resumed, or the launcher would hang
/// there; forks and execs need nothing. An exit, or `wait` without an event,
/// fails the launch.
fn run_to_breakpoint(ctl: &TraceController, wait: Duration) -> Result<(), String> {
    loop {
        match ctl.wait_event(wait).map_err(|e| e.to_string())? {
            TraceEvent::Stopped { symbol } if symbol == mpir::MPIR_BREAKPOINT => return Ok(()),
            TraceEvent::Stopped { .. } => ctl.continue_proc(),
            TraceEvent::Exited { code } => return Err(format!("launcher exited with code {code}")),
            TraceEvent::Forked { .. } | TraceEvent::Exec { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmon_cluster::config::ClusterConfig;
    use lmon_cluster::VirtualCluster;

    const SHORT_WAIT: Duration = Duration::from_secs(5);

    /// A launcher that waits for the go signal, raises `forks` fork events,
    /// optionally stops at an unexpected symbol, then hits
    /// `MPIR_Breakpoint`. Returned under trace with both symbols armed.
    fn fake_launcher(
        cluster: &VirtualCluster,
        forks: u32,
        unexpected_stop: bool,
    ) -> (Pid, TraceController, std::sync::mpsc::Sender<()>) {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let pid = cluster
            .spawn_active(NodeId::FrontEnd, ProcSpec::named("fake_srun"), move |ctx| {
                rx.recv().unwrap();
                for i in 0..forks {
                    ctx.raise_event(TraceEvent::Forked { child: Pid(100 + u64::from(i)) });
                }
                if unexpected_stop {
                    ctx.checkpoint("unexpected_symbol");
                }
                ctx.export_symbol(mpir::MPIR_DEBUG_STATE, vec![mpir::MPIR_DEBUG_SPAWNED]);
                ctx.checkpoint(mpir::MPIR_BREAKPOINT);
            })
            .unwrap();
        let (_node, rec) = cluster.find_proc(pid).unwrap();
        let ctl = TraceController::attach(pid, rec.shared.clone()).unwrap();
        ctl.set_breakpoint(mpir::MPIR_BREAKPOINT);
        ctl.set_breakpoint("unexpected_symbol");
        (pid, ctl, tx)
    }

    #[test]
    fn forks_do_not_end_the_wait() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1));
        let (pid, ctl, go) = fake_launcher(&cluster, 4, false);
        go.send(()).unwrap();
        run_to_breakpoint(&ctl, SHORT_WAIT).unwrap();
        assert_eq!(ctl.events_handled(), 5, "four forks, then the breakpoint stop");
        assert_eq!(mpir::read_debug_state(&ctl), Some(mpir::MPIR_DEBUG_SPAWNED));
        ctl.continue_proc();
        cluster.wait_pid(pid).unwrap();
    }

    #[test]
    fn an_unexpected_stop_is_resumed_and_the_wait_reaches_the_breakpoint() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1));
        let (pid, ctl, go) = fake_launcher(&cluster, 0, true);
        go.send(()).unwrap();
        run_to_breakpoint(&ctl, SHORT_WAIT).unwrap();
        assert_eq!(ctl.events_handled(), 2, "the unexpected stop, then the breakpoint stop");
        assert_eq!(mpir::read_debug_state(&ctl), Some(mpir::MPIR_DEBUG_SPAWNED));
        ctl.continue_proc();
        cluster.wait_pid(pid).unwrap();
    }

    #[test]
    fn a_launcher_exit_is_an_error() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1));
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let pid = cluster
            .spawn_active(NodeId::FrontEnd, ProcSpec::named("dying_srun"), move |_ctx| {
                rx.recv().unwrap();
                // Body returns: the spawn wrapper raises Exited.
            })
            .unwrap();
        let (_node, rec) = cluster.find_proc(pid).unwrap();
        let ctl = TraceController::attach(pid, rec.shared.clone()).unwrap();
        tx.send(()).unwrap();
        let err = run_to_breakpoint(&ctl, SHORT_WAIT).unwrap_err();
        assert!(err.contains("exited"), "{err}");
        cluster.wait_pid(pid).unwrap();
    }

    #[test]
    fn silence_is_a_timeout_error() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1));
        let (_pid, ctl, _go) = fake_launcher(&cluster, 0, false); // never released
        let err = run_to_breakpoint(&ctl, Duration::from_millis(30)).unwrap_err();
        assert!(err.contains("timed out"), "{err}");
    }

    /// The pre-fix SLURM profile raises one fork per task: a 4 × 4 launch
    /// sends 16 of them through the loop ahead of the breakpoint stop.
    #[test]
    fn a_per_task_event_profile_launch_reaches_ready() {
        use crate::be::BeMain;
        use crate::fe::LmonFrontEnd;
        use crate::session::SessionState;
        use lmon_proto::payload::DaemonSpec;
        use lmon_rm::slurm::DebugEventProfile;
        use lmon_rm::SlurmRm;

        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(4));
        let rm = SlurmRm::with_event_profile(cluster, DebugEventProfile::PerTask);
        let fe = LmonFrontEnd::init(Arc::new(rm)).unwrap();
        let session = fe.create_session();
        let be_main: BeMain = Arc::new(|be| be.barrier().unwrap());
        let outcome =
            fe.launch_and_spawn(session, "app", &[], 4, 4, DaemonSpec::bare("d"), be_main).unwrap();
        assert_eq!((outcome.rpdtab.len(), outcome.daemon_count), (16, 4));
        assert_eq!(fe.session_state(session).unwrap(), SessionState::Ready);
        fe.kill(session).unwrap();
        fe.shutdown().unwrap();
    }
}
