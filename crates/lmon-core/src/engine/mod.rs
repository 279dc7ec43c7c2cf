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
//! The engine runs as its own process on the front-end node, beside the RM
//! launchers, and serves the front end's launch, attach, MW spawn, detach
//! and kill. What each does to its session is one pure table, `lifecycle`,
//! and `Engine` is its shell: it calls the RM and carries out the verdicts.
//! A session places one spawn-bearing command at a time, and a launch or
//! attach only while it holds no job; any other is refused with an error
//! naming the session. Every way a session ends runs through `end_session`.
//!
//! The paper builds the tracing side as a Driver → Event Manager → Event
//! Decoder → Event Handler pipeline behind abstract classes a port inherits
//! (§3.1). Here it is one loop, `run_to_breakpoint`, that matches the trace
//! controller's events directly: both RMs speak MPIR, so "is the job
//! tool-ready?" is answered once, by [`lmon_rm::mpir`] and that match. The
//! porting seam is [`ResourceManager`], which has one implementation per RM.

pub mod channel;
mod lifecycle;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::Sender;
use lmon_cluster::node::NodeId;
use lmon_cluster::process::{Pid, ProcShared, ProcSpec};
use lmon_cluster::trace::{TraceController, TraceEvent};
use lmon_proto::header::MsgType;
use lmon_proto::msg::LmonpMsg;
use lmon_proto::payload::{AttachRequest, DaemonInfo, JobStatus, LaunchRequest, SpawnMwRequest};
use lmon_proto::rpdtab::CheckedRpdtab;
use lmon_proto::wire::{put_seq, WireEncode};
use lmon_proto::Bytes;
use lmon_rm::api::{Allocation, DaemonBody, JobHandle, JobSpec, ResourceManager};
use lmon_rm::mpir;

use crate::engine::channel::{EngineCommand, EngineEndpoint, EngineSidecar};
use crate::engine::lifecycle::{Effect, Event, Life};
use crate::error::{LmonError, LmonResult};
use crate::session::SessionId;
use crate::timeline::{CriticalEvent, TimelineRecorder};

/// How long a launched launcher may stay silent before its launch gives up.
const EVENT_WAIT: Duration = Duration::from_secs(30);

/// Where one command's replies go.
type Reply = Sender<LmonpMsg>;

/// What a worker's step comes to: `Err` stops the worker, with the reason.
type Step = Result<(), String>;

/// A job under engine control.
enum EngineJob {
    /// Launched by the engine (launchAndSpawn): full RM handle retained.
    Launched(JobHandle),
    /// Adopted at attach time: only pids are known.
    Attached { launcher_pid: Pid, rpdtab: CheckedRpdtab },
}

/// Everything the engine holds for one session, from its mint until
/// `end_session` takes it whole: each resource joins as soon as it exists,
/// and the launcher's trace at the ack (dropping it resumes the launcher).
struct EngineSession {
    job: Option<EngineJob>,
    ctl: Option<TraceController>,
    daemons: Vec<(NodeId, Pid)>,
    mw_allocs: Vec<Allocation>,
    life: Life<Reply>,
}

/// A spawn-bearing command in flight: its daemon image, and its replies.
struct SpawnCmd<'a> {
    session: SessionId,
    body: DaemonBody,
    sidecar: EngineSidecar,
    timeline: TimelineRecorder,
    reply: &'a Reply,
}

/// Engine state: one per engine process. Cloning shares it, with the front
/// end's endpoint and each spawn-bearing command's worker thread.
#[derive(Clone)]
pub struct Engine {
    rm: Arc<dyn ResourceManager>,
    sessions: Arc<parking_lot::Mutex<HashMap<SessionId, EngineSession>>>,
    minted: Arc<std::sync::atomic::AtomicU64>,
}

impl Engine {
    /// Spawn the engine on the cluster front end: its FE endpoint, and pid.
    pub fn spawn(rm: Arc<dyn ResourceManager>) -> LmonResult<(EngineEndpoint, Pid)> {
        let engine = Engine { rm, sessions: Arc::default(), minted: Arc::default() };
        let cluster = engine.rm.cluster().clone();
        let (fe_end, inlet) = channel::engine_channel(engine.clone());
        let pid = cluster
            .spawn_active(NodeId::FrontEnd, ProcSpec::named("launchmon_engine"), move |_ctx| {
                // Spawn-bearing commands only, each placing, each on a worker.
                let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
                while let Ok((cmd, reply)) = inlet.recv() {
                    let engine = engine.clone();
                    workers.push(std::thread::spawn(move || engine.handle(cmd, reply)));
                    workers.retain(|h| !h.is_finished());
                }
                for h in workers {
                    let _ = h.join();
                }
            })
            .map_err(LmonError::Cluster)?;
        Ok((fe_end, pid))
    }

    /// Mint the next id, never reusing one, and file its record under the lock.
    fn mint(&self) -> SessionId {
        let mut sessions = self.sessions.lock();
        let id = SessionId(self.minted.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        let (job, ctl, daemons, mw_allocs) = (None, None, Vec::new(), Vec::new());
        sessions.insert(id, EngineSession { job, ctl, daemons, mw_allocs, life: Life::MINTED });
        id
    }

    /// Take one command on the caller's thread, as the table says: an end
    /// runs (or waits for the placing worker), and a spawn-bearing command is
    /// refused while its session places another, is ending or is not open, a
    /// launch or attach also once it holds a job, or else marked placing and
    /// handed back for the command loop, so an end sent next always finds it.
    fn accept(&self, cmd: EngineCommand, reply: Reply) -> Option<(EngineCommand, Reply)> {
        let (id, mtype) = (cmd.session, cmd.msg.mtype);
        let taken = match mtype {
            MsgType::FeKillReq | MsgType::FeDetachReq => {
                let kill = mtype == MsgType::FeKillReq;
                let end = if kill { JobStatus::Killed } else { JobStatus::Detached };
                let _ = self.step(id, Event::End(end, reply), |_| ());
                return None;
            }
            MsgType::FeLaunchReq | MsgType::FeAttachReq | MsgType::FeSpawnMwReq => {
                self.step(id, Event::Spawn(mtype), |_| ())
            }
            other => Err(format!("unexpected {other:?}")),
        };
        let Err(text) = taken else { return Some((cmd, reply)) };
        let _ = reply.send(error_reply(text));
        None
    }

    /// Run one spawn-bearing command on its worker. Replies stream back as
    /// they are produced (the RPDTAB before the daemon spawn); a handler's
    /// `Err` is the one, terminal error reply, sent once the table had it.
    fn handle(&self, cmd: EngineCommand, reply: Reply) {
        let EngineCommand { session, msg, mut sidecar } = cmd;
        // Checked before any job is launched or node allocated for it.
        let missing = || format!("{:?} missing daemon body", msg.mtype);
        let result = sidecar.body.take().ok_or_else(missing).and_then(|body| {
            let timeline = sidecar.timeline.take().unwrap_or_default();
            let cmd = SpawnCmd { session, body, sidecar, timeline, reply: &reply };
            match msg.mtype {
                MsgType::FeLaunchReq => self.handle_launch(&msg, cmd),
                MsgType::FeAttachReq => self.handle_attach(&msg, cmd),
                _ => self.handle_spawn_mw(&msg, cmd),
            }
        });
        let Err(text) = result else { return };
        let _ = self.step(session, Event::Fail, |_| ());
        let _ = reply.send(error_reply(text));
    }

    /// launchAndSpawn's own part: start the job under trace control, stop it
    /// at `MPIR_Breakpoint` and read its RPDTAB, checked, forwarded as it is.
    fn handle_launch(&self, msg: &LmonpMsg, cmd: SpawnCmd<'_>) -> Step {
        let req: LaunchRequest = msg.decode_lmon().map_err(|e| format!("launch req: {e}"))?;
        // e2: the launcher runs, gated; once filed, any end of it kills it.
        cmd.timeline.mark(CriticalEvent::E2LauncherExec);
        let (nodes, tasks) = (req.nodes as usize, req.tasks_per_node as usize);
        let spec = JobSpec { app_args: req.app_args, ..JobSpec::new(req.app_exe, nodes, tasks) };
        let handle = self.rm.launch_job(&spec, true).map_err(|e| format!("launch_job: {e}"))?;
        let (launcher, alloc) = (handle.launcher_pid, handle.allocation.clone());
        self.step(cmd.session, Event::Placed, |s| s.job = Some(EngineJob::Launched(handle)))?;
        let (ctl, shared) = self.trace(launcher)?;
        mpir::set_being_debugged(&ctl, &shared);
        self.step(cmd.session, Event::Placed, |s| {
            if let Some(EngineJob::Launched(handle)) = &mut s.job {
                handle.release();
            }
        })?;
        run_to_breakpoint(&ctl, EVENT_WAIT).map_err(|e| format!("breakpoint: {e}"))?;
        cmd.timeline.mark(CriticalEvent::E3AtBreakpoint);
        // Region B: fetch the RPDTAB out of the launcher's address space.
        let rpdtab = mpir::fetch_proctable(&ctl).map_err(|e| format!("rpdtab: {e}"))?;
        cmd.timeline.mark(CriticalEvent::E4RpdtabFetched);
        self.colocate(cmd, ctl, rpdtab.bytes().clone(), &alloc)
    }

    /// attachAndSpawn's own part: adopt a running launcher and rebuild the
    /// job's footprint from its proctable.
    fn handle_attach(&self, msg: &LmonpMsg, cmd: SpawnCmd<'_>) -> Step {
        let req: AttachRequest = msg.decode_lmon().map_err(|e| format!("attach req: {e}"))?;
        cmd.timeline.mark(CriticalEvent::E2LauncherExec);
        let launcher_pid = Pid(req.launcher_pid);
        let (ctl, _shared) = self.trace(launcher_pid)?;
        // The job is already running: poll the APAI until the table is valid.
        let deadline = Instant::now() + Duration::from_secs(10);
        let rpdtab = loop {
            match mpir::fetch_proctable(&ctl) {
                Ok(table) => break table,
                Err(e) if Instant::now() >= deadline => return Err(format!("rpdtab: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        cmd.timeline.mark(CriticalEvent::E3AtBreakpoint);
        cmd.timeline.mark(CriticalEvent::E4RpdtabFetched);
        // One decode, for the footprint and the kill; the FE gets the bytes.
        let cluster = self.rm.cluster();
        let nodes = rpdtab.hosts().into_iter().map(|h| cluster.node_by_host(&h).map(|n| n.id));
        let nodes = nodes.collect::<Result<_, _>>().map_err(|e| format!("host map: {e}"))?;
        let alloc = Allocation { id: cmd.session.0, nodes };
        let (bytes, job) = (rpdtab.bytes().clone(), EngineJob::Attached { launcher_pid, rpdtab });
        self.step(cmd.session, Event::Placed, |s| s.job = Some(job))?;
        self.colocate(cmd, ctl, bytes, &alloc)
    }

    /// Put a launcher process under trace control.
    fn trace(&self, launcher: Pid) -> Result<(TraceController, Arc<ProcShared>), String> {
        let (_node, rec) =
            self.rm.cluster().find_proc(launcher).map_err(|e| format!("launcher proc: {e}"))?;
        let ctl = TraceController::attach(launcher, rec.shared.clone())
            .map_err(|e| format!("attach: {e}"))?;
        Ok((ctl, rec.shared.clone()))
    }

    /// What launch and attach share once their RPDTAB bytes are in hand:
    /// stream them, co-locate the daemons, let the job run, and ack.
    fn colocate(
        &self,
        cmd: SpawnCmd<'_>,
        ctl: TraceController,
        rpdtab: Bytes,
        alloc: &Allocation,
    ) -> Step {
        // Unless an end came in, the table goes first: the FE stages the BE
        // handshake on it. An abandoned exchange fails the send, and the command.
        let (session, reply) = (cmd.session, cmd.reply);
        self.step(session, Event::Placed, |_| ())?;
        let table = LmonpMsg::of_type(MsgType::EngineRpdtab).with_lmon_payload(rpdtab);
        reply.send(table).map_err(|_| "the front end abandoned the exchange".to_string())?;
        let pids = self.spawn_daemons(cmd, alloc)?;
        // The job runs under tool control; the trace joins with the ack.
        ctl.continue_proc();
        let ack =
            LmonpMsg::of_type(MsgType::EngineAck).with_lmon(&self.daemon_info(alloc, &pids, 0));
        self.step(session, Event::Ack, |s| {
            s.ctl = Some(ctl);
            let _ = reply.send(ack);
        })
    }

    /// The co-location core of every spawn-bearing request (e5/e6): the RM's
    /// bulk daemon launch onto `alloc`, filed. Returns the pids in rank order.
    fn spawn_daemons(&self, cmd: SpawnCmd<'_>, alloc: &Allocation) -> Result<Vec<Pid>, String> {
        let SpawnCmd { session, body, sidecar, timeline, .. } = cmd;
        let EngineSidecar { daemon_exe: exe, daemon_args: args, daemon_env: env, .. } = sidecar;
        timeline.mark(CriticalEvent::E5DaemonSpawnStart);
        // A kept kill or detach stops the spawn at its next wave, failing it.
        let ending = || self.step(session, Event::Placed, |_| ()).is_err();
        let spawned = self.rm.spawn_daemons(alloc, &exe, &args, &env, body, &ending);
        let pids = spawned.map_err(|e| format!("spawn daemons: {e}"))?;
        timeline.mark(CriticalEvent::E6DaemonsSpawned);
        let placed = alloc.nodes.iter().copied().zip(pids.iter().copied());
        self.step(session, Event::Placed, |s| s.daemons.extend(placed))?;
        Ok(pids)
    }

    /// The rank-`rank` daemon of a spawn, on the allocation's `rank`-th node.
    fn daemon_info(&self, alloc: &Allocation, pids: &[Pid], rank: usize) -> DaemonInfo {
        let node = alloc.nodes.get(rank).and_then(|id| self.rm.cluster().node(*id).ok());
        DaemonInfo {
            rank: rank as u32,
            size: pids.len() as u32,
            host: node.map(|n| n.hostname.clone()).unwrap_or_default(),
            pid: pids.get(rank).map_or(0, |p| p.0),
        }
    }

    /// launchMwDaemons: daemons on freshly allocated nodes, and an ack that
    /// says where the RM put each one, in rank order, for the personalities.
    fn handle_spawn_mw(&self, msg: &LmonpMsg, cmd: SpawnCmd<'_>) -> Step {
        let req: SpawnMwRequest = msg.decode_lmon().map_err(|e| format!("mw req: {e}"))?;
        let (session, reply) = (cmd.session, cmd.reply);
        let alloc =
            self.rm.allocate_mw_nodes(req.count as usize).map_err(|e| format!("mw alloc: {e}"))?;
        self.step(session, Event::Placed, |s| s.mw_allocs.push(alloc.clone()))?;
        let pids = self.spawn_daemons(cmd, &alloc)?;
        let placed: Vec<DaemonInfo> =
            (0..pids.len()).map(|rank| self.daemon_info(&alloc, &pids, rank)).collect();
        let mut placement = Vec::new();
        put_seq(&mut placement, &placed);
        let ack = LmonpMsg::of_type(MsgType::EngineAck).with_lmon_payload(placement);
        self.step(session, Event::Ack, |_| drop(reply.send(ack)))
    }

    /// Feed `ev` to session `id`'s life and carry out the verdict under the
    /// same lock: `put` files what the step placed (an ack's sends the ack,
    /// so no end is answered in between), and a teardown unfiles the record.
    fn step(&self, id: SessionId, ev: Event<Reply>, put: impl FnOnce(&mut EngineSession)) -> Step {
        let mut sessions = self.sessions.lock();
        let (mut gone, mut s) = (Life::GONE, sessions.get_mut(&id));
        let effect = s.as_mut().map_or(&mut gone, |s| &mut s.life).on(ev);
        if let (Effect::Go | Effect::Stop, Some(s)) = (&effect, s) {
            put(s);
        }
        let text = |why: &str| format!("session {} {why}", id.0);
        let (why, reply) = match effect {
            Effect::Go => return Ok(()),
            Effect::Stop => ("is ending", None),
            Effect::Refuse(why, reply) => (why, reply),
            Effect::TearDown(end, reply) => {
                let session = sessions.remove(&id);
                drop(sessions);
                if let Some(session) = session {
                    self.end_session(session, end.map_err(text), reply);
                }
                return Ok(());
            }
        };
        if let Some(reply) = reply {
            let _ = reply.send(error_reply(text(why)));
        }
        Err(text(why))
    }

    /// The one teardown of a record the table unfiled: its daemons die (a
    /// detach's were told to shut down), its MW nodes go back, the dropped
    /// trace resumes the launcher, and a kill kills the job, as does any end
    /// of a launch that never acked. `reply` is answered with `end`.
    fn end_session(&self, s: EngineSession, end: Result<JobStatus, String>, reply: Option<Reply>) {
        let EngineSession { job, ctl, daemons, mw_allocs, .. } = s;
        let cluster = self.rm.cluster();
        for (node_id, pid) in daemons {
            let Ok(node) = cluster.node(node_id) else { continue };
            node.kill_matching(|r| r.pid == pid);
        }
        for alloc in &mw_allocs {
            self.rm.release_allocation(alloc);
        }
        let (kill, acked) = (end == Ok(JobStatus::Killed), ctl.is_some());
        drop(ctl);
        let ended = match job {
            Some(EngineJob::Launched(handle)) if kill || !acked => {
                self.rm.kill_job(&handle).map_err(|e| format!("kill: {e}"))
            }
            Some(EngineJob::Attached { launcher_pid, rpdtab }) if kill => {
                // No RM handle: each proctable row is killed on its host.
                for row in rpdtab.entries() {
                    if let Ok(node) = cluster.node_by_host(&row.host) {
                        node.kill_task(Pid(row.pid));
                    }
                }
                cluster.front_end().kill_matching(|r| r.pid == launcher_pid);
                Ok(())
            }
            _ => Ok(()),
        };
        if let Some(reply) = reply {
            let status = |bytes| LmonpMsg::of_type(MsgType::EngineStatus).with_lmon_payload(bytes);
            let end = end.and_then(|end| ended.map(|()| end.to_bytes()));
            let _ = reply.send(end.map_or_else(error_reply, status));
        }
    }
}

/// A command's one error reply, terminal wherever it lands.
fn error_reply(text: String) -> LmonpMsg {
    LmonpMsg::of_type(MsgType::EngineError).with_lmon_payload(text.into_bytes()).as_error()
}

/// Let a traced launcher run until it stops at `MPIR_Breakpoint`, where the
/// job is tool-ready. Any other stop is resumed, or the launcher would hang;
/// forks and execs need nothing. An exit, or `wait` with no event, fails it.
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

    fn engine() -> Engine {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1));
        let rm = Arc::new(lmon_rm::SlurmRm::new(cluster));
        Engine { rm, sessions: Arc::default(), minted: Arc::default() }
    }

    /// Take `mtype` for `id` as `begin_exchange` would: whether it was
    /// queued, and its reply if it was answered at once.
    fn take(engine: &Engine, id: SessionId, mtype: MsgType) -> (bool, Option<LmonpMsg>) {
        let (reply, replies) = crossbeam_channel::unbounded();
        let queued = engine.accept(EngineCommand::control(id, LmonpMsg::of_type(mtype)), reply);
        (queued.is_some(), replies.try_recv().ok())
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let engine = engine();
        assert_eq!([engine.mint(), engine.mint()], [SessionId(0), SessionId(1)]);
        assert_eq!(engine.sessions.lock().len(), 2);
    }

    /// Minted ids are distinct and an ended one is never minted again; a
    /// spawn-bearing command on an id never minted, or already ended, is
    /// refused with an error and files no record.
    #[test]
    fn only_a_minted_session_takes_a_spawn() {
        let engine = engine();
        let (ended, live) = (engine.mint(), engine.mint());
        let (queued, answer) = take(&engine, ended, MsgType::FeKillReq);
        assert!(!queued && answer.is_some_and(|m| m.error), "a session that placed nothing");
        let mut ids: Vec<SessionId> = (0..4).map(|_| engine.mint()).collect();
        ids.extend([ended, live]);
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 6, "every minted id is new: {ids:?}");
        let filed = engine.sessions.lock().len();
        for id in [ended, SessionId(99)] {
            for mtype in [MsgType::FeLaunchReq, MsgType::FeAttachReq, MsgType::FeSpawnMwReq] {
                let (queued, answer) = take(&engine, id, mtype);
                assert!(!queued, "{mtype:?} on session {} was queued", id.0);
                let answer = answer.expect("a refusal is answered at once");
                assert!(answer.error && answer.mtype == MsgType::EngineError, "{answer:?}");
            }
        }
        assert_eq!(engine.sessions.lock().len(), filed, "a refused spawn files no record");
        let (queued, answer) = take(&engine, live, MsgType::FeSpawnMwReq);
        assert!(queued && answer.is_none(), "a minted session's spawn is queued");
    }

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
