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
//! The three spawning requests, for minted sessions only, are marked placing
//! before they are queued, and bulk-launch through one function on a worker thread.
//! Launch and attach share everything that follows "job stopped, RPDTAB in
//! hand". Detach and kill are calls on the engine's session table, made on
//! the caller's thread: they queue behind nothing and wake no engine
//! thread. Every way a session ends runs through one teardown,
//! `end_session`: a kill or detach, whenever it lands, and a launch or
//! attach that fails or is abandoned.
//!
//! The paper builds the tracing side as a Driver → Event Manager → Event
//! Decoder → Event Handler pipeline behind abstract classes a port inherits
//! (§3.1). Here it is one loop, `run_to_breakpoint`, that matches the trace
//! controller's events directly: both RMs speak MPIR, so "is the job
//! tool-ready?" is answered once, by [`lmon_rm::mpir`] and that match. The
//! porting seam is [`ResourceManager`], which has one implementation per RM.

pub mod channel;

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
use crate::error::{LmonError, LmonResult};
use crate::session::SessionId;
use crate::timeline::{CriticalEvent, TimelineRecorder};

/// How long a launched launcher may go without a trace event before the
/// launch gives up on reaching `MPIR_Breakpoint`.
const EVENT_WAIT: Duration = Duration::from_secs(30);

/// A job under engine control.
enum EngineJob {
    /// Launched by the engine (launchAndSpawn): full RM handle retained.
    Launched(JobHandle),
    /// Adopted at attach time: only pids are known.
    Attached { launcher_pid: Pid, rpdtab: CheckedRpdtab },
}

/// Everything the engine holds for one session, shared between the front
/// end's calls and the spawn workers: filed when its id is minted, it owns
/// what its commands place until `end_session` removes it whole.
struct EngineSession {
    /// The job under engine control, from the moment it exists.
    job: Option<EngineJob>,
    /// The launcher's trace, set exactly at the launch or attach ack (the
    /// worker holds it until then); dropping it resumes the launcher.
    ctl: Option<TraceController>,
    /// Every daemon the session spawned, back end and middleware alike,
    /// with the node the RM placed it on.
    daemons: Vec<(NodeId, Pid)>,
    /// Middleware node allocations, each filed before its spawn starts.
    mw_allocs: Vec<Allocation>,
    phase: Phase,
}

/// Where a session is in its one lifecycle.
enum Phase {
    /// Minted, with no spawn-bearing command yet: an end finds no job.
    Minted,
    /// A launch, attach or MW spawn is placing daemons; a kill or detach
    /// that comes in meanwhile waits here, with its reply channel.
    Placing { ending: Option<(JobStatus, Sender<LmonpMsg>)> },
    /// Nothing is placing: a kill or detach ends the session at once.
    Live,
}

/// A spawn-bearing command in flight: the daemon image the RM is to
/// bulk-launch, and where the command's replies go.
struct SpawnCmd<'a> {
    session: SessionId,
    body: DaemonBody,
    sidecar: EngineSidecar,
    timeline: TimelineRecorder,
    reply: &'a Sender<LmonpMsg>,
}

/// Engine state: one per engine process. Cloning shares the state — the
/// front end's endpoint and each worker thread handling a spawn-bearing
/// command hold a clone.
#[derive(Clone)]
pub struct Engine {
    rm: Arc<dyn ResourceManager>,
    sessions: Arc<parking_lot::Mutex<HashMap<SessionId, EngineSession>>>,
    minted: Arc<std::sync::atomic::AtomicU64>,
}

impl Engine {
    /// Spawn the engine as a process on the cluster front end, returning
    /// the FE-side endpoint and the engine's pid.
    pub fn spawn(rm: Arc<dyn ResourceManager>) -> LmonResult<(EngineEndpoint, Pid)> {
        let engine = Engine { rm, sessions: Arc::default(), minted: Arc::default() };
        let cluster = engine.rm.cluster().clone();
        let (fe_end, inlet) = channel::engine_channel(engine.clone());
        let pid = cluster
            .spawn_active(NodeId::FrontEnd, ProcSpec::named("launchmon_engine"), move |_ctx| {
                // Only spawn-bearing commands are queued, each placing already.
                // They run on worker threads, so concurrent launches overlap;
                // each answers on its exchange's channel.
                let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
                // The loop ends when the front end drops its endpoint.
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
        sessions.insert(id, EngineSession { job, ctl, daemons, mw_allocs, phase: Phase::Minted });
        id
    }

    /// Take one command on the caller's thread. A kill or detach acts on the
    /// session table here and answers on `reply` (at once, unless a placing
    /// worker keeps it). A spawn-bearing command for a minted session not
    /// ending is marked `Placing` and handed back for the command loop, so a
    /// kill sent after this returns always finds it; anything else is refused.
    fn accept(
        &self,
        cmd: EngineCommand,
        reply: Sender<LmonpMsg>,
    ) -> Option<(EngineCommand, Sender<LmonpMsg>)> {
        let id = cmd.session;
        match cmd.msg.mtype {
            MsgType::FeKillReq => self.request_end(id, JobStatus::Killed, reply),
            MsgType::FeDetachReq => self.request_end(id, JobStatus::Detached, reply),
            MsgType::FeLaunchReq | MsgType::FeAttachReq | MsgType::FeSpawnMwReq => {
                match self.sessions.lock().get_mut(&id) {
                    Some(s) if !matches!(s.phase, Phase::Placing { ending: Some(_) }) => {
                        s.phase = Phase::Placing { ending: None };
                        return Some((cmd, reply));
                    }
                    _ => drop(reply.send(error_reply(format!("no session {}", id.0)))),
                }
            }
            other => drop(reply.send(error_reply(format!("unexpected {other:?}")))),
        }
        None
    }

    /// Run one spawn-bearing command on its worker. Replies stream back as
    /// they are produced: the RPDTAB reply leaves *before* the daemon spawn,
    /// so the FE pipelines the BE handshake against it. A handler's `Err` is
    /// the command's one, terminal error reply, sent once `fail` has dealt
    /// with the session.
    fn handle(&self, cmd: EngineCommand, reply: Sender<LmonpMsg>) {
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
        self.fail(session, msg.mtype);
        let _ = reply.send(error_reply(text));
    }

    /// A filed spawn-bearing command of type `mtype` failed: a launch or
    /// attach ends its session, and an MW spawn goes live unless it kept an
    /// end.
    fn fail(&self, session: SessionId, mtype: MsgType) {
        if mtype != MsgType::FeSpawnMwReq || self.go_live(session, |_| ()).is_err() {
            let attach = mtype == MsgType::FeAttachReq;
            let end = if attach { JobStatus::Detached } else { JobStatus::Killed };
            self.end_session(session, end, None);
        }
    }

    /// launchAndSpawn's own part: start the job under trace control, stop it
    /// at `MPIR_Breakpoint`, where the proctable is valid, and read its
    /// RPDTAB: the launcher's own encoding, checked, which the engine
    /// forwards without building a row.
    fn handle_launch(&self, msg: &LmonpMsg, cmd: SpawnCmd<'_>) -> Result<(), String> {
        let req: LaunchRequest = msg.decode_lmon().map_err(|e| format!("launch req: {e}"))?;
        let (session, timeline) = (cmd.session, &cmd.timeline);

        // e2: execute the RM launcher under engine control.
        timeline.mark(CriticalEvent::E2LauncherExec);
        let (nodes, tasks) = (req.nodes as usize, req.tasks_per_node as usize);
        let spec = JobSpec { app_args: req.app_args, ..JobSpec::new(req.app_exe, nodes, tasks) };
        let handle = self.rm.launch_job(&spec, true).map_err(|e| format!("launch_job: {e}"))?;
        let (launcher, alloc) = (handle.launcher_pid, handle.allocation.clone());
        // The job joins the session still gated: from here on, however the
        // launch ends, `end_session` kills it.
        self.place(session, |s| s.job = Some(EngineJob::Launched(handle)))?;
        let (ctl, shared) = self.trace(launcher)?;
        mpir::set_being_debugged(&ctl, &shared);
        self.place(session, |s| {
            if let Some(EngineJob::Launched(handle)) = &mut s.job {
                handle.release();
            }
        })?;

        run_to_breakpoint(&ctl, EVENT_WAIT).map_err(|e| format!("breakpoint: {e}"))?;
        timeline.mark(CriticalEvent::E3AtBreakpoint);

        // Region B: fetch the RPDTAB out of the launcher's address space.
        let rpdtab = mpir::fetch_proctable(&ctl).map_err(|e| format!("rpdtab: {e}"))?;
        timeline.mark(CriticalEvent::E4RpdtabFetched);
        self.colocate(cmd, ctl, rpdtab.bytes().clone(), &alloc)
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
        let deadline = Instant::now() + Duration::from_secs(10);
        let rpdtab = loop {
            match mpir::fetch_proctable(&ctl) {
                Ok(table) => break table,
                Err(e) if Instant::now() >= deadline => return Err(format!("rpdtab: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        timeline.mark(CriticalEvent::E3AtBreakpoint);
        timeline.mark(CriticalEvent::E4RpdtabFetched);

        // The table's one decode is for the allocation footprint (the
        // RPDTAB hosts) and the kill record; the front end gets the bytes.
        let cluster = self.rm.cluster();
        let nodes = rpdtab.hosts().into_iter().map(|h| cluster.node_by_host(&h).map(|n| n.id));
        let nodes = nodes.collect::<Result<_, _>>().map_err(|e| format!("host map: {e}"))?;
        let alloc = Allocation { id: cmd.session.0, nodes };
        let bytes = rpdtab.bytes().clone();
        self.place(cmd.session, |s| s.job = Some(EngineJob::Attached { launcher_pid, rpdtab }))?;
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

    /// The tail launch and attach share once the job is stopped (or
    /// adopted) with its checked RPDTAB bytes in hand: stream the table,
    /// co-locate the daemons over the job's footprint, let a launched job
    /// run, and hand the trace to the session with the ack.
    fn colocate(
        &self,
        cmd: SpawnCmd<'_>,
        ctl: TraceController,
        rpdtab: Bytes,
        alloc: &Allocation,
    ) -> Result<(), String> {
        // Stream the launcher's RPDTAB bytes now, before the spawn: the FE
        // stages the BE handshake against them while daemons come up, and
        // channel FIFO order keeps them ahead of the spawn ack.
        let (session, reply) = (cmd.session, cmd.reply);
        self.place(session, |_| ())?; // a kill during the breakpoint wait spawns nothing
        answer(reply, LmonpMsg::of_type(MsgType::EngineRpdtab).with_lmon_payload(rpdtab))?;
        let pids = self.spawn_daemons(cmd, alloc)?;
        // Let a launched job run under tool control, and go live with the
        // trace, unless a kill or detach came in first.
        ctl.continue_proc();
        self.go_live(session, |s| s.ctl = Some(ctl))?;
        let master = self.daemon_info(alloc, &pids, 0);
        answer(reply, LmonpMsg::of_type(MsgType::EngineAck).with_lmon(&master))
    }

    /// The co-location core of every spawn-bearing request (e5/e6): the
    /// RM's bulk daemon launch onto `alloc`, with the pids recorded against
    /// the session so a later kill reaches them. Returns them in rank order.
    fn spawn_daemons(&self, cmd: SpawnCmd<'_>, alloc: &Allocation) -> Result<Vec<Pid>, String> {
        let SpawnCmd { session, body, sidecar, timeline, .. } = cmd;
        let EngineSidecar { daemon_exe: exe, daemon_args: args, daemon_env: env, .. } = sidecar;
        timeline.mark(CriticalEvent::E5DaemonSpawnStart);
        // A kill or detach kept for this session stops the spawn at its next
        // wave; the spawn then fails, and the worker ends the session.
        let ending = || self.place(session, |_| ()).is_err();
        let spawned = self.rm.spawn_daemons(alloc, &exe, &args, &env, body, &ending);
        let pids = spawned.map_err(|e| format!("spawn daemons: {e}"))?;
        timeline.mark(CriticalEvent::E6DaemonsSpawned);
        let placed = alloc.nodes.iter().copied().zip(pids.iter().copied());
        self.place(session, |s| s.daemons.extend(placed))?;
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
        self.place(session, |s| s.mw_allocs.push(alloc.clone()))?;
        let pids = self.spawn_daemons(cmd, &alloc)?;
        let placed: Vec<DaemonInfo> =
            (0..pids.len()).map(|rank| self.daemon_info(&alloc, &pids, rank)).collect();
        self.go_live(session, |_| ())?;
        let mut placement = Vec::new();
        put_seq(&mut placement, &placed);
        answer(reply, LmonpMsg::of_type(MsgType::EngineAck).with_lmon_payload(placement))
    }

    /// Record `put` in the session's filed entry, then stop a placing worker
    /// if a kill or detach came in meanwhile: its `Err` leads to `end_session`.
    fn place(&self, id: SessionId, put: impl FnOnce(&mut EngineSession)) -> Result<(), String> {
        let mut sessions = self.sessions.lock();
        let entry = sessions.get_mut(&id).ok_or_else(|| format!("session {} ended", id.0))?;
        put(entry);
        if let Phase::Placing { ending: Some((end, _)) } = &entry.phase {
            return Err(format!("session {} ended while placing: {end:?}", id.0));
        }
        Ok(())
    }

    /// End a command's placing: record `put` and make the session live, or
    /// fail as `place` does, with `put` dropped unrecorded.
    fn go_live(&self, id: SessionId, put: impl FnOnce(&mut EngineSession)) -> Result<(), String> {
        self.place(id, |s| {
            if let Phase::Placing { ending: None } = s.phase {
                put(s);
                s.phase = Phase::Live;
            }
        })
    }

    /// A kill or detach. A placing session keeps it for its worker to end at
    /// its next phase boundary or spawn wave; any other session ends now.
    fn request_end(&self, id: SessionId, end: JobStatus, reply: Sender<LmonpMsg>) {
        if let Some(s) = self.sessions.lock().get_mut(&id) {
            if let Phase::Placing { ending } = &mut s.phase {
                *ending = Some((end, reply));
                return;
            }
        }
        self.end_session(id, end, Some(reply));
    }

    /// The one teardown, however a session ends. Its record leaves the
    /// engine whole, and the process records it owns leave the cluster: the
    /// daemons are killed (a detach's were told to shut down, a failed
    /// spawn's never will be), the MW nodes go back, the dropped trace
    /// resumes the launcher, and a kill kills the job, as does any end of a
    /// launch that never acked (it has no trace yet). An end a placing
    /// session kept wins over `end`; it and `reply` are answered.
    fn end_session(&self, id: SessionId, end: JobStatus, reply: Option<Sender<LmonpMsg>>) {
        let session = self.sessions.lock().remove(&id);
        let Some(session) = session.filter(|s| !matches!(s.phase, Phase::Minted)) else {
            let verb = if end == JobStatus::Killed { "kill" } else { "detach" };
            let text = format!("{verb}: no job for session {}", id.0);
            let _ = reply.map(|reply| reply.send(error_reply(text)));
            return;
        };
        let EngineSession { job, ctl, daemons, mw_allocs, phase } = session;
        let (end, reply) = match phase {
            Phase::Placing { ending: Some((end, kept)) } => (end, Some(kept)),
            _ => (end, reply),
        };
        let cluster = self.rm.cluster();
        for (node_id, pid) in daemons {
            let Ok(node) = cluster.node(node_id) else { continue };
            node.kill_matching(|r| r.pid == pid);
        }
        for alloc in &mw_allocs {
            self.rm.release_allocation(alloc);
        }
        let (kill, acked) = (end == JobStatus::Killed, ctl.is_some());
        drop(ctl);
        let ended = match job {
            Some(EngineJob::Launched(handle)) if kill || !acked => {
                self.rm.kill_job(&handle).map_err(|e| format!("kill: {e}"))
            }
            Some(EngineJob::Attached { launcher_pid, rpdtab }) if kill => {
                // An adopted job has no RM handle: its tasks are the
                // proctable's rows, each killed on its own host.
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
        let status = LmonpMsg::of_type(MsgType::EngineStatus).with_lmon_payload(end.to_bytes());
        if let Some(reply) = reply {
            let _ = reply.send(ended.map_or_else(error_reply, |()| status));
        }
    }
}

/// Send one reply on a command's exchange. It fails once the front end has
/// abandoned the exchange, and a placing worker then ends its session.
fn answer(reply: &Sender<LmonpMsg>, msg: LmonpMsg) -> Result<(), String> {
    reply.send(msg).map_err(|_| "the front end abandoned the exchange".to_string())
}

/// A command's one error reply, terminal wherever it lands.
fn error_reply(text: String) -> LmonpMsg {
    LmonpMsg::of_type(MsgType::EngineError).with_lmon_payload(text.into_bytes()).as_error()
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
