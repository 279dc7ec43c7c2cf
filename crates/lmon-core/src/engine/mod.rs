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
//!   control, drive the [`driver::Driver`] event loop to `MPIR_Breakpoint`,
//!   fetch the RPDTAB, bulk-launch daemons through the RM.
//! * `FeAttachReq` — `attachAndSpawn`: adopt a running launcher, read the
//!   APAI directly, bulk-launch daemons.
//! * `FeSpawnMwReq` — allocate middleware nodes and launch TBON daemons.
//! * `FeDetachReq` / `FeKillReq` — release or destroy the session's job.
//!
//! Submodules mirror the paper's modular class hierarchy: the
//! [`driver::Driver`] organizes operation, the [`driver::EventManager`]
//! polls the traced RM process, the [`decoder::EventDecoder`] lifts native
//! trace events into LaunchMON events, and the [`handler::HandlerTable`]
//! dispatches them.

pub mod channel;
pub mod decoder;
pub mod driver;
pub mod event;
pub mod handler;
pub mod platform;

use std::collections::HashMap;
use std::sync::Arc;

use lmon_cluster::node::NodeId;
use lmon_cluster::process::{Pid, ProcSpec};
use lmon_cluster::trace::TraceController;
use lmon_proto::header::MsgType;
use lmon_proto::msg::LmonpMsg;
use lmon_proto::payload::{AttachRequest, DaemonInfo, JobStatus, LaunchRequest, SpawnMwRequest};
use lmon_proto::rpdtab::Rpdtab;
use lmon_proto::wire::WireEncode;
use lmon_rm::api::{Allocation, JobHandle, JobSpec, ResourceManager};

use crate::engine::channel::{EngineEndpoint, EngineSidecar};
use crate::engine::driver::Driver;
use crate::engine::platform::{MpirPlatform, Platform};
use crate::error::{LmonError, LmonResult};
use crate::timeline::CriticalEvent;

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

/// Reply sink handed to command handlers: forwards one reply to the front
/// end (stamping the exchange's sequence number), returning `false` when
/// the front end is gone so the handler can cancel unobservable work.
type ReplySink<'a> = dyn Fn(LmonpMsg) -> bool + 'a;

/// Session-keyed engine state, shared between the command loop and the
/// worker threads running spawn-bearing commands.
#[derive(Default)]
struct EngineState {
    jobs: HashMap<u16, EngineJob>,
    daemon_pids: HashMap<u16, Vec<Pid>>,
    /// Middleware node allocations each session holds, released when the
    /// session detaches or is killed.
    mw_allocs: HashMap<u16, Vec<Allocation>>,
}

/// Engine state: one per engine process. Cloning shares the state — each
/// worker thread handling a spawn-bearing command holds a clone.
#[derive(Clone)]
pub struct Engine {
    rm: Arc<dyn ResourceManager>,
    platform: Arc<dyn Platform>,
    state: Arc<parking_lot::Mutex<EngineState>>,
}

impl Engine {
    /// Spawn the engine as a process on the cluster front end, returning
    /// the FE-side endpoint and the engine's pid.
    pub fn spawn(rm: Arc<dyn ResourceManager>) -> LmonResult<(EngineEndpoint, Pid)> {
        Engine::spawn_with_platform(rm, Arc::new(MpirPlatform))
    }

    /// Spawn with a custom platform adaptation layer.
    pub fn spawn_with_platform(
        rm: Arc<dyn ResourceManager>,
        platform: Arc<dyn Platform>,
    ) -> LmonResult<(EngineEndpoint, Pid)> {
        let (fe_end, inlet) = channel::engine_channel();
        let cluster = rm.cluster().clone();
        let pid = cluster
            .spawn_active(NodeId::FrontEnd, ProcSpec::named("launchmon_engine"), move |_ctx| {
                let engine = Engine {
                    rm,
                    platform,
                    state: Arc::new(parking_lot::Mutex::new(EngineState::default())),
                };
                let inlet = Arc::new(inlet);
                // Spawn-bearing commands run on worker threads so concurrent
                // launches overlap their engine phases; the FE's tag-routed
                // reply mailboxes sort the interleaved replies back out.
                let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
                // Commands arrive as structured LMONP messages over the
                // shared mux link; the sidecar (daemon body, timeline) is
                // claimed out of band by the command's tag.
                while let Ok(msg) = inlet.recv() {
                    let sidecar = inlet.take_sidecar(msg.tag);
                    if msg.mtype == MsgType::BeShutdown {
                        break; // engine shutdown sentinel
                    }
                    // Echoed on every reply so the FE can correlate replies
                    // to the exact exchange that asked (tag alone repeats
                    // across a session's commands).
                    let seq = msg.sec_epoch;
                    if matches!(
                        msg.mtype,
                        MsgType::FeLaunchReq | MsgType::FeAttachReq | MsgType::FeSpawnMwReq
                    ) {
                        let engine = engine.clone();
                        let inlet = inlet.clone();
                        workers.push(std::thread::spawn(move || {
                            // Replies stream back as the handler produces
                            // them — the RPDTAB reply leaves before the
                            // daemon spawn starts, so the FE overlaps its
                            // handshake staging with the spawn.
                            engine.handle(msg, sidecar, &|r| inlet.send(r.with_epoch(seq)).is_ok());
                        }));
                        workers.retain(|h| !h.is_finished());
                        continue;
                    }
                    let fe_gone = std::cell::Cell::new(false);
                    engine.handle(msg, sidecar, &|r| {
                        let ok = inlet.send(r.with_epoch(seq)).is_ok();
                        fe_gone.set(fe_gone.get() || !ok);
                        ok
                    });
                    if fe_gone.get() {
                        // Front end is gone; let in-flight work finish
                        // before the engine process exits.
                        for h in workers {
                            let _ = h.join();
                        }
                        return;
                    }
                }
                for h in workers {
                    let _ = h.join();
                }
            })
            .map_err(LmonError::Cluster)?;
        Ok((fe_end, pid))
    }

    /// Process one command (shutdown is intercepted by the command loop
    /// before this is reached). Replies go out through `reply` as soon as
    /// they are produced — spawn-bearing requests stream their RPDTAB
    /// reply *before* the daemon spawn, so the FE pipelines the BE
    /// handshake against it. The sink returns `false` when the front end
    /// is gone, which cancels the remaining (now unobservable) work.
    fn handle(&self, msg: LmonpMsg, sidecar: EngineSidecar, reply: &ReplySink<'_>) {
        let tag = msg.tag;
        match msg.mtype {
            MsgType::FeLaunchReq => self.handle_launch(tag, &msg, sidecar, reply),
            MsgType::FeAttachReq => self.handle_attach(tag, &msg, sidecar, reply),
            MsgType::FeSpawnMwReq => self.handle_spawn_mw(tag, &msg, sidecar, reply),
            MsgType::FeDetachReq => {
                reply(self.handle_detach(tag));
            }
            MsgType::FeKillReq => {
                reply(self.handle_kill(tag));
            }
            other => {
                reply(error_reply(tag, format!("unexpected message {other:?}")));
            }
        }
    }

    fn handle_launch(
        &self,
        tag: u16,
        msg: &LmonpMsg,
        sidecar: EngineSidecar,
        reply: &ReplySink<'_>,
    ) {
        let req: LaunchRequest = match msg.decode_lmon() {
            Ok(r) => r,
            Err(e) => {
                reply(error_reply(tag, format!("launch req: {e}")));
                return;
            }
        };
        let Some(body) = sidecar.body else {
            reply(error_reply(tag, "launch req missing daemon body".into()));
            return;
        };
        let timeline = sidecar.timeline.unwrap_or_default();

        // e2: execute the RM launcher under engine control.
        timeline.mark(CriticalEvent::E2LauncherExec);
        let spec = JobSpec {
            app_exe: req.app_exe.clone(),
            app_args: req.app_args.clone(),
            nodes: req.nodes as usize,
            tasks_per_node: req.tasks_per_node as usize,
        };
        let mut handle = match self.rm.launch_job(&spec, true) {
            Ok(h) => h,
            Err(e) => {
                reply(error_reply(tag, format!("launch_job: {e}")));
                return;
            }
        };
        let (_node, rec) = match self.rm.cluster().find_proc(handle.launcher_pid) {
            Ok(x) => x,
            Err(e) => {
                reply(error_reply(tag, format!("launcher proc: {e}")));
                return;
            }
        };
        let ctl = match TraceController::attach(handle.launcher_pid, rec.shared.clone()) {
            Ok(c) => c,
            Err(e) => {
                reply(error_reply(tag, format!("attach: {e}")));
                return;
            }
        };
        self.platform.prepare_attach(&ctl, &rec.shared);
        handle.release();

        // Drive the event pipeline to the breakpoint.
        let mut driver = Driver::new(self.platform.clone());
        if let Err(e) = driver.run_to_breakpoint(&ctl) {
            reply(error_reply(tag, format!("driver: {e}")));
            return;
        }
        timeline.mark(CriticalEvent::E3AtBreakpoint);

        // Region B: fetch the RPDTAB out of the launcher's address space.
        let rpdtab = match self.platform.fetch_rpdtab(&ctl) {
            Ok(t) => t,
            Err(e) => {
                reply(error_reply(tag, format!("rpdtab: {e}")));
                return;
            }
        };
        timeline.mark(CriticalEvent::E4RpdtabFetched);

        // Stream the RPDTAB now, before the spawn: the FE stages the BE
        // handshake against it while daemons are still coming up. Channel
        // FIFO order guarantees it can never arrive after the spawn ack.
        if !reply(LmonpMsg::of_type(MsgType::EngineRpdtab).with_tag(tag).with_lmon(&rpdtab)) {
            return; // front end is gone; don't spawn daemons nobody will use
        }

        // e5/e6: the RM's bulk daemon launch over the job's footprint.
        timeline.mark(CriticalEvent::E5DaemonSpawnStart);
        let pids = match self.rm.spawn_daemons(
            &handle.allocation,
            &sidecar.daemon_exe,
            &sidecar.daemon_args,
            &sidecar.daemon_env,
            body,
        ) {
            Ok(p) => p,
            Err(e) => {
                // Terminal second reply: the FE sees it where the ack
                // would have been and fails the session.
                reply(error_reply(tag, format!("spawn daemons: {e}")));
                return;
            }
        };
        timeline.mark(CriticalEvent::E6DaemonsSpawned);

        // Let the job run under tool control.
        ctl.continue_proc();

        let master_info = DaemonInfo {
            rank: 0,
            size: pids.len() as u32,
            host: rpdtab.hosts().first().cloned().unwrap_or_default(),
            pid: pids.first().map(|p| p.0).unwrap_or(0),
        };
        let mut state = self.state.lock();
        state.daemon_pids.insert(tag, pids);
        state.jobs.insert(tag, EngineJob::Launched { handle, ctl });
        drop(state);

        reply(LmonpMsg::of_type(MsgType::EngineAck).with_tag(tag).with_lmon(&master_info));
    }

    fn handle_attach(
        &self,
        tag: u16,
        msg: &LmonpMsg,
        sidecar: EngineSidecar,
        reply: &ReplySink<'_>,
    ) {
        let req: AttachRequest = match msg.decode_lmon() {
            Ok(r) => r,
            Err(e) => {
                reply(error_reply(tag, format!("attach req: {e}")));
                return;
            }
        };
        let Some(body) = sidecar.body else {
            reply(error_reply(tag, "attach req missing daemon body".into()));
            return;
        };
        let timeline = sidecar.timeline.unwrap_or_default();
        timeline.mark(CriticalEvent::E2LauncherExec);

        let launcher_pid = Pid(req.launcher_pid);
        let (_node, rec) = match self.rm.cluster().find_proc(launcher_pid) {
            Ok(x) => x,
            Err(e) => {
                reply(error_reply(tag, format!("launcher proc: {e}")));
                return;
            }
        };
        let ctl = match TraceController::attach(launcher_pid, rec.shared.clone()) {
            Ok(c) => c,
            Err(e) => {
                reply(error_reply(tag, format!("attach: {e}")));
                return;
            }
        };

        // The job is already running: poll the APAI until the proctable is
        // valid (it almost always already is).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let rpdtab = loop {
            match self.platform.fetch_rpdtab(&ctl) {
                Ok(t) => break t,
                Err(e) => {
                    if std::time::Instant::now() >= deadline {
                        reply(error_reply(tag, format!("rpdtab: {e}")));
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        };
        timeline.mark(CriticalEvent::E3AtBreakpoint);
        timeline.mark(CriticalEvent::E4RpdtabFetched);

        // Reconstruct the allocation footprint from the RPDTAB hosts.
        let mut nodes = Vec::new();
        for host in rpdtab.hosts() {
            match self.rm.cluster().node_by_host(&host) {
                Ok(n) => nodes.push(n.id),
                Err(e) => {
                    reply(error_reply(tag, format!("host map: {e}")));
                    return;
                }
            }
        }
        let alloc = Allocation { id: u64::from(tag), nodes };

        // Same pipelining as launch: RPDTAB streams ahead of the spawn.
        if !reply(LmonpMsg::of_type(MsgType::EngineRpdtab).with_tag(tag).with_lmon(&rpdtab)) {
            return;
        }

        timeline.mark(CriticalEvent::E5DaemonSpawnStart);
        let pids = match self.rm.spawn_daemons(
            &alloc,
            &sidecar.daemon_exe,
            &sidecar.daemon_args,
            &sidecar.daemon_env,
            body,
        ) {
            Ok(p) => p,
            Err(e) => {
                reply(error_reply(tag, format!("spawn daemons: {e}")));
                return;
            }
        };
        timeline.mark(CriticalEvent::E6DaemonsSpawned);

        let master_info = DaemonInfo {
            rank: 0,
            size: pids.len() as u32,
            host: rpdtab.hosts().first().cloned().unwrap_or_default(),
            pid: pids.first().map(|p| p.0).unwrap_or(0),
        };
        let mut state = self.state.lock();
        state.daemon_pids.insert(tag, pids);
        state.jobs.insert(tag, EngineJob::Attached { launcher_pid, rpdtab, ctl });
        drop(state);

        reply(LmonpMsg::of_type(MsgType::EngineAck).with_tag(tag).with_lmon(&master_info));
    }

    fn handle_spawn_mw(
        &self,
        tag: u16,
        msg: &LmonpMsg,
        sidecar: EngineSidecar,
        reply: &ReplySink<'_>,
    ) {
        let req: SpawnMwRequest = match msg.decode_lmon() {
            Ok(r) => r,
            Err(e) => {
                reply(error_reply(tag, format!("mw req: {e}")));
                return;
            }
        };
        let Some(body) = sidecar.body else {
            reply(error_reply(tag, "mw req missing daemon body".into()));
            return;
        };
        let alloc = match self.rm.allocate_mw_nodes(req.count as usize) {
            Ok(a) => a,
            Err(e) => {
                reply(error_reply(tag, format!("mw alloc: {e}")));
                return;
            }
        };
        let pids = match self.rm.spawn_daemons(
            &alloc,
            &sidecar.daemon_exe,
            &sidecar.daemon_args,
            &sidecar.daemon_env,
            body,
        ) {
            Ok(p) => p,
            Err(e) => {
                self.rm.release_allocation(&alloc);
                reply(error_reply(tag, format!("mw spawn: {e}")));
                return;
            }
        };
        let master_info = DaemonInfo {
            rank: 0,
            size: pids.len() as u32,
            host: self
                .rm
                .cluster()
                .node(alloc.nodes[0])
                .map(|n| n.hostname.clone())
                .unwrap_or_default(),
            pid: pids.first().map(|p| p.0).unwrap_or(0),
        };
        self.state.lock().mw_allocs.entry(tag).or_default().push(alloc);
        reply(LmonpMsg::of_type(MsgType::EngineAck).with_tag(tag).with_lmon(&master_info));
    }

    /// Hand the session's middleware nodes back to the RM.
    fn release_mw_allocs(&self, tag: u16) {
        let allocs = self.state.lock().mw_allocs.remove(&tag);
        for alloc in allocs.into_iter().flatten() {
            self.rm.release_allocation(&alloc);
        }
    }

    fn handle_detach(&self, tag: u16) -> LmonpMsg {
        self.release_mw_allocs(tag);
        match self.state.lock().jobs.remove(&tag) {
            Some(EngineJob::Launched { handle: _, ctl }) => {
                // Drop the controller: detaches and resumes the launcher.
                ctl.continue_proc();
                drop(ctl);
                status_reply(tag, JobStatus::Detached)
            }
            Some(EngineJob::Attached { ctl, .. }) => {
                drop(ctl);
                status_reply(tag, JobStatus::Detached)
            }
            None => error_reply(tag, format!("detach: no job for session {tag}")),
        }
    }

    fn handle_kill(&self, tag: u16) -> LmonpMsg {
        self.release_mw_allocs(tag);
        // Daemons first, then the job.
        if let Some(pids) = self.state.lock().daemon_pids.remove(&tag) {
            for pid in pids {
                let _ = self.rm.cluster().kill(pid);
            }
        }
        match self.state.lock().jobs.remove(&tag) {
            Some(EngineJob::Launched { handle, ctl }) => {
                ctl.continue_proc();
                drop(ctl);
                if let Err(e) = self.rm.kill_job(&handle) {
                    return error_reply(tag, format!("kill: {e}"));
                }
                status_reply(tag, JobStatus::Killed)
            }
            Some(EngineJob::Attached { launcher_pid, rpdtab, ctl }) => {
                drop(ctl);
                for entry in rpdtab.entries() {
                    let _ = self.rm.cluster().kill(Pid(entry.pid));
                }
                let _ = self.rm.cluster().kill(launcher_pid);
                status_reply(tag, JobStatus::Killed)
            }
            None => error_reply(tag, format!("kill: no job for session {tag}")),
        }
    }
}

fn error_reply(tag: u16, text: String) -> LmonpMsg {
    LmonpMsg::of_type(MsgType::EngineError)
        .with_tag(tag)
        .with_lmon_payload(text.into_bytes())
        .as_error()
}

fn status_reply(tag: u16, status: JobStatus) -> LmonpMsg {
    LmonpMsg::of_type(MsgType::EngineStatus).with_tag(tag).with_lmon_payload(status.to_bytes())
}
