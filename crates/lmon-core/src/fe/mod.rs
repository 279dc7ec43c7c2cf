//! The LaunchMON front-end API.
//!
//! §3.2 identifies seven FE requirements: (1) launch or attach to an RM
//! process; (2) co-locate back-end daemons; (3) launch middleware daemons;
//! (4) fetch data such as the RPDTAB from the RM process; (5) transfer tool
//! data between front end and daemons; (6) control the job or daemons;
//! (7) bind commands to a daemon group. All seven are here:
//!
//! | requirement | API |
//! |---|---|
//! | launch/attach + co-locate | [`LmonFrontEnd::launch_and_spawn`], [`LmonFrontEnd::attach_and_spawn`] (combined calls, exactly as the paper designed: "our API combines these functionalities by supporting attachAndSpawn and launchAndSpawn but not calls that separate the actions") |
//! | middleware | [`LmonFrontEnd::launch_mw_daemons`] |
//! | RPDTAB | [`LmonFrontEnd::get_proctable`] |
//! | tool data | [`LmonFrontEnd::register_pack`]/[`LmonFrontEnd::register_unpack`] (piggybacked), [`LmonFrontEnd::send_usrdata`]/[`LmonFrontEnd::recv_usrdata`] |
//! | control | [`LmonFrontEnd::detach`], [`LmonFrontEnd::kill`] |
//! | binding | every call takes a [`SessionId`] |
//!
//! The three spawning calls are callers of one mechanism: each builds its
//! engine command through `spawn_command` and runs the front-end side of
//! the handshake in `crate::handshake` with its pair's message types.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use lmon_cluster::process::Pid;
use lmon_proto::fault::{FaultyChannel, FrameFaultPlan};
use lmon_proto::header::MsgType;
use lmon_proto::msg::LmonpMsg;
use lmon_proto::mux::SessionMux;
use lmon_proto::payload::{
    AttachRequest, DaemonInfo, DaemonSpec, JobStatus, LaunchRequest, SpawnMwRequest,
};
use lmon_proto::rpdtab::{CheckedRpdtab, Rpdtab};
use lmon_proto::security::{SessionCookie, COOKIE_ENV_VAR};
use lmon_proto::transport::MsgChannel;
use lmon_proto::wire::{get_seq, put_seq, WireDecode, WireEncode};
use lmon_rm::api::{DaemonBody, ResourceManager};

use crate::be::BeMain;
use crate::daemon_session;
use crate::engine::channel::{EngineCommand, EngineEndpoint, EngineSidecar};
use crate::engine::Engine;
use crate::error::{LmonError, LmonResult};
use crate::handshake;
use crate::health::{HealthMonitor, HealthState, HealthTransition};
use crate::mw::{assign_personalities, MwMain};
use crate::session::{SessionId, SessionState};
use crate::timeline::{CriticalEvent, LaunchBreakdown, TimelineRecorder};

/// Callback packing tool data to piggyback on the FE→BE handshake.
pub type PackFn = Box<dyn Fn() -> Vec<u8> + Send>;

/// Callback receiving tool data piggybacked on BE→FE messages.
pub type UnpackFn = Box<dyn Fn(&[u8]) + Send>;

/// Default handshake timeout (overridable via
/// [`LmonFrontEnd::set_handshake_timeout`]).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// One live session's front-end record: the paper's session resource
/// descriptor (§3.2). It lives from `create_session` to `kill`/`detach`,
/// which drop it and keep only an [`EndedSession`].
///
/// The channels are mux endpoints (or fault-injecting wrappers around
/// them), never dedicated connections: every session's LMONP traffic rides
/// the one physical link its component pair shares.
struct FeSession {
    state: SessionState,
    /// The session's security cookie (passed to daemons via the RM).
    cookie: SessionCookie,
    /// `Arc` rather than `Box`: the usrdata API clones the handle out and
    /// releases the sessions lock *before* blocking, so one session's wait
    /// never serializes another session's traffic.
    be_chan: Option<Arc<dyn MsgChannel>>,
    mw_chan: Option<Arc<dyn MsgChannel>>,
    /// Tool callbacks; they run under the sessions lock, so they must not
    /// call back into the front end.
    pack: Option<PackFn>,
    unpack: Option<UnpackFn>,
    timeline: TimelineRecorder,
    /// The RPDTAB reply's wire bytes, a refcounted view: every later
    /// forward (BeRpdtab, MwRpdtab) is a clone, and `get_proctable`
    /// decodes it.
    rpdtab: Option<lmon_proto::Bytes>,
    /// Created by the first recorded transition; rings at
    /// [`crate::health::DEFAULT_HISTORY_CAP`].
    health: Option<HealthMonitor>,
}

impl FeSession {
    fn new(cookie: SessionCookie) -> Self {
        FeSession {
            state: SessionState::Created,
            cookie,
            be_chan: None,
            mw_chan: None,
            pack: None,
            unpack: None,
            timeline: TimelineRecorder::new(),
            rpdtab: None,
            health: None,
        }
    }

    /// Apply a state transition, validating legality.
    fn transition(&mut self, next: SessionState) -> LmonResult<()> {
        if !self.state.can_transition_to(next) {
            return Err(LmonError::BadSessionState {
                expected: next.name(),
                actual: self.state.name(),
            });
        }
        self.state = next;
        Ok(())
    }
}

/// What is kept of a session after it ends, so a tool can still ask how it
/// ended ("did that session degrade?") right after `kill`/`detach`.
struct EndedSession {
    id: SessionId,
    /// `Killed` or `Detached`.
    state: SessionState,
    timeline: TimelineRecorder,
    health: Option<HealthMonitor>,
}

/// Ended sessions kept after kill/detach: enough for "inspect the session
/// you just ended" workflows without growing with daemon lifetime.
const ENDED_SESSION_CAP: usize = 64;

/// The front end's session descriptor table: every live session's record,
/// plus a FIFO of the [`ENDED_SESSION_CAP`] most recently ended ones. A
/// front end that serves millions of sessions keeps nothing else per
/// session.
#[derive(Default)]
struct Sessions {
    live: HashMap<SessionId, FeSession>,
    ended: VecDeque<EndedSession>,
    /// Lifetime health transitions recorded.
    health_recorded: u64,
    /// Transitions inside monitors of ended sessions that aged out of the
    /// ended tier.
    health_evicted: u64,
}

impl Sessions {
    /// What a live or recently ended session still has: its state,
    /// timeline and health monitor.
    fn view(
        &self,
        id: SessionId,
    ) -> LmonResult<(SessionState, &TimelineRecorder, Option<&HealthMonitor>)> {
        if let Some(s) = self.live.get(&id) {
            return Ok((s.state, &s.timeline, s.health.as_ref()));
        }
        let ended = self.ended.iter().rev().find(|e| e.id == id);
        let e = ended.ok_or(LmonError::NoSuchSession(id.0))?;
        Ok((e.state, &e.timeline, e.health.as_ref()))
    }

    fn state(&self, id: SessionId) -> LmonResult<SessionState> {
        self.view(id).map(|(state, ..)| state)
    }

    fn monitor(&self, id: SessionId) -> Option<&HealthMonitor> {
        self.view(id).ok().and_then(|(.., health)| health)
    }

    /// The live record; an ended session is a state error, an unknown one
    /// `NoSuchSession`.
    fn live(&self, id: SessionId) -> LmonResult<&FeSession> {
        if let Some(session) = self.live.get(&id) {
            return Ok(session);
        }
        let ended = self.state(id)?;
        Err(LmonError::BadSessionState { expected: "a live session", actual: ended.name() })
    }

    fn live_mut(&mut self, id: SessionId) -> LmonResult<&mut FeSession> {
        self.live(id)?;
        Ok(self.live.get_mut(&id).expect("checked above"))
    }

    /// Record a health transition on a live session; an ended session's
    /// health is final, so a transition for it (or for an unknown id) is
    /// dropped.
    fn record_health(&mut self, id: SessionId, state: HealthState, epoch: u64, detail: String) {
        if let Some(session) = self.live.get_mut(&id) {
            session.health.get_or_insert_with(HealthMonitor::default).record(state, epoch, detail);
            self.health_recorded += 1;
        }
    }

    /// End a live session: move it to `state` and drop its record —
    /// channels (the peer sees a clean per-session disconnect and the mux
    /// accounting reflects only live sessions), callbacks (which can
    /// capture arbitrarily large tool state) and the O(tasks) RPDTAB view —
    /// keeping an [`EndedSession`]. The oldest ended session beyond
    /// [`ENDED_SESSION_CAP`] is forgotten (its transitions counted, not
    /// kept).
    fn end(&mut self, id: SessionId, state: SessionState) -> LmonResult<()> {
        self.live_mut(id)?.transition(state)?;
        let FeSession { timeline, health, .. } = self.live.remove(&id).expect("checked above");
        self.ended.push_back(EndedSession { id, state, timeline, health });
        while self.ended.len() > ENDED_SESSION_CAP {
            if let Some(old) = self.ended.pop_front() {
                self.health_evicted += old.health.map_or(0, |m| m.retained() as u64);
            }
        }
        Ok(())
    }

    fn health_summary(&self) -> HealthSummary {
        let live = || self.live.values().filter_map(|s| s.health.as_ref());
        let ended = || self.ended.iter().filter_map(|e| e.health.as_ref());
        let monitors = || live().chain(ended());
        let live_in = |state| live().filter(|m| m.current() == state).count();
        HealthSummary {
            live_sessions: live().count(),
            retired_sessions: ended().count(),
            degraded_sessions: live_in(HealthState::Degraded),
            healed_sessions: live_in(HealthState::Healed),
            draining_sessions: live_in(HealthState::Draining),
            upgraded_sessions: live_in(HealthState::Upgraded),
            transitions_retained: monitors().map(|m| m.retained()).sum(),
            transitions_recorded: self.health_recorded,
            transitions_dropped: monitors().map(|m| m.dropped_total()).sum::<u64>()
                + self.health_evicted,
        }
    }
}

/// Result of `launchAndSpawn`/`attachAndSpawn`.
#[derive(Debug)]
pub struct LaunchOutcome {
    /// The session the daemons are bound to.
    pub session: SessionId,
    /// The RPDTAB fetched from the RM: the launcher's bytes as checked,
    /// with rows built on first use.
    pub rpdtab: CheckedRpdtab,
    /// Number of back-end daemons launched.
    pub daemon_count: usize,
    /// Master daemon identity.
    pub master: DaemonInfo,
    /// Critical-path breakdown (complete for launch; attach lacks T(job)).
    pub breakdown: Option<LaunchBreakdown>,
}

/// Result of middleware daemon launch.
#[derive(Debug)]
pub struct MwOutcome {
    /// Number of middleware daemons launched.
    pub daemon_count: usize,
    /// MW master identity.
    pub master: DaemonInfo,
}

/// Transport accounting for the front end's component links (the paper's
/// one-connection-per-component invariant, observable at runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportStats {
    /// Physical channels to the back-end component (always 1, by mux
    /// construction).
    pub be_physical_links: usize,
    /// Logical BE sessions currently multiplexed over that link.
    pub be_sessions: usize,
    /// High-water mark of simultaneous BE sessions.
    pub be_peak_sessions: usize,
    /// Physical channels to the middleware component (always 1).
    pub mw_physical_links: usize,
    /// Logical MW sessions currently multiplexed over that link.
    pub mw_sessions: usize,
    /// High-water mark of simultaneous MW sessions.
    pub mw_peak_sessions: usize,
}

/// Point-in-time summary of the front end's health bookkeeping, sized for
/// export (the daemon's `/metrics` endpoint) and for asserting the memory
/// bound a long-lived process depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthSummary {
    /// Sessions with a live health monitor (attached or never detached).
    pub live_sessions: usize,
    /// Monitors retained for recently detached/killed sessions (bounded).
    pub retired_sessions: usize,
    /// Live sessions currently in [`HealthState::Degraded`]; ended
    /// sessions are not counted in any state.
    pub degraded_sessions: usize,
    /// Live sessions currently in [`HealthState::Healed`].
    pub healed_sessions: usize,
    /// Live sessions currently in [`HealthState::Draining`] (planned
    /// maintenance flushing in-flight work, DESIGN.md §12).
    pub draining_sessions: usize,
    /// Live sessions currently in [`HealthState::Upgraded`] (a rolling
    /// replacement completed; not a failure).
    pub upgraded_sessions: usize,
    /// Transitions currently held in memory across all monitors.
    pub transitions_retained: usize,
    /// Lifetime transitions recorded, including evicted ones.
    pub transitions_recorded: u64,
    /// Lifetime transitions no longer in memory (per-session ring
    /// evictions plus whole monitors of ended sessions aged out).
    pub transitions_dropped: u64,
}

/// The front end: the tool's handle on all of LaunchMON.
pub struct LmonFrontEnd {
    rm: Arc<dyn ResourceManager>,
    engine: EngineEndpoint,
    engine_pid: Pid,
    /// Every per-session byte the front end holds, under one lock.
    sessions: Mutex<Sessions>,
    /// FE side of the single FE↔BE-component link; one logical session per
    /// tool session rides it.
    be_mux: SessionMux,
    /// Daemon side of the same link; per-session endpoints are delivered to
    /// BE masters through the wrapped daemon body.
    be_mux_far: SessionMux,
    /// FE side of the single FE↔MW-component link.
    mw_mux: SessionMux,
    /// Daemon side of the FE↔MW link.
    mw_mux_far: SessionMux,
    /// Optional frame-fault plan applied to the next launch's live FE-side
    /// handshake channel (chaos testing).
    handshake_fault: Mutex<Option<FrameFaultPlan>>,
    /// Receive deadline for handshake and control replies.
    handshake_timeout: Mutex<Duration>,
}

impl LmonFrontEnd {
    /// `LMON_fe_init`: start the engine and the FE runtime.
    pub fn init(rm: Arc<dyn ResourceManager>) -> LmonResult<Self> {
        let (engine, engine_pid) = Engine::spawn(rm.clone())?;
        let (be_mux, be_mux_far) = SessionMux::pair();
        let (mw_mux, mw_mux_far) = SessionMux::pair();
        Ok(LmonFrontEnd {
            rm,
            engine,
            engine_pid,
            sessions: Mutex::default(),
            be_mux,
            be_mux_far,
            mw_mux,
            mw_mux_far,
            handshake_fault: Mutex::new(None),
            handshake_timeout: Mutex::new(HANDSHAKE_TIMEOUT),
        })
    }

    /// Record a session health transition (called by recovery-aware
    /// integration layers when the overlay degrades or heals). Only a live
    /// session takes one: an ended session's health is final.
    pub fn record_session_health(
        &self,
        session: SessionId,
        state: HealthState,
        epoch: u64,
        detail: impl Into<String>,
    ) {
        self.sessions.lock().record_health(session, state, epoch, detail.into());
    }

    /// The session's current health ([`HealthState::Healthy`] when no
    /// transition was ever recorded). Readable for a bounded grace window
    /// after detach/kill: the ended session keeps its monitor until
    /// `ENDED_SESSION_CAP` (64) newer sessions have also ended.
    pub fn session_health(&self, session: SessionId) -> HealthState {
        self.sessions.lock().monitor(session).map(|m| m.current()).unwrap_or(HealthState::Healthy)
    }

    /// The session's retained health history, oldest transition first (at
    /// most the monitor's ring capacity; see [`HealthMonitor`]).
    pub fn session_health_history(&self, session: SessionId) -> Vec<HealthTransition> {
        self.sessions
            .lock()
            .monitor(session)
            .map(|m| m.history().cloned().collect())
            .unwrap_or_default()
    }

    /// Aggregate health bookkeeping across all sessions, for metrics export
    /// and for asserting the daemon-lifetime memory bound.
    pub fn health_summary(&self) -> HealthSummary {
        self.sessions.lock().health_summary()
    }

    /// The resource manager behind this front end.
    pub fn rm(&self) -> &Arc<dyn ResourceManager> {
        &self.rm
    }

    /// Install a deterministic frame-fault plan for the *next* launch: the
    /// FE side of that session's live handshake channel is wrapped in a
    /// [`FaultyChannel`], so chaos scenarios fault the real FE↔BE-master
    /// exchange (and the session's later usrdata traffic), not a mock.
    pub fn install_handshake_fault_plan(&self, plan: FrameFaultPlan) {
        *self.handshake_fault.lock() = Some(plan);
    }

    /// Override the handshake/control receive deadline (tests shorten it).
    pub fn set_handshake_timeout(&self, timeout: Duration) {
        *self.handshake_timeout.lock() = timeout;
    }

    fn hs_timeout(&self) -> Duration {
        *self.handshake_timeout.lock()
    }

    /// Live transport accounting: sessions multiplexed per component link.
    ///
    /// `be_physical_links`/`mw_physical_links` are structural constants of
    /// the mux — a multi-session launch cannot consume more than one
    /// channel per component pair.
    pub fn transport_stats(&self) -> TransportStats {
        TransportStats {
            be_physical_links: self.be_mux.physical_links(),
            be_sessions: self.be_mux.session_count(),
            be_peak_sessions: self.be_mux.peak_session_count(),
            mw_physical_links: self.mw_mux.physical_links(),
            mw_sessions: self.mw_mux.session_count(),
            mw_peak_sessions: self.mw_mux.peak_session_count(),
        }
    }

    /// `LMON_fe_createSession`, under the id the engine mints for it.
    pub fn create_session(&self) -> SessionId {
        let id = self.engine.mint_session();
        self.sessions.lock().live.insert(id, FeSession::new(SessionCookie::mint()));
        id
    }

    /// Register the pack callback for FE→BE piggybacked data.
    pub fn register_pack(&self, session: SessionId, pack: PackFn) -> LmonResult<()> {
        self.sessions.lock().live_mut(session)?.pack = Some(pack);
        Ok(())
    }

    /// Register the unpack callback for BE→FE piggybacked data.
    pub fn register_unpack(&self, session: SessionId, unpack: UnpackFn) -> LmonResult<()> {
        self.sessions.lock().live_mut(session)?.unpack = Some(unpack);
        Ok(())
    }

    /// `LMON_fe_launchAndSpawnDaemons`: launch a job under tool control and
    /// co-locate one daemon per node.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_and_spawn(
        &self,
        session: SessionId,
        app_exe: &str,
        app_args: &[String],
        nodes: usize,
        tasks_per_node: usize,
        daemon: DaemonSpec,
        be_main: BeMain,
    ) -> LmonResult<LaunchOutcome> {
        let timeline = self.sessions.lock().live(session)?.timeline.clone();
        timeline.mark(CriticalEvent::E0ClientCall);

        let req = LaunchRequest {
            app_exe: app_exe.to_string(),
            app_args: app_args.to_vec(),
            nodes: nodes as u32,
            tasks_per_node: tasks_per_node as u32,
            daemon: daemon.clone(),
        };
        let wire = LmonpMsg::of_type(MsgType::FeLaunchReq).with_lmon(&req);
        self.spawn_common(session, wire, daemon, be_main, timeline)
            .inspect_err(|_| drop(self.kill(session)))
    }

    /// `LMON_fe_attachAndSpawnDaemons`: attach to a running job's launcher
    /// and co-locate one daemon per node.
    pub fn attach_and_spawn(
        &self,
        session: SessionId,
        launcher_pid: Pid,
        daemon: DaemonSpec,
        be_main: BeMain,
    ) -> LmonResult<LaunchOutcome> {
        let timeline = self.sessions.lock().live(session)?.timeline.clone();
        timeline.mark(CriticalEvent::E0ClientCall);

        let req = AttachRequest { launcher_pid: launcher_pid.0, daemon: daemon.clone() };
        let wire = LmonpMsg::of_type(MsgType::FeAttachReq).with_lmon(&req);
        self.spawn_common(session, wire, daemon, be_main, timeline)
            .inspect_err(|_| drop(self.detach(session)))
    }

    /// Common path for launch/attach: ship the request + wrapped daemon
    /// body to the engine, take the RPDTAB reply and run the pack callback
    /// while the daemons spawn, then wait for the spawn ack, admit the
    /// master's hello and run the rest of the BE handshake. A session that
    /// fails here is ended by its caller with the command a tool would
    /// send, kill for a launch and detach for an attach: the engine tears
    /// down whatever it placed, and the record ends.
    fn spawn_common(
        &self,
        session: SessionId,
        wire: LmonpMsg,
        daemon: DaemonSpec,
        be_main: BeMain,
        timeline: TimelineRecorder,
    ) -> LmonResult<LaunchOutcome> {
        let cookie = self.sessions.lock().live(session)?.cookie;

        // The master daemon's LMONP channel: a logical session over the one
        // physical FE↔BE link (one representative per component, §3.5 — and
        // one *channel* per component no matter how many sessions ride it).
        // Delivered to the master through the wrapped body. The FE side is
        // Arc'd so the usrdata API can block on it without holding the
        // sessions lock.
        let fe_chan: Arc<dyn MsgChannel> = {
            let ep = self.be_mux.open(session.0)?;
            match self.handshake_fault.lock().take() {
                Some(plan) => Arc::new(FaultyChannel::new(ep, plan)),
                None => Arc::new(ep),
            }
        };
        let be_chan = Box::new(self.be_mux_far.open(session.0)?);
        let wrapped = daemon_session::wrap(be_main, be_chan, Some(timeline.clone()));

        timeline.mark(CriticalEvent::E1EngineInvoked);
        let cmd = spawn_command(session, wire, &daemon, &cookie, wrapped, Some(timeline.clone()));
        // Pipelined exchange on its own reply channel: the engine streams
        // the RPDTAB reply *before* it spawns daemons, so the FE stages its
        // half of the BE handshake against the spawn instead of after it.
        let exchange = self.engine.begin_exchange(cmd)?;
        let rpdtab_reply = exchange.next(self.hs_timeout())?;
        self.transition(session, SessionState::EngineAttached)?;
        self.expect_reply(&rpdtab_reply, MsgType::EngineRpdtab)?;
        // Check the launcher's bytes whole before forwarding them, building
        // no row: BeRpdtab (and later MwRpdtab) forward this exact
        // refcounted view, and the caller's table decodes on first use.
        let rpdtab = Rpdtab::check_bytes(rpdtab_reply.lmon)?;
        let rpdtab_bytes = rpdtab.bytes().clone();
        {
            let mut sessions = self.sessions.lock();
            let record = sessions.live_mut(session)?;
            record.transition(SessionState::JobStopped)?;
            record.rpdtab = Some(rpdtab_bytes.clone());
        }

        // Overlap window: the pack callback runs while the engine is still
        // spawning daemons. Then one wait for the spawn ack, which carries
        // the master identity BeLaunchInfo delivers (a failed spawn's error
        // reply ends that wait at once), and one for the master's hello,
        // sent while its siblings spawned: either order of arrival costs
        // the same wait, for whichever comes last.
        let packed = self.packed(session);
        let ack = exchange.next(self.hs_timeout())?;
        self.expect_reply(&ack, MsgType::EngineAck)?;
        let master_info: DaemonInfo = ack.decode_lmon()?;
        handshake::BE.admit(fe_chan.as_ref(), &cookie, self.hs_timeout())?;
        self.transition(session, SessionState::DaemonsSpawned)?;

        // Serialized remainder of the BE handshake (e7..e10). e7 lands
        // after the spawn ack — hence after e6 — keeping the critical path
        // ordered.
        timeline.mark(CriticalEvent::E7HandshakeStart);
        // Ready comes back with optional piggybacked tool data for unpack.
        let ready = handshake::BE.deliver(
            fe_chan.as_ref(),
            &cookie,
            ack.lmon,
            packed,
            rpdtab_bytes,
            self.hs_timeout(),
        )?;
        if !ready.usr.is_empty() {
            if let Some(unpack) = self.sessions.lock().live(session)?.unpack.as_ref() {
                unpack(&ready.usr);
            }
        }
        timeline.mark(CriticalEvent::E10Ready);
        {
            // Ready, with the channel stashed for later usrdata traffic.
            let mut sessions = self.sessions.lock();
            let record = sessions.live_mut(session)?;
            record.transition(SessionState::Ready)?;
            record.be_chan = Some(fe_chan);
        }
        timeline.mark(CriticalEvent::E11Returned);

        Ok(LaunchOutcome {
            session,
            daemon_count: master_info.size as usize,
            master: master_info,
            rpdtab,
            breakdown: timeline.breakdown(),
        })
    }

    /// `LMON_fe_launchMwDaemons`: allocate nodes and launch TBON daemons.
    /// The session places one spawn-bearing command at a time: while its
    /// launch or attach is still in flight, the engine refuses this one with
    /// an error naming the session, and nothing is placed. Called after that
    /// launch or attach returns, as a tool's overlay does, it is taken.
    pub fn launch_mw_daemons(
        &self,
        session: SessionId,
        count: usize,
        fanout: u32,
        daemon: DaemonSpec,
        mw_main: MwMain,
    ) -> LmonResult<MwOutcome> {
        // The RPDTAB bytes stashed at launch; a session that never launched
        // hands its middleware an empty table.
        let (cookie, rpdtab_bytes) = {
            let sessions = self.sessions.lock();
            let record = sessions.live(session)?;
            (record.cookie, record.rpdtab.clone())
        };
        let rpdtab_bytes = rpdtab_bytes.unwrap_or_else(|| Rpdtab::default().to_bytes().into());

        // One logical MW session over the single FE↔MW link.
        let fe_chan: Arc<dyn MsgChannel> = Arc::new(self.mw_mux.open(session.0)?);
        let wrapped =
            daemon_session::wrap(mw_main, Box::new(self.mw_mux_far.open(session.0)?), None);

        let req = SpawnMwRequest { count: count as u32, daemon: daemon.clone() };
        let wire = LmonpMsg::of_type(MsgType::FeSpawnMwReq).with_lmon(&req);
        let cmd = spawn_command(session, wire, &daemon, &cookie, wrapped, None);
        // The ack lists the daemons where the RM actually placed them, in
        // rank order (the allocator hands out the lowest free nodes, which
        // need not be contiguous).
        let ack = self.engine.begin_exchange(cmd)?.next(self.hs_timeout())?;
        self.expect_reply(&ack, MsgType::EngineAck)?;
        let placed: Vec<DaemonInfo> = get_seq(&mut &ack.lmon[..])?;
        let master_info =
            placed.first().cloned().ok_or(LmonError::Engine("MW ack places no daemon".into()))?;

        handshake::MW.admit(fe_chan.as_ref(), &cookie, self.hs_timeout())?;

        // Personalities for the tool's intended tree shape are the MW
        // handshake's launch info.
        let hosts: Vec<String> = placed.into_iter().map(|d| d.host).collect();
        let mut pers_bytes = Vec::new();
        put_seq(&mut pers_bytes, &assign_personalities(&hosts, fanout));
        handshake::MW.deliver(
            fe_chan.as_ref(),
            &cookie,
            pers_bytes.into(),
            self.packed(session),
            rpdtab_bytes,
            self.hs_timeout(),
        )?;

        self.sessions.lock().live_mut(session)?.mw_chan = Some(fe_chan);

        Ok(MwOutcome { daemon_count: master_info.size as usize, master: master_info })
    }

    /// `LMON_fe_getProctable`.
    pub fn get_proctable(&self, session: SessionId) -> LmonResult<Rpdtab> {
        let bytes = {
            let sessions = self.sessions.lock();
            let record = sessions.live(session)?;
            record.rpdtab.clone().ok_or(LmonError::BadSessionState {
                expected: "JobStopped+",
                actual: record.state.name(),
            })?
        };
        Ok(Rpdtab::from_bytes(&bytes)?)
    }

    /// Send tool data to the BE master (`LMON_fe_sendUsrDataBe`).
    pub fn send_usrdata(&self, session: SessionId, bytes: Vec<u8>) -> LmonResult<()> {
        handshake::BE.send_usrdata(&*self.master_channel(session, |rt| &rt.be_chan)?, bytes)
    }

    /// Receive tool data from the BE master (`LMON_fe_recvUsrDataBe`).
    pub fn recv_usrdata(&self, session: SessionId, timeout: Duration) -> LmonResult<Vec<u8>> {
        handshake::BE.recv_usrdata(&*self.master_channel(session, |rt| &rt.be_chan)?, timeout)
    }

    /// Send tool data to the MW master (`LMON_fe_sendUsrDataMw`).
    pub fn send_mw_usrdata(&self, session: SessionId, bytes: Vec<u8>) -> LmonResult<()> {
        handshake::MW.send_usrdata(&*self.master_channel(session, |rt| &rt.mw_chan)?, bytes)
    }

    /// Receive tool data from the MW master (`LMON_fe_recvUsrDataMw`).
    pub fn recv_mw_usrdata(&self, session: SessionId, timeout: Duration) -> LmonResult<Vec<u8>> {
        handshake::MW.recv_usrdata(&*self.master_channel(session, |rt| &rt.mw_chan)?, timeout)
    }

    /// `LMON_fe_detach`: shut daemons down, leave the job running, and end
    /// the session, from any live state.
    pub fn detach(&self, session: SessionId) -> LmonResult<()> {
        // Order daemons to shut down.
        if let Ok(chan) = self.master_channel(session, |rt| &rt.be_chan) {
            let _ = chan.send(LmonpMsg::of_type(MsgType::BeShutdown));
        }
        self.end(session, JobStatus::Detached)
    }

    /// `LMON_fe_kill`: destroy the job and all daemons, and end the session,
    /// from any live state. A launch still placing its daemons stops at its
    /// next phase boundary and is torn down before the kill returns. A
    /// failed launch has killed its session already.
    pub fn kill(&self, session: SessionId) -> LmonResult<()> {
        self.end(session, JobStatus::Killed)
    }

    /// The session's critical-path recorder (kept for a while after the
    /// session ends, like its state).
    pub fn timeline(&self, session: SessionId) -> LmonResult<TimelineRecorder> {
        self.sessions.lock().view(session).map(|(_, timeline, _)| timeline.clone())
    }

    /// Current session state; an ended session reads `Killed` or
    /// `Detached` until `ENDED_SESSION_CAP` (64) newer sessions have also
    /// ended, and `NoSuchSession` after that.
    pub fn session_state(&self, session: SessionId) -> LmonResult<SessionState> {
        self.sessions.lock().state(session)
    }

    /// Shut down the engine and the FE runtime.
    pub fn shutdown(self) -> LmonResult<()> {
        let LmonFrontEnd { rm, engine, engine_pid, .. } = self;
        // The engine serves what is queued, then stops: its command channel
        // has disconnected.
        drop(engine);
        let cluster = rm.cluster();
        let _ = cluster.wait_pid(engine_pid);
        let _ = cluster.join_thread(engine_pid);
        Ok(())
    }

    // --- helpers ---------------------------------------------------------

    /// Clone out one of the session's master-channel handles, releasing the
    /// sessions lock before the caller blocks on it.
    fn master_channel(
        &self,
        session: SessionId,
        which: fn(&FeSession) -> &Option<Arc<dyn MsgChannel>>,
    ) -> LmonResult<Arc<dyn MsgChannel>> {
        which(self.sessions.lock().live(session)?).clone().ok_or(LmonError::BadSessionState {
            expected: "daemons launched",
            actual: "no master channel",
        })
    }

    /// The session's pack callback's output, piggybacked on launch info.
    fn packed(&self, session: SessionId) -> Vec<u8> {
        let sessions = self.sessions.lock();
        sessions
            .live(session)
            .ok()
            .and_then(|s| s.pack.as_ref())
            .map(|pack| pack())
            .unwrap_or_default()
    }

    /// End a session through the engine's one teardown, then its record: once
    /// asked, the engine ends its side whatever it answers. A record already
    /// in this end was ended by the failing launch the engine just tore down.
    fn end(&self, session: SessionId, end: JobStatus) -> LmonResult<()> {
        let (wire, state) = match end {
            JobStatus::Killed => (MsgType::FeKillReq, SessionState::Killed),
            _ => (MsgType::FeDetachReq, SessionState::Detached),
        };
        let exchange =
            self.engine.begin_exchange(EngineCommand::control(session, LmonpMsg::of_type(wire)));
        let ended_engine = exchange.and_then(|ex| ex.next(self.hs_timeout())).and_then(|reply| {
            self.expect_reply(&reply, MsgType::EngineStatus)?;
            match JobStatus::from_bytes(&reply.lmon)? {
                got if got == end => Ok(()),
                got => Err(LmonError::Engine(format!("expected status {end:?}, got {got:?}"))),
            }
        });
        let mut sessions = self.sessions.lock();
        let ended_record = match sessions.state(session) {
            Ok(now) if now == state => Ok(()),
            _ => sessions.end(session, state),
        };
        ended_engine.and(ended_record)
    }

    fn transition(&self, session: SessionId, next: SessionState) -> LmonResult<()> {
        self.sessions.lock().live_mut(session)?.transition(next)
    }

    fn expect_reply(&self, reply: &LmonpMsg, want: MsgType) -> LmonResult<()> {
        if reply.error || reply.mtype == MsgType::EngineError {
            return Err(LmonError::Engine(String::from_utf8_lossy(&reply.lmon).into_owned()));
        }
        if reply.mtype != want {
            return Err(LmonError::Engine(format!("expected {want:?}, got {:?}", reply.mtype)));
        }
        Ok(())
    }
}

/// The engine command for a spawn-bearing request. The daemon image rides
/// in the sidecar; the session cookie joins the daemons' environment, the
/// RM's launch channel being the one secure path onto the compute nodes.
fn spawn_command(
    session: SessionId,
    msg: LmonpMsg,
    daemon: &DaemonSpec,
    cookie: &SessionCookie,
    body: DaemonBody,
    timeline: Option<TimelineRecorder>,
) -> EngineCommand {
    let mut daemon_env = daemon.env.clone();
    daemon_env.push(format!("{COOKIE_ENV_VAR}={}", cookie.to_env_value()));
    let sidecar = EngineSidecar {
        body: Some(body),
        daemon_exe: daemon.exe.clone(),
        daemon_args: daemon.args.clone(),
        daemon_env,
        timeline,
    };
    EngineCommand { session, msg, sidecar }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// File a fresh record under `id`, as `create_session` does with the
    /// id the engine minted.
    fn create(sessions: &mut Sessions, id: u64) -> SessionId {
        sessions.live.insert(SessionId(id), FeSession::new(SessionCookie::mint_seeded(id)));
        SessionId(id)
    }

    fn sessions_with(n: u64) -> (Sessions, Vec<SessionId>) {
        let mut sessions = Sessions::default();
        let ids = (0..n).map(|i| create(&mut sessions, i)).collect();
        (sessions, ids)
    }

    #[test]
    fn transitions_are_checked_and_ending_leaves_a_terminal_state() {
        let (mut sessions, ids) = sessions_with(1);
        let id = ids[0];
        let err = sessions.live_mut(id).unwrap().transition(SessionState::Ready).unwrap_err();
        assert!(matches!(err, LmonError::BadSessionState { expected: "Ready", actual: "Created" }));
        assert!(
            sessions.end(id, SessionState::Ready).is_err(),
            "a session ends Killed or Detached"
        );
        assert_eq!(sessions.state(id).unwrap(), SessionState::Created);
        sessions.end(id, SessionState::Killed).unwrap();
        assert_eq!(sessions.state(id).unwrap(), SessionState::Killed);
        assert!(matches!(sessions.live(id), Err(LmonError::BadSessionState { .. })));
        assert!(sessions.end(id, SessionState::Killed).is_err(), "an ended session stays ended");
        assert!(matches!(sessions.state(SessionId(9)), Err(LmonError::NoSuchSession(9))));
    }

    /// The long-lived-daemon regression: 10k sessions that each record
    /// health and then end must leave only the bounded ended tier behind —
    /// no live records, not 10k monitors.
    #[test]
    fn ten_thousand_ended_sessions_leave_only_the_ended_tier() {
        let mut sessions = Sessions::default();
        for i in 0..10_000u64 {
            let id = create(&mut sessions, i);
            sessions.record_health(id, HealthState::Degraded, 0, format!("fault in {i}"));
            sessions.record_health(id, HealthState::Healed, 1, "repaired".into());
            sessions.end(id, SessionState::Killed).unwrap();
        }
        assert!(sessions.live.is_empty(), "every ended session left the live map");
        assert_eq!(sessions.ended.len(), ENDED_SESSION_CAP, "the ended tier is bounded");
        let s = sessions.health_summary();
        assert_eq!(s.live_sessions, 0);
        assert_eq!(s.retired_sessions, ENDED_SESSION_CAP);
        assert_eq!(s.transitions_retained, ENDED_SESSION_CAP * 2);
        assert_eq!(s.transitions_recorded, 20_000);
        assert_eq!(s.transitions_dropped, 20_000 - (ENDED_SESSION_CAP as u64) * 2);
        // Recently ended sessions remain queryable; ancient ones are gone.
        let last = SessionId(9_999);
        assert_eq!(sessions.monitor(last).map(|m| m.current()), Some(HealthState::Healed));
        assert_eq!(sessions.state(last).unwrap(), SessionState::Killed);
        assert!(sessions.monitor(SessionId(0)).is_none());
        assert!(matches!(sessions.state(SessionId(0)), Err(LmonError::NoSuchSession(0))));
    }

    /// An ended session's health is final: a late transition neither
    /// changes it nor brings back a live monitor.
    #[test]
    fn health_recorded_after_the_end_is_dropped() {
        let (mut sessions, ids) = sessions_with(1);
        sessions.record_health(ids[0], HealthState::Degraded, 0, "fault".into());
        sessions.end(ids[0], SessionState::Killed).unwrap();
        sessions.record_health(ids[0], HealthState::Healed, 1, "late".into());
        sessions.record_health(SessionId(7), HealthState::Healed, 1, "unknown".into());
        assert_eq!(sessions.monitor(ids[0]).map(|m| m.current()), Some(HealthState::Degraded));
        let s = sessions.health_summary();
        assert_eq!((s.live_sessions, s.retired_sessions, s.transitions_recorded), (0, 1, 1));
    }

    /// Per-session flapping is bounded by the monitor ring even while the
    /// session stays live.
    #[test]
    fn live_session_history_is_ring_bounded() {
        use crate::health::DEFAULT_HISTORY_CAP;
        let (mut sessions, ids) = sessions_with(1);
        for epoch in 0..1_000u64 {
            sessions.record_health(ids[0], HealthState::Degraded, epoch, "flap".into());
        }
        let m = sessions.monitor(ids[0]).unwrap();
        assert_eq!(m.retained(), DEFAULT_HISTORY_CAP);
        assert_eq!(m.dropped_total(), 1_000 - DEFAULT_HISTORY_CAP as u64);
    }
}
