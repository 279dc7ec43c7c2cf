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
use lmon_proto::rpdtab::Rpdtab;
use lmon_proto::security::{SessionCookie, COOKIE_ENV_VAR};
use lmon_proto::transport::MsgChannel;
use lmon_proto::wire::{get_seq, put_seq, WireDecode};
use lmon_rm::api::{DaemonBody, ResourceManager};

use crate::be::{wrap_be_main, BeMain};
use crate::engine::channel::{EngineCommand, EngineEndpoint, EngineSidecar};
use crate::engine::Engine;
use crate::error::{LmonError, LmonResult};
use crate::handshake;
use crate::health::{HealthMonitor, HealthState, HealthTransition};
use crate::mw::{assign_personalities, wrap_mw_main, MwMain};
use crate::session::{SessionId, SessionState, SessionTable};
use crate::timeline::{CriticalEvent, LaunchBreakdown, TimelineRecorder};

/// Callback packing tool data to piggyback on the FE→BE handshake.
pub type PackFn = Box<dyn Fn() -> Vec<u8> + Send>;

/// Callback receiving tool data piggybacked on BE→FE messages.
pub type UnpackFn = Box<dyn Fn(&[u8]) + Send>;

/// Default handshake timeout (overridable via
/// [`LmonFrontEnd::set_handshake_timeout`]).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-session FE runtime state (channels, callbacks, timing).
///
/// The channels are mux endpoints (or fault-injecting wrappers around
/// them), never dedicated connections: every session's LMONP traffic rides
/// the one physical link its component pair shares.
struct FeSessionRt {
    /// `Arc` rather than `Box`: the usrdata API clones the handle out and
    /// releases the runtimes lock *before* blocking, so one session's wait
    /// never serializes another session's traffic.
    be_chan: Option<Arc<dyn MsgChannel>>,
    mw_chan: Option<Arc<dyn MsgChannel>>,
    timeline: TimelineRecorder,
    pack: Option<PackFn>,
    unpack: Option<UnpackFn>,
    /// The engine-encoded RPDTAB wire bytes, kept as a refcounted view so
    /// every later forward (BeRpdtab, MwRpdtab) is a clone, not a
    /// re-serialization of the whole table.
    rpdtab_bytes: Option<lmon_proto::Bytes>,
}

impl FeSessionRt {
    fn new() -> Self {
        FeSessionRt {
            be_chan: None,
            mw_chan: None,
            timeline: TimelineRecorder::new(),
            pack: None,
            unpack: None,
            rpdtab_bytes: None,
        }
    }
}

/// Result of `launchAndSpawn`/`attachAndSpawn`.
#[derive(Debug)]
pub struct LaunchOutcome {
    /// The session the daemons are bound to.
    pub session: SessionId,
    /// The RPDTAB fetched from the RM.
    pub rpdtab: Rpdtab,
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
    /// sessions in the retired tier are not counted in any state.
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
    /// evictions plus whole retired monitors aged out).
    pub transitions_dropped: u64,
}

/// Health bookkeeping behind the FE's session-health API.
///
/// Two bounded tiers keep a multi-year daemon's memory flat:
/// * `live` — one ring-buffered [`HealthMonitor`] per session that has
///   recorded a transition; retired when the session detaches or is killed.
/// * `retired` — monitors of recently ended sessions, so tools can still
///   ask "did that session degrade?" right after detach; the oldest is
///   dropped (its transitions counted, not kept) beyond `retired_cap`.
struct HealthLedger {
    /// Each monitor rings at [`crate::health::DEFAULT_HISTORY_CAP`].
    live: HashMap<SessionId, HealthMonitor>,
    retired: VecDeque<(SessionId, HealthMonitor)>,
    /// Bound on `retired`.
    retired_cap: usize,
    recorded_total: u64,
    /// Transitions inside retired monitors that aged out of the ring.
    evicted_transitions: u64,
}

/// Retired monitors kept after detach (enough for "inspect the session you
/// just ended" workflows without growing with daemon lifetime).
const RETIRED_HEALTH_CAP: usize = 64;

impl HealthLedger {
    fn new() -> Self {
        HealthLedger {
            live: HashMap::new(),
            retired: VecDeque::new(),
            retired_cap: RETIRED_HEALTH_CAP,
            recorded_total: 0,
            evicted_transitions: 0,
        }
    }

    fn record(&mut self, session: SessionId, state: HealthState, epoch: u64, detail: String) {
        self.live.entry(session).or_default().record(state, epoch, detail);
        self.recorded_total += 1;
    }

    fn monitor(&self, session: SessionId) -> Option<&HealthMonitor> {
        self.live
            .get(&session)
            .or_else(|| self.retired.iter().rev().find(|(s, _)| *s == session).map(|(_, m)| m))
    }

    /// Move a session's monitor to the bounded retired tier (no-op for
    /// sessions that never recorded a transition).
    fn retire(&mut self, session: SessionId) {
        if let Some(monitor) = self.live.remove(&session) {
            self.retired.push_back((session, monitor));
            while self.retired.len() > self.retired_cap {
                if let Some((_, old)) = self.retired.pop_front() {
                    self.evicted_transitions += old.retained() as u64;
                }
            }
        }
    }

    fn summary(&self) -> HealthSummary {
        let monitors = || self.live.values().chain(self.retired.iter().map(|(_, m)| m));
        let ring_dropped: u64 = monitors().map(|m| m.dropped_total()).sum();
        let live_in = |state| self.live.values().filter(|m| m.current() == state).count();
        HealthSummary {
            live_sessions: self.live.len(),
            retired_sessions: self.retired.len(),
            degraded_sessions: live_in(HealthState::Degraded),
            healed_sessions: live_in(HealthState::Healed),
            draining_sessions: live_in(HealthState::Draining),
            upgraded_sessions: live_in(HealthState::Upgraded),
            transitions_retained: monitors().map(|m| m.retained()).sum(),
            transitions_recorded: self.recorded_total,
            transitions_dropped: ring_dropped + self.evicted_transitions,
        }
    }
}

/// The front end: the tool's handle on all of LaunchMON.
pub struct LmonFrontEnd {
    rm: Arc<dyn ResourceManager>,
    engine: EngineEndpoint,
    engine_pid: Pid,
    sessions: Mutex<SessionTable>,
    runtimes: Mutex<HashMap<SessionId, FeSessionRt>>,
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
    /// Per-session overlay health (degraded → healed transitions recorded
    /// by recovery-aware integration layers), bounded for daemon lifetimes.
    health: Mutex<HealthLedger>,
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
            sessions: Mutex::new(SessionTable::new()),
            runtimes: Mutex::new(HashMap::new()),
            be_mux,
            be_mux_far,
            mw_mux,
            mw_mux_far,
            handshake_fault: Mutex::new(None),
            handshake_timeout: Mutex::new(HANDSHAKE_TIMEOUT),
            health: Mutex::new(HealthLedger::new()),
        })
    }

    /// Record a session health transition (called by recovery-aware
    /// integration layers when the overlay degrades or heals).
    pub fn record_session_health(
        &self,
        session: SessionId,
        state: HealthState,
        epoch: u64,
        detail: impl Into<String>,
    ) {
        self.health.lock().record(session, state, epoch, detail.into());
    }

    /// The session's current health ([`HealthState::Healthy`] when no
    /// transition was ever recorded). Readable for a bounded grace window
    /// after detach/kill: the monitor is retired, not dropped, and survives
    /// until `RETIRED_HEALTH_CAP` (64) newer sessions have also ended.
    pub fn session_health(&self, session: SessionId) -> HealthState {
        self.health.lock().monitor(session).map(|m| m.current()).unwrap_or(HealthState::Healthy)
    }

    /// The session's retained health history, oldest transition first (at
    /// most the monitor's ring capacity; see [`HealthMonitor`]).
    pub fn session_health_history(&self, session: SessionId) -> Vec<HealthTransition> {
        self.health
            .lock()
            .monitor(session)
            .map(|m| m.history().cloned().collect())
            .unwrap_or_default()
    }

    /// Aggregate health bookkeeping across all sessions, for metrics export
    /// and for asserting the daemon-lifetime memory bound.
    pub fn health_summary(&self) -> HealthSummary {
        self.health.lock().summary()
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

    /// `LMON_fe_createSession`.
    pub fn create_session(&self) -> SessionId {
        let cookie = SessionCookie::mint();
        let id = self.sessions.lock().create(cookie);
        self.runtimes.lock().insert(id, FeSessionRt::new());
        id
    }

    /// Register the pack callback for FE→BE piggybacked data.
    pub fn register_pack(&self, session: SessionId, pack: PackFn) -> LmonResult<()> {
        self.sessions.lock().get(session)?;
        if let Some(rt) = self.runtimes.lock().get_mut(&session) {
            rt.pack = Some(pack);
        }
        Ok(())
    }

    /// Register the unpack callback for BE→FE piggybacked data.
    pub fn register_unpack(&self, session: SessionId, unpack: UnpackFn) -> LmonResult<()> {
        self.sessions.lock().get(session)?;
        if let Some(rt) = self.runtimes.lock().get_mut(&session) {
            rt.unpack = Some(unpack);
        }
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
        let timeline = self.session_timeline(session)?;
        timeline.mark(CriticalEvent::E0ClientCall);

        let req = LaunchRequest {
            app_exe: app_exe.to_string(),
            app_args: app_args.to_vec(),
            nodes: nodes as u32,
            tasks_per_node: tasks_per_node as u32,
            daemon: daemon.clone(),
        };
        let wire =
            LmonpMsg::of_type(MsgType::FeLaunchReq).with_tag(mux_id(session)?).with_lmon(&req);
        self.spawn_common(session, wire, daemon, be_main, timeline)
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
        let timeline = self.session_timeline(session)?;
        timeline.mark(CriticalEvent::E0ClientCall);

        let req = AttachRequest { launcher_pid: launcher_pid.0, daemon: daemon.clone() };
        let wire =
            LmonpMsg::of_type(MsgType::FeAttachReq).with_tag(mux_id(session)?).with_lmon(&req);
        self.spawn_common(session, wire, daemon, be_main, timeline)
    }

    /// Common path for launch/attach: ship the request + wrapped daemon
    /// body to the engine, then run the FE side of the BE handshake.
    fn spawn_common(
        &self,
        session: SessionId,
        wire: LmonpMsg,
        daemon: DaemonSpec,
        be_main: BeMain,
        timeline: TimelineRecorder,
    ) -> LmonResult<LaunchOutcome> {
        let cookie = self.sessions.lock().get(session)?.cookie;

        // The master daemon's LMONP channel: a logical session over the one
        // physical FE↔BE link (one representative per component, §3.5 — and
        // one *channel* per component no matter how many sessions ride it).
        // Delivered to the master through the wrapped body. The FE side is
        // Arc'd so the usrdata API can block on it without holding the
        // runtimes lock.
        let id = mux_id(session)?;
        let fe_chan: Arc<dyn MsgChannel> = {
            let ep = self.be_mux.open(id)?;
            match self.handshake_fault.lock().take() {
                Some(plan) => Arc::new(FaultyChannel::new(ep, plan)),
                None => Arc::new(ep),
            }
        };
        let be_chan = Box::new(self.be_mux_far.open(id)?);
        let wrapped = wrap_be_main(be_main, be_chan, timeline.clone());

        timeline.mark(CriticalEvent::E1EngineInvoked);
        let cmd = spawn_command(wire, &daemon, &cookie, wrapped, Some(timeline.clone()));
        // Pipelined exchange on its own reply channel: the engine streams
        // the RPDTAB reply *before* it spawns daemons, so the FE stages its
        // half of the BE handshake against the spawn instead of after it.
        // The session leaves `Created` only once the first reply arrives,
        // so a failed send (or reply timeout) leaves it retryable. Returning
        // early drops the exchange: a launch whose RPDTAB reply then fails
        // to send kills its job instead of spawning daemons.
        let exchange = self.engine.begin_exchange(cmd)?;
        let rpdtab_reply = exchange.next(self.hs_timeout())?;
        self.transition(session, SessionState::EngineAttached)?;
        self.expect_reply(&rpdtab_reply, MsgType::EngineRpdtab)?;
        let rpdtab: Rpdtab = rpdtab_reply.decode_lmon()?;
        // Keep the engine-encoded bytes: BeRpdtab (and later MwRpdtab)
        // forward this exact refcounted view instead of re-encoding the
        // table — O(tasks) serialization happens once per launch, in the
        // engine.
        let rpdtab_bytes = rpdtab_reply.lmon.clone();
        self.transition(session, SessionState::JobStopped)?;
        {
            let mut sessions = self.sessions.lock();
            let entry = sessions.get_mut(session)?;
            entry.rpdtab = Some(rpdtab.clone());
        }
        if let Some(rt) = self.runtimes.lock().get_mut(&session) {
            rt.rpdtab_bytes = Some(rpdtab_bytes.clone());
        }

        // Overlap window: while the engine is still spawning daemons, run
        // the pack callback and wait for the master's hello (the master is
        // the first daemon up and greets us while its siblings spawn). The
        // spawn ack is drained opportunistically between hello polls so an
        // engine-side spawn failure aborts the wait instead of timing out.
        let packed = self.packed(session);
        const POLL_SLICE: Duration = Duration::from_millis(2);
        let deadline = std::time::Instant::now() + self.hs_timeout();
        let mut ack_reply: Option<LmonpMsg> = None;
        let hello_msg = loop {
            if let Some(msg) = fe_chan.recv_timeout(POLL_SLICE)? {
                break msg;
            }
            if ack_reply.is_none() {
                if let Some(reply) = exchange.poll(POLL_SLICE)? {
                    self.expect_reply(&reply, MsgType::EngineAck)?;
                    ack_reply = Some(reply);
                }
            }
            if std::time::Instant::now() >= deadline {
                return Err(LmonError::Timeout("waiting for BE hello"));
            }
        };
        handshake::BE.verify_hello(hello_msg, &cookie)?;

        // The spawn ack gates the rest: BeLaunchInfo carries the master
        // identity it delivers. Consume it now if the hello won the race.
        let ack = match ack_reply {
            Some(reply) => reply,
            None => {
                let reply = exchange.next(self.hs_timeout())?;
                self.expect_reply(&reply, MsgType::EngineAck)?;
                reply
            }
        };
        let master_info: DaemonInfo = ack.decode_lmon()?;
        let master_bytes = ack.lmon.clone();
        self.transition(session, SessionState::DaemonsSpawned)?;
        self.sessions.lock().get_mut(session)?.be_count = master_info.size as usize;

        // Serialized remainder of the BE handshake (e7..e10). e7 lands
        // after the spawn ack — hence after e6 — keeping the critical path
        // ordered; the hello exchange above typically ran inside the spawn
        // window, which is exactly the pipelining gain.
        timeline.mark(CriticalEvent::E7HandshakeStart);
        // Ready comes back with optional piggybacked tool data for unpack.
        let ready = handshake::BE.deliver(
            fe_chan.as_ref(),
            &cookie,
            master_bytes,
            packed,
            rpdtab_bytes,
            self.hs_timeout(),
        )?;
        if !ready.usr.is_empty() {
            if let Some(rt) = self.runtimes.lock().get(&session) {
                if let Some(unpack) = rt.unpack.as_ref() {
                    unpack(&ready.usr);
                }
            }
        }
        timeline.mark(CriticalEvent::E10Ready);
        self.transition(session, SessionState::Ready)?;

        // Stash the channel for later usrdata traffic.
        if let Some(rt) = self.runtimes.lock().get_mut(&session) {
            rt.be_chan = Some(fe_chan);
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
    pub fn launch_mw_daemons(
        &self,
        session: SessionId,
        count: usize,
        fanout: u32,
        daemon: DaemonSpec,
        mw_main: MwMain,
    ) -> LmonResult<MwOutcome> {
        let cookie = self.sessions.lock().get(session)?.cookie;
        // Prefer the engine-encoded wire bytes stashed at launch; fall back
        // to encoding the decoded table (or an empty one) only when a
        // session never went through spawn_common.
        let rpdtab_bytes: lmon_proto::Bytes = self
            .runtimes
            .lock()
            .get(&session)
            .and_then(|rt| rt.rpdtab_bytes.clone())
            .unwrap_or_else(|| {
                let table = self
                    .sessions
                    .lock()
                    .get(session)
                    .ok()
                    .and_then(|s| s.rpdtab.clone())
                    .unwrap_or_else(Rpdtab::empty);
                LmonpMsg::of_type(MsgType::MwRpdtab).with_lmon(&table).lmon
            });

        // One logical MW session over the single FE↔MW link.
        let id = mux_id(session)?;
        let fe_chan: Arc<dyn MsgChannel> = Arc::new(self.mw_mux.open(id)?);
        let wrapped = wrap_mw_main(mw_main, Box::new(self.mw_mux_far.open(id)?));

        let req = SpawnMwRequest { count: count as u32, daemon: daemon.clone() };
        let wire = LmonpMsg::of_type(MsgType::FeSpawnMwReq).with_tag(id).with_lmon(&req);
        let cmd = spawn_command(wire, &daemon, &cookie, wrapped, None);
        // The ack lists the daemons where the RM actually placed them, in
        // rank order (the allocator hands out the lowest free nodes, which
        // need not be contiguous).
        let ack = self.engine_reply(cmd)?;
        self.expect_reply(&ack, MsgType::EngineAck)?;
        let placed: Vec<DaemonInfo> = get_seq(&mut &ack.lmon[..])?;
        let master_info =
            placed.first().cloned().ok_or(LmonError::Engine("MW ack places no daemon".into()))?;

        let hello_msg = fe_chan
            .recv_timeout(self.hs_timeout())?
            .ok_or(LmonError::Timeout("waiting for MW hello"))?;
        handshake::MW.verify_hello(hello_msg, &cookie)?;

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

        if let Some(rt) = self.runtimes.lock().get_mut(&session) {
            rt.mw_chan = Some(fe_chan);
        }
        self.sessions.lock().get_mut(session)?.mw_count = master_info.size as usize;

        Ok(MwOutcome { daemon_count: master_info.size as usize, master: master_info })
    }

    /// `LMON_fe_getProctable`.
    pub fn get_proctable(&self, session: SessionId) -> LmonResult<Rpdtab> {
        self.sessions
            .lock()
            .get(session)?
            .rpdtab
            .clone()
            .ok_or(LmonError::BadSessionState { expected: "JobStopped+", actual: "no RPDTAB" })
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

    /// `LMON_fe_detach`: shut daemons down, leave the job running.
    pub fn detach(&self, session: SessionId) -> LmonResult<()> {
        // Order daemons to shut down.
        if let Ok(chan) = self.master_channel(session, |rt| &rt.be_chan) {
            let _ = chan.send(LmonpMsg::of_type(MsgType::BeShutdown));
        }
        // Tell the engine to release the job.
        let wire = LmonpMsg::of_type(MsgType::FeDetachReq).with_tag(mux_id(session)?);
        let reply = self.engine_reply(EngineCommand::control(wire))?;
        self.expect_status(&reply, JobStatus::Detached)?;
        self.transition(session, SessionState::Detached)?;
        self.close_session_channels(session);
        Ok(())
    }

    /// `LMON_fe_kill`: destroy the job and all daemons.
    pub fn kill(&self, session: SessionId) -> LmonResult<()> {
        let wire = LmonpMsg::of_type(MsgType::FeKillReq).with_tag(mux_id(session)?);
        let reply = self.engine_reply(EngineCommand::control(wire))?;
        self.expect_status(&reply, JobStatus::Killed)?;
        self.transition(session, SessionState::Killed)?;
        self.close_session_channels(session);
        Ok(())
    }

    /// The session's critical-path recorder.
    pub fn timeline(&self, session: SessionId) -> LmonResult<TimelineRecorder> {
        self.session_timeline(session)
    }

    /// Current session state.
    pub fn session_state(&self, session: SessionId) -> LmonResult<SessionState> {
        Ok(self.sessions.lock().get(session)?.state)
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
    /// runtimes lock before the caller blocks on it.
    fn master_channel(
        &self,
        session: SessionId,
        which: fn(&FeSessionRt) -> &Option<Arc<dyn MsgChannel>>,
    ) -> LmonResult<Arc<dyn MsgChannel>> {
        let runtimes = self.runtimes.lock();
        let rt = runtimes.get(&session).ok_or(LmonError::NoSuchSession(session.0))?;
        which(rt).clone().ok_or(LmonError::BadSessionState {
            expected: "daemons launched",
            actual: "no master channel",
        })
    }

    /// The session's pack callback's output, piggybacked on launch info.
    fn packed(&self, session: SessionId) -> Vec<u8> {
        let runtimes = self.runtimes.lock();
        runtimes
            .get(&session)
            .and_then(|rt| rt.pack.as_ref())
            .map(|pack| pack())
            .unwrap_or_default()
    }

    /// Drop a terminal session's mux endpoints so its logical sub-streams
    /// close (the peer sees a clean per-session disconnect) and the mux
    /// accounting reflects only live sessions. Health state is retired into
    /// the bounded ledger tier at the same moment: a front end that serves
    /// millions of sessions must not keep per-session state for dead ones.
    fn close_session_channels(&self, session: SessionId) {
        if let Some(rt) = self.runtimes.lock().get_mut(&session) {
            rt.be_chan = None;
            rt.mw_chan = None;
            // The pack/unpack closures can capture arbitrarily large tool
            // state; a detached session must not pin it for daemon lifetime.
            rt.pack = None;
            rt.unpack = None;
            // Same for the O(tasks) encoded proctable view.
            rt.rpdtab_bytes = None;
        }
        // ... and for the decoded table: `get_proctable` on a terminal
        // session is a state error, not a read of a job that is gone.
        if let Ok(entry) = self.sessions.lock().get_mut(session) {
            entry.rpdtab = None;
        }
        self.health.lock().retire(session);
    }

    /// A command the engine answers with exactly one reply.
    fn engine_reply(&self, cmd: EngineCommand) -> LmonResult<LmonpMsg> {
        let replies = self.engine.exchange(cmd, 1, self.hs_timeout())?;
        replies.into_iter().next().ok_or(LmonError::Timeout("waiting for engine reply"))
    }

    fn session_timeline(&self, session: SessionId) -> LmonResult<TimelineRecorder> {
        self.sessions.lock().get(session)?;
        Ok(self.runtimes.lock().get(&session).map(|rt| rt.timeline.clone()).unwrap_or_default())
    }

    fn transition(&self, session: SessionId, next: SessionState) -> LmonResult<()> {
        self.sessions.lock().get_mut(session)?.transition(next)
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

    fn expect_status(&self, reply: &LmonpMsg, want: JobStatus) -> LmonResult<()> {
        if reply.error || reply.mtype == MsgType::EngineError {
            return Err(LmonError::Engine(String::from_utf8_lossy(&reply.lmon).into_owned()));
        }
        let got = JobStatus::from_bytes(&reply.lmon)?;
        if got != want {
            return Err(LmonError::Engine(format!("expected status {want:?}, got {got:?}")));
        }
        Ok(())
    }
}

/// The session's logical id on the wire: both the LMONP correlation tag and
/// the mux sub-stream id are u16, so a front end supports at most 65 536
/// sessions over its lifetime — rejected explicitly rather than truncated,
/// which would silently collide two sessions' traffic and close frames.
fn mux_id(session: SessionId) -> LmonResult<u16> {
    u16::try_from(session.0).map_err(|_| {
        LmonError::Engine(format!(
            "session {} exceeds the u16 mux/tag space; recycle the front end",
            session.0
        ))
    })
}

/// The engine command for a spawn-bearing request. The daemon image rides
/// in the sidecar; the session cookie joins the daemons' environment, the
/// RM's launch channel being the one secure path onto the compute nodes.
fn spawn_command(
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
    EngineCommand { msg, sidecar }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The long-lived-daemon regression (ISSUE 7): 10k sessions that each
    /// record health and then detach must leave only the bounded retired
    /// tier behind — not 10k monitors.
    #[test]
    fn health_ledger_memory_bounded_across_10k_record_detach_cycles() {
        let mut ledger = HealthLedger::new();
        for i in 0..10_000u32 {
            let session = SessionId(i);
            ledger.record(session, HealthState::Degraded, 0, format!("fault in {i}"));
            ledger.record(session, HealthState::Healed, 1, "repaired".into());
            ledger.retire(session);
        }
        let s = ledger.summary();
        assert_eq!(s.live_sessions, 0, "every detached session left the live tier");
        assert_eq!(s.retired_sessions, RETIRED_HEALTH_CAP, "retired tier is bounded");
        assert_eq!(s.transitions_retained, RETIRED_HEALTH_CAP * 2);
        assert_eq!(s.transitions_recorded, 20_000);
        assert_eq!(s.transitions_dropped, 20_000 - (RETIRED_HEALTH_CAP as u64) * 2);
        // Recently ended sessions remain queryable; ancient ones are gone.
        assert_eq!(
            ledger.monitor(SessionId(9_999)).map(|m| m.current()),
            Some(HealthState::Healed)
        );
        assert!(ledger.monitor(SessionId(0)).is_none());
    }

    /// Per-session flapping is bounded by the monitor ring even while the
    /// session stays live.
    #[test]
    fn live_session_history_is_ring_bounded() {
        use crate::health::DEFAULT_HISTORY_CAP;
        let mut ledger = HealthLedger::new();
        let session = SessionId(7);
        for epoch in 0..1_000u64 {
            ledger.record(session, HealthState::Degraded, epoch, "flap".into());
        }
        let m = ledger.monitor(session).unwrap();
        assert_eq!(m.retained(), DEFAULT_HISTORY_CAP);
        assert_eq!(m.dropped_total(), 1_000 - DEFAULT_HISTORY_CAP as u64);
    }
}
