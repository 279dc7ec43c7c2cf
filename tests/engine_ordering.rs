//! A kill or detach is served on the caller's thread, and a spawn-bearing
//! command is filed with the engine before `begin_exchange` queues it. So
//! an end sent right after a launch or attach always finds it, however
//! far the engine's worker has got, and program order on the caller's
//! thread is the only order that matters. A spawn-bearing command for a
//! session the engine did not mint, or has ended, is refused and places
//! nothing.
//!
//! Thread counts are process-wide, so this file is its own test binary and
//! its tests take turns.

use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use launchmon::cluster::config::ClusterConfig;
use launchmon::cluster::process::Pid;
use launchmon::cluster::VirtualCluster;
use launchmon::core::engine::channel::{EngineCommand, EngineEndpoint, EngineSidecar, Exchange};
use launchmon::core::engine::Engine;
use launchmon::core::session::SessionId;
use launchmon::proto::payload::{
    AttachRequest, DaemonSpec, JobStatus, LaunchRequest, SpawnMwRequest,
};
use launchmon::proto::wire::WireDecode;
use launchmon::proto::{LmonpMsg, MsgType};
use launchmon::rm::api::{Allocation, DaemonBody, JobHandle, JobSpec, ResourceManager, RmResult};
use launchmon::rm::SlurmRm;

static TURN: Mutex<()> = Mutex::new(());

const WAIT: Duration = Duration::from_secs(10);

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads: line");
    line.split_whitespace().nth(1).and_then(|n| n.parse().ok()).expect("thread count")
}

/// The thread count once it has held still for 200 ms.
fn settled_threads() -> usize {
    let (mut last, mut held) = (threads(), 0);
    while held < 40 {
        std::thread::sleep(Duration::from_millis(5));
        let now = threads();
        held = if now == last { held + 1 } else { 0 };
        last = now;
    }
    last
}

/// Wait, up to `WAIT`, until `now()` is at most `limit`.
fn settle_to(limit: usize, now: impl Fn() -> usize, what: &str) {
    let deadline = Instant::now() + WAIT;
    while now() > limit {
        assert!(Instant::now() < deadline, "{what}: {}, expected <= {limit}", now());
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn records(cluster: &VirtualCluster) -> usize {
    let compute: usize = cluster.compute_nodes().iter().map(|n| n.pids().len()).sum();
    cluster.front_end().pids().len() + compute
}

/// One held call: the next call through it waits until the test lets it go.
#[derive(Default)]
struct Gate(Mutex<Option<mpsc::Receiver<()>>>);

impl Gate {
    /// Hold the next call until the returned sender sends.
    fn hold_next(&self) -> mpsc::Sender<()> {
        let (release, gate) = mpsc::channel();
        *self.0.lock().unwrap() = Some(gate);
        release
    }

    /// Wait here if the test holds this call.
    fn pass(&self) {
        let gate = self.0.lock().unwrap().take();
        if let Some(gate) = gate {
            gate.recv_timeout(WAIT).expect("the test releases the call");
        }
    }
}

/// SLURM, with the next `launch_job` or `spawn_daemons` held until the test
/// lets it go.
struct GatedRm {
    slurm: SlurmRm,
    launches: Gate,
    spawns: Gate,
}

impl GatedRm {
    fn new(cluster: &VirtualCluster) -> Self {
        let slurm = SlurmRm::new(cluster.clone());
        GatedRm { slurm, launches: Gate::default(), spawns: Gate::default() }
    }
}

impl ResourceManager for GatedRm {
    fn name(&self) -> &'static str {
        self.slurm.name()
    }

    fn cluster(&self) -> &VirtualCluster {
        self.slurm.cluster()
    }

    fn launch_job(&self, spec: &JobSpec, under_tool: bool) -> RmResult<JobHandle> {
        self.launches.pass();
        self.slurm.launch_job(spec, under_tool)
    }

    fn spawn_daemons(
        &self,
        alloc: &Allocation,
        exe: &str,
        args: &[String],
        env: &[String],
        body: DaemonBody,
        stop: &dyn Fn() -> bool,
    ) -> RmResult<Vec<Pid>> {
        self.spawns.pass();
        self.slurm.spawn_daemons(alloc, exe, args, env, body, stop)
    }

    fn allocate_mw_nodes(&self, count: usize) -> RmResult<Allocation> {
        self.slurm.allocate_mw_nodes(count)
    }

    fn release_allocation(&self, alloc: &Allocation) {
        self.slurm.release_allocation(alloc)
    }

    fn kill_job(&self, handle: &JobHandle) -> RmResult<()> {
        self.slurm.kill_job(handle)
    }
}

/// A spawn-bearing command carrying `msg`, with a daemon body that returns.
fn spawn_command(session: SessionId, msg: LmonpMsg) -> EngineCommand {
    let body: DaemonBody = Arc::new(|_ctx, _fabric| {});
    let sidecar = EngineSidecar { body: Some(body), ..EngineSidecar::default() };
    EngineCommand { session, msg, sidecar }
}

/// The status an end's one reply carries.
fn status(end: &Exchange) -> JobStatus {
    let reply = end.next(WAIT).expect("the end is answered");
    assert_eq!(reply.mtype, MsgType::EngineStatus, "{:?}", String::from_utf8_lossy(&reply.lmon));
    JobStatus::from_bytes(&reply.lmon).expect("a job status")
}

/// Read a spawn-bearing exchange to its end: it must be an error, with no
/// spawn ack before it.
fn assert_ends_in_error(spawn: &Exchange) {
    loop {
        let reply = spawn.next(WAIT).expect("the spawn is answered");
        assert_ne!(reply.mtype, MsgType::EngineAck, "an ended session acked its spawn");
        if reply.error || reply.mtype == MsgType::EngineError {
            return;
        }
    }
}

/// A kill sent right after a launch, while the RM has not even started the
/// job: the kill waits for the launch's worker, which stops at its first
/// phase boundary and tears down the job it got. The kill answers `Killed`
/// and the launch an error, and every record and thread goes back.
#[test]
fn a_kill_sent_right_after_a_launch_stops_it() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(2));
    let rm = Arc::new(GatedRm::new(&cluster));
    let (engine, _pid) = Engine::spawn(rm.clone()).unwrap();
    let (baseline, before) = (records(&cluster), settled_threads());
    for _ in 0..3 {
        let session = engine.mint_session();
        let release = rm.launches.hold_next();
        let req = LaunchRequest {
            app_exe: "app".into(),
            app_args: Vec::new(),
            nodes: 2,
            tasks_per_node: 2,
            daemon: DaemonSpec::bare("toold"),
        };
        let msg = LmonpMsg::of_type(MsgType::FeLaunchReq).with_lmon(&req);
        let launch = engine.begin_exchange(spawn_command(session, msg)).unwrap();
        let kill = LmonpMsg::of_type(MsgType::FeKillReq);
        let kill = engine.begin_exchange(EngineCommand::control(session, kill)).unwrap();
        release.send(()).unwrap();
        assert_eq!(status(&kill), JobStatus::Killed);
        assert_ends_in_error(&launch);
        settle_to(baseline, || records(&cluster), "records after a kill sent with the launch");
    }
    settle_to(before, threads, "threads after kills sent with their launches");
}

/// The same for a detach sent right after an attach, with the attach's
/// daemon spawn held so that its worker cannot ack before the detach lands:
/// the detach answers `Detached`, the attach ends in an error, and the job
/// runs on, untraced.
#[test]
fn a_detach_sent_right_after_an_attach_stops_it() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(2));
    let rm = Arc::new(GatedRm::new(&cluster));
    let job = rm.launch_job(&JobSpec::new("app", 2, 2), false).unwrap();
    let (engine, _pid) = Engine::spawn(rm.clone()).unwrap();
    let job_records = 2 * 2 + 2; // tasks + launcher + engine
    let deadline = Instant::now() + WAIT;
    while records(&cluster) < job_records {
        assert!(Instant::now() < deadline, "the job never placed its tasks");
        std::thread::sleep(Duration::from_millis(5));
    }
    let before = settled_threads();
    let attach = |session| {
        let req = AttachRequest { launcher_pid: job.launcher_pid.0, daemon: DaemonSpec::bare("d") };
        let msg = LmonpMsg::of_type(MsgType::FeAttachReq).with_lmon(&req);
        engine.begin_exchange(spawn_command(session, msg)).unwrap()
    };
    let detach = |session| {
        let msg = LmonpMsg::of_type(MsgType::FeDetachReq);
        engine.begin_exchange(EngineCommand::control(session, msg)).unwrap()
    };
    for _ in 0..3 {
        let session = engine.mint_session();
        let release = rm.spawns.hold_next();
        let (attached, detached) = (attach(session), detach(session));
        release.send(()).unwrap();
        assert_eq!(status(&detached), JobStatus::Detached);
        assert_ends_in_error(&attached);
        settle_to(job_records, || records(&cluster), "records after a detach sent with the attach");
    }
    settle_to(before, threads, "threads after detaches sent with their attaches");

    // Each stopped attach let go of the launcher: the next one traces it,
    // places its daemons and acks.
    let session = engine.mint_session();
    let attached = attach(session);
    while attached.next(WAIT).expect("the attach is answered").mtype != MsgType::EngineAck {}
    assert_eq!(status(&detach(session)), JobStatus::Detached);
    settle_to(job_records, || records(&cluster), "records after the last detach");
    rm.kill_job(&job).unwrap();
}

/// A 2 × 2 launch request.
fn launch_msg() -> LmonpMsg {
    let req = LaunchRequest {
        app_exe: "app".into(),
        app_args: Vec::new(),
        nodes: 2,
        tasks_per_node: 2,
        daemon: DaemonSpec::bare("toold"),
    };
    LmonpMsg::of_type(MsgType::FeLaunchReq).with_lmon(&req)
}

/// Read a spawn-bearing exchange up to its ack.
fn await_ack(spawn: &Exchange) {
    while spawn.next(WAIT).expect("the spawn is answered").mtype != MsgType::EngineAck {}
}

/// End `session` with a kill or detach and return the status it reports.
fn end(engine: &EngineEndpoint, session: SessionId, mtype: MsgType) -> JobStatus {
    let msg = LmonpMsg::of_type(mtype);
    status(&engine.begin_exchange(EngineCommand::control(session, msg)).unwrap())
}

/// A front end checks its record, then sends: a kill that lands between
/// the two ends the session first. A spawn-bearing command that then
/// arrives for the ended id used to be filed afresh and acked, and what it
/// placed outlived every later kill. It is refused now, and places nothing.
fn a_spawn_on_an_ended_session_is_refused(spawn: MsgType) {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(4));
    let rm = Arc::new(SlurmRm::new(cluster.clone()));
    let (engine, _pid) = Engine::spawn(rm.clone()).unwrap();
    let baseline = records(&cluster);
    let session = engine.mint_session();
    await_ack(&engine.begin_exchange(spawn_command(session, launch_msg())).unwrap());
    assert_eq!(end(&engine, session, MsgType::FeKillReq), JobStatus::Killed);
    let msg = match spawn {
        MsgType::FeLaunchReq => launch_msg(),
        _ => {
            let req = SpawnMwRequest { count: 2, daemon: DaemonSpec::bare("commd") };
            LmonpMsg::of_type(MsgType::FeSpawnMwReq).with_lmon(&req)
        }
    };
    assert_ends_in_error(&engine.begin_exchange(spawn_command(session, msg)).unwrap());
    settle_to(baseline, || records(&cluster), "records after a spawn on an ended session");
    let nodes = rm.allocate_mw_nodes(4).expect("every node is free again");
    rm.release_allocation(&nodes);
}

#[test]
fn an_mw_spawn_on_an_ended_session_is_refused() {
    a_spawn_on_an_ended_session_is_refused(MsgType::FeSpawnMwReq);
}

#[test]
fn a_launch_on_an_ended_session_is_refused() {
    a_spawn_on_an_ended_session_is_refused(MsgType::FeLaunchReq);
}

/// The same for an attach sent after a detach: the job runs on, with no
/// daemon of the ended session beside it.
#[test]
fn an_attach_on_an_ended_session_is_refused() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(4));
    let rm = Arc::new(SlurmRm::new(cluster.clone()));
    let job = rm.launch_job(&JobSpec::new("app", 2, 2), false).unwrap();
    let (engine, _pid) = Engine::spawn(rm.clone()).unwrap();
    let job_records = 2 * 2 + 2; // tasks + launcher + engine
    let deadline = Instant::now() + WAIT;
    while records(&cluster) < job_records {
        assert!(Instant::now() < deadline, "the job never placed its tasks");
        std::thread::sleep(Duration::from_millis(5));
    }
    let session = engine.mint_session();
    let attach = || {
        let req = AttachRequest { launcher_pid: job.launcher_pid.0, daemon: DaemonSpec::bare("d") };
        let msg = LmonpMsg::of_type(MsgType::FeAttachReq).with_lmon(&req);
        engine.begin_exchange(spawn_command(session, msg)).unwrap()
    };
    await_ack(&attach());
    assert_eq!(end(&engine, session, MsgType::FeDetachReq), JobStatus::Detached);
    assert_ends_in_error(&attach());
    settle_to(job_records, || records(&cluster), "records after an attach on an ended session");
    rm.kill_job(&job).unwrap();
}

/// A spawn-bearing command that arrives while a kill waits on a placing
/// launch is refused: filing it would drop the kill's reply, and the
/// session would outlive the kill that was meant to end it.
#[test]
fn a_spawn_on_an_ending_session_is_refused() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(4));
    let rm = Arc::new(GatedRm::new(&cluster));
    let (engine, _pid) = Engine::spawn(rm.clone()).unwrap();
    let baseline = records(&cluster);
    let session = engine.mint_session();
    let release = rm.launches.hold_next();
    let launch = engine.begin_exchange(spawn_command(session, launch_msg())).unwrap();
    let kill = LmonpMsg::of_type(MsgType::FeKillReq);
    let kill = engine.begin_exchange(EngineCommand::control(session, kill)).unwrap();
    let req = SpawnMwRequest { count: 2, daemon: DaemonSpec::bare("commd") };
    let msg = LmonpMsg::of_type(MsgType::FeSpawnMwReq).with_lmon(&req);
    assert_ends_in_error(&engine.begin_exchange(spawn_command(session, msg)).unwrap());
    release.send(()).unwrap();
    assert_eq!(status(&kill), JobStatus::Killed);
    assert_ends_in_error(&launch);
    settle_to(baseline, || records(&cluster), "records after a spawn on an ending session");
}

/// A 2-daemon MW spawn request.
fn mw_msg() -> LmonpMsg {
    let req = SpawnMwRequest { count: 2, daemon: DaemonSpec::bare("commd") };
    LmonpMsg::of_type(MsgType::FeSpawnMwReq).with_lmon(&req)
}

/// Read a spawn-bearing exchange to its ack or its error, and return it.
fn outcome(spawn: &Exchange) -> LmonpMsg {
    loop {
        let reply = spawn.next(WAIT).expect("the spawn is answered");
        if reply.error || matches!(reply.mtype, MsgType::EngineAck | MsgType::EngineError) {
            return reply;
        }
    }
}

/// The text of a refusal: an error reply, which names its session.
fn refusal(reply: &LmonpMsg) -> String {
    assert!(reply.error && reply.mtype == MsgType::EngineError, "{:?}, not a refusal", reply.mtype);
    String::from_utf8_lossy(&reply.lmon).into_owned()
}

/// An MW spawn sent while the same session's launch is still placing used
/// to be taken beside it. It acked and made the session live, so a kill
/// ended the session at once, and the launch's job, released afterwards,
/// joined no record: its launcher, tasks and two nodes were never freed.
/// A session places one command at a time now, so the MW spawn is refused,
/// and the kill waits for the launch and frees everything it placed.
#[test]
fn an_mw_spawn_while_a_launch_places_is_refused() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(4));
    let rm = Arc::new(GatedRm::new(&cluster));
    let (engine, _pid) = Engine::spawn(rm.clone()).unwrap();
    let baseline = records(&cluster);
    let session = engine.mint_session();
    let release = rm.launches.hold_next();
    let launch = engine.begin_exchange(spawn_command(session, launch_msg())).unwrap();
    let mw = outcome(&engine.begin_exchange(spawn_command(session, mw_msg())).unwrap());
    let kill = LmonpMsg::of_type(MsgType::FeKillReq);
    let kill = engine.begin_exchange(EngineCommand::control(session, kill)).unwrap();
    release.send(()).unwrap();
    assert_eq!(status(&kill), JobStatus::Killed);
    assert_ends_in_error(&launch);
    settle_to(baseline, || records(&cluster), "records after a launch raced by an MW spawn");
    let nodes = rm.allocate_mw_nodes(4).expect("every node is free again");
    rm.release_allocation(&nodes);
    assert_eq!(refusal(&mw), format!("session {} is placing", session.0));
}

/// A second launch on a session whose launch acked used to ack as well, and
/// its job took the first one's place in the record: the kill then freed
/// only the second job. A launch or attach is refused once its session
/// holds a job. An MW spawn after the launch is still taken, the order a
/// tool's overlay uses, and the kill frees all of it.
#[test]
fn a_second_launch_on_a_live_session_is_refused() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(4));
    let rm = Arc::new(SlurmRm::new(cluster.clone()));
    let (engine, _pid) = Engine::spawn(rm.clone()).unwrap();
    let baseline = records(&cluster);
    let session = engine.mint_session();
    await_ack(&engine.begin_exchange(spawn_command(session, launch_msg())).unwrap());
    let again = outcome(&engine.begin_exchange(spawn_command(session, launch_msg())).unwrap());
    let mw = outcome(&engine.begin_exchange(spawn_command(session, mw_msg())).unwrap());
    assert_eq!(end(&engine, session, MsgType::FeKillReq), JobStatus::Killed);
    settle_to(baseline, || records(&cluster), "records after a second launch on a live session");
    let nodes = rm.allocate_mw_nodes(4).expect("every node is free again");
    rm.release_allocation(&nodes);
    assert_eq!(refusal(&again), format!("session {} holds a job", session.0));
    assert_eq!(mw.mtype, MsgType::EngineAck, "an MW spawn after the launch is taken");
}
