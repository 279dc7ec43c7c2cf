//! Teardown frees what it kills: every process record has an owner that
//! removes it (job → `kill_job`, on a failed launch too, and before its
//! launcher has run; a job `lmond` launched → its session's `KILL`, never a
//! `DETACH`; session daemons and MW nodes → the engine's `end_session`, the
//! one teardown every way a session ends runs through: a kill or detach,
//! also during any spawn, MW included, and a failed or abandoned launch or
//! attach; a session's front-end record → its `kill` or `detach`, which a
//! failed launch or attach sends itself), and a record that leaves its
//! table releases its thread.
//! These are the accumulation defects D1–D3 as regressions: each test runs
//! many sessions on *one* cluster and checks that nothing is left behind;
//! one runs a single launch and STAT wave at 1 024 daemons instead.
//! The engine forwards the launcher's proctable bytes unbuilt, so the last
//! tests hold it to refusing a table `from_bytes` would refuse, killing the
//! job it started, and to forwarding the bytes it accepts unchanged.
//!
//! Thread counts are process-wide, so this file is its own test binary and
//! its tests take turns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use launchmon::cluster::config::ClusterConfig;
use launchmon::cluster::node::NodeId;
use launchmon::cluster::process::{Pid, ProcCtx, ProcSpec, ProcState};
use launchmon::cluster::trace::{TraceController, TraceEvent};
use launchmon::cluster::VirtualCluster;
use launchmon::core::be::BeMain;
use launchmon::core::engine::channel::{EngineCommand, EngineSidecar};
use launchmon::core::engine::Engine;
use launchmon::core::fe::{LmonFrontEnd, MwOutcome};
use launchmon::core::mw::MwMain;
use launchmon::core::session::{SessionId, SessionState};
use launchmon::core::LmonError;
use launchmon::daemon::{Daemon, DaemonConfig, Reply, Request};
use launchmon::proto::fault::FrameFaultPlan;
use launchmon::proto::payload::{DaemonSpec, LaunchRequest};
use launchmon::proto::wire::{WireDecode, WireEncode};
use launchmon::proto::{LmonpMsg, MsgType, Rpdtab};
use launchmon::rm::api::{
    Allocation, DaemonBody, JobHandle, JobSpec, ResourceManager, RmError, RmResult,
};
use launchmon::rm::{mpir, SlurmRm};
use launchmon::tools::stat::run_stat_launchmon;

static TURN: Mutex<()> = Mutex::new(());

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads: line");
    line.split_whitespace().nth(1).and_then(|n| n.parse().ok()).expect("thread count")
}

/// Finished daemons exit on their own time; a leak never does.
fn assert_threads_settle_to(limit: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() > limit {
        assert!(Instant::now() < deadline, "{what}: {} threads, expected <= {limit}", threads());
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The thread count once it has held still for 200 ms: the baseline a
/// warmed-up instance is compared against.
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

fn records(cluster: &VirtualCluster) -> usize {
    let compute: usize = cluster.compute_nodes().iter().map(|n| n.pids().len()).sum();
    cluster.front_end().pids().len() + compute
}

/// D1: a session's records used to stay in the tables for the life of the
/// cluster, so a node refused its 4096th process. Here the cap is 64 and
/// one session needs 9 entries per node.
#[test]
fn a_hundred_killed_sessions_fit_a_sixty_four_entry_process_table() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let config = ClusterConfig { proc_table_cap: 64, ..ClusterConfig::with_nodes(2) };
    let cluster = VirtualCluster::new(config);
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
    let fe = LmonFrontEnd::init(rm).unwrap();
    let be_main: BeMain = Arc::new(|be| be.barrier().unwrap());
    for i in 0..100 {
        let session = fe.create_session();
        let daemon = DaemonSpec::bare("toold");
        let outcome = fe
            .launch_and_spawn(session, "app", &[], 2, 8, daemon, be_main.clone())
            .unwrap_or_else(|e| panic!("launch {i}: {e}"));
        assert_eq!((outcome.rpdtab.len(), outcome.daemon_count), (16, 2));
        fe.kill(session).unwrap_or_else(|e| panic!("kill {i}: {e}"));
    }
    assert_eq!(records(&cluster), 1, "only the engine's record outlives its sessions");
    fe.shutdown().unwrap();
}

/// A launch that fails after `launch_job` used to drop the job's handle: its
/// launcher and tasks stayed in the tables and its allocation stayed held,
/// so every later launch failed too. Here each node's table fits the job's
/// 4 tasks but not a daemon beside them, so every launch fails at the spawn,
/// with the engine's reason. The front end waits for the spawn ack before
/// the master's hello, so it sees the failure only after the engine has
/// ended the session: the count is sampled, not awaited.
#[test]
fn failed_launches_kill_the_jobs_they_started() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let config = ClusterConfig { proc_table_cap: 4, ..ClusterConfig::with_nodes(2) };
    let cluster = VirtualCluster::new(config);
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
    let fe = LmonFrontEnd::init(rm).unwrap();
    let be_main: BeMain = Arc::new(|be| be.barrier().unwrap());
    for i in 0..10 {
        let session = fe.create_session();
        let daemon = DaemonSpec::bare("toold");
        let launched = fe.launch_and_spawn(session, "app", &[], 2, 4, daemon, be_main.clone());
        match launched {
            Err(LmonError::Engine(why)) if why.contains("spawn daemons") => {}
            other => panic!("launch {i}: the daemons cannot fit, but got {other:?}"),
        }
        assert_eq!(records(&cluster), 1, "launch {i} left its job behind");
    }
    fe.shutdown().unwrap();
}

/// A launch whose front end gave up before the RPDTAB reply used to run on:
/// its reply channel only reported "front end gone", so the engine stopped
/// the job, spawned the daemons and stored a session nobody knew about, and
/// the kill that came in first found no job to kill. The abandoned exchange
/// now makes the engine kill the job it started.
#[test]
fn a_launch_abandoned_before_its_rpdtab_gives_back_its_job() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let config =
        ClusterConfig { spawn_latency: Duration::from_millis(50), ..ClusterConfig::with_nodes(2) };
    let cluster = VirtualCluster::new(config);
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
    let fe = LmonFrontEnd::init(rm).unwrap();
    fe.set_handshake_timeout(Duration::from_millis(5));
    let be_main: BeMain = Arc::new(|be| be.barrier().unwrap());
    let session = fe.create_session();
    let daemon = DaemonSpec::bare("toold");
    let launched = fe.launch_and_spawn(session, "app", &[], 2, 4, daemon, be_main);
    assert!(launched.is_err(), "the launch cannot reach its RPDTAB in 5 ms");
    let _ = fe.kill(session);
    // Shutting down waits for the engine's in-flight launch to finish, so
    // the count below cannot be read before the launch has placed anything.
    fe.shutdown().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while records(&cluster) > 1 {
        assert!(Instant::now() < deadline, "{} records left", records(&cluster));
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A `LAUNCH` that failed after the engine placed its daemons (here: its
/// launch-info frames are lost, so the handshake times out) used to keep its
/// job, daemons and nodes for the front end's whole life: the failed session
/// had no owner left to kill it, and the next launch of the same size found
/// no free nodes.
#[test]
fn a_launch_that_fails_its_handshake_gives_back_its_nodes() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let config = DaemonConfig { backends: 1, cluster_nodes: 8, ..DaemonConfig::default() };
    let daemon = Daemon::new(config).expect("daemon");
    let fe = daemon.backend_fe(0).expect("backend 0");
    fe.set_handshake_timeout(Duration::from_millis(200));
    fe.install_handshake_fault_plan(FrameFaultPlan::new().drop_frame(0).drop_frame(1));
    let launch =
        Request::Launch { app: "app".into(), nodes: 8, tasks_per_node: 1, body: "sleeper".into() };
    let failed = daemon.dispatch(&launch);
    assert!(matches!(&failed, Reply::Err(why) if why.contains("launch failed")), "{failed:?}");
    assert_eq!(daemon.sessions_active(), 0);

    fe.set_handshake_timeout(Duration::from_secs(10)); // the fault plan was one-shot
    let relaunched = daemon.dispatch(&launch);
    let Reply::Ok(fields) = relaunched else {
        panic!("the failed launch kept its nodes: {relaunched:?}")
    };
    let gsid = fields.iter().find(|(k, _)| k == "gsid").expect("gsid").1.parse().unwrap();
    assert!(matches!(daemon.dispatch(&Request::Kill { gsid }), Reply::Ok(_)));
}

/// A kill that landed while the daemons spawned used to find no job: the
/// engine filed the job under its session only once the daemons were
/// placed, so the kill failed and the launch's 32 daemons, 32 tasks and
/// launcher stayed in the tables. The kill now stops the launch at its next
/// phase boundary and answers once the engine has torn it down. It also
/// used to wait for the whole spawn: 32 nodes at 50 ms are 4 waves of 8,
/// and the spawn now stops at the next wave, so not every daemon starts.
#[test]
fn a_kill_during_the_spawn_stops_the_launch_and_frees_what_it_placed() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let config =
        ClusterConfig { spawn_latency: Duration::from_millis(50), ..ClusterConfig::with_nodes(32) };
    let cluster = VirtualCluster::new(config);
    let rm = CountingRm::new(&cluster);
    let started = rm.started.clone();
    let fe = Arc::new(LmonFrontEnd::init(Arc::new(rm)).unwrap());
    let (baseline, before) = (records(&cluster), settled_threads());
    let session = fe.create_session();
    let killer = {
        let fe = fe.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(10);
            while fe.session_state(session).unwrap() != SessionState::JobStopped {
                assert!(Instant::now() < deadline, "the launch never reached JobStopped");
                std::thread::sleep(Duration::from_millis(1));
            }
            fe.kill(session)
        })
    };
    let be_main: BeMain = Arc::new(|be| be.barrier().unwrap());
    let daemon = DaemonSpec::bare("toold");
    let launched = fe.launch_and_spawn(session, "app", &[], 32, 1, daemon, be_main);
    let killed = killer.join().unwrap();
    assert!(killed.is_ok(), "the kill found the launch: {killed:?}");
    assert!(launched.is_err(), "a killed launch does not come up");
    assert_eq!(fe.session_state(session).unwrap(), SessionState::Killed);
    await_records(&cluster, baseline);
    assert_threads_settle_to(before, "after a kill during the spawn");
    let started = started.load(Ordering::SeqCst);
    assert!(started < 32, "the kill waited for the whole spawn: {started} daemons started");
    Arc::into_inner(fe).unwrap().shutdown().unwrap();
}

/// A middleware master whose handshake failed used to return without a
/// word to its siblings, which stayed parked in their first broadcast for
/// good: every sibling holds a sender to every other, so no inbox ever
/// disconnects, and a kill removes records, not threads. Here the front end
/// gives up on the spawn ack after 10 ms of a 50 ms spawn, so the master
/// finds its front-end link gone; it now lets its siblings go.
#[test]
fn a_failed_mw_handshake_lets_the_masters_siblings_go() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let config =
        ClusterConfig { spawn_latency: Duration::from_millis(50), ..ClusterConfig::with_nodes(8) };
    let cluster = VirtualCluster::new(config);
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
    let fe = LmonFrontEnd::init(rm).unwrap();
    let before = settled_threads();
    fe.set_handshake_timeout(Duration::from_millis(10));
    let session = fe.create_session();
    let mw_main: MwMain = Arc::new(|mw| mw.barrier().unwrap());
    let launched = fe.launch_mw_daemons(session, 4, 2, DaemonSpec::bare("commd"), mw_main);
    assert!(launched.is_err(), "a 50 ms spawn cannot ack in 10 ms");
    let _ = fe.kill(session);
    assert_threads_settle_to(before, "after a failed MW handshake and its kill");
    fe.shutdown().unwrap();
}

/// A kill during a middleware spawn used to find no engine entry: the
/// engine filed only launches and attaches when they arrived, and an MW
/// spawn's nodes joined its session once the spawn had returned. The kill
/// failed with "no job", and the spawn's daemons and nodes stayed for good,
/// so a tool that retried ran out of nodes. The spawn is now filed like a
/// launch: the kill ends it, and the session gives back what it placed.
/// The spawn is held until the kill has reached the engine, so the front
/// end gives up on it first and the kill always lands during it.
#[test]
fn a_kill_during_an_mw_only_spawn_frees_its_daemons_and_nodes() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(8));
    let rm = Arc::new(CountingRm::new(&cluster));
    let fe = LmonFrontEnd::init(rm.clone()).unwrap();
    let (baseline, before) = (records(&cluster), settled_threads());
    let mw_main: MwMain = Arc::new(|mw| mw.barrier().unwrap());
    let commd = || DaemonSpec::bare("commd");
    let _held = rm.hold_next_mw_spawn();
    fe.set_handshake_timeout(Duration::from_millis(10));
    let session = fe.create_session();
    let launched = fe.launch_mw_daemons(session, 4, 2, commd(), mw_main.clone());
    assert!(launched.is_err(), "a held spawn cannot ack");
    fe.set_handshake_timeout(Duration::from_secs(10));
    let killed = fe.kill(session);
    assert!(killed.is_ok(), "the kill found the MW spawn: {killed:?}");
    await_records(&cluster, baseline);
    assert_threads_settle_to(before, "after a kill during an MW spawn");

    // All 8 nodes are free again: a retry of the same size comes up, and
    // so does a second one held beside it.
    let retries: Vec<SessionId> = (0..2)
        .map(|i| {
            let retry = fe.create_session();
            let up = fe.launch_mw_daemons(retry, 4, 2, commd(), mw_main.clone());
            up.unwrap_or_else(|e| panic!("retry {i}: {e}"));
            retry
        })
        .collect();
    for retry in retries {
        fe.kill(retry).unwrap();
    }
    await_records(&cluster, baseline);
    fe.shutdown().unwrap();
}

type MwSpawn = std::thread::JoinHandle<Result<MwOutcome, LmonError>>;

/// Launch a 2 x 2 job with one daemon per node on an 8-node cluster, then
/// start a held 4-node MW spawn on its session and return once it has
/// started, with the records before the launch and the thread count the
/// spawn must settle back to.
fn an_mw_spawn_on_a_launched_session(
) -> (VirtualCluster, Arc<LmonFrontEnd>, SessionId, MwSpawn, usize, usize) {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(8));
    let rm = Arc::new(CountingRm::new(&cluster));
    let fe = Arc::new(LmonFrontEnd::init(rm.clone()).unwrap());
    let (baseline, before) = (records(&cluster), settled_threads());
    let session = fe.create_session();
    let be_main: BeMain = Arc::new(|be| be.barrier().unwrap());
    fe.launch_and_spawn(session, "app", &[], 2, 2, DaemonSpec::bare("toold"), be_main).unwrap();
    let started = rm.hold_next_mw_spawn();
    let spawn = {
        let fe = fe.clone();
        let mw_main: MwMain = Arc::new(|mw| mw.barrier().unwrap());
        std::thread::spawn(move || {
            fe.launch_mw_daemons(session, 4, 2, DaemonSpec::bare("commd"), mw_main)
        })
    };
    started.recv_timeout(Duration::from_secs(10)).expect("the MW spawn started");
    (cluster, fe, session, spawn, baseline, before)
}

/// Bring up `count` MW daemons on a fresh session and kill it.
fn mw_spawn_fits(fe: &LmonFrontEnd, count: usize) {
    let session = fe.create_session();
    let mw_main: MwMain = Arc::new(|mw| mw.barrier().unwrap());
    let up = fe.launch_mw_daemons(session, count, 2, DaemonSpec::bare("commd"), mw_main);
    up.unwrap_or_else(|e| panic!("a {count}-node MW spawn: {e}"));
    fe.kill(session).unwrap();
}

/// A kill that landed during an MW spawn on a launched session used to
/// answer at once and end the session without the spawn: its daemons and
/// nodes joined a fresh entry nobody would end. The kill now stops the
/// spawn and takes the job, its daemons and the MW nodes along.
#[test]
fn a_kill_during_an_mw_spawn_on_a_launched_session_frees_every_node() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (cluster, fe, session, spawn, baseline, before) = an_mw_spawn_on_a_launched_session();
    let killed = fe.kill(session);
    assert!(killed.is_ok(), "the kill found the session: {killed:?}");
    assert!(spawn.join().unwrap().is_err(), "a killed session's MW spawn does not come up");
    await_records(&cluster, baseline);
    assert_threads_settle_to(before, "after a kill during an MW spawn");
    mw_spawn_fits(&fe, 8);
    await_records(&cluster, baseline);
    Arc::into_inner(fe).unwrap().shutdown().unwrap();
}

/// A detach that lands during an MW spawn on a launched session ends the
/// daemons, back end and middleware alike, and gives the MW nodes back,
/// but leaves the job running: its launcher and 4 task records stay, and
/// so do its 2 nodes, so a 6-node MW spawn takes the rest.
#[test]
fn a_detach_during_an_mw_spawn_frees_the_mw_nodes_and_leaves_the_job() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (cluster, fe, session, spawn, baseline, before) = an_mw_spawn_on_a_launched_session();
    let detached = fe.detach(session);
    assert!(detached.is_ok(), "the detach found the session: {detached:?}");
    assert!(spawn.join().unwrap().is_err(), "a detached session's MW spawn does not come up");
    let job_records = baseline + 4 + 1; // tasks + launcher
    await_records(&cluster, job_records);
    assert_eq!(records(&cluster), job_records, "the detach took the job along");
    assert_threads_settle_to(before, "after a detach during an MW spawn");
    mw_spawn_fits(&fe, 6);
    await_records(&cluster, job_records);
    Arc::into_inner(fe).unwrap().shutdown().unwrap();
}

/// A thousand daemons, each placed by the RM's wave loop, come and go
/// without a trace: a 1 024 x 1 launch and kill, then an attach, STAT wave
/// and detach on a running job of that size, each leave the process tables
/// and the thread count where they found them. No timing is checked.
#[test]
fn a_thousand_daemon_launch_and_stat_wave_leave_nothing_behind() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1024));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
    let fe = LmonFrontEnd::init(rm.clone()).unwrap();
    let (baseline, before) = (records(&cluster), settled_threads());
    let session = fe.create_session();
    let be_main: BeMain = Arc::new(|be| be.barrier().unwrap());
    let daemon = DaemonSpec::bare("toold");
    let outcome = fe.launch_and_spawn(session, "app", &[], 1024, 1, daemon, be_main).unwrap();
    assert_eq!((outcome.rpdtab.len(), outcome.daemon_count), (1024, 1024));
    fe.kill(session).unwrap();
    await_records(&cluster, baseline);
    assert_threads_settle_to(before, "after a 1 024-daemon launch + kill");

    let job = rm.launch_job(&JobSpec::new("mpi_app", 1024, 1), false).unwrap();
    let job_records = baseline + 1024 + 1; // tasks + launcher
    await_records_up_to(&cluster, job_records);
    let stat = run_stat_launchmon(&fe, job.launcher_pid, 1024).unwrap();
    assert_eq!(stat.tree.rank_count(), 1024);
    await_records(&cluster, job_records);
    assert_eq!(records(&cluster), job_records, "detach took its daemons' records along");
    assert_threads_settle_to(before, "after a 1 024-daemon attach + STAT wave + detach");
    rm.kill_job(&job).unwrap();
    assert_eq!(records(&cluster), baseline);
    fe.shutdown().unwrap();
}

/// SLURM, counting the daemon bodies that ever start, and holding a
/// middleware spawn when asked to.
struct CountingRm {
    slurm: SlurmRm,
    started: Arc<AtomicUsize>,
    held: Mutex<Option<mpsc::Sender<()>>>,
}

impl CountingRm {
    fn new(cluster: &VirtualCluster) -> Self {
        let slurm = SlurmRm::new(cluster.clone());
        CountingRm { slurm, started: Arc::default(), held: Mutex::default() }
    }

    /// Hold the next `commd` spawn until the engine's stop check reports a
    /// kill or detach for its session (for 2 s at most), then place it as
    /// usual. The returned channel says when that spawn has started.
    fn hold_next_mw_spawn(&self) -> mpsc::Receiver<()> {
        let (started, rx) = mpsc::channel();
        *self.held.lock().unwrap() = Some(started);
        rx
    }
}

impl ResourceManager for CountingRm {
    fn name(&self) -> &'static str {
        self.slurm.name()
    }

    fn cluster(&self) -> &VirtualCluster {
        self.slurm.cluster()
    }

    fn launch_job(&self, spec: &JobSpec, under_tool: bool) -> RmResult<JobHandle> {
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
        let held = if exe == "commd" { self.held.lock().unwrap().take() } else { None };
        if let Some(started) = held {
            let _ = started.send(());
            let deadline = Instant::now() + Duration::from_secs(2);
            while !stop() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let started = self.started.clone();
        let counted: DaemonBody = Arc::new(move |ctx, ep| {
            started.fetch_add(1, Ordering::SeqCst);
            body(ctx, ep)
        });
        self.slurm.spawn_daemons(alloc, exe, args, env, counted, stop)
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

/// An attach that failed its handshake used to keep its daemons and its
/// trace: its four daemon records stayed, the next attach to the same
/// launcher was refused as already traced, and a `detach` tore the engine
/// side down and then refused to end the record. A failed attach now
/// detaches itself: its daemons go, its trace is dropped, the job runs on.
#[test]
fn an_attach_that_fails_its_handshake_leaves_only_the_job() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(4));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
    let job = rm.launch_job(&JobSpec::new("app", 4, 2), false).unwrap();
    let fe = LmonFrontEnd::init(rm).unwrap();
    let job_records = 8 + 2; // tasks + launcher + engine
    let deadline = Instant::now() + Duration::from_secs(10);
    while records(&cluster) < job_records {
        assert!(Instant::now() < deadline, "the job never started its tasks");
        std::thread::sleep(Duration::from_millis(5));
    }
    let before = settled_threads();
    let be_main: BeMain = Arc::new(|be| {
        let _ = be.wait_shutdown();
    });
    let attach = |session| {
        fe.attach_and_spawn(session, job.launcher_pid, DaemonSpec::bare("toold"), be_main.clone())
    };

    fe.set_handshake_timeout(Duration::from_millis(200));
    fe.install_handshake_fault_plan(FrameFaultPlan::new().drop_frame(0).drop_frame(1));
    let failed = fe.create_session();
    assert!(attach(failed).is_err(), "the handshake cannot finish");
    assert_eq!(fe.session_state(failed).unwrap(), SessionState::Detached);
    await_records(&cluster, job_records);
    assert_threads_settle_to(before, "after a failed attach");
    let job_tasks: usize = cluster
        .compute_nodes()
        .iter()
        .flat_map(|n| n.tasks())
        .filter(|b| b.job == job.job_id)
        .map(|b| b.count as usize)
        .sum();
    assert_eq!(job_tasks, 8, "the job's tasks run on");
    assert!(cluster.find_proc(job.launcher_pid).is_ok(), "the job's launcher runs on");

    fe.set_handshake_timeout(Duration::from_secs(10)); // the fault plan was one-shot
    let again = fe.create_session();
    attach(again).unwrap_or_else(|e| panic!("the failed attach kept its trace: {e}"));
    fe.detach(again).unwrap();
    await_records(&cluster, job_records);
    fe.shutdown().unwrap();

    // The same through `lmond`: the failed ATTACH files no session.
    let daemon = Daemon::new(DaemonConfig { backends: 1, ..DaemonConfig::default() }).unwrap();
    let runjob = Request::RunJob { app: "app".into(), nodes: 4, tasks_per_node: 2 };
    let Reply::Ok(fields) = daemon.dispatch(&runjob) else { panic!("runjob refused") };
    let pid = fields.iter().find(|(k, _)| k == "pid").expect("pid").1.parse().unwrap();
    let lmond_fe = daemon.backend_fe(0).expect("backend 0");
    lmond_fe.set_handshake_timeout(Duration::from_millis(200));
    lmond_fe.install_handshake_fault_plan(FrameFaultPlan::new().drop_frame(0).drop_frame(1));
    let attach = Request::Attach { pids: vec![pid], body: "sleeper".into() };
    assert!(matches!(daemon.dispatch(&attach), Reply::Err(_)));
    assert_eq!(daemon.sessions_active(), 0);
    lmond_fe.set_handshake_timeout(Duration::from_secs(10));
    let Reply::Ok(fields) = daemon.dispatch(&attach) else { panic!("the retried attach failed") };
    let gsid = fields.iter().find(|(k, _)| k == "gsids").expect("gsids").1.parse().unwrap();
    assert!(matches!(daemon.dispatch(&Request::Detach { gsid }), Reply::Ok(_)));
}

/// A front end used to refuse every launch after its 65 536th session: the
/// session's link id and the engine's session key were the u16 LMONP tag,
/// so a long-lived `lmond` backend stopped launching. Session B lives past
/// the u16 space; if its id were truncated it would alias A (session 0),
/// so A must still take traffic and be `Ready` after B is killed.
#[test]
fn a_front_end_serves_sessions_past_the_u16_id_space() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(4));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
    let fe = LmonFrontEnd::init(rm).unwrap();
    let baseline = records(&cluster);
    let be_main: BeMain = Arc::new(|be| {
        let _ = be.wait_shutdown();
    });
    let launch = |session| {
        fe.launch_and_spawn(session, "app", &[], 2, 1, DaemonSpec::bare("toold"), be_main.clone())
    };
    let a = fe.create_session();
    assert_eq!(a.0, 0);
    launch(a).unwrap_or_else(|e| panic!("launch A: {e}"));
    for _ in 0..65_535 {
        fe.create_session();
    }
    let b = fe.create_session();
    assert_eq!(b.0, 65_536);
    launch(b).unwrap_or_else(|e| panic!("launch B (session {}): {e}", b.0));
    fe.kill(b).unwrap_or_else(|e| panic!("kill B: {e}"));
    fe.send_usrdata(a, b"still mine".to_vec()).expect("A's link survives B");
    assert_eq!(fe.session_state(a).unwrap(), SessionState::Ready);
    fe.kill(a).unwrap_or_else(|e| panic!("kill A: {e}"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while records(&cluster) > baseline {
        assert!(Instant::now() < deadline, "{} records left", records(&cluster));
        std::thread::sleep(Duration::from_millis(5));
    }
    fe.shutdown().unwrap();
}

/// A front end used to keep every session it ever served: each session's
/// descriptor, runtime record and decoded RPDTAB stayed after its kill, so
/// a long-lived `lmond` backend grew by about half a kilobyte per session.
/// An ended session now leaves its record and stays readable only until
/// 64 newer sessions have ended too.
#[test]
fn a_front_end_forgets_ended_sessions() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(2));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
    let fe = LmonFrontEnd::init(rm).unwrap();
    let be_main: BeMain = Arc::new(|be| be.barrier().unwrap());
    let launch_and_kill = || {
        let session = fe.create_session();
        let daemon = DaemonSpec::bare("toold");
        fe.launch_and_spawn(session, "app", &[], 2, 2, daemon, be_main.clone())
            .unwrap_or_else(|e| panic!("launch {}: {e}", session.0));
        fe.kill(session).unwrap_or_else(|e| panic!("kill {}: {e}", session.0));
        session
    };
    let a = launch_and_kill();
    assert_eq!(fe.session_state(a).unwrap(), SessionState::Killed, "read-after-kill");
    let mut newest = a;
    for _ in 0..64 {
        newest = launch_and_kill();
    }
    assert!(matches!(fe.session_state(a), Err(LmonError::NoSuchSession(id)) if id == a.0));
    assert!(matches!(fe.get_proctable(a), Err(LmonError::NoSuchSession(_))));
    assert_eq!(fe.session_state(newest).unwrap(), SessionState::Killed);
    assert!(matches!(fe.get_proctable(newest), Err(LmonError::BadSessionState { .. })));
    assert_eq!(fe.transport_stats().be_sessions, 0, "no ended session holds a link");
    fe.shutdown().unwrap();
}

/// A running job used to park its launcher's thread until the job was
/// killed, and every kill paid for waking it. Once the job is up the
/// launcher keeps no thread: its record stays `Running` until `kill_job`.
/// A launch killed while stopped at `MPIR_Breakpoint` leaves nothing once
/// its tracer lets go.
#[test]
fn running_jobs_keep_no_launcher_thread() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(16));
    let rm = SlurmRm::new(cluster.clone());
    let (records_before, threads_before) = (records(&cluster), settled_threads());
    let jobs: Vec<_> =
        (0..8).map(|_| rm.launch_job(&JobSpec::new("app", 2, 4), false).unwrap()).collect();
    await_records_up_to(&cluster, records_before + 8 * (8 + 1));
    assert_threads_settle_to(threads_before, "with 8 untraced jobs running");
    for job in &jobs {
        let (_fe, launcher) = cluster.find_proc(job.launcher_pid).unwrap();
        assert_eq!(launcher.shared.state(), ProcState::Running, "{job:?}");
        let tracer = TraceController::attach(job.launcher_pid, launcher.shared.clone()).unwrap();
        assert_eq!(mpir::fetch_proctable(&tracer).unwrap().len(), 8, "its symbols stay readable");
    }
    for job in &jobs {
        rm.kill_job(job).unwrap();
    }
    assert_eq!(records(&cluster), records_before);

    let mut handle = rm.launch_job(&JobSpec::new("app", 2, 4), true).unwrap();
    let (_fe, launcher) = cluster.find_proc(handle.launcher_pid).unwrap();
    let tracer = TraceController::attach(handle.launcher_pid, launcher.shared.clone()).unwrap();
    mpir::set_being_debugged(&tracer, &launcher.shared);
    handle.release();
    loop {
        match tracer.wait_event(Duration::from_secs(10)).unwrap() {
            TraceEvent::Stopped { symbol } if symbol == mpir::MPIR_BREAKPOINT => break,
            _ => {}
        }
    }
    rm.kill_job(&handle).unwrap();
    drop(tracer); // detaching resumes the killed launcher, which returns
    assert_eq!(records(&cluster), records_before);
    assert_threads_settle_to(threads_before, "after a launch killed at MPIR_Breakpoint");
    assert_eq!(launcher.shared.state(), ProcState::Killed);
}

/// Wait until `cluster`'s tables hold `count` records.
fn await_records_up_to(cluster: &VirtualCluster, count: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while records(cluster) < count {
        assert!(Instant::now() < deadline, "{} records, expected {count}", records(cluster));
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A job killed before its launcher ran used to get its tasks anyway:
/// `kill_job` swept the nodes first, then dropping the handle opened the
/// gate and the launcher spawned into tables nobody would sweep again.
#[test]
fn a_job_killed_before_its_launcher_runs_leaves_no_tasks() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(2));
    let rm = SlurmRm::new(cluster.clone());
    let handle = rm.launch_job(&JobSpec::new("app", 2, 4), true).unwrap();
    let (_fe, launcher) = cluster.find_proc(handle.launcher_pid).unwrap();
    let tracer = TraceController::attach(handle.launcher_pid, launcher.shared.clone()).unwrap();
    rm.kill_job(&handle).unwrap();
    drop(handle); // opens the gate
    loop {
        match tracer.wait_event(Duration::from_secs(10)) {
            Ok(TraceEvent::Exited { .. }) => break,
            Ok(_) => {}
            Err(e) => panic!("the launcher never exited: {e}"),
        }
    }
    let compute: usize = cluster.compute_nodes().iter().map(|n| n.pids().len()).sum();
    assert_eq!(compute, 0, "the killed job's launcher spawned tasks");
}

/// `DETACH` of a session `lmond` launched used to be accepted: the daemons
/// left, the job's launcher stayed parked and its tasks stayed in the
/// tables, and no handle was left that could kill them. Detach is refused
/// there; the session stays until `KILL`.
#[test]
fn detaching_a_launched_session_is_refused_until_it_is_killed() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = Daemon::new(DaemonConfig::default()).expect("daemon");
    let cycle = || {
        let launch = Request::Launch {
            app: "app".into(),
            nodes: 2,
            tasks_per_node: 2,
            body: "oneshot".into(),
        };
        let Reply::Ok(fields) = daemon.dispatch(&launch) else { panic!("launch refused") };
        let gsid = fields.iter().find(|(k, _)| k == "gsid").expect("gsid").1.parse().unwrap();
        let refused = daemon.dispatch(&Request::Detach { gsid });
        assert!(matches!(&refused, Reply::Err(why) if why.contains("KILL")), "{refused:?}");
        assert!(matches!(daemon.dispatch(&Request::SessionStatus { gsid }), Reply::Ok(_)));
        assert_eq!(daemon.sessions_active(), 1);
        assert!(matches!(daemon.dispatch(&Request::Kill { gsid }), Reply::Ok(_)));
        assert_eq!(daemon.sessions_active(), 0);
    };
    cycle(); // lazy backend start is not a leak
    let before = settled_threads();
    for _ in 0..20 {
        cycle();
    }
    assert_threads_settle_to(before + 2, "after 20 launch → refused detach → kill cycles");
}

/// D2: a killed session's master used to return on the dead FE link without
/// relaying the shutdown, leaving its siblings parked in the broadcast.
#[test]
fn killed_sleeper_sessions_leave_no_parked_daemon_threads() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = Daemon::new(DaemonConfig::default()).expect("daemon");
    let launch_and_kill = || {
        let launch = Request::Launch {
            app: "app".into(),
            nodes: 8,
            tasks_per_node: 1,
            body: "sleeper".into(),
        };
        let Reply::Ok(fields) = daemon.dispatch(&launch) else { panic!("launch refused") };
        let gsid = fields.iter().find(|(k, _)| k == "gsid").expect("gsid").1.parse().unwrap();
        assert!(matches!(daemon.dispatch(&Request::Kill { gsid }), Reply::Ok(_)));
    };
    launch_and_kill(); // lazy backend start is not a leak
    let before = settled_threads();
    for _ in 0..50 {
        launch_and_kill();
    }
    assert_threads_settle_to(before + 2, "after 50 killed 8-node sleeper sessions");
}

/// D3: attach → detach used to pin every daemon's record, and with it the
/// daemon's thread stack, for the life of the cluster.
#[test]
fn fifty_stat_runs_on_one_job_leave_only_the_job_behind() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(4));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
    let job = rm.launch_job(&JobSpec::new("mpi_app", 4, 4), false).unwrap();
    let fe = LmonFrontEnd::init(rm).unwrap();
    // The first run also waits out the job's own start-up.
    let stat = run_stat_launchmon(&fe, job.launcher_pid, 4).unwrap();
    assert_eq!(stat.tree.rank_count(), 16);
    let job_records = 16 + 2; // tasks + launcher + engine
    assert_eq!(records(&cluster), job_records);
    let before = settled_threads();
    for _ in 0..50 {
        run_stat_launchmon(&fe, job.launcher_pid, 4).unwrap();
    }
    assert_eq!(records(&cluster), job_records, "detach took its daemons' records along");
    assert_threads_settle_to(before + 2, "after 50 attach → STAT → detach runs");
    fe.shutdown().unwrap();
}

/// What a stand-in launcher does to the proctable and size symbols the
/// job's real launcher published before publishing them itself.
type Tamper = Arc<dyn Fn(&mut Vec<u8>, &mut Vec<u8>) + Send + Sync>;

/// SLURM, except that the launcher the engine traces is a stand-in: it
/// waits for the job's real launcher to publish, passes the symbols through
/// `tamper`, publishes the result and stops at `MPIR_Breakpoint`. A kill
/// takes both launchers.
struct StandInRm {
    slurm: SlurmRm,
    tamper: Tamper,
    real_launchers: Mutex<HashMap<Pid, Pid>>,
}

impl StandInRm {
    fn new(cluster: &VirtualCluster, tamper: Tamper) -> Self {
        let slurm = SlurmRm::new(cluster.clone());
        StandInRm { slurm, tamper, real_launchers: Mutex::default() }
    }
}

impl ResourceManager for StandInRm {
    fn name(&self) -> &'static str {
        self.slurm.name()
    }

    fn cluster(&self) -> &VirtualCluster {
        self.slurm.cluster()
    }

    fn launch_job(&self, spec: &JobSpec, under_tool: bool) -> RmResult<JobHandle> {
        let mut handle = self.slurm.launch_job(spec, under_tool)?;
        let real = handle.launcher_pid;
        let (_fe, rec) =
            self.cluster().find_proc(real).map_err(|e| RmError::Cluster(e.to_string()))?;
        let tamper = self.tamper.clone();
        let stand_in = move |ctx: ProcCtx| {
            // The real launcher publishes once the engine opens the job's
            // gate, which it does after arming this launcher's breakpoint.
            let real_ctl = TraceController::attach(real, rec.shared.clone()).unwrap();
            while real_ctl.read_symbol(mpir::MPIR_DEBUG_STATE).is_err() {
                if ctx.killed() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut table = real_ctl.read_symbol(mpir::MPIR_PROCTABLE).unwrap();
            let mut size = real_ctl.read_symbol(mpir::MPIR_PROCTABLE_SIZE).unwrap();
            tamper(&mut table, &mut size);
            ctx.export_symbol(mpir::MPIR_PROCTABLE, table);
            ctx.export_symbol(mpir::MPIR_PROCTABLE_SIZE, size);
            ctx.export_symbol(mpir::MPIR_DEBUG_STATE, vec![mpir::MPIR_DEBUG_SPAWNED]);
            ctx.checkpoint(mpir::MPIR_BREAKPOINT);
            ctx.shared.wait_terminal();
        };
        let stand_in = self
            .cluster()
            .spawn_active(NodeId::FrontEnd, ProcSpec::named("srun"), stand_in)
            .map_err(|e| RmError::Cluster(e.to_string()))?;
        self.real_launchers.lock().unwrap().insert(stand_in, real);
        handle.launcher_pid = stand_in;
        Ok(handle)
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
        self.slurm.spawn_daemons(alloc, exe, args, env, body, stop)
    }

    fn allocate_mw_nodes(&self, count: usize) -> RmResult<Allocation> {
        self.slurm.allocate_mw_nodes(count)
    }

    fn release_allocation(&self, alloc: &Allocation) {
        self.slurm.release_allocation(alloc)
    }

    fn kill_job(&self, handle: &JobHandle) -> RmResult<()> {
        self.slurm.kill_job(handle)?;
        if let Some(real) = self.real_launchers.lock().unwrap().remove(&handle.launcher_pid) {
            self.cluster().front_end().kill_matching(|r| r.pid == real);
        }
        Ok(())
    }
}

fn await_records(cluster: &VirtualCluster, baseline: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while records(cluster) > baseline {
        assert!(Instant::now() < deadline, "{} records left", records(cluster));
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Launch 2 x 4 through a launcher that publishes what `tamper` makes of
/// its proctable. The engine must refuse the table, fail the launch with
/// an engine error and kill the job it started, launchers and tasks alike.
/// The failed launch has ended its session, so a later kill finds no job.
/// Returns the launch's error.
fn refused_launch(tamper: Tamper) -> String {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(2));
    let fe = LmonFrontEnd::init(Arc::new(StandInRm::new(&cluster, tamper))).unwrap();
    let baseline = records(&cluster);
    let be_main: BeMain = Arc::new(|be| be.barrier().unwrap());
    let session = fe.create_session();
    let daemon = DaemonSpec::bare("toold");
    let why = match fe.launch_and_spawn(session, "app", &[], 2, 4, daemon, be_main) {
        Err(LmonError::Engine(why)) => why,
        Err(other) => panic!("not an engine error: {other}"),
        Ok(_) => panic!("the engine accepted the table"),
    };
    await_records(&cluster, baseline);
    assert!(matches!(fe.kill(session), Err(LmonError::Engine(_))), "the engine has no job left");
    assert_eq!(fe.session_state(session).unwrap(), SessionState::Killed);
    fe.shutdown().unwrap();
    why
}

/// The engine forwards the launcher's table without building its rows, and
/// still refuses one `from_bytes` would: here the last row's host id is
/// out of range.
#[test]
fn a_launcher_publishing_a_corrupt_proctable_fails_the_launch_and_is_killed() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let why = refused_launch(Arc::new(|table, _size| {
        let host_id = table.len() - 20 + 4; // last row: rank, host id, exe id, pid
        table[host_id..host_id + 4].copy_from_slice(&999u32.to_be_bytes());
    }));
    assert!(why.contains("proctable decode"), "{why}");
}

/// The table is well formed, but `MPIR_proctable_size` claims one task more.
#[test]
fn a_launcher_whose_proctable_size_disagrees_fails_the_launch_and_is_killed() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let why = refused_launch(Arc::new(|_table, size| {
        let claimed = u32::from_be_bytes(size.as_slice().try_into().unwrap());
        *size = (claimed + 1).to_be_bytes().to_vec();
    }));
    assert!(why.contains("inconsistent"), "{why}");
}

/// Append an exe no row uses to an encoded table's exe list: still a valid
/// table, but not the one encoding its rows gives.
fn add_spare_exe(table: &mut Vec<u8>) {
    let word = |t: &[u8], at: usize| u32::from_be_bytes(t[at..at + 4].try_into().unwrap());
    let skip_strings =
        |t: &[u8], at: usize| (0..word(t, at)).fold(at + 4, |at, _| at + 4 + word(t, at) as usize);
    let exes = skip_strings(table, 0);
    let rows = skip_strings(table, exes);
    let count = word(table, exes) + 1;
    table[exes..exes + 4].copy_from_slice(&count.to_be_bytes());
    table.splice(rows..rows, [0, 0, 0, 5].into_iter().chain(*b"spare"));
}

/// A launch's `EngineRpdtab` payload is the launcher's `MPIR_proctable`
/// symbol byte for byte — even an encoding that decoding the rows and
/// encoding them again would change.
#[test]
fn the_rpdtab_reply_is_the_launchers_proctable_bytes() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(4));
    let published = Arc::new(Mutex::new(Vec::new()));
    let seen = published.clone();
    let rm = StandInRm::new(
        &cluster,
        Arc::new(move |table, _size| {
            add_spare_exe(table);
            *seen.lock().unwrap() = table.clone();
        }),
    );
    let (engine, _pid) = Engine::spawn(Arc::new(rm)).unwrap();
    let baseline = records(&cluster);
    let session = engine.mint_session();
    let req = LaunchRequest {
        app_exe: "app".into(),
        app_args: Vec::new(),
        nodes: 4,
        tasks_per_node: 8,
        daemon: DaemonSpec::bare("toold"),
    };
    let msg = LmonpMsg::of_type(MsgType::FeLaunchReq).with_lmon(&req);
    let body: DaemonBody = Arc::new(|_ctx, _fabric| {});
    let sidecar = EngineSidecar { body: Some(body), ..EngineSidecar::default() };
    let wait = Duration::from_secs(10);
    let replies = engine.exchange(EngineCommand { session, msg, sidecar }, 2, wait).unwrap();
    let types: Vec<MsgType> = replies.iter().map(|r| r.mtype).collect();
    assert_eq!(types, [MsgType::EngineRpdtab, MsgType::EngineAck]);

    let published = published.lock().unwrap().clone();
    assert_eq!(replies[0].lmon, published);
    let reencoded = Rpdtab::from_bytes(&published).unwrap();
    assert_eq!(reencoded.len(), 32);
    assert_ne!(reencoded.to_bytes(), published, "a re-encode drops the spare exe");

    let kill = EngineCommand::control(session, LmonpMsg::of_type(MsgType::FeKillReq));
    engine.exchange(kill, 1, wait).unwrap();
    await_records(&cluster, baseline);
}
