//! Teardown frees what it kills: every process record has an owner that
//! removes it (job → `kill_job`, on a failed launch too, and before its
//! launcher has run; a job `lmond` launched → its session's `KILL`, never a
//! `DETACH`, or `lmond` itself when the launch fails its handshake; session
//! daemons → the engine's `end_session`), and a record
//! that leaves its table releases its thread.
//! These are the accumulation defects D1–D3 as regressions: each test runs
//! many sessions on *one* cluster and checks that nothing is left behind.
//!
//! Thread counts are process-wide, so this file is its own test binary and
//! its tests take turns.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use launchmon::cluster::config::ClusterConfig;
use launchmon::cluster::trace::{TraceController, TraceEvent};
use launchmon::cluster::VirtualCluster;
use launchmon::core::be::BeMain;
use launchmon::core::fe::LmonFrontEnd;
use launchmon::core::session::SessionState;
use launchmon::daemon::{Daemon, DaemonConfig, Reply, Request};
use launchmon::proto::fault::FrameFaultPlan;
use launchmon::proto::payload::DaemonSpec;
use launchmon::rm::api::{JobSpec, ResourceManager};
use launchmon::rm::SlurmRm;
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
/// 4 tasks but not a daemon beside them, so every launch fails at the spawn.
/// The front end may see the failure (its master's link closing) before the
/// engine has killed the job, so the count is awaited, not sampled.
#[test]
fn failed_launches_kill_the_jobs_they_started() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let config = ClusterConfig { proc_table_cap: 4, ..ClusterConfig::with_nodes(2) };
    let cluster = VirtualCluster::new(config);
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
    let fe = LmonFrontEnd::init(rm).unwrap();
    let be_main: BeMain = Arc::new(|be| be.barrier().unwrap());
    let deadline = Instant::now() + Duration::from_secs(10);
    for i in 0..10 {
        let session = fe.create_session();
        let daemon = DaemonSpec::bare("toold");
        let launched = fe.launch_and_spawn(session, "app", &[], 2, 4, daemon, be_main.clone());
        assert!(launched.is_err(), "launch {i}: the daemons cannot fit");
        while records(&cluster) > 1 {
            assert!(Instant::now() < deadline, "launch {i} left {} records", records(&cluster));
            std::thread::sleep(Duration::from_millis(5));
        }
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
