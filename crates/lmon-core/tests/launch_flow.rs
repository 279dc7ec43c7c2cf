//! End-to-end tests of the full LaunchMON flow on the virtual cluster:
//! engine + FE API + BE daemons + ICCL + LMONP handshake.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lmon_cluster::config::ClusterConfig;
use lmon_cluster::VirtualCluster;
use lmon_core::be::BeMain;
use lmon_core::fe::LmonFrontEnd;
use lmon_core::session::SessionState;
use lmon_core::timeline::CriticalEvent;
use lmon_proto::payload::DaemonSpec;
use lmon_rm::api::{JobSpec, ResourceManager};
use lmon_rm::SlurmRm;

fn front_end(nodes: usize) -> LmonFrontEnd {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(nodes));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster));
    LmonFrontEnd::init(rm).expect("front end init")
}

/// `launchAndSpawn` returns at BeReady, which daemons send *before* running
/// the tool body — so daemon-side effects need a bounded wait.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A daemon that checks its local proctable then idles until shutdown.
fn counting_daemon(started: Arc<AtomicUsize>, local_tasks_seen: Arc<AtomicUsize>) -> BeMain {
    Arc::new(move |be| {
        started.fetch_add(1, Ordering::SeqCst);
        local_tasks_seen.fetch_add(be.my_proctab().len(), Ordering::SeqCst);
        be.wait_shutdown().expect("shutdown broadcast");
    })
}

#[test]
fn launch_and_spawn_full_path() {
    let fe = front_end(4);
    let session = fe.create_session();

    let started = Arc::new(AtomicUsize::new(0));
    let tasks_seen = Arc::new(AtomicUsize::new(0));
    let outcome = fe
        .launch_and_spawn(
            session,
            "ring_app",
            &[],
            4,
            8,
            DaemonSpec::bare("tool_daemon"),
            counting_daemon(started.clone(), tasks_seen.clone()),
        )
        .expect("launchAndSpawn");

    assert_eq!(outcome.daemon_count, 4, "one daemon per node");
    assert_eq!(outcome.rpdtab.len(), 32, "4 nodes x 8 tasks");
    assert_eq!(outcome.rpdtab.host_count(), 4);
    wait_until("all daemons to start", || started.load(Ordering::SeqCst) == 4);
    wait_until("local proctables", || tasks_seen.load(Ordering::SeqCst) == 32);
    assert_eq!(fe.session_state(session).unwrap(), SessionState::Ready);

    // Critical path: every mark recorded, in order, with a breakdown.
    let tl = fe.timeline(session).unwrap();
    assert!(tl.is_complete_and_ordered(), "e0..e11 all marked in order");
    let b = outcome.breakdown.expect("breakdown");
    assert!(b.total >= b.t_job + b.t_rpdtab_fetch);

    fe.detach(session).expect("detach");
    assert_eq!(fe.session_state(session).unwrap(), SessionState::Detached);
    fe.shutdown().unwrap();
}

#[test]
fn attach_and_spawn_against_running_job() {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(3));
    let rm_impl = Arc::new(SlurmRm::new(cluster));
    let rm: Arc<dyn ResourceManager> = rm_impl.clone();

    // A job launched *without* any tool, as a user would have.
    let job = rm.launch_job(&JobSpec::new("science_app", 3, 4), false).unwrap();

    let fe = LmonFrontEnd::init(rm.clone()).unwrap();
    let session = fe.create_session();
    let started = Arc::new(AtomicUsize::new(0));
    let tasks = Arc::new(AtomicUsize::new(0));
    let outcome = fe
        .attach_and_spawn(
            session,
            job.launcher_pid,
            DaemonSpec::bare("attach_daemon"),
            counting_daemon(started.clone(), tasks.clone()),
        )
        .expect("attachAndSpawn");

    assert_eq!(outcome.daemon_count, 3);
    assert_eq!(outcome.rpdtab.len(), 12);
    wait_until("all daemons to start", || started.load(Ordering::SeqCst) == 3);
    wait_until("local proctables", || tasks.load(Ordering::SeqCst) == 12);

    fe.kill(session).expect("kill");
    assert_eq!(fe.session_state(session).unwrap(), SessionState::Killed);
    fe.shutdown().unwrap();
}

#[test]
fn piggybacked_usrdata_reaches_daemons_and_back() {
    let fe = front_end(2);
    let session = fe.create_session();

    // FE→BE piggyback through the registered pack callback.
    fe.register_pack(session, Box::new(|| b"mrnet-topology-info".to_vec())).unwrap();

    let seen: Arc<parking_lot::Mutex<Vec<Vec<u8>>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    let be_main: BeMain = Arc::new(move |be| {
        seen2.lock().push(be.usrdata().to_vec());
        if be.am_i_master() {
            // BE→FE usrdata after startup (the jobsnap "work-done" shape).
            be.send_usrdata(b"work-done".to_vec()).unwrap();
        }
        be.wait_shutdown().unwrap();
    });

    fe.launch_and_spawn(session, "app", &[], 2, 2, DaemonSpec::bare("d"), be_main).expect("launch");

    let done = fe.recv_usrdata(session, Duration::from_secs(10)).expect("work-done");
    assert_eq!(done, b"work-done");

    // Every daemon (not just the master) received the piggybacked data.
    wait_until("daemon usrdata", || seen.lock().len() == 2);
    assert!(seen.lock().iter().all(|d| d == b"mrnet-topology-info"));

    fe.detach(session).unwrap();
    fe.shutdown().unwrap();
}

#[test]
fn fe_to_be_usrdata_flows_forward() {
    let fe = front_end(2);
    let session = fe.create_session();

    let got: Arc<parking_lot::Mutex<Vec<u8>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let got2 = got.clone();
    let be_main: BeMain = Arc::new(move |be| {
        if be.am_i_master() {
            let data = be.recv_usrdata(Duration::from_secs(10)).unwrap();
            *got2.lock() = data;
            be.send_usrdata(b"ack".to_vec()).unwrap();
        }
        be.wait_shutdown().unwrap();
    });
    fe.launch_and_spawn(session, "app", &[], 2, 1, DaemonSpec::bare("d"), be_main).unwrap();

    fe.send_usrdata(session, b"steering-command".to_vec()).unwrap();
    assert_eq!(fe.recv_usrdata(session, Duration::from_secs(10)).unwrap(), b"ack");
    assert_eq!(*got.lock(), b"steering-command");

    fe.detach(session).unwrap();
    fe.shutdown().unwrap();
}

#[test]
fn collectives_available_to_tool_daemons() {
    let fe = front_end(4);
    let session = fe.create_session();

    let sum: Arc<AtomicUsize> = Arc::new(AtomicUsize::new(0));
    let sum2 = sum.clone();
    let be_main: BeMain = Arc::new(move |be| {
        // Gather ranks at the master, then scatter rank*2 back out.
        let gathered = be.gather(vec![be.rank() as u8]).unwrap();
        let parts = gathered.map(|g| g.iter().map(|v| vec![v[0] * 2]).collect());
        let mine = be.scatter(parts).unwrap();
        sum2.fetch_add(mine[0] as usize, Ordering::SeqCst);
        be.barrier().unwrap();
        be.wait_shutdown().unwrap();
    });
    fe.launch_and_spawn(session, "app", &[], 4, 1, DaemonSpec::bare("d"), be_main).unwrap();

    // ranks 0..4 doubled: 0+2+4+6 = 12
    wait_until("scatter results", || sum.load(Ordering::SeqCst) == 12);
    fe.detach(session).unwrap();
    fe.shutdown().unwrap();
}

#[test]
fn kill_tears_down_job_and_daemons() {
    let fe = front_end(2);
    let session = fe.create_session();
    let be_main: BeMain = Arc::new(|_be| {
        // Exit immediately; daemons need not linger for kill to work.
    });
    let outcome =
        fe.launch_and_spawn(session, "app", &[], 2, 4, DaemonSpec::bare("d"), be_main).unwrap();
    assert_eq!(outcome.rpdtab.len(), 8);

    fe.kill(session).unwrap();
    // All tasks terminated.
    let cluster = fe.rm().cluster().clone();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let live: usize = cluster.compute_nodes().iter().map(|n| n.live_count()).sum();
        if live == 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "{live} processes still alive");
        std::thread::sleep(Duration::from_millis(5));
    }
    fe.shutdown().unwrap();
}

#[test]
fn timeline_regions_have_sane_shape() {
    let fe = front_end(4);
    let session = fe.create_session();
    let be_main: BeMain = Arc::new(|be| {
        be.wait_shutdown().unwrap();
    });
    let outcome =
        fe.launch_and_spawn(session, "app", &[], 4, 8, DaemonSpec::bare("d"), be_main).unwrap();
    let tl = fe.timeline(session).unwrap();
    // Handshake encloses setup (e8..e9 within e7..e10).
    let handshake = tl.between(CriticalEvent::E7HandshakeStart, CriticalEvent::E10Ready).unwrap();
    let setup = tl.between(CriticalEvent::E8SetupStart, CriticalEvent::E9SetupDone).unwrap();
    assert!(setup <= handshake);
    let b = outcome.breakdown.unwrap();
    assert_eq!(b.t_handshake, handshake);
    fe.detach(session).unwrap();
    fe.shutdown().unwrap();
}

#[test]
fn two_concurrent_sessions_are_isolated() {
    let fe = front_end(6);
    let s1 = fe.create_session();
    let s2 = fe.create_session();

    let idle: BeMain = Arc::new(|be| {
        be.wait_shutdown().unwrap();
    });
    let o1 = fe
        .launch_and_spawn(s1, "app_one", &[], 3, 2, DaemonSpec::bare("d1"), idle.clone())
        .unwrap();
    let o2 = fe.launch_and_spawn(s2, "app_two", &[], 3, 4, DaemonSpec::bare("d2"), idle).unwrap();

    assert_eq!(o1.rpdtab.len(), 6);
    assert_eq!(o2.rpdtab.len(), 12);
    assert_eq!(o1.rpdtab.entries()[0].exe, "app_one");
    assert_eq!(o2.rpdtab.entries()[0].exe, "app_two");
    // Disjoint node sets.
    let h1: std::collections::HashSet<_> = o1.rpdtab.hosts().into_iter().collect();
    let h2: std::collections::HashSet<_> = o2.rpdtab.hosts().into_iter().collect();
    assert!(h1.is_disjoint(&h2));

    fe.detach(s1).unwrap();
    fe.detach(s2).unwrap();
    fe.shutdown().unwrap();
}

#[test]
fn middleware_daemons_get_personalities_and_rpdtab() {
    let fe = front_end(6);
    let session = fe.create_session();

    let idle: BeMain = Arc::new(|be| {
        be.wait_shutdown().unwrap();
    });
    fe.launch_and_spawn(session, "app", &[], 3, 2, DaemonSpec::bare("be_d"), idle).unwrap();

    let roots = Arc::new(AtomicUsize::new(0));
    let with_tables = Arc::new(AtomicUsize::new(0));
    let (roots2, tables2) = (roots.clone(), with_tables.clone());
    let mw_main: lmon_core::mw::MwMain = Arc::new(move |mw| {
        if mw.personality().is_root() {
            roots2.fetch_add(1, Ordering::SeqCst);
        }
        if mw.proctable().len() == 6 {
            tables2.fetch_add(1, Ordering::SeqCst);
        }
        assert_eq!(mw.all_personalities().len(), mw.size() as usize);
        mw.barrier().unwrap();
    });
    let mw =
        fe.launch_mw_daemons(session, 3, 2, DaemonSpec::bare("commd"), mw_main).expect("mw launch");
    assert_eq!(mw.daemon_count, 3);

    // MW daemons ran to completion.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while with_tables.load(Ordering::SeqCst) < 3 {
        assert!(std::time::Instant::now() < deadline, "MW daemons never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(roots.load(Ordering::SeqCst), 1, "exactly one TBON root");

    fe.detach(session).unwrap();
    fe.shutdown().unwrap();
}

#[test]
fn wrong_cookie_fails_handshake() {
    // Covered by construction: the cookie rides the RM env and is verified
    // in FE::spawn_common. Simulate corruption by launching with a daemon
    // spec that overrides the env var with garbage.
    let fe = front_end(2);
    let session = fe.create_session();
    let mut daemon = DaemonSpec::bare("evil_d");
    // The daemon env gets LMON_SEC_COOKIE appended *after* user env, and
    // ProcSpec::env_get returns the first match — so pre-seeding the var
    // poisons the hello.
    daemon.env.push("LMON_SEC_COOKIE=0000000000000000:0001".to_string());
    let be_main: BeMain = Arc::new(|_be| {});
    let err = fe.launch_and_spawn(session, "app", &[], 2, 1, daemon, be_main).unwrap_err();
    assert!(
        matches!(err, lmon_core::error::LmonError::AuthFailed),
        "expected AuthFailed, got {err:?}"
    );
    fe.shutdown().unwrap();
}

/// Fixture for the two MW-placement regressions: on an 8-node cluster job
/// A takes nodes 0–1 and job B nodes 2–3; killing A leaves the allocator's
/// free list non-contiguous (0, 1, 4..), which is where a 3-daemon MW
/// launch for B then lands. Returns the front end and B's session.
fn fragmented_cluster_with_job_b() -> (LmonFrontEnd, lmon_core::SessionId) {
    let fe = front_end(8);
    let idle: BeMain = Arc::new(|be| {
        let _ = be.wait_shutdown(); // ends in an error when the session is killed
    });
    let a = fe.create_session();
    fe.launch_and_spawn(a, "job_a", &[], 2, 1, DaemonSpec::bare("d"), idle.clone()).unwrap();
    let b = fe.create_session();
    fe.launch_and_spawn(b, "job_b", &[], 2, 1, DaemonSpec::bare("d"), idle).unwrap();
    fe.kill(a).unwrap();
    (fe, b)
}

/// Regression: the FE used to re-derive MW hosts by counting up from the
/// master's hostname, which is only right on a contiguous allocation. The
/// engine's ack now says where the RM placed each daemon.
#[test]
fn mw_personalities_name_the_hosts_the_rm_placed_them_on() {
    let (fe, b) = fragmented_cluster_with_job_b();
    let (tx, rx) = std::sync::mpsc::channel();
    let tx = std::sync::Mutex::new(tx);
    let mw_main: lmon_core::mw::MwMain = Arc::new(move |mw| {
        let seen = (mw.rank(), mw.personality().host.clone(), mw.hostname().to_string());
        tx.lock().unwrap().send(seen).unwrap();
    });
    fe.launch_mw_daemons(b, 3, 2, DaemonSpec::bare("commd"), mw_main).expect("mw launch");
    for _ in 0..3 {
        let (rank, personality_host, actual_host) =
            rx.recv_timeout(Duration::from_secs(10)).expect("every MW daemon reports");
        assert_eq!(personality_host, actual_host, "rank {rank}'s personality names its own node");
    }
    fe.detach(b).unwrap();
    fe.shutdown().unwrap();
}

/// Regression: `FeKillReq` is "kill the job and all daemons", but only BE
/// pids were recorded against the session, so MW daemons outlived it.
#[test]
fn kill_reaches_middleware_daemons_too() {
    let (fe, b) = fragmented_cluster_with_job_b();
    let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let parked = release.clone();
    let mw_main: lmon_core::mw::MwMain = Arc::new(move |_mw| {
        while !parked.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2));
        }
    });
    fe.launch_mw_daemons(b, 3, 2, DaemonSpec::bare("commd"), mw_main).expect("mw launch");

    fe.kill(b).unwrap();
    let cluster = fe.rm().cluster().clone();
    let live = || cluster.compute_nodes().iter().map(|n| n.live_count()).sum::<usize>();
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while live() != 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let left = live();
    release.store(true, Ordering::SeqCst); // let the parked bodies' threads end
    assert_eq!(left, 0, "kill left processes alive on the compute nodes");
    fe.shutdown().unwrap();
}
