//! The paper's fd-wall fix as a structural invariant (ISSUE 3 acceptance):
//! a 512-node, multi-session launch holds at most **one physical channel
//! per component pair**, asserted through live `SessionMux` accounting
//! rather than documentation.

use std::sync::Arc;

use launchmon::cluster::config::ClusterConfig;
use launchmon::cluster::VirtualCluster;
use launchmon::core::be::BeMain;
use launchmon::core::fe::LmonFrontEnd;
use launchmon::core::mw::MwMain;
use launchmon::proto::payload::DaemonSpec;
use launchmon::rm::api::ResourceManager;
use launchmon::rm::SlurmRm;

/// Three concurrent 512-daemon sessions (1536 live tool daemons) on one
/// front end: the BE component pair still holds exactly one physical
/// channel, with three logical sub-streams riding it.
#[test]
fn multi_session_512_node_launch_holds_one_channel_per_component_pair() {
    const NODES: usize = 512;
    const SESSIONS: usize = 3;

    // Nodes are shared across sessions via launch_and_spawn's own jobs —
    // each session launches its own app over the full cluster footprint.
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(NODES * SESSIONS));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
    let fe = LmonFrontEnd::init(rm).unwrap();

    let be_main: BeMain = Arc::new(|be| {
        be.barrier().unwrap();
        // Stay attached until the FE detaches, so all sessions overlap.
        let _ = be.wait_shutdown();
    });

    let mut sessions = Vec::new();
    for i in 0..SESSIONS {
        let session = fe.create_session();
        let outcome = fe
            .launch_and_spawn(
                session,
                &format!("app{i}"),
                &[],
                NODES,
                1,
                DaemonSpec::bare("d"),
                be_main.clone(),
            )
            .expect("512-daemon launch");
        assert_eq!(outcome.daemon_count, NODES);
        sessions.push(session);
    }

    // Every session is Ready simultaneously: the acceptance assertion.
    let stats = fe.transport_stats();
    assert_eq!(stats.be_sessions, SESSIONS, "all sessions live at once");
    assert!(
        stats.be_physical_links <= 1,
        "multi-session launch must hold ≤ 1 physical channel per component pair, saw {}",
        stats.be_physical_links
    );
    assert_eq!(stats.be_peak_sessions, SESSIONS);

    // Steady-state traffic on every sub-stream still works while they all
    // share the link.
    for &s in &sessions {
        fe.send_usrdata(s, vec![s.0 as u8; 16]).unwrap();
    }

    // No rsh connections anywhere: the daemons came up through the RM.
    assert_eq!(cluster.rsh_state().total_connects(), 0);

    for &s in &sessions {
        fe.detach(s).unwrap();
    }
    let stats = fe.transport_stats();
    assert_eq!(stats.be_sessions, 0, "detach closes each sub-stream");
    fe.shutdown().unwrap();
}

/// The MW component pair obeys the same invariant: BE *and* MW sessions
/// for one tool session ride one channel each, and an extra BE-only
/// session multiplexes onto the existing BE link.
#[test]
fn mw_sessions_share_one_channel_too() {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(24));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster));
    let fe = LmonFrontEnd::init(rm).unwrap();

    let be_main: BeMain = Arc::new(|be| {
        be.barrier().unwrap();
        let _ = be.wait_shutdown();
    });
    let session = fe.create_session();
    fe.launch_and_spawn(session, "app", &[], 8, 1, DaemonSpec::bare("d"), be_main.clone()).unwrap();

    let mw_main: MwMain = Arc::new(|mw| {
        mw.barrier().unwrap();
    });
    fe.launch_mw_daemons(session, 4, 2, DaemonSpec::bare("commd"), mw_main).unwrap();

    let second = fe.create_session();
    fe.launch_and_spawn(second, "app2", &[], 8, 1, DaemonSpec::bare("d"), be_main).unwrap();

    let stats = fe.transport_stats();
    assert_eq!(stats.be_sessions, 2);
    assert_eq!(stats.be_physical_links, 1);
    assert_eq!(stats.mw_sessions, 1);
    assert_eq!(stats.mw_physical_links, 1);

    // MW usrdata still flows over the shared MW link.
    fe.send_mw_usrdata(session, b"mw ping".to_vec()).unwrap();

    fe.detach(session).unwrap();
    fe.detach(second).unwrap();
    fe.shutdown().unwrap();
}
