//! Middleware-API tests beyond the launch path: MW usrdata both ways,
//! piggybacked bootstrap data and the distributed RPDTAB — the §3.4
//! surface a TBON implementation builds on.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lmon_cluster::config::ClusterConfig;
use lmon_cluster::VirtualCluster;
use lmon_core::be::BeMain;
use lmon_core::fe::LmonFrontEnd;
use lmon_core::mw::MwMain;
use lmon_proto::payload::DaemonSpec;
use lmon_rm::api::ResourceManager;
use lmon_rm::SlurmRm;

fn fe_with_job(job_nodes: usize, extra_nodes: usize) -> LmonFrontEnd {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(job_nodes + extra_nodes));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster));
    let fe = LmonFrontEnd::init(rm).unwrap();
    let session = fe.create_session();
    let idle: BeMain = Arc::new(|be| {
        be.wait_shutdown().unwrap();
    });
    fe.launch_and_spawn(session, "app", &[], job_nodes, 2, DaemonSpec::bare("bed"), idle)
        .expect("job launch");
    fe
}

#[test]
fn mw_usrdata_flows_both_directions() {
    let fe = fe_with_job(2, 3);
    let session = lmon_core::session::SessionId(0);
    // Piggybacked bootstrap data through the registered pack callback.
    fe.register_pack(session, Box::new(|| b"tbon-topology:1x3".to_vec())).unwrap();

    let mw_main: MwMain = Arc::new(move |mw| {
        assert_eq!(mw.usrdata(), b"tbon-topology:1x3", "piggyback reached daemon");
        if mw.am_i_master() {
            // Master reports back and then waits for a steering command.
            mw.send_usrdata(b"mw-bootstrapped".to_vec()).unwrap();
            let cmd = mw.recv_usrdata(Duration::from_secs(10)).unwrap();
            assert_eq!(cmd, b"reconfigure");
            mw.send_usrdata(b"reconfigured".to_vec()).unwrap();
        }
        mw.barrier().unwrap();
    });
    fe.launch_mw_daemons(session, 3, 2, DaemonSpec::bare("commd"), mw_main).expect("mw launch");

    // FE side of the MW usrdata conversation: the MW channel is stored per
    // session; drive it through the public recv/send on the session's MW
    // channel — exposed via recv_usrdata/send_usrdata? Those are BE-bound,
    // so the MW conversation goes through the MW-specific methods below.
    // (The FE API mirrors the BE flavors for MW via the same channel.)
    let hello = fe.recv_mw_usrdata(session, Duration::from_secs(10)).expect("mw hello");
    assert_eq!(hello, b"mw-bootstrapped");
    fe.send_mw_usrdata(session, b"reconfigure".to_vec()).expect("steer");
    let done = fe.recv_mw_usrdata(session, Duration::from_secs(10)).expect("ack");
    assert_eq!(done, b"reconfigured");
    fe.shutdown().unwrap();
}

#[test]
fn mw_proctable_matches_job() {
    let fe = fe_with_job(3, 2);
    let session = lmon_core::session::SessionId(0);
    let sizes = Arc::new(AtomicU32::new(0));
    let s2 = sizes.clone();
    let mw_main: MwMain = Arc::new(move |mw| {
        s2.fetch_add(mw.proctable().len() as u32, Ordering::SeqCst);
        mw.barrier().unwrap();
    });
    fe.launch_mw_daemons(session, 2, 2, DaemonSpec::bare("commd"), mw_main).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    // 2 MW daemons × 6 tasks each.
    while sizes.load(Ordering::SeqCst) < 12 {
        assert!(std::time::Instant::now() < deadline, "MW daemons never reported");
        std::thread::sleep(Duration::from_millis(2));
    }
    fe.shutdown().unwrap();
}
