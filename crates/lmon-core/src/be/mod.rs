//! The LaunchMON back-end API — what runs inside every tool daemon.
//!
//! §3.3: the BE API provides the daemon-side handshake plus "basic
//! collective communications for back-end daemons to propagate and to
//! gather launch and setup information. Since these collective services are
//! useful for other tool functionality, the BE API makes them available for
//! general use."
//!
//! A tool author writes a function over [`BeSession`], the back-end
//! instance of the one [`DaemonSession`], and LaunchMON runs it after the
//! shared bootstrap (`crate::daemon_session`) with the `Be*` message types.
//! No daemon walks the table's rows on the way: [`BeSession::my_proctab`]
//! builds this host's rows on its first call.

use std::sync::OnceLock;

use lmon_cluster::process::Pid;
use lmon_cluster::procfs::ProcSnapshot;
use lmon_proto::header::MsgType;
use lmon_proto::rpdtab::{ProcDesc, Rpdtab};

use crate::daemon_session::{DaemonClass, DaemonMain, DaemonSession};
use crate::error::{LmonError, LmonResult};
use crate::handshake::{self, Handshake, SHUTDOWN_SENTINEL};

/// A tool's daemon entry point.
pub type BeMain = DaemonMain<BackEnd>;

/// The session object handed to tool daemon code.
pub type BeSession = DaemonSession<BackEnd>;

/// What only a back-end daemon's session holds.
pub struct BackEnd {
    /// The rows on this daemon's host, built on first use.
    local: OnceLock<Rpdtab>,
}

impl DaemonSession<BackEnd> {
    /// Number of MPI tasks in the job (`proctable().len()`, without
    /// decoding the table).
    pub fn task_count(&self) -> usize {
        self.table.len()
    }

    /// The paper's `getMyProctab`: RPDTAB entries for tasks on this node.
    /// Built on the first call, by one walk of the table that keeps only
    /// this host's rows; a tool that never asks pays nothing.
    pub fn my_proctab(&self) -> Vec<&ProcDesc> {
        let local = self.class.local.get_or_init(|| {
            let bytes = self.table.bytes().clone();
            // The master checked these bytes whole before broadcasting them,
            // so this host's walk of them cannot fail.
            Rpdtab::local_from_bytes(bytes, &self.ctx.hostname).expect("checked RPDTAB walks").0
        });
        local.entries().iter().collect()
    }

    /// Read a `/proc` snapshot of a local process (Jobsnap's data source).
    pub fn read_local_proc(&self, pid: u64) -> LmonResult<ProcSnapshot> {
        self.ctx.cluster.read_proc(&self.ctx.hostname, Pid(pid)).map_err(LmonError::Cluster)
    }

    /// ICCL scatter from the master.
    pub fn scatter(&mut self, parts: Option<Vec<Vec<u8>>>) -> LmonResult<Vec<u8>> {
        self.comm.scatter(parts).map_err(LmonError::Iccl)
    }

    /// Block until the FE orders shutdown. Collective: every daemon calls
    /// it; the master relays the order over ICCL.
    pub fn wait_shutdown(&mut self) -> LmonResult<()> {
        if self.am_i_master() {
            let chan = handshake::master(&self.master_chan)?;
            // A dead FE link is a shutdown order too: a killed session's
            // siblings are parked in the broadcast below and must be let go.
            while let Ok(msg) = chan.recv() {
                if msg.mtype == MsgType::BeShutdown {
                    break;
                }
            }
            self.comm.broadcast(Some(SHUTDOWN_SENTINEL.into())).map_err(LmonError::Iccl)?;
        } else {
            let got = self.comm.broadcast(None).map_err(LmonError::Iccl)?;
            if got != SHUTDOWN_SENTINEL {
                return Err(LmonError::Engine("unexpected broadcast during shutdown".into()));
            }
        }
        Ok(())
    }
}

/// A back end's launch info is its master's identity, which its session
/// does not keep.
impl DaemonClass for BackEnd {
    const HANDSHAKE: &'static Handshake = &handshake::BE;

    fn from_launch_info(_: &[u8], _: u32) -> LmonResult<Self> {
        Ok(BackEnd { local: OnceLock::new() })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    use lmon_cluster::config::ClusterConfig;
    use lmon_cluster::node::NodeId;
    use lmon_cluster::process::{ProcCtx, ProcSpec};
    use lmon_cluster::VirtualCluster;
    use lmon_proto::rpdtab::synthetic_rpdtab;
    use lmon_proto::security::{SessionCookie, COOKIE_ENV_VAR};
    use lmon_proto::transport::LocalChannel;
    use lmon_proto::wire::WireEncode;
    use lmon_proto::Bytes;
    use lmon_rm::api::daemon_comms;

    use super::*;
    use crate::daemon_session::bootstrap;
    use crate::handshake::MasterSlot;
    use crate::timeline::TimelineRecorder;

    // The BE runtime is exercised end-to-end through the FE API tests in
    // `crate::fe` and the integration suite; here we cover the pieces that
    // are testable in isolation.

    #[test]
    fn shutdown_sentinel_is_distinctive() {
        assert!(SHUTDOWN_SENTINEL.starts_with(b"__LMON"));
        assert!(!SHUTDOWN_SENTINEL.is_empty());
    }

    /// A bootstrapped daemon's local ranks, task count and full table length.
    type Views = (Vec<u32>, usize, usize);

    /// What a one-daemon bootstrap on `node00001` made of `table`, or the
    /// bootstrap's error; and whether the FE side saw `Ready`.
    fn bootstrap_with(table: Vec<u8>) -> (Result<Views, String>, bool) {
        const STEP: Duration = Duration::from_secs(10);
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(2));
        let cookie = SessionCookie::mint_seeded(7);
        let (fe, daemon_end) = LocalChannel::pair();
        let slot = MasterSlot::new(Some(Box::new(daemon_end)));
        let (tx, rx) = mpsc::channel();
        let mut spec = ProcSpec::named("toold");
        spec.env = vec![format!("{COOKIE_ENV_VAR}={}", cookie.to_env_value())];
        let comm = daemon_comms(1).remove(0);
        let body = move |ctx: ProcCtx| {
            let session =
                bootstrap::<BackEnd>(ctx, comm, &slot, Some(&TimelineRecorder::default()));
            let _ = tx.send(session.map_err(|e| e.to_string()).map(|be| {
                let local = be.my_proctab().iter().map(|d| d.rank).collect();
                (local, be.task_count(), be.proctable().len())
            }));
        };
        cluster.spawn_active(NodeId::Compute(1), spec, body).expect("spawn daemon");
        handshake::BE.admit(&fe, &cookie, STEP).expect("hello admitted");
        let ready =
            handshake::BE.deliver(&fe, &cookie, Bytes::new(), vec![], Bytes::from(table), STEP);
        (rx.recv_timeout(STEP).expect("bootstrap returns"), ready.is_ok())
    }

    /// A sibling builds no row at bootstrap: the first `my_proctab` builds
    /// its rows, and they are exactly its host's.
    #[test]
    fn a_sibling_builds_its_rows_only_when_asked() {
        const STEP: Duration = Duration::from_secs(10);
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(2));
        let cookie = SessionCookie::mint_seeded(7);
        let (fe, daemon_end) = LocalChannel::pair();
        let slot = Arc::new(MasterSlot::new(Some(Box::new(daemon_end))));
        let (tx, rx) = mpsc::channel();
        let mut spec = ProcSpec::named("toold");
        spec.env = vec![format!("{COOKIE_ENV_VAR}={}", cookie.to_env_value())];
        for comm in daemon_comms(2) {
            let (rank, slot, tx) = (comm.rank(), slot.clone(), tx.clone());
            let body = move |ctx: ProcCtx| {
                let be = bootstrap::<BackEnd>(ctx, comm, &slot, Some(&TimelineRecorder::default()))
                    .unwrap();
                let built_at_bootstrap = be.class.local.get().is_some();
                let local: Vec<u32> = be.my_proctab().iter().map(|d| d.rank).collect();
                let _ = tx.send((rank, built_at_bootstrap, local, be.class.local.get().is_some()));
            };
            cluster.spawn_active(NodeId::Compute(rank), spec.clone(), body).expect("spawn daemon");
        }
        handshake::BE.admit(&fe, &cookie, STEP).expect("hello admitted");
        let table = Bytes::from(synthetic_rpdtab(2, 3, "app").to_bytes());
        handshake::BE.deliver(&fe, &cookie, Bytes::new(), vec![], table, STEP).expect("ready");
        let mut got: Vec<_> = (0..2).map(|_| rx.recv_timeout(STEP).expect("a daemon")).collect();
        got.sort_by_key(|g| g.0);
        assert_eq!(got, [(0, false, vec![0, 1, 2], true), (1, false, vec![3, 4, 5], true)]);
    }

    #[test]
    fn bootstrap_builds_local_rows_and_a_corrupt_table_fails_it_before_ready() {
        let table = synthetic_rpdtab(4, 3, "app").to_bytes();
        let (session, ready) = bootstrap_with(table.clone());
        assert_eq!(session, Ok((vec![3, 4, 5], 12, 12)));
        assert!(ready);

        // A row of *another* host with an out-of-range host index: the
        // daemon builds none of that host's rows, and still refuses.
        let mut corrupt = table.clone();
        let host_id = corrupt.len() - 20 + 4; // last row: rank(4) host(4) exe(4) pid(8)
        corrupt[host_id..host_id + 4].copy_from_slice(&999u32.to_be_bytes());
        let mut trailing = table.clone();
        trailing.push(0);
        for bad in [corrupt, trailing, table[..table.len() - 1].to_vec()] {
            let (session, ready) = bootstrap_with(bad);
            assert!(session.is_err(), "bootstrap accepted a corrupt table: {session:?}");
            assert!(!ready, "the front end was told Ready for a corrupt table");
        }
    }
}
