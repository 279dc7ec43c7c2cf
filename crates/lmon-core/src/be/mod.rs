//! The LaunchMON back-end API — what runs inside every tool daemon.
//!
//! §3.3: the BE API provides the daemon-side handshake plus "basic
//! collective communications for back-end daemons to propagate and to
//! gather launch and setup information. Since these collective services are
//! useful for other tool functionality, the BE API makes them available for
//! general use."
//!
//! A tool author writes a function over [`BeSession`]; LaunchMON wraps it
//! with the bootstrap glue (`wrap_be_main`) that:
//!
//! 1. builds the ICCL communicator over the RM-provided fabric,
//! 2. has the master daemon (rank 0) run the daemon side of the one LMONP
//!    handshake (`crate::handshake`, here with the `Be*` message types) —
//!    hello (with the security cookie delivered through the RM's launch
//!    environment), launch info (+ piggybacked tool data), RPDTAB, ready —
//! 3. broadcasts launch info and the encoded RPDTAB to all daemons over
//!    ICCL; each daemon checks the whole table and builds its own host's
//!    rows (the master before it says ready),
//! 4. hands the tool its session.

use std::sync::Arc;

use lmon_cluster::process::{Pid, ProcCtx};
use lmon_cluster::procfs::ProcSnapshot;
use lmon_iccl::{ChannelFabric, IcclComm, Topology};
use lmon_proto::header::MsgType;
use lmon_proto::rpdtab::{CheckedRpdtab, ProcDesc, Rpdtab};
use lmon_proto::transport::MsgChannel;
use lmon_proto::Bytes;
use lmon_rm::api::DaemonBody;

use crate::error::{LmonError, LmonResult};
use crate::handshake::{self, MasterSlot, SHUTDOWN_SENTINEL};
use crate::timeline::{CriticalEvent, TimelineRecorder};

/// A tool's daemon entry point.
pub type BeMain = Arc<dyn Fn(&mut BeSession) + Send + Sync + 'static>;

/// The session object handed to tool daemon code.
pub struct BeSession {
    comm: IcclComm,
    ctx: ProcCtx,
    /// The rows on this daemon's host, built at bootstrap.
    local: Rpdtab,
    /// The table as broadcast, checked whole at bootstrap.
    table: CheckedRpdtab,
    usrdata: Bytes,
    master_chan: Option<Box<dyn MsgChannel>>,
}

impl BeSession {
    /// This daemon's ICCL rank (0 = master).
    pub fn rank(&self) -> u32 {
        self.comm.rank()
    }

    /// Number of daemons in the session.
    pub fn size(&self) -> u32 {
        self.comm.size()
    }

    /// The paper's `amIMaster` predicate.
    pub fn am_i_master(&self) -> bool {
        self.comm.is_master()
    }

    /// Hostname of the node this daemon runs on.
    pub fn hostname(&self) -> &str {
        &self.ctx.hostname
    }

    /// This daemon's pid.
    pub fn pid(&self) -> Pid {
        self.ctx.pid
    }

    /// The full RPDTAB distributed during the handshake. Decoded on first
    /// use: a daemon works on [`my_proctab`](BeSession::my_proctab), and at
    /// width the other daemons' rows are most of the table.
    pub fn proctable(&self) -> &Rpdtab {
        &self.table
    }

    /// Number of MPI tasks in the job (`proctable().len()`, without
    /// decoding the table).
    pub fn task_count(&self) -> usize {
        self.table.len()
    }

    /// The paper's `getMyProctab`: RPDTAB entries for tasks on this node.
    pub fn my_proctab(&self) -> Vec<&ProcDesc> {
        self.local.entries().iter().collect()
    }

    /// Tool data the FE piggybacked on the launch-info handshake message.
    pub fn usrdata(&self) -> &[u8] {
        &self.usrdata
    }

    /// Read a `/proc` snapshot of a local process (Jobsnap's data source).
    pub fn read_local_proc(&self, pid: u64) -> LmonResult<ProcSnapshot> {
        self.ctx.cluster.read_proc(&self.ctx.hostname, Pid(pid)).map_err(LmonError::Cluster)
    }

    // --- collectives ----------------------------------------------------

    /// ICCL barrier across all daemons.
    pub fn barrier(&mut self) -> LmonResult<()> {
        self.comm.barrier().map_err(LmonError::Iccl)
    }

    /// ICCL broadcast from the master.
    pub fn broadcast(&mut self, data: Option<Vec<u8>>) -> LmonResult<Vec<u8>> {
        let data = self.comm.broadcast(data.map(Bytes::from)).map_err(LmonError::Iccl)?;
        Ok(data.to_vec())
    }

    /// ICCL gather to the master.
    pub fn gather(&mut self, contribution: Vec<u8>) -> LmonResult<Option<Vec<Vec<u8>>>> {
        self.comm.gather(contribution).map_err(LmonError::Iccl)
    }

    /// ICCL scatter from the master.
    pub fn scatter(&mut self, parts: Option<Vec<Vec<u8>>>) -> LmonResult<Vec<u8>> {
        self.comm.scatter(parts).map_err(LmonError::Iccl)
    }

    // --- LMONP to the front end (master only) ----------------------------

    /// Send tool data to the FE (master only).
    pub fn send_usrdata(&mut self, bytes: Vec<u8>) -> LmonResult<()> {
        handshake::BE.send_usrdata(handshake::master(&self.master_chan)?, bytes)
    }

    /// Receive tool data from the FE (master only).
    pub fn recv_usrdata(&mut self, timeout: std::time::Duration) -> LmonResult<Vec<u8>> {
        handshake::BE.recv_usrdata(handshake::master(&self.master_chan)?, timeout)
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

/// Wrap a tool's BE main with the LaunchMON bootstrap. `master_chan` is
/// the channel the master daemon picks up to talk LMONP to the FE — a
/// logical mux endpoint in the live stack, but any [`MsgChannel`]
/// (`LocalChannel`, `FaultyChannel`, ...) plugs in; the master marks e8/e9
/// on the shared critical-path recorder.
pub(crate) fn wrap_be_main(
    tool_main: BeMain,
    master_chan: Box<dyn MsgChannel>,
    timeline: TimelineRecorder,
) -> DaemonBody {
    let master_slot = MasterSlot::new(Some(master_chan));
    Arc::new(move |ctx: ProcCtx, ep: ChannelFabric| {
        match be_bootstrap(ctx, ep, &master_slot, &timeline) {
            Ok(mut session) => tool_main(&mut session),
            // A real daemon would syslog; the virtual cluster surfaces
            // bootstrap failures through the FE-side handshake timeout.
            Err(e) => eprintln!("lmon-be bootstrap failed: {e}"),
        }
    })
}

/// The daemon-side bootstrap sequence (e7..e10 from the daemon's view).
fn be_bootstrap(
    ctx: ProcCtx,
    ep: ChannelFabric,
    master_slot: &MasterSlot,
    timeline: &TimelineRecorder,
) -> LmonResult<BeSession> {
    let mut comm = IcclComm::new(ep, Topology::Binomial);
    let is_master = comm.is_master();

    let mut master_chan = None;
    let usrdata;
    let rpdtab_bytes;

    if is_master {
        let (chan, launch_info, table) = handshake::BE.greet(master_slot, &ctx, &mut comm)?;

        // e8/e9: inter-daemon network setup over the RM fabric — the first
        // collectives wire up and verify every daemon. The master forwards
        // its messages' payload views: every daemon shares one buffer each.
        timeline.mark(CriticalEvent::E8SetupStart);
        usrdata = comm.broadcast(Some(launch_info.usr)).map_err(LmonError::Iccl)?;
        rpdtab_bytes = comm.broadcast(Some(table.lmon)).map_err(LmonError::Iccl)?;
        comm.barrier().map_err(LmonError::Iccl)?;
        timeline.mark(CriticalEvent::E9SetupDone);
        master_chan = Some(chan);
    } else {
        usrdata = handshake::from_master(&mut comm)?;
        rpdtab_bytes = comm.broadcast(None).map_err(LmonError::Iccl)?;
        comm.barrier().map_err(LmonError::Iccl)?;
    }

    // Every row is checked, only this host's rows are built — and the
    // master says `Ready` only afterwards, so a corrupt table fails the
    // session's handshake instead of surfacing in a daemon later.
    let (local, table) = Rpdtab::local_from_bytes(rpdtab_bytes, &ctx.hostname)?;
    if let Some(chan) = &master_chan {
        handshake::BE.ready(chan.as_ref())?;
    }

    Ok(BeSession { comm, ctx, local, table, usrdata, master_chan })
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use lmon_cluster::config::ClusterConfig;
    use lmon_cluster::node::NodeId;
    use lmon_cluster::process::ProcSpec;
    use lmon_cluster::VirtualCluster;
    use lmon_proto::rpdtab::synthetic_rpdtab;
    use lmon_proto::security::{SessionCookie, COOKIE_ENV_VAR};
    use lmon_proto::transport::LocalChannel;
    use lmon_proto::wire::WireEncode;
    use lmon_proto::Bytes;

    use super::*;

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
        let ep = ChannelFabric::mesh(1).remove(0);
        let body = move |ctx: ProcCtx| {
            let session = be_bootstrap(ctx, ep, &slot, &TimelineRecorder::default());
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
