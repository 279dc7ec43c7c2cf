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
//! 3. broadcasts launch info and the RPDTAB to all daemons over ICCL,
//! 4. hands the tool its session.

use std::sync::Arc;

use lmon_cluster::process::{Pid, ProcCtx};
use lmon_cluster::procfs::ProcSnapshot;
use lmon_iccl::{IcclComm, Topology};
use lmon_proto::header::MsgType;
use lmon_proto::rpdtab::{ProcDesc, Rpdtab};
use lmon_proto::transport::MsgChannel;
use lmon_proto::wire::WireDecode;
use lmon_rm::api::DaemonBody;
use lmon_rm::fabric::RmFabricEndpoint;

use crate::error::{LmonError, LmonResult};
use crate::handshake::{self, MasterSlot};
use crate::timeline::{CriticalEvent, TimelineRecorder};

/// Sentinel payload the runtime broadcasts when the FE orders shutdown.
const SHUTDOWN_SENTINEL: &[u8] = b"__LMON_BE_SHUTDOWN__";

/// A tool's daemon entry point.
pub type BeMain = Arc<dyn Fn(&mut BeSession) + Send + Sync + 'static>;

/// The session object handed to tool daemon code.
pub struct BeSession {
    comm: IcclComm<RmFabricEndpoint>,
    ctx: ProcCtx,
    rpdtab: Rpdtab,
    usrdata: Vec<u8>,
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

    /// The full RPDTAB distributed during the handshake.
    pub fn proctable(&self) -> &Rpdtab {
        &self.rpdtab
    }

    /// The paper's `getMyProctab`: RPDTAB entries for tasks on this node.
    pub fn my_proctab(&self) -> Vec<&ProcDesc> {
        self.rpdtab.local_tasks(&self.ctx.hostname).collect()
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
        self.comm.broadcast(data).map_err(LmonError::Iccl)
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
            loop {
                let msg = chan.recv()?;
                if msg.mtype == MsgType::BeShutdown {
                    break;
                }
            }
            self.comm.broadcast(Some(SHUTDOWN_SENTINEL.to_vec())).map_err(LmonError::Iccl)?;
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
/// (`LocalChannel`, `TcpChannel`, `FaultyChannel`, ...) plugs in; the
/// master marks e8/e9 on the shared critical-path recorder.
pub(crate) fn wrap_be_main(
    tool_main: BeMain,
    master_chan: Box<dyn MsgChannel>,
    timeline: TimelineRecorder,
) -> DaemonBody {
    let master_slot = MasterSlot::new(Some(master_chan));
    Arc::new(move |ctx: ProcCtx, ep: RmFabricEndpoint| {
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
    ep: RmFabricEndpoint,
    master_slot: &MasterSlot,
    timeline: &TimelineRecorder,
) -> LmonResult<BeSession> {
    let mut comm = IcclComm::new(ep, Topology::Binomial);
    let is_master = comm.is_master();

    let mut master_chan = None;
    let usrdata;
    let rpdtab_bytes;

    if is_master {
        let (chan, launch_info, table) = handshake::BE.greet(master_slot, &ctx)?;
        usrdata = launch_info.usr.to_vec();
        rpdtab_bytes = table.lmon.to_vec();

        // e8/e9: inter-daemon network setup over the RM fabric — the first
        // collectives wire up and verify every daemon.
        timeline.mark(CriticalEvent::E8SetupStart);
        comm.broadcast(Some(usrdata.clone())).map_err(LmonError::Iccl)?;
        comm.broadcast(Some(rpdtab_bytes.clone())).map_err(LmonError::Iccl)?;
        comm.barrier().map_err(LmonError::Iccl)?;
        timeline.mark(CriticalEvent::E9SetupDone);

        handshake::BE.ready(chan.as_ref())?;
        master_chan = Some(chan);
    } else {
        usrdata = comm.broadcast(None).map_err(LmonError::Iccl)?;
        rpdtab_bytes = comm.broadcast(None).map_err(LmonError::Iccl)?;
        comm.barrier().map_err(LmonError::Iccl)?;
    }

    let rpdtab = Rpdtab::from_bytes(&rpdtab_bytes)?;

    Ok(BeSession { comm, ctx, rpdtab, usrdata, master_chan })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The BE runtime is exercised end-to-end through the FE API tests in
    // `crate::fe` and the integration suite; here we cover the pieces that
    // are testable in isolation.

    #[test]
    fn shutdown_sentinel_is_distinctive() {
        assert!(SHUTDOWN_SENTINEL.starts_with(b"__LMON"));
        assert!(!SHUTDOWN_SENTINEL.is_empty());
    }
}
