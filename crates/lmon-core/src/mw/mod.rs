//! The LaunchMON middleware API — what runs inside TBON daemons.
//!
//! §3.4: "once launched into a set of newly allocated nodes, each TBON
//! daemon must set up the TBON based on information that LaunchMON scalably
//! distributes to it. Specifically, the MW API assigns to each
//! simultaneously launched TBON daemon a unique personality handle that is
//! similar to an MPI rank. It also sets up a simple network fabric ...
//! LaunchMON's middleware initialization also distributes the RPDTAB to the
//! TBON daemons."
//!
//! The MW master's LMONP exchange with the front end is the same handshake
//! back-end masters run (`crate::handshake`), with the `Mw*` message types
//! and the personality table as its launch info.

use std::sync::Arc;

use lmon_cluster::process::{Pid, ProcCtx};
use lmon_iccl::{ChannelFabric, IcclComm, Topology};
use lmon_proto::payload::MwPersonality;
use lmon_proto::rpdtab::Rpdtab;
use lmon_proto::transport::MsgChannel;
use lmon_proto::wire::{get_seq, WireDecode};
use lmon_proto::Bytes;
use lmon_rm::api::DaemonBody;

use crate::error::{LmonError, LmonResult};
use crate::handshake::{self, MasterSlot};

/// A tool's middleware-daemon entry point.
pub type MwMain = Arc<dyn Fn(&mut MwSession) + Send + Sync + 'static>;

/// The session object handed to middleware daemon code.
pub struct MwSession {
    comm: IcclComm,
    ctx: ProcCtx,
    personality: MwPersonality,
    all_personalities: Vec<MwPersonality>,
    rpdtab: Rpdtab,
    usrdata: Bytes,
    master_chan: Option<Box<dyn MsgChannel>>,
}

impl MwSession {
    /// This daemon's personality handle.
    pub fn personality(&self) -> &MwPersonality {
        &self.personality
    }

    /// Personalities of every MW daemon launched together (the table the
    /// TBON bootstraps its own network from).
    pub fn all_personalities(&self) -> &[MwPersonality] {
        &self.all_personalities
    }

    /// Rank among MW daemons.
    pub fn rank(&self) -> u32 {
        self.comm.rank()
    }

    /// Number of MW daemons.
    pub fn size(&self) -> u32 {
        self.comm.size()
    }

    /// Whether this daemon is the MW master.
    pub fn am_i_master(&self) -> bool {
        self.comm.is_master()
    }

    /// Hostname of this daemon's node.
    pub fn hostname(&self) -> &str {
        &self.ctx.hostname
    }

    /// This daemon's pid.
    pub fn pid(&self) -> Pid {
        self.ctx.pid
    }

    /// The RPDTAB, "allow\[ing\] TBON daemons to locate the target program
    /// and the back-end daemons" (§3.4).
    pub fn proctable(&self) -> &Rpdtab {
        &self.rpdtab
    }

    /// Tool data piggybacked by the FE on the MW handshake.
    pub fn usrdata(&self) -> &[u8] {
        &self.usrdata
    }

    /// Collective broadcast over the MW fabric.
    pub fn broadcast(&mut self, data: Option<Vec<u8>>) -> LmonResult<Vec<u8>> {
        let data = self.comm.broadcast(data.map(Bytes::from)).map_err(LmonError::Iccl)?;
        Ok(data.to_vec())
    }

    /// Collective gather over the MW fabric.
    pub fn gather(&mut self, contribution: Vec<u8>) -> LmonResult<Option<Vec<Vec<u8>>>> {
        self.comm.gather(contribution).map_err(LmonError::Iccl)
    }

    /// Barrier over the MW fabric.
    pub fn barrier(&mut self) -> LmonResult<()> {
        self.comm.barrier().map_err(LmonError::Iccl)
    }

    /// Point-to-point send to a peer MW daemon, addressed by personality
    /// handle (the paper: daemons "send data to and receive data from other
    /// daemons collectively or individually using the personality handles").
    pub fn send_to(&mut self, peer: u32, bytes: Vec<u8>) -> LmonResult<()> {
        self.comm.fabric_ref().send(peer, bytes).map_err(LmonError::Iccl)
    }

    /// Blocking receive from a specific peer.
    pub fn recv_from(&mut self, peer: u32) -> LmonResult<Vec<u8>> {
        self.comm.fabric_mut().recv_from(peer).map(|b| b.to_vec()).map_err(LmonError::Iccl)
    }

    /// Send tool data to the FE (master only).
    pub fn send_usrdata(&mut self, bytes: Vec<u8>) -> LmonResult<()> {
        handshake::MW.send_usrdata(handshake::master(&self.master_chan)?, bytes)
    }

    /// Receive tool data from the FE (master only).
    pub fn recv_usrdata(&mut self, timeout: std::time::Duration) -> LmonResult<Vec<u8>> {
        handshake::MW.recv_usrdata(handshake::master(&self.master_chan)?, timeout)
    }
}

/// Assign personalities for `hosts.len()` MW daemons arranged as a k-ary
/// tree of the given fanout (parent links let TBONs bootstrap without any
/// further coordination).
pub fn assign_personalities(hosts: &[String], fanout: u32) -> Vec<MwPersonality> {
    let n = hosts.len() as u32;
    let topo = Topology::KAry(fanout.max(1));
    (0..n)
        .map(|rank| MwPersonality {
            rank,
            size: n,
            host: hosts[rank as usize].clone(),
            parent: topo.parent(rank).unwrap_or(MwPersonality::NO_PARENT),
            endpoint: 0xE0_0000 + rank as u64,
        })
        .collect()
}

/// Wrap a tool's MW main with the LaunchMON bootstrap; `master_chan` is
/// the channel the MW master picks up to talk LMONP to the FE.
pub(crate) fn wrap_mw_main(tool_main: MwMain, master_chan: Box<dyn MsgChannel>) -> DaemonBody {
    let master_slot = MasterSlot::new(Some(master_chan));
    Arc::new(move |ctx: ProcCtx, ep: ChannelFabric| match mw_bootstrap(ctx, ep, &master_slot) {
        Ok(mut session) => tool_main(&mut session),
        Err(e) => eprintln!("lmon-mw bootstrap failed: {e}"),
    })
}

fn mw_bootstrap(
    ctx: ProcCtx,
    ep: ChannelFabric,
    master_slot: &MasterSlot,
) -> LmonResult<MwSession> {
    let mut comm = IcclComm::new(ep, Topology::Binomial);
    let is_master = comm.is_master();
    let my_rank = comm.rank();

    let mut master_chan = None;
    let personalities_bytes;
    let usrdata;
    let rpdtab_bytes;

    if is_master {
        let (chan, launch_info, table) = handshake::MW.greet(master_slot, &ctx, &mut comm)?;
        personalities_bytes = comm.broadcast(Some(launch_info.lmon)).map_err(LmonError::Iccl)?;
        usrdata = comm.broadcast(Some(launch_info.usr)).map_err(LmonError::Iccl)?;
        rpdtab_bytes = comm.broadcast(Some(table.lmon)).map_err(LmonError::Iccl)?;
        comm.barrier().map_err(LmonError::Iccl)?;
        handshake::MW.ready(chan.as_ref())?;
        master_chan = Some(chan);
    } else {
        personalities_bytes = handshake::from_master(&mut comm)?;
        usrdata = comm.broadcast(None).map_err(LmonError::Iccl)?;
        rpdtab_bytes = comm.broadcast(None).map_err(LmonError::Iccl)?;
        comm.barrier().map_err(LmonError::Iccl)?;
    }

    let mut slice = &personalities_bytes[..];
    let all_personalities: Vec<MwPersonality> = get_seq(&mut slice)?;
    let personality = all_personalities
        .iter()
        .find(|p| p.rank == my_rank)
        .cloned()
        .ok_or(LmonError::Engine("no personality for my rank".into()))?;
    let rpdtab = Rpdtab::from_bytes(&rpdtab_bytes)?;

    Ok(MwSession { comm, ctx, personality, all_personalities, rpdtab, usrdata, master_chan })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn personalities_form_a_kary_tree() {
        let hosts: Vec<String> = (0..7).map(|i| format!("comm{i}")).collect();
        let ps = assign_personalities(&hosts, 2);
        assert_eq!(ps.len(), 7);
        assert!(ps[0].is_root());
        assert_eq!(ps[1].parent, 0);
        assert_eq!(ps[2].parent, 0);
        assert_eq!(ps[3].parent, 1);
        assert_eq!(ps[6].parent, 2);
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(p.rank as usize, i);
            assert_eq!(p.size, 7);
            assert_eq!(p.host, hosts[i]);
        }
        // Endpoints are unique tokens.
        let endpoints: std::collections::HashSet<u64> = ps.iter().map(|p| p.endpoint).collect();
        assert_eq!(endpoints.len(), 7);
    }

    #[test]
    fn fanout_clamps_to_one() {
        let hosts: Vec<String> = (0..3).map(|i| format!("c{i}")).collect();
        let ps = assign_personalities(&hosts, 0);
        assert_eq!(ps[1].parent, 0);
        assert_eq!(ps[2].parent, 1, "fanout 0 behaves like a chain");
    }
}
