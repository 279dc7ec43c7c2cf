//! The one daemon-side session, for back-end and middleware daemons alike.
//!
//! A tool's daemon gets a [`DaemonSession`]: its rank, its node, the
//! RPDTAB, the tool data the front end piggybacked, the ICCL collectives
//! over the fabric the RM built, and (at the master) the LMONP channel to
//! the front end. The classes differ only in what `C` adds:
//! [`BeSession`](crate::be::BeSession) the back-end calls (`my_proctab`,
//! `scatter`, `wait_shutdown`, ...), [`MwSession`](crate::mw::MwSession)
//! the personality handles.
//!
//! Both classes run one bootstrap, with their own handshake vocabulary:
//!
//! 1. the master greets the front end and checks the whole RPDTAB once
//!    (`Rpdtab::check_bytes`), then marks e8 where a timeline is given;
//! 2. it broadcasts the launch-info message in LMONP's wire form, its LMONP
//!    payload and the tool data (or the shutdown sentinel if its greeting or
//!    check failed);
//! 3. it broadcasts the table's own refcounted bytes; a sibling takes them
//!    through the framing-only `Rpdtab::check_framing`;
//! 4. every daemon reports up once (`Handshake::report`), and the master
//!    says ready once every report is in.
//!
//! No daemon walks the table's rows on the way.

use std::sync::Arc;

use lmon_cluster::process::{Pid, ProcCtx};
use lmon_iccl::IcclComm;
use lmon_proto::frame::encode_wire;
use lmon_proto::rpdtab::{CheckedRpdtab, Rpdtab};
use lmon_proto::transport::MsgChannel;
use lmon_proto::Bytes;
use lmon_rm::api::DaemonBody;

use crate::error::{LmonError, LmonResult};
use crate::handshake::{self, Handshake, MasterSlot};
use crate::timeline::{CriticalEvent, TimelineRecorder};

/// A tool's daemon entry point, over its class's session.
pub type DaemonMain<C> = Arc<dyn Fn(&mut DaemonSession<C>) + Send + Sync + 'static>;

/// The session object handed to tool daemon code; `C` holds what only one
/// daemon class has.
pub struct DaemonSession<C> {
    pub(crate) comm: IcclComm,
    pub(crate) ctx: ProcCtx,
    /// The table as broadcast, checked whole by the master before it did.
    pub(crate) table: CheckedRpdtab,
    usrdata: Bytes,
    pub(crate) master_chan: Option<Box<dyn MsgChannel>>,
    hs: &'static Handshake,
    pub(crate) class: C,
}

impl<C> DaemonSession<C> {
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

    /// The full RPDTAB distributed during the handshake, "allow\[ing\] TBON
    /// daemons to locate the target program and the back-end daemons"
    /// (§3.4). Decoded on first use: at width the other daemons' rows are
    /// most of the table.
    pub fn proctable(&self) -> &Rpdtab {
        &self.table
    }

    /// Tool data the FE piggybacked on the launch-info handshake message.
    pub fn usrdata(&self) -> &[u8] {
        &self.usrdata
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

    // --- LMONP to the front end (master only) ----------------------------

    /// Send tool data to the FE (master only).
    pub fn send_usrdata(&mut self, bytes: Vec<u8>) -> LmonResult<()> {
        self.hs.send_usrdata(handshake::master(&self.master_chan)?, bytes)
    }

    /// Receive tool data from the FE (master only).
    pub fn recv_usrdata(&mut self, timeout: std::time::Duration) -> LmonResult<Vec<u8>> {
        self.hs.recv_usrdata(handshake::master(&self.master_chan)?, timeout)
    }
}

/// What a daemon class brings to the shared bootstrap.
pub(crate) trait DaemonClass: Sized {
    /// The class's LMONP message types.
    const HANDSHAKE: &'static Handshake;

    /// This daemon's own part of its session, made from the launch info's
    /// LMONP payload once the daemon has reported.
    fn from_launch_info(launch_info: &[u8], rank: u32) -> LmonResult<Self>;
}

/// Wrap a tool's daemon main with the LaunchMON bootstrap. `master_chan` is
/// the channel the master daemon picks up to talk LMONP to the FE — a
/// logical mux endpoint in the live stack, but any [`MsgChannel`]
/// (`LocalChannel`, `FaultyChannel`, ...) plugs in; the master marks e8/e9
/// on `timeline` where one is given.
pub(crate) fn wrap<C: DaemonClass + 'static>(
    tool_main: DaemonMain<C>,
    master_chan: Box<dyn MsgChannel>,
    timeline: Option<TimelineRecorder>,
) -> DaemonBody {
    let master_slot = MasterSlot::new(Some(master_chan));
    Arc::new(move |ctx: ProcCtx, comm: IcclComm| {
        match bootstrap(ctx, comm, &master_slot, timeline.as_ref()) {
            Ok(mut session) => tool_main(&mut session),
            // A real daemon would syslog; the virtual cluster surfaces
            // bootstrap failures through the FE-side handshake timeout.
            Err(e) => eprintln!("lmon daemon bootstrap failed: {e}"),
        }
    })
}

/// The daemon-side bootstrap (e7..e10 from the daemon's view), the same
/// four steps for both classes.
pub(crate) fn bootstrap<C: DaemonClass>(
    ctx: ProcCtx,
    mut comm: IcclComm,
    master_slot: &MasterSlot,
    timeline: Option<&TimelineRecorder>,
) -> LmonResult<DaemonSession<C>> {
    let hs = C::HANDSHAKE;
    let (master_chan, info, table) = if comm.is_master() {
        // The session's one check of the whole table, before any broadcast:
        // a corrupt table fails the handshake, and no daemon walks its rows.
        let (chan, info, table) =
            hs.greet(master_slot, &ctx, &mut comm, |t| Ok(Rpdtab::check_bytes(t)?))?;
        // e8: inter-daemon setup over the RM fabric. The table goes out as
        // the master's message payload view: every daemon shares one buffer.
        if let Some(timeline) = timeline {
            timeline.mark(CriticalEvent::E8SetupStart);
        }
        comm.broadcast(Some(encode_wire(&info))).map_err(LmonError::Iccl)?;
        comm.broadcast(Some(table.bytes().clone())).map_err(LmonError::Iccl)?;
        (Some(chan), info, table)
    } else {
        let info = handshake::from_master(&mut comm)?;
        let bytes = comm.broadcast(None).map_err(LmonError::Iccl)?;
        (None, info, Rpdtab::check_framing(bytes)?)
    };
    hs.report(&mut comm, master_chan.as_deref(), timeline)?;
    let class = C::from_launch_info(&info.lmon, comm.rank())?;
    Ok(DaemonSession { comm, ctx, table, usrdata: info.usr, master_chan, hs, class })
}
