//! The LMONP bootstrap handshake, written once for every message class.
//!
//! However daemons get onto their nodes — `launchAndSpawn`,
//! `attachAndSpawn` or `launchMwDaemons` — the front end and the master
//! daemon then run the same four messages over the master's channel:
//! hello (+ the session cookie the RM delivered through the daemon's
//! environment) → launch info (+ piggybacked tool data) → RPDTAB → ready.
//! The two pairs are told apart only by the header's 3-bit `msg_class`
//! (§3.5), i.e. by which message *types* carry the four steps. A
//! [`Handshake`] is that vocabulary as data ([`BE`], [`MW`]); the front-end
//! side, the daemon side and the later usrdata exchange on the same channel
//! are methods on it, so none of them asks which caller it serves.
//!
//! The daemon side's fan-out is shared too (`crate::daemon_session` runs
//! it): the master broadcasts the launch-info message in LMONP's wire form
//! (its LMONP payload and the tool data), then the table. Siblings wait in
//! that first broadcast ([`from_master`]); a master whose handshake or
//! table check fails sends the shutdown sentinel there instead, and bytes
//! that do not decode fail a sibling the same way. Every daemon ends with
//! one report up ([`Handshake::report`]). What differs per class is only
//! what the launch info *is*: the master's
//! [`DaemonInfo`](lmon_proto::payload::DaemonInfo) for back ends, the
//! personality table for middleware.

use std::time::Duration;

use parking_lot::Mutex;

use lmon_cluster::process::ProcCtx;
use lmon_iccl::IcclComm;
use lmon_proto::frame::decode_msg_view;
use lmon_proto::header::MsgType;
use lmon_proto::msg::LmonpMsg;
use lmon_proto::payload::Hello;
use lmon_proto::security::{SessionCookie, COOKIE_ENV_VAR};
use lmon_proto::transport::MsgChannel;
use lmon_proto::Bytes;

use crate::error::{LmonError, LmonResult};
use crate::timeline::{CriticalEvent, TimelineRecorder};

/// What a master broadcasts in place of its next message once the session
/// is over: its handshake failed, or the front end ordered shutdown.
pub(crate) const SHUTDOWN_SENTINEL: &[u8] = b"__LMON_SHUTDOWN__";

/// Where the FE parks the daemon end of a session's master channel until
/// the master daemon (rank 0 of the spawn) claims it.
pub(crate) type MasterSlot = Mutex<Option<Box<dyn MsgChannel>>>;

/// What a master holds once the front end has delivered: its channel, the
/// launch info and the RPDTAB as its caller's check made it.
type Delivered<T> = (Box<dyn MsgChannel>, LmonpMsg, T);

/// One message class's handshake vocabulary.
pub(crate) struct Handshake {
    hello: MsgType,
    launch_info: MsgType,
    rpdtab: MsgType,
    ready: MsgType,
    usrdata: MsgType,
    shutdown: MsgType,
    /// What the FE reports when the master never says hello.
    hello_timeout: &'static str,
    /// What the FE reports when the master never gets to `ready`.
    ready_timeout: &'static str,
}

/// Front end ↔ back-end master (`msg_class` `FeToBe`).
pub(crate) const BE: Handshake = Handshake {
    hello: MsgType::BeHello,
    launch_info: MsgType::BeLaunchInfo,
    rpdtab: MsgType::BeRpdtab,
    ready: MsgType::BeReady,
    usrdata: MsgType::BeUsrData,
    shutdown: MsgType::BeShutdown,
    hello_timeout: "waiting for BE hello",
    ready_timeout: "waiting for BE ready",
};

/// Front end ↔ middleware master (`msg_class` `FeToMw`).
pub(crate) const MW: Handshake = Handshake {
    hello: MsgType::MwHello,
    launch_info: MsgType::MwLaunchInfo,
    rpdtab: MsgType::MwRpdtab,
    ready: MsgType::MwReady,
    usrdata: MsgType::MwUsrData,
    shutdown: MsgType::MwShutdown,
    hello_timeout: "waiting for MW hello",
    ready_timeout: "waiting for MW ready",
};

/// The handshake is strictly ordered: anything but `want` next is fatal.
fn expect(msg: LmonpMsg, want: MsgType) -> LmonResult<LmonpMsg> {
    if msg.mtype != want {
        return Err(LmonError::Engine(format!(
            "handshake out of order: expected {want:?}, got {:?}",
            msg.mtype
        )));
    }
    Ok(msg)
}

impl Handshake {
    // --- daemon side ------------------------------------------------------

    /// The master daemon's half up to the point where it holds everything
    /// it must fan out: claim the channel, say hello with the cookie from
    /// the environment, take delivery of launch info and then the RPDTAB,
    /// whose bytes `check` must accept. Returns the channel with the launch
    /// info and what `check` made of the table; the caller broadcasts them
    /// over `comm` (the launch info, then the table) and then calls
    /// [`Handshake::report`]. If the handshake or the check fails, the
    /// session is over: the master broadcasts [`SHUTDOWN_SENTINEL`] in place
    /// of the launch info, which lets its siblings go before any of them
    /// holds the table.
    pub(crate) fn greet<T>(
        &self,
        slot: &MasterSlot,
        ctx: &ProcCtx,
        comm: &mut IcclComm,
        check: impl FnOnce(Bytes) -> LmonResult<T>,
    ) -> LmonResult<Delivered<T>> {
        self.take_delivery(slot, ctx)
            .and_then(|(chan, launch_info, rpdtab)| Ok((chan, launch_info, check(rpdtab.lmon)?)))
            .inspect_err(|_| {
                let _ = comm.broadcast(Some(SHUTDOWN_SENTINEL.into()));
            })
    }

    fn take_delivery(&self, slot: &MasterSlot, ctx: &ProcCtx) -> LmonResult<Delivered<LmonpMsg>> {
        let chan =
            slot.lock().take().ok_or(LmonError::Engine("master channel already taken".into()))?;
        let cookie_env = ctx
            .env_get(COOKIE_ENV_VAR)
            .ok_or(LmonError::Engine("missing session cookie in environment".into()))?;
        let cookie = SessionCookie::from_env_value(cookie_env)?;
        let hello = Hello {
            cookie: cookie.cookie,
            epoch: cookie.epoch,
            host: ctx.hostname.clone(),
            pid: ctx.pid.0,
        };
        chan.send(LmonpMsg::of_type(self.hello).with_epoch(cookie.epoch).with_lmon(&hello))?;
        let launch_info = expect(chan.recv()?, self.launch_info)?;
        let rpdtab = expect(chan.recv()?, self.rpdtab)?;
        Ok((chan, launch_info, rpdtab))
    }

    /// How every bootstrap ends once a daemon holds the broadcasts: one
    /// report up (a gather) and no release wave back down, so a sibling
    /// runs its tool body while others still report. The master (the
    /// daemon with a `chan`) waits for every report, marks e9 and says
    /// ready: Ready means every daemon holds the broadcasts, of a table the
    /// master checked whole in [`Handshake::greet`].
    pub(crate) fn report(
        &self,
        comm: &mut IcclComm,
        chan: Option<&dyn MsgChannel>,
        timeline: Option<&TimelineRecorder>,
    ) -> LmonResult<()> {
        comm.gather(Vec::new()).map_err(LmonError::Iccl)?;
        let Some(chan) = chan else { return Ok(()) };
        if let Some(timeline) = timeline {
            timeline.mark(CriticalEvent::E9SetupDone);
        }
        chan.send(LmonpMsg::of_type(self.ready))?;
        Ok(())
    }

    // --- front-end side ---------------------------------------------------

    /// Admit the master: wait up to `timeout` for its first message, which
    /// must be this class's hello and must present the session's cookie.
    pub(crate) fn admit(
        &self,
        chan: &dyn MsgChannel,
        cookie: &SessionCookie,
        timeout: Duration,
    ) -> LmonResult<()> {
        let hello = chan.recv_timeout(timeout)?.ok_or(LmonError::Timeout(self.hello_timeout))?;
        let hello: Hello = expect(hello, self.hello)?.decode_lmon()?;
        Ok(cookie.verify_hello(&hello)?)
    }

    /// Answer a verified hello: send launch info (+ piggybacked tool data)
    /// and the RPDTAB, then wait for the master's ready, which is returned
    /// (it may piggyback tool data back).
    pub(crate) fn deliver(
        &self,
        chan: &dyn MsgChannel,
        cookie: &SessionCookie,
        launch_info: Bytes,
        packed: Vec<u8>,
        rpdtab: Bytes,
        timeout: Duration,
    ) -> LmonResult<LmonpMsg> {
        chan.send(
            LmonpMsg::of_type(self.launch_info)
                .with_epoch(cookie.epoch)
                .with_lmon_payload(launch_info)
                .with_usr_payload(packed),
        )?;
        chan.send(
            LmonpMsg::of_type(self.rpdtab).with_epoch(cookie.epoch).with_lmon_payload(rpdtab),
        )?;
        let ready = chan.recv_timeout(timeout)?.ok_or(LmonError::Timeout(self.ready_timeout))?;
        expect(ready, self.ready)
    }

    // --- either side, after the handshake ---------------------------------

    /// Send opaque tool data over a master channel.
    pub(crate) fn send_usrdata(&self, chan: &dyn MsgChannel, bytes: Vec<u8>) -> LmonResult<()> {
        Ok(chan.send(LmonpMsg::of_type(self.usrdata).with_usr_payload(bytes))?)
    }

    /// Receive the next tool-data message on a master channel, skipping
    /// anything else except a shutdown order, which ends the wait.
    pub(crate) fn recv_usrdata(
        &self,
        chan: &dyn MsgChannel,
        timeout: Duration,
    ) -> LmonResult<Vec<u8>> {
        loop {
            match chan.recv_timeout(timeout)? {
                Some(msg) if msg.mtype == self.usrdata => return Ok(msg.usr.to_vec()),
                Some(msg) if msg.mtype == self.shutdown => {
                    return Err(LmonError::Engine("shutdown while waiting for usrdata".into()))
                }
                Some(_) => continue,
                None => return Err(LmonError::Timeout("recv_usrdata")),
            }
        }
    }
}

/// A sibling's first broadcast from its master: the launch-info message in
/// LMONP's wire form, whose payload sections come back as views of the one
/// broadcast buffer. An error if the master's handshake failed, or if the
/// bytes are not exactly one message.
pub(crate) fn from_master(comm: &mut IcclComm) -> LmonResult<LmonpMsg> {
    let first = comm.broadcast(None).map_err(LmonError::Iccl)?;
    if first == SHUTDOWN_SENTINEL {
        return Err(LmonError::Engine("the master's handshake failed".into()));
    }
    Ok(decode_msg_view(&first)?)
}

/// A daemon's channel to the front end: only the master holds one.
pub(crate) fn master(chan: &Option<Box<dyn MsgChannel>>) -> LmonResult<&dyn MsgChannel> {
    chan.as_deref().ok_or(LmonError::Engine("not the master daemon".into()))
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};

    use lmon_cluster::config::ClusterConfig;
    use lmon_cluster::node::NodeId;
    use lmon_cluster::process::ProcSpec;
    use lmon_cluster::VirtualCluster;
    use lmon_proto::frame::encode_wire;
    use lmon_proto::rpdtab::synthetic_rpdtab;
    use lmon_proto::transport::LocalChannel;
    use lmon_proto::wire::{put_seq, WireEncode};
    use lmon_rm::api::{daemon_comms, DaemonBody};

    use super::*;
    use crate::be::{BackEnd, BeMain};
    use crate::daemon_session::{bootstrap, wrap};
    use crate::mw::{assign_personalities, Middleware, MwMain};

    /// What the daemon side made of the handshake: the piggybacked tool
    /// data and the RPDTAB bytes it took delivery of.
    type Greeted = LmonResult<(Vec<u8>, Vec<u8>)>;

    /// Run the daemon side as a process on the virtual cluster with `env`
    /// as its environment, as rank 0 of two: greet, then report. Returns
    /// the FE end of its master channel, where its outcome arrives, and its
    /// sibling's comm.
    fn master_daemon(
        cluster: &VirtualCluster,
        hs: &'static Handshake,
        env: Vec<String>,
    ) -> (LocalChannel, mpsc::Receiver<Greeted>, IcclComm) {
        let (fe_end, daemon_end) = LocalChannel::pair();
        let slot = MasterSlot::new(Some(Box::new(daemon_end)));
        let (tx, rx) = mpsc::channel();
        let mut spec = ProcSpec::named("toold");
        spec.env = env;
        let mut comms = daemon_comms(2);
        let sibling = comms.pop().expect("rank 1");
        let mut comm = comms.pop().expect("rank 0");
        let body = move |ctx: ProcCtx| {
            let greeted =
                hs.greet(&slot, &ctx, &mut comm, Ok).and_then(|(chan, launch_info, table)| {
                    hs.report(&mut comm, Some(chan.as_ref()), None)?;
                    Ok((launch_info.usr.to_vec(), table.to_vec()))
                });
            let _ = tx.send(greeted);
        };
        cluster.spawn_active(NodeId::Compute(0), spec, body).expect("spawn daemon");
        (fe_end, rx, sibling)
    }

    fn cookie_env(cookie: &SessionCookie) -> Vec<String> {
        vec![format!("{COOKIE_ENV_VAR}={}", cookie.to_env_value())]
    }

    const STEP: Duration = Duration::from_secs(10);

    /// Both message classes, one test: the shared code is the same code, so
    /// MW gets exactly the failure coverage BE has.
    #[test]
    fn both_classes_complete_in_order_and_fail_closed() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1));
        let cookie = SessionCookie::mint_seeded(7);
        for (hs, hello_timeout) in [(&BE, "waiting for BE hello"), (&MW, "waiting for MW hello")] {
            // In order, with the right cookie: both sides finish once the
            // sibling has reported, and the daemon holds what the FE sent.
            let (fe, outcome, mut sibling) = master_daemon(&cluster, hs, cookie_env(&cookie));
            hs.report(&mut sibling, None, None).expect("the sibling reports");
            hs.admit(&fe, &cookie, STEP).expect("right cookie is admitted");
            let info = Bytes::copy_from_slice(b"launch info");
            let table = Bytes::copy_from_slice(b"proctable");
            let ready = hs.deliver(&fe, &cookie, info, b"tool data".to_vec(), table, STEP);
            assert_eq!(ready.expect("ready").mtype, hs.ready);
            let (usrdata, rpdtab) = outcome.recv_timeout(STEP).unwrap().expect("daemon side");
            assert_eq!((&usrdata[..], &rpdtab[..]), (&b"tool data"[..], &b"proctable"[..]));

            // Wrong cookie in the daemon's environment: the FE refuses the hello.
            let (fe, _outcome, _) =
                master_daemon(&cluster, hs, cookie_env(&SessionCookie::mint_seeded(8)));
            let err = hs.admit(&fe, &cookie, STEP).unwrap_err();
            assert!(matches!(err, LmonError::AuthFailed), "expected AuthFailed, got {err:?}");

            // The other class's hello is not a hello, and silence is this
            // class's hello timeout.
            let (near, far) = LocalChannel::pair();
            let other = if hs.hello == BE.hello { MW.hello } else { BE.hello };
            far.send(LmonpMsg::of_type(other)).unwrap();
            let err = hs.admit(&near, &cookie, STEP).unwrap_err();
            assert!(err.to_string().contains("handshake out of order"), "{err}");
            let err = hs.admit(&near, &cookie, Duration::from_millis(10)).unwrap_err();
            assert!(matches!(err, LmonError::Timeout(why) if why == hello_timeout), "{err:?}");

            // RPDTAB before launch info: the daemon gives up, and lets its
            // sibling go.
            let (fe, outcome, mut sibling) = master_daemon(&cluster, hs, cookie_env(&cookie));
            fe.recv_timeout(STEP).unwrap().expect("hello");
            fe.send(LmonpMsg::of_type(hs.rpdtab)).unwrap();
            let err = outcome.recv_timeout(STEP).unwrap().unwrap_err();
            assert!(err.to_string().contains("handshake out of order"), "{err}");
            let err = from_master(&mut sibling).unwrap_err();
            assert!(err.to_string().contains("the master's handshake failed"), "{err}");

            // No cookie in the environment: an error at once, never a hello
            // and never a hang, for the master or its sibling.
            let (fe, outcome, mut sibling) = master_daemon(&cluster, hs, vec![]);
            let err = outcome.recv_timeout(STEP).expect("daemon returns").unwrap_err();
            assert!(err.to_string().contains("missing session cookie"), "{err}");
            assert!(!matches!(fe.recv_timeout(Duration::from_millis(20)), Ok(Some(_))));
            let err = from_master(&mut sibling).unwrap_err();
            assert!(err.to_string().contains("the master's handshake failed"), "{err}");
        }
    }

    /// A sibling takes its launch info and tool data as views of the one
    /// message its master broadcast. Bytes cut inside the header, a payload
    /// length that runs past the end, or bytes after the message fail the
    /// sibling the way the shutdown sentinel does: an error at once, never
    /// a panic.
    #[test]
    fn a_sibling_takes_a_whole_launch_info_and_refuses_a_malformed_one() {
        let info = LmonpMsg::of_type(MW.launch_info)
            .with_lmon_payload(b"launch info".to_vec())
            .with_usr_payload(b"tool data".to_vec());
        let good = encode_wire(&info);
        let mut trailing = good.to_vec();
        trailing.push(0);
        for (sent, whole) in [
            (good.to_vec(), true),
            (SHUTDOWN_SENTINEL.to_vec(), false),
            (vec![], false),
            (good[..2].to_vec(), false),
            (good[..good.len() - 1].to_vec(), false),
            (trailing, false),
        ] {
            let mut comms = daemon_comms(2);
            let mut sibling = comms.pop().expect("rank 1");
            let sent = Bytes::from(sent);
            comms[0].broadcast(Some(sent.clone())).expect("the master broadcasts");
            match from_master(&mut sibling) {
                Ok(got) => {
                    assert!(whole, "a sibling accepted a malformed launch info {sent:?}");
                    assert_eq!((&got.lmon[..], &got.usr[..]), (&info.lmon[..], &info.usr[..]));
                    assert_eq!(
                        got.lmon.as_ptr(),
                        sent[16..].as_ptr(),
                        "the launch info was copied"
                    );
                }
                Err(e) => assert!(!whole, "a sibling refused a whole launch info: {e}"),
            }
        }
    }

    /// What one daemon of a bootstrapped session holds: its rank, the tool
    /// data, the table's length and its own rows' ranks, and for middleware
    /// the rank its personality names.
    #[derive(Debug, PartialEq)]
    struct Holds {
        rank: u32,
        usrdata: Vec<u8>,
        table: usize,
        local: Vec<u32>,
        personality: Option<u32>,
    }

    const MEMBERS: u32 = 5;
    const TASKS_PER_NODE: usize = 3;

    /// One class's daemon body over `master` (the daemon end of its master
    /// channel): the real bootstrap, then a tool body that sends what its
    /// daemon holds to `held`. Also the launch info the FE sends this class.
    fn class_body(
        hs: &'static Handshake,
        master: LocalChannel,
        held: mpsc::Sender<Holds>,
    ) -> (DaemonBody, Bytes) {
        if hs.ready == BE.ready {
            let tool: BeMain = Arc::new(move |be| {
                let local = be.my_proctab().iter().map(|d| d.rank).collect();
                let (rank, usrdata, table) = (be.rank(), be.usrdata().to_vec(), be.task_count());
                let _ = held.send(Holds { rank, usrdata, table, local, personality: None });
            });
            (wrap(tool, Box::new(master), Some(TimelineRecorder::new())), Bytes::new())
        } else {
            let tool: MwMain = Arc::new(move |mw| {
                let local = mw.proctable().local_tasks(mw.hostname()).map(|d| d.rank).collect();
                let _ = held.send(Holds {
                    rank: mw.rank(),
                    usrdata: mw.usrdata().to_vec(),
                    table: mw.proctable().len(),
                    local,
                    personality: Some(mw.personality().rank),
                });
            });
            let hosts: Vec<String> = (0..MEMBERS).map(|i| format!("node{i:05}")).collect();
            let mut personalities = Vec::new();
            put_seq(&mut personalities, &assign_personalities(&hosts, 2));
            (wrap(tool, Box::new(master), None), personalities.into())
        }
    }

    /// Bootstrap one class's `MEMBERS` daemons, one per node, except the
    /// ranks in `silent`, whose comms are returned unused: they
    /// never report. The FE side admits the master and delivers with
    /// `ready_within`; returns its outcome, what the running daemons sent
    /// from their tool bodies, the silent comms and the FE end of the
    /// master channel.
    fn bootstrap_class(
        hs: &'static Handshake,
        silent: &[u32],
        ready_within: Duration,
    ) -> (LmonResult<LmonpMsg>, mpsc::Receiver<Holds>, Vec<IcclComm>, LocalChannel) {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(MEMBERS as usize));
        let cookie = SessionCookie::mint_seeded(7);
        let (fe, daemon_end) = LocalChannel::pair();
        let (tx, held) = mpsc::channel();
        let (body, launch_info) = class_body(hs, daemon_end, tx);
        let mut spec = ProcSpec::named("toold");
        spec.env = cookie_env(&cookie);
        let mut unused = Vec::new();
        for comm in daemon_comms(MEMBERS) {
            let rank = comm.rank();
            if silent.contains(&rank) {
                unused.push(comm);
                continue;
            }
            let body = body.clone();
            let node = NodeId::Compute(rank);
            cluster.spawn_active(node, spec.clone(), move |ctx| body(ctx, comm)).unwrap();
        }
        hs.admit(&fe, &cookie, STEP).expect("hello admitted");
        let table = synthetic_rpdtab(MEMBERS as usize, TASKS_PER_NODE, "app").to_bytes();
        let packed = b"tool data".to_vec();
        let ready = hs.deliver(&fe, &cookie, launch_info, packed, table.into(), ready_within);
        (ready, held, unused, fe)
    }

    /// Both classes over a fabric that is not a power of two: every member
    /// ends up holding the launch info and the table, and the master says
    /// ready.
    #[test]
    fn every_member_of_a_five_daemon_session_holds_the_broadcasts() {
        for hs in [&BE, &MW] {
            let (ready, held, _, _) = bootstrap_class(hs, &[], STEP);
            assert_eq!(ready.expect("ready").mtype, hs.ready);
            let mut holds: Vec<Holds> =
                (0..MEMBERS).map(|_| held.recv_timeout(STEP).expect("every member")).collect();
            holds.sort_by_key(|h| h.rank);
            for (rank, h) in (0..MEMBERS).zip(holds) {
                let first = rank * TASKS_PER_NODE as u32;
                let want = Holds {
                    rank,
                    usrdata: b"tool data".to_vec(),
                    table: MEMBERS as usize * TASKS_PER_NODE,
                    local: (first..first + TASKS_PER_NODE as u32).collect(),
                    personality: (hs.ready == MW.ready).then_some(rank),
                };
                assert_eq!(h, want);
            }
        }
    }

    /// A sibling that never reports holds Ready back: the front end's
    /// delivery ends with this class's ready timeout, while the siblings
    /// that did report have gone on to their tool bodies. Once the silent
    /// rank is gone, the master ends its bootstrap instead of hanging, and
    /// never runs its tool body.
    #[test]
    fn a_sibling_that_never_reports_holds_ready_back() {
        for (hs, ready_timeout) in [(&BE, "waiting for BE ready"), (&MW, "waiting for MW ready")] {
            let (ready, held, silent, fe) =
                bootstrap_class(hs, &[MEMBERS - 1], Duration::from_millis(100));
            let err = ready.unwrap_err();
            assert!(matches!(err, LmonError::Timeout(why) if why == ready_timeout), "{err:?}");
            let mut ranks: Vec<u32> = (1..MEMBERS - 1)
                .map(|_| held.recv_timeout(STEP).expect("a sibling").rank)
                .collect();
            ranks.sort_unstable();
            assert_eq!(ranks, [1, 2, 3]);
            // The master's bootstrap ends: its channel closes, with no
            // Ready on it, and its tool body never runs.
            drop(silent);
            let closed = fe.recv_timeout(STEP);
            assert!(closed.is_err(), "the master's channel stayed open: {closed:?}");
            assert!(
                held.recv_timeout(Duration::from_millis(50)).is_err(),
                "the master ran its tool"
            );
        }
    }

    /// A table whose only bad row is another host's (its host id is out of
    /// range) fails a four-daemon session before anything is broadcast:
    /// the master refuses it, every sibling's first broadcast is the
    /// shutdown sentinel, no tool body runs and the front end sees no Ready.
    #[test]
    fn a_table_with_one_bad_row_fails_every_daemon_before_any_broadcast() {
        const N: u32 = 4;
        let mut table = synthetic_rpdtab(N as usize, TASKS_PER_NODE, "app").to_bytes();
        let host_id = table.len() - 20 + 4; // last row, on node00003: rank(4) host(4) exe(4) pid(8)
        table[host_id..host_id + 4].copy_from_slice(&999u32.to_be_bytes());
        for hs in [&BE, &MW] {
            let cluster = VirtualCluster::new(ClusterConfig::with_nodes(N as usize));
            let cookie = SessionCookie::mint_seeded(7);
            let (fe, daemon_end) = LocalChannel::pair();
            let slot = Arc::new(MasterSlot::new(Some(Box::new(daemon_end))));
            let bodies = Arc::new(AtomicUsize::new(0));
            let (tx, outcomes) = mpsc::channel();
            let mut spec = ProcSpec::named("toold");
            spec.env = cookie_env(&cookie);
            for comm in daemon_comms(N) {
                let (rank, slot, bodies, tx) =
                    (comm.rank(), slot.clone(), bodies.clone(), tx.clone());
                let body = move |ctx: ProcCtx| {
                    let booted = if hs.ready == BE.ready {
                        bootstrap::<BackEnd>(ctx, comm, &slot, Some(&TimelineRecorder::new()))
                            .map(drop)
                    } else {
                        bootstrap::<Middleware>(ctx, comm, &slot, None).map(drop)
                    };
                    // What `daemon_session::wrap` does on `Ok`.
                    if booted.is_ok() {
                        bodies.fetch_add(1, Ordering::SeqCst);
                    }
                    let _ = tx.send((rank, booted.map_err(|e| e.to_string())));
                };
                cluster.spawn_active(NodeId::Compute(rank), spec.clone(), body).unwrap();
            }
            hs.admit(&fe, &cookie, STEP).expect("hello admitted");
            let ready = hs.deliver(&fe, &cookie, Bytes::new(), vec![], table.clone().into(), STEP);
            assert!(ready.is_err(), "the front end was told Ready for a corrupt table");
            let mut got: Vec<(u32, Result<(), String>)> =
                (0..N).map(|_| outcomes.recv_timeout(STEP).expect("every daemon")).collect();
            got.sort_by_key(|(rank, _)| *rank);
            let master = got[0].1.as_ref().unwrap_err();
            assert!(master.contains("host_id"), "the master refused the table: {master}");
            for (rank, sibling) in &got[1..] {
                let err = sibling.as_ref().unwrap_err();
                assert!(err.contains("the master's handshake failed"), "rank {rank}: {err}");
            }
            assert_eq!(bodies.load(Ordering::SeqCst), 0, "a tool body ran");
        }
    }

    /// The usrdata exchange that follows the handshake on the same channel.
    #[test]
    fn usrdata_skips_strays_and_stops_at_shutdown() {
        for hs in [&BE, &MW] {
            let (near, far) = LocalChannel::pair();
            far.send(LmonpMsg::of_type(hs.ready)).unwrap(); // a stray
            hs.send_usrdata(&far, b"payload".to_vec()).unwrap();
            assert_eq!(hs.recv_usrdata(&near, STEP).unwrap(), b"payload");

            far.send(LmonpMsg::of_type(hs.shutdown)).unwrap();
            let err = hs.recv_usrdata(&near, STEP).unwrap_err();
            assert!(err.to_string().contains("shutdown"), "{err}");

            let err = hs.recv_usrdata(&near, Duration::from_millis(10)).unwrap_err();
            assert!(matches!(err, LmonError::Timeout(_)), "{err:?}");
        }
    }
}
