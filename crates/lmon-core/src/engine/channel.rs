//! The FE → engine command path — carried over the session mux.
//!
//! Until ISSUE 4 this was the last dedicated crossbeam pair in the stack:
//! control commands rode their own channel while every other component
//! pair shared a mux link. It is now a logical session of a
//! [`SessionMux`], so control and data traffic share one transport and the
//! same zero-copy/batched hot path; the commands are real [`LmonpMsg`]s
//! end to end (what a TCP deployment would carry).
//!
//! Two things cannot travel as LMONP bytes, for reasons documented in the
//! crate root: the daemon body closure (the stand-in for the daemon
//! executable image, since the virtual cluster has no `exec()`) and the
//! session's [`TimelineRecorder`]. They ride *next to* the wire as an
//! [`EngineSidecar`] in a shared map keyed by the command's correlation
//! tag; the engine claims the sidecar when the tagged command arrives.
//!
//! Replies on the shared control stream are *tag-routed*: every exchange
//! stamps a fresh sequence number into its command's `sec_epoch`, the
//! engine echoes it on each reply, and the FE routes incoming replies into
//! per-`(tag, seq)` mailboxes. Concurrent exchanges therefore overlap on
//! the stream without any operation lock — a reply can only ever land in
//! the mailbox of the exchange that issued its exact command, so reply
//! stealing is structurally impossible, not merely serialized away (the
//! pre-ISSUE-6 design held a lock across each whole exchange, which made
//! concurrent launches take their engine phases back-to-back).
//!
//! With no exchange in flight nobody owns the physical receive; the first
//! thread that needs a reply elects itself *receiver* (mux-pump style),
//! routes whatever arrives — stragglers from timed-out exchanges carry a
//! retired `(tag, seq)` key and are dropped — and hands the role off
//! whenever it leaves the read loop.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use lmon_proto::header::MsgType;
use lmon_proto::msg::LmonpMsg;
use lmon_proto::mux::SessionMux;
use lmon_proto::transport::MsgChannel;
use lmon_rm::api::DaemonBody;

use crate::error::{LmonError, LmonResult};
use crate::timeline::TimelineRecorder;

/// The logical mux session carrying FE → engine control traffic.
pub const CONTROL_SESSION: u16 = 0;

/// Side-band artifacts that ride next to an LMONP command (keyed by the
/// command's tag): everything the virtual cluster needs that a real
/// deployment would get from the filesystem and the daemon image.
#[derive(Default)]
pub struct EngineSidecar {
    /// Daemon executable stand-in for spawn-bearing requests.
    pub body: Option<DaemonBody>,
    /// Daemon image name recorded in process tables.
    pub daemon_exe: String,
    /// Daemon argv.
    pub daemon_args: Vec<String>,
    /// Daemon environment (includes the session cookie variable).
    pub daemon_env: Vec<String>,
    /// Critical-path recorder for this operation.
    pub timeline: Option<TimelineRecorder>,
}

/// One FE → engine command: the LMONP message plus its sidecar.
pub struct EngineCommand {
    /// The LMONP request, sent over the mux byte-exact.
    pub msg: LmonpMsg,
    /// Side-band artifacts delivered out of band, keyed by `msg.tag`.
    pub sidecar: EngineSidecar,
}

impl EngineCommand {
    /// A control-only command (detach/kill/shutdown).
    pub fn control(msg: LmonpMsg) -> Self {
        EngineCommand { msg, sidecar: EngineSidecar::default() }
    }
}

type SidecarMap = Arc<Mutex<HashMap<u16, EngineSidecar>>>;

/// Per-`(tag, seq)` reply routing for concurrent exchanges on the shared
/// control stream.
///
/// One mutex guards the mailbox table plus the receiver-role flag; the
/// condvar wakes waiters when replies are routed or the role frees up.
struct ReplyRouter {
    state: Mutex<RouterState>,
    cv: Condvar,
}

#[derive(Default)]
struct RouterState {
    /// Live exchanges' reply queues, keyed by `(tag, sec_epoch)`. A reply
    /// whose key has no mailbox is a straggler from an exchange that gave
    /// up (timed out and retired its mailbox); it is dropped.
    mailboxes: HashMap<(u16, u16), VecDeque<LmonpMsg>>,
    /// Whether some exchange currently owns the physical receive.
    receiving: bool,
    /// The engine side of the link is gone; fatal for every exchange.
    dead: bool,
}

/// Removes an exchange's mailbox when it finishes (or errors out), so
/// stragglers addressed to it are dropped instead of accumulating.
struct MailboxGuard<'a> {
    router: &'a ReplyRouter,
    key: (u16, u16),
}

impl Drop for MailboxGuard<'_> {
    fn drop(&mut self) {
        self.router.state.lock().mailboxes.remove(&self.key);
    }
}

/// FE-side endpoint of the engine control stream.
pub struct EngineEndpoint {
    chan: Box<dyn MsgChannel>,
    sidecars: SidecarMap,
    /// Routes replies to the exchange that asked, by `(tag, seq)`.
    router: ReplyRouter,
    /// Per-exchange sequence number, stamped into the command's
    /// `sec_epoch` and echoed by the engine on every reply, so stragglers
    /// from a timed-out exchange can never be mistaken for the current
    /// exchange's replies — even when both carry the same session tag.
    seq: std::sync::atomic::AtomicU16,
    /// The FE side of the engine link; exposed for live transport
    /// accounting (the control path holds one physical channel, like every
    /// other component pair).
    mux: SessionMux,
}

impl EngineEndpoint {
    /// Send a command to the engine (sidecar first, so the tagged command
    /// can never arrive before its side-band artifacts).
    pub fn send(&self, cmd: EngineCommand) -> LmonResult<()> {
        let tag = cmd.msg.tag;
        self.sidecars.lock().insert(tag, cmd.sidecar);
        self.chan.send(cmd.msg).map_err(|_| {
            // The command never left: reclaim the sidecar or it leaks its
            // daemon-body closure in the shared map forever.
            self.sidecars.lock().remove(&tag);
            LmonError::Engine("engine is gone".into())
        })
    }

    /// Start an exchange without waiting for any reply: register the
    /// `(tag, seq)` mailbox, send the command, and hand back an
    /// [`Exchange`] from which replies are consumed one at a time. This is
    /// the pipelining primitive — the launch path consumes the RPDTAB
    /// reply and starts the BE handshake while the engine is still
    /// spawning daemons, then collects the spawn ack.
    pub fn begin_exchange(&self, mut cmd: EngineCommand) -> LmonResult<Exchange<'_>> {
        let seq = self.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        cmd.msg.sec_epoch = seq;
        let key = (cmd.msg.tag, seq);
        self.router.state.lock().mailboxes.insert(key, VecDeque::new());
        let mailbox = MailboxGuard { router: &self.router, key };
        self.send(cmd)?;
        Ok(Exchange { endpoint: self, key, _mailbox: mailbox })
    }

    /// One command/reply exchange: send `cmd`, collect up to `want` replies
    /// (stopping early on an error reply, which is always terminal for a
    /// request). Concurrent exchanges overlap freely: each registers a
    /// mailbox under its unique `(tag, seq)` key before sending, and
    /// replies are routed by that key, so no exchange can observe — let
    /// alone steal — another's replies. `timeout` bounds the wait for each
    /// reply, not the whole exchange.
    pub fn exchange(
        &self,
        cmd: EngineCommand,
        want: usize,
        timeout: Duration,
    ) -> LmonResult<Vec<LmonpMsg>> {
        let ex = self.begin_exchange(cmd)?;
        let mut replies = Vec::with_capacity(want);
        while replies.len() < want {
            let reply = ex.next(timeout)?;
            let terminal = reply.error || reply.mtype == MsgType::EngineError;
            replies.push(reply);
            if terminal {
                break;
            }
        }
        Ok(replies)
    }

    /// Wait until a reply lands in `key`'s mailbox (or `deadline` passes —
    /// `Ok(None)` — or the engine dies). Whoever gets here first with no
    /// receiver in flight takes the receiver role, performs the physical
    /// receive with every lock released, routes what arrives, and releases
    /// the role; everyone else parks on the condvar. Stragglers addressed
    /// to retired mailboxes are dropped in routing.
    fn next_reply(&self, key: (u16, u16), deadline: Instant) -> LmonResult<Option<LmonpMsg>> {
        loop {
            let mut st = self.router.state.lock();
            if let Some(reply) = st.mailboxes.get_mut(&key).and_then(VecDeque::pop_front) {
                return Ok(Some(reply));
            }
            if st.dead {
                return Err(LmonError::Engine("engine is gone".into()));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let remaining = deadline - now;
            if st.receiving {
                // Someone else owns the read; they will route our reply or
                // hand the role off when they leave.
                self.router.cv.wait_for(&mut st, remaining);
                continue;
            }
            st.receiving = true;
            drop(st);
            let res = self.chan.recv_timeout(remaining);
            let mut st = self.router.state.lock();
            st.receiving = false;
            match res {
                Ok(Some(reply)) => {
                    if let Some(q) = st.mailboxes.get_mut(&(reply.tag, reply.sec_epoch)) {
                        q.push_back(reply);
                    }
                    // else: straggler for a retired exchange — dropped.
                }
                Ok(None) => {} // receive slice expired; deadline check re-runs
                Err(_) => st.dead = true,
            }
            drop(st);
            // Wake everyone: a routed reply, a freed receiver role, or
            // death — each is a reason for some waiter to re-check.
            self.router.cv.notify_all();
        }
    }

    /// Live accounting for the engine control link.
    pub fn mux(&self) -> &SessionMux {
        &self.mux
    }
}

/// An in-flight command/reply exchange started with
/// [`EngineEndpoint::begin_exchange`]. Replies are pulled one at a time,
/// so the caller can overlap its own work between them. Dropping the
/// exchange retires its mailbox; late replies become stragglers and are
/// dropped in routing.
pub struct Exchange<'a> {
    endpoint: &'a EngineEndpoint,
    key: (u16, u16),
    _mailbox: MailboxGuard<'a>,
}

impl Exchange<'_> {
    /// Block for the next reply, up to `timeout`.
    pub fn next(&self, timeout: Duration) -> LmonResult<LmonpMsg> {
        match self.endpoint.next_reply(self.key, Instant::now() + timeout)? {
            Some(reply) => Ok(reply),
            None => Err(LmonError::Timeout("waiting for engine reply")),
        }
    }

    /// Wait up to `timeout` for the next reply; `Ok(None)` when nothing
    /// arrived in time. A zero timeout never takes the physical receive
    /// slot, so polls should pass a small positive slice (a millisecond)
    /// to actually drain the stream.
    pub fn poll(&self, timeout: Duration) -> LmonResult<Option<LmonpMsg>> {
        self.endpoint.next_reply(self.key, Instant::now() + timeout)
    }
}

/// Engine-side half of the control stream.
pub struct EngineInlet {
    chan: Box<dyn MsgChannel>,
    sidecars: SidecarMap,
    /// Keeps the engine side of the link (and its accounting) alive.
    _mux: SessionMux,
}

impl EngineInlet {
    /// Block for the next command; an error means the FE is gone and the
    /// engine should exit.
    pub fn recv(&self) -> LmonResult<LmonpMsg> {
        self.chan.recv().map_err(|_| LmonError::Engine("front end is gone".into()))
    }

    /// Claim the sidecar stashed for the command with `tag` (empty when the
    /// command was control-only).
    pub fn take_sidecar(&self, tag: u16) -> EngineSidecar {
        self.sidecars.lock().remove(&tag).unwrap_or_default()
    }

    /// Send one reply back to the front end.
    pub fn send(&self, msg: LmonpMsg) -> LmonResult<()> {
        self.chan.send(msg).map_err(|_| LmonError::Engine("front end is gone".into()))
    }
}

/// Build the control stream: (FE endpoint, engine inlet), one logical
/// session over one physical mux link.
pub fn engine_channel() -> (EngineEndpoint, EngineInlet) {
    let (fe_mux, eng_mux) = SessionMux::pair();
    let fe_chan: Box<dyn MsgChannel> =
        Box::new(fe_mux.open(CONTROL_SESSION).expect("fresh mux accepts the control session"));
    let eng_chan: Box<dyn MsgChannel> =
        Box::new(eng_mux.open(CONTROL_SESSION).expect("fresh mux accepts the control session"));
    let sidecars: SidecarMap = Arc::new(Mutex::new(HashMap::new()));
    (
        EngineEndpoint {
            chan: fe_chan,
            sidecars: sidecars.clone(),
            router: ReplyRouter { state: Mutex::new(RouterState::default()), cv: Condvar::new() },
            seq: std::sync::atomic::AtomicU16::new(0),
            mux: fe_mux,
        },
        EngineInlet { chan: eng_chan, sidecars, _mux: eng_mux },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn control_msg(mtype: MsgType, tag: u16) -> LmonpMsg {
        LmonpMsg::of_type(mtype).with_tag(tag)
    }

    #[test]
    fn commands_and_replies_flow_over_the_mux() {
        let (fe, inlet) = engine_channel();
        let ex = fe
            .begin_exchange(EngineCommand::control(control_msg(MsgType::FeDetachReq, 3)))
            .unwrap();
        let got = inlet.recv().unwrap();
        assert_eq!(got.mtype, MsgType::FeDetachReq);
        assert_eq!(got.tag, 3);
        assert!(inlet.take_sidecar(got.tag).body.is_none());
        inlet.send(control_msg(MsgType::EngineAck, 3).with_epoch(got.sec_epoch)).unwrap();
        assert_eq!(ex.next(Duration::from_secs(5)).unwrap().mtype, MsgType::EngineAck);
        // The control path holds exactly one physical channel.
        assert_eq!(fe.mux().physical_links(), 1);
        assert_eq!(fe.mux().session_count(), 1);
    }

    #[test]
    fn sidecars_are_claimed_by_tag() {
        let (fe, inlet) = engine_channel();
        let mut cmd = EngineCommand::control(control_msg(MsgType::FeLaunchReq, 7));
        cmd.sidecar.daemon_exe = "tool_daemon".into();
        fe.send(cmd).unwrap();
        let got = inlet.recv().unwrap();
        assert_eq!(inlet.take_sidecar(got.tag).daemon_exe, "tool_daemon");
        assert!(inlet.take_sidecar(got.tag).daemon_exe.is_empty(), "claimed exactly once");
    }

    #[test]
    fn dropped_engine_surfaces_as_error() {
        let (fe, inlet) = engine_channel();
        // An exchange in flight when the engine goes learns it from the
        // stream, not from its timeout.
        let ex =
            fe.begin_exchange(EngineCommand::control(control_msg(MsgType::FeKillReq, 0))).unwrap();
        drop(inlet);
        let err = ex.next(Duration::from_secs(5)).unwrap_err();
        assert!(matches!(err, LmonError::Engine(_)), "{err:?}");
        assert!(fe.send(EngineCommand::control(control_msg(MsgType::FeKillReq, 0))).is_err());
    }

    #[test]
    fn an_unanswered_exchange_times_out() {
        let (fe, _inlet) = engine_channel();
        let ex =
            fe.begin_exchange(EngineCommand::control(control_msg(MsgType::FeKillReq, 0))).unwrap();
        let err = ex.next(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, LmonError::Timeout(_)));
    }

    #[test]
    fn timed_out_exchange_does_not_desync_the_next_one_even_on_the_same_tag() {
        // A launch exchange on session 5 times out before the engine
        // replies; the late replies (same tag!) land on the stream. A kill
        // exchange on the *same session* must not consume them as its own:
        // the per-exchange sequence number in sec_epoch keys a mailbox the
        // stale replies cannot address (theirs was retired at timeout), so
        // routing drops them.
        let (fe, inlet) = engine_channel();
        let err = fe
            .exchange(
                EngineCommand::control(control_msg(MsgType::FeLaunchReq, 5)),
                2,
                Duration::from_millis(10),
            )
            .unwrap_err();
        assert!(matches!(err, LmonError::Timeout(_)));

        let launch = inlet.recv().unwrap();
        assert_eq!(launch.tag, 5);
        let stale_seq = launch.sec_epoch;

        let h = std::thread::spawn(move || {
            let got = inlet.recv().unwrap();
            assert_eq!(got.mtype, MsgType::FeKillReq);
            assert_eq!(got.tag, 5);
            // The engine catches up on the timed-out launch only now: its
            // late replies (same tag, old sequence number) arrive while
            // the kill exchange is live and must be dropped in routing.
            inlet.send(control_msg(MsgType::EngineRpdtab, 5).with_epoch(stale_seq)).unwrap();
            inlet.send(control_msg(MsgType::EngineAck, 5).with_epoch(stale_seq)).unwrap();
            inlet.send(control_msg(MsgType::EngineStatus, 5).with_epoch(got.sec_epoch)).unwrap();
            inlet
        });
        let replies = fe
            .exchange(
                EngineCommand::control(control_msg(MsgType::FeKillReq, 5)),
                1,
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].mtype, MsgType::EngineStatus, "stale same-tag replies discarded");
        h.join().unwrap();
    }

    #[test]
    fn concurrent_exchanges_cannot_steal_each_others_replies() {
        // Two sessions issue exchanges simultaneously; the engine replies
        // to the *second* command first, interleaves the two sessions'
        // replies, and sprinkles stragglers for a retired exchange in
        // between. Under tag routing each exchange must come back with
        // exactly its own replies — regression for the lock-free overlap.
        let (fe, inlet) = engine_channel();
        let fe = Arc::new(fe);

        let engine = std::thread::spawn(move || {
            let first = inlet.recv().unwrap();
            let second = inlet.recv().unwrap();
            let (launch5, launch9) = if first.tag == 5 { (first, second) } else { (second, first) };
            assert_eq!(launch5.tag, 5);
            assert_eq!(launch9.tag, 9);
            // Session 9 is answered first, fully; session 5's replies come
            // after, with a same-tag straggler (stale seq) ahead of them.
            inlet
                .send(control_msg(MsgType::EngineRpdtab, 9).with_epoch(launch9.sec_epoch))
                .unwrap();
            inlet.send(control_msg(MsgType::EngineAck, 9).with_epoch(launch9.sec_epoch)).unwrap();
            inlet
                .send(
                    control_msg(MsgType::EngineError, 5)
                        .with_epoch(launch5.sec_epoch.wrapping_add(100)) // retired seq
                        .as_error(),
                )
                .unwrap();
            inlet
                .send(control_msg(MsgType::EngineRpdtab, 5).with_epoch(launch5.sec_epoch))
                .unwrap();
            inlet.send(control_msg(MsgType::EngineAck, 5).with_epoch(launch5.sec_epoch)).unwrap();
        });

        let fe5 = fe.clone();
        let t5 = std::thread::spawn(move || {
            fe5.exchange(
                EngineCommand::control(control_msg(MsgType::FeLaunchReq, 5)),
                2,
                Duration::from_secs(10),
            )
            .unwrap()
        });
        let t9 = std::thread::spawn(move || {
            fe.exchange(
                EngineCommand::control(control_msg(MsgType::FeLaunchReq, 9)),
                2,
                Duration::from_secs(10),
            )
            .unwrap()
        });

        let r5 = t5.join().unwrap();
        let r9 = t9.join().unwrap();
        engine.join().unwrap();
        assert_eq!(r5.iter().map(|m| m.tag).collect::<Vec<_>>(), vec![5, 5]);
        assert_eq!(r9.iter().map(|m| m.tag).collect::<Vec<_>>(), vec![9, 9]);
        assert_eq!(r5[0].mtype, MsgType::EngineRpdtab);
        assert_eq!(r5[1].mtype, MsgType::EngineAck);
        assert!(!r5.iter().any(|m| m.error), "the stale-seq error straggler was dropped");
        assert_eq!(r9[0].mtype, MsgType::EngineRpdtab);
        assert_eq!(r9[1].mtype, MsgType::EngineAck);
    }

    #[test]
    fn incremental_exchange_interleaves_replies_with_caller_work() {
        let (fe, inlet) = engine_channel();
        let ex = fe
            .begin_exchange(EngineCommand::control(control_msg(MsgType::FeLaunchReq, 4)))
            .unwrap();
        let cmd = inlet.recv().unwrap();
        assert!(ex.poll(Duration::from_millis(5)).unwrap().is_none(), "no reply sent yet");
        inlet.send(control_msg(MsgType::EngineRpdtab, 4).with_epoch(cmd.sec_epoch)).unwrap();
        let first = ex.next(Duration::from_secs(5)).unwrap();
        assert_eq!(first.mtype, MsgType::EngineRpdtab);
        // The caller overlaps its own work here; the second reply arrives
        // later and is picked up by short poll slices.
        inlet.send(control_msg(MsgType::EngineAck, 4).with_epoch(cmd.sec_epoch)).unwrap();
        let second = loop {
            if let Some(r) = ex.poll(Duration::from_millis(1)).unwrap() {
                break r;
            }
        };
        assert_eq!(second.mtype, MsgType::EngineAck);
    }

    #[test]
    fn exchange_stops_early_on_error_reply() {
        let (fe, inlet) = engine_channel();
        let h = std::thread::spawn(move || {
            let got = inlet.recv().unwrap();
            inlet
                .send(
                    control_msg(MsgType::EngineError, got.tag)
                        .with_epoch(got.sec_epoch)
                        .with_lmon_payload(b"boom".to_vec())
                        .as_error(),
                )
                .unwrap();
            inlet
        });
        let replies = fe
            .exchange(
                EngineCommand::control(control_msg(MsgType::FeLaunchReq, 5)),
                2,
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(replies.len(), 1, "error replies are terminal");
        assert!(replies[0].error);
        h.join().unwrap();
    }
}
