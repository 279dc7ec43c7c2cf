//! The FE → engine command path: one command channel, and a fresh reply
//! channel per exchange.
//!
//! A command is one value: the session it acts for, the LMONP request,
//! unchanged from what a TCP deployment would carry, and an
//! [`EngineSidecar`] with what cannot travel as LMONP bytes, for reasons
//! documented in the crate root. That is the daemon body closure (the
//! stand-in for the daemon executable image, since the virtual cluster has
//! no `exec()`) and the session's [`TimelineRecorder`]. The engine receives
//! them together.
//!
//! Each exchange creates its own reply channel and sends its sender along
//! with the command, so replies need no correlation: the engine answers on
//! that channel, in order, and only the exchange that asked can read it.
//! Concurrent exchanges overlap without a lock, and a reply cannot reach
//! another exchange, even one on the same session. Dropping an
//! [`Exchange`] drops its receiver. The engine's next reply then fails to
//! send, which is how a handler learns that *this* exchange was abandoned
//! and cancels its own work.

use std::time::Duration;

use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};

use lmon_proto::header::MsgType;
use lmon_proto::msg::LmonpMsg;
use lmon_rm::api::DaemonBody;

use crate::engine::lifecycle::Event;
use crate::engine::Engine;
use crate::error::{LmonError, LmonResult};
use crate::session::SessionId;
use crate::timeline::TimelineRecorder;

/// Side-band artifacts that ride in a command next to its LMONP request:
/// everything the virtual cluster needs that a real deployment would get
/// from the filesystem and the daemon image.
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

/// One FE → engine command: the session it acts for, the LMONP message and
/// its sidecar. The engine keys what it holds by `session`, never by the
/// message's u16 tag, so a front end serves any number of sessions.
pub struct EngineCommand {
    /// The session the command acts for.
    pub session: SessionId,
    /// The LMONP request.
    pub msg: LmonpMsg,
    /// Side-band artifacts that travel with it.
    pub sidecar: EngineSidecar,
}

impl EngineCommand {
    /// A control-only command (detach/kill).
    pub fn control(session: SessionId, msg: LmonpMsg) -> Self {
        EngineCommand { session, msg, sidecar: EngineSidecar::default() }
    }
}

/// The engine's end of the command channel: each command arrives with the
/// sender its exchange's replies go to.
pub(crate) type EngineInlet = Receiver<(EngineCommand, Sender<LmonpMsg>)>;

/// FE-side endpoint of the engine command channel, with the engine's
/// session table that kills and detaches act on. Dropping it ends the
/// engine's command loop.
pub struct EngineEndpoint {
    commands: Sender<(EngineCommand, Sender<LmonpMsg>)>,
    engine: Engine,
}

impl EngineEndpoint {
    /// Mint a new session's id and file its record with the engine: the
    /// only ids a spawn-bearing command is taken for.
    pub fn mint_session(&self) -> SessionId {
        self.engine.mint()
    }

    /// Start an exchange without waiting for any reply: give the command a
    /// fresh reply channel and hand back an [`Exchange`] from which replies
    /// are consumed one at a time. A kill or detach is served on this
    /// thread; a spawn-bearing command is queued for the engine's command
    /// loop if its session was minted and is neither ending nor placing
    /// another (nor, for a launch or attach, holds a job), and refused here
    /// otherwise. This is the pipelining primitive — the launch path
    /// consumes the RPDTAB reply and runs the tool's pack callback while the
    /// engine is still spawning daemons, then waits for the spawn ack.
    pub fn begin_exchange(&self, cmd: EngineCommand) -> LmonResult<Exchange> {
        let (reply, replies) = crossbeam_channel::unbounded();
        if let Some(queued) = self.engine.accept(cmd, reply) {
            if let Err(unsent) = self.commands.send(queued) {
                let (cmd, _reply) = unsent.0;
                let _ = self.engine.step(cmd.session, Event::Fail, |_| ());
                return Err(LmonError::Engine("engine is gone".into()));
            }
        }
        Ok(Exchange { replies })
    }

    /// One command/reply exchange: send `cmd`, collect up to `want` replies
    /// (stopping early on an error reply, which is always terminal for a
    /// request). `timeout` bounds the wait for each reply, not the whole
    /// exchange.
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
}

/// An in-flight command/reply exchange started with
/// [`EngineEndpoint::begin_exchange`]. Replies are pulled one at a time, so
/// the caller can overlap its own work between them. Dropping the exchange
/// abandons it: the engine's later replies fail to send.
pub struct Exchange {
    replies: Receiver<LmonpMsg>,
}

impl Exchange {
    /// Block for the next reply, up to `timeout`. An `Engine` error means
    /// the engine dropped the command without answering it.
    pub fn next(&self, timeout: Duration) -> LmonResult<LmonpMsg> {
        self.replies.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => LmonError::Timeout("waiting for engine reply"),
            RecvTimeoutError::Disconnected => LmonError::Engine("engine is gone".into()),
        })
    }
}

/// Build the command channel to `engine`: (FE endpoint, engine inlet).
pub(crate) fn engine_channel(engine: Engine) -> (EngineEndpoint, EngineInlet) {
    let (commands, inlet) = crossbeam_channel::unbounded();
    (EngineEndpoint { commands, engine }, inlet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmon_cluster::config::ClusterConfig;
    use lmon_cluster::VirtualCluster;
    use lmon_rm::SlurmRm;

    fn control_msg(mtype: MsgType, tag: u16) -> LmonpMsg {
        LmonpMsg::of_type(mtype).with_tag(tag)
    }

    fn command(mtype: MsgType, session: u64) -> EngineCommand {
        EngineCommand::control(SessionId(session), LmonpMsg::of_type(mtype))
    }

    /// A channel to an engine whose command loop is the test itself: the
    /// test reads the queued spawn-bearing commands and answers them.
    fn test_channel() -> (EngineEndpoint, EngineInlet) {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1));
        let rm = std::sync::Arc::new(SlurmRm::new(cluster));
        engine_channel(Engine { rm, sessions: Default::default(), minted: Default::default() })
    }

    #[test]
    fn commands_carry_their_sidecar_and_replies_flow() {
        let (fe, inlet) = test_channel();
        let session = fe.mint_session();
        let mut cmd = command(MsgType::FeLaunchReq, session.0);
        cmd.sidecar.daemon_exe = "tool_daemon".into();
        let ex = fe.begin_exchange(cmd).unwrap();
        let (got, reply) = inlet.recv().unwrap();
        assert_eq!(got.session, session, "the session travels with its command");
        assert_eq!(got.msg.mtype, MsgType::FeLaunchReq);
        assert_eq!(got.sidecar.daemon_exe, "tool_daemon", "the sidecar travels with its command");
        reply.send(control_msg(MsgType::EngineAck, 7)).unwrap();
        assert_eq!(ex.next(Duration::from_secs(5)).unwrap().mtype, MsgType::EngineAck);
    }

    #[test]
    fn dropped_engine_surfaces_as_error() {
        let (fe, inlet) = test_channel();
        let session = fe.mint_session().0;
        // An exchange in flight when the engine goes learns it from its
        // reply channel, not from its timeout.
        let ex = fe.begin_exchange(command(MsgType::FeLaunchReq, session)).unwrap();
        drop(inlet);
        let err = ex.next(Duration::from_secs(5)).unwrap_err();
        assert!(matches!(err, LmonError::Engine(_)), "{err:?}");
        let again = fe.begin_exchange(command(MsgType::FeLaunchReq, fe.mint_session().0));
        assert!(again.is_err());
    }

    /// A kill or detach is served on the caller's thread: its reply is in
    /// before `begin_exchange` returns, and the command loop sees nothing.
    #[test]
    fn kill_and_detach_are_answered_without_the_command_loop() {
        let (fe, inlet) = test_channel();
        for mtype in [MsgType::FeKillReq, MsgType::FeDetachReq] {
            let ex = fe.begin_exchange(command(mtype, 3)).unwrap();
            let reply = ex.next(Duration::ZERO).expect("answered in place");
            assert!(reply.error, "session 3 has no job: {reply:?}");
        }
        assert!(inlet.try_recv().is_err(), "nothing was queued");
    }

    #[test]
    fn an_unanswered_exchange_times_out() {
        let (fe, _inlet) = test_channel();
        let session = fe.mint_session().0;
        let ex = fe.begin_exchange(command(MsgType::FeLaunchReq, session)).unwrap();
        let err = ex.next(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, LmonError::Timeout(_)));
    }

    #[test]
    fn timed_out_exchange_does_not_desync_the_next_one_even_on_the_same_tag() {
        // A launch exchange times out before the engine replies. Its late
        // replies (same tag!) must fail to send — that is how the engine
        // learns the launch was abandoned — and the MW spawn exchange that
        // follows must see only its own reply. It runs on a second session,
        // since a session with a launch still placing refuses it.
        let (fe, inlet) = test_channel();
        let (session, next) = (fe.mint_session(), fe.mint_session());
        let err = fe
            .exchange(command(MsgType::FeLaunchReq, session.0), 2, Duration::from_millis(10))
            .unwrap_err();
        assert!(matches!(err, LmonError::Timeout(_)));

        let (launch, stale) = inlet.recv().unwrap();
        assert_eq!(launch.session, session);

        let h = std::thread::spawn(move || {
            let (spawn, reply) = inlet.recv().unwrap();
            assert_eq!(spawn.msg.mtype, MsgType::FeSpawnMwReq);
            assert_eq!(spawn.session, next);
            // The engine catches up on the timed-out launch only now.
            assert!(stale.send(control_msg(MsgType::EngineRpdtab, 5)).is_err());
            assert!(stale.send(control_msg(MsgType::EngineAck, 5)).is_err());
            reply.send(control_msg(MsgType::EngineStatus, 5)).unwrap();
            inlet
        });
        let replies =
            fe.exchange(command(MsgType::FeSpawnMwReq, next.0), 1, Duration::from_secs(5)).unwrap();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].mtype, MsgType::EngineStatus, "stale same-tag replies never arrive");
        h.join().unwrap();
    }

    #[test]
    fn concurrent_exchanges_cannot_steal_each_others_replies() {
        // Two sessions issue exchanges simultaneously; the engine replies
        // to the *second* command first and interleaves the two sessions'
        // replies. Each exchange must come back with exactly its own.
        let (fe, inlet) = test_channel();
        let fe = std::sync::Arc::new(fe);
        let (s5, s9) = (fe.mint_session(), fe.mint_session());

        let engine = std::thread::spawn(move || {
            let first = inlet.recv().unwrap();
            let second = inlet.recv().unwrap();
            let (launch5, launch9) =
                if first.0.session == s5 { (first, second) } else { (second, first) };
            assert_eq!(launch5.0.session, s5);
            assert_eq!(launch9.0.session, s9);
            let (reply5, reply9) = (launch5.1, launch9.1);
            reply9.send(control_msg(MsgType::EngineRpdtab, 9)).unwrap();
            reply5.send(control_msg(MsgType::EngineRpdtab, 5)).unwrap();
            reply9.send(control_msg(MsgType::EngineAck, 9)).unwrap();
            reply5.send(control_msg(MsgType::EngineAck, 5)).unwrap();
        });

        let fe5 = fe.clone();
        let t5 = std::thread::spawn(move || {
            fe5.exchange(command(MsgType::FeLaunchReq, s5.0), 2, Duration::from_secs(10)).unwrap()
        });
        let t9 = std::thread::spawn(move || {
            fe.exchange(command(MsgType::FeLaunchReq, s9.0), 2, Duration::from_secs(10)).unwrap()
        });

        let r5 = t5.join().unwrap();
        let r9 = t9.join().unwrap();
        engine.join().unwrap();
        assert_eq!(r5.iter().map(|m| m.tag).collect::<Vec<_>>(), vec![5, 5]);
        assert_eq!(r9.iter().map(|m| m.tag).collect::<Vec<_>>(), vec![9, 9]);
        assert_eq!(r5[0].mtype, MsgType::EngineRpdtab);
        assert_eq!(r5[1].mtype, MsgType::EngineAck);
        assert_eq!(r9[0].mtype, MsgType::EngineRpdtab);
        assert_eq!(r9[1].mtype, MsgType::EngineAck);
    }

    #[test]
    fn incremental_exchange_interleaves_replies_with_caller_work() {
        let (fe, inlet) = test_channel();
        let session = fe.mint_session().0;
        let ex = fe.begin_exchange(command(MsgType::FeLaunchReq, session)).unwrap();
        let (_cmd, reply) = inlet.recv().unwrap();
        let early = ex.next(Duration::from_millis(5));
        assert!(matches!(early, Err(LmonError::Timeout(_))), "no reply sent yet: {early:?}");
        reply.send(control_msg(MsgType::EngineRpdtab, 4)).unwrap();
        let first = ex.next(Duration::from_secs(5)).unwrap();
        assert_eq!(first.mtype, MsgType::EngineRpdtab);
        // The caller overlaps its own work here; a timed-out wait loses
        // nothing, and the second reply is the next one read.
        let between = ex.next(Duration::from_millis(1));
        assert!(matches!(between, Err(LmonError::Timeout(_))), "{between:?}");
        reply.send(control_msg(MsgType::EngineAck, 4)).unwrap();
        let second = ex.next(Duration::from_secs(5)).unwrap();
        assert_eq!(second.mtype, MsgType::EngineAck);
    }

    #[test]
    fn exchange_stops_early_on_error_reply() {
        let (fe, inlet) = test_channel();
        let h = std::thread::spawn(move || {
            let (_cmd, reply) = inlet.recv().unwrap();
            let error = LmonpMsg::of_type(MsgType::EngineError);
            reply.send(error.with_lmon_payload(b"boom".to_vec()).as_error()).unwrap();
            inlet
        });
        let session = fe.mint_session().0;
        let replies =
            fe.exchange(command(MsgType::FeLaunchReq, session), 2, Duration::from_secs(5)).unwrap();
        assert_eq!(replies.len(), 1, "error replies are terminal");
        assert!(replies[0].error);
        h.join().unwrap();
    }
}
