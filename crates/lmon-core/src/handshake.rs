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
//! What really differs per class stays with the caller: what the launch
//! info *is* (the master's [`DaemonInfo`](lmon_proto::payload::DaemonInfo)
//! for back ends, the personality table for middleware), the ICCL broadcast
//! sequence that fans it out, and the timeline marks around it.

use std::time::Duration;

use parking_lot::Mutex;

use lmon_cluster::process::ProcCtx;
use lmon_proto::header::MsgType;
use lmon_proto::msg::LmonpMsg;
use lmon_proto::payload::Hello;
use lmon_proto::security::{SessionCookie, COOKIE_ENV_VAR};
use lmon_proto::transport::MsgChannel;
use lmon_proto::Bytes;

use crate::error::{LmonError, LmonResult};

/// Where the FE parks the daemon end of a session's master channel until
/// the master daemon (rank 0 of the spawn) claims it.
pub(crate) type MasterSlot = Mutex<Option<Box<dyn MsgChannel>>>;

/// One message class's handshake vocabulary.
pub(crate) struct Handshake {
    hello: MsgType,
    launch_info: MsgType,
    rpdtab: MsgType,
    ready: MsgType,
    usrdata: MsgType,
    shutdown: MsgType,
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
    /// the environment, take delivery of launch info and then the RPDTAB.
    /// Returns the channel with both messages; the caller broadcasts them
    /// its own way and then calls [`Handshake::ready`].
    pub(crate) fn greet(
        &self,
        slot: &MasterSlot,
        ctx: &ProcCtx,
    ) -> LmonResult<(Box<dyn MsgChannel>, LmonpMsg, LmonpMsg)> {
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

    /// Close the handshake from the daemon side: every daemon is set up.
    pub(crate) fn ready(&self, chan: &dyn MsgChannel) -> LmonResult<()> {
        Ok(chan.send(LmonpMsg::of_type(self.ready))?)
    }

    // --- front-end side ---------------------------------------------------

    /// Admit the master: its first message must be this class's hello and
    /// must present the session's cookie.
    pub(crate) fn verify_hello(&self, hello: LmonpMsg, cookie: &SessionCookie) -> LmonResult<()> {
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

/// A daemon's channel to the front end: only the master holds one.
pub(crate) fn master(chan: &Option<Box<dyn MsgChannel>>) -> LmonResult<&dyn MsgChannel> {
    chan.as_deref().ok_or(LmonError::Engine("not the master daemon".into()))
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use lmon_cluster::config::ClusterConfig;
    use lmon_cluster::node::NodeId;
    use lmon_cluster::process::ProcSpec;
    use lmon_cluster::VirtualCluster;
    use lmon_proto::transport::LocalChannel;

    use super::*;

    /// What the daemon side made of the handshake: the piggybacked tool
    /// data and the RPDTAB bytes it took delivery of.
    type Greeted = LmonResult<(Vec<u8>, Vec<u8>)>;

    /// Run the daemon side as a process on the virtual cluster with `env`
    /// as its environment. Returns the FE end of its master channel and
    /// where its outcome arrives.
    fn master_daemon(
        cluster: &VirtualCluster,
        hs: &'static Handshake,
        env: Vec<String>,
    ) -> (LocalChannel, mpsc::Receiver<Greeted>) {
        let (fe_end, daemon_end) = LocalChannel::pair();
        let slot = MasterSlot::new(Some(Box::new(daemon_end)));
        let (tx, rx) = mpsc::channel();
        let mut spec = ProcSpec::named("toold");
        spec.env = env;
        let body = move |ctx: ProcCtx| {
            let greeted = hs.greet(&slot, &ctx).and_then(|(chan, launch_info, table)| {
                hs.ready(chan.as_ref())?;
                Ok((launch_info.usr.to_vec(), table.lmon.to_vec()))
            });
            let _ = tx.send(greeted);
        };
        cluster.spawn_active(NodeId::Compute(0), spec, body).expect("spawn daemon");
        (fe_end, rx)
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
        for hs in [&BE, &MW] {
            // In order, with the right cookie: both sides finish, and the
            // daemon holds what the FE sent.
            let (fe, outcome) = master_daemon(&cluster, hs, cookie_env(&cookie));
            let hello = fe.recv_timeout(STEP).unwrap().expect("hello");
            hs.verify_hello(hello, &cookie).expect("right cookie is admitted");
            let info = Bytes::copy_from_slice(b"launch info");
            let table = Bytes::copy_from_slice(b"proctable");
            let ready = hs.deliver(&fe, &cookie, info, b"tool data".to_vec(), table, STEP);
            assert_eq!(ready.expect("ready").mtype, hs.ready);
            let (usrdata, rpdtab) = outcome.recv_timeout(STEP).unwrap().expect("daemon side");
            assert_eq!((&usrdata[..], &rpdtab[..]), (&b"tool data"[..], &b"proctable"[..]));

            // Wrong cookie in the daemon's environment: the FE refuses the hello.
            let (fe, _outcome) =
                master_daemon(&cluster, hs, cookie_env(&SessionCookie::mint_seeded(8)));
            let hello = fe.recv_timeout(STEP).unwrap().expect("hello");
            let err = hs.verify_hello(hello, &cookie).unwrap_err();
            assert!(matches!(err, LmonError::AuthFailed), "expected AuthFailed, got {err:?}");

            // The other class's hello is not a hello.
            let other = if hs.hello == BE.hello { MW.hello } else { BE.hello };
            let err = hs.verify_hello(LmonpMsg::of_type(other), &cookie).unwrap_err();
            assert!(err.to_string().contains("handshake out of order"), "{err}");

            // RPDTAB before launch info: the daemon gives up.
            let (fe, outcome) = master_daemon(&cluster, hs, cookie_env(&cookie));
            fe.recv_timeout(STEP).unwrap().expect("hello");
            fe.send(LmonpMsg::of_type(hs.rpdtab)).unwrap();
            let err = outcome.recv_timeout(STEP).unwrap().unwrap_err();
            assert!(err.to_string().contains("handshake out of order"), "{err}");

            // No cookie in the environment: an error at once, never a hello
            // and never a hang.
            let (fe, outcome) = master_daemon(&cluster, hs, vec![]);
            let err = outcome.recv_timeout(STEP).expect("daemon returns").unwrap_err();
            assert!(err.to_string().contains("missing session cookie"), "{err}");
            assert!(!matches!(fe.recv_timeout(Duration::from_millis(20)), Ok(Some(_))));
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
