//! Message transports: how LMONP messages move between components.
//!
//! LMONP in the paper runs over TCP/IP between exactly one representative
//! per component (§3.5). On the virtual cluster every component is a thread
//! of one process, so a message crosses a link as a moved [`LmonpMsg`]: its
//! payload sections are refcounted views, and no LMONP byte is encoded on
//! the way. The [`MsgChannel`] trait is what every component talks through:
//!
//! * [`LocalChannel`] — a connected pair of crossbeam queues, for tests and
//!   for the pieces that run one exchange outside the live stack.
//! * [`crate::fault::FaultyChannel`] — any channel plus a deterministic
//!   frame-fault plan.
//! * [`crate::mux::MuxEndpoint`] — one logical session of a
//!   [`crate::mux::SessionMux`] link, the one link per component pair.
//!
//! All enforce the LMONP rule that user payloads piggyback on the same
//! message rather than using a second connection.
//!
//! Channel objects are *shareable*: every method takes `&self` and the
//! trait requires `Sync`, so one session's channel can be referenced from
//! several threads.

use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::error::{ProtoError, ProtoResult};
use crate::msg::LmonpMsg;

/// A bidirectional, message-oriented LMONP connection endpoint.
///
/// Object-safe and shareable: `LocalChannel`, `FaultyChannel` and mux
/// endpoints are interchangeable as `Box<dyn MsgChannel>` in the live
/// FE/BE/MW stack.
pub trait MsgChannel: Send + Sync {
    /// Send one message to the peer.
    fn send(&self, msg: LmonpMsg) -> ProtoResult<()>;

    /// Block until the next message arrives.
    fn recv(&self) -> ProtoResult<LmonpMsg>;

    /// Block for at most `timeout` waiting for the next message; `Ok(None)`
    /// on timeout.
    fn recv_timeout(&self, timeout: Duration) -> ProtoResult<Option<LmonpMsg>>;
}

/// Receive from `rx` within `timeout`: a message, `Ok(None)` on timeout,
/// [`ProtoError::Disconnected`] once every sender is gone and the queue
/// is drained.
pub(crate) fn recv_within(
    rx: &Receiver<LmonpMsg>,
    timeout: Duration,
) -> ProtoResult<Option<LmonpMsg>> {
    match rx.recv_timeout(timeout) {
        Ok(msg) => Ok(Some(msg)),
        Err(RecvTimeoutError::Timeout) => Ok(None),
        Err(RecvTimeoutError::Disconnected) => Err(ProtoError::Disconnected),
    }
}

/// In-process transport endpoint backed by crossbeam channels.
pub struct LocalChannel {
    tx: Sender<LmonpMsg>,
    rx: Receiver<LmonpMsg>,
}

impl LocalChannel {
    /// Create a connected pair of endpoints.
    pub fn pair() -> (LocalChannel, LocalChannel) {
        let (atx, arx) = unbounded();
        let (btx, brx) = unbounded();
        (LocalChannel { tx: atx, rx: brx }, LocalChannel { tx: btx, rx: arx })
    }
}

impl MsgChannel for LocalChannel {
    fn send(&self, msg: LmonpMsg) -> ProtoResult<()> {
        self.tx.send(msg).map_err(|_| ProtoError::Disconnected)
    }

    fn recv(&self) -> ProtoResult<LmonpMsg> {
        self.rx.recv().map_err(|_| ProtoError::Disconnected)
    }

    fn recv_timeout(&self, timeout: Duration) -> ProtoResult<Option<LmonpMsg>> {
        recv_within(&self.rx, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::MsgType;

    fn msg(tag: u16) -> LmonpMsg {
        LmonpMsg::of_type(MsgType::BeUsrData).with_tag(tag).with_lmon_payload(vec![tag as u8; 100])
    }

    #[test]
    fn local_pair_roundtrip() {
        let (a, b) = LocalChannel::pair();
        a.send(msg(1)).unwrap();
        a.send(msg(2)).unwrap();
        assert_eq!(b.recv().unwrap().tag, 1);
        assert_eq!(b.recv().unwrap(), msg(2));
    }

    #[test]
    fn local_recv_timeout_expires() {
        let (_a, b) = LocalChannel::pair();
        let got = b.recv_timeout(Duration::from_millis(10)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn local_disconnect_detected() {
        let (a, b) = LocalChannel::pair();
        drop(a);
        assert!(matches!(b.recv(), Err(ProtoError::Disconnected)));
    }
}
