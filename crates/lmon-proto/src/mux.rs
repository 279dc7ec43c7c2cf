//! Session multiplexing: many logical LMONP sessions over one link.
//!
//! The paper's central fix for the tool-daemon fd wall is collapsing
//! per-session connections into *one* link per component pair (§3.5): the
//! front end talks to exactly one representative of each component, no
//! matter how many tool sessions are active. [`SessionMux`] bakes that fix
//! into the transport layer as an architectural invariant: one link carries
//! any number of logical sessions, and hands out per-session
//! [`MuxEndpoint`] handles that themselves implement [`MsgChannel`]. N
//! sessions therefore cost one link *by construction*; nothing upstack can
//! accidentally open a second connection.
//!
//! ## Routing at send time
//!
//! Both ends of a link live in one process, so the link is a routing table
//! rather than a frame queue. Each end keeps, per open session, the sender
//! half of that session's inbox (a crossbeam channel whose receiver the
//! endpoint owns). A send looks up the peer end's inbox for its session and
//! moves the message straight into it. There is no physical queue to pump
//! and nothing to demultiplex: a receive is a plain blocking receive on the
//! endpoint's own inbox, and a sender never waits for a receiver.
//!
//! ## Ordering, close and loss
//!
//! Messages of one session arrive in the order they were sent. Dropping an
//! endpoint closes its session: its own inbox leaves its end's table, and
//! the peer's inbox for the same id loses its sender, so the peer drains
//! what was already sent and then reports [`ProtoError::Disconnected`]
//! rather than timing out. When every handle of one end is gone (the
//! [`SessionMux`] clones and all their endpoints), the link is dead: every
//! peer inbox disconnects after draining, and peer sends and opens fail.
//!
//! Open both endpoints of a session before traffic for it flows: a message
//! for a session the peer never opened, or already closed, is dropped and
//! counted in [`SessionMux::orphan_frames`] on the peer's side, never a
//! panic. The live FE/BE/MW stack opens endpoints before daemons spawn, so
//! the counter staying zero is part of its invariants.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::error::{ProtoError, ProtoResult};
use crate::msg::LmonpMsg;
use crate::transport::{recv_within, MsgChannel};

/// One side of a session link.
///
/// Cloning is cheap and shares the side; use [`SessionMux::open`] to create
/// per-session endpoints. Accounting ([`SessionMux::session_count`],
/// [`SessionMux::peak_session_count`], [`SessionMux::physical_links`])
/// backs the scalability assertions in the test suite: any number of
/// sessions, exactly one link.
#[derive(Clone)]
pub struct SessionMux {
    side: Arc<Side>,
}

/// A live handle on one end of a link. Every [`SessionMux`] clone and
/// every endpoint of that end shares one; when the last drops, the end is
/// dead.
struct Side {
    link: Arc<[End; 2]>,
    ix: usize,
}

/// One end of a link.
#[derive(Default)]
struct End {
    state: Mutex<EndState>,
    /// Every handle on this end has dropped.
    dead: AtomicBool,
    /// Messages addressed to this end that found no open inbox.
    orphans: AtomicU64,
}

#[derive(Default)]
struct EndState {
    /// Sessions open on this end, each with the sender into its inbox;
    /// `None` once the peer closed the session or the peer end died.
    open: HashMap<u32, Option<Sender<LmonpMsg>>>,
    /// High-water mark of `open.len()`.
    peak: usize,
}

impl Side {
    /// This side's end and the peer's.
    fn ends(&self) -> (&End, &End) {
        (&self.link[self.ix], &self.link[1 - self.ix])
    }
}

impl Drop for Side {
    fn drop(&mut self) {
        // The last handle on this end is gone: the link is dead. Every peer
        // inbox drains, then reports disconnection.
        let (own, peer) = self.ends();
        own.dead.store(true, Ordering::SeqCst);
        for inbox in peer.state.lock().open.values_mut() {
            *inbox = None;
        }
    }
}

impl SessionMux {
    /// The two connected sides of one link: the link a component pair
    /// shares.
    pub fn pair() -> (SessionMux, SessionMux) {
        let link = Arc::new([End::default(), End::default()]);
        let side = |ix| SessionMux { side: Arc::new(Side { link: link.clone(), ix }) };
        (side(0), side(1))
    }

    /// Open the endpoint for logical session `id`.
    ///
    /// Fails with [`ProtoError::InvalidField`] if the session is already
    /// open on this side, and [`ProtoError::Disconnected`] once the peer
    /// end has died.
    pub fn open(&self, id: u32) -> ProtoResult<MuxEndpoint> {
        let (own, peer) = self.side.ends();
        let mut state = own.state.lock();
        // Checked under this end's lock, which the peer's death takes after
        // setting `dead`: an inbox registered here is either seen by that
        // sweep or refused now.
        if peer.dead.load(Ordering::SeqCst) {
            return Err(ProtoError::Disconnected);
        }
        if state.open.contains_key(&id) {
            return Err(ProtoError::InvalidField { field: "mux_session", value: u64::from(id) });
        }
        let (tx, inbox) = unbounded();
        state.open.insert(id, Some(tx));
        state.peak = state.peak.max(state.open.len());
        Ok(MuxEndpoint { side: self.side.clone(), id, inbox })
    }

    /// Number of sessions currently open on this side of the link.
    pub fn session_count(&self) -> usize {
        self.side.ends().0.state.lock().open.len()
    }

    /// High-water mark of simultaneously open sessions.
    pub fn peak_session_count(&self) -> usize {
        self.side.ends().0.state.lock().peak
    }

    /// Links behind this mux — always exactly one; the type cannot
    /// represent more. Exposed so tests assert the invariant against live
    /// accounting rather than documentation.
    pub fn physical_links(&self) -> usize {
        1
    }

    /// Messages that arrived for sessions never opened — or already
    /// closed — on this side.
    pub fn orphan_frames(&self) -> u64 {
        self.side.ends().0.orphans.load(Ordering::Relaxed)
    }
}

/// One logical session of a [`SessionMux`]; a full [`MsgChannel`].
///
/// Dropping the endpoint closes the session: the peer's endpoint reports
/// disconnection once it has drained what was sent.
pub struct MuxEndpoint {
    side: Arc<Side>,
    id: u32,
    inbox: Receiver<LmonpMsg>,
}

impl MuxEndpoint {
    /// The logical session id this endpoint serves.
    pub fn session_id(&self) -> u32 {
        self.id
    }
}

impl MsgChannel for MuxEndpoint {
    fn send(&self, msg: LmonpMsg) -> ProtoResult<()> {
        let peer = self.side.ends().1;
        if peer.dead.load(Ordering::SeqCst) {
            return Err(ProtoError::Disconnected);
        }
        let delivered = match peer.state.lock().open.get(&self.id) {
            Some(Some(inbox)) => inbox.send(msg).is_ok(),
            _ => false,
        };
        if !delivered {
            peer.orphans.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn recv(&self) -> ProtoResult<LmonpMsg> {
        self.inbox.recv().map_err(|_| ProtoError::Disconnected)
    }

    fn recv_timeout(&self, timeout: Duration) -> ProtoResult<Option<LmonpMsg>> {
        recv_within(&self.inbox, timeout)
    }
}

impl Drop for MuxEndpoint {
    fn drop(&mut self) {
        // Leave this end's table, then cut the peer's inbox for the same
        // session: the peer drains what was sent, then sees the close.
        let (own, peer) = self.side.ends();
        own.state.lock().open.remove(&self.id);
        if let Some(inbox) = peer.state.lock().open.get_mut(&self.id) {
            *inbox = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::header::MsgType;

    fn msg(tag: u16) -> LmonpMsg {
        LmonpMsg::of_type(MsgType::BeUsrData).with_tag(tag).with_usr_payload(vec![tag as u8; 8])
    }

    #[test]
    fn two_sessions_share_one_physical_link() {
        let (near, far) = SessionMux::pair();
        let (a0, a1) = (near.open(0).unwrap(), near.open(1).unwrap());
        let (b0, b1) = (far.open(0).unwrap(), far.open(1).unwrap());

        a0.send(msg(10)).unwrap();
        a1.send(msg(11)).unwrap();

        // Each endpoint sees only its own session's traffic, even when the
        // other session's message was sent first.
        assert_eq!(b1.recv().unwrap().tag, 11);
        assert_eq!(b0.recv().unwrap().tag, 10);

        assert_eq!(near.session_count(), 2);
        assert_eq!(near.physical_links(), 1);
        assert_eq!(far.physical_links(), 1);
        assert_eq!(near.orphan_frames(), 0);
        assert_eq!(far.orphan_frames(), 0);
    }

    #[test]
    fn inner_messages_travel_byte_exact() {
        let (near, far) = SessionMux::pair();
        let a = near.open(7).unwrap();
        let b = far.open(7).unwrap();
        let original = LmonpMsg::of_type(MsgType::BeLaunchInfo)
            .with_tag(999)
            .with_epoch(3)
            .with_lmon_payload(vec![1, 2, 3])
            .with_usr_payload(vec![9; 100]);
        a.send(original.clone()).unwrap();
        assert_eq!(b.recv().unwrap(), original);
    }

    #[test]
    fn endpoint_drop_surfaces_as_peer_disconnect_not_timeout() {
        let (near, far) = SessionMux::pair();
        let a = near.open(3).unwrap();
        let b = far.open(3).unwrap();
        a.send(msg(1)).unwrap();
        drop(a);
        // Queued traffic drains first, then the close is reported.
        assert_eq!(b.recv().unwrap().tag, 1);
        let t0 = Instant::now();
        assert!(matches!(b.recv_timeout(Duration::from_secs(5)), Err(ProtoError::Disconnected)));
        assert!(t0.elapsed() < Duration::from_secs(1), "a close, not a timeout");
    }

    #[test]
    fn one_session_closing_leaves_others_running() {
        let (near, far) = SessionMux::pair();
        let a0 = near.open(0).unwrap();
        let a1 = near.open(1).unwrap();
        let b0 = far.open(0).unwrap();
        let b1 = far.open(1).unwrap();
        drop(a0);
        assert!(matches!(b0.recv_timeout(Duration::from_secs(5)), Err(ProtoError::Disconnected)));
        a1.send(msg(42)).unwrap();
        assert_eq!(b1.recv().unwrap().tag, 42);
        assert_eq!(near.session_count(), 1, "only the closed session left the table");
    }

    #[test]
    fn physical_link_death_fails_every_session() {
        let (near, far) = SessionMux::pair();
        let a = near.open(0).unwrap();
        let b0 = far.open(0).unwrap();
        let b1 = far.open(1).unwrap();
        a.send(msg(5)).unwrap();
        drop(near);
        drop(a);
        assert_eq!(b0.recv().unwrap().tag, 5, "sent traffic drains first");
        assert!(matches!(b0.recv_timeout(Duration::from_secs(5)), Err(ProtoError::Disconnected)));
        assert!(matches!(b1.recv_timeout(Duration::from_secs(5)), Err(ProtoError::Disconnected)));
        assert!(b0.send(msg(0)).is_err());
        assert!(matches!(far.open(2), Err(ProtoError::Disconnected)));
    }

    #[test]
    fn duplicate_session_ids_rejected() {
        let (near, far) = SessionMux::pair();
        let _a = near.open(5).unwrap();
        assert!(matches!(near.open(5), Err(ProtoError::InvalidField { .. })));
        // Still rejected after the peer closed its side of the session.
        drop(far.open(5).unwrap());
        assert!(matches!(near.open(5), Err(ProtoError::InvalidField { .. })));
    }

    #[test]
    fn orphan_frames_are_counted_not_fatal() {
        let (near, far) = SessionMux::pair();
        let a = near.open(0).unwrap();
        let b = far.open(0).unwrap();
        let unopened = near.open(9).unwrap();
        unopened.send(msg(1)).unwrap(); // peer never opened 9
        a.send(msg(2)).unwrap();
        assert_eq!(b.recv().unwrap().tag, 2, "live session unaffected");
        assert_eq!(far.orphan_frames(), 1);
        assert_eq!(near.orphan_frames(), 0);
    }

    #[test]
    fn sends_to_a_session_closed_by_the_peer_count_as_orphans() {
        let (near, far) = SessionMux::pair();
        let live_tx = near.open(1).unwrap();
        let live_rx = far.open(1).unwrap();
        let doomed_tx = near.open(9).unwrap();
        drop(far.open(9).unwrap());
        live_tx.send(msg(100)).unwrap();
        doomed_tx.send(msg(101)).unwrap();
        live_tx.send(msg(102)).unwrap();
        assert_eq!(live_rx.recv().unwrap().tag, 100);
        assert_eq!(live_rx.recv().unwrap().tag, 102);
        assert_eq!(far.orphan_frames(), 1);
        assert!(matches!(doomed_tx.recv_timeout(Duration::ZERO), Err(ProtoError::Disconnected)));
    }

    #[test]
    fn sends_preserve_per_session_fifo_and_close_ordering() {
        let (near, far) = SessionMux::pair();
        let a = near.open(4).unwrap();
        let b = far.open(4).unwrap();
        for i in 0..10u16 {
            a.send(msg(i)).unwrap();
        }
        drop(a); // the close must arrive after all ten messages
        for i in 0..10u16 {
            assert_eq!(b.recv().unwrap().tag, i);
        }
        assert!(matches!(b.recv_timeout(Duration::from_secs(5)), Err(ProtoError::Disconnected)));
    }

    #[test]
    fn concurrent_senders_keep_per_session_fifo() {
        let (near, far) = SessionMux::pair();
        let receivers: Vec<_> = (0..8).map(|i| far.open(i).unwrap()).collect();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let ep = near.open(i).unwrap();
                std::thread::spawn(move || {
                    for i in 0..100u16 {
                        ep.send(msg(i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for ep in &receivers {
            for i in 0..100u16 {
                assert_eq!(ep.recv().unwrap().tag, i, "per-session FIFO");
            }
        }
        assert_eq!(far.orphan_frames(), 0);
    }

    #[test]
    fn peak_session_count_tracks_high_water_mark() {
        let (near, _far) = SessionMux::pair();
        let eps: Vec<_> = (0..16).map(|i| near.open(i).unwrap()).collect();
        assert_eq!(near.peak_session_count(), 16);
        drop(eps);
        assert_eq!(near.session_count(), 0);
        assert_eq!(near.peak_session_count(), 16, "peak survives teardown");
    }

    #[test]
    fn concurrent_receivers_on_distinct_sessions_get_their_own_streams() {
        // 8 receiver threads blocked on distinct sessions; a single sender
        // interleaves traffic. No thread starves, none sees another's.
        let (near, far) = SessionMux::pair();
        let senders: Vec<_> = (0..8).map(|i| near.open(i).unwrap()).collect();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let ep = far.open(i).unwrap();
                std::thread::spawn(move || (0..50).map(|_| ep.recv().unwrap().tag).collect())
            })
            .collect();
        for round in 0..50u16 {
            for (i, s) in senders.iter().enumerate() {
                s.send(msg(round * 8 + i as u16)).unwrap();
            }
        }
        for (i, h) in handles.into_iter().enumerate() {
            let tags: Vec<u16> = h.join().unwrap();
            let expect: Vec<u16> = (0..50u16).map(|r| r * 8 + i as u16).collect();
            assert_eq!(tags, expect, "session {i} messages in order, none crossed streams");
        }
    }

    #[test]
    fn fan_in_of_512_sessions_costs_one_physical_channel() {
        // The paper's fd-wall fix as a type-level property: 512 logical
        // sessions, one link, zero extra channels anywhere.
        let (near, far) = SessionMux::pair();
        let far_eps: Vec<_> = (0..512).map(|i| far.open(i).unwrap()).collect();
        let near_eps: Vec<_> = (0..512).map(|i| near.open(i).unwrap()).collect();
        for ep in &near_eps {
            ep.send(msg(ep.session_id() as u16)).unwrap();
        }
        for ep in &far_eps {
            assert_eq!(u32::from(ep.recv().unwrap().tag), ep.session_id());
        }
        assert_eq!(near.session_count(), 512);
        assert_eq!(near.peak_session_count(), 512);
        assert_eq!(near.physical_links(), 1);
        assert_eq!(far.physical_links(), 1);
    }

    #[test]
    fn session_ids_past_the_u16_space_stay_distinct() {
        let (near, far) = SessionMux::pair();
        let (a_low, a_high) = (near.open(0).unwrap(), near.open(65_536).unwrap());
        let (b_low, b_high) = (far.open(0).unwrap(), far.open(65_536).unwrap());
        a_high.send(msg(2)).unwrap();
        a_low.send(msg(1)).unwrap();
        assert_eq!(b_low.recv().unwrap().tag, 1);
        assert_eq!(b_high.recv().unwrap().tag, 2);
    }
}
