//! Session multiplexing: many logical LMONP sessions over one channel.
//!
//! The paper's central fix for the tool-daemon fd wall is collapsing
//! per-session connections into *one* link per component pair (§3.5): the
//! front end talks to exactly one representative of each component, no
//! matter how many tool sessions are active. [`SessionMux`] bakes that fix
//! into the transport layer as an architectural invariant: it carries any
//! number of logical sessions — tagged sub-streams — over a single physical
//! [`MsgChannel`], and hands out per-session [`MuxEndpoint`] handles that
//! themselves implement [`MsgChannel`]. N sessions therefore cost one
//! fd/channel *by construction*; nothing upstack can accidentally open a
//! second connection.
//!
//! ## Framing: zero-copy carriers and batches
//!
//! A logical message travels as a [`WireFrame::Carrier`] — carrier header
//! plus *borrowed* payload sections, never an intermediate encode — or
//! coalesced with its send-side backlog into one [`WireFrame::Batch`]
//! physical frame. Closing an endpoint emits a [`MsgType::MuxClose`]
//! carrier so the peer's endpoint reports disconnection instead of timing
//! out. The inner message travels byte-exact, piggybacked user payload and
//! all (property-tested against the legacy whole-message encoding).
//!
//! ## Send combining (flush policy)
//!
//! Senders append to a shared pending queue under a short lock. If no flush
//! is in flight, the sender becomes the *flusher* and drains the queue into
//! physical frames — batches bounded by [`MAX_BATCH_BYTES`] and an
//! *adaptive* frame-count bound that tracks flush-time backlog (doubling
//! under load up to [`ADAPTIVE_MAX_BATCH_FRAMES`], halving when the queue
//! drains) — releasing the lock across each physical send so peers keep
//! enqueueing. If a flush *is* in flight, the sender just enqueues and
//! returns; its message rides the active flusher's next batch. There is no
//! idle timer: an idle link flushes immediately (a lone message goes out as
//! a single carrier), so batching arises only from real backlog and latency
//! is never traded for throughput.
//!
//! ## Receive pumping: sharded inboxes
//!
//! There is no demux thread. The first endpoint that blocks in a receive
//! becomes the *pump*: it performs the physical receive (with every lock
//! released), drains whatever burst is buffered behind it, and routes the
//! whole burst into per-session inboxes — which are sharded N ways, each
//! shard with its own lock and condvar, so fan-in readers on different
//! sessions never contend on one mutex and a routed batch takes one lock
//! acquisition per *shard*, not per message. When the pump's own message
//! arrives or its deadline expires, it releases the pump role and wakes
//! every shard so another waiter takes over (the vendored `parking_lot`
//! condvar makes that wake free on a shard with nobody parked). This keeps
//! the mux fully event-driven — no sleep-polling anywhere on the path.
//!
//! ## Ordering and loss
//!
//! Open both endpoints of a session (via [`SessionMux::open`]) before
//! traffic for it can arrive; carrier frames for unknown *or
//! already-closed* sessions — including entries of a batch whose session
//! closed mid-flight — are dropped and counted in
//! [`SessionMux::orphan_frames`], never a panic. The live FE/BE/MW stack
//! opens endpoints before daemons spawn, so the counter staying zero is
//! part of its invariants.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::{ProtoError, ProtoResult};
use crate::frame::{decode_msg_view, MuxBatch, MuxEntry, WireFrame};
use crate::header::MsgType;
use crate::msg::LmonpMsg;
use crate::transport::{LocalChannel, MsgChannel};

/// Cap on a blocking [`MuxEndpoint::recv`]'s internal wait slice; the loop
/// re-arms, so this bounds pump-handover latency, not the total wait.
const RECV_SLICE: Duration = Duration::from_secs(3600);

/// Number of inbox shards. Sessions hash onto shards by id; fan-in readers
/// contend only within their shard.
const SHARD_COUNT: usize = 8;

/// Byte bound for one coalesced [`WireFrame::Batch`].
pub const MAX_BATCH_BYTES: usize = 256 * 1024;

/// Ceiling for the adaptive batch controller's frame-count bound, high
/// enough that a saturated link is never capped at a hand-tuned value;
/// [`MAX_BATCH_BYTES`] still bounds each frame's size.
pub const ADAPTIVE_MAX_BATCH_FRAMES: usize = 512;

/// Extra already-buffered frames the pump drains per wakeup, so a burst is
/// routed in one sweep instead of one wakeup per frame.
const PUMP_DRAIN: usize = 128;

/// A session multiplexer over one physical [`MsgChannel`].
///
/// Cloning is cheap and shares the underlying link; use [`SessionMux::open`]
/// to create per-session endpoints. Accounting
/// ([`SessionMux::session_count`], [`SessionMux::peak_session_count`],
/// [`SessionMux::physical_links`]) backs the scalability assertions in the
/// test suite: any number of sessions, exactly one physical channel.
#[derive(Clone)]
pub struct SessionMux {
    shared: Arc<MuxShared>,
}

struct MuxShared {
    phys: Box<dyn MsgChannel>,
    /// Per-session inboxes, sharded by session id.
    shards: Vec<Shard>,
    /// Send-side combining state.
    send: Mutex<SendState>,
    /// Whether some endpoint currently owns the physical receive.
    pumping: AtomicBool,
    /// Set when the physical link reports disconnection; fatal for every
    /// session.
    dead: AtomicBool,
    /// Carrier frames (or batch entries) for sessions nobody has open.
    orphans: AtomicU64,
    /// Open-session accounting (count + high-water mark).
    accounting: Mutex<Accounting>,
    /// The adaptive controller's current frame-count bound. Grows by
    /// doubling while flush-time backlog exceeds it, shrinks by halving once
    /// backlog falls to half of it; idle links sit at 1 (single-carrier
    /// latency).
    adaptive_bound: AtomicUsize,
    /// Physical frames pushed onto the link (carriers, batches, closes).
    phys_frames: AtomicU64,
    /// Logical messages sent through endpoints.
    logical_msgs: AtomicU64,
}

struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
}

#[derive(Default)]
struct ShardState {
    inboxes: HashMap<u16, Inbox>,
}

#[derive(Default)]
struct Inbox {
    queue: VecDeque<LmonpMsg>,
    /// The peer closed its endpoint; drain, then report disconnection.
    closed: bool,
}

#[derive(Default)]
struct Accounting {
    count: usize,
    peak: usize,
}

/// One logical mux item, on either side of the link: a session's data
/// message, or its close marker. On the send side, `Close` never coalesces
/// into a batch — it flushes as its own frame *after* the session's queued
/// data; on the route side it marks the inbox closed.
enum MuxItem {
    Data(u16, LmonpMsg),
    Close(u16),
}

#[derive(Default)]
struct SendState {
    pending: VecDeque<MuxItem>,
    /// Whether some sender currently owns the flush loop.
    flushing: bool,
}

fn shard_ix(session: u16) -> usize {
    session as usize % SHARD_COUNT
}

impl SessionMux {
    /// Multiplex sessions over `phys`.
    ///
    /// Both ends of the link must speak mux framing; pair this with another
    /// `SessionMux` over the peer endpoint (see [`SessionMux::pair`]).
    pub fn over(phys: Box<dyn MsgChannel>) -> Self {
        SessionMux {
            shared: Arc::new(MuxShared {
                phys,
                shards: (0..SHARD_COUNT)
                    .map(|_| Shard { state: Mutex::new(ShardState::default()), cv: Condvar::new() })
                    .collect(),
                send: Mutex::new(SendState::default()),
                pumping: AtomicBool::new(false),
                dead: AtomicBool::new(false),
                orphans: AtomicU64::new(0),
                accounting: Mutex::new(Accounting::default()),
                adaptive_bound: AtomicUsize::new(1),
                phys_frames: AtomicU64::new(0),
                logical_msgs: AtomicU64::new(0),
            }),
        }
    }

    /// A connected mux pair over an in-process [`LocalChannel`] pair — the
    /// one physical link a component pair shares.
    pub fn pair() -> (SessionMux, SessionMux) {
        let (a, b) = LocalChannel::pair();
        (SessionMux::over(Box::new(a)), SessionMux::over(Box::new(b)))
    }

    /// Open the endpoint for logical session `id`.
    ///
    /// Fails with [`ProtoError::InvalidField`] if the session is already
    /// open on this side, and [`ProtoError::Disconnected`] once the
    /// physical link has died.
    pub fn open(&self, id: u16) -> ProtoResult<MuxEndpoint> {
        if self.shared.dead.load(Ordering::Acquire) {
            return Err(ProtoError::Disconnected);
        }
        let shard = &self.shared.shards[shard_ix(id)];
        let mut state = shard.state.lock();
        if state.inboxes.contains_key(&id) {
            return Err(ProtoError::InvalidField { field: "mux_session", value: id as u64 });
        }
        state.inboxes.insert(id, Inbox::default());
        drop(state);
        let mut acc = self.shared.accounting.lock();
        acc.count += 1;
        acc.peak = acc.peak.max(acc.count);
        drop(acc);
        Ok(MuxEndpoint { shared: self.shared.clone(), id, sent_bytes: AtomicU64::new(0) })
    }

    /// Number of sessions currently open on this side of the link.
    pub fn session_count(&self) -> usize {
        self.shared.accounting.lock().count
    }

    /// High-water mark of simultaneously open sessions.
    pub fn peak_session_count(&self) -> usize {
        self.shared.accounting.lock().peak
    }

    /// Physical channels behind this mux — always exactly one; the type
    /// cannot represent more. Exposed so tests assert the invariant against
    /// live accounting rather than documentation.
    pub fn physical_links(&self) -> usize {
        1
    }

    /// Carrier frames (or batch entries) that arrived for sessions never
    /// opened — or already closed — on this side.
    pub fn orphan_frames(&self) -> u64 {
        self.shared.orphans.load(Ordering::Relaxed)
    }

    /// Bytes sent on the underlying physical channel (carrier framing
    /// included).
    pub fn bytes_sent(&self) -> u64 {
        self.shared.phys.bytes_sent()
    }

    /// Physical frames pushed onto the link so far. With batching, this is
    /// ≤ [`SessionMux::logical_msgs_sent`]; the ratio is the live batching
    /// factor.
    pub fn physical_frames_sent(&self) -> u64 {
        self.shared.phys_frames.load(Ordering::Relaxed)
    }

    /// Logical messages sent through this side's endpoints so far.
    pub fn logical_msgs_sent(&self) -> u64 {
        self.shared.logical_msgs.load(Ordering::Relaxed)
    }

    /// The frame-count bound the adaptive controller currently holds,
    /// between 1 and [`ADAPTIVE_MAX_BATCH_FRAMES`]. Observability for tests
    /// and benches.
    pub fn current_batch_bound(&self) -> usize {
        self.shared.adaptive_bound.load(Ordering::Relaxed)
    }
}

impl MuxShared {
    /// Append one data message to the pending queue and flush unless a
    /// flush is already in flight (in which case the message rides it).
    fn send_on(&self, session: u16, msg: LmonpMsg) -> ProtoResult<()> {
        if self.dead.load(Ordering::Acquire) {
            return Err(ProtoError::Disconnected);
        }
        self.logical_msgs.fetch_add(1, Ordering::Relaxed);
        let mut s = self.send.lock();
        s.pending.push_back(MuxItem::Data(session, msg));
        if s.flushing {
            return Ok(());
        }
        self.flush(s)
    }

    /// Best-effort close enqueue (from endpoint drop): ordered after the
    /// session's queued data.
    fn send_close(&self, session: u16) {
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        let mut s = self.send.lock();
        s.pending.push_back(MuxItem::Close(session));
        if !s.flushing {
            let _ = self.flush(s);
        }
    }

    /// The flush loop: drain the pending queue into physical frames until
    /// it is empty. The send lock is released across each physical send so
    /// other senders keep enqueueing (their messages form the next batch).
    fn flush<'a>(&'a self, mut s: MutexGuard<'a, SendState>) -> ProtoResult<()> {
        s.flushing = true;
        loop {
            let frame = match s.pending.front() {
                None => {
                    s.flushing = false;
                    return Ok(());
                }
                Some(MuxItem::Close(_)) => {
                    let Some(MuxItem::Close(id)) = s.pending.pop_front() else { unreachable!() };
                    WireFrame::Msg(LmonpMsg::of_type(MsgType::MuxClose).with_tag(id))
                }
                Some(MuxItem::Data(..)) => {
                    let max_frames = self.batch_bound(s.pending.len());
                    let mut entries = Vec::new();
                    let mut bytes = 0usize;
                    while entries.len() < max_frames {
                        match s.pending.front() {
                            Some(MuxItem::Data(_, m)) => {
                                // Admit the message only while the batch
                                // stays under the byte bound; a message
                                // bigger than the bound still ships, alone.
                                let next = m.wire_len();
                                if !entries.is_empty() && bytes + next > MAX_BATCH_BYTES {
                                    break;
                                }
                                let Some(MuxItem::Data(id, m)) = s.pending.pop_front() else {
                                    unreachable!()
                                };
                                bytes += next;
                                entries.push(MuxEntry { session: id, msg: m });
                            }
                            // A close (or nothing) stops the batch: closes
                            // flush as their own frame, in order.
                            _ => break,
                        }
                    }
                    if entries.len() == 1 {
                        let Some(MuxEntry { session, msg }) = entries.pop() else { unreachable!() };
                        WireFrame::Carrier { session, msg }
                    } else {
                        WireFrame::Batch(MuxBatch { entries })
                    }
                }
            };
            drop(s);
            let res = self.phys.send_frame(frame);
            if res.is_ok() {
                self.phys_frames.fetch_add(1, Ordering::Relaxed);
            }
            s = self.send.lock();
            if let Err(e) = res {
                // The link is gone: everything queued (including other
                // senders' riders) is undeliverable.
                self.dead.store(true, Ordering::Release);
                s.pending.clear();
                s.flushing = false;
                drop(s);
                self.wake_all_shards();
                return Err(e);
            }
            if s.pending.is_empty() {
                s.flushing = false;
                return Ok(());
            }
        }
    }

    /// The frame-count bound for the batch about to form, given the
    /// pending-queue depth observed at flush time.
    ///
    /// Runs the controller one step: backlog above the current bound
    /// doubles it (capped at [`ADAPTIVE_MAX_BATCH_FRAMES`]), backlog at or
    /// below half the bound halves it (floored at 1). Because the step runs at every
    /// batch formation, one flush session over a deep backlog ramps the
    /// bound in log₂ steps, and an idle link decays back to single-carrier
    /// latency just as fast. Only the flusher calls this, so the
    /// read-modify-write needs no CAS.
    fn batch_bound(&self, backlog: usize) -> usize {
        let mut bound = self.adaptive_bound.load(Ordering::Relaxed);
        if backlog > bound {
            bound = (bound * 2).min(ADAPTIVE_MAX_BATCH_FRAMES);
        } else if backlog <= bound / 2 {
            bound = (bound / 2).max(1);
        }
        self.adaptive_bound.store(bound, Ordering::Relaxed);
        bound
    }

    /// Lock-then-notify every shard: pairs with waiters that hold their
    /// shard lock from the pump-flag check through `cv.wait`, so a pump
    /// handover (or death) can never be missed. The lock is what orders a
    /// waiter's count-in before the notify, so a shard nobody waits on
    /// costs a lock round trip and an atomic load, not a wake.
    fn wake_all_shards(&self) {
        for shard in &self.shards {
            drop(shard.state.lock());
            shard.cv.notify_all();
        }
    }

    /// Route a drained burst of physical frames into the session inboxes,
    /// one lock acquisition per *touched shard*.
    fn route_all(&self, frames: &mut Vec<WireFrame>, buckets: &mut [Vec<MuxItem>]) {
        for frame in frames.drain(..) {
            match frame {
                WireFrame::Carrier { session, msg } => {
                    buckets[shard_ix(session)].push(MuxItem::Data(session, msg));
                }
                WireFrame::Batch(batch) => {
                    for e in batch.entries {
                        buckets[shard_ix(e.session)].push(MuxItem::Data(e.session, e.msg));
                    }
                }
                WireFrame::Msg(m) => match m.mtype {
                    MsgType::MuxClose => buckets[shard_ix(m.tag)].push(MuxItem::Close(m.tag)),
                    // A carrier whose payload did not parse structurally
                    // (corrupt), retried here for the legacy path.
                    MsgType::MuxData => match decode_msg_view(&m.lmon) {
                        Ok(inner) => buckets[shard_ix(m.tag)].push(MuxItem::Data(m.tag, inner)),
                        Err(_) => {
                            self.orphans.fetch_add(1, Ordering::Relaxed);
                        }
                    },
                    // A bare (non-mux) message on a mux link is a peer
                    // protocol violation; treat it like line noise rather
                    // than poisoning the sessions. Unparseable batches land
                    // here too.
                    _ => {
                        self.orphans.fetch_add(1, Ordering::Relaxed);
                    }
                },
            }
        }
        for (ix, ops) in buckets.iter_mut().enumerate() {
            if ops.is_empty() {
                continue;
            }
            let mut state = self.shards[ix].state.lock();
            for op in ops.drain(..) {
                match op {
                    MuxItem::Data(id, msg) => match state.inboxes.get_mut(&id) {
                        Some(inbox) if !inbox.closed => inbox.queue.push_back(msg),
                        // Unknown session, or one that closed while the
                        // batch was in flight: an orphan, never a panic or
                        // a silent drop of the counter.
                        _ => {
                            self.orphans.fetch_add(1, Ordering::Relaxed);
                        }
                    },
                    MuxItem::Close(id) => {
                        if let Some(inbox) = state.inboxes.get_mut(&id) {
                            inbox.closed = true;
                        }
                    }
                }
            }
            drop(state);
            self.shards[ix].cv.notify_all();
        }
    }

    /// Check session `id`'s inbox under its shard lock. `Some(..)` resolves
    /// the receive; `None` means keep waiting.
    fn check_inbox(state: &mut ShardState, id: u16) -> Option<ProtoResult<Option<LmonpMsg>>> {
        match state.inboxes.get_mut(&id) {
            Some(inbox) => {
                if let Some(msg) = inbox.queue.pop_front() {
                    return Some(Ok(Some(msg)));
                }
                if inbox.closed {
                    return Some(Err(ProtoError::Disconnected));
                }
                None
            }
            // The endpoint's own inbox vanished: endpoint was dropped
            // concurrently — treat as closed.
            None => Some(Err(ProtoError::Disconnected)),
        }
    }

    /// Core receive: wait for a message on session `id`, pumping the
    /// physical channel when no one else is.
    fn recv_for(&self, id: u16, timeout: Duration) -> ProtoResult<Option<LmonpMsg>> {
        let deadline = Instant::now() + timeout;
        let shard = &self.shards[shard_ix(id)];
        loop {
            let mut state = shard.state.lock();
            if let Some(resolved) = Self::check_inbox(&mut state, id) {
                return resolved;
            }
            if self.dead.load(Ordering::Acquire) {
                return Err(ProtoError::Disconnected);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            // Try to take the pump role. The CAS happens while the shard
            // lock pins our empty-inbox observation: routing inserts under
            // this lock, so a message cannot land between the check and the
            // CAS.
            if self
                .pumping
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                drop(state);
                if let Some(resolved) = self.pump(id, deadline) {
                    return resolved;
                }
                // Deadline hit or handover: the outer loop re-checks.
            } else {
                // Someone else owns the physical receive; wait for routed
                // traffic or a pump handover on our shard's condvar. The
                // handover protocol (`wake_all_shards`) locks this mutex
                // before notifying, so holding it from the CAS failure to
                // here makes a missed wakeup impossible — and the notify
                // reaches a futex only when this shard has a waiter parked.
                shard.cv.wait_for(&mut state, remaining.min(RECV_SLICE));
            }
        }
    }

    /// The pump loop: owns the physical receive until session `id`'s
    /// message arrives, the deadline passes, or the link dies. Returns
    /// `Some(resolution)` when the receive resolved, `None` when the caller
    /// should re-enter the outer wait loop. Always releases the pump role
    /// and wakes every shard on exit.
    fn pump(&self, id: u16, deadline: Instant) -> Option<ProtoResult<Option<LmonpMsg>>> {
        let mut frames: Vec<WireFrame> = Vec::new();
        let mut buckets: Vec<Vec<MuxItem>> = (0..SHARD_COUNT).map(|_| Vec::new()).collect();
        let result = loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break None;
            }
            match self.phys.recv_frame_timeout(remaining.min(RECV_SLICE)) {
                Ok(Some(frame)) => {
                    frames.push(frame);
                    // Drain the burst buffered behind the first frame, then
                    // route the whole sweep with one lock per shard.
                    let _ = self.phys.try_recv_frames(&mut frames, PUMP_DRAIN);
                    self.route_all(&mut frames, &mut buckets);
                    let mut state = self.shards[shard_ix(id)].state.lock();
                    if let Some(resolved) = Self::check_inbox(&mut state, id) {
                        break Some(resolved);
                    }
                    // Not ours: keep pumping for the others.
                }
                Ok(None) => break None,
                Err(_) => {
                    self.dead.store(true, Ordering::Release);
                    break Some(Err(ProtoError::Disconnected));
                }
            }
        };
        self.pumping.store(false, Ordering::Release);
        self.wake_all_shards();
        result
    }
}

/// One logical session of a [`SessionMux`]; a full [`MsgChannel`].
///
/// Dropping the endpoint closes the session: a [`MsgType::MuxClose`] frame
/// tells the peer's endpoint to report disconnection once drained.
pub struct MuxEndpoint {
    shared: Arc<MuxShared>,
    id: u16,
    sent_bytes: AtomicU64,
}

impl MuxEndpoint {
    /// The logical session id this endpoint serves.
    pub fn session_id(&self) -> u16 {
        self.id
    }
}

impl MsgChannel for MuxEndpoint {
    fn send(&self, msg: LmonpMsg) -> ProtoResult<()> {
        let len = msg.wire_len() as u64;
        self.shared.send_on(self.id, msg)?;
        self.sent_bytes.fetch_add(len, Ordering::Relaxed);
        Ok(())
    }

    fn recv(&self) -> ProtoResult<LmonpMsg> {
        loop {
            if let Some(msg) = self.shared.recv_for(self.id, RECV_SLICE)? {
                return Ok(msg);
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> ProtoResult<Option<LmonpMsg>> {
        self.shared.recv_for(self.id, timeout)
    }

    fn bytes_sent(&self) -> u64 {
        self.sent_bytes.load(Ordering::Relaxed)
    }
}

impl Drop for MuxEndpoint {
    fn drop(&mut self) {
        // Best effort: the physical link may already be gone. The close is
        // queued behind any of this session's unflushed data.
        self.shared.send_close(self.id);
        let shard = &self.shared.shards[shard_ix(self.id)];
        let removed = shard.state.lock().inboxes.remove(&self.id).is_some();
        if removed {
            self.shared.accounting.lock().count -= 1;
        }
        shard.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::MsgType;

    fn msg(mtype: MsgType, tag: u16) -> LmonpMsg {
        LmonpMsg::of_type(mtype).with_tag(tag).with_usr_payload(vec![tag as u8; 8])
    }

    #[test]
    fn two_sessions_share_one_physical_link() {
        let (near, far) = SessionMux::pair();
        let (a0, a1) = (near.open(0).unwrap(), near.open(1).unwrap());
        let (b0, b1) = (far.open(0).unwrap(), far.open(1).unwrap());

        a0.send(msg(MsgType::BeUsrData, 10)).unwrap();
        a1.send(msg(MsgType::BeUsrData, 11)).unwrap();

        // Each endpoint sees only its own session's traffic, even when the
        // other session's message is first on the wire.
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
        a.send(msg(MsgType::BeUsrData, 1)).unwrap();
        drop(a);
        // Queued traffic drains first, then the close is reported.
        assert_eq!(b.recv().unwrap().tag, 1);
        let t0 = Instant::now();
        assert!(matches!(b.recv_timeout(Duration::from_secs(5)), Err(ProtoError::Disconnected)));
        assert!(t0.elapsed() < Duration::from_secs(1), "close frame, not a timeout");
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
        a1.send(msg(MsgType::BeUsrData, 42)).unwrap();
        assert_eq!(b1.recv().unwrap().tag, 42);
        assert_eq!(near.session_count(), 1, "only the closed session left the table");
    }

    #[test]
    fn physical_link_death_fails_every_session() {
        let (near, far) = SessionMux::pair();
        let _a = near.open(0).unwrap();
        let b0 = far.open(0).unwrap();
        let b1 = far.open(1).unwrap();
        drop(near);
        drop(_a);
        assert!(matches!(b0.recv_timeout(Duration::from_secs(5)), Err(ProtoError::Disconnected)));
        assert!(matches!(b1.recv_timeout(Duration::from_secs(5)), Err(ProtoError::Disconnected)));
        assert!(b0.send(msg(MsgType::BeUsrData, 0)).is_err());
    }

    #[test]
    fn duplicate_session_ids_rejected() {
        let (near, _far) = SessionMux::pair();
        let _a = near.open(5).unwrap();
        assert!(matches!(near.open(5), Err(ProtoError::InvalidField { .. })));
    }

    #[test]
    fn orphan_frames_are_counted_not_fatal() {
        let (near, far) = SessionMux::pair();
        let a = near.open(0).unwrap();
        let _b = far.open(0).unwrap();
        let unopened = near.open(9).unwrap();
        unopened.send(msg(MsgType::BeUsrData, 1)).unwrap(); // peer never opened 9
        a.send(msg(MsgType::BeUsrData, 2)).unwrap();
        assert_eq!(_b.recv().unwrap().tag, 2, "live session unaffected");
        assert_eq!(far.orphan_frames(), 1);
    }

    #[test]
    fn batch_entries_for_sessions_closed_mid_batch_count_as_orphans() {
        // Regression: a physical batch can contain entries for a session
        // that closed (or was never opened) while the batch was in flight.
        // Those entries must count as orphans — not panic the pump, not
        // disturb the batch's live entries.
        let (phys_near, phys_far) = LocalChannel::pair();
        let near = SessionMux::over(Box::new(phys_near));
        let live = near.open(1).unwrap();
        let batch = MuxBatch {
            entries: vec![
                MuxEntry { session: 1, msg: msg(MsgType::BeUsrData, 100) },
                MuxEntry { session: 9, msg: msg(MsgType::BeUsrData, 101) }, // never opened
                MuxEntry { session: 1, msg: msg(MsgType::BeUsrData, 102) },
                MuxEntry { session: 17, msg: msg(MsgType::BeUsrData, 103) }, // never opened
            ],
        };
        phys_far.send_frame(WireFrame::Batch(batch)).unwrap();
        assert_eq!(live.recv().unwrap().tag, 100);
        assert_eq!(live.recv().unwrap().tag, 102);
        assert_eq!(near.orphan_frames(), 2);
    }

    #[test]
    fn batched_sends_preserve_per_session_fifo_and_close_ordering() {
        // Force everything into one coalesced flush by pre-loading the
        // pending queue while the peer is not draining.
        let (near, far) = SessionMux::pair();
        let a = near.open(4).unwrap();
        let b = far.open(4).unwrap();
        for i in 0..10u16 {
            a.send(msg(MsgType::BeUsrData, i)).unwrap();
        }
        drop(a); // close must arrive after all ten messages
        for i in 0..10u16 {
            assert_eq!(b.recv().unwrap().tag, i);
        }
        assert!(matches!(b.recv_timeout(Duration::from_secs(5)), Err(ProtoError::Disconnected)));
    }

    #[test]
    fn batching_reduces_physical_frames_under_backlog() {
        // A send-side backlog accumulated before any flushup must coalesce:
        // far side is silent, so we inspect the wire accounting after a
        // burst from many sessions.
        let (near, far) = SessionMux::pair();
        let senders: Vec<_> = (0..8).map(|i| near.open(i).unwrap()).collect();
        let receivers: Vec<_> = (0..8).map(|i| far.open(i).unwrap()).collect();
        let handles: Vec<_> = senders
            .into_iter()
            .map(|ep| {
                std::thread::spawn(move || {
                    for i in 0..100u16 {
                        ep.send(msg(MsgType::BeUsrData, i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for ep in &receivers {
            for i in 0..100u16 {
                assert_eq!(ep.recv().unwrap().tag, i, "per-session FIFO survives batching");
            }
        }
        assert_eq!(near.logical_msgs_sent(), 800);
        // 8 close frames ride along (sender endpoints drop at thread exit);
        // data frames themselves can only coalesce, never multiply.
        assert!(
            near.physical_frames_sent() <= near.logical_msgs_sent() + 8,
            "batching can only reduce physical data frames (sent {} for {} msgs)",
            near.physical_frames_sent(),
            near.logical_msgs_sent()
        );
    }

    #[test]
    fn backlog_behind_a_full_link_coalesces_into_batches() {
        // Deterministic batching proof: a cap-2 physical link wedges the
        // flusher mid-send (third frame), a second session piles 50
        // messages into the pending queue behind it, and the stuck flusher
        // must ship that backlog as coalesced batch frames once the link
        // drains — fewer physical frames than logical messages, strictly.
        // (Capacity 2, not 1: teardown sends one close per endpoint per
        // direction, and a cap-1 queue with no live pump would wedge the
        // second close inside Drop.)
        let (a, b) = LocalChannel::bounded_pair(2);
        let near = SessionMux::over(Box::new(a));
        let far = SessionMux::over(Box::new(b));
        let s0 = near.open(0).unwrap();
        let s1 = near.open(1).unwrap();
        let r0 = far.open(0).unwrap();
        let r1 = far.open(1).unwrap();

        // The drain runs on its own thread, delayed so the backlog builds
        // while the link is wedged. (A single thread that first sends and
        // then receives could become the flusher itself and block on the
        // full link with nobody left to drain it.)
        let drain = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            for want in 0..3u16 {
                assert_eq!(r0.recv().unwrap().tag, want);
            }
            for i in 0..50u16 {
                assert_eq!(r1.recv().unwrap().tag, i);
            }
        });
        let blocked = std::thread::spawn(move || {
            s0.send(msg(MsgType::BeUsrData, 0)).unwrap(); // queue slot 1
            s0.send(msg(MsgType::BeUsrData, 1)).unwrap(); // queue slot 2
            s0.send(msg(MsgType::BeUsrData, 2)).unwrap(); // blocks inside the flush
            s0
        });
        // The wedged thread holds the flush role until the drain starts
        // (the link cannot accept its third frame before then), so this
        // whole backlog piles up behind it — every enqueue returns
        // immediately and must coalesce.
        std::thread::sleep(Duration::from_millis(50));
        for i in 0..50u16 {
            s1.send(msg(MsgType::BeUsrData, i)).unwrap();
        }
        let _s0 = blocked.join().unwrap();
        drain.join().unwrap();

        // 53 logical messages; three wedged singles plus at most a couple
        // of batch frames for the 50-message backlog.
        assert_eq!(near.logical_msgs_sent(), 53);
        assert!(
            near.physical_frames_sent() < near.logical_msgs_sent(),
            "backlog must coalesce: {} physical frames for {} messages",
            near.physical_frames_sent(),
            near.logical_msgs_sent()
        );
    }

    #[test]
    fn adaptive_bound_grows_under_backlog_and_decays_when_idle() {
        // Wedge the flusher on a cap-2 link (as above) so a deep backlog is
        // observed at flush time: the controller must ramp the bound up.
        let (a, b) = LocalChannel::bounded_pair(2);
        let near = SessionMux::over(Box::new(a));
        let far = SessionMux::over(Box::new(b));
        assert_eq!(near.current_batch_bound(), 1, "adaptive starts at single-carrier");
        let s0 = near.open(0).unwrap();
        let s1 = near.open(1).unwrap();
        let r0 = far.open(0).unwrap();
        let r1 = far.open(1).unwrap();
        let drain = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            for want in 0..3u16 {
                assert_eq!(r0.recv().unwrap().tag, want);
            }
            for i in 0..200u16 {
                assert_eq!(r1.recv().unwrap().tag, i, "FIFO survives adaptive batching");
            }
            (r0, r1)
        });
        let blocked = std::thread::spawn(move || {
            for i in 0..3u16 {
                s0.send(msg(MsgType::BeUsrData, i)).unwrap(); // third blocks in flush
            }
            s0
        });
        std::thread::sleep(Duration::from_millis(50));
        for i in 0..200u16 {
            s1.send(msg(MsgType::BeUsrData, i)).unwrap();
        }
        let _s0 = blocked.join().unwrap();
        let (_r0, _r1) = drain.join().unwrap();
        assert!(
            near.current_batch_bound() > 1,
            "a 200-deep flush-time backlog must have grown the bound"
        );
        assert!(
            near.physical_frames_sent() < near.logical_msgs_sent(),
            "adaptive mode must coalesce the backlog"
        );
        // Idle traffic decays the bound back toward single-carrier latency.
        for i in 0..20u16 {
            s1.send(msg(MsgType::BeUsrData, 200 + i)).unwrap();
            assert_eq!(_r1.recv().unwrap().tag, 200 + i);
        }
        assert_eq!(near.current_batch_bound(), 1, "idle link decays to bound 1");
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
    fn concurrent_sessions_pump_for_each_other() {
        // 8 receiver threads blocked on distinct sessions; a single sender
        // interleaves traffic. Whichever endpoint happens to hold the pump
        // routes for everyone — no thread starves.
        let (near, far) = SessionMux::pair();
        let senders: Vec<_> = (0..8).map(|i| near.open(i).unwrap()).collect();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let ep = far.open(i).unwrap();
                std::thread::spawn(move || {
                    let mut tags = Vec::new();
                    for _ in 0..50 {
                        tags.push(ep.recv().unwrap().tag);
                    }
                    tags
                })
            })
            .collect();
        for round in 0..50u16 {
            for (i, s) in senders.iter().enumerate() {
                s.send(msg(MsgType::BeUsrData, round * 8 + i as u16)).unwrap();
            }
        }
        for (i, h) in handles.into_iter().enumerate() {
            let tags = h.join().unwrap();
            let expect: Vec<u16> = (0..50u16).map(|r| r * 8 + i as u16).collect();
            assert_eq!(tags, expect, "session {i} messages in order, none crossed streams");
        }
    }

    #[test]
    fn fan_in_of_512_sessions_costs_one_physical_channel() {
        // The paper's fd-wall fix as a type-level property: 512 logical
        // sessions, one physical link, zero extra channels anywhere.
        let (near, far) = SessionMux::pair();
        let far_eps: Vec<_> = (0..512).map(|i| far.open(i).unwrap()).collect();
        let near_eps: Vec<_> = (0..512).map(|i| near.open(i).unwrap()).collect();
        for ep in &near_eps {
            ep.send(msg(MsgType::BeUsrData, ep.session_id())).unwrap();
        }
        for ep in &far_eps {
            assert_eq!(ep.recv().unwrap().tag, ep.session_id());
        }
        assert_eq!(near.session_count(), 512);
        assert_eq!(near.peak_session_count(), 512);
        assert_eq!(near.physical_links(), 1);
        assert_eq!(far.physical_links(), 1);
    }
}
