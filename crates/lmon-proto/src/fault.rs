//! Transport fault injection: deterministic frame drops and delays.
//!
//! The LMONP handshakes are request/reply protocols with timeouts on every
//! receive; the interesting failure modes are therefore *lost* and *late*
//! frames, not corrupted ones (framing corruption is covered by
//! `lmon-proto/tests/prop.rs`). [`FaultyChannel`] wraps any
//! [`MsgChannel`] and applies a [`FrameFaultPlan`]: rules keyed by the
//! 0-based index of each *sent* frame on that endpoint, so a chaos scenario
//! drops or delays exactly the same frame on every run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::error::ProtoResult;
use crate::msg::LmonpMsg;
use crate::transport::MsgChannel;

/// What happens to one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// Forward to the peer unchanged (the default for unplanned indices).
    Deliver,
    /// Silently discard: the sender sees success, the peer sees nothing —
    /// exactly how a mid-connection loss looks to LMONP.
    Drop,
    /// Stall the sender's transmit path for this long before forwarding:
    /// `send` blocks, so this frame *and everything queued behind it*
    /// arrive late — a congested sender-side NIC, the same serialization
    /// effect `lmon-sim`'s `NetModel` models per endpoint. (It is not a
    /// single-frame reordering delay; that would need a delivery thread.)
    Delay(Duration),
}

/// A deterministic plan of per-frame fates, keyed by send index.
#[derive(Debug, Clone, Default)]
pub struct FrameFaultPlan {
    fates: BTreeMap<u64, FrameFate>,
}

impl FrameFaultPlan {
    /// An empty plan: every frame delivers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the `i`-th frame sent through the channel (0-based).
    pub fn drop_frame(mut self, i: u64) -> Self {
        self.fates.insert(i, FrameFate::Drop);
        self
    }

    /// Drop every frame in `lo..hi`.
    pub fn drop_frames(mut self, lo: u64, hi: u64) -> Self {
        for i in lo..hi {
            self.fates.insert(i, FrameFate::Drop);
        }
        self
    }

    /// Stall the sender for `by` when the `i`-th frame is sent (see
    /// [`FrameFate::Delay`] for the exact semantics).
    pub fn delay_frame(mut self, i: u64, by: Duration) -> Self {
        self.fates.insert(i, FrameFate::Delay(by));
        self
    }

    /// The fate of frame `i`.
    pub fn fate(&self, i: u64) -> FrameFate {
        self.fates.get(&i).copied().unwrap_or(FrameFate::Deliver)
    }

    /// Whether the plan has any rule at all.
    pub fn is_empty(&self) -> bool {
        self.fates.is_empty()
    }
}

/// A [`MsgChannel`] wrapper that applies a [`FrameFaultPlan`] to sends.
///
/// Receives pass straight through, so wrapping one side of a
/// [`crate::transport::LocalChannel::pair`] is enough to fault one
/// direction of a connection.
pub struct FaultyChannel<C: MsgChannel> {
    inner: C,
    plan: FrameFaultPlan,
    sent: AtomicU64,
    dropped: AtomicU64,
    delayed: AtomicU64,
}

impl<C: MsgChannel> FaultyChannel<C> {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: C, plan: FrameFaultPlan) -> Self {
        FaultyChannel {
            inner,
            plan,
            sent: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
        }
    }

    /// Frames the plan discarded.
    pub fn frames_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Frames the plan delayed.
    pub fn frames_delayed(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }

    /// Unwrap, returning the underlying channel.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: MsgChannel> MsgChannel for FaultyChannel<C> {
    fn send(&self, msg: LmonpMsg) -> ProtoResult<()> {
        let idx = self.sent.fetch_add(1, Ordering::Relaxed);
        match self.plan.fate(idx) {
            FrameFate::Deliver => self.inner.send(msg),
            FrameFate::Drop => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            FrameFate::Delay(by) => {
                self.delayed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(by);
                self.inner.send(msg)
            }
        }
    }

    fn recv(&self) -> ProtoResult<LmonpMsg> {
        self.inner.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> ProtoResult<Option<LmonpMsg>> {
        self.inner.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::MsgType;
    use crate::transport::LocalChannel;

    fn msg(tag: u16) -> LmonpMsg {
        LmonpMsg::of_type(MsgType::BeUsrData).with_tag(tag)
    }

    #[test]
    fn dropped_frames_vanish_but_later_frames_deliver() {
        let (a, b) = LocalChannel::pair();
        let faulty = FaultyChannel::new(a, FrameFaultPlan::new().drop_frame(0).drop_frame(2));
        for tag in 0..4 {
            faulty.send(msg(tag)).unwrap();
        }
        assert_eq!(b.recv().unwrap().tag, 1);
        assert_eq!(b.recv().unwrap().tag, 3);
        assert!(b.recv_timeout(Duration::from_millis(10)).unwrap().is_none());
        assert_eq!(faulty.frames_dropped(), 2);
    }

    #[test]
    fn delayed_frames_arrive_late_but_intact() {
        let (a, b) = LocalChannel::pair();
        let faulty =
            FaultyChannel::new(a, FrameFaultPlan::new().delay_frame(0, Duration::from_millis(30)));
        let t0 = std::time::Instant::now();
        faulty.send(msg(7).with_lmon_payload(vec![1, 2, 3])).unwrap();
        let got = b.recv().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert_eq!(got.tag, 7);
        assert_eq!(got.lmon, vec![1, 2, 3]);
        assert_eq!(faulty.frames_delayed(), 1);
    }

    #[test]
    fn empty_plan_is_transparent() {
        let (a, b) = LocalChannel::pair();
        assert!(FrameFaultPlan::new().is_empty());
        let faulty = FaultyChannel::new(a, FrameFaultPlan::new());
        faulty.send(msg(1)).unwrap();
        assert_eq!(b.recv().unwrap().tag, 1);
        assert_eq!(faulty.frames_dropped(), 0);
    }

    #[test]
    fn drop_range_covers_half_open_interval() {
        let plan = FrameFaultPlan::new().drop_frames(2, 5);
        assert_eq!(plan.fate(1), FrameFate::Deliver);
        assert_eq!(plan.fate(2), FrameFate::Drop);
        assert_eq!(plan.fate(4), FrameFate::Drop);
        assert_eq!(plan.fate(5), FrameFate::Deliver);
    }

    #[test]
    fn receive_side_passes_through_both_directions() {
        let (a, b) = LocalChannel::pair();
        let faulty = FaultyChannel::new(a, FrameFaultPlan::new().drop_frame(0));
        b.send(msg(9)).unwrap();
        assert_eq!(faulty.recv().unwrap().tag, 9);
        let inner = faulty.into_inner();
        inner.send(msg(2)).unwrap();
    }
}
