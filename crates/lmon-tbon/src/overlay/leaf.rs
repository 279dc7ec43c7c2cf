//! The leaf end of the overlay, held by a tool daemon.

use crossbeam_channel::{Receiver, SelectWaker, Sender, TryRecvError};
use parking_lot::Mutex;

use super::CONNECT_STREAM;
use crate::error::{TbonError, TbonResult};
use crate::packet::{Control, Down, Packet, Up, UpKind};
use crate::recovery::RecoveryCmd;
use crate::spec::NodePos;

/// A leaf endpoint, held by a tool daemon.
pub struct LeafEndpoint {
    /// Leaf index within the leaf level.
    pub leaf_index: u32,
    pos: NodePos,
    down_rx: Receiver<Down>,
    ctl_rx: Receiver<RecoveryCmd>,
    waker: SelectWaker,
    state: Mutex<LeafLink>,
}

/// The leaf's mutable view of its parent link (swapped on re-parenting).
struct LeafLink {
    up_tx: Sender<Up>,
    epoch: u64,
}

impl LeafEndpoint {
    /// The endpoint at `pos`, sending up on `up_tx` until a rewire moves it.
    pub(super) fn new(
        pos: NodePos,
        down_rx: Receiver<Down>,
        ctl_rx: Receiver<RecoveryCmd>,
        up_tx: Sender<Up>,
    ) -> Self {
        let waker = SelectWaker::new();
        down_rx.watch(&waker);
        ctl_rx.watch(&waker);
        let state = Mutex::new(LeafLink { up_tx, epoch: 0 });
        LeafEndpoint { leaf_index: pos.index, pos, down_rx, ctl_rx, waker, state }
    }

    /// Send one packet up the tree (one per wave).
    pub fn send_up(&self, stream: u16, tag: u16, payload: Vec<u8>) -> TbonResult<()> {
        self.send(UpKind::Packet(Packet::new(stream, tag, payload)))
    }

    fn send(&self, kind: UpKind) -> TbonResult<()> {
        let st = self.state.lock();
        let up = Up { from: self.pos, epoch: st.epoch, kind };
        st.up_tx.send(up).map_err(|_| TbonError::Disconnected)
    }

    /// Block for the next data packet broadcast from the front end;
    /// `Ok(None)` once the overlay shuts down.
    ///
    /// Recovery traffic is handled transparently: heartbeat pings are
    /// answered in place, a parent's link-down notice leaves the leaf
    /// waiting for adoption, and re-parenting rewires swap the up link.
    pub fn recv(&self) -> TbonResult<Option<Packet>> {
        loop {
            let wepoch = self.waker.epoch();
            // Control mailbox first: rewires and out-of-band shutdown must
            // never sit behind buffered data.
            loop {
                match self.ctl_rx.try_recv() {
                    Ok(RecoveryCmd::Rewire { epoch, up }) => {
                        let mut st = self.state.lock();
                        st.up_tx = up;
                        st.epoch = st.epoch.max(epoch);
                    }
                    Ok(RecoveryCmd::Shutdown) => return Ok(None),
                    // Reconfigure/Crash target comm daemons; inert here.
                    Ok(_) => {}
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return Err(TbonError::Disconnected),
                }
            }
            match self.down_rx.try_recv() {
                Ok(Down::Data { epoch, pkt }) => {
                    let mut st = self.state.lock();
                    st.epoch = st.epoch.max(epoch);
                    return Ok(Some(pkt));
                }
                Ok(Down::Ctl(Control::Shutdown)) => return Ok(None),
                Ok(Down::Ctl(Control::Ping { seq })) => {
                    let _ = self.send(UpKind::Pong { pos: self.pos, seq });
                }
                // A leaf answers every stream alike, and an orphan simply
                // waits for the rewire its adoption sends.
                Ok(Down::Ctl(Control::OpenStream { .. } | Control::LinkDown)) => {}
                Err(TryRecvError::Empty) => self.waker.wait(wepoch),
                Err(TryRecvError::Disconnected) => return Err(TbonError::Disconnected),
            }
        }
    }

    /// The one leaf daemon body: send the connection hello (leaf index on
    /// the reserved stream), build the answer closure with `prepare` (after
    /// the hello, so a daemon's local set-up overlaps the rest of the tree
    /// connecting), then answer every data packet with `answer(&pkt)` on
    /// the packet's (stream, tag) until shutdown or disconnect. A failed
    /// send is not fatal — the parent may be dead and a re-parenting rewire
    /// on its way — so an orphan keeps serving and answers the first
    /// post-heal wave.
    pub fn serve<A: FnMut(&Packet) -> Vec<u8>>(&self, prepare: impl FnOnce() -> A) {
        let _ = self.send_up(CONNECT_STREAM, 0, self.leaf_index.to_be_bytes().to_vec());
        let mut answer = prepare();
        while let Ok(Some(pkt)) = self.recv() {
            let _ = self.send_up(pkt.stream, pkt.tag, answer(&pkt));
        }
    }

    /// [`LeafEndpoint::serve`] as the standard probe body: every data
    /// packet is answered with `[leaf_index]`.
    pub fn serve_echo(self) {
        self.serve(|| |_: &Packet| vec![self.leaf_index as u8]);
    }
}
