//! The point-to-point fabric ICCL maps collectives onto.
//!
//! On a real system this is the RM's native communication subsystem (PMI,
//! the srun step fabric, BG/L's control network) — "we leverage native
//! communication subsystems that the RM sets up if possible" (§3.3). In the
//! virtual cluster it is a mesh of crossbeam channels the RM layer builds
//! with [`ChannelFabric::mesh`] at daemon-spawn time, handing one endpoint
//! to each daemon in rank order — same bootstrap shape as the real thing:
//! daemons get their fabric *from the RM*, not by dialing each other.

use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver, Sender};
use std::collections::{HashMap, VecDeque};

use crate::error::{IcclError, IcclResult};

/// One message: a refcounted view, so forwarding a payload to many peers
/// copies none of its bytes.
struct Packet {
    from: u32,
    bytes: Bytes,
}

/// In-process fabric endpoint: every rank can reach every other rank.
///
/// Endpoints do not hold a sender to their own inbox (self-send is not a
/// collective primitive), so when every *peer* endpoint is dropped a
/// blocked `recv_from` observes disconnection instead of hanging.
pub struct ChannelFabric {
    rank: u32,
    size: u32,
    peers: Vec<Option<Sender<Packet>>>,
    inbox: Receiver<Packet>,
    /// Messages that arrived while waiting for a different sender.
    stashed: HashMap<u32, VecDeque<Bytes>>,
}

impl ChannelFabric {
    /// Build a fully connected mesh of `n` endpoints.
    ///
    /// The RM layer calls this when co-spawning daemons and moves one
    /// endpoint into each daemon body — modelling the fabric "the RM sets
    /// up" (§3.3).
    pub fn mesh(n: u32) -> Vec<ChannelFabric> {
        let mut senders = Vec::with_capacity(n as usize);
        let mut receivers = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| {
                let peers = senders
                    .iter()
                    .enumerate()
                    .map(|(i, tx)| (i != rank).then(|| tx.clone()))
                    .collect();
                ChannelFabric { rank: rank as u32, size: n, peers, inbox, stashed: HashMap::new() }
            })
            .collect()
    }
}

impl ChannelFabric {
    /// This endpoint's rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of endpoints in the fabric.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Send bytes to a peer rank.
    pub fn send(&self, to: u32, bytes: impl Into<Bytes>) -> IcclResult<()> {
        let tx = self
            .peers
            .get(to as usize)
            .and_then(Option::as_ref)
            .ok_or(IcclError::BadRank { rank: to, size: self.size })?;
        tx.send(Packet { from: self.rank, bytes: bytes.into() })
            .map_err(|_| IcclError::Disconnected)
    }

    /// Block until a message from `from` arrives (messages from other ranks
    /// are buffered, not dropped).
    pub fn recv_from(&mut self, from: u32) -> IcclResult<Bytes> {
        if from >= self.size {
            return Err(IcclError::BadRank { rank: from, size: self.size });
        }
        if let Some(queue) = self.stashed.get_mut(&from) {
            if let Some(bytes) = queue.pop_front() {
                return Ok(bytes);
            }
        }
        loop {
            let pkt = self.inbox.recv().map_err(|_| IcclError::Disconnected)?;
            if pkt.from == from {
                return Ok(pkt.bytes);
            }
            self.stashed.entry(pkt.from).or_default().push_back(pkt.bytes);
        }
    }
}

impl std::fmt::Debug for ChannelFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelFabric").field("rank", &self.rank).field("size", &self.size).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_delivers_point_to_point() {
        let mut eps = ChannelFabric::mesh(3);
        let c = eps.pop().unwrap();
        let mut b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert_eq!(a.rank(), 0);
        assert_eq!(c.size(), 3);
        a.send(1, vec![7]).unwrap();
        c.send(1, vec![9]).unwrap();
        assert_eq!(b.recv_from(0).unwrap(), vec![7]);
        assert_eq!(b.recv_from(2).unwrap(), vec![9]);
    }

    #[test]
    fn provision_assigns_ranks_in_host_order() {
        // The RM hands endpoint `i` to the daemon on its allocation's
        // `i`-th host: ranks follow mesh order, and every endpoint knows
        // the mesh size.
        let eps = ChannelFabric::mesh(4);
        assert_eq!(eps.len(), 4);
        for (i, ep) in eps.iter().enumerate() {
            assert_eq!(ep.rank(), i as u32);
            assert_eq!(ep.size(), 4);
        }
    }

    #[test]
    fn endpoints_carry_traffic() {
        let mut eps = ChannelFabric::mesh(2);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.send(0, vec![42]).unwrap();
        assert_eq!(a.recv_from(1).unwrap(), vec![42]);
    }

    #[test]
    fn out_of_order_senders_are_stashed_not_lost() {
        let mut eps = ChannelFabric::mesh(3);
        let c = eps.pop().unwrap();
        let mut b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        // a sends first, but b waits for c first.
        a.send(1, vec![1]).unwrap();
        a.send(1, vec![2]).unwrap();
        c.send(1, vec![3]).unwrap();
        assert_eq!(b.recv_from(2).unwrap(), vec![3]);
        assert_eq!(b.recv_from(0).unwrap(), vec![1]);
        assert_eq!(b.recv_from(0).unwrap(), vec![2], "FIFO per sender");
    }

    #[test]
    fn bad_rank_rejected() {
        let mut eps = ChannelFabric::mesh(2);
        let mut a = eps.remove(0);
        assert!(matches!(a.send(5, vec![]), Err(IcclError::BadRank { rank: 5, size: 2 })));
        assert!(matches!(a.recv_from(9), Err(IcclError::BadRank { .. })));
    }

    #[test]
    fn disconnect_detected_when_peers_drop() {
        let mut eps = ChannelFabric::mesh(2);
        let mut a = eps.remove(0);
        drop(eps); // rank 1 gone; its sender half to a also dropped
        assert!(matches!(a.recv_from(1), Err(IcclError::Disconnected)));
    }

    #[test]
    fn cross_thread_traffic() {
        let mut eps = ChannelFabric::mesh(4);
        let handles: Vec<_> = eps
            .drain(1..)
            .map(|f| {
                std::thread::spawn(move || {
                    f.send(0, vec![f.rank() as u8]).unwrap();
                })
            })
            .collect();
        let mut master = eps.pop().unwrap();
        let mut got: Vec<u8> = (1..4).map(|r| master.recv_from(r).unwrap()[0]).collect();
        got.sort();
        assert_eq!(got, vec![1, 2, 3]);
        for h in handles {
            h.join().unwrap();
        }
    }
}
