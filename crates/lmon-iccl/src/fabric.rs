//! The point-to-point fabric ICCL maps collectives onto.
//!
//! On a real system this is the RM's native communication subsystem (PMI,
//! the srun step fabric, BG/L's control network) — "we leverage native
//! communication subsystems that the RM sets up if possible" (§3.3). In the
//! virtual cluster it is a set of crossbeam channels the RM layer builds at
//! daemon-spawn time, handing one endpoint to each daemon in rank order —
//! same bootstrap shape as the real thing: daemons get their fabric *from
//! the RM*, not by dialing each other.
//!
//! ICCL's collectives only ever talk along their schedule's tree, so the RM
//! builds [`ChannelFabric::tree`]: endpoint `r` holds senders to its parent
//! and children only — O(log n) slots for a binomial tree, 2(n−1) in all.
//! [`ChannelFabric::mesh`] (every endpoint reaches every other, n(n−1)
//! slots) stays for probes that run several schedules over one fabric.

use bytes::Bytes;
use crossbeam_channel::{unbounded, Receiver, Sender};
use std::collections::{HashMap, VecDeque};

use crate::error::{IcclError, IcclResult};
use crate::topology::Topology;

/// One message: a refcounted view, so forwarding a payload to many peers
/// copies none of its bytes.
struct Packet {
    from: u32,
    bytes: Bytes,
}

/// In-process fabric endpoint: one rank, the senders to its neighbours and
/// its own inbox.
///
/// Endpoints do not hold a sender to their own inbox (self-send is not a
/// collective primitive), so when every *neighbour* endpoint is dropped a
/// blocked `recv_from` observes disconnection instead of hanging.
pub struct ChannelFabric {
    rank: u32,
    size: u32,
    /// Senders to this endpoint's neighbours, in ascending rank order.
    peers: Vec<(u32, Sender<Packet>)>,
    inbox: Receiver<Packet>,
    /// Messages that arrived while waiting for a different sender.
    stashed: HashMap<u32, VecDeque<Bytes>>,
}

impl ChannelFabric {
    /// Build `n` endpoints where each holds senders to its `topology`
    /// neighbours only: its parent and its children.
    ///
    /// The RM layer calls this when co-spawning daemons and moves one
    /// endpoint into each daemon body — modelling the fabric "the RM sets
    /// up" (§3.3), shaped to the schedule the daemons' collectives run.
    pub fn tree(n: u32, topology: Topology) -> Vec<ChannelFabric> {
        // A parent ranks below its children, so this order is ascending.
        Self::build(n, |rank| {
            topology.parent(rank).into_iter().chain(topology.children(rank, n)).collect()
        })
    }

    /// Build a fully connected mesh of `n` endpoints: any schedule runs
    /// over it, at n−1 senders per endpoint.
    pub fn mesh(n: u32) -> Vec<ChannelFabric> {
        Self::build(n, |rank| (0..n).filter(|&r| r != rank).collect())
    }

    /// One channel per rank; endpoint `r` keeps a sender to each rank
    /// `neighbours(r)` lists, in ascending order.
    fn build(n: u32, neighbours: impl Fn(u32) -> Vec<u32>) -> Vec<ChannelFabric> {
        let (senders, inboxes): (Vec<Sender<Packet>>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        (0..n)
            .zip(inboxes)
            .map(|(rank, inbox)| {
                let peers = neighbours(rank)
                    .into_iter()
                    .map(|r| (r, senders[r as usize].clone()))
                    .collect();
                ChannelFabric { rank, size: n, peers, inbox, stashed: HashMap::new() }
            })
            .collect()
    }

    /// The sender to `rank`, or an error at once if `rank` is out of range
    /// or not this endpoint's neighbour.
    fn peer(&self, rank: u32) -> IcclResult<&Sender<Packet>> {
        if rank >= self.size {
            return Err(IcclError::BadRank { rank, size: self.size });
        }
        let at = self.peers.binary_search_by_key(&rank, |(r, _)| *r);
        at.map(|i| &self.peers[i].1).map_err(|_| IcclError::NotNeighbour(rank))
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

    /// Send bytes to a neighbour rank.
    pub fn send(&self, to: u32, bytes: impl Into<Bytes>) -> IcclResult<()> {
        self.peer(to)?
            .send(Packet { from: self.rank, bytes: bytes.into() })
            .map_err(|_| IcclError::Disconnected)
    }

    /// Block until a message from neighbour `from` arrives (messages from
    /// other neighbours are buffered, not dropped).
    pub fn recv_from(&mut self, from: u32) -> IcclResult<Bytes> {
        self.peer(from)?;
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

    /// Endpoint r of a binomial tree fabric holds exactly its parent and
    /// children: at most ⌈log₂ n⌉ senders, and 2(n−1) in all. Anything else
    /// is refused at once, never waited on.
    #[test]
    fn a_tree_endpoint_holds_only_its_neighbours() {
        let topo = Topology::Binomial;
        for n in [1u32, 2, 5, 32, 1024] {
            let mut eps = ChannelFabric::tree(n, topo);
            let ceil_log2 = 32 - n.saturating_sub(1).leading_zeros() as usize;
            let mut total = 0;
            for ep in &eps {
                let r = ep.rank();
                let mut want: Vec<u32> = topo.parent(r).into_iter().collect();
                want.extend(topo.children(r, n));
                let held: Vec<u32> = ep.peers.iter().map(|(p, _)| *p).collect();
                assert_eq!(held, want, "n={n} rank {r}");
                assert!(held.len() <= ceil_log2, "n={n} rank {r}: {} senders", held.len());
                total += held.len();
            }
            assert_eq!(total, 2 * (n as usize - 1), "n={n}");
            if n >= 5 {
                // Ranks 3 and 4 are not neighbours (3's parent is 1, 4's is 0).
                let mut three = eps.swap_remove(3);
                assert!(matches!(three.send(4, vec![1]), Err(IcclError::NotNeighbour(4))));
                assert!(matches!(three.recv_from(4), Err(IcclError::NotNeighbour(4))));
                assert!(matches!(three.recv_from(3), Err(IcclError::NotNeighbour(3))));
            }
        }
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
