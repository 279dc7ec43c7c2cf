//! The four ICCL collectives: barrier, broadcast, gather, scatter.
//!
//! SPMD usage: every daemon in the session constructs an [`IcclComm`] over
//! its fabric endpoint and calls the same sequence of collectives. Rank 0
//! is always the master (the paper's master back-end daemon).

use std::collections::HashMap;

use crate::error::{IcclError, IcclResult};
use crate::fabric::ChannelFabric;
use crate::topology::Topology;

/// A communicator binding a fabric endpoint to a collective schedule.
pub struct IcclComm {
    fabric: ChannelFabric,
    topo: Topology,
}

// --- tiny internal framing for subtree aggregates --------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn get_u32(buf: &[u8], off: &mut usize) -> IcclResult<u32> {
    let end = *off + 4;
    let bytes = buf.get(*off..end).ok_or(IcclError::Corrupt("short u32"))?;
    *off = end;
    Ok(u32::from_be_bytes(bytes.try_into().expect("4-byte slice")))
}

fn encode_entries(entries: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + entries.iter().map(|(_, b)| 8 + b.len()).sum::<usize>());
    put_u32(&mut buf, entries.len() as u32);
    for (rank, bytes) in entries {
        put_u32(&mut buf, *rank);
        put_u32(&mut buf, bytes.len() as u32);
        buf.extend_from_slice(bytes);
    }
    buf
}

fn decode_entries(buf: &[u8]) -> IcclResult<Vec<(u32, Vec<u8>)>> {
    let mut off = 0;
    let n = get_u32(buf, &mut off)? as usize;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let rank = get_u32(buf, &mut off)?;
        let len = get_u32(buf, &mut off)? as usize;
        let end = off + len;
        let bytes = buf.get(off..end).ok_or(IcclError::Corrupt("short entry"))?.to_vec();
        off = end;
        entries.push((rank, bytes));
    }
    if off != buf.len() {
        return Err(IcclError::Corrupt("trailing bytes"));
    }
    Ok(entries)
}

impl IcclComm {
    /// Bind a fabric endpoint to a schedule.
    pub fn new(fabric: ChannelFabric, topo: Topology) -> Self {
        IcclComm { fabric, topo }
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> u32 {
        self.fabric.rank()
    }

    /// Communicator size.
    pub fn size(&self) -> u32 {
        self.fabric.size()
    }

    /// Whether this endpoint is the master (rank 0) — the paper's
    /// `amIMaster` predicate.
    pub fn is_master(&self) -> bool {
        self.rank() == 0
    }

    /// The schedule in use.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Borrow the underlying fabric (point-to-point sends alongside
    /// collectives).
    pub fn fabric_ref(&self) -> &ChannelFabric {
        &self.fabric
    }

    /// Mutably borrow the underlying fabric (point-to-point receives).
    pub fn fabric_mut(&mut self) -> &mut ChannelFabric {
        &mut self.fabric
    }

    fn parent(&self) -> Option<u32> {
        self.topo.parent(self.rank())
    }

    fn children(&self) -> Vec<u32> {
        self.topo.children(self.rank(), self.size())
    }

    /// Gather one byte payload per rank to the master. Returns
    /// `Some(payloads)` (indexed by rank) at the master, `None` elsewhere.
    pub fn gather(&mut self, contribution: Vec<u8>) -> IcclResult<Option<Vec<Vec<u8>>>> {
        let mut entries: Vec<(u32, Vec<u8>)> = vec![(self.rank(), contribution)];
        // Collect subtree aggregates from every child, deepest first being
        // irrelevant — recv order is by child identity.
        for child in self.children() {
            let sub = self.fabric.recv_from(child)?;
            entries.extend(decode_entries(&sub)?);
        }
        match self.parent() {
            Some(parent) => {
                self.fabric.send(parent, encode_entries(&entries))?;
                Ok(None)
            }
            None => {
                let size = self.size();
                let mut by_rank: HashMap<u32, Vec<u8>> = entries.into_iter().collect();
                let mut out = Vec::with_capacity(size as usize);
                for r in 0..size {
                    out.push(by_rank.remove(&r).ok_or(IcclError::Corrupt("missing rank"))?);
                }
                Ok(Some(out))
            }
        }
    }

    /// Broadcast bytes from the master to every rank. The master passes
    /// `Some(data)`, everyone else `None`; all ranks return the data.
    pub fn broadcast(&mut self, data: Option<Vec<u8>>) -> IcclResult<Vec<u8>> {
        let data = match self.parent() {
            None => data.ok_or(IcclError::RoleMismatch("master must supply broadcast data"))?,
            Some(parent) => {
                if data.is_some() {
                    return Err(IcclError::RoleMismatch("non-master supplied broadcast data"));
                }
                self.fabric.recv_from(parent)?
            }
        };
        for child in self.children() {
            self.fabric.send(child, data.clone())?;
        }
        Ok(data)
    }

    /// Scatter one payload to each rank. The master passes `Some(parts)`
    /// with exactly `size` elements (indexed by rank); every rank returns
    /// its own part.
    pub fn scatter(&mut self, parts: Option<Vec<Vec<u8>>>) -> IcclResult<Vec<u8>> {
        let entries: Vec<(u32, Vec<u8>)> = match self.parent() {
            None => {
                let parts =
                    parts.ok_or(IcclError::RoleMismatch("master must supply scatter parts"))?;
                if parts.len() != self.size() as usize {
                    return Err(IcclError::BadScatterParts {
                        got: parts.len(),
                        want: self.size() as usize,
                    });
                }
                parts.into_iter().enumerate().map(|(r, b)| (r as u32, b)).collect()
            }
            Some(parent) => {
                if parts.is_some() {
                    return Err(IcclError::RoleMismatch("non-master supplied scatter parts"));
                }
                decode_entries(&self.fabric.recv_from(parent)?)?
            }
        };
        // Partition entries into own part and per-child subtree bundles.
        let mut own: Option<Vec<u8>> = None;
        let children = self.children();
        let mut child_bundle: HashMap<u32, Vec<(u32, Vec<u8>)>> = HashMap::new();
        for (rank, bytes) in entries {
            if rank == self.rank() {
                own = Some(bytes);
            } else {
                let via = self
                    .route_toward(rank)
                    .ok_or(IcclError::Corrupt("scatter entry for unroutable rank"))?;
                child_bundle.entry(via).or_default().push((rank, bytes));
            }
        }
        for child in children {
            let bundle = child_bundle.remove(&child).unwrap_or_default();
            self.fabric.send(child, encode_entries(&bundle))?;
        }
        if !child_bundle.is_empty() {
            return Err(IcclError::Corrupt("scatter routing left residue"));
        }
        own.ok_or(IcclError::Corrupt("scatter missing own part"))
    }

    /// Barrier: gather of empty payloads followed by an empty broadcast.
    pub fn barrier(&mut self) -> IcclResult<()> {
        let gathered = self.gather(Vec::new())?;
        let seed = if self.is_master() {
            debug_assert!(gathered.is_some());
            Some(Vec::new())
        } else {
            None
        };
        self.broadcast(seed)?;
        Ok(())
    }

    /// Which child subtree contains `target` (None if it is not below us).
    fn route_toward(&self, target: u32) -> Option<u32> {
        // Walk up from target until the parent is self.
        let mut cur = target;
        loop {
            let p = self.topo.parent(cur)?;
            if p == self.rank() {
                return Some(cur);
            }
            cur = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one closure per rank on its own thread; return per-rank results.
    fn spmd<R: Send + 'static>(
        n: u32,
        topo: Topology,
        f: impl Fn(IcclComm) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let f = std::sync::Arc::new(f);
        let endpoints = ChannelFabric::mesh(n);
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                let f = f.clone();
                std::thread::spawn(move || f(IcclComm::new(ep, topo)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    const TOPOLOGIES: [Topology; 4] =
        [Topology::Flat, Topology::Binomial, Topology::KAry(2), Topology::KAry(3)];

    #[test]
    fn gather_collects_all_ranks_in_order() {
        for topo in TOPOLOGIES {
            for n in [1u32, 2, 5, 16, 33] {
                let results =
                    spmd(n, topo, |mut comm| comm.gather(vec![comm.rank() as u8]).unwrap());
                let master = results[0].as_ref().expect("master gets data");
                assert_eq!(master.len(), n as usize);
                for (r, payload) in master.iter().enumerate() {
                    assert_eq!(payload, &vec![r as u8], "{topo:?} n={n}");
                }
                assert!(results[1..].iter().all(Option::is_none));
            }
        }
    }

    #[test]
    fn broadcast_reaches_everyone() {
        for topo in TOPOLOGIES {
            for n in [1u32, 2, 7, 16] {
                let results = spmd(n, topo, |mut comm| {
                    let seed = comm.is_master().then(|| b"launch-info".to_vec());
                    comm.broadcast(seed).unwrap()
                });
                assert!(results.iter().all(|r| r == b"launch-info"), "{topo:?} n={n}");
            }
        }
    }

    #[test]
    fn scatter_delivers_per_rank_parts() {
        for topo in TOPOLOGIES {
            for n in [1u32, 3, 8, 17] {
                let results = spmd(n, topo, move |mut comm| {
                    let parts = comm
                        .is_master()
                        .then(|| (0..comm.size()).map(|r| vec![r as u8; 3]).collect());
                    comm.scatter(parts).unwrap()
                });
                for (r, part) in results.iter().enumerate() {
                    assert_eq!(part, &vec![r as u8; 3], "{topo:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn barrier_completes_everywhere() {
        for topo in TOPOLOGIES {
            let results = spmd(9, topo, |mut comm| comm.barrier().is_ok());
            assert!(results.into_iter().all(|ok| ok));
        }
    }

    #[test]
    fn collectives_compose_in_sequence() {
        // The BE bootstrap pattern: barrier, gather daemon info, scatter
        // assignments, broadcast the RPDTAB.
        let results = spmd(8, Topology::Binomial, |mut comm| {
            comm.barrier().unwrap();
            let gathered = comm.gather(comm.rank().to_be_bytes().to_vec()).unwrap();
            let parts = gathered.map(|g| {
                g.into_iter()
                    .map(|mut b| {
                        b.push(0xFF);
                        b
                    })
                    .collect::<Vec<_>>()
            });
            let mine = comm.scatter(parts).unwrap();
            let table = comm.broadcast(comm.is_master().then(|| b"rpdtab".to_vec())).unwrap();
            (mine, table)
        });
        for (r, (mine, table)) in results.iter().enumerate() {
            let mut expect = (r as u32).to_be_bytes().to_vec();
            expect.push(0xFF);
            assert_eq!(mine, &expect);
            assert_eq!(table, b"rpdtab");
        }
    }

    #[test]
    fn role_mismatch_detected() {
        let results = spmd(2, Topology::Flat, |mut comm| {
            if comm.is_master() {
                // Master must supply data; passing None is an error.
                let e = comm.broadcast(None).unwrap_err();
                // Recover the protocol so rank 1 doesn't hang: send real data.
                comm.broadcast(Some(vec![1])).unwrap();
                Some(e)
            } else {
                comm.broadcast(None).unwrap();
                None
            }
        });
        assert!(matches!(results[0], Some(IcclError::RoleMismatch(_))));
    }

    #[test]
    fn scatter_part_count_validated() {
        let results = spmd(3, Topology::Flat, |mut comm| {
            if comm.is_master() {
                let e = comm.scatter(Some(vec![vec![0]; 2])).unwrap_err();
                comm.scatter(Some(vec![vec![0]; 3])).unwrap();
                Some(e)
            } else {
                comm.scatter(None).unwrap();
                None
            }
        });
        assert!(matches!(results[0], Some(IcclError::BadScatterParts { got: 2, want: 3 })));
    }

    #[test]
    fn large_payload_gather() {
        // 64 KiB per rank across 16 ranks exercises the framing path.
        let results = spmd(16, Topology::KAry(4), |mut comm| {
            let payload = vec![comm.rank() as u8; 64 * 1024];
            comm.gather(payload).unwrap()
        });
        let master = results[0].as_ref().unwrap();
        assert_eq!(master.len(), 16);
        assert!(master
            .iter()
            .enumerate()
            .all(|(r, p)| p.len() == 64 * 1024 && p.iter().all(|&b| b == r as u8)));
    }
}
