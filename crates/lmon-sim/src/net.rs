//! Network timing model.
//!
//! Launch-time traffic is control-plane traffic: small messages whose cost
//! is dominated by per-message latency, plus serialization at busy endpoints
//! (one front end talking to N daemons pushes messages out one at a time).
//! The model captures exactly those two effects:
//!
//! * a [`LinkSpec`] gives per-hop latency and bandwidth;
//! * [`NetModel`] tracks, per endpoint, when its transmit path is next free,
//!   so bursts of sends from one endpoint serialize while independent
//!   endpoints proceed in parallel.
//!
//! This is what makes a *flat* (1-to-N) gather linear in N at the master
//! while a *tree* gather costs O(log N) rounds — the structural difference
//! behind Figures 3 and 6.

use std::collections::HashMap;

use crate::time::{SimDuration, SimTime};

/// Latency/bandwidth description of a link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation + protocol latency per message.
    pub latency: SimDuration,
    /// Payload bandwidth in bytes per second.
    pub bytes_per_sec: f64,
    /// Fixed per-message CPU cost at the sender (marshalling, syscalls).
    pub send_overhead: SimDuration,
}

impl LinkSpec {
    /// A link resembling the paper's 4x DDR InfiniBand fabric as seen by a
    /// user-level TCP stream (LMONP runs on TCP/IP even on IB clusters).
    pub fn infiniband_tcp() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(60),
            bytes_per_sec: 900.0e6,
            send_overhead: SimDuration::from_micros(12),
        }
    }

    /// Time the wire is occupied by a message of `bytes` bytes.
    pub fn transmit_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

/// Identifies a network endpoint (usually one per actor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint(pub u32);

/// Per-endpoint serialized network model.
#[derive(Debug)]
pub struct NetModel {
    link: LinkSpec,
    tx_free: HashMap<Endpoint, SimTime>,
    messages: u64,
    bytes: u64,
}

impl NetModel {
    /// A model where every endpoint pair shares one link class.
    pub fn new(link: LinkSpec) -> Self {
        NetModel { link, tx_free: HashMap::new(), messages: 0, bytes: 0 }
    }

    /// The link class in use.
    pub fn link(&self) -> LinkSpec {
        self.link
    }

    /// Compute the arrival time of a message sent by `from` at `now`, and
    /// advance `from`'s transmit availability.
    ///
    /// The sender's transmit path is occupied for `send_overhead +
    /// transmit_time`; propagation latency then runs concurrently with the
    /// next send.
    pub fn send(&mut self, now: SimTime, from: Endpoint, bytes: usize) -> SimTime {
        let free = self.tx_free.get(&from).copied().unwrap_or(SimTime::ZERO);
        let start = now.max_of(free);
        let occupied = self.link.send_overhead + self.link.transmit_time(bytes);
        let tx_done = start + occupied;
        self.tx_free.insert(from, tx_done);
        self.messages += 1;
        self.bytes += bytes as u64;
        tx_done + self.link.latency
    }

    /// Total messages sent through the model.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total payload bytes sent through the model.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_link() -> LinkSpec {
        LinkSpec {
            latency: SimDuration::from_micros(100),
            bytes_per_sec: 1e9,
            send_overhead: SimDuration::from_micros(10),
        }
    }

    #[test]
    fn delivery_time_components_add_up() {
        // One 1 MB send (1 ms at 1 GB/s) from an idle endpoint.
        let d = NetModel::new(fast_link()).send(SimTime::ZERO, Endpoint(0), 1_000_000);
        let expect = SimDuration::from_micros(10)
            + SimDuration::from_millis(1)
            + SimDuration::from_micros(100);
        assert_eq!(d, SimTime::ZERO + expect);
    }

    #[test]
    fn sender_serializes_but_receivers_overlap() {
        let mut net = NetModel::new(fast_link());
        let fe = Endpoint(0);
        let t0 = SimTime::ZERO;
        // Two back-to-back sends from the same endpoint: second waits for
        // the first's occupancy (10us overhead + ~0 transmit), then both pay
        // 100us propagation.
        let a1 = net.send(t0, fe, 100);
        let a2 = net.send(t0, fe, 100);
        assert!(a2 > a1, "same-endpoint sends must serialize");
        // Sends from distinct endpoints at the same instant arrive together.
        let mut net2 = NetModel::new(fast_link());
        let b1 = net2.send(t0, Endpoint(1), 100);
        let b2 = net2.send(t0, Endpoint(2), 100);
        assert_eq!(b1, b2, "distinct endpoints don't contend");
    }

    #[test]
    fn flat_fanout_is_linear_in_n() {
        // The key structural effect: N messages from one endpoint take ~N
        // times the per-message occupancy.
        let mut net = NetModel::new(fast_link());
        let fe = Endpoint(0);
        let mut last = SimTime::ZERO;
        for _ in 0..100 {
            last = net.send(SimTime::ZERO, fe, 10_000);
        }
        let per_msg = fast_link().send_overhead + fast_link().transmit_time(10_000);
        let expected_tx_done = SimTime::ZERO + per_msg.mul_f64(100.0);
        assert_eq!(last, expected_tx_done + fast_link().latency);
    }

    #[test]
    fn counters_accumulate() {
        let mut net = NetModel::new(fast_link());
        net.send(SimTime::ZERO, Endpoint(0), 10);
        net.send(SimTime::ZERO, Endpoint(1), 20);
        assert_eq!(net.messages(), 2);
        assert_eq!(net.bytes(), 30);
    }

    #[test]
    fn tx_free_tracks_last_send() {
        let mut net = NetModel::new(fast_link());
        let link = fast_link();
        let first = net.send(SimTime(1_000), Endpoint(9), 0);
        let idle = link.send_overhead + link.latency;
        assert_eq!(first, SimTime(1_000) + idle, "a fresh endpoint sends at once");
        // The next send starts once the first has left the transmit path.
        let second = net.send(SimTime(1_000), Endpoint(9), 0);
        assert_eq!(second, first + link.send_overhead);
    }
}
