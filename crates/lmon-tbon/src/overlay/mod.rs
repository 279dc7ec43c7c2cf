//! The overlay proper: links, endpoints, and the communication-daemon loop.
//!
//! Packets sent down from the front end are forwarded to every child;
//! packets sent up by leaves are aggregated at each internal node — one
//! packet per (stream, tag) *wave* per child — with the stream's filter,
//! so the front end receives a single combined packet per wave.
//!
//! One file per plane:
//!
//! * this module — [`Overlay::build`] wires every channel, [`Overlay::run`]
//!   stands the overlay up on threads ([`RunningOverlay`]), and
//!   [`CommFault`] schedules deterministic comm-daemon faults;
//! * `leaf` — [`LeafEndpoint`], the tool daemon's end: one `recv`, one
//!   serve loop;
//! * `comm` — [`CommHarness::run`], the communication-daemon loop, with one
//!   link-close path shared by crash, drain and sever;
//! * `front` — [`FrontEndpoint`]: the data plane (streams, broadcast,
//!   gather), the failure plane (every up-link wait goes through one pump),
//!   and [`FrontEndpoint::repair`];
//! * `maintenance` — [`Maintenance`]: drain, upgrade, rolling upgrade and
//!   background suspicion.
//!
//! The overlay is **self-healing** (DESIGN.md §9): every node carries an
//! out-of-band control mailbox, crash fault paths close links
//! deterministically (a `LinkDown` FIN to children, a `ChildGone` notice to
//! the parent, a death mark in the shared [`RouteTable`]), and
//! [`FrontEndpoint::repair`] re-parents a dead node's orphans onto its
//! grandparent — split across siblings when fan-out bounds require —
//! under a bumped overlay *epoch*. Packets stamped with a pre-repair epoch
//! are counted in [`OverlayStats`] and dropped, never mis-routed. Planned
//! maintenance (DESIGN.md §12) sits on top of the same repair path.

use std::collections::HashMap;
use std::sync::Arc;

use crossbeam_channel::{unbounded, Receiver, Sender};

use crate::filter::FilterRegistry;
use crate::packet::{Down, Up};
use crate::recovery::{ChildLink, OverlayStats, RecoveryCmd, RouteTable};
use crate::spec::{NodePos, TopologySpec, ROOT};

mod comm;
mod front;
mod leaf;
mod maintenance;
#[cfg(test)]
mod tests;

pub use comm::CommHarness;
pub use front::FrontEndpoint;
pub use leaf::LeafEndpoint;
pub use maintenance::{Maintenance, UpgradeReport, UpgradeStep};

/// Reserved stream id for connection hellos.
pub const CONNECT_STREAM: u16 = 0;

/// A fully built (but not yet running) overlay.
pub struct Overlay {
    /// The front-end endpoint.
    pub front: FrontEndpoint,
    /// Harnesses for each internal communication daemon.
    pub comm: Vec<CommHarness>,
    /// Endpoints for each leaf (tool daemon), in leaf-index order.
    pub leaves: Vec<LeafEndpoint>,
}

impl Overlay {
    /// Build all links for `spec`.
    pub fn build(spec: &TopologySpec, registry: FilterRegistry) -> Overlay {
        Self::build_shared(spec, registry, Arc::new(OverlayStats::default()))
    }

    /// [`Overlay::build`] with caller-supplied stats: an embedding daemon
    /// can aggregate several overlays' counters into one `/metrics`
    /// ledger.
    pub fn build_shared(
        spec: &TopologySpec,
        registry: FilterRegistry,
        stats: Arc<OverlayStats>,
    ) -> Overlay {
        let route = Arc::new(RouteTable::new(spec));

        // Per-node down + ctl channels and per-parent up channels. Hot
        // spares get the full set — they can parent once activated — plus
        // a registration count in the stats ledger.
        let spare_positions = spec.spare_positions();
        stats.add_spares_registered(spare_positions.len() as u64);
        let mut down: HashMap<NodePos, (Sender<Down>, Receiver<Down>)> = HashMap::new();
        let mut ctl: HashMap<NodePos, (Sender<RecoveryCmd>, Receiver<RecoveryCmd>)> =
            HashMap::new();
        let mut up: HashMap<NodePos, (Sender<Up>, Receiver<Up>)> = HashMap::new();
        let parents = spec.comm_positions().into_iter().chain(spare_positions.iter().copied());
        for p in parents.clone().chain([ROOT]) {
            up.insert(p, unbounded());
        }
        for n in parents.chain(spec.leaf_positions()) {
            down.insert(n, unbounded());
            ctl.insert(n, unbounded());
        }

        // Register the repair-plane handles in the route table.
        for (pos, node) in route.lock().nodes.iter_mut() {
            node.down = down.get(pos).map(|(tx, _)| tx.clone());
            node.ctl = ctl.get(pos).map(|(tx, _)| tx.clone());
            node.up = up.get(pos).map(|(tx, _)| tx.clone());
        }

        let links_of = |pos: NodePos| -> Vec<ChildLink> {
            spec.children(pos)
                .into_iter()
                .map(|c| ChildLink { pos: c, down: down[&c].0.clone() })
                .collect()
        };
        let up_to_parent = |pos: NodePos| up[&spec.parent(pos).expect("non-root")].0.clone();
        let harness = |pos: NodePos, up_tx: Sender<Up>, children: Vec<ChildLink>| CommHarness {
            pos,
            down_rx: down[&pos].1.clone(),
            ctl_rx: ctl[&pos].1.clone(),
            up_rx: up[&pos].1.clone(),
            up_tx,
            children,
            registry: registry.clone(),
            route: route.clone(),
            stats: stats.clone(),
        };

        let mut comm: Vec<CommHarness> = spec
            .comm_positions()
            .into_iter()
            .map(|pos| harness(pos, up_to_parent(pos), links_of(pos)))
            .collect();
        // Spare harnesses ride after the regular comms (fault-plan indices
        // in the chaos suite stay stable): parentless, childless, and with
        // a deliberately dangling up link until a repair rewires them —
        // an idle spare has nothing to forward and nobody to forward to.
        comm.extend(spare_positions.iter().map(|&pos| harness(pos, unbounded().0, Vec::new())));

        let leaves = spec
            .leaf_positions()
            .into_iter()
            .map(|pos| {
                LeafEndpoint::new(pos, down[&pos].1.clone(), ctl[&pos].1.clone(), up_to_parent(pos))
            })
            .collect();

        let front = FrontEndpoint::new(links_of(ROOT), up[&ROOT].1.clone(), registry, route, stats);
        Overlay { front, comm, leaves }
    }

    /// Thread mode, the one way to stand an overlay up on plain OS threads:
    /// every comm daemon runs under `comm_fault(i)` (`i` = its position in
    /// [`Overlay::comm`]) and every leaf runs `leaf_main`, each on its own
    /// thread. (LaunchMON mode — leaves as BE daemons, comm daemons as MW
    /// daemons — lives in `lmon-tools`.)
    pub fn run(
        self,
        comm_fault: impl Fn(usize) -> CommFault,
        leaf_main: impl Fn(LeafEndpoint) + Send + Sync + 'static,
    ) -> RunningOverlay {
        let Overlay { front, comm, leaves } = self;
        let leaf_main = Arc::new(leaf_main);
        let comms = comm.into_iter().enumerate().map(|(i, harness)| {
            let fault = comm_fault(i);
            std::thread::spawn(move || harness.run(fault))
        });
        let leaves = leaves.into_iter().map(|leaf| {
            let main = leaf_main.clone();
            std::thread::spawn(move || main(leaf))
        });
        let handles = comms.chain(leaves).collect();
        RunningOverlay { front, handles }
    }
}

/// An overlay whose comm daemons and leaves run on threads (see
/// [`Overlay::run`]). Dropping it without [`RunningOverlay::shutdown`]
/// still stops every thread (the front endpoint's drop tears the overlay
/// down) but detaches them instead of joining.
pub struct RunningOverlay {
    /// The front-end endpoint.
    pub front: FrontEndpoint,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl RunningOverlay {
    /// Tear the overlay down (in-tree and out-of-band) and join every
    /// daemon thread — crashed, halted and drained comm daemons included.
    /// `Err` carries the first panic any of them died with.
    pub fn shutdown(self) -> std::thread::Result<()> {
        self.front.shutdown();
        let mut joined = Ok(());
        for h in self.handles {
            joined = joined.and(h.join());
        }
        joined
    }
}

/// A deterministic fault schedule for one communication daemon.
///
/// Counters are per-daemon message counts, not wall-clock times, so a chaos
/// scenario crashes or partitions the overlay at exactly the same protocol
/// point on every run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommFault {
    /// Crash after receiving this many up-packets — mid-aggregation when
    /// it is smaller than the child count of a wave. The crash runs the
    /// deterministic close path: `LinkDown` to every child, a `ChildGone`
    /// notice to the parent, and a death mark in the route table.
    pub crash_after_up: Option<u64>,
    /// Crash after receiving this many down-messages (data or control).
    pub crash_after_down: Option<u64>,
    /// Severed child links: up-packets from these child slots (indices
    /// into the daemon's *original* child list) are discarded, as if the
    /// connection to that subtree were partitioned away. The cut is closed
    /// deterministically at daemon start: the severed child receives a
    /// `LinkDown` notice instead of a silently half-open link.
    pub sever_child_slots: std::collections::BTreeSet<usize>,
}

impl CommFault {
    /// A fault-free schedule.
    pub fn none() -> Self {
        Self::default()
    }

    /// Crash after `n` up-packets.
    pub fn crash_after_up(mut self, n: u64) -> Self {
        self.crash_after_up = Some(n);
        self
    }

    /// Crash after `n` down-messages.
    pub fn crash_after_down(mut self, n: u64) -> Self {
        self.crash_after_down = Some(n);
        self
    }

    /// Sever the link to child slot `slot`.
    pub fn sever_child(mut self, slot: usize) -> Self {
        self.sever_child_slots.insert(slot);
        self
    }

    /// Whether any fault is scheduled.
    pub fn is_none(&self) -> bool {
        self == &CommFault::default()
    }

    /// The schedule `faults` lists for comm daemon `index` (its position
    /// in [`Overlay::comm`]); fault-free when unlisted.
    pub fn at(faults: &[(usize, CommFault)], index: usize) -> CommFault {
        faults.iter().find(|(i, _)| *i == index).map(|(_, f)| f.clone()).unwrap_or_default()
    }
}
