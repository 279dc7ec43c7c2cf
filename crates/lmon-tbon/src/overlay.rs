//! The overlay proper: links, endpoints, and the communication-daemon loop.
//!
//! Packets sent down from the front end are forwarded to every child;
//! packets sent up by leaves are aggregated at each internal node — one
//! packet per (stream, tag) *wave* per child — with the stream's filter,
//! so the front end receives a single combined packet per wave.
//!
//! The overlay is **self-healing** (DESIGN.md §9): every node carries an
//! out-of-band control mailbox, crash fault paths close links
//! deterministically (a `LinkDown` FIN to children, a `ChildGone` notice to
//! the parent, a death mark in the shared [`RouteTable`]), and
//! [`FrontEndpoint::repair`] re-parents a dead node's orphans onto its
//! grandparent — split across siblings when fan-out bounds require —
//! under a bumped overlay *epoch*. Packets stamped with a pre-repair epoch
//! are counted in [`OverlayStats`] and dropped, never mis-routed.
//!
//! On top of the failure path sits **planned maintenance** (DESIGN.md §12),
//! consolidated behind the [`FrontEndpoint::maintenance`] handle:
//! [`Maintenance::drain`] quiesces a daemon without losing a packet
//! (it flushes every in-flight wave before detaching), a `+N` spec suffix
//! pre-launches a hot-spare pool that repairs prefer over inflating
//! sibling fan-out, [`Maintenance::start_suspicion`] runs background
//! phi-accrual failure detection, and [`Maintenance::rolling_upgrade`]
//! walks the overlay replacing one comm daemon at a time.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, SelectWaker, Sender, TryRecvError};
use parking_lot::Mutex;

use crate::error::{TbonError, TbonResult};
use crate::filter::{FilterKind, FilterRegistry};
use crate::packet::{Control, Down, Packet, Up, UpKind};
use crate::recovery::{
    adoption_candidates, plan_adoption, ChildLink, OverlayStats, OverlayStatsSnapshot, RecoveryCmd,
    RecoveryEvent, RepairReport, RouteTable,
};
use crate::spec::{NodePos, TopologySpec};
use crate::suspicion::{spawn_monitor, PhiAccrualParams, SuspicionHandle, SuspicionTable};

/// Reserved stream id for connection hellos.
pub const CONNECT_STREAM: u16 = 0;

/// First stream id handed out by [`FrontEndpoint::open_stream`].
const FIRST_USER_STREAM: u16 = 1;

/// Aggregation waves are keyed by (epoch, stream, tag): contributions from
/// different overlay epochs must never mix.
type WaveKey = (u64, u16, u16);

/// Everything a communication daemon needs to run its node.
pub struct CommHarness {
    /// This node's position.
    pub pos: NodePos,
    down_rx: Receiver<Down>,
    ctl_rx: Receiver<RecoveryCmd>,
    up_rx: Receiver<Up>,
    up_tx: Sender<Up>,
    children: Vec<ChildLink>,
    route: Arc<RouteTable>,
    stats: Arc<OverlayStats>,
}

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
    parent: NodePos,
    epoch: u64,
    parent_lost: bool,
}

/// Events a leaf observes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeafEvent {
    /// A data packet broadcast from the front end.
    Data(Packet),
    /// The front end opened a stream.
    StreamOpened(u16),
    /// The overlay is shutting down.
    Shutdown,
}

impl LeafEndpoint {
    /// This leaf's position in the tree.
    pub fn pos(&self) -> NodePos {
        self.pos
    }

    /// The overlay epoch this leaf currently stamps its packets with.
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// Whether the parent link is currently down (orphaned, awaiting
    /// adoption). Cleared when a re-parenting rewire arrives.
    pub fn parent_lost(&self) -> bool {
        self.state.lock().parent_lost
    }

    /// The current parent this leaf sends its up-traffic to (changes when
    /// a repair re-parents the leaf).
    pub fn parent(&self) -> NodePos {
        self.state.lock().parent
    }

    /// Send one packet up the tree (one per wave).
    pub fn send_up(&self, stream: u16, tag: u16, payload: Vec<u8>) -> TbonResult<()> {
        let st = self.state.lock();
        st.up_tx
            .send(Up {
                from: self.pos,
                epoch: st.epoch,
                kind: UpKind::Packet(Packet::new(stream, tag, payload)),
            })
            .map_err(|_| TbonError::Disconnected)
    }

    /// Block for the next downstream event.
    ///
    /// Recovery traffic is handled transparently: heartbeat pings are
    /// answered in place, link-down notices mark the parent lost (the leaf
    /// keeps waiting for adoption), and re-parenting rewires swap the up
    /// link without surfacing an event.
    pub fn recv(&self) -> TbonResult<LeafEvent> {
        loop {
            let wepoch = self.waker.epoch();
            // Control mailbox first: rewires and out-of-band shutdown must
            // never sit behind buffered data.
            loop {
                match self.ctl_rx.try_recv() {
                    Ok(RecoveryCmd::Rewire { epoch, parent, up }) => {
                        let mut st = self.state.lock();
                        st.up_tx = up;
                        st.parent = parent;
                        st.epoch = st.epoch.max(epoch);
                        st.parent_lost = false;
                    }
                    Ok(RecoveryCmd::Shutdown) => return Ok(LeafEvent::Shutdown),
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
                    return Ok(LeafEvent::Data(pkt));
                }
                Ok(Down::Ctl(Control::OpenStream { stream, .. })) => {
                    return Ok(LeafEvent::StreamOpened(stream))
                }
                Ok(Down::Ctl(Control::Shutdown)) => return Ok(LeafEvent::Shutdown),
                Ok(Down::Ctl(Control::Ping { seq })) => {
                    let st = self.state.lock();
                    let _ = st.up_tx.send(Up {
                        from: self.pos,
                        epoch: st.epoch,
                        kind: UpKind::Pong { pos: self.pos, seq },
                    });
                }
                Ok(Down::Ctl(Control::LinkDown)) => {
                    self.state.lock().parent_lost = true;
                }
                Err(TryRecvError::Empty) => {
                    self.waker.wait(wepoch);
                }
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
        loop {
            match self.recv() {
                Ok(LeafEvent::Data(pkt)) => {
                    let _ = self.send_up(pkt.stream, pkt.tag, answer(&pkt));
                }
                Ok(LeafEvent::StreamOpened(_)) => {}
                Ok(LeafEvent::Shutdown) | Err(_) => return,
            }
        }
    }

    /// [`LeafEndpoint::serve`] as the standard probe body: every data
    /// packet is answered with `[leaf_index]`.
    pub fn serve_echo(self) {
        self.serve(|| |_: &Packet| vec![self.leaf_index as u8]);
    }
}

/// The front-end endpoint of the overlay.
pub struct FrontEndpoint {
    children: Vec<ChildLink>,
    up_rx: Receiver<Up>,
    registry: FilterRegistry,
    streams: HashMap<u16, FilterKind>,
    next_stream: u16,
    epoch: u64,
    /// Pending up-packets not yet claimed by a gather, keyed by
    /// (stream, tag) → per-child payloads. Contributions are only ever
    /// from the current epoch; repairs clear the map.
    pending: HashMap<(u16, u16), BTreeMap<NodePos, Packet>>,
    route: Arc<RouteTable>,
    stats: Arc<OverlayStats>,
    events: Vec<RecoveryEvent>,
    /// Nodes known dead and not yet repaired away.
    dead_pending: Vec<NodePos>,
    ping_seq: u64,
    pongs: HashSet<NodePos>,
    /// Waves that completed under a superseded epoch and were preserved by
    /// a repair (every pre-repair child had contributed). Served by the
    /// next `gather` for that (stream, tag) before any new-epoch wave, so
    /// a drain that flushed its data cannot retroactively lose it.
    flushed: HashMap<(u16, u16), BTreeMap<NodePos, Packet>>,
    /// Nodes under a planned drain, shared with the suspicion monitor:
    /// their silence is intentional and must not read as death.
    draining: Arc<Mutex<HashSet<NodePos>>>,
    /// Drain confirmations received but not yet claimed by `drain_comm`.
    drained_pending: HashSet<NodePos>,
    /// (node, epoch) pairs a heartbeat sweep already reported missing:
    /// back-to-back sweeps straddling one failure attribute it exactly
    /// once. Re-armed by a pong, pruned at each epoch bump.
    reported_missing: HashSet<(NodePos, u64)>,
    /// Background phi-accrual monitor, once started (dropping the front
    /// end stops its thread).
    suspicion: Option<SuspicionHandle>,
}

impl FrontEndpoint {
    /// Number of direct children.
    pub fn fanout(&self) -> usize {
        self.children.len()
    }

    /// The current overlay epoch (bumped by every repair).
    pub fn overlay_epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared route table (read-only observation: liveness, current
    /// topology, epoch).
    pub fn route_table(&self) -> Arc<RouteTable> {
        self.route.clone()
    }

    /// A snapshot of the overlay health counters.
    pub fn stats(&self) -> OverlayStatsSnapshot {
        self.stats.snapshot()
    }

    /// The planned-maintenance surface (DESIGN.md §12), one handle for
    /// the whole drain / upgrade / suspicion family:
    /// `fe.maintenance().drain(pos, timeout)`,
    /// `.upgrade(pos, timeout)`, `.rolling_upgrade(timeout)`,
    /// `.start_suspicion(params)`.
    pub fn maintenance(&mut self) -> Maintenance<'_> {
        Maintenance { fe: self }
    }

    /// Recovery events recorded so far, in occurrence order.
    pub fn recovery_events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// Drain the recovery event log.
    pub fn take_recovery_events(&mut self) -> Vec<RecoveryEvent> {
        std::mem::take(&mut self.events)
    }

    /// Open a stream with an aggregation filter; announces it down-tree.
    pub fn open_stream(&mut self, filter: FilterKind) -> TbonResult<u16> {
        let id = self.next_stream;
        self.next_stream += 1;
        self.streams.insert(id, filter.clone());
        for c in &self.children {
            c.down
                .send(Down::Ctl(Control::OpenStream { stream: id, filter: filter.clone() }))
                .map_err(|_| TbonError::Disconnected)?;
        }
        Ok(id)
    }

    /// Broadcast a packet to every leaf, stamped with the current epoch.
    pub fn broadcast(
        &self,
        stream: u16,
        tag: u16,
        payload: impl Into<bytes::Bytes>,
    ) -> TbonResult<()> {
        if !self.streams.contains_key(&stream) {
            return Err(TbonError::NoSuchStream(stream));
        }
        // One Bytes view up front: the per-child clone below is a refcount
        // bump on shared storage, not a payload copy per child.
        let payload = payload.into();
        for c in &self.children {
            c.down
                .send(Down::Data {
                    epoch: self.epoch,
                    pkt: Packet::new(stream, tag, payload.clone()),
                })
                .map_err(|_| TbonError::Disconnected)?;
        }
        Ok(())
    }

    /// Fold one up-link message into front-end state.
    fn process_up(&mut self, up: Up) {
        match up.kind {
            UpKind::Packet(pkt) => {
                if up.epoch < self.epoch || !self.children.iter().any(|c| c.pos == up.from) {
                    // Pre-repair traffic (or a child already repaired
                    // away): counted, dropped, never mis-aggregated.
                    self.stats.add_stale_packets(1);
                    return;
                }
                self.pending.entry((pkt.stream, pkt.tag)).or_default().insert(up.from, pkt);
            }
            UpKind::Pong { pos, seq } => {
                self.stats.add_pongs(1);
                if seq == self.ping_seq {
                    self.pongs.insert(pos);
                }
                // A node that answers again is no longer missing: re-arm
                // its heartbeat attribution for this epoch.
                self.reported_missing.remove(&(pos, self.epoch));
            }
            UpKind::ChildGone { pos } => self.note_dead(pos),
            UpKind::Drained { pos } => {
                self.drained_pending.insert(pos);
            }
        }
    }

    /// Record a death exactly once (idempotent across duplicate notices).
    fn note_dead(&mut self, pos: NodePos) {
        // A draining node's silence (and eventual link close) is planned:
        // it must never enter the failure ledger.
        if self.draining.lock().contains(&pos) {
            return;
        }
        let routed = self.route.lock().nodes.contains_key(&pos);
        if !routed {
            return;
        }
        self.route.mark_dead(pos);
        if !self.dead_pending.contains(&pos) {
            let orphans = self.route.current_children(pos).len();
            self.events.push(RecoveryEvent::Degraded { dead: pos, orphans, epoch: self.epoch });
            self.dead_pending.push(pos);
            self.stats.add_deaths(1);
        }
    }

    /// Drain link-close notices and death marks without blocking; returns
    /// the nodes currently known dead and not yet repaired.
    pub fn poll_failures(&mut self) -> Vec<NodePos> {
        while let Ok(up) = self.up_rx.try_recv() {
            self.process_up(up);
        }
        for pos in self.route.dead_nodes() {
            self.note_dead(pos);
        }
        let mut dead = self.dead_pending.clone();
        dead.sort_unstable();
        dead
    }

    /// Block until a failure is known (or `timeout` elapses); returns the
    /// first dead node in position order.
    pub fn wait_failure(&mut self, timeout: Duration) -> Option<NodePos> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let dead = self.poll_failures();
            if let Some(d) = dead.first() {
                return Some(*d);
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return None;
            }
            // Short receive chunks rather than one long block: a death can
            // now land in the route table out of band (background
            // suspicion marking a silent halt) with no up-link message to
            // wake this receive.
            if let Ok(up) = self.up_rx.recv_timeout(remaining.min(Duration::from_millis(10))) {
                self.process_up(up);
            }
        }
    }

    /// One heartbeat sweep: ping the whole tree and wait (up to `timeout`)
    /// for every live node's pong. Returns the nodes that did not answer —
    /// severed subtrees show up here even when their daemons still run,
    /// because their pongs are discarded at the cut.
    ///
    /// Idle spares (pings never reach them — they hold no tree position)
    /// and draining nodes (silent on purpose) are not expected to answer.
    /// A node already reported missing under the current epoch is not
    /// reported again: back-to-back sweeps straddling one failure plan its
    /// repair exactly once. The attribution re-arms when the node pongs
    /// again or the epoch advances.
    pub fn heartbeat(&mut self, timeout: Duration) -> Vec<NodePos> {
        self.ping_seq += 1;
        self.pongs.clear();
        self.stats.add_pings(1);
        for c in &self.children {
            let _ = c.down.send(Down::Ctl(Control::Ping { seq: self.ping_seq }));
        }
        let mut expected: HashSet<NodePos> = {
            let rt = self.route.lock();
            rt.nodes
                .iter()
                .filter(|(p, n)| p.level != 0 && n.alive && !rt.spare_pool.contains(p))
                .map(|(p, _)| *p)
                .collect()
        };
        {
            let draining = self.draining.lock();
            expected.retain(|p| !draining.contains(p));
        }
        let deadline = std::time::Instant::now() + timeout;
        while !expected.is_subset(&self.pongs) {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                break;
            }
            match self.up_rx.recv_timeout(remaining) {
                Ok(up) => self.process_up(up),
                Err(_) => break,
            }
        }
        let mut missing: Vec<NodePos> = expected.difference(&self.pongs).copied().collect();
        missing.retain(|p| self.reported_missing.insert((*p, self.epoch)));
        missing.sort_unstable();
        missing
    }

    /// The control mailbox of the interior comm daemon at `pos`; the root
    /// and leaves are rejected with [`TbonError::UnknownNode`].
    fn comm_ctl(&self, pos: NodePos) -> TbonResult<Sender<RecoveryCmd>> {
        let rt = self.route.lock();
        let node = rt.nodes.get(&pos).ok_or(TbonError::UnknownNode(pos))?;
        // Interior comm daemons are exactly the non-root nodes that can
        // parent (own an up channel).
        if pos.level == 0 || node.up.is_none() {
            return Err(TbonError::UnknownNode(pos));
        }
        node.ctl.clone().ok_or(TbonError::UnknownNode(pos))
    }

    /// Inject a deterministic crash into the comm daemon at `pos` (the
    /// bench/chaos kill switch): the daemon runs the same close-links
    /// fault path a [`CommFault`] crash takes.
    ///
    /// Only interior comm daemons are valid targets; the root and leaves
    /// are rejected with [`TbonError::UnknownNode`] rather than silently
    /// ignoring the command (leaves have no crash fault path to run).
    pub fn crash_comm(&self, pos: NodePos) -> TbonResult<()> {
        self.comm_ctl(pos)?.send(RecoveryCmd::Crash).map_err(|_| TbonError::Disconnected)
    }

    /// Inject a *silent* death into the comm daemon at `pos`: the daemon
    /// exits without the crash path's `LinkDown`/`ChildGone` notices or
    /// route-table mark — the in-process analogue of `kill -9`. Only
    /// background suspicion ([`Maintenance::start_suspicion`]) can detect
    /// it; the bench and chaos suites use exactly that to measure
    /// phi-accrual detection latency.
    pub fn halt_comm(&self, pos: NodePos) -> TbonResult<()> {
        self.comm_ctl(pos)?.send(RecoveryCmd::Halt).map_err(|_| TbonError::Disconnected)
    }

    /// [`Maintenance::drain`].
    fn drain_comm(&mut self, pos: NodePos, timeout: Duration) -> TbonResult<RepairReport> {
        let ctl = self.comm_ctl(pos)?;
        self.events.push(RecoveryEvent::Draining { node: pos, epoch: self.epoch });
        self.draining.lock().insert(pos);
        if ctl.send(RecoveryCmd::Drain).is_err() {
            self.draining.lock().remove(&pos);
            return Err(TbonError::Disconnected);
        }
        let deadline = Instant::now() + timeout;
        while !self.drained_pending.remove(&pos) {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                self.draining.lock().remove(&pos);
                return Err(TbonError::Timeout);
            }
            if let Ok(up) = self.up_rx.recv_timeout(remaining) {
                self.process_up(up);
            }
        }
        self.stats.add_drains(1);
        // Re-parent the drained subtree; the draining guard keeps the
        // planned death out of the failure path inside repair().
        let report = self.repair(pos);
        self.draining.lock().remove(&pos);
        report
    }

    /// Repair the overlay after `dead`'s death: bump the overlay epoch,
    /// re-parent the orphaned subtrees onto the nearest live ancestor —
    /// split across the dead node's siblings when fan-out bounds require —
    /// and stamp the new route table so stale traffic is dropped, not
    /// mis-routed.
    ///
    /// Reconfigures are enqueued before rewires, so an orphan's first
    /// new-epoch packet can never outrun its adopter's child-set update
    /// (the comm loop drains its control mailbox whenever it sees a packet
    /// from a newer epoch).
    pub fn repair(&mut self, dead: NodePos) -> TbonResult<RepairReport> {
        if dead.level == 0 {
            return Err(TbonError::UnknownNode(dead));
        }
        self.note_dead(dead);
        let pre_children: HashSet<NodePos> = self.children.iter().map(|c| c.pos).collect();

        let root = NodePos { level: 0, index: 0 };
        let mut rt = self.route.lock();
        let node = rt.nodes.get_mut(&dead).ok_or(TbonError::UnknownNode(dead))?;
        node.alive = false;
        let direct_parent = node.parent.expect("non-root node has a parent");
        let mut orphans = node.children.clone();
        // A child repaired away by an earlier (child-first) repair is no
        // longer routed: it already has a live parent and must not be
        // re-adopted.
        orphans.retain(|o| rt.nodes.contains_key(o));
        orphans.sort_unstable();

        // Nearest live ancestor adopts (walk past chained failures).
        let mut g = direct_parent;
        while rt.nodes.get(&g).map(|n| !n.alive).unwrap_or(true) {
            match rt.nodes.get(&g).and_then(|n| n.parent) {
                Some(p) => g = p,
                None => {
                    g = root;
                    break;
                }
            }
        }

        self.epoch += 1;
        rt.epoch = self.epoch;
        let e = self.epoch;

        // Candidates: the dead node's live siblings under `g` that can
        // parent (internal nodes), then idle hot spares (preferred over
        // inflating a sibling past its designed fan-out), then `g` itself
        // as the fallback.
        let bound_for = |rt: &crate::recovery::RouteInner, p: NodePos| -> usize {
            2 * rt.base_fanout.get(p.level as usize).copied().unwrap_or(0).max(1)
        };
        let mut sibs: Vec<NodePos> = rt.nodes[&g]
            .children
            .iter()
            .copied()
            .filter(|&p| p != dead)
            .filter(|p| rt.nodes.get(p).map(|n| n.alive && n.up.is_some()).unwrap_or(false))
            .collect();
        sibs.sort_unstable();
        let sib_loads: Vec<(NodePos, usize)> =
            sibs.iter().map(|&p| (p, rt.nodes[&p].children.len())).collect();
        let mut spares: Vec<NodePos> = rt
            .spare_pool
            .iter()
            .copied()
            .filter(|p| rt.nodes.get(p).map(|n| n.alive).unwrap_or(false))
            .collect();
        spares.sort_unstable();
        // g's effective load: `dead` is leaving its child list, but only
        // when g actually lists it (g may be a further ancestor reached by
        // walking past a dead direct parent).
        let g_load =
            rt.nodes[&g].children.len() - usize::from(rt.nodes[&g].children.contains(&dead));
        let designed = rt.base_fanout.get(dead.level as usize).copied().unwrap_or(0);
        let candidates =
            adoption_candidates(&sib_loads, &spares, designed, (g, g_load, bound_for(&rt, g)));
        let adoptions = plan_adoption(&orphans, &candidates);

        // Spares the plan consumed: they attach under `g` and become
        // ordinary interior nodes.
        let spare_set: HashSet<NodePos> = spares.iter().copied().collect();
        let mut spares_used: Vec<NodePos> =
            adoptions.iter().map(|(_, a)| *a).filter(|a| spare_set.contains(a)).collect();
        spares_used.sort_unstable();
        spares_used.dedup();

        let mut adopt_by: BTreeMap<NodePos, Vec<ChildLink>> = BTreeMap::new();
        for (o, a) in &adoptions {
            let down = rt.nodes[o].down.clone().expect("non-root orphan has a down link");
            adopt_by.entry(*a).or_default().push(ChildLink { pos: *o, down });
        }
        // `g` adopts every activated spare alongside whatever orphans the
        // plan gave it directly.
        for &s in &spares_used {
            let down = rt.nodes[&s].down.clone().expect("spare has a down link");
            adopt_by.entry(g).or_default().push(ChildLink { pos: s, down });
        }

        // 1. Reconfigure the grandparent and every adopter.
        let mut affected: Vec<NodePos> = adopt_by.keys().copied().collect();
        if !affected.contains(&g) {
            affected.push(g);
        }
        affected.sort_unstable();
        for a in &affected {
            let drop_list = if *a == g { vec![dead] } else { Vec::new() };
            let adopt_list = adopt_by.get(a).cloned().unwrap_or_default();
            if *a == root {
                // The front end is its own control plane: apply in place.
                self.children.retain(|c| !drop_list.contains(&c.pos));
                self.children.extend(adopt_list);
                self.children.sort_by_key(|c| c.pos);
            } else {
                let ctl = rt.nodes[a].ctl.clone().expect("comm node has a ctl mailbox");
                let _ = ctl.send(RecoveryCmd::Reconfigure {
                    epoch: e,
                    drop: drop_list,
                    adopt: adopt_list,
                });
            }
        }

        // 2. Rewire activated spares onto `g`, *then* every orphan onto
        //    its adopter. Spare-first matters: a spare's Rewire must sit in
        //    its control mailbox before any orphan learns the spare's up
        //    channel, so the spare can never complete a wave into its
        //    still-dangling build-time up link (the comm loop drains its
        //    whole mailbox before touching up-traffic).
        let g_up = rt.nodes[&g].up.clone().expect("adopting ancestor can parent");
        for &s in &spares_used {
            if let Some(ctl) = rt.nodes[&s].ctl.clone() {
                let _ = ctl.send(RecoveryCmd::Rewire { epoch: e, parent: g, up: g_up.clone() });
            }
        }
        for (o, a) in &adoptions {
            let up = if *a == root {
                rt.nodes[&root].up.clone().expect("root has an up channel")
            } else {
                rt.nodes[a].up.clone().expect("adopter can parent")
            };
            if let Some(ctl) = rt.nodes[o].ctl.clone() {
                let _ = ctl.send(RecoveryCmd::Rewire { epoch: e, parent: *a, up });
            }
        }

        // 3. Route bookkeeping: move the orphans, activate the spares,
        //    drop the dead node (its last link handles die with the entry).
        for &s in &spares_used {
            if let Some(n) = rt.nodes.get_mut(&s) {
                n.parent = Some(g);
            }
            if let Some(n) = rt.nodes.get_mut(&g) {
                n.children.push(s);
                n.children.sort_unstable();
            }
            rt.spare_pool.retain(|p| *p != s);
        }
        for (o, a) in &adoptions {
            if let Some(n) = rt.nodes.get_mut(o) {
                n.parent = Some(*a);
            }
            if let Some(n) = rt.nodes.get_mut(a) {
                n.children.push(*o);
                n.children.sort_unstable();
            }
        }
        // Unlink the dead node from its *direct* parent too (which may be
        // a dead-but-unrepaired ancestor, not `g`): a later repair of that
        // ancestor must not see the pruned node as an orphan.
        for p in [g, direct_parent] {
            if let Some(n) = rt.nodes.get_mut(&p) {
                n.children.retain(|c| *c != dead);
            }
        }
        rt.nodes.remove(&dead);
        drop(rt);

        // 4. Partial waves gathered under the old epoch are stale: count
        //    and drop them rather than let a shrunken child set "complete"
        //    a partial aggregate. Waves every pre-repair child had already
        //    contributed to are *complete* data — a drain's flush, or a
        //    fully-delivered wave the caller had not gathered yet — and are
        //    preserved for the next gather instead of thrown away.
        let mut stale_packets = 0u64;
        let mut stale_waves = 0u64;
        for (key, wave) in std::mem::take(&mut self.pending) {
            let complete =
                wave.len() == pre_children.len() && wave.keys().all(|k| pre_children.contains(k));
            if complete {
                self.flushed.insert(key, wave);
            } else {
                stale_packets += wave.len() as u64;
                stale_waves += 1;
            }
        }
        if stale_packets > 0 {
            self.stats.add_stale_packets(stale_packets);
            self.stats.add_stale_waves(stale_waves);
        }
        self.dead_pending.retain(|p| *p != dead);
        // Heartbeat attributions from superseded epochs can never be
        // re-reported (the dedupe key includes the epoch): prune them.
        self.reported_missing.retain(|(_, ep)| *ep == e);

        for (o, a) in &adoptions {
            self.events.push(RecoveryEvent::Adopted { orphan: *o, adopter: *a, epoch: e });
        }
        self.events.push(RecoveryEvent::Healed { repaired: dead, epoch: e });
        self.stats.add_repairs(1);
        self.stats.add_adopted(adoptions.len() as u64);
        self.stats.add_spares_activated(spares_used.len() as u64);
        Ok(RepairReport { dead, epoch: e, adoptions, grandparent: g, spares_used })
    }

    /// Detect-and-repair in one call: drain failure notices, repair every
    /// known-dead node, and return the repair reports.
    pub fn heal_failures(&mut self) -> TbonResult<Vec<RepairReport>> {
        let dead = self.poll_failures();
        let mut reports = Vec::with_capacity(dead.len());
        for d in dead {
            // A repair can prune nodes another report named; skip those.
            if self.route.lock().nodes.contains_key(&d) {
                reports.push(self.repair(d)?);
            }
        }
        Ok(reports)
    }

    /// [`Maintenance::start_suspicion`].
    fn start_suspicion(&mut self, params: PhiAccrualParams) -> Arc<SuspicionTable> {
        let (beat_tx, beat_rx) = unbounded();
        {
            let rt = self.route.lock();
            for (pos, n) in rt.nodes.iter() {
                if pos.level != 0 && n.up.is_some() {
                    if let Some(ctl) = n.ctl.clone() {
                        let _ = ctl.send(RecoveryCmd::StartBeats {
                            beat: beat_tx.clone(),
                            interval: params.beat_interval,
                        });
                    }
                }
            }
        }
        // Only the enrolled daemons hold senders now: when the last one
        // exits at teardown, the channel disconnect stops the monitor.
        drop(beat_tx);
        let handle = spawn_monitor(
            beat_rx,
            params,
            self.route.clone(),
            self.stats.clone(),
            self.draining.clone(),
        );
        let table = handle.table();
        self.suspicion = Some(handle);
        table
    }

    /// [`Maintenance::upgrade`].
    fn upgrade_comm(&mut self, pos: NodePos, timeout: Duration) -> TbonResult<UpgradeStep> {
        let start = Instant::now();
        let report = match self.drain_comm(pos, timeout) {
            Ok(r) => r,
            Err(e) => {
                self.stats.add_upgrades_failed(1);
                return Err(e);
            }
        };
        let drain = start.elapsed();
        // Post-heal verification: the broadcast ping must reach every
        // re-parented node — adopted orphans and activated spares alike —
        // and come back.
        let missing = self.heartbeat(timeout);
        if !missing.is_empty() {
            self.stats.add_upgrades_failed(1);
            return Err(TbonError::LaunchFailed(format!(
                "post-upgrade verification after replacing {pos:?}: {} unresponsive: {missing:?}",
                missing.len()
            )));
        }
        self.stats.add_upgrades(1);
        Ok(UpgradeStep {
            pos,
            drain,
            total: start.elapsed(),
            spare_used: report.spares_used.first().copied(),
            epoch: report.epoch,
        })
    }

    /// [`Maintenance::rolling_upgrade`].
    fn rolling_upgrade(&mut self, per_node_timeout: Duration) -> TbonResult<UpgradeReport> {
        let mut walk: Vec<NodePos> = {
            let rt = self.route.lock();
            rt.nodes
                .iter()
                .filter(|(p, n)| p.level != 0 && n.alive && n.up.is_some())
                .map(|(p, _)| *p)
                .filter(|p| !rt.spare_pool.contains(p))
                .collect()
        };
        walk.sort_by_key(|p| (std::cmp::Reverse(p.level), p.index));
        let mut report = UpgradeReport::default();
        for pos in walk {
            let repaired = self.heal_failures()?;
            report.unplanned_repairs += repaired.len();
            if !self.route.is_alive(pos) {
                continue;
            }
            report.steps.push(self.upgrade_comm(pos, per_node_timeout)?);
        }
        let repaired = self.heal_failures()?;
        report.unplanned_repairs += repaired.len();
        report.epoch = self.epoch;
        Ok(report)
    }

    /// Gather one aggregated packet for `(stream, tag)`: waits for every
    /// direct child's contribution and applies the stream filter once more.
    ///
    /// A wave that completed just before a repair (and was preserved by
    /// it) is served first — data a drain flushed is never lost to the
    /// epoch bump that followed it.
    pub fn gather(&mut self, stream: u16, tag: u16, timeout: Duration) -> TbonResult<Packet> {
        let filter = self.streams.get(&stream).cloned().ok_or(TbonError::NoSuchStream(stream))?;
        if let Some(by_pos) = self.flushed.remove(&(stream, tag)) {
            let inputs: Vec<Vec<u8>> = by_pos.into_values().map(|p| p.payload.to_vec()).collect();
            let payload = self.registry.apply(&filter, inputs);
            return Ok(Packet::new(stream, tag, payload));
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let want = self.children.len();
            if self.pending.get(&(stream, tag)).map(|m| m.len() == want).unwrap_or(want == 0) {
                break;
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(TbonError::Timeout);
            }
            let up = self.up_rx.recv_timeout(remaining).map_err(|_| TbonError::Timeout)?;
            self.process_up(up);
        }
        let by_pos = self.pending.remove(&(stream, tag)).unwrap_or_default();
        let inputs: Vec<Vec<u8>> = by_pos.into_values().map(|p| p.payload.to_vec()).collect();
        let payload = self.registry.apply(&filter, inputs);
        Ok(Packet::new(stream, tag, payload))
    }

    /// Wait until every leaf's hello arrived; returns the leaf indices.
    pub fn await_connections(&mut self, leaves: u32, timeout: Duration) -> TbonResult<Vec<u32>> {
        let pkt = self.gather(CONNECT_STREAM, 0, timeout)?;
        let mut ids: Vec<u32> = pkt
            .payload
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        ids.sort_unstable();
        if ids.len() != leaves as usize {
            return Err(TbonError::LaunchFailed(format!(
                "expected {leaves} leaf hellos, got {}",
                ids.len()
            )));
        }
        Ok(ids)
    }

    /// Tear the overlay down: shutdown flows down the tree *and* out of
    /// band over every control mailbox, so orphans whose tree path died
    /// with their parent still exit promptly.
    pub fn shutdown(&self) {
        for c in &self.children {
            let _ = c.down.send(Down::Ctl(Control::Shutdown));
        }
        for ctl in self.route.all_ctl_senders() {
            let _ = ctl.send(RecoveryCmd::Shutdown);
        }
    }
}

impl Drop for FrontEndpoint {
    /// Dropping the front end tears the overlay down. The shared
    /// [`RouteTable`] keeps every link's sender alive (daemons hold it for
    /// the repair plane), so the pre-recovery "drop cascades channel
    /// disconnects" teardown no longer happens implicitly — this restores
    /// it: no error path or panic-unwind in an embedder can strand daemon
    /// threads in their waker waits. `shutdown` is idempotent, so an
    /// explicit call before the drop is fine.
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The planned-maintenance handle (DESIGN.md §12), obtained from
/// [`FrontEndpoint::maintenance`]: drains, upgrades, and background
/// suspicion live here, leaving `FrontEndpoint` itself to the data and
/// failure planes. The handle borrows the front end mutably, so a
/// maintenance walk can never interleave with another maintenance call on
/// the same overlay.
pub struct Maintenance<'a> {
    fe: &'a mut FrontEndpoint,
}

impl Maintenance<'_> {
    /// Planned, loss-free removal of the comm daemon at `pos` (DESIGN.md
    /// §12): the daemon stops as soon as every in-flight wave it holds has
    /// flushed upward, closes its links, confirms with a `Drained` notice,
    /// and only then is its subtree re-parented through the normal repair
    /// machinery — under a draining guard, so the teardown never enters
    /// the failure ledger (no `Degraded` event, no death count, no
    /// suspicion) and is visible as `drains_completed` instead.
    ///
    /// Wave aggregates the drain flushes are preserved across the repair:
    /// a wave every pre-repair child had contributed to stays gatherable.
    /// Broadcasts whose replies are still spread across *other* daemons
    /// follow the usual PR 5 stale-epoch rule, so callers wanting strict
    /// zero-loss gather outstanding waves before draining (the rolling
    /// upgrade does).
    ///
    /// Returns the repair report once the subtree is whole again; on
    /// timeout the node keeps running (the drain guard is rolled back) and
    /// the caller may fall back to [`FrontEndpoint::crash_comm`].
    pub fn drain(&mut self, pos: NodePos, timeout: Duration) -> TbonResult<RepairReport> {
        self.fe.drain_comm(pos, timeout)
    }

    /// Replace one comm daemon: drain it (loss-free), let the repair
    /// re-attach its subtree (preferring an idle hot spare), then verify
    /// the healed overlay with a full heartbeat sweep. Counted in
    /// `upgrades_completed` / `upgrades_failed`.
    pub fn upgrade(&mut self, pos: NodePos, timeout: Duration) -> TbonResult<UpgradeStep> {
        self.fe.upgrade_comm(pos, timeout)
    }

    /// Rolling upgrade: walk every interior comm daemon — deepest level
    /// first, then index order, snapshot taken up front so replacement
    /// daemons are not themselves walked — and run
    /// [`Maintenance::upgrade`] on each. Between steps the walk
    /// pauses to heal *unplanned* failures (a crash or suspicion death
    /// that raced the upgrade); a walked node that was repaired away in
    /// the meantime is skipped.
    pub fn rolling_upgrade(&mut self, per_node_timeout: Duration) -> TbonResult<UpgradeReport> {
        self.fe.rolling_upgrade(per_node_timeout)
    }

    /// Start background phi-accrual failure suspicion (DESIGN.md §12):
    /// every interior comm daemon — idle spares included — is enrolled to
    /// beat over a dedicated channel (never the tree, so liveness traffic
    /// cannot perturb wave aggregation or fault counters), and a monitor
    /// thread grades each node Alive → Suspect → Dead from its
    /// inter-arrival history. A suspicion death lands in the shared route
    /// table, exactly where [`FrontEndpoint::poll_failures`] and
    /// [`FrontEndpoint::heal_failures`] already look — silent halts feed
    /// the normal repair path with no caller-driven sweep.
    ///
    /// Returns the live suspicion table (the `/metrics` per-child gauge
    /// source). The monitor stops when the front end is dropped.
    pub fn start_suspicion(&mut self, params: PhiAccrualParams) -> Arc<SuspicionTable> {
        self.fe.start_suspicion(params)
    }
}

/// One completed step of a rolling upgrade (see
/// [`Maintenance::rolling_upgrade`]).
#[derive(Debug, Clone)]
pub struct UpgradeStep {
    /// The interior comm daemon replaced in this step.
    pub pos: NodePos,
    /// Drain latency: request → `Drained` confirmation → subtree repaired.
    pub drain: Duration,
    /// Total step latency, post-heal verification sweep included.
    pub total: Duration,
    /// The hot spare that took over, when the pool had one idle (`None`
    /// means siblings absorbed the subtree).
    pub spare_used: Option<NodePos>,
    /// The epoch the overlay settled on after this step.
    pub epoch: u64,
}

/// What one [`Maintenance::rolling_upgrade`] walk did.
#[derive(Debug, Clone, Default)]
pub struct UpgradeReport {
    /// Completed steps, in walk order (deepest level first).
    pub steps: Vec<UpgradeStep>,
    /// Unplanned failures healed while the walk was paused between steps.
    pub unplanned_repairs: usize,
    /// The final overlay epoch.
    pub epoch: u64,
}

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
        let mut down_tx: HashMap<NodePos, Sender<Down>> = HashMap::new();
        let mut down_rx: HashMap<NodePos, Receiver<Down>> = HashMap::new();
        let mut ctl_tx: HashMap<NodePos, Sender<RecoveryCmd>> = HashMap::new();
        let mut ctl_rx: HashMap<NodePos, Receiver<RecoveryCmd>> = HashMap::new();
        let mut up_pair: HashMap<NodePos, (Sender<Up>, Receiver<Up>)> = HashMap::new();

        let root = NodePos { level: 0, index: 0 };
        let mut all_parents = vec![root];
        all_parents.extend(spec.comm_positions());
        all_parents.extend(spare_positions.iter().copied());
        for p in &all_parents {
            up_pair.insert(*p, unbounded());
        }
        let mut non_roots = spec.comm_positions();
        non_roots.extend(spare_positions.iter().copied());
        non_roots.extend(spec.leaf_positions());
        for n in &non_roots {
            let (dtx, drx) = unbounded();
            down_tx.insert(*n, dtx);
            down_rx.insert(*n, drx);
            let (ctx, crx) = unbounded();
            ctl_tx.insert(*n, ctx);
            ctl_rx.insert(*n, crx);
        }

        // Register the repair-plane handles in the route table.
        {
            let mut rt = route.lock();
            for (pos, node) in rt.nodes.iter_mut() {
                node.down = down_tx.get(pos).cloned();
                node.ctl = ctl_tx.get(pos).cloned();
                node.up = up_pair.get(pos).map(|(tx, _)| tx.clone());
            }
        }

        let links_of = |pos: NodePos| -> Vec<ChildLink> {
            spec.children(pos)
                .into_iter()
                .map(|c| ChildLink { pos: c, down: down_tx[&c].clone() })
                .collect()
        };

        let mut streams = HashMap::new();
        streams.insert(CONNECT_STREAM, FilterKind::Concat);

        let front = FrontEndpoint {
            children: links_of(root),
            up_rx: up_pair[&root].1.clone(),
            registry: registry.clone(),
            streams,
            next_stream: FIRST_USER_STREAM,
            epoch: 0,
            pending: HashMap::new(),
            route: route.clone(),
            stats: stats.clone(),
            events: Vec::new(),
            dead_pending: Vec::new(),
            ping_seq: 0,
            pongs: HashSet::new(),
            flushed: HashMap::new(),
            draining: Arc::new(Mutex::new(HashSet::new())),
            drained_pending: HashSet::new(),
            reported_missing: HashSet::new(),
            suspicion: None,
        };

        let mut comm: Vec<CommHarness> = spec
            .comm_positions()
            .into_iter()
            .map(|pos| {
                let parent = spec.parent(pos).expect("comm node has parent");
                CommHarness {
                    pos,
                    down_rx: down_rx[&pos].clone(),
                    ctl_rx: ctl_rx[&pos].clone(),
                    up_rx: up_pair[&pos].1.clone(),
                    up_tx: up_pair[&parent].0.clone(),
                    children: links_of(pos),
                    route: route.clone(),
                    stats: stats.clone(),
                }
            })
            .collect();
        // Spare harnesses ride after the regular comms (fault-plan indices
        // in the chaos suite stay stable): parentless, childless, and with
        // a deliberately dangling up link until a repair rewires them —
        // an idle spare has nothing to forward and nobody to forward to.
        for &pos in &spare_positions {
            let (dangling_up, _) = unbounded();
            comm.push(CommHarness {
                pos,
                down_rx: down_rx[&pos].clone(),
                ctl_rx: ctl_rx[&pos].clone(),
                up_rx: up_pair[&pos].1.clone(),
                up_tx: dangling_up,
                children: Vec::new(),
                route: route.clone(),
                stats: stats.clone(),
            });
        }

        let leaves = spec
            .leaf_positions()
            .into_iter()
            .map(|pos| {
                let parent = spec.parent(pos).expect("leaf has parent");
                let waker = SelectWaker::new();
                let drx = down_rx[&pos].clone();
                let crx = ctl_rx[&pos].clone();
                drx.watch(&waker);
                crx.watch(&waker);
                LeafEndpoint {
                    leaf_index: pos.index,
                    pos,
                    down_rx: drx,
                    ctl_rx: crx,
                    waker,
                    state: Mutex::new(LeafLink {
                        up_tx: up_pair[&parent].0.clone(),
                        parent,
                        epoch: 0,
                        parent_lost: false,
                    }),
                }
            })
            .collect();

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
            let (registry, fault) = (front.registry.clone(), comm_fault(i));
            std::thread::spawn(move || run_comm_node_with_faults(harness, registry, fault))
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

/// What a comm-loop sweep decided to do next.
enum Exit {
    /// Run the deterministic crash path and return.
    Crash,
    /// Exit silently — no FIN, no notice, no death mark (`kill -9`).
    Silent,
    /// Planned drain finished flushing: close links and confirm `Drained`.
    Drained,
    /// Forward shutdown to the subtree and return.
    Shutdown,
    /// A link disconnected: the overlay is being dropped.
    Torn,
}

/// The running state of one communication daemon.
struct CommNode {
    pos: NodePos,
    up_tx: Sender<Up>,
    children: Vec<ChildLink>,
    severed: HashSet<NodePos>,
    epoch: u64,
    streams: HashMap<u16, FilterKind>,
    waves: HashMap<WaveKey, BTreeMap<NodePos, Packet>>,
    registry: FilterRegistry,
    route: Arc<RouteTable>,
    stats: Arc<OverlayStats>,
    /// A planned drain is underway: exit as soon as `waves` is empty.
    draining: bool,
    /// Suspicion enrollment: beat channel + nominal interval.
    beat: Option<(Sender<NodePos>, Duration)>,
    /// When the next beat is due (meaningful only while enrolled).
    next_beat: Instant,
}

impl CommNode {
    /// Children currently expected to contribute to a wave.
    fn want(&self) -> usize {
        self.children.iter().filter(|c| !self.severed.contains(&c.pos)).count()
    }

    /// Forward a down-message to every reachable (non-severed) child.
    fn forward_down(&self, msg: &Down) {
        for c in &self.children {
            if !self.severed.contains(&c.pos) {
                let _ = c.down.send(msg.clone());
            }
        }
    }

    /// Advance to `epoch`, discarding (and counting) waves stranded in
    /// older epochs, then completing any buffered waves that were waiting
    /// for this epoch to become current.
    fn advance_epoch(&mut self, epoch: u64) {
        if epoch <= self.epoch {
            return;
        }
        let stale: Vec<WaveKey> =
            self.waves.keys().copied().filter(|(e, _, _)| *e < epoch).collect();
        for key in stale {
            if let Some(wave) = self.waves.remove(&key) {
                self.stats.add_stale_packets(wave.len() as u64);
                self.stats.add_stale_waves(1);
            }
        }
        self.epoch = epoch;
        let now_current: Vec<WaveKey> =
            self.waves.keys().copied().filter(|(e, _, _)| *e == epoch).collect();
        for key in now_current {
            self.try_complete(key);
        }
    }

    /// Apply one control-mailbox command; `Some(exit)` ends the loop.
    fn apply_cmd(&mut self, cmd: RecoveryCmd) -> Option<Exit> {
        match cmd {
            RecoveryCmd::Reconfigure { epoch, drop, adopt } => {
                self.children.retain(|c| !drop.contains(&c.pos));
                self.children.extend(adopt);
                self.children.sort_by_key(|c| c.pos);
                self.advance_epoch(epoch);
                None
            }
            RecoveryCmd::Rewire { epoch, parent: _, up } => {
                self.up_tx = up;
                self.advance_epoch(epoch);
                None
            }
            RecoveryCmd::Crash => Some(Exit::Crash),
            RecoveryCmd::Halt => Some(Exit::Silent),
            RecoveryCmd::Drain => {
                // Not an exit yet: the loop keeps sweeping until every
                // in-flight wave has flushed, then exits `Drained`.
                self.draining = true;
                None
            }
            RecoveryCmd::StartBeats { beat, interval } => {
                // Beat immediately (the monitor seeds the node's history
                // from the first arrival) and schedule the next.
                let _ = beat.send(self.pos);
                self.next_beat = Instant::now() + interval;
                self.beat = Some((beat, interval));
                None
            }
            RecoveryCmd::Shutdown => Some(Exit::Shutdown),
        }
    }

    /// Drain the control mailbox in place. Called whenever a packet from a
    /// newer epoch arrives: the repair that bumped the epoch enqueued our
    /// reconfigure *before* that packet could have been sent, so draining
    /// here guarantees child-set updates are applied before any new-epoch
    /// wave is completed.
    fn apply_ctl_backlog(&mut self, ctl_rx: &Receiver<RecoveryCmd>) -> Option<Exit> {
        while let Ok(cmd) = ctl_rx.try_recv() {
            if let Some(exit) = self.apply_cmd(cmd) {
                return Some(exit);
            }
        }
        None
    }

    /// Complete the wave under `key` if its epoch is current and every
    /// expected child contributed: aggregate with the stream filter and
    /// forward one packet up.
    fn try_complete(&mut self, key: WaveKey) {
        let want = self.want();
        let ready = key.0 == self.epoch
            && want > 0
            && self.waves.get(&key).map(|w| w.len() == want).unwrap_or(false);
        if !ready {
            return;
        }
        let wave = self.waves.remove(&key).expect("checked above");
        let inputs: Vec<Vec<u8>> = wave.into_values().map(|p| p.payload.to_vec()).collect();
        let filter = self.streams.get(&key.1).cloned().unwrap_or(FilterKind::Concat);
        let payload = self.registry.apply(&filter, inputs);
        let sent = self.up_tx.send(Up {
            from: self.pos,
            epoch: self.epoch,
            kind: UpKind::Packet(Packet::new(key.1, key.2, payload)),
        });
        // A failed send means the parent died mid-forward: the aggregate is
        // in-flight loss (stale after the heal); keep serving the subtree
        // and wait for adoption rather than die.
        let _ = sent;
    }

    /// The deterministic crash path (the satellite fix): close every link
    /// explicitly — `LinkDown` FIN to each reachable child, a `ChildGone`
    /// notice to the parent, a death mark in the route table — so
    /// detection latency never depends on scheduler timing.
    fn crash(&mut self) {
        for c in &self.children {
            if !self.severed.contains(&c.pos) {
                let _ = c.down.send(Down::Ctl(Control::LinkDown));
                self.stats.add_link_down(1);
            }
        }
        let _ = self.up_tx.send(Up {
            from: self.pos,
            epoch: self.epoch,
            kind: UpKind::ChildGone { pos: self.pos },
        });
        self.route.mark_dead(self.pos);
    }

    /// Forward shutdown to every child (severed ones included: teardown
    /// must reach the whole subtree even across injected cuts).
    fn forward_shutdown(&self) {
        for c in &self.children {
            let _ = c.down.send(Down::Ctl(Control::Shutdown));
        }
    }

    /// The planned-teardown close path: like [`CommNode::crash`] it FINs
    /// every reachable child (they mark the parent lost and await
    /// adoption), but it confirms with a `Drained` notice instead of
    /// `ChildGone` and leaves no death mark — the front end repairs the
    /// route under its draining guard, outside the failure ledger.
    fn drained(&mut self) {
        for c in &self.children {
            if !self.severed.contains(&c.pos) {
                let _ = c.down.send(Down::Ctl(Control::LinkDown));
                self.stats.add_link_down(1);
            }
        }
        let _ = self.up_tx.send(Up {
            from: self.pos,
            epoch: self.epoch,
            kind: UpKind::Drained { pos: self.pos },
        });
    }
}

/// Run a communication daemon until shutdown — forward downstream traffic,
/// aggregate upstream waves with the stream filter — under a [`CommFault`]
/// schedule ([`CommFault::none`] for a healthy daemon); a "crash" runs
/// the deterministic close path (`LinkDown` to children, `ChildGone` to the
/// parent, route-table death mark) and returns without forwarding shutdown,
/// exactly like a daemon dying mid-protocol whose sockets the kernel then
/// closes.
///
/// The loop is readiness-driven: one [`SelectWaker`] watches all three
/// links (control mailbox, downstream, upstream) and the daemon drains
/// whatever is ready in batches, then blocks on the waker condvar until the
/// next event. The control mailbox is always drained first — and re-drained
/// whenever a packet from a newer epoch arrives — so re-parenting commands
/// are applied before any traffic they ordered.
pub fn run_comm_node_with_faults(harness: CommHarness, registry: FilterRegistry, fault: CommFault) {
    let CommHarness { pos, down_rx, ctl_rx, up_rx, up_tx, children, route, stats } = harness;
    let mut streams = HashMap::new();
    streams.insert(CONNECT_STREAM, FilterKind::Concat);
    let mut node = CommNode {
        pos,
        up_tx,
        children,
        severed: HashSet::new(),
        epoch: 0,
        streams,
        waves: HashMap::new(),
        registry,
        route,
        stats,
        draining: false,
        beat: None,
        next_beat: Instant::now(),
    };

    // Deterministic sever close (the satellite fix): a severed child gets a
    // `LinkDown` notice at daemon start instead of a silently half-open
    // link, so detection latency in tests is seed-stable. Out-of-range
    // slots name no child and stay inert.
    for &slot in &fault.sever_child_slots {
        if let Some(link) = node.children.get(slot) {
            let _ = link.down.send(Down::Ctl(Control::LinkDown));
            node.stats.add_link_down(1);
            let cut = link.pos;
            node.severed.insert(cut);
        }
    }

    let mut up_seen = 0u64;
    let mut down_seen = 0u64;
    let mut ctl_batch: Vec<RecoveryCmd> = Vec::new();
    let mut down_batch: Vec<Down> = Vec::new();
    let mut up_batch: Vec<Up> = Vec::new();

    let waker = SelectWaker::new();
    ctl_rx.watch(&waker);
    down_rx.watch(&waker);
    up_rx.watch(&waker);

    let exit = 'outer: loop {
        // Epoch is read before the drain sweep: anything arriving during or
        // after the sweep advances it, so the wait below cannot miss it.
        let wepoch = waker.epoch();
        let mut torn = false;

        // 1. Control mailbox: repairs and out-of-band shutdown first.
        loop {
            match ctl_rx.try_drain(&mut ctl_batch, usize::MAX) {
                Ok(0) => break,
                Ok(_) => {}
                Err(TryRecvError::Disconnected) => {
                    torn = true;
                    break;
                }
                Err(TryRecvError::Empty) => break,
            }
            for cmd in ctl_batch.drain(..) {
                if let Some(exit) = node.apply_cmd(cmd) {
                    break 'outer exit;
                }
            }
        }

        // 2. Downstream: forward control and data to reachable children.
        loop {
            match down_rx.try_drain(&mut down_batch, usize::MAX) {
                Ok(0) => break,
                Ok(_) => {}
                Err(TryRecvError::Disconnected) => {
                    torn = true;
                    break;
                }
                Err(TryRecvError::Empty) => break,
            }
            for msg in down_batch.drain(..) {
                down_seen += 1;
                if fault.crash_after_down.is_some_and(|n| down_seen > n) {
                    break 'outer Exit::Crash;
                }
                match msg {
                    Down::Ctl(Control::OpenStream { stream, filter }) => {
                        node.streams.insert(stream, filter.clone());
                        node.forward_down(&Down::Ctl(Control::OpenStream { stream, filter }));
                    }
                    Down::Ctl(Control::Shutdown) => break 'outer Exit::Shutdown,
                    Down::Ctl(Control::Ping { seq }) => {
                        let _ = node.up_tx.send(Up {
                            from: node.pos,
                            epoch: node.epoch,
                            kind: UpKind::Pong { pos: node.pos, seq },
                        });
                        node.forward_down(&Down::Ctl(Control::Ping { seq }));
                    }
                    Down::Ctl(Control::LinkDown) => {
                        // The parent's FIN. Informational for a comm node:
                        // it keeps serving its subtree and the re-parenting
                        // rewire arrives over the ctl mailbox.
                    }
                    Down::Data { epoch, pkt } => {
                        if epoch > node.epoch {
                            // The repair that minted this epoch enqueued
                            // our reconfigure before this packet: apply it
                            // before forwarding.
                            if let Some(exit) = node.apply_ctl_backlog(&ctl_rx) {
                                break 'outer exit;
                            }
                            node.advance_epoch(epoch);
                        }
                        node.forward_down(&Down::Data { epoch, pkt });
                    }
                }
            }
        }

        // 3. Upstream: collect waves, aggregate completed ones.
        loop {
            match up_rx.try_drain(&mut up_batch, usize::MAX) {
                Ok(0) => break,
                Ok(_) => {}
                Err(TryRecvError::Disconnected) => {
                    torn = true;
                    break;
                }
                Err(TryRecvError::Empty) => break,
            }
            for up in up_batch.drain(..) {
                // Only data packets advance the crash counter: liveness
                // traffic (pongs, child-gone notices) is timing-dependent,
                // and counting it would make the documented "crash after N
                // up-packets" point seed-unstable whenever heartbeats run.
                if matches!(up.kind, UpKind::Packet(_)) {
                    up_seen += 1;
                    if fault.crash_after_up.is_some_and(|n| up_seen > n) {
                        break 'outer Exit::Crash;
                    }
                }
                if node.severed.contains(&up.from) {
                    node.stats.add_severed_discarded(1);
                    continue;
                }
                match up.kind {
                    UpKind::Pong { .. } | UpKind::ChildGone { .. } | UpKind::Drained { .. } => {
                        // Liveness traffic is epoch-free: forward as-is.
                        let _ = node.up_tx.send(Up {
                            from: node.pos,
                            epoch: node.epoch,
                            kind: up.kind,
                        });
                    }
                    UpKind::Packet(pkt) => {
                        if up.epoch > node.epoch {
                            // An adopted orphan can only be ahead of us if
                            // a repair reconfigured us first: apply it.
                            if let Some(exit) = node.apply_ctl_backlog(&ctl_rx) {
                                break 'outer exit;
                            }
                        }
                        if up.epoch < node.epoch || !node.children.iter().any(|c| c.pos == up.from)
                        {
                            node.stats.add_stale_packets(1);
                            continue;
                        }
                        let key = (up.epoch, pkt.stream, pkt.tag);
                        node.waves.entry(key).or_default().insert(up.from, pkt);
                        // Waves buffered under a still-future epoch wait
                        // for advance_epoch to complete them.
                        node.try_complete(key);
                    }
                }
            }
        }

        // A planned drain is done the moment no wave is mid-flight: every
        // contribution this daemon was holding has been aggregated and
        // forwarded (new waves cannot start — the front end is blocked in
        // `drain_comm` and sends nothing down).
        if node.draining && node.waves.is_empty() {
            break Exit::Drained;
        }

        // A disconnected link means the overlay itself is being dropped.
        if torn {
            break Exit::Torn;
        }

        // Suspicion beat, when enrolled and due.
        if let Some((beat, interval)) = &node.beat {
            let now = Instant::now();
            if now >= node.next_beat {
                let _ = beat.send(node.pos);
                node.next_beat = now + *interval;
            }
        }

        // Idle: block until any link signals readiness — capped at the
        // next beat deadline while enrolled in suspicion, so silence on
        // every link cannot silence the daemon itself.
        match &node.beat {
            Some(_) => {
                let until = node.next_beat.saturating_duration_since(Instant::now());
                waker.wait_timeout(wepoch, until.max(Duration::from_millis(1)));
            }
            None => waker.wait(wepoch),
        }
    };

    match exit {
        Exit::Crash => node.crash(),
        Exit::Silent => {}
        Exit::Drained => node.drained(),
        Exit::Shutdown => node.forward_shutdown(),
        Exit::Torn => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build `spec` and run it in thread mode with `leaf_fn` on every leaf.
    fn run_overlay(
        spec: &str,
        registry: FilterRegistry,
        leaf_fn: impl Fn(LeafEndpoint) + Send + Sync + 'static,
    ) -> RunningOverlay {
        run_overlay_with_faults(spec, registry, Vec::new(), leaf_fn)
    }

    /// Like [`run_overlay`] but with per-comm-daemon fault schedules
    /// (indexed by position in `Overlay::comm`).
    fn run_overlay_with_faults(
        spec: &str,
        registry: FilterRegistry,
        faults: Vec<(usize, CommFault)>,
        leaf_fn: impl Fn(LeafEndpoint) + Send + Sync + 'static,
    ) -> RunningOverlay {
        let spec = TopologySpec::parse(spec).unwrap();
        Overlay::build(&spec, registry).run(|i| CommFault::at(&faults, i), leaf_fn)
    }

    /// One echo wave on (stream, tag) must be answered by exactly leaves
    /// `0..leaves`.
    fn assert_echo_wave(front: &mut FrontEndpoint, stream: u16, tag: u16, leaves: u8, why: &str) {
        front.broadcast(stream, tag, vec![]).unwrap();
        let mut got = front.gather(stream, tag, Duration::from_secs(5)).unwrap().payload.to_vec();
        got.sort_unstable();
        assert_eq!(got, (0..leaves).collect::<Vec<u8>>(), "{why}");
    }

    fn pos(level: u32, index: u32) -> NodePos {
        NodePos { level, index }
    }

    #[test]
    fn hellos_flow_up_one_deep() {
        let mut net = run_overlay("1x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
        let ids = net.front.await_connections(8, Duration::from_secs(5)).unwrap();
        assert_eq!(ids, (0..8).collect::<Vec<u32>>());
        net.shutdown().unwrap();
    }

    #[test]
    fn hellos_aggregate_through_comm_level() {
        let mut net = run_overlay("1x4x16", FilterRegistry::new(), LeafEndpoint::serve_echo);
        assert_eq!(net.front.fanout(), 4, "front sees only its comm children");
        let ids = net.front.await_connections(16, Duration::from_secs(5)).unwrap();
        assert_eq!(ids.len(), 16);
        net.shutdown().unwrap();
    }

    #[test]
    fn broadcast_reaches_all_leaves_and_sum_aggregates() {
        // Every leaf answers the work packet with leaf_index+1.
        let mut net = run_overlay("1x2x6", FilterRegistry::new(), |leaf| {
            leaf.serve(|| |_: &Packet| (leaf.leaf_index as u64 + 1).to_be_bytes().to_vec())
        });
        let stream = net.front.open_stream(FilterKind::SumU64).unwrap();
        net.front.broadcast(stream, 7, b"work".to_vec()).unwrap();
        let result = net.front.gather(stream, 7, Duration::from_secs(5)).unwrap();
        // sum of 1..=6 = 21
        assert_eq!(result.payload, 21u64.to_be_bytes());
        net.shutdown().unwrap();
    }

    #[test]
    fn concat_collects_leaf_payloads_in_order() {
        let mut net = run_overlay("1x3", FilterRegistry::new(), LeafEndpoint::serve_echo);
        let stream = net.front.open_stream(FilterKind::Concat).unwrap();
        net.front.broadcast(stream, 0, vec![]).unwrap();
        let result = net.front.gather(stream, 0, Duration::from_secs(5)).unwrap();
        assert_eq!(result.payload, vec![0, 1, 2]);
        net.shutdown().unwrap();
    }

    #[test]
    fn custom_filter_applies_at_every_level() {
        // Count contributions: each internal node emits [sum of child
        // counts]; leaves emit [1]. With 1x2x4, the root should see 4.
        let mut registry = FilterRegistry::new();
        registry.register(
            1,
            Arc::new(|inputs| {
                let total: u64 = inputs
                    .iter()
                    .map(|i| {
                        let mut buf = [0u8; 8];
                        buf[8 - i.len().min(8)..].copy_from_slice(&i[..i.len().min(8)]);
                        u64::from_be_bytes(buf)
                    })
                    .sum();
                total.to_be_bytes().to_vec()
            }),
        );
        let mut net = run_overlay("1x2x4", registry, |leaf| {
            leaf.serve(|| |_: &Packet| 1u64.to_be_bytes().to_vec())
        });
        let stream = net.front.open_stream(FilterKind::Custom(1)).unwrap();
        net.front.broadcast(stream, 0, vec![]).unwrap();
        let result = net.front.gather(stream, 0, Duration::from_secs(5)).unwrap();
        assert_eq!(result.payload, 4u64.to_be_bytes());
        net.shutdown().unwrap();
    }

    #[test]
    fn multiple_waves_interleave_by_tag() {
        let mut net = run_overlay("1x4", FilterRegistry::new(), |leaf| {
            // Answer two waves, deliberately answering wave 2 first for
            // even leaves to exercise wave bookkeeping.
            let mut packets = Vec::new();
            loop {
                match leaf.recv().unwrap() {
                    LeafEvent::Data(pkt) => {
                        packets.push(pkt);
                        if packets.len() == 2 {
                            break;
                        }
                    }
                    LeafEvent::Shutdown => return,
                    LeafEvent::StreamOpened(_) => continue,
                }
            }
            if leaf.leaf_index % 2 == 0 {
                packets.reverse();
            }
            for pkt in packets {
                leaf.send_up(pkt.stream, pkt.tag, vec![leaf.leaf_index as u8]).unwrap();
            }
            while !matches!(leaf.recv().unwrap(), LeafEvent::Shutdown) {}
        });
        let stream = net.front.open_stream(FilterKind::Concat).unwrap();
        net.front.broadcast(stream, 1, vec![]).unwrap();
        net.front.broadcast(stream, 2, vec![]).unwrap();
        let w2 = net.front.gather(stream, 2, Duration::from_secs(5)).unwrap();
        let w1 = net.front.gather(stream, 1, Duration::from_secs(5)).unwrap();
        assert_eq!(w1.payload, vec![0, 1, 2, 3]);
        assert_eq!(w2.payload, vec![0, 1, 2, 3]);
        net.shutdown().unwrap();
    }

    #[test]
    fn gather_times_out_when_a_leaf_is_silent() {
        let mut net = run_overlay("1x3", FilterRegistry::new(), |leaf| loop {
            match leaf.recv().unwrap() {
                LeafEvent::Data(pkt) => {
                    if leaf.leaf_index != 2 {
                        leaf.send_up(pkt.stream, pkt.tag, vec![1]).unwrap();
                    }
                }
                LeafEvent::Shutdown => return,
                LeafEvent::StreamOpened(_) => continue,
            }
        });
        let stream = net.front.open_stream(FilterKind::Concat).unwrap();
        net.front.broadcast(stream, 0, vec![]).unwrap();
        let err = net.front.gather(stream, 0, Duration::from_millis(100)).unwrap_err();
        assert_eq!(err, TbonError::Timeout);
        net.shutdown().unwrap();
    }

    #[test]
    fn comm_crash_mid_aggregation_times_out_upstream() {
        // 1x2x8: each comm daemon aggregates 4 leaf hellos. Comm 0 crashes
        // after its first up-packet — its wave never completes, so the
        // front-end gather for the connect stream must time out rather
        // than deliver a partial aggregate.
        let mut net = run_overlay_with_faults(
            "1x2x8",
            FilterRegistry::new(),
            vec![(0, CommFault::none().crash_after_up(1))],
            LeafEndpoint::serve_echo,
        );
        let err = net.front.await_connections(8, Duration::from_millis(200)).unwrap_err();
        assert_eq!(err, TbonError::Timeout);
        net.shutdown().unwrap();
    }

    #[test]
    fn severed_child_link_surfaces_as_missing_leaves() {
        // Severing one leaf link partitions that subtree away: waves still
        // complete (the daemon no longer waits for the severed child), but
        // the front end sees fewer hellos than leaves — a clean, attributable
        // error rather than a hang.
        let mut net = run_overlay_with_faults(
            "1x2x8",
            FilterRegistry::new(),
            vec![(1, CommFault::none().sever_child(2))],
            LeafEndpoint::serve_echo,
        );
        let err = net.front.await_connections(8, Duration::from_secs(5)).unwrap_err();
        match err {
            TbonError::LaunchFailed(msg) => {
                assert!(msg.contains("expected 8 leaf hellos, got 7"), "{msg}")
            }
            other => panic!("expected LaunchFailed, got {other:?}"),
        }
        net.shutdown().unwrap();
    }

    #[test]
    fn comm_crash_on_downstream_traffic_kills_broadcast_path() {
        // Comm 0 dies as soon as the second down-message arrives: the
        // connect wave still aggregates, but the broadcast after it never
        // reaches comm 0's leaves, so the gather times out.
        let mut net = run_overlay_with_faults(
            "1x2x6",
            FilterRegistry::new(),
            vec![(0, CommFault::none().crash_after_down(1))],
            LeafEndpoint::serve_echo,
        );
        net.front.await_connections(6, Duration::from_secs(5)).unwrap();
        let stream = net.front.open_stream(FilterKind::Concat).unwrap();
        net.front.broadcast(stream, 0, vec![]).unwrap();
        let err = net.front.gather(stream, 0, Duration::from_millis(200)).unwrap_err();
        assert_eq!(err, TbonError::Timeout);
        net.shutdown().unwrap();
    }

    #[test]
    fn severing_an_out_of_range_slot_is_inert() {
        // Slot 99 names no child: the daemon must still wait for all of
        // its real children rather than aggregate a partial wave.
        let mut net = run_overlay_with_faults(
            "1x2x8",
            FilterRegistry::new(),
            vec![(0, CommFault::none().sever_child(99))],
            LeafEndpoint::serve_echo,
        );
        let ids = net.front.await_connections(8, Duration::from_secs(5)).unwrap();
        assert_eq!(ids.len(), 8);
        net.shutdown().unwrap();
    }

    #[test]
    fn fault_free_schedule_is_inert() {
        assert!(CommFault::none().is_none());
        assert!(!CommFault::none().crash_after_up(3).is_none());
        assert!(!CommFault::none().sever_child(0).is_none());
    }

    #[test]
    fn unknown_stream_rejected() {
        let spec = TopologySpec::parse("1x2").unwrap();
        let mut overlay = Overlay::build(&spec, FilterRegistry::new());
        assert!(matches!(overlay.front.broadcast(99, 0, vec![]), Err(TbonError::NoSuchStream(99))));
        assert!(matches!(
            overlay.front.gather(99, 0, Duration::from_millis(1)),
            Err(TbonError::NoSuchStream(99))
        ));
    }

    // -- recovery -----------------------------------------------------------

    #[test]
    fn dead_comm_heals_via_grandparent_adoption() {
        let mut net = run_overlay("1x2x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
        net.front.await_connections(8, Duration::from_secs(5)).unwrap();
        let stream = net.front.open_stream(FilterKind::Concat).unwrap();

        // Healthy wave first.
        net.front.broadcast(stream, 1, vec![]).unwrap();
        let healthy = net.front.gather(stream, 1, Duration::from_secs(5)).unwrap();
        assert_eq!(healthy.payload.len(), 8);

        // Kill comm 0, detect, repair.
        let dead = pos(1, 0);
        net.front.crash_comm(dead).unwrap();
        assert_eq!(net.front.wait_failure(Duration::from_secs(5)), Some(dead));
        let report = net.front.repair(dead).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.grandparent, pos(0, 0));
        assert_eq!(report.adoptions.len(), 4, "all four orphan leaves re-parented");
        assert!(
            report.adoptions.iter().all(|(_, a)| *a == pos(1, 1)),
            "the surviving sibling (under its fan-out bound) adopts all: {:?}",
            report.adoptions
        );

        // Post-heal wave completes end-to-end with every leaf.
        assert_echo_wave(&mut net.front, stream, 2, 8, "broadcast reaches adopted orphans");
        assert_eq!(net.front.overlay_epoch(), 1);

        // Event log: degraded -> adoptions -> healed.
        let events = net.front.take_recovery_events();
        assert!(
            matches!(events.first(), Some(RecoveryEvent::Degraded { dead: d, orphans: 4, .. }) if *d == dead),
            "{events:?}"
        );
        assert!(
            matches!(events.last(), Some(RecoveryEvent::Healed { repaired, epoch: 1 }) if *repaired == dead),
            "{events:?}"
        );
        assert_eq!(net.front.stats().repairs_completed, 1);
        assert_eq!(net.front.stats().orphans_adopted, 4);

        net.shutdown().unwrap();
    }

    #[test]
    fn stale_epoch_packet_is_counted_and_dropped_during_reparenting() {
        // An up-packet stamped with a pre-repair epoch must be counted in
        // overlay stats and dropped — never delivered into a wave and never
        // a panic — including the race where it arrives mid-re-parenting.
        let mut net = run_overlay("1x2x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
        net.front.await_connections(8, Duration::from_secs(5)).unwrap();
        let stream = net.front.open_stream(FilterKind::Concat).unwrap();

        let dead = pos(1, 0);
        net.front.crash_comm(dead).unwrap();
        net.front.wait_failure(Duration::from_secs(5)).unwrap();

        let root_up = {
            let route = net.front.route_table();
            let rt = route.lock();
            rt.nodes[&pos(0, 0)].up.clone().unwrap()
        };
        // "In flight" from the dying daemon: enqueued before the repair,
        // processed after the epoch bump.
        root_up
            .send(Up {
                from: dead,
                epoch: 0,
                kind: UpKind::Packet(Packet::new(stream, 7, vec![0xEE])),
            })
            .unwrap();
        net.front.repair(dead).unwrap();
        // The re-parenting race: an old-epoch packet from a surviving
        // child landing after the bump.
        root_up
            .send(Up {
                from: pos(1, 1),
                epoch: 0,
                kind: UpKind::Packet(Packet::new(stream, 7, vec![0xDD])),
            })
            .unwrap();

        // A fresh wave on the same (stream, tag) must contain only
        // post-heal data.
        assert_echo_wave(&mut net.front, stream, 7, 8, "no stale bytes delivered");
        assert!(
            net.front.stats().stale_packets_dropped >= 2,
            "both stale packets counted: {:?}",
            net.front.stats()
        );

        net.shutdown().unwrap();
    }

    #[test]
    fn heartbeat_reports_severed_subtree_unresponsive() {
        // Severing comm 1's child slot 2 cuts leaf (2,6) away. Its daemon
        // still runs, but its pongs die at the cut — the heartbeat sweep
        // must attribute exactly that node.
        let mut net = run_overlay_with_faults(
            "1x2x8",
            FilterRegistry::new(),
            vec![(1, CommFault::none().sever_child(2))],
            LeafEndpoint::serve_echo,
        );
        let err = net.front.await_connections(8, Duration::from_secs(5)).unwrap_err();
        assert!(matches!(err, TbonError::LaunchFailed(_)));
        let missing = net.front.heartbeat(Duration::from_secs(2));
        assert_eq!(missing, vec![pos(2, 6)], "only the severed leaf is unreachable");
        assert!(net.front.stats().pongs_received >= 9, "everyone else answered");
        net.shutdown().unwrap();
    }

    #[test]
    fn crash_fault_path_closes_links_deterministically() {
        // The crash fault path must close every link explicitly: LinkDown
        // to each child, ChildGone to the parent, a route-table death mark
        // — so detection needs no timing assumptions at all.
        let mut net = run_overlay_with_faults(
            "1x2x8",
            FilterRegistry::new(),
            vec![(0, CommFault::none().crash_after_up(1))],
            LeafEndpoint::serve_echo,
        );
        let dead = net.front.wait_failure(Duration::from_secs(5));
        assert_eq!(dead, Some(pos(1, 0)));
        assert!(!net.front.route_table().is_alive(pos(1, 0)));
        assert_eq!(net.front.stats().link_down_notices, 4, "each of comm 0's children got a FIN");
        net.shutdown().unwrap();
    }

    #[test]
    fn liveness_traffic_does_not_advance_crash_counters() {
        // Comm 0 crashes after 5 up-packets. The 4 hellos are packets 1–4;
        // a full heartbeat sweep (4 pongs forwarded through comm 0) must
        // NOT advance the counter — only the broadcast wave's replies do,
        // so the crash lands at a protocol point, not a timing point.
        let mut net = run_overlay_with_faults(
            "1x2x8",
            FilterRegistry::new(),
            vec![(0, CommFault::none().crash_after_up(5))],
            LeafEndpoint::serve_echo,
        );
        net.front.await_connections(8, Duration::from_secs(5)).unwrap();
        let missing = net.front.heartbeat(Duration::from_secs(2));
        assert!(missing.is_empty(), "pongs must not crash the daemon: {missing:?}");
        let stream = net.front.open_stream(FilterKind::Concat).unwrap();
        net.front.broadcast(stream, 1, vec![]).unwrap();
        let err = net.front.gather(stream, 1, Duration::from_millis(300)).unwrap_err();
        assert_eq!(err, TbonError::Timeout, "crash on reply packet 6 stalls the wave");
        assert_eq!(net.front.poll_failures(), vec![pos(1, 0)], "crash detected deterministically");
        net.shutdown().unwrap();
    }

    #[test]
    fn shutdown_joins_every_thread_after_a_crash_and_after_a_halt() {
        // A crashed or halted comm daemon forwards no shutdown to its
        // subtree: `shutdown` must still reach those leaves (out of band)
        // and return only once every thread — the dead daemon's included —
        // has been joined.
        use std::sync::atomic::{AtomicUsize, Ordering};
        for halt in [false, true] {
            let exited = Arc::new(AtomicUsize::new(0));
            let counter = exited.clone();
            let faults =
                if halt { Vec::new() } else { vec![(0, CommFault::none().crash_after_up(1))] };
            let mut net =
                run_overlay_with_faults("1x2x8", FilterRegistry::new(), faults, move |leaf| {
                    leaf.serve_echo();
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            if halt {
                net.front.await_connections(8, Duration::from_secs(5)).unwrap();
                net.front.halt_comm(pos(1, 0)).unwrap();
            } else {
                assert_eq!(net.front.wait_failure(Duration::from_secs(5)), Some(pos(1, 0)));
            }
            net.shutdown().unwrap();
            assert_eq!(exited.load(Ordering::SeqCst), 8, "halt={halt}: a leaf outlived shutdown");
        }
    }

    #[test]
    fn dropping_the_front_end_tears_the_overlay_down() {
        // No explicit shutdown: dropping the front endpoint must still
        // stop every daemon thread (the route table keeps link senders
        // alive, so disconnect cascades alone cannot do it anymore).
        let RunningOverlay { front, handles } =
            run_overlay("1x2x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
        drop(front);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn repair_rejects_root_and_unknown_nodes() {
        let spec = TopologySpec::parse("1x2x4").unwrap();
        let mut overlay = Overlay::build(&spec, FilterRegistry::new());
        assert!(matches!(overlay.front.repair(pos(0, 0)), Err(TbonError::UnknownNode(_))));
        assert!(matches!(overlay.front.repair(pos(5, 9)), Err(TbonError::UnknownNode(_))));
        assert!(matches!(overlay.front.crash_comm(pos(5, 9)), Err(TbonError::UnknownNode(_))));
        // The kill switch targets comm daemons only: the root and leaves
        // must be rejected, not silently ignored.
        assert!(matches!(overlay.front.crash_comm(pos(0, 0)), Err(TbonError::UnknownNode(_))));
        assert!(matches!(overlay.front.crash_comm(pos(2, 1)), Err(TbonError::UnknownNode(_))));
    }

    #[test]
    fn chained_deaths_repair_child_first_without_panic() {
        // 1x2x4x8: comm (1,0) and its child (2,0) both die. Repairing the
        // *child* first (the adversarial order — heal_failures sorts
        // parent-first, but repair() is public) must not panic, must not
        // re-adopt the already-repaired child, and the overlay must still
        // heal end to end.
        let mut net = run_overlay("1x2x4x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
        net.front.await_connections(8, Duration::from_secs(5)).unwrap();
        let stream = net.front.open_stream(FilterKind::Concat).unwrap();

        net.front.crash_comm(pos(2, 0)).unwrap();
        assert_eq!(net.front.wait_failure(Duration::from_secs(5)), Some(pos(2, 0)));
        net.front.crash_comm(pos(1, 0)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while net.front.poll_failures().len() < 2 {
            assert!(std::time::Instant::now() < deadline, "second death never detected");
            std::thread::sleep(Duration::from_millis(1));
        }

        let child_repair = net.front.repair(pos(2, 0)).unwrap();
        assert_eq!(child_repair.grandparent, pos(0, 0), "walks past the dead parent");
        let parent_repair = net.front.repair(pos(1, 0)).unwrap();
        assert!(
            parent_repair.adoptions.iter().all(|(o, _)| *o != pos(2, 0)),
            "the already-repaired child must not be re-adopted: {:?}",
            parent_repair.adoptions
        );

        assert_echo_wave(&mut net.front, stream, 2, 8, "both subtrees healed");
        assert_eq!(net.front.overlay_epoch(), 2);
        net.shutdown().unwrap();
    }

    #[test]
    fn heal_failures_detects_and_repairs_in_one_call() {
        let mut net = run_overlay("1x4x16", FilterRegistry::new(), LeafEndpoint::serve_echo);
        net.front.await_connections(16, Duration::from_secs(5)).unwrap();
        let stream = net.front.open_stream(FilterKind::Concat).unwrap();

        net.front.crash_comm(pos(1, 2)).unwrap();
        net.front.wait_failure(Duration::from_secs(5)).unwrap();
        let reports = net.front.heal_failures().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].dead, pos(1, 2));

        assert_echo_wave(&mut net.front, stream, 3, 16, "every leaf answers");
        net.shutdown().unwrap();
    }

    // -- planned maintenance (DESIGN.md §12) --------------------------------

    #[test]
    fn drain_flushes_in_flight_waves_before_detaching() {
        // Drive comm (1,0) by hand: three of its four leaf contributions
        // arrive, then the drain request, then the fourth. The daemon must
        // hold the drain until the wave completes, flush the aggregate, and
        // only then confirm `Drained` — strictly in that order on the
        // parent link.
        let spec = TopologySpec::parse("1x2x8").unwrap();
        let mut overlay = Overlay::build(&spec, FilterRegistry::new());
        let idx = overlay.comm.iter().position(|c| c.pos == pos(1, 0)).unwrap();
        let harness = overlay.comm.remove(idx);
        let front = overlay.front;
        let (c0_up, c0_ctl) = {
            let route = front.route_table();
            let rt = route.lock();
            let n = &rt.nodes[&pos(1, 0)];
            (n.up.clone().unwrap(), n.ctl.clone().unwrap())
        };
        let join = std::thread::spawn(move || {
            run_comm_node_with_faults(harness, FilterRegistry::new(), CommFault::none())
        });

        for i in 0..3u32 {
            c0_up
                .send(Up {
                    from: pos(2, i),
                    epoch: 0,
                    kind: UpKind::Packet(Packet::new(5, 1, vec![i as u8])),
                })
                .unwrap();
        }
        c0_ctl.send(RecoveryCmd::Drain).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(front.up_rx.try_recv().is_err(), "must not confirm with a wave in flight");

        c0_up
            .send(Up {
                from: pos(2, 3),
                epoch: 0,
                kind: UpKind::Packet(Packet::new(5, 1, vec![3])),
            })
            .unwrap();
        let first = front.up_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        match first.kind {
            UpKind::Packet(p) => {
                assert_eq!(p.payload, vec![0, 1, 2, 3], "the flush carries the full aggregate")
            }
            other => panic!("expected the flushed wave first, got {other:?}"),
        }
        let second = front.up_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            matches!(second.kind, UpKind::Drained { pos: p } if p == pos(1, 0)),
            "drain confirmed only after the flush"
        );
        join.join().unwrap();
    }

    #[test]
    fn drain_comm_removes_a_daemon_without_entering_the_failure_path() {
        let mut net = run_overlay("1x2x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
        net.front.await_connections(8, Duration::from_secs(5)).unwrap();
        let stream = net.front.open_stream(FilterKind::Concat).unwrap();
        net.front.broadcast(stream, 1, vec![]).unwrap();
        net.front.gather(stream, 1, Duration::from_secs(5)).unwrap();

        let report = net.front.maintenance().drain(pos(1, 0), Duration::from_secs(5)).unwrap();
        assert_eq!(report.epoch, 1);
        assert!(report.spares_used.is_empty(), "no pool in this spec");
        assert!(report.adoptions.iter().all(|(_, a)| *a == pos(1, 1)), "{:?}", report.adoptions);

        // Planned removal: a drain, never a death.
        let stats = net.front.stats();
        assert_eq!(stats.drains_completed, 1);
        assert_eq!(stats.deaths_detected, 0, "a drain must not read as a failure");
        let events = net.front.take_recovery_events();
        assert!(
            matches!(events.first(), Some(RecoveryEvent::Draining { node, epoch: 0 }) if *node == pos(1, 0)),
            "{events:?}"
        );
        assert!(!events.iter().any(|e| matches!(e, RecoveryEvent::Degraded { .. })), "{events:?}");

        assert_echo_wave(&mut net.front, stream, 2, 8, "no session interruption");
        net.shutdown().unwrap();
    }

    #[test]
    fn heartbeat_double_attribution_is_deduped_per_epoch() {
        let mut net = run_overlay("1x2x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
        net.front.await_connections(8, Duration::from_secs(5)).unwrap();

        net.front.crash_comm(pos(1, 0)).unwrap();
        net.front.wait_failure(Duration::from_secs(5)).unwrap();
        // First sweep attributes the severed subtree...
        let first = net.front.heartbeat(Duration::from_millis(300));
        assert_eq!(first, (0..4).map(|i| pos(2, i)).collect::<Vec<_>>());
        // ...and a second sweep straddling the same crash must not report
        // it again — the repair below is planned exactly once.
        let second = net.front.heartbeat(Duration::from_millis(300));
        assert!(second.is_empty(), "double attribution: {second:?}");

        net.front.repair(pos(1, 0)).unwrap();
        // Post-repair (new epoch) the attribution re-arms: everyone
        // answers now, and a *new* failure is reported afresh.
        assert!(net.front.heartbeat(Duration::from_secs(2)).is_empty());
        net.front.crash_comm(pos(1, 1)).unwrap();
        net.front.wait_failure(Duration::from_secs(5)).unwrap();
        let third = net.front.heartbeat(Duration::from_millis(300));
        assert_eq!(third.len(), 8, "all 8 leaves behind the new crash: {third:?}");
        net.shutdown().unwrap();
    }

    #[test]
    fn spare_takes_over_a_crashed_comm_at_designed_fanout() {
        let mut net = run_overlay("1x2x8+1", FilterRegistry::new(), LeafEndpoint::serve_echo);
        net.front.await_connections(8, Duration::from_secs(5)).unwrap();
        let stream = net.front.open_stream(FilterKind::Concat).unwrap();
        assert_eq!(net.front.stats().spares_registered, 1);

        net.front.crash_comm(pos(1, 0)).unwrap();
        net.front.wait_failure(Duration::from_secs(5)).unwrap();
        let report = net.front.repair(pos(1, 0)).unwrap();
        assert_eq!(report.spares_used, vec![pos(1, 2)], "the idle spare takes the subtree");
        assert!(
            report.adoptions.iter().all(|(_, a)| *a == pos(1, 2)),
            "the sibling stays at its designed fan-out: {:?}",
            report.adoptions
        );
        assert!(net.front.route_table().idle_spares().is_empty());
        assert_eq!(net.front.stats().spares_activated, 1);

        assert_echo_wave(&mut net.front, stream, 1, 8, "the replacement serves its subtree");
        net.shutdown().unwrap();
    }

    #[test]
    fn suspicion_catches_a_silent_halt_and_feeds_repair() {
        let mut net = run_overlay("1x2x8", FilterRegistry::new(), LeafEndpoint::serve_echo);
        net.front.await_connections(8, Duration::from_secs(5)).unwrap();
        let stream = net.front.open_stream(FilterKind::Concat).unwrap();
        let table = net.front.maintenance().start_suspicion(PhiAccrualParams {
            beat_interval: Duration::from_millis(5),
            window: 16,
            suspect_phi: 1.0,
            dead_phi: 3.0,
            min_stddev: Duration::from_millis(2),
        });
        // Let some beat history accrue, then kill -9: no FIN, no notice,
        // no route-table mark — only the beats stop.
        std::thread::sleep(Duration::from_millis(100));
        net.front.halt_comm(pos(1, 0)).unwrap();

        // The sweep writes the row, then the route mark, then the counter:
        // wait on the last of the three.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while net.front.stats().suspicion_deaths == 0 {
            assert!(std::time::Instant::now() < deadline, "suspicion never declared the halt");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!net.front.route_table().is_alive(pos(1, 0)));
        assert_eq!(table.level(pos(1, 0)), Some(crate::suspicion::SuspicionLevel::Dead));
        assert!(net.front.stats().beats_received > 0);

        // The suspicion death feeds the exact same repair path.
        net.front.heal_failures().unwrap();
        assert_echo_wave(&mut net.front, stream, 1, 8, "the silent death healed end to end");
        net.shutdown().unwrap();
    }

    #[test]
    fn rolling_upgrade_swaps_every_comm_for_a_spare_with_zero_wave_loss() {
        let mut net = run_overlay("1x2x8+2", FilterRegistry::new(), LeafEndpoint::serve_echo);
        net.front.await_connections(8, Duration::from_secs(5)).unwrap();
        let stream = net.front.open_stream(FilterKind::Concat).unwrap();
        net.front.broadcast(stream, 1, vec![]).unwrap();
        net.front.gather(stream, 1, Duration::from_secs(5)).unwrap();

        let report = net.front.maintenance().rolling_upgrade(Duration::from_secs(5)).unwrap();
        assert_eq!(report.steps.len(), 2, "both designed comm daemons walked: {report:?}");
        assert_eq!(report.unplanned_repairs, 0);
        let spares: Vec<_> = report.steps.iter().map(|s| s.spare_used).collect();
        assert_eq!(spares, vec![Some(pos(1, 2)), Some(pos(1, 3))], "one spare per step");
        assert_eq!(report.epoch, 2);

        let stats = net.front.stats();
        assert_eq!(stats.upgrades_completed, 2);
        assert_eq!(stats.drains_completed, 2);
        assert_eq!(stats.spares_activated, 2);
        assert_eq!(stats.deaths_detected, 0, "a planned upgrade is never a failure");

        assert_echo_wave(&mut net.front, stream, 2, 8, "zero session interruption");
        net.shutdown().unwrap();
    }
}
