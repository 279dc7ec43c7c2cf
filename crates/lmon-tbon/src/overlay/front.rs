//! The front end: the data plane (streams, broadcast, gather), the failure
//! plane (detection, heartbeat) and orphan repair.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, Sender};
use parking_lot::Mutex;

use super::CONNECT_STREAM;
use crate::error::{TbonError, TbonResult};
use crate::filter::{FilterKind, FilterRegistry};
use crate::packet::{Control, Down, Packet, Up, UpKind};
use crate::recovery::{
    adoption_candidates, plan_adoption, ChildLink, OverlayStats, OverlayStatsSnapshot, RecoveryCmd,
    RecoveryEvent, RepairReport, RouteTable,
};
use crate::spec::{NodePos, ROOT};
use crate::suspicion::SuspicionHandle;

/// First stream id handed out by [`FrontEndpoint::open_stream`].
const FIRST_USER_STREAM: u16 = 1;

/// The front-end endpoint of the overlay.
pub struct FrontEndpoint {
    pub(super) children: Vec<ChildLink>,
    pub(super) up_rx: Receiver<Up>,
    registry: FilterRegistry,
    streams: HashMap<u16, FilterKind>,
    next_stream: u16,
    pub(super) epoch: u64,
    /// Pending up-packets not yet claimed by a gather, keyed by
    /// (stream, tag) → per-child payloads. Contributions are only ever
    /// from the current epoch; repairs clear the map.
    pending: HashMap<(u16, u16), BTreeMap<NodePos, Packet>>,
    pub(super) route: Arc<RouteTable>,
    pub(super) stats: Arc<OverlayStats>,
    pub(super) events: Vec<RecoveryEvent>,
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
    pub(super) draining: Arc<Mutex<HashSet<NodePos>>>,
    /// Drain confirmations received but not yet claimed by a drain.
    pub(super) drained_pending: HashSet<NodePos>,
    /// (node, epoch) pairs a heartbeat sweep already reported missing:
    /// back-to-back sweeps straddling one failure attribute it exactly
    /// once. Re-armed by a pong, pruned at each epoch bump.
    reported_missing: HashSet<(NodePos, u64)>,
    /// Background phi-accrual monitor, once started (dropping the front
    /// end stops its thread).
    pub(super) suspicion: Option<SuspicionHandle>,
}

impl FrontEndpoint {
    pub(super) fn new(
        children: Vec<ChildLink>,
        up_rx: Receiver<Up>,
        registry: FilterRegistry,
        route: Arc<RouteTable>,
        stats: Arc<OverlayStats>,
    ) -> Self {
        FrontEndpoint {
            children,
            up_rx,
            registry,
            streams: HashMap::from([(CONNECT_STREAM, FilterKind::Concat)]),
            next_stream: FIRST_USER_STREAM,
            epoch: 0,
            pending: HashMap::new(),
            route,
            stats,
            events: Vec::new(),
            dead_pending: Vec::new(),
            ping_seq: 0,
            pongs: HashSet::new(),
            flushed: HashMap::new(),
            draining: Arc::default(),
            drained_pending: HashSet::new(),
            reported_missing: HashSet::new(),
            suspicion: None,
        }
    }

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
            // A drain nobody waits for any more (it timed out and its guard
            // was rolled back) still ended a daemon: file it as a death so
            // the ordinary repair path re-parents the subtree.
            UpKind::Drained { pos } if !self.draining.lock().contains(&pos) => self.note_dead(pos),
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
        if !self.route.is_routed(pos) {
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

    /// The one up-link wait: fold up-link traffic into front-end state
    /// until `done` holds (checked before every receive) or `deadline`
    /// passes; returns whether `done` held. Every death — a crash's close
    /// path and a suspicion verdict alike — arrives as a message, so a
    /// blocked wait wakes for it.
    pub(super) fn pump_until(
        &mut self,
        deadline: Instant,
        mut done: impl FnMut(&mut Self) -> bool,
    ) -> bool {
        loop {
            if done(self) {
                return true;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            match self.up_rx.recv_timeout(remaining) {
                Ok(up) => self.process_up(up),
                Err(_) => return done(self),
            }
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
        let mut first = None;
        self.pump_until(Instant::now() + timeout, |fe| {
            first = fe.poll_failures().first().copied();
            first.is_some()
        });
        first
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
        let expected: HashSet<NodePos> = {
            let rt = self.route.lock();
            let draining = self.draining.lock();
            rt.nodes
                .iter()
                .filter(|(p, n)| p.level != 0 && n.alive && !rt.spare_pool.contains(p))
                .map(|(p, _)| *p)
                .filter(|p| !draining.contains(p))
                .collect()
        };
        self.pump_until(Instant::now() + timeout, |fe| expected.is_subset(&fe.pongs));
        let mut missing: Vec<NodePos> = expected.difference(&self.pongs).copied().collect();
        missing.retain(|p| self.reported_missing.insert((*p, self.epoch)));
        missing.sort_unstable();
        missing
    }

    /// The control mailbox of the interior comm daemon at `pos`; the root
    /// and leaves are rejected with [`TbonError::UnknownNode`].
    pub(super) fn comm_ctl(&self, pos: NodePos) -> TbonResult<Sender<RecoveryCmd>> {
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
    /// fault path a [`super::CommFault`] crash takes.
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
    /// background suspicion ([`super::Maintenance::start_suspicion`]) can
    /// detect it; the bench and chaos suites use exactly that to measure
    /// phi-accrual detection latency.
    pub fn halt_comm(&self, pos: NodePos) -> TbonResult<()> {
        self.comm_ctl(pos)?.send(RecoveryCmd::Halt).map_err(|_| TbonError::Disconnected)
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
                    g = ROOT;
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
        let mut sib_loads: Vec<(NodePos, usize)> = rt.nodes[&g]
            .children
            .iter()
            .filter(|&&p| p != dead)
            .filter_map(|p| Some((*p, rt.nodes.get(p)?)))
            .filter(|(_, n)| n.alive && n.up.is_some())
            .map(|(p, n)| (p, n.children.len()))
            .collect();
        sib_loads.sort_unstable();
        let spares = rt.idle_spares();
        // g's effective load: `dead` is leaving its child list, but only
        // when g actually lists it (g may be a further ancestor reached by
        // walking past a dead direct parent).
        let g_load =
            rt.nodes[&g].children.len() - usize::from(rt.nodes[&g].children.contains(&dead));
        let fanout = |level: u32| rt.base_fanout.get(level as usize).copied().unwrap_or(0);
        let g_bound = 2 * fanout(g.level).max(1);
        let candidates =
            adoption_candidates(&sib_loads, &spares, fanout(dead.level), (g, g_load, g_bound));
        let adoptions = plan_adoption(&orphans, &candidates);

        // Spares the plan consumed attach under `g` and become ordinary
        // interior nodes: one `(child, new parent)` move list, activated
        // spares first, then the orphans.
        let spares_used: Vec<NodePos> =
            spares.into_iter().filter(|s| adoptions.iter().any(|(_, a)| a == s)).collect();
        let moves: Vec<(NodePos, NodePos)> =
            spares_used.iter().map(|&s| (s, g)).chain(adoptions.iter().copied()).collect();

        // 1. Reconfigure the grandparent (it drops `dead`) and every
        //    adopter.
        let mut adopt_by: BTreeMap<NodePos, Vec<ChildLink>> = BTreeMap::from([(g, Vec::new())]);
        for &(child, a) in &moves {
            let down = rt.nodes[&child].down.clone().expect("non-root node has a down link");
            adopt_by.entry(a).or_default().push(ChildLink { pos: child, down });
        }
        for (a, adopt) in adopt_by {
            let gone = if a == g { vec![dead] } else { Vec::new() };
            if a == ROOT {
                // The front end is its own control plane: apply in place.
                self.children.retain(|c| !gone.contains(&c.pos));
                self.children.extend(adopt);
                self.children.sort_by_key(|c| c.pos);
            } else {
                let ctl = rt.nodes[&a].ctl.clone().expect("comm node has a ctl mailbox");
                let _ = ctl.send(RecoveryCmd::Reconfigure { epoch: e, drop: gone, adopt });
            }
        }

        // 2. Rewire every moved child onto its new parent, in move order.
        //    Spare-first matters: a spare's Rewire must sit in its control
        //    mailbox before any orphan learns the spare's up channel, so
        //    the spare can never complete a wave into its still-dangling
        //    build-time up link (the comm loop drains its whole mailbox
        //    before touching up-traffic).
        for &(child, a) in &moves {
            let up = rt.nodes[&a].up.clone().expect("adopter can parent");
            if let Some(ctl) = rt.nodes[&child].ctl.clone() {
                let _ = ctl.send(RecoveryCmd::Rewire { epoch: e, up });
            }
        }

        // 3. Route bookkeeping: apply the moves, retire the activated
        //    spares from the pool, drop the dead node (its last link
        //    handles die with the entry).
        for &(child, a) in &moves {
            if let Some(n) = rt.nodes.get_mut(&child) {
                n.parent = Some(a);
            }
            if let Some(n) = rt.nodes.get_mut(&a) {
                n.children.push(child);
                n.children.sort_unstable();
            }
        }
        rt.spare_pool.retain(|p| !spares_used.contains(p));
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
        self.stats.add_stale_packets(stale_packets);
        self.stats.add_stale_waves(stale_waves);
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
            if self.route.is_routed(d) {
                reports.push(self.repair(d)?);
            }
        }
        Ok(reports)
    }

    /// Gather one aggregated packet for `(stream, tag)`: waits for every
    /// direct child's contribution and applies the stream filter once more.
    ///
    /// A wave that completed just before a repair (and was preserved by
    /// it) is served first — data a drain flushed is never lost to the
    /// epoch bump that followed it.
    pub fn gather(&mut self, stream: u16, tag: u16, timeout: Duration) -> TbonResult<Packet> {
        let filter = self.streams.get(&stream).cloned().ok_or(TbonError::NoSuchStream(stream))?;
        let key = (stream, tag);
        let wave = match self.flushed.remove(&key) {
            Some(wave) => wave,
            None => {
                let complete = self.pump_until(Instant::now() + timeout, |fe| {
                    let want = fe.children.len();
                    fe.pending.get(&key).map(|m| m.len() == want).unwrap_or(want == 0)
                });
                if !complete {
                    return Err(TbonError::Timeout);
                }
                self.pending.remove(&key).unwrap_or_default()
            }
        };
        let inputs: Vec<Vec<u8>> = wave.into_values().map(|p| p.payload.to_vec()).collect();
        Ok(Packet::new(stream, tag, self.registry.apply(&filter, inputs)))
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
