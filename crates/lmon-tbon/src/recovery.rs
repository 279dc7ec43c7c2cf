//! Self-healing overlay plumbing: the shared route table, the recovery
//! control plane, orphan-adoption planning, and overlay health statistics.
//!
//! DESIGN.md §9 describes the protocol; the short version:
//!
//! * every node gets an out-of-band **control mailbox** (the stand-in for
//!   LaunchMON's FE↔daemon side channels) over which the front end can
//!   re-parent orphans even when their tree path is severed;
//! * the [`RouteTable`] is the front end's authoritative picture of the
//!   overlay: current parent/child assignments, liveness flags, and the
//!   link handles repairs need;
//! * repairs are **epoch-stamped**: every repair bumps the overlay epoch,
//!   and packets carrying an older epoch are counted and dropped rather
//!   than mis-routed or aggregated into the wrong wave;
//! * [`plan_adoption`] chooses adopters for a dead node's orphans —
//!   grandparent adoption, split across the dead node's siblings when
//!   fan-out bounds would otherwise be violated.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crossbeam_channel::Sender;
use parking_lot::Mutex;

use crate::packet::{Down, Up, UpKind};
use crate::spec::{NodePos, TopologySpec, ROOT};

/// A live link to a (current) child: its position plus the sender half of
/// its down channel.
#[derive(Debug, Clone)]
pub(crate) struct ChildLink {
    pub pos: NodePos,
    pub down: Sender<Down>,
}

/// Out-of-band commands the front end sends over a node's control mailbox.
#[derive(Debug, Clone)]
pub(crate) enum RecoveryCmd {
    /// Child-set surgery at `epoch`: drop dead children, adopt orphans.
    Reconfigure { epoch: u64, drop: Vec<NodePos>, adopt: Vec<ChildLink> },
    /// Re-parent: route future up-traffic to `up` (the new parent's up
    /// channel), stamping `epoch`.
    Rewire { epoch: u64, up: Sender<Up> },
    /// Deterministic crash injection (the bench/chaos kill switch): the
    /// daemon runs its crash fault path as if a `CommFault` fired.
    Crash,
    /// Silent-death injection (`kill -9` without the crash path's FIN): the
    /// daemon exits without LinkDown/ChildGone notices. Only background
    /// suspicion (DESIGN.md §12) can detect this.
    Halt,
    /// Planned teardown: stop as soon as every in-flight wave has flushed,
    /// close child links, and confirm with an `UpKind::Drained` notice
    /// instead of the crash path's `ChildGone`.
    Drain,
    /// Enroll in background failure suspicion: send this node's position on
    /// `beat` every `interval` (plus once immediately), over a channel the
    /// monitor thread timestamps on arrival.
    StartBeats {
        /// Arrival-history channel into the suspicion monitor.
        beat: Sender<NodePos>,
        /// Nominal inter-beat interval.
        interval: Duration,
    },
    /// Tear down. Delivered out of band so orphans whose tree path died
    /// with their parent still exit promptly.
    Shutdown,
}

// ---------------------------------------------------------------------------
// Route table
// ---------------------------------------------------------------------------

pub(crate) struct RouteNode {
    pub alive: bool,
    pub parent: Option<NodePos>,
    pub children: Vec<NodePos>,
    pub down: Option<Sender<Down>>,
    pub ctl: Option<Sender<RecoveryCmd>>,
    /// Sender half of the up channel *into* this node (internal nodes and
    /// the root only): what a rewired child needs to re-attach here.
    pub up: Option<Sender<Up>>,
}

pub(crate) struct RouteInner {
    pub epoch: u64,
    /// Per-level fan-out of the original spec (max children of any node at
    /// that level); adoption bounds derive from it.
    pub base_fanout: Vec<usize>,
    pub nodes: HashMap<NodePos, RouteNode>,
    /// Idle hot spares (routed, alive, but holding no tree position yet).
    /// Consumed front-to-back by repairs; activated spares leave the pool
    /// and become ordinary interior nodes.
    pub spare_pool: Vec<NodePos>,
}

impl RouteInner {
    /// See [`RouteTable::idle_spares`].
    pub fn idle_spares(&self) -> Vec<NodePos> {
        let alive = |p: &NodePos| self.nodes.get(p).is_some_and(|n| n.alive);
        let mut spares: Vec<NodePos> = self.spare_pool.iter().copied().filter(alive).collect();
        spares.sort_unstable();
        spares
    }
}

/// The front end's authoritative view of the overlay: current topology,
/// liveness, epoch, and the link handles repairs need.
///
/// Built by [`crate::overlay::Overlay::build`] and shared (behind an `Arc`)
/// with every communication daemon, which uses it for exactly one thing:
/// marking itself dead on the deterministic crash path — and with the
/// suspicion monitor, which marks a silent node dead and posts its
/// `ChildGone` notice to the root. All routing decisions are the front
/// end's.
pub struct RouteTable {
    inner: Mutex<RouteInner>,
}

impl RouteTable {
    pub(crate) fn new(spec: &TopologySpec) -> Self {
        let base_fanout = (0..spec.depth() as u32).map(|l| spec.base_fanout(l)).collect::<Vec<_>>();
        let mut nodes = HashMap::new();
        let mut all = vec![ROOT];
        all.extend(spec.comm_positions());
        all.extend(spec.leaf_positions());
        for pos in all {
            nodes.insert(
                pos,
                RouteNode {
                    alive: true,
                    parent: spec.parent(pos),
                    children: spec.children(pos),
                    down: None,
                    ctl: None,
                    up: None,
                },
            );
        }
        // Spares are routed and alive from the start, but parentless and
        // childless: no tree traffic reaches them until a repair activates
        // one.
        let spare_pool = spec.spare_positions();
        for &pos in &spare_pool {
            nodes.insert(
                pos,
                RouteNode {
                    alive: true,
                    parent: None,
                    children: Vec::new(),
                    down: None,
                    ctl: None,
                    up: None,
                },
            );
        }
        RouteTable { inner: Mutex::new(RouteInner { epoch: 0, base_fanout, nodes, spare_pool }) }
    }

    pub(crate) fn lock(&self) -> parking_lot::MutexGuard<'_, RouteInner> {
        self.inner.lock()
    }

    /// The current overlay epoch (bumped by every repair).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Whether `pos` is still routed and believed alive.
    pub fn is_alive(&self, pos: NodePos) -> bool {
        self.inner.lock().nodes.get(&pos).map(|n| n.alive).unwrap_or(false)
    }

    /// Whether `pos` is still in the route table at all (dead-but-unrepaired
    /// nodes are; repaired-away nodes are not).
    pub(crate) fn is_routed(&self, pos: NodePos) -> bool {
        self.inner.lock().nodes.contains_key(&pos)
    }

    /// Nodes currently marked dead but not yet repaired away.
    pub fn dead_nodes(&self) -> Vec<NodePos> {
        let inner = self.inner.lock();
        let mut dead: Vec<NodePos> =
            inner.nodes.iter().filter(|(_, n)| !n.alive).map(|(p, _)| *p).collect();
        dead.sort_unstable();
        dead
    }

    /// Idle hot spares still available to repairs, in position order
    /// (dead spares are skipped — a spare can die like any other daemon).
    pub fn idle_spares(&self) -> Vec<NodePos> {
        self.inner.lock().idle_spares()
    }

    /// The node's *current* children, in position order.
    pub fn current_children(&self, pos: NodePos) -> Vec<NodePos> {
        let mut c =
            self.inner.lock().nodes.get(&pos).map(|n| n.children.clone()).unwrap_or_default();
        c.sort_unstable();
        c
    }

    /// Mark `pos` dead; returns `true` when this call made the transition
    /// (so a death is detected exactly once no matter how many notices
    /// race in).
    pub(crate) fn mark_dead(&self, pos: NodePos) -> bool {
        let mut inner = self.inner.lock();
        match inner.nodes.get_mut(&pos) {
            Some(n) if n.alive => {
                n.alive = false;
                true
            }
            _ => false,
        }
    }

    /// Post `pos`'s `ChildGone` notice on the root's up link: a verdict
    /// reached out of band (a suspicion death) reaches the front end as
    /// the same message a crash's close path sends, so a front end blocked
    /// on its up link wakes for it.
    pub(crate) fn post_child_gone(&self, pos: NodePos) {
        let inner = self.inner.lock();
        let root_up = inner.nodes.get(&ROOT).and_then(|n| n.up.clone());
        let up = Up { from: pos, epoch: inner.epoch, kind: UpKind::ChildGone { pos } };
        drop(inner);
        if let Some(root_up) = root_up {
            let _ = root_up.send(up);
        }
    }

    /// Control senders for every routed node (teardown fan-out).
    pub(crate) fn all_ctl_senders(&self) -> Vec<Sender<RecoveryCmd>> {
        self.inner.lock().nodes.values().filter_map(|n| n.ctl.clone()).collect()
    }
}

// ---------------------------------------------------------------------------
// Adoption planning
// ---------------------------------------------------------------------------

/// A candidate parent for orphan adoption.
#[derive(Debug, Clone)]
pub struct AdoptCandidate {
    /// The candidate's position.
    pub pos: NodePos,
    /// Its current child count.
    pub load: usize,
    /// Soft fan-out bound: exceeded only when every candidate is already at
    /// its bound — liveness over shape. With no spare pool this is 2× the
    /// level's original fan-out; when idle spares exist it is the *designed*
    /// fan-out, because a spare can absorb the overflow instead (see
    /// [`adoption_candidates`]).
    pub bound: usize,
    /// Preference tier, lowest first. Without spares: 0 = sibling of the
    /// dead node, 1 = the grandparent. With an idle spare pool: 0 = sibling
    /// (at designed fan-out), 1..=N = the N idle spares in pool order (one
    /// tier each, so a repair packs a single spare before tapping the
    /// next), N+1 = the grandparent.
    pub tier: u8,
}

/// Build the tiered candidate list for repairing one dead interior node.
///
/// Pure — the spare-preference policy is property-testable in isolation.
/// `siblings` are the dead node's live siblings as `(pos, current load)`,
/// `spares` the idle pool, `level_fanout` the designed fan-out at the dead
/// node's level, and `grandparent` the fallback ancestor as
/// `(pos, load, bound)`.
///
/// With at least one idle spare, siblings are bounded at the *designed*
/// fan-out (tier 0) and spares absorb what doesn't fit (one tier each in
/// pool order, load 0, same designed bound — so one spare is packed to the
/// designed fan-out before the next is touched), and a repair never
/// inflates a survivor to the 2× soft bound while capacity sits idle; the
/// grandparent remains the last resort (the tier after the last spare).
/// With an empty pool the list degenerates to exactly the original plan:
/// siblings at the 2× soft bound (tier 0), then the grandparent (tier 1).
pub fn adoption_candidates(
    siblings: &[(NodePos, usize)],
    spares: &[NodePos],
    level_fanout: usize,
    grandparent: (NodePos, usize, usize),
) -> Vec<AdoptCandidate> {
    let designed = level_fanout.max(1);
    let (g_pos, g_load, g_bound) = grandparent;
    let mut out = Vec::with_capacity(siblings.len() + spares.len() + 1);
    if spares.is_empty() {
        for &(pos, load) in siblings {
            out.push(AdoptCandidate { pos, load, bound: 2 * designed, tier: 0 });
        }
        out.push(AdoptCandidate { pos: g_pos, load: g_load, bound: g_bound, tier: 1 });
    } else {
        for &(pos, load) in siblings {
            out.push(AdoptCandidate { pos, load, bound: designed, tier: 0 });
        }
        // Each spare gets its own tier so a repair packs one spare up to the
        // designed fan-out (1:1 replacement of the dead node) before tapping
        // the next, instead of round-robining orphans across the whole pool.
        for (k, &pos) in spares.iter().enumerate() {
            let tier = u8::try_from(k + 1).unwrap_or(u8::MAX - 1);
            out.push(AdoptCandidate { pos, load: 0, bound: designed, tier });
        }
        let g_tier = u8::try_from(spares.len() + 1).unwrap_or(u8::MAX);
        out.push(AdoptCandidate { pos: g_pos, load: g_load, bound: g_bound, tier: g_tier });
    }
    out
}

/// Assign each orphan a new parent.
///
/// Deterministic and purely functional so the same failure always heals
/// into the same shape: each orphan (in position order) goes to the
/// under-bound candidate with the fewest children, siblings before the
/// grandparent, position order breaking ties; when every candidate is at
/// its bound the least-loaded one is used anyway.
pub fn plan_adoption(
    orphans: &[NodePos],
    candidates: &[AdoptCandidate],
) -> Vec<(NodePos, NodePos)> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let mut loads: Vec<usize> = candidates.iter().map(|c| c.load).collect();
    let mut out = Vec::with_capacity(orphans.len());
    for &orphan in orphans {
        let pick = (0..candidates.len())
            .min_by_key(|&i| {
                let c = &candidates[i];
                let over = loads[i] >= c.bound;
                // Tier preference only applies while under bound: once a
                // candidate is over its bound, pure load balance decides
                // (the documented fallback — bounds are already lost, so
                // pile-up on a preferred tier would only make it worse).
                let tier = if over { 0 } else { c.tier };
                (over, tier, loads[i], i)
            })
            .expect("non-empty candidates");
        loads[pick] += 1;
        out.push((orphan, candidates[pick].pos));
    }
    out
}

// ---------------------------------------------------------------------------
// Recovery events and reports
// ---------------------------------------------------------------------------

/// A state transition in the overlay's health, recorded at the front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A planned drain began: the node keeps flushing in-flight waves and
    /// will confirm with a `Drained` notice; this is *not* a failure.
    Draining {
        /// The node being drained.
        node: NodePos,
        /// The epoch the drain started under.
        epoch: u64,
    },
    /// A node was detected dead; its subtree is orphaned until repaired.
    Degraded {
        /// The dead node.
        dead: NodePos,
        /// How many direct children it orphaned.
        orphans: usize,
        /// The epoch the overlay was degraded *from*.
        epoch: u64,
    },
    /// An orphan was re-parented during a repair.
    Adopted {
        /// The re-parented node.
        orphan: NodePos,
        /// Its new parent.
        adopter: NodePos,
        /// The repair's (new) epoch.
        epoch: u64,
    },
    /// A repair completed: the overlay is whole again under a new epoch.
    Healed {
        /// The node that was repaired away.
        repaired: NodePos,
        /// The new overlay epoch.
        epoch: u64,
    },
}

/// What one [`crate::overlay::FrontEndpoint::repair`] call did.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// The dead node that was repaired away.
    pub dead: NodePos,
    /// The new overlay epoch the repair established.
    pub epoch: u64,
    /// `(orphan, adopter)` pairs, in orphan position order.
    pub adoptions: Vec<(NodePos, NodePos)>,
    /// The live ancestor whose subtree absorbed the orphans.
    pub grandparent: NodePos,
    /// Hot spares activated by this repair (attached under the
    /// grandparent), in position order. Empty when siblings had room or the
    /// pool was empty.
    pub spares_used: Vec<NodePos>,
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Shared overlay health counters (lock-free, incremented by every node).
#[derive(Debug, Default)]
pub struct OverlayStats {
    stale_packets_dropped: AtomicU64,
    stale_waves_dropped: AtomicU64,
    severed_packets_discarded: AtomicU64,
    link_down_notices: AtomicU64,
    deaths_detected: AtomicU64,
    pings_sent: AtomicU64,
    pongs_received: AtomicU64,
    repairs_completed: AtomicU64,
    orphans_adopted: AtomicU64,
    drains_completed: AtomicU64,
    spares_registered: AtomicU64,
    spares_activated: AtomicU64,
    beats_received: AtomicU64,
    suspicions_raised: AtomicU64,
    suspicion_deaths: AtomicU64,
    upgrades_completed: AtomicU64,
    upgrades_failed: AtomicU64,
}

macro_rules! stat {
    ($inc:ident, $field:ident) => {
        pub(crate) fn $inc(&self, n: u64) {
            self.$field.fetch_add(n, Ordering::Relaxed);
        }
    };
}

impl OverlayStats {
    stat!(add_stale_packets, stale_packets_dropped);
    stat!(add_stale_waves, stale_waves_dropped);
    stat!(add_severed_discarded, severed_packets_discarded);
    stat!(add_link_down, link_down_notices);
    stat!(add_deaths, deaths_detected);
    stat!(add_pings, pings_sent);
    stat!(add_pongs, pongs_received);
    stat!(add_repairs, repairs_completed);
    stat!(add_adopted, orphans_adopted);
    stat!(add_drains, drains_completed);
    stat!(add_spares_registered, spares_registered);
    stat!(add_spares_activated, spares_activated);
    stat!(add_beats, beats_received);
    stat!(add_suspicions, suspicions_raised);
    stat!(add_suspicion_deaths, suspicion_deaths);
    stat!(add_upgrades, upgrades_completed);
    stat!(add_upgrades_failed, upgrades_failed);

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> OverlayStatsSnapshot {
        OverlayStatsSnapshot {
            stale_packets_dropped: self.stale_packets_dropped.load(Ordering::Relaxed),
            stale_waves_dropped: self.stale_waves_dropped.load(Ordering::Relaxed),
            severed_packets_discarded: self.severed_packets_discarded.load(Ordering::Relaxed),
            link_down_notices: self.link_down_notices.load(Ordering::Relaxed),
            deaths_detected: self.deaths_detected.load(Ordering::Relaxed),
            pings_sent: self.pings_sent.load(Ordering::Relaxed),
            pongs_received: self.pongs_received.load(Ordering::Relaxed),
            repairs_completed: self.repairs_completed.load(Ordering::Relaxed),
            orphans_adopted: self.orphans_adopted.load(Ordering::Relaxed),
            drains_completed: self.drains_completed.load(Ordering::Relaxed),
            spares_registered: self.spares_registered.load(Ordering::Relaxed),
            spares_activated: self.spares_activated.load(Ordering::Relaxed),
            beats_received: self.beats_received.load(Ordering::Relaxed),
            suspicions_raised: self.suspicions_raised.load(Ordering::Relaxed),
            suspicion_deaths: self.suspicion_deaths.load(Ordering::Relaxed),
            upgrades_completed: self.upgrades_completed.load(Ordering::Relaxed),
            upgrades_failed: self.upgrades_failed.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`OverlayStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlayStatsSnapshot {
    /// Up-packets dropped because they carried a pre-repair epoch.
    pub stale_packets_dropped: u64,
    /// In-progress aggregation waves discarded at an epoch bump.
    pub stale_waves_dropped: u64,
    /// Up-packets discarded because their link was severed.
    pub severed_packets_discarded: u64,
    /// Deterministic link-close notices sent (crash fault path + severs).
    pub link_down_notices: u64,
    /// Node deaths detected at the front end.
    pub deaths_detected: u64,
    /// Heartbeat probes broadcast by the front end.
    pub pings_sent: u64,
    /// Heartbeat replies that reached the front end.
    pub pongs_received: u64,
    /// Repairs completed (== epoch bumps).
    pub repairs_completed: u64,
    /// Orphans re-parented across all repairs.
    pub orphans_adopted: u64,
    /// Planned drains that flushed and confirmed (never counted as deaths).
    pub drains_completed: u64,
    /// Hot spares registered at overlay build time.
    pub spares_registered: u64,
    /// Hot spares consumed by repairs (idle = registered − activated).
    pub spares_activated: u64,
    /// Suspicion heartbeats that reached the monitor thread.
    pub beats_received: u64,
    /// Alive→Suspect transitions raised by phi-accrual suspicion.
    pub suspicions_raised: u64,
    /// Nodes declared dead by suspicion (φ crossed the dead threshold).
    pub suspicion_deaths: u64,
    /// Rolling-upgrade steps that drained, re-adopted, and verified.
    pub upgrades_completed: u64,
    /// Rolling-upgrade steps that failed drain or post-heal verification.
    pub upgrades_failed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pos(level: u32, index: u32) -> NodePos {
        NodePos { level, index }
    }

    fn cand(index: u32, load: usize, bound: usize, tier: u8) -> AdoptCandidate {
        AdoptCandidate { pos: pos(1, index), load, bound, tier }
    }

    #[test]
    fn adoption_splits_across_least_loaded_siblings_first() {
        // 8 orphans, 7 siblings all at load 8 (bound 16), grandparent last.
        let orphans: Vec<NodePos> = (0..8).map(|i| pos(2, i)).collect();
        let mut candidates: Vec<AdoptCandidate> =
            [0, 1, 2, 4, 5, 6, 7].iter().map(|&i| cand(i, 8, 16, 0)).collect();
        candidates.push(AdoptCandidate { pos: pos(0, 0), load: 7, bound: 16, tier: 1 });
        let plan = plan_adoption(&orphans, &candidates);
        // Siblings take one orphan each (round-robin by load), the eighth
        // wraps to the first sibling; the grandparent takes none even
        // though it is the least loaded — tier order wins.
        let adopters: Vec<u32> = plan.iter().map(|(_, a)| a.index).collect();
        assert_eq!(adopters, vec![0, 1, 2, 4, 5, 6, 7, 0]);
        assert!(plan.iter().all(|(_, a)| a.level == 1), "grandparent not used");
    }

    #[test]
    fn adoption_overflows_to_grandparent_when_siblings_full() {
        let orphans: Vec<NodePos> = (0..2).map(|i| pos(2, i)).collect();
        let candidates = vec![
            cand(0, 4, 4, 0), // at bound
            AdoptCandidate { pos: pos(0, 0), load: 1, bound: 4, tier: 1 },
        ];
        let plan = plan_adoption(&orphans, &candidates);
        assert_eq!(plan[0].1, pos(0, 0));
        assert_eq!(plan[1].1, pos(0, 0));
    }

    #[test]
    fn adoption_exceeds_bounds_rather_than_stranding_orphans() {
        let orphans: Vec<NodePos> = (0..3).map(|i| pos(2, i)).collect();
        let candidates = vec![cand(0, 5, 4, 0), cand(1, 4, 4, 0)];
        let plan = plan_adoption(&orphans, &candidates);
        assert_eq!(plan.len(), 3, "every orphan is placed");
        // Least-loaded-first even when everyone is over bound.
        assert_eq!(plan[0].1, pos(1, 1));
    }

    #[test]
    fn overloaded_candidates_fall_back_to_pure_load_balance() {
        // Both candidates over bound: the documented fallback is
        // least-loaded, even when the lighter one is the lower-preference
        // grandparent — piling onto a preferred tier once bounds are lost
        // would only make the overload worse.
        let orphans = vec![pos(2, 0)];
        let candidates =
            vec![cand(0, 10, 4, 0), AdoptCandidate { pos: pos(0, 0), load: 5, bound: 4, tier: 1 }];
        let plan = plan_adoption(&orphans, &candidates);
        assert_eq!(plan[0].1, pos(0, 0), "least-loaded wins once bounds are lost");
    }

    #[test]
    fn adoption_is_deterministic() {
        let orphans: Vec<NodePos> = (0..5).map(|i| pos(2, i)).collect();
        let candidates = vec![cand(0, 3, 8, 0), cand(1, 3, 8, 0), cand(2, 3, 8, 0)];
        let a = plan_adoption(&orphans, &candidates);
        let b = plan_adoption(&orphans, &candidates);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_candidates_strand_nothing_quietly() {
        assert!(plan_adoption(&[pos(2, 0)], &[]).is_empty());
    }

    #[test]
    fn spare_candidates_prefer_siblings_at_designed_fanout_then_spares() {
        // Dead node had 4 children; siblings sit at the designed fan-out of
        // 4 already. With two idle spares, the whole subtree lands on the
        // first spare — nobody is inflated to the 2x soft bound.
        let orphans: Vec<NodePos> = (0..4).map(|i| pos(2, i)).collect();
        let siblings: Vec<(NodePos, usize)> = (0..3).map(|i| (pos(1, i), 4)).collect();
        let spares = vec![pos(1, 8), pos(1, 9)];
        let cands = adoption_candidates(&siblings, &spares, 4, (pos(0, 0), 4, 8));
        let plan = plan_adoption(&orphans, &cands);
        assert!(plan.iter().all(|(_, a)| *a == pos(1, 8)), "first spare absorbs all: {plan:?}");

        // A sibling with designed-fanout headroom still wins over a spare.
        let siblings = vec![(pos(1, 0), 3), (pos(1, 1), 4)];
        let cands = adoption_candidates(&siblings, &spares, 4, (pos(0, 0), 4, 8));
        let plan = plan_adoption(&[pos(2, 0), pos(2, 1)], &cands);
        assert_eq!(plan[0].1, pos(1, 0), "under-designed-bound sibling first");
        assert_eq!(plan[1].1, pos(1, 8), "overflow goes to the spare, not past the bound");
    }

    #[test]
    fn empty_spare_pool_degenerates_to_original_plan() {
        let orphans: Vec<NodePos> = (0..8).map(|i| pos(2, i)).collect();
        let siblings: Vec<(NodePos, usize)> =
            [0, 1, 2, 4, 5, 6, 7].iter().map(|&i| (pos(1, i), 8)).collect();
        let cands = adoption_candidates(&siblings, &[], 8, (pos(0, 0), 7, 16));
        // Same tiering and bounds as the hand-built PR 5 candidate list.
        assert!(cands.iter().take(7).all(|c| c.tier == 0 && c.bound == 16));
        assert_eq!((cands[7].tier, cands[7].bound), (1, 16));
        let adopters: Vec<u32> =
            plan_adoption(&orphans, &cands).iter().map(|(_, a)| a.index).collect();
        assert_eq!(adopters, vec![0, 1, 2, 4, 5, 6, 7, 0]);
    }

    #[test]
    fn route_table_registers_spares_idle_and_parentless() {
        let spec = TopologySpec::parse("1x2x4+2").unwrap();
        let rt = RouteTable::new(&spec);
        assert_eq!(rt.idle_spares(), vec![pos(1, 2), pos(1, 3)]);
        assert!(rt.is_alive(pos(1, 2)));
        assert!(!rt.current_children(pos(0, 0)).contains(&pos(1, 2)), "no parent adopted it");
        assert!(rt.current_children(pos(1, 2)).is_empty());
        // A dead spare drops out of the idle pool.
        assert!(rt.mark_dead(pos(1, 2)));
        assert_eq!(rt.idle_spares(), vec![pos(1, 3)]);
    }

    #[test]
    fn route_table_tracks_liveness_and_children() {
        let spec = TopologySpec::parse("1x2x4").unwrap();
        let rt = RouteTable::new(&spec);
        assert_eq!(rt.epoch(), 0);
        let below_root = [pos(1, 0), pos(1, 1), pos(2, 0), pos(2, 1), pos(2, 2), pos(2, 3)];
        assert!(below_root.iter().all(|&p| rt.is_alive(p)), "2 comms + 4 leaves");
        let comm0 = pos(1, 0);
        assert_eq!(rt.current_children(comm0), vec![pos(2, 0), pos(2, 1)]);
        assert_eq!(rt.current_children(pos(0, 0)), vec![comm0, pos(1, 1)]);
        assert!(rt.mark_dead(comm0), "first mark transitions");
        assert!(!rt.mark_dead(comm0), "second mark is a no-op");
        assert_eq!(rt.dead_nodes(), vec![comm0]);
        assert!(!rt.is_alive(comm0));
        assert!(below_root[1..].iter().all(|&p| rt.is_alive(p)), "only comm0 died");
    }

    #[test]
    fn stats_snapshot_reflects_increments() {
        let s = OverlayStats::default();
        s.add_stale_packets(3);
        s.add_repairs(1);
        let snap = s.snapshot();
        assert_eq!(snap.stale_packets_dropped, 3);
        assert_eq!(snap.repairs_completed, 1);
        assert_eq!(snap.orphans_adopted, 0);
    }
}
