//! Federated multi-group overlays (DESIGN.md §13).
//!
//! One TBON bounds every node's connectivity by its designed fan-out, but
//! a single tree still funnels the whole machine through one front end.
//! The federation layer partitions a cluster into *named groups* — each an
//! independent overlay with its own hot-spare pool — and joins them with a
//! thin inter-group router, the way SD-Erlang's `s_groups` bound
//! connectivity at scale: a node holds O(group) tree links plus, for the
//! one gateway comm per group, O(groups) router links. No node ever holds
//! O(cluster) connections.
//!
//! Inter-group state is exchanged as epoch-stamped [`GroupRoute`] entries,
//! generalizing the PR 5 repair rule across group boundaries: the router
//! keeps a federation epoch, bumped whenever group membership changes (a
//! group FE failover, a re-attach), and publishes stamped with a
//! superseded epoch are counted and dropped, never applied. Within a
//! group the existing [`RouteTable`](crate::RouteTable) + repair machinery
//! is untouched — the router only needs to know *that* a group healed
//! (its entry's overlay epoch moved), not how.

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::error::{TbonError, TbonResult};
use crate::overlay::FrontEndpoint;
use crate::spec::{NodePos, TopologySpec};

/// A federation spec: `N` identical bounded-connectivity groups.
///
/// Grammar: `<topology-spec> * <N>g`, e.g. `"1x8x64+8 * 4g"` — four
/// groups, each a `1x8x64` tree with 8 hot spares. Whitespace around the
/// `*` is optional; a bare topology spec parses as a single group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FederationSpec {
    group: TopologySpec,
    groups: u32,
}

impl FederationSpec {
    /// Parse `"1x8x64+8 * 4g"` (also accepts a bare `"1x8x64"` as one
    /// group).
    pub fn parse(s: &str) -> TbonResult<Self> {
        match s.split_once('*') {
            Some((tree, count)) => {
                let count = count.trim();
                let digits = count.strip_suffix(['g', 'G']).ok_or_else(|| {
                    TbonError::BadSpec(format!("group count must end in `g` in `{s}`"))
                })?;
                let groups: u32 = digits
                    .trim()
                    .parse()
                    .map_err(|_| TbonError::BadSpec(format!("non-numeric group count in `{s}`")))?;
                if groups == 0 {
                    return Err(TbonError::BadSpec(format!("zero groups in `{s}`")));
                }
                Ok(FederationSpec { group: TopologySpec::parse(tree.trim())?, groups })
            }
            None => Ok(FederationSpec { group: TopologySpec::parse(s.trim())?, groups: 1 }),
        }
    }

    /// The per-group topology.
    pub fn group_spec(&self) -> &TopologySpec {
        &self.group
    }

    /// Number of groups.
    pub fn group_count(&self) -> u32 {
        self.groups
    }

    /// Total leaves across every group.
    pub fn total_leaves(&self) -> u64 {
        self.group.leaf_count() as u64 * self.groups as u64
    }

    /// The designated gateway comm of each group: the first interior comm
    /// daemon (`(1, 0)`), or the group root itself for 1-deep groups that
    /// have no interior level.
    pub fn gateway_pos(&self) -> NodePos {
        if self.group.depth() > 2 {
            NodePos { level: 1, index: 0 }
        } else {
            NodePos { level: 0, index: 0 }
        }
    }

    /// Router links the gateway comm holds: one per sibling group.
    pub fn gateway_links(&self) -> usize {
        self.groups.saturating_sub(1) as usize
    }

    /// The in-group connection bound for a node at `level`: the repair
    /// machinery never inflates a parent past twice its designed fan-out
    /// (children), plus the one up-link to its own parent. The gateway
    /// comm additionally carries [`FederationSpec::gateway_links`].
    pub fn connection_bound(&self, level: u32) -> usize {
        let children = 2 * self.group.base_fanout(level).max(1);
        if level == 0 {
            // The root has no parent link.
            children
        } else {
            children + 1
        }
    }

    /// Render back to the `1x8x64+8 * 4g` form (bare topology for one
    /// group).
    pub fn to_spec_string(&self) -> String {
        if self.groups == 1 {
            self.group.to_spec_string()
        } else {
            format!("{} * {}g", self.group.to_spec_string(), self.groups)
        }
    }
}

/// One group's epoch-stamped entry in the inter-group routing exchange.
///
/// Gateways publish these; the router applies the PR 5 staleness rule
/// (entries stamped with a superseded federation epoch are dropped and
/// counted, never applied), so a deposed group FE cannot re-assert a
/// route after its group failed over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupRoute {
    /// Group index.
    pub group: u32,
    /// Federation epoch this entry was published under.
    pub epoch: u64,
    /// The group's internal overlay epoch at publish time (moves on every
    /// in-group repair; the router records but never interprets it).
    pub overlay_epoch: u64,
    /// The group-local position of the publishing gateway comm.
    pub gateway: NodePos,
    /// Leaves the group currently serves.
    pub leaves: u32,
    /// Whether the group is attached and routable.
    pub alive: bool,
}

/// Counters the router keeps (the federation analogue of
/// [`OverlayStatsSnapshot`](crate::OverlayStatsSnapshot)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStatsSnapshot {
    /// Current federation epoch.
    pub epoch: u64,
    /// Entries accepted.
    pub published: u64,
    /// Entries dropped for carrying a superseded federation epoch.
    pub stale_dropped: u64,
    /// Whole-group failovers recorded.
    pub failovers: u64,
}

struct RouterInner {
    epoch: u64,
    routes: HashMap<u32, GroupRoute>,
    published: u64,
    stale_dropped: u64,
    failovers: u64,
}

/// The thin inter-group router: a shared, epoch-guarded table of
/// [`GroupRoute`] entries. Deliberately *not* a forwarding plane — data
/// stays inside each group's tree; the router only answers "which gateway
/// serves group g, and under which epoch".
pub struct FederationRouter {
    inner: Mutex<RouterInner>,
}

impl Default for FederationRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl FederationRouter {
    /// An empty router at federation epoch 0.
    pub fn new() -> Self {
        FederationRouter {
            inner: Mutex::new(RouterInner {
                epoch: 0,
                routes: HashMap::new(),
                published: 0,
                stale_dropped: 0,
                failovers: 0,
            }),
        }
    }

    /// The current federation epoch (bumped by every membership change).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Publish one gateway's entry. Accepted iff it is stamped with the
    /// current federation epoch or newer (a publish may carry a bumped
    /// epoch and thereby advance the router); stale entries are dropped
    /// and counted, exactly like pre-repair packets inside a group.
    /// Returns whether the entry was applied.
    pub fn publish(&self, route: GroupRoute) -> bool {
        let mut inner = self.inner.lock();
        if route.epoch < inner.epoch {
            inner.stale_dropped += 1;
            return false;
        }
        inner.epoch = route.epoch;
        inner.published += 1;
        inner.routes.insert(route.group, route);
        true
    }

    /// Record a whole-group failure: bump the federation epoch and mark
    /// the group's entry dead under it. Every entry published under the
    /// old epoch — including any late publish from the failed group's
    /// deposed FE — is stale from this moment on. Returns the new epoch.
    pub fn fail_group(&self, group: u32) -> u64 {
        let mut inner = self.inner.lock();
        inner.epoch += 1;
        inner.failovers += 1;
        let epoch = inner.epoch;
        if let Some(r) = inner.routes.get_mut(&group) {
            r.alive = false;
            r.epoch = epoch;
        }
        epoch
    }

    /// The current entry for `group`, if any.
    pub fn route(&self, group: u32) -> Option<GroupRoute> {
        self.inner.lock().routes.get(&group).cloned()
    }

    /// All current entries, in group order.
    pub fn routes(&self) -> Vec<GroupRoute> {
        let mut v: Vec<GroupRoute> = self.inner.lock().routes.values().cloned().collect();
        v.sort_by_key(|r| r.group);
        v
    }

    /// Groups currently attached and alive, in order.
    pub fn live_groups(&self) -> Vec<u32> {
        let mut v: Vec<u32> =
            self.inner.lock().routes.values().filter(|r| r.alive).map(|r| r.group).collect();
        v.sort_unstable();
        v
    }

    /// What `group`'s gateway learns from one routing exchange: every
    /// *other* group's current entry, in group order.
    pub fn exchange(&self, group: u32) -> Vec<GroupRoute> {
        let mut v: Vec<GroupRoute> =
            self.inner.lock().routes.values().filter(|r| r.group != group).cloned().collect();
        v.sort_by_key(|r| r.group);
        v
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RouterStatsSnapshot {
        let inner = self.inner.lock();
        RouterStatsSnapshot {
            epoch: inner.epoch,
            published: inner.published,
            stale_dropped: inner.stale_dropped,
            failovers: inner.failovers,
        }
    }
}

/// The entry a freshly built (or rebuilt) group publishes on attach,
/// stamped with the federation epoch it attaches under (`fed_epoch` — the
/// router's current epoch at build time, a bumped one on re-attach).
pub fn initial_route(
    spec: &FederationSpec,
    group: u32,
    front: &FrontEndpoint,
    fed_epoch: u64,
) -> GroupRoute {
    GroupRoute {
        group,
        epoch: fed_epoch,
        overlay_epoch: front.route_table().epoch(),
        gateway: spec.gateway_pos(),
        leaves: spec.group_spec().leaf_count(),
        alive: true,
    }
}

/// One node's connection accounting line: current link count vs. its
/// bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionAccount {
    /// Group index.
    pub group: u32,
    /// Group-local position.
    pub pos: NodePos,
    /// Links currently held: children + parent up-link (+ router links on
    /// the gateway comm).
    pub links: usize,
    /// The bound: [`FederationSpec::connection_bound`] for the node's
    /// level, plus [`FederationSpec::gateway_links`] on the gateway.
    pub bound: usize,
}

/// Account every routed node of `group`'s overlay against its bound.
///
/// This is the chaos suite's O(cluster)-connectivity assertion: even
/// after repairs, failovers, and re-attaches, `links <= bound` must hold
/// for every node — the federation never concentrates connectivity.
pub fn account_connections(
    spec: &FederationSpec,
    group: u32,
    front: &FrontEndpoint,
) -> Vec<ConnectionAccount> {
    let gateway = spec.gateway_pos();
    let route = front.route_table();
    let rt = route.lock();
    let mut out: Vec<ConnectionAccount> = rt
        .nodes
        .iter()
        .map(|(pos, node)| {
            let mut links = node.children.len() + usize::from(node.parent.is_some());
            let mut bound = spec.connection_bound(pos.level);
            if *pos == gateway {
                links += spec.gateway_links();
                bound += spec.gateway_links();
            }
            ConnectionAccount { group, pos: *pos, links, bound }
        })
        .collect();
    out.sort_by_key(|a| a.pos);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_roundtrip() {
        let fed = FederationSpec::parse("1x8x64+8 * 4g").unwrap();
        assert_eq!(fed.group_count(), 4);
        assert_eq!(fed.group_spec().leaf_count(), 64);
        assert_eq!(fed.group_spec().spares(), 8);
        assert_eq!(fed.total_leaves(), 256);
        assert_eq!(fed.to_spec_string(), "1x8x64+8 * 4g");
        // Compact form and case-insensitive `g`.
        assert_eq!(FederationSpec::parse("1x4x16*2G").unwrap().group_count(), 2);
        // A bare topology is one group and renders bare.
        let solo = FederationSpec::parse("1x4x16").unwrap();
        assert_eq!(solo.group_count(), 1);
        assert_eq!(solo.to_spec_string(), "1x4x16");
    }

    #[test]
    fn spec_rejects_malformed() {
        for s in ["1x4x16 * 0g", "1x4x16 * g", "1x4x16 * 4", "1x4x16 * xg", "0x4 * 2g"] {
            assert!(FederationSpec::parse(s).is_err(), "`{s}` should fail");
        }
    }

    #[test]
    fn gateway_and_bounds() {
        let fed = FederationSpec::parse("1x4x16+4 * 4g").unwrap();
        assert_eq!(fed.gateway_pos(), NodePos { level: 1, index: 0 });
        assert_eq!(fed.gateway_links(), 3);
        // Interior comm: 2 * designed fan-out children + 1 parent link.
        assert_eq!(fed.connection_bound(1), 2 * 4 + 1);
        // Root: no parent link.
        assert_eq!(fed.connection_bound(0), 2 * 4);
        // 1-deep groups gateway at the root.
        let flat = FederationSpec::parse("1x16 * 2g").unwrap();
        assert_eq!(flat.gateway_pos(), NodePos { level: 0, index: 0 });
    }

    #[test]
    fn router_drops_stale_epochs() {
        let router = FederationRouter::new();
        let entry = |group: u32, epoch: u64| GroupRoute {
            group,
            epoch,
            overlay_epoch: 0,
            gateway: NodePos { level: 1, index: 0 },
            leaves: 64,
            alive: true,
        };
        assert!(router.publish(entry(0, 0)));
        assert!(router.publish(entry(1, 0)));
        let epoch = router.fail_group(0);
        assert_eq!(epoch, 1);
        // The deposed FE's late publish carries the old epoch: dropped.
        assert!(!router.publish(entry(0, 0)));
        assert_eq!(router.stats().stale_dropped, 1);
        assert!(!router.route(0).unwrap().alive);
        assert_eq!(router.live_groups(), vec![1]);
        // The rebuilt group re-attaches under the bumped epoch.
        assert!(router.publish(entry(0, epoch)));
        assert_eq!(router.live_groups(), vec![0, 1]);
        assert_eq!(router.stats().failovers, 1);
        // A sibling's exchange sees the re-attached entry, not itself.
        let seen = router.exchange(1);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].group, 0);
        assert!(seen[0].alive);
    }
}
