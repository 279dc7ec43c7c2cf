//! Live (thread-backed) federated overlays: N groups of [`LiveOverlay`]
//! joined through a shared [`FederationRouter`] (DESIGN.md §13).
//!
//! The chaos suite and the `federation_routing` bench share this harness
//! for whole-group kill-and-re-attach runs:
//!
//! ```
//! use lmon_testkit::LiveFederation;
//! use std::time::Duration;
//!
//! let mut fed = LiveFederation::launch_echo("1x2x4 * 2g");
//! let epoch = fed.fail_group(1); // FE of g1 dies; federation epoch bumps
//! fed.reattach_group(1); // rebuilt overlay publishes under `epoch`
//! assert_eq!(fed.router().live_groups(), vec![0, 1]);
//! fed.shutdown();
//! ```

use std::sync::Arc;
use std::time::Duration;

use lmon_tbon::federation::{account_connections, initial_route};
use lmon_tbon::overlay::FrontEndpoint;
use lmon_tbon::{ConnectionAccount, FederationRouter, FederationSpec};

use crate::live::LiveOverlay;
use crate::plan::FaultPlan;

/// How long each group gets to wire all leaves at (re-)attach.
const ATTACH_TIMEOUT: Duration = Duration::from_secs(10);

/// A federation of live overlays: one [`LiveOverlay`] per group plus the
/// shared inter-group [`FederationRouter`], with every group's initial
/// route published. Groups can be killed abruptly ([`fail_group`]) and
/// rebuilt ([`reattach_group`]) under a bumped federation epoch.
///
/// [`fail_group`]: LiveFederation::fail_group
/// [`reattach_group`]: LiveFederation::reattach_group
pub struct LiveFederation {
    spec: FederationSpec,
    router: Arc<FederationRouter>,
    /// `None` while a group is failed (between `fail_group` and
    /// `reattach_group`).
    groups: Vec<Option<LiveOverlay>>,
}

impl LiveFederation {
    /// Parse `spec` (`"1x2x4 * 4g"`), launch one echo overlay per group,
    /// wait for every leaf, and publish each group's initial route.
    ///
    /// Panics on an invalid spec or an attach timeout, like
    /// [`LiveOverlay::launch_echo`].
    pub fn launch_echo(spec: &str) -> Self {
        let spec = FederationSpec::parse(spec)
            .unwrap_or_else(|e| panic!("LiveFederation::launch_echo: invalid spec: {e}"));
        let router = Arc::new(FederationRouter::new());
        let groups = (0..spec.group_count())
            .map(|g| {
                let live = attach_group(&spec, g, &router, router.epoch());
                Some(live)
            })
            .collect();
        LiveFederation { spec, router, groups }
    }

    /// The federation spec this harness was launched from.
    pub fn spec(&self) -> &FederationSpec {
        &self.spec
    }

    /// The shared inter-group router.
    pub fn router(&self) -> &Arc<FederationRouter> {
        &self.router
    }

    /// Group `g`'s front endpoint. Panics if the group is currently
    /// failed.
    pub fn front(&mut self, g: u32) -> &mut FrontEndpoint {
        &mut self.groups[g as usize].as_mut().unwrap_or_else(|| panic!("group {g} is down")).front
    }

    /// Kill group `g` abruptly: drop its overlay without a shutdown wave
    /// (the FE process dies; comm and leaf threads unwind on channel
    /// closure) and record the failure with the router. Returns the bumped
    /// federation epoch the rebuilt group must publish under.
    pub fn fail_group(&mut self, g: u32) -> u64 {
        let live =
            self.groups[g as usize].take().unwrap_or_else(|| panic!("group {g} already down"));
        drop(live); // no shutdown(): models a hard FE kill
        self.router.fail_group(g)
    }

    /// Rebuild a failed group and publish its route under the current
    /// (post-failure) federation epoch. Returns that epoch.
    pub fn reattach_group(&mut self, g: u32) -> u64 {
        assert!(self.groups[g as usize].is_none(), "group {g} is still attached");
        let epoch = self.router.epoch();
        let live = attach_group(&self.spec, g, &self.router, epoch);
        self.groups[g as usize] = Some(live);
        epoch
    }

    /// Connection accounting for every node of every *live* group: the
    /// chaos suite's no-concentration assertion feeds on this.
    pub fn accounts(&self) -> Vec<ConnectionAccount> {
        self.groups
            .iter()
            .enumerate()
            .filter_map(|(g, slot)| slot.as_ref().map(|live| (g as u32, live)))
            .flat_map(|(g, live)| account_connections(&self.spec, g, &live.front))
            .collect()
    }

    /// Tear down every live group cleanly.
    pub fn shutdown(mut self) {
        for slot in &mut self.groups {
            if let Some(live) = slot.take() {
                live.shutdown();
            }
        }
    }
}

/// Launch one group's echo overlay, await its leaves, and publish its
/// route stamped with `fed_epoch`.
fn attach_group(
    spec: &FederationSpec,
    g: u32,
    router: &Arc<FederationRouter>,
    fed_epoch: u64,
) -> LiveOverlay {
    let mut live = LiveOverlay::launch_echo(&spec.group_spec().to_spec_string(), &FaultPlan::new());
    live.front
        .await_connections(spec.group_spec().leaf_count(), ATTACH_TIMEOUT)
        .unwrap_or_else(|e| panic!("group {g} attach: {e}"));
    router.publish(initial_route(spec, g, &live.front, fed_epoch));
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmon_tbon::FilterKind;

    fn probe(front: &mut FrontEndpoint, leaves: usize) {
        let stream = front.open_stream(FilterKind::Concat).unwrap();
        front.broadcast(stream, 0, vec![]).unwrap();
        let pkt = front.gather(stream, 0, Duration::from_secs(5)).unwrap();
        assert_eq!(pkt.payload.len(), leaves);
    }

    #[test]
    fn federation_launches_and_probes_every_group() {
        let mut fed = LiveFederation::launch_echo("1x2x4 * 3g");
        assert_eq!(fed.router().live_groups(), vec![0, 1, 2]);
        assert_eq!(fed.router().stats().published, 3);
        for g in 0..3 {
            probe(fed.front(g), 4);
        }
        let accounts = fed.accounts();
        assert_eq!(accounts.len(), 3 * 7); // root + 2 comms + 4 leaves per group
        for a in &accounts {
            assert!(a.links <= a.bound, "{a:?} over bound");
        }
        // The gateway comm is the only node carrying router links: its two
        // children and one parent link, plus one link per sibling group.
        let gateway = fed.spec().gateway_pos();
        for gw in accounts.iter().filter(|a| a.pos == gateway) {
            assert_eq!(gw.links, 2 + 1 + fed.spec().gateway_links());
        }
        fed.shutdown();
    }

    #[test]
    fn group_kill_and_reattach_bumps_epoch_and_restores_routing() {
        let mut fed = LiveFederation::launch_echo("1x2x4 * 2g");
        let stale = initial_route(fed.spec(), 1, &fed.groups[1].as_ref().unwrap().front, 0);
        let epoch = fed.fail_group(1);
        assert_eq!(epoch, 1);
        assert_eq!(fed.router().live_groups(), vec![0]);
        // The deposed FE's late publish is stale: counted, never applied.
        assert!(!fed.router().publish(stale));
        assert_eq!(fed.router().stats().stale_dropped, 1);
        // Survivors keep working through the whole failover.
        probe(fed.front(0), 4);
        assert_eq!(fed.reattach_group(1), epoch);
        assert_eq!(fed.router().live_groups(), vec![0, 1]);
        probe(fed.front(1), 4);
        for a in fed.accounts() {
            assert!(a.links <= a.bound, "{a:?} over bound after re-attach");
        }
        fed.shutdown();
    }
}
