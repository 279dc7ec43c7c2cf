//! TBON instantiation: the ad hoc path Figure 6 measures against LaunchMON.
//!
//! §5.2: "MRNet itself relies on a manual process to specify the target
//! nodes and uses remote access protocols like ssh or rsh, which reduces
//! the usage threshold of STAT as well as its portability."
//!
//! [`bootstrap_adhoc`] reproduces that path: the front end *sequentially*
//! rsh-forks one process per communication daemon and per leaf daemon,
//! keeping every session open as the daemon's stdio link. Cost is linear in
//! daemon count on the front end, and the whole launch fails outright when
//! the front end's fd table is exhausted — at ≈504 live sessions with
//! Atlas-era limits, matching the paper's consistent failure at 512 nodes.
//!
//! The LaunchMON path (used by `lmon-tools::stat`) does not appear here: it
//! launches the very same leaf daemon bodies through
//! `LmonFrontEnd::launch_and_spawn`, and broadcasts "MRNet communication
//! tree information from the front end to the daemons" (§5.2) as
//! piggybacked LMONP user data.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{TbonError, TbonResult};
use crate::filter::FilterRegistry;
use crate::overlay::{CommFault, CommHarness, FrontEndpoint, LeafEndpoint, Overlay};
use crate::spec::TopologySpec;
use lmon_cluster::process::{Pid, ProcCtx, ProcSpec};
use lmon_cluster::remote::RshSession;
use lmon_cluster::VirtualCluster;

/// What each leaf daemon runs: its whole body, connect hello included
/// (normally [`LeafEndpoint::serve`] around the tool's sampling code).
pub type LeafMain = Arc<dyn Fn(LeafEndpoint, &ProcCtx) + Send + Sync + 'static>;

/// A TBON instantiated over the virtual cluster by the ad hoc launcher.
pub struct AdhocNet {
    /// The front-end endpoint.
    pub front: FrontEndpoint,
    /// Live rsh sessions pinning front-end fds (comm daemons first, then
    /// leaves, in launch order).
    pub sessions: Vec<RshSession>,
    /// Daemon pids in launch order.
    pub pids: Vec<Pid>,
}

impl std::fmt::Debug for AdhocNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdhocNet")
            .field("daemons", &self.pids.len())
            .field("live_sessions", &self.sessions.len())
            .finish()
    }
}

impl AdhocNet {
    /// Shut the overlay down and drop the rsh sessions.
    pub fn shutdown(mut self, cluster: &VirtualCluster) {
        self.front.shutdown();
        for pid in &self.pids {
            let _ = cluster.wait_pid(*pid);
            let _ = cluster.join_thread(*pid);
        }
        self.sessions.clear();
    }
}

/// Launch a TBON the way MRNet 1.x did: one sequential rsh per daemon.
///
/// `comm_hosts` receives the internal daemons (ignored for 1-deep specs),
/// `leaf_hosts` the tool daemons — one per leaf, typically the nodes of the
/// target job. Fails with [`TbonError::LaunchFailed`] when the front end
/// cannot fork another rsh; stranded daemons are cleaned up before
/// returning, but the fds consumed by still-live sessions are the caller's
/// to release (drop the error's partial state).
pub fn bootstrap_adhoc(
    cluster: &VirtualCluster,
    spec: &TopologySpec,
    comm_hosts: &[String],
    leaf_hosts: &[String],
    registry: FilterRegistry,
    leaf_main: LeafMain,
) -> TbonResult<AdhocNet> {
    if leaf_hosts.len() != spec.leaf_count() as usize {
        return Err(TbonError::LaunchFailed(format!(
            "spec wants {} leaves, got {} hosts",
            spec.leaf_count(),
            leaf_hosts.len()
        )));
    }
    if comm_hosts.len() < spec.comm_count() as usize {
        return Err(TbonError::LaunchFailed(format!(
            "spec wants {} comm daemons, got {} hosts",
            spec.comm_count(),
            comm_hosts.len()
        )));
    }

    let overlay = Overlay::build(spec, registry);

    // Every daemon is pre-wired into the overlay by `Overlay::build`, so
    // subtrees are independent at spawn time: comm daemons at any level and
    // leaves can come up in any order. The *order-sensitive* parts — fd
    // charging, the fault-plan attempt index — happen in the sequential
    // admission pass below; the expensive part (connect latency plus
    // daemon-thread creation) is then fanned out over a bounded pool, with
    // pids reserved in launch order so the result is indistinguishable from
    // the serial walk.
    enum Daemon {
        Comm(CommHarness),
        Leaf(LeafEndpoint),
    }
    let daemons: Vec<(Daemon, &String)> = overlay
        .comm
        .into_iter()
        .map(Daemon::Comm)
        .zip(comm_hosts)
        .chain(overlay.leaves.into_iter().map(Daemon::Leaf).zip(leaf_hosts))
        .collect();

    // Admission pass: strictly sequential, comm daemons first then leaves.
    let mut tickets = Vec::with_capacity(daemons.len());
    for (d, host) in &daemons {
        match lmon_cluster::remote::rsh_admit(cluster, host) {
            Ok(t) => tickets.push(t),
            Err(e) => {
                // Nothing spawned yet: dropping the tickets releases fds.
                let kind = match d {
                    Daemon::Comm(_) => "comm",
                    Daemon::Leaf(_) => "leaf",
                };
                return Err(TbonError::LaunchFailed(format!("{kind} daemon on {host}: {e}")));
            }
        }
    }

    // Spawn pass: independent subtrees bring their daemons up concurrently.
    let block = cluster.reserve_pids(daemons.len());
    let work: Vec<_> = tickets.into_iter().zip(daemons).collect();
    #[allow(clippy::disallowed_methods, reason = "last pool user, until it moves onto waves")]
    let spawned = lmon_cluster::fanout::fanout(
        work,
        lmon_cluster::DEFAULT_LAUNCH_WORKERS,
        |i, (ticket, (daemon, _host))| match daemon {
            Daemon::Comm(harness) => {
                let slot = Arc::new(Mutex::new(Some(harness)));
                let spec_proc = ProcSpec::named("mrnet_commnode").arg(format!(
                    "--level={}",
                    slot.lock().as_ref().expect("fresh slot").pos.level
                ));
                let body = move |_ctx: ProcCtx| {
                    if let Some(harness) = slot.lock().take() {
                        harness.run(CommFault::none());
                    }
                };
                ticket.spawn_with_pid(block.pid(i), spec_proc, body)
            }
            Daemon::Leaf(leaf) => {
                let slot = Arc::new(Mutex::new(Some(leaf)));
                let main = leaf_main.clone();
                let spec_proc = ProcSpec::named("mrnet_leafd").arg(format!(
                    "--leaf={}",
                    slot.lock().as_ref().expect("fresh slot").leaf_index
                ));
                let body = move |ctx: ProcCtx| {
                    if let Some(leaf) = slot.lock().take() {
                        main(leaf, &ctx);
                    }
                };
                ticket.spawn_with_pid(block.pid(i), spec_proc, body)
            }
        },
    );

    let mut sessions = Vec::with_capacity(spawned.len());
    let mut pids = Vec::with_capacity(spawned.len());
    let mut first_err = None;
    for r in spawned {
        match r {
            Ok(session) => {
                pids.push(session.pid());
                sessions.push(session);
            }
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        cleanup(cluster, &pids);
        sessions.clear();
        return Err(TbonError::LaunchFailed(format!("daemon spawn: {e}")));
    }

    Ok(AdhocNet { front: overlay.front, sessions, pids })
}

/// Kill and reap a partial daemon set; nothing may outlive a failed launch.
fn cleanup(cluster: &VirtualCluster, pids: &[Pid]) {
    for pid in pids {
        let _ = cluster.kill(*pid);
    }
    for pid in pids {
        let _ = cluster.wait_pid(*pid);
        let _ = cluster.join_thread(*pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmon_cluster::config::{ClusterConfig, RshConfig};
    use lmon_cluster::VirtualCluster;
    use std::time::Duration;

    fn echo_leaf() -> LeafMain {
        Arc::new(|leaf, _ctx| leaf.serve_echo())
    }

    #[test]
    fn adhoc_one_deep_connects_and_gathers() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(6));
        let spec = TopologySpec::one_deep(6);
        let hosts: Vec<String> = (0..6).map(|i| cluster.config().hostname(i)).collect();
        let mut net =
            bootstrap_adhoc(&cluster, &spec, &[], &hosts, FilterRegistry::new(), echo_leaf())
                .expect("adhoc bootstrap");
        let ids = net.front.await_connections(6, Duration::from_secs(5)).unwrap();
        assert_eq!(ids.len(), 6);
        assert_eq!(cluster.rsh_state().total_connects(), 6, "one rsh per daemon");

        let stream = net.front.open_stream(crate::filter::FilterKind::Concat).unwrap();
        net.front.broadcast(stream, 0, vec![]).unwrap();
        let pkt = net.front.gather(stream, 0, Duration::from_secs(5)).unwrap();
        assert_eq!(pkt.payload.len(), 6);
        net.shutdown(&cluster);
        assert_eq!(cluster.rsh_state().live_sessions(), 0);
    }

    #[test]
    fn adhoc_with_comm_level_uses_extra_rsh_sessions() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(8));
        let spec = TopologySpec::parse("1x2x6").unwrap();
        let comm_hosts: Vec<String> = (6..8).map(|i| cluster.config().hostname(i)).collect();
        let leaf_hosts: Vec<String> = (0..6).map(|i| cluster.config().hostname(i)).collect();
        let mut net = bootstrap_adhoc(
            &cluster,
            &spec,
            &comm_hosts,
            &leaf_hosts,
            FilterRegistry::new(),
            echo_leaf(),
        )
        .unwrap();
        net.front.await_connections(6, Duration::from_secs(5)).unwrap();
        assert_eq!(cluster.rsh_state().total_connects(), 8, "2 comm + 6 leaves");
        net.shutdown(&cluster);
    }

    #[test]
    fn adhoc_fails_at_fd_exhaustion_like_figure_6() {
        // Budget for only 5 sessions; a 8-leaf 1-deep TBON must fail.
        let mut cfg = ClusterConfig::with_nodes(8);
        cfg.rsh =
            RshConfig { fds_per_session: 2, fe_fd_limit: 14, fe_base_fds: 4, ..Default::default() };
        let cluster = VirtualCluster::new(cfg);
        let spec = TopologySpec::one_deep(8);
        let hosts: Vec<String> = (0..8).map(|i| cluster.config().hostname(i)).collect();
        let err = bootstrap_adhoc(&cluster, &spec, &[], &hosts, FilterRegistry::new(), echo_leaf())
            .unwrap_err();
        assert!(matches!(err, TbonError::LaunchFailed(_)));
        assert!(err.to_string().contains("fork failed"), "{err}");
        assert_eq!(cluster.rsh_state().failed_connects(), 1);
    }

    #[test]
    fn host_count_mismatches_rejected() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(4));
        let spec = TopologySpec::parse("1x2x4").unwrap();
        let hosts: Vec<String> = (0..4).map(|i| cluster.config().hostname(i)).collect();
        // Missing comm hosts.
        assert!(bootstrap_adhoc(&cluster, &spec, &[], &hosts, FilterRegistry::new(), echo_leaf())
            .is_err());
        // Wrong leaf count.
        assert!(bootstrap_adhoc(
            &cluster,
            &TopologySpec::one_deep(3),
            &[],
            &hosts,
            FilterRegistry::new(),
            echo_leaf()
        )
        .is_err());
    }
}
