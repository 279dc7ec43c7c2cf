//! The ad hoc rsh-based launcher — the baseline LaunchMON replaces.
//!
//! §2: "Most frequently, [tool developers] combine remote access commands
//! like ssh or rsh with manual protocols to co-locate daemons with an
//! application. Most implementations have the tool front end spawn each
//! remote daemon sequentially; others employ a tree-based protocol allowing
//! daemons that the tool front end launches to spawn children daemons."
//!
//! Both variants are here. The sequential variant is what MRNet 1.x used
//! for STAT, and is the "MRNet 1-deep" curve of Figure 6: each daemon costs
//! a serial connection on the front end, and every session pins front-end
//! fds for the daemon's lifetime — so it *fails outright* once the fd table
//! is exhausted (≈504 live sessions with default limits).

use std::sync::Arc;

use lmon_cluster::process::{Pid, ProcCtx, ProcSpec};
use lmon_cluster::remote::{rsh_spawn, RshError, RshSession};
use lmon_cluster::VirtualCluster;

/// Body type for rsh-launched daemons (no RM fabric: ad hoc daemons get
/// their configuration through argv, the very practice §5.2 criticizes).
pub type RshDaemonBody = Arc<dyn Fn(ProcCtx) + Send + Sync + 'static>;

/// Default tree fan-out for [`RshLauncher::launch`] — wide enough that the
/// front end's rsh cost stays constant-ish, narrow enough to keep fd use
/// far from the §5.2 cliff.
pub const DEFAULT_TREE_FANOUT: usize = 8;

/// The ad hoc launcher.
pub struct RshLauncher {
    cluster: VirtualCluster,
}

/// Result of an ad hoc launch: live sessions (dropping one kills the
/// daemon's stdio link) plus the daemon pids in launch order.
#[derive(Debug)]
pub struct RshLaunchResult {
    /// Live rsh sessions, one per daemon, in launch order.
    pub sessions: Vec<RshSession>,
    /// Daemon pids in launch order.
    pub pids: Vec<Pid>,
}

impl RshLauncher {
    /// A launcher over `cluster`.
    pub fn new(cluster: VirtualCluster) -> Self {
        RshLauncher { cluster }
    }

    /// The cluster handle.
    pub fn cluster(&self) -> &VirtualCluster {
        &self.cluster
    }

    /// The fast default launch path: the tree variant at
    /// [`DEFAULT_TREE_FANOUT`]. [`launch_sequential`] stays available as
    /// the measured comparison baseline (the "MRNet 1-deep" curve).
    ///
    /// [`launch_sequential`]: RshLauncher::launch_sequential
    pub fn launch(
        &self,
        targets: &[(String, ProcSpec)],
        body: RshDaemonBody,
    ) -> Result<RshLaunchResult, (RshError, RshLaunchResult)> {
        self.launch_tree(targets, DEFAULT_TREE_FANOUT, body)
    }

    /// Sequentially launch one daemon per (host, spec) pair, front end
    /// forking one rsh at a time.
    ///
    /// On failure, every already-launched daemon is killed and reaped and
    /// its session closed before the error returns — a failed launch must
    /// never strand daemons (§5.2's "consistently fails" describes the fd
    /// cliff, not licence to leak). The partial result inside the error
    /// records the pids that were spawned-then-reaped, for diagnostics.
    pub fn launch_sequential(
        &self,
        targets: &[(String, ProcSpec)],
        body: RshDaemonBody,
    ) -> Result<RshLaunchResult, (RshError, RshLaunchResult)> {
        let mut out = RshLaunchResult { sessions: Vec::new(), pids: Vec::new() };
        for (host, spec) in targets {
            let body = body.clone();
            match rsh_spawn(&self.cluster, host, spec.clone(), move |ctx| body(ctx)) {
                Ok(session) => {
                    out.pids.push(session.pid());
                    out.sessions.push(session);
                }
                Err(e) => return Err((e, self.reap_partial(out))),
            }
        }
        Ok(out)
    }

    /// Tree-structured ad hoc launch: the front end rsh-spawns the first
    /// `fanout` daemons; each daemon then spawns up to `fanout` children
    /// from its own node (bypassing the front end's fd table, but still
    /// with no RM integration: configuration rides argv).
    ///
    /// Returns pids in BFS order: subtree spawns are placed in waves of
    /// `fanout_width` with pids reserved up front, so placement is
    /// identical to a sequential walk. On failure the partial set is
    /// killed and reaped, as in [`launch_sequential`].
    ///
    /// [`launch_sequential`]: RshLauncher::launch_sequential
    pub fn launch_tree(
        &self,
        targets: &[(String, ProcSpec)],
        fanout_width: usize,
        body: RshDaemonBody,
    ) -> Result<RshLaunchResult, (RshError, RshLaunchResult)> {
        let fanout_width = fanout_width.max(1);
        // BFS layering: index i's children are i*fanout+1 ..= i*fanout+fanout.
        // The front end launches layer-0 roots (indices 0..fanout) over rsh;
        // deeper nodes are spawned directly on their host by their parent's
        // node agent (modelled as a direct cluster spawn).
        let roots = targets.len().min(fanout_width);
        let mut out = self.launch_sequential(&targets[..roots], body.clone())?;

        // Independent subtrees bring their children up in waves of
        // `fanout_width`, one spawn latency each; the pre-reserved pid
        // block keeps the BFS pid order of the serial walk.
        let rest = &targets[roots..];
        let nodes: Result<Vec<_>, _> =
            rest.iter().map(|(host, _)| self.cluster.node_by_host(host).map(|n| n.id)).collect();
        let nodes = match nodes {
            Ok(nodes) => nodes,
            Err(e) => {
                return Err((RshError::RemoteSpawnFailed(e.to_string()), self.reap_partial(out)))
            }
        };
        let block = self.cluster.reserve_pids(rest.len());
        let children = nodes.into_iter().zip(rest).map(|(node_id, (_, spec))| {
            let body = body.clone();
            (node_id, spec.clone(), move |ctx| body(ctx))
        });
        let spawned = self.cluster.spawn_active_waves(&block, fanout_width, children, || false);
        let mut first_err = None;
        for (i, r) in spawned.into_iter().enumerate() {
            match r {
                Ok(()) => out.pids.push(block.pid(i)),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err((RshError::RemoteSpawnFailed(e.to_string()), self.reap_partial(out))),
            None => Ok(out),
        }
    }

    /// Kill and reap every daemon of a partial launch, closing its rsh
    /// sessions. Returns the (now fully terminated) result for diagnostics.
    fn reap_partial(&self, mut partial: RshLaunchResult) -> RshLaunchResult {
        for pid in &partial.pids {
            let _ = self.cluster.kill(*pid);
        }
        for pid in &partial.pids {
            let _ = self.cluster.wait_pid(*pid);
            let _ = self.cluster.join_thread(*pid);
        }
        // Dropping the sessions releases the front end's fds.
        partial.sessions.clear();
        partial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmon_cluster::config::{ClusterConfig, RshConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn cluster(nodes: usize, rsh: RshConfig) -> VirtualCluster {
        let mut cfg = ClusterConfig::with_nodes(nodes);
        cfg.rsh = rsh;
        VirtualCluster::new(cfg)
    }

    /// One `toold` target on each of compute nodes `0..n`.
    fn targets(c: &VirtualCluster, n: usize) -> Vec<(String, ProcSpec)> {
        (0..n).map(|i| (c.config().hostname(i), ProcSpec::named("toold"))).collect()
    }

    #[test]
    fn sequential_launch_places_daemons() {
        let c = cluster(4, RshConfig::default());
        let launcher = RshLauncher::new(c.clone());
        let started = Arc::new(AtomicUsize::new(0));
        let s2 = started.clone();
        let body: RshDaemonBody = Arc::new(move |_ctx| {
            s2.fetch_add(1, Ordering::SeqCst);
        });
        let targets = targets(&c, 4);
        let result = launcher.launch_sequential(&targets, body).unwrap();
        assert_eq!(result.pids.len(), 4);
        for pid in &result.pids {
            c.wait_pid(*pid).unwrap();
        }
        assert_eq!(started.load(Ordering::SeqCst), 4);
        assert_eq!(c.rsh_state().total_connects(), 4);
    }

    #[test]
    fn sequential_launch_fails_at_fd_exhaustion() {
        // Capacity (20-4)/2 = 8; the 9th node fails, like §5.2 at 512.
        let rsh =
            RshConfig { fds_per_session: 2, fe_fd_limit: 20, fe_base_fds: 4, ..Default::default() };
        let c = cluster(16, rsh);
        let launcher = RshLauncher::new(c.clone());
        let body: RshDaemonBody = Arc::new(|ctx| {
            while !ctx.killed() {
                std::thread::park_timeout(Duration::from_millis(1));
            }
        });
        let targets = targets(&c, 16);
        let (err, partial) = launcher.launch_sequential(&targets, body).unwrap_err();
        assert!(matches!(err, RshError::ForkFailed { .. }));
        assert_eq!(partial.pids.len(), 8, "eight daemons were spawned before the cliff");
        // The failed launch cleaned up after itself: sessions closed, every
        // partial daemon killed and reaped.
        assert!(partial.sessions.is_empty(), "sessions must be closed on failure");
        assert_eq!(c.total_live(), 0, "no daemon may survive a failed launch");
    }

    #[test]
    fn mid_launch_fault_leaves_zero_live_daemons() {
        // An injected rsh fault partway through the launch (not fd
        // exhaustion: an arbitrary mid-launch failure) must leave the
        // cluster with zero live daemons and zero held rsh fds.
        let c = cluster(8, RshConfig::default());
        c.rsh_state()
            .install_fault_plan(lmon_cluster::SpawnFaultPlan::new().fail_host("node00005"));
        let launcher = RshLauncher::new(c.clone());
        let body: RshDaemonBody = Arc::new(|ctx| {
            while !ctx.killed() {
                std::thread::park_timeout(Duration::from_millis(1));
            }
        });
        let targets = targets(&c, 8);
        let (_err, partial) = launcher.launch_sequential(&targets, body).unwrap_err();
        assert_eq!(partial.pids.len(), 5, "five daemons preceded the faulted host");
        assert!(partial.sessions.is_empty());
        assert_eq!(c.total_live(), 0, "mid-launch fault must strand nothing");
        assert_eq!(c.rsh_state().live_sessions(), 0, "all rsh fds released");
    }

    #[test]
    fn tree_launch_spares_front_end_fds() {
        // Same tight fd budget, but fanout-4 tree only holds 4 FE sessions.
        let rsh =
            RshConfig { fds_per_session: 2, fe_fd_limit: 20, fe_base_fds: 4, ..Default::default() };
        let c = cluster(16, rsh);
        let launcher = RshLauncher::new(c.clone());
        let started = Arc::new(AtomicUsize::new(0));
        let s2 = started.clone();
        let body: RshDaemonBody = Arc::new(move |_ctx| {
            s2.fetch_add(1, Ordering::SeqCst);
        });
        let targets = targets(&c, 16);
        let result = launcher.launch_tree(&targets, 4, body).unwrap();
        assert_eq!(result.pids.len(), 16);
        assert_eq!(result.sessions.len(), 4, "only roots hold FE sessions");
        for pid in &result.pids {
            c.wait_pid(*pid).unwrap();
        }
        assert_eq!(started.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn default_launch_is_the_tree_variant() {
        let c = cluster(16, RshConfig::default());
        let launcher = RshLauncher::new(c.clone());
        let body: RshDaemonBody = Arc::new(|_ctx| {});
        let targets = targets(&c, 16);
        let result = launcher.launch(&targets, body).unwrap();
        assert_eq!(result.pids.len(), 16);
        assert_eq!(
            result.sessions.len(),
            DEFAULT_TREE_FANOUT,
            "default launch holds only root sessions on the front end"
        );
        for pid in &result.pids {
            c.wait_pid(*pid).unwrap();
        }
    }
}
