//! The STAT front end: both startup paths of Figure 6.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lmon_cluster::process::Pid;
use lmon_cluster::VirtualCluster;
use lmon_core::fe::LmonFrontEnd;
use lmon_core::LmonResult;
use lmon_tbon::bootstrap::{bootstrap_adhoc, LeafMain};
use lmon_tbon::filter::{FilterKind, FilterRegistry};
use lmon_tbon::overlay::LeafEndpoint;
use lmon_tbon::spec::TopologySpec;
use lmon_tbon::{Packet, TbonError};

use crate::launchmon_overlay::{with_attached_overlay, Answers, OverlaySetup, CONNECT_TIMEOUT};
use crate::stat::trace::synth_trace;
use crate::stat::tree::{merge_filter, EquivClass, PrefixTree};
use crate::stat::{SAMPLE_TAG, STAT_MERGE_FILTER};

/// Result of one STAT gather.
#[derive(Debug)]
pub struct StatOutcome {
    /// Launch-and-connect time: start → every daemon attached to the tree
    /// (the Figure 6 metric).
    pub connect_time: Duration,
    /// Total time including the sample wave and merge.
    pub total_time: Duration,
    /// The merged call-graph prefix tree.
    pub tree: PrefixTree,
    /// Equivalence classes extracted from the tree.
    pub classes: Vec<EquivClass>,
    /// rsh connections consumed (0 for the LaunchMON path).
    pub rsh_connects: u64,
}

fn stat_registry() -> FilterRegistry {
    let mut registry = FilterRegistry::new();
    registry.register(STAT_MERGE_FILTER, Arc::new(merge_filter));
    registry
}

/// Sample every task rank in `ranks` into a serialized partial tree.
fn sample_ranks(ranks: &[u32], total: u32) -> Vec<u8> {
    let mut tree = PrefixTree::new();
    for &rank in ranks {
        tree.insert(&synth_trace(rank, total), rank);
    }
    tree.to_bytes()
}

/// Run one sample wave from an already-connected front endpoint.
fn sample_wave(
    front: &mut lmon_tbon::overlay::FrontEndpoint,
    timeout: Duration,
) -> Result<PrefixTree, TbonError> {
    let stream = front.open_stream(FilterKind::Custom(STAT_MERGE_FILTER))?;
    front.broadcast(stream, SAMPLE_TAG, b"SAMPLE".to_vec())?;
    let pkt = front.gather(stream, SAMPLE_TAG, timeout)?;
    PrefixTree::from_bytes(&pkt.payload).map_err(TbonError::LaunchFailed)
}

// ---------------------------------------------------------------------------
// Ad hoc (original MRNet) startup
// ---------------------------------------------------------------------------

/// STAT with the native MRNet startup: sequential rsh launch of sampling
/// daemons onto explicitly listed hosts; daemons discover tasks by scanning
/// their node's process table.
pub fn run_stat_adhoc(
    cluster: &VirtualCluster,
    hosts: &[String],
    total_tasks: u32,
) -> Result<StatOutcome, TbonError> {
    let t0 = Instant::now();
    let connects_before = cluster.rsh_state().total_connects();
    let spec = TopologySpec::one_deep(hosts.len() as u32);

    let leaf_main: LeafMain = Arc::new(move |leaf: LeafEndpoint, ctx| {
        leaf.serve(|| {
            // Without LaunchMON there is no RPDTAB: scan the local process
            // table for MPI tasks, "the very manual process" of §5.2.
            let ranks: Vec<u32> = ctx
                .cluster
                .node(ctx.node)
                .map(|node| node.tasks().iter().flat_map(|b| b.rows()).map(|(r, _)| r).collect())
                .unwrap_or_default();
            move |_: &Packet| sample_ranks(&ranks, total_tasks)
        })
    });

    let mut net = bootstrap_adhoc(cluster, &spec, &[], hosts, stat_registry(), leaf_main)?;
    net.front.await_connections(hosts.len() as u32, Duration::from_secs(30))?;
    let connect_time = t0.elapsed();

    let tree = sample_wave(&mut net.front, Duration::from_secs(30))?;
    let classes = tree.equivalence_classes();
    let total_time = t0.elapsed();
    let rsh_connects = cluster.rsh_state().total_connects() - connects_before;
    net.shutdown(cluster);

    Ok(StatOutcome { connect_time, total_time, tree, classes, rsh_connects })
}

// ---------------------------------------------------------------------------
// LaunchMON startup
// ---------------------------------------------------------------------------

/// STAT with the LaunchMON integration: daemons co-located via the RM's
/// bulk launcher, task identity from the RPDTAB, and the MRNet tree
/// information broadcast to daemons as piggybacked LMONP user data. The
/// tree is 1-deep: [`run_stat_launchmon_tree`] without comm daemons.
pub fn run_stat_launchmon(
    fe: &LmonFrontEnd,
    launcher_pid: Pid,
    n_nodes: u32,
) -> LmonResult<StatOutcome> {
    stat_over(fe, launcher_pid, TopologySpec::one_deep(n_nodes))
}

/// STAT over a multi-level MRNet tree: sampling daemons co-located via
/// `attachAndSpawn`, communication daemons launched onto *separately
/// allocated* nodes through `launchMwDaemons` (§3.4) — the deployment shape
/// STAT uses at extreme scale, where a 1-deep tree would bottleneck the
/// front end.
pub fn run_stat_launchmon_tree(
    fe: &LmonFrontEnd,
    launcher_pid: Pid,
    n_nodes: u32,
    fanout: u32,
) -> LmonResult<StatOutcome> {
    stat_over(fe, launcher_pid, TopologySpec::balanced(n_nodes, fanout))
}

/// One LaunchMON-mode STAT session over `spec`: connect, one sample wave,
/// tear down.
fn stat_over(fe: &LmonFrontEnd, launcher_pid: Pid, spec: TopologySpec) -> LmonResult<StatOutcome> {
    let t0 = Instant::now();
    let cluster = fe.rm().cluster().clone();
    let connects_before = cluster.rsh_state().total_connects();
    let setup = OverlaySetup {
        spec,
        registry: stat_registry(),
        leaf_daemon: "statd",
        comm_daemon: "mrnet_commnode",
        comm_faults: Vec::new(),
        connect_timeout: CONNECT_TIMEOUT,
    };
    // Task identity straight from the RPDTAB — no scanning.
    let answers: Answers = Arc::new(|be| {
        let ranks: Vec<u32> = be.my_proctab().iter().map(|d| d.rank).collect();
        let total = be.task_count() as u32;
        Box::new(move |_| sample_ranks(&ranks, total))
    });
    let session = fe.create_session();
    let (connect_time, tree, classes, total_time) =
        with_attached_overlay(fe, session, launcher_pid, setup, answers, |front, _| {
            let connect_time = t0.elapsed();
            let tree = sample_wave(front, Duration::from_secs(30))
                .map_err(|e| lmon_core::LmonError::Engine(format!("sample wave: {e}")))?;
            let classes = tree.equivalence_classes();
            Ok((connect_time, tree, classes, t0.elapsed()))
        })?;
    let rsh_connects = cluster.rsh_state().total_connects() - connects_before;
    Ok(StatOutcome { connect_time, total_time, tree, classes, rsh_connects })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmon_cluster::config::{ClusterConfig, RshConfig};
    use lmon_rm::api::{JobSpec, ResourceManager};
    use lmon_rm::SlurmRm;

    fn cluster_with_job(
        nodes: usize,
        tpn: usize,
    ) -> (VirtualCluster, Arc<dyn ResourceManager>, Pid) {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(nodes));
        let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
        let job = rm.launch_job(&JobSpec::new("mpi_app", nodes, tpn), false).unwrap();
        // Wait for tasks to exist so ad hoc scanning sees them.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let live: usize = cluster.compute_nodes().iter().map(|n| n.live_count()).sum();
            if live >= nodes * tpn {
                break;
            }
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(2));
        }
        (cluster, rm, job.launcher_pid)
    }

    #[test]
    fn adhoc_stat_finds_equivalence_classes() {
        let (cluster, _rm, _launcher) = cluster_with_job(4, 8);
        let hosts: Vec<String> = (0..4).map(|i| cluster.config().hostname(i)).collect();
        let outcome = run_stat_adhoc(&cluster, &hosts, 32).expect("adhoc stat");
        assert_eq!(outcome.tree.rank_count(), 32);
        assert_eq!(outcome.classes.len(), 3);
        assert_eq!(outcome.rsh_connects, 4, "one rsh per daemon");
        assert!(outcome.connect_time <= outcome.total_time);
    }

    #[test]
    fn launchmon_stat_matches_adhoc_results() {
        let (cluster, rm, launcher) = cluster_with_job(4, 8);
        let fe = LmonFrontEnd::init(rm).unwrap();
        let lm = run_stat_launchmon(&fe, launcher, 4).expect("launchmon stat");
        assert_eq!(lm.rsh_connects, 0, "LaunchMON path uses the RM, not rsh");
        assert_eq!(lm.tree.rank_count(), 32);
        // The STAT session's LMONP traffic rode the mux: one physical
        // FE↔BE channel, session sub-stream closed again after detach.
        let stats = fe.transport_stats();
        assert_eq!(stats.be_physical_links, 1);
        assert!(stats.be_peak_sessions >= 1);
        assert_eq!(stats.be_sessions, 0, "detach closed the sub-stream");

        let hosts: Vec<String> = (0..4).map(|i| cluster.config().hostname(i)).collect();
        let adhoc = run_stat_adhoc(&cluster, &hosts, 32).unwrap();
        // The two startup paths must produce identical analysis results.
        assert_eq!(lm.tree, adhoc.tree);
        assert_eq!(lm.classes, adhoc.classes);
        fe.shutdown().unwrap();
    }

    #[test]
    fn adhoc_stat_fails_on_tight_fd_budget() {
        let mut cfg = ClusterConfig::with_nodes(8);
        cfg.rsh =
            RshConfig { fds_per_session: 2, fe_fd_limit: 14, fe_base_fds: 4, ..Default::default() };
        let cluster = VirtualCluster::new(cfg);
        let hosts: Vec<String> = (0..8).map(|i| cluster.config().hostname(i)).collect();
        let err = run_stat_adhoc(&cluster, &hosts, 8).unwrap_err();
        assert!(matches!(err, TbonError::LaunchFailed(_)));
    }

    #[test]
    fn deep_tree_stat_matches_one_deep_results() {
        // 8 job nodes + extra nodes for comm daemons (fanout 2 ⇒ 1x2x4x8 ⇒
        // 6 comm daemons on MW-allocated nodes).
        let (_cluster, rm, launcher) = cluster_with_job(8, 4);
        // Need extra nodes beyond the job's 8 for the MW allocation — grow
        // the cluster by using a bigger one.
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(16));
        let rm2: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
        let job = rm2.launch_job(&JobSpec::new("mpi_app", 8, 4), false).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        drop((rm, launcher));

        let fe = LmonFrontEnd::init(rm2).unwrap();
        let deep = run_stat_launchmon_tree(&fe, job.launcher_pid, 8, 2).expect("deep tree stat");
        let flat = run_stat_launchmon(&fe, job.launcher_pid, 8).expect("one-deep stat");
        assert_eq!(deep.tree, flat.tree, "topology must not change analysis results");
        assert_eq!(deep.classes, flat.classes);
        assert_eq!(deep.rsh_connects, 0);
        fe.shutdown().unwrap();
    }

    #[test]
    fn consecutive_tree_stats_get_their_middleware_nodes_back() {
        // Defect D3, MW half: 8 job nodes + 6 comm daemons on a 16-node
        // cluster leave 2 nodes free. Unless detach releases the session's
        // MW allocation, the second call fails with `mw alloc: allocation
        // failed: want 6 nodes, 2 free`.
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(16));
        let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster));
        let job = rm.launch_job(&JobSpec::new("mpi_app", 8, 4), false).unwrap();
        let fe = LmonFrontEnd::init(rm).unwrap();
        for call in 1..=2 {
            let out = run_stat_launchmon_tree(&fe, job.launcher_pid, 8, 2)
                .unwrap_or_else(|e| panic!("tree STAT call {call}: {e}"));
            assert_eq!(out.tree.rank_count(), 32);
        }
        fe.shutdown().unwrap();
    }

    #[test]
    fn straggler_identified_through_full_stack() {
        let (_cluster, rm, launcher) = cluster_with_job(3, 8);
        let fe = LmonFrontEnd::init(rm).unwrap();
        let outcome = run_stat_launchmon(&fe, launcher, 3).unwrap();
        let io_class = outcome
            .classes
            .iter()
            .find(|c| c.path.last().unwrap() == "read_input_file")
            .expect("io class found");
        assert_eq!(io_class.ranks, vec![0], "rank 0 is the straggler");
        assert_eq!(io_class.representative(), 0);
        fe.shutdown().unwrap();
    }
}
