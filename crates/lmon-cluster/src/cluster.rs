//! The cluster facade: node lookup, process spawning, `/proc` reads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::config::ClusterConfig;
use crate::error::{ClusterError, ClusterResult};
use crate::node::{Node, NodeId};
use crate::process::{Pid, ProcCtx, ProcRecord, ProcShared, ProcSpec, ProcState};
use crate::procfs::{snapshot, synth_task_stats, ProcSnapshot};
use crate::remote::RshState;
use crate::trace::TraceEvent;

struct ClusterInner {
    config: ClusterConfig,
    fe: Arc<Node>,
    compute: Vec<Arc<Node>>,
    /// Hostname → node, built once: hostnames never change.
    by_host: HashMap<String, NodeId>,
    next_pid: AtomicU64,
    next_job: AtomicU64,
    rsh: RshState,
}

/// Shared handle to the whole virtual cluster.
///
/// Cheap to clone; all clones refer to the same cluster.
#[derive(Clone)]
pub struct VirtualCluster {
    inner: Arc<ClusterInner>,
}

/// A contiguous block of pids reserved via
/// [`VirtualCluster::reserve_pids`], to be handed out by index.
#[derive(Debug, Clone, Copy)]
pub struct PidBlock {
    start: u64,
    len: u64,
}

impl PidBlock {
    /// The `i`-th pid of the block. Panics past the end — a reservation
    /// that runs out is a sizing bug at the call site, not a runtime
    /// condition.
    pub fn pid(&self, i: usize) -> Pid {
        assert!((i as u64) < self.len, "pid block exhausted: index {i} of {}", self.len);
        Pid(self.start + i as u64)
    }

    /// Number of pids in the block.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Stack of a virtual process's thread. Owners release the threads of the
/// sessions they end, so a 32-daemon session hands 32 stacks back at once;
/// at the 2 MiB default that overflows glibc's 40 MiB stack cache and every
/// session munmaps and re-mmaps its stacks. 512 KiB keeps a wide session's
/// stacks cached and is several times what the deepest body (a comm daemon
/// decoding a wave) uses, debug builds included.
const VIRTUAL_PROCESS_STACK: usize = 512 * 1024;

impl VirtualCluster {
    /// Build a cluster from a config.
    pub fn new(config: ClusterConfig) -> Self {
        let fe = Node::new(
            NodeId::FrontEnd,
            config.fe_host.clone(),
            config.cores_per_node,
            config.proc_table_cap,
        );
        let compute: Vec<_> = (0..config.nodes)
            .map(|i| {
                Node::new(
                    NodeId::Compute(i as u32),
                    config.hostname(i),
                    config.cores_per_node,
                    config.proc_table_cap,
                )
            })
            .collect();
        // Collected in reverse: the front end wins a shared hostname, then
        // the lowest compute index.
        let nodes = std::iter::once(&fe).chain(&compute);
        let by_host = nodes.rev().map(|n| (n.hostname.clone(), n.id)).collect();
        VirtualCluster {
            inner: Arc::new(ClusterInner {
                rsh: RshState::new(config.rsh),
                config,
                fe,
                compute,
                by_host,
                next_pid: AtomicU64::new(1000),
                next_job: AtomicU64::new(1),
            }),
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.config
    }

    /// Number of compute nodes.
    pub fn node_count(&self) -> usize {
        self.inner.compute.len()
    }

    /// The front-end node.
    pub fn front_end(&self) -> Arc<Node> {
        self.inner.fe.clone()
    }

    /// Look up a node by id.
    pub fn node(&self, id: NodeId) -> ClusterResult<Arc<Node>> {
        match id {
            NodeId::FrontEnd => Ok(self.inner.fe.clone()),
            NodeId::Compute(i) => {
                self.inner.compute.get(i as usize).cloned().ok_or(ClusterError::NoSuchNode(id))
            }
        }
    }

    /// Look up a node by hostname.
    pub fn node_by_host(&self, host: &str) -> ClusterResult<Arc<Node>> {
        let id =
            self.inner.by_host.get(host).ok_or_else(|| ClusterError::NoSuchHost(host.into()))?;
        self.node(*id)
    }

    /// All compute nodes, in index order.
    pub fn compute_nodes(&self) -> &[Arc<Node>] {
        &self.inner.compute
    }

    /// Remote-access (rsh) service state (connection counters and limits).
    pub fn rsh_state(&self) -> &RshState {
        &self.inner.rsh
    }

    /// Allocate a job id (used by the RM layer).
    pub fn alloc_job_id(&self) -> u64 {
        self.inner.next_job.fetch_add(1, Ordering::Relaxed)
    }

    fn alloc_pid(&self) -> Pid {
        Pid(self.inner.next_pid.fetch_add(1, Ordering::Relaxed))
    }

    /// Reserve a contiguous block of `count` pids and return it.
    ///
    /// Parallel launchers use this to keep pid assignment deterministic:
    /// reserve the whole block up front in canonical (node, rank) order,
    /// then fan the actual spawns out in any order, handing each spawn its
    /// pre-assigned pid via [`spawn_active_with_pid`] /
    /// [`spawn_passive_with_pid`]. The result is bit-identical placement to
    /// the sequential loop regardless of worker interleaving.
    ///
    /// [`spawn_active_with_pid`]: VirtualCluster::spawn_active_with_pid
    /// [`spawn_passive_with_pid`]: VirtualCluster::spawn_passive_with_pid
    pub fn reserve_pids(&self, count: usize) -> PidBlock {
        let start = self.inner.next_pid.fetch_add(count as u64, Ordering::Relaxed);
        PidBlock { start, len: count as u64 }
    }

    /// Spawn an *active* process: `body` runs on a dedicated thread with a
    /// [`ProcCtx`]. Returns the new pid.
    pub fn spawn_active(
        &self,
        node_id: NodeId,
        spec: ProcSpec,
        body: impl FnOnce(ProcCtx) + Send + 'static,
    ) -> ClusterResult<Pid> {
        let pid = self.alloc_pid();
        self.spawn_active_with_pid(pid, node_id, spec, body)?;
        Ok(pid)
    }

    /// [`spawn_active`](VirtualCluster::spawn_active) with a caller-supplied
    /// pid, previously reserved via [`reserve_pids`](VirtualCluster::reserve_pids).
    pub fn spawn_active_with_pid(
        &self,
        pid: Pid,
        node_id: NodeId,
        spec: ProcSpec,
        body: impl FnOnce(ProcCtx) + Send + 'static,
    ) -> ClusterResult<()> {
        let spawn_latency = self.inner.config.spawn_latency;
        if !spawn_latency.is_zero() {
            // Charged on the *caller's* thread: a sequential spawn loop pays
            // N x spawn_latency while a worker-pool fan-out amortizes it.
            std::thread::sleep(spawn_latency);
        }
        let node = self.node(node_id)?;
        let spec = Arc::new(spec);
        let shared = ProcShared::new(Node::fresh_stats());
        let rec = Arc::new(ProcRecord {
            pid,
            spec: spec.clone(),
            rank: None,
            job: None,
            shared: shared.clone(),
            thread: Mutex::new(None),
        });
        node.insert(rec.clone())?;
        let ctx = ProcCtx {
            pid,
            node: node.id,
            hostname: node.hostname.clone(),
            spec,
            shared: shared.clone(),
            cluster: self.clone(),
        };
        let thread_name = format!("{}@{}", ctx.spec.exe, ctx.hostname);
        let handle = std::thread::Builder::new()
            .name(thread_name)
            .stack_size(VIRTUAL_PROCESS_STACK)
            .spawn(move || {
                body(ctx);
                // Normal return: mark exited (ignored if killed first —
                // terminal states are sticky) and tell any tracer.
                shared.set_state(ProcState::Exited(0));
                shared.trace.raise(TraceEvent::Exited { code: 0 });
            })
            .expect("spawning a virtual-process thread");
        *rec.thread.lock() = Some(handle);
        Ok(())
    }

    /// Spawn a *passive* process: a table entry with synthesized stats and
    /// no thread, for an MPI application task: the record shares the job's
    /// `spec` and carries `job_id` (what its RM's kill matches) and `rank`.
    pub fn spawn_passive(
        &self,
        node_id: NodeId,
        spec: &Arc<ProcSpec>,
        job_id: u64,
        rank: u32,
    ) -> ClusterResult<Pid> {
        let pid = self.alloc_pid();
        self.spawn_passive_with_pid(pid, node_id, spec, job_id, rank)?;
        Ok(pid)
    }

    /// [`spawn_passive`](VirtualCluster::spawn_passive) with a caller-supplied
    /// pid, previously reserved via [`reserve_pids`](VirtualCluster::reserve_pids).
    pub fn spawn_passive_with_pid(
        &self,
        pid: Pid,
        node_id: NodeId,
        spec: &Arc<ProcSpec>,
        job_id: u64,
        rank: u32,
    ) -> ClusterResult<()> {
        let node = self.node(node_id)?;
        let stats = synth_task_stats(self.inner.config.stats_seed, job_id, rank);
        let rec = Arc::new(ProcRecord {
            pid,
            spec: spec.clone(),
            rank: Some(rank),
            job: Some(job_id),
            shared: ProcShared::new(stats),
            thread: Mutex::new(None),
        });
        node.insert(rec)?;
        Ok(())
    }

    /// Find a process anywhere on the cluster.
    pub fn find_proc(&self, pid: Pid) -> ClusterResult<(Arc<Node>, Arc<ProcRecord>)> {
        if let Some(rec) = self.inner.fe.proc(pid) {
            return Ok((self.inner.fe.clone(), rec));
        }
        for node in &self.inner.compute {
            if let Some(rec) = node.proc(pid) {
                return Ok((node.clone(), rec));
            }
        }
        Err(ClusterError::NoSuchProcess(pid))
    }

    /// Read a `/proc` snapshot for a process on a known host.
    pub fn read_proc(&self, host: &str, pid: Pid) -> ClusterResult<ProcSnapshot> {
        let node = self.node_by_host(host)?;
        let rec = node.proc(pid).ok_or(ClusterError::NoSuchProcess(pid))?;
        let stats = *rec.shared.stats.lock();
        Ok(snapshot(pid.0, rec.rank, &rec.spec.exe, &node.hostname, rec.shared.state(), stats))
    }

    /// Send a kill to a process; active bodies observe it via
    /// [`ProcCtx::killed`], passive entries terminate immediately.
    pub fn kill(&self, pid: Pid) -> ClusterResult<()> {
        let (_node, rec) = self.find_proc(pid)?;
        rec.shared.set_state(ProcState::Killed);
        Ok(())
    }

    /// Block until a process reaches a terminal state; returns it.
    pub fn wait_pid(&self, pid: Pid) -> ClusterResult<ProcState> {
        let (_node, rec) = self.find_proc(pid)?;
        Ok(rec.shared.wait_terminal())
    }

    /// Join an active process's thread (after it has terminated).
    pub fn join_thread(&self, pid: Pid) -> ClusterResult<()> {
        let (_node, rec) = self.find_proc(pid)?;
        let handle = rec.thread.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        Ok(())
    }

    /// Total live processes across the cluster (test/diagnostic aid).
    pub fn total_live(&self) -> usize {
        self.inner.fe.live_count()
            + self.inner.compute.iter().map(|n| n.live_count()).sum::<usize>()
    }
}

impl std::fmt::Debug for VirtualCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualCluster")
            .field("nodes", &self.inner.compute.len())
            .field("fe", &self.inner.fe.hostname)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn small() -> VirtualCluster {
        VirtualCluster::new(ClusterConfig::with_nodes(4))
    }

    #[test]
    fn topology_and_lookup() {
        let c = small();
        assert_eq!(c.node_count(), 4);
        assert_eq!(c.front_end().hostname, "atlas-fe0");
        assert_eq!(c.node(NodeId::Compute(2)).unwrap().hostname, "node00002");
        assert!(c.node(NodeId::Compute(9)).is_err());
        assert!(c.node_by_host("node00003").is_ok());
        assert!(c.node_by_host("atlas-fe0").is_ok());
        assert!(c.node_by_host("nope").is_err());

        let wide = VirtualCluster::new(ClusterConfig::with_nodes(2048));
        for i in 0..2048 {
            let host = wide.config().hostname(i);
            assert_eq!(wide.node_by_host(&host).unwrap().id, NodeId::Compute(i as u32));
        }
        assert_eq!(wide.node_by_host("atlas-fe0").unwrap().id, NodeId::FrontEnd);
        assert!(matches!(
            wide.node_by_host("node02048"),
            Err(ClusterError::NoSuchHost(h)) if h == "node02048"
        ));

        let mut shared_name = ClusterConfig::with_nodes(2);
        shared_name.fe_host = "node00001".into();
        let c = VirtualCluster::new(shared_name);
        assert_eq!(c.node_by_host("node00001").unwrap().id, NodeId::FrontEnd, "the FE wins");
    }

    #[test]
    fn active_process_runs_and_exits() {
        let c = small();
        let (tx, rx) = mpsc::channel();
        let pid = c
            .spawn_active(NodeId::Compute(0), ProcSpec::named("hello"), move |ctx| {
                tx.send((ctx.hostname.clone(), ctx.pid)).unwrap();
            })
            .unwrap();
        let (host, seen_pid) = rx.recv().unwrap();
        assert_eq!(host, "node00000");
        assert_eq!(seen_pid, pid);
        assert!(matches!(c.wait_pid(pid).unwrap(), ProcState::Exited(0)));
        c.join_thread(pid).unwrap();
    }

    #[test]
    fn passive_tasks_get_synthesized_stats() {
        let c = small();
        let spec = Arc::new(ProcSpec::named("ring"));
        let pid = c.spawn_passive(NodeId::Compute(1), &spec, 77, 5).unwrap();
        let snap = c.read_proc("node00001", pid).unwrap();
        assert_eq!(snap.rank, Some(5));
        assert_eq!(snap.state, 'R');
        assert!(snap.stats.utime_ms > 0);
        // Re-reading is stable.
        let again = c.read_proc("node00001", pid).unwrap();
        assert_eq!(snap, again);
    }

    #[test]
    fn kill_terminates_and_wait_observes() {
        let c = small();
        let spec = Arc::new(ProcSpec::named("victim"));
        let pid = c.spawn_passive(NodeId::Compute(0), &spec, 1, 0).unwrap();
        c.kill(pid).unwrap();
        assert!(matches!(c.wait_pid(pid).unwrap(), ProcState::Killed));
    }

    #[test]
    fn active_body_observes_kill_flag() {
        let c = small();
        let (tx, rx) = mpsc::channel();
        let pid = c
            .spawn_active(NodeId::Compute(0), ProcSpec::named("poller"), move |ctx| {
                while !ctx.killed() {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                tx.send(()).unwrap();
            })
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        c.kill(pid).unwrap();
        rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        c.join_thread(pid).unwrap();
    }

    #[test]
    fn pids_are_cluster_globally_unique() {
        let c = small();
        let mut pids = std::collections::HashSet::new();
        let spec = Arc::new(ProcSpec::named("t"));
        for i in 0..4 {
            for _ in 0..10 {
                let pid = c.spawn_passive(NodeId::Compute(i), &spec, 1, 0).unwrap();
                assert!(pids.insert(pid), "pid reused: {pid:?}");
            }
        }
    }

    #[test]
    fn reserved_blocks_interleave_with_plain_allocation() {
        let c = small();
        let block = c.reserve_pids(4);
        assert_eq!(block.len(), 4);
        // A spawn after the reservation lands past the whole block.
        let later =
            c.spawn_passive(NodeId::Compute(0), &Arc::new(ProcSpec::named("after")), 1, 0).unwrap();
        assert!(later.0 > block.pid(3).0);
        // Spawning into the block out of order still yields the reserved
        // pids, observable on the node.
        let spec = Arc::new(ProcSpec::named("blk"));
        for i in [2usize, 0, 3, 1] {
            c.spawn_passive_with_pid(block.pid(i), NodeId::Compute(1), &spec, 1, i as u32).unwrap();
        }
        for i in 0..4 {
            let snap = c.read_proc("node00001", block.pid(i)).unwrap();
            assert_eq!(snap.exe, "blk");
        }
    }

    #[test]
    #[should_panic(expected = "pid block exhausted")]
    fn pid_block_overrun_panics() {
        let c = small();
        let block = c.reserve_pids(2);
        let _ = block.pid(2);
    }

    #[test]
    fn find_proc_searches_everywhere() {
        let c = small();
        let fe_pid = c.spawn_active(NodeId::FrontEnd, ProcSpec::named("tool_fe"), |_| {}).unwrap();
        let (node, rec) = c.find_proc(fe_pid).unwrap();
        assert_eq!(node.id, NodeId::FrontEnd);
        assert_eq!(rec.pid, fe_pid);
        assert!(c.find_proc(Pid(1)).is_err());
        c.wait_pid(fe_pid).unwrap();
        c.join_thread(fe_pid).unwrap();
    }

    #[test]
    fn charge_cpu_updates_stats() {
        let c = small();
        let (tx, rx) = mpsc::channel();
        let pid = c
            .spawn_active(NodeId::Compute(0), ProcSpec::named("worker"), move |ctx| {
                ctx.charge_cpu(120, 30);
                tx.send(()).unwrap();
            })
            .unwrap();
        rx.recv().unwrap();
        c.wait_pid(pid).unwrap();
        let snap = c.read_proc("node00000", pid).unwrap();
        assert_eq!(snap.stats.utime_ms, 120);
        assert_eq!(snap.stats.stime_ms, 30);
        c.join_thread(pid).unwrap();
    }
}
