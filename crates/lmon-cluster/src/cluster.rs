//! The cluster facade: node lookup, process spawning, `/proc` reads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::config::ClusterConfig;
use crate::error::{ClusterError, ClusterResult};
use crate::node::{Node, NodeId};
use crate::process::{Pid, ProcCtx, ProcRecord, ProcShared, ProcSpec, ProcState};
use crate::procfs::{snapshot, synth_task_stats, ProcSnapshot, ProcStats};
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
    /// Launchers use this to keep pid assignment deterministic: reserve the
    /// whole block up front in canonical (node, rank) order, then hand each
    /// spawn its pre-assigned pids: to [`spawn_active_waves`], to
    /// [`spawn_active_with_pid`] from a parallel fan-out, or as a
    /// [`TaskBlock`](crate::process::TaskBlock) to [`Node::spawn_tasks`].
    /// The result is bit-identical placement to the sequential loop
    /// regardless of wave width or worker interleaving.
    ///
    /// [`spawn_active_waves`]: VirtualCluster::spawn_active_waves
    /// [`spawn_active_with_pid`]: VirtualCluster::spawn_active_with_pid
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
        // A single spawn pays the whole latency on the caller's thread.
        self.charge_spawn_latency();
        self.place_active(pid, node_id, spec, body)
    }

    /// Place `items` as active processes on the calling thread, in waves of
    /// `width` (`0` counts as `1`): item `i` gets `pids.pid(i)`, and each
    /// wave pays one [`spawn_latency`](ClusterConfig::spawn_latency) before
    /// it places, so item `i` appears (⌊i/width⌋ + 1) × latency after the
    /// call, as if `width` node agents spawned in parallel, and at once when
    /// the latency is zero.
    ///
    /// `stop` is asked once per wave, after its latency and before its
    /// first placement; once it answers `true` nothing more is placed.
    /// Returns one result per item, in item order: a refused placement
    /// (a full process table, an unknown node) is reported in its own slot
    /// without stopping the waves, and an item the stop kept from being
    /// placed reads [`ClusterError::SpawnStopped`]. Items are built as they
    /// are drawn. What was placed is the caller's.
    pub fn spawn_active_waves<B>(
        &self,
        pids: &PidBlock,
        width: usize,
        items: impl IntoIterator<Item = (NodeId, ProcSpec, B)>,
        stop: impl Fn() -> bool,
    ) -> Vec<ClusterResult<()>>
    where
        B: FnOnce(ProcCtx) + Send + 'static,
    {
        let mut items = items.into_iter().enumerate().peekable();
        let mut results = Vec::with_capacity(items.size_hint().0);
        while items.peek().is_some() {
            self.charge_spawn_latency();
            if stop() {
                results.extend(items.map(|_| Err(ClusterError::SpawnStopped)));
                break;
            }
            for (i, (node_id, spec, body)) in items.by_ref().take(width.max(1)) {
                results.push(self.place_active(pids.pid(i), node_id, spec, body));
            }
        }
        results
    }

    /// Sleep out the configured per-spawn latency, if any, on the caller's
    /// thread.
    fn charge_spawn_latency(&self) {
        let spawn_latency = self.inner.config.spawn_latency;
        if !spawn_latency.is_zero() {
            std::thread::sleep(spawn_latency);
        }
    }

    /// The one placement of an active process: its record enters the
    /// node's table (which may refuse it) and `body` starts on a thread of
    /// its own.
    fn place_active(
        &self,
        pid: Pid,
        node_id: NodeId,
        spec: ProcSpec,
        body: impl FnOnce(ProcCtx) + Send + 'static,
    ) -> ClusterResult<()> {
        let node = self.node(node_id)?;
        let spec = Arc::new(spec);
        let stats =
            ProcStats { num_threads: 1, vm_peak_kb: 8_192, vm_hwm_kb: 4_096, ..Default::default() };
        let shared = ProcShared::new(stats);
        let rec = Arc::new(ProcRecord {
            pid,
            spec: spec.clone(),
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
                // terminal states are sticky) and tell any tracer, unless
                // the body lingers.
                if !shared.lingers.load(Ordering::Relaxed) {
                    shared.set_state(ProcState::Exited(0));
                    shared.trace.raise(TraceEvent::Exited { code: 0 });
                }
            })
            .expect("spawning a virtual-process thread");
        *rec.thread.lock() = Some(handle);
        Ok(())
    }

    /// Find an active process anywhere on the cluster.
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

    /// Read a `/proc` snapshot for a process on a known host. A task runs
    /// (`R`), and its stats are synthesized from its job and rank.
    pub fn read_proc(&self, host: &str, pid: Pid) -> ClusterResult<ProcSnapshot> {
        let node = self.node_by_host(host)?;
        if let Some(rec) = node.proc(pid) {
            let stats = *rec.shared.stats.lock();
            let state = rec.shared.state();
            return Ok(snapshot(pid.0, None, &rec.spec.exe, &node.hostname, state, stats));
        }
        let task = node.task(pid).ok_or(ClusterError::NoSuchProcess(pid))?;
        let (seed, rank) = (self.inner.config.stats_seed, task.first_rank);
        let stats = synth_task_stats(seed, task.job, rank);
        Ok(snapshot(pid.0, Some(rank), &task.spec.exe, &node.hostname, ProcState::Running, stats))
    }

    /// Send a kill to a process: an active body observes it via
    /// [`ProcCtx::killed`], and a task leaves its node's table at once.
    pub fn kill(&self, pid: Pid) -> ClusterResult<()> {
        if let Ok((_node, rec)) = self.find_proc(pid) {
            rec.shared.set_state(ProcState::Killed);
            return Ok(());
        }
        let mut nodes = std::iter::once(&self.inner.fe).chain(&self.inner.compute);
        nodes.any(|n| n.kill_task(pid)).then_some(()).ok_or(ClusterError::NoSuchProcess(pid))
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
    use crate::process::TaskBlock;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn small() -> VirtualCluster {
        VirtualCluster::new(ClusterConfig::with_nodes(4))
    }

    /// Place `count` tasks of job `job` on compute node `node`, from pid
    /// `first_pid` and rank `first_rank`.
    fn place(
        c: &VirtualCluster,
        node: u32,
        job: u64,
        exe: &str,
        first_pid: Pid,
        first_rank: u32,
        count: u32,
    ) {
        let spec = Arc::new(ProcSpec::named(exe));
        let block = TaskBlock { job, spec, first_pid, first_rank, count };
        c.node(NodeId::Compute(node)).unwrap().spawn_tasks(block).unwrap();
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
        let pids = c.reserve_pids(1);
        place(&c, 1, 77, "ring", pids.pid(0), 5, 1);
        let snap = c.read_proc("node00001", pids.pid(0)).unwrap();
        assert_eq!((snap.rank, snap.exe.as_str(), snap.state), (Some(5), "ring", 'R'));
        assert_eq!(snap.stats, synth_task_stats(c.config().stats_seed, 77, 5));
        assert!(snap.stats.utime_ms > 0);
        // Re-reading is stable.
        let again = c.read_proc("node00001", pids.pid(0)).unwrap();
        assert_eq!(snap, again);
        // A task is not an active process: no record, no thread to wait on.
        assert!(c.find_proc(pids.pid(0)).is_err());
        assert!(c.read_proc("node00000", pids.pid(0)).is_err(), "it runs on one node only");
    }

    #[test]
    fn kill_terminates_and_wait_observes() {
        let c = small();
        let pid = c
            .spawn_active(NodeId::Compute(0), ProcSpec::named("victim"), |ctx| {
                ctx.shared.wait_terminal();
            })
            .unwrap();
        c.kill(pid).unwrap();
        assert!(matches!(c.wait_pid(pid).unwrap(), ProcState::Killed));
        c.join_thread(pid).unwrap();

        // A killed task leaves at once; its block splits around it.
        let pids = c.reserve_pids(3);
        place(&c, 0, 1, "victim", pids.pid(0), 0, 3);
        c.kill(pids.pid(1)).unwrap();
        assert!(matches!(c.wait_pid(pids.pid(1)), Err(ClusterError::NoSuchProcess(_))));
        assert!(matches!(
            c.read_proc("node00000", pids.pid(1)),
            Err(ClusterError::NoSuchProcess(_))
        ));
        assert!(matches!(c.kill(pids.pid(1)), Err(ClusterError::NoSuchProcess(_))));
        for (i, rank) in [(0, 0), (2, 2)] {
            assert_eq!(c.read_proc("node00000", pids.pid(i)).unwrap().rank, Some(rank));
        }
        let node = c.node(NodeId::Compute(0)).unwrap();
        assert_eq!(node.pids(), vec![pid, pids.pid(0), pids.pid(2)]);
        assert_eq!(node.live_count(), 2, "the two tasks left; the killed record is not live");
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
        for i in 0..4 {
            let block_pids = c.reserve_pids(10);
            place(&c, i, 1, "t", block_pids.pid(0), 0, 10);
            let daemon = c.spawn_active(NodeId::Compute(i), ProcSpec::named("d"), |_| {}).unwrap();
            c.wait_pid(daemon).unwrap();
            c.join_thread(daemon).unwrap();
            let node = c.node(NodeId::Compute(i)).unwrap();
            assert_eq!(node.pids().len(), 11);
            for pid in node.pids() {
                assert!(pids.insert(pid), "pid reused: {pid:?}");
            }
        }
    }

    #[test]
    fn reserved_blocks_interleave_with_plain_allocation() {
        let c = small();
        let pids = c.reserve_pids(4);
        assert_eq!(pids.len(), 4);
        // A spawn after the reservation lands past the whole block.
        let later = c.spawn_active(NodeId::Compute(0), ProcSpec::named("after"), |_| {}).unwrap();
        assert!(later.0 > pids.pid(3).0);
        c.wait_pid(later).unwrap();
        c.join_thread(later).unwrap();
        // Placing the block's halves out of order still yields the
        // reserved pids, observable on the node.
        place(&c, 1, 1, "blk", pids.pid(2), 2, 2);
        place(&c, 1, 1, "blk", pids.pid(0), 0, 2);
        for i in 0..4 {
            let snap = c.read_proc("node00001", pids.pid(i)).unwrap();
            assert_eq!((snap.exe.as_str(), snap.rank), ("blk", Some(i as u32)));
        }
        let node = c.node(NodeId::Compute(1)).unwrap();
        let firsts: Vec<Pid> = node.tasks().iter().map(|b| b.first_pid).collect();
        assert_eq!(firsts, vec![pids.pid(0), pids.pid(2)], "the task query is in pid order");
    }

    /// Seven items in waves of three at 20 ms: item `i` takes the block's
    /// `i`-th pid on its own node, and starts no sooner than one latency per
    /// wave up to and including its own.
    #[test]
    fn waves_place_in_block_order_and_pay_one_latency_per_wave() {
        let latency = Duration::from_millis(20);
        let c = VirtualCluster::new(ClusterConfig {
            spawn_latency: latency,
            ..ClusterConfig::with_nodes(4)
        });
        let pids = c.reserve_pids(7);
        let (tx, rx) = mpsc::channel();
        let called = Instant::now();
        let items = (0..7u32).map(|i| {
            let tx = tx.clone();
            let body = move |ctx: ProcCtx| tx.send((i, ctx.pid, called.elapsed())).unwrap();
            (NodeId::Compute(i % 4), ProcSpec::named("w"), body)
        });
        let results = c.spawn_active_waves(&pids, 3, items, || false);
        assert_eq!(results, vec![Ok(()); 7]);
        drop(tx);
        let mut started: Vec<_> = rx.iter().collect();
        started.sort();
        assert_eq!(started.len(), 7);
        for (i, pid, after) in started {
            assert_eq!(pid, pids.pid(i as usize));
            assert!(after >= latency * (i / 3 + 1), "item {i} started after {after:?}");
            let (node, _rec) = c.find_proc(pid).unwrap();
            assert_eq!(node.id, NodeId::Compute(i % 4));
            c.wait_pid(pid).unwrap();
            c.join_thread(pid).unwrap();
        }
    }

    /// A node whose table is full refuses its item in that item's slot, and
    /// the waves go on past it.
    #[test]
    fn a_refused_item_is_reported_in_its_own_slot() {
        let c = VirtualCluster::new(ClusterConfig {
            proc_table_cap: 1,
            ..ClusterConfig::with_nodes(4)
        });
        let filler = c.spawn_active(NodeId::Compute(1), ProcSpec::named("filler"), |_| {}).unwrap();
        let pids = c.reserve_pids(4);
        let items = (0..4).map(|i| (NodeId::Compute(i), ProcSpec::named("w"), |_ctx: ProcCtx| {}));
        let results = c.spawn_active_waves(&pids, 2, items, || false);
        let full = Err(ClusterError::ProcessTableFull(NodeId::Compute(1)));
        assert_eq!(results, vec![Ok(()), full, Ok(()), Ok(())]);
        assert!(matches!(c.find_proc(pids.pid(1)), Err(ClusterError::NoSuchProcess(_))));
        for pid in [filler, pids.pid(0), pids.pid(2), pids.pid(3)] {
            c.wait_pid(pid).unwrap();
            c.join_thread(pid).unwrap();
        }
    }

    /// The stop is asked once per wave, never per item: answering `true` at
    /// the second wave leaves the first wave placed and every later item
    /// unplaced.
    #[test]
    fn a_stop_leaves_the_rest_unplaced() {
        let c = small();
        let pids = c.reserve_pids(6);
        let asked = std::cell::Cell::new(0);
        let stop = || {
            asked.set(asked.get() + 1);
            asked.get() == 2
        };
        let items =
            (0..6).map(|i| (NodeId::Compute(i % 4), ProcSpec::named("w"), |_ctx: ProcCtx| {}));
        let results = c.spawn_active_waves(&pids, 2, items, stop);
        let stopped = Err(ClusterError::SpawnStopped);
        assert_eq!(results, [vec![Ok(()); 2], vec![stopped; 4]].concat());
        assert_eq!(asked.get(), 2);
        for i in 2..6 {
            assert!(matches!(c.find_proc(pids.pid(i)), Err(ClusterError::NoSuchProcess(_))));
        }
        for i in 0..2 {
            c.wait_pid(pids.pid(i)).unwrap();
            c.join_thread(pids.pid(i)).unwrap();
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
