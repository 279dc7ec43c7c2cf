//! A SLURM-like resource manager.
//!
//! Models the RM the paper's Atlas experiments used: `srun` launches jobs
//! with a scalable tree protocol, supports co-locating extra processes into
//! a job's footprint (`srun --jobid=N`), implements the MPIR APAI, and —
//! after the fix the authors drove into SLURM — emits a *constant* number
//! of debugger-visible events regardless of job size (§4: "SLURM currently
//! has no events that occur more frequently with increasing scale").

use std::sync::mpsc;
use std::sync::Arc;

use lmon_cluster::fanout::DEFAULT_LAUNCH_WORKERS;
use lmon_cluster::node::{Node, NodeId};
use lmon_cluster::process::{Pid, ProcSpec, TaskBlock};
use lmon_cluster::trace::TraceEvent;
use lmon_cluster::VirtualCluster;
use lmon_proto::rpdtab::RpdtabWriter;
use lmon_proto::wire::WireEncode;

use crate::allocator::NodeAllocator;
use crate::api::{
    daemon_comms, Allocation, DaemonBody, JobHandle, JobSpec, ResourceManager, RmError, RmResult,
};
use crate::mpir;

/// How many debugger-visible events a launcher generates during startup.
///
/// The §4 model charges `events × handler cost` for tracing; an RM whose
/// event count grows with scale makes that term scale-dependent. The paper
/// calls that out as a property of badly behaved RMs — we keep it as a
/// configurable ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DebugEventProfile {
    /// A fixed number of events, independent of scale (fixed SLURM).
    Constant(u32),
    /// One event per node (e.g. per-launch-agent forks).
    PerNode,
    /// One event per task (the pathological pre-fix behaviour).
    PerTask,
}

impl DebugEventProfile {
    /// Events generated for a job of `nodes` × `tasks_per_node`.
    pub fn event_count(self, nodes: usize, tasks_per_node: usize) -> usize {
        match self {
            DebugEventProfile::Constant(k) => k as usize,
            DebugEventProfile::PerNode => nodes,
            DebugEventProfile::PerTask => nodes * tasks_per_node,
        }
    }
}

/// Shared implementation core for RM flavours.
pub(crate) struct RmCore {
    pub name: &'static str,
    pub cluster: VirtualCluster,
    pub allocator: Arc<NodeAllocator>,
    pub events: DebugEventProfile,
    /// Wave width of the per-node daemon spawn: how many daemons share one
    /// spawn latency; `1` is the sequential loop. Placement is the same at
    /// any width: pids are reserved first.
    pub launch_workers: usize,
}

impl RmCore {
    pub fn launch_job(&self, spec: &JobSpec, under_tool: bool) -> RmResult<JobHandle> {
        let job_id = self.cluster.alloc_job_id();
        let alloc = self.allocator.allocate(job_id, spec.nodes)?;
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        if !under_tool {
            // Ungated launch: fire the gate before the launcher starts.
            let _ = gate_tx.send(());
        }

        let cluster = self.cluster.clone();
        let job_spec = spec.clone();
        let nodes = alloc.nodes.clone();
        let events = self.events;

        let launcher_spec = ProcSpec::named("srun")
            .arg(format!("--nodes={}", spec.nodes))
            .arg(format!("--ntasks-per-node={}", spec.tasks_per_node))
            .arg(job_spec.app_exe.clone());

        let launcher_pid = self
            .cluster
            .spawn_active(NodeId::FrontEnd, launcher_spec, move |ctx| {
                // Wait for the tool (if any) to attach and arm breakpoints.
                // A job killed before it started spawns nothing.
                let _ = gate_rx.recv();
                if ctx.killed() {
                    return;
                }

                // Place the application tasks, laid out block-wise like
                // srun's default distribution: node `i` holds ranks from
                // `i * tpn`, on the pids reserved for them in rank order, as
                // one block that shares the job's one spec. A node whose
                // table cannot take its block gets no task (nor does any
                // node of a job of no tasks).
                let tpn = job_spec.tasks_per_node;
                let task_spec = Arc::new(ProcSpec {
                    args: job_spec.app_args.clone(),
                    ..ProcSpec::named(&job_spec.app_exe)
                });
                let pids = cluster.reserve_pids(nodes.len() * tpn);
                let mut placed = Vec::with_capacity(nodes.len());
                for (i, node_id) in nodes.iter().enumerate().filter(|_| tpn > 0) {
                    let first_pid = pids.pid(i * tpn);
                    let (first_rank, count) = ((i * tpn) as u32, tpn as u32);
                    let spec = task_spec.clone();
                    let block = TaskBlock { job: job_id, spec, first_pid, first_rank, count };
                    let Ok(node) = cluster.node(*node_id) else { continue };
                    if node.spawn_tasks(block.clone()).is_ok() {
                        placed.push((node, block));
                    }
                }

                // `kill_job` kills the launcher before it sweeps the nodes,
                // so a kill that landed during the spawn may have swept
                // before some tasks existed: those are the launcher's to
                // retire. A kill after this check sweeps them all.
                if ctx.killed() {
                    let _ = sweep_tasks(&cluster, &nodes, job_id);
                    return;
                }

                // Debugger-visible fork events, raised in rank order once
                // every task exists (tracers count events, they don't race
                // the forks themselves).
                let event_budget = events.event_count(job_spec.nodes, tpn);
                let forked = placed.iter().flat_map(|(_, block)| block.rows());
                for (_, pid) in forked.take(event_budget) {
                    ctx.raise_event(TraceEvent::Forked { child: Pid(pid) });
                }

                // APAI: publish and stop at MPIR_Breakpoint if traced. Once
                // continued (at once if untraced) the launcher's work is
                // done: its body returns and leaves its record `Running`,
                // with no thread parked for `kill_job` to wake.
                let (table, ntasks) = encode_proctable(placed, &job_spec.app_exe);
                mpir::publish_proctable(&ctx, table, ntasks);
                ctx.linger();
            })
            .map_err(|e| RmError::Cluster(e.to_string()))?;

        Ok(JobHandle {
            job_id,
            launcher_pid,
            allocation: alloc,
            gate: under_tool.then_some(gate_tx),
        })
    }

    pub fn spawn_daemons(
        &self,
        alloc: &Allocation,
        exe: &str,
        args: &[String],
        env: &[String],
        body: DaemonBody,
        stop: &dyn Fn() -> bool,
    ) -> RmResult<Vec<Pid>> {
        // The RM's fabric for this spawn: endpoint `i` goes to the daemon
        // on the allocation's `i`-th node, so rank 0 is the master's.
        let comms = daemon_comms(alloc.nodes.len() as u32);
        // Reserve one pid per node in node order, then place the daemons in
        // waves of `launch_workers` on this thread: daemon `i` always gets
        // pid `block.pid(i)`, and each wave pays the spawn latency once.
        let block = self.cluster.reserve_pids(alloc.nodes.len());
        let daemons = alloc.nodes.iter().zip(comms).map(|(&node_id, comm)| {
            let mut spec = ProcSpec::named(exe);
            spec.args = args.to_vec();
            spec.env = env.to_vec();
            spec = spec
                .env_kv("LMON_BE_RANK", &comm.rank().to_string())
                .env_kv("LMON_BE_SIZE", &comm.size().to_string());
            let body = body.clone();
            (node_id, spec, move |ctx| body(ctx, comm))
        });
        let results = self.cluster.spawn_active_waves(&block, self.launch_workers, daemons, stop);
        if let Some(e) = results.iter().find_map(|r| r.as_ref().err()) {
            // Never leave a partial daemon set running, or its records
            // behind, after an error or a stop: nobody will own them.
            // Daemon `i` lives on `alloc.nodes[i]` with pid `block.pid(i)`.
            for (i, (node_id, r)) in alloc.nodes.iter().zip(&results).enumerate() {
                if let (Ok(()), Ok(node)) = (r, self.cluster.node(*node_id)) {
                    let pid = block.pid(i);
                    node.kill_matching(|rec| rec.pid == pid);
                }
            }
            return Err(RmError::Cluster(e.to_string()));
        }
        Ok((0..results.len()).map(|i| block.pid(i)).collect())
    }

    /// The job owns its entries: the launcher and every task block is
    /// killed and leaves its node's table here, one pass per node of the
    /// footprint. The launcher dies first, so one still spawning sees the
    /// kill and retires whatever tasks this sweep came too early for.
    pub fn kill_job(&self, handle: &JobHandle) -> RmResult<()> {
        self.cluster.front_end().kill_matching(|r| r.pid == handle.launcher_pid);
        sweep_tasks(&self.cluster, &handle.allocation.nodes, handle.job_id)?;
        self.allocator.release(&handle.allocation);
        Ok(())
    }
}

/// A launcher's `MPIR_proctable`: each placed block's `(rank, pid)` rows,
/// in rank order, written straight into the one encoding; and the row
/// count. A node with no block leaves its host out.
fn encode_proctable(placed: Vec<(Arc<Node>, TaskBlock)>, exe: &str) -> (Vec<u8>, usize) {
    let ntasks = placed.iter().map(|(_, block)| block.count as usize).sum();
    let mut table = RpdtabWriter::with_capacity(ntasks);
    for (node, block) in &placed {
        table.push(&node.hostname, exe, block.rows());
    }
    (table.to_bytes(), ntasks)
}

/// Kill and remove every task of job `job_id`: its block leaves each
/// node's table, one `Node::kill_tasks` pass per node.
fn sweep_tasks(cluster: &VirtualCluster, nodes: &[NodeId], job_id: u64) -> RmResult<()> {
    for node_id in nodes {
        let node = cluster.node(*node_id).map_err(|e| RmError::Cluster(e.to_string()))?;
        node.kill_tasks(job_id);
    }
    Ok(())
}

/// The SLURM-like RM.
pub struct SlurmRm {
    core: RmCore,
}

impl SlurmRm {
    /// A SLURM-like RM over `cluster` with the post-fix constant event
    /// profile.
    pub fn new(cluster: VirtualCluster) -> Self {
        SlurmRm::with_event_profile(cluster, DebugEventProfile::Constant(3))
    }

    /// Override the debug-event profile (tracing-cost ablations).
    pub fn with_event_profile(cluster: VirtualCluster, events: DebugEventProfile) -> Self {
        let allocator = Arc::new(NodeAllocator::new(&cluster));
        SlurmRm {
            core: RmCore {
                name: "slurm",
                cluster,
                allocator,
                events,
                launch_workers: DEFAULT_LAUNCH_WORKERS,
            },
        }
    }

    /// Override the spawn wave width (`1` = the sequential reference arm
    /// of `wave_width_does_not_change_placement`).
    #[cfg(test)]
    fn with_launch_workers(mut self, workers: usize) -> Self {
        self.core.launch_workers = workers;
        self
    }
}

impl Flavour for SlurmRm {
    fn core(&self) -> &RmCore {
        &self.core
    }
}

/// An RM flavour is a name and an event profile around one [`RmCore`],
/// which answers every [`ResourceManager`] call.
pub(crate) trait Flavour {
    fn core(&self) -> &RmCore;
}

impl<F: Flavour + Send + Sync> ResourceManager for F {
    fn name(&self) -> &'static str {
        self.core().name
    }

    fn cluster(&self) -> &VirtualCluster {
        &self.core().cluster
    }

    fn launch_job(&self, spec: &JobSpec, under_tool: bool) -> RmResult<JobHandle> {
        self.core().launch_job(spec, under_tool)
    }

    fn spawn_daemons(
        &self,
        alloc: &Allocation,
        exe: &str,
        args: &[String],
        env: &[String],
        body: DaemonBody,
        stop: &dyn Fn() -> bool,
    ) -> RmResult<Vec<Pid>> {
        self.core().spawn_daemons(alloc, exe, args, env, body, stop)
    }

    fn allocate_mw_nodes(&self, count: usize) -> RmResult<Allocation> {
        let id = self.core().cluster.alloc_job_id();
        self.core().allocator.allocate(id, count)
    }

    fn release_allocation(&self, alloc: &Allocation) {
        self.core().allocator.release(alloc);
    }

    fn kill_job(&self, handle: &JobHandle) -> RmResult<()> {
        self.core().kill_job(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmon_cluster::config::ClusterConfig;
    use lmon_cluster::process::ProcState;
    use lmon_cluster::procfs::synth_task_stats;
    use lmon_cluster::trace::TraceController;
    use lmon_cluster::ClusterError;
    use lmon_proto::rpdtab::{CheckedRpdtab, ProcDesc, Rpdtab};
    use std::time::Duration;

    fn rm(nodes: usize) -> SlurmRm {
        SlurmRm::new(VirtualCluster::new(ClusterConfig::with_nodes(nodes)))
    }

    /// Attach to an ungated job's launcher after the fact (the
    /// attachAndSpawn shape) and read its APAI once it has published.
    fn published_table(rm: &SlurmRm, handle: &JobHandle) -> CheckedRpdtab {
        let (_n, rec) = rm.cluster().find_proc(handle.launcher_pid).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let ctl = TraceController::attach(handle.launcher_pid, rec.shared.clone()).unwrap();
            match mpir::fetch_proctable(&ctl) {
                Ok(table) => break table,
                Err(_) if std::time::Instant::now() < deadline => {
                    drop(ctl);
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("proctable never appeared: {e}"),
            }
        }
    }

    /// What the old launcher built from the same job: one row per task on
    /// the job's nodes, made from the cluster's process tables.
    fn rows_in_tables(rm: &SlurmRm, handle: &JobHandle) -> Vec<ProcDesc> {
        let mut rows = Vec::new();
        for node_id in &handle.allocation.nodes {
            let node = rm.cluster().node(*node_id).unwrap();
            for block in node.tasks().iter().filter(|b| b.spec.exe == "app") {
                for (rank, pid) in block.rows() {
                    let (host, exe) = (node.hostname.clone(), block.spec.exe.clone());
                    rows.push(ProcDesc { rank, host, exe, pid });
                }
            }
        }
        rows
    }

    /// `count` tasks of a job that is not the RM's, on `node`.
    fn filler(rm: &SlurmRm, node: NodeId, job: u64, spec: Arc<ProcSpec>, count: u32) -> TaskBlock {
        let first_pid = rm.cluster().reserve_pids(count as usize).pid(0);
        let block = TaskBlock { job, spec, first_pid, first_rank: 0, count };
        rm.cluster().node(node).unwrap().spawn_tasks(block.clone()).unwrap();
        block
    }

    /// The launcher writes its rows straight into the wire format; the
    /// bytes are those `Rpdtab::new(rows).to_bytes()` makes of the same
    /// rows: for a full job, for one whose middle node spawned nothing (its
    /// host is absent and the host ids stay dense), and for no tasks at all.
    #[test]
    fn launcher_bytes_equal_the_table_encoding() {
        let mut config = ClusterConfig::with_nodes(4);
        config.proc_table_cap = 8;
        let rm = SlurmRm::new(VirtualCluster::new(config));
        let handle = rm.launch_job(&JobSpec::new("app", 4, 8), false).unwrap();
        let table = published_table(&rm, &handle);
        let rows = rows_in_tables(&rm, &handle);
        assert_eq!(rows.len(), 32);
        assert_eq!(table.bytes(), &Rpdtab::new(rows).to_bytes());
        rm.kill_job(&handle).unwrap();

        // Node 1's table is full: every spawn there fails.
        filler(&rm, NodeId::Compute(1), 0, Arc::new(ProcSpec::named("filler")), 8);
        let handle = rm.launch_job(&JobSpec::new("app", 3, 2), false).unwrap();
        let table = published_table(&rm, &handle);
        let rows = rows_in_tables(&rm, &handle);
        assert_eq!(rows.len(), 4);
        assert_eq!(table.bytes(), &Rpdtab::new(rows).to_bytes());
        assert_eq!(table.hosts(), ["node00000", "node00002"]);
        rm.kill_job(&handle).unwrap();

        let handle = rm.launch_job(&JobSpec::new("app", 2, 0), false).unwrap();
        let table = published_table(&rm, &handle);
        assert_eq!(table.bytes(), &Rpdtab::new(vec![]).to_bytes());
        assert_eq!(table.bytes(), &[0; 12], "no host, no exe, no row");
        rm.kill_job(&handle).unwrap();
    }

    #[test]
    fn ungated_launch_publishes_proctable() {
        let rm = rm(2);
        let spec = JobSpec::new("ring", 2, 4);
        let handle = rm.launch_job(&spec, false).unwrap();
        assert!(!handle.is_gated());
        let (_n, rec) = rm.cluster().find_proc(handle.launcher_pid).unwrap();
        let table = published_table(&rm, &handle);
        assert_eq!(table.len(), 8);
        assert_eq!(table.host_count(), 2);
        // The launcher's record leaves the table with the job: wait on the
        // state taken above, not on a pid look-up.
        rm.kill_job(&handle).unwrap();
        assert_eq!(rec.shared.wait_terminal(), ProcState::Killed);
    }

    #[test]
    fn gated_launch_stops_at_mpir_breakpoint() {
        let rm = rm(2);
        let spec = JobSpec::new("app", 2, 2);
        let mut handle = rm.launch_job(&spec, true).unwrap();
        let (_n, rec) = rm.cluster().find_proc(handle.launcher_pid).unwrap();
        let ctl = TraceController::attach(handle.launcher_pid, rec.shared.clone()).unwrap();
        mpir::set_being_debugged(&ctl, &rec.shared);
        handle.release();

        // Constant(3) profile: exactly 3 fork events then the stop.
        let mut forks = 0;
        loop {
            match ctl.wait_event(Duration::from_secs(5)).unwrap() {
                TraceEvent::Forked { .. } => forks += 1,
                TraceEvent::Stopped { symbol } => {
                    assert_eq!(symbol, mpir::MPIR_BREAKPOINT);
                    break;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(forks, 3);
        let table = mpir::fetch_proctable(&ctl).unwrap();
        assert_eq!(table.len(), 4);
        ctl.continue_proc();
        rm.kill_job(&handle).unwrap();
        assert_eq!(rec.shared.wait_terminal(), ProcState::Killed);
    }

    #[test]
    fn per_task_event_profile_scales_events() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(2));
        let rm = SlurmRm::with_event_profile(cluster, DebugEventProfile::PerTask);
        let mut handle = rm.launch_job(&JobSpec::new("app", 2, 3), true).unwrap();
        let (_n, rec) = rm.cluster().find_proc(handle.launcher_pid).unwrap();
        let ctl = TraceController::attach(handle.launcher_pid, rec.shared.clone()).unwrap();
        mpir::set_being_debugged(&ctl, &rec.shared);
        handle.release();
        let mut forks = 0;
        loop {
            match ctl.wait_event(Duration::from_secs(5)).unwrap() {
                TraceEvent::Forked { .. } => forks += 1,
                TraceEvent::Stopped { .. } => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(forks, 6, "PerTask: one event per task");
        ctl.continue_proc();
        rm.kill_job(&handle).unwrap();
    }

    #[test]
    fn spawn_daemons_colocates_one_per_node_with_fabric() {
        let rm = rm(4);
        let handle = rm.launch_job(&JobSpec::new("app", 4, 2), false).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let body: DaemonBody = Arc::new(move |ctx, mut comm| {
            let gathered = comm.gather(ctx.hostname.clone().into_bytes()).unwrap();
            if let Some(hosts) = gathered {
                tx.send(hosts).unwrap();
            }
        });
        let pids =
            rm.spawn_daemons(&handle.allocation, "toold", &[], &[], body, &|| false).unwrap();
        assert_eq!(pids.len(), 4);
        let hosts = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let hosts: Vec<String> = hosts.into_iter().map(|h| String::from_utf8(h).unwrap()).collect();
        assert_eq!(hosts, (0..4).map(|i| format!("node{i:05}")).collect::<Vec<_>>());
        for pid in pids {
            rm.cluster().wait_pid(pid).unwrap();
            rm.cluster().join_thread(pid).unwrap();
        }
        rm.kill_job(&handle).unwrap();
    }

    #[test]
    fn wave_width_does_not_change_placement() {
        // Same cluster shape, same job: 8-wide daemon waves must produce a
        // daemon pid set identical to the 1-wide (sequential) baseline,
        // beside the same proctable (rank → host/pid). Pid reservation
        // makes the width irrelevant; this pins that property.
        let run = |workers: usize| {
            let rm = SlurmRm::new(VirtualCluster::new(ClusterConfig::with_nodes(8)))
                .with_launch_workers(workers);
            let handle = rm.launch_job(&JobSpec::new("app", 8, 4), false).unwrap();
            let table = published_table(&rm, &handle);
            let body: DaemonBody = Arc::new(|_ctx, _comm| {});
            let daemons =
                rm.spawn_daemons(&handle.allocation, "toold", &[], &[], body, &|| false).unwrap();
            for pid in &daemons {
                rm.cluster().wait_pid(*pid).unwrap();
                rm.cluster().join_thread(*pid).unwrap();
            }
            let placement: Vec<(u32, String, u64)> =
                table.entries().iter().map(|e| (e.rank, e.host.clone(), e.pid)).collect();
            rm.kill_job(&handle).unwrap();
            (placement, daemons)
        };
        let (seq_table, seq_daemons) = run(1);
        let (par_table, par_daemons) = run(8);
        assert_eq!(seq_table, par_table, "task placement must not depend on wave width");
        assert_eq!(seq_daemons, par_daemons, "daemon pids must not depend on wave width");
    }

    #[test]
    fn mw_allocation_is_disjoint_from_job() {
        let rm = rm(6);
        let handle = rm.launch_job(&JobSpec::new("app", 4, 1), false).unwrap();
        let mw = rm.allocate_mw_nodes(2).unwrap();
        let job_nodes: std::collections::HashSet<_> = handle.allocation.nodes.iter().collect();
        assert!(mw.nodes.iter().all(|n| !job_nodes.contains(n)));
        assert!(rm.allocate_mw_nodes(1).is_err(), "cluster fully allocated");
        rm.release_allocation(&mw);
        assert!(rm.allocate_mw_nodes(1).is_ok());
        rm.kill_job(&handle).unwrap();
    }

    #[test]
    fn kill_job_terminates_tasks_and_launcher() {
        let rm = rm(2);
        let handle = rm.launch_job(&JobSpec::new("app", 2, 4), false).unwrap();
        // The launcher publishes once every task exists.
        let table = published_table(&rm, &handle);
        let (fe_node, launcher) = rm.cluster().find_proc(handle.launcher_pid).unwrap();
        let blocks: Vec<_> = handle
            .allocation
            .nodes
            .iter()
            .flat_map(|n| rm.cluster().node(*n).unwrap().tasks())
            .collect();
        assert_eq!(blocks.len(), 2, "one block per node");
        let rows: Vec<_> = blocks.iter().flat_map(|b| b.rows()).collect();
        let published: Vec<_> = table.entries().iter().map(|e| (e.rank, e.pid)).collect();
        assert_eq!(rows, published, "every task's rank is its row's");
        for b in &blocks {
            assert!(Arc::ptr_eq(&b.spec, &blocks[0].spec), "one spec allocation per job");
            assert_eq!(b.job, handle.job_id);
        }
        rm.kill_job(&handle).unwrap();
        assert_eq!(launcher.shared.wait_terminal(), ProcState::Killed);
        // What the job owned is gone from the tables, launcher included.
        assert!(fe_node.proc(handle.launcher_pid).is_none());
        for n in &handle.allocation.nodes {
            assert_eq!(rm.cluster().node(*n).unwrap().pids(), vec![]);
        }
        for (_, pid) in rows {
            assert!(matches!(rm.cluster().kill(Pid(pid)), Err(ClusterError::NoSuchProcess(_))));
        }
    }

    #[test]
    fn kill_job_sweeps_exactly_its_job() {
        let rm = rm(2);
        let handle = rm.launch_job(&JobSpec::new("app", 2, 4), false).unwrap();
        published_table(&rm, &handle);
        let node = rm.cluster().node(handle.allocation.nodes[0]).unwrap();
        let tasks = node.pids();
        assert_eq!(tasks.len(), 4);
        let spec = node.task(tasks[0]).unwrap().spec;

        // Three neighbours on the job's node: a co-located daemon, a task of
        // another job with the same exe and rank, and one sharing this
        // job's very spec under another id. Only the job id decides.
        let cluster = rm.cluster();
        let daemon = cluster
            .spawn_active(node.id, ProcSpec::named("toold"), |ctx| {
                ctx.shared.wait_terminal();
            })
            .unwrap();
        let daemon_rec = node.proc(daemon).unwrap();
        let others = [
            filler(&rm, node.id, handle.job_id + 100, Arc::new(ProcSpec::named("app")), 1),
            filler(&rm, node.id, handle.job_id + 101, spec, 1),
        ];

        rm.kill_job(&handle).unwrap();
        for pid in &tasks {
            assert!(node.task(*pid).is_none(), "a killed task left the table");
        }
        assert_eq!(daemon_rec.shared.state(), ProcState::Running, "the daemon is not the job's");
        assert!(node.proc(daemon).is_some(), "the daemon stays in the table");
        for other in &others {
            let task = node.task(other.first_pid).expect("another job's task stays in the table");
            assert_eq!((task.job, task.first_rank), (other.job, 0));
        }
        assert_eq!(node.live_count(), 3, "the daemon and two other jobs' tasks run on");

        node.kill_matching(|r| r.pid == daemon);
        daemon_rec.thread.lock().take().unwrap().join().unwrap();
    }

    /// The task contract of a 4 x 8 job: every RPDTAB row reads back through
    /// `read_proc` as a running task of its rank, exe and synthesized stats;
    /// `pids()` and `live_count()` count the tasks; a kill leaves every pid
    /// unknown and the tables as they were; and a node whose table cannot
    /// take a whole block takes none of it.
    #[test]
    fn a_jobs_tasks_read_back_from_their_blocks_until_it_is_killed() {
        let rm = rm(4);
        let cluster = rm.cluster();
        let counts = || -> (usize, usize) {
            let nodes = cluster.compute_nodes().iter();
            nodes.fold((0, 0), |(p, l), n| (p + n.pids().len(), l + n.live_count()))
        };
        let baseline = counts();
        let handle = rm.launch_job(&JobSpec::new("app", 4, 8), false).unwrap();
        let table = published_table(&rm, &handle);
        assert_eq!(table.len(), 32);
        assert_eq!(counts(), (baseline.0 + 32, baseline.1 + 32));
        let seed = cluster.config().stats_seed;
        for row in table.entries() {
            let snap = cluster.read_proc(&row.host, Pid(row.pid)).unwrap();
            assert_eq!((snap.rank, snap.exe.as_str(), snap.state), (Some(row.rank), "app", 'R'));
            assert_eq!(snap.stats, synth_task_stats(seed, handle.job_id, row.rank));
        }
        rm.kill_job(&handle).unwrap();
        for row in table.entries() {
            let gone = cluster.read_proc(&row.host, Pid(row.pid));
            assert!(matches!(gone, Err(ClusterError::NoSuchProcess(_))), "{row:?}: {gone:?}");
        }
        assert_eq!(counts(), baseline);

        // Proc-table cap 10 with another job's 8 tasks on the node: a
        // 3-task block would cross it and is refused whole; a 2-task block
        // fills it exactly.
        let mut config = ClusterConfig::with_nodes(1);
        config.proc_table_cap = 10;
        let rm = SlurmRm::new(VirtualCluster::new(config));
        let node = rm.cluster().node(NodeId::Compute(0)).unwrap();
        filler(&rm, node.id, 0, Arc::new(ProcSpec::named("filler")), 8);
        let handle = rm.launch_job(&JobSpec::new("app", 1, 3), false).unwrap();
        assert_eq!(published_table(&rm, &handle).len(), 0, "3 tasks would cross the cap");
        assert_eq!(node.pids().len(), 8);
        rm.kill_job(&handle).unwrap();
        let handle = rm.launch_job(&JobSpec::new("app", 1, 2), false).unwrap();
        assert_eq!(published_table(&rm, &handle).len(), 2, "2 tasks fill the table exactly");
        assert_eq!(node.pids().len(), 10);
        rm.kill_job(&handle).unwrap();
    }

    #[test]
    fn a_failed_daemon_spawn_leaves_no_records() {
        let mut config = ClusterConfig::with_nodes(4);
        config.proc_table_cap = 4;
        let rm = SlurmRm::new(VirtualCluster::new(config));
        filler(&rm, NodeId::Compute(2), 0, Arc::new(ProcSpec::named("filler")), 4);
        let alloc = rm.allocate_mw_nodes(4).unwrap();
        let records = || -> Vec<usize> {
            alloc.nodes.iter().map(|n| rm.cluster().node(*n).unwrap().pids().len()).collect()
        };
        let baseline = records();
        assert_eq!(baseline.iter().sum::<usize>(), 4);
        let body: DaemonBody = Arc::new(|ctx, _comm| {
            while !ctx.killed() {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert!(rm.spawn_daemons(&alloc, "toold", &[], &[], body, &|| false).is_err());
        assert_eq!(records(), baseline, "the daemons that did spawn are killed and removed");
        rm.release_allocation(&alloc);
    }
}
