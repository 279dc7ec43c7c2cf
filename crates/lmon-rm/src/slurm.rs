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

use lmon_cluster::fanout::{fanout, DEFAULT_LAUNCH_WORKERS};
use lmon_cluster::node::NodeId;
use lmon_cluster::process::{Pid, ProcSpec};
use lmon_cluster::trace::TraceEvent;
use lmon_cluster::VirtualCluster;
use lmon_iccl::ChannelFabric;
use lmon_proto::rpdtab::RpdtabWriter;
use lmon_proto::wire::WireEncode;

use crate::allocator::NodeAllocator;
use crate::api::{Allocation, DaemonBody, JobHandle, JobSpec, ResourceManager, RmError, RmResult};
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
    /// Fan-out width for per-node daemon/task spawn loops. `1` reproduces
    /// the old sequential loops exactly; placement is identical either way
    /// because pids are reserved before the fan-out.
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
        let launch_workers = self.launch_workers;

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

                // Spawn the application tasks: passive table entries, laid
                // out block-wise like srun's default distribution. Pids are
                // reserved up front in rank order, so the bounded fan-out
                // below places every task exactly where the sequential loop
                // would, no matter how workers interleave. Each node's
                // worker returns its hostname and the `(rank, pid)` of every
                // task it spawned. Every task shares the job's one spec.
                let tpn = job_spec.tasks_per_node;
                let task_spec = Arc::new(ProcSpec {
                    args: job_spec.app_args.clone(),
                    ..ProcSpec::named(&job_spec.app_exe)
                });
                let pid_block = cluster.reserve_pids(nodes.len() * tpn);
                let per_node = fanout(nodes.clone(), launch_workers, |node_i, node_id| {
                    let Ok(node) = cluster.node(node_id) else { return (String::new(), vec![]) };
                    let mut tasks = Vec::with_capacity(tpn);
                    for local in 0..tpn {
                        let rank = (node_i * tpn + local) as u32;
                        let pid = pid_block.pid(rank as usize);
                        if cluster
                            .spawn_passive_with_pid(pid, node_id, &task_spec, job_id, rank)
                            .is_ok()
                        {
                            tasks.push((rank, pid.0));
                        }
                    }
                    (node.hostname.clone(), tasks)
                });

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
                let pids = per_node.iter().flat_map(|(_, tasks)| tasks).map(|&(_, pid)| pid);
                for pid in pids.take(event_budget) {
                    ctx.raise_event(TraceEvent::Forked { child: Pid(pid) });
                }

                // APAI: publish and stop at MPIR_Breakpoint if traced. The
                // encoding consumes the per-node lists, so only the exported
                // bytes are left when the launcher stops: one still holding
                // its rows would free them when the engine continues it,
                // inside the handshake, or when a kill wakes it, on another
                // core in the middle of `kill_job`'s sweep.
                let (table, ntasks) = encode_proctable(per_node, &job_spec.app_exe);
                mpir::publish_proctable(&ctx, table, ntasks);

                // The launcher lives until the job is killed.
                ctx.shared.wait_terminal();
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
    ) -> RmResult<Vec<Pid>> {
        // The RM's fabric for this spawn: endpoint `i` goes to the daemon
        // on the allocation's `i`-th node, so rank 0 is the master's.
        let endpoints = ChannelFabric::mesh(alloc.nodes.len() as u32);
        // Reserve one pid per node in node order, then fan the spawns out:
        // daemon `i` always gets pid `block.pid(i)`, so placement matches
        // the sequential loop bit-for-bit while the thread-creation cost —
        // the dominant serial term of T(daemon) — is paid in parallel.
        let block = self.cluster.reserve_pids(alloc.nodes.len());
        let targets: Vec<_> = alloc.nodes.iter().copied().zip(endpoints).collect();
        let cluster = &self.cluster;
        let results = fanout(targets, self.launch_workers, |i, (node_id, ep)| {
            let mut spec = ProcSpec::named(exe);
            spec.args = args.to_vec();
            spec.env = env.to_vec();
            spec = spec
                .env_kv("LMON_BE_RANK", &ep.rank().to_string())
                .env_kv("LMON_BE_SIZE", &ep.size().to_string());
            let body = body.clone();
            cluster.spawn_active_with_pid(block.pid(i), node_id, spec, move |ctx| body(ctx, ep))
        });
        if let Some(e) = results.iter().find_map(|r| r.as_ref().err()) {
            // Never leave a partial daemon set running, or its records
            // behind, after an error: nobody will own them. Daemon `i`
            // lives on `alloc.nodes[i]` with pid `block.pid(i)`.
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

    /// The job owns its records: every task and the launcher is killed and
    /// leaves its node's table here, one pass per node of the footprint.
    /// The launcher dies first, so one still spawning sees the kill and
    /// retires whatever tasks this sweep came too early for.
    pub fn kill_job(&self, handle: &JobHandle) -> RmResult<()> {
        self.cluster.front_end().kill_matching(|r| r.pid == handle.launcher_pid);
        sweep_tasks(&self.cluster, &handle.allocation.nodes, handle.job_id)?;
        self.allocator.release(&handle.allocation);
        Ok(())
    }
}

/// A launcher's `MPIR_proctable`: each node's `(rank, pid)` rows, in rank
/// order, written straight into the one encoding; and the row count. A
/// node with no rows leaves its host out.
fn encode_proctable(per_node: Vec<(String, Vec<(u32, u64)>)>, exe: &str) -> (Vec<u8>, usize) {
    let ntasks = per_node.iter().map(|(_, tasks)| tasks.len()).sum();
    let mut table = RpdtabWriter::with_capacity(ntasks);
    for (host, tasks) in &per_node {
        table.push(host, exe, tasks);
    }
    (table.to_bytes(), ntasks)
}

/// Kill and remove every task of job `job_id`, one `Node::kill_matching`
/// pass per node.
fn sweep_tasks(cluster: &VirtualCluster, nodes: &[NodeId], job_id: u64) -> RmResult<()> {
    for node_id in nodes {
        let node = cluster.node(*node_id).map_err(|e| RmError::Cluster(e.to_string()))?;
        node.kill_matching(|r| r.job == Some(job_id));
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

    /// Override the spawn fan-out width (`1` = the sequential reference
    /// arm of `parallel_fanout_matches_sequential_placement`).
    #[cfg(test)]
    fn with_launch_workers(mut self, workers: usize) -> Self {
        self.core.launch_workers = workers;
        self
    }

    /// The node allocator (shared with middleware allocation).
    pub fn allocator(&self) -> Arc<NodeAllocator> {
        self.core.allocator.clone()
    }
}

impl ResourceManager for SlurmRm {
    fn name(&self) -> &'static str {
        self.core.name
    }

    fn cluster(&self) -> &VirtualCluster {
        &self.core.cluster
    }

    fn launch_job(&self, spec: &JobSpec, under_tool: bool) -> RmResult<JobHandle> {
        self.core.launch_job(spec, under_tool)
    }

    fn spawn_daemons(
        &self,
        alloc: &Allocation,
        exe: &str,
        args: &[String],
        env: &[String],
        body: DaemonBody,
    ) -> RmResult<Vec<Pid>> {
        self.core.spawn_daemons(alloc, exe, args, env, body)
    }

    fn allocate_mw_nodes(&self, count: usize) -> RmResult<Allocation> {
        let id = self.core.cluster.alloc_job_id();
        self.core.allocator.allocate(id, count)
    }

    fn release_allocation(&self, alloc: &Allocation) {
        self.core.allocator.release(alloc);
    }

    fn kill_job(&self, handle: &JobHandle) -> RmResult<()> {
        self.core.kill_job(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmon_cluster::config::ClusterConfig;
    use lmon_cluster::process::ProcState;
    use lmon_cluster::trace::TraceController;
    use lmon_iccl::{IcclComm, Topology};
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

    /// What the old launcher built from the same job: one row per task
    /// record on the job's nodes, made from the cluster's process tables.
    fn rows_in_tables(rm: &SlurmRm, handle: &JobHandle) -> Vec<ProcDesc> {
        let mut rows = Vec::new();
        for node_id in &handle.allocation.nodes {
            let node = rm.cluster().node(*node_id).unwrap();
            for pid in node.pids() {
                let rec = node.proc(pid).unwrap();
                if let Some(rank) = rec.rank.filter(|_| rec.spec.exe == "app") {
                    let host = node.hostname.clone();
                    rows.push(ProcDesc { rank, host, exe: rec.spec.exe.clone(), pid: pid.0 });
                }
            }
        }
        rows
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
        let full = NodeId::Compute(1);
        let filler = Arc::new(ProcSpec::named("filler"));
        for _ in 0..8 {
            rm.cluster().spawn_passive(full, &filler, 0, 0).unwrap();
        }
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
        let body: DaemonBody = Arc::new(move |ctx, ep| {
            let mut comm = IcclComm::new(ep, Topology::Binomial);
            let gathered = comm.gather(ctx.hostname.clone().into_bytes()).unwrap();
            if let Some(hosts) = gathered {
                tx.send(hosts).unwrap();
            }
        });
        let pids = rm.spawn_daemons(&handle.allocation, "toold", &[], &[], body).unwrap();
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
    fn parallel_fanout_matches_sequential_placement() {
        // Same cluster shape, same job: the 8-wide fan-out must produce a
        // proctable (rank → host/pid) and daemon pid set identical to the
        // 1-wide (sequential) baseline. Pid reservation makes worker
        // interleaving irrelevant; this pins that property.
        let run = |workers: usize| {
            let rm = SlurmRm::new(VirtualCluster::new(ClusterConfig::with_nodes(8)))
                .with_launch_workers(workers);
            let handle = rm.launch_job(&JobSpec::new("app", 8, 4), false).unwrap();
            let table = published_table(&rm, &handle);
            let body: DaemonBody = Arc::new(|_ctx, _ep| {});
            let daemons = rm.spawn_daemons(&handle.allocation, "toold", &[], &[], body).unwrap();
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
        assert_eq!(seq_table, par_table, "task placement must not depend on fan-out width");
        assert_eq!(seq_daemons, par_daemons, "daemon pids must not depend on fan-out width");
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
        let row_rank: std::collections::HashMap<u64, u32> =
            table.entries().iter().map(|e| (e.pid, e.rank)).collect();
        let (fe_node, launcher) = rm.cluster().find_proc(handle.launcher_pid).unwrap();
        let tasks: Vec<_> = handle
            .allocation
            .nodes
            .iter()
            .flat_map(|n| {
                let node = rm.cluster().node(*n).unwrap();
                node.pids().into_iter().map(move |pid| node.proc(pid).unwrap())
            })
            .collect();
        assert_eq!(tasks.len(), 8);
        for t in &tasks {
            assert!(Arc::ptr_eq(&t.spec, &tasks[0].spec), "one spec allocation per job");
            assert_eq!(t.rank, Some(row_rank[&t.pid.0]), "the record's rank is its row's");
            assert_eq!(t.job, Some(handle.job_id));
        }
        rm.kill_job(&handle).unwrap();
        assert_eq!(launcher.shared.wait_terminal(), ProcState::Killed);
        assert!(tasks.iter().all(|t| t.shared.state() == ProcState::Killed));
        // What the job owned is gone from the tables, launcher included.
        assert!(fe_node.proc(handle.launcher_pid).is_none());
        for n in &handle.allocation.nodes {
            assert_eq!(rm.cluster().node(*n).unwrap().pids(), vec![]);
        }
    }

    #[test]
    fn kill_job_sweeps_exactly_its_job() {
        let rm = rm(2);
        let handle = rm.launch_job(&JobSpec::new("app", 2, 4), false).unwrap();
        published_table(&rm, &handle);
        let node = rm.cluster().node(handle.allocation.nodes[0]).unwrap();
        let tasks: Vec<_> = node.pids().into_iter().map(|pid| node.proc(pid).unwrap()).collect();
        assert_eq!(tasks.len(), 4);

        // Three neighbours on the job's node: a co-located daemon, a task of
        // another job with the same exe and rank, and one sharing this
        // job's very spec under another id. Only the job id decides.
        let cluster = rm.cluster();
        let daemon = cluster
            .spawn_active(node.id, ProcSpec::named("toold"), |ctx| {
                ctx.shared.wait_terminal();
            })
            .unwrap();
        let other = Arc::new(ProcSpec::named("app"));
        let others = [
            daemon,
            cluster.spawn_passive(node.id, &other, handle.job_id + 100, 0).unwrap(),
            cluster.spawn_passive(node.id, &tasks[0].spec, handle.job_id + 101, 0).unwrap(),
        ];
        let others: Vec<_> = others.iter().map(|pid| node.proc(*pid).unwrap()).collect();

        rm.kill_job(&handle).unwrap();
        for t in &tasks {
            assert_eq!(t.shared.state(), ProcState::Killed);
            assert!(node.proc(t.pid).is_none(), "a killed task left the table");
        }
        for r in &others {
            assert_eq!(r.shared.state(), ProcState::Running, "{r:?} is not the job's");
            assert!(node.proc(r.pid).is_some(), "{r:?} stays in the table");
        }

        node.kill_matching(|r| r.pid == daemon);
        others[0].thread.lock().take().unwrap().join().unwrap();
    }

    #[test]
    fn a_failed_daemon_spawn_leaves_no_records() {
        let mut config = ClusterConfig::with_nodes(4);
        config.proc_table_cap = 4;
        let rm = SlurmRm::new(VirtualCluster::new(config));
        let filler = Arc::new(ProcSpec::named("filler"));
        for rank in 0..4 {
            rm.cluster().spawn_passive(NodeId::Compute(2), &filler, 0, rank).unwrap();
        }
        let alloc = rm.allocate_mw_nodes(4).unwrap();
        let records = || -> Vec<usize> {
            alloc.nodes.iter().map(|n| rm.cluster().node(*n).unwrap().pids().len()).collect()
        };
        let baseline = records();
        assert_eq!(baseline.iter().sum::<usize>(), 4);
        let body: DaemonBody = Arc::new(|ctx, _ep| {
            while !ctx.killed() {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert!(rm.spawn_daemons(&alloc, "toold", &[], &[], body).is_err());
        assert_eq!(records(), baseline, "the daemons that did spawn are killed and removed");
        rm.release_allocation(&alloc);
    }
}
