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
use lmon_proto::rpdtab::{ProcDesc, Rpdtab};

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
    /// Environment key the RM stamps on every job task (used by kill).
    pub job_env_key: &'static str,
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
        let job_env_key = self.job_env_key;
        let launch_workers = self.launch_workers;

        let launcher_spec = ProcSpec::named("srun")
            .arg(format!("--nodes={}", spec.nodes))
            .arg(format!("--ntasks-per-node={}", spec.tasks_per_node))
            .arg(job_spec.app_exe.clone())
            .env_kv(job_env_key, &job_id.to_string());

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
                // would, no matter how workers interleave.
                let tpn = job_spec.tasks_per_node;
                let pid_block = cluster.reserve_pids(nodes.len() * tpn);
                let per_node = fanout(nodes.clone(), launch_workers, |node_i, node_id| {
                    let host = match cluster.node(node_id) {
                        Ok(n) => n.hostname.clone(),
                        Err(_) => return Vec::new(),
                    };
                    let mut descs = Vec::with_capacity(tpn);
                    for local in 0..tpn {
                        let rank = (node_i * tpn + local) as u32;
                        let mut task_spec = ProcSpec::named(&job_spec.app_exe)
                            .env_kv(job_env_key, &job_id.to_string());
                        task_spec.args = job_spec.app_args.clone();
                        task_spec.rank = Some(rank);
                        let pid = pid_block.pid(rank as usize);
                        if cluster.spawn_passive_with_pid(pid, node_id, task_spec, job_id).is_ok() {
                            descs.push(ProcDesc {
                                rank,
                                host: host.clone(),
                                exe: job_spec.app_exe.clone(),
                                pid: pid.0,
                            });
                        }
                    }
                    descs
                });
                let entries: Vec<ProcDesc> = per_node.into_iter().flatten().collect();

                // `kill_job` kills the launcher before it sweeps the nodes,
                // so a kill that landed during the spawn may have swept
                // before some tasks existed: those are the launcher's to
                // retire. A kill after this check sweeps them all.
                if ctx.killed() {
                    let _ = sweep_tasks(&cluster, &nodes, job_env_key, job_id);
                    return;
                }

                // Debugger-visible fork events, raised in rank order once
                // every task exists (tracers count events, they don't race
                // the forks themselves).
                let event_budget = events.event_count(job_spec.nodes, tpn);
                for desc in entries.iter().take(event_budget) {
                    ctx.raise_event(TraceEvent::Forked { child: Pid(desc.pid) });
                }

                // APAI: publish and stop at MPIR_Breakpoint if traced. Only
                // the published bytes outlive this statement: a launcher
                // that still held the decoded table would free its rows
                // when a kill wakes it, on another core, in the middle of
                // `kill_job`'s sweep.
                mpir::publish_proctable(&ctx, &Rpdtab::new(entries));

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
        let mut pids = Vec::with_capacity(results.len());
        let mut first_err = None;
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(()) => pids.push(block.pid(i)),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            // Never leave a partial daemon set running, or its records
            // behind, after an error: nobody will own them.
            for node_id in &alloc.nodes {
                if let Ok(node) = self.cluster.node(*node_id) {
                    node.kill_matching(|r| pids.contains(&r.pid));
                }
            }
            return Err(RmError::Cluster(e.to_string()));
        }
        Ok(pids)
    }

    /// The job owns its records: every task and the launcher is killed and
    /// leaves its node's table here, one pass per node of the footprint.
    /// The launcher dies first, so one still spawning sees the kill and
    /// retires whatever tasks this sweep came too early for.
    pub fn kill_job(&self, handle: &JobHandle) -> RmResult<()> {
        self.cluster.front_end().kill_matching(|r| r.pid == handle.launcher_pid);
        sweep_tasks(&self.cluster, &handle.allocation.nodes, self.job_env_key, handle.job_id)?;
        self.allocator.release(&handle.allocation);
        Ok(())
    }
}

/// Kill and remove every task stamped with job `job_id`, one
/// `Node::kill_matching` pass per node.
fn sweep_tasks(cluster: &VirtualCluster, nodes: &[NodeId], key: &str, job_id: u64) -> RmResult<()> {
    let id = job_id.to_string();
    for node_id in nodes {
        let node = cluster.node(*node_id).map_err(|e| RmError::Cluster(e.to_string()))?;
        node.kill_matching(|r| r.spec.env_get(key) == Some(id.as_str()));
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
                job_env_key: "SLURM_JOB_ID",
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
    use std::time::Duration;

    fn rm(nodes: usize) -> SlurmRm {
        SlurmRm::new(VirtualCluster::new(ClusterConfig::with_nodes(nodes)))
    }

    #[test]
    fn ungated_launch_publishes_proctable() {
        let rm = rm(2);
        let spec = JobSpec::new("ring", 2, 4);
        let handle = rm.launch_job(&spec, false).unwrap();
        assert!(!handle.is_gated());
        // Attach after the fact (the attachAndSpawn shape) and read APAI.
        let (_n, rec) = rm.cluster().find_proc(handle.launcher_pid).unwrap();
        // Give the launcher a moment to publish.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let table = loop {
            let ctl = TraceController::attach(handle.launcher_pid, rec.shared.clone()).unwrap();
            match mpir::fetch_proctable(&ctl) {
                Ok(t) => break t,
                Err(_) if std::time::Instant::now() < deadline => {
                    drop(ctl);
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("proctable never appeared: {e}"),
            }
        };
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
            let (_n, rec) = rm.cluster().find_proc(handle.launcher_pid).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let table = loop {
                let ctl = TraceController::attach(handle.launcher_pid, rec.shared.clone()).unwrap();
                match mpir::fetch_proctable(&ctl) {
                    Ok(t) => break t,
                    Err(_) if std::time::Instant::now() < deadline => {
                        drop(ctl);
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => panic!("proctable never appeared: {e}"),
                }
            };
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
        // wait until tasks exist
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let live: usize = handle
                .allocation
                .nodes
                .iter()
                .map(|n| rm.cluster().node(*n).unwrap().live_count())
                .sum();
            if live == 8 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "tasks never appeared");
            std::thread::sleep(Duration::from_millis(2));
        }
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
        rm.kill_job(&handle).unwrap();
        assert_eq!(launcher.shared.wait_terminal(), ProcState::Killed);
        assert!(tasks.iter().all(|t| t.shared.state() == ProcState::Killed));
        // What the job owned is gone from the tables, launcher included.
        assert!(fe_node.proc(handle.launcher_pid).is_none());
        for n in &handle.allocation.nodes {
            assert_eq!(rm.cluster().node(*n).unwrap().pids(), vec![]);
        }
    }
}
