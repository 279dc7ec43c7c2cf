//! The uniform resource-manager interface.
//!
//! LaunchMON "abstracts native RM interfaces and services" (§1); this trait
//! is that abstraction in the reproduction. The engine is written entirely
//! against [`ResourceManager`] — porting to a "new machine" means a new
//! implementation of this trait, mirroring how the real engine is ported by
//! "parameterizing and inheriting key abstract classes" (§3.1).

use std::fmt;
use std::sync::mpsc::Sender;
use std::sync::Arc;

use lmon_cluster::node::NodeId;
use lmon_cluster::process::{Pid, ProcCtx};
use lmon_cluster::VirtualCluster;
use lmon_iccl::ChannelFabric;

/// Errors from RM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RmError {
    /// Not enough free nodes for the request.
    InsufficientNodes {
        /// Nodes requested.
        want: usize,
        /// Nodes free.
        free: usize,
    },
    /// Referenced an unknown job.
    NoSuchJob(u64),
    /// A cluster-level failure during spawn.
    Cluster(String),
    /// The RM refused the operation in the job's current state.
    BadJobState(&'static str),
    /// Remote access failed (ad hoc launchers only).
    Remote(String),
}

impl fmt::Display for RmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RmError::InsufficientNodes { want, free } => {
                write!(f, "allocation failed: want {want} nodes, {free} free")
            }
            RmError::NoSuchJob(id) => write!(f, "no such job: {id}"),
            RmError::Cluster(e) => write!(f, "cluster error: {e}"),
            RmError::BadJobState(s) => write!(f, "bad job state: {s}"),
            RmError::Remote(e) => write!(f, "remote access error: {e}"),
        }
    }
}

impl std::error::Error for RmError {}

/// Result alias for RM operations.
pub type RmResult<T> = Result<T, RmError>;

/// What to run as the parallel job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Application executable name.
    pub app_exe: String,
    /// Application arguments.
    pub app_args: Vec<String>,
    /// Nodes to allocate.
    pub nodes: usize,
    /// MPI tasks per node (Atlas experiments: 8).
    pub tasks_per_node: usize,
}

impl JobSpec {
    /// Convenience constructor.
    pub fn new(app_exe: impl Into<String>, nodes: usize, tasks_per_node: usize) -> Self {
        JobSpec { app_exe: app_exe.into(), app_args: Vec::new(), nodes, tasks_per_node }
    }

    /// Total MPI tasks.
    pub fn total_tasks(&self) -> usize {
        self.nodes * self.tasks_per_node
    }
}

/// A set of nodes granted to a job or middleware request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Allocation id (job id for jobs).
    pub id: u64,
    /// The granted nodes, in allocation order.
    pub nodes: Vec<NodeId>,
}

impl Allocation {
    /// Number of nodes in the allocation.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the allocation is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Handle to a launched job.
pub struct JobHandle {
    /// RM job id.
    pub job_id: u64,
    /// Pid of the RM launcher process (srun/mpirun) on the front end.
    pub launcher_pid: Pid,
    /// The job's node allocation.
    pub allocation: Allocation,
    /// Release gate: a launcher started "under tool control" blocks until
    /// this fires, giving the engine time to attach and arm breakpoints
    /// before the launcher reaches `MPIR_Breakpoint`. `None` once released
    /// or when launched without a tool.
    pub(crate) gate: Option<Sender<()>>,
}

impl JobHandle {
    /// Let a gated launcher proceed (idempotent).
    pub fn release(&mut self) {
        if let Some(gate) = self.gate.take() {
            let _ = gate.send(());
        }
    }

    /// Whether the launcher is still gated.
    pub fn is_gated(&self) -> bool {
        self.gate.is_some()
    }
}

impl fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("job_id", &self.job_id)
            .field("launcher_pid", &self.launcher_pid)
            .field("nodes", &self.allocation.len())
            .finish()
    }
}

/// The body run by each co-spawned daemon: receives its process context and
/// its endpoint of the fabric the RM built for the spawn (rank = the
/// daemon's position in the allocation).
pub type DaemonBody = Arc<dyn Fn(ProcCtx, ChannelFabric) + Send + Sync + 'static>;

/// The uniform RM surface the LaunchMON engine programs against.
pub trait ResourceManager: Send + Sync {
    /// Human-readable RM name (`slurm`, `bluegene-mpirun`, ...).
    fn name(&self) -> &'static str;

    /// The cluster this RM manages.
    fn cluster(&self) -> &VirtualCluster;

    /// Launch a parallel job.
    ///
    /// With `under_tool = true`, the launcher process starts gated (see
    /// [`JobHandle::release`]) and exports the MPIR debug surface; this is
    /// the path `launchAndSpawn` drives. With `false`, the job launches
    /// normally (the pre-existing job an `attachAndSpawn` later targets).
    fn launch_job(&self, spec: &JobSpec, under_tool: bool) -> RmResult<JobHandle>;

    /// Bulk-launch one tool daemon per node of an existing allocation —
    /// the native, scalable co-location facility (`srun --jobid=N`).
    ///
    /// The RM constructs the inter-daemon fabric and hands each daemon an
    /// endpoint; returns daemon pids in allocation-node order.
    fn spawn_daemons(
        &self,
        alloc: &Allocation,
        exe: &str,
        args: &[String],
        env: &[String],
        body: DaemonBody,
    ) -> RmResult<Vec<Pid>>;

    /// Allocate `count` extra nodes for middleware daemons (§2: TBON
    /// "daemons require separately allocated nodes").
    fn allocate_mw_nodes(&self, count: usize) -> RmResult<Allocation>;

    /// Release an allocation (job end or middleware teardown).
    fn release_allocation(&self, alloc: &Allocation);

    /// Kill a job: terminate its tasks and its launcher.
    fn kill_job(&self, handle: &JobHandle) -> RmResult<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_totals() {
        let spec = JobSpec::new("ring", 128, 8);
        assert_eq!(spec.total_tasks(), 1024);
    }

    #[test]
    fn allocation_len() {
        let a = Allocation { id: 1, nodes: vec![NodeId::Compute(0), NodeId::Compute(1)] };
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        let e = Allocation { id: 2, nodes: vec![] };
        assert!(e.is_empty());
    }

    #[test]
    fn gate_release_is_idempotent() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut h = JobHandle {
            job_id: 1,
            launcher_pid: Pid(1),
            allocation: Allocation { id: 1, nodes: vec![] },
            gate: Some(tx),
        };
        assert!(h.is_gated());
        h.release();
        assert!(!h.is_gated());
        h.release(); // second call is a no-op
        assert!(rx.recv().is_ok());
        assert!(rx.recv().is_err(), "gate sender dropped after release");
    }

    #[test]
    fn error_display() {
        let e = RmError::InsufficientNodes { want: 512, free: 4 };
        assert!(e.to_string().contains("512"));
    }
}
