//! A BlueGene/L-style `mpirun` resource manager.
//!
//! §4: "We have also ported LaunchMON to BlueGene/L. ... However, we found
//! that the time for spawning the job tasks and tool daemons (i.e., T(job)
//! and T(daemon)) by mpirun, the RM on that system, were significantly
//! higher."
//!
//! Functionally this RM offers the same surface as [`crate::SlurmRm`] —
//! which is the whole point of the engine's platform abstraction: the same
//! tool binary drives both. The differences live in (a) the default debug
//! event profile (per-node, modelling a chattier launcher) and (b) the cost
//! profile the discrete-event scenarios and the §4 model attach to the name
//! `"bluegene-mpirun"`.

use std::sync::Arc;

use lmon_cluster::VirtualCluster;

use crate::allocator::NodeAllocator;
use crate::slurm::{DebugEventProfile, Flavour, RmCore};

/// The BG/L-like RM.
pub struct BlueGeneRm {
    core: RmCore,
}

impl BlueGeneRm {
    /// A BG/L-like RM over `cluster`.
    pub fn new(cluster: VirtualCluster) -> Self {
        let allocator = Arc::new(NodeAllocator::new(&cluster));
        BlueGeneRm {
            core: RmCore {
                name: "bluegene-mpirun",
                cluster,
                allocator,
                events: DebugEventProfile::PerNode,
                launch_workers: lmon_cluster::DEFAULT_LAUNCH_WORKERS,
            },
        }
    }
}

impl Flavour for BlueGeneRm {
    fn core(&self) -> &RmCore {
        &self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{JobSpec, ResourceManager};
    use crate::mpir;
    use lmon_cluster::config::ClusterConfig;
    use lmon_cluster::trace::{TraceController, TraceEvent};
    use std::time::Duration;

    #[test]
    fn same_tool_flow_works_on_bluegene() {
        let rm = BlueGeneRm::new(VirtualCluster::new(ClusterConfig::with_nodes(3)));
        assert_eq!(rm.name(), "bluegene-mpirun");
        let mut handle = rm.launch_job(&JobSpec::new("app", 3, 2), true).unwrap();
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
        assert_eq!(forks, 3, "PerNode default: one event per node");
        let table = mpir::fetch_proctable(&ctl).unwrap();
        assert_eq!(table.len(), 6);
        ctl.continue_proc();
        rm.kill_job(&handle).unwrap();
    }
}
