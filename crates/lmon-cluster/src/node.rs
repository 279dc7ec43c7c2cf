//! Compute and front-end nodes: process tables and the node-local spawn
//! service.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{ClusterError, ClusterResult};
use crate::process::{Pid, ProcRecord, ProcState, ProcTable};
use crate::procfs::ProcStats;

/// Index of a node within the cluster (`FE` is a distinguished node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// The front-end (login) node.
    FrontEnd,
    /// Compute node by index.
    Compute(u32),
}

impl NodeId {
    /// Compute-node index, if this is a compute node.
    pub fn compute_index(self) -> Option<u32> {
        match self {
            NodeId::FrontEnd => None,
            NodeId::Compute(i) => Some(i),
        }
    }
}

/// One node: identity plus a bounded process table.
pub struct Node {
    /// The node's id.
    pub id: NodeId,
    /// The node's hostname.
    pub hostname: String,
    /// Core count (informational; used by RMs for task placement).
    pub cores: usize,
    table: Mutex<ProcTable>,
    table_cap: usize,
}

impl Node {
    pub(crate) fn new(id: NodeId, hostname: String, cores: usize, table_cap: usize) -> Arc<Node> {
        Arc::new(Node { id, hostname, cores, table: Mutex::new(ProcTable::new()), table_cap })
    }

    /// Insert a record into the table, enforcing capacity.
    pub(crate) fn insert(&self, rec: Arc<ProcRecord>) -> ClusterResult<()> {
        let mut table = self.table.lock();
        if table.len() >= self.table_cap {
            return Err(ClusterError::ProcessTableFull(self.id));
        }
        table.insert(rec.pid, rec);
        Ok(())
    }

    /// Look up a process record.
    pub fn proc(&self, pid: Pid) -> Option<Arc<ProcRecord>> {
        self.table.lock().get(&pid).cloned()
    }

    /// Remove a process record (reaping). The caller owns what is left:
    /// dropping the record drops its `JoinHandle`, which detaches the
    /// thread and returns its stack when the body ends.
    pub fn reap(&self, pid: Pid) -> Option<Arc<ProcRecord>> {
        self.table.lock().remove(&pid)
    }

    /// Kill every record matching `pred` and take it out of the table, in
    /// one pass under one table lock. This is how a record's owner retires
    /// it: what is killed here is also freed here.
    pub fn kill_matching(&self, pred: impl Fn(&ProcRecord) -> bool) {
        self.table.lock().retain(|_, rec| {
            let hit = pred(rec);
            if hit {
                rec.shared.set_state(ProcState::Killed);
            }
            !hit
        });
    }

    /// Snapshot of all pids on this node, sorted for determinism.
    pub fn pids(&self) -> Vec<Pid> {
        let mut v: Vec<Pid> = self.table.lock().keys().copied().collect();
        v.sort();
        v
    }

    /// Pids whose record matches a predicate (e.g. all ranked tasks).
    pub fn pids_matching(&self, pred: impl Fn(&ProcRecord) -> bool) -> Vec<Pid> {
        let mut v: Vec<Pid> =
            self.table.lock().values().filter(|r| pred(r)).map(|r| r.pid).collect();
        v.sort();
        v
    }

    /// Number of live (non-terminal) processes.
    pub fn live_count(&self) -> usize {
        self.table.lock().values().filter(|r| !r.shared.state().is_terminal()).count()
    }

    /// Aggregate load estimate: live processes / cores.
    pub fn load(&self) -> f64 {
        self.live_count() as f64 / self.cores.max(1) as f64
    }

    /// Build a fresh default stats record for a daemon-style process.
    pub fn fresh_stats() -> ProcStats {
        ProcStats { num_threads: 1, vm_peak_kb: 8_192, vm_hwm_kb: 4_096, ..Default::default() }
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("hostname", &self.hostname)
            .field("procs", &self.table.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{ProcShared, ProcSpec};

    fn record(pid: u64, exe: &str, rank: Option<u32>) -> Arc<ProcRecord> {
        Arc::new(ProcRecord {
            pid: Pid(pid),
            spec: Arc::new(ProcSpec::named(exe)),
            rank,
            job: None,
            shared: ProcShared::new(ProcStats::default()),
            thread: Mutex::new(None),
        })
    }

    #[test]
    fn table_capacity_enforced() {
        let node = Node::new(NodeId::Compute(0), "node00000".into(), 8, 2);
        node.insert(record(1, "a", None)).unwrap();
        node.insert(record(2, "b", None)).unwrap();
        assert!(matches!(
            node.insert(record(3, "c", None)),
            Err(ClusterError::ProcessTableFull(NodeId::Compute(0)))
        ));
    }

    #[test]
    fn pids_sorted_and_matching_filter() {
        let node = Node::new(NodeId::Compute(1), "node00001".into(), 8, 100);
        node.insert(record(30, "app", Some(2))).unwrap();
        node.insert(record(10, "app", Some(0))).unwrap();
        node.insert(record(20, "daemon", None)).unwrap();
        assert_eq!(node.pids(), vec![Pid(10), Pid(20), Pid(30)]);
        assert_eq!(node.pids_matching(|r| r.rank.is_some()), vec![Pid(10), Pid(30)]);
    }

    #[test]
    fn live_count_tracks_state() {
        let node = Node::new(NodeId::FrontEnd, "fe".into(), 8, 100);
        let r = record(5, "x", None);
        node.insert(r.clone()).unwrap();
        assert_eq!(node.live_count(), 1);
        r.shared.set_state(ProcState::Exited(0));
        assert_eq!(node.live_count(), 0);
        assert!(node.load() < 0.01);
    }

    #[test]
    fn kill_matching_kills_and_removes_in_one_pass() {
        let node = Node::new(NodeId::Compute(0), "n".into(), 8, 100);
        let task = record(1, "app", Some(0));
        let daemon = record(2, "toold", None);
        node.insert(task.clone()).unwrap();
        node.insert(daemon.clone()).unwrap();
        node.kill_matching(|r| r.rank.is_some());
        assert_eq!(task.shared.state(), ProcState::Killed);
        assert_eq!(node.pids(), vec![Pid(2)], "what was killed left the table");
        assert_eq!(daemon.shared.state(), ProcState::Running);
    }

    #[test]
    fn reap_removes_entries() {
        let node = Node::new(NodeId::Compute(0), "n".into(), 8, 100);
        node.insert(record(7, "x", None)).unwrap();
        assert!(node.proc(Pid(7)).is_some());
        assert!(node.reap(Pid(7)).is_some());
        assert!(node.proc(Pid(7)).is_none());
        assert!(node.reap(Pid(7)).is_none());
    }
}
