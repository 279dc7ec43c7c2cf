//! Compute and front-end nodes: process tables and the node-local spawn
//! service.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{ClusterError, ClusterResult};
use crate::process::{Pid, ProcRecord, ProcState, TaskBlock};

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

/// A node's process table: active-process records by pid, and the task
/// blocks of the jobs placed on the node.
#[derive(Default)]
struct ProcTable {
    records: HashMap<Pid, Arc<ProcRecord>>,
    tasks: Vec<TaskBlock>,
}

impl ProcTable {
    fn task_count(&self) -> usize {
        self.tasks.iter().map(|b| b.count as usize).sum()
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
        Arc::new(Node { id, hostname, cores, table: Mutex::new(ProcTable::default()), table_cap })
    }

    /// Lock the table for adding `n` processes, or refuse all of them.
    fn admit(&self, n: usize) -> ClusterResult<parking_lot::MutexGuard<'_, ProcTable>> {
        let table = self.table.lock();
        if table.records.len() + table.task_count() + n > self.table_cap {
            return Err(ClusterError::ProcessTableFull(self.id));
        }
        Ok(table)
    }

    /// Insert a record into the table, enforcing capacity.
    pub(crate) fn insert(&self, rec: Arc<ProcRecord>) -> ClusterResult<()> {
        self.admit(1)?.records.insert(rec.pid, rec);
        Ok(())
    }

    /// Place a block of tasks, under the node's one lock: all of them, or
    /// none if they would overflow its table. Their pids come from a
    /// [`reserve_pids`](crate::VirtualCluster::reserve_pids) block.
    pub fn spawn_tasks(&self, block: TaskBlock) -> ClusterResult<()> {
        self.admit(block.count as usize)?.tasks.push(block);
        Ok(())
    }

    /// Look up an active process's record.
    pub fn proc(&self, pid: Pid) -> Option<Arc<ProcRecord>> {
        self.table.lock().records.get(&pid).cloned()
    }

    /// The task `pid`, as a block of one.
    pub fn task(&self, pid: Pid) -> Option<TaskBlock> {
        self.table.lock().tasks.iter().find_map(|b| b.offset(pid).map(|i| b.slice(i, i + 1)))
    }

    /// The task blocks on this node, in pid order.
    pub fn tasks(&self) -> Vec<TaskBlock> {
        let mut v = self.table.lock().tasks.clone();
        v.sort_by_key(|b| b.first_pid);
        v
    }

    /// Kill every record matching `pred` and take it out of the table, in
    /// one pass under one table lock. This is how a record's owner retires
    /// it: what is killed here is also freed here.
    pub fn kill_matching(&self, pred: impl Fn(&ProcRecord) -> bool) {
        self.table.lock().records.retain(|_, rec| {
            let hit = pred(rec);
            if hit {
                rec.shared.set_state(ProcState::Killed);
            }
            !hit
        });
    }

    /// Kill every task of job `job`: its blocks leave the table in one pass.
    pub fn kill_tasks(&self, job: u64) {
        self.table.lock().tasks.retain(|b| b.job != job);
    }

    /// Kill the task `pid`: it leaves its block, which splits in two at
    /// most. Returns whether there was such a task.
    pub fn kill_task(&self, pid: Pid) -> bool {
        let mut table = self.table.lock();
        let hit = table.tasks.iter().enumerate().find_map(|(at, b)| Some((at, b.offset(pid)?)));
        let Some((at, i)) = hit else { return false };
        let block = table.tasks.swap_remove(at);
        let halves = [block.slice(0, i), block.slice(i + 1, block.count)];
        table.tasks.extend(halves.into_iter().filter(|b| b.count > 0));
        true
    }

    /// Snapshot of all pids on this node, tasks included, sorted for
    /// determinism.
    pub fn pids(&self) -> Vec<Pid> {
        let table = self.table.lock();
        let tasks = table.tasks.iter().flat_map(|b| b.rows().map(|(_, pid)| Pid(pid)));
        let mut v: Vec<Pid> = table.records.keys().copied().chain(tasks).collect();
        v.sort();
        v
    }

    /// Number of live (non-terminal) processes; a task is live until killed.
    pub fn live_count(&self) -> usize {
        let table = self.table.lock();
        let records = table.records.values().filter(|r| !r.shared.state().is_terminal());
        records.count() + table.task_count()
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("hostname", &self.hostname)
            .field("procs", &self.table.lock().records.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{ProcShared, ProcSpec};
    use crate::procfs::ProcStats;

    fn record(pid: u64, exe: &str) -> Arc<ProcRecord> {
        Arc::new(ProcRecord {
            pid: Pid(pid),
            spec: Arc::new(ProcSpec::named(exe)),
            shared: ProcShared::new(ProcStats::default()),
            thread: Mutex::new(None),
        })
    }

    fn block(job: u64, first_pid: u64, first_rank: u32, count: u32) -> TaskBlock {
        let spec = Arc::new(ProcSpec::named("app"));
        TaskBlock { job, spec, first_pid: Pid(first_pid), first_rank, count }
    }

    #[test]
    fn table_capacity_enforced() {
        let node = Node::new(NodeId::Compute(0), "node00000".into(), 8, 4);
        node.insert(record(1, "a")).unwrap();
        node.spawn_tasks(block(1, 10, 0, 2)).unwrap();
        assert!(matches!(
            node.spawn_tasks(block(2, 20, 0, 2)),
            Err(ClusterError::ProcessTableFull(NodeId::Compute(0)))
        ));
        assert_eq!(node.pids().len(), 3, "a block that would cross the cap is refused whole");
        node.insert(record(2, "b")).unwrap();
        assert!(matches!(
            node.insert(record(3, "c")),
            Err(ClusterError::ProcessTableFull(NodeId::Compute(0)))
        ));
    }

    #[test]
    fn pids_sorted_and_matching_filter() {
        let node = Node::new(NodeId::Compute(1), "node00001".into(), 8, 100);
        node.spawn_tasks(block(7, 30, 2, 2)).unwrap();
        node.spawn_tasks(block(7, 10, 0, 2)).unwrap();
        node.insert(record(20, "daemon")).unwrap();
        let pids = [10, 11, 20, 30, 31].map(Pid);
        assert_eq!(node.pids(), pids);
        let ranks: Vec<_> =
            node.tasks().iter().flat_map(|b| b.rows().collect::<Vec<_>>()).collect();
        assert_eq!(ranks, vec![(0, 10), (1, 11), (2, 30), (3, 31)], "tasks only, in pid order");
        let task = node.task(Pid(31)).unwrap();
        assert_eq!((task.job, task.first_pid, task.first_rank, task.count), (7, Pid(31), 3, 1));
        assert!(node.task(Pid(20)).is_none(), "a record is not a task");
        assert!(node.task(Pid(12)).is_none());
        assert!(node.proc(Pid(10)).is_none(), "a task has no record");
    }

    #[test]
    fn live_count_tracks_state() {
        let node = Node::new(NodeId::FrontEnd, "fe".into(), 8, 100);
        let r = record(5, "x");
        node.insert(r.clone()).unwrap();
        node.spawn_tasks(block(1, 10, 0, 3)).unwrap();
        assert_eq!(node.live_count(), 4);
        r.shared.set_state(ProcState::Exited(0));
        assert_eq!(node.live_count(), 3);
        node.kill_tasks(1);
        assert_eq!(node.live_count(), 0);
    }

    #[test]
    fn kill_matching_kills_and_removes_in_one_pass() {
        let node = Node::new(NodeId::Compute(0), "n".into(), 8, 100);
        let launcher = record(1, "srun");
        let daemon = record(2, "toold");
        node.insert(launcher.clone()).unwrap();
        node.insert(daemon.clone()).unwrap();
        node.spawn_tasks(block(7, 10, 0, 2)).unwrap();
        node.spawn_tasks(block(8, 20, 0, 2)).unwrap();
        node.kill_matching(|r| r.spec.exe == "srun");
        assert_eq!(launcher.shared.state(), ProcState::Killed);
        assert_eq!(daemon.shared.state(), ProcState::Running);
        assert_eq!(node.pids(), [2, 10, 11, 20, 21].map(Pid), "what was killed left the table");
        node.kill_tasks(7);
        assert_eq!(node.pids(), [2, 20, 21].map(Pid), "job 7's block left, job 8's stays");
    }

    #[test]
    fn kill_task_splits_its_block() {
        let node = Node::new(NodeId::Compute(0), "n".into(), 8, 100);
        node.spawn_tasks(block(7, 10, 4, 5)).unwrap();
        assert!(node.kill_task(Pid(12)));
        assert!(!node.kill_task(Pid(12)), "a task dies once");
        assert!(node.kill_task(Pid(10)));
        assert!(node.kill_task(Pid(14)));
        assert!(!node.kill_task(Pid(15)));
        let rows: Vec<_> = node.tasks().iter().flat_map(|b| b.rows().collect::<Vec<_>>()).collect();
        assert_eq!(rows, vec![(5, 11), (7, 13)], "the survivors keep their ranks");
        assert_eq!(node.tasks().len(), 2, "one split, two trims");
    }
}
