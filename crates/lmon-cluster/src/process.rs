//! Processes on the virtual cluster.
//!
//! Two kinds exist:
//!
//! * **Active** processes run a Rust closure on a dedicated OS thread —
//!   tool daemons, RM launchers, TBON communication daemons. A body that
//!   calls [`ProcCtx::linger`] leaves its record `Running` when it returns.
//! * **Tasks**, the MPI application's processes, are one [`TaskBlock`] per
//!   job per node, with statistics synthesized when read. A tool observes
//!   them (via `/proc` and the RPDTAB) but they cost neither a thread nor a
//!   record each, which is what lets functional tests co-locate daemons
//!   with "8192-task jobs".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::procfs::ProcStats;
use crate::trace::TraceCell;

/// A cluster-global process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u64);

/// Lifecycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Scheduled and runnable.
    Running,
    /// Stopped by a tracer or signal (`T` in `/proc` terms).
    Stopped,
    /// Finished; exit code recorded.
    Exited(i32),
    /// Killed by the RM or a tool.
    Killed,
}

impl ProcState {
    /// The single-character state code `/proc/<pid>/stat` would show.
    pub fn code(self) -> char {
        match self {
            ProcState::Running => 'R',
            ProcState::Stopped => 'T',
            ProcState::Exited(_) => 'Z',
            ProcState::Killed => 'K',
        }
    }

    /// Whether the process has terminated.
    pub fn is_terminal(self) -> bool {
        matches!(self, ProcState::Exited(_) | ProcState::Killed)
    }
}

/// What to run: image name, arguments, environment. Every task of one job
/// shares one spec; the job id and the ranks live on the [`TaskBlock`].
#[derive(Debug, Clone, Default)]
pub struct ProcSpec {
    /// Executable image name (also reported in the RPDTAB).
    pub exe: String,
    /// Command-line arguments.
    pub args: Vec<String>,
    /// Environment assignments, `KEY=VALUE`.
    pub env: Vec<String>,
}

impl ProcSpec {
    /// A spec with just an image name.
    pub fn named(exe: impl Into<String>) -> Self {
        ProcSpec { exe: exe.into(), ..Default::default() }
    }

    /// Builder: add an argument.
    pub fn arg(mut self, a: impl Into<String>) -> Self {
        self.args.push(a.into());
        self
    }

    /// Builder: add an environment assignment.
    pub fn env_kv(mut self, k: &str, v: &str) -> Self {
        self.env.push(format!("{k}={v}"));
        self
    }

    /// Look up an environment value by key.
    pub fn env_get(&self, key: &str) -> Option<&str> {
        let prefix_len = key.len();
        self.env.iter().find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (k == key && k.len() == prefix_len).then_some(v)
        })
    }
}

/// Shared, lock-protected state of one process-table entry.
#[derive(Debug)]
pub struct ProcShared {
    /// Lifecycle state.
    pub state: Mutex<ProcState>,
    /// Signalled on every state transition.
    pub state_cv: Condvar,
    /// `/proc` statistics.
    pub stats: Mutex<ProcStats>,
    /// Trace-control cell (breakpoints, exported symbols, event queue).
    pub trace: TraceCell,
    pub(crate) lingers: AtomicBool,
}

impl ProcShared {
    pub(crate) fn new(stats: ProcStats) -> Arc<Self> {
        Arc::new(ProcShared {
            state: Mutex::new(ProcState::Running),
            state_cv: Condvar::new(),
            stats: Mutex::new(stats),
            trace: TraceCell::default(),
            lingers: AtomicBool::new(false),
        })
    }

    /// Transition state and wake waiters. Terminal states are sticky: once
    /// `Exited` or `Killed`, every later transition is ignored, decided
    /// under the state lock — so a kill that lands while the process is
    /// between two stores of its own (a tracee resuming from a checkpoint,
    /// a body returning) can never be overwritten.
    pub fn set_state(&self, s: ProcState) {
        let mut st = self.state.lock();
        if st.is_terminal() {
            return;
        }
        *st = s;
        drop(st);
        self.state_cv.notify_all();
    }

    /// Current state.
    pub fn state(&self) -> ProcState {
        *self.state.lock()
    }

    /// Block until the process reaches a terminal state; returns it.
    pub fn wait_terminal(&self) -> ProcState {
        let mut st = self.state.lock();
        while !st.is_terminal() {
            self.state_cv.wait(&mut st);
        }
        *st
    }
}

/// An active process's entry in its node's process table.
pub struct ProcRecord {
    /// The process id.
    pub pid: Pid,
    /// Static spec the process was created from.
    pub spec: Arc<ProcSpec>,
    /// Shared dynamic state.
    pub shared: Arc<ProcShared>,
    /// Join handle of the process's thread, until someone joins it.
    pub thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for ProcRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcRecord")
            .field("pid", &self.pid)
            .field("exe", &self.spec.exe)
            .field("state", &self.shared.state())
            .finish()
    }
}

/// A job's tasks on one node: `count` tasks whose pids run from
/// `first_pid` and whose ranks run from `first_rank`, both consecutive, all
/// sharing the job's spec. A single task is a block of one.
#[derive(Debug, Clone)]
pub struct TaskBlock {
    /// The job the tasks belong to: what its RM's kill matches.
    pub job: u64,
    /// The job's one spec.
    pub spec: Arc<ProcSpec>,
    /// Pid of the block's first task.
    pub first_pid: Pid,
    /// Rank of the block's first task.
    pub first_rank: u32,
    /// Number of tasks in the block.
    pub count: u32,
}

impl TaskBlock {
    /// The `(rank, pid)` row of every task, in rank order.
    pub fn rows(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        (0..self.count).map(|i| (self.first_rank + i, self.first_pid.0 + u64::from(i)))
    }

    /// The offset of `pid` in the block, if it is one of its tasks.
    pub(crate) fn offset(&self, pid: Pid) -> Option<u32> {
        let i = pid.0.checked_sub(self.first_pid.0)?;
        (i < u64::from(self.count)).then_some(i as u32)
    }

    /// The block's tasks `from..to`, as a block.
    pub(crate) fn slice(&self, from: u32, to: u32) -> TaskBlock {
        let first_pid = Pid(self.first_pid.0 + u64::from(from));
        TaskBlock {
            first_pid,
            first_rank: self.first_rank + from,
            count: to - from,
            ..self.clone()
        }
    }
}

/// Execution context handed to an active process body.
///
/// A body receives its identity, spec, and handles to cluster services. The
/// context also carries the tracee side of trace control: a cooperative
/// process calls [`ProcCtx::checkpoint`] at interesting symbols so tracers
/// can stop it there.
pub struct ProcCtx {
    /// This process's pid.
    pub pid: Pid,
    /// The node this process runs on.
    pub node: crate::node::NodeId,
    /// The node's hostname.
    pub hostname: String,
    /// The spec the process was launched with (the record's own `Arc`).
    pub spec: Arc<ProcSpec>,
    /// Shared state (stats may be updated by the body).
    pub shared: Arc<ProcShared>,
    /// Handle back to the whole cluster, for spawning and lookups.
    pub cluster: crate::cluster::VirtualCluster,
}

impl ProcCtx {
    /// Export (or overwrite) a named memory symbol visible to tracers.
    pub fn export_symbol(&self, name: &str, bytes: Vec<u8>) {
        self.shared.trace.export_symbol(name, bytes);
    }

    /// Cooperative breakpoint: if a tracer armed `symbol`, stop here until
    /// it continues us; otherwise return immediately.
    pub fn checkpoint(&self, symbol: &str) {
        self.shared.trace.checkpoint(symbol, &self.shared);
    }

    /// Raise an asynchronous trace event (fork/exec notifications).
    pub fn raise_event(&self, ev: crate::trace::TraceEvent) {
        self.shared.trace.raise(ev);
    }

    /// Let the process outlive its body: when the body returns, the record
    /// stays as it is (`Running`, with its exported symbols) until its owner
    /// kills it, and no thread is kept for it.
    pub fn linger(&self) {
        self.shared.lingers.store(true, Ordering::Relaxed);
    }

    /// Whether a kill was requested; long-running bodies should poll this.
    pub fn killed(&self) -> bool {
        matches!(self.shared.state(), ProcState::Killed)
    }

    /// Environment lookup shorthand.
    pub fn env_get(&self, key: &str) -> Option<&str> {
        self.spec.env_get(key)
    }

    /// Charge CPU time to this process's `/proc` stats (models the
    /// user/system split without actually burning cycles).
    pub fn charge_cpu(&self, user_ms: u64, sys_ms: u64) {
        let mut stats = self.shared.stats.lock();
        stats.utime_ms += user_ms;
        stats.stime_ms += sys_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_codes_match_proc_conventions() {
        assert_eq!(ProcState::Running.code(), 'R');
        assert_eq!(ProcState::Stopped.code(), 'T');
        assert_eq!(ProcState::Exited(0).code(), 'Z');
        assert_eq!(ProcState::Killed.code(), 'K');
    }

    #[test]
    fn terminal_states_detected() {
        assert!(!ProcState::Running.is_terminal());
        assert!(!ProcState::Stopped.is_terminal());
        assert!(ProcState::Exited(1).is_terminal());
        assert!(ProcState::Killed.is_terminal());
    }

    #[test]
    fn spec_builder_and_env_lookup() {
        let spec = ProcSpec::named("daemon")
            .arg("--fanout")
            .arg("16")
            .env_kv("LMON_SEC_COOKIE", "abc:1")
            .env_kv("PATH", "/bin");
        assert_eq!(spec.args, vec!["--fanout", "16"]);
        assert_eq!(spec.env_get("LMON_SEC_COOKIE"), Some("abc:1"));
        assert_eq!(spec.env_get("PATH"), Some("/bin"));
        assert_eq!(spec.env_get("MISSING"), None);
        // Keys must match exactly, not by prefix.
        assert_eq!(spec.env_get("PAT"), None);
    }

    #[test]
    fn shared_state_transitions_and_wait() {
        let shared = ProcShared::new(ProcStats::default());
        assert_eq!(shared.state(), ProcState::Running);
        let s2 = shared.clone();
        let waiter = std::thread::spawn(move || s2.wait_terminal());
        std::thread::sleep(std::time::Duration::from_millis(10));
        shared.set_state(ProcState::Exited(3));
        assert_eq!(waiter.join().unwrap(), ProcState::Exited(3));
    }
}
