//! Cooperative trace control — the virtual cluster's ptrace.
//!
//! "To capture the required job information through APAI, the LaunchMON
//! Engine ... must trace the job's RM process. This typically requires
//! debugger capabilities" (§3.1). Our tracee side is cooperative: a traced
//! process exports named memory symbols (`MPIR_proctable`, ...) and calls
//! [`TraceCell::checkpoint`] at points where a real binary would host a
//! breakpoint (`MPIR_Breakpoint`). The tracer side, [`TraceController`],
//! mirrors the debugger loop the engine runs on a launcher: arm
//! breakpoints, wait for events, read memory, continue.
//!
//! Memory reads are counted in words, because the §4 model charges the
//! engine per-word for fetching the RPDTAB out of the RM process's address
//! space (Region B's linear term).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::{ClusterError, ClusterResult};
use crate::process::{Pid, ProcShared, ProcState};

/// Word size used for memory-read accounting (64-bit target).
pub const WORD_BYTES: usize = 8;

/// Events a tracer observes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The tracee stopped at an armed breakpoint symbol.
    Stopped {
        /// Symbol name the tracee stopped at.
        symbol: String,
    },
    /// The tracee forked a child (RMs fork per-node launch agents).
    Forked {
        /// The child pid.
        child: Pid,
    },
    /// The tracee replaced its image.
    Exec {
        /// New executable name.
        exe: String,
    },
    /// The tracee exited.
    Exited {
        /// Exit code.
        code: i32,
    },
}

#[derive(Debug, Default)]
struct TraceInner {
    traced: bool,
    breakpoints: HashSet<String>,
    symbols: HashMap<String, Vec<u8>>,
    events: VecDeque<TraceEvent>,
    stopped: bool,
}

/// The tracee-side cell embedded in every process record.
#[derive(Debug, Default)]
pub struct TraceCell {
    inner: Mutex<TraceInner>,
    event_cv: Condvar,
    resume_cv: Condvar,
}

impl TraceCell {
    /// Export (or overwrite) a symbol's memory.
    pub fn export_symbol(&self, name: &str, bytes: Vec<u8>) {
        self.inner.lock().symbols.insert(name.to_string(), bytes);
    }

    /// Tracee-side cooperative breakpoint.
    ///
    /// If a tracer armed `symbol`, the calling thread blocks (process state
    /// `Stopped`) until the tracer continues it. Otherwise returns at once.
    pub fn checkpoint(&self, symbol: &str, shared: &ProcShared) {
        let mut inner = self.inner.lock();
        if !(inner.traced && inner.breakpoints.contains(symbol)) {
            return;
        }
        inner.events.push_back(TraceEvent::Stopped { symbol: symbol.to_string() });
        inner.stopped = true;
        self.event_cv.notify_all();
        // Publish the stop through the process state as well, mirroring how
        // a SIGSTOP shows up in /proc. We cannot hold the state lock while
        // parked on resume_cv, so set it before waiting and restore after.
        shared.set_state(ProcState::Stopped);
        while inner.stopped {
            self.resume_cv.wait(&mut inner);
        }
        drop(inner);
        shared.set_state(ProcState::Running);
    }

    /// Raise an asynchronous event (fork/exec/exit) if traced.
    pub fn raise(&self, ev: TraceEvent) {
        let mut inner = self.inner.lock();
        if inner.traced {
            inner.events.push_back(ev);
            self.event_cv.notify_all();
        }
    }

    fn attach(&self) -> bool {
        let mut inner = self.inner.lock();
        if inner.traced {
            return false;
        }
        inner.traced = true;
        true
    }

    fn detach(&self) {
        let mut inner = self.inner.lock();
        inner.traced = false;
        inner.breakpoints.clear();
        if inner.stopped {
            inner.stopped = false;
            self.resume_cv.notify_all();
        }
    }
}

/// The tracer-side handle: what the LaunchMON engine holds on the RM
/// launcher process.
pub struct TraceController {
    pid: Pid,
    shared: Arc<ProcShared>,
    words_read: AtomicU64,
    events_handled: AtomicU64,
}

impl TraceController {
    /// Attach to a process. Fails if another controller is attached.
    pub fn attach(pid: Pid, shared: Arc<ProcShared>) -> ClusterResult<Self> {
        if !shared.trace.attach() {
            return Err(ClusterError::AlreadyTraced(pid));
        }
        Ok(TraceController { pid, shared, words_read: 0.into(), events_handled: 0.into() })
    }

    /// The traced pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Arm a breakpoint at a symbol.
    pub fn set_breakpoint(&self, symbol: &str) {
        self.shared.trace.inner.lock().breakpoints.insert(symbol.to_string());
    }

    /// Block until the tracee produces an event, up to `timeout`.
    pub fn wait_event(&self, timeout: Duration) -> ClusterResult<TraceEvent> {
        let cell = &self.shared.trace;
        let mut inner = cell.inner.lock();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(ev) = inner.events.pop_front() {
                self.events_handled.fetch_add(1, Ordering::Relaxed);
                return Ok(ev);
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(ClusterError::TraceTimeout(self.pid));
            }
            if cell.event_cv.wait_for(&mut inner, remaining).timed_out() && inner.events.is_empty()
            {
                return Err(ClusterError::TraceTimeout(self.pid));
            }
        }
    }

    /// Non-blocking event poll.
    pub fn poll_event(&self) -> Option<TraceEvent> {
        let ev = self.shared.trace.inner.lock().events.pop_front();
        if ev.is_some() {
            self.events_handled.fetch_add(1, Ordering::Relaxed);
        }
        ev
    }

    /// Read an exported symbol's memory, charging per-word read costs.
    pub fn read_symbol(&self, symbol: &str) -> ClusterResult<Vec<u8>> {
        let inner = self.shared.trace.inner.lock();
        let bytes = inner.symbols.get(symbol).ok_or_else(|| ClusterError::NoSuchSymbol {
            pid: self.pid,
            symbol: symbol.to_string(),
        })?;
        let words = bytes.len().div_ceil(WORD_BYTES) as u64;
        self.words_read.fetch_add(words, Ordering::Relaxed);
        Ok(bytes.clone())
    }

    /// Resume a stopped tracee.
    pub fn continue_proc(&self) {
        let cell = &self.shared.trace;
        let mut inner = cell.inner.lock();
        if inner.stopped {
            inner.stopped = false;
            cell.resume_cv.notify_all();
        }
    }

    /// Total words read from tracee memory (Region-B accounting).
    pub fn words_read(&self) -> u64 {
        self.words_read.load(Ordering::Relaxed)
    }

    /// Total events this controller consumed (tracing-cost accounting:
    /// the §4 model charges `events × handler cost`).
    pub fn events_handled(&self) -> u64 {
        self.events_handled.load(Ordering::Relaxed)
    }
}

impl Drop for TraceController {
    fn drop(&mut self) {
        self.shared.trace.detach();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procfs::ProcStats;

    fn proc_shared() -> Arc<ProcShared> {
        ProcShared::new(ProcStats::default())
    }

    #[test]
    fn checkpoint_without_tracer_is_passthrough() {
        let shared = proc_shared();
        // No tracer attached: returns immediately.
        shared.trace.checkpoint("MPIR_Breakpoint", &shared);
        assert_eq!(shared.state(), ProcState::Running);
    }

    #[test]
    fn breakpoint_stops_and_continue_resumes() {
        let shared = proc_shared();
        let ctl = TraceController::attach(Pid(1), shared.clone()).unwrap();
        ctl.set_breakpoint("MPIR_Breakpoint");

        let tracee = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                shared.trace.checkpoint("MPIR_Breakpoint", &shared);
                42
            })
        };

        let ev = ctl.wait_event(Duration::from_secs(5)).unwrap();
        assert_eq!(ev, TraceEvent::Stopped { symbol: "MPIR_Breakpoint".into() });
        assert_eq!(shared.state(), ProcState::Stopped);
        ctl.continue_proc();
        assert_eq!(tracee.join().unwrap(), 42);
        assert_eq!(shared.state(), ProcState::Running);
    }

    #[test]
    fn double_attach_rejected_and_drop_releases() {
        let shared = proc_shared();
        let ctl = TraceController::attach(Pid(1), shared.clone()).unwrap();
        assert!(matches!(
            TraceController::attach(Pid(1), shared.clone()),
            Err(ClusterError::AlreadyTraced(_))
        ));
        drop(ctl);
        assert!(TraceController::attach(Pid(1), shared).is_ok());
    }

    #[test]
    fn read_symbol_counts_words() {
        let shared = proc_shared();
        shared.trace.export_symbol("MPIR_proctable", vec![0u8; 100]);
        let ctl = TraceController::attach(Pid(1), shared).unwrap();
        let bytes = ctl.read_symbol("MPIR_proctable").unwrap();
        assert_eq!(bytes.len(), 100);
        assert_eq!(ctl.words_read(), 13, "ceil(100/8) = 13 words");
        assert!(matches!(ctl.read_symbol("missing"), Err(ClusterError::NoSuchSymbol { .. })));
    }

    #[test]
    fn wait_event_times_out_cleanly() {
        let shared = proc_shared();
        let ctl = TraceController::attach(Pid(9), shared).unwrap();
        assert!(matches!(
            ctl.wait_event(Duration::from_millis(20)),
            Err(ClusterError::TraceTimeout(Pid(9)))
        ));
    }

    #[test]
    fn raise_only_queues_when_traced() {
        let shared = proc_shared();
        shared.trace.raise(TraceEvent::Exited { code: 0 });
        let ctl = TraceController::attach(Pid(1), shared.clone()).unwrap();
        assert!(ctl.poll_event().is_none(), "pre-attach events are dropped");
        shared.trace.raise(TraceEvent::Forked { child: Pid(2) });
        assert_eq!(ctl.poll_event(), Some(TraceEvent::Forked { child: Pid(2) }));
        assert_eq!(ctl.events_handled(), 1);
    }

    #[test]
    fn detach_releases_a_stopped_tracee() {
        let shared = proc_shared();
        let ctl = TraceController::attach(Pid(1), shared.clone()).unwrap();
        ctl.set_breakpoint("bp");
        let tracee = {
            let shared = shared.clone();
            std::thread::spawn(move || shared.trace.checkpoint("bp", &shared))
        };
        ctl.wait_event(Duration::from_secs(5)).unwrap();
        drop(ctl); // detach must release the stopped tracee
        tracee.join().unwrap();
    }

    #[test]
    fn kill_racing_a_checkpoint_resume_is_never_lost() {
        // The engine's kill path continues a stopped launcher and the RM
        // kills it right after. Whichever of the kill and the tracee's own
        // post-resume `Running` store lands last, the process must end up
        // `Killed`: a launcher that reads `Running` again polls
        // `ctx.killed()` forever.
        for i in 0..3000u64 {
            let shared = proc_shared();
            let ctl = TraceController::attach(Pid(i), shared.clone()).unwrap();
            ctl.set_breakpoint("bp");
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| shared.trace.checkpoint("bp", &shared));
                ctl.wait_event(Duration::from_secs(5)).unwrap();
                s.spawn(|| {
                    start.wait();
                    shared.set_state(ProcState::Killed); // what `VirtualCluster::kill` does
                });
                start.wait();
                ctl.continue_proc();
            });
            assert_eq!(
                shared.state(),
                ProcState::Killed,
                "iteration {i}: the kill was overwritten"
            );
        }
    }
}
