//! The Driver and Event Manager.
//!
//! §3.1: "The central component is an independent Driver class that
//! organizes its main operations: it first calls the Event Manager, which
//! is responsible for polling the target RM process via an OS interface.
//! Upon detecting a status update for this process, the Event Manager
//! passes this native event back to the Driver, which then calls upon the
//! Event Decoder ... The Driver next passes the LaunchMON event to the
//! LaunchMON Event Handler."

use std::sync::Arc;
use std::time::Duration;

use lmon_cluster::trace::{TraceController, TraceEvent};
use lmon_cluster::ClusterError;

use crate::engine::decoder::EventDecoder;
use crate::engine::handler::{DriverState, HandlerTable, HandlerVerdict};
use crate::engine::platform::Platform;

/// Polls the traced RM process for native events (the "OS interface" of
/// the paper is our trace controller).
pub struct EventManager {
    poll_timeout: Duration,
}

impl EventManager {
    /// An event manager with the default poll timeout.
    pub fn new() -> Self {
        EventManager { poll_timeout: Duration::from_secs(30) }
    }

    /// Override the per-event timeout (tests use short ones).
    pub fn with_timeout(poll_timeout: Duration) -> Self {
        EventManager { poll_timeout }
    }

    /// Block for the next native event from the launcher.
    pub fn next_event(&self, ctl: &TraceController) -> Result<TraceEvent, ClusterError> {
        ctl.wait_event(self.poll_timeout)
    }
}

impl Default for EventManager {
    fn default() -> Self {
        EventManager::new()
    }
}

/// The driver: event manager → decoder → handler loop.
pub struct Driver {
    event_mgr: EventManager,
    decoder: EventDecoder,
    handlers: HandlerTable,
    state: DriverState,
}

impl Driver {
    /// A driver with the default launch handler table.
    pub fn new(platform: Arc<dyn Platform>) -> Self {
        Driver {
            event_mgr: EventManager::new(),
            decoder: EventDecoder::new(platform),
            handlers: HandlerTable::launch_defaults(),
            state: DriverState::default(),
        }
    }

    /// Replace the event manager (tests shorten the timeout).
    pub fn with_event_manager(mut self, mgr: EventManager) -> Self {
        self.event_mgr = mgr;
        self
    }

    /// Final driver state (event counters, exit status).
    pub fn state(&self) -> &DriverState {
        &self.state
    }

    /// Run the pipeline until the job is tool-ready (`MPIR_Breakpoint`),
    /// resuming the launcher after any intermediate stop.
    pub fn run_to_breakpoint(&mut self, ctl: &TraceController) -> Result<(), String> {
        loop {
            let native =
                self.event_mgr.next_event(ctl).map_err(|e| format!("event manager: {e}"))?;
            let was_stop = matches!(native, TraceEvent::Stopped { .. });
            let event = self.decoder.decode(native);
            match self.handlers.dispatch(&event, &mut self.state) {
                HandlerVerdict::Done => return Ok(()),
                HandlerVerdict::Fatal => {
                    return Err(match self.state.launcher_exit {
                        Some(code) => format!("launcher exited with code {code}"),
                        None => "fatal event during launch".to_string(),
                    })
                }
                HandlerVerdict::Continue => {
                    // An intermediate stop (not the ready breakpoint) must
                    // be resumed or the launcher hangs forever.
                    if was_stop {
                        ctl.continue_proc();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::platform::MpirPlatform;
    use lmon_cluster::config::ClusterConfig;
    use lmon_cluster::node::NodeId;
    use lmon_cluster::process::{Pid, ProcSpec};
    use lmon_cluster::VirtualCluster;
    use lmon_rm::mpir;

    /// Spawn a fake launcher that raises `forks` fork events, optionally
    /// stops at an unexpected symbol, then hits MPIR_Breakpoint.
    fn fake_launcher(
        cluster: &VirtualCluster,
        forks: u32,
        unexpected_stop: bool,
    ) -> (Pid, std::sync::mpsc::Sender<()>) {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let pid = cluster
            .spawn_active(NodeId::FrontEnd, ProcSpec::named("fake_srun"), move |ctx| {
                rx.recv().unwrap();
                for i in 0..forks {
                    ctx.raise_event(lmon_cluster::trace::TraceEvent::Forked {
                        child: Pid(100 + i as u64),
                    });
                }
                if unexpected_stop {
                    ctx.checkpoint("unexpected_symbol");
                }
                ctx.export_symbol(mpir::MPIR_DEBUG_STATE, vec![mpir::MPIR_DEBUG_SPAWNED]);
                ctx.checkpoint(mpir::MPIR_BREAKPOINT);
            })
            .unwrap();
        (pid, tx)
    }

    #[test]
    fn driver_reaches_breakpoint_counting_forks() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1));
        let (pid, go) = fake_launcher(&cluster, 4, false);
        let (_n, rec) = cluster.find_proc(pid).unwrap();
        let ctl = TraceController::attach(pid, rec.shared.clone()).unwrap();
        ctl.set_breakpoint(mpir::MPIR_BREAKPOINT);
        go.send(()).unwrap();

        let mut driver = Driver::new(Arc::new(MpirPlatform));
        driver.run_to_breakpoint(&ctl).unwrap();
        assert!(driver.state().job_ready);
        assert_eq!(driver.state().forks_seen, 4);
        ctl.continue_proc();
        cluster.wait_pid(pid).unwrap();
    }

    #[test]
    fn driver_resumes_unexpected_stops() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1));
        let (pid, go) = fake_launcher(&cluster, 0, true);
        let (_n, rec) = cluster.find_proc(pid).unwrap();
        let ctl = TraceController::attach(pid, rec.shared.clone()).unwrap();
        ctl.set_breakpoint(mpir::MPIR_BREAKPOINT);
        ctl.set_breakpoint("unexpected_symbol");
        go.send(()).unwrap();

        let mut driver = Driver::new(Arc::new(MpirPlatform));
        driver.run_to_breakpoint(&ctl).unwrap();
        assert_eq!(driver.state().unexpected_stops, vec!["unexpected_symbol"]);
        assert!(driver.state().job_ready);
        ctl.continue_proc();
        cluster.wait_pid(pid).unwrap();
    }

    #[test]
    fn launcher_death_is_reported() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1));
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let pid = cluster
            .spawn_active(NodeId::FrontEnd, ProcSpec::named("dying_srun"), move |_ctx| {
                rx.recv().unwrap();
                // Body returns: the spawn wrapper raises Exited.
            })
            .unwrap();
        let (_n, rec) = cluster.find_proc(pid).unwrap();
        let ctl = TraceController::attach(pid, rec.shared.clone()).unwrap();
        tx.send(()).unwrap();
        let mut driver = Driver::new(Arc::new(MpirPlatform));
        let err = driver.run_to_breakpoint(&ctl).unwrap_err();
        assert!(err.contains("exited"), "{err}");
        cluster.wait_pid(pid).unwrap();
    }

    #[test]
    fn event_manager_timeout_propagates() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1));
        let (pid, _go) = fake_launcher(&cluster, 0, false); // never released
        let (_n, rec) = cluster.find_proc(pid).unwrap();
        let ctl = TraceController::attach(pid, rec.shared.clone()).unwrap();
        let mut driver = Driver::new(Arc::new(MpirPlatform))
            .with_event_manager(EventManager::with_timeout(Duration::from_millis(30)));
        let err = driver.run_to_breakpoint(&ctl).unwrap_err();
        assert!(err.contains("event manager"), "{err}");
    }
}
