//! Live (thread-backed) TBON overlays under a [`FaultPlan`].
//!
//! [`Scenario`](crate::Scenario) runs the *virtual-time* launch model; this
//! module instantiates the *real* `lmon-tbon` overlay on OS threads with
//! the plan's TBON-layer faults applied per comm daemon, so chaos tests and
//! the `recovery_latency` bench share one harness for kill-and-heal runs:
//!
//! ```
//! use lmon_testkit::{FaultPlan, LiveOverlay};
//! use std::time::Duration;
//!
//! // Comm daemon 1 crashes on its second down-message (mid-broadcast).
//! let plan = FaultPlan::new().crash_comm_after_down(1, 1);
//! let mut live = LiveOverlay::launch_echo("1x4x16", &plan);
//! live.front.await_connections(16, Duration::from_secs(5)).unwrap();
//! live.shutdown();
//! ```

use std::ops::{Deref, DerefMut};

use lmon_tbon::filter::FilterRegistry;
use lmon_tbon::overlay::{LeafEndpoint, Overlay, RunningOverlay};
use lmon_tbon::spec::TopologySpec;

use crate::plan::FaultPlan;

/// A TBON overlay in thread mode ([`Overlay::run`]) with the plan's
/// [`CommFault`](lmon_tbon::overlay::CommFault) schedules applied per comm
/// daemon (indexed by position in `Overlay::comm`). Only the
/// [`FaultPlan`] → `CommFault` adapter lives here; bring-up and join are
/// the runner's, and `live.front` is the [`RunningOverlay`]'s front
/// endpoint (detect/repair/heal).
pub struct LiveOverlay(RunningOverlay);

impl Deref for LiveOverlay {
    type Target = RunningOverlay;
    fn deref(&self) -> &RunningOverlay {
        &self.0
    }
}

impl DerefMut for LiveOverlay {
    fn deref_mut(&mut self) -> &mut RunningOverlay {
        &mut self.0
    }
}

impl LiveOverlay {
    /// Build and start an overlay for `spec` with the standard probe body
    /// on every leaf ([`LeafEndpoint::serve_echo`]: hello, then
    /// `[leaf_index]` in answer to each data packet until shutdown) and
    /// each comm daemon under its slice of `plan`.
    ///
    /// Panics on an invalid spec, like [`crate::Scenario::new`].
    pub fn launch_echo(spec: &str, plan: &FaultPlan) -> Self {
        let spec = TopologySpec::parse(spec)
            .unwrap_or_else(|e| panic!("LiveOverlay::launch_echo: invalid topology spec: {e}"));
        let overlay = Overlay::build(&spec, FilterRegistry::new());
        LiveOverlay(overlay.run(|i| plan.comm_fault(i), LeafEndpoint::serve_echo))
    }

    /// Tear the overlay down (in-tree and out-of-band) and join every
    /// daemon thread. Panics if one of them panicked.
    pub fn shutdown(self) {
        self.0.shutdown().expect("an overlay daemon thread panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmon_tbon::filter::FilterKind;
    use std::time::Duration;

    #[test]
    fn echo_overlay_gathers_every_leaf() {
        let mut live = LiveOverlay::launch_echo("1x2x8", &FaultPlan::new());
        live.front.await_connections(8, Duration::from_secs(5)).unwrap();
        let stream = live.front.open_stream(FilterKind::Concat).unwrap();
        live.front.broadcast(stream, 0, vec![]).unwrap();
        let pkt = live.front.gather(stream, 0, Duration::from_secs(5)).unwrap();
        assert_eq!(pkt.payload.len(), 8);
        live.shutdown();
    }

    #[test]
    fn comm_faults_apply_by_index() {
        let plan = FaultPlan::new().crash_comm_after_up(0, 1);
        let mut live = LiveOverlay::launch_echo("1x2x8", &plan);
        let err = live.front.await_connections(8, Duration::from_millis(200)).unwrap_err();
        assert_eq!(err, lmon_tbon::TbonError::Timeout);
        live.shutdown();
    }

    #[test]
    #[should_panic(expected = "invalid topology spec")]
    fn bad_spec_fails_at_construction() {
        let _ = LiveOverlay::launch_echo("0x2", &FaultPlan::new());
    }
}
