//! The chaos scenario DSL.
//!
//! A [`Scenario`] is a topology string, a seed, timing parameters, and a
//! [`FaultPlan`]; [`Scenario::run`] builds the launch sim, applies the
//! plan's sim-kernel faults, runs it, and returns the
//! [`LaunchReport`]. The builder methods
//! mirror [`FaultPlan`]'s sim-layer surface, so a test reads as one chained
//! expression:
//!
//! ```
//! use lmon_testkit::Scenario;
//! use lmon_sim::SimDuration;
//!
//! let report = Scenario::new("1x8x64")
//!     .seed(42)
//!     .kill_be_at(17, SimDuration::from_millis(2))
//!     .drop_uplink_frames(3, 1)
//!     .run();
//! assert!(report.timed_out);
//! ```

use lmon_sim::{SimDuration, SimTime};
use lmon_tbon::spec::TopologySpec;

use crate::launch_sim::{LaunchParams, LaunchReport, LaunchSim};
use crate::plan::{FaultPlan, SimFaultKind, SimFaultTarget};

/// A named, seeded, fault-laden launch scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    spec: TopologySpec,
    seed: u64,
    params: LaunchParams,
    plan: FaultPlan,
}

impl Scenario {
    /// A scenario over the MRNet-style topology `spec` (e.g. `"1x8x64"`).
    ///
    /// Panics on an invalid spec: scenarios are test fixtures, and a typo
    /// should fail loudly at construction, not midway through a run.
    pub fn new(spec: &str) -> Self {
        let spec = TopologySpec::parse(spec)
            .unwrap_or_else(|e| panic!("Scenario::new: invalid topology spec: {e}"));
        Scenario { spec, seed: 0, params: LaunchParams::default(), plan: FaultPlan::new() }
    }

    /// Set the RNG seed (drives message jitter; same seed = same run).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the timing parameters wholesale.
    pub fn params(mut self, params: LaunchParams) -> Self {
        self.params = params;
        self
    }

    /// Set the launch timeout.
    pub fn timeout(mut self, timeout: SimDuration) -> Self {
        self.params.timeout = timeout;
        self
    }

    /// Slow the front-end NIC by `factor` (the "slow front-end NIC"
    /// failure mode: every serialized FE send takes `factor`× as long).
    pub fn fe_nic_slowdown(mut self, factor: f64) -> Self {
        self.params.fe_send = self.params.fe_send.mul_f64(factor);
        self
    }

    /// Kill back end `leaf` at virtual time `at`.
    pub fn kill_be_at(mut self, leaf: u32, at: SimDuration) -> Self {
        self.plan = self.plan.kill_be_at(leaf, at);
        self
    }

    /// Kill comm daemon `comm` at virtual time `at`.
    pub fn kill_comm_at(mut self, comm: u32, at: SimDuration) -> Self {
        self.plan = self.plan.kill_comm_at(comm, at);
        self
    }

    /// Hang comm daemon `comm` between `from` and `until`.
    pub fn hang_comm(mut self, comm: u32, from: SimDuration, until: SimDuration) -> Self {
        self.plan = self.plan.hang_comm(comm, from, until);
        self
    }

    /// Hang back end `leaf` between `from` and `until`.
    pub fn hang_be(mut self, leaf: u32, from: SimDuration, until: SimDuration) -> Self {
        self.plan = self.plan.hang_be(leaf, from, until);
        self
    }

    /// Suppress the first `n` upward frames from back end `leaf` in the
    /// launch sim. (Named after [`FaultPlan::drop_uplink_frames`], not to
    /// be confused with the LMONP-layer
    /// [`FrameFaultPlan::drop_frames`](lmon_proto::fault::FrameFaultPlan::drop_frames),
    /// which drops wire frames by index range.)
    pub fn drop_uplink_frames(mut self, leaf: u32, n: u64) -> Self {
        self.plan = self.plan.drop_uplink_frames(leaf, n);
        self
    }

    /// Kill the front end itself at virtual time `at`.
    pub fn kill_fe_at(mut self, at: SimDuration) -> Self {
        self.plan = self.plan.kill_fe_at(at);
        self
    }

    /// Crash live comm daemon `comm` after `n` up-packets (the TBON-layer
    /// slice of the plan, consumed by [`crate::LiveOverlay`]).
    pub fn crash_comm_after_up(mut self, comm: usize, n: u64) -> Self {
        self.plan = self.plan.crash_comm_after_up(comm, n);
        self
    }

    /// Crash live comm daemon `comm` after `n` down-messages —
    /// mid-broadcast when `n` lands between the stream announcement and
    /// the wave behind it.
    pub fn crash_comm_after_down(mut self, comm: usize, n: u64) -> Self {
        self.plan = self.plan.crash_comm_after_down(comm, n);
        self
    }

    /// Sever live comm daemon `comm`'s link to child slot `slot`.
    pub fn sever_comm_child(mut self, comm: usize, slot: usize) -> Self {
        self.plan = self.plan.sever_comm_child(comm, slot);
        self
    }

    /// The accumulated fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The parsed topology.
    pub fn topology(&self) -> &TopologySpec {
        &self.spec
    }

    /// Build, fault, run, report.
    pub fn run(&self) -> LaunchReport {
        let mut ls = LaunchSim::build(&self.spec, self.seed, self.params, self.plan.uplink_drops());
        for f in self.plan.sim_faults() {
            let target = match f.target {
                SimFaultTarget::FrontEnd => ls.fe,
                SimFaultTarget::Comm(i) => *ls.comm_ids.get(i as usize).unwrap_or_else(|| {
                    panic!("scenario targets comm {i} but the spec has {}", ls.comm_ids.len())
                }),
                SimFaultTarget::Be(i) => *ls.leaf_ids.get(i as usize).unwrap_or_else(|| {
                    panic!("scenario targets BE {i} but the spec has {}", ls.leaf_ids.len())
                }),
            };
            let at = SimTime::ZERO + f.at;
            match f.kind {
                SimFaultKind::Kill => ls.sim.kill_at(at, target),
                SimFaultKind::HangUntil(until) => {
                    ls.sim.hang_between(target, at, SimTime::ZERO + until)
                }
            }
        }
        ls.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_scenario_completes() {
        let r = Scenario::new("1x4x16").seed(1).run();
        assert!(r.completed, "{}", r.dump());
    }

    #[test]
    #[should_panic(expected = "invalid topology spec")]
    fn bad_spec_fails_at_construction() {
        let _ = Scenario::new("0x4");
    }

    #[test]
    fn killed_be_times_out_reproducibly() {
        let run =
            || Scenario::new("1x4x16").seed(9).kill_be_at(7, SimDuration::from_micros(300)).run();
        let a = run();
        let b = run();
        assert!(a.timed_out);
        assert_eq!(a.dump(), b.dump());
    }

    #[test]
    fn straggler_comm_completes_late() {
        let healthy = Scenario::new("1x4x16").seed(2).run();
        let hang_until = SimDuration::from_millis(40);
        let straggler = Scenario::new("1x4x16")
            .seed(2)
            .hang_comm(1, SimDuration::from_micros(100), hang_until)
            .run();
        assert!(healthy.completed && straggler.completed, "{}", straggler.dump());
        assert!(straggler.launch_duration().unwrap() > healthy.launch_duration().unwrap());
        assert!(straggler.launch_duration().unwrap() >= hang_until);
    }

    #[test]
    fn killed_front_end_neither_completes_nor_times_out() {
        // With the FE dead even its own timeout timer is dropped: the run
        // drains the queue and ends with neither verdict — the one end
        // state where the *caller* (not the FE) must notice the silence.
        let r = Scenario::new("1x4x16").seed(4).kill_fe_at(SimDuration::from_micros(500)).run();
        assert!(!r.completed && !r.timed_out, "{}", r.dump());
        assert!(r.counter("fault.dropped") > 0);
    }

    #[test]
    fn slow_fe_nic_scales_the_fan_out() {
        let fast = Scenario::new("1x64").seed(3).run();
        let slow = Scenario::new("1x64").seed(3).fe_nic_slowdown(20.0).run();
        assert!(fast.completed && slow.completed);
        let (f, s) = (fast.launch_duration().unwrap(), slow.launch_duration().unwrap());
        assert!(
            s.as_secs_f64() > f.as_secs_f64() * 5.0,
            "slow NIC should dominate: fast={f} slow={s}"
        );
    }

    #[test]
    fn scenario_exposes_its_plan_for_other_layers() {
        let sc = Scenario::new("1x4").crash_comm_after_up(0, 3);
        assert_eq!(sc.plan().comm_fault(0).crash_after_up, Some(3));
        assert_eq!(sc.topology().leaf_count(), 4);
    }
}
