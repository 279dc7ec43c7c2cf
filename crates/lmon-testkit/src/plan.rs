//! The unified, multi-layer fault plan.
//!
//! One [`FaultPlan`] value describes every failure a chaos scenario wants,
//! across all four layers; each layer then consumes its own slice of the
//! plan ([`FaultPlan::spawn_plan`], [`FaultPlan::frame_plan`],
//! [`FaultPlan::comm_fault`], and the sim faults applied by
//! [`crate::Scenario`]). Everything is keyed by deterministic quantities —
//! virtual times, attempt indices, frame indices, message counts — never by
//! wall-clock races, so a plan plus a seed fully determines a run.

use std::collections::BTreeMap;
use std::time::Duration;

use lmon_cluster::remote::SpawnFaultPlan;
use lmon_proto::fault::FrameFaultPlan;
use lmon_sim::SimDuration;
use lmon_tbon::overlay::CommFault;

/// Which launch participant a sim-kernel fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimFaultTarget {
    /// The front end itself.
    FrontEnd,
    /// A communication daemon, by index in comm-position order.
    Comm(u32),
    /// A back-end (leaf) daemon, by leaf index.
    Be(u32),
}

/// What a sim-kernel fault does (virtual-time scheduled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimFaultKind {
    /// The target dies at the fault time.
    Kill,
    /// The target stops processing until the given offset from t=0.
    HangUntil(SimDuration),
}

/// One scheduled sim-kernel fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimFault {
    /// Who it strikes.
    pub target: SimFaultTarget,
    /// When (offset from simulation start).
    pub at: SimDuration,
    /// What it does.
    pub kind: SimFaultKind,
}

/// A complete, deterministic, multi-layer fault schedule.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    sim: Vec<SimFault>,
    drop_uplink: BTreeMap<u32, u64>,
    spawn: SpawnFaultPlan,
    frames: FrameFaultPlan,
    comm: BTreeMap<usize, CommFault>,
}

impl FaultPlan {
    /// An empty plan: nothing fails.
    pub fn new() -> Self {
        Self::default()
    }

    // --- sim-kernel faults ----------------------------------------------

    /// Kill back-end daemon `leaf` at virtual time `at`.
    pub fn kill_be_at(mut self, leaf: u32, at: SimDuration) -> Self {
        self.sim.push(SimFault { target: SimFaultTarget::Be(leaf), at, kind: SimFaultKind::Kill });
        self
    }

    /// Kill the front end itself at virtual time `at`.
    pub fn kill_fe_at(mut self, at: SimDuration) -> Self {
        self.sim.push(SimFault { target: SimFaultTarget::FrontEnd, at, kind: SimFaultKind::Kill });
        self
    }

    /// Kill communication daemon `comm` at virtual time `at`.
    pub fn kill_comm_at(mut self, comm: u32, at: SimDuration) -> Self {
        self.sim.push(SimFault {
            target: SimFaultTarget::Comm(comm),
            at,
            kind: SimFaultKind::Kill,
        });
        self
    }

    /// Hang communication daemon `comm` between `from` and `until` (the
    /// straggler: its work queues up and completes late).
    pub fn hang_comm(mut self, comm: u32, from: SimDuration, until: SimDuration) -> Self {
        self.sim.push(SimFault {
            target: SimFaultTarget::Comm(comm),
            at: from,
            kind: SimFaultKind::HangUntil(until),
        });
        self
    }

    /// Hang back-end daemon `leaf` between `from` and `until`.
    pub fn hang_be(mut self, leaf: u32, from: SimDuration, until: SimDuration) -> Self {
        self.sim.push(SimFault {
            target: SimFaultTarget::Be(leaf),
            at: from,
            kind: SimFaultKind::HangUntil(until),
        });
        self
    }

    /// Suppress the first `n` upward frames back-end `leaf` tries to send
    /// in the launch sim (lost hello/ready messages).
    pub fn drop_uplink_frames(mut self, leaf: u32, n: u64) -> Self {
        *self.drop_uplink.entry(leaf).or_insert(0) += n;
        self
    }

    /// Scheduled sim-kernel faults, in insertion order.
    pub fn sim_faults(&self) -> &[SimFault] {
        &self.sim
    }

    /// Per-leaf uplink frame-drop budget for the launch sim.
    pub fn uplink_drops(&self) -> &BTreeMap<u32, u64> {
        &self.drop_uplink
    }

    // --- cluster-transport faults ---------------------------------------

    /// Fail the `n`-th rsh connection attempt (0-based).
    pub fn fail_spawn_attempt(mut self, n: u64) -> Self {
        self.spawn = self.spawn.fail_attempt(n);
        self
    }

    /// Fail every rsh attempt targeting `host`.
    pub fn fail_spawn_host(mut self, host: impl Into<String>) -> Self {
        self.spawn = self.spawn.fail_host(host);
        self
    }

    /// The cluster-layer slice of the plan, ready for
    /// [`lmon_cluster::remote::RshState::install_fault_plan`].
    pub fn spawn_plan(&self) -> SpawnFaultPlan {
        self.spawn.clone()
    }

    // --- LMONP-transport faults -----------------------------------------

    /// Drop the `i`-th LMONP frame sent through a wrapped channel.
    pub fn drop_frame(mut self, i: u64) -> Self {
        self.frames = self.frames.drop_frame(i);
        self
    }

    /// Delay the `i`-th LMONP frame by `by`.
    pub fn delay_frame(mut self, i: u64, by: Duration) -> Self {
        self.frames = self.frames.delay_frame(i, by);
        self
    }

    /// The transport-layer slice of the plan, ready for
    /// [`lmon_proto::fault::FaultyChannel::new`].
    pub fn frame_plan(&self) -> FrameFaultPlan {
        self.frames.clone()
    }

    // --- TBON faults ----------------------------------------------------

    /// Crash comm daemon `comm` (by index in `Overlay::comm`) after it has
    /// received `n` up-packets.
    pub fn crash_comm_after_up(mut self, comm: usize, n: u64) -> Self {
        let entry = self.comm.entry(comm).or_default();
        entry.crash_after_up = Some(n);
        self
    }

    /// Crash comm daemon `comm` (by index in `Overlay::comm`) after it has
    /// received `n` down-messages — mid-broadcast when `n` lands between a
    /// stream announcement and the wave that follows it.
    pub fn crash_comm_after_down(mut self, comm: usize, n: u64) -> Self {
        let entry = self.comm.entry(comm).or_default();
        entry.crash_after_down = Some(n);
        self
    }

    /// Sever comm daemon `comm`'s link to child slot `slot`.
    pub fn sever_comm_child(mut self, comm: usize, slot: usize) -> Self {
        let entry = self.comm.entry(comm).or_default();
        entry.sever_child_slots.insert(slot);
        self
    }

    /// The TBON-layer fault for comm daemon `i` (a no-op fault when the
    /// plan says nothing about it): the per-index fault source
    /// [`lmon_tbon::overlay::Overlay::run`] takes.
    pub fn comm_fault(&self, i: usize) -> CommFault {
        self.comm.get(&i).cloned().unwrap_or_default()
    }

    /// Whether the plan injects anything anywhere.
    pub fn is_empty(&self) -> bool {
        self.sim.is_empty()
            && self.drop_uplink.is_empty()
            && self.spawn.is_empty()
            && self.frames.is_empty()
            && self.comm.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_reports_empty_everywhere() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert!(p.spawn_plan().is_empty());
        assert!(p.frame_plan().is_empty());
        assert!(p.comm_fault(0).is_none());
        assert!(p.sim_faults().is_empty());
    }

    #[test]
    fn builders_accumulate_per_layer() {
        let p = FaultPlan::new()
            .kill_be_at(3, SimDuration::from_millis(1))
            .hang_comm(0, SimDuration::from_millis(2), SimDuration::from_millis(9))
            .drop_uplink_frames(5, 2)
            .fail_spawn_attempt(7)
            .drop_frame(0)
            .crash_comm_after_up(1, 4)
            .crash_comm_after_down(1, 9)
            .sever_comm_child(1, 2);
        assert!(!p.is_empty());
        assert_eq!(p.sim_faults().len(), 2);
        assert_eq!(p.uplink_drops().get(&5), Some(&2));
        assert!(!p.spawn_plan().is_empty());
        assert!(!p.frame_plan().is_empty());
        let cf = p.comm_fault(1);
        assert_eq!(cf.crash_after_up, Some(4));
        assert_eq!(cf.crash_after_down, Some(9));
        assert!(cf.sever_child_slots.contains(&2));
        assert!(p.comm_fault(0).is_none());
    }
}
