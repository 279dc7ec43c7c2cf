//! Planned maintenance (DESIGN.md §12): drain, upgrade, rolling upgrade
//! and background suspicion, on top of the front end's repair path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::unbounded;

use super::FrontEndpoint;
use crate::error::{TbonError, TbonResult};
use crate::recovery::{RecoveryCmd, RecoveryEvent, RepairReport};
use crate::spec::NodePos;
use crate::suspicion::{spawn_monitor, PhiAccrualParams, SuspicionTable};

impl FrontEndpoint {
    /// The planned-maintenance surface (DESIGN.md §12), one handle for
    /// the whole drain / upgrade / suspicion family:
    /// `fe.maintenance().drain(pos, timeout)`,
    /// `.upgrade(pos, timeout)`, `.rolling_upgrade(timeout)`,
    /// `.start_suspicion(params)`.
    pub fn maintenance(&mut self) -> Maintenance<'_> {
        Maintenance { fe: self }
    }
}

/// The planned-maintenance handle (DESIGN.md §12), obtained from
/// [`FrontEndpoint::maintenance`]: drains, upgrades, and background
/// suspicion live here, leaving `FrontEndpoint` itself to the data and
/// failure planes. The handle borrows the front end mutably, so a
/// maintenance walk can never interleave with another maintenance call on
/// the same overlay.
pub struct Maintenance<'a> {
    fe: &'a mut FrontEndpoint,
}

impl Maintenance<'_> {
    /// Planned, loss-free removal of the comm daemon at `pos` (DESIGN.md
    /// §12): the daemon stops as soon as every in-flight wave it holds has
    /// flushed upward, closes its links, confirms with a `Drained` notice,
    /// and only then is its subtree re-parented through the normal repair
    /// machinery — under a draining guard, so the teardown never enters
    /// the failure ledger (no `Degraded` event, no death count, no
    /// suspicion) and is visible as `drains_completed` instead.
    ///
    /// Wave aggregates the drain flushes are preserved across the repair:
    /// a wave every pre-repair child had contributed to stays gatherable.
    /// Broadcasts whose replies are still spread across *other* daemons
    /// follow the usual PR 5 stale-epoch rule, so callers wanting strict
    /// zero-loss gather outstanding waves before draining (the rolling
    /// upgrade does).
    ///
    /// Returns the repair report once the subtree is whole again. On
    /// timeout the drain guard is rolled back but the request stands: the
    /// node keeps serving until the waves it holds flush, then exits, and
    /// its late `Drained` notice is filed as an ordinary death
    /// ([`FrontEndpoint::wait_failure`], [`FrontEndpoint::heal_failures`]).
    /// While it still runs, the caller may fall back to
    /// [`FrontEndpoint::crash_comm`].
    pub fn drain(&mut self, pos: NodePos, timeout: Duration) -> TbonResult<RepairReport> {
        let fe = &mut *self.fe;
        let ctl = fe.comm_ctl(pos)?;
        fe.events.push(RecoveryEvent::Draining { node: pos, epoch: fe.epoch });
        fe.draining.lock().insert(pos);
        if ctl.send(RecoveryCmd::Drain).is_err() {
            fe.draining.lock().remove(&pos);
            return Err(TbonError::Disconnected);
        }
        if !fe.pump_until(Instant::now() + timeout, |fe| fe.drained_pending.remove(&pos)) {
            fe.draining.lock().remove(&pos);
            return Err(TbonError::Timeout);
        }
        fe.stats.add_drains(1);
        // Re-parent the drained subtree; the draining guard keeps the
        // planned death out of the failure path inside repair().
        let report = fe.repair(pos);
        fe.draining.lock().remove(&pos);
        report
    }

    /// Replace one comm daemon: drain it (loss-free), let the repair
    /// re-attach its subtree (preferring an idle hot spare), then verify
    /// the healed overlay with a full heartbeat sweep. Counted in
    /// `upgrades_completed` / `upgrades_failed`.
    pub fn upgrade(&mut self, pos: NodePos, timeout: Duration) -> TbonResult<UpgradeStep> {
        let start = Instant::now();
        let report =
            self.drain(pos, timeout).inspect_err(|_| self.fe.stats.add_upgrades_failed(1))?;
        let drain = start.elapsed();
        // Post-heal verification: the broadcast ping must reach every
        // re-parented node — adopted orphans and activated spares alike —
        // and come back.
        let missing = self.fe.heartbeat(timeout);
        if !missing.is_empty() {
            self.fe.stats.add_upgrades_failed(1);
            return Err(TbonError::LaunchFailed(format!(
                "post-upgrade verification after replacing {pos:?}: {} unresponsive: {missing:?}",
                missing.len()
            )));
        }
        self.fe.stats.add_upgrades(1);
        Ok(UpgradeStep {
            pos,
            drain,
            total: start.elapsed(),
            spare_used: report.spares_used.first().copied(),
            epoch: report.epoch,
        })
    }

    /// Rolling upgrade: walk every interior comm daemon — deepest level
    /// first, then index order, snapshot taken up front so replacement
    /// daemons are not themselves walked — and run
    /// [`Maintenance::upgrade`] on each. Between steps the walk
    /// pauses to heal *unplanned* failures (a crash or suspicion death
    /// that raced the upgrade); a walked node that was repaired away in
    /// the meantime is skipped.
    pub fn rolling_upgrade(&mut self, per_node_timeout: Duration) -> TbonResult<UpgradeReport> {
        let mut walk: Vec<NodePos> = {
            let rt = self.fe.route.lock();
            rt.nodes
                .iter()
                .filter(|(p, n)| p.level != 0 && n.alive && n.up.is_some())
                .map(|(p, _)| *p)
                .filter(|p| !rt.spare_pool.contains(p))
                .collect()
        };
        walk.sort_by_key(|p| (std::cmp::Reverse(p.level), p.index));
        let mut report = UpgradeReport::default();
        for pos in walk {
            report.unplanned_repairs += self.fe.heal_failures()?.len();
            if self.fe.route.is_alive(pos) {
                report.steps.push(self.upgrade(pos, per_node_timeout)?);
            }
        }
        report.unplanned_repairs += self.fe.heal_failures()?.len();
        report.epoch = self.fe.epoch;
        Ok(report)
    }

    /// Start background phi-accrual failure suspicion (DESIGN.md §12):
    /// every interior comm daemon — idle spares included — is enrolled to
    /// beat over a dedicated channel (never the tree, so liveness traffic
    /// cannot perturb wave aggregation or fault counters), and a monitor
    /// thread grades each node Alive → Suspect → Dead from its
    /// inter-arrival history. A suspicion death is marked in the shared
    /// route table and posted to the front end as the same `ChildGone`
    /// notice a crash sends, so [`FrontEndpoint::wait_failure`] wakes for
    /// it and [`FrontEndpoint::heal_failures`] repairs it — silent halts
    /// feed the normal repair path with no caller-driven sweep.
    ///
    /// Returns the live suspicion table (the `/metrics` per-child gauge
    /// source). The monitor stops when the front end is dropped.
    pub fn start_suspicion(&mut self, params: PhiAccrualParams) -> Arc<SuspicionTable> {
        let fe = &mut *self.fe;
        let (beat, beat_rx) = unbounded();
        let rt = fe.route.lock();
        let comms = rt.nodes.iter().filter(|(p, n)| p.level != 0 && n.up.is_some());
        for ctl in comms.filter_map(|(_, n)| n.ctl.as_ref()) {
            let interval = params.beat_interval;
            let _ = ctl.send(RecoveryCmd::StartBeats { beat: beat.clone(), interval });
        }
        drop(rt);
        // Only the enrolled daemons hold senders now: when the last one
        // exits at teardown, the channel disconnect stops the monitor.
        drop(beat);
        let (route, stats, draining) = (fe.route.clone(), fe.stats.clone(), fe.draining.clone());
        let handle = spawn_monitor(beat_rx, params, route, stats, draining);
        let table = handle.table();
        fe.suspicion = Some(handle);
        table
    }
}

/// One completed step of a rolling upgrade (see
/// [`Maintenance::rolling_upgrade`]).
#[derive(Debug, Clone)]
pub struct UpgradeStep {
    /// The interior comm daemon replaced in this step.
    pub pos: NodePos,
    /// Drain latency: request → `Drained` confirmation → subtree repaired.
    pub drain: Duration,
    /// Total step latency, post-heal verification sweep included.
    pub total: Duration,
    /// The hot spare that took over, when the pool had one idle (`None`
    /// means siblings absorbed the subtree).
    pub spare_used: Option<NodePos>,
    /// The epoch the overlay settled on after this step.
    pub epoch: u64,
}

/// What one [`Maintenance::rolling_upgrade`] walk did.
#[derive(Debug, Clone, Default)]
pub struct UpgradeReport {
    /// Completed steps, in walk order (deepest level first).
    pub steps: Vec<UpgradeStep>,
    /// Unplanned failures healed while the walk was paused between steps.
    pub unplanned_repairs: usize,
    /// The final overlay epoch.
    pub epoch: u64,
}
