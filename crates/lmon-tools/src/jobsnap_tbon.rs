//! Jobsnap over a TBON — the paper's stated future work.
//!
//! §5.1: "In addition, we are considering a TBON architecture that would
//! reduce the impact of collecting and printing information from each
//! back-end daemon." This module implements that extension: instead of a
//! single ICCL gather at the master (whose merge work is linear in task
//! count), snapshot lines flow up an MRNet-style tree whose internal nodes
//! merge-sort their children's partial reports — the final merge at the
//! front end touches only the root's fan-in.
//!
//! Middleware (communication) daemons are launched onto separately
//! allocated nodes through the LaunchMON MW API when the topology needs
//! them; leaf duty is taken by the Jobsnap BE daemons themselves.
//!
//! [`run_jobsnap_tbon_resilient`] additionally rides the overlay's
//! self-healing layer (DESIGN.md §9): a comm-daemon death mid-wave is
//! detected, repaired by grandparent adoption, surfaced as a
//! degraded → healed transition on the FE health API, and the snapshot
//! wave is re-issued — the report still covers every surviving back end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lmon_cluster::process::Pid;
use lmon_core::fe::LmonFrontEnd;
use lmon_core::health::HealthState;
use lmon_core::LmonResult;
use lmon_tbon::filter::{FilterKind, FilterRegistry};
use lmon_tbon::overlay::CommFault;
use lmon_tbon::spec::TopologySpec;
use lmon_tbon::TbonError;

use crate::jobsnap::JobsnapReport;
use crate::launchmon_overlay::{with_attached_overlay, Answers, OverlaySetup, CONNECT_TIMEOUT};

/// Custom TBON filter id for the jobsnap line merge.
pub const JOBSNAP_MERGE_FILTER: u32 = 101;

/// Merge-sort rank-tagged report blobs (`rank|line\n...`) from children.
///
/// Inputs are individually rank-sorted; the output is their sorted merge —
/// so every level of the tree does a bounded share of the total merge work.
pub fn jobsnap_merge_filter(inputs: Vec<Vec<u8>>) -> Vec<u8> {
    let mut tagged: Vec<(u64, String)> = Vec::new();
    for blob in inputs {
        for line in String::from_utf8_lossy(&blob).lines() {
            if let Some((rank, rest)) = line.split_once('|') {
                if let Ok(rank) = rank.parse::<u64>() {
                    tagged.push((rank, rest.to_string()));
                }
            }
        }
    }
    tagged.sort_by_key(|(rank, _)| *rank);
    tagged
        .into_iter()
        .map(|(rank, line)| format!("{rank:010}|{line}"))
        .collect::<Vec<_>>()
        .join("\n")
        .into_bytes()
}

fn registry() -> FilterRegistry {
    let mut r = FilterRegistry::new();
    r.register(JOBSNAP_MERGE_FILTER, Arc::new(jobsnap_merge_filter));
    r
}

/// Detect-and-heal step shared by the resilient wave loop's two failure
/// sites (stalled gather, disconnected broadcast): records the session's
/// degraded → healed transitions on the LaunchMON front end and returns
/// whether anything was repaired.
fn heal_and_record(
    fe: &LmonFrontEnd,
    session: lmon_core::SessionId,
    front: &mut lmon_tbon::FrontEndpoint,
) -> LmonResult<bool> {
    let dead = front.poll_failures();
    if dead.is_empty() {
        return Ok(false);
    }
    for d in &dead {
        fe.record_session_health(
            session,
            HealthState::Degraded,
            front.overlay_epoch(),
            format!(
                "comm daemon ({},{}) died, {} orphans",
                d.level,
                d.index,
                front.route_table().current_children(*d).len()
            ),
        );
    }
    let repairs =
        front.heal_failures().map_err(|e| lmon_core::LmonError::Engine(format!("heal: {e}")))?;
    for r in &repairs {
        fe.record_session_health(
            session,
            HealthState::Healed,
            r.epoch,
            format!(
                "({},{}) repaired away, {} orphans adopted",
                r.dead.level,
                r.dead.index,
                r.adoptions.len()
            ),
        );
    }
    Ok(!repairs.is_empty())
}

/// Run Jobsnap with tree-based collection.
///
/// `fanout` controls the TBON shape: `TopologySpec::balanced(nodes,
/// fanout)`. With few nodes the tree degenerates to 1-deep and no
/// middleware daemons are needed; otherwise comm daemons are launched via
/// the MW API onto extra nodes.
pub fn run_jobsnap_tbon(
    fe: &LmonFrontEnd,
    launcher_pid: Pid,
    n_nodes: u32,
    fanout: u32,
) -> LmonResult<JobsnapReport> {
    run_jobsnap_tbon_resilient(fe, launcher_pid, n_nodes, fanout, Vec::new())
}

/// [`run_jobsnap_tbon`] under injected comm-daemon faults, healing around
/// them: when the snapshot wave stalls because a comm daemon died, the
/// front end repairs the overlay (grandparent adoption, DESIGN.md §9),
/// records the session's degraded → healed transitions on the LaunchMON
/// front end's health surface, and re-issues the wave — so the report
/// still covers every surviving back end.
///
/// `comm_faults` is indexed like `Overlay::comm` (= MW daemon rank order).
pub fn run_jobsnap_tbon_resilient(
    fe: &LmonFrontEnd,
    launcher_pid: Pid,
    n_nodes: u32,
    fanout: u32,
    comm_faults: Vec<(usize, CommFault)>,
) -> LmonResult<JobsnapReport> {
    let t0 = Instant::now();
    let setup = OverlaySetup {
        spec: TopologySpec::balanced(n_nodes, fanout),
        registry: registry(),
        leaf_daemon: "be_jobsnap_tbon",
        comm_daemon: "jobsnap_commd",
        comm_faults,
        connect_timeout: CONNECT_TIMEOUT,
    };
    // Leaves: jobsnap BE daemons collect their local lines once and answer
    // each snapshot wave with them.
    let answers: Answers = Arc::new(|be| {
        let mut local: Vec<(u64, String)> = Vec::new();
        for desc in be.my_proctab() {
            if let Ok(snap) = be.read_local_proc(desc.pid) {
                local.push((desc.rank as u64, snap.to_jobsnap_line()));
            }
        }
        local.sort_by_key(|(rank, _)| *rank);
        let blob: Vec<u8> = local
            .iter()
            .map(|(rank, line)| format!("{rank:010}|{line}"))
            .collect::<Vec<_>>()
            .join("\n")
            .into_bytes();
        Box::new(move |_| blob.clone())
    });
    let session = fe.create_session();
    with_attached_overlay(fe, session, launcher_pid, setup, answers, |front, launch| {
        let lines = snapshot_wave(fe, session, front)?;
        Ok(JobsnapReport { lines, total: t0.elapsed(), launch, session })
    })
}

/// One snapshot wave over a connected overlay, healing around comm-daemon
/// deaths; returns the merged report lines.
fn snapshot_wave(
    fe: &LmonFrontEnd,
    session: lmon_core::SessionId,
    front: &mut lmon_tbon::FrontEndpoint,
) -> LmonResult<Vec<String>> {
    let stream = front
        .open_stream(FilterKind::Custom(JOBSNAP_MERGE_FILTER))
        .map_err(|e| lmon_core::LmonError::Engine(format!("stream: {e}")))?;

    // Snapshot wave with self-healing: a broadcast that hits a dead
    // daemon's dropped link, or a gather stalled by one, triggers
    // detect → repair → re-broadcast; the degraded → healed transitions
    // surface on the FE health API.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut tag = 1u16;
    let report_pkt = 'wave: loop {
        match front.broadcast(stream, tag, b"SNAPSHOT".to_vec()) {
            Ok(()) => {}
            Err(TbonError::Disconnected) if Instant::now() <= deadline => {
                // A send into a dead daemon's dropped receiver: heal and
                // re-issue, exactly like a stalled gather.
                if heal_and_record(fe, session, front)? {
                    tag += 1;
                    continue 'wave;
                }
                return Err(lmon_core::LmonError::Engine(
                    "broadcast: disconnected with no detectable failure".into(),
                ));
            }
            Err(e) => return Err(lmon_core::LmonError::Engine(format!("broadcast: {e}"))),
        }
        loop {
            match front.gather(stream, tag, Duration::from_millis(300)) {
                Ok(pkt) => break 'wave pkt,
                Err(TbonError::Timeout) => {
                    if heal_and_record(fe, session, front)? {
                        tag += 1;
                        continue 'wave; // re-issue the wave post-heal
                    }
                    if Instant::now() > deadline {
                        return Err(lmon_core::LmonError::Engine(
                            "gather: timed out with no detectable failure".into(),
                        ));
                    }
                }
                Err(e) => return Err(lmon_core::LmonError::Engine(format!("gather: {e}"))),
            }
        }
    };

    Ok(String::from_utf8_lossy(&report_pkt.payload)
        .lines()
        .filter_map(|l| l.split_once('|').map(|(_, rest)| rest.to_string()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmon_cluster::config::ClusterConfig;
    use lmon_cluster::VirtualCluster;
    use lmon_rm::api::{JobSpec, ResourceManager};
    use lmon_rm::SlurmRm;

    fn setup(nodes: usize, tpn: usize, total_nodes: usize) -> (LmonFrontEnd, Pid) {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(total_nodes));
        let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster));
        let job = rm.launch_job(&JobSpec::new("mpi_app", nodes, tpn), false).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        (LmonFrontEnd::init(rm).unwrap(), job.launcher_pid)
    }

    #[test]
    fn one_deep_tbon_jobsnap_matches_flat_jobsnap() {
        let (fe, launcher) = setup(4, 4, 4);
        let tbon = run_jobsnap_tbon(&fe, launcher, 4, 8).expect("tbon jobsnap");
        let flat = crate::jobsnap::run_jobsnap(&fe, launcher).expect("flat jobsnap");
        assert_eq!(tbon.lines, flat.lines, "identical reports from both architectures");
        assert_eq!(tbon.lines.len(), 16);
        fe.shutdown().unwrap();
    }

    #[test]
    fn deep_tbon_uses_middleware_daemons() {
        // 8 job nodes + extra nodes for the comm level: fanout 2 over 8
        // leaves ⇒ levels 1x2x4x8 ⇒ 6 comm daemons.
        let (fe, launcher) = setup(8, 2, 16);
        let report = run_jobsnap_tbon(&fe, launcher, 8, 2).expect("deep tbon jobsnap");
        assert_eq!(report.lines.len(), 16);
        // Rank order preserved through the distributed merge.
        for (i, line) in report.lines.iter().enumerate() {
            assert!(line.contains(&format!("rank={i}")), "line {i}: {line}");
        }
        fe.shutdown().unwrap();
    }

    #[test]
    fn resilient_tbon_jobsnap_heals_comm_death_mid_wave() {
        // 8 job nodes, fanout 2 ⇒ 1x2x4x8. Comm daemon 0 = (1,0) dies on
        // its second down-message: the snapshot broadcast right behind the
        // stream announcement, stranding half the tree mid-wave.
        let (fe, launcher) = setup(8, 2, 16);
        let faults = vec![(0, CommFault::none().crash_after_down(1))];
        let report =
            run_jobsnap_tbon_resilient(&fe, launcher, 8, 2, faults).expect("healed jobsnap");
        assert_eq!(report.lines.len(), 16, "report covers every back end after the heal");
        for (i, line) in report.lines.iter().enumerate() {
            assert!(line.contains(&format!("rank={i}")), "line {i}: {line}");
        }
        let states: Vec<HealthState> =
            fe.session_health_history(report.session).iter().map(|t| t.state).collect();
        assert_eq!(
            states,
            vec![HealthState::Degraded, HealthState::Healed],
            "the FE surfaces the degraded → healed transition"
        );
        assert_eq!(fe.session_health(report.session), HealthState::Healed);
        fe.shutdown().unwrap();
    }

    #[test]
    fn a_stalled_connect_still_shuts_the_overlay_down_and_detaches() {
        // 1x2x4x8: comm daemon 0 = (1,0) crashes on its first up-packet,
        // so half the hellos never reach the front end and the connect
        // wait times out. The error must not leave the session attached,
        // its BE sub-stream open or its BEs parked in their serve loops.
        let (fe, launcher) = setup(8, 2, 16);
        let probe = OverlaySetup {
            spec: TopologySpec::balanced(8, 2),
            registry: registry(),
            leaf_daemon: "probe_be",
            comm_daemon: "probe_commd",
            comm_faults: vec![(0, CommFault::none().crash_after_up(0))],
            connect_timeout: Duration::from_millis(200),
        };
        let answers: Answers = Arc::new(|_| Box::new(|_| Vec::new()));
        let session = fe.create_session();
        let err = with_attached_overlay(&fe, session, launcher, probe, answers, |_, _| Ok(()))
            .unwrap_err();
        assert!(err.to_string().contains("overlay connect"), "{err}");
        assert_eq!(fe.session_state(session).unwrap(), lmon_core::session::SessionState::Detached);
        assert_eq!(fe.transport_stats().be_sessions, 0, "detach closed the BE sub-stream");
        fe.shutdown().unwrap();
    }

    #[test]
    fn merge_filter_sorts_across_children() {
        let a = b"0000000003|rank=3\n0000000001|rank=1".to_vec();
        let b = b"0000000002|rank=2\n0000000000|rank=0".to_vec();
        let merged = jobsnap_merge_filter(vec![a, b]);
        let text = String::from_utf8(merged).unwrap();
        let ranks: Vec<&str> = text.lines().map(|l| l.split_once('|').unwrap().1).collect();
        assert_eq!(ranks, vec!["rank=0", "rank=1", "rank=2", "rank=3"]);
    }

    #[test]
    fn merge_filter_ignores_garbage_lines() {
        let merged = jobsnap_merge_filter(vec![b"notpiped\nxx|notanumber".to_vec()]);
        assert!(merged.is_empty());
    }
}
