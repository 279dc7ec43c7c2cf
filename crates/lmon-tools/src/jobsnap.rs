//! Jobsnap: gather the distributed state of a parallel application.
//!
//! §5.1 and Figure 4. Flow:
//!
//! ```text
//! fe_jobsnap                          be_jobsnap
//! ----------                          ----------
//! init
//! createFEBESession
//! attachAndSpawnDaemons  ──────────►  init / handshake / ready
//!   (returns)                         for each local app task: collect info
//! blocks until "work-done"            gather (ICCL) to master
//!                                     master prints one line per task
//!                        ◄──────────  master sends "work-done" msg
//! detach                              finalize
//! ```
//!
//! The master's "text file" is returned to the front end as the report
//! payload of the work-done message.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lmon_cluster::process::Pid;
use lmon_core::be::BeMain;
use lmon_core::fe::LmonFrontEnd;
use lmon_core::session::SessionId;
use lmon_core::LmonResult;
use lmon_proto::payload::DaemonSpec;

/// Timing and output of one Jobsnap run.
#[derive(Debug)]
pub struct JobsnapReport {
    /// One line per MPI task, sorted by rank (the master's merged output).
    pub lines: Vec<String>,
    /// Total wall time: init → report in hand (the paper's "jobsnap
    /// performance" series in Figure 5).
    pub total: Duration,
    /// Time spent in `init → attachAndSpawn` (the LaunchMON portion, the
    /// second Figure 5 series).
    pub launch: Duration,
    /// The session used (left detached).
    pub session: SessionId,
}

/// The Jobsnap back-end daemon body (the paper's ~500-line `be_jobsnap`).
///
/// Collects a `/proc` snapshot for every local task named in the RPDTAB,
/// gathers all snapshot lines at the master over ICCL, and has the master
/// merge them (one line per task, rank order) and ship them to the FE with
/// the work-done message.
pub fn jobsnap_be_main() -> BeMain {
    Arc::new(|be| {
        // Step 2 (Fig. 4): collect info for each local app task.
        let mut local_lines = Vec::new();
        for desc in be.my_proctab() {
            let line = match be.read_local_proc(desc.pid) {
                Ok(snap) => snap.to_jobsnap_line(),
                Err(e) => format!(
                    "rank={rank:<6} host={host:<12} ERROR: {e}",
                    rank = desc.rank,
                    host = desc.host
                ),
            };
            // Prefix with the rank for the master's merge sort.
            local_lines.push(format!("{:010}|{line}", desc.rank));
        }
        let blob = local_lines.join("\n").into_bytes();

        // Step 3: master gathers via ICCL.
        let gathered = be.gather(blob).expect("jobsnap gather");

        // Step 4: master merges, one line per task, and sends work-done.
        if let Some(parts) = gathered {
            let mut tagged: Vec<(u64, String)> = parts
                .iter()
                .filter(|p| !p.is_empty())
                .flat_map(|p| {
                    String::from_utf8_lossy(p).lines().map(str::to_string).collect::<Vec<_>>()
                })
                .filter_map(|l| {
                    let (rank, rest) = l.split_once('|')?;
                    Some((rank.parse::<u64>().ok()?, rest.to_string()))
                })
                .collect();
            tagged.sort_by_key(|(rank, _)| *rank);
            let report = tagged.into_iter().map(|(_, line)| line).collect::<Vec<_>>().join("\n");
            be.send_usrdata(report.into_bytes()).expect("work-done send");
        }

        // finalize: wait for the FE's detach order so channels close cleanly.
        let _ = be.wait_shutdown();
    })
}

/// The Jobsnap front end (the paper's ~100-line `fe_jobsnap`).
///
/// Attaches to a running job's launcher, co-locates the snapshot daemons,
/// blocks for the merged report, then detaches.
pub fn run_jobsnap(fe: &LmonFrontEnd, launcher_pid: Pid) -> LmonResult<JobsnapReport> {
    let t0 = Instant::now();
    let session = fe.create_session();
    let outcome = fe.attach_and_spawn(
        session,
        launcher_pid,
        DaemonSpec::bare("be_jobsnap"),
        jobsnap_be_main(),
    )?;
    let launch = t0.elapsed();

    // Block until the master's "work-done" (with the merged report).
    let report = fe.recv_usrdata(session, Duration::from_secs(60))?;
    let lines: Vec<String> = String::from_utf8_lossy(&report).lines().map(str::to_string).collect();

    fe.detach(session)?;
    debug_assert_eq!(lines.len(), outcome.rpdtab.len());

    Ok(JobsnapReport { lines, total: t0.elapsed(), launch, session })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmon_cluster::config::ClusterConfig;
    use lmon_cluster::VirtualCluster;
    use lmon_rm::api::{JobSpec, ResourceManager};
    use lmon_rm::SlurmRm;

    fn setup(nodes: usize, tpn: usize) -> (LmonFrontEnd, Pid) {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(nodes));
        let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster));
        let job = rm.launch_job(&JobSpec::new("mpi_app", nodes, tpn), false).unwrap();
        let fe = LmonFrontEnd::init(rm).unwrap();
        (fe, job.launcher_pid)
    }

    #[test]
    fn jobsnap_reports_one_line_per_task_in_rank_order() {
        let (fe, launcher) = setup(3, 4);
        let report = run_jobsnap(&fe, launcher).expect("jobsnap");
        assert_eq!(report.lines.len(), 12);
        for (i, line) in report.lines.iter().enumerate() {
            assert!(line.contains(&format!("rank={i}")), "line {i} out of order: {line}");
            assert!(line.contains("exe=mpi_app"), "{line}");
            assert!(line.contains("st=R"), "{line}");
            assert!(line.contains("vmhwm="), "{line}");
            assert!(line.contains("majflt="), "{line}");
        }
        assert!(report.launch <= report.total);
        fe.shutdown().unwrap();
    }

    #[test]
    fn jobsnap_output_is_reproducible() {
        // Two runs against the same job must produce identical reports
        // (synthetic /proc stats are deterministic).
        let (fe, launcher) = setup(2, 3);
        let a = run_jobsnap(&fe, launcher).unwrap();
        let b = run_jobsnap(&fe, launcher).unwrap();
        assert_eq!(a.lines, b.lines);
        fe.shutdown().unwrap();
    }

    #[test]
    fn jobsnap_fleet_multiplexes_sessions_over_one_link() {
        // Four jobs on one cluster, one Jobsnap session each, all attached
        // simultaneously through a single front end.
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(12));
        let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster));
        let launchers: Vec<Pid> = (0..4)
            .map(|_| rm.launch_job(&JobSpec::new("mpi_app", 3, 2), false).unwrap().launcher_pid)
            .collect();
        let fe = LmonFrontEnd::init(rm).unwrap();

        // Attach every session before detaching any of them.
        let sessions: Vec<SessionId> = launchers
            .iter()
            .map(|&launcher| {
                let session = fe.create_session();
                let daemon = DaemonSpec::bare("be_jobsnap");
                fe.attach_and_spawn(session, launcher, daemon, jobsnap_be_main()).expect("attach");
                session
            })
            .collect();
        let stats = fe.transport_stats();
        assert_eq!(stats.be_sessions, 4, "all four sessions live at once");
        assert_eq!(stats.be_physical_links, 1, "…over exactly one physical channel");
        for &session in &sessions {
            let report = fe.recv_usrdata(session, Duration::from_secs(60)).expect("report");
            let report = String::from_utf8_lossy(&report).into_owned();
            let lines: Vec<&str> = report.lines().collect();
            assert_eq!(lines.len(), 6, "3 nodes x 2 tasks per session");
            for (i, line) in lines.iter().enumerate() {
                assert!(line.contains(&format!("rank={i}")), "line {i} out of order: {line}");
            }
        }
        for session in sessions {
            fe.detach(session).unwrap();
        }
        // After detach the sub-streams close; the link itself remains.
        let stats = fe.transport_stats();
        assert_eq!(stats.be_sessions, 0);
        assert_eq!(stats.be_peak_sessions, 4);
        fe.shutdown().unwrap();
    }

    #[test]
    fn jobsnap_hosts_match_block_distribution() {
        let (fe, launcher) = setup(2, 2);
        let report = run_jobsnap(&fe, launcher).unwrap();
        assert!(report.lines[0].contains("host=node00000"));
        assert!(report.lines[1].contains("host=node00000"));
        assert!(report.lines[2].contains("host=node00001"));
        assert!(report.lines[3].contains("host=node00001"));
        fe.shutdown().unwrap();
    }
}
