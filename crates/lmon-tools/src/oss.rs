//! Open|SpeedShop (O|SS) and the Instrumentor swap (§5.3, Table 1).
//!
//! O|SS encapsulates "all interactions between the tool and the target
//! application" in its central Instrumentor class. The paper's integration
//! replaced that class: instead of DPCL acquiring the APAI (which parses
//! the RM launcher binary in full — "unnecessary overhead"), LaunchMON
//! "acquire\[s\] RPDTAB ... and then passes this information to the DPCL
//! startup routines".
//!
//! Table 1 measures exactly this difference: "the time between initiating a
//! performance experiment and when O|SS has acquired all APAI information",
//! DPCL ≈ 34 s flat vs LaunchMON ≈ 0.6 s flat.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lmon_cluster::process::Pid;
use lmon_cluster::trace::TraceController;
use lmon_cluster::VirtualCluster;
use lmon_core::be::BeMain;
use lmon_core::fe::LmonFrontEnd;
use lmon_core::timeline::CriticalEvent;
use lmon_core::LmonResult;
use lmon_proto::payload::DaemonSpec;
use lmon_proto::rpdtab::Rpdtab;
use lmon_rm::mpir;

use crate::dpcl::{parse_binary, DpclInfra, ProbeModule, SyntheticBinary};

/// APAI acquisition result: the table and how long acquisition took.
#[derive(Debug)]
pub struct ApaiAcquisition {
    /// The acquired process table.
    pub rpdtab: Rpdtab,
    /// Acquisition latency (the Table 1 metric).
    pub apai_time: Duration,
}

/// The Instrumentor abstraction O|SS routes all target interaction through.
pub trait Instrumentor {
    /// Implementation name (`dpcl` or `launchmon`).
    fn name(&self) -> &'static str;

    /// Acquire the APAI information for the job behind `launcher_pid`.
    fn acquire_apai(&mut self, launcher_pid: Pid) -> Result<ApaiAcquisition, String>;
}

// ---------------------------------------------------------------------------
// DPCL path
// ---------------------------------------------------------------------------

/// The original O|SS instrumentor: DPCL super daemons + full binary parse.
pub struct DpclInstrumentor {
    cluster: VirtualCluster,
    infra: Arc<DpclInfra>,
    /// The RM launcher's binary image (DPCL parses it like any target).
    launcher_binary: SyntheticBinary,
    /// Probes installed after acquisition.
    pub probes: ProbeModule,
}

impl DpclInstrumentor {
    /// Build over an installed DPCL deployment.
    pub fn new(
        cluster: VirtualCluster,
        infra: Arc<DpclInfra>,
        launcher_binary: SyntheticBinary,
    ) -> Self {
        DpclInstrumentor { cluster, infra, launcher_binary, probes: ProbeModule::new() }
    }
}

impl Instrumentor for DpclInstrumentor {
    fn name(&self) -> &'static str {
        "dpcl"
    }

    fn acquire_apai(&mut self, launcher_pid: Pid) -> Result<ApaiAcquisition, String> {
        let t0 = Instant::now();
        // 1. Connect to the super daemon on the launcher's node (the FE).
        let fe_host = self.cluster.front_end().hostname.clone();
        self.infra.connect(&fe_host)?;

        // 2. "The O|SS approach also treats the RM process in the same way
        //    as the target application, including parsing its binary fully,
        //    which entails unnecessary overhead."
        let table = parse_binary(&self.launcher_binary);
        if table.addr_of("zn4app4f000000eprocessev").is_none() && table.is_empty() {
            return Err("launcher binary parse produced no symbols".into());
        }

        // 3. Only now read the APAI out of the (instrumented) launcher.
        let (_node, rec) = self.cluster.find_proc(launcher_pid).map_err(|e| e.to_string())?;
        let ctl =
            TraceController::attach(launcher_pid, rec.shared.clone()).map_err(|e| e.to_string())?;
        let table = mpir::fetch_proctable(&ctl)?;
        let rpdtab = Rpdtab::clone(&table);

        Ok(ApaiAcquisition { rpdtab, apai_time: t0.elapsed() })
    }
}

// ---------------------------------------------------------------------------
// LaunchMON path
// ---------------------------------------------------------------------------

/// The paper's replacement instrumentor: LaunchMON acquires the RPDTAB and
/// hands it to the (front-end-started, non-root) daemon startup.
pub struct LaunchmonInstrumentor<'fe> {
    fe: &'fe LmonFrontEnd,
    /// The session created by the last acquisition.
    pub session: Option<lmon_core::session::SessionId>,
}

impl<'fe> LaunchmonInstrumentor<'fe> {
    /// Build over an initialized front end.
    pub fn new(fe: &'fe LmonFrontEnd) -> Self {
        LaunchmonInstrumentor { fe, session: None }
    }

    fn daemon_main() -> BeMain {
        // "We augmented the DPCL daemons so the front end can directly
        // start them instead of a system daemon": the daemon connects back
        // through the BE API and waits for experiment commands.
        Arc::new(|be| {
            let _ = be.barrier();
            let _ = be.wait_shutdown();
        })
    }
}

impl Instrumentor for LaunchmonInstrumentor<'_> {
    fn name(&self) -> &'static str {
        "launchmon"
    }

    fn acquire_apai(&mut self, launcher_pid: Pid) -> Result<ApaiAcquisition, String> {
        let session = self.fe.create_session();
        let outcome = self
            .fe
            .attach_and_spawn(session, launcher_pid, DaemonSpec::bare("ossd"), Self::daemon_main())
            .map_err(|e| e.to_string())?;
        self.session = Some(session);
        // Table 1 measures APAI access: e0 (experiment initiated) to e4
        // (RPDTAB in hand).
        let tl = self.fe.timeline(session).map_err(|e| e.to_string())?;
        let apai_time = tl
            .between(CriticalEvent::E0ClientCall, CriticalEvent::E4RpdtabFetched)
            .ok_or("timeline incomplete")?;
        Ok(ApaiAcquisition { rpdtab: Rpdtab::clone(&outcome.rpdtab), apai_time })
    }
}

// ---------------------------------------------------------------------------
// A PC-sampling experiment on top of either instrumentor
// ---------------------------------------------------------------------------

/// Result of the PC-sampling experiment.
#[derive(Debug)]
pub struct PcSamplingReport {
    /// Samples per bucket address (aggregated over all tasks).
    pub histogram: BTreeMap<u64, u64>,
    /// Total samples taken.
    pub total_samples: u64,
}

/// Run a PC-sampling experiment over a job via LaunchMON-launched daemons:
/// each daemon reads its local tasks' program counters from `/proc`,
/// buckets them, and the master gathers the histogram.
pub fn run_pc_sampling(
    fe: &LmonFrontEnd,
    launcher_pid: Pid,
    samples_per_task: u32,
) -> LmonResult<PcSamplingReport> {
    let session = fe.create_session();
    let be_main: BeMain = Arc::new(move |be| {
        let mut histo: BTreeMap<u64, u64> = BTreeMap::new();
        let tasks: Vec<(u64, u32)> = be.my_proctab().iter().map(|d| (d.pid, d.rank)).collect();
        for (pid, _rank) in &tasks {
            for _ in 0..samples_per_task {
                if let Ok(snap) = be.read_local_proc(*pid) {
                    // Bucket by 4 KiB region, like a flat profile.
                    *histo.entry(snap.stats.pc & !0xFFF).or_insert(0) += 1;
                }
            }
        }
        // Serialize the local histogram: (bucket, count) pairs.
        let mut blob = Vec::with_capacity(histo.len() * 16);
        for (bucket, count) in &histo {
            blob.extend_from_slice(&bucket.to_be_bytes());
            blob.extend_from_slice(&count.to_be_bytes());
        }
        if let Ok(Some(parts)) = be.gather(blob) {
            let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
            for part in parts {
                for pair in part.chunks_exact(16) {
                    let bucket = u64::from_be_bytes(pair[..8].try_into().expect("8B"));
                    let count = u64::from_be_bytes(pair[8..].try_into().expect("8B"));
                    *merged.entry(bucket).or_insert(0) += count;
                }
            }
            let mut blob = Vec::with_capacity(merged.len() * 16);
            for (bucket, count) in &merged {
                blob.extend_from_slice(&bucket.to_be_bytes());
                blob.extend_from_slice(&count.to_be_bytes());
            }
            let _ = be.send_usrdata(blob);
        }
        let _ = be.wait_shutdown();
    });

    fe.attach_and_spawn(session, launcher_pid, DaemonSpec::bare("oss_pcsamp"), be_main)?;
    let blob = fe.recv_usrdata(session, Duration::from_secs(30))?;
    let mut histogram = BTreeMap::new();
    let mut total = 0u64;
    for pair in blob.chunks_exact(16) {
        let bucket = u64::from_be_bytes(pair[..8].try_into().expect("8B"));
        let count = u64::from_be_bytes(pair[8..].try_into().expect("8B"));
        histogram.insert(bucket, count);
        total += count;
    }
    fe.detach(session)?;
    Ok(PcSamplingReport { histogram, total_samples: total })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmon_cluster::config::ClusterConfig;
    use lmon_rm::api::{JobSpec, ResourceManager};
    use lmon_rm::SlurmRm;

    fn setup(nodes: usize, tpn: usize) -> (VirtualCluster, Arc<dyn ResourceManager>, Pid) {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(nodes));
        let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
        let job = rm.launch_job(&JobSpec::new("app", nodes, tpn), false).unwrap();
        // Let the launcher publish the proctable.
        std::thread::sleep(Duration::from_millis(20));
        (cluster, rm, job.launcher_pid)
    }

    #[test]
    fn both_instrumentors_acquire_the_same_apai() {
        let (cluster, rm, launcher) = setup(2, 4);
        let infra = DpclInfra::install(&cluster);
        let launcher_bin = SyntheticBinary::generate("srun", 20_000, 42);
        let mut dpcl = DpclInstrumentor::new(cluster.clone(), infra.clone(), launcher_bin);
        let dpcl_result = dpcl.acquire_apai(launcher).expect("dpcl acquire");
        assert_eq!(dpcl_result.rpdtab.len(), 8);

        let fe = LmonFrontEnd::init(rm).unwrap();
        let mut lmon = LaunchmonInstrumentor::new(&fe);
        let lmon_result = lmon.acquire_apai(launcher).expect("launchmon acquire");
        assert_eq!(lmon_result.rpdtab, dpcl_result.rpdtab, "identical APAI data");

        if let Some(s) = lmon.session {
            fe.detach(s).unwrap();
        }
        infra.uninstall();
        fe.shutdown().unwrap();
    }

    #[test]
    fn dpcl_cost_scales_with_binary_not_with_nodes() {
        // The structural claim behind Table 1's flat DPCL row: acquisition
        // cost is dominated by the launcher binary parse, not node count.
        let (cluster, _rm, launcher) = setup(2, 2);
        let infra = DpclInfra::install(&cluster);
        let small = SyntheticBinary::generate("srun", 2_000, 1);
        let large = SyntheticBinary::generate("srun", 200_000, 1);

        let mut with_small = DpclInstrumentor::new(cluster.clone(), infra.clone(), small);
        let t_small = with_small.acquire_apai(launcher).unwrap().apai_time;
        let mut with_large = DpclInstrumentor::new(cluster.clone(), infra.clone(), large);
        let t_large = with_large.acquire_apai(launcher).unwrap().apai_time;
        assert!(t_large > t_small * 3, "100x symbols should dominate: {t_small:?} vs {t_large:?}");
        infra.uninstall();
    }

    #[test]
    fn dpcl_requires_preinstalled_daemons() {
        let (cluster, _rm, launcher) = setup(1, 1);
        // The "production environment" case: super daemons were never
        // deployed (simulated by installing and immediately uninstalling).
        let empty_infra = {
            let i = DpclInfra::install(&cluster);
            i.uninstall();
            i
        };
        let bin = SyntheticBinary::generate("srun", 100, 1);
        let mut inst = DpclInstrumentor::new(cluster.clone(), empty_infra, bin);
        let err = inst.acquire_apai(launcher).unwrap_err();
        assert!(err.contains("no DPCL super daemon"), "{err}");
    }

    #[test]
    fn pc_sampling_experiment_produces_histogram() {
        let (_cluster, rm, launcher) = setup(2, 4);
        let fe = LmonFrontEnd::init(rm).unwrap();
        let report = run_pc_sampling(&fe, launcher, 5).expect("pc sampling");
        assert_eq!(report.total_samples, 2 * 4 * 5);
        assert!(!report.histogram.is_empty());
        // All buckets are page-aligned text addresses.
        for bucket in report.histogram.keys() {
            assert_eq!(bucket & 0xFFF, 0);
            assert!(*bucket >= 0x40_0000);
        }
        fe.shutdown().unwrap();
    }
}
