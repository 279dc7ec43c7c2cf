//! LaunchMON mode: the one way a tool in this crate stands a TBON up over
//! a running job (§5.2).
//!
//! Leaves are the tool's BE daemons, co-located with the job through
//! `attach_and_spawn`; communication daemons are MW daemons launched onto
//! separately allocated nodes through `launch_mw_daemons` (§3.4); the
//! "MRNet communication tree information" reaches the daemons as
//! piggybacked LMONP user data instead of a command line or a shared file.
//! (Thread mode — daemons on plain OS threads — is
//! [`lmon_tbon::overlay::Overlay::run`].)
//!
//! [`with_attached_overlay`] owns the whole session around the tool's wave
//! code: endpoint slots, take-by-rank, hello, the leaf serve loop, the
//! connect wait, and a teardown that runs on every exit path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use lmon_cluster::process::Pid;
use lmon_core::be::{BeMain, BeSession};
use lmon_core::fe::LmonFrontEnd;
use lmon_core::mw::MwMain;
use lmon_core::{LmonError, LmonResult, SessionId};
use lmon_proto::payload::DaemonSpec;
use lmon_tbon::filter::FilterRegistry;
use lmon_tbon::overlay::{CommFault, CommHarness, FrontEndpoint, LeafEndpoint, Overlay};
use lmon_tbon::spec::TopologySpec;
use lmon_tbon::Packet;

/// How long the front end waits for every leaf's hello.
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

/// What to stand up.
pub(crate) struct OverlaySetup {
    /// Tree shape: one leaf per job node, in RPDTAB host order.
    pub spec: TopologySpec,
    /// The tool's stream filters.
    pub registry: FilterRegistry,
    /// Executable name of the BE (leaf) daemons.
    pub leaf_daemon: &'static str,
    /// Executable name of the MW (comm) daemons.
    pub comm_daemon: &'static str,
    /// Comm-daemon fault schedules, indexed like `Overlay::comm` (= MW
    /// daemon rank order).
    pub comm_faults: Vec<(usize, CommFault)>,
    /// Bound on the connect wait ([`CONNECT_TIMEOUT`] outside tests).
    pub connect_timeout: Duration,
}

/// Builds one BE daemon's answer to a data packet from its BE session
/// (RPDTAB slice, local `/proc`): called once per daemon, after its hello.
pub(crate) type Answers =
    Arc<dyn Fn(&BeSession) -> Box<dyn FnMut(&Packet) -> Vec<u8>> + Send + Sync + 'static>;

/// Attach `session` to the job behind `launcher_pid`, stand the overlay
/// up, run `body` on the connected front endpoint (it also gets the time
/// `attach_and_spawn` took), and tear everything down again — overlay
/// shut down, session detached — whether `body`, the connect wait or any
/// launch step failed. The first error wins.
pub(crate) fn with_attached_overlay<T>(
    fe: &LmonFrontEnd,
    session: SessionId,
    launcher_pid: Pid,
    setup: OverlaySetup,
    answers: Answers,
    body: impl FnOnce(&mut FrontEndpoint, Duration) -> LmonResult<T>,
) -> LmonResult<T> {
    let Overlay { mut front, comm, leaves } = Overlay::build(&setup.spec, setup.registry.clone());
    let result = bring_up(fe, session, launcher_pid, &setup, leaves, comm, answers).and_then(
        |attach_time| {
            front
                .await_connections(setup.spec.leaf_count(), setup.connect_timeout)
                .map_err(|e| LmonError::Engine(format!("overlay connect: {e}")))?;
            body(&mut front, attach_time)
        },
    );

    // Without this every BE stays parked in its serve loop and the session
    // stays attached (MW allocation included) for the front end's lifetime.
    front.shutdown();
    let detached = fe.detach(session);
    let value = result?;
    detached?;
    Ok(value)
}

/// Launch the BE daemons (leaves) and, when the tree has interior levels,
/// the MW daemons (comm nodes). Returns how long `attach_and_spawn` took.
fn bring_up(
    fe: &LmonFrontEnd,
    session: SessionId,
    launcher_pid: Pid,
    setup: &OverlaySetup,
    leaves: Vec<LeafEndpoint>,
    comm: Vec<CommHarness>,
    answers: Answers,
) -> LmonResult<Duration> {
    let t0 = Instant::now();
    // Daemons claim their endpoint by rank, once.
    let leaf_slots: Vec<_> = leaves.into_iter().map(|l| Mutex::new(Some(l))).collect();
    let comm_slots: Vec<_> = comm.into_iter().map(|h| Mutex::new(Some(h))).collect();
    // The piggybacked tree information: the topology spec string.
    let spec_string = setup.spec.to_spec_string();
    fe.register_pack(session, Box::new(move || spec_string.clone().into_bytes()))?;

    // Our leaf index is our BE rank (allocation order == RPDTAB host order
    // == leaf order); the endpoint slot stands in for the TCP connect the
    // broadcast tree info would drive in the real system.
    let be_main: BeMain = Arc::new(move |be| {
        let leaf = leaf_slots[be.rank() as usize].lock().take();
        if let Some(leaf) = leaf {
            leaf.serve(|| answers(be));
        }
    });
    fe.attach_and_spawn(session, launcher_pid, DaemonSpec::bare(setup.leaf_daemon), be_main)?;
    let attach_time = t0.elapsed();

    let comm_count = comm_slots.len();
    if comm_count > 0 {
        let faults = setup.comm_faults.clone();
        let mw_main: MwMain = Arc::new(move |mw| {
            let rank = mw.rank() as usize;
            let harness = comm_slots[rank].lock().take();
            if let Some(harness) = harness {
                harness.run(CommFault::at(&faults, rank));
            }
        });
        fe.launch_mw_daemons(
            session,
            comm_count,
            setup.spec.base_fanout(0) as u32,
            DaemonSpec::bare(setup.comm_daemon),
            mw_main,
        )?;
    }
    Ok(attach_time)
}
