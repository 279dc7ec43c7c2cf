//! The MPIR / Automatic Process Acquisition Interface (APAI).
//!
//! "Most RMs also provide a native Automatic Process Acquisition Interface
//! (APAI) that debuggers use to acquire the necessary information about the
//! parallel target application. APAI provides access to a Remote Process
//! Descriptor Table (RPDTAB) that includes the host name, the executable
//! name and the process ID of each MPI task" (§2).
//!
//! The protocol, exactly as the de facto MPIR standard works:
//!
//! 1. the launcher fills `MPIR_proctable` / `MPIR_proctable_size` in its
//!    own address space once all tasks are spawned;
//! 2. if `MPIR_being_debugged` was set by a tracer, the launcher calls
//!    `MPIR_Breakpoint()` — where the tracer has planted a breakpoint —
//!    and stops;
//! 3. the tracer reads the proctable out of the launcher's memory, spawns
//!    its daemons, and continues the launcher.
//!
//! Writers are launcher processes ([`publish_proctable`] via their
//! [`ProcCtx`]); readers are trace controllers ([`fetch_proctable`]).

use lmon_cluster::process::ProcCtx;
use lmon_cluster::trace::TraceController;
use lmon_proto::rpdtab::{CheckedRpdtab, Rpdtab};

/// Symbol: serialized RPDTAB.
pub const MPIR_PROCTABLE: &str = "MPIR_proctable";
/// Symbol: entry count of the proctable (u32, big-endian).
pub const MPIR_PROCTABLE_SIZE: &str = "MPIR_proctable_size";
/// Symbol: nonzero when a tool is attached (u8).
pub const MPIR_BEING_DEBUGGED: &str = "MPIR_being_debugged";
/// Symbol: launcher state (u8, one of the `MPIR_DEBUG_*` constants).
pub const MPIR_DEBUG_STATE: &str = "MPIR_debug_state";
/// Breakpoint symbol launchers stop at once the proctable is valid.
pub const MPIR_BREAKPOINT: &str = "MPIR_Breakpoint";

/// `MPIR_debug_state`: nothing interesting yet.
pub const MPIR_NULL: u8 = 0;
/// `MPIR_debug_state`: all tasks spawned; proctable valid.
pub const MPIR_DEBUG_SPAWNED: u8 = 1;
/// `MPIR_debug_state`: the job is aborting.
pub const MPIR_DEBUG_ABORTING: u8 = 2;

/// Launcher side: export the encoded proctable of `ntasks` rows and the
/// state, then hit the breakpoint (which stops the launcher only if a
/// tracer armed it).
pub fn publish_proctable(ctx: &ProcCtx, table: Vec<u8>, ntasks: usize) {
    ctx.export_symbol(MPIR_PROCTABLE, table);
    ctx.export_symbol(MPIR_PROCTABLE_SIZE, (ntasks as u32).to_be_bytes().to_vec());
    ctx.export_symbol(MPIR_DEBUG_STATE, vec![MPIR_DEBUG_SPAWNED]);
    ctx.checkpoint(MPIR_BREAKPOINT);
}

/// Tracer side: mark the launcher as being debugged (done at attach time,
/// before the launcher reaches the publish step).
pub fn set_being_debugged(ctl: &TraceController, shared: &lmon_cluster::process::ProcShared) {
    // Writing tracee memory goes through the same symbol table.
    shared.trace.export_symbol(MPIR_BEING_DEBUGGED, vec![1]);
    ctl.set_breakpoint(MPIR_BREAKPOINT);
}

/// Tracer side: read `MPIR_debug_state` from the launcher.
pub fn read_debug_state(ctl: &TraceController) -> Option<u8> {
    ctl.read_symbol(MPIR_DEBUG_STATE).ok().and_then(|v| v.first().copied())
}

/// Tracer side: fetch the RPDTAB from launcher memory, checked.
///
/// Reads `MPIR_proctable_size` first, then the table — two reads, exactly
/// like a debugger walking the real MPIR interface. Word-read accounting
/// accumulates on the controller (Region B of the §4 model). The table is
/// walked once with every check a decode makes, and its row count must
/// match the size symbol; what comes back is the launcher's own encoding,
/// checked, for callers to forward as is or decode.
pub fn fetch_proctable(ctl: &TraceController) -> Result<CheckedRpdtab, String> {
    let size_bytes =
        ctl.read_symbol(MPIR_PROCTABLE_SIZE).map_err(|e| format!("proctable size: {e}"))?;
    let claimed = u32::from_be_bytes(
        size_bytes.as_slice().try_into().map_err(|_| "bad proctable size".to_string())?,
    );
    let bytes = ctl.read_symbol(MPIR_PROCTABLE).map_err(|e| format!("proctable: {e}"))?;
    let table = Rpdtab::check_bytes(bytes.into()).map_err(|e| format!("proctable decode: {e}"))?;
    if table.len() as u32 != claimed {
        return Err(format!(
            "proctable inconsistent: size symbol says {claimed}, table has {}",
            table.len()
        ));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmon_cluster::config::ClusterConfig;
    use lmon_cluster::node::NodeId;
    use lmon_cluster::process::{Pid, ProcSpec, ProcState};
    use lmon_cluster::trace::TraceEvent;
    use lmon_cluster::VirtualCluster;
    use lmon_proto::rpdtab::synthetic_rpdtab;
    use lmon_proto::wire::WireEncode;
    use std::time::Duration;

    #[test]
    fn full_mpir_handshake_between_launcher_and_tracer() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(2));
        let table = synthetic_rpdtab(2, 4, "app");
        let expected = table.clone();
        let (attach_tx, attach_rx) = std::sync::mpsc::channel();

        let launcher_pid = cluster
            .spawn_active(NodeId::FrontEnd, ProcSpec::named("srun"), move |ctx| {
                // Wait for the tracer to attach before publishing, the same
                // way launch_job's gate sequences things.
                attach_rx.recv().unwrap();
                publish_proctable(&ctx, table.to_bytes(), table.len());
            })
            .unwrap();

        let (_node, rec) = cluster.find_proc(launcher_pid).unwrap();
        let ctl = TraceController::attach(launcher_pid, rec.shared.clone()).unwrap();
        set_being_debugged(&ctl, &rec.shared);
        attach_tx.send(()).unwrap();

        let ev = ctl.wait_event(Duration::from_secs(5)).unwrap();
        assert_eq!(ev, TraceEvent::Stopped { symbol: MPIR_BREAKPOINT.into() });
        assert_eq!(read_debug_state(&ctl), Some(MPIR_DEBUG_SPAWNED));

        let fetched = fetch_proctable(&ctl).unwrap();
        assert_eq!(fetched.bytes(), &expected.to_bytes(), "the launcher's own encoding, unchanged");
        assert_eq!(*fetched, expected);
        assert!(ctl.words_read() > 0, "fetch must charge word reads");

        ctl.continue_proc();
        cluster.wait_pid(launcher_pid).unwrap();
        cluster.join_thread(launcher_pid).unwrap();
    }

    #[test]
    fn fetch_detects_inconsistent_size() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1));
        let pid = cluster
            .spawn_active(NodeId::FrontEnd, ProcSpec::named("srun"), |ctx| {
                ctx.export_symbol(MPIR_PROCTABLE, synthetic_rpdtab(1, 2, "a").to_bytes());
                ctx.export_symbol(MPIR_PROCTABLE_SIZE, 99u32.to_be_bytes().to_vec());
            })
            .unwrap();
        cluster.wait_pid(pid).unwrap();
        let (_n, rec) = cluster.find_proc(pid).unwrap();
        let ctl = TraceController::attach(pid, rec.shared.clone()).unwrap();
        let err = fetch_proctable(&ctl).unwrap_err();
        assert!(err.contains("inconsistent"), "{err}");
        cluster.join_thread(pid).unwrap();
    }

    #[test]
    fn fetch_fails_cleanly_without_symbols() {
        let cluster = VirtualCluster::new(ClusterConfig::with_nodes(1));
        let spec = ProcSpec::named("notalauncher");
        let pid = cluster.spawn_active(NodeId::Compute(0), spec, |ctx| ctx.linger()).unwrap();
        let (_n, rec) = cluster.find_proc(pid).unwrap();
        let ctl = TraceController::attach(Pid(pid.0), rec.shared.clone()).unwrap();
        assert!(fetch_proctable(&ctl).is_err());
        assert!(read_debug_state(&ctl).is_none());
        cluster.join_thread(pid).unwrap();
        assert_eq!(rec.shared.state(), ProcState::Running, "a lingering body stays running");
        assert!(ctl.poll_event().is_none(), "and raises no exit");
    }
}
