//! Typed LaunchMON payload bodies carried in the LMONP "LaunchMON data"
//! section.
//!
//! Each struct here corresponds to one bootstrap or control exchange from
//! §3 of the paper: daemon launch requests, the daemon input parameters
//! distributed during the FE ↔ BE-master handshake, TBON personalities for
//! middleware daemons, and status notifications from the engine.

use bytes::{Buf, BufMut};

use crate::error::{ProtoError, ProtoResult};
use crate::wire::{get_str, get_u16, get_u32, get_u64, get_u8, put_str, WireDecode, WireEncode};

/// What a tool wants launched on each target node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonSpec {
    /// Path to the daemon executable image.
    pub exe: String,
    /// Command-line arguments handed to every daemon.
    pub args: Vec<String>,
    /// Environment assignments (`KEY=VALUE`) for every daemon.
    pub env: Vec<String>,
}

impl DaemonSpec {
    /// A spec with no arguments or environment.
    pub fn bare(exe: impl Into<String>) -> Self {
        DaemonSpec { exe: exe.into(), args: Vec::new(), env: Vec::new() }
    }
}

pub(crate) fn put_str_vec(buf: &mut impl BufMut, v: &[impl AsRef<str>]) {
    buf.put_u32(v.len() as u32);
    for s in v {
        put_str(buf, s.as_ref());
    }
}

pub(crate) fn get_str_vec(buf: &mut impl Buf) -> ProtoResult<Vec<String>> {
    let n = get_u32(buf)? as usize;
    if n > crate::wire::MAX_SEQ_LEN {
        return Err(ProtoError::PayloadTooLarge { len: n });
    }
    let mut v = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        v.push(get_str(buf)?);
    }
    Ok(v)
}

impl WireEncode for DaemonSpec {
    fn encode(&self, buf: &mut impl BufMut) {
        put_str(buf, &self.exe);
        put_str_vec(buf, &self.args);
        put_str_vec(buf, &self.env);
    }
}

impl WireDecode for DaemonSpec {
    fn decode(buf: &mut impl Buf) -> ProtoResult<Self> {
        Ok(DaemonSpec { exe: get_str(buf)?, args: get_str_vec(buf)?, env: get_str_vec(buf)? })
    }
}

/// FE → engine: request body for `launchAndSpawnDaemons`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchRequest {
    /// Application executable to launch under the RM.
    pub app_exe: String,
    /// Application arguments.
    pub app_args: Vec<String>,
    /// Number of nodes requested for the job.
    pub nodes: u32,
    /// MPI tasks per node.
    pub tasks_per_node: u32,
    /// The tool daemon to co-locate (one per node).
    pub daemon: DaemonSpec,
}

impl WireEncode for LaunchRequest {
    fn encode(&self, buf: &mut impl BufMut) {
        put_str(buf, &self.app_exe);
        put_str_vec(buf, &self.app_args);
        buf.put_u32(self.nodes);
        buf.put_u32(self.tasks_per_node);
        self.daemon.encode(buf);
    }
}

impl WireDecode for LaunchRequest {
    fn decode(buf: &mut impl Buf) -> ProtoResult<Self> {
        Ok(LaunchRequest {
            app_exe: get_str(buf)?,
            app_args: get_str_vec(buf)?,
            nodes: get_u32(buf)?,
            tasks_per_node: get_u32(buf)?,
            daemon: DaemonSpec::decode(buf)?,
        })
    }
}

/// FE → engine: request body for `attachAndSpawnDaemons`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttachRequest {
    /// PID of the RM launcher process controlling the target job.
    pub launcher_pid: u64,
    /// The tool daemon to co-locate (one per node).
    pub daemon: DaemonSpec,
}

impl WireEncode for AttachRequest {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64(self.launcher_pid);
        self.daemon.encode(buf);
    }
}

impl WireDecode for AttachRequest {
    fn decode(buf: &mut impl Buf) -> ProtoResult<Self> {
        Ok(AttachRequest { launcher_pid: get_u64(buf)?, daemon: DaemonSpec::decode(buf)? })
    }
}

/// FE → engine: request body for spawning middleware (TBON) daemons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpawnMwRequest {
    /// How many middleware daemons to launch.
    pub count: u32,
    /// The middleware daemon image.
    pub daemon: DaemonSpec,
}

impl WireEncode for SpawnMwRequest {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32(self.count);
        self.daemon.encode(buf);
    }
}

impl WireDecode for SpawnMwRequest {
    fn decode(buf: &mut impl Buf) -> ProtoResult<Self> {
        Ok(SpawnMwRequest { count: get_u32(buf)?, daemon: DaemonSpec::decode(buf)? })
    }
}

/// Daemon input parameters distributed during the FE ↔ master handshake.
///
/// The master back-end daemon receives one record per daemon (size linear in
/// the daemon count — the Region-C term of the §4 model) and scatters the
/// per-daemon slices over the ICCL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonInfo {
    /// ICCL rank of this daemon (master is rank 0).
    pub rank: u32,
    /// Total number of daemons in the session.
    pub size: u32,
    /// Hostname this daemon runs on.
    pub host: String,
    /// Node-local pid of the daemon process.
    pub pid: u64,
}

impl WireEncode for DaemonInfo {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32(self.rank);
        buf.put_u32(self.size);
        put_str(buf, &self.host);
        buf.put_u64(self.pid);
    }
}

impl WireDecode for DaemonInfo {
    fn decode(buf: &mut impl Buf) -> ProtoResult<Self> {
        Ok(DaemonInfo {
            rank: get_u32(buf)?,
            size: get_u32(buf)?,
            host: get_str(buf)?,
            pid: get_u64(buf)?,
        })
    }
}

/// A TBON *personality*: "the MW API assigns to each simultaneously launched
/// TBON daemon a unique personality handle that is similar to an MPI rank"
/// (§3.4), plus the parent link it needs to bootstrap its tree position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MwPersonality {
    /// Personality handle (dense rank among MW daemons).
    pub rank: u32,
    /// Total number of MW daemons launched together.
    pub size: u32,
    /// Hostname this MW daemon runs on.
    pub host: String,
    /// Rank of the parent in the tool's intended tree (`u32::MAX` = root).
    pub parent: u32,
    /// Fabric endpoint token used to open connections to this daemon.
    pub endpoint: u64,
}

impl MwPersonality {
    /// Sentinel parent value marking the tree root.
    pub const NO_PARENT: u32 = u32::MAX;

    /// Whether this personality is the TBON root.
    pub fn is_root(&self) -> bool {
        self.parent == Self::NO_PARENT
    }
}

impl WireEncode for MwPersonality {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u32(self.rank);
        buf.put_u32(self.size);
        put_str(buf, &self.host);
        buf.put_u32(self.parent);
        buf.put_u64(self.endpoint);
    }
}

impl WireDecode for MwPersonality {
    fn decode(buf: &mut impl Buf) -> ProtoResult<Self> {
        Ok(MwPersonality {
            rank: get_u32(buf)?,
            size: get_u32(buf)?,
            host: get_str(buf)?,
            parent: get_u32(buf)?,
            endpoint: get_u64(buf)?,
        })
    }
}

/// Engine → FE status notifications about the job or its daemons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum JobStatus {
    /// The RM has allocated nodes and is spawning the job.
    Spawning = 0,
    /// The job stopped at `MPIR_Breakpoint`; RPDTAB is available.
    AtBreakpoint = 1,
    /// The job is running under tool control.
    Running = 2,
    /// Tool daemons have all reported in.
    DaemonsReady = 3,
    /// The job exited.
    Exited = 4,
    /// The job or its daemons were killed.
    Killed = 5,
    /// The tool detached; job keeps running without daemons.
    Detached = 6,
}

impl WireEncode for JobStatus {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(*self as u8);
    }
}

impl WireDecode for JobStatus {
    fn decode(buf: &mut impl Buf) -> ProtoResult<Self> {
        Ok(match get_u8(buf)? {
            0 => JobStatus::Spawning,
            1 => JobStatus::AtBreakpoint,
            2 => JobStatus::Running,
            3 => JobStatus::DaemonsReady,
            4 => JobStatus::Exited,
            5 => JobStatus::Killed,
            6 => JobStatus::Detached,
            v => return Err(ProtoError::InvalidField { field: "job_status", value: v as u64 }),
        })
    }
}

/// Hello message body sent by a master daemon when it first connects:
/// carries the security cookie and the sender's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The shared-secret cookie issued at session creation.
    pub cookie: u64,
    /// Security epoch the sender will stamp into subsequent headers.
    pub epoch: u16,
    /// Hostname of the sender.
    pub host: String,
    /// Pid of the sender.
    pub pid: u64,
}

impl WireEncode for Hello {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64(self.cookie);
        buf.put_u16(self.epoch);
        put_str(buf, &self.host);
        buf.put_u64(self.pid);
    }
}

impl WireDecode for Hello {
    fn decode(buf: &mut impl Buf) -> ProtoResult<Self> {
        Ok(Hello {
            cookie: get_u64(buf)?,
            epoch: get_u16(buf)?,
            host: get_str(buf)?,
            pid: get_u64(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.encoded_len(), "encoded_len mismatch");
        let back = T::from_bytes(&bytes).unwrap();
        assert_eq!(*v, back);
    }

    #[test]
    fn daemon_spec_roundtrip() {
        roundtrip(&DaemonSpec::bare("/usr/bin/tooldaemon"));
        roundtrip(&DaemonSpec {
            exe: "statd".into(),
            args: vec!["--depth".into(), "3".into()],
            env: vec!["LMON_DEBUG=1".into()],
        });
    }

    #[test]
    fn launch_request_roundtrip() {
        roundtrip(&LaunchRequest {
            app_exe: "ring".into(),
            app_args: vec!["-n".into(), "100".into()],
            nodes: 128,
            tasks_per_node: 8,
            daemon: DaemonSpec::bare("jobsnapd"),
        });
    }

    #[test]
    fn attach_and_mw_requests_roundtrip() {
        roundtrip(&AttachRequest { launcher_pid: 4242, daemon: DaemonSpec::bare("d") });
        roundtrip(&SpawnMwRequest { count: 16, daemon: DaemonSpec::bare("mrnet_commnode") });
    }

    #[test]
    fn daemon_info_roundtrip() {
        roundtrip(&DaemonInfo { rank: 3, size: 128, host: "node00003".into(), pid: 999 });
    }

    #[test]
    fn personality_roundtrip_and_root() {
        let root = MwPersonality {
            rank: 0,
            size: 8,
            host: "comm0".into(),
            parent: MwPersonality::NO_PARENT,
            endpoint: 1,
        };
        roundtrip(&root);
        assert!(root.is_root());
        let child = MwPersonality { parent: 0, rank: 1, ..root.clone() };
        assert!(!child.is_root());
    }

    #[test]
    fn job_status_roundtrip_all_variants() {
        for s in [
            JobStatus::Spawning,
            JobStatus::AtBreakpoint,
            JobStatus::Running,
            JobStatus::DaemonsReady,
            JobStatus::Exited,
            JobStatus::Killed,
            JobStatus::Detached,
        ] {
            roundtrip(&s);
        }
        assert!(JobStatus::from_bytes(&[200]).is_err());
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(&Hello { cookie: 0xDEAD_BEEF_CAFE, epoch: 7, host: "fe0".into(), pid: 1 });
    }
}
