//! Unified error type for LaunchMON operations.

use std::fmt;

use lmon_cluster::ClusterError;
use lmon_iccl::IcclError;
use lmon_proto::ProtoError;
use lmon_rm::RmError;

/// Errors surfaced by the LaunchMON APIs.
#[derive(Debug)]
pub enum LmonError {
    /// Protocol-level failure (encode/decode/transport/auth).
    Proto(ProtoError),
    /// Resource-manager failure.
    Rm(RmError),
    /// Virtual-cluster failure.
    Cluster(ClusterError),
    /// Collective-layer failure inside a daemon.
    Iccl(IcclError),
    /// Referenced an unknown session.
    NoSuchSession(u64),
    /// The session is not in the state the operation requires.
    BadSessionState {
        /// What the operation needed.
        expected: &'static str,
        /// What the session was in.
        actual: &'static str,
    },
    /// The engine reported a failure.
    Engine(String),
    /// The operation timed out.
    Timeout(&'static str),
    /// Handshake security check failed.
    AuthFailed,
}

impl fmt::Display for LmonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LmonError::Proto(e) => write!(f, "protocol: {e}"),
            LmonError::Rm(e) => write!(f, "resource manager: {e}"),
            LmonError::Cluster(e) => write!(f, "cluster: {e}"),
            LmonError::Iccl(e) => write!(f, "collective layer: {e}"),
            LmonError::NoSuchSession(id) => write!(f, "no such session: {id}"),
            LmonError::BadSessionState { expected, actual } => {
                write!(f, "session in state {actual}, needed {expected}")
            }
            LmonError::Engine(e) => write!(f, "engine: {e}"),
            LmonError::Timeout(what) => write!(f, "timed out: {what}"),
            LmonError::AuthFailed => write!(f, "LMONP security cookie rejected"),
        }
    }
}

impl std::error::Error for LmonError {}

impl From<ProtoError> for LmonError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::AuthFailed => LmonError::AuthFailed,
            other => LmonError::Proto(other),
        }
    }
}

impl From<RmError> for LmonError {
    fn from(e: RmError) -> Self {
        LmonError::Rm(e)
    }
}

impl From<ClusterError> for LmonError {
    fn from(e: ClusterError) -> Self {
        LmonError::Cluster(e)
    }
}

impl From<IcclError> for LmonError {
    fn from(e: IcclError) -> Self {
        LmonError::Iccl(e)
    }
}

/// Result alias for LaunchMON operations.
pub type LmonResult<T> = Result<T, LmonError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_detail() {
        let e: LmonError = ProtoError::AuthFailed.into();
        assert!(matches!(e, LmonError::AuthFailed));
        let e: LmonError = ProtoError::Disconnected.into();
        assert!(matches!(e, LmonError::Proto(ProtoError::Disconnected)));
        let e: LmonError = RmError::NoSuchJob(7).into();
        assert!(e.to_string().contains("no such job"));
    }

    #[test]
    fn display_mentions_state_names() {
        let e = LmonError::BadSessionState { expected: "Ready", actual: "Created" };
        let s = e.to_string();
        assert!(s.contains("Ready") && s.contains("Created"));
    }
}
