//! Error type for virtual-cluster operations.

use std::fmt;

use crate::node::NodeId;
use crate::process::Pid;

/// Errors raised by the virtual cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Referenced a node that does not exist.
    NoSuchNode(NodeId),
    /// Referenced a hostname that does not exist.
    NoSuchHost(String),
    /// Referenced a process that does not exist.
    NoSuchProcess(Pid),
    /// The process exists but is not in the state the operation requires.
    BadProcessState {
        /// The process in question.
        pid: Pid,
        /// What the operation needed.
        expected: &'static str,
    },
    /// A process is already being traced by another controller.
    AlreadyTraced(Pid),
    /// Attempted to read a symbol the tracee never exported.
    NoSuchSymbol {
        /// The traced process.
        pid: Pid,
        /// The missing symbol name.
        symbol: String,
    },
    /// Waited for a trace event longer than the allowed timeout.
    TraceTimeout(Pid),
    /// Process-table capacity exhausted on a node.
    ProcessTableFull(NodeId),
    /// A wave spawn was stopped before it placed this process.
    SpawnStopped,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoSuchNode(n) => write!(f, "no such node: {n:?}"),
            ClusterError::NoSuchHost(h) => write!(f, "no such host: {h}"),
            ClusterError::NoSuchProcess(p) => write!(f, "no such process: {p:?}"),
            ClusterError::BadProcessState { pid, expected } => {
                write!(f, "process {pid:?} not in required state: {expected}")
            }
            ClusterError::AlreadyTraced(p) => write!(f, "process {p:?} already traced"),
            ClusterError::NoSuchSymbol { pid, symbol } => {
                write!(f, "process {pid:?} exports no symbol `{symbol}`")
            }
            ClusterError::TraceTimeout(p) => {
                write!(f, "timed out waiting for trace event from {p:?}")
            }
            ClusterError::ProcessTableFull(n) => {
                write!(f, "process table full on node {n:?}")
            }
            ClusterError::SpawnStopped => write!(f, "spawn stopped before placing"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Result alias for cluster operations.
pub type ClusterResult<T> = Result<T, ClusterError>;
