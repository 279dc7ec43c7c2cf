//! ICCL error type.

use std::fmt;

/// Errors from collective operations or the underlying fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcclError {
    /// Destination or source rank out of range.
    BadRank {
        /// The offending rank.
        rank: u32,
        /// Size of the communicator.
        size: u32,
    },
    /// The rank is in range but not a neighbour of this fabric endpoint.
    NotNeighbour(u32),
    /// A peer disconnected mid-collective.
    Disconnected,
    /// A scatter was given the wrong number of parts.
    BadScatterParts {
        /// Parts supplied.
        got: usize,
        /// Parts required (= communicator size).
        want: usize,
    },
    /// Payload framing was corrupt (internal error).
    Corrupt(&'static str),
    /// An operation that only the master may initiate was called elsewhere,
    /// or vice versa.
    RoleMismatch(&'static str),
}

impl fmt::Display for IcclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IcclError::BadRank { rank, size } => {
                write!(f, "rank {rank} out of range for communicator of size {size}")
            }
            IcclError::NotNeighbour(rank) => write!(f, "rank {rank} is not a fabric neighbour"),
            IcclError::Disconnected => write!(f, "fabric peer disconnected"),
            IcclError::BadScatterParts { got, want } => {
                write!(f, "scatter needs {want} parts, got {got}")
            }
            IcclError::Corrupt(what) => write!(f, "corrupt collective payload: {what}"),
            IcclError::RoleMismatch(what) => write!(f, "role mismatch: {what}"),
        }
    }
}

impl std::error::Error for IcclError {}

/// Result alias for ICCL operations.
pub type IcclResult<T> = Result<T, IcclError>;
