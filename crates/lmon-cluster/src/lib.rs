//! # lmon-cluster — an in-process virtual HPC cluster
//!
//! The paper's experiments ran on Atlas, an 1,152-node Linux cluster. This
//! crate substitutes an in-process *virtual cluster* that preserves the
//! properties tool-daemon launching actually exercises:
//!
//! * **Nodes** ([`node`]) with per-node process tables and a node-local
//!   spawn service. *Active* processes run as real OS threads (tool
//!   daemons, RM launchers); MPI application tasks are one block per job
//!   per node with `/proc` statistics synthesized when read (they need to
//!   be observable, not to burn CPU).
//! * **`/proc`-style statistics** ([`procfs`]) per process: user/system
//!   time, major faults, virtual-memory high watermark, locked memory,
//!   thread count, program counter — everything Jobsnap reports (§5.1).
//! * **Remote access** ([`remote`]): an `rsh`/`ssh`-like service with
//!   connection-cost and file-descriptor accounting on the front end. Ad
//!   hoc launchers hold one session per remote daemon; the front end's fd
//!   table is finite, which is exactly why "at 512 compute nodes, the ad
//!   hoc approach consistently fails when forking an rsh process" (§5.2).
//! * **Trace control** ([`trace`]): a cooperative ptrace equivalent. A
//!   tracee exports named memory symbols and honours breakpoints; a tracer
//!   attaches, sets breakpoints, waits for events, and reads symbol memory
//!   word-by-word (reads are counted — the RPDTAB fetch cost of Region B).
//!
//! Everything is deterministic given fixed inputs; no wall-clock sleeps are
//! required for correctness (latency injection is opt-in, for measurement).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod error;
pub mod fanout;
pub mod node;
pub mod process;
pub mod procfs;
pub mod remote;
pub mod trace;

pub use cluster::{PidBlock, VirtualCluster};
pub use config::{ClusterConfig, RshConfig};
pub use error::ClusterError;
pub use fanout::{fanout, DEFAULT_LAUNCH_WORKERS};
pub use node::NodeId;
pub use process::{Pid, ProcCtx, ProcSpec, ProcState, TaskBlock};
pub use procfs::{ProcSnapshot, ProcStats};
pub use remote::{RshError, RshSession, RshTicket, SpawnFaultPlan};
pub use trace::{TraceController, TraceEvent};
