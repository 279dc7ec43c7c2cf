//! # lmon-rm — resource managers and the APAI
//!
//! "On such systems, operating system services and the resource manager
//! (RM) play a critical role in the launching of daemons" (§1). This crate
//! provides the RM layer of the virtual cluster:
//!
//! * [`api::ResourceManager`] — the uniform surface LaunchMON's engine
//!   programs against: launch a job (optionally under tool control), bulk
//!   co-location launch of daemons into a job's footprint, middleware
//!   allocation + launch, job control.
//! * [`mpir`] — the Automatic Process Acquisition Interface. Launchers
//!   export `MPIR_proctable` (the RPDTAB) and friends in their address
//!   space and stop at `MPIR_Breakpoint`; debuggers (and the LaunchMON
//!   engine) fetch it with trace-controller memory reads.
//! * [`slurm::SlurmRm`] — a SLURM-like RM: scalable bulk launch, daemon
//!   co-location into existing allocations (`srun --jobid`), O(1) debug
//!   events regardless of scale (the paper notes this property "arose due
//!   to our interactions with SLURM developers").
//! * [`bluegene::BlueGeneRm`] — an `mpirun`-style RM with the same
//!   functional surface but the cost profile the paper observed on BG/L:
//!   "the time for spawning the job tasks and tool daemons ... were
//!   significantly higher", and (as an ablation of badly-designed RMs) a
//!   per-task debug-event mode.
//! * [`rsh::RshLauncher`] — the ad hoc baseline: sequential (or manually
//!   tree-structured) remote-access launching with no RM integration, the
//!   mechanism Figure 6's "MRNet 1-deep" curve measures.
//! * [`allocator::NodeAllocator`] — tracks node ownership so tools can
//!   obtain "additional node allocations" for TBON daemons (§2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod api;
pub mod bluegene;
pub mod mpir;
pub mod rsh;
pub mod slurm;

pub use allocator::NodeAllocator;
pub use api::{Allocation, DaemonBody, JobHandle, JobSpec, ResourceManager, RmError, RmResult};
pub use bluegene::BlueGeneRm;
pub use rsh::RshLauncher;
pub use slurm::SlurmRm;
