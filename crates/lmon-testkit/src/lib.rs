//! # lmon-testkit — deterministic fault injection and chaos scenarios
//!
//! The paper's pitch is that LaunchMON-style bulk launching survives the
//! failure modes that kill ad hoc rsh loops at scale (fd exhaustion at
//! ≈504 live sessions, serial timeouts). Reproducing that claim needs more
//! than happy paths: it needs *scheduled* failures that strike the same
//! protocol point on every run, so a chaos test is as reproducible as a
//! unit test.
//!
//! This crate is the single entry point to the fault hooks threaded
//! through the stack:
//!
//! * **sim kernel** — `lmon-sim` can kill or hang any actor at a chosen
//!   virtual time (`Sim::kill_at` / `Sim::hang_between`) and record a
//!   per-delivery event trace for bit-for-bit comparison;
//! * **cluster transport** — `lmon-cluster`'s remote-access service
//!   accepts a [`SpawnFaultPlan`] failing chosen rsh connection attempts;
//! * **LMONP transport** — `lmon-proto`'s [`FaultyChannel`] drops or
//!   delays chosen frames of any [`lmon_proto::transport::MsgChannel`];
//! * **TBON** — `lmon-tbon` comm daemons run under a [`CommFault`]
//!   schedule (crash mid-aggregation, severed child links), with the
//!   overlay's self-healing layer (detect → repair → re-broadcast,
//!   DESIGN.md §9) observable through [`LiveOverlay`]'s front endpoint.
//!   [`LiveOverlay`] only adapts a [`FaultPlan`] to `lmon-tbon`'s one
//!   thread-mode runner (`Overlay::run`).
//!
//! [`FaultPlan`] unifies those per-layer plans behind one builder, and
//! [`Scenario`] is the DSL the facade's `chaos_suite` uses:
//!
//! ```
//! use lmon_testkit::Scenario;
//! use lmon_sim::SimDuration;
//!
//! let report = Scenario::new("1x4x16")
//!     .seed(7)
//!     .kill_be_at(3, SimDuration::from_millis(1))
//!     .run();
//! assert!(report.timed_out);
//! // Same seed, same plan: bit-for-bit identical trace.
//! let again = Scenario::new("1x4x16")
//!     .seed(7)
//!     .kill_be_at(3, SimDuration::from_millis(1))
//!     .run();
//! assert_eq!(report.dump(), again.dump());
//! ```
//!
//! The launch model behind [`Scenario`] is [`launch_sim`]: an actor-based
//! FE → comm-daemon → BE bootstrap (spawn fan-out, hello aggregation,
//! RPDTAB distribution, ready aggregation) over `lmon-sim`, with a
//! serialized front-end NIC and seeded per-message jitter — small enough
//! to read, faithful enough that fd exhaustion's cousins (stragglers,
//! partitions, mid-distribution crashes) produce the paper's error
//! surfaces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod launch_sim;
pub mod live;
pub mod plan;
pub mod scenario;
pub mod storm;
pub mod trace;

pub use launch_sim::{LaunchParams, LaunchReport, LaunchSim};
pub use live::LiveOverlay;
pub use plan::{FaultPlan, SimFault, SimFaultKind, SimFaultTarget};
pub use scenario::Scenario;
pub use storm::{StormLaunch, StormPlan};
pub use trace::{artifact_dir, assert_identical_runs, chaos_seed, write_artifact};

// Re-export the per-layer fault surfaces so chaos tests need one import.
pub use lmon_cluster::remote::SpawnFaultPlan;
pub use lmon_proto::fault::{FaultyChannel, FrameFate, FrameFaultPlan};
pub use lmon_tbon::overlay::CommFault;
