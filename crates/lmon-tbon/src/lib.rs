//! # lmon-tbon — a Tree-Based Overlay Network (TBON), MRNet-style
//!
//! §2 of the paper: "large scale tools increasingly rely on hierarchical
//! infrastructures, such as Tree-Based Overlay Networks (TBONs) like MRNet,
//! that use additional communication daemons. These additional daemons
//! require separately allocated nodes, and must be launched onto them.
//! Current infrastructures manually allocate these nodes and then rely on
//! an ad hoc launching mechanism."
//!
//! This crate is that infrastructure, built for the STAT case study (§5.2)
//! and the Figure 6 comparison:
//!
//! * [`spec::TopologySpec`] — MRNet-style level specs (`"1x4x16"`): a
//!   front-end root, optional internal communication-daemon levels, and a
//!   leaf level attached to tool daemons.
//! * [`packet::Packet`] + [`filter`] — streams carry tagged packets;
//!   internal nodes aggregate child packets with a per-stream filter
//!   (concatenate, sum, custom tool merges such as STAT's prefix-tree
//!   fold).
//! * [`overlay`] — the channel fabric and the one way to stand an overlay
//!   up on plain threads: [`Overlay::run`] consumes a built overlay, takes
//!   a per-comm-index [`CommFault`] source and a leaf body (normally
//!   [`LeafEndpoint::serve`], the one leaf serve loop) and returns a
//!   [`RunningOverlay`] whose `shutdown()` joins every thread. One file
//!   per plane: `overlay/mod.rs` (build, run, faults), `leaf.rs`
//!   ([`LeafEndpoint`]), `comm.rs` ([`overlay::CommHarness::run`], the
//!   comm-daemon loop), `front.rs` ([`FrontEndpoint`]: data, failure
//!   detection, repair) and `maintenance.rs` ([`Maintenance`]: drain,
//!   upgrade, suspicion).
//! * [`recovery`] — the self-healing layer (DESIGN.md §9): parent-side
//!   failure detection (deterministic link-close notices + a heartbeat
//!   sweep), grandparent adoption of orphaned subtrees with fan-out-bounded
//!   splitting across siblings, and epoch-stamped route repair so stale
//!   in-flight packets are counted and dropped rather than mis-routed.
//! * [`suspicion`] — background phi-accrual failure suspicion (DESIGN.md
//!   §12): comm daemons stream heartbeats over a dedicated channel and a
//!   per-overlay monitor grades each child Alive → Suspect → Dead instead
//!   of the binary caller-driven sweep, feeding the same repair path.
//! * [`bootstrap`] — the two instantiation paths Figure 6 measures:
//!   [`bootstrap::bootstrap_adhoc`] launches every daemon with sequential
//!   rsh from the front end (MRNet 1.x behaviour: linear cost, fd
//!   exhaustion at ≈504 live sessions), while LaunchMON-based instantiation
//!   hands leaves/comm daemons endpoints distributed through the MW/BE
//!   APIs (wired up once, in `lmon-tools`' `launchmon_overlay` module).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod error;
pub mod filter;
pub mod overlay;
pub mod packet;
pub mod recovery;
pub mod spec;
pub mod suspicion;

pub use error::{TbonError, TbonResult};
pub use filter::FilterKind;
pub use overlay::{
    CommFault, FrontEndpoint, LeafEndpoint, Maintenance, Overlay, RunningOverlay, UpgradeReport,
    UpgradeStep,
};
pub use packet::Packet;
pub use recovery::{OverlayStatsSnapshot, RecoveryEvent, RepairReport, RouteTable};
pub use spec::TopologySpec;
pub use suspicion::{PhiAccrualParams, SuspicionLevel, SuspicionTable};
