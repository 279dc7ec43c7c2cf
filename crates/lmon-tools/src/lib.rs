//! # lmon-tools — the paper's three case studies (§5)
//!
//! * [`jobsnap`] — "Fast, Scalable Tool Creation": a new tool that gathers
//!   each MPI task's `/proc` state (personality, process state, memory
//!   statistics, simple performance metrics) and prints one line per task.
//!   Built exactly along Figure 4's call flow; the paper highlights that
//!   LaunchMON let it be written in ~100 lines of front-end and ~500 lines
//!   of back-end code.
//! * [`stat`] — the Stack Trace Analysis Tool: stack sampling daemons whose
//!   traces merge into a call-graph prefix tree identifying process
//!   equivalence classes. Supports both startup paths of Figure 6 — the
//!   native MRNet rsh bootstrap and the LaunchMON integration that
//!   "identifies all application tasks using the RM's RPDTAB, launches
//!   STAT's stack sampling daemons co-located with the application tasks"
//!   and "uses LMONP to broadcast MRNet communication tree information".
//! * [`jobsnap_tbon`] — the paper's §5.1 future work, implemented: Jobsnap
//!   collection over an MRNet-style tree whose internal nodes (launched
//!   through the MW API onto separately allocated nodes) merge-sort the
//!   report, distributing the work the flat gather centralizes.
//!
//!   Both TBON tools (STAT's LaunchMON path and `jobsnap_tbon`) stand their
//!   overlay up through one private helper, `launchmon_overlay`: BE daemons
//!   as leaves, MW daemons as comm nodes, tree information piggybacked on
//!   LMONP, overlay shutdown + detach on every exit path.
//! * [`dpcl`] — the Dynamic Probe Class Library substrate O|SS builds on:
//!   persistent root "super daemons", full binary parsing, instrumentation
//!   points. Exists to reproduce Table 1's contrast.
//! * [`oss`] — Open|SpeedShop's Instrumentor swap: the DPCL APAI-access
//!   path (parse the RM launcher like any target: ~constant, huge) versus
//!   the LaunchMON path (engine fetch: ~constant, tiny).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dpcl;
pub mod jobsnap;
pub mod jobsnap_tbon;
mod launchmon_overlay;
pub mod oss;
pub mod stat;
