//! # lmon-model — the §4 performance model and paper-scale scenarios
//!
//! The paper evaluates LaunchMON two ways: an *analytic model* of the
//! `launchAndSpawn` critical path (events e0..e11, regions A/B/C) and
//! *measurements* on Atlas. This crate reproduces both sides:
//!
//! * [`params::CostParams`] — the calibration constants. Scale-independent
//!   values come straight from the paper (18 ms tracing, 12 ms fixed
//!   overhead); scale-dependent ones are fitted so the model passes
//!   through the handful of absolute numbers the paper reports (see
//!   DESIGN.md §6 for the derivations).
//! * [`predict`] — closed-form predictions: the Figure 3 breakdown,
//!   Figure 5 Jobsnap times, Figure 6 STAT startup times, Table 1 APAI
//!   access times.
//! * [`scenario`] — schedule-level discrete-event simulations built on
//!   `lmon-sim`. These re-derive the same quantities from *micro* costs
//!   (per-message fabric exchanges, per-word tracee reads, tree-spawn
//!   hops, serialized rsh forks, fd-table limits) and real LMONP payload
//!   sizes from `lmon-proto` — so "model vs measured" comparisons are
//!   between two genuinely independent computations, exactly like the
//!   paper's Figure 3.
//! * [`fit`] — least-squares fitting used the way §4 describes:
//!   "We measured other costs at small scales and then fit models for
//!   them"; the benches fit small-scale simulated measurements and
//!   extrapolate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod params;
pub mod predict;
pub mod scenario;

pub use params::CostParams;
pub use predict::LaunchBreakdownModel;
