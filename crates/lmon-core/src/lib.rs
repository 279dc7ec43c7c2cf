//! # lmon-core — the LaunchMON infrastructure
//!
//! This crate is the paper's primary contribution (§3): a general-purpose,
//! distributed infrastructure for launching and controlling tool daemons,
//! decomposed exactly as Figure 1 shows:
//!
//! * **[`engine`]** — the LaunchMON Engine. Runs co-located with the RM
//!   launcher process, traces it through the cluster's trace controller in
//!   one loop that runs it to `MPIR_Breakpoint` (the paper's Driver → Event
//!   Manager → Event Decoder → Event Handler pipeline, collapsed to one
//!   `match`), fetches the RPDTAB there, and invokes the RM's efficient bulk
//!   daemon launch. Ported across RMs via
//!   [`lmon_rm::api::ResourceManager`], one implementation per RM.
//! * **[`fe`]** — the front-end API: sessions, `launchAndSpawnDaemons`,
//!   `attachAndSpawnDaemons`, middleware spawn, proctable access, user-data
//!   piggybacking via registered pack/unpack callbacks, detach/kill.
//! * **[`be`]** — the back-end API used inside tool daemons: handshake,
//!   `amIMaster`, local proctable slices, and the four ICCL collectives.
//! * **[`mw`]** — the middleware API for TBON daemons: personality handles,
//!   the RM fabric, and RPDTAB distribution.
//! * **[`daemon_session`]** — what [`be`] and [`mw`] share: one session
//!   type, of which `BeSession` and `MwSession` are the two instances, and
//!   one bootstrap both classes run.
//!
//! The three entry points (`launchAndSpawn`, `attachAndSpawn`,
//! `launchMwDaemons`) are one co-location mechanism with one implementation
//! per layer. In the [`engine`], launch and attach keep only how the stopped
//! job, its RPDTAB and its allocation are obtained, then share one tail
//! whose spawn core the middleware request also uses. Between front end and
//! master daemon, the private `handshake` module holds the four-message
//! LMONP bootstrap (hello + cookie → launch info + piggyback → RPDTAB →
//! ready) once, parameterised by the message types of the pair's
//! `msg_class`; [`fe`] and [`daemon_session`] are its callers, and [`be`]
//! and [`mw`] keep what really differs — what the launch info contains and
//! what a daemon makes of it, the timeline marks, the class-only calls.
//!
//! * **[`session`]** — session ids and lifecycle states binding FE calls to
//!   daemon groups (§3.2: "we use a session, an abstraction for a group of
//!   daemons associated with a job, to provide the binding method"); the
//!   descriptor table is [`fe`]'s one session map.
//! * **[`timeline`]** — critical-path instrumentation capturing the §4
//!   model's events e0..e11 on every launch, so real runs produce the same
//!   breakdown the paper's Figure 3 reports.
//! * **[`health`]** — the per-session degraded → healed status surface:
//!   overlay recovery (DESIGN.md §9) reports failure detection and repair
//!   completion here, so tools observe fabric health without knowing
//!   overlay internals.
//!
//! One honest deviation from the paper's deployment model is documented in
//! [`engine::channel`]: our virtual cluster has no `exec()`, so the "daemon
//! executable installed on compute nodes" is represented by a Rust closure
//! that rides next to the LMONP request in the same FE → engine command.
//! Commands and replies are `LmonpMsg` values on an in-process channel, so
//! no header is framed on that path; the RPDTAB reply carries the engine's
//! one encoding of the table, and the FE forwards those bytes to the
//! daemons unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod be;
pub mod daemon_session;
pub mod engine;
pub mod error;
pub mod fe;
mod handshake;
pub mod health;
pub mod mw;
pub mod session;
pub mod timeline;

pub use error::{LmonError, LmonResult};
pub use fe::{HealthSummary, LmonFrontEnd};
pub use health::{HealthMonitor, HealthState, HealthTransition, DEFAULT_HISTORY_CAP};
pub use session::{SessionId, SessionState};
pub use timeline::{CriticalEvent, LaunchBreakdown, TimelineRecorder};
