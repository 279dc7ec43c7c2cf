//! # lmon-iccl — the Internal Collective Communication Layer
//!
//! §3.3 of the paper: "we need basic collective communications for back-end
//! daemons to propagate and to gather launch and setup information. ... We
//! leverage native communication subsystems that the RM sets up if
//! possible; our layered approach encapsulates interactions with native
//! communication subsystems in the Internal Collective Communication Layer
//! (ICCL). ICCL maps native interfaces to our back-end collective calls;
//! hence it is the only layer with significant platform dependencies."
//!
//! And, deliberately minimal: "we only support simple barriers, broadcasts,
//! gathers and scatters" — tools needing more are expected to bring a TBON
//! like MRNet (which `lmon-tbon` provides).
//!
//! Structure:
//!
//! * [`fabric::ChannelFabric`] — the point-to-point substrate ICCL maps
//!   onto, handed to daemons by the RM layer (standing in for PMI/srun's
//!   fabric). The RM builds it as a tree: each endpoint reaches only its
//!   schedule's parent and children, the only ranks a collective talks to.
//! * [`topology::Topology`] — flat (1-to-N), binomial, or k-ary tree
//!   schedules. The topology choice is a measured ablation in the bench
//!   suite: flat gathers are linear at the master, trees are logarithmic.
//! * [`ops::IcclComm`] — the four collectives, SPMD-style: every daemon in
//!   the session calls the same operation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fabric;
pub mod ops;
pub mod topology;

pub use error::{IcclError, IcclResult};
pub use fabric::ChannelFabric;
pub use ops::IcclComm;
pub use topology::Topology;
