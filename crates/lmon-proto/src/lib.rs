//! # lmon-proto — the LMONP protocol
//!
//! LMONP is the compact application-layer protocol that connects the four
//! LaunchMON components (engine, front end, back ends, middleware) in
//! *Overcoming Scalability Challenges for Tool Daemon Launching*
//! (Ahn et al., ICPP 2008), §3.5.
//!
//! The paper specifies:
//!
//! * a **16-byte header** with a message tag, payload attributes and a
//!   three-bit `msg_class` field encoding the communication *pair*
//!   (front end ↔ engine, front end ↔ back end, front end ↔ middleware,
//!   with the remaining encodings reserved, e.g. for middleware ↔
//!   middleware bridges);
//! * **two variably sized payload sections**: one for LaunchMON's own data
//!   (proctable, daemon specifications, personalities, ...) and one for
//!   *piggybacked user data*, so that a client tool's bootstrap data rides
//!   along with LaunchMON's handshake exchanges instead of paying extra
//!   round trips.
//!
//! This crate owns the wire format ([`header`], [`wire`], [`frame`]), the
//! typed message bodies ([`msg`], [`payload`]), the process-descriptor table
//! that LaunchMON ships around ([`rpdtab`]), a small connection-time
//! authentication cookie ([`security`]), and the channel abstraction used by
//! every other crate to move LMONP messages in-process or over real TCP
//! sockets ([`transport`]).
//!
//! ## Example
//!
//! ```
//! use lmon_proto::header::{MsgClass, MsgType};
//! use lmon_proto::msg::LmonpMsg;
//! use lmon_proto::frame::{FrameReader, WireFrame};
//!
//! let msg = LmonpMsg::new(MsgClass::FeToBe, MsgType::BeReady)
//!     .with_lmon_payload(b"hello".to_vec())
//!     .with_usr_payload(b"tool-data".to_vec());
//! let bytes = WireFrame::Msg(msg.clone()).encode_to_vec();
//! let mut reader = FrameReader::new();
//! reader.extend(&bytes);
//! let back = reader.next_msg().unwrap().expect("one whole message");
//! assert_eq!(msg, back);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod frame;
pub mod header;
pub mod msg;
pub mod mux;
pub mod payload;
pub mod rpdtab;
pub mod security;
pub mod transport;
pub mod wire;

pub use bytes::Bytes;
pub use error::ProtoError;
pub use fault::{FaultyChannel, FrameFate, FrameFaultPlan};
pub use frame::{MuxBatch, MuxEntry, WireFrame};
pub use header::{LmonpHeader, MsgClass, MsgType, HEADER_LEN};
pub use msg::LmonpMsg;
pub use mux::{MuxEndpoint, SessionMux};
pub use rpdtab::{ProcDesc, Rpdtab};
pub use transport::{LocalChannel, MsgChannel, TcpChannel};
