//! The LMONP message envelope: header + LaunchMON payload + user payload.

use bytes::Bytes;

use crate::header::{LmonpHeader, MsgClass, MsgType, FLAG_ERROR, FLAG_USR_PAYLOAD};
use crate::wire::{WireDecode, WireEncode};

/// A complete LMONP message.
///
/// The two payload sections mirror the paper: `lmon` carries LaunchMON's own
/// bootstrap/control data while `usr` carries piggybacked tool data packed
/// by the client's registered pack callback. Bundling both in one message is
/// what lets a tool bootstrap its own infrastructure without extra round
/// trips during startup (§3.2, §3.5).
///
/// Payload sections are [`Bytes`] views: cloning a message (or moving it
/// across a link) bumps a refcount instead of copying payload bytes, and
/// the borrowing decoder hands out slices of its input buffer directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LmonpMsg {
    /// Communication-pair class.
    pub class: MsgClass,
    /// Message type within the class.
    pub mtype: MsgType,
    /// Correlation tag.
    pub tag: u16,
    /// Security epoch stamped by the sender.
    pub sec_epoch: u16,
    /// Whether the error flag is set.
    pub error: bool,
    /// LaunchMON payload section.
    pub lmon: Bytes,
    /// Piggybacked user payload section.
    pub usr: Bytes,
}

impl LmonpMsg {
    /// A payload-less message of the given class and type.
    pub fn new(class: MsgClass, mtype: MsgType) -> Self {
        LmonpMsg {
            class,
            mtype,
            tag: 0,
            sec_epoch: 0,
            error: false,
            lmon: Bytes::new(),
            usr: Bytes::new(),
        }
    }

    /// A message whose class is derived from the type's natural pair.
    pub fn of_type(mtype: MsgType) -> Self {
        LmonpMsg::new(mtype.natural_class(), mtype)
    }

    /// Attach a LaunchMON payload (builder style).
    pub fn with_lmon_payload(mut self, lmon: impl Into<Bytes>) -> Self {
        self.lmon = lmon.into();
        self
    }

    /// Attach an encodable LaunchMON payload (builder style).
    ///
    /// This serializes `body` into a fresh buffer: repeated sends of the
    /// same payload should reuse an already-encoded [`Bytes`] view via
    /// [`LmonpMsg::with_lmon_payload`] instead (the launch handshake
    /// forwards the engine-encoded RPDTAB this way).
    pub fn with_lmon(mut self, body: &impl WireEncode) -> Self {
        self.lmon = body.to_bytes().into();
        self
    }

    /// Attach a piggybacked user payload (builder style).
    pub fn with_usr_payload(mut self, usr: impl Into<Bytes>) -> Self {
        self.usr = usr.into();
        self
    }

    /// Set the correlation tag (builder style).
    pub fn with_tag(mut self, tag: u16) -> Self {
        self.tag = tag;
        self
    }

    /// Set the security epoch (builder style).
    pub fn with_epoch(mut self, epoch: u16) -> Self {
        self.sec_epoch = epoch;
        self
    }

    /// Mark the message as an error report (builder style).
    pub fn as_error(mut self) -> Self {
        self.error = true;
        self
    }

    /// Decode the LaunchMON payload section as a typed body.
    pub fn decode_lmon<T: WireDecode>(&self) -> crate::error::ProtoResult<T> {
        T::from_bytes(&self.lmon)
    }

    /// The header that describes this message on the wire.
    pub fn header(&self) -> LmonpHeader {
        let mut flags = 0u16;
        if !self.usr.is_empty() {
            flags |= FLAG_USR_PAYLOAD;
        }
        if self.error {
            flags |= FLAG_ERROR;
        }
        LmonpHeader {
            class: self.class,
            mtype: self.mtype,
            tag: self.tag,
            flags,
            sec_epoch: self.sec_epoch,
            lmon_len: self.lmon.len() as u32,
            usr_len: self.usr.len() as u32,
        }
    }

    /// Total size of the message on the wire, in bytes.
    pub fn wire_len(&self) -> usize {
        self.header().total_len()
    }

    /// Reassemble a message from a decoded header and its payload views.
    pub fn from_parts(header: LmonpHeader, lmon: impl Into<Bytes>, usr: impl Into<Bytes>) -> Self {
        LmonpMsg {
            class: header.class,
            mtype: header.mtype,
            tag: header.tag,
            sec_epoch: header.sec_epoch,
            error: header.is_error(),
            lmon: lmon.into(),
            usr: usr.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{DaemonInfo, Hello};

    #[test]
    fn builder_sets_flags() {
        let m = LmonpMsg::of_type(MsgType::BeUsrData).with_usr_payload(vec![1, 2, 3]);
        assert_eq!(m.class, MsgClass::FeToBe);
        assert!(m.header().flags & FLAG_USR_PAYLOAD != 0);
        let e = LmonpMsg::of_type(MsgType::EngineError).as_error();
        assert!(e.header().is_error());
    }

    #[test]
    fn typed_payload_roundtrip_through_message() {
        let info = DaemonInfo { rank: 1, size: 4, host: "n1".into(), pid: 77 };
        let m = LmonpMsg::of_type(MsgType::BeLaunchInfo).with_lmon(&info);
        let back: DaemonInfo = m.decode_lmon().unwrap();
        assert_eq!(back, info);
    }

    #[test]
    fn wire_len_counts_header_and_payloads() {
        let hello = Hello { cookie: 1, epoch: 0, host: "h".into(), pid: 2 };
        let m = LmonpMsg::of_type(MsgType::BeHello).with_lmon(&hello).with_usr_payload(vec![0; 10]);
        assert_eq!(m.wire_len(), 16 + hello.to_bytes().len() + 10);
    }

    #[test]
    fn from_parts_inverts_header() {
        let m = LmonpMsg::of_type(MsgType::MwReady)
            .with_tag(9)
            .with_epoch(3)
            .with_lmon_payload(vec![5; 8]);
        let rebuilt = LmonpMsg::from_parts(m.header(), m.lmon.clone(), m.usr.clone());
        assert_eq!(m, rebuilt);
    }

    use crate::wire::WireEncode;
}
