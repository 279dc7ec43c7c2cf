//! The fixed 16-byte LMONP message header.
//!
//! Per §3.5 of the paper, every LMONP message starts with a 16-byte header
//! carrying a message tag, payload attributes and a three-bit `msg_class`
//! that encodes the communication *pair*. The concrete layout used here:
//!
//! ```text
//!  byte 0        : version (LMONP_VERSION)
//!  byte 1        : bits 7..5 = msg_class (3 bits), bits 4..0 = msg_type (5 bits)
//!  bytes 2..=3   : u16 tag (request/stream correlation)
//!  bytes 4..=5   : u16 flags (bit 0: usr payload present; bit 1: error)
//!  bytes 6..=7   : u16 security epoch (rotates with the session cookie)
//!  bytes 8..=11  : u32 LaunchMON payload length
//!  bytes 12..=15 : u32 user (piggyback) payload length
//! ```
//!
//! Only three of the eight `msg_class` encodings are assigned, exactly as in
//! the paper; the rest are reserved for future pairs such as
//! middleware ↔ middleware bridging across resource allocations.

use bytes::{Buf, BufMut};

use crate::error::{ProtoError, ProtoResult};
use crate::wire::{get_u16, get_u32, get_u8, WireDecode, WireEncode};

/// Size of the fixed LMONP header in bytes.
pub const HEADER_LEN: usize = 16;

/// Current protocol version written into byte 0 of each header.
pub const LMONP_VERSION: u8 = 1;

/// Maximum size of either payload section (64 MiB).
///
/// The RPDTAB for a million-task job at ~64 B/entry is ≈ 61 MiB, so this cap
/// admits the paper's extreme-scale target in a single message while still
/// rejecting absurd lengths from corrupt headers.
pub const MAX_PAYLOAD_LEN: usize = 64 << 20;

/// Flag bit: the user (piggyback) payload section is present.
pub const FLAG_USR_PAYLOAD: u16 = 1 << 0;

/// Flag bit: this message reports an error condition.
pub const FLAG_ERROR: u16 = 1 << 1;

/// The three-bit communication-pair class from the paper (§3.5).
///
/// "Three of the eight possible pairs are currently used for (front end,
/// LaunchMON Engine), (front end, back end), and (front end, middleware)
/// connections."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgClass {
    /// Front end ↔ LaunchMON engine.
    FeToEngine = 0,
    /// Front end ↔ back-end master daemon.
    FeToBe = 1,
    /// Front end ↔ middleware master daemon.
    FeToMw = 2,
    /// Reserved: middleware ↔ middleware (multi-allocation bridging).
    MwToMw = 3,
}

impl MsgClass {
    /// All currently assigned classes.
    pub const ASSIGNED: [MsgClass; 4] =
        [MsgClass::FeToEngine, MsgClass::FeToBe, MsgClass::FeToMw, MsgClass::MwToMw];

    /// Decode a three-bit class value.
    pub fn from_bits(bits: u8) -> ProtoResult<Self> {
        match bits {
            0 => Ok(MsgClass::FeToEngine),
            1 => Ok(MsgClass::FeToBe),
            2 => Ok(MsgClass::FeToMw),
            3 => Ok(MsgClass::MwToMw),
            v => Err(ProtoError::InvalidField { field: "msg_class", value: v as u64 }),
        }
    }

    /// The raw three-bit encoding.
    pub fn bits(self) -> u8 {
        self as u8
    }
}

/// Five-bit message type, interpreted within a [`MsgClass`].
///
/// The numbering is global (not per class) for easier debugging; 5 bits
/// leave room for 32 message kinds, of which LaunchMON's bootstrap and
/// control traffic uses the ones below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgType {
    // --- front end ↔ engine -------------------------------------------
    /// FE → engine: launch a new job and co-locate daemons (launchAndSpawn).
    FeLaunchReq = 0,
    /// FE → engine: attach to a running job and co-locate daemons.
    FeAttachReq = 1,
    /// FE → engine: spawn middleware daemons onto an allocation.
    FeSpawnMwReq = 2,
    /// Engine → FE: the RPDTAB fetched from the RM process.
    EngineRpdtab = 3,
    /// Engine → FE: job/daemon status change notification.
    EngineStatus = 4,
    /// FE → engine: detach from job, leave it running.
    FeDetachReq = 5,
    /// FE → engine: kill the job and all daemons.
    FeKillReq = 6,
    /// Engine → FE: generic acknowledgement.
    EngineAck = 7,
    /// Engine → FE: engine-side failure report.
    EngineError = 8,
    // --- front end ↔ back-end master ----------------------------------
    /// BE master → FE: hello + security cookie, begins the handshake.
    BeHello = 9,
    /// FE → BE master: daemon input parameters (+ piggybacked usrdata).
    BeLaunchInfo = 10,
    /// FE → BE master: the RPDTAB for daemon-local task lookup.
    BeRpdtab = 11,
    /// BE master → FE: all daemons connected and initialized.
    BeReady = 12,
    /// Either direction: opaque tool payload (pack/unpack callbacks).
    BeUsrData = 13,
    /// FE → BE master: orderly shutdown.
    BeShutdown = 14,
    // --- front end ↔ middleware master --------------------------------
    /// MW master → FE: hello + security cookie.
    MwHello = 15,
    /// FE → MW master: personalities + endpoint table for the TBON.
    MwLaunchInfo = 16,
    /// FE → MW master: RPDTAB so TBON daemons can find app/BE processes.
    MwRpdtab = 17,
    /// MW master → FE: TBON bootstrap complete.
    MwReady = 18,
    /// Either direction: opaque tool payload for middleware.
    MwUsrData = 19,
    /// FE → MW master: orderly shutdown.
    MwShutdown = 20,
}

impl MsgType {
    /// Decode a five-bit type value.
    pub fn from_bits(bits: u8) -> ProtoResult<Self> {
        use MsgType::*;
        Ok(match bits {
            0 => FeLaunchReq,
            1 => FeAttachReq,
            2 => FeSpawnMwReq,
            3 => EngineRpdtab,
            4 => EngineStatus,
            5 => FeDetachReq,
            6 => FeKillReq,
            7 => EngineAck,
            8 => EngineError,
            9 => BeHello,
            10 => BeLaunchInfo,
            11 => BeRpdtab,
            12 => BeReady,
            13 => BeUsrData,
            14 => BeShutdown,
            15 => MwHello,
            16 => MwLaunchInfo,
            17 => MwRpdtab,
            18 => MwReady,
            19 => MwUsrData,
            20 => MwShutdown,
            v => return Err(ProtoError::InvalidField { field: "msg_type", value: v as u64 }),
        })
    }

    /// The raw five-bit encoding.
    pub fn bits(self) -> u8 {
        self as u8
    }

    /// The communication pair this message type belongs to.
    pub fn natural_class(self) -> MsgClass {
        use MsgType::*;
        match self {
            FeLaunchReq | FeAttachReq | FeSpawnMwReq | EngineRpdtab | EngineStatus
            | FeDetachReq | FeKillReq | EngineAck | EngineError => MsgClass::FeToEngine,
            BeHello | BeLaunchInfo | BeRpdtab | BeReady | BeUsrData | BeShutdown => {
                MsgClass::FeToBe
            }
            MwHello | MwLaunchInfo | MwRpdtab | MwReady | MwUsrData | MwShutdown => {
                MsgClass::FeToMw
            }
        }
    }
}

/// The decoded 16-byte LMONP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LmonpHeader {
    /// Communication-pair class (3 bits on the wire).
    pub class: MsgClass,
    /// Message type within the class (5 bits on the wire).
    pub mtype: MsgType,
    /// Correlation tag chosen by the sender.
    pub tag: u16,
    /// Flag bits ([`FLAG_USR_PAYLOAD`], [`FLAG_ERROR`]).
    pub flags: u16,
    /// Security epoch; must match the session's negotiated epoch.
    pub sec_epoch: u16,
    /// Length in bytes of the LaunchMON payload section.
    pub lmon_len: u32,
    /// Length in bytes of the piggybacked user payload section.
    pub usr_len: u32,
}

impl LmonpHeader {
    /// Build a header for a payload-less control message.
    pub fn control(class: MsgClass, mtype: MsgType) -> Self {
        LmonpHeader { class, mtype, tag: 0, flags: 0, sec_epoch: 0, lmon_len: 0, usr_len: 0 }
    }

    /// Total message size: header plus both payload sections.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.lmon_len as usize + self.usr_len as usize
    }

    /// Whether the error flag is set.
    pub fn is_error(&self) -> bool {
        self.flags & FLAG_ERROR != 0
    }

    /// Validate payload lengths against [`MAX_PAYLOAD_LEN`].
    pub fn validate(&self) -> ProtoResult<()> {
        if self.lmon_len as usize > MAX_PAYLOAD_LEN {
            return Err(ProtoError::PayloadTooLarge { len: self.lmon_len as usize });
        }
        if self.usr_len as usize > MAX_PAYLOAD_LEN {
            return Err(ProtoError::PayloadTooLarge { len: self.usr_len as usize });
        }
        Ok(())
    }
}

impl WireEncode for LmonpHeader {
    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(LMONP_VERSION);
        buf.put_u8((self.class.bits() << 5) | (self.mtype.bits() & 0x1f));
        buf.put_u16(self.tag);
        buf.put_u16(self.flags);
        buf.put_u16(self.sec_epoch);
        buf.put_u32(self.lmon_len);
        buf.put_u32(self.usr_len);
    }

    fn encoded_len(&self) -> usize {
        HEADER_LEN
    }
}

impl WireDecode for LmonpHeader {
    fn decode(buf: &mut impl Buf) -> ProtoResult<Self> {
        let version = get_u8(buf)?;
        if version != LMONP_VERSION {
            return Err(ProtoError::VersionMismatch { found: version });
        }
        let class_type = get_u8(buf)?;
        let class = MsgClass::from_bits(class_type >> 5)?;
        let mtype = MsgType::from_bits(class_type & 0x1f)?;
        let tag = get_u16(buf)?;
        let flags = get_u16(buf)?;
        let sec_epoch = get_u16(buf)?;
        let lmon_len = get_u32(buf)?;
        let usr_len = get_u32(buf)?;
        let hdr = LmonpHeader { class, mtype, tag, flags, sec_epoch, lmon_len, usr_len };
        hdr.validate()?;
        Ok(hdr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireDecode;

    #[test]
    fn header_is_exactly_sixteen_bytes() {
        let hdr = LmonpHeader::control(MsgClass::FeToEngine, MsgType::FeLaunchReq);
        assert_eq!(hdr.to_bytes().len(), HEADER_LEN);
    }

    #[test]
    fn header_roundtrip_all_classes_and_types() {
        for mtype_bits in 0..=20u8 {
            let mtype = MsgType::from_bits(mtype_bits).unwrap();
            for class in MsgClass::ASSIGNED {
                let hdr = LmonpHeader {
                    class,
                    mtype,
                    tag: 0xBEEF,
                    flags: FLAG_USR_PAYLOAD,
                    sec_epoch: 42,
                    lmon_len: 1234,
                    usr_len: 99,
                };
                let back = LmonpHeader::from_bytes(&hdr.to_bytes()).unwrap();
                assert_eq!(hdr, back);
            }
        }
    }

    #[test]
    fn msg_class_occupies_top_three_bits() {
        let hdr = LmonpHeader::control(MsgClass::FeToMw, MsgType::MwReady);
        let bytes = hdr.to_bytes();
        assert_eq!(bytes[1] >> 5, MsgClass::FeToMw.bits());
        assert_eq!(bytes[1] & 0x1f, MsgType::MwReady.bits());
    }

    #[test]
    fn unknown_class_bits_rejected() {
        for bits in 4..8u8 {
            assert!(MsgClass::from_bits(bits).is_err());
        }
    }

    #[test]
    fn unknown_type_bits_rejected() {
        for bits in 21..32u8 {
            assert!(MsgType::from_bits(bits).is_err(), "type {bits} should be unassigned");
        }
    }

    #[test]
    fn version_mismatch_detected() {
        let hdr = LmonpHeader::control(MsgClass::FeToBe, MsgType::BeReady);
        let mut bytes = hdr.to_bytes();
        bytes[0] = 99;
        assert!(matches!(
            LmonpHeader::from_bytes(&bytes),
            Err(ProtoError::VersionMismatch { found: 99 })
        ));
    }

    #[test]
    fn oversized_payload_length_rejected() {
        let hdr = LmonpHeader {
            class: MsgClass::FeToBe,
            mtype: MsgType::BeRpdtab,
            tag: 0,
            flags: 0,
            sec_epoch: 0,
            lmon_len: (MAX_PAYLOAD_LEN as u32) + 1,
            usr_len: 0,
        };
        let mut bytes = Vec::new();
        hdr.encode(&mut bytes);
        assert!(matches!(LmonpHeader::from_bytes(&bytes), Err(ProtoError::PayloadTooLarge { .. })));
    }

    #[test]
    fn natural_class_covers_every_type() {
        for bits in 0..=20u8 {
            let t = MsgType::from_bits(bits).unwrap();
            // Sanity: hello/ready style messages map onto the expected pair.
            let c = t.natural_class();
            assert!(MsgClass::ASSIGNED.contains(&c));
        }
        assert_eq!(MsgType::BeReady.natural_class(), MsgClass::FeToBe);
        assert_eq!(MsgType::MwReady.natural_class(), MsgClass::FeToMw);
        assert_eq!(MsgType::EngineAck.natural_class(), MsgClass::FeToEngine);
    }

    #[test]
    fn total_len_accounts_for_both_payloads() {
        let mut hdr = LmonpHeader::control(MsgClass::FeToBe, MsgType::BeUsrData);
        hdr.lmon_len = 100;
        hdr.usr_len = 28;
        assert_eq!(hdr.total_len(), HEADER_LEN + 128);
    }
}
