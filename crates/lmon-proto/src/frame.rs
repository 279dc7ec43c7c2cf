//! Framing: an [`LmonpMsg`] as wire bytes, and back.
//!
//! The in-process links move messages as values and never encode one; this
//! module is the definition of LMONP's byte form that a deployment over
//! real sockets would put on the wire. [`encode_wire`] is the one encoder:
//! the 16-byte header, then both payload sections. [`decode_msg_view`] is
//! the one decoder, and it borrows: the payload sections come back as
//! [`Bytes`] views of the buffer they arrived in, not copies.
//! `lmon-proto/tests/prop.rs` checks both against a copying reference codec.

use bytes::Bytes;

use crate::error::{ProtoError, ProtoResult};
use crate::header::{LmonpHeader, HEADER_LEN};
use crate::msg::LmonpMsg;
use crate::wire::{WireDecode, WireEncode};

/// Encode `msg` as one contiguous wire message: header, LaunchMON payload,
/// user payload.
pub fn encode_wire(msg: &LmonpMsg) -> Bytes {
    let mut out = Vec::with_capacity(msg.wire_len());
    msg.header().encode(&mut out);
    out.extend_from_slice(&msg.lmon);
    out.extend_from_slice(&msg.usr);
    Bytes::from(out)
}

/// Decode a message from a [`Bytes`] view containing exactly one message,
/// splitting the payload sections off as sub-views instead of copying them.
///
/// Only the 16 header bytes are read out; the returned message keeps the
/// caller's backing allocation alive instead of owning fresh copies.
/// Trailing bytes and truncation are both rejected.
pub fn decode_msg_view(bytes: &Bytes) -> ProtoResult<LmonpMsg> {
    let mut slice = &bytes[..];
    let header = LmonpHeader::decode(&mut slice)?;
    let lmon_len = header.lmon_len as usize;
    let usr_len = header.usr_len as usize;
    if slice.len() != lmon_len + usr_len {
        return Err(ProtoError::Truncated { needed: lmon_len + usr_len, available: slice.len() });
    }
    let lmon = bytes.slice(HEADER_LEN..HEADER_LEN + lmon_len);
    let usr = bytes.slice(HEADER_LEN + lmon_len..HEADER_LEN + lmon_len + usr_len);
    Ok(LmonpMsg::from_parts(header, lmon, usr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::MsgType;

    fn sample(i: u16) -> LmonpMsg {
        LmonpMsg::of_type(MsgType::BeUsrData)
            .with_tag(i)
            .with_lmon_payload(vec![i as u8; (i as usize % 50) + 1])
            .with_usr_payload(vec![0xAB; i as usize % 13])
    }

    #[test]
    fn encode_decode_roundtrip() {
        for i in 0..20 {
            let m = sample(i);
            let bytes = encode_wire(&m);
            assert_eq!(bytes.len(), m.wire_len());
            assert_eq!(decode_msg_view(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = encode_wire(&sample(1)).to_vec();
        bytes.push(0);
        assert!(decode_msg_view(&Bytes::from(bytes)).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = encode_wire(&sample(5));
        assert!(decode_msg_view(&bytes.slice(..bytes.len() - 1)).is_err());
    }

    /// Copy floor of the decoder: both payload sections are views inside
    /// the buffer the message arrived in.
    #[test]
    fn decode_borrows_the_input_buffer() {
        let msg = LmonpMsg::of_type(MsgType::BeUsrData)
            .with_lmon_payload(vec![0xA5; 256])
            .with_usr_payload(vec![0x5A; 128]);
        let bytes = encode_wire(&msg);
        let decoded = decode_msg_view(&bytes).unwrap();
        assert_eq!(decoded, msg);
        let buffer = bytes.as_ptr_range();
        for section in [&decoded.lmon, &decoded.usr] {
            let r = section.as_ptr_range();
            assert!(buffer.start <= r.start && r.end <= buffer.end, "payload was copied out");
        }
    }
}
