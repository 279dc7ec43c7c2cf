//! Framing: converting [`LmonpMsg`] to and from byte streams — contiguous
//! or gathered.
//!
//! LMONP has one encoder and one family of decoders, and both borrow. The
//! encoder is [`WireFrame::gather`]: it stages header bytes only and returns
//! a slice list that gathers both payload sections in place
//! ([`WireFrame::encode_to_vec`] concatenates that list). The decoders split
//! payload sections off as [`Bytes`] views of the buffer they arrived in:
//! [`FrameReader`] for byte streams, [`decode_msg_view`] and
//! [`MuxBatch::decode_payload_view`] for a carrier's payload.
//!
//! Three consumers exist: the in-process transports (which move whole
//! [`WireFrame`]s structurally and encode nothing), the TCP transport (which
//! reads with [`FrameReader`] and writes the gather list with one vectored
//! write), and [`WireFrame::into_msg`], the fallback for transports without
//! a native frame path. The unit tests below pin the copy floors by storage
//! identity; `lmon-proto/tests/prop.rs` checks every path byte-for-byte
//! against a copying reference codec.

use bytes::{Buf, Bytes, BytesMut};

use crate::error::{ProtoError, ProtoResult};
use crate::header::{LmonpHeader, MsgType, HEADER_LEN};
use crate::msg::LmonpMsg;
use crate::wire::{get_u16, WireDecode, WireEncode};

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

/// One entry of a [`MuxBatch`]: a logical session id plus the inner
/// message it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxEntry {
    /// The logical mux session the message belongs to.
    pub session: u16,
    /// The inner LMONP message, byte-exact.
    pub msg: LmonpMsg,
}

/// A batched mux carrier: several same-direction logical messages coalesced
/// into one physical frame.
///
/// Wire form (the payload of a [`MsgType::MuxBatch`] message whose `tag` is
/// the entry count): for each entry, a big-endian `u16` session id followed
/// by the inner message's complete wire form, which is self-delimiting
/// through its header lengths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MuxBatch {
    /// The coalesced entries, in send order.
    pub entries: Vec<MuxEntry>,
}

impl MuxBatch {
    /// Encoded length of the batch *payload* (excluding the carrier header).
    pub fn payload_len(&self) -> usize {
        self.entries.iter().map(|e| 2 + e.msg.wire_len()).sum()
    }

    /// The carrier header describing this batch on the wire.
    pub fn header(&self) -> LmonpHeader {
        LmonpHeader {
            class: MsgType::MuxBatch.natural_class(),
            mtype: MsgType::MuxBatch,
            tag: self.entries.len() as u16,
            flags: 0,
            sec_epoch: 0,
            lmon_len: self.payload_len() as u32,
            usr_len: 0,
        }
    }

    /// Parse a batch payload from a [`Bytes`] view, splitting every inner
    /// message's payload sections off as sub-views instead of copying.
    ///
    /// `count` is the entry count from the carrier's `tag`; a mismatch or
    /// any framing error rejects the whole batch.
    pub fn decode_payload_view(bytes: &Bytes, count: u16) -> ProtoResult<MuxBatch> {
        let mut entries = Vec::with_capacity(count as usize);
        let mut off = 0usize;
        while off < bytes.len() {
            let mut slice = &bytes[off..];
            let session = get_u16(&mut slice)?;
            let mut peek = slice;
            let header = LmonpHeader::decode(&mut peek)?;
            let total = header.total_len();
            if slice.len() < total {
                return Err(ProtoError::Truncated { needed: total, available: slice.len() });
            }
            let msg = decode_msg_view(&bytes.slice(off + 2..off + 2 + total))?;
            off += 2 + total;
            entries.push(MuxEntry { session, msg });
        }
        if entries.len() != count as usize {
            return Err(ProtoError::InvalidField {
                field: "mux_batch_count",
                value: entries.len() as u64,
            });
        }
        Ok(MuxBatch { entries })
    }
}

/// A physical frame as handed to a transport: either a bare message or a
/// mux carrier whose payload sections are *borrowed at encode time* rather
/// than copied into an intermediate buffer.
///
/// In-process transports move the frame structurally (no encode at all);
/// byte-stream transports encode it with [`WireFrame::gather`], which
/// materializes only the header bytes and gathers the payload sections in
/// place. Both forms carry the same bytes as [`WireFrame::into_msg`]
/// (property-tested against a reference codec in
/// `lmon-proto/tests/prop.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFrame {
    /// A bare (non-carrier) message.
    Msg(LmonpMsg),
    /// A single-message mux carrier ([`MsgType::MuxData`]).
    Carrier {
        /// The logical mux session the message belongs to.
        session: u16,
        /// The inner LMONP message, byte-exact.
        msg: LmonpMsg,
    },
    /// A batched mux carrier ([`MsgType::MuxBatch`]).
    Batch(MuxBatch),
}

impl WireFrame {
    /// Total size of this frame on the wire, in bytes.
    pub fn wire_len(&self) -> usize {
        match self {
            WireFrame::Msg(m) => m.wire_len(),
            WireFrame::Carrier { msg, .. } => HEADER_LEN + msg.wire_len(),
            WireFrame::Batch(b) => HEADER_LEN + b.payload_len(),
        }
    }

    /// The carrier header for a single-message mux carrier.
    fn carrier_header(session: u16, msg: &LmonpMsg) -> LmonpHeader {
        LmonpHeader {
            class: MsgType::MuxData.natural_class(),
            mtype: MsgType::MuxData,
            tag: session,
            flags: 0,
            sec_epoch: 0,
            lmon_len: msg.wire_len() as u32,
            usr_len: 0,
        }
    }

    /// Materialize the frame as a plain [`LmonpMsg`]: a carrier's payload
    /// becomes one contiguous copy of its encoded body. Transports without
    /// a native frame path fall back to this.
    pub fn into_msg(self) -> LmonpMsg {
        let header = match self {
            WireFrame::Msg(m) => return m,
            WireFrame::Carrier { session, ref msg } => Self::carrier_header(session, msg),
            WireFrame::Batch(ref batch) => batch.header(),
        };
        let wire = Bytes::from(self.encode_to_vec());
        LmonpMsg::from_parts(header, wire.slice(HEADER_LEN..), Bytes::new())
    }

    /// Lift a received message back into structural form: mux carriers whose
    /// payloads parse become [`WireFrame::Carrier`]/[`WireFrame::Batch`];
    /// anything else (including carriers with corrupt payloads, which the
    /// mux counts as orphans) stays [`WireFrame::Msg`].
    pub fn from_msg(msg: LmonpMsg) -> WireFrame {
        match msg.mtype {
            MsgType::MuxData => match decode_msg_view(&msg.lmon) {
                Ok(inner) => WireFrame::Carrier { session: msg.tag, msg: inner },
                Err(_) => WireFrame::Msg(msg),
            },
            MsgType::MuxBatch => match MuxBatch::decode_payload_view(&msg.lmon, msg.tag) {
                Ok(batch) => WireFrame::Batch(batch),
                Err(_) => WireFrame::Msg(msg),
            },
            _ => WireFrame::Msg(msg),
        }
    }

    /// The zero-copy encode path: stage every header byte in `scratch` and
    /// return the gather list — header ranges interleaved with payload
    /// sections borrowed from the frame. Concatenating the slices yields
    /// the frame's wire bytes, but only `scratch.len()` bytes (headers and
    /// batch session prefixes) were copied.
    pub fn gather<'a>(&'a self, scratch: &'a mut Vec<u8>) -> Vec<&'a [u8]> {
        scratch.clear();
        // Phase 1: stage header material and record (range, payload slices).
        let mut ranges: Vec<(std::ops::Range<usize>, [&'a [u8]; 2])> = Vec::new();
        match self {
            WireFrame::Msg(m) => {
                let start = scratch.len();
                m.header().encode(scratch);
                ranges.push((start..scratch.len(), [&m.lmon, &m.usr]));
            }
            WireFrame::Carrier { session, msg } => {
                // Carrier and inner header are adjacent on the wire: one
                // contiguous staged range covers both.
                let start = scratch.len();
                Self::carrier_header(*session, msg).encode(scratch);
                msg.header().encode(scratch);
                ranges.push((start..scratch.len(), [&msg.lmon, &msg.usr]));
            }
            WireFrame::Batch(batch) => {
                let start = scratch.len();
                batch.header().encode(scratch);
                ranges.push((start..scratch.len(), [&[], &[]]));
                for e in &batch.entries {
                    let start = scratch.len();
                    scratch.extend_from_slice(&e.session.to_be_bytes());
                    e.msg.header().encode(scratch);
                    ranges.push((start..scratch.len(), [&e.msg.lmon, &e.msg.usr]));
                }
            }
        }
        // Phase 2: materialize the slice list against the now-immutable
        // scratch buffer, skipping empty payload sections.
        let staged: &'a [u8] = scratch;
        let mut slices = Vec::with_capacity(ranges.len() * 3);
        for (range, payloads) in ranges {
            slices.push(&staged[range]);
            for p in payloads {
                if !p.is_empty() {
                    slices.push(p);
                }
            }
        }
        slices
    }

    /// Encode to a contiguous buffer via the gather list (used by tests and
    /// transports that cannot do vectored writes).
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut scratch = Vec::new();
        let slices = self.gather(&mut scratch);
        let total: usize = slices.iter().map(|s| s.len()).sum();
        let mut out = Vec::with_capacity(total);
        for s in slices {
            out.extend_from_slice(s);
        }
        out
    }
}

/// Incremental frame decoder for byte-stream transports.
///
/// Feed arbitrary chunks with [`FrameReader::extend`]; complete messages pop
/// out of [`FrameReader::next_msg`].
///
/// The reader is *borrowing*: a decoded message's payload sections are
/// [`Bytes`] views split off the read buffer, not copies. The views keep
/// the buffer's backing allocation alive until the message (and everything
/// it was routed to) drops; the buffer itself un-shares lazily, copying at
/// most the unread partial-frame tail when the next chunk arrives; that
/// cost is bounded by the receive chunk size.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: BytesMut,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        FrameReader { buf: BytesMut::with_capacity(4096) }
    }

    /// Append newly received bytes.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to decode the next complete message; `Ok(None)` means more bytes
    /// are needed.
    pub fn next_msg(&mut self) -> ProtoResult<Option<LmonpMsg>> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        // Peek the header without consuming so a partial body leaves the
        // buffer intact.
        let header = {
            let mut peek = &self.buf[..HEADER_LEN];
            LmonpHeader::decode(&mut peek)?
        };
        let total = header.total_len();
        if self.buf.len() < total {
            self.buf.reserve(total - self.buf.len());
            return Ok(None);
        }
        self.buf.advance(HEADER_LEN);
        let lmon = self.buf.split_to(header.lmon_len as usize);
        let usr = self.buf.split_to(header.usr_len as usize);
        Ok(Some(LmonpMsg::from_parts(header, lmon, usr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::MsgType;
    use crate::rpdtab::synthetic_rpdtab;

    fn sample(i: u16) -> LmonpMsg {
        LmonpMsg::of_type(MsgType::BeUsrData)
            .with_tag(i)
            .with_lmon_payload(vec![i as u8; (i as usize % 50) + 1])
            .with_usr_payload(vec![0xAB; i as usize % 13])
    }

    /// A bare message's wire bytes.
    fn wire(m: &LmonpMsg) -> Bytes {
        Bytes::from(WireFrame::Msg(m.clone()).encode_to_vec())
    }

    #[test]
    fn encode_decode_roundtrip() {
        for i in 0..20 {
            let m = sample(i);
            assert_eq!(decode_msg_view(&wire(&m)).unwrap(), m);
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = WireFrame::Msg(sample(1)).encode_to_vec();
        bytes.push(0);
        assert!(decode_msg_view(&Bytes::from(bytes)).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = wire(&sample(5));
        assert!(decode_msg_view(&bytes.slice(..bytes.len() - 1)).is_err());
    }

    #[test]
    fn frame_reader_handles_byte_at_a_time() {
        let msgs: Vec<LmonpMsg> = (0..5).map(sample).collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&wire(m));
        }
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for b in stream {
            reader.extend(&[b]);
            while let Some(m) = reader.next_msg().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn frame_reader_handles_coalesced_messages() {
        let msgs: Vec<LmonpMsg> = (0..8).map(sample).collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&wire(m));
        }
        let mut reader = FrameReader::new();
        reader.extend(&stream);
        let mut out = Vec::new();
        while let Some(m) = reader.next_msg().unwrap() {
            out.push(m);
        }
        assert_eq!(out, msgs);
    }

    #[test]
    fn frame_reader_surfaces_corrupt_header() {
        let mut reader = FrameReader::new();
        reader.extend(&[0xFFu8; HEADER_LEN]);
        assert!(reader.next_msg().is_err());
    }

    #[test]
    fn empty_reader_yields_none() {
        let mut reader = FrameReader::new();
        assert!(reader.next_msg().unwrap().is_none());
        reader.extend(&[1]);
        assert!(reader.next_msg().unwrap().is_none());
    }

    #[test]
    fn carrier_gather_matches_legacy_materialized_encoding() {
        let inner = sample(7);
        let frame = WireFrame::Carrier { session: 42, msg: inner.clone() };
        let materialized = frame.clone().into_msg();
        assert_eq!(materialized.lmon, wire(&inner), "the payload is the inner wire form");
        let bytes = WireFrame::Msg(materialized).encode_to_vec();
        assert_eq!(frame.encode_to_vec(), bytes);
        assert_eq!(frame.wire_len(), bytes.len());
    }

    #[test]
    fn batch_roundtrips_structurally_and_byte_exactly() {
        let batch = MuxBatch {
            entries: (0..5).map(|i| MuxEntry { session: i * 11, msg: sample(i) }).collect(),
        };
        let frame = WireFrame::Batch(batch.clone());
        let materialized = frame.clone().into_msg();
        assert_eq!(materialized.mtype, MsgType::MuxBatch);
        assert_eq!(materialized.tag, 5);
        assert_eq!(frame.encode_to_vec(), WireFrame::Msg(materialized.clone()).encode_to_vec());
        match WireFrame::from_msg(materialized) {
            WireFrame::Batch(back) => assert_eq!(back, batch),
            other => panic!("expected Batch, got {other:?}"),
        }
    }

    #[test]
    fn from_msg_keeps_corrupt_carriers_as_bare_messages() {
        let corrupt = LmonpMsg::of_type(MsgType::MuxData)
            .with_tag(3)
            .with_lmon_payload(vec![0xFF; HEADER_LEN + 4]);
        assert!(matches!(WireFrame::from_msg(corrupt.clone()), WireFrame::Msg(m) if m == corrupt));
        let bad_count =
            WireFrame::Batch(MuxBatch { entries: vec![MuxEntry { session: 1, msg: sample(1) }] })
                .into_msg()
                .with_tag(9); // claims 9 entries, carries 1
        assert!(matches!(WireFrame::from_msg(bad_count), WireFrame::Msg(_)));
    }

    #[test]
    fn batch_decode_rejects_truncation() {
        let frame =
            WireFrame::Batch(MuxBatch { entries: vec![MuxEntry { session: 1, msg: sample(9) }] });
        let lmon = frame.into_msg().lmon;
        assert!(MuxBatch::decode_payload_view(&lmon.slice(..lmon.len() - 1), 1).is_err());
    }

    /// Copy floor of the outbound carrier: only the two adjacent headers are
    /// staged, and both payload sections are the message's own storage.
    #[test]
    fn zero_copy_gather_stages_only_header_bytes() {
        let big = LmonpMsg::of_type(MsgType::BeUsrData)
            .with_tag(1)
            .with_lmon_payload(vec![1; 4096])
            .with_usr_payload(vec![2; 4096]);
        let frame = WireFrame::Carrier { session: 1, msg: big.clone() };
        let mut scratch = Vec::new();
        let slices = frame.gather(&mut scratch);
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0].len(), 2 * HEADER_LEN, "payload bytes must not be staged");
        assert_eq!(slices[1].as_ptr(), big.lmon.as_ptr(), "lmon is gathered in place");
        assert_eq!(slices[2].as_ptr(), big.usr.as_ptr(), "usr is gathered in place");
        assert_eq!(slices.iter().map(|s| s.len()).sum::<usize>(), frame.wire_len());
    }

    /// Copy floor of the inbound batch: every entry's payload sections are
    /// views inside the carrier payload the reader split off its buffer.
    #[test]
    fn batch_decode_borrows_the_read_buffer() {
        let msg = LmonpMsg::of_type(MsgType::BeUsrData)
            .with_tag(7)
            .with_lmon_payload(vec![0xA5; 256])
            .with_usr_payload(vec![0x5A; 128]);
        let entries = (0..8).map(|session| MuxEntry { session, msg: msg.clone() }).collect();
        let batch = MuxBatch { entries };
        let mut reader = FrameReader::new();
        reader.extend(&WireFrame::Batch(batch.clone()).encode_to_vec());
        let carrier = reader.next_msg().unwrap().expect("one whole carrier");
        let decoded = MuxBatch::decode_payload_view(&carrier.lmon, 8).unwrap();
        assert_eq!(decoded, batch);
        let buffer = carrier.lmon.as_ptr_range();
        for e in &decoded.entries {
            for section in [&e.msg.lmon, &e.msg.usr] {
                let r = section.as_ptr_range();
                assert!(buffer.start <= r.start && r.end <= buffer.end, "payload was copied out");
            }
        }
    }

    /// Copy floor of the handshake's RPDTAB forward: a send that reuses the
    /// engine-encoded view gathers the table from that very storage.
    #[test]
    fn forwarded_rpdtab_is_gathered_from_the_engine_encoding() {
        let table = synthetic_rpdtab(128, 8, "app");
        let encoded = LmonpMsg::of_type(MsgType::EngineRpdtab).with_lmon(&table).lmon;
        let msg = LmonpMsg::of_type(MsgType::BeRpdtab).with_lmon_payload(encoded.clone());
        let frame = WireFrame::Carrier { session: 3, msg };
        let mut scratch = Vec::new();
        let slices = frame.gather(&mut scratch);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].len(), 2 * HEADER_LEN, "only the headers are staged");
        assert_eq!(slices[1].as_ptr(), encoded.as_ptr(), "the table is not re-encoded");
        assert_eq!(slices[1].len(), encoded.len());
    }
}
