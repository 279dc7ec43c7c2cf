//! Property-based tests for the LMONP codec: arbitrary messages and tables
//! must survive encode→decode, and the borrowing encoder and decoders must
//! agree with a copying reference codec under arbitrary chunking.

use proptest::prelude::*;

use bytes::Bytes;
use lmon_proto::error::ProtoError;
use lmon_proto::frame::{decode_msg_view, FrameReader, MuxBatch, MuxEntry, WireFrame};
use lmon_proto::header::{LmonpHeader, MsgClass, MsgType};
use lmon_proto::msg::LmonpMsg;
use lmon_proto::rpdtab::{ProcDesc, Rpdtab};
use lmon_proto::wire::{WireDecode, WireEncode};

/// Reference encoder: the header, then both payload sections, copied.
fn ref_encode(m: &LmonpMsg) -> Vec<u8> {
    let mut buf = m.header().to_bytes();
    buf.extend_from_slice(&m.lmon);
    buf.extend_from_slice(&m.usr);
    buf
}

/// Reference decoder for a buffer holding exactly one message.
fn ref_decode(bytes: &[u8]) -> Result<LmonpMsg, ProtoError> {
    let mut rest = bytes;
    let header = LmonpHeader::decode(&mut rest)?;
    if bytes.len() != header.total_len() {
        return Err(ProtoError::Truncated { needed: header.total_len(), available: bytes.len() });
    }
    let (lmon, usr) = rest.split_at(header.lmon_len as usize);
    Ok(LmonpMsg::from_parts(header, lmon.to_vec(), usr.to_vec()))
}

/// Reference batch payload: each entry's session id, then its message.
fn ref_batch_payload(batch: &MuxBatch) -> Vec<u8> {
    let mut payload = Vec::new();
    for e in &batch.entries {
        payload.extend_from_slice(&e.session.to_be_bytes());
        payload.extend_from_slice(&ref_encode(&e.msg));
    }
    payload
}

fn arb_msg_type() -> impl Strategy<Value = MsgType> {
    (0u8..=23).prop_map(|b| MsgType::from_bits(b).unwrap())
}

fn arb_msg_class() -> impl Strategy<Value = MsgClass> {
    (0u8..=3).prop_map(|b| MsgClass::from_bits(b).unwrap())
}

/// Session ids with the u16 tag-space boundaries over-sampled.
fn arb_session() -> impl Strategy<Value = u16> {
    prop_oneof![any::<u16>(), Just(0u16), Just(u16::MAX)]
}

prop_compose! {
    fn arb_msg()(
        class in arb_msg_class(),
        mtype in arb_msg_type(),
        tag in any::<u16>(),
        epoch in any::<u16>(),
        error in any::<bool>(),
        lmon in proptest::collection::vec(any::<u8>(), 0..2048),
        usr in proptest::collection::vec(any::<u8>(), 0..512),
    ) -> LmonpMsg {
        let mut m = LmonpMsg::new(class, mtype)
            .with_tag(tag)
            .with_epoch(epoch)
            .with_lmon_payload(lmon)
            .with_usr_payload(usr);
        if error { m = m.as_error(); }
        m
    }
}

prop_compose! {
    fn arb_proc_desc()(
        rank in 0u32..1_000_000,
        host_id in 0u32..2000,
        exe in "[a-z_/]{1,30}",
        pid in any::<u64>(),
    ) -> ProcDesc {
        ProcDesc { rank, host: format!("node{host_id:05}"), exe, pid }
    }
}

proptest! {
    #[test]
    fn msg_roundtrip(m in arb_msg()) {
        let bytes = WireFrame::Msg(m.clone()).encode_to_vec();
        prop_assert_eq!(&bytes, &ref_encode(&m));
        prop_assert_eq!(bytes.len(), m.wire_len());
        prop_assert_eq!(ref_decode(&bytes).unwrap(), m.clone());
        prop_assert_eq!(decode_msg_view(&Bytes::from(bytes)).unwrap(), m);
    }

    #[test]
    fn frame_reader_matches_oneshot_under_chunking(
        msgs in proptest::collection::vec(arb_msg(), 1..10),
        chunk in 1usize..257,
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&ref_encode(m));
        }
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            reader.extend(piece);
            while let Some(m) = reader.next_msg().unwrap() {
                out.push(m);
            }
        }
        prop_assert_eq!(out, msgs);
        prop_assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn rpdtab_roundtrip(descs in proptest::collection::vec(arb_proc_desc(), 0..300)) {
        let tab = Rpdtab::new(descs);
        let bytes = tab.to_bytes();
        prop_assert_eq!(bytes.len(), tab.encoded_len());
        let back = Rpdtab::from_bytes(&bytes).unwrap();
        // Rpdtab::new sorts by rank; equal ranks may permute, so compare as
        // multisets of entries.
        let mut a: Vec<_> = tab.entries().to_vec();
        let mut b: Vec<_> = back.entries().to_vec();
        let key = |e: &ProcDesc| (e.rank, e.host.clone(), e.exe.clone(), e.pid);
        a.sort_by_key(key);
        b.sort_by_key(key);
        prop_assert_eq!(a, b);
    }

    /// A back-end daemon's local decode is the full decode restricted to
    /// one host, on well-formed and on damaged buffers alike: it accepts
    /// exactly what `from_bytes` accepts.
    #[test]
    fn rpdtab_local_decode_agrees_with_full_decode(
        ranks_hosts in proptest::collection::vec((0u32..64, 0u32..5, 0u32..3), 0..120),
        host_id in 0u32..6,
        damage in 0u8..4,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let descs = ranks_hosts.iter().enumerate().map(|(i, (rank, host, exe))| ProcDesc {
            rank: *rank,
            host: format!("node{host:05}"),
            exe: format!("exe{exe}"),
            pid: i as u64,
        });
        let mut bytes = Rpdtab::new(descs.collect()).to_bytes();
        match damage {
            0 => {}
            1 => bytes.truncate(at % (bytes.len() + 1)),
            2 => bytes.push(byte),
            _ => {
                let i = at % bytes.len();
                bytes[i] = byte;
            }
        }
        let host = format!("node{host_id:05}"); // node00005 is never in the table
        let local = Rpdtab::local_from_bytes(&bytes, &host);
        match Rpdtab::from_bytes(&bytes) {
            Ok(full) => {
                let expect = Rpdtab::new(full.local_tasks(&host).cloned().collect());
                prop_assert_eq!(local.unwrap(), (expect, full.len()));
            }
            Err(_) => prop_assert!(local.is_err(), "local decode accepted a rejected buffer"),
        }
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = ref_decode(&bytes);
        let _ = decode_msg_view(&Bytes::from(bytes.clone()));
        let _ = Rpdtab::from_bytes(&bytes);
        let mut reader = FrameReader::new();
        reader.extend(&bytes);
        let _ = reader.next_msg();
    }

    #[test]
    fn zero_copy_carrier_encode_is_byte_identical_to_legacy(
        m in arb_msg(),
        session in arb_session(),
    ) {
        // The reference path: encode the inner message whole, wrap it in a
        // MuxData carrier, encode the carrier — two full payload copies.
        let legacy = ref_encode(
            &LmonpMsg::of_type(MsgType::MuxData)
                .with_tag(session)
                .with_lmon_payload(ref_encode(&m)),
        );
        // The zero-copy path: headers staged, payload sections gathered in
        // place. Must be byte-for-byte identical for every message shape,
        // piggybacked usr payloads and tag-space boundaries included.
        let frame = WireFrame::Carrier { session, msg: m.clone() };
        prop_assert_eq!(frame.wire_len(), legacy.len());
        prop_assert_eq!(frame.encode_to_vec(), legacy);
        // And the materialized fallback agrees too.
        prop_assert_eq!(ref_encode(&frame.clone().into_msg()), legacy);
        // Structural lift inverts the materialization.
        match WireFrame::from_msg(frame.clone().into_msg()) {
            WireFrame::Carrier { session: s, msg: back } => {
                prop_assert_eq!(s, session);
                prop_assert_eq!(back, m);
            }
            other => return Err(TestCaseError::fail(format!("expected Carrier, got {other:?}"))),
        }
    }

    #[test]
    fn zero_copy_batch_encode_is_byte_identical_to_legacy(
        entries in proptest::collection::vec((arb_session(), arb_msg()), 1..8),
    ) {
        let batch = MuxBatch {
            entries: entries
                .into_iter()
                .map(|(session, msg)| MuxEntry { session, msg })
                .collect(),
        };
        let legacy = ref_encode(
            &LmonpMsg::of_type(MsgType::MuxBatch)
                .with_tag(batch.entries.len() as u16)
                .with_lmon_payload(ref_batch_payload(&batch)),
        );
        let frame = WireFrame::Batch(batch.clone());
        let materialized = frame.clone().into_msg();
        prop_assert_eq!(frame.encode_to_vec(), legacy.clone());
        prop_assert_eq!(ref_encode(&materialized), legacy);
        prop_assert_eq!(frame.wire_len(), materialized.wire_len());
        // Decode inverts: every entry survives session id + message intact.
        match WireFrame::from_msg(materialized) {
            WireFrame::Batch(back) => prop_assert_eq!(back, batch),
            other => return Err(TestCaseError::fail(format!("expected Batch, got {other:?}"))),
        }
    }

    #[test]
    fn borrowing_decode_is_identical_to_legacy(m in arb_msg()) {
        // The borrowing decoder splits payload sections off the input as
        // refcounted views instead of copying them into fresh vectors. The
        // result must be structurally identical to the reference copying
        // decoder for every message shape — headers, flags, error bit,
        // empty and maximal payloads alike.
        let bytes = ref_encode(&m);
        let legacy = ref_decode(&bytes).unwrap();
        let view = decode_msg_view(&Bytes::from(bytes)).unwrap();
        prop_assert_eq!(&view, &legacy);
        prop_assert_eq!(view, m);
    }

    #[test]
    fn borrowing_batch_decode_is_identical_to_legacy(
        entries in proptest::collection::vec((arb_session(), arb_msg()), 1..8),
    ) {
        let batch = MuxBatch {
            entries: entries
                .into_iter()
                .map(|(session, msg)| MuxEntry { session, msg })
                .collect(),
        };
        let payload = Bytes::from(ref_batch_payload(&batch));
        prop_assert_eq!(&WireFrame::Batch(batch.clone()).into_msg().lmon, &payload);
        let count = batch.entries.len() as u16;
        let view = MuxBatch::decode_payload_view(&payload, count).unwrap();
        // Entry by entry, the view decode agrees with the reference decoder
        // run over the same bytes.
        let mut off = 0;
        for e in &view.entries {
            let len = e.msg.wire_len();
            prop_assert_eq!(ref_decode(&payload[off + 2..off + 2 + len]).unwrap(), e.msg.clone());
            off += 2 + len;
        }
        prop_assert_eq!(view, batch);
    }

    #[test]
    fn batch_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        count in any::<u16>(),
    ) {
        let _ = MuxBatch::decode_payload_view(&Bytes::from(bytes.clone()), count);
        let _ = WireFrame::from_msg(
            LmonpMsg::of_type(MsgType::MuxBatch).with_tag(count).with_lmon_payload(bytes),
        );
    }

    #[test]
    fn rpdtab_hosts_unique_and_cover_entries(descs in proptest::collection::vec(arb_proc_desc(), 0..200)) {
        let tab = Rpdtab::new(descs);
        let hosts = tab.hosts();
        let set: std::collections::HashSet<_> = hosts.iter().collect();
        prop_assert_eq!(set.len(), hosts.len(), "hosts must be unique");
        for e in tab.entries() {
            prop_assert!(hosts.contains(&e.host));
        }
    }
}
