//! Property-based tests for the LMONP codec: arbitrary messages and tables
//! must survive encode→decode, and the encoder and the borrowing decoder
//! must agree with a copying reference codec.

use proptest::prelude::*;

use bytes::Bytes;
use lmon_proto::error::ProtoError;
use lmon_proto::frame::{decode_msg_view, encode_wire};
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

fn arb_msg_type() -> impl Strategy<Value = MsgType> {
    (0u8..=20).prop_map(|b| MsgType::from_bits(b).unwrap())
}

fn arb_msg_class() -> impl Strategy<Value = MsgClass> {
    (0u8..=3).prop_map(|b| MsgClass::from_bits(b).unwrap())
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
        let bytes = encode_wire(&m);
        prop_assert_eq!(&bytes[..], &ref_encode(&m)[..]);
        prop_assert_eq!(bytes.len(), m.wire_len());
        prop_assert_eq!(ref_decode(&bytes).unwrap(), m.clone());
        prop_assert_eq!(decode_msg_view(&bytes).unwrap(), m);
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
