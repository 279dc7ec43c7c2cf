//! Minimal wire-encoding helpers used by every LMONP payload.
//!
//! LMONP predates (and deliberately avoids) heavyweight serialization
//! frameworks: every field is written big-endian with explicit lengths so
//! that the same bytes can be parsed on any platform the engine is ported
//! to. These helpers wrap [`bytes::Buf`]/[`bytes::BufMut`] with the small
//! amount of checking the codec needs.

use bytes::{Buf, BufMut};

use crate::error::{ProtoError, ProtoResult};

/// Maximum length accepted for a single length-prefixed string (1 MiB).
///
/// Hostnames, executable paths and option strings are all far smaller; the
/// cap exists so a corrupt length prefix cannot trigger a huge allocation.
pub const MAX_STRING_LEN: usize = 1 << 20;

/// Maximum element count accepted for a length-prefixed sequence.
///
/// Sized for 2^22 ≈ 4.2 M MPI tasks — an order of magnitude beyond the
/// 10^5..10^6 processor counts the paper targets.
pub const MAX_SEQ_LEN: usize = 1 << 22;

/// Types that can serialize themselves onto an LMONP buffer.
pub trait WireEncode {
    /// Append the encoded form of `self` to `buf`.
    fn encode(&self, buf: &mut impl BufMut);

    /// Exact number of bytes [`WireEncode::encode`] will write: counted by
    /// encoding into a sink that keeps no byte, so it cannot drift from
    /// `encode`.
    fn encoded_len(&self) -> usize {
        let mut count = ByteCount(0);
        self.encode(&mut count);
        count.0
    }

    /// Encode into a fresh, exactly sized buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.encoded_len());
        self.encode(&mut v);
        debug_assert_eq!(v.len(), self.encoded_len(), "encoded_len out of sync");
        v
    }
}

/// A [`BufMut`] that counts what is put into it and keeps none of it.
struct ByteCount(usize);

impl BufMut for ByteCount {
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// Types that can parse themselves from an LMONP buffer.
pub trait WireDecode: Sized {
    /// Parse one value, consuming bytes from `buf`.
    fn decode(buf: &mut impl Buf) -> ProtoResult<Self>;

    /// Parse a value from a standalone byte slice, requiring full consumption.
    fn from_bytes(bytes: &[u8]) -> ProtoResult<Self> {
        let mut slice = bytes;
        let v = Self::decode(&mut slice)?;
        if !slice.is_empty() {
            return Err(ProtoError::Truncated { needed: 0, available: slice.len() });
        }
        Ok(v)
    }
}

/// Ensure `buf` has at least `n` readable bytes.
pub fn need(buf: &impl Buf, n: usize) -> ProtoResult<()> {
    if buf.remaining() < n {
        Err(ProtoError::Truncated { needed: n, available: buf.remaining() })
    } else {
        Ok(())
    }
}

/// Read a `u8` with bounds checking.
pub fn get_u8(buf: &mut impl Buf) -> ProtoResult<u8> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

/// Read a big-endian `u16` with bounds checking.
pub fn get_u16(buf: &mut impl Buf) -> ProtoResult<u16> {
    need(buf, 2)?;
    Ok(buf.get_u16())
}

/// Read a big-endian `u32` with bounds checking.
pub fn get_u32(buf: &mut impl Buf) -> ProtoResult<u32> {
    need(buf, 4)?;
    Ok(buf.get_u32())
}

/// Read a big-endian `u64` with bounds checking.
pub fn get_u64(buf: &mut impl Buf) -> ProtoResult<u64> {
    need(buf, 8)?;
    Ok(buf.get_u64())
}

/// Write a length-prefixed UTF-8 string (u32 length + bytes).
pub fn put_str(buf: &mut impl BufMut, s: &str) {
    debug_assert!(s.len() <= MAX_STRING_LEN);
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string written by [`put_str`].
pub fn get_str(buf: &mut impl Buf) -> ProtoResult<String> {
    let len = get_u32(buf)? as usize;
    if len > MAX_STRING_LEN {
        return Err(ProtoError::PayloadTooLarge { len });
    }
    need(buf, len)?;
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| ProtoError::BadString)
}

/// Number of bytes [`put_str`] writes for `s`.
pub fn str_len(s: &str) -> usize {
    4 + s.len()
}

/// Write a length-prefixed byte blob (u32 length + bytes).
pub fn put_bytes(buf: &mut impl BufMut, b: &[u8]) {
    buf.put_u32(b.len() as u32);
    buf.put_slice(b);
}

/// Read a length-prefixed byte blob written by [`put_bytes`].
pub fn get_bytes(buf: &mut impl Buf) -> ProtoResult<Vec<u8>> {
    let len = get_u32(buf)? as usize;
    if len > crate::header::MAX_PAYLOAD_LEN {
        return Err(ProtoError::PayloadTooLarge { len });
    }
    need(buf, len)?;
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    Ok(bytes)
}

/// Write a length-prefixed sequence of encodable values.
pub fn put_seq<T: WireEncode>(buf: &mut impl BufMut, items: &[T]) {
    debug_assert!(items.len() <= MAX_SEQ_LEN);
    buf.put_u32(items.len() as u32);
    for item in items {
        item.encode(buf);
    }
}

/// Read a sequence written by [`put_seq`].
pub fn get_seq<T: WireDecode>(buf: &mut impl Buf) -> ProtoResult<Vec<T>> {
    let len = get_u32(buf)? as usize;
    if len > MAX_SEQ_LEN {
        return Err(ProtoError::PayloadTooLarge { len });
    }
    // Guard the pre-allocation: each element needs at least one byte.
    let cap = len.min(buf.remaining().max(1));
    let mut items = Vec::with_capacity(cap);
    for _ in 0..len {
        items.push(T::decode(buf)?);
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_roundtrip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "node-042.llnl.gov");
        assert_eq!(buf.len(), str_len("node-042.llnl.gov"));
        let mut slice = &buf[..];
        assert_eq!(get_str(&mut slice).unwrap(), "node-042.llnl.gov");
        assert!(slice.is_empty());
    }

    #[test]
    fn empty_string_roundtrip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "");
        let mut slice = &buf[..];
        assert_eq!(get_str(&mut slice).unwrap(), "");
    }

    #[test]
    fn truncated_string_is_error() {
        let mut buf = Vec::new();
        put_str(&mut buf, "abcdef");
        let mut slice = &buf[..buf.len() - 2];
        assert!(matches!(get_str(&mut slice), Err(ProtoError::Truncated { .. })));
    }

    #[test]
    fn oversized_string_length_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut slice = &buf[..];
        assert!(matches!(get_str(&mut slice), Err(ProtoError::PayloadTooLarge { .. })));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe, 0xfd]);
        let mut slice = &buf[..];
        assert!(matches!(get_str(&mut slice), Err(ProtoError::BadString)));
    }

    #[test]
    fn bytes_roundtrip() {
        let blob = vec![1u8, 2, 3, 255, 0];
        let mut buf = Vec::new();
        put_bytes(&mut buf, &blob);
        let mut slice = &buf[..];
        assert_eq!(get_bytes(&mut slice).unwrap(), blob);
    }

    #[test]
    fn scalar_bounds_checks() {
        let empty: &[u8] = &[];
        assert!(get_u8(&mut &empty[..]).is_err());
        assert!(get_u16(&mut &empty[..]).is_err());
        assert!(get_u32(&mut &empty[..]).is_err());
        assert!(get_u64(&mut &empty[..]).is_err());
        let one = [7u8];
        assert_eq!(get_u8(&mut &one[..]).unwrap(), 7);
    }

    #[test]
    fn seq_roundtrip_with_u32_items() {
        struct W(u32);
        impl WireEncode for W {
            fn encode(&self, buf: &mut impl BufMut) {
                buf.put_u32(self.0);
            }
        }
        impl WireDecode for W {
            fn decode(buf: &mut impl Buf) -> ProtoResult<Self> {
                Ok(W(get_u32(buf)?))
            }
        }
        let items: Vec<W> = (0..100).map(W).collect();
        let mut buf = Vec::new();
        put_seq(&mut buf, &items);
        assert_eq!(buf.len(), 4 + 4 * items.len());
        let mut slice = &buf[..];
        let back: Vec<W> = get_seq(&mut slice).unwrap();
        assert_eq!(back.len(), 100);
        assert!(back.iter().enumerate().all(|(i, w)| w.0 == i as u32));
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        struct W;
        impl WireDecode for W {
            fn decode(buf: &mut impl Buf) -> ProtoResult<Self> {
                get_u8(buf)?;
                Ok(W)
            }
        }
        assert!(W::from_bytes(&[1]).is_ok());
        assert!(W::from_bytes(&[1, 2]).is_err());
    }
}
