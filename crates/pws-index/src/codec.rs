//! Variable-length integer codec for the segment format.
//!
//! Standard LEB128-style varint: 7 payload bits per byte, high bit set on
//! continuation. Combined with delta-encoding of ascending doc ids inside
//! each postings block (see [`crate::segment`]) this keeps the index
//! several times smaller than raw `Vec<u32>` postings.

/// Append `v` to `out` as a varint. At most 5 bytes for a `u32`.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read one varint from the front of `buf`, advancing it.
///
/// Returns `None` on truncated or over-long (>5 byte) input.
#[inline]
pub fn read_varint(buf: &mut &[u8]) -> Option<u32> {
    let mut v: u32 = 0;
    let mut shift = 0;
    for _ in 0..5 {
        let (&byte, rest) = buf.split_first()?;
        *buf = rest;
        v |= u32::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_byte_values() {
        for v in [0u32, 1, 127] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), 1);
            let mut s = buf.as_slice();
            assert_eq!(read_varint(&mut s), Some(v));
            assert!(s.is_empty());
        }
    }

    #[test]
    fn multi_byte_boundaries() {
        for v in [128u32, 16_383, 16_384, u32::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(read_varint(&mut s), Some(v), "value {v}");
        }
    }

    #[test]
    fn truncated_input_is_none() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u32::MAX);
        let mut s = &buf[..buf.len() - 1];
        assert_eq!(read_varint(&mut s), None);
        let mut empty: &[u8] = &[];
        assert_eq!(read_varint(&mut empty), None);
    }

    #[test]
    fn overlong_input_is_none() {
        let bytes = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01];
        let mut s = bytes.as_slice();
        assert_eq!(read_varint(&mut s), None);
    }

    proptest! {
        #[test]
        fn varint_round_trips(v: u32) {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut s = buf.as_slice();
            prop_assert_eq!(read_varint(&mut s), Some(v));
            prop_assert!(s.is_empty());
        }
    }
}
