//! The frame layer: a fixed 12-byte header in front of every message.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "STAR"
//! 4       2     protocol version, little-endian (currently 2)
//! 6       1     frame kind (which [`crate::WireMessage`] variant follows)
//! 7       1     flags (reserved, must be 0)
//! 8       4     body length, little-endian
//! 12      len   body
//! ```
//!
//! The header is fixed-size so a streaming reader can read exactly
//! [`FRAME_HEADER_LEN`] bytes, validate them, then read exactly `body_len`
//! more — no scanning, no resynchronisation. The body length is bounded by
//! [`MAX_BODY_LEN`] before it is trusted as a buffer size.

use crate::error::DecodeError;
use bytes::{Buf, BufMut, BytesMut};

/// The four magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"STAR";

/// The protocol version this build speaks. Version 2 added the
/// failure-aware phase/fence fields and the recovery frames
/// (`FetchPartition` / `InstallRecords` / `Rejoin`); version 3 pages
/// `FetchPartition` and adds `Recovered`.
pub const PROTOCOL_VERSION: u16 = 3;

/// Size of the fixed frame header.
pub const FRAME_HEADER_LEN: usize = 12;

/// Upper bound on a frame body. A replication batch is at most a few
/// thousand log entries; 32 MiB leaves two orders of magnitude of headroom
/// while keeping a corrupt length prefix from asking the receiver to buffer
/// gigabytes.
pub const MAX_BODY_LEN: usize = 32 << 20;

/// A validated frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version of the frame.
    pub version: u16,
    /// Frame kind (dispatches to a [`crate::WireMessage`] variant).
    pub kind: u8,
    /// Reserved flags byte: no version defines a flag, so it is always 0
    /// (a header carrying anything else is refused).
    pub flags: u8,
    /// Length of the body following the header.
    pub body_len: usize,
}

/// Decodes and validates a frame header from the first
/// [`FRAME_HEADER_LEN`] bytes of `buf`.
///
/// Validation order: length, magic, version, flags, body bound. The kind byte is
/// *not* validated here — a streaming reader must know how many bytes to
/// consume even for an unknown kind, so kind dispatch happens in
/// [`crate::WireMessage::decode_body`].
pub fn decode_frame_header(buf: &[u8]) -> Result<FrameHeader, DecodeError> {
    let mut cur = buf;
    if cur.remaining() < FRAME_HEADER_LEN {
        return Err(DecodeError::Truncated { needed: FRAME_HEADER_LEN, have: cur.remaining() });
    }
    let mut magic = [0u8; 4];
    cur.copy_to_slice(&mut magic);
    if magic != FRAME_MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = cur.get_u16_le();
    if version != PROTOCOL_VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let kind = cur.get_u8();
    let flags = cur.get_u8();
    if flags != 0 {
        // A set reserved bit would be a second encoding of the same frame.
        return Err(DecodeError::UnknownTag { context: "frame flags", tag: flags });
    }
    let body_len = cur.get_u32_le() as usize;
    if body_len > MAX_BODY_LEN {
        return Err(DecodeError::Oversized { len: body_len, max: MAX_BODY_LEN });
    }
    Ok(FrameHeader { version, kind, flags, body_len })
}

/// Appends a frame header for a `kind` frame with a `body_len`-byte body.
pub fn encode_frame_header(kind: u8, body_len: usize, buf: &mut BytesMut) {
    buf.put_slice(&FRAME_MAGIC);
    buf.put_u16_le(PROTOCOL_VERSION);
    buf.put_u8(kind);
    buf.put_u8(0);
    buf.put_u32_le(body_len as u32);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let mut buf = BytesMut::new();
        encode_frame_header(3, 17, &mut buf);
        assert_eq!(buf.len(), FRAME_HEADER_LEN);
        let header = decode_frame_header(buf.as_slice()).unwrap();
        assert_eq!(
            header,
            FrameHeader { version: PROTOCOL_VERSION, kind: 3, flags: 0, body_len: 17 }
        );
    }

    #[test]
    fn short_input_is_truncated() {
        assert_eq!(
            decode_frame_header(b"STAR"),
            Err(DecodeError::Truncated { needed: FRAME_HEADER_LEN, have: 4 })
        );
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut buf = BytesMut::new();
        encode_frame_header(1, 0, &mut buf);
        let mut raw = buf.to_vec();
        raw[0] = b'X';
        assert_eq!(decode_frame_header(&raw), Err(DecodeError::BadMagic(*b"XTAR")));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = BytesMut::new();
        encode_frame_header(1, 0, &mut buf);
        let mut raw = buf.to_vec();
        raw[4] = 9;
        assert_eq!(decode_frame_header(&raw), Err(DecodeError::UnsupportedVersion(9)));
    }

    #[test]
    fn oversized_body_is_rejected() {
        let mut buf = BytesMut::new();
        encode_frame_header(1, 0, &mut buf);
        let mut raw = buf.to_vec();
        raw[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame_header(&raw),
            Err(DecodeError::Oversized { len: u32::MAX as usize, max: MAX_BODY_LEN })
        );
    }
}
