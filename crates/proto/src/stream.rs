//! Incremental frame assembly for non-blocking byte streams.
//!
//! A [`FrameBuffer`] accumulates whatever bytes a socket happens to hand
//! over — whole frames, several frames at once, or one byte at a time — and
//! yields complete frames as they become available. `star-serverd`'s
//! connection loops and the wire-chaos interposing proxy both read through
//! it, so frame-boundary handling exists exactly once; the fuzz harness
//! dribbles every generated frame through it byte by byte and asserts the
//! decode is identical to the all-at-once path.

use crate::error::DecodeError;
use crate::frame::{decode_frame_header, FRAME_HEADER_LEN};
use crate::message::WireMessage;
use bytes::Bytes;

/// Reassembles frames from an arbitrarily chunked byte stream.
///
/// Feed bytes with [`push`](Self::push), then drain completed frames with
/// [`next_frame`](Self::next_frame) (raw bytes, header validated — what a
/// forwarding proxy wants) or [`next_message`](Self::next_message) (fully
/// decoded). A malformed header or body is a typed error; the buffer is not
/// self-resynchronising, so callers should drop the connection on error,
/// exactly as the blocking reader does.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer { buf: Vec::new() }
    }

    /// Appends freshly read bytes to the buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered bytes not yet consumed by a completed frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer holds a partial frame (some bytes, but not enough
    /// to complete one). A connection that reaches EOF in this state died
    /// mid-frame.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Total size of the frame at the front of the buffer once all of it has
    /// arrived (header validated): `Ok(None)` means "feed me more bytes".
    fn frame_len(&self) -> Result<Option<usize>, DecodeError> {
        if self.buf.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let total = FRAME_HEADER_LEN + decode_frame_header(&self.buf)?.body_len;
        Ok((self.buf.len() >= total).then_some(total))
    }

    /// Removes and returns the next complete frame as raw bytes (header
    /// included). Only the header is validated — the body may still fail
    /// [`WireMessage::decode_body`]; forwarding proxies deliberately skip
    /// that cost. Returns `Ok(None)` until a full frame has been pushed.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, DecodeError> {
        let Some(total) = self.frame_len()? else {
            return Ok(None);
        };
        let rest = self.buf.split_off(total);
        let frame = std::mem::replace(&mut self.buf, rest);
        Ok(Some(Bytes::from(frame)))
    }

    /// Removes and decodes the next complete frame. Returns `Ok(None)` until
    /// a full frame has been pushed.
    pub fn next_message(&mut self) -> Result<Option<WireMessage>, DecodeError> {
        let Some(total) = self.frame_len()? else {
            return Ok(None);
        };
        let (message, consumed) = WireMessage::decode(&self.buf)?;
        debug_assert_eq!(consumed, total);
        self.buf.drain(..consumed);
        Ok(Some(message))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Request, WireMessage};

    fn ping(id: u64) -> WireMessage {
        WireMessage::Request { id, body: Request::Ping }
    }

    #[test]
    fn whole_frames_come_back_out() {
        let mut fb = FrameBuffer::new();
        let frame = ping(1).encode();
        fb.push(&frame);
        assert_eq!(fb.next_message().unwrap(), Some(ping(1)));
        assert_eq!(fb.next_message().unwrap(), None);
        assert!(!fb.has_partial());
    }

    #[test]
    fn multiple_frames_in_one_push_are_split() {
        let mut fb = FrameBuffer::new();
        let mut bytes = ping(1).encode().to_vec();
        bytes.extend_from_slice(&ping(2).encode());
        fb.push(&bytes);
        assert_eq!(fb.next_message().unwrap(), Some(ping(1)));
        assert_eq!(fb.next_message().unwrap(), Some(ping(2)));
        assert_eq!(fb.next_message().unwrap(), None);
    }

    #[test]
    fn byte_at_a_time_dribble_reassembles() {
        let mut fb = FrameBuffer::new();
        let frame = ping(7).encode();
        for (i, byte) in frame.iter().enumerate() {
            fb.push(std::slice::from_ref(byte));
            let got = fb.next_message().unwrap();
            if i + 1 < frame.len() {
                assert_eq!(got, None, "no message before byte {}", frame.len());
                assert!(fb.has_partial());
            } else {
                assert_eq!(got, Some(ping(7)));
            }
        }
    }

    #[test]
    fn raw_frames_preserve_bytes_exactly() {
        let mut fb = FrameBuffer::new();
        let frame = ping(3).encode();
        fb.push(&frame);
        assert_eq!(fb.next_frame().unwrap(), Some(frame));
    }

    #[test]
    fn bad_magic_is_a_typed_error() {
        let mut fb = FrameBuffer::new();
        let mut raw = ping(1).encode().to_vec();
        raw[0] = b'X';
        fb.push(&raw);
        assert!(matches!(fb.next_message(), Err(DecodeError::BadMagic(_))));
    }
}
