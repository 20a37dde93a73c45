//! The STAR wire protocol: length-prefixed binary frames for the real TCP
//! deployment (`star-serverd`, `star-client`, `star-admin`).
//!
//! The protocol is deliberately small and fully deterministic: every value
//! has exactly one encoding, so the transport-parity harness can assert that
//! a wire-served run and an in-memory simulated run produced *byte-identical*
//! committed histories and election logs by comparing [`encode_history`] /
//! [`encode_elections`] outputs directly.
//!
//! Layering:
//!
//! * [`frame`] — the fixed 12-byte header (`magic, version, kind, flags,
//!   body length`) every message rides behind;
//! * [`message`] — the message bodies: handshakes, correlation-id-tagged
//!   requests/responses, and zero-copy replication batches, each layout
//!   declared once in a table that generates its encoder and its decoder;
//! * [`io`] — blocking frame I/O: [`read_frame`] / [`read_message`] /
//!   [`write_message`], the dialling [`Conn`], and the serving [`Listener`]
//!   (`star-serverd`'s nodes, the wire-chaos proxy mesh);
//! * [`error`] — typed [`DecodeError`]s. Decoding arbitrary bytes never
//!   panics; `star-lint` keeps this crate's `src/` in panic-freedom scope.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod codec;
pub mod error;
pub mod frame;
pub mod io;
pub mod message;

pub use error::DecodeError;
pub use frame::{
    decode_frame_header, encode_frame_header, FrameHeader, FRAME_HEADER_LEN, FRAME_MAGIC,
    MAX_BODY_LEN, PROTOCOL_VERSION,
};
pub use io::{
    connect_with_retry, read_frame, read_message, write_message, Closer, Conn, Listener,
    CONNECT_TIMEOUT,
};
pub use message::{
    decode_entries, encode_elections, encode_entries, encode_history, replication_frame,
    replication_frame_encoded, AdminQuery, Request, Response, Role, WireElection, WireMessage,
    WirePhase, WireRecord, WireStatus, WireTxn, RECORD_PAGE_BYTES,
};
