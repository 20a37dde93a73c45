//! Blocking frame I/O over any byte stream, the one client-side connection
//! built on it, and the one listener that serves connections.
//!
//! `star-serverd` and `star-client` both speak frames over [`TcpStream`]s;
//! this module is the one place that turns a byte stream into frames:
//! [`read_frame`] cuts one off, [`read_message`] decodes it. The reader
//! trusts nothing: the header is validated before `body_len` is used as a
//! read size, and every decode failure surfaces as a typed [`DecodeError`]
//! wrapped in [`io::ErrorKind::InvalidData`].
//!
//! [`Conn`] is how anything *dials* a node — the `Run` coordinator, the
//! wire-chaos supervisor, `star-client`, `star-admin`, the parity tests —
//! and [`connect_with_retry`] is the only place a socket is opened (the
//! replication mesh dials through it too), so the boot-friendly retry
//! policy and the request timeout exist once. Only errors a booting or
//! restarting peer produces are retried; anything else (an address that does
//! not parse) fails at once.
//!
//! A request is two halves — [`Conn::send`] writes it, [`Conn::recv`] blocks
//! for its answer — so a caller holding connections to several nodes can
//! write to all of them before reading from any: the nodes then work in
//! parallel without the caller spawning a thread per node.
//!
//! [`Listener`] is how anything *serves*: a `star-serverd` node and each
//! link of the wire-chaos proxy mesh. It blocks in `accept()`, hands every
//! connection to a thread of its own, and [`Listener::close`] ends all of it
//! at once, so a handler can block in its reads without polling a flag.
//!
//! [`DecodeError`]: crate::DecodeError

use crate::frame::{decode_frame_header, FRAME_HEADER_LEN, MAX_BODY_LEN};
use crate::message::{Request, Response, Role, WireMessage};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long [`Conn::connect`] keeps retrying while the target node boots
/// (long enough to cover a supervisor restarting the process).
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Pause between two connect attempts.
const CONNECT_RETRY_INTERVAL: Duration = Duration::from_millis(10);

/// How long one response may take. Fences legitimately wait for in-flight
/// replication, so this is generous.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(120);

/// Whether a connect error is what a peer that is still booting, or being
/// restarted, produces — the only errors worth dialling again for.
fn peer_may_come_up(kind: io::ErrorKind) -> bool {
    use io::ErrorKind::{
        AddrNotAvailable, ConnectionAborted, ConnectionRefused, ConnectionReset, TimedOut,
    };
    matches!(
        kind,
        ConnectionRefused | ConnectionReset | ConnectionAborted | TimedOut | AddrNotAvailable
    )
}

/// Dials `addr`, retrying every 10 ms until `timeout` has passed: a node
/// that is still booting, or being restarted, is not listening yet. Returns
/// the last connect error once the deadline is reached, and any error a
/// retry cannot cure (an unparsable address, an unroutable one) at once. The
/// stream comes back with `TCP_NODELAY` set.
pub fn connect_with_retry(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            Err(e) if !peer_may_come_up(e.kind()) || Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(CONNECT_RETRY_INTERVAL),
        }
    }
}

fn unexpected(expected: &str, got: &WireMessage) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("expected {expected}, got {got:?}"))
}

/// One handshaken request/response connection to one node.
///
/// Requests carry correlation ids, so many can be written before any
/// response is read: [`send`](Self::send) ships a whole batch in one write
/// burst, [`recv`](Self::recv) collects its responses, and
/// [`pipeline`](Self::pipeline) is the two back to back.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    next_id: u64,
    node: u32,
    num_nodes: u32,
}

impl Conn {
    /// Connects to `addr` (see [`connect_with_retry`], [`CONNECT_TIMEOUT`])
    /// and performs the `Hello`/`HelloAck` handshake as `role`; `from_node`
    /// is the dialling node's id (0 for clients and tools, which have none).
    pub fn connect(addr: &str, role: Role, from_node: u32) -> io::Result<Conn> {
        let mut stream = connect_with_retry(addr, CONNECT_TIMEOUT)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        write_message(&mut stream, &WireMessage::Hello { role, node: from_node })?;
        stream.flush()?;
        match read_message(&mut stream)? {
            WireMessage::HelloAck { node, num_nodes } => {
                Ok(Conn { stream, next_id: 0, node, num_nodes })
            }
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// The node id the server reported in its `HelloAck`.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The cluster size the server reported in its `HelloAck`.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Sends one request and blocks for its response.
    pub fn request(&mut self, body: Request) -> io::Result<Response> {
        let mut responses = self.pipeline(vec![body])?;
        responses.pop().ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
    }

    /// Pipelines a batch: [`send`](Self::send), then [`recv`](Self::recv).
    pub fn pipeline(&mut self, bodies: Vec<Request>) -> io::Result<Vec<Response>> {
        let ids = self.send(bodies)?;
        self.recv(ids)
    }

    /// The sending half of [`pipeline`](Self::pipeline): writes every
    /// request back-to-back in one burst and flushes once. Returns the
    /// correlation ids it issued, to be handed to [`recv`](Self::recv).
    pub fn send(&mut self, bodies: Vec<Request>) -> io::Result<Range<u64>> {
        let first_id = self.next_id + 1;
        for body in bodies {
            self.next_id += 1;
            write_message(&mut self.stream, &WireMessage::Request { id: self.next_id, body })?;
        }
        self.stream.flush()?;
        Ok(first_id..self.next_id + 1)
    }

    /// The receiving half: reads until every response to the requests `ids`
    /// has arrived. Responses are returned in request order regardless of
    /// arrival order. A response whose id is not in `ids` (the late answer
    /// to a request an earlier caller gave up on) is skipped; any other
    /// frame kind is [`io::ErrorKind::InvalidData`].
    pub fn recv(&mut self, ids: Range<u64>) -> io::Result<Vec<Response>> {
        let mut responses: Vec<Option<Response>> = ids.clone().map(|_| None).collect();
        let mut missing = responses.len();
        while missing > 0 {
            match read_message(&mut self.stream)? {
                WireMessage::Response { id, body } => {
                    let slot =
                        id.checked_sub(ids.start).and_then(|i| responses.get_mut(i as usize));
                    if let Some(slot) = slot {
                        if slot.replace(body).is_none() {
                            missing -= 1;
                        }
                    }
                }
                other => return Err(unexpected("Response", &other)),
            }
        }
        Ok(responses.into_iter().flatten().collect())
    }
}

/// Writes one complete frame to `writer` (no implicit flush; callers batch
/// pipelined frames and flush once).
///
/// A body over [`MAX_BODY_LEN`] is refused with
/// [`io::ErrorKind::InvalidInput`] before anything is written: the receiver
/// would reject the frame as oversized and drop the connection.
pub fn write_message<W: Write>(writer: &mut W, message: &WireMessage) -> io::Result<()> {
    let frame = message.encode();
    let body_len = frame.len().saturating_sub(FRAME_HEADER_LEN);
    if body_len > MAX_BODY_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {body_len} bytes exceeds the {MAX_BODY_LEN}-byte maximum"),
        ));
    }
    writer.write_all(&frame)
}

fn invalid_data(e: crate::DecodeError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// Reads exactly one frame from `reader` and returns it whole, header
/// included, as raw bytes — what a forwarding proxy wants. Only the header
/// is validated (the body may still fail [`WireMessage::decode`]); a stream
/// that ends before the frame does is [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Bytes> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    reader.read_exact(&mut header)?;
    let body_len = decode_frame_header(&header).map_err(invalid_data)?.body_len;
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + body_len);
    frame.extend_from_slice(&header);
    frame.resize(FRAME_HEADER_LEN + body_len, 0);
    reader.read_exact(frame.get_mut(FRAME_HEADER_LEN..).unwrap_or_default())?;
    Ok(Bytes::from(frame))
}

/// Reads exactly one frame from `reader` ([`read_frame`]) and decodes it.
///
/// Errors pass through from the underlying reader; malformed frames become
/// [`io::ErrorKind::InvalidData`] carrying the
/// [`DecodeError`](crate::DecodeError) as their source.
pub fn read_message<R: Read>(reader: &mut R) -> io::Result<WireMessage> {
    let frame = read_frame(reader)?;
    WireMessage::decode(&frame).map(|(message, _)| message).map_err(invalid_data)
}

/// A TCP listener that serves every connection on a thread of its own.
///
/// The accept thread blocks in `accept()`; each accepted stream gets
/// `TCP_NODELAY` and is handed to the handler on a new thread. The listener
/// keeps a registry of the connections it is serving, and drops an entry
/// when its handler returns. [`close`](Self::close) shuts every registered
/// connection down, so a handler blocked in a read sees end-of-stream, and
/// stops the accept thread; dropping the listener closes it and joins the
/// accept thread, after which the port refuses connections. A handler still
/// busy with a request finishes it on its own thread.
#[derive(Debug)]
pub struct Listener {
    closer: Closer,
    accept: Option<JoinHandle<()>>,
}

/// Closes a [`Listener`] from anywhere, one of its own connection threads
/// included (a `Shutdown` request answered on a connection closes the node).
#[derive(Clone, Debug)]
pub struct Closer(Arc<Mutex<Open>>);

/// The registry of a [`Listener`]'s open connections.
#[derive(Debug)]
struct Open {
    /// Where [`Closer::close`] dials to wake the blocked `accept()` (a dial
    /// to an unspecified address such as `0.0.0.0` reaches loopback).
    wake: SocketAddr,
    closed: bool,
    next_id: u64,
    /// A clone of every stream a handler is serving, by registration id.
    streams: BTreeMap<u64, TcpStream>,
}

/// A registration, dropped (and so removed) when its handler returns.
struct Entry {
    closer: Closer,
    id: u64,
}

impl Drop for Entry {
    fn drop(&mut self) {
        self.closer.open().streams.remove(&self.id);
    }
}

impl Listener {
    /// Starts serving `listener`: the accept thread is named `name`, each
    /// connection thread `name-conn`, and every accepted stream is handed to
    /// `handler` together with a [`Closer`] for this listener.
    pub fn serve<F>(listener: TcpListener, name: &str, handler: F) -> io::Result<Listener>
    where
        F: Fn(TcpStream, &Closer) + Send + Sync + 'static,
    {
        let open = Open {
            wake: listener.local_addr()?,
            closed: false,
            next_id: 0,
            streams: BTreeMap::new(),
        };
        let closer = Closer(Arc::new(Mutex::new(open)));
        let accept_closer = closer.clone();
        let conn_name = format!("{name}-conn");
        let accept = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || accept_loop(&listener, &accept_closer, &conn_name, Arc::new(handler)))?;
        Ok(Listener { closer, accept: Some(accept) })
    }

    /// Shuts down every open connection and stops accepting; idempotent.
    pub fn close(&self) {
        self.closer.close();
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.close();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Closer {
    fn open(&self) -> MutexGuard<'_, Open> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers `stream` for [`close`](Self::close); `None` once closed, or
    /// when the stream cannot be cloned (out of descriptors, which ends the
    /// accept loop as an accept error would).
    fn register(&self, stream: &TcpStream) -> Option<Entry> {
        let clone = stream.try_clone().ok()?;
        let mut open = self.open();
        if open.closed {
            return None;
        }
        open.next_id += 1;
        let id = open.next_id;
        open.streams.insert(id, clone);
        Some(Entry { closer: self.clone(), id })
    }

    /// Shuts down every open connection and wakes the accept thread, which
    /// then exits; idempotent.
    pub fn close(&self) {
        let (wake, streams) = {
            let mut open = self.open();
            if std::mem::replace(&mut open.closed, true) {
                return;
            }
            (open.wake, std::mem::take(&mut open.streams))
        };
        for stream in streams.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect(wake);
    }
}

fn accept_loop<F>(listener: &TcpListener, closer: &Closer, name: &str, handler: Arc<F>)
where
    F: Fn(TcpStream, &Closer) + Send + Sync + 'static,
{
    for stream in listener.incoming() {
        let Ok(stream) = stream else { break };
        let Some(entry) = closer.register(&stream) else { break };
        let _ = stream.set_nodelay(true);
        let handler = Arc::clone(&handler);
        // A failed spawn drops the closure, and with it the registration.
        let _ = std::thread::Builder::new().name(name.to_string()).spawn(move || {
            handler(stream, &entry.closer);
            drop(entry);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecodeError;

    #[test]
    fn messages_round_trip_through_a_stream() {
        let mut buf: Vec<u8> = Vec::new();
        let a = WireMessage::Request { id: 1, body: Request::Ping };
        let b = WireMessage::Request { id: 2, body: Request::Shutdown };
        write_message(&mut buf, &a).unwrap();
        write_message(&mut buf, &b).unwrap();
        // Back to back: the first comes off raw, its bytes kept exactly.
        let mut cursor = buf.as_slice();
        assert_eq!(read_frame(&mut cursor).unwrap(), a.encode());
        assert_eq!(read_message(&mut cursor).unwrap(), b);
        assert!(cursor.is_empty());
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let mut buf: Vec<u8> = Vec::new();
        write_message(&mut buf, &WireMessage::Request { id: 1, body: Request::Ping }).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = buf.as_slice();
        assert!(read_message(&mut cursor).is_err());
    }

    #[test]
    fn an_oversized_frame_is_refused_before_anything_is_written() {
        let mut buf: Vec<u8> = Vec::new();
        let huge = Response::Error("x".repeat(33 << 20));
        let err =
            write_message(&mut buf, &WireMessage::Response { id: 1, body: huge }).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains(&format!("{MAX_BODY_LEN}-byte maximum")), "{err}");
        assert!(buf.is_empty());
    }

    #[test]
    fn garbage_header_is_invalid_data() {
        let raw = [0u8; FRAME_HEADER_LEN];
        let mut cursor = raw.as_slice();
        let err = read_message(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The typed cause rides along as the error's source.
        let source = err.into_inner().and_then(|e| e.downcast::<DecodeError>().ok());
        assert!(matches!(source.as_deref(), Some(DecodeError::BadMagic(_))), "{source:?}");
    }

    /// A one-connection fake node: acknowledges the handshake, then answers
    /// each request it reads with the next scripted burst of frames.
    fn scripted_node(script: Vec<Vec<WireMessage>>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let hello = read_message(&mut stream).unwrap();
            assert_eq!(hello, WireMessage::Hello { role: Role::Coordinator, node: 2 });
            write_message(&mut stream, &WireMessage::HelloAck { node: 1, num_nodes: 3 }).unwrap();
            for burst in script {
                read_message(&mut stream).unwrap();
                for frame in burst {
                    write_message(&mut stream, &frame).unwrap();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn conn_orders_pipelined_responses_skips_stale_ones_and_rejects_other_frames() {
        let response = |id, body| WireMessage::Response { id, body };
        let (addr, node) = scripted_node(vec![
            // A stale id first, then the real answer.
            vec![response(77, Response::Ok), response(1, Response::Pong)],
            // A pipelined pair, answered after the second request and out
            // of order.
            vec![],
            vec![response(3, Response::Ok), response(2, Response::Pong)],
            // A frame a server must never send on a request connection.
            vec![WireMessage::HelloAck { node: 1, num_nodes: 3 }],
        ]);
        let mut conn = Conn::connect(&addr, Role::Coordinator, 2).unwrap();
        assert_eq!((conn.node(), conn.num_nodes()), (1, 3));
        assert_eq!(conn.request(Request::Ping).unwrap(), Response::Pong);
        let responses = conn.pipeline(vec![Request::Ping, Request::Shutdown]).unwrap();
        assert_eq!(responses, vec![Response::Pong, Response::Ok]);
        let err = conn.request(Request::Ping).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        node.join().unwrap();
    }

    #[test]
    fn an_address_no_retry_can_cure_fails_at_once() {
        let started = Instant::now();
        assert!(connect_with_retry("not-an-address", CONNECT_TIMEOUT).is_err());
        let waited = started.elapsed();
        assert!(waited < Duration::from_millis(100), "retried a hopeless address for {waited:?}");
    }

    #[test]
    fn connect_gives_up_at_its_deadline() {
        // Bind-then-drop reserves an address nobody is listening on.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let timeout = Duration::from_millis(100);
        let started = Instant::now();
        assert!(connect_with_retry(&addr, timeout).is_err());
        let waited = started.elapsed();
        assert!(waited >= timeout, "gave up after {waited:?}, before the deadline");
        assert!(waited < CONNECT_TIMEOUT, "kept retrying past the deadline: {waited:?}");
    }
}
