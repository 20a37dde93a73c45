//! The real-network twin of the simulated endpoint: a TCP mesh.
//!
//! [`TcpMesh`] implements the same [`Transport`] seam the deterministic
//! in-memory [`Endpoint`](star_net::Endpoint) does, so the shared phase
//! workers in `star_core::exec` replicate over real sockets without a single
//! engine-side branch. One lazily-connected link exists per peer: a stream
//! and the frames [`send`](Transport::send) queued on it, under one mutex.
//! [`TcpMesh::flush`] writes each link's queue in one `write_all`, once per
//! phase. Batches on one link are FIFO, which is the only ordering the fence
//! protocol needs (operation entries of one partition all travel one link;
//! value entries commute under the Thomas write rule).

use star_core::messages::ReplicationBatch;
use star_net::{SendError, Transport};
use star_proto::{connect_with_retry, replication_frame_encoded, write_message, CONNECT_TIMEOUT};
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// TCP connections from one node to every peer, plus cumulative per-peer
/// batch counters — the sent side of the fence's "wait until everything a
/// phase shipped has arrived" barrier.
pub struct TcpMesh {
    node: usize,
    addrs: Vec<String>,
    links: Vec<Mutex<Link>>,
    sent: Vec<AtomicU64>,
    connect_timeout: Duration,
}

/// One peer's link: its stream, opened at the first flush that has frames
/// for it, and the encoded frames queued for the next flush.
#[derive(Default)]
struct Link {
    stream: Option<TcpStream>,
    queued: Vec<u8>,
    /// Where each queued frame ends in `queued`, in send order.
    ends: Vec<usize>,
}

impl std::fmt::Debug for TcpMesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpMesh").field("node", &self.node).field("peers", &self.addrs).finish()
    }
}

impl TcpMesh {
    /// A mesh for `node`, whose peers listen on `addrs` (`addrs[i]` = node
    /// `i`). No connections are opened until the first flush to each peer.
    pub fn new(node: usize, addrs: Vec<String>) -> Self {
        let links = addrs.iter().map(|_| Mutex::default()).collect();
        let sent = addrs.iter().map(|_| AtomicU64::new(0)).collect();
        TcpMesh { node, addrs, links, sent, connect_timeout: CONNECT_TIMEOUT }
    }

    /// Overrides how long (re)connects keep retrying before the mesh gives
    /// up with a typed [`SendError::Disconnected`]. Tests exercising the
    /// retry-exhausted path use a short timeout instead of the boot-friendly
    /// default.
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Cumulative replication batches written to each peer since
    /// construction. Reported in `PhaseDone` so the coordinator can tell each
    /// receiver how many batches its next fence must wait for.
    pub fn sent_counts(&self) -> Vec<u64> {
        self.sent.iter().map(|c| c.load(Ordering::SeqCst)).collect()
    }

    /// Writes every link's queued frames, in send order, with one
    /// `write_all` per link, and empties the queues. A link whose write
    /// fails reconnects once — the peer may have restarted — and writes again
    /// from the first frame the old socket did not take whole. Only frames
    /// written whole count as sent; the frames of a link that fails twice
    /// are dropped, and the first such link is the error.
    pub fn flush(&self) -> Result<(), SendError> {
        let links = self.links.iter().zip(&self.sent).enumerate();
        links.map(|(to, (link, sent))| self.flush_link(to, link, sent)).fold(Ok(()), Result::and)
    }

    fn flush_link(&self, to: usize, link: &Mutex<Link>, sent: &AtomicU64) -> Result<(), SendError> {
        let mut link = link.lock().map_err(|_| SendError::Disconnected(to))?;
        let Link { stream, queued, ends } = &mut *link;
        if ends.is_empty() {
            return Ok(());
        }
        let (queued, ends) = (std::mem::take(queued), std::mem::take(ends));
        // `queued[start..]` is what no socket has taken whole yet.
        let mut start = 0;
        for reconnect in [false, true] {
            let stream = match stream.take() {
                Some(open) if !reconnect => stream.insert(open),
                _ => stream.insert(self.connect(to)?),
            };
            let (whole, written) = write_frames(stream, &queued, &ends, &mut start);
            sent.fetch_add(whole, Ordering::SeqCst);
            if written.is_ok() {
                return Ok(());
            }
        }
        Err(SendError::Disconnected(to))
    }

    /// Connects to `to`, retrying while the peer is still booting.
    fn connect(&self, to: usize) -> Result<TcpStream, SendError> {
        let addr = self.addrs.get(to).ok_or(SendError::NoSuchNode(to))?;
        connect_with_retry(addr, self.connect_timeout).map_err(|_| SendError::Disconnected(to))
    }
}

/// Writes `queued` — frames ending at `ends` — from byte `*start` on, as
/// `write_all` would, and moves `*start` past every frame `stream` took
/// whole. Returns how many frames those were, and the write's result.
fn write_frames(
    stream: &mut impl Write,
    queued: &[u8],
    ends: &[usize],
    start: &mut usize,
) -> (u64, io::Result<()>) {
    let mut taken = *start;
    let written = loop {
        let Some(rest) = queued.get(taken..).filter(|rest| !rest.is_empty()) else {
            break Ok(());
        };
        match stream.write(rest) {
            Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => taken += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    let whole = ends.iter().filter(|&&end| *start < end && end <= taken).count();
    *start = ends.iter().rev().find(|&&end| end <= taken).copied().unwrap_or(0);
    (whole as u64, written)
}

impl Transport<ReplicationBatch> for TcpMesh {
    fn node(&self) -> usize {
        self.node
    }

    fn num_nodes(&self) -> usize {
        self.addrs.len()
    }

    /// Encodes the batch's frame onto its link's queue; [`TcpMesh::flush`]
    /// writes it. A frame too large to send is refused here.
    fn send(&self, to: usize, payload: ReplicationBatch) -> Result<(), SendError> {
        let link = self.links.get(to).ok_or(SendError::NoSuchNode(to))?;
        // The entries are already in their canonical encoded form; the frame
        // is a concatenation, not a re-serialization.
        let frame = replication_frame_encoded(payload.from_node, payload.epoch, &payload.entries);
        let mut link = link.lock().map_err(|_| SendError::Disconnected(to))?;
        write_message(&mut link.queued, &frame).map_err(|_| SendError::Disconnected(to))?;
        let end = link.queued.len();
        link.ends.push(end);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket that takes at most three bytes per write and breaks once it
    /// has taken `room`.
    struct Breaks {
        took: Vec<u8>,
        room: usize,
    }

    impl Write for Breaks {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            let n = bytes.len().min(self.room).min(3);
            if n == 0 {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.took.extend_from_slice(&bytes[..n]);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_broken_write_counts_whole_frames_and_resumes_at_the_first_torn_one() {
        let (queued, ends) = (b"aaaabbbbbbcc".to_vec(), [4, 10, 12]);
        let mut start = 0;
        // The old socket takes the first frame whole and tears the second.
        let mut old = Breaks { took: Vec::new(), room: 7 };
        let (whole, written) = write_frames(&mut old, &queued, &ends, &mut start);
        assert!(written.is_err());
        assert_eq!((whole, start), (1, 4));
        let mut fresh = Breaks { took: Vec::new(), room: usize::MAX };
        let (whole, written) = write_frames(&mut fresh, &queued, &ends, &mut start);
        assert!(written.is_ok());
        assert_eq!((whole, start), (2, 12));
        assert_eq!(fresh.took, b"bbbbbbcc", "the torn frame goes again, whole, and nothing else");
    }
}
