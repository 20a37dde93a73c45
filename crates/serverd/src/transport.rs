//! The real-network twin of the simulated endpoint: a TCP mesh.
//!
//! [`TcpMesh`] implements the same [`Transport`] seam the deterministic
//! in-memory [`Endpoint`](star_net::Endpoint) does, so the shared phase
//! workers in `star_core::exec` replicate over real sockets without a single
//! engine-side branch. One lazily-connected, mutex-guarded stream exists per
//! peer; batches on one link are therefore FIFO, which is the only ordering
//! the fence protocol needs (operation entries of one partition all travel
//! one link; value entries commute under the Thomas write rule).

use star_core::messages::ReplicationBatch;
use star_net::{SendError, Transport};
use star_proto::{connect_with_retry, replication_frame_encoded, write_message, CONNECT_TIMEOUT};
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
    links: Vec<Mutex<Option<TcpStream>>>,
    sent: Vec<AtomicU64>,
    connect_timeout: Duration,
}

impl std::fmt::Debug for TcpMesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpMesh").field("node", &self.node).field("peers", &self.addrs).finish()
    }
}

impl TcpMesh {
    /// A mesh for `node`, whose peers listen on `addrs` (`addrs[i]` = node
    /// `i`). No connections are opened until the first send to each peer.
    pub fn new(node: usize, addrs: Vec<String>) -> Self {
        let links = addrs.iter().map(|_| Mutex::new(None)).collect();
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

    /// Cumulative replication batches sent to each peer since construction.
    /// Reported in `PhaseDone` so the coordinator can tell each receiver how
    /// many batches its next fence must wait for.
    pub fn sent_counts(&self) -> Vec<u64> {
        self.sent.iter().map(|c| c.load(Ordering::SeqCst)).collect()
    }

    /// Connects to `to`, retrying while the peer is still booting.
    fn connect(&self, to: usize) -> Result<TcpStream, SendError> {
        let addr = self.addrs.get(to).ok_or(SendError::NoSuchNode(to))?;
        connect_with_retry(addr, self.connect_timeout).map_err(|_| SendError::Disconnected(to))
    }
}

impl Transport<ReplicationBatch> for TcpMesh {
    fn node(&self) -> usize {
        self.node
    }

    fn num_nodes(&self) -> usize {
        self.addrs.len()
    }

    fn send(&self, to: usize, payload: ReplicationBatch) -> Result<(), SendError> {
        if to >= self.addrs.len() {
            return Err(SendError::NoSuchNode(to));
        }
        // The entries are already in their canonical encoded form; the frame
        // is a concatenation, not a re-serialization.
        let frame = replication_frame_encoded(payload.from_node, payload.epoch, &payload.entries);
        let mut link_guard = match self.links[to].lock() {
            Ok(guard) => guard,
            Err(_) => return Err(SendError::Disconnected(to)),
        };
        if link_guard.is_none() {
            *link_guard = Some(self.connect(to)?);
        }
        let Some(stream) = link_guard.as_mut() else {
            return Err(SendError::Disconnected(to));
        };
        if write_message(stream, &frame).is_err() {
            // One reconnect attempt: the peer may have restarted.
            *link_guard = Some(self.connect(to)?);
            let Some(stream) = link_guard.as_mut() else {
                return Err(SendError::Disconnected(to));
            };
            write_message(stream, &frame).map_err(|_| SendError::Disconnected(to))?;
        }
        self.sent[to].fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}
