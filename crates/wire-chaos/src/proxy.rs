//! The interposing proxy mesh: one seeded fault-injecting TCP proxy per
//! directed link of the replication mesh.
//!
//! Every `star-serverd` node is booted with an address book that points at
//! proxies instead of peers: node `i`'s entry for peer `j` is the listen
//! address of proxy link `i → j`, whose forward side dials node `j`'s real
//! address. Each link serves its inbound connections with the shared
//! [`Listener`], cuts replication frames off them with the shared blocking
//! [`read_frame`], and rolls each one through the *same*
//! [`FaultPlane`] the simulator uses — same seed and same per-link frame
//! sequence produce byte-for-byte the same drop / delay / duplicate /
//! reorder / corrupt / cut verdicts at the socket layer.
//!
//! Counter discipline (what makes failure-aware fences possible):
//!
//! * `ingested` — frames fully reassembled off the inbound socket;
//! * `settled` — frames that reached a terminal verdict (forwarded,
//!   dropped, stashed or swallowed); `settled == ingested` with nothing
//!   buffered means the link is quiescent;
//! * `delivered` — frames actually written toward the destination
//!   (duplicates count twice, drops and swallows not at all).
//!
//! The supervisor fences with *delivered* counts as each receiver's
//! `expected` vector, so the fence barrier stays exact even when the plane
//! is dropping or duplicating traffic — the simulator's fence has the same
//! property because its queues are its own delivery ledger.
//!
//! Frames touching a node marked failed are swallowed **without rolling
//! the plane RNG**, mirroring the simulated network's failed-node check,
//! which short-circuits before any fault draw. That is what a crash is: the
//! supervisor marks the node failed at the point the schedule names, the
//! node keeps executing and sending into the void, and every link's fault
//! stream stays the simulator's — through the kill and the recovery too.
//!
//! Proxy listen addresses are bound once and never change; a restarted
//! node gets a fresh real address ([`ProxyMesh::set_target`]) while its
//! peers keep dialing the same proxy — which is also what makes restarts
//! race-free under ephemeral ports.

use bytes::Bytes;
use star_net::fault::apply_verdict;
use star_net::{FaultPlane, LinkFaults};
use star_proto::{read_frame, Closer, Listener, WireMessage};
use star_replication::{encode_entry_block, split_entry_block};
use std::collections::BTreeSet;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long forward connects retry (the destination may be restarting).
const FORWARD_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// One directed link `from → to`.
struct Link {
    from: usize,
    to: usize,
    /// The proxy's own listen address (stable for the cluster's lifetime).
    addr: String,
    /// The destination node's current real address.
    target: Mutex<Option<String>>,
    /// Lazily connected stream toward the destination node.
    forward: Mutex<Option<TcpStream>>,
    /// Frames held back by `Reorder` verdicts. Held while a frame's verdict
    /// is applied, so a fence flush waits for a frame that is being
    /// stashed or released instead of missing it.
    stash: Mutex<Vec<Bytes>>,
    ingested: AtomicU64,
    settled: AtomicU64,
    delivered: AtomicU64,
}

struct MeshInner {
    num_nodes: usize,
    plane: FaultPlane,
    failed: Mutex<BTreeSet<usize>>,
    /// Dense `(from, to)` table; the diagonal entries are `None`.
    links: Vec<Option<Arc<Link>>>,
    /// Held while a link's `settled` count moves, so that
    /// [`ProxyMesh::wait_settled`] can sleep on `settled_moved` without
    /// missing a wake-up.
    settling: Mutex<()>,
    settled_moved: Condvar,
}

impl MeshInner {
    fn link(&self, from: usize, to: usize) -> &Arc<Link> {
        self.links[from * self.num_nodes + to].as_ref().expect("no self link")
    }

    /// Whether `link` touches a node currently marked failed.
    fn touches_failed(&self, link: &Link) -> bool {
        let failed = self.failed.lock().unwrap_or_else(PoisonError::into_inner);
        failed.contains(&link.from) || failed.contains(&link.to)
    }

    /// Counts one frame of `link` as settled and wakes `wait_settled`.
    fn settle(&self, link: &Link) {
        let _settling = self.settling.lock().unwrap_or_else(PoisonError::into_inner);
        link.settled.fetch_add(1, Ordering::SeqCst);
        self.settled_moved.notify_all();
    }
}

/// The full proxy mesh: `n · (n − 1)` interposing proxies plus the shared
/// fault plane and failed-node set.
pub struct ProxyMesh {
    inner: Arc<MeshInner>,
    listeners: Vec<Listener>,
}

impl ProxyMesh {
    /// Binds one listener per directed link and starts serving them.
    pub fn start(num_nodes: usize) -> std::io::Result<ProxyMesh> {
        let mut links: Vec<Option<Arc<Link>>> = Vec::with_capacity(num_nodes * num_nodes);
        let mut listeners: Vec<(Arc<Link>, TcpListener)> = Vec::new();
        for from in 0..num_nodes {
            for to in 0..num_nodes {
                if from == to {
                    links.push(None);
                    continue;
                }
                let listener = TcpListener::bind("127.0.0.1:0")?;
                let link = Arc::new(Link {
                    from,
                    to,
                    addr: listener.local_addr()?.to_string(),
                    target: Mutex::new(None),
                    forward: Mutex::new(None),
                    stash: Mutex::new(Vec::new()),
                    ingested: AtomicU64::new(0),
                    settled: AtomicU64::new(0),
                    delivered: AtomicU64::new(0),
                });
                links.push(Some(Arc::clone(&link)));
                listeners.push((link, listener));
            }
        }
        let inner = Arc::new(MeshInner {
            num_nodes,
            plane: FaultPlane::default(),
            failed: Mutex::new(BTreeSet::new()),
            links,
            settling: Mutex::new(()),
            settled_moved: Condvar::new(),
        });
        let listeners = listeners
            .into_iter()
            .map(|(link, listener)| {
                let name = format!("star-proxy-{}-{}", link.from, link.to);
                let inner = Arc::clone(&inner);
                let serve = move |stream, _: &Closer| serve_inbound(&inner, &link, stream);
                Listener::serve(listener, &name, serve)
            })
            .collect::<std::io::Result<_>>()?;
        Ok(ProxyMesh { inner, listeners })
    }

    /// Number of nodes the mesh proxies for.
    pub fn num_nodes(&self) -> usize {
        self.inner.num_nodes
    }

    /// The listen address of the `from → to` proxy.
    pub fn proxy_addr(&self, from: usize, to: usize) -> String {
        self.inner.link(from, to).addr.clone()
    }

    /// The address book node `node` should boot with: every peer entry is
    /// the matching proxy, the node's own entry is an ephemeral-bind
    /// placeholder (a node never dials itself).
    pub fn node_book(&self, node: usize) -> Vec<String> {
        (0..self.inner.num_nodes)
            .map(
                |peer| {
                    if peer == node {
                        "127.0.0.1:0".to_string()
                    } else {
                        self.proxy_addr(node, peer)
                    }
                },
            )
            .collect()
    }

    /// Points every `* → node` proxy at the node's (new) real address.
    pub fn set_target(&self, node: usize, addr: &str) {
        for from in 0..self.inner.num_nodes {
            if from == node {
                continue;
            }
            let link = self.inner.link(from, node);
            *link.target.lock().unwrap_or_else(|p| p.into_inner()) = Some(addr.to_string());
            // Any existing forward stream points at the old process.
            *link.forward.lock().unwrap_or_else(|p| p.into_inner()) = None;
        }
    }

    /// Marks `node` failed (or healed). Frames on links touching a failed
    /// node are swallowed without a fault-plane roll.
    pub fn set_node_failed(&self, node: usize, failed: bool) {
        let mut set = self.inner.failed.lock().unwrap_or_else(|p| p.into_inner());
        if failed {
            set.insert(node);
        } else {
            set.remove(&node);
        }
    }

    /// Re-seeds the fault plane (same semantics as the simulator's).
    pub fn seed(&self, seed: u64) {
        self.inner.plane.seed(seed);
    }

    /// Fault probabilities for every link without an override.
    pub fn set_default_faults(&self, faults: LinkFaults) {
        self.inner.plane.set_default_faults(faults);
    }

    /// Fault probabilities for one directed link.
    pub fn set_link_faults(&self, from: usize, to: usize, faults: LinkFaults) {
        self.inner.plane.set_link_faults(from, to, faults);
    }

    /// Clears every fault configuration and cut link.
    pub fn clear_faults(&self) {
        self.inner.plane.clear_faults();
    }

    /// Cuts the bidirectional link between `a` and `b`.
    pub fn cut_link(&self, a: usize, b: usize) {
        self.inner.plane.cut_link(a, b);
    }

    /// Restores a previously cut link.
    pub fn heal_link(&self, a: usize, b: usize) {
        self.inner.plane.heal_link(a, b);
    }

    /// Cumulative frames written toward `to` on the `from → to` link.
    pub fn delivered(&self, from: usize, to: usize) -> u64 {
        if from == to {
            return 0;
        }
        self.inner.link(from, to).delivered.load(Ordering::SeqCst)
    }

    /// The full delivered-count matrix (`[from][to]`, diagonal zero).
    pub fn delivered_matrix(&self) -> Vec<Vec<u64>> {
        (0..self.inner.num_nodes)
            .map(|from| (0..self.inner.num_nodes).map(|to| self.delivered(from, to)).collect())
            .collect()
    }

    /// Blocks until every link has ingested everything its sender shipped
    /// (`shipped[from][to]`, the senders' cumulative counts) and settled it.
    /// TCP delivers what a killed sender had already written, so this
    /// converges for dead senders too.
    pub fn wait_settled(&self, shipped: &[Vec<u64>], timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        let mut settling = self.inner.settling.lock().unwrap_or_else(PoisonError::into_inner);
        for (from, row) in shipped.iter().enumerate().take(self.inner.num_nodes) {
            for (to, &sent) in row.iter().enumerate().take(self.inner.num_nodes) {
                if from == to {
                    continue;
                }
                let link = self.inner.link(from, to);
                loop {
                    let ingested = link.ingested.load(Ordering::SeqCst);
                    let settled = link.settled.load(Ordering::SeqCst);
                    if ingested >= sent && settled == ingested {
                        break;
                    }
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(format!(
                            "link {from}→{to} not settled: shipped {sent}, ingested {ingested}, \
                             settled {settled}"
                        ));
                    }
                    settling = self
                        .inner
                        .settled_moved
                        .wait_timeout(settling, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
        Ok(())
    }

    /// Releases every reorder stash (the fence-time flush; the simulator's
    /// network does the same when an epoch closes). Stashed frames touching
    /// a currently failed node are swallowed instead.
    pub fn flush_all(&self) {
        for from in 0..self.inner.num_nodes {
            for to in 0..self.inner.num_nodes {
                if from != to {
                    flush_stash(&self.inner, self.inner.link(from, to));
                }
            }
        }
    }

    /// Stops accepting and ends every inbound connection; a frame already
    /// being processed finishes. Dropping the mesh does the same and joins
    /// the accept threads.
    pub fn shutdown(&self) {
        for listener in &self.listeners {
            listener.close();
        }
    }
}

/// Reads frames off one inbound connection (the sender's mesh stream) and
/// pushes each through the fault plane. A malformed frame ends the
/// connection, as it does at a node.
fn serve_inbound(inner: &MeshInner, link: &Arc<Link>, stream: TcpStream) {
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    while let Ok(frame) = read_frame(&mut reader) {
        process_frame(inner, link, frame);
    }
}

fn process_frame(inner: &MeshInner, link: &Arc<Link>, frame: Bytes) {
    let arrived = Instant::now();
    link.ingested.fetch_add(1, Ordering::SeqCst);
    if inner.touches_failed(link) {
        // Mirrors the simulated network: the failed-node check precedes any
        // fault draw, so the surviving links' RNG streams are unperturbed.
        inner.settle(link);
        return;
    }
    let verdict = inner.plane.roll(link.from, link.to);
    let mut stash = link.stash.lock().unwrap_or_else(PoisonError::into_inner);
    let corrupt = |frame: &mut Bytes, salt| {
        if let Some(corrupted) = corrupt_frame(frame, salt) {
            *frame = corrupted;
        }
    };
    // An extra delay counts from the frame's arrival, so a duplicate's
    // second copy and the released stash go out right behind it.
    apply_verdict(verdict, frame, &mut stash, corrupt, |frame, extra_delay| {
        let wait = (arrived + extra_delay).saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        forward(link, &frame);
    });
    drop(stash);
    inner.settle(link);
}

/// The wire form of the simulator's byzantine bit-flip: decode the
/// replication frame, corrupt one entry's payload with the plane-drawn
/// salt (the same entry `ReplicationBatch::corrupt` picks), re-frame.
fn corrupt_frame(frame: &Bytes, salt: u64) -> Option<Bytes> {
    let (message, _) = WireMessage::decode(frame).ok()?;
    let WireMessage::Replication { from, epoch, entries } = message else {
        return None;
    };
    let mut entries = split_entry_block(&entries).ok()?;
    if entries.is_empty() {
        return None;
    }
    let index = (salt as usize) % entries.len();
    entries[index].corrupt_payload(salt);
    let corrupted = WireMessage::Replication { from, epoch, entries: encode_entry_block(&entries) };
    Some(corrupted.encode())
}

/// Releases the reorder stash in order (each release is a delivery); a
/// link touching a failed node swallows it instead.
fn flush_stash(inner: &MeshInner, link: &Arc<Link>) {
    let mut stash = link.stash.lock().unwrap_or_else(PoisonError::into_inner);
    if stash.is_empty() {
        return;
    }
    let touching_failed = inner.touches_failed(link);
    for frame in stash.drain(..) {
        if !touching_failed {
            forward(link, &frame);
        }
    }
}

/// Writes one frame toward the destination, (re)connecting as needed. A
/// frame that cannot be written is swallowed *without* counting as
/// delivered, so fence barriers never wait for it.
fn forward(link: &Arc<Link>, frame: &Bytes) {
    let mut forward = link.forward.lock().unwrap_or_else(|p| p.into_inner());
    if forward.is_none() {
        *forward = connect_forward(link);
    }
    let wrote = match forward.as_mut() {
        Some(stream) => stream.write_all(frame).and_then(|()| stream.flush()).is_ok(),
        None => false,
    };
    if !wrote {
        // One reconnect: the destination may have just restarted.
        *forward = connect_forward(link);
        let rewrote = match forward.as_mut() {
            Some(stream) => stream.write_all(frame).and_then(|()| stream.flush()).is_ok(),
            None => false,
        };
        if !rewrote {
            // Destination unreachable: swallow, not delivered.
            *forward = None;
            return;
        }
    }
    link.delivered.fetch_add(1, Ordering::SeqCst);
}

fn connect_forward(link: &Arc<Link>) -> Option<TcpStream> {
    let target = link.target.lock().unwrap_or_else(|p| p.into_inner()).clone()?;
    star_proto::connect_with_retry(&target, FORWARD_CONNECT_TIMEOUT).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_net::{FaultVerdict, Message, NetworkConfig, SimNetwork};
    use star_proto::{read_message, replication_frame_encoded};
    use star_replication::{EncodedEntry, LogEntry, Payload};
    use std::io::Read;
    use std::ops::Range;

    /// A little sink server that collects the frames it receives.
    struct Sink {
        addr: String,
        frames: Arc<Mutex<Vec<WireMessage>>>,
        _listener: Listener,
    }

    impl Sink {
        fn start() -> Sink {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let frames: Arc<Mutex<Vec<WireMessage>>> = Arc::default();
            let collected = Arc::clone(&frames);
            let serve = move |stream, _: &Closer| {
                let mut reader = BufReader::new(stream);
                while let Ok(message) = read_message(&mut reader) {
                    collected.lock().unwrap().push(message);
                }
            };
            let listener = Listener::serve(listener, "sink", serve).unwrap();
            Sink { addr, frames, _listener: listener }
        }

        fn received(&self) -> Vec<WireMessage> {
            self.frames.lock().unwrap().clone()
        }
    }

    fn entry(key: u64) -> EncodedEntry {
        let row = star_common::Row::new(vec![star_common::FieldValue::U64(key * 10)]);
        EncodedEntry::from_owned(LogEntry {
            table: 0,
            partition: 0,
            key,
            tid: star_common::Tid::from_raw(key + 1),
            payload: Payload::Value(row),
        })
    }

    fn send_frames(addr: &str, keys: Range<u64>) {
        let mut stream = TcpStream::connect(addr).unwrap();
        for k in keys {
            let frame = replication_frame_encoded(0, 1, &[entry(k)]);
            stream.write_all(&frame.encode()).unwrap();
        }
        stream.flush().unwrap();
    }

    /// The proxy's per-frame verdicts must be exactly the standalone
    /// plane's: same seed, same link, same sequence.
    #[test]
    fn verdict_stream_matches_standalone_plane() {
        let mesh = ProxyMesh::start(2).unwrap();
        mesh.seed(7);
        mesh.set_link_faults(0, 1, LinkFaults::dropping(0.5));
        let sink = Sink::start();
        mesh.set_target(1, &sink.addr);

        let reference = FaultPlane::default();
        reference.seed(7);
        reference.set_link_faults(0, 1, LinkFaults::dropping(0.5));
        let expect_delivered = (0..40)
            .filter(|_| matches!(reference.roll(0, 1), FaultVerdict::Deliver { .. }))
            .count() as u64;

        send_frames(&mesh.proxy_addr(0, 1), 0..40);
        let shipped = vec![vec![0, 40], vec![0, 0]];
        mesh.wait_settled(&shipped, Duration::from_secs(10)).unwrap();
        mesh.flush_all();
        assert_eq!(mesh.delivered(0, 1), expect_delivered);
        assert!(expect_delivered > 0 && expect_delivered < 40, "seed 7 must mix verdicts");
    }

    /// Frames on links touching a failed node are swallowed without
    /// consuming link RNG, so the fault stream resumes exactly.
    #[test]
    fn failed_node_gate_preserves_the_fault_stream() {
        let mesh = ProxyMesh::start(2).unwrap();
        mesh.seed(11);
        mesh.set_link_faults(0, 1, LinkFaults::dropping(0.5));
        let sink = Sink::start();
        mesh.set_target(1, &sink.addr);

        let addr = mesh.proxy_addr(0, 1);
        send_frames(&addr, 0..10);
        mesh.wait_settled(&[vec![0, 10], vec![0, 0]], Duration::from_secs(10)).unwrap();
        let before_failure = mesh.delivered(0, 1);
        mesh.set_node_failed(1, true);
        send_frames(&addr, 0..25);
        mesh.wait_settled(&[vec![0, 35], vec![0, 0]], Duration::from_secs(10)).unwrap();
        assert_eq!(mesh.delivered(0, 1), before_failure, "gated frames must not deliver");
        mesh.set_node_failed(1, false);
        send_frames(&addr, 0..10);
        mesh.wait_settled(&[vec![0, 45], vec![0, 0]], Duration::from_secs(10)).unwrap();

        // Reference: 20 rolls with no gap — the 25 gated frames must not
        // have advanced the RNG.
        let reference = FaultPlane::default();
        reference.seed(11);
        reference.set_link_faults(0, 1, LinkFaults::dropping(0.5));
        let expect = (0..20)
            .filter(|_| matches!(reference.roll(0, 1), FaultVerdict::Deliver { .. }))
            .count() as u64;
        assert_eq!(mesh.delivered(0, 1), expect);
    }

    /// Reordered frames are stashed and released by the fence flush, and a
    /// corrupt verdict re-frames a decodable replication frame.
    #[test]
    fn reorder_stash_flushes_and_corrupt_reframes() {
        let mesh = ProxyMesh::start(2).unwrap();
        mesh.seed(3);
        mesh.set_link_faults(0, 1, LinkFaults::reordering(1.0));
        let sink = Sink::start();
        mesh.set_target(1, &sink.addr);
        send_frames(&mesh.proxy_addr(0, 1), 0..3);
        mesh.wait_settled(&[vec![0, 3], vec![0, 0]], Duration::from_secs(10)).unwrap();
        assert_eq!(mesh.delivered(0, 1), 0, "everything stashed before the flush");
        mesh.flush_all();
        assert_eq!(mesh.delivered(0, 1), 3);
        let deadline = Instant::now() + Duration::from_secs(5);
        while sink.received().len() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(sink.received().len(), 3);

        mesh.clear_faults();
        mesh.set_link_faults(0, 1, LinkFaults::corrupting(1.0));
        send_frames(&mesh.proxy_addr(0, 1), 0..1);
        mesh.wait_settled(&[vec![0, 4], vec![0, 0]], Duration::from_secs(10)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while sink.received().len() < 4 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let received = sink.received();
        let WireMessage::Replication { entries, .. } = &received[3] else {
            panic!("expected a replication frame, got {:?}", received[3]);
        };
        let decoded = split_entry_block(entries).expect("corrupted frame still decodes");
        assert_ne!(
            decoded[0].decode().unwrap().payload,
            entry(0).decode().unwrap().payload,
            "payload must be corrupted"
        );
    }

    /// The replication-frame keys `sink` has received, once it has `count`.
    fn received_keys(sink: &Sink, count: usize) -> Vec<u64> {
        let deadline = Instant::now() + Duration::from_secs(5);
        while sink.received().len() < count && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let keys = sink.received().into_iter().map(|message| {
            let WireMessage::Replication { entries, .. } = message else {
                panic!("expected a replication frame, got {message:?}");
            };
            split_entry_block(&entries).unwrap()[0].decode().unwrap().key
        });
        keys.collect()
    }

    /// A drop releases the reorder stash on the wire as it does in the
    /// simulator: frame 0 is stashed, frame 1 is dropped, and frame 0 goes
    /// out at that drop, before any fence flush.
    #[test]
    fn a_dropped_frame_releases_the_stash_as_in_the_simulator() {
        let mesh = ProxyMesh::start(2).unwrap();
        mesh.seed(5);
        let sink = Sink::start();
        mesh.set_target(1, &sink.addr);
        let addr = mesh.proxy_addr(0, 1);
        mesh.set_link_faults(0, 1, LinkFaults::reordering(1.0));
        send_frames(&addr, 0..1);
        mesh.wait_settled(&[vec![0, 1], vec![0, 0]], Duration::from_secs(10)).unwrap();
        assert_eq!(mesh.delivered(0, 1), 0, "frame 0 is stashed");
        mesh.set_link_faults(0, 1, LinkFaults::dropping(1.0));
        send_frames(&addr, 1..2);
        mesh.wait_settled(&[vec![0, 2], vec![0, 0]], Duration::from_secs(10)).unwrap();
        assert_eq!(mesh.delivered(0, 1), 1, "the drop must release the stashed frame");
        let wire = received_keys(&sink, 1);

        #[derive(Debug, Clone, PartialEq)]
        struct Key(u64);
        impl Message for Key {
            fn wire_size(&self) -> usize {
                8
            }
        }
        let (net, eps) = SimNetwork::new::<Key>(2, NetworkConfig::with_latency(Duration::ZERO));
        net.seed_faults(5);
        net.set_link_faults(0, 1, LinkFaults::reordering(1.0));
        eps[0].send(1, Key(0)).unwrap();
        net.set_link_faults(0, 1, LinkFaults::dropping(1.0));
        eps[0].send(1, Key(1)).unwrap();
        let simulated: Vec<u64> = eps[1].drain().into_iter().map(|Key(key)| key).collect();
        assert_eq!(wire, simulated);
        assert_eq!(wire, vec![0]);
    }

    /// Closing the mesh ends an idle inbound connection, dropping it returns
    /// at once, and the link's port then refuses connections.
    #[test]
    fn shutdown_closes_an_idle_inbound_connection_and_drop_frees_the_port() {
        let mesh = ProxyMesh::start(2).unwrap();
        let addr = mesh.proxy_addr(0, 1);
        let mut idle = TcpStream::connect(&addr).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // One frame, settled, proves the link is serving the connection.
        idle.write_all(&replication_frame_encoded(0, 1, &[entry(0)]).encode()).unwrap();
        mesh.wait_settled(&[vec![0, 1], vec![0, 0]], Duration::from_secs(10)).unwrap();

        mesh.shutdown();
        assert_eq!(idle.read(&mut [0u8; 1]).unwrap(), 0, "the connection must read EOF");
        let started = Instant::now();
        drop(mesh);
        assert!(started.elapsed() < Duration::from_secs(1), "drop took {:?}", started.elapsed());
        let refused = TcpStream::connect(&addr).unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused);
    }
}
