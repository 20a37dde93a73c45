//! Endpoints of the simulated network.

use crate::fault::{self, FaultPlane, LinkFaults};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Anything that can be shipped over the simulated network.
pub trait Message: Send + 'static {
    /// Serialized size of the message in bytes: what the message would
    /// occupy on a real network, which the engines add to their
    /// replication-bytes counters.
    fn wire_size(&self) -> usize;

    /// Corrupts the payload in place (a byzantine bit-flip), as decided by a
    /// [`crate::FaultVerdict::Corrupt`] verdict. `salt` selects which bit to
    /// flip so the mutation is deterministic per seed. Returns `true` if the
    /// payload actually changed; the default implementation leaves the
    /// message untouched and returns `false` (corruption then degrades to a
    /// plain delivery), so only payload types that opt in can be corrupted.
    fn corrupt(&mut self, salt: u64) -> bool {
        let _ = salt;
        false
    }
}

/// Latency model of the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// One-way latency of every link.
    pub latency: Duration,
}

impl NetworkConfig {
    /// A network with the given one-way latency.
    pub fn with_latency(latency: Duration) -> Self {
        NetworkConfig { latency }
    }
}

/// Error returned by [`Endpoint::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The destination node id is not part of the cluster.
    NoSuchNode(usize),
    /// The destination (or the sender itself) has been marked failed.
    NodeFailed(usize),
    /// The destination endpoint has been dropped.
    Disconnected(usize),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            SendError::NodeFailed(n) => write!(f, "node {n} is marked failed"),
            SendError::Disconnected(n) => write!(f, "node {n} endpoint disconnected"),
        }
    }
}

impl std::error::Error for SendError {}

/// The wall clock the latency model runs on: a send stamps its message with
/// a delivery deadline, and [`Endpoint::drain`] waits until it has passed.
fn now() -> Instant {
    // star-lint: allow(determinism::instant-now) -- configured latency is real time; fault rolls and delivery order never read it
    Instant::now()
}

/// A message in flight and the instant it may be delivered.
type InFlight<M> = (M, Instant);

/// Shared state of a simulated cluster network.
///
/// Construction hands out one [`Endpoint`] per node; the `SimNetwork` handle
/// itself is kept by the engine driver for failure and fault injection.
#[derive(Debug)]
pub struct SimNetwork {
    failed: Arc<Vec<AtomicBool>>,
    faults: Arc<FaultPlane>,
}

impl SimNetwork {
    /// Creates a network of `num_nodes` nodes, returning the shared handle
    /// and one endpoint per node (in node-id order).
    pub fn new<M: Message>(num_nodes: usize, config: NetworkConfig) -> (Self, Vec<Endpoint<M>>) {
        let failed: Arc<Vec<AtomicBool>> =
            Arc::new((0..num_nodes).map(|_| AtomicBool::new(false)).collect());
        let faults = Arc::new(FaultPlane::default());
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..num_nodes).map(|_| unbounded()).unzip();
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(node, receiver)| Endpoint {
                node,
                latency: config.latency,
                senders: senders.clone(),
                receiver,
                failed: Arc::clone(&failed),
                faults: Arc::clone(&faults),
                stashes: (0..num_nodes).map(|_| Mutex::default()).collect(),
            })
            .collect();
        (SimNetwork { failed, faults }, endpoints)
    }

    /// Marks a node as failed: subsequent sends to or from it fail, modelling
    /// a crashed process or a partitioned machine.
    pub fn fail_node(&self, node: usize) {
        if let Some(flag) = self.failed.get(node) {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Clears the failure flag of a node (the node has been repaired and is
    /// rejoining the cluster).
    pub fn heal_node(&self, node: usize) {
        if let Some(flag) = self.failed.get(node) {
            flag.store(false, Ordering::SeqCst);
        }
    }

    /// Whether a node is currently marked failed.
    pub fn is_failed(&self, node: usize) -> bool {
        self.failed.get(node).map(|f| f.load(Ordering::SeqCst)).unwrap_or(false)
    }

    /// Re-seeds the fault plane's per-link RNGs. Call before (re)configuring
    /// faults so a run's fault decisions reproduce from the seed alone.
    pub fn seed_faults(&self, seed: u64) {
        self.faults.seed(seed);
    }

    /// Applies `faults` to every link without a per-link override.
    pub fn set_default_link_faults(&self, faults: LinkFaults) {
        self.faults.set_default_faults(faults);
    }

    /// Applies `faults` to the directed link `from → to`, overriding the
    /// default.
    pub fn set_link_faults(&self, from: usize, to: usize, faults: LinkFaults) {
        self.faults.set_link_faults(from, to, faults);
    }

    /// Removes every fault configuration (defaults, per-link overrides and
    /// cut links). Per-link RNG state is kept so a later re-enable continues
    /// the deterministic stream.
    pub fn clear_link_faults(&self) {
        self.faults.clear_faults();
    }

    /// Cuts the (bidirectional) link between `a` and `b`: messages in either
    /// direction are silently lost, modelling a network partition between the
    /// two nodes.
    pub fn cut_link(&self, a: usize, b: usize) {
        self.faults.cut_link(a, b);
    }

    /// Restores a previously cut link.
    pub fn heal_link(&self, a: usize, b: usize) {
        self.faults.heal_link(a, b);
    }

    /// Whether the directed link `from → to` is currently cut.
    pub fn is_link_cut(&self, from: usize, to: usize) -> bool {
        self.faults.is_link_cut(from, to)
    }
}

/// One node's handle onto the simulated network.
#[derive(Debug)]
pub struct Endpoint<M> {
    node: usize,
    latency: Duration,
    senders: Vec<Sender<InFlight<M>>>,
    receiver: Receiver<InFlight<M>>,
    failed: Arc<Vec<AtomicBool>>,
    faults: Arc<FaultPlane>,
    /// Messages held back by reorder faults, one stash per destination. A
    /// stashed message is released behind the next message on its link that
    /// is not stashed too, delivered or dropped (so it is overtaken), or by
    /// [`Endpoint::flush_stash`].
    stashes: Vec<Mutex<Vec<InFlight<M>>>>,
}

impl<M: Message> Endpoint<M> {
    /// The node id this endpoint belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.senders.len()
    }

    fn node_failed(&self, node: usize) -> bool {
        self.failed.get(node).map(|f| f.load(Ordering::SeqCst)).unwrap_or(false)
    }

    /// Sends a message to `to` through the fault plane; it may be delivered
    /// one latency from now.
    pub fn send(&self, to: usize, payload: M) -> Result<(), SendError>
    where
        M: Clone,
    {
        let (Some(sender), Some(stash)) = (self.senders.get(to), self.stashes.get(to)) else {
            return Err(SendError::NoSuchNode(to));
        };
        if self.node_failed(self.node) {
            return Err(SendError::NodeFailed(self.node));
        }
        if self.node_failed(to) {
            return Err(SendError::NodeFailed(to));
        }
        let verdict = self.faults.roll(self.node, to);
        let mut disconnected = false;
        fault::apply_verdict(
            verdict,
            (payload, now() + self.latency),
            &mut stash.lock().unwrap(),
            |(payload, _), salt| {
                payload.corrupt(salt);
            },
            |(payload, due), extra_delay| {
                disconnected |= sender.send((payload, due + extra_delay)).is_err();
            },
        );
        if disconnected {
            Err(SendError::Disconnected(to))
        } else {
            Ok(())
        }
    }

    /// Releases every message held back by reorder faults. The replication
    /// fence calls this on every endpoint before draining receivers, so the
    /// fence's "apply all outstanding writes" guarantee holds even under
    /// reorder faults.
    pub fn flush_stash(&self) {
        // Destination order keeps the flush deterministic.
        for (sender, stash) in self.senders.iter().zip(&self.stashes) {
            for in_flight in stash.lock().unwrap().drain(..) {
                let _ = sender.send(in_flight);
            }
        }
    }

    /// Takes every queued message, in arrival order, waiting until each is
    /// due: one latency after its send, plus any fault-plane delay.
    pub fn drain(&self) -> Vec<M> {
        std::iter::from_fn(|| self.receiver.try_recv().ok())
            .map(|(payload, due)| {
                let wait = due.saturating_duration_since(now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                payload
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct TestMsg(u64);

    impl Message for TestMsg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    fn cluster(n: usize) -> (SimNetwork, Vec<Endpoint<TestMsg>>) {
        SimNetwork::new(n, NetworkConfig::with_latency(Duration::ZERO))
    }

    #[test]
    fn point_to_point_delivery() {
        let (_net, eps) = cluster(3);
        eps[0].send(1, TestMsg(42)).unwrap();
        assert_eq!(eps[1].drain(), vec![TestMsg(42)]);
        assert!(eps[2].drain().is_empty());
    }

    #[test]
    fn failed_nodes_reject_traffic() {
        let (net, eps) = cluster(3);
        net.fail_node(1);
        assert!(net.is_failed(1));
        assert_eq!(eps[0].send(1, TestMsg(1)), Err(SendError::NodeFailed(1)));
        assert_eq!(eps[1].send(0, TestMsg(1)), Err(SendError::NodeFailed(1)));
        net.heal_node(1);
        assert!(eps[0].send(1, TestMsg(1)).is_ok());
        assert_eq!(eps[1].drain(), vec![TestMsg(1)]);
    }

    #[test]
    fn send_to_unknown_node_errors() {
        let (_net, eps) = cluster(2);
        assert_eq!(eps[0].send(5, TestMsg(1)), Err(SendError::NoSuchNode(5)));
    }

    #[test]
    fn latency_is_enforced_on_delivery() {
        let config = NetworkConfig::with_latency(Duration::from_millis(5));
        let (_net, eps) = SimNetwork::new::<TestMsg>(2, config);
        let start = Instant::now();
        eps[0].send(1, TestMsg(1)).unwrap();
        assert_eq!(eps[1].drain(), vec![TestMsg(1)]);
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn drain_empties_the_queue() {
        let (_net, eps) = cluster(2);
        for i in 0..5 {
            eps[0].send(1, TestMsg(i)).unwrap();
        }
        // FIFO order per link.
        assert_eq!(eps[1].drain(), (0..5).map(TestMsg).collect::<Vec<_>>());
        assert!(eps[1].drain().is_empty());
    }
}
