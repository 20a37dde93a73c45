//! One node of the TCP deployment.
//!
//! A [`NodeServer`] is the wire-facing shell around one [`StarNode`], the
//! node type the simulated engine is N of: the replica, the worker states,
//! the phase jobs with their takeover catch-up, the node's half of the fence
//! and both halves of the recovery copy are the node's. The shell is a
//! listener, one thread per connection, an inbox of replication batches with
//! the fence barrier that drains it, the epoch checks every phase and fence
//! request passes, and the admin queries.
//!
//! A serving node keeps nothing per transaction that nobody asked for: the
//! committed-history recorder is attached only when the bootstrap says
//! `record_history = true` (or through [`NodeServer::start_with_history`]).
//! And what waits, blocks on what it waits for: the listener in `accept()`,
//! a connection in its read, a fence on the condition variable the arriving
//! replication signals, [`NodeServer::wait`] on the shutdown latch. Shutting
//! down closes the [`Listener`], which ends every connection's read at once.
//!
//! ## The connection state machine
//!
//! Every connection speaks frames. Three frame kinds drive a connection:
//!
//! * `Hello` → the node replies `HelloAck` (role is informational);
//! * `Replication` → the batch is appended to the inbox, the per-sender
//!   arrival count bumps and waiting fences are woken; no response (one-way
//!   stream);
//! * `Request` → handled, and a `Response` with the same correlation id is
//!   written back. `Run` makes the receiving node drive its own cluster
//!   through a [`ClusterDriver`](crate::coordinator::ClusterDriver) — the one
//!   the last `Run` attached, kept between `Run`s; concurrent `Run`s take
//!   turns.
//!
//! ## The fence barrier
//!
//! A `Fence { epoch, expected, failed }` request carries, for every sender
//! `s`, the cumulative number of batches `s` has shipped to this node, plus
//! the coordinator's current failure picture. The fence waits until the
//! arrival counts catch up, then runs what the simulated engine's fence runs
//! over the node's own [`EpochState`]: `open_fence` (a *newly* failed node
//! makes it revert the in-flight epoch; the election re-runs),
//! [`StarNode::fence`] over the inbox in arrival order (disjoint partitions
//! in the partitioned phase and the Thomas write rule in the single-master
//! phase make cross-link order irrelevant), the epoch's history finalized,
//! `close_fence`.
//!
//! ## Failover and restart
//!
//! `RunPhase` carries the cluster's attempt baselines, to which the node's
//! `partition_jobs` / `master_jobs` catch a worker up — the path a failover
//! takes in the simulator too. The cluster driver's `rejoin` brings a
//! restarted process back with `FetchPartition` / `InstallRecords` page by
//! page (the node's `copy_partition` / `install`) and `Rejoin` (the driver's
//! [`EpochState`] plus the replication counter rebase); `Recovered` then
//! clears the node from every live node's failure picture.

use crate::bootstrap::Bootstrap;
use crate::coordinator::ClusterDriver;
use crate::transport::TcpMesh;
use star_common::{ClusterConfig, Epoch, Error, NodeId, PartitionId, ReplicationMode, Result};
use star_core::exec::PhaseBudget;
use star_core::failure::EpochState;
use star_core::history::HistoryRecorder;
use star_core::messages::ReplicationBatch;
use star_core::node::{CopiedRecord, StarNode};
use star_core::workload::Workload;
use star_proto::{
    read_message, write_message, AdminQuery, Closer, Listener, Request, Response, WireElection,
    WireMessage, WirePhase, WireRecord, WireStatus, WireTxn,
};
use star_storage::{Database, ReadResult};
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long a fence waits for in-flight replication before giving up.
const FENCE_TIMEOUT: Duration = Duration::from_secs(60);

/// The node's protocol state behind one mutex: its epoch clock (as told by
/// fences) and its [`StarNode`]. A phase runs its jobs one after another,
/// exactly like the engine's stepped driver.
struct NodeState {
    clock: EpochState,
    star: StarNode<TcpMesh>,
}

/// Replication that arrived and has not been fenced yet, together with what
/// the fence barrier waits on — under one mutex, so a fence can sleep on
/// [`NodeInner::arrived`] until a count moves.
struct Inbox {
    batches: Vec<ReplicationBatch>,
    /// Cumulative batches received from each sender (index = node id).
    received: Vec<u64>,
}

/// Shared state of one node, owned by every connection thread. Locks nest
/// `runs` → `node` → `inbox` (lock-order.manifest).
pub(crate) struct NodeInner {
    pub(crate) id: NodeId,
    pub(crate) config: ClusterConfig,
    pub(crate) addrs: Vec<String>,
    node: Mutex<NodeState>,
    /// Held for a whole `Run` (see `coordinator::run_cluster`): concurrent
    /// `Run`s take turns instead of interleaving phases of one epoch. Between
    /// `Run`s it keeps the driver the last successful one used, so the next
    /// reuses its connections instead of attaching afresh.
    pub(crate) runs: Mutex<Option<ClusterDriver>>,
    inbox: Mutex<Inbox>,
    /// Signalled, under the inbox lock, whenever a batch arrives.
    arrived: Condvar,
    /// The shutdown latch: set once, and what [`NodeServer::wait`] parks on.
    stopped: Mutex<bool>,
    stopped_signal: Condvar,
}

/// A running node: its listener plus shared state.
pub struct NodeServer {
    inner: Arc<NodeInner>,
    listener: Listener,
    addr: String,
}

impl std::fmt::Debug for NodeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeServer")
            .field("node", &self.inner.id)
            .field("addr", &self.addr)
            .finish()
    }
}

/// A commutative digest of a replica: per-record FNV-1a over the canonical
/// encoding of `(table, partition, key, tid, row)`, combined with wrapping
/// addition so iteration order does not matter. Two replicas holding the
/// same partitions digest equal iff they hold identical versions.
pub fn replica_digest(db: &Database) -> (u64, u64) {
    let mut record_count = 0u64;
    let mut acc = 0u64;
    db.for_each_record(|table, partition, key, record| {
        let ReadResult { row, tid } = record.read();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for &byte in bytes {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        feed(&table.to_le_bytes());
        feed(&(partition as u64).to_le_bytes());
        feed(&key.to_le_bytes());
        feed(&tid.raw().to_le_bytes());
        // A stored row is its canonical encoding: hashed in place.
        feed(row.as_bytes());
        acc = acc.wrapping_add(hash);
        record_count += 1;
    });
    (record_count, acc)
}

impl NodeServer {
    /// Binds node `id`'s configured address and starts serving.
    pub fn start(boot: &Bootstrap, id: NodeId) -> Result<NodeServer> {
        let addr =
            boot.addrs.get(id).ok_or_else(|| Error::Config(format!("no address for node {id}")))?;
        let listener = TcpListener::bind(addr.as_str())
            .map_err(|e| Error::Config(format!("cannot bind {addr}: {e}")))?;
        Self::start_on(listener, boot, id)
    }

    /// Starts serving on an already-bound listener (tests bind ephemeral
    /// ports first, then pass the real addresses in via `boot.addrs`).
    pub fn start_on(listener: TcpListener, boot: &Bootstrap, id: NodeId) -> Result<NodeServer> {
        let (config, addrs) = (boot.config.clone(), boot.addrs.clone());
        Self::start_node(listener, config, addrs, Arc::new(boot.ycsb()), id, boot.record_history)
    }

    /// Starts serving with an explicit config, address book and workload —
    /// the general constructor for cluster shapes the bootstrap grammar
    /// cannot express. No history is recorded: `AdminQuery::History` is
    /// refused with a typed error.
    pub fn start_with(
        listener: TcpListener,
        config: ClusterConfig,
        addrs: Vec<String>,
        workload: Arc<dyn Workload>,
        id: NodeId,
    ) -> Result<NodeServer> {
        Self::start_node(listener, config, addrs, workload, id, false)
    }

    /// [`start_with`](Self::start_with), with a committed-history recorder
    /// attached — what `record_history = true` does for a bootstrap file, for
    /// the harnesses (wire-chaos) that read every node's history back.
    pub fn start_with_history(
        listener: TcpListener,
        config: ClusterConfig,
        addrs: Vec<String>,
        workload: Arc<dyn Workload>,
        id: NodeId,
    ) -> Result<NodeServer> {
        Self::start_node(listener, config, addrs, workload, id, true)
    }

    fn start_node(
        listener: TcpListener,
        config: ClusterConfig,
        addrs: Vec<String>,
        workload: Arc<dyn Workload>,
        id: NodeId,
        record_history: bool,
    ) -> Result<NodeServer> {
        config.validate().map_err(Error::Config)?;
        if config.replication_mode == ReplicationMode::Sync {
            return Err(Error::Config(
                "ReplicationMode::Sync waits for replica acknowledgements, and the wire has no \
                 replica acknowledgements yet"
                    .to_string(),
            ));
        }
        let fallback_addr = addrs.get(id).cloned().unwrap_or_default();
        let mesh = TcpMesh::new(id, addrs.clone());
        let mut star = StarNode::new(&config, workload, id, mesh, Arc::default());
        star.set_history(record_history.then(|| Arc::new(HistoryRecorder::new())));
        let inner = Arc::new(NodeInner {
            id,
            config: config.clone(),
            addrs,
            node: Mutex::new(NodeState { clock: EpochState::new(&config), star }),
            runs: Mutex::new(None),
            inbox: Mutex::new(Inbox { batches: Vec::new(), received: vec![0; config.num_nodes] }),
            arrived: Condvar::new(),
            stopped: Mutex::new(false),
            stopped_signal: Condvar::new(),
        });
        let addr = listener.local_addr().map(|a| a.to_string()).unwrap_or(fallback_addr);
        let conn_inner = Arc::clone(&inner);
        let handler = move |stream, closer: &Closer| connection_loop(stream, &conn_inner, closer);
        let listener = Listener::serve(listener, &format!("star-serverd-{id}"), handler)
            .map_err(|e| Error::Config(format!("spawn listener: {e}")))?;
        Ok(NodeServer { inner, listener, addr })
    }

    /// The address the node is actually listening on.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Shuts the node down: sets the latch [`wait`](Self::wait) parks on,
    /// and closes the listener and every connection it serves.
    pub fn shutdown(&self) {
        self.inner.shutdown();
        self.listener.close();
    }

    /// Whether a shutdown has been requested (over the wire or locally).
    pub fn is_shutdown(&self) -> bool {
        self.inner.is_shutdown()
    }

    /// Blocks until the node has been shut down.
    pub fn wait(&self) {
        let stopped = lock(&self.inner.stopped);
        let _stopped = self
            .inner
            .stopped_signal
            .wait_while(stopped, |stopped| !*stopped)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

impl Drop for NodeServer {
    /// Shuts down; dropping the listener then joins its accept thread.
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A mutex whose data every update leaves valid is still good after a
/// holder panicked.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serves one connection until its peer hangs up, it sends something a
/// server never expects, or the node shuts down.
fn connection_loop(stream: TcpStream, inner: &NodeInner, closer: &Closer) {
    let mut reader = BufReader::with_capacity(64 * 1024, &stream);
    let mut writer = &stream;
    while let Ok(message) = read_message(&mut reader) {
        // A shut-down socket still hands over what was already buffered.
        if inner.is_shutdown() {
            break;
        }
        match message {
            WireMessage::Hello { .. } => {
                let ack = WireMessage::HelloAck {
                    node: inner.id as u32,
                    num_nodes: inner.config.num_nodes as u32,
                };
                if write_message(&mut writer, &ack).is_err() {
                    break;
                }
            }
            WireMessage::HelloAck { .. } | WireMessage::Response { .. } => {
                // A server never expects these; drop the connection rather
                // than guess what the peer is.
                break;
            }
            WireMessage::Replication { from, epoch, entries } => {
                // Split the received block into zero-copy per-entry slices;
                // decoding a payload happens once, at fence apply time.
                let Ok(split) = star_replication::split_entry_block(&entries) else { break };
                let from = from as usize;
                let mut inbox_guard = lock(&inner.inbox);
                let Some(received) = inbox_guard.received.get_mut(from) else { break };
                *received += 1;
                inbox_guard.batches.push(ReplicationBatch {
                    from_node: from,
                    epoch,
                    entries: split,
                });
                inner.arrived.notify_all();
            }
            WireMessage::Request { id, body } => {
                // A shutdown is acknowledged before it happens: once the
                // latch is set, `wait` returns and the process may exit.
                let stop = matches!(body, Request::Shutdown);
                let written = answer(&mut writer, id, handle_request(inner, body));
                if stop {
                    inner.shutdown();
                    closer.close();
                }
                if written.is_err() {
                    break;
                }
            }
        }
    }
}

/// Writes `response` as the answer to request `id`. A response too large
/// for one frame is answered with a [`Response::Error`] saying so, so the
/// caller gets a typed answer instead of a dropped connection.
fn answer(stream: &mut impl Write, id: u64, response: Response) -> io::Result<()> {
    match write_message(stream, &WireMessage::Response { id, body: response }) {
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => write_message(
            stream,
            &WireMessage::Response { id, body: Response::Error(e.to_string()) },
        ),
        written => written,
    }
}

fn handle_request(inner: &NodeInner, request: Request) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Get { table, partition, key } => handle_get(inner, table, partition as usize, key),
        Request::Run { iterations, partitioned_txns, single_master_txns } => {
            if inner.id != inner.config.master_node() {
                return Response::Error(format!(
                    "node {} is not the coordinator (node {})",
                    inner.id,
                    inner.config.master_node()
                ));
            }
            match crate::coordinator::run_cluster(
                inner,
                iterations,
                partitioned_txns,
                single_master_txns,
            ) {
                Ok((committed, epochs)) => Response::RunDone { committed, epochs },
                Err(message) => Response::Error(message),
            }
        }
        Request::RunPhase { phase, epoch, txns, baselines, failed } => {
            handle_run_phase(inner, phase, epoch, txns, &baselines, &failed)
                .unwrap_or_else(Response::Error)
        }
        Request::Fence { epoch, expected, failed } => {
            handle_fence(inner, epoch, &expected, &failed).unwrap_or_else(Response::Error)
        }
        Request::FetchPartition { partition, start } => {
            let copy = inner.lock_node().star.copy_partition(partition as PartitionId);
            copy.map_or_else(error, |records| Response::Records(WireRecord::page(records, start)))
        }
        Request::InstallRecords { records } => {
            let records = records.into_iter().map(CopiedRecord::from).collect();
            let installed = inner.lock_node().star.install(records);
            installed.map_or_else(error, |installed| Response::InstallDone { installed })
        }
        Request::Rejoin { epoch, last_committed, failed, elections, recv_base } => {
            handle_rejoin(inner, epoch, last_committed, &failed, elections, &recv_base)
                .unwrap_or_else(Response::Error)
        }
        Request::Recovered { node } => match failed_flags(inner.config.num_nodes, &[node]) {
            Ok(_) => {
                inner.lock_node().clock.mark_recovered(node as NodeId);
                Response::Ok
            }
            Err(message) => Response::Error(message),
        },
        Request::Admin(query) => handle_admin(inner, query),
        // `connection_loop` stops the node once this answer is written.
        Request::Shutdown => Response::Ok,
    }
}

/// A node-side error, answered as [`Response::Error`].
fn error(e: Error) -> Response {
    Response::Error(e.to_string())
}

fn handle_get(inner: &NodeInner, table: u32, partition: PartitionId, key: u64) -> Response {
    if partition >= inner.config.partitions {
        return Response::Error(format!("no such partition {partition}"));
    }
    let node = inner.lock_node();
    let db = node.star.db();
    if !db.holds(partition) {
        return Response::Error(format!("node {} does not hold partition {partition}", inner.id));
    }
    match db.get(table, partition, key) {
        Ok(record) => {
            // The wire's record carries the row's fields.
            let result = record.read();
            Response::Record { tid: result.tid.raw(), row: Some(result.row.unpack()) }
        }
        Err(_) => Response::Record { tid: 0, row: None },
    }
}

/// What checking a request's input yields; the `Err` is answered as
/// [`Response::Error`].
type Checked<T> = std::result::Result<T, String>;

/// Expands the wire's failed-node-id list into per-node flags. An id the
/// cluster does not have is the sender's mistake, not a node to ignore.
fn failed_flags(num_nodes: usize, failed_ids: &[u32]) -> Checked<Vec<bool>> {
    let mut flags = vec![false; num_nodes];
    for &id in failed_ids {
        *flags.get_mut(id as usize).ok_or_else(|| {
            format!("failed node {id} does not exist in a cluster of {num_nodes}")
        })? = true;
    }
    Ok(flags)
}

/// Refuses a `what` request for `epoch` at a node whose clock reads `current`.
fn check_epoch(node: NodeId, what: &str, epoch: Epoch, current: Epoch) -> Checked<()> {
    if epoch == current {
        return Ok(());
    }
    Err(format!("{what} for epoch {epoch} but node {node} is at epoch {current}"))
}

fn handle_run_phase(
    inner: &NodeInner,
    phase: WirePhase,
    epoch: Epoch,
    txns: u64,
    baselines: &[u64],
    failed_ids: &[u32],
) -> Checked<Response> {
    let failed = failed_flags(inner.config.num_nodes, failed_ids)?;
    let mut node = inner.lock_node();
    check_epoch(inner.id, "phase", epoch, node.clock.epoch())?;
    let NodeState { clock, star } = &mut *node;
    let jobs = match phase {
        WirePhase::Partitioned => star.partition_jobs(clock, &failed, baselines),
        WirePhase::SingleMaster => star.master_jobs(clock, &failed, baselines),
    };
    let committed = jobs.into_iter().map(|job| job.run(PhaseBudget::Count(txns)).committed).sum();
    // One write per link for the whole phase. A link that cannot be written
    // is what a failed send is to the jobs: its frames are not counted as
    // sent, so no fence waits for them.
    let _ = star.transport().flush();
    Ok(Response::PhaseDone { committed, sent: star.transport().sent_counts() })
}

impl NodeInner {
    fn lock_node(&self) -> MutexGuard<'_, NodeState> {
        lock(&self.node)
    }

    /// The epoch the node's clock reads.
    pub(crate) fn epoch(&self) -> Epoch {
        self.lock_node().clock.epoch()
    }

    fn is_shutdown(&self) -> bool {
        *lock(&self.stopped)
    }

    /// Sets the shutdown latch and wakes [`NodeServer::wait`].
    fn shutdown(&self) {
        *lock(&self.stopped) = true;
        self.stopped_signal.notify_all();
    }
}

fn handle_fence(
    inner: &NodeInner,
    epoch: Epoch,
    expected: &[u64],
    failed_ids: &[u32],
) -> Checked<Response> {
    let num_nodes = inner.config.num_nodes;
    if expected.len() != num_nodes {
        return Err(format!("fence expects {num_nodes} sender counts, got {}", expected.len()));
    }
    let failed = failed_flags(num_nodes, failed_ids)?;
    // A fence for another epoch must be refused before the barrier: its
    // counts may never arrive, and the wait would pin this thread.
    check_epoch(inner.id, "fence", epoch, inner.epoch())?;
    // Barrier: block until everything the senders shipped before the fence
    // has arrived; every arriving batch signals `arrived`. Counts are
    // cumulative, so a stale fence can never block on traffic that already
    // passed.
    let behind = |inbox: &mut Inbox| {
        let mut senders = inbox.received.iter().zip(expected).enumerate();
        senders.any(|(s, (received, expected))| s != inner.id && received < expected)
    };
    let (inbox_guard, wait) = inner
        .arrived
        .wait_timeout_while(lock(&inner.inbox), FENCE_TIMEOUT, behind)
        .unwrap_or_else(PoisonError::into_inner);
    drop(inbox_guard);
    if wait.timed_out() {
        return Err(format!("fence for epoch {epoch} timed out waiting for replication"));
    }

    let mut node = inner.lock_node();
    // Again under the lock: another fence may have closed the epoch meanwhile.
    check_epoch(inner.id, "fence", epoch, node.clock.epoch())?;
    let NodeState { clock, star } = &mut *node;
    let reverting = clock.open_fence(&inner.config, &failed);
    let batches = std::mem::take(&mut lock(&inner.inbox).batches);
    let (applied, _) = star.fence(clock, reverting, batches, |_| true);
    if let Some(history) = star.history() {
        history.finalize_epoch(epoch, !reverting);
    }
    clock.close_fence();
    Ok(Response::FenceDone { epoch, applied })
}

/// Rebases a freshly restarted node onto the cluster's current epoch,
/// failure picture, election log and replication counters, completing a
/// supervisor-driven restart.
fn handle_rejoin(
    inner: &NodeInner,
    epoch: Epoch,
    last_committed: Epoch,
    failed_ids: &[u32],
    elections: Vec<WireElection>,
    recv_base: &[u64],
) -> Checked<Response> {
    let num_nodes = inner.config.num_nodes;
    if recv_base.len() != num_nodes {
        return Err(format!(
            "rejoin expects {num_nodes} receive counters, got {}",
            recv_base.len()
        ));
    }
    let failed = failed_flags(num_nodes, failed_ids)?;
    let elections = elections.into_iter().map(WireElection::to_election).collect();
    inner.lock_node().clock = EpochState::resume(epoch, last_committed, failed, elections)
        .map_err(|e| format!("rejoin refused: {e}"))?;
    let mut inbox_guard = lock(&inner.inbox);
    inbox_guard.received.copy_from_slice(recv_base);
    inbox_guard.batches.clear();
    inner.arrived.notify_all();
    Ok(Response::Ok)
}

fn handle_admin(inner: &NodeInner, query: AdminQuery) -> Response {
    let node = inner.lock_node();
    match query {
        AdminQuery::Status => {
            let (elected, generation) =
                node.clock.elections().last().map_or((None, 0), |e| (e.master, e.generation));
            Response::Status(WireStatus {
                node: inner.id as u32,
                epoch: node.clock.epoch(),
                last_committed: node.clock.last_committed(),
                master: elected.map(|m| m as i64).unwrap_or(-1),
                generation,
                committed: node.star.counters().snapshot().committed,
                full_replica: node.star.db().is_full_replica(),
            })
        }
        AdminQuery::Elections => Response::Elections(
            node.clock.elections().iter().map(WireElection::from_election).collect(),
        ),
        AdminQuery::History => match node.star.history() {
            Some(history) => {
                Response::History(history.committed().iter().map(WireTxn::from_committed).collect())
            }
            // Not an empty list, which would read as "nothing committed".
            None => Response::Error(format!(
                "history recording is off on node {}; boot it with `record_history = true` \
                 under [cluster]",
                inner.id
            )),
        },
        AdminQuery::ReplicaDigest => {
            let (records, digest) = replica_digest(node.star.db());
            Response::Digest { records, digest }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::Bootstrap;
    use star_common::row::row;
    use star_common::{FieldValue, Tid};
    use star_core::cluster::build_replica;
    use star_proto::{Conn, Role};
    use std::time::Instant;

    fn test_bootstrap(nodes: usize) -> (Vec<TcpListener>, Bootstrap) {
        let listeners: Vec<TcpListener> =
            (0..nodes).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
        let addrs: Vec<String> =
            listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
        let text = format!(
            "[cluster]\nnodes = [{}]\nfull_replicas = 1\nworkers_per_node = 1\n\
             partitions = 4\nseed = 9\n\n[workload]\nrows_per_partition = 32\n\
             ops_per_transaction = 4\nread_pct = 80.0\ncross_partition_pct = 10.0\n",
            addrs.iter().map(|a| format!("\"{a}\"")).collect::<Vec<_>>().join(", ")
        );
        (listeners, Bootstrap::parse(&text).expect("bootstrap parses"))
    }

    #[test]
    fn ping_get_and_shutdown_over_tcp() {
        let (mut listeners, boot) = test_bootstrap(1);
        let server = NodeServer::start_on(listeners.remove(0), &boot, 0).expect("start");
        let mut conn = Conn::connect(server.local_addr(), Role::Client, 0).expect("connect");
        assert_eq!((conn.node(), conn.num_nodes()), (0, 1));
        let mut request = |body| conn.request(body).expect("request");

        assert_eq!(request(Request::Ping), Response::Pong);

        // Row 0 of partition 0 was loaded by the workload.
        let key = star_workloads::ycsb::ycsb_key(0, 0);
        match request(Request::Get { table: 0, partition: 0, key }) {
            Response::Record { row: Some(_), .. } => {}
            other => panic!("expected a loaded row, got {other:?}"),
        }
        // A key that was never loaded is absent, not an error.
        match request(Request::Get { table: 0, partition: 0, key: u64::MAX }) {
            Response::Record { tid: 0, row: None } => {}
            other => panic!("expected absent row, got {other:?}"),
        }

        assert_eq!(request(Request::Shutdown), Response::Ok);
        server.wait();
    }

    #[test]
    fn only_a_node_asked_to_record_history_holds_a_recorder() {
        let (mut listeners, mut boot) = test_bootstrap(2);
        let workload: Arc<dyn Workload> = Arc::new(boot.ycsb());
        let general = NodeServer::start_with(
            listeners.remove(0),
            boot.config.clone(),
            boot.addrs.clone(),
            workload,
            0,
        )
        .expect("start");
        assert!(general.inner.lock_node().star.history().is_none(), "start_with means no recorder");
        boot.record_history = true;
        let recording = NodeServer::start_on(listeners.remove(0), &boot, 1).expect("start");
        let recorder = recording.inner.lock_node().star.history().is_some();
        assert!(recorder, "record_history = true attaches one");
    }

    #[test]
    fn status_reports_initial_election() {
        let (mut listeners, boot) = test_bootstrap(1);
        let server = NodeServer::start_on(listeners.remove(0), &boot, 0).expect("start");
        let mut conn = Conn::connect(server.local_addr(), Role::Admin, 0).expect("connect");
        match conn.request(Request::Admin(AdminQuery::Status)).expect("status") {
            Response::Status(status) => {
                assert_eq!(status.node, 0);
                assert_eq!(status.epoch, 1);
                assert_eq!(status.last_committed, 0);
                assert_eq!(status.master, 0);
                assert_eq!(status.generation, 0);
                assert!(status.full_replica);
            }
            other => panic!("unexpected {other:?}"),
        }
        match conn.request(Request::Admin(AdminQuery::Elections)).expect("elections") {
            Response::Elections(log) => {
                assert_eq!(log, vec![WireElection { epoch: 0, master: 0, generation: 0 }]);
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    /// Node 0 of a two-node cluster (the peer is never started), one request.
    fn node_zero_of_two() -> (NodeServer, Conn) {
        let (mut listeners, boot) = test_bootstrap(2);
        let server = NodeServer::start_on(listeners.remove(0), &boot, 0).expect("start");
        let conn = Conn::connect(server.local_addr(), Role::Coordinator, 0).expect("connect");
        (server, conn)
    }

    fn epoch_of(conn: &mut Conn) -> Epoch {
        match conn.request(Request::Admin(AdminQuery::Status)).expect("status") {
            Response::Status(status) => status.epoch,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fence_for_the_wrong_epoch_is_refused_before_the_barrier() {
        let (_server, mut conn) = node_zero_of_two();
        let started = Instant::now();
        let fence = Request::Fence { epoch: 2, expected: vec![u64::MAX; 2], failed: Vec::new() };
        assert!(matches!(conn.request(fence), Ok(Response::Error(_))));
        assert!(started.elapsed() < Duration::from_secs(1), "the fence waited for the barrier");
    }

    #[test]
    fn failed_node_ids_the_cluster_does_not_have_are_refused() {
        let (_server, mut conn) = node_zero_of_two();
        let fence = Request::Fence { epoch: 1, expected: vec![0; 2], failed: vec![99] };
        assert!(matches!(conn.request(fence), Ok(Response::Error(_))));
        let phase = Request::RunPhase {
            phase: WirePhase::Partitioned,
            epoch: 1,
            txns: 1,
            baselines: Vec::new(),
            failed: vec![2],
        };
        assert!(matches!(conn.request(phase), Ok(Response::Error(_))));
        assert!(matches!(conn.request(Request::Recovered { node: 2 }), Ok(Response::Error(_))));
        assert_eq!(epoch_of(&mut conn), 1, "a refused fence must not close the epoch");
    }

    #[test]
    fn rejoin_with_an_impossible_clock_is_refused() {
        let (_server, mut conn) = node_zero_of_two();
        let rejoin = Request::Rejoin {
            epoch: 3,
            last_committed: 3,
            failed: Vec::new(),
            elections: vec![WireElection { epoch: 0, master: 0, generation: 0 }],
            recv_base: vec![0; 2],
        };
        assert!(matches!(conn.request(rejoin), Ok(Response::Error(_))));
        assert_eq!(epoch_of(&mut conn), 1, "a refused rejoin must leave the clock alone");
    }

    #[test]
    fn the_wire_refuses_sync_replication() {
        let (mut listeners, boot) = test_bootstrap(1);
        let mode = ReplicationMode::Sync;
        let config = ClusterConfig { replication_mode: mode, ..boot.config.clone() };
        let ycsb = Arc::new(boot.ycsb());
        let started = NodeServer::start_with(listeners.remove(0), config, boot.addrs, ycsb, 0);
        let Err(Error::Config(message)) = started else { panic!("a Sync node started") };
        assert!(message.contains("acknowledgements"), "{message}");
    }

    /// A row at version 9.1 for key 0 of `partition` (partition 4 does not
    /// exist in the test cluster).
    fn record(partition: u32) -> WireRecord {
        let (key, tid) = (star_workloads::ycsb::ycsb_key(0, 0), Tid::new(9, 1).raw());
        WireRecord { table: 0, partition, key, tid, row: row([FieldValue::U64(7)]) }
    }

    #[test]
    fn an_install_naming_a_partition_held_nowhere_writes_nothing() {
        // The good record comes first: an install that checks as it writes
        // would have applied it before refusing.
        let (_server, mut conn) = node_zero_of_two();
        let digest = Request::Admin(AdminQuery::ReplicaDigest);
        let before = conn.request(digest.clone()).expect("digest");
        let install = Request::InstallRecords { records: vec![record(0), record(4)] };
        assert!(matches!(conn.request(install), Ok(Response::Error(_))));
        assert_eq!(conn.request(digest).expect("digest"), before, "it wrote something");
    }

    #[test]
    fn an_oversized_response_is_answered_as_an_error() {
        let mut out: Vec<u8> = Vec::new();
        answer(&mut out, 7, Response::Error("x".repeat(star_proto::MAX_BODY_LEN + 1)))
            .expect("answer");
        let mut written = out.as_slice();
        let frame = star_proto::read_message(&mut written).expect("one frame");
        let WireMessage::Response { id: 7, body: Response::Error(message) } = frame else {
            panic!("expected an error answer");
        };
        assert!(message.contains("exceeds") && written.is_empty(), "{message}");
    }

    #[test]
    fn replica_digest_is_iteration_order_independent_and_state_sensitive() {
        let (_listeners, boot) = test_bootstrap(1);
        let workload: Arc<dyn Workload> = Arc::new(boot.ycsb());
        let a = build_replica(&boot.config, workload.as_ref(), 0);
        let mesh = TcpMesh::new(0, boot.addrs);
        let b = StarNode::new(&boot.config, workload, 0, mesh, Arc::default());
        assert_eq!(replica_digest(&a), replica_digest(b.db()), "identical replicas digest equal");
        b.install(vec![record(0).into()]).expect("write");
        assert_ne!(replica_digest(&a).1, replica_digest(b.db()).1, "a divergent row changes it");
    }

    /// Both nodes of a two-node test cluster, started, and a client
    /// connection to the coordinator (node 0).
    fn two_nodes() -> (Vec<NodeServer>, Bootstrap, Conn) {
        let (listeners, boot) = test_bootstrap(2);
        let servers: Vec<NodeServer> = listeners
            .into_iter()
            .enumerate()
            .map(|(id, listener)| NodeServer::start_on(listener, &boot, id).expect("start"))
            .collect();
        let client = Conn::connect(servers[0].local_addr(), Role::Client, 0).expect("connect");
        (servers, boot, client)
    }

    fn run(client: &mut Conn, iterations: u32) -> Response {
        let run = Request::Run { iterations, partitioned_txns: 4, single_master_txns: 2 };
        client.request(run).expect("the Run is answered")
    }

    /// The local address of each connection of the driver `server` keeps,
    /// read off the streams' `Debug` form; `None` when it keeps none.
    fn kept_sockets(server: &NodeServer) -> Option<Vec<String>> {
        let debug = format!("{:?}", lock(&server.inner.runs).as_ref()?);
        let addrs = debug.split("TcpStream { addr: ").skip(1);
        Some(addrs.map(|rest| rest.split(',').next().unwrap_or_default().to_string()).collect())
    }

    #[test]
    fn a_run_reuses_the_connections_the_last_run_attached() {
        let (servers, _boot, mut client) = two_nodes();
        assert_eq!(kept_sockets(&servers[0]), None, "no driver before the first Run");
        assert!(matches!(run(&mut client, 1), Response::RunDone { epochs: 2, .. }));
        let first = kept_sockets(&servers[0]).expect("the Run keeps its driver");
        assert_eq!(first.len(), 2, "one connection per node: {first:?}");
        assert!(matches!(run(&mut client, 1), Response::RunDone { epochs: 2, .. }));
        assert_eq!(kept_sockets(&servers[0]), Some(first), "the second Run dialled again");
    }

    #[test]
    fn a_failed_run_drops_the_kept_driver_and_the_next_attaches_afresh() {
        let (mut servers, boot, mut client) = two_nodes();
        // No iteration: the driver is attached and kept, and no epoch closes,
        // so a restarted peer is at the cluster's epoch.
        assert!(matches!(run(&mut client, 0), Response::RunDone { committed: 0, epochs: 0 }));
        let before = kept_sockets(&servers[0]).expect("the Run keeps its driver");
        drop(servers.pop());
        let listener = TcpListener::bind(&boot.addrs[1]).expect("rebind the peer's port");
        servers.push(NodeServer::start_on(listener, &boot, 1).expect("restart the peer"));

        // The kept connection went down with the peer's old process.
        assert!(matches!(run(&mut client, 1), Response::Error(_)));
        assert_eq!(kept_sockets(&servers[0]), None, "a failed Run keeps its driver");
        assert!(matches!(run(&mut client, 1), Response::RunDone { epochs: 2, .. }));
        let after = kept_sockets(&servers[0]).expect("the Run keeps its new driver");
        assert_ne!(after, before, "the new driver reuses the dead one's sockets");
    }

    #[test]
    fn dropping_a_node_that_keeps_a_driver_frees_its_port() {
        let (mut servers, _boot, mut client) = two_nodes();
        assert!(matches!(run(&mut client, 1), Response::RunDone { .. }));
        assert!(kept_sockets(&servers[0]).is_some(), "the Run keeps its driver");
        let coordinator = servers.remove(0);
        let addr = coordinator.local_addr().to_string();
        let started = Instant::now();
        drop(coordinator);
        assert!(started.elapsed() < Duration::from_secs(1), "drop took {:?}", started.elapsed());
        let refused = TcpStream::connect(&addr).expect_err("the port still accepts");
        assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn shutdown_closes_an_idle_connection_and_drop_frees_the_port() {
        let (mut listeners, boot) = test_bootstrap(1);
        let server = NodeServer::start_on(listeners.remove(0), &boot, 0).expect("start");
        let addr = server.local_addr().to_string();
        // Handshaken, so the node is serving it, and silent since.
        let mut idle = Conn::connect(&addr, Role::Client, 0).expect("connect");

        server.shutdown();
        // An answer to a request never sent: all it can read is the end.
        let eof = idle.recv(0..1).expect_err("a closed connection");
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
        let started = Instant::now();
        drop(server);
        assert!(started.elapsed() < Duration::from_secs(1), "drop took {:?}", started.elapsed());
        let refused = TcpStream::connect(&addr).expect_err("the port still accepts");
        assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);
    }
}
