//! One node of the TCP deployment.
//!
//! A [`NodeServer`] is the wire-facing shell around exactly the machinery the
//! simulated engine uses: the same [`Database`] replica layout
//! (`star_core::cluster::build_replica`), the same seeded worker states and
//! phase workers (`star_core::exec`), the same routing, election and fence
//! survivor rules. The only thing TCP-specific is the shell itself — a
//! listener, one thread per connection, an inbox of replication batches and
//! the fence barrier that drains it.
//!
//! A serving node keeps nothing per transaction that nobody asked for: the
//! committed-history recorder is attached only when the bootstrap says
//! `record_history = true` (or through [`NodeServer::start_with_history`]),
//! exactly like the engine's own `Option<Arc<HistoryRecorder>>`. And what
//! waits, blocks on what it waits for: a fence on the condition variable the
//! arriving replication signals, [`NodeServer::wait`] on the shutdown latch.
//! The one poll left is the listener's (a non-blocking `accept()` every
//! 2 ms); ROADMAP item 4 says why it is still there.
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
//!   written back. `Run` makes the receiving node attach a
//!   [`ClusterDriver`](crate::coordinator::ClusterDriver) to its own cluster
//!   for a whole clustered run; concurrent `Run`s take turns.
//!
//! ## The fence barrier
//!
//! A `Fence { epoch, expected, failed }` request carries, for every sender
//! `s`, the cumulative number of batches `s` has shipped to this node, plus
//! the coordinator's current failure picture. The fence waits until the
//! arrival counts catch up, and then runs the very calls the simulated
//! engine's fence runs, over the node's own [`EpochState`] and replica:
//! `open_fence` (a *newly* failed node makes the fence revert the in-flight
//! epoch, and the deterministic master election re-runs), `fence_replica`
//! over the inbox (surviving batches are applied in arrival order — disjoint
//! partitions in the partitioned phase and the Thomas write rule in the
//! single-master phase make cross-link ordering irrelevant), the epoch's
//! history is finalized as committed or reverted, `close_fence`.
//!
//! ## Failover and restart
//!
//! `RunPhase` carries per-executor transaction-attempt baselines: a node
//! taking over a partition (or a restarted master) fast-forwards the
//! worker's seeded RNG to the baseline, so the transaction stream continues
//! exactly where the previous executor left it — the wire form of the
//! engine's engine-global worker state. The cluster driver's `rejoin` brings
//! a restarted process back with `FetchPartition` / `InstallRecords` (a
//! Thomas-rule catch-up copy between replicas) and `Rejoin` (the driver's
//! [`EpochState`] plus the replication counter rebase).

use crate::bootstrap::Bootstrap;
use crate::transport::TcpMesh;
use star_common::stats::RunCounters;
use star_common::Tid;
use star_common::{ClusterConfig, Epoch, NodeId, PartitionId, Result};
use star_core::cluster::build_replica;
use star_core::exec::{
    run_master_worker, run_partition_worker, MasterWorkerState, NodeCtx, PartitionWorkerState,
    PhaseBudget,
};
use star_core::failure::{fence_replica, EpochState};
use star_core::history::HistoryRecorder;
use star_core::messages::ReplicationBatch;
use star_core::workload::Workload;
use star_proto::{
    write_message, AdminQuery, FrameBuffer, Request, Response, WireElection, WireMessage,
    WirePhase, WireRecord, WireStatus, WireTxn,
};
use star_storage::Database;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long a fence waits for in-flight replication before giving up.
const FENCE_TIMEOUT: Duration = Duration::from_secs(60);

/// Per-worker execution state behind one mutex: the stepped phases are
/// single-threaded per node, exactly like the engine's stepped driver.
struct EngineState {
    /// Epoch, failure picture (as told by fences) and election log.
    clock: EpochState,
    partition_workers: BTreeMap<PartitionId, PartitionWorkerState>,
    master_workers: Vec<MasterWorkerState>,
    /// Cumulative transaction attempts this node's partition workers have
    /// actually executed (== RNG generations consumed). Compared against the
    /// supervisor's cluster-wide baselines to fast-forward on takeover.
    partition_attempts: BTreeMap<PartitionId, u64>,
    /// Same, per master worker.
    master_attempts: Vec<u64>,
}

/// Replication that arrived and has not been fenced yet, together with what
/// the fence barrier waits on — under one mutex, so a fence can sleep on
/// [`NodeInner::arrived`] until a count moves.
struct Inbox {
    batches: Vec<ReplicationBatch>,
    /// Cumulative batches received from each sender (index = node id).
    received: Vec<u64>,
}

/// Shared state of one node, owned by the listener and every connection
/// thread. Locks nest `runs` → `engine` → `inbox` (lock-order.manifest).
pub(crate) struct NodeInner {
    pub(crate) node: NodeId,
    pub(crate) config: ClusterConfig,
    pub(crate) addrs: Vec<String>,
    pub(crate) db: Arc<Database>,
    workload: Arc<dyn Workload>,
    mesh: TcpMesh,
    counters: RunCounters,
    /// Attached only when the node was started with history recording on.
    history: Option<Arc<HistoryRecorder>>,
    engine: Mutex<EngineState>,
    /// Held for a whole `Run` (see `coordinator::run_cluster`): concurrent
    /// `Run`s take turns instead of interleaving phases of one epoch.
    pub(crate) runs: Mutex<()>,
    inbox: Mutex<Inbox>,
    /// Signalled, under the inbox lock, whenever a batch arrives.
    arrived: Condvar,
    /// The shutdown latch: set once, and what [`NodeServer::wait`] parks on.
    stopped: Mutex<bool>,
    stopped_signal: Condvar,
}

/// A running node: its listener thread plus shared state.
pub struct NodeServer {
    inner: Arc<NodeInner>,
    listener_thread: Option<std::thread::JoinHandle<()>>,
    addr: String,
}

impl std::fmt::Debug for NodeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeServer")
            .field("node", &self.inner.node)
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
        let (row, tid) = record.read_packed();
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
        let addr = boot
            .addrs
            .get(id)
            .ok_or_else(|| star_common::Error::Config(format!("no address for node {id}")))?;
        let listener = TcpListener::bind(addr.as_str())
            .map_err(|e| star_common::Error::Config(format!("cannot bind {addr}: {e}")))?;
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
        config.validate().map_err(star_common::Error::Config)?;
        let db = build_replica(&config, workload.as_ref(), id);
        let fallback_addr = addrs.get(id).cloned().unwrap_or_default();
        let inner = Arc::new(NodeInner {
            node: id,
            config: config.clone(),
            addrs: addrs.clone(),
            db,
            workload,
            mesh: TcpMesh::new(id, addrs),
            counters: RunCounters::new(),
            history: record_history.then(|| Arc::new(HistoryRecorder::new())),
            engine: Mutex::new(EngineState {
                clock: EpochState::new(&config),
                partition_workers: BTreeMap::new(),
                master_workers: (0..config.workers_per_node)
                    .map(|w| MasterWorkerState::new(&config, w))
                    .collect(),
                partition_attempts: BTreeMap::new(),
                master_attempts: vec![0; config.workers_per_node],
            }),
            runs: Mutex::new(()),
            inbox: Mutex::new(Inbox { batches: Vec::new(), received: vec![0; config.num_nodes] }),
            arrived: Condvar::new(),
            stopped: Mutex::new(false),
            stopped_signal: Condvar::new(),
        });
        let addr = listener.local_addr().map(|a| a.to_string()).unwrap_or(fallback_addr);
        listener
            .set_nonblocking(true)
            .map_err(|e| star_common::Error::Config(format!("listener setup: {e}")))?;
        let accept_inner = Arc::clone(&inner);
        let listener_thread = std::thread::Builder::new()
            .name(format!("star-serverd-{id}"))
            .spawn(move || accept_loop(listener, accept_inner))
            .map_err(|e| star_common::Error::Config(format!("spawn listener: {e}")))?;
        Ok(NodeServer { inner, listener_thread: Some(listener_thread), addr })
    }

    /// The address the node is actually listening on.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Requests shutdown; the listener and connection threads exit within
    /// one poll interval.
    pub fn shutdown(&self) {
        self.inner.shutdown();
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
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.listener_thread.take() {
            let _ = handle.join();
        }
    }
}

/// A mutex whose data every update leaves valid is still good after a
/// holder panicked.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn accept_loop(listener: TcpListener, inner: Arc<NodeInner>) {
    while !inner.is_shutdown() {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let conn_inner = Arc::clone(&inner);
                let _ = std::thread::Builder::new()
                    .name(format!("star-serverd-{}-conn", inner.node))
                    .spawn(move || connection_loop(stream, conn_inner));
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Reads one frame from `stream`, buffering partial data in `buf` across
/// read timeouts so a timeout can never split a frame.
fn poll_frame(stream: &mut TcpStream, buf: &mut FrameBuffer) -> io::Result<WireMessage> {
    loop {
        if let Some(message) =
            buf.next_message().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            return Ok(message);
        }
        let mut chunk = [0u8; 64 * 1024];
        match stream.read(&mut chunk) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => buf.push(&chunk[..n]),
            Err(e) => return Err(e),
        }
    }
}

fn connection_loop(mut stream: TcpStream, inner: Arc<NodeInner>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut buf = FrameBuffer::new();
    while !inner.is_shutdown() {
        let message = match poll_frame(&mut stream, &mut buf) {
            Ok(message) => message,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        match message {
            WireMessage::Hello { .. } => {
                let ack = WireMessage::HelloAck {
                    node: inner.node as u32,
                    num_nodes: inner.config.num_nodes as u32,
                };
                if write_message(&mut stream, &ack).is_err() {
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
                let written = answer(&mut stream, id, handle_request(&inner, body));
                if stop {
                    inner.shutdown();
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

fn handle_request(inner: &Arc<NodeInner>, request: Request) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Get { table, partition, key } => handle_get(inner, table, partition as usize, key),
        Request::Run { iterations, partitioned_txns, single_master_txns } => {
            if inner.node != inner.config.master_node() {
                return Response::Error(format!(
                    "node {} is not the coordinator (node {})",
                    inner.node,
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
        Request::FetchPartition { partition } => {
            handle_fetch_partition(inner, partition as PartitionId)
        }
        Request::InstallRecords { records } => handle_install_records(inner, records),
        Request::Rejoin { epoch, last_committed, failed, elections, recv_base } => {
            handle_rejoin(inner, epoch, last_committed, &failed, elections, &recv_base)
                .unwrap_or_else(Response::Error)
        }
        Request::Admin(query) => handle_admin(inner, query),
        // `connection_loop` stops the node once this answer is written.
        Request::Shutdown => Response::Ok,
    }
}

fn handle_get(inner: &NodeInner, table: u32, partition: PartitionId, key: u64) -> Response {
    if partition >= inner.config.partitions {
        return Response::Error(format!("no such partition {partition}"));
    }
    if !inner.db.holds(partition) {
        return Response::Error(format!("node {} does not hold partition {partition}", inner.node));
    }
    match inner.db.get(table, partition, key) {
        Ok(record) => {
            let result = record.read();
            Response::Record { tid: result.tid.raw(), row: Some(result.row) }
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
    let mut engine_guard = inner.lock_engine();
    check_epoch(inner.node, "phase", epoch, engine_guard.clock.epoch())?;
    let committed = match phase {
        WirePhase::Partitioned => {
            run_partitioned(inner, &mut engine_guard, epoch, txns, baselines, &failed)
        }
        WirePhase::SingleMaster => {
            run_single_master(inner, &mut engine_guard, epoch, txns, baselines, &failed)
        }
    };
    Ok(Response::PhaseDone { committed, sent: inner.mesh.sent_counts() })
}

impl NodeInner {
    fn lock_engine(&self) -> MutexGuard<'_, EngineState> {
        lock(&self.engine)
    }

    fn is_shutdown(&self) -> bool {
        *lock(&self.stopped)
    }

    /// Sets the shutdown latch and wakes [`NodeServer::wait`].
    fn shutdown(&self) {
        *lock(&self.stopped) = true;
        self.stopped_signal.notify_all();
    }

    /// What this node lends its phase workers for `epoch`: the wire has no
    /// WAL yet, and a history recorder only when it was started with one.
    fn ctx(&self, epoch: Epoch) -> NodeCtx<'_> {
        NodeCtx {
            node: self.node,
            config: &self.config,
            db: &self.db,
            transport: &self.mesh,
            workload: self.workload.as_ref(),
            counters: &self.counters,
            wal: None,
            history: self.history.as_deref(),
            epoch,
        }
    }
}

/// The stepped partitioned phase, restricted to the partitions this node is
/// the *effective* primary for — the union across healthy nodes is exactly
/// the engine's stepped partitioned phase, partition by partition, same
/// seeds, same order. On takeover the worker's RNG is fast-forwarded to the
/// supervisor-supplied cluster-wide attempt baseline, so the stream
/// continues where the crashed primary left it.
fn run_partitioned(
    inner: &NodeInner,
    engine_state: &mut EngineState,
    epoch: Epoch,
    txns: u64,
    baselines: &[u64],
    failed: &[bool],
) -> u64 {
    let config = &inner.config;
    let ctx = inner.ctx(epoch);
    let EngineState { partition_workers, partition_attempts, .. } = engine_state;
    let mut committed = 0u64;
    for partition in 0..config.partitions {
        if config.effective_primary(failed, partition) != Some(inner.node) {
            continue;
        }
        let targets = config.replica_targets(failed, inner.node, partition);
        let worker = partition_workers
            .entry(partition)
            .or_insert_with(|| PartitionWorkerState::new(config, partition));
        let attempts = partition_attempts.entry(partition).or_insert(0);
        if let Some(&baseline) = baselines.get(partition) {
            if *attempts < baseline {
                worker.fast_forward(inner.workload.as_ref(), baseline - *attempts);
                *attempts = baseline;
            }
        }
        committed +=
            run_partition_worker(&ctx, &targets, worker, PhaseBudget::Count(txns)).committed;
        *attempts += txns;
    }
    committed
}

/// The stepped single-master phase; a no-op on every node but the elected
/// master. A newly elected (or restarted) master fast-forwards each worker
/// to its baseline before executing, continuing the dead master's streams.
fn run_single_master(
    inner: &NodeInner,
    engine_state: &mut EngineState,
    epoch: Epoch,
    txns: u64,
    baselines: &[u64],
    failed: &[bool],
) -> u64 {
    if engine_state.clock.current_master() != Some(inner.node) {
        return 0;
    }
    let config = &inner.config;
    let ctx = inner.ctx(epoch);
    let EngineState { master_workers, master_attempts, .. } = engine_state;
    let healthy = config.healthy_peers(failed, inner.node);
    let mut committed = 0u64;
    for (worker_id, worker) in master_workers.iter_mut().enumerate() {
        let attempts = &mut master_attempts[worker_id];
        if let Some(&baseline) = baselines.get(worker_id) {
            if *attempts < baseline {
                let behind = baseline - *attempts;
                worker.fast_forward(inner.workload.as_ref(), config.partitions, behind);
                *attempts = baseline;
            }
        }
        committed += run_master_worker(&ctx, &healthy, worker, PhaseBudget::Count(txns)).committed;
        *attempts += txns;
    }
    committed
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
    let current = inner.lock_engine().clock.epoch();
    check_epoch(inner.node, "fence", epoch, current)?;
    // Barrier: block until everything the senders shipped before the fence
    // has arrived; every arriving batch signals `arrived`. Counts are
    // cumulative, so a stale fence can never block on traffic that already
    // passed.
    let behind = |inbox: &mut Inbox| {
        let mut senders = inbox.received.iter().zip(expected).enumerate();
        senders.any(|(s, (received, expected))| s != inner.node && received < expected)
    };
    let (inbox_guard, wait) = inner
        .arrived
        .wait_timeout_while(lock(&inner.inbox), FENCE_TIMEOUT, behind)
        .unwrap_or_else(PoisonError::into_inner);
    drop(inbox_guard);
    if wait.timed_out() {
        return Err(format!("fence for epoch {epoch} timed out waiting for replication"));
    }

    let mut engine_guard = inner.lock_engine();
    // Again under the lock: another fence may have closed the epoch meanwhile.
    check_epoch(inner.node, "fence", epoch, engine_guard.clock.epoch())?;
    let clock = &mut engine_guard.clock;
    let reverting = clock.open_fence(&inner.config, &failed);
    let batches = std::mem::take(&mut lock(&inner.inbox).batches);
    let mut applied = 0u64;
    fence_replica(clock, reverting, &inner.db, batches, |entry| {
        let _ = entry.apply(&inner.db);
        applied += 1;
    });
    if let Some(history) = &inner.history {
        history.finalize_epoch(epoch, !reverting);
    }
    clock.close_fence();
    Ok(Response::FenceDone { epoch, applied })
}

/// Serves one held partition's records for a supervisor-mediated catch-up
/// copy — the wire form of the engine's memory-to-memory recovery source.
fn handle_fetch_partition(inner: &NodeInner, partition: PartitionId) -> Response {
    if partition >= inner.config.partitions {
        return Response::Error(format!("no such partition {partition}"));
    }
    if !inner.db.holds(partition) {
        return Response::Error(format!("node {} does not hold partition {partition}", inner.node));
    }
    let mut records = Vec::new();
    inner.db.for_each_record(|table, p, key, record| {
        if p != partition {
            return;
        }
        let result = record.read();
        records.push(WireRecord {
            table,
            partition: p as u32,
            key,
            tid: result.tid.raw(),
            row: result.row,
        });
    });
    Response::Records(records)
}

/// Installs copied records under the Thomas write rule — the recovery
/// target's half of the catch-up copy. A freshly restarted process holds the
/// workload's initial state, so a full copy from a healthy peer lands it in
/// exactly the state the engine's revert-then-copy recovery produces.
fn handle_install_records(inner: &NodeInner, records: Vec<WireRecord>) -> Response {
    let mut installed = 0u64;
    for record in records {
        let partition = record.partition as PartitionId;
        if partition >= inner.config.partitions || !inner.db.holds(partition) {
            return Response::Error(format!(
                "node {} cannot install into partition {partition}",
                inner.node
            ));
        }
        let fresher = inner
            .db
            .apply_value_write(
                record.table,
                partition,
                record.key,
                record.row,
                Tid::from_raw(record.tid),
            )
            .unwrap_or(false);
        if fresher {
            installed += 1;
        }
    }
    Response::InstallDone { installed }
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
    inner.lock_engine().clock = EpochState::resume(epoch, last_committed, failed, elections)
        .map_err(|e| format!("rejoin refused: {e}"))?;
    let mut inbox_guard = lock(&inner.inbox);
    inbox_guard.received.copy_from_slice(recv_base);
    inbox_guard.batches.clear();
    inner.arrived.notify_all();
    Ok(Response::Ok)
}

fn handle_admin(inner: &NodeInner, query: AdminQuery) -> Response {
    match query {
        AdminQuery::Status => {
            let engine_guard = inner.lock_engine();
            let clock = &engine_guard.clock;
            let (elected, generation) =
                clock.elections().last().map_or((None, 0), |e| (e.master, e.generation));
            Response::Status(WireStatus {
                node: inner.node as u32,
                epoch: clock.epoch(),
                last_committed: clock.last_committed(),
                master: elected.map(|m| m as i64).unwrap_or(-1),
                generation,
                committed: inner.counters.snapshot().committed,
                full_replica: inner.db.is_full_replica(),
            })
        }
        AdminQuery::Elections => Response::Elections(
            inner.lock_engine().clock.elections().iter().map(WireElection::from_election).collect(),
        ),
        AdminQuery::History => match &inner.history {
            Some(history) => {
                Response::History(history.committed().iter().map(WireTxn::from_committed).collect())
            }
            // Not an empty list, which would read as "nothing committed".
            None => Response::Error(format!(
                "history recording is off on node {}; boot it with `record_history = true` \
                 under [cluster]",
                inner.node
            )),
        },
        AdminQuery::ReplicaDigest => {
            let (records, digest) = replica_digest(&inner.db);
            Response::Digest { records, digest }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::Bootstrap;
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
        assert!(general.inner.history.is_none(), "start_with means no recorder");
        boot.record_history = true;
        let recording = NodeServer::start_on(listeners.remove(0), &boot, 1).expect("start");
        assert!(recording.inner.history.is_some(), "record_history = true attaches one");
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
        let b = build_replica(&boot.config, workload.as_ref(), 0);
        assert_eq!(replica_digest(&a), replica_digest(&b), "identical replicas digest equal");
        use star_common::{row::row, FieldValue, Tid};
        b.apply_value_write(
            0,
            0,
            star_workloads::ycsb::ycsb_key(0, 0),
            row([FieldValue::U64(1)]),
            Tid::new(1, 1),
        )
        .expect("write");
        assert_ne!(replica_digest(&a).1, replica_digest(&b).1, "a divergent row changes it");
    }
}
