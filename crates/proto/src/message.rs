//! The messages that ride inside frames.
//!
//! Five frame kinds cover the whole deployment:
//!
//! * `Hello` / `HelloAck` — connection handshake, declaring the peer's role;
//! * `Request` / `Response` — correlation-id-tagged RPC, so clients can
//!   pipeline many requests down one connection and match answers by id;
//! * `Replication` — the one-way peer-to-peer replication stream. Its entry
//!   block is carried as pre-encoded [`Bytes`] so a batch is serialized once
//!   at the sender and sliced zero-copy at the receiver.
//!
//! Committed transactions and master elections have canonical wire forms
//! ([`WireTxn`], [`WireElection`]) with explicit conversions to the core
//! types; the transport-parity harness compares the *encodings*, so "same
//! history" literally means byte-identical.

use crate::error::DecodeError;
use crate::frame::{decode_frame_header, encode_frame_header, FRAME_HEADER_LEN};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use star_common::{Epoch, NodeId, Row, Tid};
use star_core::history::{CommittedTxn, RecordedRead, RecordedWrite};
use star_core::MasterElection;
use star_replication::{decode_row, encode_row, ExecutionPhase, LogEntry};

// ---------------------------------------------------------------------------
// Cursor helpers. Every read is bounds checked first: the vendored `bytes`
// stub (like the real crate) panics on underflow, and this crate must return
// typed errors on arbitrary input instead.
// ---------------------------------------------------------------------------

fn take_u8(cur: &mut &[u8]) -> Result<u8, DecodeError> {
    if cur.remaining() < 1 {
        return Err(DecodeError::Truncated { needed: 1, have: cur.remaining() });
    }
    Ok(cur.get_u8())
}

fn take_u32(cur: &mut &[u8]) -> Result<u32, DecodeError> {
    if cur.remaining() < 4 {
        return Err(DecodeError::Truncated { needed: 4, have: cur.remaining() });
    }
    Ok(cur.get_u32_le())
}

fn take_u64(cur: &mut &[u8]) -> Result<u64, DecodeError> {
    if cur.remaining() < 8 {
        return Err(DecodeError::Truncated { needed: 8, have: cur.remaining() });
    }
    Ok(cur.get_u64_le())
}

fn take_i64(cur: &mut &[u8]) -> Result<i64, DecodeError> {
    if cur.remaining() < 8 {
        return Err(DecodeError::Truncated { needed: 8, have: cur.remaining() });
    }
    Ok(cur.get_i64_le())
}

/// Reads a `u32` element count that prefixes a sequence whose elements each
/// occupy at least `min_element_size` bytes; a count the remaining input
/// cannot possibly hold is rejected before it becomes an allocation hint.
fn take_count(cur: &mut &[u8], min_element_size: usize) -> Result<usize, DecodeError> {
    let n = take_u32(cur)? as usize;
    if n.saturating_mul(min_element_size.max(1)) > cur.remaining() {
        return Err(DecodeError::Malformed("count prefix exceeds remaining input"));
    }
    Ok(n)
}

/// Reads a count-prefixed list of node ids (`u32`s).
fn take_node_ids(cur: &mut &[u8]) -> Result<Vec<u32>, DecodeError> {
    let n = take_count(cur, 4)?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(take_u32(cur)?);
    }
    Ok(nodes)
}

fn take_string(cur: &mut &[u8]) -> Result<String, DecodeError> {
    let len = take_u32(cur)? as usize;
    if cur.remaining() < len {
        return Err(DecodeError::Truncated { needed: len, have: cur.remaining() });
    }
    let mut raw = vec![0u8; len];
    cur.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|_| DecodeError::Malformed("invalid utf-8 in string"))
}

fn put_string(s: &str, buf: &mut BytesMut) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn take_wire_row(cur: &mut &[u8]) -> Result<Row, DecodeError> {
    decode_row(cur).map_err(|_| DecodeError::Malformed("row"))
}

// ---------------------------------------------------------------------------
// Roles and phases
// ---------------------------------------------------------------------------

/// What a connecting peer is, declared in its `Hello`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A client driving transactions (`star-client`).
    Client,
    /// Another cluster node's replication stream.
    Peer,
    /// An inspection session (`star-admin`).
    Admin,
    /// The coordinator's phase-control connection.
    Coordinator,
}

impl Role {
    fn to_u8(self) -> u8 {
        match self {
            Role::Client => 0,
            Role::Peer => 1,
            Role::Admin => 2,
            Role::Coordinator => 3,
        }
    }

    fn from_u8(tag: u8) -> Result<Self, DecodeError> {
        match tag {
            0 => Ok(Role::Client),
            1 => Ok(Role::Peer),
            2 => Ok(Role::Admin),
            3 => Ok(Role::Coordinator),
            tag => Err(DecodeError::UnknownTag { context: "role", tag }),
        }
    }
}

/// Which phase a `RunPhase` request starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WirePhase {
    /// The partitioned (no-concurrency-control) phase.
    Partitioned,
    /// The single-master (Silo OCC) phase.
    SingleMaster,
}

impl WirePhase {
    fn to_u8(self) -> u8 {
        match self {
            WirePhase::Partitioned => 0,
            WirePhase::SingleMaster => 1,
        }
    }

    fn from_u8(tag: u8) -> Result<Self, DecodeError> {
        match tag {
            0 => Ok(WirePhase::Partitioned),
            1 => Ok(WirePhase::SingleMaster),
            tag => Err(DecodeError::UnknownTag { context: "phase", tag }),
        }
    }
}

/// An admin inspection query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminQuery {
    /// Node status: epoch, elected master, commit counters.
    Status,
    /// The full election log.
    Elections,
    /// The node's committed history, in canonical wire form.
    History,
    /// A commutative digest of the node's replica state.
    ReplicaDigest,
}

impl AdminQuery {
    fn to_u8(self) -> u8 {
        match self {
            AdminQuery::Status => 0,
            AdminQuery::Elections => 1,
            AdminQuery::History => 2,
            AdminQuery::ReplicaDigest => 3,
        }
    }

    fn from_u8(tag: u8) -> Result<Self, DecodeError> {
        match tag {
            0 => Ok(AdminQuery::Status),
            1 => Ok(AdminQuery::Elections),
            2 => Ok(AdminQuery::History),
            3 => Ok(AdminQuery::ReplicaDigest),
            tag => Err(DecodeError::UnknownTag { context: "admin query", tag }),
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical wire forms of core types
// ---------------------------------------------------------------------------

/// A master election in canonical wire form (`master == -1` means none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireElection {
    /// Epoch whose fence held the election.
    pub epoch: Epoch,
    /// Elected master node id, or -1 when no healthy full replica remained.
    pub master: i64,
    /// Election generation.
    pub generation: u64,
}

impl WireElection {
    /// Converts from the engine's election record.
    pub fn from_election(e: &MasterElection) -> Self {
        WireElection {
            epoch: e.epoch,
            master: e.master.map(|m| m as i64).unwrap_or(-1),
            generation: e.generation,
        }
    }

    /// Converts back to the engine's election record.
    pub fn to_election(self) -> MasterElection {
        MasterElection {
            epoch: self.epoch,
            master: usize::try_from(self.master).ok(),
            generation: self.generation,
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.epoch);
        buf.put_i64_le(self.master);
        buf.put_u64_le(self.generation);
    }

    fn decode(cur: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(WireElection {
            epoch: take_u32(cur)?,
            master: take_i64(cur)?,
            generation: take_u64(cur)?,
        })
    }
}

/// A committed transaction in canonical wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTxn {
    /// Epoch the transaction committed in.
    pub epoch: Epoch,
    /// Phase it executed in.
    pub phase: WirePhase,
    /// Executor id (partition id, or `MASTER_EXECUTOR_OFFSET + worker`).
    pub executor: u64,
    /// The commit TID (raw form).
    pub tid: u64,
    /// Observed reads: `(table, partition, key, observed tid)`.
    pub reads: Vec<(u32, u32, u64, u64)>,
    /// Installed writes: `(table, partition, key, row)`.
    pub writes: Vec<(u32, u32, u64, Row)>,
}

impl WireTxn {
    /// Converts from the engine's committed-history record.
    pub fn from_committed(txn: &CommittedTxn) -> Self {
        WireTxn {
            epoch: txn.epoch,
            phase: match txn.phase {
                ExecutionPhase::Partitioned => WirePhase::Partitioned,
                ExecutionPhase::SingleMaster => WirePhase::SingleMaster,
            },
            executor: txn.executor,
            tid: txn.tid.raw(),
            reads: txn
                .reads
                .iter()
                .map(|r| (r.table, r.partition as u32, r.key, r.tid.raw()))
                .collect(),
            writes: txn
                .writes
                .iter()
                .map(|w| (w.table, w.partition as u32, w.key, w.row.clone()))
                .collect(),
        }
    }

    /// Converts back to the engine's committed-history record.
    pub fn to_committed(&self) -> CommittedTxn {
        CommittedTxn {
            epoch: self.epoch,
            phase: match self.phase {
                WirePhase::Partitioned => ExecutionPhase::Partitioned,
                WirePhase::SingleMaster => ExecutionPhase::SingleMaster,
            },
            executor: self.executor,
            tid: Tid::from_raw(self.tid),
            reads: self
                .reads
                .iter()
                .map(|&(table, partition, key, tid)| RecordedRead {
                    table,
                    partition: partition as usize,
                    key,
                    tid: Tid::from_raw(tid),
                })
                .collect(),
            writes: self
                .writes
                .iter()
                .map(|(table, partition, key, row)| RecordedWrite {
                    table: *table,
                    partition: *partition as usize,
                    key: *key,
                    row: row.clone(),
                })
                .collect(),
        }
    }

    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.epoch);
        buf.put_u8(self.phase.to_u8());
        buf.put_u64_le(self.executor);
        buf.put_u64_le(self.tid);
        buf.put_u32_le(self.reads.len() as u32);
        for &(table, partition, key, tid) in &self.reads {
            buf.put_u32_le(table);
            buf.put_u32_le(partition);
            buf.put_u64_le(key);
            buf.put_u64_le(tid);
        }
        buf.put_u32_le(self.writes.len() as u32);
        for (table, partition, key, row) in &self.writes {
            buf.put_u32_le(*table);
            buf.put_u32_le(*partition);
            buf.put_u64_le(*key);
            encode_row(row, buf);
        }
    }

    fn decode(cur: &mut &[u8]) -> Result<Self, DecodeError> {
        let epoch = take_u32(cur)?;
        let phase = WirePhase::from_u8(take_u8(cur)?)?;
        let executor = take_u64(cur)?;
        let tid = take_u64(cur)?;
        let n_reads = take_count(cur, 24)?;
        let mut reads = Vec::with_capacity(n_reads);
        for _ in 0..n_reads {
            reads.push((take_u32(cur)?, take_u32(cur)?, take_u64(cur)?, take_u64(cur)?));
        }
        let n_writes = take_count(cur, 20)?;
        let mut writes = Vec::with_capacity(n_writes);
        for _ in 0..n_writes {
            writes.push((take_u32(cur)?, take_u32(cur)?, take_u64(cur)?, take_wire_row(cur)?));
        }
        Ok(WireTxn { epoch, phase, executor, tid, reads, writes })
    }
}

/// One replica record in canonical wire form, as moved by the recovery
/// frames ([`Request::FetchPartition`] / [`Request::InstallRecords`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WireRecord {
    /// Table of the record.
    pub table: u32,
    /// Partition of the record.
    pub partition: u32,
    /// Primary key.
    pub key: u64,
    /// TID of the record's current version (raw form).
    pub tid: u64,
    /// The row.
    pub row: Row,
}

impl WireRecord {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.table);
        buf.put_u32_le(self.partition);
        buf.put_u64_le(self.key);
        buf.put_u64_le(self.tid);
        encode_row(&self.row, buf);
    }

    fn decode(cur: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(WireRecord {
            table: take_u32(cur)?,
            partition: take_u32(cur)?,
            key: take_u64(cur)?,
            tid: take_u64(cur)?,
            row: take_wire_row(cur)?,
        })
    }
}

/// A record header is 24 bytes plus at least one row byte.
const WIRE_RECORD_MIN: usize = 25;

fn take_records(cur: &mut &[u8]) -> Result<Vec<WireRecord>, DecodeError> {
    let n = take_count(cur, WIRE_RECORD_MIN)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        records.push(WireRecord::decode(cur)?);
    }
    Ok(records)
}

fn put_records(records: &[WireRecord], buf: &mut BytesMut) {
    buf.put_u32_le(records.len() as u32);
    for record in records {
        record.encode(buf);
    }
}

/// Serializes a committed history into its canonical byte form. The parity
/// harness compares these buffers directly: byte equality is the test.
pub fn encode_history(txns: &[CommittedTxn]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(txns.len() as u32);
    for txn in txns {
        WireTxn::from_committed(txn).encode(&mut buf);
    }
    buf.freeze()
}

/// Serializes an election log into its canonical byte form.
pub fn encode_elections(log: &[MasterElection]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(log.len() as u32);
    for e in log {
        WireElection::from_election(e).encode(&mut buf);
    }
    buf.freeze()
}

/// Serializes a replication entry block (count-prefixed [`LogEntry`] stream)
/// once, for zero-copy reuse across the batch's destinations.
pub fn encode_entries(entries: &[LogEntry]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(entries.len() as u32);
    for entry in entries {
        entry.encode(&mut buf);
    }
    buf.freeze()
}

/// Decodes a replication entry block produced by [`encode_entries`].
pub fn decode_entries(block: &[u8]) -> Result<Vec<LogEntry>, DecodeError> {
    let mut cur = block;
    // A log entry header alone is 25 bytes.
    let n = take_count(&mut cur, 25)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(LogEntry::decode(&mut cur).map_err(|_| DecodeError::Malformed("log entry"))?);
    }
    if !cur.is_empty() {
        return Err(DecodeError::Malformed("trailing bytes after entry block"));
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------------

/// A client / coordinator / admin request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Point read of one record.
    Get {
        /// Table of the record.
        table: u32,
        /// Partition of the record.
        partition: u32,
        /// Primary key.
        key: u64,
    },
    /// Coordinator entry point: run `iterations` stepped iterations of the
    /// seeded workload across the whole cluster.
    Run {
        /// Number of partitioned/single-master iterations.
        iterations: u32,
        /// Transaction attempts per partition per partitioned phase.
        partitioned_txns: u64,
        /// Transaction attempts per master worker per single-master phase.
        single_master_txns: u64,
    },
    /// Intra-cluster: execute one stepped phase locally.
    RunPhase {
        /// Which phase.
        phase: WirePhase,
        /// The epoch the phase executes in.
        epoch: Epoch,
        /// Transaction attempts per local worker.
        txns: u64,
        /// Cumulative transaction-attempt counts each executor must have
        /// consumed *before* this phase: per partition for a partitioned
        /// phase, per master worker for a single-master phase. A node whose
        /// local worker lags a baseline (it just took over the partition, or
        /// it restarted) fast-forwards the worker's RNG to the baseline
        /// before executing, so the transaction stream continues exactly
        /// where the previous executor left it. Empty means "no baselines"
        /// (the healthy steady state, where local counters already match).
        baselines: Vec<u64>,
        /// Node ids the coordinator currently considers failed; the phase
        /// routes around them (effective primaries, healthy replica-target
        /// and master-broadcast sets).
        failed: Vec<u32>,
    },
    /// Intra-cluster: replication fence closing `epoch`. `expected[s]` is the
    /// cumulative number of replication batches node `s` has sent this node;
    /// the fence waits until they have all arrived, then applies everything.
    Fence {
        /// Epoch being closed.
        epoch: Epoch,
        /// Per-sender cumulative batch counts to wait for.
        expected: Vec<u64>,
        /// Node ids the coordinator considers failed as of this fence. A
        /// node id appearing here for the first time makes the fence revert
        /// the in-flight epoch (the crash discarded it cluster-wide), drop
        /// that sender's queued batches, and re-run the deterministic
        /// master election — the wire form of the simulator's fence-time
        /// failure detection.
        failed: Vec<u32>,
    },
    /// Supervisor: read every record of one locally held partition, in
    /// canonical order — the source half of a recovery catch-up copy.
    FetchPartition {
        /// Partition to read.
        partition: u32,
    },
    /// Supervisor: install records into the local replica under the Thomas
    /// write rule (apply-if-newer) — the target half of a recovery copy.
    InstallRecords {
        /// Records to install.
        records: Vec<WireRecord>,
    },
    /// Supervisor: adopt cluster state after a process restart, so the
    /// rejoining node agrees with the survivors about the epoch, the
    /// failure picture, the election log and the cumulative replication
    /// counters its fresh counters must be rebased onto.
    Rejoin {
        /// The cluster's current epoch.
        epoch: Epoch,
        /// The last epoch whose fence completed.
        last_committed: Epoch,
        /// Node ids still considered failed.
        failed: Vec<u32>,
        /// The full election log as of the rejoin.
        elections: Vec<WireElection>,
        /// Per-sender cumulative replication-batch counts already delivered
        /// to this node's address before the restart; the node's receive
        /// counters restart from these values.
        recv_base: Vec<u64>,
    },
    /// Admin inspection.
    Admin(AdminQuery),
    /// Graceful shutdown of the receiving node.
    Shutdown,
}

impl Request {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Request::Ping => buf.put_u8(0),
            Request::Get { table, partition, key } => {
                buf.put_u8(1);
                buf.put_u32_le(*table);
                buf.put_u32_le(*partition);
                buf.put_u64_le(*key);
            }
            Request::Run { iterations, partitioned_txns, single_master_txns } => {
                buf.put_u8(2);
                buf.put_u32_le(*iterations);
                buf.put_u64_le(*partitioned_txns);
                buf.put_u64_le(*single_master_txns);
            }
            Request::RunPhase { phase, epoch, txns, baselines, failed } => {
                buf.put_u8(3);
                buf.put_u8(phase.to_u8());
                buf.put_u32_le(*epoch);
                buf.put_u64_le(*txns);
                buf.put_u32_le(baselines.len() as u32);
                for &baseline in baselines {
                    buf.put_u64_le(baseline);
                }
                buf.put_u32_le(failed.len() as u32);
                for &node in failed {
                    buf.put_u32_le(node);
                }
            }
            Request::Fence { epoch, expected, failed } => {
                buf.put_u8(4);
                buf.put_u32_le(*epoch);
                buf.put_u32_le(expected.len() as u32);
                for &count in expected {
                    buf.put_u64_le(count);
                }
                buf.put_u32_le(failed.len() as u32);
                for &node in failed {
                    buf.put_u32_le(node);
                }
            }
            Request::Admin(query) => {
                buf.put_u8(5);
                buf.put_u8(query.to_u8());
            }
            Request::Shutdown => buf.put_u8(6),
            Request::FetchPartition { partition } => {
                buf.put_u8(7);
                buf.put_u32_le(*partition);
            }
            Request::InstallRecords { records } => {
                buf.put_u8(8);
                put_records(records, buf);
            }
            Request::Rejoin { epoch, last_committed, failed, elections, recv_base } => {
                buf.put_u8(9);
                buf.put_u32_le(*epoch);
                buf.put_u32_le(*last_committed);
                buf.put_u32_le(failed.len() as u32);
                for &node in failed {
                    buf.put_u32_le(node);
                }
                buf.put_u32_le(elections.len() as u32);
                for e in elections {
                    e.encode(buf);
                }
                buf.put_u32_le(recv_base.len() as u32);
                for &count in recv_base {
                    buf.put_u64_le(count);
                }
            }
        }
    }

    fn decode(cur: &mut &[u8]) -> Result<Self, DecodeError> {
        match take_u8(cur)? {
            0 => Ok(Request::Ping),
            1 => Ok(Request::Get {
                table: take_u32(cur)?,
                partition: take_u32(cur)?,
                key: take_u64(cur)?,
            }),
            2 => Ok(Request::Run {
                iterations: take_u32(cur)?,
                partitioned_txns: take_u64(cur)?,
                single_master_txns: take_u64(cur)?,
            }),
            3 => {
                let phase = WirePhase::from_u8(take_u8(cur)?)?;
                let epoch = take_u32(cur)?;
                let txns = take_u64(cur)?;
                let n = take_count(cur, 8)?;
                let mut baselines = Vec::with_capacity(n);
                for _ in 0..n {
                    baselines.push(take_u64(cur)?);
                }
                let failed = take_node_ids(cur)?;
                Ok(Request::RunPhase { phase, epoch, txns, baselines, failed })
            }
            4 => {
                let epoch = take_u32(cur)?;
                let n = take_count(cur, 8)?;
                let mut expected = Vec::with_capacity(n);
                for _ in 0..n {
                    expected.push(take_u64(cur)?);
                }
                let failed = take_node_ids(cur)?;
                Ok(Request::Fence { epoch, expected, failed })
            }
            5 => Ok(Request::Admin(AdminQuery::from_u8(take_u8(cur)?)?)),
            6 => Ok(Request::Shutdown),
            7 => Ok(Request::FetchPartition { partition: take_u32(cur)? }),
            8 => Ok(Request::InstallRecords { records: take_records(cur)? }),
            9 => {
                let epoch = take_u32(cur)?;
                let last_committed = take_u32(cur)?;
                let failed = take_node_ids(cur)?;
                let n = take_count(cur, 20)?;
                let mut elections = Vec::with_capacity(n);
                for _ in 0..n {
                    elections.push(WireElection::decode(cur)?);
                }
                let n = take_count(cur, 8)?;
                let mut recv_base = Vec::with_capacity(n);
                for _ in 0..n {
                    recv_base.push(take_u64(cur)?);
                }
                Ok(Request::Rejoin { epoch, last_committed, failed, elections, recv_base })
            }
            tag => Err(DecodeError::UnknownTag { context: "request", tag }),
        }
    }
}

/// Node status reported to `star-admin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireStatus {
    /// Reporting node id.
    pub node: u32,
    /// Its current epoch.
    pub epoch: Epoch,
    /// The last epoch whose fence completed.
    pub last_committed: Epoch,
    /// The elected master (-1 when none).
    pub master: i64,
    /// The election generation.
    pub generation: u64,
    /// Transactions committed so far.
    pub committed: u64,
    /// Whether the node is a full replica.
    pub full_replica: bool,
}

/// A response to a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Generic failure with a human-readable reason.
    Error(String),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Get`].
    Record {
        /// TID of the returned version (raw; 0 when absent).
        tid: u64,
        /// The row, if the key exists.
        row: Option<Row>,
    },
    /// Answer to [`Request::Run`].
    RunDone {
        /// Total transactions committed across the cluster.
        committed: u64,
        /// Epochs closed.
        epochs: u32,
    },
    /// Answer to [`Request::RunPhase`]: the phase ran locally.
    PhaseDone {
        /// Transactions committed by the local phase.
        committed: u64,
        /// Cumulative replication batches this node has sent, per
        /// destination.
        sent: Vec<u64>,
    },
    /// Answer to [`Request::Fence`].
    FenceDone {
        /// The epoch that was closed.
        epoch: Epoch,
        /// Log entries applied by this fence.
        applied: u64,
    },
    /// Answer to [`AdminQuery::Status`].
    Status(WireStatus),
    /// Answer to [`AdminQuery::Elections`].
    Elections(Vec<WireElection>),
    /// Answer to [`AdminQuery::History`].
    History(Vec<WireTxn>),
    /// Answer to [`AdminQuery::ReplicaDigest`].
    Digest {
        /// Records in the replica.
        records: u64,
        /// Commutative FNV digest over the replica's records.
        digest: u64,
    },
    /// Answer to [`Request::FetchPartition`]: the partition's records.
    Records(Vec<WireRecord>),
    /// Answer to [`Request::InstallRecords`].
    InstallDone {
        /// Records whose install actually replaced the local version (the
        /// Thomas write rule skips records the replica already has newer).
        installed: u64,
    },
}

impl Response {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Response::Ok => buf.put_u8(0),
            Response::Error(message) => {
                buf.put_u8(1);
                put_string(message, buf);
            }
            Response::Pong => buf.put_u8(2),
            Response::Record { tid, row } => {
                buf.put_u8(3);
                buf.put_u64_le(*tid);
                match row {
                    Some(row) => {
                        buf.put_u8(1);
                        encode_row(row, buf);
                    }
                    None => buf.put_u8(0),
                }
            }
            Response::RunDone { committed, epochs } => {
                buf.put_u8(4);
                buf.put_u64_le(*committed);
                buf.put_u32_le(*epochs);
            }
            Response::PhaseDone { committed, sent } => {
                buf.put_u8(5);
                buf.put_u64_le(*committed);
                buf.put_u32_le(sent.len() as u32);
                for &count in sent {
                    buf.put_u64_le(count);
                }
            }
            Response::FenceDone { epoch, applied } => {
                buf.put_u8(6);
                buf.put_u32_le(*epoch);
                buf.put_u64_le(*applied);
            }
            Response::Status(status) => {
                buf.put_u8(7);
                buf.put_u32_le(status.node);
                buf.put_u32_le(status.epoch);
                buf.put_u32_le(status.last_committed);
                buf.put_i64_le(status.master);
                buf.put_u64_le(status.generation);
                buf.put_u64_le(status.committed);
                buf.put_u8(u8::from(status.full_replica));
            }
            Response::Elections(log) => {
                buf.put_u8(8);
                buf.put_u32_le(log.len() as u32);
                for e in log {
                    e.encode(buf);
                }
            }
            Response::History(txns) => {
                buf.put_u8(9);
                buf.put_u32_le(txns.len() as u32);
                for txn in txns {
                    txn.encode(buf);
                }
            }
            Response::Digest { records, digest } => {
                buf.put_u8(10);
                buf.put_u64_le(*records);
                buf.put_u64_le(*digest);
            }
            Response::Records(records) => {
                buf.put_u8(11);
                put_records(records, buf);
            }
            Response::InstallDone { installed } => {
                buf.put_u8(12);
                buf.put_u64_le(*installed);
            }
        }
    }

    fn decode(cur: &mut &[u8]) -> Result<Self, DecodeError> {
        match take_u8(cur)? {
            0 => Ok(Response::Ok),
            1 => Ok(Response::Error(take_string(cur)?)),
            2 => Ok(Response::Pong),
            3 => {
                let tid = take_u64(cur)?;
                let row = match take_u8(cur)? {
                    0 => None,
                    1 => Some(take_wire_row(cur)?),
                    tag => return Err(DecodeError::UnknownTag { context: "record presence", tag }),
                };
                Ok(Response::Record { tid, row })
            }
            4 => Ok(Response::RunDone { committed: take_u64(cur)?, epochs: take_u32(cur)? }),
            5 => {
                let committed = take_u64(cur)?;
                let n = take_count(cur, 8)?;
                let mut sent = Vec::with_capacity(n);
                for _ in 0..n {
                    sent.push(take_u64(cur)?);
                }
                Ok(Response::PhaseDone { committed, sent })
            }
            6 => Ok(Response::FenceDone { epoch: take_u32(cur)?, applied: take_u64(cur)? }),
            7 => Ok(Response::Status(WireStatus {
                node: take_u32(cur)?,
                epoch: take_u32(cur)?,
                last_committed: take_u32(cur)?,
                master: take_i64(cur)?,
                generation: take_u64(cur)?,
                committed: take_u64(cur)?,
                full_replica: take_u8(cur)? != 0,
            })),
            8 => {
                let n = take_count(cur, 20)?;
                let mut log = Vec::with_capacity(n);
                for _ in 0..n {
                    log.push(WireElection::decode(cur)?);
                }
                Ok(Response::Elections(log))
            }
            9 => {
                let n = take_count(cur, 29)?;
                let mut txns = Vec::with_capacity(n);
                for _ in 0..n {
                    txns.push(WireTxn::decode(cur)?);
                }
                Ok(Response::History(txns))
            }
            10 => Ok(Response::Digest { records: take_u64(cur)?, digest: take_u64(cur)? }),
            11 => Ok(Response::Records(take_records(cur)?)),
            12 => Ok(Response::InstallDone { installed: take_u64(cur)? }),
            tag => Err(DecodeError::UnknownTag { context: "response", tag }),
        }
    }
}

// ---------------------------------------------------------------------------
// The frame-level message
// ---------------------------------------------------------------------------

const KIND_HELLO: u8 = 1;
const KIND_HELLO_ACK: u8 = 2;
const KIND_REQUEST: u8 = 3;
const KIND_RESPONSE: u8 = 4;
const KIND_REPLICATION: u8 = 5;

/// A complete protocol message (one frame).
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Connection handshake, sent by the connecting peer.
    Hello {
        /// The peer's role.
        role: Role,
        /// The peer's node id (0 for clients and admins).
        node: u32,
    },
    /// Handshake acknowledgement, sent by the server.
    HelloAck {
        /// The serving node's id.
        node: u32,
        /// Cluster size, so clients can size routing tables.
        num_nodes: u32,
    },
    /// An RPC request tagged with a correlation id (pipelining: many
    /// requests may be in flight; responses carry the same id).
    Request {
        /// Correlation id chosen by the sender.
        id: u64,
        /// The request.
        body: Request,
    },
    /// An RPC response carrying its request's correlation id.
    Response {
        /// Correlation id of the request this answers.
        id: u64,
        /// The response.
        body: Response,
    },
    /// A one-way replication batch from a peer node. The entry block is the
    /// [`encode_entries`] encoding, carried as [`Bytes`] so forwarding does
    /// not re-serialize.
    Replication {
        /// Sending node.
        from: u32,
        /// Epoch the batch belongs to.
        epoch: Epoch,
        /// Count-prefixed encoded [`LogEntry`] block.
        entries: Bytes,
    },
}

impl WireMessage {
    fn kind(&self) -> u8 {
        match self {
            WireMessage::Hello { .. } => KIND_HELLO,
            WireMessage::HelloAck { .. } => KIND_HELLO_ACK,
            WireMessage::Request { .. } => KIND_REQUEST,
            WireMessage::Response { .. } => KIND_RESPONSE,
            WireMessage::Replication { .. } => KIND_REPLICATION,
        }
    }

    /// Encodes the message as one complete frame (header + body).
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::new();
        match self {
            WireMessage::Hello { role, node } => {
                body.put_u8(role.to_u8());
                body.put_u32_le(*node);
            }
            WireMessage::HelloAck { node, num_nodes } => {
                body.put_u32_le(*node);
                body.put_u32_le(*num_nodes);
            }
            WireMessage::Request { id, body: req } => {
                body.put_u64_le(*id);
                req.encode(&mut body);
            }
            WireMessage::Response { id, body: resp } => {
                body.put_u64_le(*id);
                resp.encode(&mut body);
            }
            WireMessage::Replication { from, epoch, entries } => {
                body.put_u32_le(*from);
                body.put_u32_le(*epoch);
                body.put_slice(entries);
            }
        }
        let mut frame = BytesMut::with_capacity(FRAME_HEADER_LEN + body.len());
        encode_frame_header(self.kind(), body.len(), &mut frame);
        frame.put_slice(body.as_slice());
        frame.freeze()
    }

    /// Decodes a message body, given its frame kind. Streaming readers call
    /// this after [`decode_frame_header`] told them how many bytes to read.
    pub fn decode_body(kind: u8, body: &[u8]) -> Result<WireMessage, DecodeError> {
        let mut cur = body;
        let message = match kind {
            KIND_HELLO => WireMessage::Hello {
                role: Role::from_u8(take_u8(&mut cur)?)?,
                node: take_u32(&mut cur)?,
            },
            KIND_HELLO_ACK => {
                WireMessage::HelloAck { node: take_u32(&mut cur)?, num_nodes: take_u32(&mut cur)? }
            }
            KIND_REQUEST => {
                WireMessage::Request { id: take_u64(&mut cur)?, body: Request::decode(&mut cur)? }
            }
            KIND_RESPONSE => {
                WireMessage::Response { id: take_u64(&mut cur)?, body: Response::decode(&mut cur)? }
            }
            KIND_REPLICATION => {
                let from = take_u32(&mut cur)?;
                let epoch = take_u32(&mut cur)?;
                // Validate the entry block eagerly so a malformed batch is
                // rejected at the frame boundary, but carry it as bytes so
                // the receiver can defer (or skip) materialising entries.
                decode_entries(cur)?;
                return Ok(WireMessage::Replication {
                    from,
                    epoch,
                    entries: Bytes::from(cur.to_vec()),
                });
            }
            kind => return Err(DecodeError::UnknownKind(kind)),
        };
        if !cur.is_empty() {
            return Err(DecodeError::Malformed("trailing bytes after message body"));
        }
        Ok(message)
    }

    /// Decodes one complete frame from the front of `input`, returning the
    /// message and the total number of bytes consumed.
    pub fn decode(input: &[u8]) -> Result<(WireMessage, usize), DecodeError> {
        let header = decode_frame_header(input)?;
        let total = FRAME_HEADER_LEN + header.body_len;
        if input.len() < total {
            return Err(DecodeError::Truncated { needed: total, have: input.len() });
        }
        let Some(body) = input.get(FRAME_HEADER_LEN..total) else {
            return Err(DecodeError::Truncated { needed: total, have: input.len() });
        };
        let message = Self::decode_body(header.kind, body)?;
        Ok((message, total))
    }
}

/// Convenience constructor for a replication frame from in-memory entries.
pub fn replication_frame(from: NodeId, epoch: Epoch, entries: &[LogEntry]) -> WireMessage {
    WireMessage::Replication { from: from as u32, epoch, entries: encode_entries(entries) }
}

/// A replication frame from entries already in their encoded form: the
/// per-entry bytes the engine produced at commit time are concatenated into
/// the block — nothing is re-serialized on the way to the socket.
pub fn replication_frame_encoded(
    from: NodeId,
    epoch: Epoch,
    entries: &[star_replication::EncodedEntry],
) -> WireMessage {
    WireMessage::Replication {
        from: from as u32,
        epoch,
        entries: star_replication::encode_entry_block(entries),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_common::FieldValue;
    use star_replication::Payload;

    fn round_trip(msg: WireMessage) {
        let frame = msg.encode();
        let (decoded, consumed) = WireMessage::decode(&frame).expect("frame decodes");
        assert_eq!(consumed, frame.len());
        assert_eq!(decoded, msg);
    }

    #[test]
    fn handshake_round_trips() {
        round_trip(WireMessage::Hello { role: Role::Coordinator, node: 2 });
        round_trip(WireMessage::HelloAck { node: 2, num_nodes: 3 });
    }

    #[test]
    fn every_request_round_trips() {
        for body in [
            Request::Ping,
            Request::Get { table: 1, partition: 3, key: 42 },
            Request::Run { iterations: 4, partitioned_txns: 100, single_master_txns: 50 },
            Request::RunPhase {
                phase: WirePhase::SingleMaster,
                epoch: 7,
                txns: 25,
                baselines: vec![],
                failed: vec![],
            },
            Request::RunPhase {
                phase: WirePhase::Partitioned,
                epoch: 9,
                txns: 12,
                baselines: vec![100, 0, 88, 12],
                failed: vec![2],
            },
            Request::Fence { epoch: 7, expected: vec![0, 3, 9], failed: vec![] },
            Request::Fence { epoch: 8, expected: vec![1, 0, 0], failed: vec![1, 2] },
            Request::FetchPartition { partition: 3 },
            Request::InstallRecords {
                records: vec![WireRecord {
                    table: 0,
                    partition: 1,
                    key: 42,
                    tid: Tid::new(4, 7).raw(),
                    row: Row::new(vec![FieldValue::U64(5)]),
                }],
            },
            Request::Rejoin {
                epoch: 11,
                last_committed: 10,
                failed: vec![0],
                elections: vec![
                    WireElection { epoch: 0, master: 0, generation: 0 },
                    WireElection { epoch: 6, master: 1, generation: 1 },
                ],
                recv_base: vec![4, 0, 17],
            },
            Request::Admin(AdminQuery::ReplicaDigest),
            Request::Shutdown,
        ] {
            round_trip(WireMessage::Request { id: 99, body });
        }
    }

    #[test]
    fn every_response_round_trips() {
        let row = Row::new(vec![FieldValue::U64(1), FieldValue::Str("abc".into())]);
        for body in [
            Response::Ok,
            Response::Error("partition offline".into()),
            Response::Pong,
            Response::Record { tid: 12, row: Some(row.clone()) },
            Response::Record { tid: 0, row: None },
            Response::RunDone { committed: 512, epochs: 8 },
            Response::PhaseDone { committed: 64, sent: vec![1, 0, 2] },
            Response::FenceDone { epoch: 9, applied: 77 },
            Response::Status(WireStatus {
                node: 1,
                epoch: 5,
                last_committed: 4,
                master: -1,
                generation: 2,
                committed: 1000,
                full_replica: true,
            }),
            Response::Elections(vec![
                WireElection { epoch: 0, master: 0, generation: 0 },
                WireElection { epoch: 3, master: -1, generation: 1 },
            ]),
            Response::History(vec![WireTxn {
                epoch: 2,
                phase: WirePhase::Partitioned,
                executor: 1,
                tid: Tid::new(2, 5).raw(),
                reads: vec![(0, 1, 7, 0)],
                writes: vec![(0, 1, 7, row.clone())],
            }]),
            Response::Digest { records: 40, digest: 0xdead_beef },
            Response::Records(vec![
                WireRecord {
                    table: 0,
                    partition: 2,
                    key: 7,
                    tid: Tid::new(3, 1).raw(),
                    row: row.clone(),
                },
                WireRecord { table: 1, partition: 0, key: 0, tid: 0, row: Row::new(vec![]) },
            ]),
            Response::InstallDone { installed: 96 },
        ] {
            round_trip(WireMessage::Response { id: 7, body });
        }
    }

    #[test]
    fn replication_frame_round_trips_entries() {
        let row = Row::new(vec![FieldValue::I64(-3)]);
        let entries = vec![LogEntry {
            table: 0,
            partition: 1,
            key: 9,
            tid: Tid::new(1, 1),
            payload: Payload::Value(row),
        }];
        let msg = replication_frame(2, 1, &entries);
        let frame = msg.encode();
        let (decoded, _) = WireMessage::decode(&frame).expect("frame decodes");
        let WireMessage::Replication { from, epoch, entries: block } = decoded else {
            panic!("wrong kind");
        };
        assert_eq!((from, epoch), (2, 1));
        assert_eq!(decode_entries(&block).expect("entries decode"), entries);
    }

    #[test]
    fn election_conversion_round_trips() {
        for e in [
            MasterElection { epoch: 0, master: Some(0), generation: 0 },
            MasterElection { epoch: 5, master: None, generation: 3 },
        ] {
            assert_eq!(WireElection::from_election(&e).to_election(), e);
        }
    }

    #[test]
    fn committed_txn_conversion_round_trips() {
        let txn = CommittedTxn {
            epoch: 3,
            phase: ExecutionPhase::SingleMaster,
            executor: 1 << 32,
            tid: Tid::new(3, 17),
            reads: vec![RecordedRead { table: 1, partition: 0, key: 5, tid: Tid::ZERO }],
            writes: vec![RecordedWrite {
                table: 1,
                partition: 0,
                key: 5,
                row: Row::new(vec![FieldValue::U64(9)]),
            }],
        };
        assert_eq!(WireTxn::from_committed(&txn).to_committed(), txn);
    }

    #[test]
    fn canonical_history_encoding_is_deterministic() {
        let txn = CommittedTxn {
            epoch: 1,
            phase: ExecutionPhase::Partitioned,
            executor: 0,
            tid: Tid::new(1, 1),
            reads: vec![],
            writes: vec![],
        };
        assert_eq!(encode_history(std::slice::from_ref(&txn)), encode_history(&[txn]));
        let log = vec![MasterElection { epoch: 0, master: Some(0), generation: 0 }];
        assert_eq!(encode_elections(&log), encode_elections(&log));
    }

    #[test]
    fn truncated_body_is_a_typed_error() {
        let frame = WireMessage::Request { id: 1, body: Request::Ping }.encode();
        for cut in 0..frame.len() {
            let err = WireMessage::decode(&frame[..cut]).expect_err("truncation detected");
            assert!(matches!(err, DecodeError::Truncated { .. }), "cut at {cut} gave {err:?}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let frame = WireMessage::Request { id: 1, body: Request::Ping }.encode();
        let mut raw = frame.to_vec();
        // Grow the declared body length without providing a valid body.
        raw.push(0xff);
        let len = (raw.len() - FRAME_HEADER_LEN) as u32;
        raw[8..12].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            WireMessage::decode(&raw),
            Err(DecodeError::Malformed("trailing bytes after message body"))
        );
    }

    #[test]
    fn unknown_kind_is_rejected_after_length() {
        let mut buf = BytesMut::new();
        encode_frame_header(200, 0, &mut buf);
        assert_eq!(WireMessage::decode(buf.as_slice()), Err(DecodeError::UnknownKind(200)));
    }

    #[test]
    fn absurd_count_prefix_is_rejected_without_allocation() {
        // A Fence whose expected-count claims u32::MAX entries.
        let mut body = BytesMut::new();
        body.put_u64_le(1); // correlation id
        body.put_u8(4); // Fence tag
        body.put_u32_le(9); // epoch
        body.put_u32_le(u32::MAX); // count
        let mut frame = BytesMut::new();
        encode_frame_header(KIND_REQUEST, body.len(), &mut frame);
        frame.put_slice(body.as_slice());
        assert_eq!(
            WireMessage::decode(frame.as_slice()),
            Err(DecodeError::Malformed("count prefix exceeds remaining input"))
        );
    }
}
