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
//! Every body layout below is declared once: `wire_enum!` / `wire_struct!`
//! (`crate::codec`) turn one row per variant or field into the type, its
//! encoder and its decoder. The rows *are* the wire format — a tag byte, then
//! the listed fields in order. Only the frame envelope ([`WireMessage`]) is
//! written by hand: a replication frame carries its block as received.
//!
//! Committed transactions and master elections have canonical wire forms
//! ([`WireTxn`], [`WireElection`]) with explicit conversions to the core
//! types; the transport-parity harness compares the *encodings*, so "same
//! history" literally means byte-identical.

use crate::codec::{wire_enum, wire_struct, Wire};
use crate::error::DecodeError;
use crate::frame::{decode_frame_header, encode_frame_header, FRAME_HEADER_LEN};
use bytes::{BufMut, Bytes, BytesMut};
use star_common::{Epoch, NodeId, Row, Tid};
use star_core::history::{CommittedTxn, RecordedRead, RecordedWrite};
use star_core::node::CopiedRecord;
use star_core::MasterElection;
use star_replication::{
    check_entry_block, encode_entry_block, map_entry_block, EncodedEntry, ExecutionPhase, LogEntry,
};

// ---------------------------------------------------------------------------
// Roles and phases
// ---------------------------------------------------------------------------

wire_enum! {
    /// What a connecting peer is, declared in its `Hello`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Role as "role" {
        /// A client driving transactions (`star-client`).
        0 => Client,
        /// Another cluster node's replication stream.
        1 => Peer,
        /// An inspection session (`star-admin`).
        2 => Admin,
        /// The coordinator's phase-control connection.
        3 => Coordinator,
    }
}

wire_enum! {
    /// Which phase a `RunPhase` request starts.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WirePhase as "phase" {
        /// The partitioned (no-concurrency-control) phase.
        0 => Partitioned,
        /// The single-master (Silo OCC) phase.
        1 => SingleMaster,
    }
}

wire_enum! {
    /// An admin inspection query.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum AdminQuery as "admin query" {
        /// Node status: epoch, elected master, commit counters.
        0 => Status,
        /// The full election log.
        1 => Elections,
        /// The node's committed history, in canonical wire form.
        2 => History,
        /// A commutative digest of the node's replica state.
        3 => ReplicaDigest,
    }
}

// ---------------------------------------------------------------------------
// Canonical wire forms of core types
// ---------------------------------------------------------------------------

wire_struct! {
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
}

wire_struct! {
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
}

/// The most record bytes one [`Request::FetchPartition`] page carries, unless
/// its first record alone is larger: a partition of any size copies in
/// frames well under [`crate::MAX_BODY_LEN`].
pub const RECORD_PAGE_BYTES: usize = 4 << 20;

wire_struct! {
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
}

impl WireRecord {
    /// One page of a partition copy: the records from position `start`, as
    /// many as fit [`RECORD_PAGE_BYTES`] — and always the first, so a copy
    /// makes progress whatever its rows weigh.
    pub fn page(records: Vec<CopiedRecord>, start: u64) -> Vec<WireRecord> {
        let start = usize::try_from(start).unwrap_or(usize::MAX);
        let mut bytes = 0;
        let fits = |record: &CopiedRecord| {
            let first = bytes == 0;
            // Table, partition, key and TID, then the row: the record's encoding.
            bytes += 24 + record.row.wire_size();
            first || bytes <= RECORD_PAGE_BYTES
        };
        records.into_iter().skip(start).take_while(fits).map(WireRecord::from).collect()
    }
}

impl From<CopiedRecord> for WireRecord {
    fn from(CopiedRecord { table, partition, key, tid, row }: CopiedRecord) -> Self {
        WireRecord { table, partition: partition as u32, key, tid: tid.raw(), row }
    }
}

impl From<WireRecord> for CopiedRecord {
    fn from(WireRecord { table, partition, key, tid, row }: WireRecord) -> Self {
        CopiedRecord { table, partition: partition as usize, key, tid: Tid::from_raw(tid), row }
    }
}

/// Serializes a committed history into its canonical byte form. The parity
/// harness compares these buffers directly: byte equality is the test.
pub fn encode_history(txns: &[CommittedTxn]) -> Bytes {
    let mut buf = BytesMut::new();
    txns.iter().map(WireTxn::from_committed).collect::<Vec<_>>().put(&mut buf);
    buf.freeze()
}

/// Serializes an election log into its canonical byte form.
pub fn encode_elections(log: &[MasterElection]) -> Bytes {
    let mut buf = BytesMut::new();
    log.iter().map(WireElection::from_election).collect::<Vec<_>>().put(&mut buf);
    buf.freeze()
}

/// Serializes a replication entry block (count-prefixed [`LogEntry`] stream;
/// [`encode_entry_block`] owns the layout).
pub fn encode_entries(entries: &[LogEntry]) -> Bytes {
    encode_entry_block(&EncodedEntry::encode_all(entries.to_vec()))
}

/// Decodes a replication entry block produced by [`encode_entries`].
pub fn decode_entries(block: &[u8]) -> Result<Vec<LogEntry>, DecodeError> {
    map_entry_block(block, |_, entry| entry).map_err(|_| DecodeError::Malformed("entry block"))
}

// ---------------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------------

wire_enum! {
    /// A client / coordinator / admin request.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request as "request" {
        /// Liveness probe.
        0 => Ping,
        /// Point read of one record.
        1 => Get {
            /// Table of the record.
            table: u32,
            /// Partition of the record.
            partition: u32,
            /// Primary key.
            key: u64,
        },
        /// Coordinator entry point: run `iterations` stepped iterations of the
        /// seeded workload across the whole cluster.
        2 => Run {
            /// Number of partitioned/single-master iterations.
            iterations: u32,
            /// Transaction attempts per partition per partitioned phase.
            partitioned_txns: u64,
            /// Transaction attempts per master worker per single-master phase.
            single_master_txns: u64,
        },
        /// Intra-cluster: execute one stepped phase locally.
        3 => RunPhase {
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
            /// it restarted) catches the worker up to the baseline before
            /// executing, so the transaction stream continues exactly
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
        4 => Fence {
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
        /// Admin inspection.
        5 => Admin(query: AdminQuery),
        /// Graceful shutdown of the receiving node.
        6 => Shutdown,
        /// Supervisor: read one page of a locally held partition — its
        /// records from position `start` of the canonical order, as many as
        /// fit [`RECORD_PAGE_BYTES`] — the source half of a recovery
        /// catch-up copy. An empty page ends the partition.
        7 => FetchPartition {
            /// Partition to read.
            partition: u32,
            /// Records of the partition before the page.
            start: u64,
        },
        /// Supervisor: install records into the local replica under the Thomas
        /// write rule (apply-if-newer) — the target half of a recovery copy.
        8 => InstallRecords {
            /// Records to install.
            records: Vec<WireRecord>,
        },
        /// Supervisor: adopt cluster state after a process restart, so the
        /// rejoining node agrees with the survivors about the epoch, the
        /// failure picture, the election log and the cumulative replication
        /// counters its fresh counters must be rebased onto.
        9 => Rejoin {
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
        /// Supervisor: `node` has rejoined. The receiver stops counting it as
        /// failed at once — as the simulator's one epoch clock does — so a
        /// crash of `node` before the next fence is news to that fence.
        10 => Recovered {
            /// The node that rejoined.
            node: u32,
        },
    }
}

wire_struct! {
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
}

wire_enum! {
    /// A response to a [`Request`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response as "response" {
        /// Generic success.
        0 => Ok,
        /// Generic failure with a human-readable reason.
        1 => Error(message: String),
        /// Answer to [`Request::Ping`].
        2 => Pong,
        /// Answer to [`Request::Get`].
        3 => Record {
            /// TID of the returned version (raw; 0 when absent).
            tid: u64,
            /// The row, if the key exists.
            row: Option<Row>,
        },
        /// Answer to [`Request::Run`].
        4 => RunDone {
            /// Total transactions committed across the cluster.
            committed: u64,
            /// Epochs closed.
            epochs: u32,
        },
        /// Answer to [`Request::RunPhase`]: the phase ran locally.
        5 => PhaseDone {
            /// Transactions committed by the local phase.
            committed: u64,
            /// Cumulative replication batches this node has sent, per
            /// destination.
            sent: Vec<u64>,
        },
        /// Answer to [`Request::Fence`].
        6 => FenceDone {
            /// The epoch that was closed.
            epoch: Epoch,
            /// Log entries applied by this fence.
            applied: u64,
        },
        /// Answer to [`AdminQuery::Status`].
        7 => Status(status: WireStatus),
        /// Answer to [`AdminQuery::Elections`].
        8 => Elections(log: Vec<WireElection>),
        /// Answer to [`AdminQuery::History`].
        9 => History(txns: Vec<WireTxn>),
        /// Answer to [`AdminQuery::ReplicaDigest`].
        10 => Digest {
            /// Records in the replica.
            records: u64,
            /// Commutative FNV digest over the replica's records.
            digest: u64,
        },
        /// Answer to [`Request::FetchPartition`]: the partition's records.
        11 => Records(records: Vec<WireRecord>),
        /// Answer to [`Request::InstallRecords`].
        12 => InstallDone {
            /// Records whose install actually replaced the local version (the
            /// Thomas write rule skips records the replica already has newer).
            installed: u64,
        },
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
    /// Encodes the message as one complete frame (header + body).
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::new();
        let kind = match self {
            WireMessage::Hello { role, node } => {
                role.put(&mut body);
                node.put(&mut body);
                KIND_HELLO
            }
            WireMessage::HelloAck { node, num_nodes } => {
                node.put(&mut body);
                num_nodes.put(&mut body);
                KIND_HELLO_ACK
            }
            WireMessage::Request { id, body: request } => {
                id.put(&mut body);
                request.put(&mut body);
                KIND_REQUEST
            }
            WireMessage::Response { id, body: response } => {
                id.put(&mut body);
                response.put(&mut body);
                KIND_RESPONSE
            }
            WireMessage::Replication { from, epoch, entries } => {
                from.put(&mut body);
                epoch.put(&mut body);
                body.put_slice(entries);
                KIND_REPLICATION
            }
        };
        let mut frame = BytesMut::with_capacity(FRAME_HEADER_LEN + body.len());
        encode_frame_header(kind, body.len(), &mut frame);
        frame.put_slice(body.as_slice());
        frame.freeze()
    }

    /// Decodes a message body, given its frame kind. Streaming readers call
    /// this after [`decode_frame_header`] told them how many bytes to read.
    pub fn decode_body(kind: u8, mut body: &[u8]) -> Result<WireMessage, DecodeError> {
        let cur = &mut body;
        let message = match kind {
            KIND_HELLO => WireMessage::Hello { role: Wire::take(cur)?, node: Wire::take(cur)? },
            KIND_HELLO_ACK => {
                WireMessage::HelloAck { node: Wire::take(cur)?, num_nodes: Wire::take(cur)? }
            }
            KIND_REQUEST => WireMessage::Request { id: Wire::take(cur)?, body: Wire::take(cur)? },
            KIND_RESPONSE => WireMessage::Response { id: Wire::take(cur)?, body: Wire::take(cur)? },
            KIND_REPLICATION => {
                let from = Wire::take(cur)?;
                let epoch = Wire::take(cur)?;
                // Validate the entry block eagerly so a malformed batch is
                // rejected at the frame boundary — walking it in place,
                // materialising nothing — but carry it as bytes: the
                // receiver decodes its entries once, when it applies them.
                check_entry_block(cur).map_err(|_| DecodeError::Malformed("entry block"))?;
                return Ok(WireMessage::Replication { from, epoch, entries: Bytes::from(*cur) });
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
        let Some(body) = input.get(FRAME_HEADER_LEN..total) else {
            return Err(DecodeError::Truncated { needed: total, have: input.len() });
        };
        let message = Self::decode_body(header.kind, body)?;
        Ok((message, total))
    }
}

/// Convenience constructor for a replication frame from in-memory entries.
pub fn replication_frame(from: NodeId, epoch: Epoch, entries: &[LogEntry]) -> WireMessage {
    replication_frame_encoded(from, epoch, &EncodedEntry::encode_all(entries.to_vec()))
}

/// A replication frame from entries already in their encoded form: the
/// per-entry bytes the engine produced at commit time are concatenated into
/// the block — nothing is re-serialized on the way to the socket.
pub fn replication_frame_encoded(
    from: NodeId,
    epoch: Epoch,
    entries: &[EncodedEntry],
) -> WireMessage {
    WireMessage::Replication { from: from as u32, epoch, entries: encode_entry_block(entries) }
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
            Request::FetchPartition { partition: 3, start: 40_000 },
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
            Request::Recovered { node: 2 },
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
    fn partition_pages_cover_every_record_once_within_the_page_bound() {
        let row = Row::new(vec![FieldValue::Bytes(vec![7; 1000])]);
        let copy: Vec<CopiedRecord> = (0..10_000u64)
            .map(|key| CopiedRecord {
                table: 0,
                partition: 1,
                key,
                tid: Tid::new(1, key),
                row: row.clone(),
            })
            .collect();
        let (mut start, mut pages, mut keys) = (0, 0, Vec::new());
        loop {
            let page = WireRecord::page(copy.clone(), start);
            if page.is_empty() {
                break;
            }
            let frame = WireMessage::Response { id: 1, body: Response::Records(page.clone()) };
            assert!(frame.encode().len() <= RECORD_PAGE_BYTES + 64, "a page outgrew its bound");
            start += page.len() as u64;
            pages += 1;
            keys.extend(page.iter().map(|record| record.key));
        }
        assert_eq!(keys, (0..10_000).collect::<Vec<u64>>());
        assert_eq!(pages, 3, "10 MB of records take three 4 MiB pages");
        // A record larger than a page still travels, alone.
        let row = Row::new(vec![FieldValue::Bytes(vec![0; RECORD_PAGE_BYTES])]);
        let huge = CopiedRecord { row, ..copy[0].clone() };
        assert_eq!(WireRecord::page(vec![huge.clone(), huge], 0).len(), 1);
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
    fn derived_count_bounds_are_never_looser_than_the_hand_typed_ones() {
        // The hand-written decoder typed 24, 20, 20 and 29; a record is 24
        // header bytes plus a row's 4-byte field count, where it typed 25.
        let reads_writes = [<(u32, u32, u64, u64)>::MIN_LEN, <(u32, u32, u64, Row)>::MIN_LEN];
        assert_eq!(reads_writes, [24, 20]);
        assert_eq!([WireElection::MIN_LEN, WireTxn::MIN_LEN, WireRecord::MIN_LEN], [20, 29, 28]);
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
