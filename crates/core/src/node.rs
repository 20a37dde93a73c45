//! One STAR node: its state and its half of every protocol step, written once.
//!
//! In the paper every node runs the same engine: in the partitioned phase
//! each node is master of its own partitions, in the single-master phase the
//! elected full replica is master of everything (§4). [`StarNode`] is that
//! engine for one node. The in-process [`StarEngine`](crate::StarEngine) is N
//! of them over the simulated network, a `star-serverd` process is one over
//! TCP; each brings its own epoch clock ([`EpochState`]) and [`Transport`].
//!
//! A node owns its replica, its write-ahead log, the epoch it reverts to when
//! it rejoins after a crash, and the worker states of the phase jobs it has
//! run (created lazily: a partition's the first time the node executes it,
//! the master workers the first time it is master). Its protocol steps are
//! [`partition_jobs`](StarNode::partition_jobs) /
//! [`master_jobs`](StarNode::master_jobs) — a worker behind the cluster's
//! baseline (the node took the stream over, or got it back) is caught up
//! first, so the stream continues exactly where the previous executor left
//! it — [`fence`](StarNode::fence), and the two halves of a recovery copy,
//! [`copy_partition`](StarNode::copy_partition) and
//! [`install`](StarNode::install).

use crate::cluster::build_replica;
use crate::exec::{run_worker, NodeCtx, PhaseBudget, WorkerOutcome, WorkerState};
use crate::failure::{fence_replica, EpochState};
use crate::history::HistoryRecorder;
use crate::messages::ReplicationBatch;
use crate::workload::Workload;
use parking_lot::Mutex;
use star_common::stats::RunCounters;
use star_common::{ClusterConfig, Epoch, Error, NodeId, PartitionId, Result, Row, Tid};
use star_net::Transport;
use star_replication::{EncodedEntry, ExecutionPhase, WalWriter};
use star_storage::Database;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Node `node`'s write-ahead log file in the WAL directory `dir`.
pub(crate) fn wal_file(dir: &Path, node: NodeId) -> PathBuf {
    dir.join(format!("node-{node}.wal"))
}

/// One record of a partition copy, at the version its source holds.
#[derive(Debug, Clone, PartialEq)]
pub struct CopiedRecord {
    /// Table.
    pub table: u32,
    /// Partition.
    pub partition: PartitionId,
    /// Primary key.
    pub key: u64,
    /// The version.
    pub tid: Tid,
    /// The row.
    pub row: Row,
}

/// One phase job: a worker state, the context of the node it runs on, and
/// the nodes it replicates to.
pub struct PhaseJob<'a> {
    ctx: NodeCtx<'a>,
    targets: Vec<NodeId>,
    state: &'a mut WorkerState,
}

impl<'a> PhaseJob<'a> {
    /// The job's partition, or its master worker's id. A stepped phase runs
    /// its jobs in this order, whatever node holds each.
    pub(crate) fn index(&self) -> usize {
        self.state.index()
    }

    /// The job of `state` on `ctx`'s node, its worker first caught up to its
    /// entry in `baselines`.
    fn caught_up(
        ctx: NodeCtx<'a>,
        targets: Vec<NodeId>,
        state: &'a mut WorkerState,
        baselines: &[u64],
    ) -> Self {
        let baseline = baselines.get(state.index()).copied().unwrap_or(0);
        state.catch_up(ctx.workload, ctx.config.partitions, baseline);
        PhaseJob { ctx, targets, state }
    }

    /// Runs the job's worker until `budget` is spent.
    pub fn run(self, budget: PhaseBudget) -> WorkerOutcome {
        run_worker(&self.ctx, &self.targets, self.state, budget)
    }
}

/// One STAR node (see the module docs), replicating over a `T`.
pub struct StarNode<T> {
    id: NodeId,
    config: ClusterConfig,
    db: Arc<Database>,
    transport: T,
    workload: Arc<dyn Workload>,
    counters: Arc<RunCounters>,
    history: Option<Arc<HistoryRecorder>>,
    wal: Option<Arc<Mutex<WalWriter>>>,
    /// The epoch that had committed when this node's crash was detected,
    /// until it has rejoined.
    crashed_at: Option<Epoch>,
    /// Indexed by partition: the partitions this node has executed.
    partition_workers: Vec<Option<WorkerState>>,
    /// Empty until this node is first master.
    master_workers: Vec<WorkerState>,
}

impl<T: Transport<ReplicationBatch>> StarNode<T> {
    /// Node `id`: its replica built and loaded ([`build_replica`]), no WAL,
    /// no history recorder, no worker state yet. Its workers report into
    /// `counters`.
    pub fn new(
        config: &ClusterConfig,
        workload: Arc<dyn Workload>,
        id: NodeId,
        transport: T,
        counters: Arc<RunCounters>,
    ) -> Self {
        StarNode {
            id,
            config: config.clone(),
            db: build_replica(config, workload.as_ref(), id),
            transport,
            workload,
            counters,
            history: None,
            wal: None,
            crashed_at: None,
            partition_workers: (0..config.partitions).map(|_| None).collect(),
            master_workers: Vec::new(),
        }
    }

    /// Opens the node's write-ahead log in `dir` (see [`wal_file`]).
    pub(crate) fn open_wal(&mut self, dir: &Path) -> Result<()> {
        self.wal = Some(Arc::new(Mutex::new(WalWriter::open(wal_file(dir, self.id))?)));
        Ok(())
    }

    /// Attaches (or detaches) a committed-history recorder.
    pub fn set_history(&mut self, history: Option<Arc<HistoryRecorder>>) {
        self.history = history;
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's replica.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The node's handle on the replication network.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The counters the node's workers report into.
    pub fn counters(&self) -> &RunCounters {
        &self.counters
    }

    /// The attached history recorder, if any.
    pub fn history(&self) -> Option<&Arc<HistoryRecorder>> {
        self.history.as_ref()
    }

    /// The node's write-ahead log, when disk logging is on.
    pub(crate) fn wal(&self) -> Option<&Arc<Mutex<WalWriter>>> {
        self.wal.as_ref()
    }

    /// Lends the node's phase context for `epoch`, next to its partition and
    /// master worker states.
    fn lend(
        &mut self,
        epoch: Epoch,
    ) -> (NodeCtx<'_>, &mut Vec<Option<WorkerState>>, &mut Vec<WorkerState>) {
        let StarNode { id, config, db, transport, workload, counters, history, wal, .. } = self;
        let ctx = NodeCtx {
            node: *id,
            config,
            db,
            transport,
            workload: &**workload,
            counters,
            wal: wal.as_deref(),
            history: history.as_deref(),
            epoch,
        };
        (ctx, &mut self.partition_workers, &mut self.master_workers)
    }

    /// The attempts this node's worker of partition (or master worker)
    /// `index` has made in `phase` — 0 if the node never ran it.
    pub(crate) fn attempts(&self, phase: ExecutionPhase, index: usize) -> u64 {
        let state = match phase {
            ExecutionPhase::Partitioned => {
                self.partition_workers.get(index).and_then(Option::as_ref)
            }
            ExecutionPhase::SingleMaster => self.master_workers.get(index),
        };
        state.map_or(0, WorkerState::attempts)
    }

    /// This node's partitioned-phase jobs in `clock`'s epoch: one per
    /// partition it is the effective primary of under `failed`, replicating
    /// to the partition's other healthy holders, in partition order. Each
    /// worker is first caught up to its partition's entry in `baselines`.
    pub fn partition_jobs(
        &mut self,
        clock: &EpochState,
        failed: &[bool],
        baselines: &[u64],
    ) -> Vec<PhaseJob<'_>> {
        let id = self.id;
        let (ctx, workers, _) = self.lend(clock.epoch());
        let config = ctx.config;
        workers
            .iter_mut()
            .enumerate()
            .filter(|(partition, _)| config.effective_primary(failed, *partition) == Some(id))
            .map(|(partition, slot)| {
                let state = slot.get_or_insert_with(|| WorkerState::partition(config, partition));
                let targets = config.replica_targets(failed, id, partition);
                PhaseJob::caught_up(ctx, targets, state, baselines)
            })
            .collect()
    }

    /// This node's single-master-phase jobs in `clock`'s epoch: every master
    /// worker, replicating to every other healthy node under `failed`, in
    /// worker order — when the clock's elected master is this node, and none
    /// otherwise. Each worker is first caught up to its entry in
    /// `baselines`.
    pub fn master_jobs(
        &mut self,
        clock: &EpochState,
        failed: &[bool],
        baselines: &[u64],
    ) -> Vec<PhaseJob<'_>> {
        let id = self.id;
        if clock.current_master() != Some(id) {
            return Vec::new();
        }
        let (ctx, _, workers) = self.lend(clock.epoch());
        let config = ctx.config;
        if workers.is_empty() {
            *workers =
                (0..config.workers_per_node).map(|w| WorkerState::master(config, w)).collect();
        }
        let healthy = config.healthy_peers(failed, id);
        let jobs = workers.iter_mut();
        jobs.map(|state| PhaseJob::caught_up(ctx, healthy.clone(), state, baselines)).collect()
    }

    /// The node's half of a replication fence, between the clock's
    /// `open_fence` (whose verdict is `reverting`) and `close_fence`
    /// ([`fence_replica`]): revert if reverting, then apply each surviving
    /// entry of what `arrived` now if `apply_now` says so. Returns how many
    /// were applied, and the rest, for the caller to apply behind the fence.
    pub fn fence(
        &self,
        clock: &EpochState,
        reverting: bool,
        arrived: impl IntoIterator<Item = ReplicationBatch>,
        apply_now: impl Fn(&EncodedEntry) -> bool,
    ) -> (u64, Vec<EncodedEntry>) {
        let (mut applied, mut deferred) = (0, Vec::new());
        fence_replica(clock, reverting, &self.db, arrived, |entry| {
            if apply_now(&entry) {
                let _ = entry.apply(&self.db);
                applied += 1;
            } else {
                deferred.push(entry);
            }
        });
        (applied, deferred)
    }

    /// A fence detected this node's crash while `committed` was the last
    /// committed epoch: the epoch then in flight was discarded by the rest
    /// of the cluster (Figure 6), so the replica reverts to `committed` when
    /// the node rejoins.
    pub(crate) fn crashed(&mut self, committed: Epoch) {
        self.crashed_at = Some(committed);
    }

    /// The first step of a rejoin: reverts the replica to the epoch that had
    /// committed at the crash. The marker stays until
    /// [`rejoined`](Self::rejoined), so an aborted copy can be retried.
    pub(crate) fn revert_to_crash(&self) {
        if let Some(committed) = self.crashed_at {
            self.db.revert_to_epoch(committed);
        }
    }

    /// The node has caught up and rejoined.
    pub(crate) fn rejoined(&mut self) {
        self.crashed_at = None;
    }

    /// The source's half of a recovery copy: every record of `partition`, at
    /// its current version.
    pub fn copy_partition(&self, partition: PartitionId) -> Result<Vec<CopiedRecord>> {
        if !self.db.holds(partition) {
            return Err(Error::Config(format!(
                "node {} does not hold partition {partition}",
                self.id
            )));
        }
        let mut records = Vec::new();
        self.db.for_each_record(|table, p, key, record| {
            if p == partition {
                let read = record.read();
                let row = read.row.unpack();
                records.push(CopiedRecord { table, partition, key, tid: read.tid, row });
            }
        });
        Ok(records)
    }

    /// The recovering node's half of a recovery copy: installs `records`
    /// under the Thomas write rule and returns how many were fresher than
    /// the replica's. Every record is checked before any is written, so a
    /// copy naming a partition this node does not hold is refused whole.
    pub fn install(&self, records: Vec<CopiedRecord>) -> Result<u64> {
        if let Some(stray) = records.iter().find(|record| !self.db.holds(record.partition)) {
            return Err(Error::Config(format!(
                "node {} cannot install into partition {}",
                self.id, stray.partition
            )));
        }
        let mut installed = 0;
        for CopiedRecord { table, partition, key, tid, row } in records {
            if self.db.apply_value_write(table, partition, key, row, tid).unwrap_or(false) {
                installed += 1;
            }
        }
        Ok(installed)
    }
}
