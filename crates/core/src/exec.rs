//! The shared phase workers.
//!
//! Exactly one implementation exists of "run one worker through one phase":
//! generate → execute → commit → record → replicate → WAL, until the phase's
//! [`PhaseBudget`] is spent. The in-process [`StarEngine`](crate::StarEngine)
//! (timed and stepped) and the TCP deployment (`star-serverd`) call the same
//! [`run_partition_worker`] and [`run_master_worker`] over a borrowed
//! [`NodeCtx`]. Replication goes through [`Transport`], the seam implemented
//! by the deterministic in-memory endpoint and by the real TCP mesh alike —
//! so when the transport-parity harness asserts byte-identical committed
//! histories between wire and simulation, the engine logic is shared by
//! construction and any divergence is the transport's.
//!
//! Worker state (TID generator + seeded RNG) is also constructed here, from
//! the one canonical seed-derivation formula: partition worker `p` draws from
//! `rng_seed_base() ^ 0x5747 ^ p`, master worker `w` from
//! `rng_seed_base() ^ 0xCA11 ^ w`. Identical configuration ⇒ identical
//! transaction streams, on every backend.

use crate::history::{CommittedTxn, HistoryRecorder, MASTER_EXECUTOR_OFFSET};
use crate::messages::ReplicationBatch;
use crate::workload::Workload;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use star_common::stats::RunCounters;
use star_common::{
    ClusterConfig, Epoch, Error, NodeId, PartitionId, ReplicationMode, Tid, TidGenerator,
};
use star_net::{Message as _, Transport};
use star_occ::{
    commit_partitioned, commit_single_master, Procedure, ReadSet, TxnCtx, WriteEntry, WriteSet,
};
use star_replication::{
    build_log_entries, EncodedEntry, ExecutionPhase, LogEntry, Payload, WalWriter,
};
use star_storage::Database;
use std::time::Instant;

/// Everything one node lends its phase workers for the duration of a phase.
/// All borrows are shared and `Sync`, so the context crosses
/// `std::thread::scope` by reference.
pub struct NodeCtx<'a> {
    /// The executing node (the sender of every batch the workers ship).
    pub node: NodeId,
    /// The cluster configuration.
    pub config: &'a ClusterConfig,
    /// The node's replica.
    pub db: &'a Database,
    /// The node's handle on the replication network.
    pub transport: &'a dyn Transport<ReplicationBatch>,
    /// The workload generating the transactions.
    pub workload: &'a dyn Workload,
    /// The run counters the workers report into.
    pub counters: &'a RunCounters,
    /// The node's write-ahead log, when disk logging is on.
    pub wal: Option<&'a Mutex<WalWriter>>,
    /// The committed-history recorder, when one is attached.
    pub history: Option<&'a HistoryRecorder>,
    /// The epoch the phase executes in.
    pub epoch: Epoch,
}

/// How long a worker keeps executing transactions in one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseBudget {
    /// Until the wall clock passes this instant, but at least one attempt —
    /// a heavily loaded host cannot starve a worker out of an entire (very
    /// short) phase. Replication is staged and merged per target.
    Deadline(Instant),
    /// Exactly this many attempts. Replication is flushed after every
    /// transaction, so the message sequence — and with it every per-send
    /// fault-plane roll the chaos corpus depends on — is a pure function of
    /// the seed.
    Count(u64),
}

impl PhaseBudget {
    fn allows(self, attempts: u64) -> bool {
        match self {
            PhaseBudget::Count(count) => attempts < count,
            // star-lint: allow(determinism::instant-now) -- the deadline budget is the timed path by definition; stepped runs use Count
            PhaseBudget::Deadline(deadline) => attempts == 0 || Instant::now() < deadline,
        }
    }
}

/// What one worker did in one phase.
#[derive(Debug, Default)]
pub struct WorkerOutcome {
    /// Transactions committed.
    pub committed: u64,
    /// Commit instants of sampled transactions (one in [`LATENCY_SAMPLE`],
    /// [`PhaseBudget::Deadline`] only); the caller closes their latency at
    /// the fence that releases the epoch.
    pub samples: Vec<Instant>,
}

/// Sampling rate for commit-latency measurements.
pub const LATENCY_SAMPLE: u64 = 8;

/// A staged target buffer flushes once it holds this many entries, bounding
/// staged memory and the size of any one fence-drained batch.
pub const STAGE_FLUSH_ENTRIES: usize = 1024;

/// Per-worker staging of replication traffic.
///
/// Committed entries accumulate in thread-local per-target buffers and are
/// flushed as one merged batch per target, in ascending target order. Under
/// a [`PhaseBudget::Deadline`] each worker thereby pays the transport
/// fan-out cost (channel enqueue, fault-plane roll, stats update) once per
/// flush instead of once per transaction — the contention point behind the
/// 2→4 thread throughput collapse. Under a [`PhaseBudget::Count`] the worker
/// flushes after every transaction, which is exactly one batch per
/// (committing transaction, target).
///
/// Entries for one partition stay in commit stream order within a worker's
/// buffers, and partitioned-phase partitions are single-writer, so operation
/// replication's in-order apply requirement is untouched.
struct ReplicationStage<'a> {
    targets: &'a [NodeId],
    per_target: Vec<Vec<EncodedEntry>>,
}

impl<'a> ReplicationStage<'a> {
    fn new(targets: &'a [NodeId], num_nodes: usize) -> Self {
        ReplicationStage { targets, per_target: vec![Vec::new(); num_nodes] }
    }

    /// Stages, per target, the `entries` that are `relevant` to it. Entries
    /// are shared buffers, so fanning out is a refcount bump per entry; no
    /// payload is ever cloned or re-encoded.
    fn push(&mut self, entries: &[EncodedEntry], relevant: impl Fn(NodeId, &EncodedEntry) -> bool) {
        for &target in self.targets {
            if let Some(buffer) = self.per_target.get_mut(target) {
                buffer.extend(entries.iter().filter(|e| relevant(target, e)).cloned());
            }
        }
    }

    /// Sends every non-empty target buffer holding at least `threshold`
    /// entries as one batch, targets ascending.
    fn flush(&mut self, ctx: &NodeCtx<'_>, threshold: usize) {
        for (target, buffer) in self.per_target.iter_mut().enumerate() {
            if buffer.is_empty() || buffer.len() < threshold {
                continue;
            }
            let batch = ReplicationBatch {
                from_node: ctx.node,
                epoch: ctx.epoch,
                entries: std::mem::take(buffer),
            };
            ctx.counters.add_replication_bytes(batch.wire_size() as u64);
            let _ = ctx.transport.send(target, batch);
        }
    }
}

/// The one phase loop: attempts transactions until `budget` is spent,
/// flushing staged replication per the budget's policy, and flushes
/// everything before returning — the fence drains endpoints after the phase
/// joins, and its contract is that every entry the phase produced was sent.
fn run_worker(
    ctx: &NodeCtx<'_>,
    targets: &[NodeId],
    budget: PhaseBudget,
    mut attempt: impl FnMut(&mut ReplicationStage<'_>) -> bool,
) -> WorkerOutcome {
    let (timed, flush_at) = match budget {
        PhaseBudget::Deadline(_) => (true, STAGE_FLUSH_ENTRIES),
        PhaseBudget::Count(_) => (false, 0),
    };
    let mut stage = ReplicationStage::new(targets, ctx.config.num_nodes);
    let mut outcome = WorkerOutcome::default();
    let mut attempts = 0u64;
    while budget.allows(attempts) {
        attempts += 1;
        if attempt(&mut stage) {
            outcome.committed += 1;
            if timed && outcome.committed % LATENCY_SAMPLE == 0 {
                // star-lint: allow(determinism::instant-now) -- commit-latency sample, taken under a Deadline budget only
                outcome.samples.push(Instant::now());
            }
        }
        stage.flush(ctx, flush_at);
    }
    stage.flush(ctx, 0);
    outcome
}

/// Runs the partitioned-phase worker of `state`'s partition on its effective
/// primary `ctx.node`, replicating to `targets` (the partition's other
/// healthy holders).
pub fn run_partition_worker(
    ctx: &NodeCtx<'_>,
    targets: &[NodeId],
    state: &mut PartitionWorkerState,
    budget: PhaseBudget,
) -> WorkerOutcome {
    run_worker(ctx, targets, budget, |stage| run_one_partitioned_txn(ctx, state, stage))
}

/// Runs single-master worker `state` on the master `ctx.node`, replicating
/// to `healthy` (every other healthy node).
pub fn run_master_worker(
    ctx: &NodeCtx<'_>,
    healthy: &[NodeId],
    state: &mut MasterWorkerState,
    budget: PhaseBudget,
) -> WorkerOutcome {
    run_worker(ctx, healthy, budget, |stage| run_one_master_txn(ctx, state, stage))
}

/// Per-partition worker state that survives across iterations.
pub struct PartitionWorkerState {
    partition: PartitionId,
    tid_gen: TidGenerator,
    rng: StdRng,
}

impl PartitionWorkerState {
    /// State for the worker owning `partition`, seeded by the canonical
    /// formula shared by every backend.
    pub fn new(config: &ClusterConfig, partition: PartitionId) -> Self {
        PartitionWorkerState {
            partition,
            tid_gen: TidGenerator::new(),
            rng: StdRng::seed_from_u64(config.rng_seed_base() ^ 0x5747_u64 ^ (partition as u64)),
        }
    }

    /// Advances this worker's RNG past `attempts` transaction generations
    /// without executing anything, by generating and discarding the same
    /// procedures [`run_partition_worker`] would have drawn.
    ///
    /// A node taking over a partition mid-run (primary failover, or a
    /// restarted process rejoining) must resume the partition's transaction
    /// stream exactly where the previous executor left it. Each attempt —
    /// committed or aborted — consumes exactly one workload generation, so
    /// replaying the generations is a faithful fast-forward. The TID
    /// generator needs no transfer: failover only happens across an epoch
    /// fence, the epoch always advances, and TIDs are epoch-major, so a
    /// fresh generator's `Tid::new(epoch, 1)` matches what a carried-over
    /// generator would produce.
    pub fn fast_forward(&mut self, workload: &dyn Workload, attempts: u64) {
        for _ in 0..attempts {
            let _ = workload.single_partition_transaction(&mut self.rng, self.partition);
        }
    }
}

/// Per-master-worker state that survives across iterations.
pub struct MasterWorkerState {
    worker_id: usize,
    tid_gen: TidGenerator,
    rng: StdRng,
}

impl MasterWorkerState {
    /// State for master worker `worker`, seeded by the canonical formula
    /// shared by every backend.
    pub fn new(config: &ClusterConfig, worker: usize) -> Self {
        MasterWorkerState {
            worker_id: worker,
            tid_gen: TidGenerator::new(),
            rng: StdRng::seed_from_u64(config.rng_seed_base() ^ 0xCA11_u64 ^ (worker as u64)),
        }
    }

    /// Draws the next cross-partition procedure: one home partition, then
    /// one workload generation.
    fn next_procedure(&mut self, workload: &dyn Workload, partitions: usize) -> Box<dyn Procedure> {
        use rand::Rng;
        let home = (self.rng.gen::<usize>() ^ self.worker_id) % partitions;
        workload.cross_partition_transaction(&mut self.rng, home)
    }

    /// Advances this master worker's RNG past `attempts` transaction
    /// generations without executing anything — the single-master twin of
    /// [`PartitionWorkerState::fast_forward`], used when a re-elected master
    /// must resume this worker's cross-partition stream where the previous
    /// master's worker left it.
    pub fn fast_forward(&mut self, workload: &dyn Workload, partitions: usize, attempts: u64) {
        for _ in 0..attempts {
            let _ = self.next_procedure(workload, partitions);
        }
    }
}

/// Logs a committed write set to a worker's WAL, as full rows (Section 5).
fn append_writes_to_wal(
    wal: &Mutex<WalWriter>,
    write_set: &[WriteEntry],
    tid: Tid,
    counters: &RunCounters,
) {
    let mut wal = wal.lock();
    for w in write_set {
        let entry = LogEntry {
            table: w.table,
            partition: w.partition,
            key: w.key,
            tid,
            payload: Payload::Value(w.row.clone()),
        };
        // `wire_size` is exact, so the counter adds up to the bytes written.
        if wal.append_value(&entry).is_ok() {
            counters.add_wal_bytes(entry.wire_size() as u64);
        }
    }
}

/// Executes `proc` and returns its read and write sets, or counts the abort.
fn execute(
    ctx: &NodeCtx<'_>,
    proc: &dyn Procedure,
    mut txn: TxnCtx<'_>,
) -> Option<(ReadSet, WriteSet)> {
    match proc.execute(&mut txn) {
        Ok(()) => Some(txn.into_sets()),
        Err(Error::Abort(star_common::AbortReason::User)) => {
            ctx.counters.add_user_abort();
            None
        }
        Err(_) => {
            ctx.counters.add_abort();
            None
        }
    }
}

/// Executes one single-partition transaction on the partition's effective
/// primary: generate → execute → lock-free commit → record → stage for the
/// replica targets → WAL. Returns `true` if the transaction committed.
fn run_one_partitioned_txn(
    ctx: &NodeCtx<'_>,
    state: &mut PartitionWorkerState,
    stage: &mut ReplicationStage<'_>,
) -> bool {
    let proc = ctx.workload.single_partition_transaction(&mut state.rng, state.partition);
    let Some((read_set, write_set)) =
        execute(ctx, proc.as_ref(), TxnCtx::new_single_threaded(ctx.db))
    else {
        return false;
    };
    let recorded_reads = ctx.history.map(|_| read_set.clone());
    let Ok(output) = commit_partitioned(ctx.db, read_set, write_set, ctx.epoch, &mut state.tid_gen)
    else {
        ctx.counters.add_abort();
        return false;
    };
    if let Some(history) = ctx.history {
        history.record(CommittedTxn::from_sets(
            ctx.epoch,
            ExecutionPhase::Partitioned,
            state.partition as u64,
            output.tid,
            recorded_reads.as_deref().unwrap_or(&[]),
            &output.write_set,
        ));
    }
    let entries = build_log_entries(
        &output.write_set,
        output.tid,
        ctx.config.replication_strategy,
        ExecutionPhase::Partitioned,
    );
    // Encode once; every target holds the partition and shares the buffers.
    stage.push(&EncodedEntry::encode_all(entries), |_, _| true);
    if let Some(wal) = ctx.wal {
        append_writes_to_wal(wal, &output.write_set, output.tid, ctx.counters);
    }
    ctx.counters.add_commit();
    true
}

/// Executes one cross-partition transaction on the master under Silo OCC:
/// generate → execute → validate/commit → record → stage the relevant
/// entries for every healthy node → (optionally) wait out synchronous
/// replication → WAL. Returns `true` on commit.
fn run_one_master_txn(
    ctx: &NodeCtx<'_>,
    state: &mut MasterWorkerState,
    stage: &mut ReplicationStage<'_>,
) -> bool {
    let proc = state.next_procedure(ctx.workload, ctx.config.partitions);
    let Some((read_set, write_set)) = execute(ctx, proc.as_ref(), TxnCtx::new(ctx.db)) else {
        return false;
    };
    let recorded_reads = ctx.history.map(|_| read_set.clone());
    // The Silo OCC validate-and-install step is the only lock-or-validate
    // work STAR does (the partitioned phase commits lock-free), so its time
    // is metered for the latency-source breakdown.
    // star-lint: allow(determinism::instant-now) -- lock/validate latency slice only; nothing recorded or decided depends on it
    let validate_start = Instant::now();
    let commit = commit_single_master(ctx.db, read_set, write_set, ctx.epoch, &mut state.tid_gen);
    ctx.counters.add_lock_or_validate(validate_start.elapsed());
    let Ok(output) = commit else {
        ctx.counters.add_abort();
        return false;
    };
    if let Some(history) = ctx.history {
        history.record(CommittedTxn::from_sets(
            ctx.epoch,
            ExecutionPhase::SingleMaster,
            MASTER_EXECUTOR_OFFSET + state.worker_id as u64,
            output.tid,
            recorded_reads.as_deref().unwrap_or(&[]),
            &output.write_set,
        ));
    }
    let entries = build_log_entries(
        &output.write_set,
        output.tid,
        ctx.config.replication_strategy,
        ExecutionPhase::SingleMaster,
    );
    // Each healthy node gets the entries of the partitions it holds; routing
    // reads the mirrored partition header, not the payload.
    stage.push(&EncodedEntry::encode_all(entries), |target, entry| {
        ctx.config.node_stores_partition(target, entry.partition())
    });
    if ctx.config.replication_mode == ReplicationMode::Sync && !stage.targets.is_empty() {
        // Synchronous replication: the write locks are held for a round trip
        // to the replicas before the transaction can release them.
        std::thread::sleep(ctx.config.network_latency * 2);
    }
    if let Some(wal) = ctx.wal {
        append_writes_to_wal(wal, &output.write_set, output.tid, ctx.counters);
    }
    ctx.counters.add_commit();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::build_replica;
    use crate::testing::KvWorkload;
    use rand::RngCore;
    use star_net::SendError;
    use std::collections::BTreeMap;
    use std::time::Duration;

    /// The chaos canonical shape: 4 nodes, one full replica, factor 3.
    fn config() -> ClusterConfig {
        ClusterConfig::builder()
            .nodes(4)
            .full_replicas(1)
            .workers_per_node(1)
            .partitions(4)
            .replication_factor(3)
            .seed(7)
            .build()
            .expect("valid test config")
    }

    fn workload() -> KvWorkload {
        KvWorkload { partitions: 4, rows_per_partition: 16, cross_partition_fraction: 0.3 }
    }

    /// A transport that records every send, for driving the workers without
    /// a cluster.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<(usize, ReplicationBatch)>>);

    impl Transport<ReplicationBatch> for Recorder {
        fn node(&self) -> usize {
            0
        }

        fn num_nodes(&self) -> usize {
            4
        }

        fn send(&self, to: usize, payload: ReplicationBatch) -> Result<(), SendError> {
            self.0.lock().push((to, payload));
            Ok(())
        }
    }

    /// One node's replica, counters and recording transport.
    struct Fixture {
        config: ClusterConfig,
        workload: KvWorkload,
        db: std::sync::Arc<Database>,
        counters: RunCounters,
        sent: Recorder,
    }

    impl Fixture {
        fn new(node: NodeId) -> Self {
            let (config, workload) = (config(), workload());
            let db = build_replica(&config, &workload, node);
            Fixture {
                config,
                workload,
                db,
                counters: RunCounters::new(),
                sent: Recorder::default(),
            }
        }

        fn ctx(&self, node: NodeId) -> NodeCtx<'_> {
            NodeCtx {
                node,
                config: &self.config,
                db: &self.db,
                transport: &self.sent,
                workload: &self.workload,
                counters: &self.counters,
                wal: None,
                history: None,
                epoch: 1,
            }
        }

        /// Everything shipped so far, per target, concatenated in send order.
        fn entries_per_target(&self) -> BTreeMap<usize, Vec<EncodedEntry>> {
            let mut per_target: BTreeMap<usize, Vec<EncodedEntry>> = BTreeMap::new();
            for (to, batch) in self.sent.0.lock().iter() {
                per_target.entry(*to).or_default().extend(batch.entries.iter().cloned());
            }
            per_target
        }
    }

    #[test]
    fn count_budget_sends_one_batch_per_committing_transaction_and_target() {
        // Partitioned phase: partition 1 executes on node 1 and replicates to
        // its other holders, the full replica and node 2.
        let fx = Fixture::new(1);
        let targets = fx.config.replica_targets(&[false; 4], 1, 1);
        assert_eq!(targets, vec![0, 2]);
        let mut state = PartitionWorkerState::new(&fx.config, 1);
        let outcome = run_partition_worker(&fx.ctx(1), &targets, &mut state, PhaseBudget::Count(9));
        assert_eq!(outcome.committed, 9);
        assert!(outcome.samples.is_empty(), "latency is sampled under Deadline only");
        let sent = fx.sent.0.lock();
        assert_eq!(sent.len(), 9 * targets.len());
        for per_txn in sent.chunks(targets.len()) {
            let to: Vec<usize> = per_txn.iter().map(|(to, _)| *to).collect();
            assert_eq!(to, targets, "targets ascending within one transaction");
            for (_, batch) in per_txn {
                assert_eq!((batch.from_node, batch.epoch), (1, 1));
                assert_eq!(batch.entries, per_txn[0].1.entries);
                assert!(!batch.entries.is_empty());
            }
        }
        drop(sent);

        // Single-master phase: one batch per transaction per healthy node
        // holding any partition the transaction wrote, relevant entries only.
        let fx = Fixture::new(0);
        let healthy = fx.config.healthy_peers(&[false; 4], 0);
        let mut state = MasterWorkerState::new(&fx.config, 0);
        let outcome = run_master_worker(&fx.ctx(0), &healthy, &mut state, PhaseBudget::Count(9));
        assert_eq!(outcome.committed, 9);
        let sent = fx.sent.0.lock();
        let mut per_txn: BTreeMap<Tid, Vec<&(usize, ReplicationBatch)>> = BTreeMap::new();
        for send in sent.iter() {
            assert!(send.1.entries.iter().all(|e| e.tid() == send.1.entries[0].tid()));
            per_txn.entry(send.1.entries[0].tid()).or_default().push(send);
        }
        assert_eq!(per_txn.len(), 9);
        for sends in per_txn.values() {
            let written: Vec<PartitionId> =
                sends.iter().flat_map(|(_, b)| b.entries.iter().map(|e| e.partition())).collect();
            let expected: Vec<usize> = healthy
                .iter()
                .copied()
                .filter(|&t| written.iter().any(|&p| fx.config.node_stores_partition(t, p)))
                .collect();
            let to: Vec<usize> = sends.iter().map(|(to, _)| *to).collect();
            assert_eq!(to, expected, "one batch per holder, ascending");
            for (to, batch) in sends {
                assert!(batch
                    .entries
                    .iter()
                    .all(|e| fx.config.node_stores_partition(*to, e.partition())));
            }
        }
    }

    #[test]
    fn deadline_budget_ships_the_same_entries_in_the_same_per_target_order() {
        let targets = [0, 2];
        let timed = Fixture::new(1);
        let mut state = PartitionWorkerState::new(&timed.config, 1);
        let deadline = PhaseBudget::Deadline(Instant::now() + Duration::from_millis(5));
        let outcome = run_partition_worker(&timed.ctx(1), &targets, &mut state, deadline);
        assert!(outcome.committed > 0, "a deadline budget always attempts once");
        assert_eq!(outcome.samples.len() as u64, outcome.committed / LATENCY_SAMPLE);

        // The same stream under a count budget, on a fresh replica: merged
        // batches, identical per-target entry sequences.
        let stepped = Fixture::new(1);
        let mut state = PartitionWorkerState::new(&stepped.config, 1);
        let budget = PhaseBudget::Count(outcome.committed);
        run_partition_worker(&stepped.ctx(1), &targets, &mut state, budget);
        assert_eq!(timed.entries_per_target(), stepped.entries_per_target());
        assert!(timed.sent.0.lock().len() <= stepped.sent.0.lock().len());
    }

    #[test]
    fn partition_fast_forward_matches_really_executed_attempts() {
        // One worker really executes `n` attempts; its twin only
        // fast-forwards. Their RNG streams must be in lockstep afterwards.
        let n = 7u64;
        let fx = Fixture::new(0);
        let mut executed = PartitionWorkerState::new(&fx.config, 0);
        run_partition_worker(&fx.ctx(0), &[], &mut executed, PhaseBudget::Count(n));
        let mut forwarded = PartitionWorkerState::new(&fx.config, 0);
        forwarded.fast_forward(&fx.workload, n);
        assert_eq!(executed.rng.next_u64(), forwarded.rng.next_u64());
    }

    #[test]
    fn master_fast_forward_matches_really_executed_attempts() {
        let n = 7u64;
        let fx = Fixture::new(0);
        let mut executed = MasterWorkerState::new(&fx.config, 1);
        run_master_worker(&fx.ctx(0), &[], &mut executed, PhaseBudget::Count(n));
        let mut forwarded = MasterWorkerState::new(&fx.config, 1);
        forwarded.fast_forward(&fx.workload, fx.config.partitions, n);
        assert_eq!(executed.rng.next_u64(), forwarded.rng.next_u64());
    }

    #[test]
    fn fresh_tid_generator_matches_carried_one_across_an_epoch_boundary() {
        // The fast-forward contract deliberately skips the TID generator:
        // failover always lands past an epoch fence, and TIDs are
        // epoch-major, so a fresh generator's first TID in the new epoch
        // equals what the old generator would have produced.
        let mut carried = TidGenerator::new();
        for _ in 0..5 {
            carried.generate(3, Tid::ZERO);
        }
        let mut fresh = TidGenerator::new();
        assert_eq!(carried.generate(4, Tid::ZERO), fresh.generate(4, Tid::ZERO));
        // And with an observed record TID from the older epoch in play the
        // epoch-major ordering still lets the fresh generator win.
        let observed = Tid::new(3, 900);
        let mut fresh2 = TidGenerator::new();
        assert_eq!(Tid::new(5, 1), fresh2.generate(5, observed));
    }

    #[test]
    fn worker_seeds_are_per_index_and_reproducible() {
        let config = config();
        let mut a = PartitionWorkerState::new(&config, 0);
        let mut a2 = PartitionWorkerState::new(&config, 0);
        let mut b = PartitionWorkerState::new(&config, 1);
        let (xa, xa2, xb) = (a.rng.next_u64(), a2.rng.next_u64(), b.rng.next_u64());
        assert_eq!(xa, xa2, "same partition, same seed, same stream");
        assert_ne!(xa, xb, "distinct partitions draw distinct streams");
    }

    #[test]
    fn master_and_partition_streams_differ() {
        let config = config();
        let mut p = PartitionWorkerState::new(&config, 0);
        let mut m = MasterWorkerState::new(&config, 0);
        assert_ne!(p.rng.next_u64(), m.rng.next_u64());
    }
}
