//! The shared phase workers.
//!
//! Exactly one implementation exists of "run one worker through one phase":
//! generate → execute → commit → record → replicate → WAL, until the phase's
//! [`PhaseBudget`] is spent. Every node — each of the in-process
//! [`StarEngine`](crate::StarEngine)'s, timed and stepped, and a
//! `star-serverd` process — runs `run_worker` over the [`NodeCtx`] its
//! [`StarNode`](crate::node::StarNode) lends. Replication goes through
//! [`Transport`], the seam implemented by the deterministic in-memory
//! endpoint and by the real TCP mesh alike — so when the transport-parity
//! harness asserts byte-identical committed histories between wire and
//! simulation, the engine logic is shared by construction and any
//! divergence is the transport's.
//!
//! `WorkerState` (TID generator + seeded RNG + attempt count) is also
//! constructed here, from the one canonical seed-derivation formula:
//! partition worker `p` draws from `rng_seed_base() ^ 0x5747 ^ p`, master
//! worker `w` from `rng_seed_base() ^ 0xCA11 ^ w`. Identical configuration ⇒
//! identical transaction streams, on every backend.

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
/// `std::thread::scope` by reference, and each phase job carries a copy.
#[derive(Clone, Copy)]
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

/// Runs `state`'s worker on `ctx.node` until `budget` is spent, replicating
/// to `targets` — a partition's worker on the partition's effective primary,
/// to its other healthy holders; a master worker on the elected master, to
/// every other healthy node. Staged replication is flushed per the budget's
/// policy, and everything before returning: the fence drains endpoints after
/// the phase joins, and its contract is that every entry the phase produced
/// was sent.
pub(crate) fn run_worker(
    ctx: &NodeCtx<'_>,
    targets: &[NodeId],
    state: &mut WorkerState,
    budget: PhaseBudget,
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
        if run_one_txn(ctx, state, &mut stage) {
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

/// The transaction stream a worker state draws: a partition's
/// single-partition transactions, or a master worker's cross-partition ones.
#[derive(Debug, Clone, Copy)]
enum Stream {
    Partition(PartitionId),
    Master(usize),
}

/// A phase worker's state that survives across iterations: the TID
/// generator and seeded RNG of one transaction stream, and how many
/// transactions it has drawn.
pub(crate) struct WorkerState {
    stream: Stream,
    tid_gen: TidGenerator,
    rng: StdRng,
    attempts: u64,
}

impl WorkerState {
    /// The state of the worker owning `partition`, seeded by the canonical
    /// formula shared by every backend.
    pub(crate) fn partition(config: &ClusterConfig, partition: PartitionId) -> Self {
        let seed = config.rng_seed_base() ^ 0x5747_u64 ^ (partition as u64);
        WorkerState::seeded(Stream::Partition(partition), seed)
    }

    /// The state of master worker `worker`, seeded by the canonical formula
    /// shared by every backend.
    pub(crate) fn master(config: &ClusterConfig, worker: usize) -> Self {
        let seed = config.rng_seed_base() ^ 0xCA11_u64 ^ (worker as u64);
        WorkerState::seeded(Stream::Master(worker), seed)
    }

    fn seeded(stream: Stream, seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed);
        WorkerState { stream, tid_gen: TidGenerator::new(), rng, attempts: 0 }
    }

    /// The stream's partition, or its master worker's id.
    pub(crate) fn index(&self) -> usize {
        match self.stream {
            Stream::Partition(index) | Stream::Master(index) => index,
        }
    }

    /// Transactions this state has drawn: its position in the stream.
    pub(crate) fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Draws the stream's next procedure. A master worker draws one home
    /// partition, then one workload generation.
    fn next_procedure(&mut self, workload: &dyn Workload, partitions: usize) -> Box<dyn Procedure> {
        use rand::Rng;
        self.attempts += 1;
        match self.stream {
            Stream::Partition(partition) => {
                workload.single_partition_transaction(&mut self.rng, partition)
            }
            Stream::Master(worker) => {
                let home = (self.rng.gen::<usize>() ^ worker) % partitions;
                workload.cross_partition_transaction(&mut self.rng, home)
            }
        }
    }

    /// Draws and discards procedures until this state has drawn `baseline`,
    /// executing nothing; a state already there is left alone.
    ///
    /// A node taking a stream over mid-run (primary failover, a newly
    /// elected master, or a restarted process rejoining) must resume it
    /// exactly where the previous executor left it. Each attempt — committed
    /// or aborted — consumes exactly one workload generation, so replaying
    /// the generations is a faithful catch-up. The TID generator needs no
    /// transfer: a stream only changes hands across an epoch fence, the
    /// epoch always advances, and TIDs are epoch-major, so a fresh (or
    /// stale) generator's `Tid::new(epoch, 1)` matches what a carried-over
    /// generator would produce.
    pub(crate) fn catch_up(&mut self, workload: &dyn Workload, partitions: usize, baseline: u64) {
        while self.attempts < baseline {
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

/// Executes one transaction of `state`'s stream: generate → execute →
/// commit → record → stage the entries for the targets → (synchronous
/// replication: wait out the replicas) → WAL. A partition's transaction
/// commits lock-free; a master worker's under Silo OCC, whose
/// validate-and-install is the only lock-or-validate work STAR does, so its
/// time is metered for the latency-source breakdown. Returns `true` if the
/// transaction committed.
fn run_one_txn(
    ctx: &NodeCtx<'_>,
    state: &mut WorkerState,
    stage: &mut ReplicationStage<'_>,
) -> bool {
    let proc = state.next_procedure(ctx.workload, ctx.config.partitions);
    let (phase, executor) = match state.stream {
        Stream::Partition(partition) => (ExecutionPhase::Partitioned, partition as u64),
        Stream::Master(worker) => {
            (ExecutionPhase::SingleMaster, MASTER_EXECUTOR_OFFSET + worker as u64)
        }
    };
    let partitioned = phase == ExecutionPhase::Partitioned;
    let txn = if partitioned { TxnCtx::new_single_threaded(ctx.db) } else { TxnCtx::new(ctx.db) };
    let Some((read_set, write_set)) = execute(ctx, proc.as_ref(), txn) else {
        return false;
    };
    let recorded_reads = ctx.history.map(|_| read_set.clone());
    let (db, epoch, tid_gen) = (ctx.db, ctx.epoch, &mut state.tid_gen);
    let commit = if partitioned {
        commit_partitioned(db, read_set, write_set, epoch, tid_gen)
    } else {
        // star-lint: allow(determinism::instant-now) -- lock/validate latency slice only; nothing recorded or decided depends on it
        let validate_start = Instant::now();
        let commit = commit_single_master(db, read_set, write_set, epoch, tid_gen);
        ctx.counters.add_lock_or_validate(validate_start.elapsed());
        commit
    };
    let Ok(output) = commit else {
        ctx.counters.add_abort();
        return false;
    };
    if let Some(history) = ctx.history {
        history.record(CommittedTxn::from_sets(
            ctx.epoch,
            phase,
            executor,
            output.tid,
            recorded_reads.as_deref().unwrap_or(&[]),
            &output.write_set,
        ));
    }
    let entries =
        build_log_entries(&output.write_set, output.tid, ctx.config.replication_strategy, phase);
    // Encode once; the targets share the buffers. Every target of a
    // partition's transaction holds the partition; a master's entries go to
    // the nodes holding theirs, routed by the mirrored partition header.
    stage.push(&EncodedEntry::encode_all(entries), |target, entry| {
        partitioned || ctx.config.node_stores_partition(target, entry.partition())
    });
    let sync = ctx.config.replication_mode == ReplicationMode::Sync;
    if sync && !partitioned && !stage.targets.is_empty() {
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
            NodeCtx { node, ..self.ctx_at(1) }
        }

        fn ctx_at(&self, epoch: Epoch) -> NodeCtx<'_> {
            NodeCtx {
                node: 0,
                config: &self.config,
                db: &self.db,
                transport: &self.sent,
                workload: &self.workload,
                counters: &self.counters,
                wal: None,
                history: None,
                epoch,
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
        let mut state = WorkerState::partition(&fx.config, 1);
        let outcome = run_worker(&fx.ctx(1), &targets, &mut state, PhaseBudget::Count(9));
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
        let mut state = WorkerState::master(&fx.config, 0);
        let outcome = run_worker(&fx.ctx(0), &healthy, &mut state, PhaseBudget::Count(9));
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

    /// Asserts that the worker `fresh` starts, run on `node` for 12 attempts
    /// split anywhere into two counts, sends what one count of 12 sends:
    /// every target, sender, epoch and entry, in order.
    fn assert_splits_are_invisible(
        node: NodeId,
        targets: &[NodeId],
        fresh: impl Fn(&ClusterConfig) -> WorkerState,
    ) {
        let sends_of = |budgets: &[u64]| {
            let fx = Fixture::new(node);
            let mut state = fresh(&fx.config);
            for &count in budgets {
                run_worker(&fx.ctx(node), targets, &mut state, PhaseBudget::Count(count));
            }
            let sent = fx.sent.0.lock();
            let sends = sent.iter().map(|(to, b)| (*to, b.from_node, b.epoch, b.entries.clone()));
            sends.collect::<Vec<_>>()
        };
        let whole = sends_of(&[12]);
        assert!(whole.len() >= 12, "node {node} shipped {} batches", whole.len());
        for split in 0..=12 {
            assert_eq!(sends_of(&[split, 12 - split]), whole, "node {node}, split after {split}");
        }
    }

    #[test]
    fn a_count_budget_split_anywhere_sends_what_the_whole_count_sends() {
        // The chaos walk runs every phase as two count-budgeted halves, on
        // the simulator and on the wire, and a crash may land between them:
        // where a worker's phase is split must not change one batch it puts
        // on any link.
        let config = config();
        let partition = config.replica_targets(&[false; 4], 1, 1);
        assert_splits_are_invisible(1, &partition, |config| WorkerState::partition(config, 1));
        let master = config.healthy_peers(&[false; 4], 0);
        assert_splits_are_invisible(0, &master, |config| WorkerState::master(config, 0));
    }

    #[test]
    fn deadline_budget_ships_the_same_entries_in_the_same_per_target_order() {
        let targets = [0, 2];
        let timed = Fixture::new(1);
        let mut state = WorkerState::partition(&timed.config, 1);
        let deadline = PhaseBudget::Deadline(Instant::now() + Duration::from_millis(5));
        let outcome = run_worker(&timed.ctx(1), &targets, &mut state, deadline);
        assert!(outcome.committed > 0, "a deadline budget always attempts once");
        assert_eq!(outcome.samples.len() as u64, outcome.committed / LATENCY_SAMPLE);

        // The same stream under a count budget, on a fresh replica: merged
        // batches, identical per-target entry sequences.
        let stepped = Fixture::new(1);
        let mut state = WorkerState::partition(&stepped.config, 1);
        let budget = PhaseBudget::Count(outcome.committed);
        run_worker(&stepped.ctx(1), &targets, &mut state, budget);
        assert_eq!(timed.entries_per_target(), stepped.entries_per_target());
        assert!(timed.sent.0.lock().len() <= stepped.sent.0.lock().len());
    }

    /// `a` and `b` draw the same next transactions, and choose the same
    /// TIDs in `epoch` whatever they observe.
    fn assert_same_stream(a: &WorkerState, b: &WorkerState, epoch: Epoch) {
        assert_eq!(a.attempts(), b.attempts());
        assert_eq!(a.rng.clone().next_u64(), b.rng.clone().next_u64(), "transactions differ");
        for observed in [Tid::ZERO, Tid::new(epoch - 1, 9), Tid::new(epoch, 3)] {
            let (mut x, mut y) = (a.tid_gen.clone(), b.tid_gen.clone());
            assert_eq!(x.generate(epoch, observed), y.generate(epoch, observed), "TIDs differ");
        }
    }

    /// Catching up is the same as having carried the worker, for the stream
    /// `make` starts: a fresh state on a node taking the stream over, and a
    /// stale one on a node getting it back, continue exactly like a state
    /// that really executed every attempt.
    fn catching_up_matches_carrying(make: fn(&ClusterConfig) -> WorkerState) {
        // One replica whose epochs only move forward, as a cluster's do.
        let fx = Fixture::new(0);
        let run = |state: &mut WorkerState, epoch, budget| {
            run_worker(&fx.ctx_at(epoch), &[], state, budget);
        };
        // A takeover of a position reached under a deadline budget.
        let (mut carried, mut fresh) = (make(&fx.config), make(&fx.config));
        run(&mut carried, 1, PhaseBudget::Deadline(Instant::now() + Duration::from_millis(2)));
        fresh.catch_up(&fx.workload, 4, carried.attempts());
        assert!(fresh.attempts() > 0);
        assert_same_stream(&carried, &fresh, 2);

        // A return, after another node ran the stream on for an epoch.
        let (mut stale, mut taker, mut carried) =
            (make(&fx.config), make(&fx.config), make(&fx.config));
        run(&mut stale, 2, PhaseBudget::Count(5));
        run(&mut carried, 2, PhaseBudget::Count(5));
        taker.catch_up(&fx.workload, 4, stale.attempts());
        run(&mut taker, 3, PhaseBudget::Count(6));
        run(&mut carried, 3, PhaseBudget::Count(6));
        stale.catch_up(&fx.workload, 4, taker.attempts());
        assert_same_stream(&carried, &stale, 4);
        taker.catch_up(&fx.workload, 4, 1);
        assert_same_stream(&carried, &taker, 4);
    }

    #[test]
    fn partition_fast_forward_matches_really_executed_attempts() {
        catching_up_matches_carrying(|config| WorkerState::partition(config, 1));
    }

    #[test]
    fn master_fast_forward_matches_really_executed_attempts() {
        catching_up_matches_carrying(|config| WorkerState::master(config, 0));
    }

    #[test]
    fn fresh_tid_generator_matches_carried_one_across_an_epoch_boundary() {
        // The catch-up contract deliberately skips the TID generator:
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
        let mut a = WorkerState::partition(&config, 0);
        let mut a2 = WorkerState::partition(&config, 0);
        let mut b = WorkerState::partition(&config, 1);
        let (xa, xa2, xb) = (a.rng.next_u64(), a2.rng.next_u64(), b.rng.next_u64());
        assert_eq!(xa, xa2, "same partition, same seed, same stream");
        assert_ne!(xa, xb, "distinct partitions draw distinct streams");
    }

    #[test]
    fn master_and_partition_streams_differ() {
        let config = config();
        let mut p = WorkerState::partition(&config, 0);
        let mut m = WorkerState::master(&config, 0);
        assert_ne!(p.rng.next_u64(), m.rng.next_u64());
    }
}
