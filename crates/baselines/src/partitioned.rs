//! Partitioning-based baselines: Dist. OCC and Dist. S2PL (NO_WAIT), both
//! committing cross-partition transactions with two-phase commit.
//!
//! Each partition has a primary copy owned by one node (the sharded store)
//! and a backup on another node. A transaction executes on its home node;
//! every read of a record whose partition is owned by another node pays one
//! network round trip, and a commit involving remote partitions pays the two
//! rounds of 2PC. Replication follows the same two flavours as the other
//! engines: asynchronous with an epoch-based group commit, or synchronous
//! with a round trip per commit.

use crate::driver::{build_full_database, BaselineConfig};
use crate::replication::ReplicaLink;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use star_common::stats::{LatencyHistogram, RunCounters, RunReport};
use star_common::{
    AbortReason, Epoch, Error, Key, PartitionId, ReplicationMode, Result, TableId, TidGenerator,
};
use star_core::history::{CommittedTxn, HistoryRecorder};
use star_core::Workload;
use star_net::LinkFaults;
use star_occ::{commit_single_master, DataSource, TxnCtx};
use star_replication::{build_log_entries, ExecutionPhase, LogEntry};
use star_storage::{Database, ReadResult, Record};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which distributed concurrency-control protocol the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistCc {
    /// Distributed OCC: optimistic execution, write locks + read validation
    /// at commit.
    Occ,
    /// Distributed strict two-phase locking with the NO_WAIT policy: locks
    /// are taken at access time and a conflict aborts immediately.
    S2plNoWait,
}

/// A data source that charges a network round trip for reads of partitions
/// owned by a remote node, and (for S2PL) takes NO_WAIT locks at access time.
struct ShardedSource<'a> {
    db: &'a Database,
    config: &'a BaselineConfig,
    home_node: usize,
    counters: &'a RunCounters,
    locking: bool,
    locked: Mutex<Vec<Arc<Record>>>,
}

impl<'a> ShardedSource<'a> {
    fn new(
        db: &'a Database,
        config: &'a BaselineConfig,
        home_node: usize,
        counters: &'a RunCounters,
        locking: bool,
    ) -> Self {
        ShardedSource { db, config, home_node, counters, locking, locked: Mutex::new(Vec::new()) }
    }

    fn charge_remote_access(&self, partition: PartitionId) {
        if self.config.cluster.partition_primary(partition) != self.home_node {
            self.counters.add_coordination_bytes(96);
            std::thread::sleep(self.config.round_trip());
        }
    }

    fn take_locks(self) -> Vec<Arc<Record>> {
        self.locked.into_inner()
    }

    fn release_locks(&self) {
        for rec in self.locked.lock().drain(..) {
            rec.unlock();
        }
    }
}

impl DataSource for ShardedSource<'_> {
    fn read_record(&self, table: TableId, partition: PartitionId, key: Key) -> Result<ReadResult> {
        self.charge_remote_access(partition);
        let rec = self.db.get(table, partition, key)?;
        if self.locking {
            let already_ours = self.locked.lock().iter().any(|r| Arc::ptr_eq(r, &rec));
            if !already_ours {
                if !rec.try_lock() {
                    // NO_WAIT: a lock conflict aborts immediately.
                    return Err(Error::Abort(AbortReason::LockConflict));
                }
                self.locked.lock().push(Arc::clone(&rec));
            }
            Ok(rec.read_unsynchronized())
        } else {
            Ok(rec.read())
        }
    }

    fn secondary_lookup(&self, table: TableId, index: usize, secondary: Key) -> Result<Vec<Key>> {
        self.db.secondary_lookup(table, index, secondary)
    }
}

/// A partitioning-based engine (shared by Dist. OCC and Dist. S2PL).
pub struct PartitionedEngine {
    config: BaselineConfig,
    cc: DistCc,
    workload: Arc<dyn Workload>,
    /// Primary copies of every partition (sharded across nodes logically).
    store: Arc<Database>,
    /// Backup copies (one logical backup replica).
    backup: Arc<Database>,
    /// The store→backup replication stream (fault-injectable).
    link: Arc<ReplicaLink>,
    counters: Arc<RunCounters>,
    epoch: Epoch,
    history: Option<Arc<HistoryRecorder>>,
    last_report: Option<RunReport>,
}

impl PartitionedEngine {
    /// Builds the engine with the requested concurrency-control protocol.
    pub fn new(config: BaselineConfig, cc: DistCc, workload: Arc<dyn Workload>) -> Result<Self> {
        config.cluster.validate().map_err(Error::Config)?;
        if workload.num_partitions() != config.cluster.partitions {
            return Err(Error::Config(format!(
                "workload has {} partitions but the cluster is configured for {}",
                workload.num_partitions(),
                config.cluster.partitions
            )));
        }
        let store = build_full_database(workload.as_ref());
        let backup = build_full_database(workload.as_ref());
        Ok(PartitionedEngine {
            config,
            cc,
            workload,
            store,
            backup,
            link: Arc::new(ReplicaLink::new()),
            counters: Arc::new(RunCounters::new()),
            epoch: 1,
            history: None,
            last_report: None,
        })
    }

    /// Attaches a committed-history recorder. The partitioned baselines
    /// never revert an epoch, so every commit is recorded as final
    /// immediately.
    pub fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        self.history = Some(recorder);
    }

    /// Injects faults into the store→backup replication stream, seeded from
    /// the cluster seed (see [`ReplicaLink`]).
    pub fn set_replication_faults(&mut self, faults: LinkFaults) {
        self.link.set_faults(self.config.cluster.seed, faults);
    }

    /// The replication link (fault counters).
    pub fn replica_link(&self) -> &Arc<ReplicaLink> {
        &self.link
    }

    /// The sharded primary store.
    pub fn store(&self) -> &Arc<Database> {
        &self.store
    }

    /// The backup replica.
    pub fn backup(&self) -> &Arc<Database> {
        &self.backup
    }

    /// The shared counters.
    pub fn counters(&self) -> &RunCounters {
        &self.counters
    }

    fn engine_label(&self) -> &'static str {
        match (self.cc, self.config.replication) {
            (DistCc::Occ, ReplicationMode::Async) => "Dist. OCC",
            (DistCc::Occ, ReplicationMode::Sync) => "Dist. OCC (sync)",
            (DistCc::S2plNoWait, ReplicationMode::Async) => "Dist. S2PL",
            (DistCc::S2plNoWait, ReplicationMode::Sync) => "Dist. S2PL (sync)",
        }
    }

    fn group_commit(&mut self) {
        let start = Instant::now();
        self.link.group_commit(&self.backup);
        // The whole group commit is one synchronous stall (fence wait), and
        // its body is the replication apply to the backup (flush slice).
        self.counters.add_replication_flush(start.elapsed());
        self.epoch += 1;
        self.counters.add_fence(start.elapsed());
    }

    /// Runs the engine for (at least) `duration`.
    pub fn run_for(&mut self, duration: Duration) -> RunReport {
        let cluster = self.config.cluster.clone();
        let sync = self.config.replication == ReplicationMode::Sync;
        let total_workers = cluster.total_workers();
        let epoch_interval = self.config.epoch_interval();
        let round_trip = self.config.round_trip();
        let start = Instant::now();
        let before = self.counters.snapshot();
        let latency = Arc::new(Mutex::new(LatencyHistogram::new()));

        while start.elapsed() < duration {
            let epoch = self.epoch;
            let epoch_deadline = Instant::now() + epoch_interval;
            let store = &self.store;
            let backup = &self.backup;
            let link = &self.link;
            let counters = &self.counters;
            let workload = &self.workload;
            let config = &self.config;
            let cc = self.cc;
            let latency = &latency;
            let history = &self.history;
            std::thread::scope(|scope| {
                for worker in 0..total_workers {
                    let store = Arc::clone(store);
                    let backup = Arc::clone(backup);
                    let link = Arc::clone(link);
                    let counters = Arc::clone(counters);
                    let workload = Arc::clone(workload);
                    let latency = Arc::clone(latency);
                    let history = history.clone();
                    let cluster = cluster.clone();
                    let home_node = worker % cluster.num_nodes;
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(
                            cluster.rng_seed_base()
                                ^ 0xD157
                                ^ (worker as u64)
                                ^ ((epoch as u64) << 16),
                        );
                        let mut tid_gen = TidGenerator::new();
                        let mut attempts = 0u64;
                        let mut local_latency = LatencyHistogram::new();
                        // Home partitions of this worker's node.
                        let home_partitions = cluster.partitions_of(home_node);
                        while attempts == 0 || Instant::now() < epoch_deadline {
                            attempts += 1;
                            let txn_start = Instant::now();
                            let home_partition = home_partitions[rng
                                .gen_range(0..home_partitions.len().max(1))
                                % home_partitions.len().max(1)];
                            let proc = workload.mixed_transaction(&mut rng, home_partition);
                            let baseline_config = BaselineConfig {
                                cluster: cluster.clone(),
                                replication: config.replication,
                            };
                            let source = ShardedSource::new(
                                &store,
                                &baseline_config,
                                home_node,
                                &counters,
                                cc == DistCc::S2plNoWait,
                            );
                            let mut ctx = TxnCtx::new(&source);
                            let result = proc.execute(&mut ctx);
                            counters.add_execution(txn_start.elapsed());
                            match result {
                                Ok(()) => {}
                                Err(Error::Abort(AbortReason::User)) => {
                                    counters.add_user_abort();
                                    source.release_locks();
                                    continue;
                                }
                                Err(_) => {
                                    counters.add_abort();
                                    source.release_locks();
                                    continue;
                                }
                            }
                            let (rs, ws) = ctx.into_sets();
                            let recorded_reads = history.as_ref().map(|_| rs.clone());
                            // Two-phase commit: one prepare and one commit
                            // round to every remote participant.
                            let participants: Vec<usize> = {
                                let mut nodes: Vec<usize> = rs
                                    .iter()
                                    .map(|r| cluster.partition_primary(r.partition))
                                    .chain(
                                        ws.iter().map(|w| cluster.partition_primary(w.partition)),
                                    )
                                    .collect();
                                nodes.sort_unstable();
                                nodes.dedup();
                                nodes
                            };
                            let remote_participants =
                                participants.iter().filter(|&&n| n != home_node).count();
                            let commit_start = Instant::now();
                            let outcome = match cc {
                                DistCc::Occ => {
                                    commit_single_master(&store, rs, ws, epoch, &mut tid_gen)
                                        .map(|o| o.write_set)
                                }
                                DistCc::S2plNoWait => {
                                    // Locks were taken at access time; lock
                                    // any write-only records (inserts), then
                                    // install the writes under a fresh TID
                                    // and release every lock — each lock
                                    // exactly once. A record must never be
                                    // probed with `is_locked()` to decide
                                    // whether to unlock it: the instant
                                    // `write_and_unlock` releases a write
                                    // record, a concurrent NO_WAIT
                                    // transaction can acquire it, and a
                                    // second unlock from this transaction
                                    // would free the *other* transaction's
                                    // lock (a real lock-discipline collapse
                                    // the serializability checker caught as
                                    // intermittent cycles). Instead, track
                                    // which held record is written (last
                                    // write wins for duplicate keys) and
                                    // release write locks via the install
                                    // and read-only locks separately.
                                    let locked = source.take_locks();
                                    let mut extra_locked: Vec<Arc<Record>> = Vec::new();
                                    // (record, index in `ws` of its last write)
                                    let mut write_recs: Vec<(Arc<Record>, usize)> = Vec::new();
                                    let mut ok = true;
                                    for (i, w) in ws.iter().enumerate() {
                                        // get_or_insert_with is the race-safe
                                        // insert path: Database::insert would
                                        // *replace* a record a concurrent
                                        // worker just inserted and locked,
                                        // leaving two transactions committed
                                        // against two distinct record handles
                                        // for one key.
                                        let rec = match store.get_or_insert_with(
                                            w.table,
                                            w.partition,
                                            w.key,
                                            || star_storage::Record::new(star_common::Row::empty()),
                                        ) {
                                            Ok(rec) => rec,
                                            Err(_) => {
                                                ok = false;
                                                break;
                                            }
                                        };
                                        let held = locked
                                            .iter()
                                            .chain(extra_locked.iter())
                                            .any(|r| Arc::ptr_eq(r, &rec));
                                        if !held {
                                            if rec.try_lock() {
                                                extra_locked.push(Arc::clone(&rec));
                                            } else {
                                                ok = false;
                                                break;
                                            }
                                        }
                                        match write_recs
                                            .iter_mut()
                                            .find(|(r, _)| Arc::ptr_eq(r, &rec))
                                        {
                                            Some(entry) => entry.1 = i,
                                            None => write_recs.push((rec, i)),
                                        }
                                    }
                                    if ok {
                                        let max_tid = locked
                                            .iter()
                                            .chain(extra_locked.iter())
                                            .map(|r| r.tid())
                                            .max()
                                            .unwrap_or(star_common::Tid::ZERO);
                                        let tid = tid_gen.generate(epoch, max_tid);
                                        for (rec, last) in &write_recs {
                                            rec.write_and_unlock(ws[*last].row.clone(), tid);
                                        }
                                        for rec in locked.iter().chain(extra_locked.iter()) {
                                            let written =
                                                write_recs.iter().any(|(r, _)| Arc::ptr_eq(r, rec));
                                            if !written {
                                                rec.unlock();
                                            }
                                        }
                                        let mut ws_out = ws;
                                        for w in &mut ws_out {
                                            w.operation = None;
                                        }
                                        Ok(ws_out)
                                    } else {
                                        // Abort: nothing has been written or
                                        // unlocked yet, so every lock in
                                        // `locked`/`extra_locked` is still
                                        // ours to release.
                                        for rec in locked.iter().chain(extra_locked.iter()) {
                                            rec.unlock();
                                        }
                                        Err(Error::Abort(AbortReason::LockConflict))
                                    }
                                }
                            };
                            counters.add_lock_or_validate(commit_start.elapsed());
                            let write_set = match outcome {
                                Ok(ws) => ws,
                                Err(Error::Abort(_)) => {
                                    counters.add_abort();
                                    continue;
                                }
                                Err(_) => {
                                    counters.add_abort();
                                    continue;
                                }
                            };
                            if let Some(history) = &history {
                                // Both protocols assign exactly one TID per
                                // commit, so the generator's last TID is this
                                // transaction's commit TID.
                                history.record_final(CommittedTxn::from_sets(
                                    epoch,
                                    ExecutionPhase::SingleMaster,
                                    worker as u64,
                                    tid_gen.last(),
                                    recorded_reads.as_deref().unwrap_or(&[]),
                                    &write_set,
                                ));
                            }
                            if remote_participants > 0 {
                                // 2PC: prepare + commit rounds.
                                counters.add_coordination_bytes((remote_participants as u64) * 128);
                                std::thread::sleep(round_trip * 2);
                            }
                            if !write_set.is_empty() {
                                let entries = build_log_entries(
                                    &write_set,
                                    tid_gen.last(),
                                    star_common::ReplicationStrategy::Value,
                                    ExecutionPhase::SingleMaster,
                                );
                                let bytes: usize = entries.iter().map(LogEntry::wire_size).sum();
                                counters.add_replication_bytes(bytes as u64);
                                if sync {
                                    let flush_start = Instant::now();
                                    link.deliver_now(&entries, &backup);
                                    std::thread::sleep(round_trip);
                                    counters.add_replication_flush(flush_start.elapsed());
                                } else {
                                    link.offer(entries);
                                }
                            }
                            counters.add_commit();
                            if sync {
                                local_latency.record(txn_start.elapsed());
                            } else {
                                // Async replication releases the result at
                                // the epoch's group commit, which fires at
                                // the epoch deadline: sample each commit's
                                // real wait until that release point.
                                local_latency
                                    .record(epoch_deadline.saturating_duration_since(txn_start));
                            }
                        }
                        latency.lock().merge(&local_latency);
                    });
                }
            });
            self.group_commit();
        }

        let elapsed = start.elapsed();
        let window = self.counters.snapshot().since(&before);
        let report = RunReport::new(
            self.engine_label(),
            self.workload.name(),
            self.workload.mix().percentage(),
            elapsed,
            window,
            Arc::try_unwrap(latency).map(Mutex::into_inner).unwrap_or_default(),
        );
        self.last_report = Some(report.clone());
        report
    }

    fn report(&self) -> RunReport {
        match &self.last_report {
            Some(report) => report.clone(),
            None => RunReport::new(
                self.engine_label(),
                self.workload.name(),
                self.workload.mix().percentage(),
                Duration::ZERO,
                self.counters.snapshot(),
                LatencyHistogram::new(),
            ),
        }
    }
}

/// Distributed OCC with two-phase commit.
pub struct DistOcc(PartitionedEngine);

impl DistOcc {
    /// Builds the engine.
    pub fn new(config: BaselineConfig, workload: Arc<dyn Workload>) -> Result<Self> {
        PartitionedEngine::new(config, DistCc::Occ, workload).map(DistOcc)
    }

    /// Runs the engine for (at least) `duration`.
    pub fn run_for(&mut self, duration: Duration) -> RunReport {
        self.0.run_for(duration)
    }

    /// The shared counters.
    pub fn counters(&self) -> &RunCounters {
        self.0.counters()
    }

    /// Attaches a committed-history recorder.
    pub fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        self.0.set_history_recorder(recorder);
    }

    /// Injects faults into the store→backup replication stream.
    pub fn set_replication_faults(&mut self, faults: LinkFaults) {
        self.0.set_replication_faults(faults);
    }

    /// The replication link (fault counters).
    pub fn replica_link(&self) -> &Arc<ReplicaLink> {
        self.0.replica_link()
    }

    /// The backup replica.
    pub fn backup(&self) -> &Arc<Database> {
        self.0.backup()
    }
}

impl star_core::Engine for DistOcc {
    fn name(&self) -> String {
        self.0.engine_label().to_string()
    }

    fn run_for(&mut self, duration: Duration) -> RunReport {
        DistOcc::run_for(self, duration)
    }

    fn counters(&self) -> &RunCounters {
        DistOcc::counters(self)
    }

    fn report(&self) -> RunReport {
        self.0.report()
    }

    fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        DistOcc::set_history_recorder(self, recorder)
    }
}

/// Distributed strict 2PL (NO_WAIT) with two-phase commit.
pub struct DistS2pl(PartitionedEngine);

impl DistS2pl {
    /// Builds the engine.
    pub fn new(config: BaselineConfig, workload: Arc<dyn Workload>) -> Result<Self> {
        PartitionedEngine::new(config, DistCc::S2plNoWait, workload).map(DistS2pl)
    }

    /// Runs the engine for (at least) `duration`.
    pub fn run_for(&mut self, duration: Duration) -> RunReport {
        self.0.run_for(duration)
    }

    /// The shared counters.
    pub fn counters(&self) -> &RunCounters {
        self.0.counters()
    }

    /// Attaches a committed-history recorder.
    pub fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        self.0.set_history_recorder(recorder);
    }

    /// Injects faults into the store→backup replication stream.
    pub fn set_replication_faults(&mut self, faults: LinkFaults) {
        self.0.set_replication_faults(faults);
    }

    /// The replication link (fault counters).
    pub fn replica_link(&self) -> &Arc<ReplicaLink> {
        self.0.replica_link()
    }

    /// The backup replica.
    pub fn backup(&self) -> &Arc<Database> {
        self.0.backup()
    }
}

impl star_core::Engine for DistS2pl {
    fn name(&self) -> String {
        self.0.engine_label().to_string()
    }

    fn run_for(&mut self, duration: Duration) -> RunReport {
        DistS2pl::run_for(self, duration)
    }

    fn counters(&self) -> &RunCounters {
        DistS2pl::counters(self)
    }

    fn report(&self) -> RunReport {
        self.0.report()
    }

    fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        DistS2pl::set_history_recorder(self, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_common::ClusterConfig;
    use star_core::testing::{kv_key, KvWorkload};

    fn config() -> BaselineConfig {
        let cluster = ClusterConfig::builder()
            .nodes(4)
            .partitions(4)
            .workers_per_node(1)
            .iteration(Duration::from_millis(5))
            .network_latency(Duration::from_micros(20))
            .build()
            .unwrap();
        BaselineConfig::new(cluster)
    }

    fn workload(cross: f64) -> Arc<KvWorkload> {
        Arc::new(KvWorkload {
            partitions: 4,
            rows_per_partition: 64,
            cross_partition_fraction: cross,
        })
    }

    #[test]
    fn dist_occ_commits_and_counts_coordination() {
        let mut engine = DistOcc::new(config(), workload(0.5)).unwrap();
        let report = engine.run_for(Duration::from_millis(40));
        assert!(report.counters.committed > 0);
        assert!(report.counters.coordination_bytes > 0, "2PC traffic must be charged");
        assert_eq!(report.engine, "Dist. OCC");
    }

    #[test]
    fn dist_s2pl_commits_and_preserves_counter_integrity() {
        let wl = workload(0.3);
        let mut engine = DistS2pl::new(config(), wl.clone()).unwrap();
        let report = engine.run_for(Duration::from_millis(40));
        assert!(report.counters.committed > 0);
        // All counters must add up: every KvRmw increments two counters.
        let mut total = 0u64;
        for p in 0..4usize {
            for offset in 0..wl.rows_per_partition {
                let rec = engine.0.store().get(0, p, kv_key(p, offset)).unwrap();
                assert!(!rec.is_locked(), "no lock may leak after a run");
                total += rec.read().row.field(0).unwrap().as_u64().unwrap();
            }
        }
        assert_eq!(total, report.counters.committed * 2);
    }

    #[test]
    fn cross_partition_transactions_hurt_partitioned_systems() {
        // The core shape of Figure 11: partitioning-based systems slow down
        // as the cross-partition fraction grows. A higher latency makes the
        // gap robust to scheduling noise on a loaded test host.
        let _serial = crate::test_sync::PERF_TEST_LOCK.lock();
        let mut cfg = config();
        cfg.cluster =
            cfg.cluster.to_builder().network_latency(Duration::from_micros(200)).build().unwrap();
        let mut local_engine = DistOcc::new(cfg.clone(), workload(0.0)).unwrap();
        let local = local_engine.run_for(Duration::from_millis(150));
        let mut remote_engine = DistOcc::new(cfg, workload(1.0)).unwrap();
        let remote = remote_engine.run_for(Duration::from_millis(150));
        assert!(
            remote.throughput < local.throughput,
            "remote {} >= local {}",
            remote.throughput,
            local.throughput
        );
    }
}
