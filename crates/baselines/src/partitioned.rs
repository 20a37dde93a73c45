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

use crate::driver::{mode_label, Baseline, Protocol, Shell, Worker};
use parking_lot::Mutex;
use rand::Rng;
use star_common::stats::LatencyHistogram;
use star_common::{
    AbortReason, ClusterConfig, Epoch, Error, Key, PartitionId, ReplicationMode, Result, TableId,
    TidGenerator,
};
use star_core::Workload;
use star_occ::{commit_single_master, DataSource, TxnCtx, WriteSet};
use star_storage::{Database, ReadResult, Record};
use std::sync::Arc;
use std::time::Instant;

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

/// A partitioning-based engine: Dist. OCC or Dist. S2PL, by its [`DistCc`].
pub type PartitionedEngine = Baseline<DistCc>;

impl PartitionedEngine {
    /// Builds the engine with the requested concurrency-control protocol.
    pub fn new(cluster: ClusterConfig, cc: DistCc, workload: Arc<dyn Workload>) -> Result<Self> {
        if workload.num_partitions() != cluster.partitions {
            return Err(Error::Config(format!(
                "workload has {} partitions but the cluster is configured for {}",
                workload.num_partitions(),
                cluster.partitions
            )));
        }
        let mut engine = Baseline::build(cluster, cc, workload)?;
        engine.attach_backup();
        Ok(engine)
    }
}

/// A data source that charges a network round trip for reads of partitions
/// owned by a remote node, and (for S2PL) takes NO_WAIT locks at access time.
struct ShardedSource<'a> {
    shell: &'a Shell,
    home_node: usize,
    locking: bool,
    locked: Mutex<Vec<Arc<Record>>>,
}

impl ShardedSource<'_> {
    fn charge_remote_access(&self, partition: PartitionId) {
        if self.shell.cluster.partition_primary(partition) != self.home_node {
            self.shell.counters.add_coordination_bytes(96);
            self.shell.wait_round_trips(1);
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
        let rec = self.shell.store.get(table, partition, key)?;
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
        self.shell.store.secondary_lookup(table, index, secondary)
    }
}

impl Protocol for DistCc {
    fn label(&self, mode: ReplicationMode) -> String {
        let name = match self {
            DistCc::Occ => "Dist. OCC",
            DistCc::S2plNoWait => "Dist. S2PL",
        };
        mode_label(name, mode)
    }

    fn run_epoch(
        &self,
        shell: &Shell,
        epoch: Epoch,
        latency: &mut LatencyHistogram,
    ) -> Vec<Instant> {
        let cluster = &shell.cluster;
        // Home partitions of each node; worker `w` runs on node `w % nodes`.
        let homes: Vec<Vec<PartitionId>> =
            (0..cluster.num_nodes).map(|node| cluster.partitions_of(node)).collect();
        shell.run_workers(
            epoch,
            cluster.total_workers(),
            |worker| cluster.rng_seed_base() ^ 0xD157 ^ (worker as u64) ^ ((epoch as u64) << 16),
            |w, txn_start| self.attempt(w, txn_start, &homes[w.id % cluster.num_nodes]),
            latency,
        );
        Vec::new()
    }
}

impl DistCc {
    /// One transaction on its home node: execute (remote reads pay a round
    /// trip), commit, two-phase commit with the remote participants,
    /// replicate.
    fn attempt(self, w: &mut Worker<'_>, txn_start: Instant, home_partitions: &[PartitionId]) {
        let shell = w.shell;
        let cluster = &shell.cluster;
        let home_node = w.id % cluster.num_nodes;
        let home_partition = home_partitions
            [w.rng.gen_range(0..home_partitions.len().max(1)) % home_partitions.len().max(1)];
        let proc = shell.workload.mixed_transaction(&mut w.rng, home_partition);
        let source = ShardedSource {
            shell,
            home_node,
            locking: self == DistCc::S2plNoWait,
            locked: Mutex::new(Vec::new()),
        };
        let mut ctx = TxnCtx::new(&source);
        let result = proc.execute(&mut ctx);
        shell.counters.add_execution(txn_start.elapsed());
        if let Err(err) = result {
            shell.count_abort(&err);
            source.release_locks();
            return;
        }
        let (rs, ws) = ctx.into_sets();
        let recorded_reads = shell.history.as_ref().map(|_| rs.clone());
        // Two-phase commit: one prepare and one commit round to every remote
        // participant.
        let mut participants: Vec<usize> = rs
            .iter()
            .map(|r| cluster.partition_primary(r.partition))
            .chain(ws.iter().map(|w| cluster.partition_primary(w.partition)))
            .collect();
        participants.sort_unstable();
        participants.dedup();
        let remote_participants = participants.iter().filter(|&&n| n != home_node).count();
        let commit_start = Instant::now();
        let outcome = match self {
            DistCc::Occ => commit_single_master(&shell.store, rs, ws, w.epoch, &mut w.tid_gen)
                .map(|o| o.write_set),
            DistCc::S2plNoWait => {
                commit_s2pl(&shell.store, source.take_locks(), ws, w.epoch, &mut w.tid_gen)
            }
        };
        shell.counters.add_lock_or_validate(commit_start.elapsed());
        let Ok(write_set) = outcome else {
            shell.counters.add_abort();
            return;
        };
        // Both protocols assign exactly one TID per commit, so the
        // generator's last TID is this transaction's commit TID.
        let tid = w.tid_gen.last();
        shell.record_commit(w.epoch, w.id, tid, recorded_reads.as_deref(), &write_set);
        if remote_participants > 0 {
            // 2PC: prepare + commit rounds.
            shell.counters.add_coordination_bytes((remote_participants as u64) * 128);
            shell.wait_round_trips(2);
        }
        if !write_set.is_empty() {
            w.replicate(&write_set, tid);
        }
        w.commit(txn_start);
    }
}

/// Commits an S2PL transaction whose read locks `locked` were taken at
/// access time: locks any write-only records (inserts), then installs the
/// writes under a fresh TID and releases every lock — each lock exactly
/// once. A record must never be probed with `is_locked()` to decide whether
/// to unlock it: the instant `write_and_unlock` releases a write record, a
/// concurrent NO_WAIT transaction can acquire it, and a second unlock from
/// this transaction would free the *other* transaction's lock (a real
/// lock-discipline collapse the serializability checker caught as
/// intermittent cycles). Instead, track which held record is written (last
/// write wins for duplicate keys) and release write locks via the install
/// and read-only locks separately.
fn commit_s2pl(
    store: &Database,
    locked: Vec<Arc<Record>>,
    ws: WriteSet,
    epoch: Epoch,
    tid_gen: &mut TidGenerator,
) -> Result<WriteSet> {
    let mut extra_locked: Vec<Arc<Record>> = Vec::new();
    // (record, index in `ws` of its last write)
    let mut write_recs: Vec<(Arc<Record>, usize)> = Vec::new();
    let mut ok = true;
    for (i, w) in ws.iter().enumerate() {
        // get_or_insert_with is the race-safe insert path: Database::insert
        // would *replace* a record a concurrent worker just inserted and
        // locked, leaving two transactions committed against two distinct
        // record handles for one key.
        let rec = match store.get_or_insert_with(w.table, w.partition, w.key, || {
            Record::new(star_common::Row::empty())
        }) {
            Ok(rec) => rec,
            Err(_) => {
                ok = false;
                break;
            }
        };
        let held = locked.iter().chain(extra_locked.iter()).any(|r| Arc::ptr_eq(r, &rec));
        if !held {
            if rec.try_lock() {
                extra_locked.push(Arc::clone(&rec));
            } else {
                ok = false;
                break;
            }
        }
        match write_recs.iter_mut().find(|(r, _)| Arc::ptr_eq(r, &rec)) {
            Some(entry) => entry.1 = i,
            None => write_recs.push((rec, i)),
        }
    }
    if !ok {
        // Abort: nothing has been written or unlocked yet, so every lock in
        // `locked`/`extra_locked` is still ours to release.
        for rec in locked.iter().chain(extra_locked.iter()) {
            rec.unlock();
        }
        return Err(Error::Abort(AbortReason::LockConflict));
    }
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
        let written = write_recs.iter().any(|(r, _)| Arc::ptr_eq(r, rec));
        if !written {
            rec.unlock();
        }
    }
    let mut ws_out = ws;
    for w in &mut ws_out {
        w.operation = None;
    }
    Ok(ws_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_core::testing::{kv_key, KvWorkload};
    use star_core::Engine;
    use std::time::Duration;

    fn config() -> ClusterConfig {
        ClusterConfig::builder()
            .nodes(4)
            .partitions(4)
            .workers_per_node(1)
            .iteration(Duration::from_millis(5))
            .network_latency(Duration::from_micros(20))
            .build()
            .unwrap()
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
        let mut engine = PartitionedEngine::new(config(), DistCc::Occ, workload(0.5)).unwrap();
        let report = engine.run_for(Duration::from_millis(40));
        assert!(report.counters.committed > 0);
        assert!(report.counters.coordination_bytes > 0, "2PC traffic must be charged");
        assert_eq!(report.engine, "Dist. OCC");
    }

    #[test]
    fn dist_s2pl_commits_and_preserves_counter_integrity() {
        let wl = workload(0.3);
        let mut engine = PartitionedEngine::new(config(), DistCc::S2plNoWait, wl.clone()).unwrap();
        let report = engine.run_for(Duration::from_millis(40));
        assert!(report.counters.committed > 0);
        // All counters must add up: every KvRmw increments two counters.
        let mut total = 0u64;
        for p in 0..4usize {
            for offset in 0..wl.rows_per_partition {
                let rec = engine.shell.store.get(0, p, kv_key(p, offset)).unwrap();
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
        let cfg =
            config().to_builder().network_latency(Duration::from_micros(200)).build().unwrap();
        let mut local_engine =
            PartitionedEngine::new(cfg.clone(), DistCc::Occ, workload(0.0)).unwrap();
        let local = local_engine.run_for(Duration::from_millis(150));
        let mut remote_engine = PartitionedEngine::new(cfg, DistCc::Occ, workload(1.0)).unwrap();
        let remote = remote_engine.run_for(Duration::from_millis(150));
        assert!(
            remote.throughput < local.throughput,
            "remote {} >= local {}",
            remote.throughput,
            local.throughput
        );
    }
}
