//! The harness the four baselines share, written once.
//!
//! A [`Baseline`] engine is one shell around a [`Protocol`]. The shell owns
//! the [`ClusterConfig`], the workload, the store and its backup, the
//! [`ReplicaLink`] between them, the counters, the epoch, the history
//! recorder and the last report. It runs the epoch loop — one epoch of the
//! protocol, then the group commit that applies the epoch's replication to
//! the backup — turns the window into a [`RunReport`] and implements
//! [`Engine`]. A protocol keeps only what is its own: its label and one
//! epoch's work (PB. OCC's Silo commit, Dist. OCC / S2PL's remote reads and
//! two-phase commit, Calvin's sequenced batch).

use crate::replication::ReplicaLink;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use star_common::stats::{LatencyHistogram, RunCounters, RunReport};
use star_common::{
    AbortReason, ClusterConfig, Epoch, Error, ReplicationMode, ReplicationStrategy, Result, Tid,
    TidGenerator,
};
use star_core::engine_api::last_or_idle_report;
use star_core::history::{CommittedTxn, HistoryRecorder};
use star_core::{Engine, Workload};
use star_net::LinkFaults;
use star_occ::{ReadEntry, WriteEntry, WriteSet};
use star_replication::{build_log_entries, ExecutionPhase, LogEntry};
use star_storage::{Database, DatabaseBuilder};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one baseline runs inside the shared [`Baseline`] shell.
pub trait Protocol: Send + Sync {
    /// The engine's label under `mode`, e.g. `"Dist. OCC (sync)"`.
    fn label(&self, mode: ReplicationMode) -> String;

    /// Runs epoch `epoch` (for Calvin, one sequenced batch) on `shell`,
    /// sampling commit latencies into `latency`. Returns the start instants
    /// of the commits that the group commit closing the epoch releases; the
    /// shell samples their latency at that release.
    fn run_epoch(
        &self,
        shell: &Shell,
        epoch: Epoch,
        latency: &mut LatencyHistogram,
    ) -> Vec<Instant>;
}

/// The state every baseline shares, lent to [`Protocol::run_epoch`].
pub struct Shell {
    pub(crate) cluster: ClusterConfig,
    pub(crate) workload: Arc<dyn Workload>,
    /// The primary copy of every partition: PB. OCC's primary, the sharded
    /// store of the partitioned engines, Calvin's store.
    pub(crate) store: Arc<Database>,
    /// The backup replica, brought up to date through `link`.
    pub(crate) backup: Option<Arc<Database>>,
    pub(crate) link: Arc<ReplicaLink>,
    pub(crate) counters: RunCounters,
    pub(crate) history: Option<Arc<HistoryRecorder>>,
}

/// A baseline engine: the shared shell around protocol `P`.
pub struct Baseline<P> {
    pub(crate) shell: Shell,
    pub(crate) protocol: P,
    epoch: Epoch,
    last_report: Option<RunReport>,
}

/// Builds a full (all partitions) database loaded with the workload: the
/// store of every baseline and its backup.
pub(crate) fn build_full_database(workload: &dyn Workload) -> Arc<Database> {
    let mut builder = DatabaseBuilder::new(workload.num_partitions());
    for spec in workload.catalog() {
        builder = builder.table(spec);
    }
    let db = builder.build();
    for partition in 0..workload.num_partitions() {
        workload.load_partition(&db, partition);
    }
    Arc::new(db)
}

/// `name`, marked `" (sync)"` under synchronous replication.
pub(crate) fn mode_label(name: &str, mode: ReplicationMode) -> String {
    match mode {
        ReplicationMode::Sync => format!("{name} (sync)"),
        ReplicationMode::Async => name.to_string(),
    }
}

/// The value log entries that replicate a committed write set.
pub(crate) fn value_log(write_set: &WriteSet, tid: Tid) -> Vec<LogEntry> {
    build_log_entries(write_set, tid, ReplicationStrategy::Value, ExecutionPhase::SingleMaster)
}

impl<P: Protocol> Baseline<P> {
    /// Builds the engine around `protocol` with its store loaded from
    /// `workload`; the backup is built by [`attach_backup`](Self::attach_backup).
    pub(crate) fn build(
        cluster: ClusterConfig,
        protocol: P,
        workload: Arc<dyn Workload>,
    ) -> Result<Self> {
        cluster.validate().map_err(Error::Config)?;
        let store = build_full_database(workload.as_ref());
        Ok(Baseline {
            shell: Shell {
                cluster,
                workload,
                store,
                backup: None,
                link: Arc::new(ReplicaLink::new()),
                counters: RunCounters::new(),
                history: None,
            },
            protocol,
            epoch: 1,
            last_report: None,
        })
    }

    /// Attaches a backup replica loaded with the workload's data: from now
    /// on the writes of every committed transaction are streamed through
    /// the [`ReplicaLink`] and applied to it.
    pub fn attach_backup(&mut self) {
        if self.shell.backup.is_none() {
            self.shell.backup = Some(build_full_database(self.shell.workload.as_ref()));
        }
    }

    /// Injects faults into the replication stream (attaching the backup if
    /// necessary), seeded from the cluster seed (see [`ReplicaLink`]).
    pub fn set_replication_faults(&mut self, faults: LinkFaults) {
        self.attach_backup();
        self.shell.link.set_faults(self.shell.cluster.seed, faults);
    }

    /// The replication link (fault counters).
    pub fn replica_link(&self) -> &Arc<ReplicaLink> {
        &self.shell.link
    }

    /// The backup replica, if one is attached.
    pub fn backup(&self) -> Option<&Arc<Database>> {
        self.shell.backup.as_ref()
    }

    /// Checks that the backup replica has caught up with the store (valid
    /// after a `run_for`, which always ends with a group commit).
    pub fn verify_backup_consistency(&self) -> Result<()> {
        let Some(backup) = &self.shell.backup else {
            return Err(Error::Config("no backup replica attached".into()));
        };
        let mut divergence = None;
        self.shell.store.for_each_record(|table, partition, key, rec| {
            if divergence.is_some() {
                return;
            }
            let primary_read = rec.read();
            match backup.try_get(table, partition, key) {
                Ok(Some(backup_rec)) => {
                    let backup_read = backup_rec.read();
                    if backup_read.tid != primary_read.tid {
                        divergence = Some(format!(
                            "key {key} tid mismatch ({} vs {})",
                            primary_read.tid, backup_read.tid
                        ));
                    }
                }
                _ => divergence = Some(format!("key {key} missing on backup")),
            }
        });
        match divergence {
            None => Ok(()),
            Some(msg) => Err(Error::Config(format!("backup divergence: {msg}"))),
        }
    }

    /// Applies the epoch's buffered replication entries to the backup (the
    /// group commit) and advances the epoch.
    fn group_commit(&mut self) {
        if let Some(backup) = &self.shell.backup {
            let start = Instant::now();
            self.shell.link.group_commit(backup);
            // The whole group commit is one synchronous stall (fence wait),
            // and its body is the replication apply to the backup (flush).
            self.shell.counters.add_replication_flush(start.elapsed());
            self.shell.counters.add_fence(start.elapsed());
        }
        self.epoch += 1;
    }
}

impl<P: Protocol> Engine for Baseline<P> {
    fn name(&self) -> String {
        self.protocol.label(self.shell.cluster.replication_mode)
    }

    fn run_for(&mut self, duration: Duration) -> RunReport {
        let start = Instant::now();
        let before = self.shell.counters.snapshot();
        let mut latency = LatencyHistogram::new();
        while start.elapsed() < duration {
            let released = self.protocol.run_epoch(&self.shell, self.epoch, &mut latency);
            self.group_commit();
            // Each released commit waited from its start until here.
            let release = Instant::now();
            for txn_start in released {
                latency.record(release.saturating_duration_since(txn_start));
            }
        }
        let elapsed = start.elapsed();
        let window = self.shell.counters.snapshot().since(&before);
        let workload = &self.shell.workload;
        let report = RunReport::new(
            self.name(),
            workload.name(),
            workload.mix().percentage(),
            elapsed,
            window,
            latency,
        );
        self.last_report = Some(report.clone());
        report
    }

    fn counters(&self) -> &RunCounters {
        &self.shell.counters
    }

    fn report(&self) -> RunReport {
        let shell = &self.shell;
        last_or_idle_report(
            self.last_report.as_ref(),
            &self.name(),
            shell.workload.as_ref(),
            &shell.counters,
        )
    }

    /// Baselines never revert an epoch, so every commit is recorded as
    /// final immediately.
    fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        self.shell.history = Some(recorder);
    }
}

impl Shell {
    /// Whether every commit replicates synchronously.
    pub(crate) fn sync(&self) -> bool {
        self.cluster.replication_mode == ReplicationMode::Sync
    }

    /// One network round trip: twice the configured one-way latency.
    pub(crate) fn round_trip(&self) -> Duration {
        self.cluster.network_latency * 2
    }

    /// Blocks for `rounds` network round trips — the one way a baseline
    /// pays for the network.
    pub(crate) fn wait_round_trips(&self, rounds: u32) {
        std::thread::sleep(self.round_trip() * rounds);
    }

    /// Counts a transaction that `err` aborted.
    pub(crate) fn count_abort(&self, err: &Error) {
        match err {
            Error::Abort(AbortReason::User) => self.counters.add_user_abort(),
            _ => self.counters.add_abort(),
        }
    }

    /// Records a commit of `worker` in the history, if one is attached.
    pub(crate) fn record_commit(
        &self,
        epoch: Epoch,
        worker: usize,
        tid: Tid,
        reads: Option<&[ReadEntry]>,
        writes: &[WriteEntry],
    ) {
        if let Some(history) = &self.history {
            history.record_final(CommittedTxn::from_sets(
                epoch,
                ExecutionPhase::SingleMaster,
                worker as u64,
                tid,
                reads.unwrap_or(&[]),
                writes,
            ));
        }
    }

    /// Runs `workers` threads until the epoch deadline, one iteration from
    /// now: worker `id` seeds its RNG with `seed(id)` and repeats `attempt`
    /// (at least once). Their latency samples are merged into `latency`.
    pub(crate) fn run_workers(
        &self,
        epoch: Epoch,
        workers: usize,
        seed: impl Fn(usize) -> u64 + Sync,
        attempt: impl Fn(&mut Worker<'_>, Instant) + Sync,
        latency: &mut LatencyHistogram,
    ) {
        let deadline = Instant::now() + self.cluster.iteration;
        let merged = Mutex::new(latency);
        std::thread::scope(|scope| {
            for id in 0..workers {
                let (seed, attempt, merged) = (&seed, &attempt, &merged);
                scope.spawn(move || {
                    let mut worker = Worker {
                        shell: self,
                        id,
                        epoch,
                        rng: StdRng::seed_from_u64(seed(id)),
                        tid_gen: TidGenerator::new(),
                        deadline,
                        latency: LatencyHistogram::new(),
                    };
                    loop {
                        attempt(&mut worker, Instant::now());
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    merged.lock().merge(&worker.latency);
                });
            }
        });
    }
}

/// One worker thread's share of an epoch (see [`Shell::run_workers`]).
pub(crate) struct Worker<'a> {
    pub(crate) shell: &'a Shell,
    pub(crate) id: usize,
    pub(crate) epoch: Epoch,
    pub(crate) rng: StdRng,
    pub(crate) tid_gen: TidGenerator,
    deadline: Instant,
    latency: LatencyHistogram,
}

impl Worker<'_> {
    /// Replicates a committed write set: under synchronous replication it is
    /// applied to the backup at once and the commit pays a round trip;
    /// otherwise it waits in the link for the epoch's group commit.
    pub(crate) fn replicate(&self, write_set: &WriteSet, tid: Tid) {
        let shell = self.shell;
        let entries = value_log(write_set, tid);
        let bytes: usize = entries.iter().map(LogEntry::wire_size).sum();
        shell.counters.add_replication_bytes(bytes as u64);
        if shell.sync() {
            let flush_start = Instant::now();
            if let Some(backup) = &shell.backup {
                shell.link.deliver_now(&entries, backup);
            }
            shell.wait_round_trips(1);
            shell.counters.add_replication_flush(flush_start.elapsed());
        } else {
            shell.link.offer(entries);
        }
    }

    /// Counts a commit that started at `txn_start` and samples its latency:
    /// the transaction's span under synchronous replication; under
    /// asynchronous replication its wait until the group commit, which
    /// fires at the epoch deadline, releases it.
    pub(crate) fn commit(&mut self, txn_start: Instant) {
        self.shell.counters.add_commit();
        let latency = if self.shell.sync() {
            txn_start.elapsed()
        } else {
            self.deadline.saturating_duration_since(txn_start)
        };
        self.latency.record(latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistCc;
    use star_core::testing::KvWorkload;

    #[test]
    fn round_trip_is_twice_the_network_latency() {
        let cluster = ClusterConfig::builder()
            .nodes(4)
            .network_latency(Duration::from_micros(250))
            .build()
            .unwrap();
        let engine = crate::PbOcc::new(cluster, Arc::new(KvWorkload::new(4))).unwrap();
        assert_eq!(engine.shell.round_trip(), Duration::from_micros(500));
    }

    #[test]
    fn label_and_sync_path_follow_the_replication_mode() {
        // One epoch of 40 ms: under async replication every commit waits for
        // the group commit at the epoch deadline (half an epoch on average);
        // under sync replication it is released after its own round trip.
        let _serial = crate::test_sync::PERF_TEST_LOCK.lock();
        let epoch = Duration::from_millis(40);
        for mode in [ReplicationMode::Async, ReplicationMode::Sync] {
            let cluster = ClusterConfig::builder()
                .nodes(4)
                .partitions(4)
                .workers_per_node(1)
                .iteration(epoch)
                .network_latency(Duration::from_micros(1))
                .replication_mode(mode)
                .build()
                .unwrap();
            let workload = || Arc::new(KvWorkload::new(4));
            let engines: Vec<(&str, Box<dyn Engine>)> = vec![
                ("PB. OCC", Box::new(crate::PbOcc::new(cluster.clone(), workload()).unwrap())),
                (
                    "Dist. OCC",
                    Box::new(
                        crate::PartitionedEngine::new(cluster.clone(), DistCc::Occ, workload())
                            .unwrap(),
                    ),
                ),
                (
                    "Dist. S2PL",
                    Box::new(
                        crate::PartitionedEngine::new(
                            cluster.clone(),
                            DistCc::S2plNoWait,
                            workload(),
                        )
                        .unwrap(),
                    ),
                ),
            ];
            for (name, mut engine) in engines {
                let expected = match mode {
                    ReplicationMode::Sync => format!("{name} (sync)"),
                    ReplicationMode::Async => name.to_string(),
                };
                assert_eq!(engine.name(), expected);
                let report = engine.run_for(Duration::from_millis(1));
                assert_eq!(report.engine, expected);
                assert!(report.counters.committed > 0, "{expected} committed nothing");
                let p50 = report.latency.p50();
                match mode {
                    ReplicationMode::Sync => assert!(p50 < epoch / 4, "{expected}: p50 {p50:?}"),
                    ReplicationMode::Async => assert!(p50 > epoch / 4, "{expected}: p50 {p50:?}"),
                }
            }
        }
    }

    #[test]
    fn full_database_holds_every_partition() {
        let wl = KvWorkload::new(4);
        let db = build_full_database(&wl);
        assert!(db.is_full_replica());
        assert_eq!(db.len() as u64, 4 * wl.rows_per_partition);
    }
}
