//! PB. OCC: the non-partitioned primary/backup baseline.
//!
//! A single primary node holds the whole database and runs every transaction
//! under the Silo-variant OCC protocol; a backup node receives the writes of
//! committed transactions. Only two nodes are used (Section 7.1.2). With
//! asynchronous replication the backup is brought up to date at each
//! epoch-based group commit; with synchronous replication every transaction
//! holds its write locks for a replication round trip.

use crate::driver::{build_full_database, BaselineConfig};
use crate::replication::ReplicaLink;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use star_common::stats::{LatencyHistogram, RunCounters, RunReport};
use star_common::{Epoch, Error, ReplicationMode, Result, TidGenerator};
use star_core::history::{CommittedTxn, HistoryRecorder};
use star_core::Workload;
use star_net::LinkFaults;
use star_occ::{commit_single_master, TxnCtx};
use star_replication::{build_log_entries, ExecutionPhase, LogEntry};
use star_storage::Database;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The primary/backup OCC engine.
pub struct PbOcc {
    config: BaselineConfig,
    workload: Arc<dyn Workload>,
    primary: Arc<Database>,
    backup: Arc<Database>,
    /// The primary→backup replication stream (buffers entries between group
    /// commits; fault-injectable through the shared fault plane).
    link: Arc<ReplicaLink>,
    counters: Arc<RunCounters>,
    epoch: Epoch,
    history: Option<Arc<HistoryRecorder>>,
    last_report: Option<RunReport>,
}

impl PbOcc {
    /// Builds the engine: a primary and a backup replica, both loaded with
    /// the workload's data.
    pub fn new(config: BaselineConfig, workload: Arc<dyn Workload>) -> Result<Self> {
        config.cluster.validate().map_err(Error::Config)?;
        let primary = build_full_database(workload.as_ref());
        let backup = build_full_database(workload.as_ref());
        Ok(PbOcc {
            config,
            workload,
            primary,
            backup,
            link: Arc::new(ReplicaLink::new()),
            counters: Arc::new(RunCounters::new()),
            epoch: 1,
            history: None,
            last_report: None,
        })
    }

    fn engine_label(&self) -> &'static str {
        match self.config.replication {
            ReplicationMode::Sync => "PB. OCC (sync)",
            ReplicationMode::Async => "PB. OCC",
        }
    }

    /// Attaches a committed-history recorder. PB. OCC never reverts an
    /// epoch, so every commit is recorded as final immediately.
    pub fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        self.history = Some(recorder);
    }

    /// Injects faults into the primary→backup replication stream, seeded
    /// from the cluster seed (see [`ReplicaLink`]).
    pub fn set_replication_faults(&mut self, faults: LinkFaults) {
        self.link.set_faults(self.config.cluster.seed, faults);
    }

    /// The replication link (fault counters).
    pub fn replica_link(&self) -> &Arc<ReplicaLink> {
        &self.link
    }

    /// The primary replica (for inspection in tests).
    pub fn primary(&self) -> &Arc<Database> {
        &self.primary
    }

    /// The backup replica.
    pub fn backup(&self) -> &Arc<Database> {
        &self.backup
    }

    /// The shared counters.
    pub fn counters(&self) -> &RunCounters {
        &self.counters
    }

    /// Applies all buffered replication entries to the backup (the group
    /// commit of asynchronous replication) and advances the epoch.
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
        let workers = self.config.cluster.workers_per_node;
        let base_seed = self.config.cluster.rng_seed_base();
        let sync = self.config.replication == ReplicationMode::Sync;
        let round_trip = self.config.round_trip();
        let epoch_interval = self.config.epoch_interval();
        let start = Instant::now();
        let before = self.counters.snapshot();
        let latency = Arc::new(Mutex::new(LatencyHistogram::new()));

        while start.elapsed() < duration {
            let epoch = self.epoch;
            let epoch_deadline = Instant::now() + epoch_interval;
            let primary = &self.primary;
            let backup = &self.backup;
            let link = &self.link;
            let counters = &self.counters;
            let workload = &self.workload;
            let latency = &latency;
            let history = &self.history;
            std::thread::scope(|scope| {
                for worker in 0..workers {
                    let primary = Arc::clone(primary);
                    let backup = Arc::clone(backup);
                    let link = Arc::clone(link);
                    let counters = Arc::clone(counters);
                    let workload = Arc::clone(workload);
                    let latency = Arc::clone(latency);
                    let history = history.clone();
                    let partitions = workload.num_partitions();
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(
                            base_seed ^ 0x9B0C ^ (worker as u64) ^ epoch as u64,
                        );
                        let mut tid_gen = TidGenerator::new();
                        let mut attempts = 0u64;
                        let mut local_latency = LatencyHistogram::new();
                        while attempts == 0 || Instant::now() < epoch_deadline {
                            attempts += 1;
                            let txn_start = Instant::now();
                            let home = rng.gen_range(0..partitions);
                            let proc = workload.mixed_transaction(&mut rng, home);
                            let mut ctx = TxnCtx::new(primary.as_ref());
                            let result = proc.execute(&mut ctx);
                            counters.add_execution(txn_start.elapsed());
                            match result {
                                Ok(()) => {}
                                Err(Error::Abort(star_common::AbortReason::User)) => {
                                    counters.add_user_abort();
                                    continue;
                                }
                                Err(_) => {
                                    counters.add_abort();
                                    continue;
                                }
                            }
                            let (rs, ws) = ctx.into_sets();
                            let recorded_reads = history.as_ref().map(|_| rs.clone());
                            let validate_start = Instant::now();
                            let outcome =
                                commit_single_master(&primary, rs, ws, epoch, &mut tid_gen);
                            counters.add_lock_or_validate(validate_start.elapsed());
                            let output = match outcome {
                                Ok(output) => output,
                                Err(_) => {
                                    counters.add_abort();
                                    continue;
                                }
                            };
                            if let Some(history) = &history {
                                history.record_final(CommittedTxn::from_sets(
                                    epoch,
                                    ExecutionPhase::SingleMaster,
                                    worker as u64,
                                    output.tid,
                                    recorded_reads.as_deref().unwrap_or(&[]),
                                    &output.write_set,
                                ));
                            }
                            let entries = build_log_entries(
                                &output.write_set,
                                output.tid,
                                star_common::ReplicationStrategy::Value,
                                ExecutionPhase::SingleMaster,
                            );
                            let bytes: usize = entries.iter().map(LogEntry::wire_size).sum();
                            counters.add_replication_bytes(bytes as u64);
                            if sync {
                                // Synchronous replication: apply on the
                                // backup and pay the round trip while the
                                // write locks are (logically) held.
                                let flush_start = Instant::now();
                                link.deliver_now(&entries, &backup);
                                std::thread::sleep(round_trip);
                                counters.add_replication_flush(flush_start.elapsed());
                                local_latency.record(txn_start.elapsed());
                            } else {
                                link.offer(entries);
                                // Under async replication + group commit the
                                // result is only released at the epoch's
                                // group commit, which fires at the epoch
                                // deadline: sample each commit's real wait
                                // until that release point.
                                local_latency
                                    .record(epoch_deadline.saturating_duration_since(txn_start));
                            }
                            counters.add_commit();
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

    /// Checks that the backup replica has caught up with the primary (valid
    /// after a `run_for`, which always ends with a group commit).
    pub fn verify_backup_consistency(&self) -> Result<()> {
        let mut divergence = None;
        self.primary.for_each_record(|table, partition, key, rec| {
            if divergence.is_some() {
                return;
            }
            let primary_read = rec.read();
            match self.backup.try_get(table, partition, key) {
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
}

impl star_core::Engine for PbOcc {
    fn name(&self) -> String {
        self.engine_label().to_string()
    }

    fn run_for(&mut self, duration: Duration) -> RunReport {
        PbOcc::run_for(self, duration)
    }

    fn counters(&self) -> &RunCounters {
        PbOcc::counters(self)
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

    fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        PbOcc::set_history_recorder(self, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_common::ClusterConfig;
    use star_core::testing::KvWorkload;

    fn config(sync: bool) -> BaselineConfig {
        let cluster = ClusterConfig::builder()
            .nodes(2)
            .partitions(4)
            .workers_per_node(2)
            .iteration(Duration::from_millis(5))
            .network_latency(Duration::from_micros(20))
            .replication_mode(if sync { ReplicationMode::Sync } else { ReplicationMode::Async })
            .build()
            .unwrap();
        BaselineConfig::new(cluster)
    }

    fn workload() -> Arc<KvWorkload> {
        Arc::new(KvWorkload {
            partitions: 4,
            rows_per_partition: 32,
            cross_partition_fraction: 0.3,
        })
    }

    #[test]
    fn async_mode_commits_and_backup_converges() {
        let mut engine = PbOcc::new(config(false), workload()).unwrap();
        let report = engine.run_for(Duration::from_millis(30));
        assert!(report.counters.committed > 0);
        assert!(report.counters.replication_bytes > 0);
        engine.verify_backup_consistency().unwrap();
        assert_eq!(report.engine, "PB. OCC");
    }

    #[test]
    fn sync_mode_commits_with_lower_throughput() {
        let _serial = crate::test_sync::PERF_TEST_LOCK.lock();
        let mut async_engine = PbOcc::new(config(false), workload()).unwrap();
        let async_report = async_engine.run_for(Duration::from_millis(150));
        let mut sync_engine = PbOcc::new(config(true), workload()).unwrap();
        let sync_report = sync_engine.run_for(Duration::from_millis(150));
        assert!(sync_report.counters.committed > 0);
        sync_engine.verify_backup_consistency().unwrap();
        // The paper's Figure 11 vs 11(c): synchronous replication is far
        // slower because every transaction pays a round trip.
        assert!(
            sync_report.throughput < async_report.throughput,
            "sync {} >= async {}",
            sync_report.throughput,
            async_report.throughput
        );
    }

    #[test]
    fn throughput_is_insensitive_to_cross_partition_fraction() {
        // The defining property of a non-partitioned system (Figure 11).
        let _serial = crate::test_sync::PERF_TEST_LOCK.lock();
        let wl_low = Arc::new(KvWorkload {
            partitions: 4,
            rows_per_partition: 32,
            cross_partition_fraction: 0.0,
        });
        let wl_high = Arc::new(KvWorkload {
            partitions: 4,
            rows_per_partition: 32,
            cross_partition_fraction: 1.0,
        });
        let mut low = PbOcc::new(config(false), wl_low).unwrap();
        let mut high = PbOcc::new(config(false), wl_high).unwrap();
        let low_report = low.run_for(Duration::from_millis(150));
        let high_report = high.run_for(Duration::from_millis(150));
        let ratio = low_report.throughput / high_report.throughput.max(1.0);
        assert!(ratio < 4.0 && ratio > 1.0 / 4.0, "ratio={ratio}");
    }
}
