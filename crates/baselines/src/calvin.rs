//! Calvin: a deterministic database with a multi-threaded lock manager
//! (Section 7.3 of the paper).
//!
//! Calvin sequences a batch of transactions before execution, replicates the
//! *inputs* to every replica group, and then executes the batch
//! deterministically: lock-manager threads grant locks in the sequenced
//! order and worker threads execute transactions once their locks are held.
//! Cross-partition transactions still need communication during execution
//! because participants must exchange the values of remote reads.
//!
//! The paper's `Calvin-x` configurations dedicate `x` of the 12 threads per
//! node to the lock manager; the rest execute transactions. This
//! implementation models the same trade-off: each transaction's lock grant is
//! serialised through one of `x` lock-manager queues (fewer queues → more
//! grant contention), executor parallelism is `total workers − x·nodes`, and
//! every cross-partition transaction pays one network round trip for the
//! remote-read exchange. Input replication is charged per batch to every
//! other node.

use crate::driver::{build_full_database, BaselineConfig};
use crate::replication::ReplicaLink;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use star_common::stats::{LatencyHistogram, RunCounters, RunReport};
use star_common::{Epoch, Error, Result, TidGenerator};
use star_core::history::{CommittedTxn, HistoryRecorder};
use star_core::Workload;
use star_net::LinkFaults;
use star_occ::{Procedure, TxnCtx};
use star_replication::{build_log_entries, ExecutionPhase};
use star_storage::{Database, Record};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calvin-specific knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalvinConfig {
    /// Lock-manager threads per node (`x` in `Calvin-x`).
    pub lock_managers_per_node: usize,
    /// Transactions sequenced into each batch.
    pub batch_size: usize,
}

impl Default for CalvinConfig {
    fn default() -> Self {
        CalvinConfig { lock_managers_per_node: 2, batch_size: 200 }
    }
}

impl CalvinConfig {
    /// The `Calvin-x` configuration with `x` lock-manager threads per node.
    pub fn with_lock_managers(x: usize) -> Self {
        CalvinConfig { lock_managers_per_node: x.max(1), ..Default::default() }
    }
}

/// The Calvin engine.
pub struct Calvin {
    config: BaselineConfig,
    calvin: CalvinConfig,
    workload: Arc<dyn Workload>,
    store: Arc<Database>,
    /// Optional replica of the store, brought up to date at the end of each
    /// batch through the fault-injectable [`ReplicaLink`]. Calvin proper
    /// replicates *inputs* and the second replica group re-executes them; the
    /// backup here materialises that group's applied state, both for the
    /// chaos harness (replica comparison under faults) and for the benchmark
    /// suite, which attaches it so Calvin-2 pays its replica group's apply
    /// work like every other engine in the comparison.
    backup: Option<Arc<Database>>,
    link: Arc<ReplicaLink>,
    counters: Arc<RunCounters>,
    epoch: Epoch,
    sequence: u64,
    history: Option<Arc<HistoryRecorder>>,
    last_report: Option<RunReport>,
}

impl Calvin {
    /// Builds the engine.
    pub fn new(
        config: BaselineConfig,
        calvin: CalvinConfig,
        workload: Arc<dyn Workload>,
    ) -> Result<Self> {
        config.cluster.validate().map_err(Error::Config)?;
        let store = build_full_database(workload.as_ref());
        Ok(Calvin {
            config,
            calvin,
            workload,
            store,
            backup: None,
            link: Arc::new(ReplicaLink::new()),
            counters: Arc::new(RunCounters::new()),
            epoch: 1,
            sequence: 0,
            history: None,
            last_report: None,
        })
    }

    /// The shared counters.
    pub fn counters(&self) -> &RunCounters {
        &self.counters
    }

    /// Attaches a backup replica: from now on the writes of every committed
    /// transaction are streamed through the [`ReplicaLink`] and applied to
    /// the backup at the end of each batch.
    pub fn attach_backup(&mut self) {
        if self.backup.is_none() {
            self.backup = Some(build_full_database(self.workload.as_ref()));
        }
    }

    /// Injects faults into the replication stream (attaching the backup if
    /// necessary), seeded from the cluster seed.
    pub fn set_replication_faults(&mut self, faults: LinkFaults) {
        self.attach_backup();
        self.link.set_faults(self.config.cluster.seed, faults);
    }

    /// The backup replica, if one has been attached.
    pub fn backup(&self) -> Option<&Arc<Database>> {
        self.backup.as_ref()
    }

    /// The replication link (fault counters).
    pub fn replica_link(&self) -> &Arc<ReplicaLink> {
        &self.link
    }

    /// Attaches a committed-history recorder. Calvin releases a batch's
    /// results when the whole batch finishes and never reverts one, so every
    /// commit is recorded as final immediately.
    pub fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        self.history = Some(recorder);
    }

    /// The engine label, e.g. `"Calvin-2"`.
    pub fn label(&self) -> String {
        format!("Calvin-{}", self.calvin.lock_managers_per_node)
    }

    /// Number of executor threads available after dedicating lock-manager
    /// threads.
    fn executors(&self) -> usize {
        let total = self.config.cluster.total_workers();
        let lock_managers = self.calvin.lock_managers_per_node * self.config.cluster.num_nodes;
        total.saturating_sub(lock_managers).max(1)
    }

    /// Runs one sequenced batch; returns the number of committed
    /// transactions. Each commit's latency — from its start until the
    /// batch-release boundary — is sampled into `latency`.
    fn run_batch(&mut self, latency: &mut LatencyHistogram) -> u64 {
        let batch_size = self.calvin.batch_size;
        let epoch = self.epoch;
        let cluster = &self.config.cluster;
        // The sequencer replicates the batch inputs to every other node
        // before execution (Calvin replicates inputs, not writes).
        let input_bytes = (batch_size as u64) * 64 * (cluster.num_nodes.saturating_sub(1) as u64);
        self.counters.add_coordination_bytes(input_bytes);

        // Sequence the batch deterministically.
        let mut rng = StdRng::seed_from_u64(cluster.rng_seed_base() ^ 0xCA1517 ^ self.sequence);
        self.sequence += 1;
        let batch: Vec<Box<dyn Procedure>> = (0..batch_size)
            .map(|i| self.workload.mixed_transaction(&mut rng, i % cluster.partitions))
            .collect();

        let executors = self.executors();
        let lock_manager_queues: Vec<Mutex<()>> =
            (0..self.calvin.lock_managers_per_node.max(1)).map(|_| Mutex::new(())).collect();
        let lock_manager_queues = Arc::new(lock_manager_queues);
        let committed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let round_trip = self.config.round_trip();
        let store = &self.store;
        let counters = &self.counters;
        let history = &self.history;
        let link = &self.link;
        let replicate = self.backup.is_some();
        // Start instants of every committed transaction; their latency runs
        // until the batch-release boundary below.
        let commit_times: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));

        std::thread::scope(|scope| {
            let chunks: Vec<&[Box<dyn Procedure>]> =
                batch.chunks(batch.len().div_ceil(executors)).collect();
            for (worker, chunk) in chunks.into_iter().enumerate() {
                let store = Arc::clone(store);
                let counters = Arc::clone(counters);
                let committed = Arc::clone(&committed);
                let queues = Arc::clone(&lock_manager_queues);
                let history = history.clone();
                let link = Arc::clone(link);
                let commit_times = Arc::clone(&commit_times);
                scope.spawn(move || {
                    let mut tid_gen = TidGenerator::new();
                    for proc in chunk {
                        let txn_start = Instant::now();
                        // The lock manager for this transaction's home
                        // partition grants its locks; with fewer lock-manager
                        // threads more transactions serialise on one queue.
                        let queue = &queues[proc.home_partition() % queues.len()];
                        let locked: Vec<Arc<Record>> = {
                            let grant_start = Instant::now();
                            let _grant = queue.lock();
                            counters.add_lock_or_validate(grant_start.elapsed());
                            // Deterministic ordering means lock acquisition
                            // never deadlocks; model it by locking the home
                            // record set eagerly (records become known during
                            // execution, so the grant here is the queue delay
                            // itself).
                            Vec::new()
                        };
                        drop(locked);
                        if !proc.is_single_partition() {
                            // Participants exchange remote read values.
                            counters.add_coordination_bytes(128);
                            std::thread::sleep(round_trip);
                        }
                        let mut ctx = TxnCtx::new(store.as_ref());
                        let exec_start = Instant::now();
                        let result = proc.execute(&mut ctx);
                        counters.add_execution(exec_start.elapsed());
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
                            star_occ::commit_single_master(&store, rs, ws, epoch, &mut tid_gen);
                        counters.add_lock_or_validate(validate_start.elapsed());
                        match outcome {
                            Ok(output) => {
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
                                if replicate {
                                    link.offer(build_log_entries(
                                        &output.write_set,
                                        output.tid,
                                        star_common::ReplicationStrategy::Value,
                                        ExecutionPhase::SingleMaster,
                                    ));
                                }
                                counters.add_commit();
                                committed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                commit_times.lock().push(txn_start);
                            }
                            Err(_) => counters.add_abort(),
                        }
                        let _ = worker;
                    }
                });
            }
        });
        // The batch's results are released together; the replica group
        // applies the batch's writes at the same boundary.
        if let Some(backup) = &self.backup {
            let flush_start = Instant::now();
            self.link.group_commit(backup);
            self.counters.add_replication_flush(flush_start.elapsed());
            self.counters.add_fence(flush_start.elapsed());
        }
        self.epoch += 1;
        // Every commit is released here: its latency is the real span from
        // its start to this batch boundary (no per-batch averaging).
        let release = Instant::now();
        for txn_start in commit_times.lock().drain(..) {
            latency.record(release.saturating_duration_since(txn_start));
        }
        committed.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Runs the engine for (at least) `duration`.
    pub fn run_for(&mut self, duration: Duration) -> RunReport {
        let start = Instant::now();
        let before = self.counters.snapshot();
        let mut latency = LatencyHistogram::new();
        while start.elapsed() < duration {
            self.run_batch(&mut latency);
        }
        let elapsed = start.elapsed();
        let window = self.counters.snapshot().since(&before);
        let report = RunReport::new(
            self.label(),
            self.workload.name(),
            self.workload.mix().percentage(),
            elapsed,
            window,
            latency,
        );
        self.last_report = Some(report.clone());
        report
    }
}

impl star_core::Engine for Calvin {
    fn name(&self) -> String {
        self.label()
    }

    fn run_for(&mut self, duration: Duration) -> RunReport {
        Calvin::run_for(self, duration)
    }

    fn counters(&self) -> &RunCounters {
        Calvin::counters(self)
    }

    fn report(&self) -> RunReport {
        match &self.last_report {
            Some(report) => report.clone(),
            None => RunReport::new(
                self.label(),
                self.workload.name(),
                self.workload.mix().percentage(),
                Duration::ZERO,
                self.counters.snapshot(),
                LatencyHistogram::new(),
            ),
        }
    }

    fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        Calvin::set_history_recorder(self, recorder)
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
            .workers_per_node(3)
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
    fn calvin_commits_batches_and_counts_input_replication() {
        let mut engine =
            Calvin::new(config(), CalvinConfig::with_lock_managers(2), workload(0.1)).unwrap();
        let report = engine.run_for(Duration::from_millis(30));
        assert!(report.counters.committed > 0);
        assert!(report.counters.coordination_bytes > 0);
        assert_eq!(report.engine, "Calvin-2");
    }

    #[test]
    fn executor_count_reflects_lock_manager_threads() {
        let engine =
            Calvin::new(config(), CalvinConfig::with_lock_managers(2), workload(0.1)).unwrap();
        // 4 nodes × 3 workers − 4 nodes × 2 lock managers = 4 executors.
        assert_eq!(engine.executors(), 4);
        let engine =
            Calvin::new(config(), CalvinConfig::with_lock_managers(3), workload(0.1)).unwrap();
        assert_eq!(engine.executors(), 1, "executor count never drops below one");
    }

    #[test]
    fn batch_execution_preserves_counter_integrity() {
        let wl = workload(0.2);
        let mut engine = Calvin::new(config(), CalvinConfig::default(), wl.clone()).unwrap();
        let report = engine.run_for(Duration::from_millis(30));
        let store = engine.store.clone();
        let mut total = 0u64;
        for p in 0..4usize {
            for offset in 0..wl.rows_per_partition {
                let rec = store.get(0, p, kv_key(p, offset)).unwrap();
                assert!(!rec.is_locked());
                total += rec.read().row.field(0).unwrap().as_u64().unwrap();
            }
        }
        assert_eq!(total, report.counters.committed * 2);
    }
}
