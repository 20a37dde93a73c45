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

use crate::driver::{value_log, Baseline, Protocol, Shell};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use star_common::stats::LatencyHistogram;
use star_common::{ClusterConfig, Epoch, ReplicationMode, Result, TidGenerator};
use star_core::Workload;
use star_occ::{commit_single_master, Procedure, TxnCtx};
use std::sync::Arc;
use std::time::Instant;

/// Transactions sequenced into each batch.
const BATCH_SIZE: usize = 200;

/// Calvin's protocol: sequenced batches behind `x` lock-manager queues.
pub struct Sequencer {
    /// Lock-manager threads per node (`x` in `Calvin-x`).
    lock_managers_per_node: usize,
}

/// The Calvin engine. Calvin proper replicates *inputs* and the second
/// replica group re-executes them; an attached backup
/// ([`attach_backup`](Baseline::attach_backup)) materialises that group's
/// applied state at the end of each batch, both for the chaos harness
/// (replica comparison under faults) and for the benchmark suite, which
/// attaches it so Calvin-2 pays its replica group's apply work like every
/// other engine in the comparison.
pub type Calvin = Baseline<Sequencer>;

impl Calvin {
    /// Builds `Calvin-x` with `x = lock_managers_per_node` (at least one)
    /// lock-manager threads per node and no backup attached.
    pub fn new(
        cluster: ClusterConfig,
        lock_managers_per_node: usize,
        workload: Arc<dyn Workload>,
    ) -> Result<Self> {
        let protocol = Sequencer { lock_managers_per_node: lock_managers_per_node.max(1) };
        Baseline::build(cluster, protocol, workload)
    }
}

impl Sequencer {
    /// Number of executor threads available after dedicating lock-manager
    /// threads.
    fn executors(&self, cluster: &ClusterConfig) -> usize {
        let lock_managers = self.lock_managers_per_node * cluster.num_nodes;
        cluster.total_workers().saturating_sub(lock_managers).max(1)
    }
}

impl Protocol for Sequencer {
    fn label(&self, _mode: ReplicationMode) -> String {
        format!("Calvin-{}", self.lock_managers_per_node)
    }

    /// Runs one sequenced batch. Every commit is released at the batch
    /// boundary: its latency is the real span from its start to there.
    fn run_epoch(
        &self,
        shell: &Shell,
        epoch: Epoch,
        _latency: &mut LatencyHistogram,
    ) -> Vec<Instant> {
        let cluster = &shell.cluster;
        // The sequencer replicates the batch inputs to every other node
        // before execution (Calvin replicates inputs, not writes).
        let input_bytes = (BATCH_SIZE as u64) * 64 * (cluster.num_nodes.saturating_sub(1) as u64);
        shell.counters.add_coordination_bytes(input_bytes);

        // Sequence the batch deterministically; epochs count batches from 1.
        let sequence = u64::from(epoch - 1);
        let mut rng = StdRng::seed_from_u64(cluster.rng_seed_base() ^ 0xCA1517 ^ sequence);
        let batch: Vec<Box<dyn Procedure>> = (0..BATCH_SIZE)
            .map(|i| shell.workload.mixed_transaction(&mut rng, i % cluster.partitions))
            .collect();

        let queues: Vec<Mutex<()>> =
            (0..self.lock_managers_per_node).map(|_| Mutex::new(())).collect();
        let replicate = shell.backup.is_some();
        let released = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let chunk_len = batch.len().div_ceil(self.executors(cluster));
            for (worker, chunk) in batch.chunks(chunk_len).enumerate() {
                let (queues, released) = (&queues, &released);
                scope.spawn(move || {
                    let mut tid_gen = TidGenerator::new();
                    for proc in chunk {
                        let txn_start = Instant::now();
                        // The lock manager for this transaction's home
                        // partition grants its locks; with fewer lock-manager
                        // threads more transactions serialise on one queue.
                        let queue = &queues[proc.home_partition() % queues.len()];
                        {
                            let grant_start = Instant::now();
                            let _grant = queue.lock();
                            shell.counters.add_lock_or_validate(grant_start.elapsed());
                        }
                        if !proc.is_single_partition() {
                            // Participants exchange remote read values.
                            shell.counters.add_coordination_bytes(128);
                            shell.wait_round_trips(1);
                        }
                        let mut ctx = TxnCtx::new(shell.store.as_ref());
                        let exec_start = Instant::now();
                        let result = proc.execute(&mut ctx);
                        shell.counters.add_execution(exec_start.elapsed());
                        if let Err(err) = result {
                            shell.count_abort(&err);
                            continue;
                        }
                        let (rs, ws) = ctx.into_sets();
                        let recorded_reads = shell.history.as_ref().map(|_| rs.clone());
                        let validate_start = Instant::now();
                        let outcome =
                            commit_single_master(&shell.store, rs, ws, epoch, &mut tid_gen);
                        shell.counters.add_lock_or_validate(validate_start.elapsed());
                        let Ok(output) = outcome else {
                            shell.counters.add_abort();
                            continue;
                        };
                        shell.record_commit(
                            epoch,
                            worker,
                            output.tid,
                            recorded_reads.as_deref(),
                            &output.write_set,
                        );
                        if replicate {
                            shell.link.offer(value_log(&output.write_set, output.tid));
                        }
                        shell.counters.add_commit();
                        released.lock().push(txn_start);
                    }
                });
            }
        });
        released.into_inner()
    }
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
            .workers_per_node(3)
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
    fn calvin_commits_batches_and_counts_input_replication() {
        let mut engine = Calvin::new(config(), 2, workload(0.1)).unwrap();
        let report = engine.run_for(Duration::from_millis(30));
        assert!(report.counters.committed > 0);
        assert!(report.counters.coordination_bytes > 0);
        assert_eq!(report.engine, "Calvin-2");
    }

    #[test]
    fn executor_count_reflects_lock_manager_threads() {
        let engine = Calvin::new(config(), 2, workload(0.1)).unwrap();
        // 4 nodes × 3 workers − 4 nodes × 2 lock managers = 4 executors.
        assert_eq!(engine.protocol.executors(&engine.shell.cluster), 4);
        let engine = Calvin::new(config(), 3, workload(0.1)).unwrap();
        let executors = engine.protocol.executors(&engine.shell.cluster);
        assert_eq!(executors, 1, "executor count never drops below one");
    }

    #[test]
    fn batch_execution_preserves_counter_integrity() {
        let wl = workload(0.2);
        let mut engine = Calvin::new(config(), 2, wl.clone()).unwrap();
        let report = engine.run_for(Duration::from_millis(30));
        let store = engine.shell.store.clone();
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
