//! PB. OCC: the non-partitioned primary/backup baseline.
//!
//! A single primary node holds the whole database and runs every transaction
//! under the Silo-variant OCC protocol; a backup node receives the writes of
//! committed transactions. Only two nodes are used (Section 7.1.2). With
//! asynchronous replication the backup is brought up to date at each
//! epoch-based group commit; with synchronous replication every transaction
//! holds its write locks for a replication round trip.

use crate::driver::{mode_label, Baseline, Protocol, Shell, Worker};
use rand::Rng;
use star_common::stats::LatencyHistogram;
use star_common::{ClusterConfig, Epoch, ReplicationMode, Result};
use star_core::Workload;
use star_occ::{commit_single_master, TxnCtx};
use std::sync::Arc;
use std::time::Instant;

/// PB. OCC's protocol: Silo-variant OCC on the one primary.
pub struct Silo;

/// The primary/backup OCC engine.
pub type PbOcc = Baseline<Silo>;

impl PbOcc {
    /// Builds the engine: a primary and a backup replica, both loaded with
    /// the workload's data.
    pub fn new(cluster: ClusterConfig, workload: Arc<dyn Workload>) -> Result<Self> {
        let mut engine = Baseline::build(cluster, Silo, workload)?;
        engine.attach_backup();
        Ok(engine)
    }
}

impl Protocol for Silo {
    fn label(&self, mode: ReplicationMode) -> String {
        mode_label("PB. OCC", mode)
    }

    fn run_epoch(
        &self,
        shell: &Shell,
        epoch: Epoch,
        latency: &mut LatencyHistogram,
    ) -> Vec<Instant> {
        let base_seed = shell.cluster.rng_seed_base();
        shell.run_workers(
            epoch,
            shell.cluster.workers_per_node,
            |worker| base_seed ^ 0x9B0C ^ (worker as u64) ^ epoch as u64,
            attempt,
            latency,
        );
        Vec::new()
    }
}

/// One transaction on the primary: execute, Silo commit, replicate.
fn attempt(w: &mut Worker<'_>, txn_start: Instant) {
    let shell = w.shell;
    let home = w.rng.gen_range(0..shell.workload.num_partitions());
    let proc = shell.workload.mixed_transaction(&mut w.rng, home);
    let mut ctx = TxnCtx::new(shell.store.as_ref());
    let result = proc.execute(&mut ctx);
    shell.counters.add_execution(txn_start.elapsed());
    if let Err(err) = result {
        shell.count_abort(&err);
        return;
    }
    let (rs, ws) = ctx.into_sets();
    let recorded_reads = shell.history.as_ref().map(|_| rs.clone());
    let validate_start = Instant::now();
    let outcome = commit_single_master(&shell.store, rs, ws, w.epoch, &mut w.tid_gen);
    shell.counters.add_lock_or_validate(validate_start.elapsed());
    let Ok(output) = outcome else {
        shell.counters.add_abort();
        return;
    };
    shell.record_commit(w.epoch, w.id, output.tid, recorded_reads.as_deref(), &output.write_set);
    w.replicate(&output.write_set, output.tid);
    w.commit(txn_start);
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_core::testing::KvWorkload;
    use star_core::Engine;
    use std::time::Duration;

    fn config(sync: bool) -> ClusterConfig {
        ClusterConfig::builder()
            .nodes(2)
            .partitions(4)
            .workers_per_node(2)
            .iteration(Duration::from_millis(5))
            .network_latency(Duration::from_micros(20))
            .replication_mode(if sync { ReplicationMode::Sync } else { ReplicationMode::Async })
            .build()
            .unwrap()
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
