//! Serializability checks for the four baseline engines.
//!
//! The baselines run wall-clock-driven worker threads, so their committed
//! histories are not bit-reproducible like the STAR chaos runs — but every
//! commit records the read versions it validated and the rows it installed,
//! which is all the checker needs. Together with the STAR engine covered by
//! the chaos driver, this puts all five engines in the repository under the
//! same sequential-oracle check.
//!
//! Every baseline's replication path runs through the shared fault plane
//! (`star_baselines::ReplicaLink`): [`check_baseline_engines_with_faults`]
//! drives the primary→backup streams through duplicate / reorder faults —
//! which the Thomas write rule must absorb — and additionally compares each
//! backup replica against the sequential oracle's final state. Silent loss
//! (drops) has nothing in a baseline's protocol to detect it, so a dropped
//! entry must surface as a backup divergence; the negative-control test
//! below proves it does.

use crate::checker::{check_history, compare_with_database, CheckReport};
use star_baselines::{Baseline, Calvin, DistCc, PartitionedEngine, PbOcc, Protocol, ReplicaLink};
use star_common::{ClusterConfig, Result};
use star_core::history::HistoryRecorder;
use star_core::testing::KvWorkload;
use star_core::Engine;
use star_net::LinkFaults;
use star_storage::Database;
use std::sync::Arc;
use std::time::Duration;

fn baseline_config(seed: u64) -> ClusterConfig {
    ClusterConfig::builder()
        .nodes(4)
        .partitions(4)
        .workers_per_node(2)
        .iteration(Duration::from_millis(5))
        .network_latency(Duration::from_micros(10))
        .seed(seed)
        .build()
        .expect("chaos baseline config is valid")
}

fn workload() -> Arc<KvWorkload> {
    Arc::new(KvWorkload { partitions: 4, rows_per_partition: 24, cross_partition_fraction: 0.3 })
}

/// The result of checking one baseline engine under a fault plane.
#[derive(Debug)]
pub struct BaselineCheck {
    /// Engine label.
    pub label: String,
    /// The serializability checker's report on the committed history.
    pub report: CheckReport,
    /// `Err` if the backup replica diverged from the sequential oracle's
    /// final state (e.g. because a replication entry was silently dropped);
    /// `Ok(records)` counts the records that matched.
    pub backup_vs_oracle: std::result::Result<usize, String>,
    /// How many replication entries the fault plane silently dropped.
    pub dropped_entries: u64,
}

impl BaselineCheck {
    /// Whether both the history and the backup survived the checks.
    pub fn passed(&self) -> bool {
        self.report.is_serializable() && self.backup_vs_oracle.is_ok()
    }
}

fn verify_backup(
    backup: Option<&Arc<Database>>,
    report: &CheckReport,
) -> std::result::Result<usize, String> {
    let Some(backup) = backup else {
        return Err("no backup replica attached".into());
    };
    if !report.is_serializable() {
        // The oracle state is meaningless when the history itself failed.
        return Ok(0);
    }
    compare_with_database(backup, &report.final_state)
}

/// A baseline engine boxed behind the shared [`Engine`] trait, plus the two
/// handles the checker needs that the trait deliberately does not expose:
/// the backup replica (for the oracle comparison) and the replication link
/// (for the dropped-entry accounting).
struct PreparedBaseline {
    engine: Box<dyn Engine>,
    backup: Option<Arc<Database>>,
    link: Arc<ReplicaLink>,
}

impl PreparedBaseline {
    fn new<P: Protocol + 'static>(
        mut engine: Baseline<P>,
        faults: LinkFaults,
        faulted: bool,
    ) -> Self {
        if faulted {
            engine.set_replication_faults(faults);
        }
        PreparedBaseline {
            backup: engine.backup().cloned(),
            link: Arc::clone(engine.replica_link()),
            engine: Box::new(engine),
        }
    }
}

fn prepare_baselines(
    seed: u64,
    faults: LinkFaults,
    faulted: bool,
) -> Result<Vec<PreparedBaseline>> {
    let cluster = baseline_config(seed);
    Ok(vec![
        PreparedBaseline::new(PbOcc::new(cluster.clone(), workload())?, faults, faulted),
        PreparedBaseline::new(
            PartitionedEngine::new(cluster.clone(), DistCc::Occ, workload())?,
            faults,
            faulted,
        ),
        PreparedBaseline::new(
            PartitionedEngine::new(cluster.clone(), DistCc::S2plNoWait, workload())?,
            faults,
            faulted,
        ),
        PreparedBaseline::new(Calvin::new(cluster, 2, workload())?, faults, faulted),
    ])
}

/// Runs every baseline engine for `window` under a contended KV workload
/// with `faults` injected into its replication path, recording and checking
/// its committed history and comparing its backup against the oracle.
///
/// All four engines are driven through the shared [`Engine`] trait and armed
/// through the shared [`Baseline`] shell: only construction is
/// engine-specific, the record/run/check loop is written once.
///
/// With `LinkFaults::none()` no fault plane is armed and the backup
/// comparison is skipped (reported as `Ok(0)`): the engines behave exactly
/// as in a plain sweep and Calvin attaches no backup replica, so the
/// fault-free path costs nothing extra.
pub fn check_baseline_engines_with_faults(
    seed: u64,
    window: Duration,
    faults: LinkFaults,
) -> Result<Vec<BaselineCheck>> {
    let faulted = !faults.is_none();
    let mut results = Vec::new();
    for PreparedBaseline { mut engine, backup, link } in prepare_baselines(seed, faults, faulted)? {
        let recorder = Arc::new(HistoryRecorder::new());
        engine.set_history_recorder(Arc::clone(&recorder));
        engine.run_for(window);
        let report = check_history(&recorder.committed());
        results.push(BaselineCheck {
            label: engine.name(),
            backup_vs_oracle: if faulted { verify_backup(backup.as_ref(), &report) } else { Ok(0) },
            dropped_entries: link.dropped(),
            report,
        });
    }
    Ok(results)
}

/// Runs every baseline engine for `window` under a contended KV workload,
/// recording and checking its committed history. Returns `(label, report)`
/// pairs, one per engine.
pub fn check_baseline_engines(seed: u64, window: Duration) -> Result<Vec<(String, CheckReport)>> {
    let checks = check_baseline_engines_with_faults(seed, window, LinkFaults::none())?;
    Ok(checks.into_iter().map(|c| (c.label, c.report)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_baseline_histories_are_serializable() {
        let results = check_baseline_engines(5, Duration::from_millis(30)).unwrap();
        assert_eq!(results.len(), 4);
        for (label, report) in results {
            assert!(report.txns > 0, "{label} committed nothing");
            assert!(report.is_serializable(), "{label}: {}", report.violation.as_ref().unwrap());
        }
    }

    #[test]
    fn baselines_survive_duplicate_and_reorder_replication_faults() {
        // Duplicates and reorders of value entries are absorbed by the
        // Thomas write rule: the history stays serializable *and* every
        // backup replica still converges to the oracle's final state.
        let faults = LinkFaults {
            duplicate_probability: 0.3,
            reorder_probability: 0.2,
            ..LinkFaults::none()
        };
        let checks =
            check_baseline_engines_with_faults(11, Duration::from_millis(30), faults).unwrap();
        assert_eq!(checks.len(), 4);
        for check in checks {
            assert!(check.report.txns > 0, "{} committed nothing", check.label);
            assert!(
                check.report.is_serializable(),
                "{}: {}",
                check.label,
                check.report.violation.as_ref().unwrap()
            );
            assert!(
                check.backup_vs_oracle.is_ok(),
                "{}: backup diverged: {}",
                check.label,
                check.backup_vs_oracle.as_ref().unwrap_err()
            );
        }
    }

    #[test]
    fn s2pl_survives_high_contention_without_losing_lock_discipline() {
        // Regression test: Dist. S2PL used `is_locked()` probes to decide
        // which locks to release at commit, so the moment `write_and_unlock`
        // freed a write record, a concurrent NO_WAIT transaction could
        // acquire it and have its lock released by the first transaction's
        // cleanup loop — a lock-discipline collapse the serializability
        // checker caught as intermittent cycles. A tiny keyspace with many
        // workers makes the race window hot; the committed history must stay
        // serializable every time, and no lock may leak.
        for round in 0..3u64 {
            let config =
                baseline_config(100 + round).to_builder().workers_per_node(3).build().unwrap();
            let workload = Arc::new(KvWorkload {
                partitions: 4,
                rows_per_partition: 4,
                cross_partition_fraction: 0.5,
            });
            let recorder = Arc::new(HistoryRecorder::new());
            let mut s2pl = PartitionedEngine::new(config, DistCc::S2plNoWait, workload).unwrap();
            s2pl.set_history_recorder(Arc::clone(&recorder));
            s2pl.run_for(Duration::from_millis(40));
            let report = check_history(&recorder.committed());
            assert!(report.txns > 0, "round {round}: nothing committed");
            assert!(
                report.is_serializable(),
                "round {round}: {}",
                report.violation.as_ref().unwrap()
            );
        }
    }

    #[test]
    fn silently_dropped_replication_is_caught_on_the_backup() {
        // Negative control: nothing in a baseline's protocol detects silent
        // loss on the replication stream, so the backup-vs-oracle comparison
        // must be the net that catches it. With most entries dropped, every
        // engine's backup must diverge.
        let faults = LinkFaults::dropping(0.8);
        let checks =
            check_baseline_engines_with_faults(7, Duration::from_millis(30), faults).unwrap();
        for check in checks {
            assert!(check.report.is_serializable(), "the primary history is unaffected by loss");
            assert!(
                check.backup_vs_oracle.is_err(),
                "{}: dropped replication entries must leave the backup divergent",
                check.label
            );
            assert!(
                check.dropped_entries > 0,
                "{}: losses must be accounted on the engine's replica link",
                check.label
            );
        }
    }
}
