//! The unified engine API.
//!
//! Every transaction engine in the workspace — [`StarEngine`](crate::engine)
//! and the four evaluation baselines in `star-baselines` — implements the
//! [`Engine`] trait. Harness code (the benchmark suite, the chaos
//! serializability checks, the examples) drives engines exclusively through
//! this trait, so adding an engine means implementing one trait instead of
//! teaching every harness a new concrete type.
//!
//! The single typed result of a run is [`RunReport`]: throughput, the
//! counter window, the commit-latency histogram and the five-slice
//! latency-source [`PhaseBreakdown`](star_common::stats::PhaseBreakdown)
//! (execution, fence wait, replication flush, WAL fsync, lock/validate).

use crate::history::HistoryRecorder;
use crate::workload::Workload;
use star_common::stats::{LatencyHistogram, RunCounters, RunReport};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A benchmarkable transaction engine.
///
/// The trait is object-safe: harnesses hold `Box<dyn Engine>` and treat all
/// five engines uniformly.
pub trait Engine: Send {
    /// The engine's display label (e.g. `"STAR"`, `"Dist. OCC"`,
    /// `"Calvin-2"`). Matches the `engine` field of the reports it produces.
    fn name(&self) -> String;

    /// Runs the engine for (at least) `duration` and returns the typed
    /// report for that window.
    fn run_for(&mut self, duration: Duration) -> RunReport;

    /// The engine's shared lifetime counters (cumulative across runs).
    fn counters(&self) -> &RunCounters;

    /// The report of the most recent [`run_for`](Engine::run_for) window, or
    /// — if the engine has never run — a zero-duration report over the
    /// cumulative counters (zero throughput, empty latency histogram).
    fn report(&self) -> RunReport;

    /// Attaches a committed-history recorder consumed by the offline
    /// serializability checker.
    fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>);

    /// Paths of the engine's write-ahead-log files, if it keeps any. The
    /// default is an empty vector: the baselines model durability through
    /// replication only.
    fn wal_paths(&self) -> Vec<PathBuf> {
        Vec::new()
    }
}

/// The [`Engine::report`] every engine gives: the report of its last run,
/// or — before the first run — a zero-duration report of `engine` running
/// `workload` over the cumulative `counters`.
pub fn last_or_idle_report(
    last: Option<&RunReport>,
    engine: &str,
    workload: &dyn Workload,
    counters: &RunCounters,
) -> RunReport {
    match last {
        Some(report) => report.clone(),
        None => RunReport::new(
            engine,
            workload.name(),
            workload.mix().percentage(),
            Duration::ZERO,
            counters.snapshot(),
            LatencyHistogram::new(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StarEngine;
    use crate::testing::KvWorkload;
    use star_common::ClusterConfig;

    #[test]
    fn star_engine_is_usable_through_the_trait_object() {
        let config = ClusterConfig::builder()
            .nodes(2)
            .partitions(4)
            .iteration(Duration::from_millis(2))
            .build()
            .unwrap();
        let workload = Arc::new(KvWorkload {
            partitions: 4,
            rows_per_partition: 16,
            cross_partition_fraction: 0.1,
        });
        let mut engine: Box<dyn Engine> = Box::new(StarEngine::new(config, workload).unwrap());
        assert_eq!(engine.name(), "STAR");
        // Before any run, report() is a zero-duration counter snapshot.
        let empty = engine.report();
        assert_eq!(empty.duration, Duration::ZERO);
        assert_eq!(empty.counters.committed, 0);
        let report = engine.run_for(Duration::from_millis(10));
        assert!(report.counters.committed > 0);
        // report() replays the last window's typed result.
        let replay = engine.report();
        assert_eq!(replay.counters.committed, report.counters.committed);
        assert_eq!(replay.engine, "STAR");
        assert!(engine.counters().committed.load(std::sync::atomic::Ordering::Relaxed) > 0);
        assert!(engine.wal_paths().is_empty(), "disk logging is off");
    }
}
