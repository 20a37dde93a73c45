//! Workspace-wiring smoke test: every engine kind must be constructible
//! through the `star::prelude` facade alone and able to commit a tiny YCSB
//! burst. Catches broken re-exports and crate-graph regressions cheaply.

use star::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const PARTITIONS: usize = 4;
const BURST: Duration = Duration::from_millis(25);

fn tiny_cluster(nodes: usize) -> ClusterConfig {
    ClusterConfig::builder()
        .nodes(nodes)
        .partitions(PARTITIONS)
        .workers_per_node(1)
        .iteration(Duration::from_millis(5))
        .network_latency(Duration::from_micros(10))
        .build()
        .unwrap()
}

fn tiny_ycsb() -> Arc<YcsbWorkload> {
    Arc::new(YcsbWorkload::new(YcsbConfig {
        partitions: PARTITIONS,
        rows_per_partition: 50,
        cross_partition_fraction: 0.25,
        ..Default::default()
    }))
}

fn assert_burst_commits(kind: EngineKind, report: &RunReport) {
    assert!(
        report.counters.committed > 0,
        "{} committed no transactions in the smoke burst",
        kind.label()
    );
}

#[test]
fn star_engine_via_prelude() {
    let mut engine = StarEngine::new(tiny_cluster(2), tiny_ycsb()).unwrap();
    let report = engine.run_for(BURST);
    assert_burst_commits(EngineKind::Star, &report);
    assert_eq!(report.engine, EngineKind::Star.label());
    engine.verify_replica_consistency().unwrap();
}

#[test]
fn pb_occ_via_prelude() {
    let mut engine = PbOcc::new(tiny_cluster(2), tiny_ycsb()).unwrap();
    let report = engine.run_for(BURST);
    assert_burst_commits(EngineKind::PbOcc, &report);
}

#[test]
fn dist_occ_via_prelude() {
    let mut engine = PartitionedEngine::new(tiny_cluster(2), DistCc::Occ, tiny_ycsb()).unwrap();
    let report = engine.run_for(BURST);
    assert_burst_commits(EngineKind::DistOcc, &report);
}

#[test]
fn dist_s2pl_via_prelude() {
    let mut engine =
        PartitionedEngine::new(tiny_cluster(2), DistCc::S2plNoWait, tiny_ycsb()).unwrap();
    let report = engine.run_for(BURST);
    assert_burst_commits(EngineKind::DistS2pl, &report);
}

#[test]
fn calvin_via_prelude() {
    let mut engine = Calvin::new(tiny_cluster(2), 1, tiny_ycsb()).unwrap();
    let report = engine.run_for(BURST);
    assert_burst_commits(EngineKind::Calvin, &report);
}

#[test]
fn all_five_engines_run_through_the_engine_trait() {
    // Every engine kind must be drivable behind `Box<dyn Engine>` alone:
    // one loop, no duck typing, RunReport as the single typed result.
    let mut engines: Vec<Box<dyn Engine>> = vec![
        Box::new(StarEngine::new(tiny_cluster(2), tiny_ycsb()).unwrap()),
        Box::new(PbOcc::new(tiny_cluster(2), tiny_ycsb()).unwrap()),
        Box::new(PartitionedEngine::new(tiny_cluster(2), DistCc::Occ, tiny_ycsb()).unwrap()),
        Box::new(PartitionedEngine::new(tiny_cluster(2), DistCc::S2plNoWait, tiny_ycsb()).unwrap()),
        Box::new(Calvin::new(tiny_cluster(2), 1, tiny_ycsb()).unwrap()),
    ];
    for engine in &mut engines {
        let name = engine.name();
        // Before any run, `report()` is the shared zero-window fallback.
        let idle = engine.report();
        assert_eq!(idle.engine, name, "{name}: pre-run report names another engine");
        assert_eq!(idle.duration, Duration::ZERO, "{name}: pre-run report has a window");
        assert_eq!(idle.counters.committed, 0, "{name}: pre-run report not empty");
        let report = engine.run_for(BURST);
        assert!(report.counters.committed > 0, "{name} committed nothing via the trait");
        assert_eq!(report.engine, name);
        // `report()` replays the last run's report without re-running.
        assert_eq!(engine.report().counters.committed, report.counters.committed, "{name}");
        assert_eq!(engine.counters().snapshot().committed, report.counters.committed, "{name}");
    }
}

#[test]
fn prelude_exposes_substrate_types() {
    // Compile-time wiring check for the non-engine prelude exports.
    let _spec: TableSpec = TableSpec::new("t");
    let db = DatabaseBuilder::new(1).table(TableSpec::new("t")).build();
    assert_eq!(db.held_partitions().len(), 1);
    let tid = Tid::new(1, 1);
    assert_eq!(tid.epoch(), 1 as Epoch);
    let _: Error = Error::Config("smoke".into());
    let hist = LatencyHistogram::new();
    assert_eq!(hist.count(), 0);
    let _ = CounterSnapshot::default();
    let _ = ReplicationMode::Async;
    let _ = ReplicationStrategy::Hybrid;
}
