//! Cross-crate integration tests: the STAR engine and every baseline driving
//! the real YCSB and TPC-C workloads end to end.

use star::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn small_cluster(nodes: usize, partitions: usize) -> ClusterConfig {
    ClusterConfig::builder()
        .nodes(nodes)
        .partitions(partitions)
        .workers_per_node(2)
        .iteration(Duration::from_millis(5))
        .network_latency(Duration::from_micros(20))
        .build()
        .unwrap()
}

fn ycsb(partitions: usize, cross_pct: f64) -> Arc<YcsbWorkload> {
    Arc::new(YcsbWorkload::new(YcsbConfig {
        partitions,
        rows_per_partition: 300,
        cross_partition_fraction: cross_pct / 100.0,
        ..Default::default()
    }))
}

fn tpcc(warehouses: usize, cross_pct: f64) -> Arc<TpccWorkload> {
    Arc::new(TpccWorkload::new(TpccConfig {
        warehouses,
        districts_per_warehouse: 3,
        customers_per_district: 20,
        items: 100,
        cross_partition_fraction: cross_pct / 100.0,
        ..Default::default()
    }))
}

#[test]
fn star_runs_ycsb_end_to_end() {
    let mut engine = StarEngine::new(small_cluster(4, 8), ycsb(8, 10.0)).unwrap();
    let report = engine.run_for(Duration::from_millis(60));
    assert!(report.counters.committed > 0);
    assert!(report.throughput > 0.0);
    engine.verify_replica_consistency().unwrap();
}

#[test]
fn star_runs_tpcc_end_to_end() {
    let mut engine = StarEngine::new(small_cluster(4, 4), tpcc(4, 12.5)).unwrap();
    let report = engine.run_for(Duration::from_millis(80));
    assert!(report.counters.committed > 0, "no TPC-C transactions committed");
    engine.verify_replica_consistency().unwrap();
    // TPC-C occasionally aborts NewOrders with invalid items; those must be
    // counted as user aborts, not concurrency-control aborts.
    assert!(report.counters.user_aborted < report.counters.committed);
}

#[test]
fn star_hybrid_replication_ships_fewer_bytes_than_value_replication_on_tpcc() {
    // The Section 5 claim behind Figure 15(a): operation replication in the
    // partitioned phase cuts replication bandwidth substantially.
    let value_config = small_cluster(4, 4)
        .to_builder()
        .replication_strategy(ReplicationStrategy::Value)
        .build()
        .unwrap();
    let hybrid_config = small_cluster(4, 4)
        .to_builder()
        .replication_strategy(ReplicationStrategy::Hybrid)
        .build()
        .unwrap();

    let mut value_engine = StarEngine::new(value_config, tpcc(4, 10.0)).unwrap();
    let value_report = value_engine.run_for(Duration::from_millis(100));
    let mut hybrid_engine = StarEngine::new(hybrid_config, tpcc(4, 10.0)).unwrap();
    let hybrid_report = hybrid_engine.run_for(Duration::from_millis(100));

    let value_per_txn = value_report.counters.replication_bytes as f64
        / value_report.counters.committed.max(1) as f64;
    let hybrid_per_txn = hybrid_report.counters.replication_bytes as f64
        / hybrid_report.counters.committed.max(1) as f64;
    assert!(
        hybrid_per_txn < value_per_txn,
        "hybrid replication should ship fewer bytes per transaction ({hybrid_per_txn:.0} vs {value_per_txn:.0})"
    );
}

#[test]
fn all_baselines_run_ycsb() {
    let config = small_cluster(4, 8);
    let wl = ycsb(8, 20.0);

    let mut pb = PbOcc::new(small_cluster(2, 8), wl.clone()).unwrap();
    let report = pb.run_for(Duration::from_millis(40));
    assert!(report.counters.committed > 0, "PB. OCC committed nothing");

    let mut docc = PartitionedEngine::new(config.clone(), DistCc::Occ, wl.clone()).unwrap();
    let report = docc.run_for(Duration::from_millis(40));
    assert!(report.counters.committed > 0, "Dist. OCC committed nothing");

    let mut s2pl = PartitionedEngine::new(config.clone(), DistCc::S2plNoWait, wl.clone()).unwrap();
    let report = s2pl.run_for(Duration::from_millis(40));
    assert!(report.counters.committed > 0, "Dist. S2PL committed nothing");

    let mut calvin = Calvin::new(config, 2, wl).unwrap();
    let report = calvin.run_for(Duration::from_millis(40));
    assert!(report.counters.committed > 0, "Calvin committed nothing");
}

#[test]
fn all_baselines_run_tpcc() {
    let config = small_cluster(4, 4);
    let wl = tpcc(4, 12.5);

    let mut pb = PbOcc::new(small_cluster(2, 4), wl.clone()).unwrap();
    assert!(pb.run_for(Duration::from_millis(40)).counters.committed > 0);

    let mut docc = PartitionedEngine::new(config.clone(), DistCc::Occ, wl.clone()).unwrap();
    assert!(docc.run_for(Duration::from_millis(40)).counters.committed > 0);

    let mut s2pl = PartitionedEngine::new(config.clone(), DistCc::S2plNoWait, wl.clone()).unwrap();
    assert!(s2pl.run_for(Duration::from_millis(40)).counters.committed > 0);

    let mut calvin = Calvin::new(config, 2, wl).unwrap();
    assert!(calvin.run_for(Duration::from_millis(40)).counters.committed > 0);
}

#[test]
fn analytical_model_matches_paper_headline_numbers() {
    // Figure 3 / Section 6.3 sanity: with P=10% STAR's predicted speedup over
    // a single node at n=16 is 6.4x, and STAR only beats partitioning-based
    // systems when K > n.
    let model = AnalyticalModel::new(0.10, 8.0);
    assert!((model.speedup_over_single_node(16) - 6.4).abs() < 1e-9);
    assert!(model.improvement_over_partitioning(4) > 1.0); // K=8 > n=4
    let cheap = AnalyticalModel::new(0.10, 2.0);
    assert!(cheap.improvement_over_partitioning(4) < 1.0); // K=2 < n=4
}

#[test]
fn engine_labels_are_stable_for_figures() {
    assert_eq!(EngineKind::Star.label(), "STAR");
    assert_eq!(EngineKind::DistS2pl.label(), "Dist. S2PL");
}
