//! End-to-end fault-tolerance and durability tests: failure detection, the
//! four recovery scenarios, node catch-up, and recovery from checkpoint +
//! WAL.

use star::prelude::*;
use star::replication::checkpoint::Checkpoint;
use star::replication::recovery::recover_from_checkpoint_and_logs;
use star::replication::{LogEntry, Payload};
use star::storage::{DatabaseBuilder, TableSpec};
use std::sync::Arc;
use std::time::Duration;

fn cluster(nodes: usize, full: usize) -> ClusterConfig {
    ClusterConfig::builder()
        .nodes(nodes)
        .full_replicas(full)
        .partitions(nodes * 2)
        .workers_per_node(2)
        // Every partition keeps a partial backup beyond the full copies, so
        // the Figure-7 scenarios can lose a single partial replica without
        // also losing partial coverage.
        .replication_factor(full + 2)
        .iteration(Duration::from_millis(5))
        .network_latency(Duration::from_micros(20))
        .build()
        .unwrap()
}

fn ycsb(partitions: usize) -> Arc<YcsbWorkload> {
    Arc::new(YcsbWorkload::new(YcsbConfig {
        partitions,
        rows_per_partition: 200,
        cross_partition_fraction: 0.2,
        ..Default::default()
    }))
}

#[test]
fn case1_partial_replica_failure_keeps_the_system_available() {
    let config = cluster(4, 1);
    let mut engine = StarEngine::new(config.clone(), ycsb(config.partitions)).unwrap();
    engine.run_for(Duration::from_millis(30));
    engine.inject_failure(3);
    engine.run_iteration();
    assert_eq!(engine.failure_case().unwrap(), FailureCase::FullAndPartialRemain);
    assert!(engine.failure_case().unwrap().phase_switching_available());
    let report = engine.run_for(Duration::from_millis(30));
    assert!(report.counters.committed > 0);
}

#[test]
fn case2_losing_every_full_replica_disables_phase_switching() {
    let config = cluster(4, 1);
    let mut engine = StarEngine::new(config.clone(), ycsb(config.partitions)).unwrap();
    engine.run_for(Duration::from_millis(20));
    engine.inject_failure(0);
    engine.run_iteration();
    assert_eq!(engine.failure_case().unwrap(), FailureCase::OnlyPartialRemains);
    assert!(!engine.failure_case().unwrap().phase_switching_available());
    assert_eq!(engine.current_master(), None);
    // Single-partition traffic still commits on the surviving partial
    // replicas (the engine's degraded mode).
    let report = engine.run_for(Duration::from_millis(30));
    assert!(report.counters.committed > 0);
}

#[test]
fn case3_losing_partial_coverage_re_masters_onto_the_full_replica() {
    let config = cluster(4, 2);
    let mut engine = StarEngine::new(config.clone(), ycsb(config.partitions)).unwrap();
    engine.run_for(Duration::from_millis(20));
    // Fail every partial replica.
    engine.inject_failure(2);
    engine.inject_failure(3);
    engine.run_iteration();
    assert_eq!(engine.failure_case().unwrap(), FailureCase::OnlyFullRemains);
    assert!(engine.failure_case().unwrap().phase_switching_available());
    // Every partition must now be re-mastered onto a full replica.
    for p in 0..config.partitions {
        let primary = config.effective_primary(engine.failure_flags(), p).unwrap();
        assert!(primary < 2, "partition {p} re-mastered to {primary}");
    }
    let report = engine.run_for(Duration::from_millis(30));
    assert!(report.counters.committed > 0);
}

#[test]
fn case4_losing_everything_stops_the_system() {
    let config = cluster(4, 1);
    let mut engine = StarEngine::new(config.clone(), ycsb(config.partitions)).unwrap();
    engine.run_for(Duration::from_millis(20));
    for node in 0..3 {
        engine.inject_failure(node);
    }
    engine.run_iteration();
    assert_eq!(engine.failure_case().unwrap(), FailureCase::NothingRemains);
    assert!(!engine.failure_case().unwrap().available());
}

#[test]
fn recovered_node_catches_up_and_replicas_reconverge() {
    let config = cluster(4, 1);
    let mut engine = StarEngine::new(config.clone(), ycsb(config.partitions)).unwrap();
    engine.run_for(Duration::from_millis(30));
    engine.inject_failure(2);
    engine.run_iteration();
    // Progress while the node is down, so it has something to catch up on.
    engine.run_for(Duration::from_millis(40));
    let copied = engine.recover_node(2).unwrap();
    assert!(copied > 0);
    engine.run_for(Duration::from_millis(30));
    engine.verify_replica_consistency().unwrap();
}

#[test]
fn checkpoint_plus_wal_rebuilds_a_lost_replica() {
    // The Case-4 durability path: every replica is lost, the node reloads its
    // checkpoint and replays the logs written since.
    let db = DatabaseBuilder::new(2).table(TableSpec::new("t")).build();
    for k in 0..50u64 {
        db.insert(0, (k % 2) as usize, k, star::common::row::row([FieldValue::U64(k)])).unwrap();
    }
    // Epoch 1 commits some writes, then a checkpoint is taken, then epoch 2
    // commits more writes into per-worker logs.
    for k in 0..50u64 {
        db.apply_value_write(
            0,
            (k % 2) as usize,
            k,
            star::common::row::row([FieldValue::U64(k + 1000)]),
            Tid::new(1, k + 1),
        )
        .unwrap();
    }
    let checkpoint = Checkpoint::capture(&db, 1);
    let logs: Vec<Vec<LogEntry>> = (0..2)
        .map(|worker| {
            (0..25u64)
                .map(|i| {
                    let k = worker * 25 + i;
                    LogEntry {
                        table: 0,
                        partition: (k % 2) as usize,
                        key: k,
                        tid: Tid::new(2, k + 1),
                        payload: Payload::Value(star::common::row::row([FieldValue::U64(
                            k + 2000,
                        )])),
                    }
                })
                .collect()
        })
        .collect();

    let recovered = DatabaseBuilder::new(2).table(TableSpec::new("t")).build();
    let stats = recover_from_checkpoint_and_logs(&recovered, &checkpoint, &logs).unwrap();
    assert_eq!(stats.checkpoint_records, 50);
    assert_eq!(stats.log_entries_replayed, 50);
    for k in 0..50u64 {
        let rec = recovered.get(0, (k % 2) as usize, k).unwrap();
        assert_eq!(rec.read().row, star::common::row::row([FieldValue::U64(k + 2000)]));
        assert_eq!(rec.tid().epoch(), 2);
    }
}

#[test]
fn wal_written_by_the_engine_is_replayable() {
    // Run the engine with disk logging enabled, then parse one node's WAL and
    // check every entry decodes and carries a valid epoch.
    let config = cluster(2, 1).to_builder().disk_logging(true).build().unwrap();
    let mut engine = StarEngine::new(config, ycsb(4)).unwrap();
    let report = engine.run_for(Duration::from_millis(40));
    assert!(report.counters.wal_bytes > 0);
    let wal_path = &engine.wal_paths()[0];
    let reader = star::replication::WalReader::open(wal_path).unwrap();
    let entries = reader.entries().unwrap();
    assert!(!entries.is_empty());
    assert!(entries.iter().all(|e| e.tid.epoch() >= 1));
    assert!(entries.iter().all(|e| matches!(e.payload, Payload::Value(_))));
}

#[test]
fn wal_bytes_counts_exactly_what_the_writers_wrote() {
    // `LogEntry::wire_size` is exact, so the engine's `wal_bytes` counter is
    // the number of bytes its writers appended — not an estimate of it.
    let config = cluster(2, 1).to_builder().disk_logging(true).build().unwrap();
    let tpcc =
        TpccWorkload::new(TpccConfig { warehouses: config.partitions, ..TpccConfig::small() });
    let mut engine = StarEngine::new(config, Arc::new(tpcc)).unwrap();
    for _ in 0..12 {
        engine.run_iteration_stepped(6, 4);
    }
    // Quiesced: every epoch drain, and with it every WAL flush, has run.
    engine.quiesce();
    let written: u64 =
        engine.wal_paths().iter().map(|path| std::fs::metadata(path).unwrap().len()).sum();
    assert!(written > 0);
    assert_eq!(engine.counters().snapshot().wal_bytes, written);
}
