//! Adversarial corpus for the serializability checker.
//!
//! The checker is the harness's oracle: if it silently accepted a broken
//! history, every chaos sweep would be meaningless. This corpus feeds it a
//! table of hand-crafted *non-serializable* histories — the classical
//! anomaly zoo (lost update, write skew, wr/ww/rw cycles, stale reads,
//! phantom versions from reverted epochs) — and asserts each one is
//! rejected with the right violation class, plus positive controls proving
//! the corpus is not trivially red.
//!
//! The byzantine section extends the corpus below the history layer: a
//! bit-flipped committed value in the replication stream, a replication
//! batch carrying a wrong version, and a truncated final WAL record — each
//! a corruption the *recorded history* cannot show, so the replica
//! comparison, the oracle comparison or the disk recovery must flag it.

use star_chaos::checker::{check_history, compare_with_database, Violation};
use star_chaos::{run_plan, ChaosPlan, FaultOp, FaultSchedule, InjectionPoint, WorkloadSpec};
use star_common::row::row;
use star_common::{ClusterConfig, FieldValue, Key, Tid};
use star_core::history::{CommittedTxn, RecordedRead, RecordedWrite};
use star_replication::ExecutionPhase;
use std::time::Duration;

fn txn(tid: Tid, reads: Vec<(Key, Tid)>, writes: Vec<(Key, u64)>) -> CommittedTxn {
    CommittedTxn {
        epoch: tid.epoch(),
        phase: ExecutionPhase::Partitioned,
        executor: 0,
        tid,
        reads: reads
            .into_iter()
            .map(|(key, observed)| RecordedRead { table: 0, partition: 0, key, tid: observed })
            .collect(),
        writes: writes
            .into_iter()
            .map(|(key, value)| RecordedWrite {
                table: 0,
                partition: 0,
                key,
                row: row([FieldValue::U64(value)]),
            })
            .collect(),
    }
}

/// What the checker must decide for a corpus entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expected {
    Serializable,
    Cycle,
    DanglingRead,
    DuplicateVersion,
}

fn corpus() -> Vec<(&'static str, Vec<CommittedTxn>, Expected)> {
    let t = |epoch: u32, seq: u64| Tid::new(epoch, seq);
    vec![
        // ---- positive controls -------------------------------------------------
        (
            "clean read-modify-write chain",
            vec![
                txn(t(1, 1), vec![(7, Tid::ZERO)], vec![(7, 1)]),
                txn(t(1, 2), vec![(7, t(1, 1))], vec![(7, 2)]),
                txn(t(2, 1), vec![(7, t(1, 2))], vec![(7, 3)]),
            ],
            Expected::Serializable,
        ),
        (
            "blind writes in TID order",
            vec![
                txn(t(1, 1), vec![], vec![(1, 10)]),
                txn(t(1, 2), vec![], vec![(1, 20)]),
                txn(t(2, 1), vec![], vec![(2, 30)]),
            ],
            Expected::Serializable,
        ),
        (
            "read-only transaction against a settled record",
            vec![
                txn(t(1, 1), vec![(4, Tid::ZERO)], vec![(4, 1)]),
                txn(t(2, 1), vec![(4, t(1, 1))], vec![]),
            ],
            Expected::Serializable,
        ),
        // ---- rw/rw: the classical lost update ---------------------------------
        (
            "lost update: both read the initial version, both overwrite",
            vec![
                txn(t(1, 1), vec![(7, Tid::ZERO)], vec![(7, 1)]),
                txn(t(1, 2), vec![(7, Tid::ZERO)], vec![(7, 2)]),
            ],
            Expected::Cycle,
        ),
        // ---- rw/rw across two records: write skew ------------------------------
        (
            "write skew: each reads both records, each writes the other one",
            vec![
                txn(t(1, 1), vec![(1, Tid::ZERO), (2, Tid::ZERO)], vec![(1, 10)]),
                txn(t(1, 2), vec![(1, Tid::ZERO), (2, Tid::ZERO)], vec![(2, 20)]),
            ],
            Expected::Cycle,
        ),
        // ---- wr/wr: mutual observation ----------------------------------------
        (
            "wr cycle: each transaction reads the other's write",
            vec![
                txn(t(1, 1), vec![(2, t(1, 2))], vec![(1, 10)]),
                txn(t(1, 2), vec![(1, t(1, 1))], vec![(2, 20)]),
            ],
            Expected::Cycle,
        ),
        // ---- ww/rw: version order against an anti-dependency -------------------
        (
            "ww-rw cycle: overwriter of A read B before A's first writer wrote it",
            vec![
                // T1 (t1) writes A and B; T2 (t2) overwrites A but read B@0.
                // ww A: T1 → T2; rw B: T2 → T1.
                txn(t(1, 1), vec![], vec![(1, 10), (2, 11)]),
                txn(t(1, 2), vec![(2, Tid::ZERO)], vec![(1, 20)]),
            ],
            Expected::Cycle,
        ),
        // ---- three-transaction mixed cycle ------------------------------------
        (
            "wr chain closed by a high-TID read: T1→T2→T3→T1",
            vec![
                // T1 reads C@t3 (wr T3→T1), T2 reads A@t1 (wr T1→T2),
                // T3 reads B@t2 (wr T2→T3).
                txn(t(1, 1), vec![(3, t(3, 1))], vec![(1, 10)]),
                txn(t(2, 1), vec![(1, t(1, 1))], vec![(2, 20)]),
                txn(t(3, 1), vec![(2, t(2, 1))], vec![(3, 30)]),
            ],
            Expected::Cycle,
        ),
        // ---- stale read overwritten (fractured read) ---------------------------
        (
            "stale read: observes v1 after v2 installed, then overwrites",
            vec![
                txn(t(1, 1), vec![(7, Tid::ZERO)], vec![(7, 1)]),
                txn(t(2, 1), vec![(7, t(1, 1))], vec![(7, 2)]),
                txn(t(3, 1), vec![(7, t(1, 1))], vec![(7, 3)]),
            ],
            Expected::Cycle,
        ),
        // ---- phantom versions ---------------------------------------------------
        (
            "stale read after revert: observed version was never committed",
            vec![
                // Epoch 2 was reverted; its writes vanished from the
                // history, but a later transaction still saw one.
                txn(t(1, 1), vec![(7, Tid::ZERO)], vec![(7, 1)]),
                txn(t(3, 1), vec![(7, t(2, 5))], vec![(7, 2)]),
            ],
            Expected::DanglingRead,
        ),
        (
            "read of a version from a transaction that never wrote that key",
            vec![
                txn(t(1, 1), vec![], vec![(1, 10)]),
                // t(1,1) wrote key 1, not key 2 — observing it on key 2 is
                // reading a version nobody installed there.
                txn(t(2, 1), vec![(2, t(1, 1))], vec![(2, 20)]),
            ],
            Expected::DanglingRead,
        ),
        // ---- TID uniqueness -----------------------------------------------------
        (
            "duplicate version: two transactions install the same TID",
            vec![
                txn(t(1, 1), vec![], vec![(1, 10)]),
                txn(t(1, 2), vec![], vec![(2, 20)]),
                txn(t(1, 1), vec![], vec![(1, 30)]),
            ],
            Expected::DuplicateVersion,
        ),
    ]
}

#[test]
fn corpus_verdicts_match() {
    for (name, history, expected) in corpus() {
        let report = check_history(&history);
        match expected {
            Expected::Serializable => {
                assert!(
                    report.is_serializable(),
                    "{name}: expected serializable, got {:?}",
                    report.violation
                );
                assert_eq!(report.serial_order.len(), history.len(), "{name}");
            }
            Expected::Cycle => {
                assert!(
                    matches!(report.violation, Some(Violation::Cycle { .. })),
                    "{name}: expected a cycle, got {:?}",
                    report.violation
                );
            }
            Expected::DanglingRead => {
                assert!(
                    matches!(report.violation, Some(Violation::DanglingRead { .. })),
                    "{name}: expected a dangling read, got {:?}",
                    report.violation
                );
            }
            Expected::DuplicateVersion => {
                assert!(
                    matches!(report.violation, Some(Violation::DuplicateVersion { .. })),
                    "{name}: expected a duplicate version, got {:?}",
                    report.violation
                );
            }
        }
    }
}

#[test]
fn cycle_diagnostics_name_the_involved_transactions() {
    // The lost-update entry involves exactly the two racing transactions;
    // the reporter prints their indices so a red seed is debuggable.
    let history = vec![
        txn(Tid::new(1, 1), vec![(7, Tid::ZERO)], vec![(7, 1)]),
        txn(Tid::new(1, 2), vec![(7, Tid::ZERO)], vec![(7, 2)]),
    ];
    let report = check_history(&history);
    let Some(Violation::Cycle { involved }) = &report.violation else {
        panic!("expected a cycle, got {:?}", report.violation);
    };
    assert_eq!(involved.as_slice(), &[0, 1]);
    let printed = report.violation.as_ref().unwrap().to_string();
    assert!(printed.contains("cycle"), "{printed}");
}

// ---------------------------------------------------------------------------
// Byzantine negative controls
// ---------------------------------------------------------------------------

fn byzantine_base_plan(seed: u64) -> ChaosPlan {
    let config = ClusterConfig::builder()
        .nodes(4)
        .full_replicas(1)
        .workers_per_node(1)
        .partitions(4)
        .iteration(Duration::from_millis(5))
        .network_latency(Duration::from_micros(20))
        .seed(seed)
        .build()
        .expect("byzantine control config is valid");
    ChaosPlan {
        seed,
        label: "byzantine-control".into(),
        config,
        workload: WorkloadSpec::Kv { rows_per_partition: 16 },
        iterations: 3,
        partitioned_txns: 12,
        single_master_txns: 16,
        schedule: FaultSchedule::new(),
        expect_disk_recovery: false,
    }
}

#[test]
fn bit_flipped_committed_value_is_flagged() {
    // The master's value-replication stream to node 1 is bit-flipped for
    // the final epoch (`FaultVerdict::Corrupt`). The recorded history is
    // untouched — the corruption lives only in replica state — so it is the
    // replica/oracle comparison that must go red.
    let mut plan = byzantine_base_plan(91);
    plan.label = "byzantine-bit-flip".into();
    plan.schedule = FaultSchedule::new()
        .at(
            2,
            InjectionPoint::SingleMasterStart,
            FaultOp::SetLinkFaults(0, 1, star_net::LinkFaults::corrupting(1.0)),
        )
        .at(
            2,
            InjectionPoint::BeforeSecondFence,
            FaultOp::SetLinkFaults(0, 1, star_net::LinkFaults::none()),
        );
    let outcome = run_plan(&plan).unwrap();
    assert!(!outcome.passed(), "a bit-flipped committed value survived to a green verdict");
    assert!(
        outcome.violations.iter().any(|v| v.contains("replica") || v.contains("oracle")),
        "the corruption must surface as replica/oracle divergence: {:?}",
        outcome.violations
    );
    // Positive control: the identical plan without the corrupt faults is
    // green, so the red verdict above is the corruption's doing.
    let clean = byzantine_base_plan(91);
    let outcome = run_plan(&clean).unwrap();
    assert!(outcome.passed(), "{:?}", outcome.violations);
}

#[test]
fn replication_batch_with_wrong_version_is_flagged() {
    // A byzantine replica applies a batch whose TID lies about the version
    // it installs: the record ends up at a version no committed transaction
    // produced. The oracle comparison must refuse it.
    let plan = byzantine_base_plan(92);
    let outcome = run_plan(&plan).unwrap();
    assert!(outcome.passed());

    // Rebuild a replica and the oracle state from a fresh run, then apply
    // the rogue batch entry to the replica.
    let workload = std::sync::Arc::new(star_core::testing::KvWorkload {
        partitions: 4,
        rows_per_partition: 16,
        cross_partition_fraction: 0.3,
    });
    let mut engine = star_core::StarEngine::new(plan.config.clone(), workload).unwrap();
    let recorder = std::sync::Arc::new(star_core::HistoryRecorder::new());
    engine.set_history_recorder(recorder.clone());
    for _ in 0..3 {
        engine.run_iteration_stepped(8, 8);
    }
    let report = check_history(&recorder.committed());
    assert!(report.is_serializable());
    let db = engine.nodes()[0].db();
    assert!(compare_with_database(db, &report.final_state).is_ok());

    // Pick a record the oracle knows and install the same row under a
    // *wrong* (never-committed) version, as a corrupted batch would.
    let (&(table, partition, key), (tid, row)) =
        report.final_state.iter().next().expect("some record was written");
    let wrong_version = Tid::new(tid.epoch() + 900, 1);
    let rogue = star_replication::LogEntry {
        table,
        partition,
        key,
        tid: wrong_version,
        payload: star_replication::Payload::Value(row.clone()),
    };
    rogue.apply(db).unwrap();
    let err = compare_with_database(db, &report.final_state)
        .expect_err("a wrong-version record must fail the oracle comparison");
    assert!(err.contains("version"), "{err}");
}

#[test]
fn truncated_final_wal_record_is_flagged_by_disk_recovery() {
    // Case-4 total loss with a torn WAL tail: the checkpoint is captured,
    // every holder of partition 0 dies, and the full replica's WAL loses
    // its last 3 bytes (mid-record by construction — entries are ≥ 25
    // bytes). Disk recovery must refuse to replay the torn log.
    let mut plan = byzantine_base_plan(93);
    plan.label = "byzantine-torn-wal".into();
    plan.config.disk_logging = true;
    plan.expect_disk_recovery = true;
    plan.iterations = 4;
    plan.schedule = FaultSchedule::new()
        .at(2, InjectionPoint::PartitionedStart, FaultOp::Checkpoint)
        .at(2, InjectionPoint::MidPartitioned, FaultOp::Crash(0))
        .at(2, InjectionPoint::MidPartitioned, FaultOp::Crash(1))
        .at(2, InjectionPoint::IterationEnd, FaultOp::TruncateWal(0, 3));
    let outcome = run_plan(&plan).unwrap();
    assert!(!outcome.passed(), "a torn WAL record survived to a green verdict");
    assert!(
        outcome.violations.iter().any(|v| v.starts_with("disk recovery:")),
        "the tear must surface in disk recovery: {:?}",
        outcome.violations
    );
    // Positive control: the same total-loss plan with an intact WAL
    // recovers from checkpoint + logs cleanly.
    let mut clean = byzantine_base_plan(93);
    clean.config.disk_logging = true;
    clean.expect_disk_recovery = true;
    clean.iterations = 4;
    clean.schedule = FaultSchedule::new()
        .at(2, InjectionPoint::PartitionedStart, FaultOp::Checkpoint)
        .at(2, InjectionPoint::MidPartitioned, FaultOp::Crash(0))
        .at(2, InjectionPoint::MidPartitioned, FaultOp::Crash(1));
    let outcome = run_plan(&clean).unwrap();
    assert!(outcome.passed(), "{:?}", outcome.violations);
    assert!(outcome.disk_recovery.unwrap().records_verified > 0);
}

#[test]
fn every_non_serializable_entry_survives_shuffling() {
    // Violations are properties of the history *set*, not the recording
    // order: rotating each red corpus entry must not change the verdict
    // (the checker derives version order from TIDs, not positions).
    for (name, history, expected) in corpus() {
        if expected == Expected::Serializable || history.len() < 2 {
            continue;
        }
        for rotation in 1..history.len() {
            let mut rotated = history.clone();
            rotated.rotate_left(rotation);
            let report = check_history(&rotated);
            assert!(!report.is_serializable(), "{name}: rotation {rotation} was accepted");
        }
    }
}
