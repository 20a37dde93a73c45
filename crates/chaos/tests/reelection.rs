//! Exhaustive re-election edge-case table.
//!
//! The engine's master election must be boring: whatever instant the
//! coordinator dies at — any of the six crash points of the stepped
//! iteration — and however many full replicas die with it, the next fence
//! either elects a *deterministic* new master (the lowest-id healthy full
//! replica) or reports the infeasibility cleanly (no master, a classified
//! Case-2/Case-4 failure state, no panic). This table crosses every crash
//! timing with every surviving-full-replica count and pins both outcomes,
//! plus the determinism of the whole election log.

use star_common::{ClusterConfig, NodeId};
use star_core::testing::KvWorkload;
use star_core::MasterElection;
use star_core::{FailureCase, StarEngine};
use std::sync::Arc;
use std::time::Duration;

/// Where, inside one stepped iteration, the coordinator crash lands — the
/// same six positions the chaos DSL can inject a crash at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashTiming {
    PartitionedStart,
    MidPartitioned,
    BeforeFirstFence,
    SingleMasterStart,
    MidSingleMaster,
    BeforeSecondFence,
}

const TIMINGS: [CrashTiming; 6] = [
    CrashTiming::PartitionedStart,
    CrashTiming::MidPartitioned,
    CrashTiming::BeforeFirstFence,
    CrashTiming::SingleMasterStart,
    CrashTiming::MidSingleMaster,
    CrashTiming::BeforeSecondFence,
];

fn build_engine(full_replicas: usize) -> StarEngine {
    let config = ClusterConfig::builder()
        .nodes(5)
        .full_replicas(full_replicas)
        .workers_per_node(1)
        .partitions(4)
        .iteration(Duration::from_millis(5))
        .network_latency(Duration::from_micros(20))
        .seed(7)
        .build()
        .unwrap();
    let workload = Arc::new(KvWorkload {
        partitions: 4,
        rows_per_partition: 16,
        cross_partition_fraction: 0.3,
    });
    StarEngine::new(config, workload).unwrap()
}

/// One stepped iteration with `victims` crashed at `timing`. Crash
/// *injection* is instantaneous; detection (and the election) happens at
/// the fence that closes the half-iteration the crash landed in.
fn run_iteration_with_crashes(engine: &mut StarEngine, timing: CrashTiming, victims: &[NodeId]) {
    let crash = |engine: &mut StarEngine| {
        for &victim in victims {
            engine.inject_failure(victim);
        }
    };
    if timing == CrashTiming::PartitionedStart {
        crash(engine);
    }
    engine.run_partitioned_phase_stepped(4);
    if timing == CrashTiming::MidPartitioned {
        crash(engine);
    }
    engine.run_partitioned_phase_stepped(4);
    if timing == CrashTiming::BeforeFirstFence {
        crash(engine);
    }
    engine.fence();
    if timing == CrashTiming::SingleMasterStart {
        crash(engine);
    }
    engine.run_single_master_phase_stepped(4);
    if timing == CrashTiming::MidSingleMaster {
        crash(engine);
    }
    engine.run_single_master_phase_stepped(4);
    if timing == CrashTiming::BeforeSecondFence {
        crash(engine);
    }
    engine.fence();
}

/// Runs one table cell and returns its election log.
fn run_cell(
    full_replicas: usize,
    crashed_fulls: usize,
    timing: CrashTiming,
) -> Vec<MasterElection> {
    let mut engine = build_engine(full_replicas);
    // A healthy warm-up iteration: no failures, so no re-election.
    engine.run_iteration_stepped(4, 4);
    assert_eq!(engine.master_generation(), 0, "a healthy iteration must not re-elect");

    let victims: Vec<NodeId> = (0..crashed_fulls).collect();
    run_iteration_with_crashes(&mut engine, timing, &victims);

    let expected_master = if crashed_fulls < full_replicas { Some(crashed_fulls) } else { None };
    assert_eq!(
        engine.current_master(),
        expected_master,
        "f={full_replicas} crashed={crashed_fulls} timing={timing:?}: the new master must be \
         the lowest-id healthy full replica"
    );
    assert_eq!(
        engine.master_generation(),
        1,
        "f={full_replicas} crashed={crashed_fulls} timing={timing:?}: one detection, one \
         election"
    );
    let election = *engine.elections().last().unwrap();
    assert_eq!(election.master, expected_master);
    assert_eq!(election.generation, 1);

    match expected_master {
        Some(master) => {
            // A deterministic new master that actually works: the next
            // iteration keeps committing under it.
            let committed = engine.run_single_master_phase_stepped(4);
            assert!(
                committed > 0,
                "f={full_replicas} crashed={crashed_fulls} timing={timing:?}: the re-elected \
                 master {master} must commit"
            );
        }
        None => {
            // A clean infeasibility report: no master, a classified
            // failure case, and the engine keeps running fences without
            // flip-flopping the election.
            let case = engine.failure_case().unwrap();
            assert!(
                matches!(case, FailureCase::OnlyPartialRemains | FailureCase::NothingRemains),
                "f={full_replicas} timing={timing:?}: losing every full replica must classify \
                 as Case 2 or Case 4, got {case:?}"
            );
            assert_eq!(engine.run_single_master_phase_stepped(4), 0);
            engine.run_iteration_stepped(4, 4);
            assert_eq!(engine.master_generation(), 1, "idle fences must not re-elect");
        }
    }
    engine.elections().to_vec()
}

#[test]
fn exhaustive_crash_timing_by_survivor_count_table() {
    for full_replicas in 1..=3usize {
        for crashed_fulls in 1..=full_replicas {
            for timing in TIMINGS {
                let first = run_cell(full_replicas, crashed_fulls, timing);
                // The whole election log — epochs, winners, generations —
                // must reproduce exactly.
                let second = run_cell(full_replicas, crashed_fulls, timing);
                assert_eq!(
                    first, second,
                    "f={full_replicas} crashed={crashed_fulls} timing={timing:?}: election \
                     log must be deterministic"
                );
            }
        }
    }
}

#[test]
fn master_bounces_back_after_recovery() {
    // A full re-election round trip: 0 dies (1 elected), 1 dies too (no
    // master), 0 recovers (0 re-elected) — generations strictly increase
    // and the log records every hop.
    let mut engine = build_engine(2);
    engine.run_iteration_stepped(4, 4);
    engine.inject_failure(0);
    engine.run_iteration_stepped(4, 4);
    assert_eq!(engine.current_master(), Some(1));
    engine.inject_failure(1);
    engine.run_iteration_stepped(4, 4);
    assert_eq!(engine.current_master(), None);
    engine.recover_node(0).unwrap();
    engine.run_iteration_stepped(4, 4);
    assert_eq!(engine.current_master(), Some(0));
    let masters: Vec<Option<NodeId>> = engine.elections().iter().map(|e| e.master).collect();
    assert_eq!(masters, vec![Some(0), Some(1), None, Some(0)]);
    let generations: Vec<u64> = engine.elections().iter().map(|e| e.generation).collect();
    assert_eq!(generations, vec![0, 1, 2, 3]);
    engine.verify_replica_consistency().unwrap();
}
