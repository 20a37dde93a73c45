//! The chaos driver: executes one seeded, fault-scheduled run of the STAR
//! engine and verifies every safety property the paper claims survives
//! failures.
//!
//! A run is fully deterministic: the engine executes *stepped* phases
//! (fixed transaction counts, sequential workers — see
//! `StarEngine::run_partitioned_phase_stepped`), every RNG is derived from
//! the plan's seed, and all fault decisions come from the network's seeded
//! fault plane. Identical plan ⇒ identical committed history, byte for
//! byte — which is what lets a failing seed reproduce exactly.
//!
//! At the end of a run the driver checks, in order:
//!
//! 1. **serializability** — the committed history must be explained by a
//!    sequential oracle ([`crate::checker`]);
//! 2. **replica agreement** — every pair of healthy replicas agrees on the
//!    partitions they share;
//! 3. **oracle agreement** — every healthy replica's data matches the
//!    oracle's final state;
//! 4. **durability** (Case-4 plans) — a replica rebuilt from the captured
//!    checkpoint plus the on-disk WALs (skipping reverted epochs) must
//!    reproduce the oracle's final state exactly.

use crate::checker::{check_history, compare_with_database, CheckReport};
use crate::schedule::{FaultOp, FaultSchedule, InjectionPoint};
use star_common::{ClusterConfig, Epoch, NodeId};
use star_core::history::HistoryRecorder;
use star_core::testing::KvWorkload;
use star_core::{FailureCase, StarEngine, Workload};
use star_replication::checkpoint::Checkpoint;
use star_replication::recovery::recover_from_checkpoint_and_logs;
use star_replication::{LogEntry, WalReader};
use star_storage::DatabaseBuilder;
use star_workloads::{YcsbConfig, YcsbWorkload};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Which workload a plan drives.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The miniature read-modify-write KV workload (`star_core::testing`).
    Kv {
        /// Rows loaded per partition.
        rows_per_partition: u64,
    },
    /// YCSB (10-operation multi-get/put transactions).
    Ycsb {
        /// Rows loaded per partition.
        rows_per_partition: u64,
    },
}

/// Everything needed to reproduce one chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// The seed every RNG in the run derives from.
    pub seed: u64,
    /// Human-readable scenario name.
    pub label: String,
    /// Cluster configuration (its `seed` field must equal `seed`).
    pub config: ClusterConfig,
    /// Workload to drive.
    pub workload: WorkloadSpec,
    /// Iterations of the phase-switching loop.
    pub iterations: usize,
    /// Transactions per partition per partitioned phase.
    pub partitioned_txns: u64,
    /// Transactions per master worker per single-master phase.
    pub single_master_txns: u64,
    /// The fault schedule.
    pub schedule: FaultSchedule,
    /// Whether the run is expected to end in Case 4 and recover from disk.
    pub expect_disk_recovery: bool,
}

/// Summary of a Case-4 disk recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskRecoverySummary {
    /// Records restored from the checkpoint.
    pub checkpoint_records: usize,
    /// WAL entries replayed on top of it.
    pub log_entries_replayed: usize,
    /// WAL entries skipped because their epoch was reverted or never
    /// committed.
    pub log_entries_skipped: usize,
    /// Oracle records verified against the rebuilt replica.
    pub records_verified: usize,
}

/// The outcome of one chaos run.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The plan's seed.
    pub seed: u64,
    /// The plan's scenario label.
    pub label: String,
    /// Transactions in the committed (client-visible) history.
    pub committed: usize,
    /// Distinct failure classifications observed after fences, in order.
    pub cases_seen: Vec<FailureCase>,
    /// FNV-1a fingerprint of the committed history (the determinism
    /// witness: same seed ⇒ same fingerprint).
    pub fingerprint: u64,
    /// Every safety violation found (empty ⇔ the run passed).
    pub violations: Vec<String>,
    /// Disk-recovery summary, for plans that exercise Case 4.
    pub disk_recovery: Option<DiskRecoverySummary>,
    /// The schedule that was executed (printed on failure for reproduction).
    pub schedule: FaultSchedule,
}

impl ChaosOutcome {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Builds the workload a plan describes. Every executor of a plan — the
/// simulated engine, the wire cluster's nodes and its simulation twin —
/// builds it here, so they draw identical transaction streams.
pub fn build_workload(spec: &WorkloadSpec, partitions: usize) -> Arc<dyn Workload> {
    match spec {
        WorkloadSpec::Kv { rows_per_partition } => Arc::new(KvWorkload {
            partitions,
            rows_per_partition: *rows_per_partition,
            cross_partition_fraction: 0.3,
        }),
        WorkloadSpec::Ycsb { rows_per_partition } => Arc::new(YcsbWorkload::new(YcsbConfig {
            partitions,
            rows_per_partition: *rows_per_partition,
            ops_per_transaction: 4,
            read_fraction: 0.5,
            zipf_theta: 0.0,
            cross_partition_fraction: 0.3,
        })),
    }
}

/// Something a fault schedule can be walked over: the simulated engine
/// ([`EngineTarget`]) or a real TCP cluster (`star-wire-chaos`'s runner).
/// An `Err` aborts the walk.
pub trait ChaosTarget {
    /// The walk reached an injection point where the schedule fires `ops`
    /// (never empty), in insertion order.
    fn inject(&mut self, ops: &[FaultOp]) -> Result<(), String>;
    /// Runs `txns` attempts per partition of the partitioned phase.
    fn run_partitioned(&mut self, txns: u64) -> Result<(), String>;
    /// Runs `txns` attempts per master worker of the single-master phase.
    fn run_single_master(&mut self, txns: u64) -> Result<(), String>;
    /// Closes the current epoch with a replication fence.
    fn fence(&mut self) -> Result<(), String>;
}

/// Walks `plan.iterations` iterations of the phase-switching loop over
/// `target`, visiting every [`InjectionPoint`] in order with the operations
/// `plan.schedule` pins there — the one place the iteration structure the
/// schedule DSL describes is written down:
///
/// ```text
/// ops → half phase → ops → half phase → ops → FENCE   (partitioned)
/// ops → half phase → ops → half phase → ops → FENCE   (single-master)
/// ops                                                  (IterationEnd)
/// ```
///
/// A half phase is a count of attempts, so every target splits a phase
/// between the same two transactions.
pub fn walk(plan: &ChaosPlan, target: &mut dyn ChaosTarget) -> Result<(), String> {
    use InjectionPoint::*;
    let halves = |txns: u64| (txns / 2, txns - txns / 2);
    let (first_half_p, second_half_p) = halves(plan.partitioned_txns);
    let (first_half_s, second_half_s) = halves(plan.single_master_txns);
    for iteration in 0..plan.iterations {
        let inject = |target: &mut dyn ChaosTarget, point| {
            let ops: Vec<FaultOp> = plan.schedule.ops_at(iteration, point).cloned().collect();
            if ops.is_empty() {
                return Ok(());
            }
            target.inject(&ops)
        };
        inject(target, PartitionedStart)?;
        target.run_partitioned(first_half_p)?;
        inject(target, MidPartitioned)?;
        target.run_partitioned(second_half_p)?;
        inject(target, BeforeFirstFence)?;
        target.fence()?;

        inject(target, SingleMasterStart)?;
        target.run_single_master(first_half_s)?;
        inject(target, MidSingleMaster)?;
        target.run_single_master(second_half_s)?;
        inject(target, BeforeSecondFence)?;
        target.fence()?;

        inject(target, IterationEnd)?;
    }
    Ok(())
}

/// The simulated engine as a [`ChaosTarget`]: a history-recording
/// [`StarEngine`] on a seeded fault plane, plus what the walk leaves behind
/// for verification. Both [`run_plan`] and the wire harness's simulation
/// twin walk their schedule over one of these.
pub struct EngineTarget {
    /// The engine under test.
    pub engine: StarEngine,
    /// The workload it runs.
    pub workload: Arc<dyn Workload>,
    /// Its committed-history recorder.
    pub recorder: Arc<HistoryRecorder>,
    /// Checkpoints captured by `Checkpoint` ops, with the node they are of.
    pub checkpoints: Vec<(NodeId, Checkpoint)>,
    /// Distinct failure classifications observed after fences, in order.
    pub cases_seen: Vec<FailureCase>,
    /// Scheduled operations that could not be carried out.
    pub violations: Vec<String>,
}

impl EngineTarget {
    /// Builds the engine `plan` describes and seeds its fault plane.
    pub fn new(plan: &ChaosPlan) -> star_common::Result<EngineTarget> {
        debug_assert_eq!(plan.config.seed, plan.seed, "plan seed must drive the cluster RNGs");
        let workload = build_workload(&plan.workload, plan.config.partitions);
        let mut engine = StarEngine::new(plan.config.clone(), Arc::clone(&workload))?;
        let recorder = Arc::new(HistoryRecorder::new());
        engine.set_history_recorder(Arc::clone(&recorder));
        engine.network().seed_faults(plan.seed);
        Ok(EngineTarget {
            engine,
            workload,
            recorder,
            checkpoints: Vec::new(),
            cases_seen: Vec::new(),
            violations: Vec::new(),
        })
    }

    fn apply_op(&mut self, op: &FaultOp) {
        let EngineTarget { engine, checkpoints, violations, .. } = self;
        match op {
            FaultOp::Crash(node) => engine.inject_failure(*node),
            FaultOp::Recover(node) => {
                if let Err(e) = engine.recover_node(*node) {
                    violations.push(format!("scheduled recovery of node {node} failed: {e}"));
                }
            }
            FaultOp::RecoverInterrupted(node, fault) => {
                // The interruption itself is survivable (the node just stays
                // down); only a recovery that could not even *start* — no
                // healthy source — is reported, mirroring `Recover`.
                if let Err(e) = engine.recover_node_interrupted(*node, *fault) {
                    violations.push(format!("scheduled recovery of node {node} failed: {e}"));
                }
            }
            FaultOp::CutLink(a, b) => engine.network().cut_link(*a, *b),
            FaultOp::HealLink(a, b) => engine.network().heal_link(*a, *b),
            FaultOp::SetLinkFaults(from, to, faults) => {
                engine.network().set_link_faults(*from, *to, *faults)
            }
            FaultOp::SetDefaultFaults(faults) => engine.network().set_default_link_faults(*faults),
            FaultOp::ClearFaults => engine.network().clear_link_faults(),
            FaultOp::Checkpoint => {
                let epoch = engine.last_committed_epoch();
                let failed = engine.failed_nodes();
                for (n, node) in engine.nodes().iter().enumerate() {
                    if !failed.contains(&n) {
                        checkpoints.push((n, Checkpoint::capture(node.db(), epoch)));
                    }
                }
            }
            FaultOp::TruncateWal(node, bytes) => {
                // A byzantine disk: the tail of the node's WAL silently
                // disappears. Disk recovery must detect the torn record — this
                // op only appears in planted-bug schedules, so a run carrying
                // it is expected red.
                let paths = engine.wal_paths();
                match paths.get(*node) {
                    Some(path) => {
                        if let Err(e) = star_replication::truncate_wal_tail(path, *bytes) {
                            violations.push(format!("TruncateWal({node}) could not run: {e}"));
                        }
                    }
                    None => violations.push(format!(
                        "TruncateWal({node}) scheduled without disk logging enabled"
                    )),
                }
            }
        }
    }
}

impl ChaosTarget for EngineTarget {
    fn inject(&mut self, ops: &[FaultOp]) -> Result<(), String> {
        ops.iter().for_each(|op| self.apply_op(op));
        Ok(())
    }

    fn run_partitioned(&mut self, txns: u64) -> Result<(), String> {
        self.engine.run_partitioned_phase_stepped(txns);
        Ok(())
    }

    fn run_single_master(&mut self, txns: u64) -> Result<(), String> {
        self.engine.run_single_master_phase_stepped(txns);
        Ok(())
    }

    fn fence(&mut self) -> Result<(), String> {
        self.engine.fence();
        if let Ok(case) = self.engine.failure_case() {
            if !self.cases_seen.contains(&case) {
                self.cases_seen.push(case);
            }
        }
        Ok(())
    }
}

/// Runs one chaos plan to completion and verifies it. See the module docs
/// for the checks performed.
pub fn run_plan(plan: &ChaosPlan) -> star_common::Result<ChaosOutcome> {
    let mut target = EngineTarget::new(plan)?;
    walk(plan, &mut target).map_err(star_common::Error::Config)?;
    let EngineTarget { engine, workload, recorder, checkpoints, cases_seen, mut violations } =
        target;

    // 1. Serializability of the client-visible history.
    let history = recorder.committed();
    let report = check_history(&history);
    if let Some(violation) = &report.violation {
        violations.push(format!("serializability: {violation}"));
    }

    // 2. Healthy replicas must agree with each other.
    if let Err(e) = engine.verify_replica_consistency() {
        violations.push(format!("replica consistency: {e}"));
    }

    // 3. Healthy replicas must agree with the sequential oracle.
    if report.is_serializable() {
        let failed = engine.failed_nodes();
        for (n, node) in engine.nodes().iter().enumerate() {
            if failed.contains(&n) {
                continue;
            }
            if let Err(e) = compare_with_database(node.db(), &report.final_state) {
                violations.push(format!("oracle vs node {n}: {e}"));
            }
        }
    }

    // 4. Case-4 durability: rebuild from checkpoint + WAL and compare.
    let disk_recovery = if plan.expect_disk_recovery {
        Some(run_disk_recovery(&engine, &workload, &checkpoints, &report, &mut violations))
    } else {
        None
    };

    Ok(ChaosOutcome {
        seed: plan.seed,
        label: plan.label.clone(),
        committed: report.txns,
        cases_seen,
        fingerprint: recorder.fingerprint(),
        violations,
        disk_recovery,
        schedule: plan.schedule.clone(),
    })
}

fn run_disk_recovery(
    engine: &StarEngine,
    workload: &Arc<dyn Workload>,
    checkpoints: &[(NodeId, Checkpoint)],
    oracle: &CheckReport,
    violations: &mut Vec<String>,
) -> DiskRecoverySummary {
    let mut summary = DiskRecoverySummary {
        checkpoint_records: 0,
        log_entries_replayed: 0,
        log_entries_skipped: 0,
        records_verified: 0,
    };
    let config = engine.config();
    // Recovery needs a checkpoint of a full replica (it covers the whole
    // database; Section 4.5.1 checkpoints every replica, and rebuilding the
    // full replica is the Case-4 path that restores availability).
    // "disk recovery setup" (not "disk recovery") so the shrinker cannot
    // conflate a schedule that merely lost its Checkpoint op with one whose
    // disk recovery genuinely failed — e.g. on a torn WAL record.
    let Some((_, checkpoint)) = checkpoints.iter().find(|(n, _)| config.is_full_replica(*n)) else {
        violations.push("disk recovery setup: no full-replica checkpoint was captured".into());
        return summary;
    };
    if engine.wal_paths().is_empty() {
        violations.push("disk recovery setup: the plan did not enable disk logging".into());
        return summary;
    }

    // Read every node's WAL back from disk and keep only entries of epochs
    // that group-committed: reverted epochs were never released to clients
    // and must not be resurrected.
    let reverted: BTreeSet<Epoch> = engine.reverted_epochs().iter().copied().collect();
    let last_committed = engine.last_committed_epoch();
    let mut skipped = 0usize;
    let mut logs: Vec<Vec<LogEntry>> = Vec::new();
    for path in engine.wal_paths() {
        match WalReader::open(&path).and_then(|r| r.entries()) {
            Ok(entries) => {
                let before = entries.len();
                let kept: Vec<LogEntry> = entries
                    .into_iter()
                    .filter(|e| {
                        e.tid.epoch() <= last_committed && !reverted.contains(&e.tid.epoch())
                    })
                    .collect();
                skipped += before - kept.len();
                logs.push(kept);
            }
            Err(e) => {
                violations.push(format!("disk recovery: cannot read {}: {e}", path.display()));
                return summary;
            }
        }
    }

    let mut builder = DatabaseBuilder::new(config.partitions);
    for spec in workload.catalog() {
        builder = builder.table(spec);
    }
    let rebuilt = builder.build();
    match recover_from_checkpoint_and_logs(&rebuilt, checkpoint, &logs) {
        Ok(stats) => {
            summary.checkpoint_records = stats.checkpoint_records;
            summary.log_entries_replayed = stats.log_entries_replayed;
            summary.log_entries_skipped = skipped + stats.log_entries_skipped;
        }
        Err(e) => {
            violations.push(format!("disk recovery: replay failed: {e}"));
            return summary;
        }
    }
    if oracle.is_serializable() {
        match compare_with_database(&rebuilt, &oracle.final_state) {
            Ok(verified) => summary.records_verified = verified,
            Err(e) => violations.push(format!("disk recovery vs oracle: {e}")),
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn base_plan(seed: u64) -> ChaosPlan {
        let config = ClusterConfig::builder()
            .nodes(4)
            .full_replicas(1)
            .workers_per_node(1)
            .partitions(4)
            // Factor 3 gives every partition a partial-partial backup
            // (`p0:{1} p1:{1,2} p2:{2,3} p3:{1,3}`), so nodes 2 and 3 are
            // redundant holders whose loss is Case 1.
            .replication_factor(3)
            .iteration(Duration::from_millis(5))
            .network_latency(Duration::from_micros(20))
            .seed(seed)
            .build()
            .unwrap();
        ChaosPlan {
            seed,
            label: "test".into(),
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
    fn fault_free_run_is_serializable_and_deterministic() {
        let a = run_plan(&base_plan(11)).unwrap();
        let b = run_plan(&base_plan(11)).unwrap();
        assert!(a.passed(), "{:?}", a.violations);
        assert!(a.committed > 0);
        assert_eq!(a.fingerprint, b.fingerprint, "same seed must give the same history");
        assert_eq!(a.cases_seen, vec![FailureCase::NoFailure]);
        let c = run_plan(&base_plan(12)).unwrap();
        assert_ne!(a.fingerprint, c.fingerprint, "different seeds must diverge");
    }

    #[test]
    fn crash_and_recovery_mid_run_stays_serializable() {
        let mut plan = base_plan(21);
        plan.iterations = 5;
        plan.schedule = FaultSchedule::new()
            .at(1, InjectionPoint::MidPartitioned, FaultOp::Crash(2))
            .at(3, InjectionPoint::IterationEnd, FaultOp::Recover(2));
        let outcome = run_plan(&plan).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.violations);
        assert!(outcome.cases_seen.contains(&FailureCase::FullAndPartialRemain));
        assert!(outcome.committed > 0);
    }

    #[test]
    fn recovered_node_discards_replication_queued_while_it_was_dead() {
        // Regression test: a node that crashes mid-partitioned-phase still
        // has that (reverted) epoch's replication batches sitting in its
        // inbound queue. Recovery must discard them — the messages were
        // addressed to the dead process — or the first fence after rejoining
        // resurrects discarded writes on the recovered replica. A large
        // keyspace keeps most keys from being rewritten after recovery, so
        // a resurrected write cannot hide behind a newer version.
        let mut plan = base_plan(41);
        plan.workload = WorkloadSpec::Kv { rows_per_partition: 4096 };
        plan.iterations = 4;
        plan.schedule = FaultSchedule::new()
            .at(1, InjectionPoint::MidPartitioned, FaultOp::Crash(2))
            .at(2, InjectionPoint::IterationEnd, FaultOp::Recover(2));
        let outcome = run_plan(&plan).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.violations);
    }

    #[test]
    fn overlapping_crashes_with_interleaved_recoveries_stay_serializable() {
        // A majority of partition 1's replicas (nodes 1 and 2 of {0,1,2})
        // die in overlapping windows; their recoveries interleave with a
        // later crash of node 3. The committed history must stay
        // serializable and all replicas must converge.
        let mut plan = base_plan(61);
        plan.iterations = 6;
        plan.schedule = FaultSchedule::new()
            .at(1, InjectionPoint::MidPartitioned, FaultOp::Crash(1))
            .at(1, InjectionPoint::MidSingleMaster, FaultOp::Crash(2))
            .at(2, InjectionPoint::IterationEnd, FaultOp::Recover(1))
            // Iteration 3 runs with only node 2 down — the fences there
            // observe Case 1 before the next crash lands in iteration 4.
            .at(4, InjectionPoint::MidPartitioned, FaultOp::Crash(3))
            .at(4, InjectionPoint::IterationEnd, FaultOp::Recover(2))
            .at(4, InjectionPoint::IterationEnd, FaultOp::Recover(3));
        let outcome = run_plan(&plan).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.violations);
        assert!(outcome.committed > 0);
        // Node 1 is the sole partial holder of partition 0, so its crash is
        // Case 3; after it rejoins, only node 2 (a redundant holder) is
        // down, which a fence observes as Case 1.
        assert!(outcome.cases_seen.contains(&FailureCase::OnlyFullRemains));
        assert!(outcome.cases_seen.contains(&FailureCase::FullAndPartialRemain));
    }

    #[test]
    fn master_and_partial_crash_together_and_both_recover() {
        // Node 0 (the only full replica) and node 2 crash in the same
        // iteration: no full replica remains, but the partials still cover
        // the database (Case 2), so the run degrades to partitioned-only
        // execution until the staggered recoveries bring both back.
        let mut plan = base_plan(62);
        plan.iterations = 6;
        plan.schedule = FaultSchedule::new()
            .at(1, InjectionPoint::MidPartitioned, FaultOp::Crash(0))
            .at(1, InjectionPoint::MidPartitioned, FaultOp::Crash(2))
            .at(2, InjectionPoint::IterationEnd, FaultOp::Recover(2))
            .at(3, InjectionPoint::IterationEnd, FaultOp::Recover(0));
        let outcome = run_plan(&plan).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.violations);
        assert!(outcome.cases_seen.contains(&FailureCase::OnlyPartialRemains));
        assert!(outcome.committed > 0);
    }

    #[test]
    fn infeasible_recovery_is_reported_not_silently_ignored() {
        // Nodes 0 and 1 are partition 0's only holders; recovering node 1
        // while node 0 is still down has no memory source and must surface
        // as a violation (the driver tolerates the attempt, the report
        // carries it).
        let mut plan = base_plan(63);
        plan.iterations = 4;
        plan.schedule = FaultSchedule::new()
            .at(1, InjectionPoint::MidPartitioned, FaultOp::Crash(0))
            .at(1, InjectionPoint::MidPartitioned, FaultOp::Crash(1))
            .at(2, InjectionPoint::IterationEnd, FaultOp::Recover(1));
        let outcome = run_plan(&plan).unwrap();
        assert!(!outcome.passed());
        assert!(
            outcome.violations.iter().any(|v| v.contains("recovery")),
            "expected a recovery violation, got {:?}",
            outcome.violations
        );
    }

    #[test]
    fn unforgiven_message_loss_is_caught_by_the_checker() {
        // A deliberately *unsafe* schedule: the link from partition 1's
        // primary to the master silently drops everything during a committed
        // epoch, with no crash to revert it. The master's replica of
        // partition 1 goes stale, later single-master transactions read the
        // stale versions and overwrite them — a lost update the
        // serializability checker must catch. This is the negative control
        // proving the harness detects real protocol violations.
        let mut plan = base_plan(31);
        plan.iterations = 4;
        plan.workload = WorkloadSpec::Kv { rows_per_partition: 4 };
        plan.partitioned_txns = 16;
        plan.single_master_txns = 32;
        plan.schedule = FaultSchedule::new()
            .at(1, InjectionPoint::PartitionedStart, FaultOp::CutLink(1, 0))
            .at(1, InjectionPoint::BeforeFirstFence, FaultOp::HealLink(1, 0));
        let outcome = run_plan(&plan).unwrap();
        assert!(!outcome.passed(), "silent message loss in a committed epoch must be detected");
    }
}
