//! Failure-scenario classification and recovery helpers (Section 4.5).
//!
//! When the replication fence detects failed nodes, the behaviour of the
//! surviving cluster depends on which *kinds* of replicas remain. The paper
//! enumerates four cases (Figure 7); [`FailureCase::classify`] reproduces
//! that classification and the engine uses it to decide whether it can keep
//! running the phase-switching algorithm, must fall back to distributed
//! concurrency control, or must stop and recover from disk.
//!
//! The two decisions every replication fence takes once the failure picture
//! is current also live here, shared by the simulated engine's fence, the
//! `star-serverd` node's fence and the wire-chaos supervisor's mirror: who is
//! master now ([`hold_election`]) and which in-flight replication survives
//! ([`fence_survivors`]).

use crate::messages::ReplicationBatch;
use star_common::{ClusterConfig, Epoch, NodeId};
use star_replication::EncodedEntry;
use star_storage::Database;

/// One master (re-)election, recorded at the fence that held it.
///
/// Elections are deterministic: the winner is always
/// [`ClusterConfig::elected_master`] (the lowest-id healthy full replica, or
/// `None` when no full replica survives — Case 2/4), and they only happen at
/// replication fences, where failure detection has just run. Identical seed
/// ⇒ identical election log, which is what lets the chaos harness assert a
/// *deterministic* new master after a coordinator crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterElection {
    /// The epoch whose fence held the election (0 for the initial
    /// appointment at construction).
    pub epoch: Epoch,
    /// The elected master, or `None` if no healthy full replica remained.
    pub master: Option<NodeId>,
    /// Monotonically increasing election generation (0 = initial
    /// appointment); bumps exactly when the elected master changes.
    pub generation: u64,
}

impl MasterElection {
    /// The election log of a freshly started, fully healthy cluster: the
    /// initial appointment alone.
    pub fn initial_log(config: &ClusterConfig) -> Vec<MasterElection> {
        let master = config.elected_master(&vec![false; config.num_nodes]);
        vec![MasterElection { epoch: 0, master, generation: 0 }]
    }
}

/// Holds the election of `epoch`'s fence over the election `log`, now that
/// `failed` is current: a crashed coordinator is replaced by the next healthy
/// full replica, and a recovered lower-id full replica takes the role back.
/// A new entry — one generation up — is appended only when the winner
/// differs from the last entry's.
pub fn hold_election(
    log: &mut Vec<MasterElection>,
    config: &ClusterConfig,
    failed: &[bool],
    epoch: Epoch,
) {
    let winner = config.elected_master(failed);
    let (master, generation) = log.last().map_or((None, 0), |e| (e.master, e.generation));
    if log.is_empty() || winner != master {
        log.push(MasterElection { epoch, master: winner, generation: generation + 1 });
    }
}

/// The fence's survivor rule: of the replication `batches` queued at a node
/// holding `db`, the entries the fence may apply. Dropped are batches from
/// senders in `failed`; when the fence is `reverting` (it just detected a
/// failure, so the whole in-flight epoch is being discarded — Figure 6),
/// batches of epochs after `last_committed`, whose application would
/// resurrect writes the primaries just reverted; and entries of partitions
/// the replica does not hold.
pub fn fence_survivors<'a>(
    batches: impl IntoIterator<Item = ReplicationBatch> + 'a,
    db: &'a Database,
    failed: &'a [bool],
    reverting: bool,
    last_committed: Epoch,
) -> impl Iterator<Item = EncodedEntry> + 'a {
    batches
        .into_iter()
        .filter(move |batch| {
            failed.get(batch.from_node) == Some(&false)
                && !(reverting && batch.epoch > last_committed)
        })
        .flat_map(|batch| batch.entries)
        .filter(|entry| db.holds(entry.partition()))
}

/// Error returned by [`FailureCase::classify`] when the failure vector does
/// not describe the configured cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureVectorMismatch {
    /// Number of nodes the configuration describes.
    pub expected: usize,
    /// Length of the failure vector that was passed.
    pub got: usize,
}

impl std::fmt::Display for FailureVectorMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "failure vector length mismatch: cluster has {} nodes but the vector has {} entries",
            self.expected, self.got
        )
    }
}

impl std::error::Error for FailureVectorMismatch {}

/// The four failure scenarios of Section 4.5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCase {
    /// No node failed at all.
    NoFailure,
    /// Case 1: at least one full replica and one complete partial replica
    /// remain — the phase-switching algorithm keeps running unchanged.
    FullAndPartialRemain,
    /// Case 2: no full replica remains, but the partial replicas still cover
    /// the database — the system falls back to distributed concurrency
    /// control (e.g. Dist. OCC) until a full replica is restored.
    OnlyPartialRemains,
    /// Case 3: the partial replicas no longer cover the database, but a full
    /// replica remains — lost partitions are re-mastered onto the full
    /// replica and phase switching continues (degenerating to single-node
    /// execution if every partial replica is gone).
    OnlyFullRemains,
    /// Case 4: neither a full replica nor a complete partial replica remains
    /// — the system loses availability and must recover from checkpoints and
    /// logs on disk.
    NothingRemains,
}

impl FailureCase {
    /// Classifies the state of a cluster given which nodes have failed.
    ///
    /// `failed[n]` is true if node `n` is currently failed. Nodes
    /// `0..config.full_replicas` hold full replicas; the remaining nodes hold
    /// the partitions assigned to them by the layout (primary + secondary).
    ///
    /// Returns [`FailureVectorMismatch`] if `failed` does not have exactly
    /// one entry per configured node — a mismatched vector cannot be
    /// classified meaningfully, and silently truncating or padding it could
    /// mask a real failure.
    pub fn classify(
        config: &ClusterConfig,
        failed: &[bool],
    ) -> Result<FailureCase, FailureVectorMismatch> {
        if failed.len() != config.num_nodes {
            return Err(FailureVectorMismatch { expected: config.num_nodes, got: failed.len() });
        }
        if failed.iter().all(|f| !f) {
            return Ok(FailureCase::NoFailure);
        }
        // The length was validated above; iterator-based access keeps this
        // classification — consulted on every fence — structurally panic-free.
        let full_remains = failed.iter().take(config.full_replicas).any(|f| !f);
        let partial_covers = (0..config.partitions).all(|p| {
            failed
                .iter()
                .enumerate()
                .skip(config.full_replicas)
                .any(|(n, f)| !f && config.node_stores_partition(n, p))
        });
        Ok(match (full_remains, partial_covers) {
            (true, true) => FailureCase::FullAndPartialRemain,
            (false, true) => FailureCase::OnlyPartialRemains,
            (true, false) => FailureCase::OnlyFullRemains,
            (false, false) => FailureCase::NothingRemains,
        })
    }

    /// Whether the phase-switching algorithm can keep running in this state
    /// (Cases 1 and 3; Case 2 requires the distributed fallback and Case 4
    /// halts the system).
    pub fn phase_switching_available(self) -> bool {
        matches!(
            self,
            FailureCase::NoFailure
                | FailureCase::FullAndPartialRemain
                | FailureCase::OnlyFullRemains
        )
    }

    /// Whether the system keeps serving transactions at all.
    pub fn available(self) -> bool {
        !matches!(self, FailureCase::NothingRemains)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_common::ClusterConfig;

    /// A hand-checkable miniature of Figure 7: f = 2 full replicas (nodes 0
    /// and 1), k = 2 partial replicas (nodes 2 and 3), 4 partitions.
    ///
    /// With the default layout the partial holders of each partition are:
    /// partition 0 → {2}, partition 1 → {3}, partition 2 → {2, 3},
    /// partition 3 → {2, 3}.
    fn mini_config() -> ClusterConfig {
        let mut c = ClusterConfig::with_nodes(4);
        c.full_replicas = 2;
        c.partitions = 4;
        c
    }

    fn failed(nodes: &[usize], total: usize) -> Vec<bool> {
        let mut v = vec![false; total];
        for &n in nodes {
            v[n] = true;
        }
        v
    }

    #[test]
    fn no_failure() {
        let c = mini_config();
        let case = FailureCase::classify(&c, &failed(&[], 4)).unwrap();
        assert_eq!(case, FailureCase::NoFailure);
        assert!(case.phase_switching_available());
        assert!(case.available());
    }

    #[test]
    fn exhaustive_table_over_every_failure_combination() {
        // Every subset of failed nodes in the miniature Figure-7 cluster,
        // with the expected case derived from first principles:
        //   full remains  ⇔ node 0 or node 1 survives;
        //   partials cover ⇔ node 2 survives (sole partial holder of
        //   partition 0) and node 3 survives (sole partial holder of
        //   partition 1).
        let c = mini_config();
        for mask in 0u32..16 {
            let failed_vec: Vec<bool> = (0..4).map(|n| mask & (1 << n) != 0).collect();
            let full_remains = !failed_vec[0] || !failed_vec[1];
            let partial_covers = !failed_vec[2] && !failed_vec[3];
            let expected = if mask == 0 {
                FailureCase::NoFailure
            } else {
                match (full_remains, partial_covers) {
                    (true, true) => FailureCase::FullAndPartialRemain,
                    (false, true) => FailureCase::OnlyPartialRemains,
                    (true, false) => FailureCase::OnlyFullRemains,
                    (false, false) => FailureCase::NothingRemains,
                }
            };
            let got = FailureCase::classify(&c, &failed_vec).unwrap();
            assert_eq!(got, expected, "mask {mask:04b}");
            // The availability helpers must agree with the case table.
            assert_eq!(got.available(), got != FailureCase::NothingRemains, "mask {mask:04b}");
            assert_eq!(
                got.phase_switching_available(),
                matches!(
                    got,
                    FailureCase::NoFailure
                        | FailureCase::FullAndPartialRemain
                        | FailureCase::OnlyFullRemains
                ),
                "mask {mask:04b}"
            );
        }
    }

    #[test]
    fn case1_full_and_partial_remain() {
        let c = mini_config();
        // One full replica fails; the other full replica and both partial
        // replicas survive, so phase switching continues unchanged.
        let case = FailureCase::classify(&c, &failed(&[1], 4)).unwrap();
        assert_eq!(case, FailureCase::FullAndPartialRemain);
        assert!(case.phase_switching_available());
    }

    #[test]
    fn case2_only_partial_remains() {
        let c = mini_config();
        // Both full replicas fail; the partial replicas still cover every
        // partition, so the system falls back to distributed CC.
        let case = FailureCase::classify(&c, &failed(&[0, 1], 4)).unwrap();
        assert_eq!(case, FailureCase::OnlyPartialRemains);
        assert!(!case.phase_switching_available());
        assert!(case.available());
    }

    #[test]
    fn case3_only_full_remains() {
        let c = mini_config();
        // Node 2 is the only partial holder of partition 0; losing it breaks
        // partial coverage even though node 3 is still alive.
        let case = FailureCase::classify(&c, &failed(&[2], 4)).unwrap();
        assert_eq!(case, FailureCase::OnlyFullRemains);
        assert!(case.phase_switching_available());
    }

    #[test]
    fn case3_all_partials_lost() {
        let c = mini_config();
        let case = FailureCase::classify(&c, &failed(&[2, 3], 4)).unwrap();
        assert_eq!(case, FailureCase::OnlyFullRemains);
    }

    #[test]
    fn case4_nothing_remains() {
        let c = mini_config();
        // Both full replicas and the sole partial holder of partition 0 fail.
        let case = FailureCase::classify(&c, &failed(&[0, 1, 2], 4)).unwrap();
        assert_eq!(case, FailureCase::NothingRemains);
        assert!(!case.available());
    }

    #[test]
    fn boundary_all_nodes_failed() {
        let c = mini_config();
        let case = FailureCase::classify(&c, &failed(&[0, 1, 2, 3], 4)).unwrap();
        assert_eq!(case, FailureCase::NothingRemains);
        assert!(!case.available());
        assert!(!case.phase_switching_available());
    }

    #[test]
    fn boundary_only_full_replicas_failed() {
        // f = 1: losing exactly the full replica leaves the partials, which
        // cover the database → Case 2.
        let mut c = ClusterConfig::with_nodes(4);
        c.full_replicas = 1;
        c.partitions = 4;
        let case = FailureCase::classify(&c, &failed(&[0], 4)).unwrap();
        assert_eq!(case, FailureCase::OnlyPartialRemains);
        // f = 4 (every node full): losing all full replicas is losing
        // everything, and there are no partials to cover the database.
        let mut c = ClusterConfig::with_nodes(4);
        c.full_replicas = 4;
        c.partitions = 4;
        let case = FailureCase::classify(&c, &failed(&[0, 1, 2, 3], 4)).unwrap();
        assert_eq!(case, FailureCase::NothingRemains);
        // ... but losing all but one keeps phase switching alive (Case 3:
        // no partial replicas exist, so coverage is vacuously broken).
        let case = FailureCase::classify(&c, &failed(&[1, 2, 3], 4)).unwrap();
        assert_eq!(case, FailureCase::OnlyFullRemains);
        assert!(case.phase_switching_available());
    }

    #[test]
    fn boundary_single_node_cluster() {
        let mut c = ClusterConfig::with_nodes(1);
        c.full_replicas = 1;
        c.partitions = 2;
        assert_eq!(FailureCase::classify(&c, &[false]).unwrap(), FailureCase::NoFailure);
        assert_eq!(FailureCase::classify(&c, &[true]).unwrap(), FailureCase::NothingRemains);
    }

    #[test]
    fn partial_layout_covers_every_partition_when_healthy() {
        // Sanity-check the layout invariant the classification relies on: the
        // partial replicas together contain a full copy of the database.
        for nodes in 2..10usize {
            for f in 1..nodes {
                let mut c = ClusterConfig::with_nodes(nodes);
                c.full_replicas = f;
                c.partitions = nodes * 3;
                let healthy = failed(&[], nodes);
                let case = FailureCase::classify(&c, &healthy).unwrap();
                assert_eq!(case, FailureCase::NoFailure);
                if f < nodes {
                    for p in 0..c.partitions {
                        assert!(
                            (f..nodes).any(|n| c.node_stores_partition(n, p)),
                            "partition {p} not covered by partials (n={nodes}, f={f})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wrong_vector_length_is_a_typed_error() {
        let c = mini_config();
        let err = FailureCase::classify(&c, &[false; 3]).unwrap_err();
        assert_eq!(err, FailureVectorMismatch { expected: 4, got: 3 });
        assert!(err.to_string().contains("4 nodes"));
        assert!(err.to_string().contains("3 entries"));
        let err = FailureCase::classify(&c, &[false; 5]).unwrap_err();
        assert_eq!(err.got, 5);
    }

    #[test]
    fn routing_recovery_and_election_rules_hold_under_every_failure_vector() {
        // The chaos harness's canonical cluster (4 nodes, one full replica,
        // factor 3) and its re-election cluster (5 nodes, two full
        // replicas, factor 4), under all 2^n failure vectors.
        let shape = |nodes, full, factor| {
            ClusterConfig::builder()
                .nodes(nodes)
                .full_replicas(full)
                .workers_per_node(1)
                .partitions(4)
                .replication_factor(factor)
                .build()
                .unwrap()
        };
        for c in [shape(4, 1, 3), shape(5, 2, 4)] {
            for mask in 0u32..(1 << c.num_nodes) {
                let failed: Vec<bool> = (0..c.num_nodes).map(|n| mask & (1 << n) != 0).collect();
                let healthy_holder =
                    |n: usize, p: usize| !failed[n] && c.node_stores_partition(n, p);
                for p in 0..c.partitions {
                    let primary = c.effective_primary(&failed, p);
                    let any_holder = (0..c.num_nodes).any(|n| healthy_holder(n, p));
                    assert_eq!(primary.is_some(), any_holder, "mask {mask:b} p{p}");
                    if let Some(primary) = primary {
                        assert!(healthy_holder(primary, p), "mask {mask:b} p{p}");
                        if !failed[c.partition_primary(p)] {
                            assert_eq!(primary, c.partition_primary(p), "mask {mask:b} p{p}");
                        }
                    }
                    for node in 0..c.num_nodes {
                        let lowest_other =
                            (0..c.num_nodes).find(|&n| n != node && healthy_holder(n, p));
                        assert_eq!(c.recovery_source(&failed, node, p), lowest_other);
                    }
                }
                let full_remains = matches!(
                    FailureCase::classify(&c, &failed).unwrap(),
                    FailureCase::NoFailure
                        | FailureCase::FullAndPartialRemain
                        | FailureCase::OnlyFullRemains
                );
                assert_eq!(c.elected_master(&failed).is_some(), full_remains, "mask {mask:b}");
            }
        }
    }

    #[test]
    fn fence_survivors_drop_failed_senders_reverted_epochs_and_unheld_partitions() {
        use star_common::row::row;
        use star_common::{FieldValue, Tid};
        use star_replication::{LogEntry, Payload};
        use star_storage::{DatabaseBuilder, TableSpec};

        let db = DatabaseBuilder::new(2).table(TableSpec::new("t")).holding(vec![0]).build();
        let batch = |from_node, epoch, partition| {
            let entry = LogEntry {
                table: 0,
                partition,
                key: 1,
                tid: Tid::new(epoch, 1),
                payload: Payload::Value(row([FieldValue::U64(0)])),
            };
            ReplicationBatch::from_entries(from_node, epoch, vec![entry])
        };
        // Sender 1 is failed; epoch 3 is in flight (2 committed last).
        let failed = [false, true, false];
        let queued = || vec![batch(0, 2, 0), batch(1, 2, 0), batch(2, 3, 0), batch(2, 2, 1)];
        let survivors = |reverting| -> Vec<(Epoch, usize)> {
            fence_survivors(queued(), &db, &failed, reverting, 2)
                .map(|e| (e.tid().epoch(), e.partition()))
                .collect()
        };
        assert_eq!(survivors(false), vec![(2, 0), (3, 0)]);
        assert_eq!(survivors(true), vec![(2, 0)]);
    }
}
