//! Failure-scenario classification and recovery helpers (Section 4.5).
//!
//! When the replication fence detects failed nodes, the behaviour of the
//! surviving cluster depends on which *kinds* of replicas remain. The paper
//! enumerates four cases (Figure 7); [`FailureCase::classify`] reproduces
//! that classification and the engine uses it to decide whether it can keep
//! running the phase-switching algorithm, must fall back to distributed
//! concurrency control, or must stop and recover from disk.
//!
//! What a replication fence does to a participant's protocol state also
//! lives here, once: [`EpochState`] is the epoch clock, failure picture and
//! election log that the simulated engine, every `star-serverd` node and the
//! cluster driver each hold one of and advance with the same two calls, and
//! [`fence_replica`] is what the fence does to one surviving replica.

use crate::messages::ReplicationBatch;
use star_common::{ClusterConfig, Epoch, Error, NodeId};
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

/// The protocol state one participant carries from fence to fence — the four
/// words a rejoining node is sent: the epoch in flight, the last epoch a
/// fence closed, which nodes are known failed, and every election held.
///
/// A replication fence moves it — [`open_fence`](Self::open_fence) with the
/// failure picture the fence observed, then, once the replicas have been
/// fenced, [`close_fence`](Self::close_fence) — and so does a completed
/// recovery ([`mark_recovered`](Self::mark_recovered)). Nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochState {
    epoch: Epoch,
    last_committed: Epoch,
    failed: Vec<bool>,
    elections: Vec<MasterElection>,
}

impl EpochState {
    /// A freshly started, fully healthy cluster: epoch 1 in flight, nothing
    /// committed, the initial appointment.
    pub fn new(config: &ClusterConfig) -> EpochState {
        EpochState {
            epoch: 1,
            last_committed: 0,
            failed: vec![false; config.num_nodes],
            elections: MasterElection::initial_log(config),
        }
    }

    /// Adopts a running cluster's state (a rejoining node, a driver attaching
    /// mid-life). The words come from outside the process, so a picture no
    /// sequence of fences produces is a typed error.
    pub fn resume(
        epoch: Epoch,
        last_committed: Epoch,
        failed: Vec<bool>,
        elections: Vec<MasterElection>,
    ) -> star_common::Result<EpochState> {
        if last_committed >= epoch {
            return Err(Error::Config(format!(
                "epoch {epoch} cannot be in flight when epoch {last_committed} was the last closed"
            )));
        }
        if elections.is_empty() {
            return Err(Error::Config("the election log cannot be empty".to_string()));
        }
        Ok(EpochState { epoch, last_committed, failed, elections })
    }

    /// The epoch in flight.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The last epoch a fence closed.
    pub fn last_committed(&self) -> Epoch {
        self.last_committed
    }

    /// The known-failed flag of every node (index = node id).
    pub fn failed(&self) -> &[bool] {
        &self.failed
    }

    /// Every election held, in order; index 0 is the initial appointment.
    pub fn elections(&self) -> &[MasterElection] {
        &self.elections
    }

    /// The winner of the most recent election, while it is not known failed.
    pub fn current_master(&self) -> Option<NodeId> {
        let master = self.elections.last()?.master?;
        (self.failed.get(master) == Some(&false)).then_some(master)
    }

    /// The fence's decision step, given the failure picture it `observed`
    /// (one flag per node). A node observed failed that was not known failed
    /// crashed inside the epoch in flight, so the cluster discards that epoch
    /// (Figure 6): returns whether this fence is `reverting`. The picture
    /// becomes current and the election is held over it: a crashed
    /// coordinator is replaced by the next healthy full replica, a recovered
    /// lower-id full replica takes the role back, and a new log entry — one
    /// generation up — is appended only when the winner changes.
    pub fn open_fence(&mut self, config: &ClusterConfig, observed: &[bool]) -> bool {
        let reverting = self.failed.iter().zip(observed).any(|(known, seen)| *seen && !known);
        for (known, seen) in self.failed.iter_mut().zip(observed) {
            *known = *seen;
        }
        let winner = config.elected_master(&self.failed);
        let (master, generation) =
            self.elections.last().map_or((None, 0), |e| (e.master, e.generation + 1));
        if winner != master {
            self.elections.push(MasterElection { epoch: self.epoch, master: winner, generation });
        }
        reverting
    }

    /// The fence is done: the epoch in flight becomes the last committed one
    /// — also past a reverted epoch, whose records the revert already
    /// discarded, so the next epoch builds on the surviving state.
    pub fn close_fence(&mut self) {
        self.last_committed = self.epoch;
        self.epoch += 1;
    }

    /// `node` has caught up and rejoined; unknown ids are ignored.
    pub fn mark_recovered(&mut self, node: NodeId) {
        if let Some(failed) = self.failed.get_mut(node) {
            *failed = false;
        }
    }
}

/// What a fence does to one surviving replica `db`, between
/// [`EpochState::open_fence`] (whose verdict is `reverting`) and
/// [`EpochState::close_fence`]. A reverting fence first rolls the replica back
/// to the last committed epoch. Then every entry of the `arrived` batches that
/// survives is handed to `sink`, in arrival order. Dropped are batches from
/// senders known failed; when reverting, batches of the discarded epoch, whose
/// application would resurrect writes the primaries just reverted; and entries
/// of partitions the replica does not hold. The caller brings its own way of
/// collecting what arrived (an endpoint drain, a TCP inbox) and of applying it
/// (now, or deferred behind the fence).
pub fn fence_replica(
    state: &EpochState,
    reverting: bool,
    db: &Database,
    arrived: impl IntoIterator<Item = ReplicationBatch>,
    sink: impl FnMut(EncodedEntry),
) {
    if reverting {
        db.revert_to_epoch(state.last_committed);
    }
    arrived
        .into_iter()
        .filter(|batch| {
            state.failed.get(batch.from_node) == Some(&false)
                && !(reverting && batch.epoch > state.last_committed)
        })
        .flat_map(|batch| batch.entries)
        .filter(|entry| db.holds(entry.partition()))
        .for_each(sink);
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

                // The epoch-state column: a participant that knows `failed`
                // opens a fence that observes every other picture.
                let mut known = EpochState::new(&c);
                known.open_fence(&c, &failed);
                known.close_fence();
                for seen in 0u32..(1 << c.num_nodes) {
                    let observed: Vec<bool> =
                        (0..c.num_nodes).map(|n| seen & (1 << n) != 0).collect();
                    let mut state = known.clone();
                    let newly_failed = (0..c.num_nodes).any(|n| observed[n] && !failed[n]);
                    assert_eq!(state.open_fence(&c, &observed), newly_failed, "{mask:b}→{seen:b}");
                    assert_eq!(state.failed(), observed);
                    let winner = c.elected_master(&observed);
                    let elected = usize::from(winner != c.elected_master(&failed));
                    assert_eq!(state.elections().len(), known.elections().len() + elected);
                    assert_eq!(state.elections().last().unwrap().master, winner);
                    assert_eq!(state.current_master(), winner);
                    state.close_fence();
                    assert_eq!((state.epoch(), state.last_committed()), (3, 2));
                }
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
        let log = MasterElection::initial_log(&ClusterConfig::with_nodes(3));
        let state = EpochState::resume(3, 2, vec![false, true, false], log).unwrap();
        let queued = || vec![batch(0, 2, 0), batch(1, 2, 0), batch(2, 3, 0), batch(2, 2, 1)];
        let survivors = |reverting| -> Vec<(Epoch, usize)> {
            let mut seen = Vec::new();
            fence_replica(&state, reverting, &db, queued(), |e| {
                seen.push((e.tid().epoch(), e.partition()))
            });
            seen
        };
        assert_eq!(survivors(false), vec![(2, 0), (3, 0)]);
        assert_eq!(survivors(true), vec![(2, 0)]);
    }
}
