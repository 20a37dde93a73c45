//! Replica construction: the database one node of a STAR cluster holds.

use crate::workload::Workload;
use star_common::{ClusterConfig, NodeId};
use star_storage::{Database, DatabaseBuilder};
use std::sync::Arc;

/// Builds node `id`'s replica: the workload's catalog, the partitions the
/// configuration's layout assigns the node (Figure 2), each loaded from the
/// workload's deterministic initial state. Every
/// [`StarNode`](crate::node::StarNode) — simulated or a `star-serverd`
/// process — builds its replica here, so they start identical.
pub fn build_replica(config: &ClusterConfig, workload: &dyn Workload, id: NodeId) -> Arc<Database> {
    let mut builder = DatabaseBuilder::new(config.partitions);
    for spec in workload.catalog() {
        builder = builder.table(spec);
    }
    if !config.is_full_replica(id) {
        builder = builder.holding(config.held_partitions(id));
    }
    let db = Arc::new(builder.build());
    for p in db.held_partitions() {
        workload.load_partition(&db, p);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{kv_key, KvWorkload};
    use crate::StarEngine;
    use star_common::Error;

    #[test]
    fn build_assigns_full_and_partial_replicas() {
        let config = ClusterConfig { partitions: 8, ..ClusterConfig::with_nodes(4) };
        let wl =
            KvWorkload { partitions: 8, rows_per_partition: 10, cross_partition_fraction: 0.1 };
        let engine = StarEngine::new(config, Arc::new(wl)).unwrap();
        assert_eq!(engine.nodes().len(), 4);
        assert!(engine.nodes()[0].db().is_full_replica());
        for id in 1..4 {
            assert!(!engine.nodes()[id].db().is_full_replica());
        }
        // Every replica holds loaded data for each partition it stores.
        for node in engine.nodes() {
            for p in node.db().held_partitions() {
                assert!(node.db().get(0, p, kv_key(p, 0)).is_ok());
            }
        }
        assert_eq!(engine.config().master_node(), 0);
    }

    #[test]
    fn partition_count_mismatch_is_rejected() {
        let config = ClusterConfig { partitions: 8, ..ClusterConfig::with_nodes(4) };
        let wl = KvWorkload::new(4);
        assert!(matches!(StarEngine::new(config, Arc::new(wl)), Err(Error::Config(_))));
    }

    #[test]
    fn replica_targets_cover_full_replicas_and_secondary() {
        let config = ClusterConfig { partitions: 8, ..ClusterConfig::with_nodes(4) };
        let healthy = [false; 4];
        let targets = |from, p| config.replica_targets(&healthy, from, p);
        // Partition 1 is primary on partial node 1; at the default
        // replication factor of 2 its only other copy is the full replica.
        assert_eq!(targets(1, 1), vec![0]);
        // From the master (node 0), the same partition's target is node 1.
        assert_eq!(targets(0, 1), vec![1]);
        // Partition 0 is mastered *on* the full replica, so it must get a
        // partial secondary — the partial replicas together hold a full copy.
        assert_eq!(targets(0, 0), vec![1]);
        // A replication factor of 3 brings back the partial-partial backup,
        // and a failed holder stops being a target.
        let config = config.to_builder().replication_factor(3).build().unwrap();
        assert_eq!(config.replica_targets(&healthy, 1, 1), vec![0, 2]);
        assert_eq!(config.replica_targets(&[false, false, true, false], 1, 1), vec![0]);
    }

    #[test]
    fn writes_are_replicated_at_least_f_plus_one_times() {
        // Paper invariant: writes of committed transactions are replicated at
        // least f+1 times on a cluster of f+k nodes.
        let config = ClusterConfig { partitions: 8, ..ClusterConfig::with_nodes(4) };
        for p in 0..8 {
            let holders = (0..4).filter(|&n| config.node_stores_partition(n, p)).count();
            assert!(holders > config.full_replicas);
        }
    }
}
