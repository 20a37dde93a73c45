//! Construction of a simulated STAR cluster: replicas + network.

use crate::messages::ReplicationBatch;
use crate::workload::Workload;
use star_common::{ClusterConfig, Error, NodeId, Result};
use star_net::{Endpoint, NetworkConfig, SimNetwork};
use star_storage::{Database, DatabaseBuilder};
use std::sync::Arc;

/// Builds node `id`'s replica: the workload's catalog, the partitions the
/// configuration's layout assigns the node (Figure 2), each loaded from the
/// workload's deterministic initial state. The simulated cluster and
/// `star-serverd` both build their replicas here, so they start identical.
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

/// One node of the simulated cluster.
pub struct ClusterNode {
    /// Node id.
    pub id: NodeId,
    /// This node's replica of the database (full or partial).
    pub db: Arc<Database>,
    /// This node's endpoint on the simulated network.
    pub endpoint: Arc<Endpoint<ReplicationBatch>>,
}

impl std::fmt::Debug for ClusterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterNode")
            .field("id", &self.id)
            .field("full_replica", &self.db.is_full_replica())
            .field("held_partitions", &self.db.held_partitions().len())
            .finish()
    }
}

/// A simulated STAR cluster: `f` full replicas, `k` partial replicas, and the
/// network connecting them.
pub struct StarCluster {
    config: ClusterConfig,
    nodes: Vec<ClusterNode>,
    network: SimNetwork,
}

impl std::fmt::Debug for StarCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StarCluster")
            .field("nodes", &self.nodes.len())
            .field("config", &self.config)
            .finish()
    }
}

impl StarCluster {
    /// Builds the cluster for a workload: the network plus one
    /// [`build_replica`] per node.
    pub fn build(config: &ClusterConfig, workload: &dyn Workload) -> Result<Self> {
        config.validate().map_err(Error::Config)?;
        if workload.num_partitions() != config.partitions {
            return Err(Error::Config(format!(
                "workload has {} partitions but the cluster is configured for {}",
                workload.num_partitions(),
                config.partitions
            )));
        }
        let net_config = NetworkConfig::with_latency(config.network_latency);
        let (network, endpoints) =
            SimNetwork::new::<ReplicationBatch>(config.num_nodes, net_config);

        let nodes = endpoints
            .into_iter()
            .enumerate()
            .map(|(id, endpoint)| ClusterNode {
                id,
                db: build_replica(config, workload, id),
                endpoint: Arc::new(endpoint),
            })
            .collect();
        Ok(StarCluster { config: config.clone(), nodes, network })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// All nodes.
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// One node.
    pub fn node(&self, id: NodeId) -> Option<&ClusterNode> {
        self.nodes.get(id)
    }

    /// The designated master node (first full replica), when the configured
    /// master id names an existing node.
    pub fn master(&self) -> Option<&ClusterNode> {
        self.nodes.get(self.config.master_node())
    }

    /// The simulated network (failure injection, traffic statistics).
    pub fn network(&self) -> &SimNetwork {
        &self.network
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{kv_key, KvWorkload};

    #[test]
    fn build_assigns_full_and_partial_replicas() {
        let config = ClusterConfig { partitions: 8, ..ClusterConfig::with_nodes(4) };
        let wl =
            KvWorkload { partitions: 8, rows_per_partition: 10, cross_partition_fraction: 0.1 };
        let cluster = StarCluster::build(&config, &wl).unwrap();
        assert_eq!(cluster.nodes().len(), 4);
        assert!(cluster.node(0).unwrap().db.is_full_replica());
        for id in 1..4 {
            assert!(!cluster.node(id).unwrap().db.is_full_replica());
        }
        // Every replica holds loaded data for each partition it stores.
        for node in cluster.nodes() {
            for p in node.db.held_partitions() {
                assert!(node.db.get(0, p, kv_key(p, 0)).is_ok());
            }
        }
        assert_eq!(cluster.master().unwrap().id, 0);
    }

    #[test]
    fn partition_count_mismatch_is_rejected() {
        let config = ClusterConfig { partitions: 8, ..ClusterConfig::with_nodes(4) };
        let wl = KvWorkload::new(4);
        assert!(matches!(StarCluster::build(&config, &wl), Err(Error::Config(_))));
    }

    #[test]
    fn replica_targets_cover_full_replicas_and_secondary() {
        let config = ClusterConfig { partitions: 8, ..ClusterConfig::with_nodes(4) };
        let wl = KvWorkload::new(8);
        let cluster = StarCluster::build(&config, &wl).unwrap();
        let healthy = [false; 4];
        let targets = |from, p| cluster.config().replica_targets(&healthy, from, p);
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
        let wl = KvWorkload::new(8);
        let cluster = StarCluster::build(&config, &wl).unwrap();
        for p in 0..8 {
            let holders = (0..4).filter(|&n| cluster.config().node_stores_partition(n, p)).count();
            assert!(holders > cluster.config().full_replicas);
        }
    }
}
