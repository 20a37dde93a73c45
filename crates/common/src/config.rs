//! Cluster, engine and replication configuration.
//!
//! The defaults mirror the experimental setup in Section 7.1 of the paper,
//! scaled down so that every figure can be regenerated on a laptop: the paper
//! runs 4 nodes × 12 workers over a 4.8 Gbit/s network; the defaults here run
//! 4 simulated nodes × 2 workers with a microsecond-scale latency model.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Which replication strategy is used for the writes of committed
/// transactions (Section 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicationStrategy {
    /// Ship the full row for every write. Safe to apply in any order under
    /// the Thomas write rule; required whenever a partition can be updated by
    /// multiple threads (the single-master phase).
    Value,
    /// Ship the operation (delta) only. Requires the per-partition stream to
    /// be produced by a single thread and applied in order (the partitioned
    /// phase).
    Operation,
    /// STAR's hybrid: value replication in the single-master phase, operation
    /// replication in the partitioned phase.
    Hybrid,
}

/// Whether replication of committed writes is synchronous (the primary holds
/// write locks until replicas acknowledge) or asynchronous with an epoch-based
/// group commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicationMode {
    /// Asynchronous replication + epoch-based group commit (STAR's default and
    /// the stronger configuration of the baselines).
    Async,
    /// Synchronous replication: every transaction waits for a replication
    /// round trip before releasing its locks.
    Sync,
}

/// Which engine a benchmark run drives. Used by the benchmark harness to
/// label series exactly as the paper's figures do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// The STAR engine (phase switching over asymmetric replication).
    Star,
    /// Primary/backup Silo-style OCC on a single primary (non-partitioned).
    PbOcc,
    /// Distributed OCC with two-phase commit (partitioning-based).
    DistOcc,
    /// Distributed strict two-phase locking, NO_WAIT, with two-phase commit.
    DistS2pl,
    /// Calvin with a multi-threaded lock manager (`Calvin-x`).
    Calvin,
}

impl EngineKind {
    /// Label used in figure output, matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Star => "STAR",
            EngineKind::PbOcc => "PB. OCC",
            EngineKind::DistOcc => "Dist. OCC",
            EngineKind::DistS2pl => "Dist. S2PL",
            EngineKind::Calvin => "Calvin",
        }
    }
}

/// Configuration of a (simulated) STAR cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Total number of nodes, `n = f + k`.
    pub num_nodes: usize,
    /// Number of nodes holding a full replica (`f` in the paper). STAR
    /// requires `f >= 1`; the designated master is chosen among these.
    pub full_replicas: usize,
    /// Worker threads per node.
    pub workers_per_node: usize,
    /// Number of partitions in the database. The paper sets this to the total
    /// number of worker threads.
    pub partitions: usize,
    /// Iteration time `e = τp + τs` of the phase-switching algorithm.
    pub iteration: Duration,
    /// Replication strategy for committed writes.
    pub replication_strategy: ReplicationStrategy,
    /// Synchronous or asynchronous replication.
    pub replication_mode: ReplicationMode,
    /// Number of replicas of each partition (primary + backups). The paper's
    /// experiments use 2.
    pub replication_factor: usize,
    /// One-way network latency applied by the simulated network to every
    /// message between distinct nodes.
    pub network_latency: Duration,
    /// Whether the write-ahead log is enabled (Figure 15(b)).
    pub disk_logging: bool,
    /// Base seed mixed into every worker's transaction-generation RNG (the
    /// initial data load uses fixed per-partition seeds and is unaffected, so
    /// replicas stay identical). Two runs with the same configuration and
    /// seed draw identical transaction streams, which is what the benchmark
    /// harness's `--seed` flag relies on.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_nodes: 4,
            full_replicas: 1,
            workers_per_node: 2,
            partitions: 8,
            iteration: Duration::from_millis(10),
            replication_strategy: ReplicationStrategy::Hybrid,
            replication_mode: ReplicationMode::Async,
            replication_factor: 2,
            network_latency: Duration::from_micros(100),
            disk_logging: false,
            seed: 0,
        }
    }
}

/// Validating builder for [`ClusterConfig`].
///
/// This is the sanctioned way to construct a configuration outside
/// `crates/core`: every setter mirrors one field, `nodes(n)` keeps the
/// paper's `partitions = total workers` convention unless `partitions` is
/// set explicitly, and [`build`](Self::build) rejects infeasible topologies
/// with a typed [`Error::Config`](crate::Error::Config) instead of letting a
/// field-poked struct reach an engine.
#[derive(Debug, Clone, Default)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
    explicit_partitions: bool,
}

impl ClusterConfigBuilder {
    /// Sets the number of nodes. Unless [`partitions`](Self::partitions) is
    /// called, the partition count tracks `nodes * workers_per_node`.
    pub fn nodes(mut self, num_nodes: usize) -> Self {
        self.config.num_nodes = num_nodes;
        self
    }

    /// Sets the number of full-replica nodes (`f` in the paper).
    pub fn full_replicas(mut self, full_replicas: usize) -> Self {
        self.config.full_replicas = full_replicas;
        self
    }

    /// Sets the number of worker threads per node.
    pub fn workers_per_node(mut self, workers: usize) -> Self {
        self.config.workers_per_node = workers;
        self
    }

    /// Sets an explicit partition count, overriding the
    /// `partitions = total workers` convention.
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.config.partitions = partitions;
        self.explicit_partitions = true;
        self
    }

    /// Sets the phase-switching iteration time `e`.
    pub fn iteration(mut self, iteration: Duration) -> Self {
        self.config.iteration = iteration;
        self
    }

    /// Sets the replication strategy.
    pub fn replication_strategy(mut self, strategy: ReplicationStrategy) -> Self {
        self.config.replication_strategy = strategy;
        self
    }

    /// Sets synchronous or asynchronous replication.
    pub fn replication_mode(mut self, mode: ReplicationMode) -> Self {
        self.config.replication_mode = mode;
        self
    }

    /// Sets the replication factor.
    pub fn replication_factor(mut self, factor: usize) -> Self {
        self.config.replication_factor = factor;
        self
    }

    /// Sets the simulated one-way network latency.
    pub fn network_latency(mut self, latency: Duration) -> Self {
        self.config.network_latency = latency;
        self
    }

    /// Enables or disables write-ahead logging.
    pub fn disk_logging(mut self, enabled: bool) -> Self {
        self.config.disk_logging = enabled;
        self
    }

    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates and returns the configuration, or a typed
    /// [`Error::Config`](crate::Error::Config) describing why the topology is
    /// infeasible.
    pub fn build(mut self) -> Result<ClusterConfig, crate::Error> {
        if !self.explicit_partitions {
            self.config.partitions = self.config.num_nodes * self.config.workers_per_node;
        }
        self.config.validate().map_err(crate::Error::Config)?;
        Ok(self.config)
    }
}

impl ClusterConfig {
    /// Starts a validating builder from the default configuration.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder::default()
    }

    /// Starts a builder seeded from this configuration (for derived variants
    /// — e.g. the same cluster with synchronous replication). The partition
    /// count is kept as-is rather than re-derived.
    pub fn to_builder(&self) -> ClusterConfigBuilder {
        ClusterConfigBuilder { config: self.clone(), explicit_partitions: true }
    }

    /// Base value every engine mixes (XOR) into its per-worker RNG seeds. The
    /// Fibonacci multiply spreads low-entropy seeds across the word; seed 0
    /// maps to 0 on purpose, which reproduces the pre-`seed` constants so the
    /// default configuration draws the same streams as older builds. All
    /// engines must derive worker seeds from this one value — that is the
    /// "same seed, same transaction streams" contract `star-bench --seed`
    /// relies on.
    pub fn rng_seed_base(&self) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// A config with `n` nodes and the default per-node settings, keeping the
    /// paper's convention `partitions = total workers`.
    pub fn with_nodes(num_nodes: usize) -> Self {
        let mut c = ClusterConfig { num_nodes, ..Default::default() };
        c.partitions = c.num_nodes * c.workers_per_node;
        c
    }

    /// Number of partial-replica nodes (`k` in the paper).
    pub fn partial_replicas(&self) -> usize {
        self.num_nodes.saturating_sub(self.full_replicas)
    }

    /// Total number of worker threads in the cluster.
    pub fn total_workers(&self) -> usize {
        self.num_nodes * self.workers_per_node
    }

    /// Which node owns (is primary for) a partition during the partitioned
    /// phase. Partitions are assigned round-robin across all nodes, as in
    /// Figure 2 of the paper where every node masters a portion of the
    /// database.
    pub fn partition_primary(&self, partition: usize) -> usize {
        partition % self.num_nodes
    }

    /// The partial-replica node holding the backup (secondary) copy of a
    /// partition, if the partition needs one.
    ///
    /// The paper requires that the `k` partial replicas *together* contain at
    /// least one full copy of the database, so a partition mastered on a
    /// full-replica node always gets a partial secondary. A partition
    /// mastered on a partial node is already stored at every full replica;
    /// it gets an extra partial secondary only when `replication_factor`
    /// asks for more copies than primary + full replicas provide. (An
    /// unconditional extra secondary here used to give most partitions three
    /// copies in the default two-replica configuration — every partitioned
    /// commit paid one redundant replica apply beyond the paper's layout.)
    pub fn partition_secondary(&self, partition: usize) -> Option<usize> {
        let primary = self.partition_primary(partition);
        let k = self.partial_replicas();
        if k == 0 {
            // Every node is a full replica; every copy already exists.
            return None;
        }
        if primary < self.full_replicas {
            // Primary on a full replica: the secondary must be a partial
            // replica so that the partial replicas cover this partition.
            return Some(self.full_replicas + (partition % k));
        }
        // Primary on a partial replica: the full replicas already back it up.
        if 1 + self.full_replicas >= self.replication_factor || k == 1 {
            return None;
        }
        let offset = primary - self.full_replicas;
        Some(self.full_replicas + ((offset + 1) % k))
    }

    /// The designated master node for the single-master phase: the first
    /// full-replica node.
    pub fn master_node(&self) -> usize {
        0
    }

    /// True if `node` holds a full replica.
    pub fn is_full_replica(&self, node: usize) -> bool {
        node < self.full_replicas
    }

    /// Partitions whose primary is `node`.
    pub fn partitions_of(&self, node: usize) -> Vec<usize> {
        (0..self.partitions).filter(|p| self.partition_primary(*p) == node).collect()
    }

    /// True if `node` stores (a primary or secondary copy of) `partition`.
    pub fn node_stores_partition(&self, node: usize, partition: usize) -> bool {
        self.is_full_replica(node)
            || self.partition_primary(partition) == node
            || self.partition_secondary(partition) == Some(node)
    }

    /// The partitions `node`'s replica holds, ascending — the replica layout
    /// of Figure 2: everything on a full replica, primary and secondary
    /// copies on a partial one.
    pub fn held_partitions(&self, node: usize) -> Vec<usize> {
        (0..self.partitions).filter(|&p| self.node_stores_partition(node, p)).collect()
    }

    /// Healthy nodes holding `partition`, ascending. `failed[n]` marks node
    /// `n` failed; ids the vector does not cover count as failed, so they
    /// can never serve a phase, win an election or source a recovery.
    fn healthy_holders<'a>(
        &'a self,
        failed: &'a [bool],
        partition: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        (0..self.num_nodes).filter(move |&n| {
            failed.get(n) == Some(&false) && self.node_stores_partition(n, partition)
        })
    }

    /// Failover routing: the node executing `partition` in the partitioned
    /// phase — its configured primary while that is healthy, otherwise the
    /// lowest-id healthy holder (re-mastering, Case 3). `None` when no
    /// healthy node holds the partition.
    pub fn effective_primary(&self, failed: &[bool], partition: usize) -> Option<usize> {
        let primary = self.partition_primary(partition);
        if failed.get(primary) == Some(&false) {
            return Some(primary);
        }
        self.healthy_holders(failed, partition).next()
    }

    /// Replica targets: the healthy holders of `partition` other than the
    /// sender `from`, ascending — who receives a committed write to it.
    pub fn replica_targets(&self, failed: &[bool], from: usize, partition: usize) -> Vec<usize> {
        self.healthy_holders(failed, partition).filter(|&n| n != from).collect()
    }

    /// Healthy nodes other than `node`, ascending — who the single-master
    /// phase replicates to when `node` is the master.
    pub fn healthy_peers(&self, failed: &[bool], node: usize) -> Vec<usize> {
        (0..self.num_nodes).filter(|&n| n != node && failed.get(n) == Some(&false)).collect()
    }

    /// Recovery source: the lowest-id healthy holder of `partition` other
    /// than the recovering `node`.
    pub fn recovery_source(&self, failed: &[bool], node: usize, partition: usize) -> Option<usize> {
        self.healthy_holders(failed, partition).find(|&n| n != node)
    }

    /// Whether `node` can catch up from memory: every partition it holds has
    /// a [`recovery_source`](Self::recovery_source).
    pub fn can_recover(&self, failed: &[bool], node: usize) -> bool {
        self.held_partitions(node)
            .into_iter()
            .all(|p| self.recovery_source(failed, node, p).is_some())
    }

    /// The deterministic master election: the lowest-id healthy full
    /// replica, or `None` when no full replica survives (Cases 2 and 4).
    pub fn elected_master(&self, failed: &[bool]) -> Option<usize> {
        (0..self.full_replicas).find(|&n| failed.get(n) == Some(&false))
    }

    /// Validates the configuration, returning a human-readable reason if it
    /// is not runnable.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_nodes == 0 {
            return Err("cluster must have at least one node".into());
        }
        if self.full_replicas == 0 {
            return Err("STAR requires at least one full replica (f >= 1)".into());
        }
        if self.full_replicas > self.num_nodes {
            return Err(format!(
                "full_replicas ({}) exceeds num_nodes ({})",
                self.full_replicas, self.num_nodes
            ));
        }
        if self.workers_per_node == 0 {
            return Err("workers_per_node must be positive".into());
        }
        if self.partitions == 0 {
            return Err("partitions must be positive".into());
        }
        if self.replication_factor < 1 {
            return Err("replication_factor must be at least 1".into());
        }
        if self.iteration.is_zero() {
            return Err("iteration time must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_matches_paper_shape() {
        let c = ClusterConfig::default();
        c.validate().unwrap();
        assert_eq!(c.num_nodes, 4);
        assert_eq!(c.full_replicas, 1);
        assert_eq!(c.partial_replicas(), 3);
        assert_eq!(c.iteration, Duration::from_millis(10));
    }

    #[test]
    fn with_nodes_scales_partitions() {
        let c = ClusterConfig::with_nodes(8);
        assert_eq!(c.num_nodes, 8);
        assert_eq!(c.partitions, 8 * c.workers_per_node);
        c.validate().unwrap();
    }

    #[test]
    fn partition_layout_round_robin() {
        let c = ClusterConfig::with_nodes(4);
        assert_eq!(c.partition_primary(0), 0);
        assert_eq!(c.partition_primary(1), 1);
        assert_eq!(c.partition_primary(5), 1);
        // Partition 0 is mastered on the full replica, so its secondary must
        // sit on a partial node; partition 3's primary is a partial node
        // already backed by the full replica, so no secondary is needed at
        // the default replication factor of 2.
        assert_eq!(c.partition_secondary(0), Some(1));
        assert_eq!(c.partition_secondary(3), None);
        let c3 = ClusterConfig { replication_factor: 3, ..ClusterConfig::with_nodes(4) };
        assert_eq!(c3.partition_secondary(3), Some(1));
        let mine = c.partitions_of(2);
        assert!(mine.iter().all(|p| c.partition_primary(*p) == 2));
    }

    #[test]
    fn full_replica_stores_everything() {
        let c = ClusterConfig::with_nodes(4);
        for p in 0..c.partitions {
            assert!(c.node_stores_partition(0, p));
        }
        // a partial replica node stores only its own + secondary partitions
        let stored: Vec<_> = (0..c.partitions).filter(|p| c.node_stores_partition(2, *p)).collect();
        assert!(stored.len() < c.partitions);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = ClusterConfig { full_replicas: 0, ..ClusterConfig::default() };
        assert!(c.validate().is_err());
        let c = ClusterConfig { num_nodes: 0, ..ClusterConfig::default() };
        assert!(c.validate().is_err());
        let c = ClusterConfig { full_replicas: 9, ..ClusterConfig::default() };
        assert!(c.validate().is_err());
        let c = ClusterConfig { iteration: Duration::ZERO, ..ClusterConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_tracks_the_partitions_convention_and_validates() {
        let c = ClusterConfig::builder()
            .nodes(4)
            .full_replicas(2)
            .workers_per_node(3)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(c.partitions, 12, "partitions = total workers unless set explicitly");
        assert_eq!(c.full_replicas, 2);
        assert_eq!(c.seed, 7);

        let c = ClusterConfig::builder().nodes(4).partitions(5).build().unwrap();
        assert_eq!(c.partitions, 5);

        // Infeasible topologies come back as typed Error::Config.
        let err = ClusterConfig::builder().nodes(2).full_replicas(3).build().unwrap_err();
        assert!(matches!(err, crate::Error::Config(_)), "{err:?}");
        assert!(ClusterConfig::builder().nodes(0).build().is_err());
        assert!(ClusterConfig::builder().iteration(Duration::ZERO).build().is_err());
    }

    #[test]
    fn to_builder_round_trips_and_supports_variants() {
        let base = ClusterConfig::builder().nodes(4).build().unwrap();
        let same = base.to_builder().build().unwrap();
        assert_eq!(base, same);
        let sync = base.to_builder().replication_mode(ReplicationMode::Sync).build().unwrap();
        assert_eq!(sync.replication_mode, ReplicationMode::Sync);
        assert_eq!(sync.partitions, base.partitions, "partition count is preserved");
    }

    #[test]
    fn engine_labels_match_paper() {
        assert_eq!(EngineKind::Star.label(), "STAR");
        assert_eq!(EngineKind::PbOcc.label(), "PB. OCC");
        assert_eq!(EngineKind::DistOcc.label(), "Dist. OCC");
        assert_eq!(EngineKind::DistS2pl.label(), "Dist. S2PL");
        assert_eq!(EngineKind::Calvin.label(), "Calvin");
    }
}
