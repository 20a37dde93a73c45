//! A miniature key-value workload used by unit tests, integration tests and
//! micro-benchmarks inside this repository.
//!
//! It is intentionally trivial — one table, fixed-size rows, read-modify-write
//! transactions — so that tests exercising the engine's *protocol* behaviour
//! (phase switching, replication, fences, recovery) do not also depend on the
//! full YCSB / TPC-C implementations in `star-workloads`.

use crate::workload::{Workload, WorkloadMix};
use rand::rngs::StdRng;
use rand::Rng;
use star_common::row::row;
use star_common::{FieldRef, FieldValue, PartitionId, Result};
use star_occ::{Procedure, TxnCtx};
use star_storage::{Database, TableSpec};

/// Number of keys reserved per partition in the key-encoding scheme.
const PARTITION_STRIDE: u64 = 1_000_000;

/// Encodes a `(partition, offset)` pair into a primary key.
pub fn kv_key(partition: PartitionId, offset: u64) -> u64 {
    partition as u64 * PARTITION_STRIDE + offset
}

/// A small single-table key-value workload.
#[derive(Debug, Clone)]
pub struct KvWorkload {
    /// Number of partitions.
    pub partitions: usize,
    /// Rows loaded per partition.
    pub rows_per_partition: u64,
    /// Fraction of cross-partition transactions generated by
    /// [`Workload::mixed_transaction`].
    pub cross_partition_fraction: f64,
}

impl KvWorkload {
    /// A workload with the given partition count, 64 rows per partition and a
    /// 10% cross-partition mix.
    pub fn new(partitions: usize) -> Self {
        KvWorkload { partitions, rows_per_partition: 64, cross_partition_fraction: 0.1 }
    }
}

/// Read-modify-write over one or two partitions.
#[derive(Debug)]
pub struct KvRmw {
    /// `(partition, key)` pairs this transaction increments.
    pub targets: Vec<(PartitionId, u64)>,
}

impl Procedure for KvRmw {
    fn name(&self) -> &'static str {
        "KvRmw"
    }

    fn partitions(&self) -> Vec<PartitionId> {
        let mut ps: Vec<PartitionId> = self.targets.iter().map(|(p, _)| *p).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<()> {
        for &(partition, key) in &self.targets {
            let current = ctx.read(0, partition, key)?;
            let value = current.field(0).and_then(FieldRef::as_u64).unwrap_or(0);
            ctx.update(0, partition, key, row([FieldValue::U64(value + 1)]));
        }
        Ok(())
    }
}

impl Workload for KvWorkload {
    fn name(&self) -> &'static str {
        "kv"
    }

    fn catalog(&self) -> Vec<TableSpec> {
        vec![TableSpec::new("kv")]
    }

    fn num_partitions(&self) -> usize {
        self.partitions
    }

    fn mix(&self) -> WorkloadMix {
        WorkloadMix { cross_partition_fraction: self.cross_partition_fraction }
    }

    fn load_partition(&self, db: &Database, partition: PartitionId) {
        for offset in 0..self.rows_per_partition {
            db.insert(0, partition, kv_key(partition, offset), row([FieldValue::U64(0)]))
                .expect("loading a held partition cannot fail");
        }
    }

    fn single_partition_transaction(
        &self,
        rng: &mut StdRng,
        partition: PartitionId,
    ) -> Box<dyn Procedure> {
        let a = rng.gen_range(0..self.rows_per_partition);
        let b = rng.gen_range(0..self.rows_per_partition);
        Box::new(KvRmw {
            targets: vec![(partition, kv_key(partition, a)), (partition, kv_key(partition, b))],
        })
    }

    fn cross_partition_transaction(
        &self,
        rng: &mut StdRng,
        partition: PartitionId,
    ) -> Box<dyn Procedure> {
        if self.partitions < 2 {
            return self.single_partition_transaction(rng, partition);
        }
        let other = (partition + 1 + rng.gen_range(0..self.partitions - 1)) % self.partitions;
        let a = rng.gen_range(0..self.rows_per_partition);
        let b = rng.gen_range(0..self.rows_per_partition);
        Box::new(KvRmw {
            targets: vec![(partition, kv_key(partition, a)), (other, kv_key(other, b))],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn key_encoding_is_partition_disjoint() {
        assert_ne!(kv_key(0, 5), kv_key(1, 5));
        assert_eq!(kv_key(2, 7), 2_000_007);
    }

    #[test]
    fn generated_transactions_touch_the_expected_partitions() {
        let wl = KvWorkload::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        let single = wl.single_partition_transaction(&mut rng, 2);
        assert_eq!(single.partitions(), vec![2]);
        assert!(single.is_single_partition());
        let cross = wl.cross_partition_transaction(&mut rng, 2);
        assert_eq!(cross.partitions().len(), 2);
        assert!(!cross.is_single_partition());
    }

    #[test]
    fn single_partition_fallback_when_only_one_partition() {
        let wl = KvWorkload::new(1);
        let mut rng = StdRng::seed_from_u64(2);
        let cross = wl.cross_partition_transaction(&mut rng, 0);
        assert!(cross.is_single_partition());
    }

    #[test]
    fn mixed_transactions_follow_the_configured_fraction() {
        let wl =
            KvWorkload { partitions: 4, rows_per_partition: 16, cross_partition_fraction: 0.5 };
        let mut rng = StdRng::seed_from_u64(3);
        let total = 2_000;
        let cross =
            (0..total).filter(|_| !wl.mixed_transaction(&mut rng, 0).is_single_partition()).count();
        let fraction = cross as f64 / total as f64;
        assert!((fraction - 0.5).abs() < 0.05, "fraction={fraction}");
    }
}
