//! The YCSB workload (Section 7.1.1).

use rand::rngs::StdRng;
use rand::Rng;
use star_common::rng::{random_bytes, Zipf};
use star_common::{FieldValue, Operation, PackedRow, PartitionId, Result, RowBuilder};
use star_core::{Workload, WorkloadMix};
use star_occ::{Procedure, TxnCtx};
use star_storage::{Database, TableSpec};

/// Table id of the single YCSB table.
pub const YCSB_TABLE: u32 = 0;

/// Number of columns per YCSB record.
pub const COLUMNS: usize = 10;

/// Bytes per column.
pub const COLUMN_BYTES: usize = 10;

/// Key stride separating partitions in the key space.
const PARTITION_STRIDE: u64 = 1 << 32;

/// Encodes a `(partition, offset)` pair into a YCSB primary key.
pub fn ycsb_key(partition: PartitionId, offset: u64) -> u64 {
    (partition as u64) * PARTITION_STRIDE + offset
}

/// Configuration of the YCSB workload.
#[derive(Debug, Clone, PartialEq)]
pub struct YcsbConfig {
    /// Number of partitions.
    pub partitions: usize,
    /// Rows loaded per partition (the paper uses 200 000).
    pub rows_per_partition: u64,
    /// Operations per transaction (the paper uses 10).
    pub ops_per_transaction: usize,
    /// Fraction of operations that are reads (the paper's 90/10 mix = 0.9).
    pub read_fraction: f64,
    /// Zipfian skew of key accesses; 0.0 is the uniform distribution used in
    /// the paper's experiments.
    pub zipf_theta: f64,
    /// Fraction of cross-partition transactions.
    pub cross_partition_fraction: f64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            partitions: 8,
            rows_per_partition: 2_000,
            ops_per_transaction: 10,
            read_fraction: 0.9,
            zipf_theta: 0.0,
            cross_partition_fraction: 0.10,
        }
    }
}

/// One access of a YCSB transaction.
#[derive(Debug, Clone)]
struct YcsbOp {
    partition: PartitionId,
    key: u64,
    /// `Some(column, bytes)` for writes, `None` for reads.
    write: Option<(usize, Vec<u8>)>,
}

/// A YCSB multi-get/put transaction (10 operations by default).
#[derive(Debug)]
pub struct YcsbTransaction {
    ops: Vec<YcsbOp>,
}

impl Procedure for YcsbTransaction {
    fn name(&self) -> &'static str {
        "YCSB"
    }

    fn partitions(&self) -> Vec<PartitionId> {
        let mut ps: Vec<PartitionId> = self.ops.iter().map(|op| op.partition).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    fn execute(&self, ctx: &mut TxnCtx<'_>) -> Result<()> {
        for op in &self.ops {
            let current = ctx.read(YCSB_TABLE, op.partition, op.key)?;
            if let Some((column, bytes)) = &op.write {
                let mut new_row = current.unpack();
                new_row.set(*column, FieldValue::Bytes(bytes.clone()));
                // A single-column update is exactly the case where operation
                // replication saves bandwidth over shipping all 10 columns.
                ctx.update_with_operation(
                    YCSB_TABLE,
                    op.partition,
                    op.key,
                    new_row,
                    Operation::SetField { field: *column, value: FieldValue::Bytes(bytes.clone()) },
                );
            }
        }
        Ok(())
    }
}

/// The YCSB workload.
#[derive(Debug, Clone)]
pub struct YcsbWorkload {
    config: YcsbConfig,
    zipf: Option<Zipf>,
}

impl YcsbWorkload {
    /// Creates the workload from a configuration.
    pub fn new(config: YcsbConfig) -> Self {
        let zipf = if config.zipf_theta > 0.0 {
            Some(Zipf::new(config.rows_per_partition, config.zipf_theta))
        } else {
            None
        };
        YcsbWorkload { config, zipf }
    }

    /// The configuration in use.
    pub fn config(&self) -> &YcsbConfig {
        &self.config
    }

    fn random_offset(&self, rng: &mut StdRng) -> u64 {
        match &self.zipf {
            Some(zipf) => zipf.sample(rng),
            None => rng.gen_range(0..self.config.rows_per_partition),
        }
    }

    /// The next loaded row, packed as the record stores it: [`COLUMNS`]
    /// columns filled straight from `rng`.
    fn initial_row(builder: &mut RowBuilder, rng: &mut StdRng) -> PackedRow {
        for _ in 0..COLUMNS {
            builder.bytes_with(COLUMN_BYTES, |column| rng.fill(column));
        }
        builder.finish()
    }

    fn make_transaction(
        &self,
        rng: &mut StdRng,
        home: PartitionId,
        remote: Option<PartitionId>,
    ) -> YcsbTransaction {
        let mut ops = Vec::with_capacity(self.config.ops_per_transaction);
        let write_slot = rng.gen_range(0..self.config.ops_per_transaction);
        for i in 0..self.config.ops_per_transaction {
            // For cross-partition transactions, roughly half of the accesses
            // go to the remote partition, mirroring the multi-partition YCSB
            // variant used in the paper.
            let partition = match remote {
                Some(remote) if rng.gen_bool(0.5) => remote,
                _ => home,
            };
            let key = ycsb_key(partition, self.random_offset(rng));
            let is_write = if self.config.read_fraction >= 1.0 {
                false
            } else {
                i == write_slot || rng.gen::<f64>() > self.config.read_fraction
            };
            let write = if is_write {
                Some((rng.gen_range(0..COLUMNS), random_bytes(rng, COLUMN_BYTES)))
            } else {
                None
            };
            ops.push(YcsbOp { partition, key, write });
        }
        YcsbTransaction { ops }
    }
}

impl Workload for YcsbWorkload {
    fn name(&self) -> &'static str {
        "YCSB"
    }

    fn catalog(&self) -> Vec<TableSpec> {
        vec![TableSpec::new("usertable")]
    }

    fn num_partitions(&self) -> usize {
        self.config.partitions
    }

    fn mix(&self) -> WorkloadMix {
        WorkloadMix { cross_partition_fraction: self.config.cross_partition_fraction }
    }

    fn load_partition(&self, db: &Database, partition: PartitionId) {
        use rand::SeedableRng;
        // Deterministic per-partition seed so every replica loads identical
        // data for the partitions it holds.
        let mut rng = StdRng::seed_from_u64(0x9C5B_0000 ^ partition as u64);
        let mut builder = RowBuilder::new();
        for offset in 0..self.config.rows_per_partition {
            let key = ycsb_key(partition, offset);
            db.insert(YCSB_TABLE, partition, key, Self::initial_row(&mut builder, &mut rng))
                .expect("loading a held partition cannot fail");
        }
    }

    fn single_partition_transaction(
        &self,
        rng: &mut StdRng,
        partition: PartitionId,
    ) -> Box<dyn Procedure> {
        Box::new(self.make_transaction(rng, partition, None))
    }

    fn cross_partition_transaction(
        &self,
        rng: &mut StdRng,
        partition: PartitionId,
    ) -> Box<dyn Procedure> {
        if self.config.partitions < 2 {
            return self.single_partition_transaction(rng, partition);
        }
        let remote =
            (partition + 1 + rng.gen_range(0..self.config.partitions - 1)) % self.config.partitions;
        Box::new(self.make_transaction(rng, partition, Some(remote)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use star_storage::DatabaseBuilder;

    fn small_config() -> YcsbConfig {
        YcsbConfig { partitions: 4, rows_per_partition: 100, ..Default::default() }
    }

    fn build_db(wl: &YcsbWorkload) -> Database {
        let mut builder = DatabaseBuilder::new(wl.num_partitions());
        for spec in wl.catalog() {
            builder = builder.table(spec);
        }
        let db = builder.build();
        for p in 0..wl.num_partitions() {
            wl.load_partition(&db, p);
        }
        db
    }

    #[test]
    fn loads_the_requested_number_of_rows() {
        let wl = YcsbWorkload::new(small_config());
        let db = build_db(&wl);
        assert_eq!(db.len(), 4 * 100);
        let rec = db.get(YCSB_TABLE, 2, ycsb_key(2, 50)).unwrap();
        assert_eq!(rec.read().row.len(), COLUMNS);
    }

    #[test]
    fn loading_is_deterministic_across_replicas() {
        let wl = YcsbWorkload::new(small_config());
        let a = build_db(&wl);
        let b = build_db(&wl);
        let key = ycsb_key(1, 7);
        assert_eq!(
            a.get(YCSB_TABLE, 1, key).unwrap().read().row,
            b.get(YCSB_TABLE, 1, key).unwrap().read().row
        );
    }

    #[test]
    fn single_partition_transactions_stay_home() {
        let wl = YcsbWorkload::new(small_config());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let txn = wl.single_partition_transaction(&mut rng, 3);
            assert_eq!(txn.partitions(), vec![3]);
        }
    }

    #[test]
    fn cross_partition_transactions_touch_two_partitions() {
        let wl = YcsbWorkload::new(small_config());
        let mut rng = StdRng::seed_from_u64(2);
        let mut saw_two = false;
        for _ in 0..50 {
            let txn = wl.cross_partition_transaction(&mut rng, 0);
            let ps = txn.partitions();
            assert!(ps.contains(&0));
            assert!(ps.len() <= 2);
            saw_two |= ps.len() == 2;
        }
        assert!(saw_two, "cross-partition generator never touched a second partition");
    }

    #[test]
    fn transactions_execute_and_write_one_column() {
        let wl = YcsbWorkload::new(small_config());
        let db = build_db(&wl);
        let mut rng = StdRng::seed_from_u64(3);
        let txn = wl.single_partition_transaction(&mut rng, 1);
        let mut ctx = TxnCtx::new(&db);
        txn.execute(&mut ctx).unwrap();
        assert!(!ctx.write_set().is_empty(), "the 90/10 mix must produce at least one write");
        assert!(ctx.read_set().len() + ctx.write_set().len() >= wl.config().ops_per_transaction);
        // Writes registered an operation so hybrid replication can ship the
        // single column instead of the whole row.
        assert!(ctx.write_set().iter().all(|w| w.operation.is_some()));
    }

    #[test]
    fn read_only_configuration_generates_no_writes() {
        let mut config = small_config();
        config.read_fraction = 1.0;
        let wl = YcsbWorkload::new(config);
        let db = build_db(&wl);
        let mut rng = StdRng::seed_from_u64(4);
        let txn = wl.single_partition_transaction(&mut rng, 0);
        let mut ctx = TxnCtx::new(&db);
        txn.execute(&mut ctx).unwrap();
        assert!(ctx.write_set().is_empty());
    }

    #[test]
    fn zipfian_configuration_skews_accesses() {
        let mut config = small_config();
        config.rows_per_partition = 10_000;
        config.zipf_theta = 0.99;
        let wl = YcsbWorkload::new(config);
        let mut rng = StdRng::seed_from_u64(5);
        let mut head = 0usize;
        let mut total = 0usize;
        for _ in 0..200 {
            let txn = wl.make_transaction(&mut rng, 0, None);
            for op in &txn.ops {
                total += 1;
                if op.key - ycsb_key(0, 0) < 100 {
                    head += 1;
                }
            }
        }
        assert!(head as f64 / total as f64 > 0.1, "zipf skew not visible: {head}/{total}");
    }

    #[test]
    fn key_encoding_keeps_partitions_disjoint() {
        assert_ne!(ycsb_key(0, 123), ycsb_key(1, 123));
        assert!(ycsb_key(1, 0) > ycsb_key(0, u32::MAX as u64));
    }
}
