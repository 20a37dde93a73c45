//! The per-replica database: a catalog of tables over a fixed partition
//! layout, plus the subset of partitions this replica actually holds.

use crate::record::Record;
use crate::table::Table;
use star_common::{Epoch, Error, Key, PackedRow, PartitionId, Result, TableId, Tid};
use std::sync::Arc;

/// Static description of one table in the catalog.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Human-readable table name.
    pub name: String,
    /// Number of secondary indexes to create.
    pub secondary_indexes: usize,
}

impl TableSpec {
    /// Creates a spec with no secondary indexes.
    pub fn new(name: impl Into<String>) -> Self {
        TableSpec { name: name.into(), secondary_indexes: 0 }
    }

    /// Creates a spec with `secondary_indexes` secondary indexes.
    pub fn with_secondary(name: impl Into<String>, secondary_indexes: usize) -> Self {
        TableSpec { name: name.into(), secondary_indexes }
    }
}

/// Builder for a [`Database`] replica.
#[derive(Debug, Default)]
pub struct DatabaseBuilder {
    tables: Vec<TableSpec>,
    partitions: usize,
    held: Option<Vec<PartitionId>>,
}

impl DatabaseBuilder {
    /// Starts a builder for a database with `partitions` partitions.
    pub fn new(partitions: usize) -> Self {
        DatabaseBuilder { tables: Vec::new(), partitions, held: None }
    }

    /// Adds a table to the catalog; tables are numbered in insertion order.
    pub fn table(mut self, spec: TableSpec) -> Self {
        self.tables.push(spec);
        self
    }

    /// Restricts the replica to holding only `partitions` (a partial
    /// replica). By default every partition is held (a full replica).
    pub fn holding(mut self, partitions: Vec<PartitionId>) -> Self {
        self.held = Some(partitions);
        self
    }

    /// Builds the database.
    pub fn build(self) -> Database {
        let mut held = vec![false; self.partitions];
        match &self.held {
            None => held.iter_mut().for_each(|h| *h = true),
            Some(ps) => {
                for &p in ps {
                    if p < self.partitions {
                        held[p] = true;
                    }
                }
            }
        }
        Database {
            tables: self
                .tables
                .into_iter()
                .map(|spec| Table::new(spec.name, self.partitions, spec.secondary_indexes))
                .collect(),
            partitions: self.partitions,
            held,
        }
    }
}

/// One replica of the database.
///
/// All replicas share the same catalog and partition count; they differ only
/// in which partitions they hold. Probing a partition that is not held
/// returns [`Error::NoSuchPartition`], which is how the engine catches layout
/// bugs (e.g. routing a single-partition transaction to the wrong node).
#[derive(Debug)]
pub struct Database {
    tables: Vec<Table>,
    partitions: usize,
    held: Vec<bool>,
}

impl Database {
    /// Number of partitions in the layout (not the number held).
    pub fn num_partitions(&self) -> usize {
        self.partitions
    }

    /// Number of tables in the catalog.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Whether this replica holds `partition`.
    pub fn holds(&self, partition: PartitionId) -> bool {
        self.held.get(partition).copied().unwrap_or(false)
    }

    /// The partitions this replica holds.
    pub fn held_partitions(&self) -> Vec<PartitionId> {
        self.held.iter().enumerate().filter(|(_, h)| **h).map(|(p, _)| p).collect()
    }

    /// Whether this replica holds every partition (is a full replica).
    pub fn is_full_replica(&self) -> bool {
        self.held.iter().all(|h| *h)
    }

    /// Marks a partition as held (used when re-mastering partitions onto a
    /// full replica during recovery Case 3, or when a recovered node has
    /// finished copying data).
    pub fn acquire_partition(&mut self, partition: PartitionId) -> Result<()> {
        if partition >= self.partitions {
            return Err(Error::NoSuchPartition(partition));
        }
        self.held[partition] = true;
        Ok(())
    }

    /// Borrow a table by id.
    pub fn table(&self, table: TableId) -> Result<&Table> {
        self.tables.get(table as usize).ok_or(Error::NoSuchTable(table))
    }

    /// Looks up a table by name (loaders, tests).
    pub fn table_by_name(&self, name: &str) -> Option<(TableId, &Table)> {
        self.tables
            .iter()
            .enumerate()
            .find(|(_, t)| t.name() == name)
            .map(|(id, t)| (id as TableId, t))
    }

    fn check_partition(&self, partition: PartitionId) -> Result<()> {
        if partition >= self.partitions || !self.held[partition] {
            Err(Error::NoSuchPartition(partition))
        } else {
            Ok(())
        }
    }

    /// Point lookup of a record handle.
    pub fn get(&self, table: TableId, partition: PartitionId, key: Key) -> Result<Arc<Record>> {
        self.check_partition(partition)?;
        self.table(table)?.get(partition, key).ok_or(Error::KeyNotFound { table, key })
    }

    /// Point lookup that returns `None` rather than an error for a missing
    /// key (but still errors on a partition this replica does not hold).
    pub fn try_get(
        &self,
        table: TableId,
        partition: PartitionId,
        key: Key,
    ) -> Result<Option<Arc<Record>>> {
        self.check_partition(partition)?;
        Ok(self.table(table)?.get(partition, key))
    }

    /// Returns the record under `key`, creating it with `make` if absent.
    ///
    /// This is the hot path of OCC inserts: concurrent inserters of the same
    /// key race benignly inside the shard and converge on one record, and a
    /// key that already exists is resolved under a shard read lock without
    /// ever running `make`.
    pub fn get_or_insert_with(
        &self,
        table: TableId,
        partition: PartitionId,
        key: Key,
        make: impl FnOnce() -> Record,
    ) -> Result<Arc<Record>> {
        self.check_partition(partition)?;
        self.table(table)?
            .get_or_insert_with(partition, key, make)
            .ok_or(Error::NoSuchPartition(partition))
    }

    /// Inserts a freshly loaded row (TID zero).
    pub fn insert(
        &self,
        table: TableId,
        partition: PartitionId,
        key: Key,
        row: impl Into<PackedRow>,
    ) -> Result<Arc<Record>> {
        self.check_partition(partition)?;
        self.table(table)?.insert(partition, key, row).ok_or(Error::NoSuchPartition(partition))
    }

    /// Applies a replicated full-row write with the Thomas write rule,
    /// inserting the key if it does not exist. Returns `true` if the write
    /// was installed (i.e. it was not stale).
    pub fn apply_value_write(
        &self,
        table: TableId,
        partition: PartitionId,
        key: Key,
        row: impl Into<PackedRow>,
        tid: Tid,
    ) -> Result<bool> {
        self.check_partition(partition)?;
        let t = self.table(table)?;
        if let Some(existing) = t.get(partition, key) {
            Ok(existing.apply_value_thomas(row, tid))
        } else {
            t.insert_with_tid(partition, key, row, tid).ok_or(Error::NoSuchPartition(partition))?;
            Ok(true)
        }
    }

    /// Reverts every held record written after `committed_epoch` to its
    /// stable version. Returns the number of reverted records.
    ///
    /// This is the failure path, so the full-replica walk is acceptable;
    /// the per-epoch commit needs no walk at all (version stashes are
    /// invalidated lazily by the epoch gate in `Record::revert_to_epoch`).
    pub fn revert_to_epoch(&self, committed_epoch: Epoch) -> usize {
        let mut reverted = 0;
        for table in &self.tables {
            for p in 0..self.partitions {
                if !self.held[p] {
                    continue;
                }
                if let Some(part) = table.partition(p) {
                    part.for_each(|_, rec| {
                        if rec.revert_to_epoch(committed_epoch) {
                            reverted += 1;
                        }
                    });
                }
            }
        }
        reverted
    }

    /// Runs `f` over every `(table, partition, key, record)` this replica
    /// holds. Used by the checkpointer and by recovery data copy. The walk is
    /// shard-wise: only one index shard's read lock is held at a time, so
    /// concurrent writers to the rest of the replica are never blocked for
    /// the duration of the scan.
    pub fn for_each_record(&self, mut f: impl FnMut(TableId, PartitionId, Key, &Arc<Record>)) {
        for (tid, table) in self.tables.iter().enumerate() {
            for p in 0..self.partitions {
                if !self.held[p] {
                    continue;
                }
                if let Some(part) = table.partition(p) {
                    part.for_each(|k, rec| f(tid as TableId, p, k, rec));
                }
            }
        }
    }

    /// Total number of records held by this replica. Computed from the
    /// per-shard map sizes without visiting any record.
    pub fn len(&self) -> usize {
        self.tables
            .iter()
            .map(|t| {
                (0..self.partitions)
                    .filter(|p| self.held[*p])
                    .filter_map(|p| t.partition(p))
                    .map(|part| part.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Whether this replica holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_common::row::row;
    use star_common::{FieldValue, Row};

    fn db(partitions: usize) -> Database {
        DatabaseBuilder::new(partitions)
            .table(TableSpec::new("a"))
            .table(TableSpec::with_secondary("b", 1))
            .build()
    }

    fn r(v: u64) -> Row {
        row([FieldValue::U64(v)])
    }

    #[test]
    fn full_replica_holds_everything() {
        let d = db(4);
        assert!(d.is_full_replica());
        assert_eq!(d.held_partitions(), vec![0, 1, 2, 3]);
        assert_eq!(d.num_tables(), 2);
        assert_eq!(d.num_partitions(), 4);
    }

    #[test]
    fn partial_replica_rejects_foreign_partitions() {
        let d = DatabaseBuilder::new(4).table(TableSpec::new("a")).holding(vec![1, 3]).build();
        assert!(!d.is_full_replica());
        assert!(d.holds(1) && d.holds(3));
        assert!(!d.holds(0));
        assert!(d.insert(0, 1, 5, r(5)).is_ok());
        assert!(matches!(d.insert(0, 0, 5, r(5)), Err(Error::NoSuchPartition(0))));
        assert!(matches!(d.get(0, 2, 5), Err(Error::NoSuchPartition(2))));
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let d = db(2);
        d.insert(0, 1, 42, r(7)).unwrap();
        let rec = d.get(0, 1, 42).unwrap();
        assert_eq!(rec.read().row, r(7));
        assert!(matches!(d.get(0, 1, 43), Err(Error::KeyNotFound { .. })));
        assert!(matches!(d.get(5, 1, 42), Err(Error::NoSuchTable(5))));
        assert!(d.try_get(0, 1, 43).unwrap().is_none());
    }

    #[test]
    fn table_by_name_lookup() {
        let d = db(2);
        assert_eq!(d.table_by_name("b").unwrap().0, 1);
        assert!(d.table_by_name("missing").is_none());
    }

    #[test]
    fn apply_value_write_upserts_and_respects_thomas() {
        let d = db(2);
        assert!(d.apply_value_write(0, 0, 9, r(1), Tid::new(1, 5)).unwrap());
        assert!(!d.apply_value_write(0, 0, 9, r(0), Tid::new(1, 3)).unwrap());
        assert!(d.apply_value_write(0, 0, 9, r(2), Tid::new(1, 9)).unwrap());
        assert_eq!(d.get(0, 0, 9).unwrap().read().row, r(2));
    }

    #[test]
    fn epoch_revert_across_database() {
        let d = db(2);
        d.insert(0, 0, 1, r(1)).unwrap();
        d.insert(0, 1, 2, r(2)).unwrap();
        // Epoch 1 commits (no explicit GC step: the stash invalidates lazily).
        d.apply_value_write(0, 0, 1, r(10), Tid::new(1, 1)).unwrap();
        // Epoch 2 writes both keys, then a failure occurs before the fence.
        d.apply_value_write(0, 0, 1, r(100), Tid::new(2, 1)).unwrap();
        d.apply_value_write(0, 1, 2, r(200), Tid::new(2, 2)).unwrap();
        let reverted = d.revert_to_epoch(1);
        assert_eq!(reverted, 2);
        assert_eq!(d.get(0, 0, 1).unwrap().read().row, r(10));
        assert_eq!(d.get(0, 1, 2).unwrap().read().row, r(2));
    }

    #[test]
    fn acquire_partition_extends_held_set() {
        let mut d = DatabaseBuilder::new(4).table(TableSpec::new("a")).holding(vec![0]).build();
        assert!(!d.holds(2));
        d.acquire_partition(2).unwrap();
        assert!(d.holds(2));
        assert!(d.acquire_partition(9).is_err());
    }

    #[test]
    fn for_each_record_covers_held_partitions_only() {
        let d = DatabaseBuilder::new(4).table(TableSpec::new("a")).holding(vec![0, 1]).build();
        d.insert(0, 0, 1, r(1)).unwrap();
        d.insert(0, 1, 2, r(2)).unwrap();
        let mut seen = Vec::new();
        d.for_each_record(|t, p, k, _| seen.push((t, p, k)));
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 0, 1), (0, 1, 2)]);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
    }
}
