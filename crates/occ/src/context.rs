//! The transaction execution context handed to stored procedures.
//!
//! A read hands the procedure the record's stored version — the
//! reference-counted [`PackedRow`] — and records the TID it was read at for
//! validation; nothing is copied. A procedure reads fields straight out of
//! it ([`PackedRow::field`]) and, to write, unpacks it once into the
//! [`Row`] it edits and registers with [`TxnCtx::update`]. The write set
//! keeps that unpacked row until commit.

use crate::rwset::{ReadEntry, ReadSet, WriteEntry, WriteSet};
use star_common::{
    AbortReason, Error, Key, Operation, PackedRow, PartitionId, Result, Row, TableId,
};
use star_storage::{Database, ReadResult};

/// Source of record reads during the execution (read) phase of a transaction.
///
/// The local implementation reads the node's own replica; the distributed
/// baselines implement this trait with a client that performs remote reads
/// over the simulated network. Stored procedures are written once against
/// [`TxnCtx`] and run unchanged on either.
pub trait DataSource {
    /// Reads the current version of a record, returning its row and TID.
    fn read_record(&self, table: TableId, partition: PartitionId, key: Key) -> Result<ReadResult>;

    /// Reads a record that the caller knows cannot be concurrently written
    /// (partitioned-phase accesses). Defaults to the consistent read.
    fn read_record_unsynchronized(
        &self,
        table: TableId,
        partition: PartitionId,
        key: Key,
    ) -> Result<ReadResult> {
        self.read_record(table, partition, key)
    }

    /// Looks up primary keys via a table's secondary index, if the source
    /// supports it. The default implementation reports an unsupported
    /// operation.
    fn secondary_lookup(
        &self,
        _table: TableId,
        _index: usize,
        _secondary: Key,
    ) -> Result<Vec<Key>> {
        Err(Error::Config("secondary index lookup not supported by this data source".into()))
    }
}

impl DataSource for Database {
    fn read_record(&self, table: TableId, partition: PartitionId, key: Key) -> Result<ReadResult> {
        Ok(self.get(table, partition, key)?.read())
    }

    fn read_record_unsynchronized(
        &self,
        table: TableId,
        partition: PartitionId,
        key: Key,
    ) -> Result<ReadResult> {
        Ok(self.get(table, partition, key)?.read_unsynchronized())
    }

    fn secondary_lookup(&self, table: TableId, index: usize, secondary: Key) -> Result<Vec<Key>> {
        let t = self.table(table)?;
        let idx = t.secondary_index(index).ok_or_else(|| {
            Error::Config(format!("table {table} has no secondary index {index}"))
        })?;
        Ok(idx.lookup(secondary))
    }
}

/// Execution context for one transaction attempt.
///
/// The context records every read in the read set (with the TID observed) and
/// every write in the write set, and serves re-reads of written keys from the
/// write set so that a stored procedure sees its own updates.
pub struct TxnCtx<'a> {
    source: &'a dyn DataSource,
    read_set: ReadSet,
    write_set: WriteSet,
    /// True when the engine guarantees single-threaded access to the touched
    /// partitions (partitioned phase); reads then skip the consistency loop.
    single_threaded: bool,
}

impl<'a> TxnCtx<'a> {
    /// Creates a context for the single-master phase / OCC execution (reads
    /// use the consistent protocol).
    pub fn new(source: &'a dyn DataSource) -> Self {
        TxnCtx { source, read_set: Vec::new(), write_set: Vec::new(), single_threaded: false }
    }

    /// Creates a context for the partitioned phase, where partitions are
    /// guaranteed to be accessed by a single worker thread.
    pub fn new_single_threaded(source: &'a dyn DataSource) -> Self {
        TxnCtx { source, read_set: Vec::new(), write_set: Vec::new(), single_threaded: true }
    }

    /// Whether this context was created for single-threaded (partitioned
    /// phase) execution.
    pub fn is_single_threaded(&self) -> bool {
        self.single_threaded
    }

    fn find_in_write_set(&self, table: TableId, partition: PartitionId, key: Key) -> Option<usize> {
        self.write_set
            .iter()
            .position(|w| w.table == table && w.partition == partition && w.key == key)
    }

    /// Reads a record, recording it in the read set: the stored version, by
    /// reference count. Re-reads of a key this transaction already wrote
    /// return the pending value, packed.
    pub fn read(&mut self, table: TableId, partition: PartitionId, key: Key) -> Result<PackedRow> {
        if let Some(idx) = self.find_in_write_set(table, partition, key) {
            return Ok(PackedRow::pack(&self.write_set[idx].row));
        }
        let result = if self.single_threaded {
            self.source.read_record_unsynchronized(table, partition, key)?
        } else {
            self.source.read_record(table, partition, key)?
        };
        self.read_set.push(ReadEntry { table, partition, key, tid: result.tid });
        Ok(result.row)
    }

    /// Looks up primary keys through a secondary index. Index traversals are
    /// not validated (as in Silo, phantom protection is out of scope); the
    /// records subsequently read through the returned keys are.
    pub fn secondary_lookup(
        &mut self,
        table: TableId,
        index: usize,
        secondary: Key,
    ) -> Result<Vec<Key>> {
        self.source.secondary_lookup(table, index, secondary)
    }

    /// Registers a full-row update of an existing record.
    pub fn update(&mut self, table: TableId, partition: PartitionId, key: Key, row: Row) {
        self.update_inner(table, partition, key, row, None, false);
    }

    /// Registers an update together with the cheap [`Operation`] that
    /// produced it. The operation is what operation replication will ship in
    /// the partitioned phase; the full row is still kept for the local write
    /// and the WAL.
    pub fn update_with_operation(
        &mut self,
        table: TableId,
        partition: PartitionId,
        key: Key,
        row: Row,
        operation: Operation,
    ) {
        self.update_inner(table, partition, key, row, Some(operation), false);
    }

    /// Registers an insert of a new record.
    pub fn insert(&mut self, table: TableId, partition: PartitionId, key: Key, row: Row) {
        self.update_inner(table, partition, key, row, None, true);
    }

    fn update_inner(
        &mut self,
        table: TableId,
        partition: PartitionId,
        key: Key,
        row: Row,
        operation: Option<Operation>,
        insert: bool,
    ) {
        if let Some(idx) = self.find_in_write_set(table, partition, key) {
            let entry = &mut self.write_set[idx];
            entry.row = row;
            // Two operations on the same key in one transaction cannot be
            // replayed independently; fall back to whole-row replication.
            entry.operation = None;
            entry.insert = entry.insert || insert;
        } else {
            self.write_set.push(WriteEntry { table, partition, key, row, operation, insert });
        }
    }

    /// Signals an application-level abort (e.g. TPC-C NewOrder with an
    /// invalid item id).
    pub fn abort(&self) -> Error {
        Error::Abort(AbortReason::User)
    }

    /// The read set accumulated so far.
    pub fn read_set(&self) -> &ReadSet {
        &self.read_set
    }

    /// The write set accumulated so far.
    pub fn write_set(&self) -> &WriteSet {
        &self.write_set
    }

    /// Partitions touched by either the read set or the write set.
    pub fn partitions_touched(&self) -> Vec<PartitionId> {
        let mut ps: Vec<PartitionId> = self
            .read_set
            .iter()
            .map(|r| r.partition)
            .chain(self.write_set.iter().map(|w| w.partition))
            .collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    /// Consumes the context, returning the read and write sets for the commit
    /// protocol.
    pub fn into_sets(self) -> (ReadSet, WriteSet) {
        (self.read_set, self.write_set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_common::row::row;
    use star_common::FieldValue;
    use star_storage::{DatabaseBuilder, TableSpec};

    fn db() -> Database {
        let d = DatabaseBuilder::new(2).table(TableSpec::with_secondary("t", 1)).build();
        d.insert(0, 0, 1, row([FieldValue::U64(10)])).unwrap();
        d.insert(0, 1, 2, row([FieldValue::U64(20)])).unwrap();
        d.table(0).unwrap().secondary_index(0).unwrap().insert(99, 1);
        d
    }

    #[test]
    fn reads_populate_read_set() {
        let d = db();
        let mut ctx = TxnCtx::new(&d);
        let r1 = ctx.read(0, 0, 1).unwrap();
        assert_eq!(r1.field(0).unwrap().as_u64(), Some(10));
        assert_eq!(ctx.read_set().len(), 1);
        assert!(ctx.read(0, 0, 42).is_err());
    }

    #[test]
    fn read_your_own_writes() {
        let d = db();
        let mut ctx = TxnCtx::new(&d);
        ctx.update(0, 0, 1, row([FieldValue::U64(11)]));
        let r = ctx.read(0, 0, 1).unwrap();
        assert_eq!(r.field(0).unwrap().as_u64(), Some(11));
        // The re-read of a written key does not add a read-set entry.
        assert!(ctx.read_set().is_empty());
    }

    #[test]
    fn double_update_collapses_and_drops_operation() {
        let d = db();
        let mut ctx = TxnCtx::new(&d);
        ctx.update_with_operation(
            0,
            0,
            1,
            row([FieldValue::U64(11)]),
            Operation::SetField { field: 0, value: FieldValue::U64(11) },
        );
        ctx.update(0, 0, 1, row([FieldValue::U64(12)]));
        assert_eq!(ctx.write_set().len(), 1);
        assert_eq!(ctx.write_set()[0].row, row([FieldValue::U64(12)]));
        assert!(ctx.write_set()[0].operation.is_none());
    }

    #[test]
    fn insert_is_tracked() {
        let d = db();
        let mut ctx = TxnCtx::new(&d);
        ctx.insert(0, 1, 77, row([FieldValue::U64(7)]));
        assert!(ctx.write_set()[0].insert);
        assert_eq!(ctx.read(0, 1, 77).unwrap(), row([FieldValue::U64(7)]));
    }

    #[test]
    fn partitions_touched_covers_reads_and_writes() {
        let d = db();
        let mut ctx = TxnCtx::new(&d);
        ctx.read(0, 0, 1).unwrap();
        ctx.update(0, 1, 2, row([FieldValue::U64(21)]));
        assert_eq!(ctx.partitions_touched(), vec![0, 1]);
    }

    #[test]
    fn secondary_lookup_through_context() {
        let d = db();
        let mut ctx = TxnCtx::new(&d);
        assert_eq!(ctx.secondary_lookup(0, 0, 99).unwrap(), vec![1]);
        assert!(ctx.secondary_lookup(0, 3, 99).is_err());
    }

    #[test]
    fn single_threaded_context_reads() {
        let d = db();
        let mut ctx = TxnCtx::new_single_threaded(&d);
        assert!(ctx.is_single_threaded());
        assert_eq!(ctx.read(0, 0, 1).unwrap(), row([FieldValue::U64(10)]));
        assert_eq!(ctx.read_set().len(), 1);
    }

    #[test]
    fn user_abort_error() {
        let d = db();
        let ctx = TxnCtx::new(&d);
        assert_eq!(ctx.abort(), Error::Abort(AbortReason::User));
    }
}
