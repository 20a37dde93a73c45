//! Allocation and footprint budgets of the storage layer under the
//! transaction hot path and the replica's install path.
//!
//! A record stores its versions packed — one reference-counted buffer per
//! version, behind one lock — so installing a row is one allocation, a
//! cross-epoch write moves the outgoing version into the stash, and a loaded
//! record costs a third of what a vector of owned fields did. A read hands
//! out the stored buffer itself, so a read-only transaction allocates only
//! its read set; a write unpacks the one row it edits. A replica installs a
//! value entry by packing the shipped row, and a `SetField` entry by
//! splicing the field into the stored version — one allocation each. These
//! tests count heap allocations with a counting `#[global_allocator]` (per
//! thread, so the tests of this binary can run in parallel) and fail when a
//! change brings back per-hop row copies, a second buffer per version, an
//! unpacking read or a fatter record.
//!
//! The rows have YCSB's shape — ten 10-byte columns — and the transactions
//! do what `YcsbTransaction::execute` does, through the same `TxnCtx` and
//! `commit_partitioned` the partitioned phase uses.

use star_common::{FieldValue, Operation, RowBuilder, Tid, TidGenerator};
use star_occ::{commit_partitioned, TxnCtx};
use star_replication::{LogEntry, Payload};
use star_storage::{Database, DatabaseBuilder, Record, TableSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocation calls and the
/// bytes it holds.
struct Counting;

fn note(allocations: u64, bytes: i64) {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + allocations));
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counting beside it touches only
// const-initialised thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

const TABLE: u32 = 0;
const COLUMNS: usize = 10;
const COLUMN_BYTES: usize = 10;

/// One partition of `rows` YCSB-shaped records, keys `0..rows`.
fn loaded_partition(rows: u64) -> Database {
    let db = DatabaseBuilder::new(1).table(TableSpec::new("usertable")).build();
    let mut builder = RowBuilder::new();
    for key in 0..rows {
        for column in 0..COLUMNS {
            builder.bytes_with(COLUMN_BYTES, |bytes| bytes.fill(key as u8 ^ column as u8));
        }
        db.insert(TABLE, 0, key, builder.finish()).unwrap();
    }
    db
}

/// Reads `keys` and commits: a read-only YCSB transaction.
fn read_transaction(db: &Database, keys: std::ops::Range<u64>, tid_gen: &mut TidGenerator) {
    let mut ctx = TxnCtx::new_single_threaded(db);
    for key in keys {
        let row = ctx.read(TABLE, 0, key).unwrap();
        assert_eq!(row.len(), COLUMNS);
    }
    let (reads, writes) = ctx.into_sets();
    commit_partitioned(db, reads, writes, 1, tid_gen).unwrap();
}

/// Reads `key`, replaces one column and commits in `epoch`: the write half
/// of a YCSB transaction, operation for operation replication included.
fn write_transaction(db: &Database, key: u64, epoch: u32, tid_gen: &mut TidGenerator) {
    let column = (key % COLUMNS as u64) as usize;
    let bytes = [epoch as u8; COLUMN_BYTES];
    let mut ctx = TxnCtx::new_single_threaded(db);
    let mut new_row = ctx.read(TABLE, 0, key).unwrap().unpack();
    new_row.set(column, FieldValue::Bytes(bytes.to_vec()));
    ctx.update_with_operation(
        TABLE,
        0,
        key,
        new_row,
        Operation::SetField { field: column, value: FieldValue::Bytes(bytes.to_vec()) },
    );
    let (reads, writes) = ctx.into_sets();
    commit_partitioned(db, reads, writes, epoch, tid_gen).unwrap();
}

/// What unpacking one YCSB row allocates: the vector and its ten columns.
const UNPACK: u64 = 1 + COLUMNS as u64;

#[test]
fn installing_a_version_is_one_allocation_and_reading_allocates_nothing() {
    let db = loaded_partition(8);
    let record = db.get(TABLE, 0, 3).unwrap();

    let before = allocations();
    let read = record.read();
    let unsynchronized = record.read_unsynchronized();
    assert_eq!(allocations() - before, 0, "the stored version is handed out by reference count");
    assert_eq!(read, unsynchronized);
    let row = read.row.unpack();
    assert_eq!(read.row, row);

    // Epoch 1 over a loaded (epoch 0) row, then epoch 2 over that: each
    // install packs the new row into one buffer and *moves* the outgoing
    // version into the stash.
    for epoch in 1..=2 {
        let before = allocations();
        record.write_unsynchronized(&row, Tid::new(epoch, 1));
        assert_eq!(allocations() - before, 1, "epoch {epoch}: one buffer per installed version");
        assert_eq!(record.stable_version().map(|(tid, _)| tid.epoch()), Some(epoch - 1));
    }
    // A write within the epoch replaces the version and leaves the stash.
    let before = allocations();
    record.write_unsynchronized(&row, Tid::new(2, 2));
    assert_eq!(allocations() - before, 1);
}

#[test]
fn a_transactions_allocations_are_its_read_set_and_the_rows_it_edits() {
    let db = loaded_partition(64);
    let mut tid_gen = TidGenerator::new();
    read_transaction(&db, 0..10, &mut tid_gen);
    let before = allocations();
    read_transaction(&db, 10..20, &mut tid_gen);
    let spent = allocations() - before;
    // The read set growing 4 → 8 → 16 entries; the rows are not copied.
    println!("10-read transaction: {spent} allocations");
    assert!(spent <= 3, "a 10-read transaction performed {spent} allocations");

    write_transaction(&db, 0, 1, &mut tid_gen);
    let before = allocations();
    // Epoch 1 over a loaded (epoch 0) row: the install also stashes the
    // outgoing version — by moving it.
    write_transaction(&db, 1, 1, &mut tid_gen);
    let spent = allocations() - before;
    // The edited row unpacked once, two copies of the written column, the
    // read and write sets, the record handles, the packed version.
    println!("one-column write: {spent} allocations");
    assert!(spent <= UNPACK + 8, "a one-column write performed {spent} allocations");
    let record = db.get(TABLE, 0, 1).unwrap();
    let (_, stashed) = record.stable_version().expect("the cross-epoch write stashed");
    assert_eq!(stashed.field(1).unwrap().as_bytes(), Some(&[1u8 ^ 1; COLUMN_BYTES][..]));
    assert_eq!(record.read().row.field(1).unwrap().as_bytes(), Some(&[1u8; COLUMN_BYTES][..]));
}

#[test]
fn a_replica_installs_a_value_or_set_field_entry_in_one_allocation() {
    let db = loaded_partition(8);
    let column = 4;
    let shipped = db.get(TABLE, 0, 2).unwrap().read().row.unpack();
    let set_field =
        Operation::SetField { field: column, value: FieldValue::Bytes(vec![0xAB; COLUMN_BYTES]) };
    let entries = [("value", Payload::Value(shipped)), ("SetField", Payload::Operation(set_field))];
    for (epoch, (what, payload)) in (1..).zip(entries) {
        let entry =
            LogEntry { table: TABLE, partition: 0, key: 1, tid: Tid::new(epoch, 1), payload };
        let before = allocations();
        entry.apply(&db).unwrap();
        let spent = allocations() - before;
        println!("{what} entry install: {spent} allocations");
        assert_eq!(spent, 1, "a {what} entry install performed {spent} allocations");
        assert_eq!(db.get(TABLE, 0, 1).unwrap().tid(), Tid::new(epoch, 1), "{what} installed");
    }
    let installed = db.get(TABLE, 0, 1).unwrap().read().row;
    assert_eq!(installed.field(column).unwrap().as_bytes(), Some(&[0xAB; COLUMN_BYTES][..]));
    assert_eq!(installed.field(0), db.get(TABLE, 0, 2).unwrap().read().row.field(0));
}

#[test]
fn a_loaded_record_costs_one_buffer_and_a_stashed_version_one_more() {
    const ROWS: u64 = 20_000;
    let before = live_bytes();
    let db = loaded_partition(ROWS);
    let loaded = (live_bytes() - before) / ROWS as i64;
    // Record (72 B) + its reference count + one 154-byte row buffer + its
    // reference count + the index slot; it was ≈ 796 B.
    assert!(loaded <= 400, "{loaded} live heap bytes per loaded record");

    let mut tid_gen = TidGenerator::new();
    for key in 0..ROWS {
        write_transaction(&db, key, 2, &mut tid_gen);
    }
    let stashed = (live_bytes() - before) / ROWS as i64;
    // The second version is one more row buffer; it was ≈ 1452 B.
    assert!(stashed <= 600, "{stashed} live heap bytes per record with a stashed version");
    assert!(stashed > loaded, "every record holds two versions now");
    println!("live heap bytes per record: {loaded} loaded, {stashed} with a stashed version");
}

#[test]
fn a_record_is_at_most_72_bytes() {
    assert!(std::mem::size_of::<Record>() <= 72, "{}", std::mem::size_of::<Record>());
}
