//! Commit protocols: the Silo-variant OCC commit used in the single-master
//! phase, and the lock-free commit used in the partitioned phase.

use crate::rwset::{max_read_tid, write_lock_order, ReadSet, WriteSet};
use star_common::{AbortReason, Epoch, Error, Result, Row, Tid, TidGenerator};
use star_storage::{Database, Record};
use std::sync::Arc;

/// The result of a successful commit: the assigned TID and the write set that
/// must now be replicated and logged.
#[derive(Debug)]
pub struct CommitOutput {
    /// TID assigned to the transaction.
    pub tid: Tid,
    /// The writes the transaction installed, in execution order.
    pub write_set: WriteSet,
}

/// Resolves (or creates, for inserts) the record handles of a write set.
fn resolve_write_records(db: &Database, writes: &WriteSet) -> Result<Vec<Arc<Record>>> {
    writes
        .iter()
        .map(|w| {
            if w.insert {
                // Create the record if it does not exist yet; concurrent
                // inserters race benignly inside the index shard, and the
                // placeholder record is only constructed on an actual miss.
                db.get_or_insert_with(w.table, w.partition, w.key, || Record::new(Row::empty()))
            } else {
                db.get(w.table, w.partition, w.key)
            }
        })
        .collect()
}

/// Silo-variant OCC commit, used by STAR's single-master phase and by the
/// PB. OCC baseline.
///
/// Steps (Section 4.2 of the paper):
/// 1. lock every record in the write set, in a global order, to prevent
///    deadlock;
/// 2. validate the read set: abort if any record was modified (different
///    TID) or is locked by another transaction;
/// 3. generate the commit TID from the read set, write set and current
///    epoch;
/// 4. install the writes, tag them with the TID and release the locks.
///
/// On abort every acquired lock is released and
/// [`AbortReason::ValidationFailed`] is returned; the caller decides whether
/// to retry.
pub fn commit_single_master(
    db: &Database,
    read_set: ReadSet,
    write_set: WriteSet,
    epoch: Epoch,
    tid_gen: &mut TidGenerator,
) -> Result<CommitOutput> {
    // Phase 1: lock the *existing* records of the write set in global order.
    // Inserts of new keys are deliberately not materialised yet — creating
    // them before validation would leak placeholder records on the primary if
    // the transaction aborts, records that its replicas would never see.
    let mut order: Vec<usize> = (0..write_set.len()).collect();
    order.sort_by_key(|&i| write_lock_order(&write_set[i]));
    let records: Vec<Option<Arc<Record>>> = write_set
        .iter()
        .map(|w| {
            if w.insert {
                db.try_get(w.table, w.partition, w.key)
            } else {
                db.get(w.table, w.partition, w.key).map(Some)
            }
        })
        .collect::<Result<_>>()?;
    let mut locked: Vec<&Arc<Record>> = Vec::with_capacity(records.len());
    for &i in &order {
        let Some(rec) = &records[i] else { continue };
        if locked.iter().any(|r| Arc::ptr_eq(r, rec)) {
            continue;
        }
        rec.lock();
        locked.push(rec);
    }

    let unlock_all = |locked: &[&Arc<Record>]| {
        for rec in locked {
            rec.unlock();
        }
    };

    // Phase 2: validate the read set.
    let mut max_observed = max_read_tid(&read_set);
    for r in &read_set {
        let rec = match db.get(r.table, r.partition, r.key) {
            Ok(rec) => rec,
            Err(e) => {
                unlock_all(&locked);
                return Err(e);
            }
        };
        let meta = rec.meta();
        let we_hold_it = locked.iter().any(|l| Arc::ptr_eq(l, &rec));
        if meta.tid != r.tid || (meta.locked && !we_hold_it) {
            unlock_all(&locked);
            return Err(Error::Abort(AbortReason::ValidationFailed));
        }
    }
    for rec in &locked {
        max_observed = max_observed.max(rec.tid());
    }

    // Phase 3: TID assignment.
    let tid = tid_gen.generate(epoch, max_observed);

    // Phase 4: install writes and unlock. Each record is written exactly
    // once — if the same record appears several times in the write set, only
    // its last entry (in execution order) is installed, so last-write-wins
    // semantics match what the transaction observed through its context.
    // Inserts of keys that do not exist yet are installed through the Thomas
    // write path, which creates the record atomically; concurrent inserters
    // of the same key converge to the larger TID, exactly as replicas do.
    for &i in &order {
        match &records[i] {
            Some(rec) => {
                let has_later_duplicate = records
                    .iter()
                    .skip(i + 1)
                    .any(|other| other.as_ref().is_some_and(|o| Arc::ptr_eq(o, rec)));
                if has_later_duplicate {
                    continue;
                }
                if rec.is_locked() {
                    rec.write_and_unlock(&write_set[i].row, tid);
                } else {
                    rec.apply_value_thomas(&write_set[i].row, tid);
                }
            }
            None => {
                let w = &write_set[i];
                db.apply_value_write(w.table, w.partition, w.key, &w.row, tid)?;
            }
        }
    }

    Ok(CommitOutput { tid, write_set })
}

/// Partitioned-phase commit (Section 4.1): the calling worker is the only
/// thread touching the partition, so no locks are taken and no read
/// validation is performed. A TID is still generated to tag the updated
/// records, so replication and recovery behave identically in both phases.
pub fn commit_partitioned(
    db: &Database,
    read_set: ReadSet,
    write_set: WriteSet,
    epoch: Epoch,
    tid_gen: &mut TidGenerator,
) -> Result<CommitOutput> {
    let records = resolve_write_records(db, &write_set)?;
    let mut max_observed = max_read_tid(&read_set);
    for rec in &records {
        max_observed = max_observed.max(rec.tid());
    }
    let tid = tid_gen.generate(epoch, max_observed);
    for (entry, rec) in write_set.iter().zip(&records) {
        rec.write_unsynchronized(&entry.row, tid);
    }
    Ok(CommitOutput { tid, write_set })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TxnCtx;
    use crate::rwset::WriteEntry;
    use star_common::row::row;
    use star_common::FieldValue;
    use star_storage::{DatabaseBuilder, TableSpec};

    fn db() -> Database {
        let d = DatabaseBuilder::new(2).table(TableSpec::new("t")).build();
        for k in 0..10u64 {
            d.insert(0, (k % 2) as usize, k, row([FieldValue::U64(k * 10)])).unwrap();
        }
        d
    }

    fn read_update(d: &Database, key: u64, new: u64) -> (ReadSet, WriteSet) {
        let mut ctx = TxnCtx::new(d);
        let p = (key % 2) as usize;
        ctx.read(0, p, key).unwrap();
        ctx.update(0, p, key, row([FieldValue::U64(new)]));
        ctx.into_sets()
    }

    #[test]
    fn simple_commit_installs_write_and_tid() {
        let d = db();
        let mut gen = TidGenerator::new();
        let (rs, ws) = read_update(&d, 4, 999);
        let out = commit_single_master(&d, rs, ws, 1, &mut gen).unwrap();
        assert_eq!(out.tid.epoch(), 1);
        let rec = d.get(0, 0, 4).unwrap();
        assert_eq!(rec.read().row, row([FieldValue::U64(999)]));
        assert_eq!(rec.tid(), out.tid);
        assert!(!rec.is_locked());
    }

    #[test]
    fn stale_read_fails_validation() {
        let d = db();
        let mut gen = TidGenerator::new();
        let (rs, ws) = read_update(&d, 4, 999);
        // A concurrent transaction commits to the same key first.
        let (rs2, ws2) = read_update(&d, 4, 555);
        commit_single_master(&d, rs2, ws2, 1, &mut gen).unwrap();
        let err = commit_single_master(&d, rs, ws, 1, &mut gen).unwrap_err();
        assert_eq!(err, Error::Abort(AbortReason::ValidationFailed));
        // The loser's write must not be visible and nothing stays locked.
        let rec = d.get(0, 0, 4).unwrap();
        assert_eq!(rec.read().row, row([FieldValue::U64(555)]));
        assert!(!rec.is_locked());
    }

    #[test]
    fn read_only_transaction_commits_without_writes() {
        let d = db();
        let mut gen = TidGenerator::new();
        let mut ctx = TxnCtx::new(&d);
        ctx.read(0, 0, 2).unwrap();
        ctx.read(0, 1, 3).unwrap();
        let (rs, ws) = ctx.into_sets();
        let out = commit_single_master(&d, rs, ws, 2, &mut gen).unwrap();
        assert!(out.write_set.is_empty());
        assert_eq!(out.tid.epoch(), 2);
    }

    #[test]
    fn write_write_conflict_serializes_through_locks() {
        let d = Arc::new(db());
        let threads = 4;
        let per_thread = 200;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                let mut gen = TidGenerator::new();
                let mut commits = 0;
                for _ in 0..per_thread {
                    loop {
                        let mut ctx = TxnCtx::new(&*d);
                        let cur = ctx.read(0, 0, 0).unwrap().field(0).unwrap().as_u64().unwrap();
                        ctx.update(0, 0, 0, row([FieldValue::U64(cur + 1)]));
                        let (rs, ws) = ctx.into_sets();
                        match commit_single_master(&d, rs, ws, 1, &mut gen) {
                            Ok(_) => {
                                commits += 1;
                                break;
                            }
                            Err(Error::Abort(_)) => continue,
                            Err(e) => panic!("unexpected error {e}"),
                        }
                    }
                }
                commits
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, threads * per_thread);
        // Serializability: the counter equals the number of committed
        // increments.
        let v = d.get(0, 0, 0).unwrap().read().row.field(0).unwrap().as_u64().unwrap();
        assert_eq!(v, threads * per_thread);
    }

    #[test]
    fn insert_through_commit_creates_record() {
        let d = db();
        let mut gen = TidGenerator::new();
        let mut ctx = TxnCtx::new(&d);
        ctx.insert(0, 0, 100, row([FieldValue::U64(1)]));
        let (rs, ws) = ctx.into_sets();
        commit_single_master(&d, rs, ws, 1, &mut gen).unwrap();
        assert_eq!(d.get(0, 0, 100).unwrap().read().row, row([FieldValue::U64(1)]));
    }

    #[test]
    fn partitioned_commit_skips_locks_but_assigns_tids() {
        let d = db();
        let mut gen = TidGenerator::new();
        let mut ctx = TxnCtx::new_single_threaded(&d);
        let cur = ctx.read(0, 0, 2).unwrap().field(0).unwrap().as_u64().unwrap();
        ctx.update(0, 0, 2, row([FieldValue::U64(cur + 1)]));
        let (rs, ws) = ctx.into_sets();
        let out = commit_partitioned(&d, rs, ws, 3, &mut gen).unwrap();
        assert_eq!(out.tid.epoch(), 3);
        let rec = d.get(0, 0, 2).unwrap();
        assert_eq!(rec.tid(), out.tid);
        assert_eq!(rec.read().row, row([FieldValue::U64(21)]));
    }

    #[test]
    fn commit_tid_exceeds_all_read_and_write_tids() {
        let d = db();
        let mut gen = TidGenerator::new();
        // Seed a record with a high TID.
        d.apply_value_write(0, 0, 6, row([FieldValue::U64(1)]), Tid::new(1, 500)).unwrap();
        let (rs, ws) = read_update(&d, 6, 2);
        let out = commit_single_master(&d, rs, ws, 1, &mut gen).unwrap();
        assert!(out.tid > Tid::new(1, 500));
    }

    #[test]
    fn duplicate_write_entries_are_tolerated() {
        let d = db();
        let mut gen = TidGenerator::new();
        let ws: WriteSet = vec![
            WriteEntry {
                table: 0,
                partition: 0,
                key: 8,
                row: row([FieldValue::U64(1)]),
                operation: None,
                insert: false,
            },
            WriteEntry {
                table: 0,
                partition: 0,
                key: 8,
                row: row([FieldValue::U64(2)]),
                operation: None,
                insert: false,
            },
        ];
        let out = commit_single_master(&d, Vec::new(), ws, 1, &mut gen).unwrap();
        let rec = d.get(0, 0, 8).unwrap();
        assert!(!rec.is_locked());
        assert_eq!(rec.tid(), out.tid);
        // Last write wins.
        assert_eq!(rec.read().row, row([FieldValue::U64(2)]));
    }
}
