//! A single versioned record with a Silo-style meta word.
//!
//! A record is 72 bytes: the meta word and **one** lock around its versions —
//! the current row and, while the epoch that wrote it is in flight, the
//! pre-image that epoch would be rolled back to. A stored version is a
//! [`PackedRow`]: one reference-counted buffer holding the row's encoding
//! (see `star_common::packed`). Installing a row packs it (one allocation);
//! a cross-epoch write *moves* the outgoing version into the stash instead
//! of cloning it; reading hands out the stored version itself — a
//! reference-count bump under the lock, no allocation. A transaction reads
//! fields straight out of it and unpacks only the rows it edits.

use parking_lot::RwLock;
use star_common::{Epoch, PackedRow, Tid};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bit in the meta word marking the record as locked by a committing
/// transaction.
const LOCK_BIT: u64 = 1 << 63;

/// Spins before a waiter starts yielding its scheduler quantum.
const SPIN_LIMIT: u32 = 64;

/// Bounded spin-wait: the lock holder is usually mid-install for a few dozen
/// cycles, so the first iterations use the CPU spin hint; past [`SPIN_LIMIT`]
/// the waiter yields instead. Without the yield, an oversubscribed host (more
/// workers than cores) burns a full scheduler slice spinning on a lock whose
/// holder has been preempted — which inverts thread scaling.
#[inline]
fn spin_backoff(spins: &mut u32) {
    if *spins < SPIN_LIMIT {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Decoded view of a record's meta word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// TID of the last committed writer.
    pub tid: Tid,
    /// Whether the record is currently locked.
    pub locked: bool,
}

impl RecordMeta {
    fn from_word(word: u64) -> Self {
        RecordMeta { tid: Tid::from_raw(word & !LOCK_BIT), locked: word & LOCK_BIT != 0 }
    }
}

/// Result of an optimistic read: the row value and the TID it was read at.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadResult {
    /// The version that was read: the stored buffer, shared by reference
    /// count.
    pub row: PackedRow,
    /// TID of the version that was read.
    pub tid: Tid,
}

/// The row versions a record holds, behind one lock.
#[derive(Debug)]
struct Versions {
    current: PackedRow,
    /// Most recent version from an epoch earlier than the current one, kept
    /// for epoch revert during recovery.
    ///
    /// The stash is invalidated *lazily*: once the record's current epoch
    /// has committed, [`Record::revert_to_epoch`] can never consult it again
    /// (the epoch gate fails), and the first write of any later epoch
    /// overwrites it with that epoch's pre-image. No fence-time clearing
    /// pass is needed — which is what keeps the replication fence O(1) in
    /// database size rather than a full-replica walk per epoch.
    stable: Option<(Tid, PackedRow)>,
}

/// A record stored in a table partition.
///
/// The meta word uses bit 63 as the lock bit and the remaining bits as the
/// raw TID, which restricts epochs to 23 bits — ~8 million phase switches,
/// far more than any run performs.
#[derive(Debug)]
pub struct Record {
    meta: AtomicU64,
    versions: RwLock<Versions>,
}

impl Record {
    /// Creates a record with an initial row, tagged [`Tid::ZERO`] (loaded
    /// data, never written by a transaction).
    pub fn new(row: impl Into<PackedRow>) -> Self {
        Self::with_tid(row, Tid::ZERO)
    }

    /// Creates a record that already carries a TID (used by recovery replay
    /// and by checkpoint loading).
    pub fn with_tid(row: impl Into<PackedRow>, tid: Tid) -> Self {
        Record {
            meta: AtomicU64::new(tid.raw()),
            versions: RwLock::new(Versions { current: row.into(), stable: None }),
        }
    }

    /// Decoded meta word (TID + lock bit).
    pub fn meta(&self) -> RecordMeta {
        RecordMeta::from_word(self.meta.load(Ordering::Acquire))
    }

    /// TID of the last committed writer.
    pub fn tid(&self) -> Tid {
        self.meta().tid
    }

    /// Whether the record is currently locked by a committing transaction.
    pub fn is_locked(&self) -> bool {
        self.meta().locked
    }

    /// Optimistic, consistent read of the record (Silo's read protocol):
    /// re-reads the meta word after taking the version and retries if a
    /// concurrent writer was active. The version is handed out by reference
    /// count; nothing is allocated.
    pub fn read(&self) -> ReadResult {
        let mut spins = 0;
        loop {
            let before = self.meta.load(Ordering::Acquire);
            if before & LOCK_BIT != 0 {
                spin_backoff(&mut spins);
                continue;
            }
            let row = self.versions.read().current.clone();
            let after = self.meta.load(Ordering::Acquire);
            if before == after {
                return ReadResult { row, tid: Tid::from_raw(before) };
            }
        }
    }

    /// Reads the row without the consistency loop. Only safe when the caller
    /// knows there are no concurrent writers — i.e. the partitioned phase,
    /// where a partition is touched by exactly one worker thread.
    pub fn read_unsynchronized(&self) -> ReadResult {
        ReadResult { row: self.versions.read().current.clone(), tid: self.tid() }
    }

    /// Attempts to acquire the commit lock. Returns `false` if the record is
    /// already locked.
    pub fn try_lock(&self) -> bool {
        let cur = self.meta.load(Ordering::Acquire);
        if cur & LOCK_BIT != 0 {
            return false;
        }
        self.meta.compare_exchange(cur, cur | LOCK_BIT, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// Spins until the commit lock is acquired. Used by the single-master
    /// phase commit path after sorting the write set in a global order, which
    /// rules out deadlock.
    pub fn lock(&self) {
        let mut spins = 0;
        while !self.try_lock() {
            spin_backoff(&mut spins);
        }
    }

    /// Releases the commit lock without changing the TID (abort path).
    pub fn unlock(&self) {
        let cur = self.meta.load(Ordering::Acquire);
        debug_assert!(cur & LOCK_BIT != 0, "unlock of unlocked record");
        self.meta.store(cur & !LOCK_BIT, Ordering::Release);
    }

    /// Installs a new version and releases the lock. Must only be called
    /// while holding the commit lock.
    ///
    /// The previous version is stashed as the stable version if it belongs to
    /// an earlier epoch, so that a failure during the current epoch can be
    /// rolled back.
    pub fn write_and_unlock(&self, new_row: impl Into<PackedRow>, new_tid: Tid) {
        let cur = self.meta.load(Ordering::Acquire);
        debug_assert!(cur & LOCK_BIT != 0, "write without lock");
        self.install(Tid::from_raw(cur & !LOCK_BIT), new_row.into(), new_tid);
    }

    /// Unsynchronized write used in the partitioned phase (single writer per
    /// partition): no lock acquisition, but the same epoch stash is kept.
    pub fn write_unsynchronized(&self, new_row: impl Into<PackedRow>, new_tid: Tid) {
        self.install(self.tid(), new_row.into(), new_tid);
    }

    /// Makes `new_row` the current version and publishes `new_tid`. The
    /// outgoing version moves into the stash if it belongs to an earlier
    /// epoch and is dropped otherwise.
    fn install(&self, old_tid: Tid, new_row: PackedRow, new_tid: Tid) {
        {
            let mut versions = self.versions.write();
            let old_row = std::mem::replace(&mut versions.current, new_row);
            if old_tid.epoch() < new_tid.epoch() {
                versions.stable = Some((old_tid, old_row));
            }
        }
        self.meta.store(new_tid.raw(), Ordering::Release);
    }

    /// Applies a replicated full-row write under the **Thomas write rule**:
    /// the write is installed only if its TID is larger than the record's
    /// current TID. Returns `true` if the write was applied.
    ///
    /// Replication streams in the single-master phase may deliver writes out
    /// of order; because conflicting TIDs are assigned in serial-equivalent
    /// order, dropping stale writes is correct (Section 3).
    pub fn apply_value_thomas(&self, row: impl Into<PackedRow>, tid: Tid) -> bool {
        let mut spins = 0;
        loop {
            let cur = self.meta.load(Ordering::Acquire);
            if cur & LOCK_BIT != 0 {
                spin_backoff(&mut spins);
                continue;
            }
            let cur_tid = Tid::from_raw(cur);
            if tid <= cur_tid {
                return false;
            }
            if !self.try_lock() {
                continue;
            }
            // Re-check under the lock: another applier may have advanced it.
            let cur_tid = Tid::from_raw(self.meta.load(Ordering::Acquire) & !LOCK_BIT);
            if tid <= cur_tid {
                self.unlock();
                return false;
            }
            self.write_and_unlock(row, tid);
            return true;
        }
    }

    /// The stashed pre-image, if any. The stash belongs to the epoch of the
    /// record's *current* TID: it is only meaningful while that epoch is in
    /// flight, and becomes unreachable garbage (overwritten by the next
    /// cross-epoch write) once the epoch commits.
    pub fn stable_version(&self) -> Option<(Tid, PackedRow)> {
        self.versions.read().stable.clone()
    }

    /// Reverts the record to its stable version if its current version was
    /// written in an epoch **later than** `committed_epoch`. Returns `true`
    /// if a revert happened.
    ///
    /// This implements the "revert to the last committed epoch" step of
    /// failure handling (Figure 6): versions written in the in-flight epoch
    /// were never released to clients and are discarded.
    ///
    /// The epoch gate below is also what makes stale stashes harmless: a
    /// record last written in a committed epoch is skipped outright, so the
    /// stash it may still carry from an even older epoch is never read.
    pub fn revert_to_epoch(&self, committed_epoch: Epoch) -> bool {
        let cur_tid = self.tid();
        if cur_tid.epoch() <= committed_epoch {
            return false;
        }
        let mut versions = self.versions.write();
        if let Some((old_tid, old_row)) = versions.stable.take() {
            debug_assert!(old_tid.epoch() <= committed_epoch);
            versions.current = old_row;
            self.meta.store(old_tid.raw(), Ordering::Release);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_common::row::row;
    use star_common::{FieldValue, Row};
    use std::sync::Arc;

    fn r(v: u64) -> Row {
        row([FieldValue::U64(v)])
    }

    #[test]
    fn new_record_has_zero_tid_and_is_unlocked() {
        let rec = Record::new(r(1));
        assert_eq!(rec.tid(), Tid::ZERO);
        assert!(!rec.is_locked());
        assert_eq!(rec.read().row, r(1));
    }

    #[test]
    fn lock_unlock_cycle() {
        let rec = Record::new(r(1));
        assert!(rec.try_lock());
        assert!(rec.is_locked());
        assert!(!rec.try_lock());
        rec.unlock();
        assert!(!rec.is_locked());
    }

    #[test]
    fn write_and_unlock_updates_tid_and_data() {
        let rec = Record::new(r(1));
        rec.lock();
        rec.write_and_unlock(r(2), Tid::new(1, 5));
        assert_eq!(rec.tid(), Tid::new(1, 5));
        assert!(!rec.is_locked());
        assert_eq!(rec.read().row, r(2));
    }

    #[test]
    fn thomas_rule_rejects_stale_writes() {
        let rec = Record::new(r(1));
        assert!(rec.apply_value_thomas(r(10), Tid::new(1, 10)));
        // An older write arriving later must be dropped.
        assert!(!rec.apply_value_thomas(r(5), Tid::new(1, 5)));
        assert_eq!(rec.read().row, r(10));
        // A newer write is applied.
        assert!(rec.apply_value_thomas(r(20), Tid::new(1, 20)));
        assert_eq!(rec.read().row, r(20));
    }

    #[test]
    fn thomas_rule_out_of_order_converges() {
        // Applying the same set of writes in any order must converge to the
        // value of the largest TID.
        let writes = [(Tid::new(1, 3), r(3)), (Tid::new(1, 1), r(1)), (Tid::new(1, 2), r(2))];
        let rec = Record::new(r(0));
        for (tid, row) in writes.iter() {
            rec.apply_value_thomas(row.clone(), *tid);
        }
        assert_eq!(rec.read().row, r(3));
        assert_eq!(rec.tid(), Tid::new(1, 3));
    }

    #[test]
    fn epoch_revert_restores_previous_version() {
        let rec = Record::new(r(1));
        // Commit in epoch 1.
        rec.lock();
        rec.write_and_unlock(r(10), Tid::new(1, 1));
        // Write in epoch 2, which then fails before the fence. The
        // cross-epoch write replaces the stash with epoch 1's version.
        rec.lock();
        rec.write_and_unlock(r(20), Tid::new(2, 1));
        assert_eq!(rec.read().row, r(20));
        assert!(rec.revert_to_epoch(1));
        assert_eq!(rec.read().row, r(10));
        assert_eq!(rec.tid(), Tid::new(1, 1));
    }

    #[test]
    fn revert_is_noop_for_committed_epochs() {
        let rec = Record::new(r(1));
        rec.lock();
        rec.write_and_unlock(r(10), Tid::new(1, 1));
        // Epoch 1 has committed: the gate skips the record even though a
        // stale stash (the loaded row) is still physically present.
        assert!(!rec.revert_to_epoch(1));
        assert_eq!(rec.read().row, r(10));
        assert!(rec.stable_version().is_some(), "lazy invalidation keeps the stash in place");
    }

    #[test]
    fn unsynchronized_path_matches_synchronized() {
        let rec = Record::new(r(1));
        rec.write_unsynchronized(r(7), Tid::new(1, 1));
        assert_eq!(rec.read_unsynchronized().row, r(7));
        assert_eq!(rec.read().tid, Tid::new(1, 1));
    }

    #[test]
    fn concurrent_thomas_appliers_converge_to_max_tid() {
        let rec = Arc::new(Record::new(r(0)));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for s in 1..200u64 {
                    rec.apply_value_thomas(r(t * 1000 + s), Tid::new(1, s * 4 + t));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The winning TID must be the maximum of all applied ones: s=199,t=3.
        assert_eq!(rec.tid(), Tid::new(1, 199 * 4 + 3));
        assert!(!rec.is_locked());
    }

    #[test]
    fn concurrent_lockers_serialize() {
        let rec = Arc::new(Record::new(r(0)));
        let mut handles = Vec::new();
        for t in 1..=4u64 {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    rec.lock();
                    let cur = rec.read_unsynchronized().row.field(0).unwrap().as_u64().unwrap();
                    rec.write_and_unlock(r(cur + 1), Tid::new(1, t * 1000 + i + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 400 serialized increments.
        assert_eq!(rec.read().row.field(0).unwrap().as_u64(), Some(400));
    }
}
