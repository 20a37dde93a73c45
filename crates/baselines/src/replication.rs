//! The baselines' replication path, routed through the shared fault plane.
//!
//! Every baseline replicates the writes of committed transactions to a
//! backup replica — PB. OCC and the partitioning-based engines apply them at
//! the epoch group commit (or synchronously per transaction), Calvin at the
//! end of each sequenced batch. [`ReplicaLink`] models that primary→backup
//! stream as one directed link of the same seeded [`FaultPlane`] the chaos
//! harness drives the STAR engine with, so drop / duplicate / reorder faults
//! can be injected into the baselines' replication paths too:
//!
//! * **duplicate** — the entry is applied twice; the second application is a
//!   TID-gated no-op (Thomas write rule), so duplicates are always safe;
//! * **reorder** — the entry is stashed and released after a later entry on
//!   the link (or at the group commit); all baselines replicate full rows
//!   (value payloads), which the Thomas write rule makes order-insensitive;
//! * **drop** — the entry is lost silently. Nothing in a baseline's
//!   protocol can detect this, so the backup diverges — which is exactly
//!   what the chaos harness's backup-vs-oracle comparison must catch (the
//!   negative control for the baselines' fault coverage);
//! * **corrupt** — the entry's row payload is bit-flipped in flight
//!   (byzantine). Like drops, never protocol-safe: the backup applies the
//!   garbage silently and the backup-vs-oracle comparison must flag it.

use parking_lot::Mutex;
use star_net::fault::apply_verdict;
use star_net::{FaultPlane, FaultVerdict, LinkFaults};
use star_replication::{LogEntry, Payload};
use star_storage::Database;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The synthetic link id of the primary side of the stream.
const PRIMARY: usize = 0;
/// The synthetic link id of the backup side of the stream.
const BACKUP: usize = 1;

/// A fault-injectable primary→backup replication stream.
///
/// Without configured faults the link is transparent (the fault plane's
/// fast path makes a fault-free link byte-for-byte identical to no link at
/// all), so engines pay nothing for routing their replication through it.
#[derive(Debug, Default)]
pub struct ReplicaLink {
    plane: FaultPlane,
    /// Whether any faults are configured. When false, `offer`/`deliver_now`
    /// skip the per-entry fault roll (and its lock on the shared plane)
    /// entirely, so the benchmark hot path pays one buffer lock per batch,
    /// exactly as before the link existed.
    faulted: AtomicBool,
    /// Entries delivered but not yet applied (async group-commit mode).
    pending: Mutex<Vec<LogEntry>>,
    /// Entries held back by reorder faults; released behind the next entry
    /// that is not stashed too, or by the group commit.
    stash: Mutex<Vec<LogEntry>>,
    dropped: AtomicU64,
}

/// Corrupts one entry's payload with the shared salt-driven mutation
/// (`star_common`'s `Row::corrupt` / `Operation::corrupt`), so the STAR and
/// baseline harnesses inject identical byzantine faults for the same salt.
fn corrupt_entry(entry: &mut LogEntry, salt: u64) {
    match &mut entry.payload {
        Payload::Value(row) => row.corrupt(salt),
        Payload::Operation(op) => op.corrupt(salt),
    };
}

impl ReplicaLink {
    /// A transparent link (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds the link's fault RNG and applies `faults` to the stream.
    /// Existing RNG state is discarded, so the fault decisions reproduce
    /// from `(seed, faults, entry sequence)` alone.
    pub fn set_faults(&self, seed: u64, faults: LinkFaults) {
        self.plane.seed(seed);
        self.plane.set_link_faults(PRIMARY, BACKUP, faults);
        self.faulted.store(!faults.is_none(), Ordering::Release);
    }

    /// Entries silently lost so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Rolls the fate of one entry, pushing the survivors onto `out`.
    fn admit(&self, entry: LogEntry, out: &mut Vec<LogEntry>) {
        let verdict = self.plane.roll(PRIMARY, BACKUP);
        if verdict == FaultVerdict::Drop {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        apply_verdict(verdict, entry, &mut self.stash.lock(), corrupt_entry, |entry, _| {
            out.push(entry)
        });
    }

    /// Offers committed entries to the link for asynchronous replication:
    /// the survivors are buffered until [`group_commit`](Self::group_commit)
    /// applies them to the backup.
    pub fn offer(&self, entries: Vec<LogEntry>) {
        if !self.faulted.load(Ordering::Acquire) {
            self.pending.lock().extend(entries);
            return;
        }
        let mut delivered = Vec::with_capacity(entries.len());
        for entry in entries {
            self.admit(entry, &mut delivered);
        }
        self.pending.lock().extend(delivered);
    }

    /// Synchronous replication: rolls each entry's fate and applies the
    /// survivors to `backup` immediately.
    pub fn deliver_now(&self, entries: &[LogEntry], backup: &Database) {
        if !self.faulted.load(Ordering::Acquire) {
            for entry in entries {
                let _ = entry.apply(backup);
            }
            return;
        }
        let mut delivered = Vec::with_capacity(entries.len());
        for entry in entries {
            self.admit(entry.clone(), &mut delivered);
        }
        for entry in &delivered {
            let _ = entry.apply(backup);
        }
    }

    /// The epoch / batch group commit: releases the reorder stash, applies
    /// every buffered entry to `backup` and returns how many were applied.
    pub fn group_commit(&self, backup: &Database) -> usize {
        let mut entries = std::mem::take(&mut *self.pending.lock());
        entries.append(&mut self.stash.lock());
        for entry in &entries {
            let _ = entry.apply(backup);
        }
        entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_common::row::row;
    use star_common::{FieldValue, Tid};
    use star_replication::Payload;
    use star_storage::{DatabaseBuilder, TableSpec};

    fn backup() -> Database {
        DatabaseBuilder::new(1).table(TableSpec::new("t")).build()
    }

    fn entry(key: u64, seq: u64, value: u64) -> LogEntry {
        LogEntry {
            table: 0,
            partition: 0,
            key,
            tid: Tid::new(1, seq),
            payload: Payload::Value(row([FieldValue::U64(value)])),
        }
    }

    #[test]
    fn transparent_link_applies_everything_at_group_commit() {
        let link = ReplicaLink::new();
        let db = backup();
        link.offer(vec![entry(1, 1, 10), entry(2, 2, 20)]);
        assert_eq!(db.len(), 0, "async entries wait for the group commit");
        assert_eq!(link.group_commit(&db), 2);
        assert_eq!(db.len(), 2);
        assert_eq!(link.dropped(), 0);
    }

    #[test]
    fn dropping_link_loses_entries_silently() {
        let link = ReplicaLink::new();
        link.set_faults(7, LinkFaults::dropping(1.0));
        let db = backup();
        link.offer(vec![entry(1, 1, 10), entry(2, 2, 20)]);
        assert_eq!(link.group_commit(&db), 0);
        assert_eq!(db.len(), 0);
        assert_eq!(link.dropped(), 2);
    }

    #[test]
    fn duplicates_are_tid_gated_no_ops() {
        let link = ReplicaLink::new();
        link.set_faults(7, LinkFaults::duplicating(1.0));
        let db = backup();
        link.offer(vec![entry(1, 1, 10)]);
        assert_eq!(link.group_commit(&db), 2, "both copies are delivered");
        let rec = db.get(0, 0, 1).unwrap();
        assert_eq!(rec.read().row, row([FieldValue::U64(10)]));
    }

    #[test]
    fn reordered_entries_are_released_by_the_group_commit() {
        let link = ReplicaLink::new();
        link.set_faults(7, LinkFaults::reordering(1.0));
        let db = backup();
        link.offer(vec![entry(1, 1, 10), entry(1, 2, 11)]);
        // Every entry was stashed (reorder probability 1.0), so nothing is
        // pending yet — the group commit must still deliver them all.
        assert_eq!(link.group_commit(&db), 2);
        // The Thomas write rule keeps the newest version regardless of the
        // apply order.
        let rec = db.get(0, 0, 1).unwrap();
        assert_eq!(rec.read().tid, Tid::new(1, 2));
    }

    #[test]
    fn fault_decisions_reproduce_from_the_seed() {
        let outcomes = |seed: u64| -> (u64, Vec<usize>) {
            let link = ReplicaLink::new();
            link.set_faults(
                seed,
                LinkFaults {
                    drop_probability: 0.3,
                    duplicate_probability: 0.3,
                    reorder_probability: 0.2,
                    ..LinkFaults::none()
                },
            );
            let db = backup();
            // The applied count of each group commit traces the verdicts.
            let applied = (0..100u64)
                .map(|i| {
                    link.offer(vec![entry(i % 8, i + 1, i)]);
                    link.group_commit(&db)
                })
                .collect();
            (link.dropped(), applied)
        };
        assert_eq!(outcomes(3), outcomes(3));
        assert_ne!(outcomes(3), outcomes(4), "different seeds should diverge");
    }
}
