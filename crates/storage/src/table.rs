//! Tables, partitions and secondary indexes.
//!
//! The primary index of a partition is *lock-striped*: records are spread
//! over a fixed number of shards (chosen from the machine's available
//! parallelism at first use), each shard being an independently locked hash
//! table. Point operations only contend when they land on the same shard, so
//! the partitioned phase — where several partition workers plus the
//! replication appliers and the checkpointer touch the same `Database` —
//! never serialises behind a single partition-wide lock. Keys are routed to
//! shards with a Fibonacci multiplicative hash, and the per-shard maps use
//! the same cheap hash instead of the default SipHash: keys are internal
//! 64-bit integers produced by the workloads, not attacker-controlled input,
//! so HashDoS resistance buys nothing on this hot path.

use crate::record::Record;
use parking_lot::RwLock;
use star_common::{Key, PackedRow, PartitionId, Tid};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::sync::OnceLock;

/// 2^64 / φ — the Fibonacci hashing constant. A single multiplication mixes
/// the low bits of sequential keys into the high bits, which both the shard
/// router and the per-shard maps consume.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A one-multiplication hasher for the `u64` keys of the storage layer.
///
/// `write_u64` is the only method the maps exercise on the hot path; the
/// byte-wise fallback exists so the type is a complete [`Hasher`].
#[derive(Debug, Default)]
pub struct FixedKeyHasher(u64);

impl Hasher for FixedKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FIB);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(FIB);
    }
}

/// [`std::hash::BuildHasher`] for [`FixedKeyHasher`].
pub type FixedKeyState = BuildHasherDefault<FixedKeyHasher>;

/// Routes a key to a shard: high bits of the Fibonacci product, masked to the
/// (power-of-two) shard count. The per-shard maps consume the *low* bits of
/// the same product, so router and map do not collide on the same bit range.
#[inline]
fn shard_of(key: Key, mask: usize) -> usize {
    ((key.wrapping_mul(FIB) >> 32) as usize) & mask
}

/// Default shard count: the machine's available parallelism, rounded up to a
/// power of two, floored at 8 (lock striping pays off even at low core counts
/// because the replication applier, checkpointer and workers interleave) and
/// capped at 64 to bound per-partition footprint.
fn default_shard_count() -> usize {
    static SHARDS: OnceLock<usize> = OnceLock::new();
    *SHARDS.get_or_init(|| {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        threads.next_power_of_two().clamp(8, 64)
    })
}

/// One lock stripe of a partition, padded to a cache line so adjacent shard
/// locks do not false-share under concurrent updates.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard {
    records: RwLock<HashMap<Key, Arc<Record>, FixedKeyState>>,
}

/// One partition of a table: a sharded hash table from primary key to record.
///
/// Inserts and deletes take the *shard* write lock; point lookups clone an
/// `Arc<Record>` under the shard read lock and then operate on the record's
/// own synchronization, so no index lock is ever held across transaction
/// logic, and operations on different shards never contend.
#[derive(Debug)]
pub struct Partition {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; the shard count is always a power of two.
    mask: usize,
}

impl Default for Partition {
    fn default() -> Self {
        Self::new()
    }
}

impl Partition {
    /// Creates an empty partition with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(default_shard_count())
    }

    /// Creates an empty partition with an explicit shard count (rounded up to
    /// a power of two, minimum 1). `with_shards(1)` reproduces the pre-shard
    /// single-lock layout.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Partition { shards: (0..n).map(|_| Shard::default()).collect(), mask: n - 1 }
    }

    /// Number of lock stripes in this partition.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard(&self, key: Key) -> &Shard {
        &self.shards[shard_of(key, self.mask)]
    }

    /// Number of records in the partition.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.records.read().len()).sum()
    }

    /// Whether the partition holds no records.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.records.read().is_empty())
    }

    /// Looks up a record by primary key.
    #[inline]
    pub fn get(&self, key: Key) -> Option<Arc<Record>> {
        self.shard(key).records.read().get(&key).cloned()
    }

    /// Inserts a record, replacing any previous record under the same key.
    /// Returns the inserted record handle.
    pub fn insert(&self, key: Key, record: Record) -> Arc<Record> {
        let rec = Arc::new(record);
        self.shard(key).records.write().insert(key, Arc::clone(&rec));
        rec
    }

    /// Inserts a record only if the key is not present; returns the record
    /// now stored under the key and whether an insert happened.
    pub fn insert_if_absent(&self, key: Key, record: Record) -> (Arc<Record>, bool) {
        self.get_or_insert_with_flag(key, move || record)
    }

    /// Returns the record under `key`, creating it with `make` if absent.
    ///
    /// This is the OCC insert path: most calls find the key already present,
    /// so the fast path is a shard *read* lock and never runs `make`. Only a
    /// miss upgrades to the shard write lock (re-checking under it, since a
    /// concurrent inserter may have won the race in between).
    #[inline]
    pub fn get_or_insert_with(&self, key: Key, make: impl FnOnce() -> Record) -> Arc<Record> {
        self.get_or_insert_with_flag(key, make).0
    }

    /// [`Self::get_or_insert_with`], also reporting whether an insert
    /// happened.
    pub fn get_or_insert_with_flag(
        &self,
        key: Key,
        make: impl FnOnce() -> Record,
    ) -> (Arc<Record>, bool) {
        let shard = self.shard(key);
        if let Some(rec) = shard.records.read().get(&key) {
            return (Arc::clone(rec), false);
        }
        let mut map = shard.records.write();
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => (Arc::clone(e.get()), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                let rec = Arc::new(make());
                e.insert(Arc::clone(&rec));
                (rec, true)
            }
        }
    }

    /// Removes a record.
    pub fn remove(&self, key: Key) -> Option<Arc<Record>> {
        self.shard(key).records.write().remove(&key)
    }

    /// Snapshot of the keys currently present, collected shard by shard so no
    /// single lock is held across the whole partition: the checkpointer can
    /// walk an arbitrarily large partition without ever blocking writers for
    /// more than one shard's worth of copying. The snapshot is fuzzy across
    /// shards — keys inserted into an already-visited shard during the walk
    /// are not reported.
    pub fn keys(&self) -> Vec<Key> {
        let mut keys = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            keys.extend(shard.records.read().keys().copied());
        }
        keys
    }

    /// Runs `f` for every `(key, record)` pair, one shard at a time. Only the
    /// current shard's read lock is held while `f` runs, so writers to other
    /// shards proceed concurrently; `f` must still not block on record locks
    /// held by writers that might insert into the shard being visited.
    pub fn for_each(&self, mut f: impl FnMut(Key, &Arc<Record>)) {
        for shard in self.shards.iter() {
            for (k, rec) in shard.records.read().iter() {
                f(*k, rec);
            }
        }
    }
}

/// One lock stripe of a secondary index: secondary key → primary keys.
type SecondaryShard = RwLock<HashMap<Key, Vec<Key>, FixedKeyState>>;

/// A secondary index mapping an encoded secondary key to the primary keys
/// that carry it (e.g. TPC-C customer last name → customer ids). Sharded the
/// same way as the primary index.
#[derive(Debug)]
pub struct SecondaryIndex {
    shards: Box<[SecondaryShard]>,
    mask: usize,
}

impl Default for SecondaryIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl SecondaryIndex {
    /// Creates an empty index with the default shard count.
    pub fn new() -> Self {
        let n = default_shard_count();
        SecondaryIndex { shards: (0..n).map(|_| RwLock::default()).collect(), mask: n - 1 }
    }

    #[inline]
    fn shard(&self, secondary: Key) -> &SecondaryShard {
        &self.shards[shard_of(secondary, self.mask)]
    }

    /// Adds a mapping from `secondary` to `primary`.
    pub fn insert(&self, secondary: Key, primary: Key) {
        self.shard(secondary).write().entry(secondary).or_default().push(primary);
    }

    /// All primary keys registered under `secondary` (empty if none).
    pub fn lookup(&self, secondary: Key) -> Vec<Key> {
        self.shard(secondary).read().get(&secondary).cloned().unwrap_or_default()
    }

    /// Removes one `secondary -> primary` mapping.
    pub fn remove(&self, secondary: Key, primary: Key) {
        let mut map = self.shard(secondary).write();
        if let Some(v) = map.get_mut(&secondary) {
            v.retain(|p| *p != primary);
            if v.is_empty() {
                map.remove(&secondary);
            }
        }
    }

    /// Number of distinct secondary keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }
}

/// A table: one primary hash table per partition plus named secondary
/// indexes.
#[derive(Debug)]
pub struct Table {
    name: String,
    partitions: Vec<Partition>,
    secondary: Vec<SecondaryIndex>,
}

impl Table {
    /// Creates a table with `num_partitions` empty partitions and
    /// `num_secondary` secondary indexes.
    pub fn new(name: impl Into<String>, num_partitions: usize, num_secondary: usize) -> Self {
        Table {
            name: name.into(),
            partitions: (0..num_partitions).map(|_| Partition::new()).collect(),
            secondary: (0..num_secondary).map(|_| SecondaryIndex::new()).collect(),
        }
    }

    /// Table name (catalog label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Borrow a partition.
    #[inline]
    pub fn partition(&self, p: PartitionId) -> Option<&Partition> {
        self.partitions.get(p)
    }

    /// Borrow a secondary index by position.
    pub fn secondary_index(&self, idx: usize) -> Option<&SecondaryIndex> {
        self.secondary.get(idx)
    }

    /// Point lookup.
    #[inline]
    pub fn get(&self, p: PartitionId, key: Key) -> Option<Arc<Record>> {
        self.partitions.get(p).and_then(|part| part.get(key))
    }

    /// Returns the record under `key`, creating it with `make` if absent
    /// (the OCC insert path). `None` if the partition is out of range.
    pub fn get_or_insert_with(
        &self,
        p: PartitionId,
        key: Key,
        make: impl FnOnce() -> Record,
    ) -> Option<Arc<Record>> {
        self.partitions.get(p).map(|part| part.get_or_insert_with(key, make))
    }

    /// Inserts a freshly loaded row (TID zero).
    pub fn insert(
        &self,
        p: PartitionId,
        key: Key,
        row: impl Into<PackedRow>,
    ) -> Option<Arc<Record>> {
        self.partitions.get(p).map(|part| part.insert(key, Record::new(row)))
    }

    /// Inserts a row that already carries a TID (replication / recovery).
    pub fn insert_with_tid(
        &self,
        p: PartitionId,
        key: Key,
        row: impl Into<PackedRow>,
        tid: Tid,
    ) -> Option<Arc<Record>> {
        self.partitions.get(p).map(|part| part.insert(key, Record::with_tid(row, tid)))
    }

    /// Total number of records across all partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(Partition::len).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.partitions.iter().all(Partition::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_common::row::row;
    use star_common::{FieldValue, Row};

    fn r(v: u64) -> Row {
        row([FieldValue::U64(v)])
    }

    #[test]
    fn partition_insert_get_remove() {
        let p = Partition::new();
        assert!(p.is_empty());
        p.insert(1, Record::new(r(10)));
        p.insert(2, Record::new(r(20)));
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(1).unwrap().read().row, r(10));
        assert!(p.get(3).is_none());
        assert!(p.remove(1).is_some());
        assert!(p.get(1).is_none());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn insert_if_absent_does_not_overwrite() {
        let p = Partition::new();
        let (_, inserted) = p.insert_if_absent(1, Record::new(r(10)));
        assert!(inserted);
        let (rec, inserted) = p.insert_if_absent(1, Record::new(r(99)));
        assert!(!inserted);
        assert_eq!(rec.read().row, r(10));
    }

    #[test]
    fn get_or_insert_with_skips_constructor_on_hit() {
        let p = Partition::new();
        p.insert(7, Record::new(r(70)));
        let rec = p.get_or_insert_with(7, || unreachable!("constructor must not run on a hit"));
        assert_eq!(rec.read().row, r(70));
        let rec = p.get_or_insert_with(8, || Record::new(r(80)));
        assert_eq!(rec.read().row, r(80));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn shard_count_is_power_of_two_with_floor_of_one() {
        assert_eq!(Partition::with_shards(0).num_shards(), 1);
        assert_eq!(Partition::with_shards(1).num_shards(), 1);
        assert_eq!(Partition::with_shards(3).num_shards(), 4);
        assert_eq!(Partition::with_shards(16).num_shards(), 16);
        let default = Partition::new().num_shards();
        assert!(default.is_power_of_two());
        assert!((8..=64).contains(&default));
    }

    #[test]
    fn records_spread_across_shards() {
        let p = Partition::with_shards(8);
        for k in 0..1024u64 {
            p.insert(k, Record::new(r(k)));
        }
        assert_eq!(p.len(), 1024);
        // Fibonacci routing must not degenerate to a single shard for
        // sequential keys: every shard should hold a reasonable slice.
        let mut per_shard = vec![0usize; 8];
        for k in 0..1024u64 {
            per_shard[shard_of(k, 7)] += 1;
        }
        assert!(per_shard.iter().all(|&n| n > 0), "a shard got no keys: {per_shard:?}");
        assert!(per_shard.iter().all(|&n| n < 512), "routing is degenerate: {per_shard:?}");
    }

    #[test]
    fn partition_for_each_and_keys() {
        let p = Partition::new();
        for k in 0..5 {
            p.insert(k, Record::new(r(k)));
        }
        let mut keys = p.keys();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
        let mut sum = 0;
        p.for_each(|_, rec| sum += rec.read().row.field(0).unwrap().as_u64().unwrap());
        assert_eq!(sum, 1 + 2 + 3 + 4);
    }

    #[test]
    fn single_shard_partition_matches_pre_shard_layout() {
        let p = Partition::with_shards(1);
        for k in 0..100u64 {
            p.insert(k, Record::new(r(k)));
        }
        assert_eq!(p.len(), 100);
        assert_eq!(p.num_shards(), 1);
        let mut keys = p.keys();
        keys.sort_unstable();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn secondary_index_roundtrip() {
        let idx = SecondaryIndex::new();
        assert!(idx.is_empty());
        idx.insert(100, 1);
        idx.insert(100, 2);
        idx.insert(200, 3);
        assert_eq!(idx.lookup(100), vec![1, 2]);
        assert_eq!(idx.lookup(200), vec![3]);
        assert!(idx.lookup(300).is_empty());
        idx.remove(100, 1);
        assert_eq!(idx.lookup(100), vec![2]);
        idx.remove(200, 3);
        assert!(idx.lookup(200).is_empty());
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn table_partitioned_access() {
        let t = Table::new("ycsb", 4, 1);
        assert_eq!(t.name(), "ycsb");
        assert_eq!(t.num_partitions(), 4);
        t.insert(0, 1, r(10));
        t.insert(3, 2, r(20));
        assert!(t.get(0, 1).is_some());
        assert!(t.get(1, 1).is_none());
        assert!(t.get(3, 2).is_some());
        assert!(t.get(7, 2).is_none(), "out-of-range partition yields None");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert!(t.secondary_index(0).is_some());
        assert!(t.secondary_index(1).is_none());
    }

    #[test]
    fn insert_with_tid_preserves_tid() {
        let t = Table::new("t", 1, 0);
        let rec = t.insert_with_tid(0, 7, r(7), Tid::new(3, 9)).unwrap();
        assert_eq!(rec.tid(), Tid::new(3, 9));
    }
}
