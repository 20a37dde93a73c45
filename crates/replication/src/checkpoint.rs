//! Fuzzy checkpoints of a replica.
//!
//! A checkpoint records every record the replica holds, together with its
//! TID, and the epoch at which the scan started (Section 4.5.1). It does
//! **not** need to be a transactionally consistent snapshot: recovery loads
//! the checkpoint and then replays the WAL since the checkpoint's epoch with
//! the Thomas write rule, which repairs any inconsistency introduced by
//! concurrent writers during the scan.

use crate::entry::{LogEntry, Payload};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use star_common::{Epoch, Error, Result};
use star_storage::Database;
use std::io::{Read, Write};
use std::path::Path;

/// A serialised checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Epoch current when the checkpoint scan started. WAL entries from
    /// epochs `>= epoch` must be replayed on top of the checkpoint.
    pub epoch: Epoch,
    /// Every record captured by the scan, encoded as value log entries.
    pub entries: Vec<LogEntry>,
}

impl Checkpoint {
    /// Scans a replica and captures a checkpoint. The scan is fuzzy: it does
    /// not block concurrent writers — the underlying walk visits one index
    /// shard at a time, so even on a large partition writers only ever wait
    /// for the single shard currently being copied.
    pub fn capture(db: &Database, epoch: Epoch) -> Self {
        let mut entries = Vec::with_capacity(db.len());
        db.for_each_record(|table, partition, key, rec| {
            let read = rec.read();
            entries.push(LogEntry {
                table,
                partition,
                key,
                tid: read.tid,
                payload: Payload::Value(read.row.unpack()),
            });
        });
        Checkpoint { epoch, entries }
    }

    /// Restores the checkpoint into an (empty or partially loaded) replica.
    /// Existing newer versions survive because the load goes through the
    /// Thomas write rule.
    pub fn restore(&self, db: &Database) -> Result<usize> {
        let mut applied = 0;
        for entry in &self.entries {
            entry.apply(db)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Serialises the checkpoint to bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u32_le(self.epoch);
        buf.put_u64_le(self.entries.len() as u64);
        for entry in &self.entries {
            entry.encode(&mut buf);
        }
        buf.freeze()
    }

    /// Deserialises a checkpoint.
    pub fn decode(mut data: Bytes) -> Result<Self> {
        if data.remaining() < 12 {
            return Err(Error::Durability("truncated checkpoint header".into()));
        }
        let epoch = data.get_u32_le();
        let count = data.get_u64_le();
        // Each entry's header alone is 25 bytes; a larger count is a torn or
        // corrupted header — reject it before trusting it as an allocation
        // hint.
        if count > (data.remaining() / 25 + 1) as u64 {
            return Err(Error::Durability("checkpoint entry count exceeds its data".into()));
        }
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            entries.push(LogEntry::decode(&mut data)?);
        }
        Ok(Checkpoint { epoch, entries })
    }

    /// Writes the checkpoint to a file.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut file = std::fs::File::create(path)
            .map_err(|e| Error::Durability(format!("cannot create checkpoint: {e}")))?;
        file.write_all(&self.encode())
            .map_err(|e| Error::Durability(format!("cannot write checkpoint: {e}")))
    }

    /// Reads a checkpoint from a file.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self> {
        let mut file = std::fs::File::open(path)
            .map_err(|e| Error::Durability(format!("cannot open checkpoint: {e}")))?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)
            .map_err(|e| Error::Durability(format!("cannot read checkpoint: {e}")))?;
        Self::decode(Bytes::from(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_common::row::row;
    use star_common::{FieldValue, Tid};
    use star_storage::{DatabaseBuilder, TableSpec};

    fn populated_db() -> Database {
        let d =
            DatabaseBuilder::new(2).table(TableSpec::new("t")).table(TableSpec::new("u")).build();
        for k in 0..20u64 {
            d.insert(0, (k % 2) as usize, k, row([FieldValue::U64(k)])).unwrap();
        }
        d.apply_value_write(1, 0, 100, row([FieldValue::Str("hello".into())]), Tid::new(2, 3))
            .unwrap();
        d
    }

    fn empty_db() -> Database {
        DatabaseBuilder::new(2).table(TableSpec::new("t")).table(TableSpec::new("u")).build()
    }

    #[test]
    fn capture_restore_roundtrip() {
        let src = populated_db();
        let cp = Checkpoint::capture(&src, 3);
        assert_eq!(cp.epoch, 3);
        assert_eq!(cp.entries.len(), 21);

        let dst = empty_db();
        let applied = cp.restore(&dst).unwrap();
        assert_eq!(applied, 21);
        assert_eq!(dst.get(0, 1, 3).unwrap().read().row, row([FieldValue::U64(3)]));
        assert_eq!(dst.get(1, 0, 100).unwrap().tid(), Tid::new(2, 3));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let src = populated_db();
        let cp = Checkpoint::capture(&src, 7);
        let decoded = Checkpoint::decode(cp.encode()).unwrap();
        assert_eq!(decoded.epoch, 7);
        assert_eq!(decoded.entries.len(), cp.entries.len());
    }

    #[test]
    fn restore_does_not_clobber_newer_versions() {
        let src = populated_db();
        let cp = Checkpoint::capture(&src, 1);
        let dst = empty_db();
        // The destination already replayed a newer write for key 0.
        dst.apply_value_write(0, 0, 0, row([FieldValue::U64(999)]), Tid::new(5, 1)).unwrap();
        cp.restore(&dst).unwrap();
        assert_eq!(dst.get(0, 0, 0).unwrap().read().row, row([FieldValue::U64(999)]));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("star-cp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.bin");
        let src = populated_db();
        Checkpoint::capture(&src, 2).write_to(&path).unwrap();
        let loaded = Checkpoint::read_from(&path).unwrap();
        assert_eq!(loaded.epoch, 2);
        assert_eq!(loaded.entries.len(), 21);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Checkpoint::decode(Bytes::from_static(b"xx")).is_err());
    }

    #[test]
    fn decode_rejects_a_count_its_data_cannot_hold() {
        let honest = Checkpoint::capture(&populated_db(), 4).encode();
        let with_count = |count: u64| {
            let mut raw = honest.to_vec();
            raw[4..12].copy_from_slice(&count.to_le_bytes());
            Checkpoint::decode(Bytes::from(raw))
        };
        // A torn header must be a typed error, not a capacity-overflow panic
        // or an out-of-memory abort on the disk-recovery path.
        let remaining = (honest.len() - 12) as u64;
        for count in [u64::MAX, u64::MAX / 64, remaining / 25 + 2] {
            assert!(matches!(with_count(count), Err(Error::Durability(_))), "count={count}");
        }
        // A count within the bound still fails cleanly when entries run out.
        assert!(with_count(22).is_err());
        let decoded = with_count(21).unwrap();
        assert_eq!((decoded.epoch, decoded.entries.len()), (4, 21));
        let restored = empty_db();
        assert_eq!(decoded.restore(&restored).unwrap(), 21);
        assert_eq!(restored.get(0, 1, 3).unwrap().read().row, row([FieldValue::U64(3)]));
    }
}
