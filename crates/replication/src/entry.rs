//! Replication / recovery log entries and their binary codec.
//!
//! The same entry type flows through three paths:
//!
//! * shipped over the simulated network from a primary to its replicas;
//! * appended to the write-ahead log for durability;
//! * replayed during recovery.
//!
//! The codec is a small hand-rolled binary format on top of the `bytes`
//! crate: length-prefixed fields, little-endian integers. It exists so that
//! the WAL is an actual byte stream (its size is measured in Figure 15(b))
//! rather than a vector of in-memory structs. The row and field layout is
//! owned by `star_common::packed` — it is also the format records store rows
//! in — and `decode_front` only adapts its slice decoders to `bytes` cursors;
//! the entry header, the operation layout and the count-prefixed entry block
//! (`star-proto`'s replication frames carry it as is) live here.
//!
//! A replica installs an entry without unpacking the stored row: a value
//! entry packs the shipped row into the replica's own version, and a
//! `SetField` splices its field into the stored version — one allocation
//! either way. A received block is checked at the frame boundary by
//! [`check_entry_block`], which walks it in place, and decoded once, by
//! [`split_entry_block`], where it is applied.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use star_common::packed::{split_field, split_row};
use star_common::row::OperationError;
use star_common::{
    Error, FieldValue, Key, Operation, PackedRow, PartitionId, Result, Row, TableId, Tid,
};
use star_storage::Database;
use std::ops::Range;
use std::sync::Arc;

/// An entry's header: table(4) + partition(4) + key(8) + tid(8) + tag(1).
const ENTRY_HEADER_LEN: usize = 25;

/// What a log entry carries for the written record.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// The full row (value replication; always used in the WAL).
    Value(Row),
    /// The operation that produced the new row (operation replication).
    Operation(Operation),
}

impl Payload {
    /// Exact encoded size of the payload (without the entry's tag byte).
    pub fn wire_size(&self) -> usize {
        match self {
            Payload::Value(row) => row.wire_size(),
            Payload::Operation(op) => op.wire_size(),
        }
    }
}

/// A single replicated / logged write of one record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Table of the written record.
    pub table: TableId,
    /// Partition of the written record.
    pub partition: PartitionId,
    /// Primary key of the written record.
    pub key: Key,
    /// TID of the transaction that produced the write (embeds the epoch).
    pub tid: Tid,
    /// Row value or operation.
    pub payload: Payload,
}

impl LogEntry {
    /// Exact encoded size of the whole entry (header + payload).
    pub fn wire_size(&self) -> usize {
        ENTRY_HEADER_LEN + self.payload.wire_size()
    }

    /// Applies this entry to a replica database.
    ///
    /// * Value payloads go through the Thomas write rule (and upsert missing
    ///   keys), so they may be applied in any order. The replica packs the
    ///   borrowed row into a version of its own — one allocation, and only
    ///   if the write is not stale.
    /// * Operation payloads are applied to the current row **in stream
    ///   order**, and the new row is installed under the entry's TID. A
    ///   `SetField` splices the field into the stored version without
    ///   unpacking it ([`PackedRow::with_field`], one allocation); any other
    ///   operation unpacks the row, applies, and packs the result.
    pub fn apply(&self, db: &Database) -> Result<()> {
        match &self.payload {
            Payload::Value(row) => {
                db.apply_value_write(self.table, self.partition, self.key, row, self.tid)?;
            }
            Payload::Operation(op) => {
                let current = match db.try_get(self.table, self.partition, self.key)? {
                    Some(rec) => rec.read().row,
                    None => PackedRow::empty(),
                };
                if let Operation::SetField { field, value } = op {
                    let new_row = current.with_field(*field, value.as_ref()).ok_or_else(|| {
                        OperationError { message: format!("field {field} out of range") }
                    })?;
                    db.apply_value_write(self.table, self.partition, self.key, new_row, self.tid)?;
                } else {
                    let mut new_row = current.unpack();
                    op.apply(&mut new_row)?;
                    db.apply_value_write(self.table, self.partition, self.key, &new_row, self.tid)?;
                }
            }
        }
        Ok(())
    }

    /// Encodes the entry onto a buffer.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.table);
        buf.put_u32_le(self.partition as u32);
        buf.put_u64_le(self.key);
        buf.put_u64_le(self.tid.raw());
        match &self.payload {
            Payload::Value(row) => {
                buf.put_u8(0);
                row.encode(&mut |bytes| buf.put_slice(bytes));
            }
            Payload::Operation(op) => {
                buf.put_u8(1);
                encode_operation(op, buf);
            }
        }
    }

    /// Encodes the entry into a standalone byte buffer.
    pub fn encode_to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_size());
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decodes one entry from the front of `buf`, advancing it.
    pub fn decode(buf: &mut impl Buf) -> Result<LogEntry> {
        if buf.remaining() < ENTRY_HEADER_LEN {
            return Err(Error::Durability("truncated log entry header".into()));
        }
        let table = buf.get_u32_le();
        let partition = buf.get_u32_le() as PartitionId;
        let key = buf.get_u64_le();
        let tid = Tid::from_raw(buf.get_u64_le());
        let tag = buf.get_u8();
        let payload = match tag {
            0 => Payload::Value(decode_front(buf, Row::decode)?),
            1 => Payload::Operation(decode_operation(buf)?),
            other => return Err(Error::Durability(format!("unknown payload tag {other}"))),
        };
        Ok(LogEntry { table, partition, key, tid, payload })
    }
}

/// A log entry in its canonical encoded form, shared by reference count.
///
/// Replication fan-out used to deep-clone `LogEntry` rows once per target
/// (a `Row` is a vector of field values, several of which own heap buffers,
/// so one YCSB write cost ~a dozen allocations per replica). The encoded
/// form is produced once at commit time; every further hop — the per-target
/// batch, the fence drain, the deferred commit-queue apply, the TCP frame —
/// is a refcount bump on the same buffer. The partition and TID are mirrored
/// out of the 25-byte header so routing, `holds()` filtering and fence
/// next-phase decisions never decode the payload.
///
/// The decoded form rides along behind the same refcount: the committing
/// worker already holds the `LogEntry`, and the wire receive path decodes
/// each received block once ([`split_entry_block`]), so every apply — the
/// fence's synchronous pass and each replica's deferred drain — is
/// allocation-free instead of re-parsing the payload per replica. The bytes
/// stay the entry's identity (equality, corruption, the wire) and the cache
/// is rebuilt whenever the bytes change.
#[derive(Debug, Clone)]
pub struct EncodedEntry {
    partition: PartitionId,
    tid: Tid,
    bytes: Bytes,
    decoded: Arc<LogEntry>,
}

impl PartialEq for EncodedEntry {
    fn eq(&self, other: &Self) -> bool {
        // The encoded bytes are the entry's identity; the decoded cache is
        // derived from them.
        self.partition == other.partition && self.tid == other.tid && self.bytes == other.bytes
    }
}

impl EncodedEntry {
    /// Encodes `entry` once into its shareable form.
    pub fn from_entry(entry: &LogEntry) -> Self {
        Self::from_owned(entry.clone())
    }

    /// Encodes an owned `entry`: the entry moves behind the decoded-payload
    /// cache, so no row payload is cloned.
    pub fn from_owned(entry: LogEntry) -> Self {
        let bytes = entry.encode_to_bytes();
        EncodedEntry { partition: entry.partition, tid: entry.tid, bytes, decoded: Arc::new(entry) }
    }

    /// Encodes a freshly committed write set's entries in stream order,
    /// consuming them — the commit path hands its write set over instead of
    /// paying one payload clone per written row.
    pub fn encode_all(entries: Vec<LogEntry>) -> Vec<EncodedEntry> {
        entries.into_iter().map(Self::from_owned).collect()
    }

    /// Partition of the written record (mirrored from the header).
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// TID of the transaction that produced the write (mirrored from the
    /// header; embeds the epoch).
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// The encoded entry bytes (header + payload).
    pub fn as_bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// On-wire size of the entry: exactly the encoded length.
    pub fn wire_size(&self) -> usize {
        self.bytes.len()
    }

    /// The decoded [`LogEntry`], straight from the refcounted cache.
    pub fn decode(&self) -> Result<LogEntry> {
        Ok((*self.decoded).clone())
    }

    /// Applies the entry to a replica database — no decoding, no allocation
    /// beyond what [`LogEntry::apply`] itself does.
    pub fn apply(&self, db: &Database) -> Result<()> {
        self.decoded.apply(db)
    }

    /// Byzantine corruption: deterministically bit-flips the entry's payload
    /// (decode → same mutation the decoded form used → re-encode), leaving
    /// the addressing header intact. Returns whether anything changed.
    pub fn corrupt_payload(&mut self, salt: u64) -> bool {
        let mut entry = (*self.decoded).clone();
        let changed = match &mut entry.payload {
            Payload::Value(row) => row.corrupt(salt),
            Payload::Operation(op) => op.corrupt(salt),
        };
        if changed {
            self.bytes = entry.encode_to_bytes();
            self.decoded = Arc::new(entry);
        }
        changed
    }
}

/// Serializes a batch of already-encoded entries as the canonical
/// count-prefixed block (the same layout `star-proto` ships on the wire):
/// `u32le` entry count followed by each entry's encoded bytes. One copy into
/// the contiguous block is the only byte-level work fan-out ever performs.
pub fn encode_entry_block(entries: &[EncodedEntry]) -> Bytes {
    let total = 4 + entries.iter().map(EncodedEntry::wire_size).sum::<usize>();
    let mut buf = BytesMut::with_capacity(total);
    buf.put_u32_le(entries.len() as u32);
    for entry in entries {
        buf.put_slice(entry.as_bytes());
    }
    buf.freeze()
}

/// Splits a count-prefixed entry block back into per-entry [`EncodedEntry`]
/// values without copying payload bytes: each entry is a sub-slice of the
/// received block, validated (and its header mirrored) by one decode pass.
pub fn split_entry_block(block: &Bytes) -> Result<Vec<EncodedEntry>> {
    map_entry_block(block, |range, entry| EncodedEntry {
        partition: entry.partition,
        tid: entry.tid,
        bytes: block.slice(range),
        // The boundary-validation decode doubles as the apply-time cache.
        decoded: Arc::new(entry),
    })
}

/// Reads an entry block written by [`encode_entry_block`] — the one reader
/// of its layout: a `u32le` entry count no larger than the bytes behind it
/// can hold (every entry's header alone is 25 bytes), the entries
/// back to back, and nothing after them. Each entry is decoded once and
/// handed to `f` together with its byte range in `block`; the results come
/// back in block order.
pub fn map_entry_block<T>(
    block: &[u8],
    mut f: impl FnMut(Range<usize>, LogEntry) -> T,
) -> Result<Vec<T>> {
    let (count, mut cur) = split_entry_count(block)?;
    let mut mapped = Vec::with_capacity(count);
    for _ in 0..count {
        let start = block.len() - cur.len();
        let entry = LogEntry::decode(&mut cur)?;
        mapped.push(f(start..block.len() - cur.len(), entry));
    }
    end_of_block(cur)?;
    Ok(mapped)
}

/// Checks that `block` is an entry block [`map_entry_block`] would accept,
/// without materialising anything: each entry's header, row fields and
/// operation operands are walked in place (UTF-8 checked where the decoder
/// checks it), so a frame boundary can refuse a malformed block without
/// allocating.
pub fn check_entry_block(block: &[u8]) -> Result<()> {
    let (count, mut cur) = split_entry_count(block)?;
    for _ in 0..count {
        cur = skip_entry(cur)?;
    }
    end_of_block(cur)
}

/// Splits a block's entry count off its front, refusing a count the bytes
/// behind it cannot hold.
fn split_entry_count(block: &[u8]) -> Result<(usize, &[u8])> {
    let truncated = || Error::Durability("truncated entry block".into());
    let (count, rest) = split_u32(block).ok_or_else(truncated)?;
    if (count as usize).saturating_mul(ENTRY_HEADER_LEN) > rest.len() {
        return Err(truncated());
    }
    Ok((count as usize, rest))
}

/// Refuses bytes after a block's last entry.
fn end_of_block(rest: &[u8]) -> Result<()> {
    if !rest.is_empty() {
        return Err(Error::Durability("trailing bytes after entry block".into()));
    }
    Ok(())
}

/// A `u32le` off the front of `input`, and the bytes after it.
fn split_u32(input: &[u8]) -> Option<(u32, &[u8])> {
    let head = input.get(..4)?.try_into().ok()?;
    Some((u32::from_le_bytes(head), input.get(4..)?))
}

/// Walks one encoded entry at the front of `input` — the layout
/// [`LogEntry::decode`] reads — and returns the bytes after it.
fn skip_entry(input: &[u8]) -> Result<&[u8]> {
    let (&tag, payload) = input
        .get(ENTRY_HEADER_LEN - 1..)
        .and_then(<[u8]>::split_first)
        .ok_or_else(|| Error::Durability("truncated log entry header".into()))?;
    match tag {
        0 => Ok(split_row(payload)?.1),
        1 => skip_operation(payload),
        other => Err(Error::Durability(format!("unknown payload tag {other}"))),
    }
}

/// Walks one encoded operation — the layout `decode_operation` reads — and
/// returns the bytes after it.
fn skip_operation(input: &[u8]) -> Result<&[u8]> {
    let truncated = || Error::Durability("truncated operation".into());
    let (&tag, operands) = input.split_first().ok_or_else(truncated)?;
    let after = |len: usize| operands.get(len..).ok_or_else(truncated);
    match tag {
        0 => Ok(split_field(after(4)?)?.1),
        1 | 2 => after(12),
        3 => {
            let (len, rest) = split_u32(after(8)?).ok_or_else(truncated)?;
            let len = len as usize;
            let (prefix, rest) = rest.get(..len).zip(rest.get(len..)).ok_or_else(truncated)?;
            std::str::from_utf8(prefix)
                .map_err(|_| Error::Durability("invalid utf-8 in concat prefix".into()))?;
            Ok(rest)
        }
        4 => Ok(split_row(operands)?.1),
        5 => {
            let (count, mut rest) = split_u32(operands).ok_or_else(truncated)?;
            // Each nested operation is at least one byte.
            if count as usize > rest.len() {
                return Err(truncated());
            }
            for _ in 0..count {
                rest = skip_operation(rest)?;
            }
            Ok(rest)
        }
        other => Err(Error::Durability(format!("unknown operation tag {other}"))),
    }
}

/// Runs a slice decoder of `star_common::packed` against the front of
/// `buf`, consuming what it consumed (every `bytes` cursor here is
/// contiguous).
fn decode_front<T>(buf: &mut impl Buf, decode: impl FnOnce(&mut &[u8]) -> Result<T>) -> Result<T> {
    let mut input = buf.chunk();
    let before = input.len();
    let value = decode(&mut input)?;
    let used = before - input.len();
    buf.advance(used);
    Ok(value)
}

/// Encodes an operation (tag byte + operands; recursive for `Multi`).
fn encode_operation(op: &Operation, buf: &mut BytesMut) {
    match op {
        Operation::SetField { field, value } => {
            buf.put_u8(0);
            buf.put_u32_le(*field as u32);
            value.as_ref().encode(&mut |bytes| buf.put_slice(bytes));
        }
        Operation::AddI64 { field, delta } => {
            buf.put_u8(1);
            buf.put_u32_le(*field as u32);
            buf.put_i64_le(*delta);
        }
        Operation::AddF64 { field, delta } => {
            buf.put_u8(2);
            buf.put_u32_le(*field as u32);
            buf.put_f64_le(*delta);
        }
        Operation::ConcatStr { field, prefix, max_len } => {
            buf.put_u8(3);
            buf.put_u32_le(*field as u32);
            buf.put_u32_le(*max_len as u32);
            buf.put_u32_le(prefix.len() as u32);
            buf.put_slice(prefix.as_bytes());
        }
        Operation::SetRow { row } => {
            buf.put_u8(4);
            row.encode(&mut |bytes| buf.put_slice(bytes));
        }
        Operation::Multi { ops } => {
            buf.put_u8(5);
            buf.put_u32_le(ops.len() as u32);
            for op in ops {
                encode_operation(op, buf);
            }
        }
    }
}

/// Decodes an operation from the front of `buf`. Every read is bounds
/// checked; malformed input yields a typed error, never a panic.
fn decode_operation(buf: &mut impl Buf) -> Result<Operation> {
    if buf.remaining() < 1 {
        return Err(Error::Durability("truncated operation".into()));
    }
    let truncated = || Error::Durability("truncated operation".into());
    let tag = buf.get_u8();
    match tag {
        0 => {
            if buf.remaining() < 4 {
                return Err(truncated());
            }
            let field = buf.get_u32_le() as usize;
            let value = decode_front(buf, FieldValue::decode)?;
            Ok(Operation::SetField { field, value })
        }
        1 => {
            if buf.remaining() < 12 {
                return Err(truncated());
            }
            let field = buf.get_u32_le() as usize;
            let delta = buf.get_i64_le();
            Ok(Operation::AddI64 { field, delta })
        }
        2 => {
            if buf.remaining() < 12 {
                return Err(truncated());
            }
            let field = buf.get_u32_le() as usize;
            let delta = buf.get_f64_le();
            Ok(Operation::AddF64 { field, delta })
        }
        3 => {
            if buf.remaining() < 12 {
                return Err(truncated());
            }
            let field = buf.get_u32_le() as usize;
            let max_len = buf.get_u32_le() as usize;
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len {
                return Err(Error::Durability("truncated concat prefix".into()));
            }
            let mut raw = vec![0u8; len];
            buf.copy_to_slice(&mut raw);
            let prefix = String::from_utf8(raw)
                .map_err(|_| Error::Durability("invalid utf-8 in concat prefix".into()))?;
            Ok(Operation::ConcatStr { field, prefix, max_len })
        }
        4 => Ok(Operation::SetRow { row: decode_front(buf, Row::decode)? }),
        5 => {
            if buf.remaining() < 4 {
                return Err(Error::Durability("truncated multi operation".into()));
            }
            let count = buf.get_u32_le() as usize;
            // Each nested operation is at least one byte.
            if count > buf.remaining() {
                return Err(truncated());
            }
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                ops.push(decode_operation(buf)?);
            }
            Ok(Operation::Multi { ops })
        }
        other => Err(Error::Durability(format!("unknown operation tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_common::row::row;
    use star_storage::{DatabaseBuilder, TableSpec};

    fn sample_row() -> Row {
        row([
            FieldValue::U64(1),
            FieldValue::I64(-2),
            FieldValue::F64(0.5),
            FieldValue::Str("abc".into()),
            FieldValue::Bytes(vec![9, 9]),
        ])
    }

    fn db() -> Database {
        let d = DatabaseBuilder::new(2).table(TableSpec::new("t")).build();
        d.insert(0, 0, 1, sample_row()).unwrap();
        d
    }

    #[test]
    fn value_entry_roundtrips_through_codec() {
        let entry = LogEntry {
            table: 3,
            partition: 1,
            key: 42,
            tid: Tid::new(2, 7),
            payload: Payload::Value(sample_row()),
        };
        let bytes = entry.encode_to_bytes();
        let mut buf = bytes.clone();
        let decoded = LogEntry::decode(&mut buf).unwrap();
        assert_eq!(decoded, entry);
        assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn operation_entries_roundtrip_through_codec() {
        let ops = vec![
            Operation::SetField { field: 2, value: FieldValue::F64(1.25) },
            Operation::AddI64 { field: 1, delta: -5 },
            Operation::AddF64 { field: 2, delta: 2.5 },
            Operation::ConcatStr { field: 3, prefix: "hi|".into(), max_len: 500 },
            Operation::SetRow { row: sample_row() },
            Operation::Multi {
                ops: vec![
                    Operation::AddI64 { field: 1, delta: 2 },
                    Operation::ConcatStr { field: 3, prefix: "p".into(), max_len: 10 },
                ],
            },
        ];
        for op in ops {
            let entry = LogEntry {
                table: 0,
                partition: 0,
                key: 1,
                tid: Tid::new(1, 1),
                payload: Payload::Operation(op.clone()),
            };
            let mut buf = entry.encode_to_bytes();
            assert_eq!(LogEntry::decode(&mut buf).unwrap().payload, Payload::Operation(op));
        }
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let entry = LogEntry {
            table: 0,
            partition: 0,
            key: 1,
            tid: Tid::new(1, 1),
            payload: Payload::Value(sample_row()),
        };
        let bytes = entry.encode_to_bytes();
        for cut in [0usize, 10, 24, bytes.len() - 1] {
            let mut truncated = bytes.slice(0..cut);
            assert!(LogEntry::decode(&mut truncated).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn apply_value_respects_thomas_rule() {
        let d = db();
        let newer = LogEntry {
            table: 0,
            partition: 0,
            key: 1,
            tid: Tid::new(1, 10),
            payload: Payload::Value(row([FieldValue::U64(100)])),
        };
        let older = LogEntry {
            table: 0,
            partition: 0,
            key: 1,
            tid: Tid::new(1, 5),
            payload: Payload::Value(row([FieldValue::U64(50)])),
        };
        newer.apply(&d).unwrap();
        older.apply(&d).unwrap();
        assert_eq!(d.get(0, 0, 1).unwrap().read().row, row([FieldValue::U64(100)]));
    }

    #[test]
    fn apply_value_inserts_missing_keys() {
        let d = db();
        let entry = LogEntry {
            table: 0,
            partition: 1,
            key: 500,
            tid: Tid::new(1, 1),
            payload: Payload::Value(row([FieldValue::U64(5)])),
        };
        entry.apply(&d).unwrap();
        assert_eq!(d.get(0, 1, 500).unwrap().tid(), Tid::new(1, 1));
    }

    #[test]
    fn apply_operation_materialises_full_row() {
        let d = db();
        let entry = LogEntry {
            table: 0,
            partition: 0,
            key: 1,
            tid: Tid::new(1, 3),
            payload: Payload::Operation(Operation::ConcatStr {
                field: 3,
                prefix: "x|".into(),
                max_len: 100,
            }),
        };
        entry.apply(&d).unwrap();
        let full = d.get(0, 0, 1).unwrap().read().row;
        assert_eq!(full.field(3).unwrap().as_str(), Some("x|abc"));
        // The installed row contains every field, not just the updated one.
        assert_eq!(full.len(), 5);
        assert_eq!(full.field(0).unwrap().as_u64(), Some(1));
    }

    #[test]
    fn apply_operation_on_missing_key_uses_set_row() {
        let d = db();
        let entry = LogEntry {
            table: 0,
            partition: 1,
            key: 777,
            tid: Tid::new(1, 1),
            payload: Payload::Operation(Operation::SetRow { row: sample_row() }),
        };
        entry.apply(&d).unwrap();
        assert_eq!(d.get(0, 1, 777).unwrap().read().row, sample_row());
    }

    #[test]
    fn encoded_entry_mirrors_header_and_round_trips() {
        let entry = LogEntry {
            table: 3,
            partition: 1,
            key: 42,
            tid: Tid::new(2, 7),
            payload: Payload::Value(sample_row()),
        };
        let encoded = EncodedEntry::from_entry(&entry);
        assert_eq!(encoded.partition(), 1);
        assert_eq!(encoded.tid(), Tid::new(2, 7));
        assert_eq!(encoded.wire_size(), entry.encode_to_bytes().len());
        assert_eq!(encoded.decode().unwrap(), entry);
    }

    #[test]
    fn encoded_entry_apply_matches_decoded_apply() {
        let a = db();
        let b = db();
        let entry = LogEntry {
            table: 0,
            partition: 0,
            key: 1,
            tid: Tid::new(1, 9),
            payload: Payload::Operation(Operation::AddI64 { field: 1, delta: 4 }),
        };
        entry.apply(&a).unwrap();
        EncodedEntry::from_entry(&entry).apply(&b).unwrap();
        assert_eq!(a.get(0, 0, 1).unwrap().read().row, b.get(0, 0, 1).unwrap().read().row);
    }

    #[test]
    fn corrupt_payload_is_deterministic_and_keeps_addressing() {
        let entry = LogEntry {
            table: 0,
            partition: 2,
            key: 5,
            tid: Tid::new(1, 3),
            payload: Payload::Value(sample_row()),
        };
        let pristine = EncodedEntry::from_entry(&entry);
        let mut a = pristine.clone();
        let mut b = pristine.clone();
        assert!(a.corrupt_payload(0xBEEF));
        assert!(b.corrupt_payload(0xBEEF));
        assert_eq!(a, b, "same salt must flip the same bit");
        assert_ne!(a.decode().unwrap().payload, entry.payload);
        let decoded = a.decode().unwrap();
        assert_eq!(
            (decoded.table, decoded.partition, decoded.key, decoded.tid),
            (entry.table, entry.partition, entry.key, entry.tid)
        );
    }

    #[test]
    fn entry_block_splits_back_into_zero_copy_slices() {
        let entries: Vec<LogEntry> = (0..4)
            .map(|i| LogEntry {
                table: 0,
                partition: i as PartitionId,
                key: i,
                tid: Tid::new(1, i),
                payload: Payload::Value(sample_row()),
            })
            .collect();
        let encoded = EncodedEntry::encode_all(entries.clone());
        let block = encode_entry_block(&encoded);
        let split = split_entry_block(&block).unwrap();
        assert_eq!(split, encoded);
        for (s, original) in split.iter().zip(&entries) {
            assert_eq!(&s.decode().unwrap(), original);
        }
        assert!(split_entry_block(&Bytes::new()).is_err());
        assert!(split_entry_block(&block.slice(0..block.len() - 1)).is_err());
    }

    #[test]
    fn wire_size_tracks_payload_size() {
        let value_entry = LogEntry {
            table: 0,
            partition: 0,
            key: 1,
            tid: Tid::new(1, 1),
            payload: Payload::Value(row([FieldValue::Str("y".repeat(500))])),
        };
        let op_entry = LogEntry {
            table: 0,
            partition: 0,
            key: 1,
            tid: Tid::new(1, 1),
            payload: Payload::Operation(Operation::ConcatStr {
                field: 0,
                prefix: "abc".into(),
                max_len: 500,
            }),
        };
        assert!(op_entry.wire_size() * 10 < value_entry.wire_size());
        // The encoded size is exactly wire_size, for either payload.
        assert_eq!(value_entry.encode_to_bytes().len(), value_entry.wire_size());
        assert_eq!(op_entry.encode_to_bytes().len(), op_entry.wire_size());
    }
}
