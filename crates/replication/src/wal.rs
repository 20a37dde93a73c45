//! Write-ahead logging.
//!
//! A [`WalWriter`] buffers the writes of committed transactions (always
//! materialised as full rows, Section 5) in memory and flushes them
//! periodically. The paper gives every worker thread its own; the engine in
//! `star-core` keeps one per *node* behind a mutex, which the node's workers
//! share — so an append is also where two master workers take turns. The
//! sink is pluggable — a real file for the durability experiments and
//! examples, or an in-memory sink for unit tests and benchmarks that only
//! need byte accounting.

use crate::entry::{LogEntry, Payload};
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use star_common::{Error, Result, Row};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Default buffer capacity before an automatic flush, in bytes.
const DEFAULT_FLUSH_THRESHOLD: usize = 64 * 1024;

/// A write-ahead log writer.
pub struct WalWriter {
    buffer: BytesMut,
    sink: Box<dyn Write + Send>,
    flush_threshold: usize,
    bytes_written: u64,
    entries_written: u64,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("buffered", &self.buffer.len())
            .field("bytes_written", &self.bytes_written)
            .field("entries_written", &self.entries_written)
            .finish()
    }
}

/// An in-memory sink shared with the test/benchmark that wants to inspect the
/// bytes a [`WalWriter`] produced.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    data: Arc<Mutex<Vec<u8>>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.data.lock().clone()
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.data.lock().len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.data.lock().is_empty()
    }
}

impl Write for MemorySink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.data.lock().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl WalWriter {
    /// Creates a writer over an arbitrary sink.
    pub fn new(sink: Box<dyn Write + Send>) -> Self {
        WalWriter {
            buffer: BytesMut::with_capacity(DEFAULT_FLUSH_THRESHOLD),
            sink,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
            bytes_written: 0,
            entries_written: 0,
        }
    }

    /// Creates a writer backed by an in-memory sink; returns the sink handle
    /// as well so its contents can be inspected.
    pub fn in_memory() -> (Self, MemorySink) {
        let sink = MemorySink::new();
        (Self::new(Box::new(sink.clone())), sink)
    }

    /// Creates a writer appending to a file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| Error::Durability(format!("cannot open WAL: {e}")))?;
        Ok(Self::new(Box::new(file)))
    }

    /// Overrides the automatic flush threshold (tests).
    pub fn set_flush_threshold(&mut self, bytes: usize) {
        self.flush_threshold = bytes;
    }

    /// Appends one committed write. The entry is normalised to a value
    /// payload (`full_row`) before logging: the caller supplies the whole
    /// row the write produced, since an operation entry carries only the
    /// edit ([`LogEntry::apply`] installs it on a replica and returns
    /// nothing).
    pub fn append(&mut self, entry: &LogEntry, full_row: &Row) -> Result<()> {
        let normalised = LogEntry {
            table: entry.table,
            partition: entry.partition,
            key: entry.key,
            tid: entry.tid,
            payload: Payload::Value(full_row.clone()),
        };
        normalised.encode(&mut self.buffer);
        self.entries_written += 1;
        if self.buffer.len() >= self.flush_threshold {
            self.flush()?;
        }
        Ok(())
    }

    /// Appends an entry that already carries a value payload.
    pub fn append_value(&mut self, entry: &LogEntry) -> Result<()> {
        match &entry.payload {
            Payload::Value(row) => {
                let row = row.clone();
                self.append(entry, &row)
            }
            Payload::Operation(_) => Err(Error::Durability(
                "operation entries must be materialised before logging".into(),
            )),
        }
    }

    /// Flushes the buffer to the sink.
    pub fn flush(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let chunk: Bytes = self.buffer.split().freeze();
        self.sink
            .write_all(&chunk)
            .and_then(|_| self.sink.flush())
            .map_err(|e| Error::Durability(format!("WAL flush failed: {e}")))?;
        self.bytes_written += chunk.len() as u64;
        Ok(())
    }

    /// Bytes flushed to the sink so far (excludes the current buffer).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Entries appended so far (flushed or buffered).
    pub fn entries_written(&self) -> u64 {
        self.entries_written
    }
}

/// Byzantine fault injection: truncates the tail of an on-disk WAL by
/// `bytes`, tearing the final record. This models a disk that lied about a
/// flush (or a torn sector write) — the kind of silent corruption the
/// recovery path **must** detect rather than replay garbage. Returns the
/// number of bytes actually removed (the whole file, if shorter).
///
/// A WAL entry is at least 25 bytes of header, so any cut of `1..25` bytes
/// is guaranteed to land mid-record and make [`WalReader::entries`] fail
/// with a truncation error — which is exactly the detection the chaos
/// harness asserts on.
pub fn truncate_wal_tail(path: impl AsRef<Path>, bytes: u64) -> Result<u64> {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| Error::Durability(format!("cannot open WAL for truncation: {e}")))?;
    let len =
        file.metadata().map_err(|e| Error::Durability(format!("cannot stat WAL: {e}")))?.len();
    let removed = bytes.min(len);
    file.set_len(len - removed)
        .map_err(|e| Error::Durability(format!("cannot truncate WAL: {e}")))?;
    Ok(removed)
}

/// Reads back a write-ahead log produced by [`WalWriter`].
#[derive(Debug)]
pub struct WalReader {
    data: Bytes,
}

impl WalReader {
    /// Creates a reader over raw WAL bytes.
    pub fn from_bytes(data: impl Into<Bytes>) -> Self {
        WalReader { data: data.into() }
    }

    /// Reads a WAL file from disk.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let mut file = std::fs::File::open(path)
            .map_err(|e| Error::Durability(format!("cannot open WAL for read: {e}")))?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)
            .map_err(|e| Error::Durability(format!("cannot read WAL: {e}")))?;
        Ok(Self::from_bytes(data))
    }

    /// Decodes every entry in the log, in append order.
    pub fn entries(&self) -> Result<Vec<LogEntry>> {
        let mut buf = self.data.clone();
        let mut out = Vec::new();
        while buf.has_remaining() {
            out.push(LogEntry::decode(&mut buf)?);
        }
        Ok(out)
    }
}

use bytes::Buf;

#[cfg(test)]
mod tests {
    use super::*;
    use star_common::row::row;
    use star_common::{FieldValue, Operation, Tid};

    fn value_entry(key: u64, seq: u64, v: u64) -> LogEntry {
        LogEntry {
            table: 0,
            partition: 0,
            key,
            tid: Tid::new(1, seq),
            payload: Payload::Value(row([FieldValue::U64(v)])),
        }
    }

    #[test]
    fn append_flush_and_read_back() {
        let (mut wal, sink) = WalWriter::in_memory();
        for i in 0..10u64 {
            wal.append_value(&value_entry(i, i + 1, i * 10)).unwrap();
        }
        assert_eq!(wal.entries_written(), 10);
        wal.flush().unwrap();
        assert!(wal.bytes_written() > 0);
        assert_eq!(wal.bytes_written() as usize, sink.len());

        let reader = WalReader::from_bytes(sink.contents());
        let entries = reader.entries().unwrap();
        assert_eq!(entries.len(), 10);
        assert_eq!(entries[3], value_entry(3, 4, 30));
    }

    #[test]
    fn auto_flush_when_threshold_reached() {
        let (mut wal, sink) = WalWriter::in_memory();
        wal.set_flush_threshold(64);
        for i in 0..20u64 {
            wal.append_value(&value_entry(i, i + 1, i)).unwrap();
        }
        // With a 64-byte threshold several flushes must have happened without
        // an explicit call.
        assert!(!sink.is_empty());
    }

    #[test]
    fn operation_entries_are_rejected_unless_materialised() {
        let (mut wal, _sink) = WalWriter::in_memory();
        let entry = LogEntry {
            table: 0,
            partition: 0,
            key: 1,
            tid: Tid::new(1, 1),
            payload: Payload::Operation(Operation::AddI64 { field: 0, delta: 1 }),
        };
        assert!(wal.append_value(&entry).is_err());
        // Materialised form is accepted and normalised to a value payload.
        wal.append(&entry, &row([FieldValue::I64(5)])).unwrap();
        wal.flush().unwrap();
    }

    #[test]
    fn file_backed_wal_roundtrip() {
        let dir = std::env::temp_dir().join(format!("star-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("worker-0.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = WalWriter::open(&path).unwrap();
            wal.append_value(&value_entry(1, 1, 100)).unwrap();
            wal.append_value(&value_entry(2, 2, 200)).unwrap();
            wal.flush().unwrap();
        }
        let reader = WalReader::open(&path).unwrap();
        let entries = reader.entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].key, 2);
        // Remove the whole directory, not just the file — leaving the empty
        // per-pid directory behind leaks one temp dir per test run.
        std::fs::remove_dir_all(&dir).ok();
        assert!(!dir.exists());
    }

    #[test]
    fn torn_final_record_is_detected_on_read_back() {
        // The byzantine WAL fault: a torn final record must make the read
        // fail loudly, never silently replay a prefix of committed data.
        let dir = std::env::temp_dir().join(format!("star-wal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = WalWriter::open(&path).unwrap();
            for i in 0..4u64 {
                wal.append_value(&value_entry(i, i + 1, i)).unwrap();
            }
            wal.flush().unwrap();
        }
        assert_eq!(WalReader::open(&path).unwrap().entries().unwrap().len(), 4);
        let removed = truncate_wal_tail(&path, 3).unwrap();
        assert_eq!(removed, 3);
        let result = WalReader::open(&path).unwrap().entries();
        assert!(result.is_err(), "a torn record must fail decoding, got {result:?}");
        // Cutting more than the file holds empties it (clean, zero entries).
        truncate_wal_tail(&path, u64::MAX).unwrap();
        assert!(WalReader::open(&path).unwrap().entries().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_flush_is_a_noop() {
        let (mut wal, sink) = WalWriter::in_memory();
        wal.flush().unwrap();
        assert_eq!(sink.len(), 0);
        assert_eq!(wal.bytes_written(), 0);
    }
}
