//! Replication, durability and recovery for the STAR reproduction.
//!
//! Section 5 of the paper describes two replication schemes and a hybrid of
//! them:
//!
//! * **value replication** ships the full row of every written record. It is
//!   the only correct option when a partition can be updated by multiple
//!   threads (the single-master phase), because entries may be applied out of
//!   order and the Thomas write rule needs complete rows to be lossless.
//! * **operation replication** ships only the operation (e.g. "concatenate
//!   this short string onto `C_DATA`"). It is correct when the per-partition
//!   stream is produced by a single thread and applied in order — the
//!   partitioned phase — and can cut replication bandwidth by an order of
//!   magnitude on TPC-C.
//! * the **hybrid strategy** uses value replication in the single-master
//!   phase and operation replication in the partitioned phase.
//!
//! The same crate implements durability: a per-worker write-ahead log of
//! committed writes ([`wal`]), a fuzzy checkpointer ([`checkpoint`]) and the
//! recovery replay that reconstructs a replica from checkpoint + log with the
//! Thomas write rule ([`recovery`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod commit_queue;
pub mod entry;
pub mod recovery;
pub mod strategy;
pub mod wal;

pub use commit_queue::{CommitQueue, DrainMode, EpochDrain};
pub use entry::{
    check_entry_block, encode_entry_block, map_entry_block, split_entry_block, EncodedEntry,
    LogEntry, Payload,
};
pub use strategy::{build_log_entries, ExecutionPhase};
pub use wal::{truncate_wal_tail, WalReader, WalWriter};
