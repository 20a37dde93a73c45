//! Shared primitives for the STAR reproduction.
//!
//! This crate holds the vocabulary types used by every other crate in the
//! workspace:
//!
//! * [`tid`] — transaction identifiers with an embedded epoch, following the
//!   Silo/STAR TID rules, plus the per-thread [`tid::TidGenerator`].
//! * [`row`] — typed rows ([`row::Row`], [`row::FieldValue`]) and the
//!   operations that can be replicated against them ([`row::Operation`]).
//! * [`packed`] — the byte encoding of a row: the codec, and the
//!   one-allocation [`packed::PackedRow`] a record stores.
//! * [`config`] — cluster, replication and workload configuration.
//! * [`rng`] — uniform / Zipfian / TPC-C `NURand` distributions.
//! * [`stats`] — latency histograms and throughput counters used by the
//!   benchmark harness to report the paper's tables and figures.
//! * [`error`] — the common error and abort types.
//!
//! Everything here is independent of the storage engine and of the network
//! substrate so that it can be unit-tested in isolation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod error;
pub mod packed;
pub mod rng;
pub mod row;
pub mod stats;
pub mod tid;

pub use config::{
    ClusterConfig, ClusterConfigBuilder, EngineKind, ReplicationMode, ReplicationStrategy,
};
pub use error::{AbortReason, Error, Result};
pub use packed::{FieldRef, PackedRow, RowBuilder};
pub use row::{FieldValue, Operation, Row};
pub use stats::{CounterSnapshot, PhaseBreakdown, RunCounters, RunReport, BREAKDOWN_VERSION};
pub use tid::{Epoch, Tid, TidGenerator};

/// Identifier of a table in the database catalog.
pub type TableId = u32;

/// Identifier of a partition. Partitions are numbered globally across the
/// cluster: partition `p` lives on node `p % num_nodes` in the default layout.
pub type PartitionId = usize;

/// Identifier of a node in the (simulated) cluster.
pub type NodeId = usize;

/// Primary keys are 64-bit integers. Composite keys (e.g. TPC-C
/// `(warehouse, district, order)`) are bit-packed into a `u64` by the workload
/// crates; the storage layer treats keys as opaque.
pub type Key = u64;
