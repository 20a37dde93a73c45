//! Baseline engines from the STAR evaluation (Section 7.1.2).
//!
//! The paper compares STAR against four systems, all re-implemented in the
//! authors' framework so the comparison is apples-to-apples; this crate does
//! the same on top of the shared substrates (`star-storage`, `star-occ`,
//! `star-net`, `star-replication`):
//!
//! * [`PbOcc`] — a **non-partitioned** primary/backup system: a variant of
//!   Silo's OCC protocol on a single primary node (which holds the whole
//!   database) with one backup replica. Two nodes are used, as in the paper.
//! * [`PartitionedEngine`] with [`DistCc::Occ`] — Dist. OCC, a
//!   **partitioning-based** system running distributed optimistic
//!   concurrency control with two-phase commit.
//! * [`PartitionedEngine`] with [`DistCc::S2plNoWait`] — Dist. S2PL, a
//!   partitioning-based system running distributed strict two-phase locking
//!   with the NO_WAIT deadlock-prevention policy and two-phase commit.
//! * [`Calvin`] — a deterministic database with a multi-threaded lock manager
//!   (`Calvin-x` uses `x` lock-manager threads per node; the remaining
//!   threads execute transactions).
//!
//! Each is one [`Baseline`] shell (the `driver` module: epoch loop, group
//! commit, report window, fault handles, the `star_core::Engine` impl)
//! around its [`Protocol`], and each is built from the same
//! `ClusterConfig` STAR takes:
//!
//! ```
//! use star_baselines::{Calvin, DistCc, PartitionedEngine, PbOcc};
//! use star_common::ClusterConfig;
//! use star_core::testing::KvWorkload;
//! use star_core::Engine;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let cluster = ClusterConfig::builder().nodes(4).partitions(4).build().unwrap();
//! let workload = Arc::new(KvWorkload::new(4));
//! let dist = |cc| PartitionedEngine::new(cluster.clone(), cc, workload.clone()).unwrap();
//! let engines: Vec<Box<dyn Engine>> = vec![
//!     Box::new(PbOcc::new(cluster.clone(), workload.clone()).unwrap()),
//!     Box::new(dist(DistCc::Occ)),
//!     Box::new(dist(DistCc::S2plNoWait)),
//!     Box::new(Calvin::new(cluster.clone(), 2, workload.clone()).unwrap()), // Calvin-2
//! ];
//! for mut engine in engines {
//!     assert!(engine.run_for(Duration::from_millis(1)).counters.committed > 0);
//! }
//! ```
//!
//! The cluster's `replication_mode` picks synchronous replication (a round
//! trip per commit, label suffix `" (sync)"`) or asynchronous replication
//! with an epoch group commit for PB. OCC and the partitioned engines;
//! Calvin applies its replica group's writes at each batch boundary.
//!
//! ## Modelling note
//!
//! The distributed baselines execute against a sharded in-process store (one
//! primary copy of each partition) and charge network costs explicitly
//! through the simulated network's latency parameter: a remote read costs one
//! round trip, a two-phase commit costs two rounds to every remote
//! participant, and synchronous replication costs one round trip per commit.
//! A round trip is twice the configured one-way latency, and the calling
//! thread sleeps through it. This reproduces the *relative* behaviour the
//! paper reports (round trips dominate the baselines as the cross-partition
//! fraction grows) without a full RPC server per node.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calvin;
pub mod driver;
pub mod partitioned;
pub mod pb_occ;
pub mod replication;

pub use calvin::Calvin;
pub use driver::{Baseline, Protocol};
pub use partitioned::{DistCc, PartitionedEngine};
pub use pb_occ::PbOcc;
pub use replication::ReplicaLink;

#[cfg(test)]
pub(crate) mod test_sync {
    //! Comparative-performance tests measure wall-clock throughput, so they
    //! must not run concurrently with each other inside this test binary.
    use parking_lot::Mutex;
    pub static PERF_TEST_LOCK: Mutex<()> = Mutex::new(());
}
