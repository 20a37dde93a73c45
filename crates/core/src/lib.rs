//! The STAR engine: phase-switching transaction execution over asymmetric
//! replication.
//!
//! This crate contains the paper's primary contribution:
//!
//! * [`model`] — the analytical model of Section 6.3 (Equations 3–5 and the
//!   improvement/speedup formulas plotted in Figures 3 and 10).
//! * [`phase`] — the phase-switching plan: how the iteration time `e` is
//!   split into `τp` (partitioned phase) and `τs` (single-master phase) from
//!   the measured throughputs and the cross-partition percentage
//!   (Equations 1–2, Figure 5).
//! * [`workload`] — the workload abstraction the engines execute
//!   (single-partition vs cross-partition stored procedures); implemented by
//!   `star-workloads` for YCSB and TPC-C.
//! * [`cluster`] — replica construction: one [`star_storage`] replica per
//!   node (full replicas on the first `f` nodes, partial replicas elsewhere).
//! * [`node`] — [`node::StarNode`], one node written once: its replica, WAL
//!   and worker states, its phase jobs, its half of the fence and of a
//!   recovery copy. The engine is N of them; `star-serverd` is one.
//! * [`engine`] — the phase-switching execution loop itself over N nodes on
//!   a [`star_net`] simulated network: partitioned phase, replication fence,
//!   single-master phase, replication fence, epoch advancement, statistics.
//! * [`exec`] — the phase worker every node runs: one loop over a borrowed
//!   [`exec::NodeCtx`] until a [`exec::PhaseBudget`] is spent, parameterized
//!   over the [`star_net::Transport`] seam.
//! * [`failure`] — failure-scenario classification (the four recovery cases
//!   of Section 4.5.3) and what a fence does to a participant, shared by
//!   every deployment: [`failure::EpochState`] (epoch clock, failure picture,
//!   election log) and [`failure::fence_replica`] (revert, then the in-flight
//!   replication that survives).
//! * [`history`] — optional committed-history recording (epoch-buffered, so
//!   reverted epochs vanish exactly as their effects do); the `star-chaos`
//!   serializability checker consumes these histories.
//!
//! The cluster is simulated in one process: N [`node::StarNode`]s that
//! exchange every replication batch and fence message over a
//! [`star_net::SimNetwork`], which delivers each message the configured
//! one-way latency after it was sent. All the protocol logic — TID rules,
//! Thomas write rule, replication fences, hybrid replication — is the real
//! thing: `star-serverd` runs the same `StarNode` over TCP, and its
//! transport-parity suite checks that the wire commits byte-for-byte what
//! the simulation does.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod engine;
pub mod engine_api;
pub mod exec;
pub mod failure;
pub mod history;
pub mod messages;
pub mod model;
pub mod node;
pub mod phase;
pub mod testing;
pub mod workload;

pub use engine::{InterruptedRecovery, RecoveryFault, SimNode, StarEngine};
pub use engine_api::Engine;
pub use failure::{FailureCase, FailureVectorMismatch, MasterElection};
pub use history::{CommittedTxn, HistoryRecorder, RecordedRead, RecordedWrite};
pub use model::AnalyticalModel;
pub use phase::PhasePlan;
pub use workload::{Workload, WorkloadMix};
