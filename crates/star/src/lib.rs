//! # STAR — Scaling Transactions through Asymmetric Replication
//!
//! A from-scratch Rust reproduction of *STAR: Scaling Transactions through
//! Asymmetric Replication* (Lu, Yu, Madden — VLDB 2019). This facade crate
//! re-exports the whole workspace behind one dependency:
//!
//! * [`core`](star_core) — the STAR engine: phase-switching execution over
//!   asymmetric replication, the analytical model, failure handling.
//! * [`baselines`](star_baselines) — the evaluation's comparison systems:
//!   PB. OCC, Dist. OCC, Dist. S2PL and Calvin.
//! * [`chaos`](star_chaos) — the deterministic chaos harness: seeded fault
//!   injection over the simulated cluster plus an offline serializability
//!   checker (`star-chaos` binary).
//! * [`workloads`](star_workloads) — YCSB and TPC-C (NewOrder + Payment).
//! * [`storage`](star_storage), [`occ`](star_occ),
//!   [`replication`](star_replication), [`net`](star_net),
//!   [`common`](star_common) — the substrates everything is built on.
//!
//! ## Quickstart
//!
//! ```
//! use star::prelude::*;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! // A 4-node cluster: 1 full replica + 3 partial replicas.
//! let config = ClusterConfig::builder()
//!     .nodes(4)
//!     .partitions(8)
//!     .iteration(Duration::from_millis(5))
//!     .build()
//!     .unwrap();
//!
//! // YCSB with 10% cross-partition transactions, scaled down for the doctest.
//! let workload = Arc::new(YcsbWorkload::new(YcsbConfig {
//!     partitions: 8,
//!     rows_per_partition: 200,
//!     cross_partition_fraction: 0.10,
//!     ..Default::default()
//! }));
//!
//! let mut engine = StarEngine::new(config, workload).unwrap();
//! let report = engine.run_for(Duration::from_millis(25));
//! assert!(report.counters.committed > 0);
//! engine.verify_replica_consistency().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use star_baselines as baselines;
pub use star_chaos as chaos;
pub use star_common as common;
pub use star_core as core;
pub use star_net as net;
pub use star_occ as occ;
pub use star_replication as replication;
pub use star_storage as storage;
pub use star_workloads as workloads;

/// The most commonly used types, re-exported for `use star::prelude::*`.
pub mod prelude {
    pub use star_baselines::{Calvin, DistCc, PartitionedEngine, PbOcc};
    pub use star_common::stats::{
        CounterSnapshot, LatencyHistogram, PhaseBreakdown, RunReport, BREAKDOWN_VERSION,
    };
    pub use star_common::{
        ClusterConfig, ClusterConfigBuilder, EngineKind, Epoch, Error, FieldValue, Operation,
        ReplicationMode, ReplicationStrategy, Result, Row, Tid,
    };
    pub use star_core::{
        AnalyticalModel, CommittedTxn, Engine, FailureCase, FailureVectorMismatch, HistoryRecorder,
        PhasePlan, StarEngine, Workload, WorkloadMix,
    };
    pub use star_net::LinkFaults;
    pub use star_occ::{Procedure, TxnCtx};
    pub use star_replication::DrainMode;
    pub use star_storage::{Database, DatabaseBuilder, TableSpec};
    pub use star_workloads::{TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload};
}
