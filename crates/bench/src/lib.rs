//! Benchmark harness for the STAR reproduction.
//!
//! The [`figures`](crate::figures) module regenerates every table and figure
//! of the paper's evaluation (Section 7) from the engines in this workspace;
//! the `figures` binary drives it from the command line:
//!
//! ```bash
//! cargo run --release -p star-bench --bin figures -- all        # everything
//! cargo run --release -p star-bench --bin figures -- fig11a     # one figure
//! cargo run --release -p star-bench --bin figures -- --quick all
//! ```
//!
//! The [`suite`](crate::suite) module is the repo's own benchmark-regression
//! harness, driven by the `star-bench` binary: deterministic YCSB and TPC-C
//! sweeps across all five engines emitting the canonical `BENCH_ycsb.json` /
//! `BENCH_tpcc.json` trajectory files, and the baseline comparison CI's
//! `bench-smoke` job gates on:
//!
//! ```bash
//! cargo run --release -p star-bench --bin star-bench -- --quick --seed 42
//! cargo run --release -p star-bench --bin star-bench -- --quick --check
//! ```
//!
//! Criterion micro-benchmarks (`cargo bench -p star-bench`) cover the
//! component costs behind those figures: the OCC commit path, replication
//! encode/apply, the phase-switch fence and the workload generators.

#![warn(missing_docs)]

pub mod figures;
pub mod suite;

pub use figures::{FigureRunner, Scale};
pub use suite::{BenchPoint, BenchSuite};
