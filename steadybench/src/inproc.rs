//! The three in-process workloads: a `StarEngine` over the simulated
//! network, measured through `run_for`, checked with
//! `verify_replica_consistency()`.

use crate::host;
use crate::measure::{Latency, Subject, Window};
use crate::spec::{self, Workload};
use star_common::stats::LatencyHistogram;
use star_common::{ClusterConfig, ReplicationMode, ReplicationStrategy};
use star_core::StarEngine;
use star_workloads::{TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload};
use std::sync::Arc;
use std::time::Instant;

/// The cluster configuration of the in-process workloads.
pub fn cluster_config(seed: u64) -> ClusterConfig {
    ClusterConfig::builder()
        .nodes(spec::NODES)
        .full_replicas(spec::FULL_REPLICAS)
        .workers_per_node(spec::WORKERS_PER_NODE)
        .partitions(spec::PARTITIONS)
        .replication_factor(spec::REPLICATION_FACTOR)
        .replication_strategy(ReplicationStrategy::Hybrid)
        .replication_mode(ReplicationMode::Async)
        .iteration(spec::ITERATION)
        .disk_logging(true)
        .seed(seed)
        .build()
        .expect("the fixed shape is a valid cluster")
}

/// The configuration of the engine a workload's in-process numbers come
/// from. For `wire_ycsb` that is the loopback cluster's in-process twin —
/// no simulated latency, no WAL — which the traced run uses for the numbers
/// loopback nodes do not expose.
pub fn engine_config(workload: Workload, seed: u64) -> ClusterConfig {
    match workload {
        Workload::WireYcsb => crate::wire::cluster_config(seed),
        _ => cluster_config(seed),
    }
}

/// The YCSB variant a workload runs (`wire_ycsb` shares `ycsb_cross`'s).
pub fn ycsb_config(workload: Workload) -> YcsbConfig {
    let hot = workload == Workload::YcsbHot;
    YcsbConfig {
        partitions: spec::PARTITIONS,
        rows_per_partition: spec::YCSB_ROWS_PER_PARTITION,
        ops_per_transaction: 10,
        read_fraction: if hot { 0.5 } else { 0.9 },
        zipf_theta: if hot { 0.99 } else { 0.0 },
        cross_partition_fraction: if hot { 0.10 } else { 0.50 },
    }
}

/// The transaction generator and initial data of a workload.
pub fn workload_definition(workload: Workload) -> Arc<dyn star_core::Workload> {
    match workload {
        Workload::TpccWal => Arc::new(TpccWorkload::new(TpccConfig {
            warehouses: spec::PARTITIONS,
            districts_per_warehouse: 10,
            customers_per_district: 1_000,
            items: 20_000,
            cross_partition_fraction: 0.125,
            ..TpccConfig::default()
        })),
        ycsb => Arc::new(YcsbWorkload::new(ycsb_config(ycsb))),
    }
}

impl Subject for StarEngine {
    /// Cluster construction plus the initial load on every replica.
    fn build(workload: Workload, seed: u64) -> Result<(Self, f64), String> {
        let definition = workload_definition(workload);
        let start = Instant::now();
        let engine = StarEngine::new(engine_config(workload, seed), definition)
            .map_err(|e| format!("StarEngine::new: {e}"))?;
        Ok((engine, start.elapsed().as_secs_f64()))
    }

    /// Through the deterministic stepped API.
    fn warm_up(&mut self, workload: Workload) -> Result<(), String> {
        let (iterations, partitioned, single_master) = workload.warmup();
        for _ in 0..iterations {
            self.run_iteration_stepped(partitioned, single_master);
        }
        Ok(())
    }

    /// `run_for` slices until the window holds its latency samples, so every
    /// window has percentiles of its own however slow the host was while it ran.
    fn window(&mut self) -> Result<Window, String> {
        let usage = host::Usage::now();
        let mut window = Window::empty(Latency::Histogram(LatencyHistogram::new()));
        while window.latency_samples() < spec::MIN_LATENCY_SAMPLES {
            let report = self.run_for(spec::SLICE);
            let c = report.counters;
            if c.committed == 0 {
                return Err(format!("a {:?} slice committed nothing", spec::SLICE));
            }
            window.seconds += report.duration.as_secs_f64();
            window.attempted += c.committed + c.aborted + c.user_aborted;
            window.committed += c.committed;
            window.aborted += c.aborted;
            window.user_aborted += c.user_aborted;
            window.net_bytes += c.replication_bytes + c.coordination_bytes;
            window.wal_bytes += c.wal_bytes;
            window.fences += c.fences;
            let b = report.breakdown();
            window.breakdown.execution_us += b.execution_us;
            window.breakdown.fence_wait_us += b.fence_wait_us;
            window.breakdown.replication_flush_us += b.replication_flush_us;
            window.breakdown.wal_fsync_us += b.wal_fsync_us;
            window.breakdown.lock_or_validate_us += b.lock_or_validate_us;
            if let Latency::Histogram(merged) = &mut window.latency {
                merged.merge(&report.latency);
            }
        }
        (window.steal, window.cpu_s) = usage.since();
        window.rss_mb = host::rss_mb();
        Ok(window)
    }

    fn verify(&mut self, _seed: u64) -> Result<(), String> {
        self.verify_replica_consistency().map_err(|e| format!("replica consistency: {e}"))
    }
}
