//! TPC-C on STAR vs the conventional designs.
//!
//! Runs the TPC-C NewOrder/Payment mix on the STAR engine and on the three
//! conventional baselines at the paper's default cross-partition percentage,
//! printing a small comparison table (the single data point of Figure 11(b)
//! at 10-15% cross-partition transactions).
//!
//! ```bash
//! cargo run --release -p star --example tpcc_phase_switching
//! ```

use star::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn cluster() -> ClusterConfig {
    ClusterConfig::builder()
        .nodes(4)
        .partitions(4)
        .workers_per_node(2)
        .iteration(Duration::from_millis(10))
        .network_latency(Duration::from_micros(100))
        .build()
        .expect("tpcc example config is valid")
}

fn workload() -> Arc<TpccWorkload> {
    Arc::new(TpccWorkload::new(TpccConfig {
        warehouses: 4,
        cross_partition_fraction: 0.125,
        ..Default::default()
    }))
}

fn main() {
    let window = Duration::from_millis(500);

    // STAR runs concretely so the example can also verify replica
    // consistency — an engine-specific check the `Engine` trait leaves out.
    println!("running STAR...");
    let mut star = StarEngine::new(cluster(), workload()).unwrap();
    let mut results: Vec<RunReport> = vec![star.run_for(window)];
    star.verify_replica_consistency().expect("replicas diverged");

    // The baselines are all driven through the shared `Engine` trait: one
    // loop, no per-engine glue, `RunReport` as the common result type.
    let mut baselines: Vec<Box<dyn Engine>> = vec![
        Box::new(PbOcc::new(cluster(), workload()).unwrap()),
        Box::new(PartitionedEngine::new(cluster(), DistCc::Occ, workload()).unwrap()),
        Box::new(PartitionedEngine::new(cluster(), DistCc::S2plNoWait, workload()).unwrap()),
    ];
    for engine in &mut baselines {
        println!("running {}...", engine.name());
        results.push(engine.run_for(window));
    }

    println!("\nTPC-C (NewOrder + Payment), {}% cross-partition:", 12.5);
    println!("{:<14} {:>14} {:>12} {:>12} {:>14}", "engine", "txns/sec", "p50", "p99", "repl. KB");
    for report in &results {
        println!(
            "{:<14} {:>14.0} {:>12?} {:>12?} {:>14}",
            report.engine,
            report.throughput,
            report.latency.p50(),
            report.latency.p99(),
            report.counters.replication_bytes / 1024,
        );
    }
    println!("\nExpected shape (paper, Figure 11(b)): STAR well above both partitioning-based");
    println!("baselines at this cross-partition percentage, and above PB. OCC because the");
    println!("partitioned phase uses every node.");
}
