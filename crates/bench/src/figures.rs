//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each `figN` method prints the same rows/series the paper reports, measured
//! on the simulated cluster. Absolute numbers differ from the paper's EC2
//! testbed (see `EXPERIMENTS.md`); the harness exists to reproduce the
//! *shape*: who wins, by roughly what factor, and where the crossovers fall.

use serde::Serialize;
use star::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// How long each engine configuration is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few hundred milliseconds per point — smoke-test quality, used by CI
    /// and `--quick`.
    Quick,
    /// Around a second per point — the default.
    Full,
}

impl Scale {
    fn window(self) -> Duration {
        match self {
            Scale::Quick => Duration::from_millis(150),
            Scale::Full => Duration::from_millis(800),
        }
    }
}

/// One measured data point, also dumped as JSON for EXPERIMENTS.md.
#[derive(Debug, Clone, Serialize)]
pub struct Point {
    /// Figure or table identifier (e.g. `"fig11a"`).
    pub figure: String,
    /// Series label (engine name).
    pub series: String,
    /// X coordinate (cross-partition %, node count, iteration time ...).
    pub x: f64,
    /// Throughput in transactions per second (or model value).
    pub throughput: f64,
    /// 50th percentile latency in microseconds, when measured.
    pub p50_us: Option<u64>,
    /// 99th percentile latency in microseconds, when measured.
    pub p99_us: Option<u64>,
    /// Replication bytes shipped per committed transaction, when measured.
    pub replication_bytes_per_txn: Option<f64>,
}

/// Drives the per-figure experiments.
pub struct FigureRunner {
    scale: Scale,
    /// Collected data points (dumped as JSON at the end of a run).
    pub points: Vec<Point>,
}

const CROSS_PCTS: [f64; 6] = [0.0, 10.0, 30.0, 50.0, 70.0, 100.0];

impl FigureRunner {
    /// Creates a runner at the given scale.
    pub fn new(scale: Scale) -> Self {
        FigureRunner { scale, points: Vec::new() }
    }

    fn cluster(&self, nodes: usize) -> ClusterConfig {
        ClusterConfig::builder()
            .nodes(nodes)
            .workers_per_node(2)
            .partitions(nodes * 2)
            .iteration(Duration::from_millis(10))
            .network_latency(Duration::from_micros(50))
            .build()
            .expect("figure cluster config is valid")
    }

    fn ycsb(&self, partitions: usize, cross_pct: f64) -> Arc<YcsbWorkload> {
        let rows = match self.scale {
            Scale::Quick => 500,
            Scale::Full => 5_000,
        };
        Arc::new(YcsbWorkload::new(YcsbConfig {
            partitions,
            rows_per_partition: rows,
            cross_partition_fraction: cross_pct / 100.0,
            ..Default::default()
        }))
    }

    fn tpcc(&self, warehouses: usize, cross_pct: f64) -> Arc<TpccWorkload> {
        let (districts, customers, items) = match self.scale {
            Scale::Quick => (3, 20, 100),
            Scale::Full => (10, 120, 1_000),
        };
        Arc::new(TpccWorkload::new(TpccConfig {
            warehouses,
            districts_per_warehouse: districts,
            customers_per_district: customers,
            items,
            cross_partition_fraction: cross_pct / 100.0,
            ..Default::default()
        }))
    }

    fn record(&mut self, figure: &str, series: &str, x: f64, report: &RunReport) {
        println!(
            "  [{figure}] {series:<18} x={x:>6.1}  {:>12.0} txns/sec  p50={:?} p99={:?}",
            report.throughput,
            report.latency.p50(),
            report.latency.p99()
        );
        self.points.push(Point {
            figure: figure.to_string(),
            series: series.to_string(),
            x,
            throughput: report.throughput,
            p50_us: Some(report.latency.p50().as_micros() as u64),
            p99_us: Some(report.latency.p99().as_micros() as u64),
            replication_bytes_per_txn: Some(
                report.counters.replication_bytes as f64 / report.counters.committed.max(1) as f64,
            ),
        });
    }

    fn record_model(&mut self, figure: &str, series: &str, x: f64, value: f64) {
        println!("  [{figure}] {series:<24} x={x:>6.1}  {value:>10.3}");
        self.points.push(Point {
            figure: figure.to_string(),
            series: series.to_string(),
            x,
            throughput: value,
            p50_us: None,
            p99_us: None,
            replication_bytes_per_txn: None,
        });
    }

    fn run_star(&self, config: ClusterConfig, workload: Arc<dyn Workload>) -> RunReport {
        let mut engine = StarEngine::new(config, workload).expect("STAR construction failed");
        engine.run_for(self.scale.window())
    }

    /// Figure 3: analytical speedup of STAR over a single node.
    pub fn fig3(&mut self) {
        println!("Figure 3: speedup of asymmetric replication over single-node execution (model)");
        for p in [1.0, 5.0, 10.0, 15.0] {
            let model = AnalyticalModel::new(p / 100.0, 8.0);
            for n in 1..=16usize {
                self.record_model(
                    "fig3",
                    &format!("P={p}%"),
                    n as f64,
                    model.speedup_over_single_node(n),
                );
            }
        }
    }

    /// Figure 10: analytical improvement over partitioning-based (varying K)
    /// and non-partitioned systems, n = 4.
    pub fn fig10(&mut self) {
        println!("Figure 10: improvement of STAR vs conventional designs, n=4 (model)");
        for k in [2.0, 4.0, 8.0, 16.0] {
            for pct in (0..=100).step_by(10) {
                let model = AnalyticalModel::new(pct as f64 / 100.0, k);
                self.record_model(
                    "fig10",
                    &format!("K={k}"),
                    pct as f64,
                    (model.improvement_over_partitioning(4) - 1.0) * 100.0,
                );
            }
        }
        for pct in (0..=100).step_by(10) {
            let model = AnalyticalModel::new(pct as f64 / 100.0, 4.0);
            self.record_model(
                "fig10",
                "Non-partitioned",
                pct as f64,
                (model.improvement_over_non_partitioned(4) - 1.0) * 100.0,
            );
        }
    }

    fn fig11_workload(&mut self, figure: &str, tpcc: bool, sync: bool) {
        let nodes = 4;
        for pct in CROSS_PCTS {
            let config = self.cluster(nodes);
            let workload: Arc<dyn Workload> = if tpcc {
                self.tpcc(config.partitions, pct)
            } else {
                self.ycsb(config.partitions, pct)
            };
            if !sync {
                let report = self.run_star(config.clone(), workload.clone());
                self.record(figure, "STAR", pct, &report);
            }
            let mode = if sync { ReplicationMode::Sync } else { ReplicationMode::Async };
            let cluster = config.to_builder().replication_mode(mode).build().unwrap();

            let pb_cluster = self
                .cluster(2)
                .to_builder()
                .partitions(config.partitions)
                .replication_mode(mode)
                .build()
                .unwrap();
            let mut pb = PbOcc::new(pb_cluster, workload.clone()).unwrap();
            let report = pb.run_for(self.scale.window());
            self.record(figure, "PB. OCC", pct, &report);

            let mut docc =
                PartitionedEngine::new(cluster.clone(), DistCc::Occ, workload.clone()).unwrap();
            let report = docc.run_for(self.scale.window());
            self.record(figure, "Dist. OCC", pct, &report);

            let mut s2pl =
                PartitionedEngine::new(cluster, DistCc::S2plNoWait, workload.clone()).unwrap();
            let report = s2pl.run_for(self.scale.window());
            self.record(figure, "Dist. S2PL", pct, &report);
        }
    }

    /// Figure 11(a): YCSB, async replication + epoch group commit.
    pub fn fig11a(&mut self) {
        println!("Figure 11(a): YCSB throughput vs % cross-partition (async replication)");
        self.fig11_workload("fig11a", false, false);
    }

    /// Figure 11(b): TPC-C, async replication + epoch group commit.
    pub fn fig11b(&mut self) {
        println!("Figure 11(b): TPC-C throughput vs % cross-partition (async replication)");
        self.fig11_workload("fig11b", true, false);
    }

    /// Figure 11(c): YCSB, synchronous replication baselines.
    pub fn fig11c(&mut self) {
        println!("Figure 11(c): YCSB throughput vs % cross-partition (sync replication baselines)");
        self.fig11_workload("fig11c", false, true);
    }

    /// Figure 11(d): TPC-C, synchronous replication baselines.
    pub fn fig11d(&mut self) {
        println!(
            "Figure 11(d): TPC-C throughput vs % cross-partition (sync replication baselines)"
        );
        self.fig11_workload("fig11d", true, true);
    }

    /// Figure 12: latency table (50th / 99th percentile) for sync and async
    /// configurations at 10/50/90% cross-partition transactions.
    pub fn fig12(&mut self) {
        println!("Figure 12: latency (p50/p99) of each approach");
        let nodes = 4;
        for pct in [10.0, 50.0, 90.0] {
            let config = self.cluster(nodes);
            let ycsb = self.ycsb(config.partitions, pct);

            let report = self.run_star(config.clone(), ycsb.clone());
            self.record("fig12", "STAR (async)", pct, &report);

            for sync in [true, false] {
                let mode = if sync { ReplicationMode::Sync } else { ReplicationMode::Async };
                let cluster = config.to_builder().replication_mode(mode).build().unwrap();
                let label = |name: &str| {
                    if sync {
                        format!("{name} (sync)")
                    } else {
                        format!("{name} (async)")
                    }
                };
                let pb_cluster = self
                    .cluster(2)
                    .to_builder()
                    .partitions(config.partitions)
                    .replication_mode(mode)
                    .build()
                    .unwrap();
                let mut pb = PbOcc::new(pb_cluster, ycsb.clone()).unwrap();
                let report = pb.run_for(self.scale.window());
                self.record("fig12", &label("PB. OCC"), pct, &report);

                let mut docc =
                    PartitionedEngine::new(cluster.clone(), DistCc::Occ, ycsb.clone()).unwrap();
                let report = docc.run_for(self.scale.window());
                self.record("fig12", &label("Dist. OCC"), pct, &report);

                let mut s2pl =
                    PartitionedEngine::new(cluster, DistCc::S2plNoWait, ycsb.clone()).unwrap();
                let report = s2pl.run_for(self.scale.window());
                self.record("fig12", &label("Dist. S2PL"), pct, &report);
            }
        }
    }

    fn fig13_workload(&mut self, figure: &str, tpcc: bool) {
        let nodes = 4;
        for pct in CROSS_PCTS {
            let config = self.cluster(nodes);
            let workload: Arc<dyn Workload> = if tpcc {
                self.tpcc(config.partitions, pct)
            } else {
                self.ycsb(config.partitions, pct)
            };
            let report = self.run_star(config.clone(), workload.clone());
            self.record(figure, "STAR", pct, &report);
            for x in [2usize, 4, 6] {
                // Scale the paper's 12-thread nodes down proportionally: with
                // fewer worker threads per node, dedicate x/2 to the lock
                // manager (minimum 1).
                let lock_managers = (x / 2).max(1);
                let mut calvin =
                    Calvin::new(config.clone(), lock_managers, workload.clone()).unwrap();
                let report = calvin.run_for(self.scale.window());
                self.record(figure, &format!("Calvin-{x}"), pct, &report);
            }
        }
    }

    /// Figure 13(a): STAR vs Calvin on YCSB.
    pub fn fig13a(&mut self) {
        println!("Figure 13(a): YCSB, STAR vs Calvin-x");
        self.fig13_workload("fig13a", false);
    }

    /// Figure 13(b): STAR vs Calvin on TPC-C.
    pub fn fig13b(&mut self) {
        println!("Figure 13(b): TPC-C, STAR vs Calvin-x");
        self.fig13_workload("fig13b", true);
    }

    /// Figure 14(a): throughput and phase-switch overhead vs iteration time.
    pub fn fig14a(&mut self) {
        println!("Figure 14(a): phase-switch overhead vs iteration time (YCSB)");
        let nodes = 4;
        let iterations_ms = [1u64, 2, 5, 10, 20, 50, 100];
        let mut results = Vec::new();
        for ms in iterations_ms {
            let config = self
                .cluster(nodes)
                .to_builder()
                .iteration(Duration::from_millis(ms))
                .build()
                .unwrap();
            let ycsb = self.ycsb(config.partitions, 10.0);
            let report = self.run_star(config, ycsb);
            results.push((ms, report));
        }
        // Overhead is measured against the longest iteration time, as in the
        // paper (the 200 ms reference run).
        let reference = results.last().map(|(_, r)| r.throughput).unwrap_or(1.0).max(1.0);
        for (ms, report) in results {
            self.record("fig14a", "Throughput", ms as f64, &report);
            let overhead = 100.0 * (1.0 - report.throughput / reference).max(0.0);
            self.record_model("fig14a", "Overhead (%)", ms as f64, overhead);
        }
    }

    /// Figure 14(b): phase-switch overhead vs number of nodes.
    pub fn fig14b(&mut self) {
        println!("Figure 14(b): phase-switch overhead vs cluster size (YCSB)");
        for &iteration_ms in &[10u64, 20] {
            for nodes in [2usize, 4, 8] {
                let config = self
                    .cluster(nodes)
                    .to_builder()
                    .iteration(Duration::from_millis(iteration_ms))
                    .build()
                    .unwrap();
                let ycsb = self.ycsb(config.partitions, 10.0);
                let report = self.run_star(config.clone(), ycsb.clone());
                // Reference: the same cluster with a long iteration time.
                let reference_config =
                    config.to_builder().iteration(Duration::from_millis(100)).build().unwrap();
                let reference = self.run_star(reference_config, ycsb);
                let overhead =
                    100.0 * (1.0 - report.throughput / reference.throughput.max(1.0)).max(0.0);
                self.record_model(
                    "fig14b",
                    &format!("Iteration Time ({iteration_ms}ms)"),
                    nodes as f64,
                    overhead,
                );
            }
        }
    }

    /// Figure 15(a): replication strategies on TPC-C (SYNC STAR, STAR, STAR
    /// with hybrid replication).
    pub fn fig15a(&mut self) {
        println!("Figure 15(a): replication strategies, TPC-C");
        for pct in CROSS_PCTS {
            let base = self.cluster(4);
            let tpcc = self.tpcc(base.partitions, pct);

            let sync_config = base
                .to_builder()
                .replication_mode(ReplicationMode::Sync)
                .replication_strategy(ReplicationStrategy::Value)
                .build()
                .unwrap();
            let report = self.run_star(sync_config, tpcc.clone());
            self.record("fig15a", "SYNC STAR", pct, &report);

            let value_config =
                base.to_builder().replication_strategy(ReplicationStrategy::Value).build().unwrap();
            let report = self.run_star(value_config, tpcc.clone());
            self.record("fig15a", "STAR", pct, &report);

            let hybrid_config = base
                .to_builder()
                .replication_strategy(ReplicationStrategy::Hybrid)
                .build()
                .unwrap();
            let report = self.run_star(hybrid_config, tpcc);
            self.record("fig15a", "STAR w/ Hybrid Rep.", pct, &report);
        }
    }

    /// Figure 15(b): overhead of disk logging and checkpointing.
    pub fn fig15b(&mut self) {
        println!("Figure 15(b): disk logging overhead (YCSB, TPC-C)");
        for tpcc in [false, true] {
            let label = if tpcc { "TPC-C" } else { "YCSB" };
            let base = self.cluster(4);
            let workload: Arc<dyn Workload> = if tpcc {
                self.tpcc(base.partitions, 10.0)
            } else {
                self.ycsb(base.partitions, 10.0)
            };
            let report = self.run_star(base.clone(), workload.clone());
            self.record("fig15b", &format!("STAR ({label})"), 0.0, &report);
            let logging = base.to_builder().disk_logging(true).build().unwrap();
            let report = self.run_star(logging, workload);
            self.record("fig15b", &format!("STAR + Disk logging ({label})"), 0.0, &report);
        }
    }

    fn fig16_workload(&mut self, figure: &str, tpcc: bool) {
        for nodes in [2usize, 4, 8] {
            let config = self.cluster(nodes);
            let workload: Arc<dyn Workload> = if tpcc {
                self.tpcc(config.partitions, 12.5)
            } else {
                self.ycsb(config.partitions, 10.0)
            };
            let report = self.run_star(config.clone(), workload.clone());
            self.record(figure, "STAR", nodes as f64, &report);

            let mut docc =
                PartitionedEngine::new(config.clone(), DistCc::Occ, workload.clone()).unwrap();
            let report = docc.run_for(self.scale.window());
            self.record(figure, "Dist. OCC", nodes as f64, &report);
            let mut s2pl =
                PartitionedEngine::new(config.clone(), DistCc::S2plNoWait, workload.clone())
                    .unwrap();
            let report = s2pl.run_for(self.scale.window());
            self.record(figure, "Dist. S2PL", nodes as f64, &report);
            let mut calvin = Calvin::new(config, 2, workload.clone()).unwrap();
            let report = calvin.run_for(self.scale.window());
            self.record(figure, "Calvin", nodes as f64, &report);
        }
    }

    /// Figure 16(a): scalability on YCSB.
    pub fn fig16a(&mut self) {
        println!("Figure 16(a): scalability, YCSB");
        self.fig16_workload("fig16a", false);
    }

    /// Figure 16(b): scalability on TPC-C.
    pub fn fig16b(&mut self) {
        println!("Figure 16(b): scalability, TPC-C");
        self.fig16_workload("fig16b", true);
    }

    /// Runs a figure by name; returns false if the name is unknown.
    pub fn run(&mut self, name: &str) -> bool {
        match name {
            "fig3" => self.fig3(),
            "fig10" => self.fig10(),
            "fig11a" => self.fig11a(),
            "fig11b" => self.fig11b(),
            "fig11c" => self.fig11c(),
            "fig11d" => self.fig11d(),
            "fig12" => self.fig12(),
            "fig13a" => self.fig13a(),
            "fig13b" => self.fig13b(),
            "fig14a" => self.fig14a(),
            "fig14b" => self.fig14b(),
            "fig15a" => self.fig15a(),
            "fig15b" => self.fig15b(),
            "fig16a" => self.fig16a(),
            "fig16b" => self.fig16b(),
            "all" => {
                for figure in Self::all_figures() {
                    self.run(figure);
                }
            }
            _ => return false,
        }
        true
    }

    /// Every figure the harness knows how to regenerate.
    pub fn all_figures() -> &'static [&'static str] {
        &[
            "fig3", "fig10", "fig11a", "fig11b", "fig11c", "fig11d", "fig12", "fig13a", "fig13b",
            "fig14a", "fig14b", "fig15a", "fig15b", "fig16a", "fig16b",
        ]
    }

    /// Serialises the collected points to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.points).expect("serialising points cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_figures_produce_points_without_running_engines() {
        let mut runner = FigureRunner::new(Scale::Quick);
        runner.fig3();
        runner.fig10();
        assert!(runner.points.iter().any(|p| p.figure == "fig3"));
        assert!(runner.points.iter().any(|p| p.figure == "fig10"));
        // Figure 3 has 4 series × 16 node counts.
        assert_eq!(runner.points.iter().filter(|p| p.figure == "fig3").count(), 64);
        let json = runner.to_json();
        assert!(json.contains("\"figure\": \"fig3\""));
    }

    #[test]
    fn unknown_figure_name_is_rejected() {
        let mut runner = FigureRunner::new(Scale::Quick);
        assert!(!runner.run("fig99"));
    }

    #[test]
    fn all_figures_lists_every_handler() {
        // Keep the CLI help and the dispatcher in sync.
        for figure in FigureRunner::all_figures() {
            assert_ne!(*figure, "all");
        }
        assert_eq!(FigureRunner::all_figures().len(), 15);
    }
}
