//! The regression benchmark suite behind the `star-bench` binary.
//!
//! Where [`figures`](crate::figures) regenerates the *paper's* plots, this
//! module produces the repo's own machine-readable performance trajectory:
//! deterministic YCSB and TPC-C sweeps across all five engines, emitted as
//! `BENCH_ycsb.json` / `BENCH_tpcc.json` at the repository root. CI's `bench-smoke` job re-runs the sweeps with `--quick` and fails the
//! build when throughput regresses more than a configured fraction against
//! the committed baselines.

use crate::figures::{Point, Scale};
use serde::Serialize;
use star::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Cross-partition percentages swept per workload. Deliberately a superset of
/// the interesting region: 0% exercises the pure partitioned phase, 90% is
/// dominated by the single-master phase.
pub const SWEEP_CROSS_PCTS: [f64; 4] = [0.0, 10.0, 50.0, 90.0];

/// Worker-thread counts of the thread-scaling sweep (every engine, fixed 10%
/// cross-partition mix).
pub const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

/// Zipfian skew exponents of the hot-key contention lane: uniform, moderate,
/// heavy, and YCSB's default 0.99.
pub const ZIPF_SWEEP: [f64; 4] = [0.0, 0.7, 0.9, 0.99];

/// Relative slack allowed between consecutive STAR thread-sweep points before
/// `--check` calls the scaling non-monotonic: throughput at `t`-threads may
/// sit up to this fraction below the previous thread count's and still pass
/// (run-to-run noise, especially on small CI machines).
/// 10% absorbs single-point scheduler luck on one-core CI runners while
/// still flagging the seed repository's 29% t2→t4 collapse by a wide margin.
pub const MONOTONICITY_TOLERANCE: f64 = 0.10;

/// One canonical benchmark data point, the record schema of `BENCH_*.json`.
///
/// Besides throughput and latency percentiles, every point carries the
/// per-phase latency-source breakdown ([`PhaseBreakdown`]) normalised to
/// µs per committed transaction, versioned by `breakdown_version` so the
/// regression gate never compares incompatible slice schemas.
#[derive(Debug, Clone, Serialize)]
pub struct BenchPoint {
    /// Engine label, matching [`EngineKind::label`] (e.g. `"Dist. OCC"`).
    pub engine: String,
    /// Workload name (`"ycsb"` or `"tpcc"`).
    pub workload: String,
    /// Percentage of cross-partition transactions in the mix.
    pub cross_partition_pct: f64,
    /// Committed transactions per second over the measurement window.
    pub committed_txns_per_sec: f64,
    /// 50th percentile commit latency in microseconds.
    pub p50_commit_latency_us: u64,
    /// 99th percentile commit latency in microseconds.
    pub p99_commit_latency_us: u64,
    /// Schema version of the breakdown slices below
    /// ([`BREAKDOWN_VERSION`]; 0 in baselines predating the breakdown).
    pub breakdown_version: u32,
    /// Execution time per committed transaction, µs.
    pub execution_us_per_txn: f64,
    /// Synchronous fence/group-commit stall per committed transaction, µs.
    pub fence_wait_us_per_txn: f64,
    /// Replication apply/ship time per committed transaction, µs.
    pub replication_flush_us_per_txn: f64,
    /// WAL flush time per committed transaction, µs.
    pub wal_fsync_us_per_txn: f64,
    /// How the write-ahead log ran for this point: `"off"` (the bench
    /// clusters keep `disk_logging` disabled, so `wal_fsync_us_per_txn` is
    /// structurally zero, not a broken clock) or `"group-commit-write"`
    /// when a configuration enables disk logging — the log is written and
    /// flushed at the epoch's group commit, never `fsync`ed.
    pub wal_mode: String,
    /// Lock acquisition / OCC validation time per committed transaction, µs.
    pub lock_or_validate_us_per_txn: f64,
}

impl BenchPoint {
    fn from_report(workload: &str, pct: f64, wal_mode: &str, report: &RunReport) -> Self {
        let committed = report.counters.committed.max(1) as f64;
        let breakdown = report.breakdown();
        BenchPoint {
            engine: report.engine.clone(),
            workload: workload.to_string(),
            cross_partition_pct: pct,
            committed_txns_per_sec: report.throughput,
            p50_commit_latency_us: report.latency.p50().as_micros() as u64,
            p99_commit_latency_us: report.latency.p99().as_micros() as u64,
            breakdown_version: BREAKDOWN_VERSION,
            execution_us_per_txn: breakdown.execution_us as f64 / committed,
            fence_wait_us_per_txn: breakdown.fence_wait_us as f64 / committed,
            replication_flush_us_per_txn: breakdown.replication_flush_us as f64 / committed,
            wal_fsync_us_per_txn: breakdown.wal_fsync_us as f64 / committed,
            wal_mode: wal_mode.to_string(),
            lock_or_validate_us_per_txn: breakdown.lock_or_validate_us as f64 / committed,
        }
    }

    /// The breakdown slices as `(field name, µs per txn)` pairs.
    pub fn slices(&self) -> [(&'static str, f64); 5] {
        [
            ("execution_us_per_txn", self.execution_us_per_txn),
            ("fence_wait_us_per_txn", self.fence_wait_us_per_txn),
            ("replication_flush_us_per_txn", self.replication_flush_us_per_txn),
            ("wal_fsync_us_per_txn", self.wal_fsync_us_per_txn),
            ("lock_or_validate_us_per_txn", self.lock_or_validate_us_per_txn),
        ]
    }
}

/// Runs the deterministic engine sweeps for one workload.
pub struct BenchSuite {
    scale: Scale,
    seed: u64,
    /// Raw figure-style points, kept so the suite composes with the existing
    /// JSON/plotting machinery of the figure harness.
    pub points: Vec<Point>,
}

impl BenchSuite {
    /// Creates a suite at `scale`, mixing `seed` into every engine's
    /// transaction stream.
    pub fn new(scale: Scale, seed: u64) -> Self {
        BenchSuite { scale, seed, points: Vec::new() }
    }

    fn window(&self) -> Duration {
        match self.scale {
            Scale::Quick => Duration::from_millis(150),
            Scale::Full => Duration::from_millis(800),
        }
    }

    fn cluster(&self, nodes: usize) -> ClusterConfig {
        ClusterConfig::builder()
            .nodes(nodes)
            .workers_per_node(2)
            .partitions(nodes * 2)
            .iteration(Duration::from_millis(10))
            .network_latency(Duration::from_micros(50))
            .seed(self.seed)
            .build()
            .expect("bench cluster configuration is valid")
    }

    fn ycsb(&self, partitions: usize, cross_pct: f64) -> Arc<YcsbWorkload> {
        self.ycsb_with_skew(partitions, cross_pct, 0.0)
    }

    fn ycsb_with_skew(
        &self,
        partitions: usize,
        cross_pct: f64,
        zipf_theta: f64,
    ) -> Arc<YcsbWorkload> {
        let rows = match self.scale {
            Scale::Quick => 500,
            Scale::Full => 5_000,
        };
        Arc::new(YcsbWorkload::new(YcsbConfig {
            partitions,
            rows_per_partition: rows,
            cross_partition_fraction: cross_pct / 100.0,
            zipf_theta,
            ..Default::default()
        }))
    }

    /// The WAL mode of this suite's cluster configurations (none of them
    /// enable disk logging, and the label records that explicitly).
    fn wal_mode(&self) -> &'static str {
        if self.cluster(4).disk_logging {
            "group-commit-write"
        } else {
            "off"
        }
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

    fn record(&mut self, workload: &str, pct: f64, report: &RunReport) -> BenchPoint {
        println!(
            "  [{workload}] {:<10} x={pct:>5.1}%  {:>12.0} txns/sec  p50={:?} p99={:?}",
            report.engine,
            report.throughput,
            report.latency.p50(),
            report.latency.p99()
        );
        self.points.push(Point {
            figure: workload.to_string(),
            series: report.engine.clone(),
            x: pct,
            throughput: report.throughput,
            p50_us: Some(report.latency.p50().as_micros() as u64),
            p99_us: Some(report.latency.p99().as_micros() as u64),
            replication_bytes_per_txn: Some(
                report.counters.replication_bytes as f64 / report.counters.committed.max(1) as f64,
            ),
        });
        BenchPoint::from_report(workload, pct, self.wal_mode(), report)
    }

    /// Builds one engine behind the unified [`Engine`] trait. Everything the
    /// suite does afterwards — running, reporting, recording — goes through
    /// the trait object; no per-engine glue survives past this constructor.
    fn build_engine(&self, engine: EngineKind, workload: Arc<dyn Workload>) -> Box<dyn Engine> {
        self.build_engine_with(engine, self.cluster(4), workload)
    }

    /// [`build_engine`](Self::build_engine) with an explicit STAR-side
    /// cluster configuration, for lanes that vary it (the thread sweep).
    fn build_engine_with(
        &self,
        engine: EngineKind,
        config: ClusterConfig,
        workload: Arc<dyn Workload>,
    ) -> Box<dyn Engine> {
        match engine {
            EngineKind::Star => {
                Box::new(StarEngine::new(config, workload).expect("STAR construction failed"))
            }
            EngineKind::PbOcc => {
                // PB. OCC runs one primary + one backup; it ignores the
                // partition layout but keeps the partition count (same key
                // space) and worker count (fair thread sweep).
                let pb_cluster = self
                    .cluster(2)
                    .to_builder()
                    .partitions(config.partitions)
                    .workers_per_node(config.workers_per_node)
                    .build()
                    .expect("PB. OCC cluster configuration is valid");
                Box::new(PbOcc::new(pb_cluster, workload).expect("PB. OCC construction failed"))
            }
            EngineKind::DistOcc => Box::new(
                PartitionedEngine::new(config, DistCc::Occ, workload)
                    .expect("Dist. OCC construction failed"),
            ),
            EngineKind::DistS2pl => Box::new(
                PartitionedEngine::new(config, DistCc::S2plNoWait, workload)
                    .expect("Dist. S2PL construction failed"),
            ),
            EngineKind::Calvin => {
                let mut calvin =
                    Calvin::new(config, 2, workload).expect("Calvin construction failed");
                // Calvin-2 means two replica groups (paper Section 7.2: every
                // system runs at replication factor 2). The second group
                // re-executes each sequenced batch on its own copy; in this
                // single-process harness that work shares the same cores, so
                // the bench charges Calvin the batch-boundary replica apply —
                // cheaper than the re-execution real replicas perform, and
                // the same group-commit cost every other engine already pays.
                calvin.attach_backup();
                Box::new(calvin)
            }
        }
    }

    fn run_engine(&self, engine: EngineKind, workload: Arc<dyn Workload>) -> RunReport {
        self.build_engine(engine, workload).run_for(self.window())
    }

    fn workload_for(&self, workload_name: &str, partitions: usize, pct: f64) -> Arc<dyn Workload> {
        match workload_name {
            "tpcc" => self.tpcc(partitions, pct),
            _ => self.ycsb(partitions, pct),
        }
    }

    /// Sweeps one workload (`"ycsb"` or `"tpcc"`) across every engine and
    /// cross-partition percentage; returns the canonical points produced by
    /// this sweep.
    pub fn sweep(&mut self, workload_name: &str) -> Vec<BenchPoint> {
        let engines = [
            EngineKind::Star,
            EngineKind::PbOcc,
            EngineKind::DistOcc,
            EngineKind::DistS2pl,
            EngineKind::Calvin,
        ];
        println!("{workload_name} sweep (seed {}):", self.seed);
        let mut out = Vec::new();
        for pct in SWEEP_CROSS_PCTS {
            let partitions = self.cluster(4).partitions;
            let workload = self.workload_for(workload_name, partitions, pct);
            for engine in engines {
                let report = self.run_engine(engine, Arc::clone(&workload));
                out.push(self.record(workload_name, pct, &report));
            }
        }
        out
    }

    /// The thread-scaling lane: every engine at a fixed 10% cross-partition
    /// mix, swept across [`THREAD_SWEEP`] worker threads per node. Points
    /// are labelled `"<workload>-t<n>"` so they never collide with the
    /// cross-partition sweep in the regression gate.
    pub fn thread_scaling(&mut self, workload_name: &str) -> Vec<BenchPoint> {
        let pct = 10.0;
        let window = self.window();
        let engines = [
            EngineKind::Star,
            EngineKind::PbOcc,
            EngineKind::DistOcc,
            EngineKind::DistS2pl,
            EngineKind::Calvin,
        ];
        println!("{workload_name} thread-scaling sweep (seed {}):", self.seed);
        let mut out = Vec::new();
        for threads in THREAD_SWEEP {
            let partitions = self.cluster(4).partitions;
            let config = self
                .cluster(4)
                .to_builder()
                .workers_per_node(threads)
                .build()
                .expect("thread-sweep cluster configuration is valid");
            let label = format!("{workload_name}-t{threads}");
            let workload = self.workload_for(workload_name, partitions, pct);
            for engine in engines {
                let report = self
                    .build_engine_with(engine, config.clone(), Arc::clone(&workload))
                    .run_for(window);
                out.push(self.record(&label, pct, &report));
            }
        }
        out
    }

    /// The hot-key contention lane: every engine at a fixed 10%
    /// cross-partition mix, swept across the [`ZIPF_SWEEP`] Zipfian skew
    /// exponents. Points are labelled `"ycsb-zipf<theta>"`; θ = 0 is the
    /// uniform distribution the main sweep uses, 0.99 is YCSB's default
    /// hot-key skew.
    pub fn zipf_scaling(&mut self) -> Vec<BenchPoint> {
        let pct = 10.0;
        let engines = [
            EngineKind::Star,
            EngineKind::PbOcc,
            EngineKind::DistOcc,
            EngineKind::DistS2pl,
            EngineKind::Calvin,
        ];
        println!("ycsb zipf contention sweep (seed {}):", self.seed);
        let mut out = Vec::new();
        for theta in ZIPF_SWEEP {
            let partitions = self.cluster(4).partitions;
            let workload: Arc<dyn Workload> = self.ycsb_with_skew(partitions, pct, theta);
            let label = format!("ycsb-zipf{theta:.2}");
            for engine in engines {
                let report = self.run_engine(engine, Arc::clone(&workload));
                out.push(self.record(&label, pct, &report));
            }
        }
        out
    }

    /// Runs every engine once at `pct`% cross-partition and returns the five
    /// reports, for the latency-source profiling table (`just profile`).
    pub fn profile(&mut self, workload_name: &str, pct: f64) -> Vec<RunReport> {
        let engines = [
            EngineKind::Star,
            EngineKind::PbOcc,
            EngineKind::DistOcc,
            EngineKind::DistS2pl,
            EngineKind::Calvin,
        ];
        let partitions = self.cluster(4).partitions;
        let workload = self.workload_for(workload_name, partitions, pct);
        engines.into_iter().map(|e| self.run_engine(e, Arc::clone(&workload))).collect()
    }

    /// Serializes a sweep's points as the canonical `BENCH_*.json` document:
    /// a top-level array of [`BenchPoint`] objects.
    pub fn to_json(points: &[BenchPoint]) -> String {
        serde_json::to_string_pretty(&points.to_vec())
            .expect("serialising bench points cannot fail")
    }
}

// ---------------------------------------------------------------------------
// Baseline regression checking
// ---------------------------------------------------------------------------

/// One regression found by [`check_against_baseline`] — either a throughput
/// drop or a per-slice breakdown growth.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Engine label of the regressed point.
    pub engine: String,
    /// Workload of the regressed point.
    pub workload: String,
    /// Cross-partition percentage of the regressed point.
    pub cross_partition_pct: f64,
    /// Which metric regressed: `"committed_txns_per_sec"` or one of the
    /// `*_us_per_txn` breakdown slice fields.
    pub metric: &'static str,
    /// Metric value recorded in the committed baseline.
    pub baseline: f64,
    /// Metric value measured by this run.
    pub current: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let unit = if self.metric == "committed_txns_per_sec" { "txns/sec" } else { "µs/txn" };
        write!(
            f,
            "{} / {} @ {:.0}% cross-partition: {} {:.0} -> {:.0} {unit} ({:+.1}%)",
            self.workload,
            self.engine,
            self.cross_partition_pct,
            self.metric,
            self.baseline,
            self.current,
            100.0 * (self.current - self.baseline) / self.baseline.max(1.0),
        )
    }
}

fn field<'v>(
    fields: &'v [(String, serde_json::Value)],
    name: &str,
) -> Option<&'v serde_json::Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn as_f64(value: &serde_json::Value) -> Option<f64> {
    match value {
        serde_json::Value::F64(v) => Some(*v),
        serde_json::Value::U64(v) => Some(*v as f64),
        serde_json::Value::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// Parses a committed `BENCH_*.json` document back into benchmark points.
/// Unknown fields are ignored so the schema can grow compatibly.
pub fn parse_baseline(json: &str) -> std::result::Result<Vec<BenchPoint>, String> {
    let value: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("invalid baseline JSON: {e}"))?;
    let serde_json::Value::Array(items) = value else {
        return Err("baseline JSON must be a top-level array of points".into());
    };
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let serde_json::Value::Object(fields) = item else {
                return Err(format!("baseline point {i} is not an object"));
            };
            let engine = match field(fields, "engine") {
                Some(serde_json::Value::String(s)) => s.clone(),
                _ => return Err(format!("baseline point {i} is missing \"engine\"")),
            };
            let workload = match field(fields, "workload") {
                Some(serde_json::Value::String(s)) => s.clone(),
                _ => return Err(format!("baseline point {i} is missing \"workload\"")),
            };
            let cross = field(fields, "cross_partition_pct")
                .and_then(as_f64)
                .ok_or_else(|| format!("baseline point {i} is missing \"cross_partition_pct\""))?;
            let throughput =
                field(fields, "committed_txns_per_sec").and_then(as_f64).ok_or_else(|| {
                    format!("baseline point {i} is missing \"committed_txns_per_sec\"")
                })?;
            let p50 = field(fields, "p50_commit_latency_us").and_then(as_f64).unwrap_or(0.0);
            let p99 = field(fields, "p99_commit_latency_us").and_then(as_f64).unwrap_or(0.0);
            // Breakdown fields are optional: baselines committed before the
            // breakdown existed parse as version 0 and are simply not
            // slice-gated.
            let slice = |name: &str| field(fields, name).and_then(as_f64).unwrap_or(0.0);
            let breakdown_version =
                field(fields, "breakdown_version").and_then(as_f64).unwrap_or(0.0) as u32;
            let wal_mode = match field(fields, "wal_mode") {
                // The label points written before the rename carry: the log
                // was never synced, so they read as what they measured.
                Some(serde_json::Value::String(s)) if s == "group-commit-fsync" => {
                    "group-commit-write".to_string()
                }
                Some(serde_json::Value::String(s)) => s.clone(),
                // Baselines predating the field never ran with a WAL.
                _ => "unrecorded".to_string(),
            };
            Ok(BenchPoint {
                engine,
                workload,
                cross_partition_pct: cross,
                committed_txns_per_sec: throughput,
                p50_commit_latency_us: p50 as u64,
                p99_commit_latency_us: p99 as u64,
                breakdown_version,
                execution_us_per_txn: slice("execution_us_per_txn"),
                fence_wait_us_per_txn: slice("fence_wait_us_per_txn"),
                replication_flush_us_per_txn: slice("replication_flush_us_per_txn"),
                wal_fsync_us_per_txn: slice("wal_fsync_us_per_txn"),
                wal_mode,
                lock_or_validate_us_per_txn: slice("lock_or_validate_us_per_txn"),
            })
        })
        .collect()
}

/// Slices cheaper than this in the baseline are never gated: a few-µs slice
/// doubling is measurement noise, not a regression.
const SLICE_GATE_FLOOR_US_PER_TXN: f64 = 100.0;

/// Compares freshly measured points against a committed baseline: any point
/// whose throughput dropped by more than `max_drop` (a fraction, e.g. `0.25`)
/// is reported, and — when both sides carry the same breakdown schema
/// version — so is any per-txn breakdown slice that *grew* by more than the
/// same fraction (above an absolute floor, so microscopic slices cannot trip
/// the gate on noise). Points present on only one side are ignored — adding
/// a new engine or sweep coordinate must not fail the gate retroactively.
pub fn check_against_baseline(
    current: &[BenchPoint],
    baseline: &[BenchPoint],
    max_drop: f64,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for b in baseline {
        let matching = current.iter().find(|c| {
            c.engine == b.engine
                && c.workload == b.workload
                && (c.cross_partition_pct - b.cross_partition_pct).abs() < f64::EPSILON
        });
        let Some(c) = matching else { continue };
        if c.committed_txns_per_sec < b.committed_txns_per_sec * (1.0 - max_drop) {
            regressions.push(Regression {
                engine: b.engine.clone(),
                workload: b.workload.clone(),
                cross_partition_pct: b.cross_partition_pct,
                metric: "committed_txns_per_sec",
                baseline: b.committed_txns_per_sec,
                current: c.committed_txns_per_sec,
            });
        }
        if b.breakdown_version != BREAKDOWN_VERSION || c.breakdown_version != BREAKDOWN_VERSION {
            continue;
        }
        for ((name, base_us), (_, cur_us)) in b.slices().into_iter().zip(c.slices()) {
            if base_us >= SLICE_GATE_FLOOR_US_PER_TXN
                && cur_us > base_us * (1.0 + max_drop)
                && cur_us - base_us > SLICE_GATE_FLOOR_US_PER_TXN
            {
                regressions.push(Regression {
                    engine: b.engine.clone(),
                    workload: b.workload.clone(),
                    cross_partition_pct: b.cross_partition_pct,
                    metric: name,
                    baseline: base_us,
                    current: cur_us,
                });
            }
        }
    }
    regressions
}

/// Checks the STAR points of a thread-scaling sweep for monotone scaling:
/// for each consecutive pair of thread counts, throughput must not drop by
/// more than `tolerance` (a fraction — [`MONOTONICITY_TOLERANCE`] absorbs
/// run-to-run noise). Returns one human-readable violation per offending
/// pair; an empty vector means the scaling curve is monotone (within
/// tolerance). Points of other engines and other lanes are ignored.
pub fn check_thread_monotonicity(points: &[BenchPoint], tolerance: f64) -> Vec<String> {
    // Collect (thread count, throughput) for STAR points labelled
    // "<workload>-t<n>" by the thread-scaling lane.
    let mut curve: Vec<(usize, f64, &str)> = points
        .iter()
        .filter(|p| p.engine == "STAR")
        .filter_map(|p| {
            let (_, suffix) = p.workload.rsplit_once("-t")?;
            let threads: usize = suffix.parse().ok()?;
            Some((threads, p.committed_txns_per_sec, p.workload.as_str()))
        })
        .collect();
    curve.sort_by_key(|(threads, ..)| *threads);
    let mut violations = Vec::new();
    for pair in curve.windows(2) {
        let (prev_t, prev_tput, _) = pair[0];
        let (next_t, next_tput, label) = pair[1];
        if next_tput < prev_tput * (1.0 - tolerance) {
            violations.push(format!(
                "STAR thread scaling is not monotone: {label} {next_tput:.0} txns/sec is \
                 {:.1}% below t{prev_t} {prev_tput:.0} (tolerance {:.0}%)",
                100.0 * (prev_tput - next_tput) / prev_tput.max(1.0),
                tolerance * 100.0,
            ));
        }
        let _ = next_t;
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(engine: &str, workload: &str, pct: f64, tput: f64) -> BenchPoint {
        BenchPoint {
            engine: engine.into(),
            workload: workload.into(),
            cross_partition_pct: pct,
            committed_txns_per_sec: tput,
            p50_commit_latency_us: 10,
            p99_commit_latency_us: 99,
            breakdown_version: BREAKDOWN_VERSION,
            execution_us_per_txn: 500.0,
            fence_wait_us_per_txn: 200.0,
            replication_flush_us_per_txn: 150.0,
            wal_fsync_us_per_txn: 0.0,
            wal_mode: "off".into(),
            lock_or_validate_us_per_txn: 50.0,
        }
    }

    #[test]
    fn wal_mode_roundtrips_and_defaults_for_old_baselines() {
        let points = vec![point("STAR", "ycsb", 10.0, 1000.0)];
        let json = BenchSuite::to_json(&points);
        assert!(json.contains("\"wal_mode\": \"off\""));
        assert_eq!(parse_baseline(&json).unwrap()[0].wal_mode, "off");
        // A baseline predating the field parses with an explicit marker.
        let old = r#"[{"engine": "STAR", "workload": "ycsb",
            "cross_partition_pct": 10.0, "committed_txns_per_sec": 1000.0}]"#;
        assert_eq!(parse_baseline(old).unwrap()[0].wal_mode, "unrecorded");
        // So does one written under the label that promised an fsync.
        let mislabelled = json.replace("\"off\"", "\"group-commit-fsync\"");
        assert_eq!(parse_baseline(&mislabelled).unwrap()[0].wal_mode, "group-commit-write");
    }

    #[test]
    fn thread_monotonicity_check_flags_only_real_collapses() {
        let curve = |t1: f64, t2: f64, t4: f64| {
            vec![
                point("STAR", "ycsb-t1", 10.0, t1),
                point("STAR", "ycsb-t2", 10.0, t2),
                point("STAR", "ycsb-t4", 10.0, t4),
                // Other engines in the lane never trip the STAR gate.
                point("Calvin", "ycsb-t4", 10.0, 1.0),
                // Cross-partition sweep points are not part of the curve.
                point("STAR", "ycsb", 10.0, 1e9),
            ]
        };
        // Monotone: fine. Flat within tolerance: fine.
        assert!(check_thread_monotonicity(&curve(100.0, 110.0, 120.0), 0.05).is_empty());
        assert!(check_thread_monotonicity(&curve(100.0, 98.0, 96.0), 0.05).is_empty());
        // The seed repo's collapse shape (t2 46.7k -> t4 33.1k) fires.
        let violations = check_thread_monotonicity(&curve(41.9e3, 46.7e3, 33.1e3), 0.05);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("ycsb-t4"), "{}", violations[0]);
    }

    #[test]
    fn bench_json_roundtrips_through_parse_baseline() {
        let points = vec![point("STAR", "ycsb", 10.0, 125000.0), point("Calvin", "tpcc", 0.0, 7.5)];
        let json = BenchSuite::to_json(&points);
        assert!(json.contains("\"committed_txns_per_sec\""));
        let parsed = parse_baseline(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].engine, "STAR");
        assert_eq!(parsed[0].committed_txns_per_sec, 125000.0);
        assert_eq!(parsed[1].workload, "tpcc");
        assert_eq!(parsed[1].p99_commit_latency_us, 99);
        // Breakdown slices roundtrip with their schema version.
        assert_eq!(parsed[0].breakdown_version, BREAKDOWN_VERSION);
        assert_eq!(parsed[0].execution_us_per_txn, 500.0);
        assert_eq!(parsed[0].fence_wait_us_per_txn, 200.0);
    }

    #[test]
    fn pre_breakdown_baselines_parse_as_version_zero() {
        // A baseline committed before the breakdown existed has none of the
        // slice fields; it must parse cleanly and never be slice-gated.
        let json = r#"[{"engine": "STAR", "workload": "ycsb",
            "cross_partition_pct": 10.0, "committed_txns_per_sec": 1000.0}]"#;
        let baseline = parse_baseline(json).unwrap();
        assert_eq!(baseline[0].breakdown_version, 0);
        // Current run has huge slices; no slice regression may fire because
        // the baseline predates the schema.
        let current = vec![point("STAR", "ycsb", 10.0, 1000.0)];
        assert!(check_against_baseline(&current, &baseline, 0.25).is_empty());
    }

    #[test]
    fn slice_regressions_fire_past_threshold_and_floor() {
        let baseline = vec![point("STAR", "ycsb", 10.0, 1000.0)];
        // fence_wait grows 200 -> 500 µs/txn: a slice regression even though
        // throughput held.
        let mut bad = point("STAR", "ycsb", 10.0, 1000.0);
        bad.fence_wait_us_per_txn = 500.0;
        let regressions = check_against_baseline(&[bad], &baseline, 0.25);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "fence_wait_us_per_txn");
        assert!(regressions[0].to_string().contains("µs/txn"));
        // lock_or_validate grows 50 -> 90 µs/txn: below the absolute floor,
        // ignored as noise.
        let mut noisy = point("STAR", "ycsb", 10.0, 1000.0);
        noisy.lock_or_validate_us_per_txn = 90.0;
        assert!(check_against_baseline(&[noisy], &baseline, 0.25).is_empty());
    }

    #[test]
    fn parse_baseline_rejects_malformed_documents() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("[{\"engine\": \"STAR\"}]").is_err());
        assert!(parse_baseline("not json").is_err());
    }

    #[test]
    fn regression_gate_fires_only_past_threshold() {
        let baseline = vec![point("STAR", "ycsb", 10.0, 1000.0)];
        // 20% drop with a 25% gate: fine.
        let ok = vec![point("STAR", "ycsb", 10.0, 800.0)];
        assert!(check_against_baseline(&ok, &baseline, 0.25).is_empty());
        // 30% drop: regression.
        let bad = vec![point("STAR", "ycsb", 10.0, 700.0)];
        let regressions = check_against_baseline(&bad, &baseline, 0.25);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].baseline, 1000.0);
        assert!(regressions[0].to_string().contains("ycsb / STAR"));
    }

    #[test]
    fn new_points_do_not_fail_the_gate() {
        let baseline = vec![point("STAR", "ycsb", 10.0, 1000.0)];
        let current = vec![point("STAR", "ycsb", 50.0, 1.0), point("STAR", "ycsb", 10.0, 990.0)];
        assert!(check_against_baseline(&current, &baseline, 0.25).is_empty());
    }
}
