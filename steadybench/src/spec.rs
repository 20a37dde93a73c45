//! The benchmark's fixed definition: cluster shape, workloads, metric names,
//! units, directions and bounds. `BENCHMARK.json` at the repository root is
//! written by hand; a unit test here checks that it lists exactly these
//! workloads and metrics.
//!
//! Nothing here is auto-scaled: the shape is sized for a 2-vCPU host and
//! stays the same on any host, so numbers from two commits compare.

use std::time::Duration;

/// Nodes of the cluster: one full replica (the master) and one partial.
pub const NODES: usize = 2;
/// Full replicas among [`NODES`].
pub const FULL_REPLICAS: usize = 1;
/// Partitions of every database.
pub const PARTITIONS: usize = 2;
/// Worker threads per node, so at most two workers are busy in either phase.
pub const WORKERS_PER_NODE: usize = 2;
/// Copies of every partition.
pub const REPLICATION_FACTOR: usize = 2;
/// Phase-switching iteration time `e`.
pub const ITERATION: Duration = Duration::from_millis(10);
/// What stands behind a WAL flush: `WalWriter::flush` ends in `File::flush`
/// and nothing in the workspace calls `sync_data`/`sync_all`, so no number
/// of this benchmark is a durable-commit number.
pub const WAL_SYNC: &str = "none";

/// Rows per partition of the YCSB workloads.
pub const YCSB_ROWS_PER_PARTITION: u64 = 20_000;
/// Transaction attempts per partition in a wire `Run`'s partitioned phase.
pub const WIRE_PARTITIONED_TXNS: u64 = 16;
/// Transaction attempts per master worker in a wire `Run`'s single-master
/// phase.
pub const WIRE_SINGLE_MASTER_TXNS: u64 = 6;

/// Latency samples every window collects before it closes, so that its p90
/// has a hundred samples beyond it and its p99 ten.
pub const MIN_LATENCY_SAMPLES: u64 = 1_000;
/// Length of the `run_for` calls an in-process window is made of. The
/// engine samples 1 commit in 8, so a window is 2–4 slices.
pub const SLICE: Duration = Duration::from_millis(250);
/// Cluster builds of an untraced run; the last one is measured, `setup_s` is
/// the median build time.
pub const BUILDS: usize = 15;
/// Engines `tpcc_wal` rotates through (each with its own warm-up), because
/// TPC-C's inserts grow the data without limit. A multiple of three, so that
/// the first and the last third of a run's settled windows are whole engines.
pub const TPCC_SEGMENTS: usize = 6;
/// Share of an in-process cluster's measured time whose windows are
/// settling (measured and shown, never kept).
pub const SETTLE_SHARE: f64 = 0.25;
/// Default `--seconds`, equal to `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 18;

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: what a user of the system sees, gated by `bound`
/// (the share of the parent's median by which it may worsen).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// One per-layer metric: explains an end-to-end number, never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "txn_per_s", unit: "txn/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "commit_p50_ms", unit: "ms", better: Better::Lower, bound: 0.2 },
    EndToEnd { name: "commit_p90_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "commit_ratio", unit: "fraction", better: Better::Higher, bound: 0.002 },
    EndToEnd { name: "net_bytes_per_txn", unit: "B/txn", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "rss_warm_mb", unit: "MB", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics (layer = crate), reported by every workload's
/// traced run. README.md lists which end-to-end metric each should move.
pub const PER_LAYER: [PerLayer; 49] = [
    layer("host.steal_pct", "%", Better::Lower),
    layer("host.windows_kept", "count", Better::Higher),
    layer("host.decay_ratio", "ratio", Better::Higher),
    layer("host.cpu_us_per_txn", "us/txn", Better::Lower),
    layer("host.peak_rss_mb", "MB", Better::Lower),
    layer("host.trace_overhead_pct", "%", Better::Lower),
    layer("host.commit_p99_ms", "ms", Better::Lower),
    layer("workloads.gen_single_ns", "ns", Better::Lower),
    layer("workloads.gen_cross_ns", "ns", Better::Lower),
    layer("workloads.load_us_per_krow", "us/krow", Better::Lower),
    layer("storage.get_ns", "ns", Better::Lower),
    layer("storage.insert_ns", "ns", Better::Lower),
    layer("storage.scan_ns_per_row", "ns/row", Better::Lower),
    layer("storage.bytes_per_row", "B/row", Better::Lower),
    layer("storage.rss_growth_b_per_txn", "B/txn", Better::Lower),
    layer("occ.part_commit_us", "us", Better::Lower),
    layer("occ.sm_commit_us", "us", Better::Lower),
    layer("occ.abort_per_ktxn", "1/ktxn", Better::Lower),
    layer("occ.user_abort_per_ktxn", "1/ktxn", Better::Lower),
    layer("replication.encode_ns_per_entry", "ns", Better::Lower),
    layer("replication.apply_ns_per_entry", "ns", Better::Lower),
    layer("replication.bytes_per_entry", "B", Better::Lower),
    layer("replication.wal_append_ns_per_entry", "ns", Better::Lower),
    layer("replication.wal_bytes_per_txn", "B/txn", Better::Lower),
    layer("replication.checkpoint_ms", "ms", Better::Lower),
    layer("replication.recover_ms", "ms", Better::Lower),
    layer("net.send_recv_ns_per_batch", "ns", Better::Lower),
    layer("core.part_phase_us_per_txn", "us/txn", Better::Lower),
    layer("core.sm_phase_us_per_txn", "us/txn", Better::Lower),
    layer("core.fence_us_p50", "us", Better::Lower),
    layer("core.fence_us_p99", "us", Better::Lower),
    layer("core.drain_us_per_epoch", "us", Better::Lower),
    layer("core.epochs_per_s", "1/s", Better::Higher),
    layer("core.part_share", "fraction", Better::Higher),
    layer("core.exec_us_per_txn", "us/txn", Better::Lower),
    layer("core.fence_wait_us_per_txn", "us/txn", Better::Lower),
    layer("core.repl_flush_us_per_txn", "us/txn", Better::Lower),
    layer("core.wal_us_per_txn", "us/txn", Better::Lower),
    layer("core.lock_validate_us_per_txn", "us/txn", Better::Lower),
    layer("proto.encode_ns_per_frame", "ns", Better::Lower),
    layer("proto.decode_ns_per_frame", "ns", Better::Lower),
    layer("proto.frame_overhead_b", "B", Better::Lower),
    layer("serverd.boot_ms_per_node", "ms", Better::Lower),
    layer("serverd.ping_rtt_us", "us", Better::Lower),
    layer("serverd.empty_iter_us", "us", Better::Lower),
    layer("serverd.get_rtt_us", "us", Better::Lower),
    layer("serverd.digest_ms", "ms", Better::Lower),
    layer("client.connect_us", "us", Better::Lower),
    layer("client.pipelined_gets_per_s", "1/s", Better::Higher),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    YcsbCross,
    YcsbHot,
    TpccWal,
    WireYcsb,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::YcsbCross, Workload::YcsbHot, Workload::TpccWal, Workload::WireYcsb];

    pub fn name(self) -> &'static str {
        match self {
            Workload::YcsbCross => "ycsb_cross",
            Workload::YcsbHot => "ycsb_hot",
            Workload::TpccWal => "tpcc_wal",
            Workload::WireYcsb => "wire_ycsb",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::YcsbCross => {
                "uniform 90/10 YCSB, 50% cross-partition, larger than the CPU caches: phase \
                 switching, single-master OCC, value replication and the fence do the work"
            }
            Workload::YcsbHot => {
                "Zipf 0.99 50/50 YCSB, 10% cross-partition: cache-resident hot keys, 5x the \
                 writes, master-worker conflicts; control for single-master-only changes"
            }
            Workload::TpccWal => {
                "TPC-C NewOrder+Payment, 12.5% cross-partition: insert-heavy, five times YCSB's \
                 replicated and logged bytes, so storage inserts, replication and the WAL dominate"
            }
            Workload::WireYcsb => {
                "two NodeServers on loopback driven by one Client: proto framing, coordinator \
                 fences and TcpMesh, which in-process workloads bypass; no WAL, so WAL changes \
                 must not move it"
            }
        }
    }

    /// Clusters the workload's measured time is spread over.
    pub fn segments(self) -> usize {
        match self {
            Workload::TpccWal => TPCC_SEGMENTS,
            _ => 1,
        }
    }

    /// Share of a cluster's measured time whose windows are settling. A wire
    /// node executes a `Run` the way the warm-up does, one attempt at a
    /// time, so there is nothing left to settle.
    pub fn settle_share(self) -> f64 {
        match self {
            Workload::WireYcsb => 0.0,
            _ => SETTLE_SHARE,
        }
    }

    /// Stepped warm-up iterations per engine and the transaction attempts of
    /// each: `(iterations, per partition, per master worker)`. A count, not
    /// a time, so every commit warms up with the same attempts and
    /// `rss_warm_mb` compares. The YCSB counts write each of the
    /// 2 × 20k uniformly written rows three times over (≥ 95 % own a
    /// version stash afterwards); TPC-C only needs its phase plan and code
    /// paths warm, its data never reaches a steady state anyway.
    pub fn warmup(self) -> (u32, u64, u64) {
        match self {
            Workload::YcsbCross => (70, 250, 250),
            Workload::YcsbHot => (70, 450, 50),
            Workload::TpccWal => (12, 440, 60),
            Workload::WireYcsb => (1_200, WIRE_PARTITIONED_TXNS, WIRE_SINGLE_MASTER_TXNS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_metric_has_a_legal_unique_name_a_unit_and_a_direction() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            let (layer, _) = m.name.split_once('.').expect("layer.metric");
            assert!(
                [
                    "host",
                    "workloads",
                    "storage",
                    "occ",
                    "replication",
                    "net",
                    "core",
                    "proto",
                    "serverd",
                    "client"
                ]
                .contains(&layer),
                "{}",
                m.name
            );
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()));
            assert!(seen.insert(w.name()), "duplicate {}", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn setup_s_is_gated_and_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is written by hand, one entry per line; this keeps it
    /// equal to the tables above.
    #[test]
    fn committed_benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(committed.len() <= 64 * 1024);
        let mut expected = Vec::new();
        for w in Workload::ALL {
            expected.push(format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()));
        }
        for m in END_TO_END {
            expected.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            ));
        }
        for m in PER_LAYER {
            expected.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            ));
        }
        let entries: Vec<&str> = committed
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with("{\"name\""))
            .collect();
        assert_eq!(entries, expected);
        assert!(committed.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        assert!(committed.contains("\"command\": [\"bash\", \"steadybench/run.sh\"],"));
        assert!(committed.contains("\"paths\": [\"steadybench\"],"));
    }
}
