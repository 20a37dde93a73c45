//! Measurement utilities: latency histograms, throughput counters and the
//! per-run summaries printed by the benchmark harness.
//!
//! The paper reports throughput (txns/sec), latency at the 50th and 99th
//! percentile (Figure 12), replication bandwidth (Section 5) and phase-switch
//! overhead (Figure 14). Everything needed to recompute those numbers lives
//! here so the engines themselves only have to increment counters.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bound (exclusive) of the 1 µs-resolution region, in µs.
const FINE_LIMIT_US: u64 = 8_192;
/// Upper bound (exclusive) of the mid region, in µs.
const MID_LIMIT_US: u64 = 100_000;
/// Bucket width of the mid region, in µs.
const MID_STEP_US: u64 = 16;
/// Upper bound (exclusive) of the coarse region, in µs.
const COARSE_LIMIT_US: u64 = 10_000_000;
/// Bucket width of the coarse region, in µs.
const COARSE_STEP_US: u64 = 1_000;

/// A fixed-bucket latency histogram with microsecond resolution.
///
/// Buckets are exponential: exact 1 µs granularity below ~8 ms (the whole
/// OLTP commit-latency range, so percentiles there are exact to the
/// microsecond rather than snapping to bucket edges), then 16 µs up to
/// 100 ms, then 1 ms up to 10 s. This avoids any allocation on the record
/// path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// 0..8192 µs in 1 µs buckets.
    fine: Vec<u64>,
    /// 8192 µs..100 ms in 16 µs buckets.
    mid: Vec<u64>,
    /// 100 ms..10 s in 1 ms buckets.
    coarse: Vec<u64>,
    /// Anything above 10 s.
    overflow: u64,
    count: u64,
    total_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            fine: vec![0; FINE_LIMIT_US as usize],
            mid: vec![0; ((MID_LIMIT_US - FINE_LIMIT_US) / MID_STEP_US) as usize],
            coarse: vec![0; ((COARSE_LIMIT_US - MID_LIMIT_US) / COARSE_STEP_US) as usize],
            overflow: 0,
            count: 0,
            total_us: 0,
            max_us: 0,
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
        if us < FINE_LIMIT_US {
            self.fine[us as usize] += 1;
        } else if us < MID_LIMIT_US {
            self.mid[((us - FINE_LIMIT_US) / MID_STEP_US) as usize] += 1;
        } else if us < COARSE_LIMIT_US {
            self.coarse[((us - MID_LIMIT_US) / COARSE_STEP_US) as usize] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, or zero if empty.
    pub fn mean(&self) -> Duration {
        match self.total_us.checked_div(self.count) {
            Some(mean_us) => Duration::from_micros(mean_us),
            None => Duration::ZERO,
        }
    }

    /// Maximum recorded latency.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_us)
    }

    /// Latency at percentile `p` in `[0, 100]`, or zero if empty.
    pub fn percentile(&self, p: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in self.fine.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Duration::from_micros(i as u64);
            }
        }
        for (i, c) in self.mid.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Duration::from_micros(FINE_LIMIT_US + i as u64 * MID_STEP_US);
            }
        }
        for (i, c) in self.coarse.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Duration::from_micros(MID_LIMIT_US + i as u64 * COARSE_STEP_US);
            }
        }
        Duration::from_micros(self.max_us)
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> Duration {
        self.percentile(50.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Duration {
        self.percentile(99.0)
    }

    /// Merges another histogram into this one (used to combine per-worker
    /// histograms at the end of a run).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        for (a, b) in self.mid.iter_mut().zip(&other.mid) {
            *a += b;
        }
        for (a, b) in self.coarse.iter_mut().zip(&other.coarse) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.total_us += other.total_us;
        self.max_us = self.max_us.max(other.max_us);
    }
}

/// Version of the per-phase breakdown schema emitted into BENCH_*.json.
/// Bump when slices are added, removed or change meaning so the regression
/// gate never compares incompatible breakdowns.
pub const BREAKDOWN_VERSION: u32 = 1;

/// Where an engine's wall-clock time went, attributed to the five
/// latency-source slices of the VProfiler-style breakdown. All values are
/// cumulative microseconds over the measured window, summed across workers
/// (so a slice can exceed the window duration on a multi-threaded engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Time spent executing transaction logic (both phases / all workers).
    pub execution_us: u64,
    /// Time the epoch loop stalled inside a replication fence or group
    /// commit (the synchronous part only — drained work is attributed to
    /// the flush/fsync slices below).
    pub fence_wait_us: u64,
    /// Time applying/shipping replication batches to replicas.
    pub replication_flush_us: u64,
    /// Time flushing the write-ahead log.
    pub wal_fsync_us: u64,
    /// Time acquiring locks or validating read sets at commit.
    pub lock_or_validate_us: u64,
}

impl PhaseBreakdown {
    /// Sum of all slices, in microseconds.
    pub fn total_us(&self) -> u64 {
        self.execution_us
            + self.fence_wait_us
            + self.replication_flush_us
            + self.wal_fsync_us
            + self.lock_or_validate_us
    }

    /// The slices as `(name, µs)` pairs, in display order.
    pub fn slices(&self) -> [(&'static str, u64); 5] {
        [
            ("execution", self.execution_us),
            ("fence_wait", self.fence_wait_us),
            ("replication_flush", self.replication_flush_us),
            ("wal_fsync", self.wal_fsync_us),
            ("lock_or_validate", self.lock_or_validate_us),
        ]
    }
}

/// Thread-safe counters shared by all workers of an engine run.
#[derive(Debug, Default)]
pub struct RunCounters {
    /// Transactions that committed.
    pub committed: AtomicU64,
    /// Transactions aborted by concurrency control and retried.
    pub aborted: AtomicU64,
    /// Transactions aborted by the application (not retried).
    pub user_aborted: AtomicU64,
    /// Bytes shipped over the (simulated) network for replication.
    pub replication_bytes: AtomicU64,
    /// Bytes shipped for remote reads / 2PC coordination (baselines).
    pub coordination_bytes: AtomicU64,
    /// Number of replication fences executed (STAR) / group commits.
    pub fences: AtomicU64,
    /// Total wall-clock time spent inside replication fences, in microseconds.
    pub fence_time_us: AtomicU64,
    /// Bytes written to the write-ahead log.
    pub wal_bytes: AtomicU64,
    /// Breakdown slice: transaction execution time (µs).
    pub execution_us: AtomicU64,
    /// Breakdown slice: replication apply/ship time (µs).
    pub replication_flush_us: AtomicU64,
    /// Breakdown slice: WAL flush time (µs).
    pub wal_fsync_us: AtomicU64,
    /// Breakdown slice: lock acquisition / OCC validation time (µs).
    pub lock_or_validate_us: AtomicU64,
}

impl RunCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a committed transaction.
    pub fn add_commit(&self) {
        self.committed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a concurrency-control abort (will be retried).
    pub fn add_abort(&self) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an application-requested abort.
    pub fn add_user_abort(&self) {
        self.user_aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record replication traffic.
    pub fn add_replication_bytes(&self, bytes: u64) {
        self.replication_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record coordination traffic (remote reads, 2PC votes, Calvin input
    /// replication).
    pub fn add_coordination_bytes(&self, bytes: u64) {
        self.coordination_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one replication fence and the time spent in it.
    pub fn add_fence(&self, elapsed: Duration) {
        self.fences.fetch_add(1, Ordering::Relaxed);
        self.fence_time_us.fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    /// Record bytes flushed to the WAL.
    pub fn add_wal_bytes(&self, bytes: u64) {
        self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record transaction execution time (breakdown slice).
    pub fn add_execution(&self, elapsed: Duration) {
        self.execution_us.fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    /// Record replication apply/ship time (breakdown slice).
    pub fn add_replication_flush(&self, elapsed: Duration) {
        self.replication_flush_us.fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    /// Record WAL flush time (breakdown slice).
    pub fn add_wal_fsync(&self, elapsed: Duration) {
        self.wal_fsync_us.fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    /// Record lock acquisition / validation time (breakdown slice).
    pub fn add_lock_or_validate(&self, elapsed: Duration) {
        self.lock_or_validate_us.fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    /// Snapshot the counters into a plain struct.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            committed: self.committed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            user_aborted: self.user_aborted.load(Ordering::Relaxed),
            replication_bytes: self.replication_bytes.load(Ordering::Relaxed),
            coordination_bytes: self.coordination_bytes.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            fence_time_us: self.fence_time_us.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            execution_us: self.execution_us.load(Ordering::Relaxed),
            replication_flush_us: self.replication_flush_us.load(Ordering::Relaxed),
            wal_fsync_us: self.wal_fsync_us.load(Ordering::Relaxed),
            lock_or_validate_us: self.lock_or_validate_us.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`RunCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Committed transactions.
    pub committed: u64,
    /// Concurrency-control aborts.
    pub aborted: u64,
    /// Application aborts.
    pub user_aborted: u64,
    /// Replication bytes shipped.
    pub replication_bytes: u64,
    /// Coordination bytes shipped.
    pub coordination_bytes: u64,
    /// Replication fences executed.
    pub fences: u64,
    /// Time spent in fences (µs).
    pub fence_time_us: u64,
    /// WAL bytes written.
    pub wal_bytes: u64,
    /// Breakdown slice: execution time (µs).
    #[serde(default)]
    pub execution_us: u64,
    /// Breakdown slice: replication apply/ship time (µs).
    #[serde(default)]
    pub replication_flush_us: u64,
    /// Breakdown slice: WAL flush time (µs).
    #[serde(default)]
    pub wal_fsync_us: u64,
    /// Breakdown slice: lock/validation time (µs).
    #[serde(default)]
    pub lock_or_validate_us: u64,
}

impl CounterSnapshot {
    /// What the counters gained since `before` was taken — the window an
    /// engine's `run_for` reports. Both snapshots are destructured without
    /// `..`, so a new counter that is not subtracted here fails to compile
    /// instead of silently reporting a cumulative value.
    pub fn since(&self, before: &CounterSnapshot) -> CounterSnapshot {
        let CounterSnapshot {
            committed,
            aborted,
            user_aborted,
            replication_bytes,
            coordination_bytes,
            fences,
            fence_time_us,
            wal_bytes,
            execution_us,
            replication_flush_us,
            wal_fsync_us,
            lock_or_validate_us,
        } = *self;
        let CounterSnapshot {
            committed: committed0,
            aborted: aborted0,
            user_aborted: user_aborted0,
            replication_bytes: replication_bytes0,
            coordination_bytes: coordination_bytes0,
            fences: fences0,
            fence_time_us: fence_time_us0,
            wal_bytes: wal_bytes0,
            execution_us: execution_us0,
            replication_flush_us: replication_flush_us0,
            wal_fsync_us: wal_fsync_us0,
            lock_or_validate_us: lock_or_validate_us0,
        } = *before;
        CounterSnapshot {
            committed: committed - committed0,
            aborted: aborted - aborted0,
            user_aborted: user_aborted - user_aborted0,
            replication_bytes: replication_bytes - replication_bytes0,
            coordination_bytes: coordination_bytes - coordination_bytes0,
            fences: fences - fences0,
            fence_time_us: fence_time_us - fence_time_us0,
            wal_bytes: wal_bytes - wal_bytes0,
            execution_us: execution_us - execution_us0,
            replication_flush_us: replication_flush_us - replication_flush_us0,
            wal_fsync_us: wal_fsync_us - wal_fsync_us0,
            lock_or_validate_us: lock_or_validate_us - lock_or_validate_us0,
        }
    }

    /// Abort rate over all concurrency-control attempts.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.committed + self.aborted;
        if attempts == 0 {
            0.0
        } else {
            self.aborted as f64 / attempts as f64
        }
    }

    /// The five-slice latency-source breakdown. Fence wait is the synchronous
    /// fence stall already tracked by `fence_time_us`.
    pub fn breakdown(&self) -> PhaseBreakdown {
        PhaseBreakdown {
            execution_us: self.execution_us,
            fence_wait_us: self.fence_time_us,
            replication_flush_us: self.replication_flush_us,
            wal_fsync_us: self.wal_fsync_us,
            lock_or_validate_us: self.lock_or_validate_us,
        }
    }
}

/// Result of a benchmark run of one engine on one workload configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Engine label (e.g. "STAR", "Dist. OCC").
    pub engine: String,
    /// Workload label (e.g. "YCSB", "TPC-C").
    pub workload: String,
    /// Percentage of cross-partition transactions requested.
    pub cross_partition_pct: f64,
    /// Wall-clock duration of the measured window.
    pub duration: Duration,
    /// Counter values over the window.
    pub counters: CounterSnapshot,
    /// Commit latency distribution.
    #[serde(skip)]
    pub latency: LatencyHistogram,
    /// Throughput in committed transactions per second.
    pub throughput: f64,
}

impl RunReport {
    /// Builds a report, computing throughput from the counters and duration.
    pub fn new(
        engine: impl Into<String>,
        workload: impl Into<String>,
        cross_partition_pct: f64,
        duration: Duration,
        counters: CounterSnapshot,
        latency: LatencyHistogram,
    ) -> Self {
        let throughput = if duration.is_zero() {
            0.0
        } else {
            counters.committed as f64 / duration.as_secs_f64()
        };
        RunReport {
            engine: engine.into(),
            workload: workload.into(),
            cross_partition_pct,
            duration,
            counters,
            latency,
            throughput,
        }
    }

    /// The latency-source breakdown measured over the window.
    pub fn breakdown(&self) -> PhaseBreakdown {
        self.counters.breakdown()
    }
}

/// A shared, mutex-protected histogram for workers that cannot keep a local
/// one (e.g. short-lived scoped threads).
#[derive(Debug, Default)]
pub struct SharedHistogram {
    inner: Mutex<LatencyHistogram>,
}

impl SharedHistogram {
    /// Creates an empty shared histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        self.inner.lock().record(latency);
    }

    /// Merges a worker-local histogram in bulk (cheaper than per-observation
    /// locking).
    pub fn merge(&self, other: &LatencyHistogram) {
        self.inner.lock().merge(other);
    }

    /// Clones the current contents.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.inner.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        assert!(h.p50() <= h.p99());
        assert!(h.p99() <= h.max());
        // p50 of 1..=1000 µs should be close to 500 µs.
        let p50 = h.p50().as_micros() as i64;
        assert!((p50 - 500).abs() <= 5, "p50={p50}");
        let p99 = h.p99().as_micros() as i64;
        assert!((p99 - 990).abs() <= 15, "p99={p99}");
    }

    #[test]
    fn buckets_cover_milliseconds() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_millis(5));
        h.record(Duration::from_millis(7));
        h.record(Duration::from_millis(9));
        let p50 = h.p50();
        assert!(p50 >= Duration::from_millis(6) && p50 <= Duration::from_millis(8), "{p50:?}");
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(20));
        b.record(Duration::from_millis(2));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Duration::from_millis(2));
    }

    #[test]
    fn counters_snapshot() {
        let c = RunCounters::new();
        c.add_commit();
        c.add_commit();
        c.add_abort();
        c.add_user_abort();
        c.add_replication_bytes(128);
        c.add_coordination_bytes(64);
        c.add_fence(Duration::from_micros(250));
        c.add_wal_bytes(42);
        let s = c.snapshot();
        assert_eq!(s.committed, 2);
        assert_eq!(s.aborted, 1);
        assert_eq!(s.user_aborted, 1);
        assert_eq!(s.replication_bytes, 128);
        assert_eq!(s.coordination_bytes, 64);
        assert_eq!(s.fences, 1);
        assert_eq!(s.fence_time_us, 250);
        assert_eq!(s.wal_bytes, 42);
        assert!((s.abort_rate() - 1.0 / 3.0).abs() < 1e-9);
        // A window is the difference of two snapshots, field by field.
        c.add_commit();
        c.add_wal_bytes(8);
        c.add_lock_or_validate(Duration::from_micros(5));
        let window = c.snapshot().since(&s);
        let expected = CounterSnapshot {
            committed: 1,
            wal_bytes: 8,
            lock_or_validate_us: 5,
            ..CounterSnapshot::default()
        };
        assert_eq!(window, expected);
    }

    #[test]
    fn breakdown_slices_accumulate_and_total() {
        let c = RunCounters::new();
        c.add_execution(Duration::from_micros(100));
        c.add_execution(Duration::from_micros(50));
        c.add_fence(Duration::from_micros(30));
        c.add_replication_flush(Duration::from_micros(20));
        c.add_wal_fsync(Duration::from_micros(10));
        c.add_lock_or_validate(Duration::from_micros(5));
        let b = c.snapshot().breakdown();
        assert_eq!(b.execution_us, 150);
        assert_eq!(b.fence_wait_us, 30);
        assert_eq!(b.replication_flush_us, 20);
        assert_eq!(b.wal_fsync_us, 10);
        assert_eq!(b.lock_or_validate_us, 5);
        assert_eq!(b.total_us(), 215);
        assert_eq!(b.slices()[0], ("execution", 150));
    }

    #[test]
    fn percentiles_are_exact_to_the_microsecond_in_the_oltp_range() {
        // The quantization bug this guards against: p50 values snapping to
        // bucket starts (e.g. exactly 13000 µs with 100 µs-wide buckets).
        let mut h = LatencyHistogram::new();
        for us in [4_321u64, 4_322, 4_323] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.p50(), Duration::from_micros(4_322));
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(7_777));
        assert_eq!(h.p50(), Duration::from_micros(7_777));
        assert_eq!(h.p99(), Duration::from_micros(7_777));
    }

    #[test]
    fn run_report_computes_throughput() {
        let counters = CounterSnapshot { committed: 5_000, ..CounterSnapshot::default() };
        let report = RunReport::new(
            "STAR",
            "YCSB",
            10.0,
            Duration::from_secs(2),
            counters,
            LatencyHistogram::new(),
        );
        assert!((report.throughput - 2_500.0).abs() < 1e-9);
    }

    #[test]
    fn shared_histogram_merging() {
        let shared = SharedHistogram::new();
        let mut local = LatencyHistogram::new();
        local.record(Duration::from_micros(100));
        shared.merge(&local);
        shared.record(Duration::from_micros(200));
        assert_eq!(shared.snapshot().count(), 2);
    }
}
