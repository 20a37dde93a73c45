//! What a run measured, and how windows become the reported numbers.
//!
//! Both transports fill the same [`Measured`]: cluster build times, the
//! resident size after the fixed-count warm-up, and one [`Window`] per
//! measurement window. A window runs until it holds
//! [`crate::spec::MIN_LATENCY_SAMPLES`] latency samples, so its length
//! follows the host's speed and its percentiles always have the same samples
//! behind them. A metric's value is the median over the kept windows (see
//! [`crate::stats::quiet_windows`]); `commit_ratio` alone is taken over all
//! windows, kept or not, because an abort is an abort however busy the host
//! was.

use crate::spec::{self, Workload};
use crate::stats::{disturbed, median, median_of, percentile, quiet_windows};
use star_common::stats::{LatencyHistogram, PhaseBreakdown};
use std::time::Instant;

/// Commit latency of one window.
#[derive(Debug, Clone)]
pub enum Latency {
    /// The engine's own histogram of the window (its `run_for` slices'
    /// histograms merged).
    Histogram(LatencyHistogram),
    /// Every client-observed round trip of the window, in milliseconds.
    RoundTrips(Vec<f64>),
}

/// One measurement window.
#[derive(Debug, Clone)]
pub struct Window {
    /// Which cluster (segment) of the run the window belongs to.
    pub segment: usize,
    /// Whether the window began in its segment's settling share: `run_for`
    /// ages the heap in a way the single-threaded warm-up cannot, and until
    /// that has levelled off a window is measured and shown but not kept.
    pub settling: bool,
    /// Wall-clock length of the window in seconds.
    pub seconds: f64,
    /// Transactions asked of the system in the window.
    pub attempted: u64,
    pub committed: u64,
    /// Concurrency-control aborts.
    pub aborted: u64,
    /// Aborts the workload asks for (TPC-C rolls back 1 % of NewOrders).
    pub user_aborted: u64,
    /// Replication and coordination bytes in process, loopback bytes on the
    /// wire.
    pub net_bytes: u64,
    pub latency: Latency,
    /// Hypervisor steal share of the window, when `/proc/stat` gives it.
    pub steal: Option<f64>,
    /// CPU seconds the process used in the window.
    pub cpu_s: Option<f64>,
    /// Resident size at the end of the window in MB.
    pub rss_mb: Option<f64>,
    /// The engine's own slice counters for the window (zero on the wire,
    /// where nodes do not expose them).
    pub breakdown: PhaseBreakdown,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// Replication fences closed (two per iteration).
    pub fences: u64,
}

impl Window {
    /// A window that has measured nothing yet.
    pub fn empty(latency: Latency) -> Self {
        Window {
            segment: 0,
            settling: false,
            seconds: 0.0,
            attempted: 0,
            committed: 0,
            aborted: 0,
            user_aborted: 0,
            net_bytes: 0,
            latency,
            steal: None,
            cpu_s: None,
            rss_mb: None,
            breakdown: PhaseBreakdown::default(),
            wal_bytes: 0,
            fences: 0,
        }
    }

    pub fn txn_per_s(&self) -> f64 {
        self.committed as f64 / self.seconds
    }

    pub fn p50_ms(&self) -> f64 {
        match &self.latency {
            Latency::Histogram(histogram) => histogram.p50().as_secs_f64() * 1e3,
            Latency::RoundTrips(rtts) => median(rtts),
        }
    }

    /// The window's own `p`-th percentile (nearest rank for round trips).
    fn percentile_ms(&self, p: f64) -> f64 {
        match &self.latency {
            Latency::Histogram(histogram) => histogram.percentile(p).as_secs_f64() * 1e3,
            Latency::RoundTrips(rtts) => percentile(rtts, p),
        }
    }

    /// The gated tail: on this host one round trip in a hundred or more meets
    /// a stall of the host's, so a p99 reads the host and a p90 the system.
    pub fn p90_ms(&self) -> f64 {
        self.percentile_ms(90.0)
    }

    /// Reported per layer (`host.commit_p99_ms`), never gated.
    pub fn p99_ms(&self) -> f64 {
        self.percentile_ms(99.0)
    }

    pub fn latency_samples(&self) -> u64 {
        match &self.latency {
            Latency::Histogram(histogram) => histogram.count(),
            Latency::RoundTrips(rtts) => rtts.len() as u64,
        }
    }
}

/// Everything one run of one workload measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Load-to-ready time of every cluster build, in seconds.
    pub setup_s: Vec<f64>,
    /// Resident size right after the first engine's warm-up, in MB.
    pub rss_warm_mb: f64,
    pub windows: Vec<Window>,
}

/// A cluster under measurement: an in-process engine or a loopback cluster.
pub trait Subject: Sized {
    /// Builds the cluster, load to ready; returns it and the seconds it took.
    fn build(workload: Workload, seed: u64) -> Result<(Self, f64), String>;
    /// The workload's fixed-count warm-up.
    fn warm_up(&mut self, workload: Workload) -> Result<(), String>;
    /// One measurement window of [`spec::MIN_LATENCY_SAMPLES`] latency
    /// samples.
    fn window(&mut self) -> Result<Window, String>;
    /// The correctness checks that close a segment.
    fn verify(&mut self, seed: u64) -> Result<(), String>;
}

/// Measures `workload` on `S` for `seconds`, spread evenly over the
/// workload's segments (a fresh cluster and warm-up each). The cluster is
/// built `builds` times in all — one build per later segment, the rest up
/// front with only the last kept — and every build is a `setup_s` sample.
fn measure_on<S: Subject>(
    workload: Workload,
    seed: u64,
    seconds: f64,
    builds: usize,
) -> Result<Measured, String> {
    let segments = workload.segments();
    let share = seconds / segments as f64;
    let mut measured = Measured::default();
    for segment in 0..segments {
        let mut cluster = None;
        let builds = if segment == 0 { (builds + 1).saturating_sub(segments).max(1) } else { 1 };
        for _ in 0..builds {
            // Release the previous cluster first: two loaded clusters at once
            // would double the resident size every later number sees.
            drop(cluster.take());
            let (built, seconds) = S::build(workload, seed + segment as u64)?;
            measured.setup_s.push(seconds);
            cluster = Some(built);
        }
        let mut cluster = cluster.expect("at least one build per segment");
        cluster.warm_up(workload)?;
        if segment == 0 {
            measured.rss_warm_mb = crate::host::rss_mb().ok_or("cannot read VmRSS")?;
        }
        let start = Instant::now();
        let elapsed = || start.elapsed().as_secs_f64();
        // A segment measures its part of the three settled windows a run
        // needs, whatever that takes; then stops at the whole number of
        // windows nearest to its share of the time — unless some of those
        // windows were disturbed, which it replaces for up to twice its share.
        let least = 3usize.div_ceil(segments);
        let (mut settled, mut quiet) = (0, 0);
        while settled < least
            || (quiet < least && elapsed() < 2.0 * share)
            || elapsed() + mean_window_s(&measured, segment) / 2.0 < share
        {
            let settling = elapsed() < workload.settle_share() * share;
            let window = cluster.window()?;
            settled += usize::from(!settling);
            quiet += usize::from(!settling && !disturbed(window.steal));
            measured.windows.push(Window { segment, settling, ..window });
        }
        cluster.verify(seed).map_err(|e| format!("after segment {segment}: {e}"))?;
    }
    Ok(measured)
}

/// Mean length of the windows `segment` has measured so far (0 before the
/// first).
fn mean_window_s(measured: &Measured, segment: usize) -> f64 {
    let lengths: Vec<f64> =
        measured.windows.iter().filter(|w| w.segment == segment).map(|w| w.seconds).collect();
    lengths.iter().sum::<f64>() / lengths.len().max(1) as f64
}

/// Measures one workload on its transport and checks the windows.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    builds: usize,
) -> Result<Measured, String> {
    let measured = match workload {
        Workload::WireYcsb => measure_on::<crate::wire::Cluster>(workload, seed, seconds, builds),
        _ => measure_on::<star_core::StarEngine>(workload, seed, seconds, builds),
    }?;
    measured.check_windows()?;
    Ok(measured)
}

impl Measured {
    /// Indices of the settled windows.
    fn settled(&self) -> Vec<usize> {
        (0..self.windows.len()).filter(|&i| !self.windows[i].settling).collect()
    }

    /// Indices of the windows the medians are taken over: the quiet ones
    /// among the settled ones.
    pub fn kept(&self) -> Vec<usize> {
        let settled = self.settled();
        let steal: Vec<Option<f64>> = settled.iter().map(|&i| self.windows[i].steal).collect();
        quiet_windows(&steal).into_iter().map(|i| settled[i]).collect()
    }

    fn per_window(&self, f: impl Fn(&Window) -> f64) -> Vec<f64> {
        self.windows.iter().map(f).collect()
    }

    fn sum(&self, f: impl Fn(&Window) -> u64) -> u64 {
        self.windows.iter().map(f).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.sum(|w| w.attempted)
    }

    pub fn committed(&self) -> u64 {
        self.sum(|w| w.committed)
    }

    /// Latency samples behind the percentiles: the smallest window's.
    pub fn latency_samples(&self) -> u64 {
        self.windows.iter().map(Window::latency_samples).min().unwrap_or(0)
    }

    /// Every window must have committed something and hold enough latency
    /// samples for a p90 with a hundred samples beyond it; a run needs at least
    /// three settled windows for the first and last third to differ.
    fn check_windows(&self) -> Result<(), String> {
        if self.settled().len() < 3 {
            return Err(format!(
                "{} settled windows measured; use a longer --seconds",
                self.settled().len()
            ));
        }
        for (i, w) in self.windows.iter().enumerate() {
            if w.committed == 0 {
                return Err(format!("window {i} committed nothing"));
            }
            if w.latency_samples() < spec::MIN_LATENCY_SAMPLES {
                return Err(format!(
                    "window {i} has {} latency samples, fewer than {}",
                    w.latency_samples(),
                    spec::MIN_LATENCY_SAMPLES
                ));
            }
        }
        Ok(())
    }

    /// The end-to-end metrics, in the order of [`crate::spec::END_TO_END`].
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let kept = self.kept();
        let decided = self.sum(|w| w.committed + w.aborted);
        vec![
            ("txn_per_s", median_of(&self.per_window(Window::txn_per_s), &kept)),
            ("commit_p50_ms", median_of(&self.per_window(Window::p50_ms), &kept)),
            ("commit_p90_ms", median_of(&self.per_window(Window::p90_ms), &kept)),
            ("commit_ratio", self.committed() as f64 / decided.max(1) as f64),
            (
                "net_bytes_per_txn",
                median_of(
                    &self.per_window(|w| w.net_bytes as f64 / w.committed.max(1) as f64),
                    &kept,
                ),
            ),
            ("rss_warm_mb", self.rss_warm_mb),
            ("setup_s", median(&self.setup_s)),
        ]
    }

    /// Steady-state check: median throughput of the last third of the run's
    /// settled windows over that of the first third; about 1 at steady
    /// state. `tpcc_wal` rotates through six engines, two per third, so the
    /// ratio compares like with like there too.
    pub fn decay_ratio(&self) -> f64 {
        let tput: Vec<f64> = self.settled().iter().map(|&i| self.windows[i].txn_per_s()).collect();
        let third = (tput.len() / 3).max(1).min(tput.len());
        let first = median(&tput[..third]);
        let last = median(&tput[tput.len() - third..]);
        if first > 0.0 {
            last / first
        } else {
            0.0
        }
    }

    /// The per-layer numbers that come from the measurement windows rather
    /// than from a probe: the host's, the abort rates and the engine's own
    /// slice counters.
    pub fn window_layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let kept = self.kept();
        let committed = self.committed().max(1) as f64;
        let per_txn = |total: u64| total as f64 / committed;
        let steal: Vec<f64> = self.windows.iter().filter_map(|w| w.steal).collect();
        let cpu_s: f64 = self.windows.iter().filter_map(|w| w.cpu_s).sum();
        // Growth inside an engine only: a new segment starts from a fresh,
        // smaller engine, which is not the data shrinking.
        let (mut growth_mb, mut grown_over) = (0.0, 0u64);
        for pair in self.windows.windows(2) {
            if let (Some(before), Some(after)) = (pair[0].rss_mb, pair[1].rss_mb) {
                if pair[0].segment == pair[1].segment {
                    growth_mb += after - before;
                    grown_over += pair[1].committed;
                }
            }
        }
        let seconds: f64 = self.windows.iter().map(|w| w.seconds).sum();
        let slice = |f: fn(&PhaseBreakdown) -> u64| per_txn(self.sum(|w| f(&w.breakdown)));
        vec![
            ("host.steal_pct", 100.0 * steal.iter().sum::<f64>() / steal.len().max(1) as f64),
            ("host.windows_kept", kept.len() as f64),
            ("host.decay_ratio", self.decay_ratio()),
            ("host.cpu_us_per_txn", 1e6 * cpu_s / committed),
            ("host.commit_p99_ms", median_of(&self.per_window(Window::p99_ms), &kept)),
            (
                "storage.rss_growth_b_per_txn",
                growth_mb * 1024.0 * 1024.0 / grown_over.max(1) as f64,
            ),
            (
                "occ.abort_per_ktxn",
                1e3 * self.sum(|w| w.aborted) as f64 / self.attempted().max(1) as f64,
            ),
            (
                "occ.user_abort_per_ktxn",
                1e3 * self.sum(|w| w.user_aborted) as f64 / self.attempted().max(1) as f64,
            ),
            ("replication.wal_bytes_per_txn", per_txn(self.sum(|w| w.wal_bytes))),
            ("core.epochs_per_s", self.sum(|w| w.fences) as f64 / seconds.max(f64::MIN_POSITIVE)),
            ("core.exec_us_per_txn", slice(|b| b.execution_us)),
            ("core.fence_wait_us_per_txn", slice(|b| b.fence_wait_us)),
            ("core.repl_flush_us_per_txn", slice(|b| b.replication_flush_us)),
            ("core.wal_us_per_txn", slice(|b| b.wal_fsync_us)),
            ("core.lock_validate_us_per_txn", slice(|b| b.lock_or_validate_us)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A histogram of `samples` commits: seven in eight at 4 ms, the rest at
    /// `tail_ms`.
    fn histogram(samples: u64, tail_ms: u64) -> LatencyHistogram {
        let mut histogram = LatencyHistogram::new();
        for i in 0..samples {
            let ms = if i % 8 == 0 { tail_ms } else { 4 };
            histogram.record(Duration::from_millis(ms));
        }
        histogram
    }

    fn window(segment: usize, committed: u64, steal: f64, tail_ms: u64) -> Window {
        Window {
            seconds: 1.0,
            attempted: committed + 10,
            committed,
            aborted: 4,
            user_aborted: 6,
            net_bytes: committed * 200,
            steal: Some(steal),
            cpu_s: Some(1.5),
            rss_mb: Some(100.0 + committed as f64 / 1_000.0),
            breakdown: PhaseBreakdown { execution_us: committed * 50, ..Default::default() },
            wal_bytes: committed * 300,
            fences: 200,
            segment,
            ..Window::empty(Latency::Histogram(histogram(2_000, tail_ms)))
        }
    }

    fn run() -> Measured {
        Measured {
            setup_s: vec![0.30, 0.10, 0.11, 0.12, 0.10],
            rss_warm_mb: 240.0,
            windows: vec![
                window(0, 20_000, 0.01, 8),
                window(0, 20_200, 0.00, 9),
                window(0, 6_000, 0.25, 40),
                window(0, 19_800, 0.01, 10),
                window(0, 9_000, 0.12, 30),
                window(0, 20_400, 0.01, 9),
            ],
        }
    }

    fn metrics(run: &Measured) -> std::collections::BTreeMap<&'static str, f64> {
        run.end_to_end().into_iter().collect()
    }

    #[test]
    fn medians_come_from_the_quiet_windows_and_ratio_from_all() {
        let run = run();
        assert_eq!(run.kept(), vec![0, 1, 3, 5]);
        let metrics = metrics(&run);
        assert_eq!(metrics["txn_per_s"], 20_100.0);
        assert_eq!(metrics["net_bytes_per_txn"], 200.0);
        assert_eq!(metrics["setup_s"], 0.11, "median build, not the cold first one");
        assert_eq!(metrics["rss_warm_mb"], 240.0);
        let ratio = 95_400.0 / (95_400.0 + 24.0);
        assert!((metrics["commit_ratio"] - ratio).abs() < 1e-12, "user aborts are not CC aborts");
    }

    #[test]
    fn a_run_the_host_disturbed_throughout_keeps_every_settled_window() {
        let mut run = run();
        for w in &mut run.windows[..4] {
            w.steal = Some(0.06);
        }
        assert_eq!(run.kept(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(metrics(&run)["txn_per_s"], 19_900.0);
    }

    #[test]
    fn every_end_to_end_metric_is_emitted_for_both_transports() {
        let names: Vec<&str> = crate::spec::END_TO_END.iter().map(|m| m.name).collect();
        let in_process = run();
        let mut wire = run();
        for w in &mut wire.windows {
            w.latency = Latency::RoundTrips((1..=1_000).map(|i| 10.0 + i as f64 / 100.0).collect());
        }
        for measured in [in_process, wire] {
            let emitted: Vec<&str> = measured.end_to_end().iter().map(|(n, _)| *n).collect();
            assert_eq!(emitted, names);
            assert!(measured.end_to_end().iter().all(|(_, v)| v.is_finite() && *v > 0.0));
            assert!(measured.check_windows().is_ok());
        }
    }

    #[test]
    fn p90_is_the_median_of_the_kept_windows_own_p90s() {
        let mut run = Measured::default();
        // Five quiet windows; interference inflated the tail of two of them.
        // The median reports the third-best tail, not the best one.
        for tail_ms in [8, 30, 9, 10, 45] {
            run.windows.push(window(0, 20_000, 0.0, tail_ms));
        }
        let p90 = metrics(&run)["commit_p90_ms"];
        assert!((9.5..=10.5).contains(&p90), "{p90}");
        let p50 = metrics(&run)["commit_p50_ms"];
        assert!((3.8..=4.2).contains(&p50), "{p50}");
        // On the wire a window's p90 is the nearest rank of its round trips;
        // its p99 is reported per layer.
        for w in &mut run.windows {
            w.latency = Latency::RoundTrips((1..=1_500).map(f64::from).collect());
        }
        assert_eq!(metrics(&run)["commit_p90_ms"], 1_350.0);
        assert_eq!(metrics(&run)["commit_p50_ms"], 750.5);
        let layers: std::collections::BTreeMap<_, _> =
            run.window_layer_metrics().into_iter().collect();
        assert_eq!(layers["host.commit_p99_ms"], 1_485.0);
        assert_eq!(run.latency_samples(), 1_500);
    }

    #[test]
    fn every_window_must_have_commits_and_enough_latency_samples() {
        let mut run = run();
        assert!(run.check_windows().is_ok());
        run.windows[2].latency = Latency::Histogram(histogram(999, 90));
        assert!(run.check_windows().unwrap_err().contains("window 2 has 999"));
        run.windows[2].latency = Latency::Histogram(histogram(1_000, 90));
        run.windows[1].committed = 0;
        assert!(run.check_windows().unwrap_err().contains("window 1 committed nothing"));
        run.windows.truncate(2);
        assert!(run.check_windows().unwrap_err().contains("2 settled windows"));
    }

    #[test]
    fn settling_windows_are_shown_but_never_kept() {
        let mut run = run();
        run.windows[0].settling = true;
        run.windows.push(window(0, 21_000, 0.0, 8));
        assert_eq!(run.kept(), vec![1, 3, 5, 6], "steal 0.01 is the settled windows' median");
        assert_eq!(metrics(&run)["txn_per_s"], 20_300.0);
        // Aborts count wherever they happen.
        let ratio = 116_400.0 / (116_400.0 + 28.0);
        assert!((metrics(&run)["commit_ratio"] - ratio).abs() < 1e-12);
        for w in &mut run.windows[1..5] {
            w.settling = true;
        }
        assert!(run.check_windows().unwrap_err().contains("2 settled windows"));
    }

    #[test]
    fn decay_ratio_compares_the_last_and_first_third_of_the_run() {
        let mut run = Measured::default();
        for committed in [10_000, 10_400, 9_900, 9_000, 9_700, 9_500, 9_400, 9_600, 9_500] {
            run.windows.push(window(0, committed, 0.0, 8));
        }
        assert!((run.decay_ratio() - 0.95).abs() < 1e-12);
        assert_eq!(Measured::default().decay_ratio(), 0.0);
    }

    #[test]
    fn window_layer_metrics_divide_by_commits_and_skip_segment_boundaries() {
        let mut run = run();
        run.windows.push(window(1, 1_000, 0.0, 8));
        let metrics: std::collections::BTreeMap<_, _> =
            run.window_layer_metrics().into_iter().collect();
        assert_eq!(metrics["core.exec_us_per_txn"], 50.0);
        assert_eq!(metrics["replication.wal_bytes_per_txn"], 300.0);
        assert_eq!(metrics["core.epochs_per_s"], 200.0);
        assert!(metrics["storage.rss_growth_b_per_txn"].is_finite());
        let aborts = 1e3 * 28.0 / (96_400.0 + 70.0);
        assert!((metrics["occ.abort_per_ktxn"] - aborts).abs() < 1e-9);
        // Every name is one the benchmark declares.
        for name in metrics.keys() {
            assert!(crate::spec::PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
    }
}
