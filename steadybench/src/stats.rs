//! Order statistics and the window-selection rule.
//!
//! Everything the benchmark reports is a median: of windows inside a run,
//! of cluster builds, of runs inside an A/A set. The quartile spread is the
//! one the benchmark contract uses — Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method) — so the
//! numbers `--aa` prints are the numbers the gate computes.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice; callers never pass one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `p`-th percentile (0–100) by nearest rank: the smallest value with at
/// least `p` % of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// First and third quartile as `statistics.quantiles(values, n=4)` computes
/// them (exclusive method: position `i * (n + 1) / 4`, linear interpolation,
/// clamped to the data). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |i: usize| {
        // 1-based position i*(n+1)/4 split into a whole index and a remainder.
        let whole = (i * (n + 1) / 4).clamp(1, n - 1);
        let rem = (i * (n + 1)) as f64 / 4.0 - whole as f64;
        sorted[whole - 1] + (sorted[whole] - sorted[whole - 1]) * rem
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median — the spread the
/// gate compares with a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

/// Steal share above which a window counts as disturbed: the hypervisor
/// took more than 2 % of the CPU time while it ran. Undisturbed windows read
/// 0–0.5 % here, disturbed ones 3–26 %.
pub const STEAL_LIMIT: f64 = 0.02;

/// Whether a window with this steal share is disturbed. Without a reading
/// (`None`) there is nothing to hold against it.
pub fn disturbed(steal: Option<f64>) -> bool {
    steal.is_some_and(|share| share > STEAL_LIMIT)
}

/// Which windows a metric's median is taken over: the undisturbed ones. When
/// fewer than three are undisturbed the host was busy throughout, nothing
/// tells the windows apart, and all of them are kept.
pub fn quiet_windows(steal: &[Option<f64>]) -> Vec<usize> {
    let quiet: Vec<usize> = (0..steal.len()).filter(|&i| !disturbed(steal[i])).collect();
    if quiet.len() < 3 {
        (0..steal.len()).collect()
    } else {
        quiet
    }
}

/// Median of `values` restricted to the window indices in `kept`.
pub fn median_of(values: &[f64], kept: &[usize]) -> f64 {
    let picked: Vec<f64> = kept.iter().filter_map(|&i| values.get(i).copied()).collect();
    median(&picked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 500.0);
        assert_eq!(percentile(&values, 99.0), 990.0);
        assert_eq!(percentile(&values, 100.0), 1000.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        let (q1, q3) = quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]).unwrap();
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 120.0).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12, "{q1} {q3}");
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn spread_is_interquartile_distance_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[4.0, 4.0, 4.0]), 0.0);
    }

    #[test]
    fn quiet_windows_are_the_undisturbed_ones() {
        let steal: Vec<Option<f64>> =
            [0.25, 0.01, 0.30, 0.02, 0.0, 0.021, 0.0, 0.22].iter().map(|&s| Some(s)).collect();
        assert_eq!(quiet_windows(&steal), vec![1, 3, 4, 6]);
        // An unreadable share is not held against a window.
        assert_eq!(quiet_windows(&[Some(0.1), None, Some(0.0), Some(0.0)]), vec![1, 2, 3]);
        assert_eq!(quiet_windows(&[None, None]), vec![0, 1]);
    }

    #[test]
    fn quiet_windows_keep_everything_when_the_host_was_busy_throughout() {
        let busy: Vec<Option<f64>> =
            [0.05, 0.01, 0.09, 0.12, 0.0].iter().map(|&s| Some(s)).collect();
        assert_eq!(quiet_windows(&busy), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_stalled_window_does_not_move_the_reported_median() {
        // Synthetic run: steady 20k txn/s, one window stalled by 25 % steal.
        let tput = [20_100.0, 19_900.0, 6_000.0, 20_000.0, 20_050.0, 19_950.0];
        let steal: Vec<Option<f64>> =
            [0.01, 0.02, 0.25, 0.01, 0.0, 0.02].iter().map(|&s| Some(s)).collect();
        let kept = quiet_windows(&steal);
        assert!(!kept.contains(&2));
        let reported = median_of(&tput, &kept);
        assert!((reported - 20_000.0).abs() <= 100.0, "{reported}");
    }
}
