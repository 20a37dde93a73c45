//! `star-bench` — the repo's benchmark-regression harness.
//!
//! Runs deterministic YCSB and TPC-C throughput/latency sweeps across all
//! five engines and emits the canonical `BENCH_ycsb.json` / `BENCH_tpcc.json`
//! trajectory files.
//!
//! ```bash
//! cargo run --release -p star-bench --bin star-bench                 # full run
//! cargo run --release -p star-bench --bin star-bench -- --quick     # CI smoke
//! cargo run --release -p star-bench --bin star-bench -- --quick --seed 42
//! cargo run --release -p star-bench --bin star-bench -- --quick --check
//! ```
//!
//! `--check` compares the fresh sweep against the `BENCH_*.json` committed in
//! `--out-dir` *before* overwriting them, and exits non-zero when any
//! engine/workload/cross-partition point lost more throughput than
//! `--max-regression` allows (default 25%). With `--threads-sweep` it also
//! fails when STAR's throughput drops non-monotonically as worker threads
//! grow (beyond a small noise tolerance), baseline or not. `--zipf-sweep`
//! adds the hot-key contention lane (`BENCH_ycsb_zipf.json`), sweeping the
//! YCSB Zipfian skew from uniform to θ = 0.99.

use star_bench::suite::{
    check_against_baseline, check_thread_monotonicity, parse_baseline, BenchPoint, BenchSuite,
    MONOTONICITY_TOLERANCE,
};
use star_bench::Scale;
use std::path::{Path, PathBuf};

struct Options {
    scale: Scale,
    seed: u64,
    out_dir: PathBuf,
    check: bool,
    max_regression: f64,
    threads_sweep: bool,
    zipf_sweep: bool,
    profile: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: star-bench [--quick] [--seed N] [--out-dir DIR] [--check] \
         [--max-regression FRACTION] [--threads-sweep] [--zipf-sweep] [--profile]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut options = Options {
        scale: Scale::Full,
        seed: 0,
        out_dir: PathBuf::from("."),
        check: false,
        max_regression: 0.25,
        threads_sweep: false,
        zipf_sweep: false,
        profile: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.scale = Scale::Quick,
            "--seed" => {
                let Some(value) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--seed requires an integer");
                    usage();
                };
                options.seed = value;
            }
            "--out-dir" => {
                let Some(value) = args.next() else {
                    eprintln!("--out-dir requires a path");
                    usage();
                };
                options.out_dir = PathBuf::from(value);
            }
            "--check" => options.check = true,
            "--max-regression" => {
                let Some(value) = args.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--max-regression requires a fraction (e.g. 0.25)");
                    usage();
                };
                if !(0.0..1.0).contains(&value) {
                    eprintln!("--max-regression must be in [0, 1)");
                    usage();
                }
                options.max_regression = value;
            }
            "--threads-sweep" => options.threads_sweep = true,
            "--zipf-sweep" => options.zipf_sweep = true,
            "--profile" => options.profile = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    options
}

/// Loads a committed baseline. Under `--check` a missing or unparseable
/// baseline is a hard error: silently skipping would leave the CI gate
/// green while checking nothing.
fn load_baseline(path: &Path) -> Vec<BenchPoint> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!(
            "--check requires a committed baseline, but {} cannot be read: {e}\n\
             (regenerate with `make bench-baseline` and commit the result)",
            path.display()
        );
        std::process::exit(1);
    });
    parse_baseline(&text).unwrap_or_else(|e| {
        eprintln!("--check baseline {} is unparseable: {e}", path.display());
        std::process::exit(1);
    })
}

/// Runs every engine once and prints the five-slice latency-source breakdown
/// as a table, in µs per committed transaction (the `just profile` target).
fn run_profile(options: &Options) {
    let mut suite = BenchSuite::new(options.scale, options.seed);
    println!("latency-source profile (ycsb @ 10% cross-partition, seed {}):\n", options.seed);
    let reports = suite.profile("ycsb", 10.0);
    println!(
        "\n{:<16} {:>11} {:>11} {:>11} {:>11} {:>14}   (µs/txn)",
        "engine", "execution", "fence_wait", "repl_flush", "wal_fsync", "lock/validate"
    );
    for report in &reports {
        let committed = report.counters.committed.max(1) as f64;
        let b = report.breakdown();
        println!(
            "{:<16} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>14.1}",
            report.engine,
            b.execution_us as f64 / committed,
            b.fence_wait_us as f64 / committed,
            b.replication_flush_us as f64 / committed,
            b.wal_fsync_us as f64 / committed,
            b.lock_or_validate_us as f64 / committed,
        );
    }
}

fn main() {
    let options = parse_options();

    if options.profile {
        run_profile(&options);
        return;
    }

    if options.scale == Scale::Full {
        println!("running at full scale; use --quick for a smoke-test run\n");
    }

    const WORKLOADS: [&str; 2] = ["ycsb", "tpcc"];

    // Validate the committed baselines up front so a missing file fails
    // before the sweeps burn minutes of measurement time.
    let baselines: Vec<Option<Vec<BenchPoint>>> = WORKLOADS
        .iter()
        .map(|workload| {
            options
                .check
                .then(|| load_baseline(&options.out_dir.join(format!("BENCH_{workload}.json"))))
        })
        .collect();

    let mut suite = BenchSuite::new(options.scale, options.seed);
    let mut failures = Vec::new();
    for (workload, baseline) in WORKLOADS.into_iter().zip(baselines) {
        let points = suite.sweep(workload);
        let path = options.out_dir.join(format!("BENCH_{workload}.json"));
        if let Some(baseline) = baseline {
            failures.extend(check_against_baseline(&points, &baseline, options.max_regression));
        }
        std::fs::write(&path, BenchSuite::to_json(&points)).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("  wrote {} ({} points)\n", path.display(), points.len());
    }

    let mut monotonicity_violations = Vec::new();
    if options.threads_sweep {
        let path = options.out_dir.join("BENCH_threads.json");
        // The thread-scaling lane gates like the main sweeps: against its own
        // committed baseline, when one exists. A missing baseline skips the
        // check (the lane is opt-in, unlike the always-on workload sweeps).
        let baseline = options
            .check
            .then(|| std::fs::read_to_string(&path).ok().and_then(|t| parse_baseline(&t).ok()))
            .flatten();
        let points = suite.thread_scaling("ycsb");
        if let Some(baseline) = baseline {
            failures.extend(check_against_baseline(&points, &baseline, options.max_regression));
        }
        // The structural gate on this PR's headline fix: STAR throughput must
        // not collapse as worker threads grow, regardless of any baseline.
        if options.check {
            monotonicity_violations = check_thread_monotonicity(&points, MONOTONICITY_TOLERANCE);
        }
        std::fs::write(&path, BenchSuite::to_json(&points)).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("  wrote {} ({} points)\n", path.display(), points.len());
    }

    if options.zipf_sweep {
        let path = options.out_dir.join("BENCH_ycsb_zipf.json");
        // The hot-key contention lane gates exactly like the thread lane.
        let baseline = options
            .check
            .then(|| std::fs::read_to_string(&path).ok().and_then(|t| parse_baseline(&t).ok()))
            .flatten();
        let points = suite.zipf_scaling();
        if let Some(baseline) = baseline {
            failures.extend(check_against_baseline(&points, &baseline, options.max_regression));
        }
        std::fs::write(&path, BenchSuite::to_json(&points)).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("  wrote {} ({} points)\n", path.display(), points.len());
    }

    if !monotonicity_violations.is_empty() {
        eprintln!("thread-scaling monotonicity check failed:");
        for violation in &monotonicity_violations {
            eprintln!("  {violation}");
        }
        std::process::exit(1);
    }
    if !failures.is_empty() {
        eprintln!("throughput regressions beyond {:.0}% detected:", options.max_regression * 100.0);
        for regression in &failures {
            eprintln!("  {regression}");
        }
        std::process::exit(1);
    }
    if options.check {
        println!(
            "regression check passed (max allowed drop {:.0}%)",
            options.max_regression * 100.0
        );
    }
}
