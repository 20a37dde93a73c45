//! `--aa N`: the acceptance rule of the gate, run locally. Every selected
//! workload is measured `N` times, twice over, each run a fresh process with
//! its own seed; per workload × end-to-end metric the report shows both
//! medians, both quartile spreads (and the spread of all `2N` runs together)
//! and the bound. A pair fails when the second median is worse than the first
//! by more than the bound, or when a set's spread (other than `setup_s`'s)
//! exceeds it.

use crate::spec::{self, Better, Workload};
use crate::stats::{median, quartile_spread};
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Extracts `name -> value` from a result line as `result_json` prints it.
pub fn parse_result_line(line: &str) -> Option<BTreeMap<String, f64>> {
    const VALUE: &str = "\": {\"value\": ";
    let metrics = &line[line.find("\"metrics\": {")?..];
    let mut values = BTreeMap::new();
    let mut rest = metrics;
    while let Some(at) = rest.find(VALUE) {
        let name_start = rest[..at].rfind('"')? + 1;
        let number = &rest[at + VALUE.len()..];
        let number_end = number.find(',')?;
        values.insert(rest[name_start..at].to_string(), number[..number_end].parse().ok()?);
        rest = &number[number_end..];
    }
    (!values.is_empty()).then_some(values)
}

/// By how much of `first` the `second` median is worse (negative: better).
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Higher => (first - second) / first,
        Better::Lower => (second - first) / first,
    }
}

/// One fresh-process run of one workload; its end-to-end metrics.
fn run_child(workload: Workload, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} seed {seed} exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .last()
        .and_then(parse_result_line)
        .ok_or_else(|| format!("{} seed {seed} printed no result line", workload.name()))
}

pub fn run(args: &Args, runs: usize) -> ExitCode {
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    // values[set][workload][metric] -> one value per run
    let mut values = vec![BTreeMap::<&str, BTreeMap<String, Vec<f64>>>::new(); 2];
    for (set, set_values) in values.iter_mut().enumerate() {
        for run in 0..runs {
            for &workload in &workloads {
                let seed = args.seed + (set * runs + run) as u64;
                match run_child(workload, seed, args.seconds) {
                    Ok(metrics) => {
                        let per_metric = set_values.entry(workload.name()).or_default();
                        for (name, value) in metrics {
                            per_metric.entry(name).or_default().push(value);
                        }
                    }
                    Err(message) => {
                        eprintln!("steadybench: FAILED {message}");
                        return ExitCode::from(1);
                    }
                }
            }
        }
    }
    println!(
        "A/A: {runs} runs per set, {} s measured per run, seeds {}..{} then {}..{}, nproc {}\n",
        args.seconds,
        args.seed,
        args.seed + runs as u64 - 1,
        args.seed + runs as u64,
        args.seed + 2 * runs as u64 - 1,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "| workload | metric | unit | median A | median B | B worse by | spread A | spread B | \
         spread A+B | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let mut failures = 0;
    for &workload in &workloads {
        for def in spec::END_TO_END {
            let of = |set: usize| values[set][workload.name()][def.name].as_slice();
            let (first, second) = (median(of(0)), median(of(1)));
            let worse = worsening(def.better, first, second);
            let (spread_a, spread_b) = (quartile_spread(of(0)), quartile_spread(of(1)));
            let spread_all = quartile_spread(&[of(0), of(1)].concat());
            let spread_gated = def.name != "setup_s";
            let ok = worse <= def.bound
                && (!spread_gated || (spread_a <= def.bound && spread_b <= def.bound));
            failures += usize::from(!ok);
            println!(
                "| {} | {} | {} | {first:.6} | {second:.6} | {:+.2}% | {:.2}% | {:.2}% | {:.2}% | \
                 {:.1}% | {} |",
                workload.name(),
                def.name,
                def.unit,
                100.0 * worse,
                100.0 * spread_a,
                100.0 * spread_b,
                100.0 * spread_all,
                100.0 * def.bound,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    println!(
        "\n{failures} of {} pairs outside their bound",
        workloads.len() * spec::END_TO_END.len()
    );
    ExitCode::from(u8::from(failures > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip_through_the_parser() {
        let line = "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
                    {\"txn_per_s\": {\"value\": 20123.456, \"unit\": \"txn/s\"}, \
                    \"setup_s\": {\"value\": 0.0812, \"unit\": \"s\"}}}";
        let parsed = parse_result_line(line).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["txn_per_s"], 20123.456);
        assert_eq!(parsed["setup_s"], 0.0812);
        assert!(parse_result_line("ycsb_hot txn_per_s 1 txn/s").is_none());
        assert!(parse_result_line("{\"metrics\": {}}").is_none());
    }

    #[test]
    fn worsening_follows_the_metric_s_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.10).abs() < 1e-12);
    }
}
