//! `steadybench`: the gated benchmark of the STAR reproduction.
//!
//! One invocation measures one workload (`--workload`, or all four without
//! it) and prints every metric by name and unit, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 1` runs the separate traced pass that yields the
//! per-layer metrics; the end-to-end metrics only ever come from an untraced
//! run. A failed check names the workload on standard error and exits 1
//! without printing a result. See README.md next to this package.

mod aa;
mod host;
mod inproc;
mod layers;
mod measure;
mod spec;
mod stats;
mod trace;
mod wire;

use measure::measure;
use spec::Workload;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub aa: Option<usize>,
}

const USAGE: &str = "usage: steadybench [--workload|--only NAME] [--seed N] [--seconds 1..60] \
                     [--trace 0|1] [--aa N]
workloads: ycsb_cross ycsb_hot tpcc_wal wire_ycsb (default: all four)";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workload: None, seed: 42, seconds: spec::RUN_SECONDS, trace: false, aa: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" | "--only" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--aa" => {
                let n: usize = value()?.parse().map_err(|e| format!("--aa: {e}"))?;
                if n < 2 {
                    return Err("--aa needs at least 2 runs per set".into());
                }
                parsed.aa = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Where traces go: `out/` next to the package when run from the repository
/// root (the benchmark reads and writes only inside its checkout).
fn out_dir() -> PathBuf {
    let package = PathBuf::from("steadybench");
    if package.is_dir() {
        package.join("out")
    } else {
        PathBuf::from("out")
    }
}

/// One workload's result line: the four keys the benchmark contract names.
fn result_json(attempted: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The untraced run: the seven end-to-end metrics, one stderr line per
/// window. Returns the result line.
fn run_end_to_end(workload: Workload, args: &Args) -> Result<String, String> {
    let start = Instant::now();
    let name = workload.name();
    let measured = measure(workload, args.seed, args.seconds as f64, spec::BUILDS)?;
    let mut rows = Vec::new();
    for (def, (metric, value)) in spec::END_TO_END.iter().zip(measured.end_to_end()) {
        assert_eq!(def.name, metric);
        if !(value.is_finite() && value > 0.0) {
            return Err(format!("{metric} measured {value}"));
        }
        println!(
            "{name} {metric} {value:.6} {} ({} is better, bound {})",
            def.unit,
            def.better.as_str(),
            def.bound
        );
        rows.push((def.name, value, def.unit));
    }
    let kept = measured.kept();
    for (i, w) in measured.windows.iter().enumerate() {
        eprintln!(
            "{name} window {i}: {:.2} s, {:.0} txn/s, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms of {} \
             samples, steal {:.2}%, {:.2} CPUs busy{}",
            w.seconds,
            w.txn_per_s(),
            w.p50_ms(),
            w.p90_ms(),
            w.p99_ms(),
            w.latency_samples(),
            100.0 * w.steal.unwrap_or(f64::NAN),
            w.cpu_s.unwrap_or(f64::NAN) / w.seconds,
            match (w.settling, kept.contains(&i)) {
                (true, _) => " (settling)",
                (false, false) => " (not kept)",
                (false, true) => "",
            }
        );
    }
    eprintln!(
        "{name}: {} of {} windows kept, latency percentiles from >= {} {}, decay {:.3}, peak RSS \
         {:.0} MB, {:.1} s wall",
        kept.len(),
        measured.windows.len(),
        measured.latency_samples(),
        match workload {
            Workload::WireYcsb => "round trips per window",
            _ => "samples per window (the engine samples 1 commit in 8)",
        },
        measured.decay_ratio(),
        host::peak_rss_mb().unwrap_or(0.0),
        start.elapsed().as_secs_f64()
    );
    Ok(result_json(measured.attempted(), &rows))
}

/// The traced run: the 49 per-layer metrics, the spans written to
/// `out/trace-<workload>.json`. Returns the result line.
fn run_traced(workload: Workload, args: &Args) -> Result<String, String> {
    let start = Instant::now();
    let name = workload.name();
    let traced = layers::traced_run(workload, args.seed, args.seconds as f64 / 2.0)?;
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{name}.json"));
    std::fs::write(&path, &traced.trace_json)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mut rows = Vec::new();
    for def in spec::PER_LAYER {
        let value = *traced
            .metrics
            .get(def.name)
            .ok_or_else(|| format!("traced pass did not produce {}", def.name))?;
        if !value.is_finite() {
            return Err(format!("{} measured {value}", def.name));
        }
        println!("{name} {} {value:.6} {} ({} is better)", def.name, def.unit, def.better.as_str());
        rows.push((def.name, value, def.unit));
    }
    eprintln!(
        "{name}: trace in {}, layer self times {:?} ms sum to {:.1} ms of {:.1} ms traced, \
         {:.1} s wall",
        path.display(),
        traced.self_time_ms,
        traced.self_time_ms.iter().map(|(_, ms)| ms).sum::<f64>(),
        traced.root_ms,
        start.elapsed().as_secs_f64()
    );
    Ok(result_json(traced.attempted, &rows))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("steadybench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.aa {
        return aa::run(&args, runs);
    }
    eprintln!(
        "shape: {} nodes ({} full), {} partitions, {} workers/node, replication factor {}, hybrid \
         async replication, {} ms iteration, disk logging on, wal_sync {}, seed {}, {} s measured",
        spec::NODES,
        spec::FULL_REPLICAS,
        spec::PARTITIONS,
        spec::WORKERS_PER_NODE,
        spec::REPLICATION_FACTOR,
        spec::ITERATION.as_millis(),
        spec::WAL_SYNC,
        args.seed,
        args.seconds
    );
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    for workload in workloads {
        let run = if args.trace { run_traced } else { run_end_to_end };
        match run(workload, &args) {
            // The result object is the last line a workload prints.
            Ok(line) => println!("{line}"),
            Err(message) => {
                eprintln!("steadybench: FAILED {}: {message}", workload.name());
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_gate_s_command_line_parses() {
        let parsed =
            args(&["--workload", "tpcc_wal", "--seed", "7", "--seconds", "20", "--trace", "1"])
                .unwrap();
        assert_eq!(parsed.workload, Some(Workload::TpccWal));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 20, true));
        assert_eq!(args(&["--only", "wire_ycsb"]).unwrap().workload, Some(Workload::WireYcsb));
        assert_eq!(args(&[]).unwrap().seed, 42);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "ycsb"][..],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--trace", "yes"],
            &["--seed"],
            &["--aa", "1"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_s_keys() {
        let line = result_json(1_000, &[("latency_ms", 1.2034, "ms"), ("setup_s", 0.8127, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
