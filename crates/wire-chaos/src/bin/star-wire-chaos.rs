//! Wire chaos driver: replays fault schedules against a real TCP STAR
//! cluster behind fault-injecting proxies and diffs the result against the
//! in-memory simulation twin, which walks the very same schedule.
//!
//! Modes (combine freely; at least one is required):
//!
//! ```text
//! star-wire-chaos --replay-corpus          # committed corpus entries, over the wire
//! star-wire-chaos --sweep --seeds 8        # seeded duplicate/delay/reorder sweep
//! star-wire-chaos --synth-guided --seeds 16   # the simulator's coverage-guided schedules
//! star-wire-chaos --inject-bug corrupt --seeds 16   # planted bugs: caught and shrunk?
//! star-wire-chaos --kill-recover           # kill/restart/re-election cycle
//! star-wire-chaos --kill-recover --serverd target/release/star-serverd
//! ```
//!
//! Without `--serverd`, clusters are in-process `NodeServer`s; with it, the
//! kill/recover cycle spawns real `star-serverd` processes and kills them
//! with SIGKILL. `--inject-bug loss|corrupt` plants the simulator's bug into
//! every synthesized schedule that accepts it: each must replay red
//! (`CAUGHT`), and the first is shrunk over the wire; `torn-wal` needs a WAL
//! the wire does not have yet and is refused. Exits non-zero if any replay
//! fails or any planted bug goes uncaught.

use star_chaos::{shrink_with, synth_plan, ChaosPlan, GuidedSynth, PlantedBug, SynthOptions};
use star_wire_chaos::plans::{kill_recover_plan, sweep_plan};
use star_wire_chaos::{replay_plan_in_process, replay_plan_with_processes, WireReport};
use std::path::PathBuf;

fn main() {
    let mut replay_corpus = false;
    let mut sweep = false;
    let mut synth_guided = false;
    let mut inject_bug: Option<PlantedBug> = None;
    let mut kill_recover = false;
    let mut seeds: u64 = 4;
    let mut serverd: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--replay-corpus" => replay_corpus = true,
            "--sweep" => sweep = true,
            "--synth-guided" => synth_guided = true,
            "--inject-bug" => match args.next().as_deref().and_then(PlantedBug::parse) {
                Some(PlantedBug::TornWal) => {
                    die("--inject-bug torn-wal tears a WAL, and the wire has none yet")
                }
                Some(kind) => inject_bug = Some(kind),
                None => die("--inject-bug needs loss or corrupt"),
            },
            "--kill-recover" => kill_recover = true,
            "--seeds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => seeds = n,
                None => die("--seeds needs a number"),
            },
            "--serverd" => match args.next() {
                Some(path) => serverd = Some(PathBuf::from(path)),
                None => die("--serverd needs a path"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: star-wire-chaos [--replay-corpus] [--sweep] [--synth-guided] \
                     [--inject-bug loss|corrupt] [--seeds N] [--kill-recover [--serverd PATH]]"
                );
                return;
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    if !replay_corpus && !sweep && !synth_guided && inject_bug.is_none() && !kill_recover {
        die("pick at least one of --replay-corpus, --sweep, --synth-guided, --inject-bug, \
             --kill-recover");
    }

    let mut failures = 0usize;
    if replay_corpus {
        for (name, _description, category, plan) in star_chaos::corpus::committed_entries() {
            failures += replay(&format!("corpus/{category}/{name}"), &plan);
        }
    }
    if sweep {
        for seed in 0..seeds {
            failures += replay(&format!("sweep/seed-{seed}"), &sweep_plan(seed));
        }
    }
    if synth_guided {
        let mut guided = GuidedSynth::new(SynthOptions::default());
        let mut shrunk = false;
        for seed in 0..seeds {
            let plan = guided.next_plan(seed);
            let outcome = replay_plan_in_process(&plan);
            let red = outcome.as_ref().ok().filter(|r| !r.passed()).map(|r| r.violations.clone());
            failures += note(&format!("synth-guided/seed-{seed}"), &plan, outcome);
            if let Some(violations) = red.filter(|_| !shrunk) {
                shrunk = true;
                shrink_over_the_wire(&plan, &violations);
            }
        }
    }
    if let Some(kind) = inject_bug {
        failures += planted(kind, seeds);
    }
    if kill_recover {
        let plan = kill_recover_plan(9);
        let outcome = match &serverd {
            None => replay_plan_in_process(&plan),
            Some(binary) => replay_plan_with_processes(&plan, binary),
        };
        let label =
            if serverd.is_some() { "kill-recover/serverd" } else { "kill-recover/in-process" };
        failures += note(label, &plan, outcome);
    }

    if failures > 0 {
        eprintln!("star-wire-chaos: {failures} replay(s) failed");
        std::process::exit(1);
    }
    println!("star-wire-chaos: all replays passed");
}

fn die(message: &str) -> ! {
    eprintln!("star-wire-chaos: {message}");
    std::process::exit(2);
}

/// Replays `plan` in-process and prints the outcome; returns 1 if it failed.
fn replay(label: &str, plan: &ChaosPlan) -> usize {
    note(label, plan, replay_plan_in_process(plan))
}

/// Prints one replay outcome of `plan` (its schedule too, when it failed);
/// returns 1 if it failed.
fn note(label: &str, plan: &ChaosPlan, outcome: Result<WireReport, String>) -> usize {
    match outcome {
        Ok(report) if report.passed() => {
            println!("PASS {label} seed={} committed={}", report.seed, report.committed);
            0
        }
        Ok(report) => {
            println!("FAIL {label} seed={} committed={}", report.seed, report.committed);
            for violation in &report.violations {
                println!("  - {violation}");
            }
            println!("  schedule: {:?}", plan.schedule);
            1
        }
        Err(e) => {
            println!("ERROR {label}: {e}");
            1
        }
    }
}

/// Shrinks the red `plan` with the simulator's shrinker, every candidate
/// replayed over the wire, and prints the minimal schedule.
fn shrink_over_the_wire(plan: &ChaosPlan, violations: &[String]) {
    let over_the_wire = |c: &ChaosPlan| replay_plan_in_process(c).ok().map(|r| r.violations);
    if let Some(s) = shrink_with(plan, violations, over_the_wire) {
        println!(
            "  shrunk over the wire: {} of {} op(s) remain after {} run(s) ({}): {:?}",
            s.shrunk_ops, s.original_ops, s.runs, s.category, s.plan.schedule
        );
    }
}

/// The planted-bug lane: every synthesized schedule among the first `seeds`
/// that accepts `kind` must replay red over the wire, and the first red one
/// is shrunk over the wire. Returns the number of failures (a missed bug, a
/// replay that could not run, or no seed accepting the bug).
fn planted(kind: PlantedBug, seeds: u64) -> usize {
    let options = SynthOptions { planted: Some(kind) };
    let marker = format!("+injected-{}", kind.name());
    let (mut accepted, mut failures, mut shrunk) = (0usize, 0usize, false);
    for seed in 0..seeds {
        let plan = synth_plan(seed, &options);
        if !plan.label.ends_with(&marker) {
            continue;
        }
        accepted += 1;
        let label = format!("inject-bug/{}/seed-{seed}", kind.name());
        let report = match replay_plan_in_process(&plan) {
            Ok(report) => report,
            Err(e) => {
                println!("ERROR {label}: {e}");
                failures += 1;
                continue;
            }
        };
        let Some(first) = report.violations.first() else {
            println!("MISSED {label} committed={}", report.committed);
            failures += 1;
            continue;
        };
        println!("CAUGHT {label} committed={}: {first}", report.committed);
        if !shrunk {
            shrunk = true;
            shrink_over_the_wire(&plan, &report.violations);
        }
    }
    if accepted == 0 {
        println!("MISSED inject-bug/{}: no seed below {seeds} accepts the bug", kind.name());
        failures += 1;
    }
    failures
}
