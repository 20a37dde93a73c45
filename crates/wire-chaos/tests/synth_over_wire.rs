//! The simulator's own schedule generator over the wire: coverage-guided
//! synthesized schedules — crashes at every injection point, overlapping
//! with lossy and reordering links, faulted recoveries, re-election storms —
//! and its planted bugs, each replayed against a live in-process cluster
//! behind the proxy mesh while the simulation twin walks the same schedule.

use star_chaos::{
    canonical_config, shrink_with, synth_plan, ChaosPlan, FaultOp, FaultSchedule, GuidedSynth,
    InjectionPoint, PlantedBug, SynthOptions, WorkloadSpec,
};
use star_wire_chaos::replay_plan_in_process;

#[test]
fn guided_synth_schedules_match_the_twin_over_the_wire() {
    let mut guided = GuidedSynth::new(SynthOptions::default());
    for seed in 0..32 {
        let plan = guided.next_plan(seed);
        let report = replay_plan_in_process(&plan)
            .unwrap_or_else(|e| panic!("seed {seed} ({}) errored: {e}", plan.label));
        assert!(
            report.passed(),
            "seed {seed} ({}) diverged: {:?}\nschedule: {:?}",
            plan.label,
            report.violations,
            plan.schedule
        );
    }
}

/// A node that rejoins and crashes again before the next fence is news to
/// that fence on every survivor, so the epoch it crashed in is reverted —
/// on the wire as in the simulator, whose one clock forgets the failure the
/// moment the node rejoins.
#[test]
fn a_rejoined_node_that_crashes_before_the_next_fence_is_reverted() {
    let plan = ChaosPlan {
        seed: 5,
        label: "crash, rejoin, crash before the next fence".into(),
        config: canonical_config(5),
        workload: WorkloadSpec::Kv { rows_per_partition: 16 },
        iterations: 4,
        partitioned_txns: 24,
        single_master_txns: 32,
        schedule: FaultSchedule::new()
            .at(1, InjectionPoint::MidPartitioned, FaultOp::Crash(3))
            .at(1, InjectionPoint::IterationEnd, FaultOp::Recover(3))
            .at(2, InjectionPoint::BeforeFirstFence, FaultOp::Crash(3))
            .at(3, InjectionPoint::IterationEnd, FaultOp::Recover(3)),
        expect_disk_recovery: false,
    };
    let report = replay_plan_in_process(&plan).expect("the replay runs");
    assert!(report.committed > 0);
    assert!(report.passed(), "{:?}", report.violations);
}

/// Every planted bug the wire can carry turns its replay red, and the
/// simulator's shrinker, replaying each candidate over the wire, cuts the
/// schedule down to a handful of ops that are still red.
#[test]
fn planted_bugs_are_caught_and_shrunk_over_the_wire() {
    for kind in [PlantedBug::SilentLoss, PlantedBug::CorruptPayload] {
        let options = SynthOptions { planted: Some(kind) };
        let marker = format!("+injected-{}", kind.name());
        let plan = (0..32)
            .map(|seed| synth_plan(seed, &options))
            .find(|plan| plan.label.ends_with(&marker))
            .unwrap_or_else(|| panic!("no seed accepts {kind:?}"));
        let report = replay_plan_in_process(&plan).expect("the replay runs");
        assert!(!report.passed(), "{kind:?} went uncaught over the wire");
        let over_the_wire = |c: &ChaosPlan| replay_plan_in_process(c).ok().map(|r| r.violations);
        let shrunk =
            shrink_with(&plan, &report.violations, over_the_wire).expect("red plans shrink");
        assert!(
            (1..=6).contains(&shrunk.shrunk_ops) && shrunk.shrunk_ops < shrunk.original_ops,
            "{kind:?}: {} of {} ops remain: {:?}",
            shrunk.shrunk_ops,
            shrunk.original_ops,
            shrunk.plan.schedule
        );
        let replayed = replay_plan_in_process(&shrunk.plan).expect("the shrunk replay runs");
        assert!(!replayed.passed(), "{kind:?}: the shrunk schedule passes over the wire");
    }
}

#[test]
fn a_plan_that_tears_a_wal_is_refused_before_it_runs() {
    let options = SynthOptions { planted: Some(PlantedBug::TornWal) };
    let plan = (0..32)
        .map(|seed| synth_plan(seed, &options))
        .find(|plan| plan.label.ends_with("+injected-torn-wal"))
        .expect("some seed tears a WAL");
    let refused = replay_plan_in_process(&plan).expect_err("a torn WAL has no wire form");
    assert!(refused.contains("no WAL"), "{refused}");
}
