//! Schedule shrinking: reduce a red schedule to a minimal counterexample.
//!
//! A synthesized schedule that turns a seed red can easily carry a dozen
//! fault operations, most of them irrelevant to the actual violation. The
//! shrinker runs a delta-debugging loop (ddmin-style: remove chunks of the
//! op list, halving the chunk size while removals keep the run red), then
//! trims trailing idle iterations — re-running the deterministic driver
//! after every candidate edit, so the result is a *verified* minimal
//! failing schedule.
//!
//! Two rules keep the result meaningful:
//!
//! * a candidate only replaces the current schedule if it fails with the
//!   **same violation category** (the text up to the first `:` — e.g.
//!   `serializability` vs `replica consistency`), so shrinking cannot
//!   wander off to a different bug that op removal itself introduced;
//! * the total number of verification runs is bounded
//!   ([`MAX_SHRINK_RUNS`]); schedules are small, so the bound is generous.
//!
//! The shrunk schedule is emitted in the chaos report next to the seed, so
//! `star-chaos --synth --seed N` reproduces the full run and the report
//! carries the minimal schedule that still shows the bug. The loop does not
//! care what executes a candidate ([`shrink_with`]): `star-wire-chaos`
//! shrinks over live clusters with the same code.

use crate::driver::{run_plan, ChaosPlan};
use crate::schedule::{FaultSchedule, ScheduledOp};
use star_common::Result;

/// Upper bound on verification runs per shrink (a safety valve; typical
/// shrinks need a few dozen).
pub const MAX_SHRINK_RUNS: usize = 256;

/// The result of shrinking one red plan.
#[derive(Debug)]
pub struct ShrunkPlan {
    /// The minimized plan (same seed, config and workload; smaller schedule
    /// and possibly fewer iterations).
    pub plan: ChaosPlan,
    /// The violation category the shrink preserved.
    pub category: String,
    /// Ops in the original schedule.
    pub original_ops: usize,
    /// Ops in the minimized schedule.
    pub shrunk_ops: usize,
    /// Verification runs spent.
    pub runs: usize,
}

/// The violation *category*: everything before the first `:` (e.g.
/// `"serializability"`, `"replica consistency"`, `"oracle vs node 2"` is
/// normalised to `"oracle"` so the reporter does not distinguish nodes).
/// `"disk recovery setup"` (the plan never captured a usable checkpoint)
/// stays distinct from `"disk recovery"` (the replay itself failed), so
/// shrinking a torn-WAL counterexample cannot degenerate into a schedule
/// that is red merely for lacking its Checkpoint op.
pub fn violation_category(violation: &str) -> String {
    let head = violation.split(':').next().unwrap_or(violation).trim();
    if head.starts_with("oracle") {
        "oracle".to_string()
    } else if head.starts_with("disk recovery setup") {
        "disk recovery setup".to_string()
    } else if head.starts_with("disk recovery") {
        "disk recovery".to_string()
    } else {
        head.to_string()
    }
}

fn first_category(violations: &[String]) -> Option<String> {
    violations.first().map(|v| violation_category(v))
}

fn with_ops(plan: &ChaosPlan, ops: &[ScheduledOp], iterations: usize) -> ChaosPlan {
    let mut schedule = FaultSchedule::new();
    for op in ops {
        schedule.push(op.iteration, op.point, op.op.clone());
    }
    let mut candidate = plan.clone();
    candidate.schedule = schedule;
    candidate.iterations = iterations;
    candidate
}

/// Shrinks a red plan to a minimal schedule that still fails with the same
/// violation category. Returns `Ok(None)` if the plan passes (nothing to
/// shrink).
pub fn shrink_plan(plan: &ChaosPlan) -> Result<Option<ShrunkPlan>> {
    let baseline = run_plan(plan)?;
    shrink_plan_from(plan, &baseline.violations)
}

/// [`shrink_plan`] for a caller that has already run the plan and holds its
/// violations — skips the redundant baseline run (the unshrunk plan is the
/// largest schedule the shrinker would ever execute). Returns `Ok(None)` if
/// `violations` is empty.
pub fn shrink_plan_from(plan: &ChaosPlan, violations: &[String]) -> Result<Option<ShrunkPlan>> {
    Ok(shrink_with(plan, violations, |candidate| run_plan(candidate).ok().map(|o| o.violations)))
}

/// The shrinker over any executor of a plan: `run` replays a candidate and
/// returns its violations, or `None` if it could not run (which counts as
/// passing). `star-wire-chaos` shrinks over live clusters with it. Returns
/// `None` if `violations` is empty.
pub fn shrink_with(
    plan: &ChaosPlan,
    violations: &[String],
    mut run: impl FnMut(&ChaosPlan) -> Option<Vec<String>>,
) -> Option<ShrunkPlan> {
    let category = first_category(violations)?;
    let mut runs = 0usize;
    let mut still_fails = |candidate: &ChaosPlan, runs: &mut usize| -> bool {
        if *runs >= MAX_SHRINK_RUNS {
            return false;
        }
        *runs += 1;
        run(candidate).is_some_and(|v| first_category(&v).as_deref() == Some(&category))
    };

    let mut ops: Vec<ScheduledOp> = plan.schedule.ops().to_vec();
    let mut iterations = plan.iterations;

    // ddmin over the op list: try to delete chunks, halving the chunk size
    // whenever a full pass removes nothing.
    let mut chunk = (ops.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut index = 0;
        while index < ops.len() && !ops.is_empty() {
            let end = (index + chunk).min(ops.len());
            let mut candidate_ops = ops.clone();
            candidate_ops.drain(index..end);
            let candidate = with_ops(plan, &candidate_ops, iterations);
            if still_fails(&candidate, &mut runs) {
                ops = candidate_ops;
                removed_any = true;
                // Re-test the same index: the next chunk slid into place.
            } else {
                index += chunk;
            }
        }
        if chunk == 1 && !removed_any {
            break;
        }
        if !removed_any {
            chunk = (chunk / 2).max(1);
        }
        if runs >= MAX_SHRINK_RUNS {
            break;
        }
    }

    // Trim trailing idle iterations — but only while the violation
    // survives (some violations only manifest in iterations after the last
    // scheduled op, e.g. a stale read observed several epochs later).
    while iterations > 1 {
        let candidate = with_ops(plan, &ops, iterations - 1);
        if still_fails(&candidate, &mut runs) {
            iterations -= 1;
        } else {
            break;
        }
    }

    Some(ShrunkPlan {
        plan: with_ops(plan, &ops, iterations),
        category,
        original_ops: plan.schedule.ops().len(),
        shrunk_ops: ops.len(),
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FaultOp, InjectionPoint};
    use crate::synth::{synth_plan, SynthOptions};
    use crate::WorkloadSpec;
    use star_common::ClusterConfig;
    use std::time::Duration;

    #[test]
    fn categories_are_normalised() {
        assert_eq!(violation_category("serializability: txn #3 …"), "serializability");
        assert_eq!(violation_category("replica consistency: node 2 …"), "replica consistency");
        assert_eq!(violation_category("oracle vs node 2: record …"), "oracle");
        assert_eq!(violation_category("disk recovery: replay failed"), "disk recovery");
        assert_eq!(
            violation_category("disk recovery setup: no full-replica checkpoint was captured"),
            "disk recovery setup"
        );
    }

    #[test]
    fn passing_plans_are_not_shrunk() {
        let plan = crate::plan_for_seed(0);
        assert!(shrink_plan(&plan).unwrap().is_none());
    }

    #[test]
    fn unsafe_loss_shrinks_to_a_minimal_schedule() {
        // Hand-build a noisy red plan: the unforgiven cut-then-heal from the
        // negative control, buried in benign noise ops. The shrinker must
        // strip the noise and keep a schedule of at most the cut/heal pair
        // plus whatever the category genuinely needs.
        let config = ClusterConfig::builder()
            .nodes(4)
            .full_replicas(1)
            .workers_per_node(1)
            .partitions(4)
            .iteration(Duration::from_millis(5))
            .network_latency(Duration::from_micros(20))
            .seed(31)
            .build()
            .unwrap();
        let mut schedule = FaultSchedule::new();
        use InjectionPoint::*;
        let noise = star_net::LinkFaults::delaying(0.4, Duration::from_micros(40));
        schedule.push(0, PartitionedStart, FaultOp::SetDefaultFaults(noise));
        schedule.push(0, MidPartitioned, FaultOp::SetLinkFaults(2, 0, noise));
        schedule.push(1, PartitionedStart, FaultOp::CutLink(1, 0));
        schedule.push(1, BeforeFirstFence, FaultOp::HealLink(1, 0));
        schedule.push(2, PartitionedStart, FaultOp::SetDefaultFaults(noise));
        schedule.push(2, MidSingleMaster, FaultOp::SetLinkFaults(3, 1, noise));
        schedule.push(3, IterationEnd, FaultOp::ClearFaults);
        let plan = ChaosPlan {
            seed: 31,
            label: "noisy-unsafe-loss".into(),
            config,
            workload: WorkloadSpec::Kv { rows_per_partition: 4 },
            iterations: 4,
            partitioned_txns: 16,
            single_master_txns: 32,
            schedule,
            expect_disk_recovery: false,
        };
        let shrunk = shrink_plan(&plan).unwrap().expect("the plan must be red");
        assert!(shrunk.shrunk_ops <= 2, "expected ≤2 ops, got {:?}", shrunk.plan.schedule);
        assert!(shrunk.shrunk_ops >= 1, "removing everything would make the run pass");
        assert!(shrunk.plan.iterations <= plan.iterations);
        // The shrunk plan still fails with the same category.
        let outcome = run_plan(&shrunk.plan).unwrap();
        assert!(!outcome.passed());
        assert_eq!(
            first_category(&outcome.violations).unwrap(),
            shrunk.category,
            "the minimized schedule must reproduce the same violation"
        );
    }

    #[test]
    fn planted_synth_bugs_are_found_and_shrunk_small() {
        // The acceptance check, for every planted byzantine-bug kind: a
        // checker-bypass bug planted into the synthesized schedule space is
        // found by sweeping, and its shrunk schedule is tiny (≤6 ops).
        for (planted, marker) in [
            (crate::synth::PlantedBug::SilentLoss, "+injected-loss"),
            (crate::synth::PlantedBug::CorruptPayload, "+injected-corrupt"),
            (crate::synth::PlantedBug::TornWal, "+injected-torn-wal"),
        ] {
            let options = SynthOptions { planted: Some(planted) };
            let red = (0..32u64)
                .map(|seed| synth_plan(seed, &options))
                .filter(|plan| plan.label.ends_with(marker))
                .find_map(|plan| {
                    let outcome = run_plan(&plan).ok()?;
                    (!outcome.passed()).then_some(plan)
                })
                .unwrap_or_else(|| panic!("the sweep must find a planted {planted:?} red seed"));
            let shrunk = shrink_plan(&red).unwrap().expect("red plan must shrink");
            assert!(
                shrunk.shrunk_ops <= 6,
                "{planted:?}: shrunk schedule too large ({} ops): {:?}",
                shrunk.shrunk_ops,
                shrunk.plan.schedule
            );
            assert!(
                shrunk.shrunk_ops >= 1,
                "{planted:?}: an empty schedule cannot demonstrate a planted bug"
            );
            assert!(
                shrunk.shrunk_ops < shrunk.original_ops,
                "{planted:?}: shrinking must remove noise"
            );
            let outcome = run_plan(&shrunk.plan).unwrap();
            assert!(!outcome.passed(), "{planted:?}: the minimized schedule must still be red");
        }
    }
}
