//! End-to-end wire chaos: the committed regression corpus, the
//! probabilistic fault sweep, the kill/recover cycle and the negative
//! parity control, all replayed against real TCP clusters behind the
//! fault-injecting proxy mesh and compared byte-for-byte to the stepped
//! simulation twin.

use star_wire_chaos::plans::{kill_recover_plan, negative_control_plan, sweep_plan};
use star_wire_chaos::replay_plan_in_process;

/// Replays one committed corpus entry over the wire and asserts parity.
fn replay_corpus_entry(name: &str) {
    let (_, _, category, plan) = star_chaos::corpus::committed_entries()
        .into_iter()
        .find(|(n, ..)| *n == name)
        .unwrap_or_else(|| panic!("corpus entry `{name}` is missing"));
    let report = replay_plan_in_process(&plan)
        .unwrap_or_else(|e| panic!("corpus/{category}/{name} errored: {e}"));
    assert!(report.committed > 0, "corpus/{category}/{name} committed nothing over the wire");
    assert!(
        report.passed(),
        "corpus/{category}/{name} diverged from the twin: {:?}",
        report.violations
    );
}

#[test]
fn corpus_stale_inbox_replays_green_over_the_wire() {
    replay_corpus_entry("recovered-node-stale-inbox");
}

#[test]
fn corpus_atomic_recovery_replays_green_over_the_wire() {
    replay_corpus_entry("master-and-partial-staggered-recovery");
}

#[test]
fn corpus_reelection_replays_green_over_the_wire() {
    replay_corpus_entry("reelection-with-faulted-recovery");
}

/// Seeded duplicate/delay/reorder faults at the socket layer draw the same
/// verdict stream as the simulator's fault plane, so the cluster state
/// stays byte-identical to the twin.
#[test]
fn seeded_wire_fault_sweep_matches_the_twin() {
    for seed in [0, 1] {
        let plan = sweep_plan(seed);
        let report =
            replay_plan_in_process(&plan).unwrap_or_else(|e| panic!("seed {seed} errored: {e}"));
        assert!(report.committed > 0, "seed {seed} committed nothing");
        assert!(report.passed(), "sweep seed {seed} diverged: {:?}", report.violations);
    }
}

/// The driver sends every phase and fence to all nodes in parallel, so
/// frames of different links reach the proxies in any order. Verdicts are
/// rolled per link and histories merged by a stable sort, so one plan must
/// replay to the same passing report every time.
#[test]
fn one_sweep_plan_replays_identically_ten_times() {
    let plan = sweep_plan(3);
    let committed: Vec<u64> = (0..10)
        .map(|run| {
            let report =
                replay_plan_in_process(&plan).unwrap_or_else(|e| panic!("run {run} errored: {e}"));
            assert!(report.passed(), "run {run} diverged: {:?}", report.violations);
            report.committed
        })
        .collect();
    assert!(committed[0] > 0 && committed.iter().all(|&c| c == committed[0]), "{committed:?}");
}

/// The full kill/recover cycle in-process: a partial node dies mid-epoch
/// and catches back up, then the master dies, is recovered and
/// deterministically re-elected — all matching the twin.
#[test]
fn kill_recover_cycle_matches_the_twin_in_process() {
    let plan = kill_recover_plan(9);
    let report = replay_plan_in_process(&plan).expect("kill/recover replay runs");
    assert!(report.committed > 0, "kill/recover cycle committed nothing");
    assert!(report.passed(), "kill/recover cycle diverged: {:?}", report.violations);
}

/// Negative control: a silent unforgiven frame drop at the proxy. The twin
/// loses the same frames — wire and twin stay byte-identical — but the
/// merged history is *wrong*, and the serializability checker must say so.
/// Proves the harness detects real protocol violations.
#[test]
fn unforgiven_frame_loss_at_the_proxy_is_caught() {
    let plan = negative_control_plan(31);
    let report = replay_plan_in_process(&plan).expect("negative control runs");
    assert!(
        report.violations.iter().any(|v| v.contains("not serializable")),
        "silent frame loss must trip the serializability checker, got {:?}",
        report.violations
    );
    assert!(
        !report.violations.iter().any(|v| v.contains("diverge")),
        "wire and twin must fail *identically* (the loss is mirrored), got {:?}",
        report.violations
    );
}
