//! Schedule synthesis: biased random walks over the fault DSL.
//!
//! The seeded runner's four scenario templates only ever explore four
//! points of the schedule space. This module generates *arbitrary*
//! well-formed multi-fault schedules from a single seed — overlapping
//! crashes of several nodes with interleaved recoveries, cut-then-heal link
//! storms inside doomed epochs, probabilistic link faults retuned
//! mid-phase, faults stacked across consecutive iterations, and planned
//! total-loss events that exercise the checkpoint + WAL recovery path —
//! while keeping the four Figure-7 families as guided generators so case
//! coverage never regresses:
//!
//! * seeds with `seed % 8 < 4` run the guided generator of family
//!   `seed % 8` ([`crate::runner::family_plan`]), so any 8 consecutive
//!   seeds still reach all four Figure-7 failure cases;
//! * the remaining seeds run the biased random walk.
//!
//! ## Safety envelope
//!
//! A synthesized schedule must never be an *expected* violation — a red
//! seed has to mean a real protocol bug. The walk therefore only emits
//! faults the protocol claims to survive:
//!
//! * crashes are always safe (the next fence detects them and reverts the
//!   in-flight epoch);
//! * silent loss (drop faults, cut links) is confined to the epoch a crash
//!   dooms: the garnish is armed at the doomed epoch's first injection
//!   point and disarmed immediately before the fence that reverts it;
//! * delays and duplicates are safe anywhere; reordering is only enabled
//!   when the walk picked value replication (Thomas write rule);
//! * a `Recover` is only scheduled at an `IterationEnd` at or after the
//!   crash's iteration (detection has happened by then) and only when
//!   every partition the node holds still has another healthy replica —
//!   the same check [`star_core::StarEngine::can_recover`] performs;
//! * a `RecoverInterrupted` obeys the same rules and leaves the node down;
//!   its side effects stay inside the envelope too — a crashed source is an
//!   ordinary crash (detected at the next fence, chosen so partition
//!   coverage survives), and a cut recovery link is healed at the next
//!   iteration's start, before any committed epoch could lose traffic
//!   through it;
//! * in re-election mode (a 5-node cluster with two full replicas) the walk
//!   deliberately storms the coordinator: the acting master is crashed
//!   repeatedly — sometimes both full replicas in overlapping windows,
//!   degrading to Case 2 — with interleaved recoveries, and every
//!   re-election must be deterministic (lowest-id healthy full replica);
//! * the walk maintains the *coverage invariant*: unless it deliberately
//!   plans a total loss, every partition keeps at least one healthy
//!   holder, so the cluster never wedges in an unrecoverable state by
//!   accident. A planned total loss enables disk logging and captures a
//!   checkpoint (while the full replica is still healthy) first, so the
//!   driver can verify Case-4 disk recovery.
//!
//! [`SynthOptions::planted`] deliberately breaks the envelope to prove the
//! sweep finds planted bugs and the shrinker minimizes them (see
//! `star-chaos --inject-bug <kind>`): silent loss (a cut-then-heal with no
//! crash inside a committed epoch), byzantine payload corruption (the
//! master's replication stream to one replica is bit-flipped for the final
//! epoch), or a torn WAL tail that the Case-4 disk recovery must refuse to
//! replay.

use crate::coverage::CoverageMap;
use crate::driver::{ChaosPlan, WorkloadSpec};
use crate::runner::{canonical_config, family_plan, ScenarioKind};
use crate::schedule::{FaultOp, FaultSchedule, InjectionPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use star_common::{ClusterConfig, NodeId, ReplicationStrategy};
use star_core::RecoveryFault;
use star_net::LinkFaults;
use std::time::Duration;

/// A deliberately planted, checker-visible bug. Each variant breaks the
/// safety envelope in a different subsystem, validating that the
/// sweep-and-shrink pipeline catches that *class* of corruption end to end
/// (`star-chaos --inject-bug <kind>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlantedBug {
    /// One cut-then-heal of a replication link inside an epoch that commits
    /// (no crash to forgive the loss) — silent message loss.
    SilentLoss,
    /// Byzantine payload corruption: the master's value-replication stream
    /// to one replica is bit-flipped for one committed epoch
    /// (`FaultVerdict::Corrupt`); the replica applies the garbage silently
    /// and the replica/oracle comparison must catch the divergence.
    CorruptPayload,
    /// Byzantine disk fault: the full replica's WAL tail is torn after the
    /// planned total loss, so the Case-4 disk recovery reads a truncated
    /// final record — and must refuse to replay it.
    TornWal,
}

impl PlantedBug {
    /// The CLI name of the variant (`--inject-bug <name>`).
    pub fn name(self) -> &'static str {
        match self {
            PlantedBug::SilentLoss => "loss",
            PlantedBug::CorruptPayload => "corrupt",
            PlantedBug::TornWal => "torn-wal",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "loss" => Some(PlantedBug::SilentLoss),
            "corrupt" => Some(PlantedBug::CorruptPayload),
            "torn-wal" => Some(PlantedBug::TornWal),
            _ => None,
        }
    }
}

/// Options for the synthesizer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthOptions {
    /// Plant a checker-visible bug into every walk schedule that can accept
    /// one. Used to validate that the sweep catches planted bugs and that
    /// the shrinker reduces them to a minimal schedule.
    pub planted: Option<PlantedBug>,
}

/// The injection points at which a crash may fire (everything before the
/// iteration's last fence, so detection always happens within the same
/// iteration and a recovery at `IterationEnd` is well-formed).
const CRASH_POINTS: [InjectionPoint; 6] = [
    InjectionPoint::PartitionedStart,
    InjectionPoint::MidPartitioned,
    InjectionPoint::BeforeFirstFence,
    InjectionPoint::SingleMasterStart,
    InjectionPoint::MidSingleMaster,
    InjectionPoint::BeforeSecondFence,
];

/// The epoch window a crash at `point` dooms: silent loss is safe between
/// the returned start and end points because the fence closing that epoch
/// reverts it.
fn doomed_epoch_window(point: InjectionPoint) -> (InjectionPoint, InjectionPoint) {
    use InjectionPoint::*;
    match point {
        PartitionedStart | MidPartitioned | BeforeFirstFence => {
            (PartitionedStart, BeforeFirstFence)
        }
        _ => (SingleMasterStart, BeforeSecondFence),
    }
}

fn benign_faults(rng: &mut StdRng, reorder: bool) -> LinkFaults {
    LinkFaults {
        delay_probability: 0.1 + rng.gen::<f64>() * 0.4,
        extra_delay: Duration::from_micros(rng.gen_range(10..80)),
        duplicate_probability: 0.05 + rng.gen::<f64>() * 0.25,
        reorder_probability: if reorder { rng.gen::<f64>() * 0.3 } else { 0.0 },
        ..LinkFaults::none()
    }
}

/// Walk state: who is currently crashed, per the schedule built so far.
struct WalkState {
    config: ClusterConfig,
    crashed: Vec<bool>,
}

impl WalkState {
    fn new(config: &ClusterConfig) -> Self {
        WalkState { config: config.clone(), crashed: vec![false; config.num_nodes] }
    }

    fn healthy(&self) -> Vec<NodeId> {
        (0..self.config.num_nodes).filter(|&n| !self.crashed[n]).collect()
    }

    /// The coverage invariant: with `extra_victim` also crashed, does every
    /// partition still have a healthy holder?
    fn covers_all_partitions_without(&self, extra_victim: NodeId) -> bool {
        (0..self.config.partitions).all(|p| {
            (0..self.config.num_nodes).any(|n| {
                n != extra_victim && !self.crashed[n] && self.config.node_stores_partition(n, p)
            })
        })
    }

    /// Whether `node` could be recovered right now (the engine's own rule).
    fn recovery_feasible(&self, node: NodeId) -> bool {
        self.config.can_recover(&self.crashed, node)
    }
}

/// One crash plus its optional silent-loss garnish, confined to the doomed
/// epoch's window. `window_cuts` remembers which unordered link pairs are
/// already cut in which `(iteration, window)` so two victims (or one storm)
/// never double-cut the same link.
fn emit_crash(
    schedule: &mut FaultSchedule,
    rng: &mut StdRng,
    state: &mut WalkState,
    window_cuts: &mut Vec<(usize, InjectionPoint, NodeId, NodeId)>,
    iteration: usize,
    victim: NodeId,
) {
    let point = CRASH_POINTS[rng.gen_range(0..CRASH_POINTS.len())];
    let (window_start, window_end) = doomed_epoch_window(point);
    if rng.gen_bool(0.6) {
        // Cut-then-heal link storm / lossy links while the node dies. The
        // loss is forgiven because the epoch it lands in is reverted by the
        // fence that detects this crash.
        let storm_links = rng.gen_range(1..=2);
        for _ in 0..storm_links {
            let mut peer = rng.gen_range(0..state.config.num_nodes - 1);
            if peer >= victim {
                peer += 1;
            }
            if rng.gen_bool(0.5) {
                let pair = (iteration, window_start, victim.min(peer), victim.max(peer));
                if window_cuts.contains(&pair) {
                    continue;
                }
                window_cuts.push(pair);
                schedule.push(iteration, window_start, FaultOp::CutLink(victim, peer));
                schedule.push(iteration, window_end, FaultOp::HealLink(victim, peer));
            } else {
                let (from, to) = if rng.gen_bool(0.5) { (victim, peer) } else { (peer, victim) };
                let drops = LinkFaults::dropping(0.3 + rng.gen::<f64>() * 0.6);
                schedule.push(iteration, window_start, FaultOp::SetLinkFaults(from, to, drops));
                schedule.push(
                    iteration,
                    window_end,
                    FaultOp::SetLinkFaults(from, to, LinkFaults::none()),
                );
            }
        }
    }
    schedule.push(iteration, point, FaultOp::Crash(victim));
    state.crashed[victim] = true;
}

/// Builds a synthesized plan for one seed (see the module docs for the
/// seed-space split and the safety envelope).
pub fn synth_plan_for_seed(seed: u64) -> ChaosPlan {
    synth_plan(seed, &SynthOptions::default())
}

/// Builds a synthesized plan for one seed with explicit options.
pub fn synth_plan(seed: u64, options: &SynthOptions) -> ChaosPlan {
    if seed % 8 < 4 {
        // Guided generators: the four Figure-7 families keep appearing
        // throughout the synthesized seed space, so any 100-seed window
        // still covers every failure case end-to-end.
        return family_plan(ScenarioKind::for_seed(seed), seed);
    }
    walk_plan(seed, 0, options)
}

/// The re-election cluster: 5 nodes with *two* full replicas (nodes 0 and
/// 1), so killing the coordinator has a deterministic successor and the
/// walk can storm the master role — repeated coordinator crashes with
/// interleaved recoveries — without losing the single-master phase for the
/// whole run.
fn reelection_config(seed: u64) -> ClusterConfig {
    ClusterConfig::builder()
        .nodes(5)
        .full_replicas(2)
        .workers_per_node(1)
        .partitions(4)
        // Factor 4 = two fulls + primary + one partial backup, so every
        // partial node (including node 4) holds at least one partition.
        .replication_factor(4)
        .iteration(Duration::from_millis(5))
        .network_latency(Duration::from_micros(20))
        .seed(seed)
        .build()
        // star-lint: allow(panic::expect) -- statically valid config in plan generation, not recovery-time code
        .expect("re-election config is valid")
}

/// The source node [`star_core::StarEngine::recover_node_interrupted`] will
/// copy from, predicted from the configuration: the lowest-id healthy node
/// (other than `node`) holding `node`'s first held partition. The walk uses
/// this to keep its crashed-set bookkeeping exact when it schedules a
/// `SourceCrash` interruption; the well-formedness test replays the same
/// prediction.
pub fn predicted_recovery_source(
    config: &ClusterConfig,
    crashed: &[bool],
    node: NodeId,
) -> Option<NodeId> {
    let first_partition = config.held_partitions(node).into_iter().next()?;
    config.recovery_source(crashed, node, first_partition)
}

/// One biased-random-walk schedule. `variant` perturbs only the walk's RNG
/// (variant 0 is the canonical schedule of the seed); the guided sweep
/// generates several variants per seed and keeps the one covering the most
/// new territory.
fn walk_plan(seed: u64, variant: u64, options: &SynthOptions) -> ChaosPlan {
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ 0x5EED_CAFE
            ^ variant.wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    // A planted torn-WAL bug needs the canonical total-loss layout, so it
    // suppresses the re-election cluster (the roll is still drawn to keep
    // the rest of the walk's RNG stream stable per seed).
    let reelection = rng.gen_bool(0.3) && options.planted != Some(PlantedBug::TornWal);
    let mut config = if reelection { reelection_config(seed) } else { canonical_config(seed) };
    let iterations = rng.gen_range(4..=7usize);
    let mut schedule = FaultSchedule::new();
    let mut state = WalkState::new(&config);
    let mut label = String::from("synth-walk");
    if reelection {
        label.push_str("+reelect");
    }
    if variant > 0 {
        label.push_str(&format!("+v{variant}"));
    }

    // Replication strategy: value replication tolerates reordering, so the
    // walk may only enable reorder faults when it picks it.
    let value_replication = rng.gen_bool(0.4);
    if value_replication {
        config.replication_strategy = ReplicationStrategy::Value;
        label.push_str("+value-repl");
    }
    let workload = if rng.gen_bool(0.3) {
        WorkloadSpec::Ycsb { rows_per_partition: 24 }
    } else {
        WorkloadSpec::Kv { rows_per_partition: 16 }
    };

    // A planned total loss kills every replica of partition 0 (nodes 0 and
    // 1). Disk logging is enabled and a checkpoint captured first, so the
    // run ends unavailable and the driver verifies recovery from disk.
    // Mutually exclusive with the re-election cluster (its partition-0
    // holder set differs); a planted torn-WAL bug needs the disk-recovery
    // path, so it forces a total loss.
    let total_loss =
        !reelection && (options.planted == Some(PlantedBug::TornWal) || rng.gen_bool(0.2));
    let doom_iteration =
        if total_loss { rng.gen_range(1..iterations.max(2) - 1).max(1) } else { 0 };
    if total_loss {
        config.disk_logging = true;
        label.push_str("+total-loss");
    }

    schedule.push(
        0,
        InjectionPoint::PartitionedStart,
        FaultOp::SetDefaultFaults(benign_faults(&mut rng, value_replication)),
    );

    // Which nodes the pre-doom storms may crash: with a planned total loss,
    // nodes 0 and 1 are kept healthy until the doom iteration (the
    // checkpoint needs a healthy full replica, the doom needs both).
    let mut healthy_per_iteration: Vec<Vec<bool>> = Vec::with_capacity(iterations);
    let mut crash_iterations: Vec<bool> = vec![false; iterations];
    let mut window_cuts: Vec<(usize, InjectionPoint, NodeId, NodeId)> = Vec::new();

    // `iteration` drives schedule pushes, RNG draws and the doom gate, not
    // just the `crash_iterations` index clippy keys on.
    #[allow(clippy::needless_range_loop)]
    for iteration in 0..iterations {
        healthy_per_iteration.push(state.crashed.iter().map(|c| !c).collect());

        if total_loss && iteration == doom_iteration {
            // Checkpoint while the full replica is still healthy, then kill
            // every remaining holder of partition 0 (staggered across the
            // two phases half the time, for Case-3-then-Case-4 coverage).
            schedule.push(iteration, InjectionPoint::PartitionedStart, FaultOp::Checkpoint);
            let stagger = rng.gen_bool(0.5);
            let first_point = InjectionPoint::MidPartitioned;
            let second_point = if stagger {
                InjectionPoint::MidSingleMaster
            } else {
                InjectionPoint::MidPartitioned
            };
            if !state.crashed[1] {
                schedule.push(iteration, first_point, FaultOp::Crash(1));
                state.crashed[1] = true;
            }
            schedule.push(iteration, second_point, FaultOp::Crash(0));
            state.crashed[0] = true;
            crash_iterations[iteration] = true;
            // The cluster is unavailable from here on; the remaining
            // iterations run idle fences, which the driver tolerates.
            continue;
        }
        if total_loss && iteration > doom_iteration {
            continue;
        }

        // Occasionally retune the background faults mid-phase.
        if rng.gen_bool(0.3) {
            let points = [
                InjectionPoint::MidPartitioned,
                InjectionPoint::SingleMasterStart,
                InjectionPoint::MidSingleMaster,
            ];
            schedule.push(
                iteration,
                points[rng.gen_range(0..points.len())],
                FaultOp::SetDefaultFaults(benign_faults(&mut rng, value_replication)),
            );
        }

        // Re-election storm: in the two-full-replica cluster, go after the
        // coordinator itself. Killing the acting master (the lowest-id
        // healthy full replica) forces a deterministic re-election at the
        // next fence; with interleaved recoveries the master role can
        // bounce 0 → 1 → 0 across a single run, and killing both fulls in
        // overlapping windows drops the cluster to Case 2 until one
        // rejoins.
        if reelection && rng.gen_bool(0.6) {
            if let Some(master) = state.config.elected_master(&state.crashed) {
                if state.covers_all_partitions_without(master) {
                    emit_crash(
                        &mut schedule,
                        &mut rng,
                        &mut state,
                        &mut window_cuts,
                        iteration,
                        master,
                    );
                    crash_iterations[iteration] = true;
                }
            }
        }

        // Crash storm: up to two overlapping victims per iteration, chosen
        // so the coverage invariant survives (and, in total-loss mode, so
        // nodes 0 and 1 stay up until the doom iteration).
        if rng.gen_bool(0.5) {
            let storm_size = if rng.gen_bool(0.3) { 2 } else { 1 };
            for _ in 0..storm_size {
                let candidates: Vec<NodeId> = state
                    .healthy()
                    .into_iter()
                    .filter(|&v| !(total_loss && v <= 1))
                    .filter(|&v| state.covers_all_partitions_without(v))
                    .filter(|&v| v != 0 || rng.gen_bool(0.4))
                    .collect();
                if candidates.is_empty() {
                    break;
                }
                let victim = candidates[rng.gen_range(0..candidates.len())];
                emit_crash(
                    &mut schedule,
                    &mut rng,
                    &mut state,
                    &mut window_cuts,
                    iteration,
                    victim,
                );
                crash_iterations[iteration] = true;
            }
        }

        // Interleaved recoveries: each crashed node may rejoin at this
        // iteration's end if a memory source exists for all its partitions.
        // The second-to-last iteration recovers aggressively so most runs
        // end with a fully healthy, fully verifiable cluster. Outside the
        // forced window, a recovery is occasionally *faulted* instead of
        // completed — the source crashes mid-copy, the target dies again,
        // or the link carrying the recovery state is cut — and the node
        // stays down for a later (possibly also faulted) retry: the
        // recovery path itself is part of the schedule space.
        let force = iteration + 2 >= iterations;
        for node in 0..state.config.num_nodes {
            if !(state.crashed[node]
                && (force || rng.gen_bool(0.5))
                && state.recovery_feasible(node))
            {
                continue;
            }
            if !force && rng.gen_bool(0.3) {
                // A node that holds no partitions (possible when there are
                // fewer partitions than nodes) recovers without a copy
                // stream, so there is no source to crash.
                let source = predicted_recovery_source(&state.config, &state.crashed, node);
                // Pick the most interesting interruption that keeps the
                // safety envelope: a SourceCrash must preserve partition
                // coverage (and spare the doomed nodes in total-loss mode);
                // a LinkCut needs a later iteration to heal in.
                let source_crash_ok = source.is_some_and(|source| {
                    !(total_loss && source <= 1) && state.covers_all_partitions_without(source)
                });
                let link_cut_ok = source.is_some()
                    && iteration + 1 < iterations
                    && !(total_loss && iteration + 1 >= doom_iteration && doom_iteration > 0);
                let fault = match rng.gen_range(0..3) {
                    0 if source_crash_ok => RecoveryFault::SourceCrash,
                    1 if link_cut_ok => RecoveryFault::LinkCut,
                    _ => RecoveryFault::TargetCrash,
                };
                schedule.push(
                    iteration,
                    InjectionPoint::IterationEnd,
                    FaultOp::RecoverInterrupted(node, fault),
                );
                match (fault, source) {
                    (RecoveryFault::SourceCrash, Some(source)) => {
                        // The source dies serving the copy; detection is at
                        // the next iteration's first fence, dooming its
                        // first epoch.
                        state.crashed[source] = true;
                        if iteration + 1 < iterations {
                            crash_iterations[iteration + 1] = true;
                        }
                        // Nothing may recover after the source died this
                        // iteration: the engine has not detected the crash
                        // yet and would happily copy from the dead node.
                        break;
                    }
                    (RecoveryFault::LinkCut, Some(source)) => {
                        schedule.push(
                            iteration + 1,
                            InjectionPoint::PartitionedStart,
                            FaultOp::HealLink(source, node),
                        );
                    }
                    _ => {}
                }
                continue;
            }
            schedule.push(iteration, InjectionPoint::IterationEnd, FaultOp::Recover(node));
            state.crashed[node] = false;
        }

        // Occasionally wipe the fault configuration and re-arm it at the
        // next iteration (all cut links are healed within their doomed
        // epoch, so this never un-cuts anything).
        if rng.gen_bool(0.15) && iteration + 1 < iterations {
            schedule.push(iteration, InjectionPoint::IterationEnd, FaultOp::ClearFaults);
            schedule.push(
                iteration + 1,
                InjectionPoint::PartitionedStart,
                FaultOp::SetDefaultFaults(benign_faults(&mut rng, value_replication)),
            );
        }
    }

    match options.planted {
        Some(PlantedBug::SilentLoss) => {
            // Plant the bug inside an epoch that commits: an iteration with
            // no crash where nodes 0 and 1 were both healthy. The loss is
            // silent and unforgiven, so the checker (or the replica
            // comparison) must catch it.
            let committed_iteration = |i: &usize| {
                !crash_iterations[*i]
                    && healthy_per_iteration.get(*i).map(|h| h[0] && h[1]).unwrap_or(false)
                    && !(total_loss && *i >= doom_iteration)
            };
            if let Some(iteration) = (0..iterations).find(committed_iteration) {
                schedule.push(iteration, InjectionPoint::PartitionedStart, FaultOp::CutLink(1, 0));
                schedule.push(iteration, InjectionPoint::BeforeFirstFence, FaultOp::HealLink(1, 0));
                label.push_str("+injected-loss");
            }
        }
        Some(PlantedBug::CorruptPayload) => {
            // Corrupt the master's value-replication stream to node 1 for
            // the *final* iteration's single-master phase. The last
            // corrupted batch carries the highest TID written on that link,
            // so at least one key's final version on node 1 is garbage and
            // nothing after the phase can overwrite (and thereby mask) it —
            // the replica/oracle comparison is guaranteed to diverge.
            let last = iterations - 1;
            let eligible = !crash_iterations[last]
                && healthy_per_iteration.get(last).map(|h| h[0] && h[1]).unwrap_or(false)
                && !(total_loss && last >= doom_iteration);
            if eligible {
                schedule.push(
                    last,
                    InjectionPoint::SingleMasterStart,
                    FaultOp::SetLinkFaults(0, 1, LinkFaults::corrupting(1.0)),
                );
                schedule.push(
                    last,
                    InjectionPoint::BeforeSecondFence,
                    FaultOp::SetLinkFaults(0, 1, LinkFaults::none()),
                );
                label.push_str("+injected-corrupt");
            }
        }
        // Tear the full replica's WAL tail right after the planned total
        // loss: the Case-4 disk recovery then reads a truncated final
        // record and must refuse to replay it. (`total_loss` is forced on
        // for this planted kind, so the path always runs.)
        Some(PlantedBug::TornWal) if total_loss => {
            schedule.push(doom_iteration, InjectionPoint::IterationEnd, FaultOp::TruncateWal(0, 3));
            label.push_str("+injected-torn-wal");
        }
        Some(PlantedBug::TornWal) => {}
        None => {}
    }

    ChaosPlan {
        seed,
        label,
        config,
        workload,
        iterations,
        partitioned_txns: 24,
        single_master_txns: 32,
        schedule,
        expect_disk_recovery: total_loss,
    }
}

/// Runs the synthesized plan for one seed.
pub fn run_synth_seed(seed: u64) -> star_common::Result<crate::driver::ChaosOutcome> {
    crate::driver::run_plan(&synth_plan_for_seed(seed))
}

/// Candidate walk variants the guided sweep scores per seed. Variant 0 is
/// the plain `--synth` schedule, so the guided walk can never do worse than
/// plain on the seed it is currently choosing for.
pub const GUIDED_CANDIDATES: u64 = 4;

/// Coverage-guided schedule selection (`star-chaos --synth-guided`).
///
/// The plain walk draws one schedule per seed and hopes the RNG spreads
/// them; the guided sweep instead generates [`GUIDED_CANDIDATES`] variants
/// of each walk seed, scores each candidate's [`CoverageMap`] against the
/// coverage merged over every previous seed, and keeps the candidate
/// covering the most *new* territory (ties break toward the lowest
/// variant). Scoring is a pure function of the schedules — nothing is
/// executed — so selection is cheap, and the whole sequence is a pure
/// function of the seed order: `--synth-guided --seed N` reproduces seed
/// `N`'s chosen schedule exactly by replaying the selection for seeds
/// `0..=N`.
///
/// Guided family seeds (`seed % 8 < 4`) pass through unchanged so Figure-7
/// case coverage never regresses.
#[derive(Debug)]
pub struct GuidedSynth {
    options: SynthOptions,
    merged: CoverageMap,
}

impl GuidedSynth {
    /// A guided sweep with empty coverage.
    pub fn new(options: SynthOptions) -> Self {
        GuidedSynth { options, merged: CoverageMap::new() }
    }

    /// The coverage merged over every plan handed out so far.
    pub fn merged(&self) -> &CoverageMap {
        &self.merged
    }

    /// The next seed's plan: the most-novel candidate variant for walk
    /// seeds, the family generator otherwise. Seeds must be fed in sweep
    /// order for reproducibility.
    pub fn next_plan(&mut self, seed: u64) -> ChaosPlan {
        let plan = if seed % 8 < 4 {
            family_plan(ScenarioKind::for_seed(seed), seed)
        } else {
            let mut best: Option<(usize, ChaosPlan)> = None;
            for variant in 0..GUIDED_CANDIDATES {
                let candidate = walk_plan(seed, variant, &self.options);
                let novelty =
                    self.merged.novelty_of(&CoverageMap::from_schedule(&candidate.schedule));
                if best.as_ref().map(|(n, _)| novelty > *n).unwrap_or(true) {
                    best = Some((novelty, candidate));
                }
            }
            best.expect("GUIDED_CANDIDATES > 0").1
        };
        self.merged.observe(&plan.schedule);
        plan
    }

    /// Reproduces the plan a guided sweep over `0..=seed` would pick for
    /// `seed` (the `--synth-guided --seed N` path): replays the selection —
    /// schedule generation only, no runs — for every earlier seed.
    pub fn plan_for_seed(seed: u64, options: &SynthOptions) -> ChaosPlan {
        let mut guided = GuidedSynth::new(*options);
        for earlier in 0..seed {
            let _ = guided.next_plan(earlier);
        }
        guided.next_plan(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_plan;
    use crate::runner::SweepSummary;
    use star_core::FailureCase;

    #[test]
    fn identical_seeds_yield_byte_identical_schedules() {
        for seed in 0..64u64 {
            let a = synth_plan_for_seed(seed);
            let b = synth_plan_for_seed(seed);
            assert_eq!(a.schedule, b.schedule, "seed {seed}");
            assert_eq!(
                format!("{:?}", a.schedule),
                format!("{:?}", b.schedule),
                "seed {seed}: debug repr diverged"
            );
            assert_eq!(a.label, b.label, "seed {seed}");
            assert_eq!(a.iterations, b.iterations, "seed {seed}");
            assert_eq!(a.config, b.config, "seed {seed}");
        }
    }

    #[test]
    fn guided_families_cover_all_four_cases_in_any_100_seed_window() {
        for window_start in [0u64, 37, 250, 4096] {
            let mut families = [false; 4];
            for seed in window_start..window_start + 100 {
                if seed % 8 < 4 {
                    families[(seed % 4) as usize] = true;
                    let plan = synth_plan_for_seed(seed);
                    assert!(
                        plan.label.starts_with("case"),
                        "guided seed {seed} must use a family generator, got {}",
                        plan.label
                    );
                }
            }
            assert_eq!(families, [true; 4], "window at {window_start}");
        }
    }

    #[test]
    fn walk_seeds_produce_multi_fault_schedules() {
        // The walk half of the seed space must actually exercise the DSL:
        // across a modest window we expect overlapping crashes, recoveries,
        // link storms, faulted recoveries (every interruption kind),
        // re-election storms and at least one planned total loss.
        let mut saw_two_simultaneous_crashes = false;
        let mut saw_recovery = false;
        let mut saw_cut = false;
        let mut saw_total_loss = false;
        let mut saw_reelection_storm = false;
        let mut interruptions: Vec<star_core::RecoveryFault> = Vec::new();
        for seed in 0..512u64 {
            if seed % 8 < 4 {
                continue;
            }
            let plan = synth_plan_for_seed(seed);
            let mut down = 0i32;
            let mut max_down = 0i32;
            for op in plan.schedule.ops() {
                match op.op {
                    FaultOp::Crash(_) => {
                        down += 1;
                        max_down = max_down.max(down);
                    }
                    FaultOp::Recover(_) => {
                        down -= 1;
                        saw_recovery = true;
                    }
                    // The node stays down: no decrement.
                    FaultOp::RecoverInterrupted(_, fault) if !interruptions.contains(&fault) => {
                        interruptions.push(fault);
                    }
                    FaultOp::CutLink(..) => saw_cut = true,
                    _ => {}
                }
            }
            if max_down >= 2 {
                saw_two_simultaneous_crashes = true;
            }
            if plan.label.contains("+reelect") {
                // The re-election cluster must actually lose its
                // coordinator at least once in some seed.
                if plan.schedule.ops().iter().any(|s| matches!(s.op, FaultOp::Crash(n) if n < 2)) {
                    saw_reelection_storm = true;
                }
                assert_eq!(plan.config.full_replicas, 2, "seed {seed}");
            }
            if plan.expect_disk_recovery {
                saw_total_loss = true;
                assert!(plan.config.disk_logging);
                assert!(
                    plan.schedule.ops().iter().any(|s| s.op == FaultOp::Checkpoint),
                    "seed {seed}: total loss without a checkpoint cannot be verified"
                );
            }
        }
        assert!(saw_two_simultaneous_crashes, "no overlapping multi-node crash was synthesized");
        assert!(saw_recovery);
        assert!(saw_cut, "no cut-then-heal link storm was synthesized");
        assert!(saw_total_loss);
        assert!(saw_reelection_storm, "no coordinator crash in a re-election cluster");
        for fault in [
            star_core::RecoveryFault::SourceCrash,
            star_core::RecoveryFault::TargetCrash,
            star_core::RecoveryFault::LinkCut,
        ] {
            assert!(interruptions.contains(&fault), "no {fault:?} recovery interruption");
        }
    }

    /// Replays a schedule against the well-formedness rules the walk
    /// promises (shared with the property test below).
    fn assert_well_formed(plan: &ChaosPlan) {
        let seed = plan.seed;
        let ordered = crate::coverage::execution_order(&plan.schedule);
        assert!(
            plan.schedule.iterations_required() <= plan.iterations,
            "seed {seed}: schedule runs past the planned iterations"
        );
        let nodes = plan.config.num_nodes;
        let mut crashed = vec![false; nodes];
        let mut crash_iteration = vec![0usize; nodes];
        let mut cut: Vec<(usize, usize)> = Vec::new();
        for &crate::schedule::ScheduledOp { iteration, point, ref op } in ordered {
            match op {
                FaultOp::Crash(n) => {
                    assert!(!crashed[*n], "seed {seed}: node {n} crashed twice without recovery");
                    assert_ne!(
                        point,
                        InjectionPoint::IterationEnd,
                        "seed {seed}: a crash at IterationEnd cannot be detected in time"
                    );
                    crashed[*n] = true;
                    crash_iteration[*n] = iteration;
                }
                FaultOp::Recover(n) => {
                    assert!(crashed[*n], "seed {seed}: Recover({n}) without a preceding crash");
                    assert_eq!(
                        point,
                        InjectionPoint::IterationEnd,
                        "seed {seed}: recoveries must happen after detection"
                    );
                    assert!(
                        iteration >= crash_iteration[*n],
                        "seed {seed}: node {n} recovered before its crash"
                    );
                    crashed[*n] = false;
                }
                FaultOp::RecoverInterrupted(n, fault) => {
                    assert!(
                        crashed[*n],
                        "seed {seed}: RecoverInterrupted({n}) without a preceding crash"
                    );
                    assert_eq!(
                        point,
                        InjectionPoint::IterationEnd,
                        "seed {seed}: recoveries must happen after detection"
                    );
                    // The node stays down; the interruption's side effects
                    // are replayed with the walk's own source prediction.
                    let source =
                        crate::synth::predicted_recovery_source(&plan.config, &crashed, *n)
                            .unwrap_or_else(|| {
                                panic!("seed {seed}: RecoverInterrupted({n}) with no source")
                            });
                    match fault {
                        star_core::RecoveryFault::SourceCrash => {
                            assert!(
                                !crashed[source],
                                "seed {seed}: recovery source {source} was already down"
                            );
                            crashed[source] = true;
                            crash_iteration[source] = iteration;
                        }
                        star_core::RecoveryFault::LinkCut => {
                            assert!(
                                !cut.contains(&(source, *n)) && !cut.contains(&(*n, source)),
                                "seed {seed}: recovery link ({source},{n}) already cut"
                            );
                            cut.push((source, *n));
                        }
                        star_core::RecoveryFault::TargetCrash => {}
                    }
                }
                FaultOp::CutLink(a, b) => {
                    assert!(
                        !cut.contains(&(*a, *b)) && !cut.contains(&(*b, *a)),
                        "seed {seed}: link ({a},{b}) cut twice"
                    );
                    cut.push((*a, *b));
                }
                FaultOp::HealLink(a, b) => {
                    let index = cut
                        .iter()
                        .position(|&(x, y)| (x, y) == (*a, *b) || (x, y) == (*b, *a))
                        .unwrap_or_else(|| {
                            panic!("seed {seed}: HealLink({a},{b}) without a preceding cut")
                        });
                    cut.remove(index);
                }
                _ => {}
            }
        }
        assert!(cut.is_empty(), "seed {seed}: cut links left dangling: {cut:?}");
    }

    #[test]
    fn synthesized_schedules_are_well_formed() {
        for seed in 0..512u64 {
            assert_well_formed(&synth_plan_for_seed(seed));
        }
        // Guided candidates are walks too: every variant must obey the same
        // rules, not only the canonical variant 0.
        for seed in 0..96u64 {
            if seed % 8 < 4 {
                continue;
            }
            for variant in 0..GUIDED_CANDIDATES {
                assert_well_formed(&walk_plan(seed, variant, &SynthOptions::default()));
            }
        }
        // The planted-bug variants must stay well-formed too (the loss cut
        // is healed in the same epoch — unsafe, not malformed; corruption
        // and WAL tearing add no link/crash state at all).
        for planted in [PlantedBug::SilentLoss, PlantedBug::CorruptPayload, PlantedBug::TornWal] {
            let options = SynthOptions { planted: Some(planted) };
            for seed in 0..128u64 {
                assert_well_formed(&synth_plan(seed, &options));
            }
        }
    }

    #[test]
    fn synth_runs_are_deterministic_end_to_end() {
        for seed in [4u64, 5, 6, 7, 12, 21] {
            let a = run_synth_seed(seed).unwrap();
            let b = run_synth_seed(seed).unwrap();
            assert_eq!(a.fingerprint, b.fingerprint, "seed {seed}: history diverged");
            assert_eq!(a.passed(), b.passed(), "seed {seed}: verdict diverged");
            assert_eq!(a.cases_seen, b.cases_seen, "seed {seed}");
        }
    }

    #[test]
    fn synthesized_walk_seeds_pass_the_checker() {
        // A protocol-safe schedule must never be red: sweep a window of
        // pure walk seeds (the guided families are covered elsewhere).
        let mut summary = SweepSummary::default();
        for seed in 0..48u64 {
            if seed % 8 < 4 {
                continue;
            }
            let outcome = run_synth_seed(seed).unwrap();
            assert!(
                outcome.passed(),
                "seed {seed} ({}) violated: {:?}\nschedule: {:?}",
                outcome.label,
                outcome.violations,
                outcome.schedule
            );
            summary.outcomes.push(outcome);
        }
        // The walk's multi-fault schedules must still reach real failure
        // cases (crashes are detected and classified).
        assert!(summary.cases_covered().iter().any(|c| *c != FailureCase::NoFailure));
    }

    #[test]
    fn planted_bugs_turn_seeds_red() {
        // Every planted-bug kind must be (a) accepted by some walk seeds
        // and (b) caught on every seed that accepted it — a corruption
        // surviving to a green verdict is a red harness.
        for (planted, marker) in [
            (PlantedBug::SilentLoss, "+injected-loss"),
            (PlantedBug::CorruptPayload, "+injected-corrupt"),
            (PlantedBug::TornWal, "+injected-torn-wal"),
        ] {
            let options = SynthOptions { planted: Some(planted) };
            let mut planted_count = 0;
            let mut caught = 0;
            for seed in 0..24u64 {
                let plan = synth_plan(seed, &options);
                if !plan.label.ends_with(marker) {
                    continue;
                }
                planted_count += 1;
                let outcome = run_plan(&plan).unwrap();
                if !outcome.passed() {
                    caught += 1;
                }
            }
            assert!(planted_count > 0, "no walk seed accepted the planted {planted:?}");
            assert_eq!(
                caught, planted_count,
                "every planted {planted:?} must be caught ({caught}/{planted_count})"
            );
        }
    }

    #[test]
    fn guided_selection_is_reproducible_per_seed() {
        let options = SynthOptions::default();
        let mut sweep = GuidedSynth::new(options);
        let sweep_plans: Vec<ChaosPlan> = (0..24).map(|seed| sweep.next_plan(seed)).collect();
        for (seed, expected) in sweep_plans.iter().enumerate() {
            let replayed = GuidedSynth::plan_for_seed(seed as u64, &options);
            assert_eq!(replayed.schedule, expected.schedule, "seed {seed}");
            assert_eq!(replayed.label, expected.label, "seed {seed}");
        }
    }

    #[test]
    fn guided_walk_beats_plain_synth_on_bigram_coverage() {
        // The acceptance criterion: at equal seed count, the guided sweep
        // must reach strictly higher op-bigram coverage than the plain
        // walk. Both sides are fully deterministic, so this is a stable
        // comparison, not a statistical one.
        const SEEDS: u64 = 48;
        let mut plain = crate::coverage::CoverageMap::new();
        for seed in 0..SEEDS {
            plain.observe(&synth_plan_for_seed(seed).schedule);
        }
        let mut guided = GuidedSynth::new(SynthOptions::default());
        for seed in 0..SEEDS {
            let _ = guided.next_plan(seed);
        }
        assert!(
            guided.merged().bigram_count() > plain.bigram_count(),
            "guided must beat plain at {SEEDS} seeds: {} vs {}",
            guided.merged().bigram_count(),
            plain.bigram_count()
        );
    }

    #[test]
    fn guided_walk_seeds_run_green() {
        // Guided selection changes which schedules run, not the safety
        // envelope: a window of guided walk choices must pass the checker.
        let mut guided = GuidedSynth::new(SynthOptions::default());
        for seed in 0..20u64 {
            let plan = guided.next_plan(seed);
            if seed % 8 < 4 {
                continue;
            }
            let outcome = run_plan(&plan).unwrap();
            assert!(
                outcome.passed(),
                "guided seed {seed} ({}) violated: {:?}\nschedule: {:?}",
                outcome.label,
                outcome.violations,
                outcome.schedule
            );
        }
    }

    #[test]
    fn reelection_storms_bounce_the_master_deterministically() {
        // Find a walk seed whose re-election schedule actually kills a
        // coordinator, run it twice, and check the election generations
        // advanced identically — the "deterministic new master" contract.
        let seed = (0..256u64)
            .find(|&seed| {
                seed % 8 >= 4 && {
                    let plan = synth_plan_for_seed(seed);
                    plan.label.contains("+reelect")
                        && plan
                            .schedule
                            .ops()
                            .iter()
                            .any(|s| matches!(s.op, FaultOp::Crash(n) if n < 2))
                }
            })
            .expect("some walk seed must storm the coordinator");
        let a = run_synth_seed(seed).unwrap();
        let b = run_synth_seed(seed).unwrap();
        assert!(a.passed(), "seed {seed}: {:?}", a.violations);
        assert_eq!(a.fingerprint, b.fingerprint, "re-election must not break determinism");
    }
}
