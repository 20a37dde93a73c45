//! The fault-schedule DSL: *what* breaks, *when*.
//!
//! A [`FaultSchedule`] is a list of [`FaultOp`]s pinned to injection points
//! inside the phase-switching loop. The chaos driver executes iterations of
//! the deterministic stepped engine and applies the scheduled operations in
//! between half-phases and around fences, so a schedule can crash a node
//! mid-partitioned-phase, mid-single-master-phase, immediately before a
//! fence (the fence then performs detection and the epoch revert — the
//! "crash during the phase-switch fence" scenario), or around a checkpoint
//! capture.
//!
//! Schedules are plain data: they print with `Debug`, so a failing seed's
//! report contains everything needed to reproduce the run.

use star_common::NodeId;
use star_core::RecoveryFault;
use star_net::LinkFaults;

/// Version of the schedule wire format (the JSON encoding used by the
/// regression corpus under `tests/chaos_corpus/` and by the `star-chaos`
/// report). Bump this whenever [`FaultOp`], [`InjectionPoint`] or the
/// [`crate::corpus`] encoding changes shape, so stale corpus entries are
/// rejected with a clear error instead of silently replaying something
/// different from what was minimized.
pub const SCHEDULE_FORMAT_VERSION: u32 = 1;

/// Where inside one iteration of the phase-switching loop an operation
/// fires. The variants are declared — and therefore ordered — in execution
/// order. The iteration structure is:
///
/// ```text
/// PartitionedStart → (first half) → MidPartitioned → (second half)
///   → BeforeFirstFence → FENCE → SingleMasterStart → (first half)
///   → MidSingleMaster → (second half) → BeforeSecondFence → FENCE
///   → IterationEnd
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InjectionPoint {
    /// Before the partitioned phase of the iteration starts.
    PartitionedStart,
    /// Halfway through the partitioned phase.
    MidPartitioned,
    /// After the partitioned phase, immediately before the fence that closes
    /// its epoch (faults injected here are detected by that fence).
    BeforeFirstFence,
    /// Before the single-master phase starts.
    SingleMasterStart,
    /// Halfway through the single-master phase.
    MidSingleMaster,
    /// Immediately before the fence closing the single-master epoch.
    BeforeSecondFence,
    /// After the second fence (iteration complete).
    IterationEnd,
}

impl InjectionPoint {
    /// The point's stable name, as the corpus format and the coverage report
    /// spell it.
    pub fn name(self) -> &'static str {
        use InjectionPoint::*;
        match self {
            PartitionedStart => "PartitionedStart",
            MidPartitioned => "MidPartitioned",
            BeforeFirstFence => "BeforeFirstFence",
            SingleMasterStart => "SingleMasterStart",
            MidSingleMaster => "MidSingleMaster",
            BeforeSecondFence => "BeforeSecondFence",
            IterationEnd => "IterationEnd",
        }
    }
}

/// One fault (or repair) operation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultOp {
    /// Crash a node: the simulated network marks it failed; the next fence
    /// detects it and reverts the in-flight epoch (Figure 6).
    Crash(NodeId),
    /// Recover a crashed node by copying its partitions from healthy
    /// replicas (the Cases 1–3 catch-up path).
    Recover(NodeId),
    /// Start recovering a crashed node but inject a fault mid-copy: the
    /// recovery aborts, the node stays down, and the fault's side effects
    /// (a crashed source, a cut link) persist — the recovery path itself is
    /// under test (`StarEngine::recover_node_interrupted`).
    RecoverInterrupted(NodeId, RecoveryFault),
    /// Cut the bidirectional link between two nodes (network partition;
    /// silent message loss).
    CutLink(NodeId, NodeId),
    /// Restore a previously cut link.
    HealLink(NodeId, NodeId),
    /// Apply fault probabilities to one directed link.
    SetLinkFaults(NodeId, NodeId, LinkFaults),
    /// Apply fault probabilities to every link without an override.
    SetDefaultFaults(LinkFaults),
    /// Clear every fault configuration and cut link.
    ClearFaults,
    /// Capture a fuzzy checkpoint of every healthy replica (the Case-4
    /// disk-recovery input, Section 4.5.1).
    Checkpoint,
    /// Byzantine disk fault: tear the tail of a node's on-disk WAL by the
    /// given number of bytes (see `star_replication::truncate_wal_tail`).
    /// Never protocol-safe — this is a planted bug that the Case-4 disk
    /// recovery must detect, so a schedule containing it is expected red.
    TruncateWal(NodeId, u64),
}

/// One scheduled operation: `op` fires at `point` of iteration `iteration`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledOp {
    /// Zero-based iteration index.
    pub iteration: usize,
    /// Injection point within the iteration.
    pub point: InjectionPoint,
    /// The operation.
    pub op: FaultOp,
}

/// A deterministic fault schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    ops: Vec<ScheduledOp>,
}

impl FaultSchedule {
    /// An empty schedule (a fault-free run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an operation (builder style).
    pub fn at(mut self, iteration: usize, point: InjectionPoint, op: FaultOp) -> Self {
        self.ops.push(ScheduledOp { iteration, point, op });
        self
    }

    /// Adds an operation in place.
    pub fn push(&mut self, iteration: usize, point: InjectionPoint, op: FaultOp) {
        self.ops.push(ScheduledOp { iteration, point, op });
    }

    /// Every scheduled operation, in insertion order.
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    /// The operations firing at `(iteration, point)`, in insertion order.
    pub fn ops_at(
        &self,
        iteration: usize,
        point: InjectionPoint,
    ) -> impl Iterator<Item = &FaultOp> {
        self.ops.iter().filter(move |s| s.iteration == iteration && s.point == point).map(|s| &s.op)
    }

    /// Smallest number of iterations that covers every scheduled operation.
    pub fn iterations_required(&self) -> usize {
        self.ops.iter().map(|s| s.iteration + 1).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_fire_at_their_point() {
        let schedule = FaultSchedule::new()
            .at(1, InjectionPoint::MidPartitioned, FaultOp::Crash(2))
            .at(1, InjectionPoint::MidPartitioned, FaultOp::CutLink(0, 2))
            .at(3, InjectionPoint::IterationEnd, FaultOp::Recover(2));
        let mid: Vec<&FaultOp> = schedule.ops_at(1, InjectionPoint::MidPartitioned).collect();
        assert_eq!(mid, vec![&FaultOp::Crash(2), &FaultOp::CutLink(0, 2)]);
        assert_eq!(schedule.ops_at(1, InjectionPoint::IterationEnd).count(), 0);
        assert_eq!(schedule.ops_at(3, InjectionPoint::IterationEnd).count(), 1);
        assert_eq!(schedule.iterations_required(), 4);
        assert_eq!(FaultSchedule::new().iterations_required(), 0);
    }

    #[test]
    fn schedules_are_printable_for_reproduction() {
        let schedule =
            FaultSchedule::new().at(0, InjectionPoint::BeforeFirstFence, FaultOp::Crash(1));
        let printed = format!("{schedule:?}");
        assert!(printed.contains("BeforeFirstFence"));
        assert!(printed.contains("Crash(1)"));
    }
}
