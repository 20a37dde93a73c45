//! Schedule-space coverage accounting.
//!
//! Seed count is a poor proxy for coverage: a thousand synthesized walks can
//! keep exercising the same few fault patterns while whole regions of the
//! DSL — a recovery interrupted during a re-election storm, a checkpoint
//! followed by a link cut — are never visited. Following the observation in
//! "Identifying the Major Sources of Variance in Transaction Latencies"
//! that you must *measure* which paths a stress run actually reaches, this
//! module records, per schedule:
//!
//! * **op bigrams** — consecutive pairs of [`FaultOp`] kinds in execution
//!   order (the order the driver fires them), the walk's basic "pattern"
//!   unit;
//! * **injection-point coverage** — which `(injection point, op kind)`
//!   pairs fired;
//! * **phase × fault coverage** — which engine phase (partitioned,
//!   single-master, iteration boundary) saw which op kind.
//!
//! Maps are *sets*, so merging across a sweep is commutative, associative
//! and idempotent, and accounting is monotone under schedule extension —
//! properties the test suite pins down, because the guided walk
//! (`star-chaos --synth-guided`) uses merged maps to bias generation toward
//! uncovered territory and a non-monotone map would mis-steer it.
//!
//! Everything here is a pure function of the schedule (not of a run), so
//! coverage is byte-for-byte deterministic per seed and the guided walk can
//! score candidate schedules without executing them.

use crate::schedule::{FaultOp, FaultSchedule, InjectionPoint, ScheduledOp};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The kind of a [`FaultOp`], with the payload stripped — the unit of
/// coverage accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// `FaultOp::Crash`.
    Crash,
    /// `FaultOp::Recover`.
    Recover,
    /// `FaultOp::RecoverInterrupted` (any interruption kind).
    RecoverInterrupted,
    /// `FaultOp::CutLink`.
    CutLink,
    /// `FaultOp::HealLink`.
    HealLink,
    /// `FaultOp::SetLinkFaults`.
    SetLinkFaults,
    /// `FaultOp::SetDefaultFaults`.
    SetDefaultFaults,
    /// `FaultOp::ClearFaults`.
    ClearFaults,
    /// `FaultOp::Checkpoint`.
    Checkpoint,
    /// `FaultOp::TruncateWal`.
    TruncateWal,
}

impl OpKind {
    /// Every op kind, in canonical order — the universe the uncovered-bigram
    /// report is computed against.
    pub const ALL: [OpKind; 10] = [
        OpKind::Crash,
        OpKind::Recover,
        OpKind::RecoverInterrupted,
        OpKind::CutLink,
        OpKind::HealLink,
        OpKind::SetLinkFaults,
        OpKind::SetDefaultFaults,
        OpKind::ClearFaults,
        OpKind::Checkpoint,
        OpKind::TruncateWal,
    ];

    /// The kind of one op.
    pub fn of(op: &FaultOp) -> OpKind {
        match op {
            FaultOp::Crash(_) => OpKind::Crash,
            FaultOp::Recover(_) => OpKind::Recover,
            FaultOp::RecoverInterrupted(..) => OpKind::RecoverInterrupted,
            FaultOp::CutLink(..) => OpKind::CutLink,
            FaultOp::HealLink(..) => OpKind::HealLink,
            FaultOp::SetLinkFaults(..) => OpKind::SetLinkFaults,
            FaultOp::SetDefaultFaults(_) => OpKind::SetDefaultFaults,
            FaultOp::ClearFaults => OpKind::ClearFaults,
            FaultOp::Checkpoint => OpKind::Checkpoint,
            FaultOp::TruncateWal(..) => OpKind::TruncateWal,
        }
    }

    /// Stable label used in reports and fingerprints.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Crash => "Crash",
            OpKind::Recover => "Recover",
            OpKind::RecoverInterrupted => "RecoverInterrupted",
            OpKind::CutLink => "CutLink",
            OpKind::HealLink => "HealLink",
            OpKind::SetLinkFaults => "SetLinkFaults",
            OpKind::SetDefaultFaults => "SetDefaultFaults",
            OpKind::ClearFaults => "ClearFaults",
            OpKind::Checkpoint => "Checkpoint",
            OpKind::TruncateWal => "TruncateWal",
        }
    }
}

/// The engine phase an injection point belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EnginePhase {
    /// The partitioned half of the iteration (start, middle, pre-fence).
    Partitioned,
    /// The single-master half of the iteration (start, middle, pre-fence).
    SingleMaster,
    /// After the second fence (between iterations).
    IterationBoundary,
}

impl EnginePhase {
    /// Maps an injection point to its engine phase.
    pub fn of(point: InjectionPoint) -> EnginePhase {
        use InjectionPoint::*;
        match point {
            PartitionedStart | MidPartitioned | BeforeFirstFence => EnginePhase::Partitioned,
            SingleMasterStart | MidSingleMaster | BeforeSecondFence => EnginePhase::SingleMaster,
            IterationEnd => EnginePhase::IterationBoundary,
        }
    }

    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            EnginePhase::Partitioned => "Partitioned",
            EnginePhase::SingleMaster => "SingleMaster",
            EnginePhase::IterationBoundary => "IterationBoundary",
        }
    }
}

/// Coverage of one schedule, or the merged coverage of many.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    /// Consecutive `(kind, kind)` pairs in execution order.
    bigrams: BTreeSet<(OpKind, OpKind)>,
    /// `(injection point, op kind)` pairs that fired.
    points: BTreeSet<(InjectionPoint, OpKind)>,
    /// `(engine phase, op kind)` pairs that fired.
    phase_faults: BTreeSet<(EnginePhase, OpKind)>,
}

/// The execution-ordered op stream of a schedule: iteration, then injection
/// point, then insertion order within the point — exactly the order the
/// driver applies ops in.
pub fn execution_order(schedule: &FaultSchedule) -> Vec<&ScheduledOp> {
    let mut ordered: Vec<&ScheduledOp> = schedule.ops().iter().collect();
    // Stable, so insertion order survives within a point.
    ordered.sort_by_key(|s| (s.iteration, s.point));
    ordered
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The coverage of one schedule.
    pub fn from_schedule(schedule: &FaultSchedule) -> Self {
        let mut map = CoverageMap::new();
        map.observe(schedule);
        map
    }

    /// Adds one schedule's coverage into this map.
    pub fn observe(&mut self, schedule: &FaultSchedule) {
        let ordered = execution_order(schedule);
        for pair in ordered.windows(2) {
            self.bigrams.insert((OpKind::of(&pair[0].op), OpKind::of(&pair[1].op)));
        }
        for op in &ordered {
            let kind = OpKind::of(&op.op);
            self.points.insert((op.point, kind));
            self.phase_faults.insert((EnginePhase::of(op.point), kind));
        }
    }

    /// Merges another map into this one (set union — commutative,
    /// associative, idempotent).
    pub fn merge(&mut self, other: &CoverageMap) {
        self.bigrams.extend(other.bigrams.iter().copied());
        self.points.extend(other.points.iter().copied());
        self.phase_faults.extend(other.phase_faults.iter().copied());
    }

    /// Number of distinct op bigrams covered.
    pub fn bigram_count(&self) -> usize {
        self.bigrams.len()
    }

    /// Number of distinct `(point, kind)` pairs covered.
    pub fn point_count(&self) -> usize {
        self.points.len()
    }

    /// Number of distinct `(phase, kind)` pairs covered.
    pub fn phase_fault_count(&self) -> usize {
        self.phase_faults.len()
    }

    /// How many coverage units of `other` are *not* yet in this map — the
    /// novelty score the guided walk maximizes when choosing among candidate
    /// schedules.
    pub fn novelty_of(&self, other: &CoverageMap) -> usize {
        other.bigrams.difference(&self.bigrams).count()
            + other.points.difference(&self.points).count()
            + other.phase_faults.difference(&self.phase_faults).count()
    }

    /// Whether `other` adds nothing to this map.
    pub fn covers(&self, other: &CoverageMap) -> bool {
        self.novelty_of(other) == 0
    }

    /// Op bigrams from the full `OpKind × OpKind` universe that no observed
    /// schedule has exercised — what the nightly artifact surfaces so
    /// uncovered patterns are visible, not just the covered count.
    pub fn uncovered_bigrams(&self) -> Vec<(OpKind, OpKind)> {
        let mut uncovered = Vec::new();
        for a in OpKind::ALL {
            for b in OpKind::ALL {
                if !self.bigrams.contains(&(a, b)) {
                    uncovered.push((a, b));
                }
            }
        }
        uncovered
    }

    /// FNV-1a fingerprint of the canonical encoding — two maps covering the
    /// same territory hash identically, which is what the determinism
    /// property test pins ("identical seeds yield byte-identical coverage
    /// maps").
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in self.to_json().bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// Canonical JSON encoding (sorted sets → byte-identical for equal
    /// maps). Embedded in the `star-chaos` report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"bigrams\":[");
        for (i, (a, b)) in self.bigrams.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}>{}\"", a.label(), b.label());
        }
        out.push_str("],\"points\":[");
        for (i, (point, kind)) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}@{}\"", kind.label(), point.name());
        }
        out.push_str("],\"phase_faults\":[");
        for (i, (phase, kind)) in self.phase_faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}@{}\"", kind.label(), phase.label());
        }
        out.push_str("],\"uncovered_bigrams\":[");
        for (i, (a, b)) in self.uncovered_bigrams().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}>{}\"", a.label(), b.label());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultOp;
    use crate::synth::synth_plan_for_seed;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bigrams_follow_execution_order_not_insertion_order() {
        // Inserted out of order: the Recover (iteration 2) first, then the
        // Crash (iteration 0). Execution order is Crash → Checkpoint →
        // Recover.
        let schedule = FaultSchedule::new()
            .at(2, InjectionPoint::IterationEnd, FaultOp::Recover(1))
            .at(0, InjectionPoint::MidPartitioned, FaultOp::Crash(1))
            .at(1, InjectionPoint::PartitionedStart, FaultOp::Checkpoint);
        let map = CoverageMap::from_schedule(&schedule);
        assert_eq!(map.bigram_count(), 2);
        let json = map.to_json();
        let covered = json.split("uncovered").next().unwrap();
        assert!(covered.contains("\"Crash>Checkpoint\""), "{json}");
        assert!(covered.contains("\"Checkpoint>Recover\""), "{json}");
        assert!(!covered.contains("\"Recover>Crash\""), "{json}");
        assert_eq!(map.point_count(), 3);
        assert_eq!(map.phase_fault_count(), 3);
    }

    #[test]
    fn accounting_is_monotone_under_schedule_extension() {
        // Appending ops at later iterations only appends to the execution
        // stream, so every covered unit stays covered.
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..64 {
            let mut schedule = FaultSchedule::new();
            let base_len = rng.gen_range(0..12);
            for i in 0..base_len {
                schedule.push(i, InjectionPoint::MidPartitioned, random_op(&mut rng));
            }
            let before = CoverageMap::from_schedule(&schedule);
            for j in 0..rng.gen_range(1..6) {
                schedule.push(base_len + j, InjectionPoint::IterationEnd, random_op(&mut rng));
            }
            let after = CoverageMap::from_schedule(&schedule);
            assert!(after.covers(&before), "extension lost coverage");
            assert!(after.bigram_count() >= before.bigram_count());
        }
    }

    #[test]
    fn merge_is_commutative_idempotent_and_associative() {
        let maps: Vec<CoverageMap> = (0..12u64)
            .map(|seed| CoverageMap::from_schedule(&synth_plan_for_seed(seed).schedule))
            .collect();
        for a in &maps {
            for b in &maps {
                let mut ab = a.clone();
                ab.merge(b);
                let mut ba = b.clone();
                ba.merge(a);
                assert_eq!(ab, ba, "merge must be commutative");
                let mut abb = ab.clone();
                abb.merge(b);
                assert_eq!(abb, ab, "merge must be idempotent");
                for c in maps.iter().take(4) {
                    let mut left = ab.clone();
                    left.merge(c);
                    let mut bc = b.clone();
                    bc.merge(c);
                    let mut right = a.clone();
                    right.merge(&bc);
                    assert_eq!(left, right, "merge must be associative");
                }
            }
        }
    }

    #[test]
    fn identical_seeds_yield_byte_identical_coverage() {
        for seed in 0..64u64 {
            let a = CoverageMap::from_schedule(&synth_plan_for_seed(seed).schedule);
            let b = CoverageMap::from_schedule(&synth_plan_for_seed(seed).schedule);
            assert_eq!(a.to_json(), b.to_json(), "seed {seed}");
            assert_eq!(a.fingerprint(), b.fingerprint(), "seed {seed}");
        }
    }

    #[test]
    fn uncovered_bigrams_complement_the_covered_set() {
        let map = CoverageMap::from_schedule(&synth_plan_for_seed(12).schedule);
        let universe = OpKind::ALL.len() * OpKind::ALL.len();
        assert_eq!(map.uncovered_bigrams().len() + map.bigram_count(), universe);
        assert_eq!(CoverageMap::new().uncovered_bigrams().len(), universe);
    }

    fn random_op(rng: &mut StdRng) -> FaultOp {
        match rng.gen_range(0..6) {
            0 => FaultOp::Crash(rng.gen_range(0..4)),
            1 => FaultOp::Recover(rng.gen_range(0..4)),
            2 => FaultOp::Checkpoint,
            3 => FaultOp::ClearFaults,
            4 => FaultOp::CutLink(0, rng.gen_range(1..4)),
            _ => FaultOp::HealLink(0, rng.gen_range(1..4)),
        }
    }
}
