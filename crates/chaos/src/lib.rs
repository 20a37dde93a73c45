//! Deterministic chaos harness for the STAR reproduction.
//!
//! The paper's headline claim is not only throughput but *correctness under
//! failure*: Section 4.5 argues that the phase-switching fence keeps the
//! committed history serializable through crashes, re-mastering and disk
//! recovery. This crate turns that argument into a FoundationDB-style
//! simulation harness:
//!
//! * [`schedule`] — a fault-schedule DSL: node crashes, recoveries, link
//!   partitions and per-link drop / delay / duplicate / reorder
//!   probabilities, pinned to injection points inside the phase-switching
//!   loop (mid-phase, at the fence, around checkpoints);
//! * [`driver`] — executes one seeded plan against the engine's
//!   deterministic *stepped* execution mode and verifies serializability,
//!   replica agreement, oracle agreement and (for Case 4) recovery from
//!   checkpoint + WAL;
//! * [`checker`] — the offline serializability checker: builds the direct
//!   serialization graph from recorded read versions and installed writes,
//!   topologically sorts it and replays the witness order through a
//!   sequential oracle;
//! * [`runner`] — the guided generators: maps seeds to the four Figure-7
//!   scenario families and sweeps seed ranges; identical seed ⇒ identical
//!   schedule, committed history and checker verdict, so any red seed
//!   reproduces with `star-chaos --seed N`;
//! * [`synth`] — the schedule synthesizer: a biased random walk over the
//!   fault DSL that generates arbitrary well-formed multi-fault schedules
//!   (overlapping multi-node crashes with interleaved recoveries,
//!   cut-then-heal link storms inside doomed epochs, mid-phase fault
//!   retuning, planned total-loss events), keeping the guided families for
//!   half the seed space so Figure-7 coverage never regresses
//!   (`star-chaos --synth`);
//! * [`shrink`] — the failure reporter's minimizer: a red schedule is
//!   delta-debugged down to a minimal op list that still fails with the
//!   same violation category, and the result is embedded next to the seed
//!   in the JSON report;
//! * [`coverage`] — schedule-space coverage maps: which op bigrams,
//!   injection points and engine-phase × fault combinations a sweep
//!   actually exercised, merged across seeds and emitted in the report.
//!   `star-chaos --synth-guided` uses the merged map to bias the walk
//!   toward uncovered territory;
//! * [`corpus`] — the regression corpus: shrunk red schedules serialize to
//!   versioned JSON under `tests/chaos_corpus/`, and
//!   `star-chaos --replay-corpus` re-runs every committed counterexample
//!   as a regression seed (stale format versions are rejected with a clear
//!   error).
//!
//! The [`engines`] module additionally records and checks histories of the
//! four baseline engines (PB. OCC, Dist. OCC, Dist. S2PL, Calvin), whose
//! replication paths run through the same fault plane
//! (`star_baselines::ReplicaLink`), so the serializability checker covers
//! all five engines in the repository — under replication faults too.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checker;
pub mod corpus;
pub mod coverage;
pub mod driver;
pub mod engines;
pub mod runner;
pub mod schedule;
pub mod shrink;
pub mod synth;

pub use checker::{check_history, CheckReport, Violation};
pub use corpus::{load_corpus, plan_from_json, plan_to_json, CorpusEntry, CORPUS_FORMAT_VERSION};
pub use coverage::{CoverageMap, EnginePhase, OpKind};
pub use driver::{
    build_workload, run_plan, walk, ChaosOutcome, ChaosPlan, ChaosTarget, EngineTarget,
    WorkloadSpec,
};
pub use runner::{
    canonical_config, family_plan, plan_for_seed, run_seed, sweep, ScenarioKind, SweepSummary,
};
pub use schedule::{FaultOp, FaultSchedule, InjectionPoint, SCHEDULE_FORMAT_VERSION};
pub use shrink::{shrink_plan, shrink_with, ShrunkPlan};
pub use synth::{
    run_synth_seed, synth_plan, synth_plan_for_seed, GuidedSynth, PlantedBug, SynthOptions,
};
