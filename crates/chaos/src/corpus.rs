//! The regression-seed corpus: shrunk counterexamples as versioned JSON.
//!
//! A shrunk red schedule is the most valuable artifact a chaos sweep
//! produces — and PR 4's harness forgot every one of them the moment the
//! sweep ended. This module gives them a home: a [`CorpusEntry`] serializes
//! a complete [`ChaosPlan`] (config, workload, phase sizes and the full
//! fault schedule) to JSON, entries live under `tests/chaos_corpus/`, and
//! `star-chaos --replay-corpus` re-runs every committed entry as a
//! regression seed — a schedule that once exposed a real bug must stay
//! green forever after the fix.
//!
//! Two version numbers guard replayability:
//!
//! * [`CORPUS_FORMAT_VERSION`] — the JSON envelope;
//! * [`crate::schedule::SCHEDULE_FORMAT_VERSION`] — the op encoding.
//!
//! A stale entry is rejected with a clear error naming both versions (never
//! a panic), so a format change surfaces as "regenerate these entries",
//! not as a corrupted replay.

use crate::driver::{ChaosPlan, WorkloadSpec};
use crate::schedule::{FaultOp, FaultSchedule, InjectionPoint, SCHEDULE_FORMAT_VERSION};
use serde::Value;
use star_common::{ClusterConfig, ReplicationMode, ReplicationStrategy};
use star_core::RecoveryFault;
use star_net::LinkFaults;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Version of the corpus JSON envelope. Bump together with any change to
/// the field layout below.
pub const CORPUS_FORMAT_VERSION: u32 = 1;

/// One corpus entry: a complete, self-contained chaos plan plus the
/// provenance needed to understand why it is in the corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// What bug this schedule once exposed (free text, for humans).
    pub description: String,
    /// The violation category the schedule produced when it was red (e.g.
    /// `"serializability"`), for cross-checking a future regression.
    pub category: String,
    /// The plan to replay. Must run green: a red replay is a regression.
    pub plan: ChaosPlan,
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn faults_to_value(faults: &LinkFaults) -> Value {
    obj(vec![
        ("drop", Value::F64(faults.drop_probability)),
        ("duplicate", Value::F64(faults.duplicate_probability)),
        ("reorder", Value::F64(faults.reorder_probability)),
        ("corrupt", Value::F64(faults.corrupt_probability)),
        ("delay", Value::F64(faults.delay_probability)),
        ("extra_delay_us", Value::U64(faults.extra_delay.as_micros() as u64)),
    ])
}

fn recovery_fault_name(fault: RecoveryFault) -> &'static str {
    match fault {
        RecoveryFault::SourceCrash => "SourceCrash",
        RecoveryFault::TargetCrash => "TargetCrash",
        RecoveryFault::LinkCut => "LinkCut",
    }
}

fn op_to_value(op: &FaultOp) -> Value {
    match op {
        FaultOp::Crash(node) => {
            obj(vec![("op", Value::String("Crash".into())), ("node", Value::U64(*node as u64))])
        }
        FaultOp::Recover(node) => {
            obj(vec![("op", Value::String("Recover".into())), ("node", Value::U64(*node as u64))])
        }
        FaultOp::RecoverInterrupted(node, fault) => obj(vec![
            ("op", Value::String("RecoverInterrupted".into())),
            ("node", Value::U64(*node as u64)),
            ("fault", Value::String(recovery_fault_name(*fault).into())),
        ]),
        FaultOp::CutLink(a, b) => obj(vec![
            ("op", Value::String("CutLink".into())),
            ("a", Value::U64(*a as u64)),
            ("b", Value::U64(*b as u64)),
        ]),
        FaultOp::HealLink(a, b) => obj(vec![
            ("op", Value::String("HealLink".into())),
            ("a", Value::U64(*a as u64)),
            ("b", Value::U64(*b as u64)),
        ]),
        FaultOp::SetLinkFaults(from, to, faults) => obj(vec![
            ("op", Value::String("SetLinkFaults".into())),
            ("from", Value::U64(*from as u64)),
            ("to", Value::U64(*to as u64)),
            ("faults", faults_to_value(faults)),
        ]),
        FaultOp::SetDefaultFaults(faults) => obj(vec![
            ("op", Value::String("SetDefaultFaults".into())),
            ("faults", faults_to_value(faults)),
        ]),
        FaultOp::ClearFaults => obj(vec![("op", Value::String("ClearFaults".into()))]),
        FaultOp::Checkpoint => obj(vec![("op", Value::String("Checkpoint".into()))]),
        FaultOp::TruncateWal(node, bytes) => obj(vec![
            ("op", Value::String("TruncateWal".into())),
            ("node", Value::U64(*node as u64)),
            ("bytes", Value::U64(*bytes)),
        ]),
    }
}

fn config_to_value(config: &ClusterConfig) -> Value {
    obj(vec![
        ("num_nodes", Value::U64(config.num_nodes as u64)),
        ("full_replicas", Value::U64(config.full_replicas as u64)),
        ("workers_per_node", Value::U64(config.workers_per_node as u64)),
        ("partitions", Value::U64(config.partitions as u64)),
        ("iteration_us", Value::U64(config.iteration.as_micros() as u64)),
        (
            "replication_strategy",
            Value::String(
                match config.replication_strategy {
                    ReplicationStrategy::Value => "Value",
                    ReplicationStrategy::Operation => "Operation",
                    ReplicationStrategy::Hybrid => "Hybrid",
                }
                .into(),
            ),
        ),
        (
            "replication_mode",
            Value::String(
                match config.replication_mode {
                    ReplicationMode::Async => "Async",
                    ReplicationMode::Sync => "Sync",
                }
                .into(),
            ),
        ),
        ("replication_factor", Value::U64(config.replication_factor as u64)),
        ("network_latency_us", Value::U64(config.network_latency.as_micros() as u64)),
        ("disk_logging", Value::Bool(config.disk_logging)),
        ("seed", Value::U64(config.seed)),
    ])
}

fn workload_to_value(workload: &WorkloadSpec) -> Value {
    match workload {
        WorkloadSpec::Kv { rows_per_partition } => obj(vec![
            ("kind", Value::String("Kv".into())),
            ("rows_per_partition", Value::U64(*rows_per_partition)),
        ]),
        WorkloadSpec::Ycsb { rows_per_partition } => obj(vec![
            ("kind", Value::String("Ycsb".into())),
            ("rows_per_partition", Value::U64(*rows_per_partition)),
        ]),
    }
}

/// Serializes a corpus entry (a plan plus provenance) to pretty JSON.
pub fn plan_to_json(plan: &ChaosPlan, description: &str, category: &str) -> String {
    let ops: Vec<Value> = plan
        .schedule
        .ops()
        .iter()
        .map(|s| {
            let Value::Object(mut fields) = op_to_value(&s.op) else { unreachable!() };
            fields.insert(0, ("iteration".to_string(), Value::U64(s.iteration as u64)));
            fields.insert(1, ("point".to_string(), Value::String(s.point.name().into())));
            Value::Object(fields)
        })
        .collect();
    let root = obj(vec![
        ("format_version", Value::U64(CORPUS_FORMAT_VERSION as u64)),
        ("schedule_format", Value::U64(SCHEDULE_FORMAT_VERSION as u64)),
        ("description", Value::String(description.into())),
        ("category", Value::String(category.into())),
        ("seed", Value::U64(plan.seed)),
        ("label", Value::String(plan.label.clone())),
        ("config", config_to_value(&plan.config)),
        ("workload", workload_to_value(&plan.workload)),
        ("iterations", Value::U64(plan.iterations as u64)),
        ("partitioned_txns", Value::U64(plan.partitioned_txns)),
        ("single_master_txns", Value::U64(plan.single_master_txns)),
        ("expect_disk_recovery", Value::Bool(plan.expect_disk_recovery)),
        ("schedule", Value::Array(ops)),
    ]);
    let mut text = serde_json::to_string_pretty(&root).expect("corpus JSON is infallible");
    text.push('\n');
    text
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

fn get<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    let Value::Object(fields) = value else {
        return Err(format!("expected an object while looking for \"{key}\""));
    };
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field \"{key}\""))
}

fn get_u64(value: &Value, key: &str) -> Result<u64, String> {
    match get(value, key)? {
        Value::U64(v) => Ok(*v),
        Value::I64(v) if *v >= 0 => Ok(*v as u64),
        other => Err(format!("field \"{key}\" must be an unsigned integer, got {other:?}")),
    }
}

fn get_f64(value: &Value, key: &str) -> Result<f64, String> {
    match get(value, key)? {
        Value::F64(v) => Ok(*v),
        Value::U64(v) => Ok(*v as f64),
        Value::I64(v) => Ok(*v as f64),
        other => Err(format!("field \"{key}\" must be a number, got {other:?}")),
    }
}

fn get_str<'a>(value: &'a Value, key: &str) -> Result<&'a str, String> {
    match get(value, key)? {
        Value::String(s) => Ok(s),
        other => Err(format!("field \"{key}\" must be a string, got {other:?}")),
    }
}

fn get_bool(value: &Value, key: &str) -> Result<bool, String> {
    match get(value, key)? {
        Value::Bool(b) => Ok(*b),
        other => Err(format!("field \"{key}\" must be a boolean, got {other:?}")),
    }
}

fn faults_from_value(value: &Value) -> Result<LinkFaults, String> {
    Ok(LinkFaults {
        drop_probability: get_f64(value, "drop")?,
        duplicate_probability: get_f64(value, "duplicate")?,
        reorder_probability: get_f64(value, "reorder")?,
        corrupt_probability: get_f64(value, "corrupt")?,
        delay_probability: get_f64(value, "delay")?,
        extra_delay: Duration::from_micros(get_u64(value, "extra_delay_us")?),
    })
}

fn point_from_name(name: &str) -> Result<InjectionPoint, String> {
    use InjectionPoint::*;
    Ok(match name {
        "PartitionedStart" => PartitionedStart,
        "MidPartitioned" => MidPartitioned,
        "BeforeFirstFence" => BeforeFirstFence,
        "SingleMasterStart" => SingleMasterStart,
        "MidSingleMaster" => MidSingleMaster,
        "BeforeSecondFence" => BeforeSecondFence,
        "IterationEnd" => IterationEnd,
        other => return Err(format!("unknown injection point \"{other}\"")),
    })
}

fn op_from_value(value: &Value) -> Result<FaultOp, String> {
    let node = |v: &Value| -> Result<usize, String> { Ok(get_u64(v, "node")? as usize) };
    Ok(match get_str(value, "op")? {
        "Crash" => FaultOp::Crash(node(value)?),
        "Recover" => FaultOp::Recover(node(value)?),
        "RecoverInterrupted" => {
            let fault = match get_str(value, "fault")? {
                "SourceCrash" => RecoveryFault::SourceCrash,
                "TargetCrash" => RecoveryFault::TargetCrash,
                "LinkCut" => RecoveryFault::LinkCut,
                other => return Err(format!("unknown recovery fault \"{other}\"")),
            };
            FaultOp::RecoverInterrupted(node(value)?, fault)
        }
        "CutLink" => FaultOp::CutLink(get_u64(value, "a")? as usize, get_u64(value, "b")? as usize),
        "HealLink" => {
            FaultOp::HealLink(get_u64(value, "a")? as usize, get_u64(value, "b")? as usize)
        }
        "SetLinkFaults" => FaultOp::SetLinkFaults(
            get_u64(value, "from")? as usize,
            get_u64(value, "to")? as usize,
            faults_from_value(get(value, "faults")?)?,
        ),
        "SetDefaultFaults" => FaultOp::SetDefaultFaults(faults_from_value(get(value, "faults")?)?),
        "ClearFaults" => FaultOp::ClearFaults,
        "Checkpoint" => FaultOp::Checkpoint,
        "TruncateWal" => FaultOp::TruncateWal(node(value)?, get_u64(value, "bytes")?),
        other => return Err(format!("unknown fault op \"{other}\"")),
    })
}

fn config_from_value(value: &Value) -> Result<ClusterConfig, String> {
    ClusterConfig::builder()
        .nodes(get_u64(value, "num_nodes")? as usize)
        .full_replicas(get_u64(value, "full_replicas")? as usize)
        .workers_per_node(get_u64(value, "workers_per_node")? as usize)
        .partitions(get_u64(value, "partitions")? as usize)
        .iteration(Duration::from_micros(get_u64(value, "iteration_us")?))
        .replication_strategy(match get_str(value, "replication_strategy")? {
            "Value" => ReplicationStrategy::Value,
            "Operation" => ReplicationStrategy::Operation,
            "Hybrid" => ReplicationStrategy::Hybrid,
            other => return Err(format!("unknown replication strategy \"{other}\"")),
        })
        .replication_mode(match get_str(value, "replication_mode")? {
            "Async" => ReplicationMode::Async,
            "Sync" => ReplicationMode::Sync,
            other => return Err(format!("unknown replication mode \"{other}\"")),
        })
        .replication_factor(get_u64(value, "replication_factor")? as usize)
        .network_latency(Duration::from_micros(get_u64(value, "network_latency_us")?))
        .disk_logging(get_bool(value, "disk_logging")?)
        .seed(get_u64(value, "seed")?)
        .build()
        .map_err(|e| format!("corpus cluster config is invalid: {e}"))
}

/// Parses one corpus entry. Stale or future format versions are rejected
/// with an error naming both versions and the fix — never a panic.
pub fn plan_from_json(text: &str) -> Result<CorpusEntry, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let format_version = get_u64(&root, "format_version")? as u32;
    if format_version != CORPUS_FORMAT_VERSION {
        return Err(format!(
            "corpus format version {format_version} is not replayable by this binary (expects \
             {CORPUS_FORMAT_VERSION}); regenerate the entry by re-shrinking its seed with \
             `star-chaos --corpus-out`"
        ));
    }
    let schedule_format = get_u64(&root, "schedule_format")? as u32;
    if schedule_format != SCHEDULE_FORMAT_VERSION {
        return Err(format!(
            "schedule format version {schedule_format} is not replayable by this binary \
             (expects {SCHEDULE_FORMAT_VERSION}); regenerate the entry by re-shrinking its seed \
             with `star-chaos --corpus-out`"
        ));
    }
    let mut schedule = FaultSchedule::new();
    let Value::Array(ops) = get(&root, "schedule")? else {
        return Err("field \"schedule\" must be an array".into());
    };
    for op in ops {
        schedule.push(
            get_u64(op, "iteration")? as usize,
            point_from_name(get_str(op, "point")?)?,
            op_from_value(op)?,
        );
    }
    let workload_value = get(&root, "workload")?;
    let workload = match get_str(workload_value, "kind")? {
        "Kv" => {
            WorkloadSpec::Kv { rows_per_partition: get_u64(workload_value, "rows_per_partition")? }
        }
        "Ycsb" => WorkloadSpec::Ycsb {
            rows_per_partition: get_u64(workload_value, "rows_per_partition")?,
        },
        other => return Err(format!("unknown workload kind \"{other}\"")),
    };
    Ok(CorpusEntry {
        description: get_str(&root, "description")?.to_string(),
        category: get_str(&root, "category")?.to_string(),
        plan: ChaosPlan {
            seed: get_u64(&root, "seed")?,
            label: get_str(&root, "label")?.to_string(),
            config: config_from_value(get(&root, "config")?)?,
            workload,
            iterations: get_u64(&root, "iterations")? as usize,
            partitioned_txns: get_u64(&root, "partitioned_txns")?,
            single_master_txns: get_u64(&root, "single_master_txns")?,
            schedule,
            expect_disk_recovery: get_bool(&root, "expect_disk_recovery")?,
        },
    })
}

/// Loads every `*.json` entry in `dir`, sorted by file name for a
/// deterministic replay order. Unreadable or stale entries are errors (the
/// corpus is a regression gate — skipping an entry silently would defeat
/// it).
pub fn load_corpus(dir: &Path) -> Result<Vec<(PathBuf, CorpusEntry)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    paths.sort();
    let mut entries = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let entry =
            plan_from_json(&text).map_err(|e| format!("corpus entry {}: {e}", path.display()))?;
        entries.push((path, entry));
    }
    Ok(entries)
}

/// The committed regression entries under `tests/chaos_corpus/`: schedules
/// that once exposed (or guard against re-introducing) real bugs in this
/// repository. Each returns `(file_stem, description, once_red_category,
/// plan)`; the ignored `regenerate_committed_corpus` test below rewrites
/// the JSON files from this table after a format bump.
pub fn committed_entries() -> Vec<(&'static str, &'static str, &'static str, ChaosPlan)> {
    use crate::schedule::FaultSchedule;
    use star_common::ClusterConfig;

    let canonical = |seed: u64| {
        ClusterConfig::builder()
            .nodes(4)
            .full_replicas(1)
            .workers_per_node(1)
            .partitions(4)
            // Factor 3 pins the redundant partial-partial backups these
            // schedules were shrunk against (`crate::runner::canonical_config`).
            .replication_factor(3)
            .iteration(Duration::from_millis(5))
            .network_latency(Duration::from_micros(20))
            .seed(seed)
            .build()
            .expect("canonical corpus config is valid")
    };

    // PR 3's harness-caught recovery bug: a node that crashed
    // mid-partitioned-phase still had that (reverted) epoch's replication
    // batches queued in its inbox; recovery re-applied them and resurrected
    // discarded writes. The large keyspace keeps most keys from being
    // rewritten after recovery, so a resurrected write cannot hide behind a
    // newer version.
    let stale_inbox =
        ChaosPlan {
            seed: 41,
            label: "corpus-recovered-node-stale-inbox".into(),
            config: canonical(41),
            workload: WorkloadSpec::Kv { rows_per_partition: 4096 },
            iterations: 4,
            partitioned_txns: 12,
            single_master_txns: 16,
            schedule: FaultSchedule::new()
                .at(1, InjectionPoint::MidPartitioned, FaultOp::Crash(2))
                .at(2, InjectionPoint::IterationEnd, FaultOp::Recover(2)),
            expect_disk_recovery: false,
        };

    // PR 4's atomic-recovery guard: the only full replica and a partial die
    // together (Case 2); staggered recoveries must precheck all partitions
    // atomically — a partial copy from the old non-atomic path left the
    // node half-restored.
    let atomic_recovery = ChaosPlan {
        seed: 62,
        label: "corpus-master-and-partial-staggered-recovery".into(),
        config: canonical(62),
        workload: WorkloadSpec::Kv { rows_per_partition: 16 },
        iterations: 6,
        partitioned_txns: 24,
        single_master_txns: 32,
        schedule: FaultSchedule::new()
            .at(1, InjectionPoint::MidPartitioned, FaultOp::Crash(0))
            .at(1, InjectionPoint::MidPartitioned, FaultOp::Crash(2))
            .at(2, InjectionPoint::IterationEnd, FaultOp::Recover(2))
            .at(3, InjectionPoint::IterationEnd, FaultOp::Recover(0)),
        expect_disk_recovery: false,
    };

    // The re-election + faulted-recovery interplay this PR's walk opened
    // up: the coordinator dies mid-epoch (master bounces 0 → 1
    // deterministically), a recovery of the old master is interrupted by a
    // crash of its copy source, and the cluster still converges once the
    // retries land.
    let reelection_config = ClusterConfig::builder()
        .nodes(5)
        .full_replicas(2)
        .workers_per_node(1)
        .partitions(4)
        // Factor 4 = two fulls + primary + partial backup, matching the
        // layout this schedule was recorded against (`crate::synth`).
        .replication_factor(4)
        .iteration(Duration::from_millis(5))
        .network_latency(Duration::from_micros(20))
        .seed(7)
        .build()
        .expect("re-election corpus config is valid");
    let reelection = ChaosPlan {
        seed: 7,
        label: "corpus-reelection-with-faulted-recovery".into(),
        config: reelection_config,
        workload: WorkloadSpec::Kv { rows_per_partition: 16 },
        iterations: 6,
        partitioned_txns: 24,
        single_master_txns: 32,
        schedule: FaultSchedule::new()
            .at(1, InjectionPoint::MidSingleMaster, FaultOp::Crash(0))
            .at(
                2,
                InjectionPoint::IterationEnd,
                FaultOp::RecoverInterrupted(0, RecoveryFault::SourceCrash),
            )
            .at(3, InjectionPoint::IterationEnd, FaultOp::Recover(1))
            .at(4, InjectionPoint::IterationEnd, FaultOp::Recover(0)),
        expect_disk_recovery: false,
    };

    vec![
        (
            "recovered-node-stale-inbox",
            "PR 3 regression: recovery must discard replication batches queued while the node \
             was dead, or the first fence after rejoining resurrects reverted writes",
            "oracle",
            stale_inbox,
        ),
        (
            "master-and-partial-staggered-recovery",
            "PR 4 regression: recover_node must precheck every partition atomically; a failed \
             recovery leaves the node down and untouched, and the staggered retries converge",
            "replica consistency",
            atomic_recovery,
        ),
        (
            "reelection-with-faulted-recovery",
            "PR 5 guard: coordinator crash mid-epoch re-elects deterministically, and a \
             recovery aborted by a source crash stays retryable without divergence",
            "serializability",
            reelection,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synth_plan, PlantedBug, SynthOptions};

    #[test]
    fn plans_roundtrip_through_json() {
        // Synthesized plans cover the whole DSL over enough seeds (crashes,
        // faulted recoveries, link storms, fault retuning, checkpoints);
        // planted variants add corruption and WAL tearing.
        let mut plans: Vec<ChaosPlan> = (0..48u64).map(crate::synth::synth_plan_for_seed).collect();
        for planted in [PlantedBug::SilentLoss, PlantedBug::CorruptPayload, PlantedBug::TornWal] {
            let options = SynthOptions { planted: Some(planted) };
            plans.extend((0..16u64).map(|seed| synth_plan(seed, &options)));
        }
        for plan in plans {
            let text = plan_to_json(&plan, "roundtrip", "none");
            let entry =
                plan_from_json(&text).unwrap_or_else(|e| panic!("seed {}: {e}\n{text}", plan.seed));
            assert_eq!(entry.plan.schedule, plan.schedule, "seed {}", plan.seed);
            assert_eq!(entry.plan.config, plan.config, "seed {}", plan.seed);
            assert_eq!(entry.plan.label, plan.label);
            assert_eq!(entry.plan.iterations, plan.iterations);
            assert_eq!(entry.plan.partitioned_txns, plan.partitioned_txns);
            assert_eq!(entry.plan.single_master_txns, plan.single_master_txns);
            assert_eq!(entry.plan.expect_disk_recovery, plan.expect_disk_recovery);
            assert_eq!(entry.description, "roundtrip");
        }
    }

    #[test]
    fn stale_versions_are_rejected_with_a_clear_error() {
        let plan = crate::plan_for_seed(0);
        let good = plan_to_json(&plan, "d", "c");
        let stale = good.replacen(
            &format!("\"format_version\": {CORPUS_FORMAT_VERSION}"),
            "\"format_version\": 0",
            1,
        );
        let err = plan_from_json(&stale).unwrap_err();
        assert!(err.contains("format version 0"), "{err}");
        assert!(err.contains("regenerate"), "the error must say how to fix it: {err}");

        let stale_schedule = good.replacen(
            &format!("\"schedule_format\": {SCHEDULE_FORMAT_VERSION}"),
            "\"schedule_format\": 999",
            1,
        );
        let err = plan_from_json(&stale_schedule).unwrap_err();
        assert!(err.contains("schedule format version 999"), "{err}");

        // Garbage is an error, not a panic.
        assert!(plan_from_json("{").is_err());
        assert!(plan_from_json("{}").is_err());
    }

    fn committed_corpus_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/chaos_corpus")
    }

    /// Rewrites `tests/chaos_corpus/` from [`committed_entries`]. Run after
    /// a format bump:
    /// `cargo test -p star-chaos --lib regenerate_committed_corpus -- --ignored`
    #[test]
    #[ignore = "maintenance tool: rewrites tests/chaos_corpus from the generator table"]
    fn regenerate_committed_corpus() {
        let dir = committed_corpus_dir();
        std::fs::create_dir_all(&dir).unwrap();
        for (stem, description, category, plan) in committed_entries() {
            let path = dir.join(format!("{stem}.json"));
            std::fs::write(&path, plan_to_json(&plan, description, category)).unwrap();
            println!("wrote {}", path.display());
        }
    }

    #[test]
    fn committed_corpus_is_current_and_replays_green() {
        // The committed JSON must match the generator table byte for byte
        // (a format bump without regeneration fails here with the fix
        // command), and every entry must replay green — each schedule once
        // exposed a real bug, so a red replay is a regression of that fix.
        let entries = load_corpus(&committed_corpus_dir()).expect("corpus must load");
        let mut expected = committed_entries();
        // `load_corpus` replays in file-name order.
        expected.sort_by_key(|(stem, ..)| *stem);
        assert_eq!(
            entries.len(),
            expected.len(),
            "tests/chaos_corpus is out of sync; regenerate with `cargo test -p star-chaos \
             --lib regenerate_committed_corpus -- --ignored`"
        );
        for ((path, entry), (stem, description, category, plan)) in entries.iter().zip(&expected) {
            assert_eq!(
                path.file_stem().and_then(|s| s.to_str()),
                Some(*stem),
                "corpus file order diverged from the generator table"
            );
            let regenerated = plan_to_json(plan, description, category);
            let on_disk = std::fs::read_to_string(path).unwrap();
            assert_eq!(
                on_disk, regenerated,
                "{stem}.json is stale; regenerate with `cargo test -p star-chaos --lib \
                 regenerate_committed_corpus -- --ignored`"
            );
            let outcome = crate::run_plan(&entry.plan).unwrap();
            assert!(
                outcome.passed(),
                "corpus entry {stem} regressed ({}): {:?}",
                entry.description,
                outcome.violations
            );
            assert!(outcome.committed > 0, "corpus entry {stem} committed nothing");
        }
    }

    #[test]
    fn corpus_directory_loads_in_name_order() {
        let dir = std::env::temp_dir().join(format!("star-corpus-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let b = crate::plan_for_seed(1);
        let a = crate::plan_for_seed(2);
        std::fs::write(dir.join("b.json"), plan_to_json(&b, "second", "c")).unwrap();
        std::fs::write(dir.join("a.json"), plan_to_json(&a, "first", "c")).unwrap();
        std::fs::write(dir.join("ignore.txt"), "not a corpus entry").unwrap();
        let entries = load_corpus(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1.description, "first");
        assert_eq!(entries[1].1.description, "second");
        // One stale entry poisons the load — the corpus is a gate.
        std::fs::write(dir.join("c.json"), "{\"format_version\": 0}").unwrap();
        let err = load_corpus(&dir).unwrap_err();
        assert!(err.contains("c.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
