//! The wire chaos runner: drives a [`ChaosPlan`] against a real TCP
//! cluster behind the fault-injecting proxy mesh, walks the in-memory
//! simulation twin over the very same schedule, and compares the two
//! trajectories byte-for-byte.
//!
//! The runner is the wire-side [`ChaosTarget`] of `star_chaos::walk` (the
//! twin is the same walk over an [`EngineTarget`]). How the cluster is
//! driven — phases, fences, epoch state, baselines, catch-up and rejoin — is
//! `star_serverd`'s [`ClusterDriver`], the one `star-serverd`'s own `Run`
//! uses; the runner is the *supervisor* around it. It carries out every
//! schedule op at the point the schedule names, as the simulator does:
//!
//! * `Crash` *isolates* the node: from that point the proxies swallow every
//!   frame to or from it without rolling the fault plane, while the node
//!   keeps executing the epoch in flight — the simulator's crashed node,
//!   whose messages vanish. The walk runs each phase as two count-budgeted
//!   halves, so a crash at `MidPartitioned` lands between the same two
//!   transactions on both sides. The fence that detects the crash kills the
//!   process (SIGKILL, or server teardown in-process) before it fences the
//!   survivors, who revert the epoch;
//! * `Recover` restarts the node and has the driver catch it up and rejoin
//!   it; `RecoverInterrupted` lands only its side effect (a crashed source
//!   is isolated like any crash, a cut link is cut); link ops program the
//!   proxy fault plane;
//! * `Checkpoint` captures the twin's replicas for its disk verdict and
//!   changes nothing a trajectory reads, so it has no wire action.
//!   `TruncateWal` tears a WAL, and the wire has none yet: a plan carrying
//!   one is refused before it runs.
//!
//! The runner fences on what the proxies *delivered* rather than on what the
//! senders report.
//!
//! [`twin_violations`] is the comparison every wire-vs-twin check in the
//! workspace makes:
//!
//! * merged committed histories (kill-time archives + live nodes), stable
//!   sorted by `(epoch, executor)`, must be byte-identical to the twin's
//!   under `encode_history`;
//! * every live node's election log must be byte-identical to the twin's
//!   under `encode_elections`;
//! * every live node's replica digest must equal the twin's replica of the
//!   same node id;
//! * the merged wire history must pass the serializability checker, and the
//!   twin's healthy replicas — which the digests just equated with the live
//!   wire nodes — must agree with each other and with the checker's oracle.

use crate::cluster::{InProcessCluster, WireCluster};
use crate::proxy::ProxyMesh;
use star_chaos::checker::compare_with_database;
use star_chaos::{
    build_workload, check_history, walk, ChaosPlan, ChaosTarget, EngineTarget, FaultOp,
    WorkloadSpec,
};
use star_core::history::{CommittedTxn, HistoryRecorder};
use star_core::{RecoveryFault, StarEngine};
use star_proto::{encode_elections, encode_history, AdminQuery, Request, Response, Role};
use star_serverd::{replica_digest, ClusterDriver};
use std::time::Duration;

/// How long the runner waits for in-flight frames to settle in the proxy
/// mesh before a fence.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(30);

/// The outcome of one wire chaos replay.
#[derive(Debug)]
pub struct WireReport {
    /// The plan's label.
    pub label: String,
    /// The plan's seed.
    pub seed: u64,
    /// Transactions in the merged wire history.
    pub committed: u64,
    /// Everything that went wrong: parity mismatches, serializability and
    /// oracle violations, infeasible recoveries. Empty means the replay
    /// passed.
    pub violations: Vec<String>,
}

impl WireReport {
    /// Whether the replay passed (no violations of any kind).
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Compares a wire cluster with its simulation twin (see the module docs)
/// and returns the size of the merged wire history and every divergence.
/// The wire side is read through `driver` — history, election log and
/// replica digest of every node it holds live — plus the histories
/// `archived` from nodes before they were killed; the twin side is the
/// `twin` engine that ran the same schedule and its `recorder`.
pub fn twin_violations(
    driver: &mut ClusterDriver,
    archived: Vec<CommittedTxn>,
    twin: &StarEngine,
    recorder: &HistoryRecorder,
) -> Result<(u64, Vec<String>), String> {
    twin.quiesce();
    let twin_elections = encode_elections(twin.elections());
    let mut violations = Vec::new();
    let mut wire_history = archived;
    let nodes = driver.failed().into_iter().enumerate();
    let live: Vec<usize> = nodes.filter(|(_, failed)| !failed).map(|(node, _)| node).collect();
    for &node in &live {
        match driver.request(node, Request::Admin(AdminQuery::History))? {
            Response::History(txns) => wire_history.extend(txns.iter().map(|t| t.to_committed())),
            other => return Err(format!("node {node}: expected History, got {other:?}")),
        }
        match driver.request(node, Request::Admin(AdminQuery::Elections))? {
            Response::Elections(log) => {
                let log: Vec<_> = log.into_iter().map(|e| e.to_election()).collect();
                if encode_elections(&log) != twin_elections {
                    violations.push(format!("node {node} election log diverges from the twin"));
                }
            }
            other => return Err(format!("node {node}: expected Elections, got {other:?}")),
        }
        let digest = match driver.request(node, Request::Admin(AdminQuery::ReplicaDigest))? {
            Response::Digest { records, digest } => (records, digest),
            other => return Err(format!("node {node}: expected Digest, got {other:?}")),
        };
        match twin.nodes().get(node).map(|twin_node| replica_digest(twin_node.db())) {
            Some(twin_digest) if twin_digest == digest => {}
            Some(twin_digest) => violations.push(format!(
                "node {node} replica diverges: wire {digest:?} vs twin {twin_digest:?}"
            )),
            None => violations.push(format!("node {node} has no twin counterpart")),
        }
    }
    // Per-node wire histories are in execution order and grouped per
    // executor; the twin records stepped half-phases interleaved across
    // executors. The same stable sort puts both in (epoch, executor) order
    // without disturbing per-executor program order, so the byte comparison
    // sees canonical forms.
    let mut twin_history = recorder.committed();
    wire_history.sort_by_key(|t| (t.epoch, t.executor));
    twin_history.sort_by_key(|t| (t.epoch, t.executor));
    if encode_history(&wire_history) != encode_history(&twin_history) {
        let first_diff = wire_history
            .iter()
            .zip(twin_history.iter())
            .enumerate()
            .find(|(_, (w, t))| {
                encode_history(std::slice::from_ref(w)) != encode_history(std::slice::from_ref(t))
            })
            .map(|(i, (w, t))| format!("; first divergence at txn {i}: wire {w:?} vs twin {t:?}"))
            .unwrap_or_default();
        violations.push(format!(
            "wire and twin histories diverge ({} wire txns vs {} twin txns){first_diff}",
            wire_history.len(),
            twin_history.len()
        ));
    }
    let report = check_history(&wire_history);
    if !report.is_serializable() {
        violations.push(format!("wire history is not serializable: {:?}", report.violation));
    }
    // The wire's replicas are out of reach, but each live one digests equal
    // to its twin (or a divergence is reported above), so the twin's
    // replicas stand in for them in the checks the simulator's run makes.
    if let Err(e) = twin.verify_replica_consistency() {
        violations.push(format!("replica consistency: {e}"));
    }
    if report.is_serializable() {
        for (node, twin_node) in live.iter().filter_map(|&n| Some((n, twin.nodes().get(n)?))) {
            if let Err(e) = compare_with_database(twin_node.db(), &report.final_state) {
                violations.push(format!("oracle vs node {node}: {e}"));
            }
        }
    }
    Ok((wire_history.len() as u64, violations))
}

/// Replays `plan` against a cluster the caller booted behind `proxies`,
/// plus the simulation twin, and returns the comparison. Both walk the
/// plan's own schedule; a plan that tears a WAL is refused, because the wire
/// has no WAL to tear.
pub fn replay_plan(
    plan: &ChaosPlan,
    cluster: &mut dyn WireCluster,
    proxies: &ProxyMesh,
) -> Result<WireReport, String> {
    let ops = plan.schedule.ops();
    if let Some(torn) = ops.iter().find(|s| matches!(s.op, FaultOp::TruncateWal(..))) {
        return Err(format!(
            "plan `{}` tears a WAL at iteration {} ({:?}), and the wire has no WAL yet",
            plan.label, torn.iteration, torn.op
        ));
    }
    proxies.seed(plan.seed);

    let addrs: Vec<String> = (0..plan.config.num_nodes).map(|n| cluster.control_addr(n)).collect();
    let driver = ClusterDriver::attach(&plan.config, &addrs, Role::Admin, 0)?;
    let mut runner = WireRunner {
        cluster,
        proxies,
        driver,
        archived_history: Vec::new(),
        isolated: Vec::new(),
        violations: Vec::new(),
    };
    walk(plan, &mut runner)?;
    let WireRunner { mut driver, archived_history, mut violations, .. } = runner;

    let mut twin = EngineTarget::new(plan).map_err(|e| format!("twin engine: {e}"))?;
    walk(plan, &mut twin)?;
    let EngineTarget { engine: twin, recorder, violations: twin_violations_seen, .. } = twin;
    violations.extend(twin_violations_seen.into_iter().map(|v| format!("twin: {v}")));

    let mirror = driver.state().elections();
    if encode_elections(mirror) != encode_elections(twin.elections()) {
        violations.push(format!(
            "driver election mirror diverges from the twin: {mirror:?} vs {:?}",
            twin.elections()
        ));
    }
    let (committed, diverged) = twin_violations(&mut driver, archived_history, &twin, &recorder)?;
    violations.extend(diverged);
    Ok(WireReport { label: plan.label.clone(), seed: plan.seed, committed, violations })
}

/// Convenience wrapper: boots an in-process cluster behind a fresh proxy
/// mesh and replays `plan` against it.
pub fn replay_plan_in_process(plan: &ChaosPlan) -> Result<WireReport, String> {
    let proxies = ProxyMesh::start(plan.config.num_nodes)
        .map_err(|e| format!("cannot start proxy mesh: {e}"))?;
    let workload = build_workload(&plan.workload, plan.config.partitions);
    let mut cluster = InProcessCluster::start(plan.config.clone(), workload, &proxies)?;
    let report = replay_plan(plan, &mut cluster, &proxies);
    proxies.shutdown();
    report
}

/// Replays `plan` against real `star-serverd` child processes spawned
/// from `binary`, killed with SIGKILL and restarted by the supervisor.
/// The rendered bootstrap files must reproduce the plan's config and
/// workload exactly, so only bootstrap-expressible plans are accepted:
/// the [`crate::plans::parity_config`] cluster shape and the chaos YCSB
/// workload knobs.
pub fn replay_plan_with_processes(
    plan: &ChaosPlan,
    binary: &std::path::Path,
) -> Result<WireReport, String> {
    let rows = match plan.workload {
        WorkloadSpec::Ycsb { rows_per_partition } => rows_per_partition,
        WorkloadSpec::Kv { .. } => {
            return Err("star-serverd bootstraps only express YCSB workloads".to_string())
        }
    };
    let config = plan.config.clone();
    let expressible = crate::plans::parity_config(
        config.num_nodes,
        config.full_replicas,
        config.partitions,
        config.seed,
    );
    if config != expressible {
        return Err(format!(
            "plan `{}` uses a cluster shape the bootstrap grammar cannot express",
            plan.label
        ));
    }
    let dir =
        std::env::temp_dir().join(format!("star-wire-chaos-{}-{}", std::process::id(), plan.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let proxies =
        ProxyMesh::start(config.num_nodes).map_err(|e| format!("cannot start proxy mesh: {e}"))?;
    let render = |addrs: &[String]| {
        format!(
            "[cluster]\nnodes = [{}]\nfull_replicas = {}\nworkers_per_node = {}\n\
             partitions = {}\nseed = {}\nrecord_history = true\n\n[workload]\n\
             rows_per_partition = {}\n\
             ops_per_transaction = 4\nread_pct = 50.0\ncross_partition_pct = 30.0\n",
            addrs.iter().map(|a| format!("\"{a}\"")).collect::<Vec<_>>().join(", "),
            config.full_replicas,
            config.workers_per_node,
            config.partitions,
            config.seed,
            rows,
        )
    };
    let mut cluster =
        crate::cluster::ProcessCluster::start(binary, config.num_nodes, &proxies, &dir, render)?;
    let report = replay_plan(plan, &mut cluster, &proxies);
    proxies.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The supervisor around a [`ClusterDriver`] (see module docs).
struct WireRunner<'a> {
    cluster: &'a mut dyn WireCluster,
    proxies: &'a ProxyMesh,
    driver: ClusterDriver,
    /// Committed histories snapshotted from nodes at kill time (their
    /// recorders are volatile and die with the process).
    archived_history: Vec<CommittedTxn>,
    /// Nodes a crash has isolated and no fence has detected yet, in crash
    /// order: they keep executing while the proxies swallow their frames,
    /// and the next fence kills them.
    isolated: Vec<usize>,
    violations: Vec<String>,
}

impl WireRunner<'_> {
    fn apply_op(&mut self, op: &FaultOp) -> Result<(), String> {
        match op {
            FaultOp::Crash(node) => self.isolate(*node),
            FaultOp::Recover(node) => return self.recover(*node),
            FaultOp::RecoverInterrupted(node, fault) => self.recover_interrupted(*node, *fault),
            FaultOp::CutLink(a, b) => self.proxies.cut_link(*a, *b),
            FaultOp::HealLink(a, b) => self.proxies.heal_link(*a, *b),
            FaultOp::SetLinkFaults(from, to, faults) => {
                self.proxies.set_link_faults(*from, *to, *faults)
            }
            FaultOp::SetDefaultFaults(faults) => self.proxies.set_default_faults(*faults),
            FaultOp::ClearFaults => self.proxies.clear_faults(),
            // Only the twin's disk verdict reads it; no replica changes.
            FaultOp::Checkpoint => {}
            // `replay_plan` refuses these before the run starts.
            FaultOp::TruncateWal(..) => return Err(format!("{op:?} reached the wire runner")),
        }
        Ok(())
    }

    /// The simulator's crash: from now on the proxies swallow every frame to
    /// or from `node` without a fault-plane roll, while the node keeps
    /// executing until the fence that detects it. A node that is already
    /// down or isolated is left alone.
    fn isolate(&mut self, node: usize) {
        if self.driver.failed().get(node) == Some(&false) && !self.isolated.contains(&node) {
            self.proxies.set_node_failed(node, true);
            self.isolated.push(node);
        }
    }

    /// A fence detects an isolated node: its committed history is archived
    /// (the recorder dies with the process), then it is killed for real, and
    /// the driver's fence carries it as failed.
    fn kill(&mut self, node: usize) -> Result<(), String> {
        match self.driver.request(node, Request::Admin(AdminQuery::History))? {
            Response::History(txns) => {
                self.archived_history.extend(txns.iter().map(|t| t.to_committed()));
            }
            other => return Err(format!("node {node}: expected History, got {other:?}")),
        }
        self.driver.mark_failed(node);
        self.cluster.kill(node)
    }

    /// Restarts `node` and has the driver catch it up and rejoin it; its
    /// receive counters restart from what the proxies delivered to its
    /// address before the restart.
    fn recover(&mut self, node: usize) -> Result<(), String> {
        if !self.recoverable(node) {
            return Ok(());
        }
        let addr = self.cluster.restart(node)?;
        self.proxies.set_target(node, &addr);
        let senders = 0..self.driver.config().num_nodes;
        let recv_base: Vec<u64> = senders.map(|s| self.proxies.delivered(s, node)).collect();
        self.driver.rejoin(node, &addr, &recv_base)?;
        self.proxies.set_node_failed(node, false);
        Ok(())
    }

    /// The wire form of the engine's interrupted recovery: the target stays
    /// down (a fresh process never rejoined), and only the interruption's
    /// side effect lands — a crashed source, or a cut source→target link.
    /// The state the engine's partial copy would leave behind is erased by
    /// the eventual full recovery, so omitting the copy is unobservable.
    fn recover_interrupted(&mut self, node: usize, fault: RecoveryFault) {
        if !self.recoverable(node) {
            return;
        }
        // The engine interrupts the copy of the first partition the node holds.
        let config = self.driver.config();
        let first = config.held_partitions(node).into_iter().next();
        let source = first.and_then(|p| config.recovery_source(&self.driver.failed(), node, p));
        match (fault, source) {
            (RecoveryFault::SourceCrash, Some(source)) => self.isolate(source),
            (RecoveryFault::LinkCut, Some(source)) => self.proxies.cut_link(source, node),
            (RecoveryFault::TargetCrash, _) | (_, None) => {}
        }
    }

    /// Whether a recovery of `node` has anything to do: not for a node that
    /// is not down, and not for one holding a partition no healthy replica
    /// can source, which is reported with the simulator driver's violation
    /// phrasing.
    fn recoverable(&mut self, node: usize) -> bool {
        let failed = self.driver.failed();
        if failed.get(node) != Some(&true) {
            return false;
        }
        let feasible = self.driver.config().can_recover(&failed, node);
        if !feasible {
            self.violations.push(format!(
                "scheduled recovery of node {node} failed: no healthy replica holds every \
                 partition it needs"
            ));
        }
        feasible
    }

    /// Waits until the proxies have verdicted every frame the nodes report
    /// having shipped, then releases any reorder stashes.
    fn settle(&mut self) -> Result<(), String> {
        self.proxies.wait_settled(self.driver.last_sent(), SETTLE_TIMEOUT)?;
        self.proxies.flush_all();
        Ok(())
    }
}

impl ChaosTarget for WireRunner<'_> {
    fn run_partitioned(&mut self, txns: u64) -> Result<(), String> {
        self.driver.run_partitioned(txns).map(|_| ())
    }

    fn run_single_master(&mut self, txns: u64) -> Result<(), String> {
        self.driver.run_single_master(txns).map(|_| ())
    }

    /// Ops touch the proxy fault plane, so in-flight frames are settled
    /// first — the simulator applies ops between stepped halves with nothing
    /// in flight.
    fn inject(&mut self, ops: &[FaultOp]) -> Result<(), String> {
        self.settle()?;
        ops.iter().try_for_each(|op| self.apply_op(op))
    }

    /// Closes the current epoch: once the mesh has settled, the nodes a
    /// crash isolated are killed, and every live node waits for exactly what
    /// the proxies delivered to it.
    fn fence(&mut self) -> Result<(), String> {
        self.settle()?;
        for node in std::mem::take(&mut self.isolated) {
            self.kill(node)?;
        }
        self.driver.fence(&self.proxies.delivered_matrix())
    }
}
