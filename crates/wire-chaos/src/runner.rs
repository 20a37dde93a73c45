//! The wire chaos runner: drives a [`ChaosPlan`] against a real TCP
//! cluster behind the fault-injecting proxy mesh, runs the in-memory
//! simulation twin on the same (lowered) schedule, and compares the two
//! trajectories byte-for-byte.
//!
//! The runner is the wire-side [`ChaosTarget`] of `star_chaos::walk` (the
//! twin is the same walk over an [`EngineTarget`]): it owns the epoch
//! counter, the failure picture, the deterministic election mirror and the
//! cumulative per-executor transaction baselines, and lowers every schedule
//! op to wire actions — `Crash` becomes a real process/server kill at the
//! detecting fence (see [`crate::lower`]), `Recover` becomes a restart plus
//! a catch-up copy over `FetchPartition`/`InstallRecords` plus a `Rejoin`,
//! and link ops program the proxy fault plane.
//!
//! Verification at the end of a run, mirroring the transport-parity tests:
//!
//! * merged committed histories (kill-time archives + live nodes), stable
//!   sorted by `(epoch, executor)`, must be byte-identical to the twin's
//!   under `encode_history`;
//! * every live node's election log must be byte-identical to the twin's
//!   under `encode_elections` (and to the runner's own mirror);
//! * every live node's replica digest must equal the twin's replica of the
//!   same node id;
//! * the merged wire history must pass the serializability checker.

use crate::cluster::{InProcessCluster, WireCluster};
use crate::lower::lower_schedule;
use crate::proxy::ProxyMesh;
use star_chaos::{
    build_workload, check_history, walk, ChaosPlan, ChaosTarget, EngineTarget, FaultOp,
    InjectionPoint, WorkloadSpec,
};
use star_common::{ClusterConfig, Epoch};
use star_core::failure::hold_election;
use star_core::history::CommittedTxn;
use star_core::{FailureCase, MasterElection, RecoveryFault};
use star_proto::{
    encode_elections, encode_history, AdminQuery, Conn, Request, Response, Role, WireElection,
    WirePhase,
};
use star_serverd::replica_digest;
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
    /// Everything that went wrong: parity mismatches, serializability
    /// violations, infeasible recoveries. Empty means the replay passed.
    pub violations: Vec<String>,
}

impl WireReport {
    /// Whether the replay passed (no violations of any kind).
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replays `plan` against a cluster the caller booted behind `proxies`,
/// plus the simulation twin, and returns the comparison. The schedule is
/// lowered internally; plans carrying disk-simulation ops are an error.
pub fn replay_plan(
    plan: &ChaosPlan,
    cluster: &mut dyn WireCluster,
    proxies: &ProxyMesh,
) -> Result<WireReport, String> {
    if plan.expect_disk_recovery {
        return Err(format!(
            "plan `{}` expects Case-4 disk recovery, which has no wire equivalent",
            plan.label
        ));
    }
    let schedule = lower_schedule(&plan.schedule)?;
    proxies.seed(plan.seed);

    let mut runner = WireRunner::new(plan, cluster, proxies)?;
    walk(plan, &schedule, &mut runner)?;
    let WireOutcome {
        history: wire_history,
        elections: wire_elections,
        digests: wire_digests,
        mirror,
        mut violations,
    } = runner.finish()?;

    // The simulation twin: the same walk over the same lowered schedule.
    let mut twin = EngineTarget::new(plan).map_err(|e| format!("twin engine: {e}"))?;
    walk(plan, &schedule, &mut twin)?;
    let EngineTarget { engine: twin, recorder, violations: twin_violations, .. } = twin;
    twin.quiesce();
    let mut twin_history = recorder.committed();
    violations.extend(twin_violations.into_iter().map(|v| format!("twin: {v}")));
    // The twin records stepped half-phases interleaved across executors;
    // the wire merge is grouped per executor. The same stable sort puts
    // both in (epoch, executor) order without disturbing per-executor
    // program order, so the byte comparison sees canonical forms.
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

    let twin_elections = encode_elections(twin.elections());
    if encode_elections(&mirror) != twin_elections {
        violations.push(format!(
            "runner election mirror diverges from the twin: {mirror:?} vs {:?}",
            twin.elections()
        ));
    }
    for (node, log) in &wire_elections {
        let encoded = encode_elections(&log.iter().map(|e| (*e).to_election()).collect::<Vec<_>>());
        if encoded != twin_elections {
            violations.push(format!("node {node} election log diverges from the twin"));
        }
    }

    for (node, digest) in &wire_digests {
        let Some(twin_node) = twin.cluster().nodes().get(*node) else {
            violations.push(format!("node {node} has no twin counterpart"));
            continue;
        };
        let twin_digest = replica_digest(&twin_node.db);
        if *digest != twin_digest {
            violations.push(format!(
                "node {node} replica diverges: wire {digest:?} vs twin {twin_digest:?}"
            ));
        }
    }

    let report = check_history(&wire_history);
    if !report.is_serializable() {
        violations.push(format!("wire history is not serializable: {:?}", report.violation));
    }

    Ok(WireReport {
        label: plan.label.clone(),
        seed: plan.seed,
        committed: wire_history.len() as u64,
        violations,
    })
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
             partitions = {}\nseed = {}\n\n[workload]\nrows_per_partition = {}\n\
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

/// Everything the wire side hands to the comparison phase.
struct WireOutcome {
    history: Vec<CommittedTxn>,
    elections: Vec<(usize, Vec<WireElection>)>,
    digests: Vec<(usize, (u64, u64))>,
    mirror: Vec<MasterElection>,
    violations: Vec<String>,
}

/// The wire-side control loop (see module docs).
struct WireRunner<'a> {
    cluster: &'a mut dyn WireCluster,
    proxies: &'a ProxyMesh,
    config: ClusterConfig,
    epoch: Epoch,
    last_committed: Epoch,
    failed: Vec<bool>,
    /// The runner's deterministic election mirror (`hold_election`, the
    /// rule the engine and every node apply at the same fences).
    elections: Vec<MasterElection>,
    /// Cumulative transaction attempts per partition / per master worker —
    /// the fast-forward baselines shipped with every `RunPhase`.
    partition_baselines: Vec<u64>,
    master_baselines: Vec<u64>,
    /// `last_sent[s][t]`: cumulative frames node `s` has shipped towards
    /// `t`, rebased across restarts (a restarted node's mesh counters reset
    /// to zero; `sent_offsets` carries the pre-restart totals).
    last_sent: Vec<Vec<u64>>,
    sent_offsets: Vec<Vec<u64>>,
    /// Committed histories snapshotted from nodes at kill time (their
    /// recorders are volatile and die with the process).
    archived_history: Vec<CommittedTxn>,
    /// Kills requested by `RecoverInterrupted(SourceCrash)` side effects;
    /// executed at the next fence point, where the lowered schedule would
    /// place them.
    pending_kills: Vec<usize>,
    conns: Vec<Option<Conn>>,
    violations: Vec<String>,
}

impl<'a> WireRunner<'a> {
    fn new(
        plan: &ChaosPlan,
        cluster: &'a mut dyn WireCluster,
        proxies: &'a ProxyMesh,
    ) -> Result<WireRunner<'a>, String> {
        let config = plan.config.clone();
        let n = config.num_nodes;
        let mut conns = Vec::with_capacity(n);
        for node in 0..n {
            let addr = cluster.control_addr(node);
            let conn = Conn::connect(&addr, Role::Admin, 0)
                .map_err(|e| format!("cannot connect to node {node} at {addr}: {e}"))?;
            conns.push(Some(conn));
        }
        Ok(WireRunner {
            cluster,
            proxies,
            epoch: 1,
            last_committed: 0,
            failed: vec![false; n],
            elections: MasterElection::initial_log(&config),
            partition_baselines: vec![0; config.partitions],
            master_baselines: vec![0; config.workers_per_node],
            last_sent: vec![vec![0; n]; n],
            sent_offsets: vec![vec![0; n]; n],
            archived_history: Vec::new(),
            pending_kills: Vec::new(),
            conns,
            violations: Vec::new(),
            config,
        })
    }

    fn failed_ids(&self) -> Vec<u32> {
        self.failed.iter().enumerate().filter_map(|(n, &f)| f.then_some(n as u32)).collect()
    }

    /// Whether the partitioned phase runs at all in the current failure
    /// picture — same gate as the engine (`FailureCase::available`).
    fn partitioned_available(&self) -> bool {
        FailureCase::classify(&self.config, &self.failed).map(|c| c.available()).unwrap_or(false)
    }

    fn current_master(&self) -> Option<usize> {
        self.elections.last().and_then(|e| e.master)
    }

    fn request(&mut self, node: usize, body: Request) -> Result<Response, String> {
        let conn = self.conns[node]
            .as_mut()
            .ok_or_else(|| format!("no connection to node {node} (it is down)"))?;
        conn.request(body).map_err(|e| format!("request to node {node} failed: {e}"))
    }

    /// Folds a node's cumulative `PhaseDone.sent` counters (which reset to
    /// zero across restarts) into the runner's rebased shipping totals.
    fn note_sent(&mut self, node: usize, sent: &[u64]) {
        for (t, &count) in sent.iter().enumerate() {
            self.last_sent[node][t] = self.sent_offsets[node][t] + count;
        }
    }

    fn apply_op(&mut self, op: &FaultOp) -> Result<(), String> {
        match op {
            FaultOp::Crash(node) => self.do_kill(*node),
            FaultOp::Recover(node) => self.do_recover(*node),
            FaultOp::RecoverInterrupted(node, fault) => self.do_recover_interrupted(*node, *fault),
            FaultOp::CutLink(a, b) => {
                self.proxies.cut_link(*a, *b);
                Ok(())
            }
            FaultOp::HealLink(a, b) => {
                self.proxies.heal_link(*a, *b);
                Ok(())
            }
            FaultOp::SetLinkFaults(from, to, faults) => {
                self.proxies.set_link_faults(*from, *to, *faults);
                Ok(())
            }
            FaultOp::SetDefaultFaults(faults) => {
                self.proxies.set_default_faults(*faults);
                Ok(())
            }
            FaultOp::ClearFaults => {
                self.proxies.clear_faults();
                Ok(())
            }
            // `lower_schedule` rejects these before the run starts.
            FaultOp::Checkpoint | FaultOp::TruncateWal(..) => {
                Err(format!("unlowerable op {op:?} reached the wire runner"))
            }
        }
    }

    /// Archives the node's committed history, then kills it for real. The
    /// next fence carries the node in its `failed` list, which is what
    /// makes the survivors revert the in-flight epoch.
    fn do_kill(&mut self, node: usize) -> Result<(), String> {
        if self.failed[node] {
            return Ok(());
        }
        match self.request(node, Request::Admin(AdminQuery::History))? {
            Response::History(txns) => {
                self.archived_history.extend(txns.iter().map(|t| t.to_committed()));
            }
            other => return Err(format!("node {node}: expected History, got {other:?}")),
        }
        self.conns[node] = None;
        self.cluster.kill(node)?;
        self.proxies.set_node_failed(node, true);
        self.failed[node] = true;
        Ok(())
    }

    /// Restarts `node`, catches its fresh replica up from healthy holders
    /// (the wire form of the engine's `recover_node` copy loop) and rejoins
    /// it to the cluster's epoch/election/counter state.
    fn do_recover(&mut self, node: usize) -> Result<(), String> {
        let Some(copies) = self.recovery_copies(node) else { return Ok(()) };
        let addr = self.cluster.restart(node)?;
        self.proxies.set_target(node, &addr);
        if let (Some(offset), Some(sent)) =
            (self.sent_offsets.get_mut(node), self.last_sent.get(node))
        {
            *offset = sent.clone();
        }
        let conn = Conn::connect(&addr, Role::Admin, 0)
            .map_err(|e| format!("cannot reconnect to restarted node {node}: {e}"))?;
        if let Some(slot) = self.conns.get_mut(node) {
            *slot = Some(conn);
        }

        for (partition, source) in copies {
            let records = match self
                .request(source, Request::FetchPartition { partition: partition as u32 })?
            {
                Response::Records(records) => records,
                other => return Err(format!("node {source}: expected Records, got {other:?}")),
            };
            match self.request(node, Request::InstallRecords { records })? {
                Response::InstallDone { .. } => {}
                other => return Err(format!("node {node}: expected InstallDone, got {other:?}")),
            }
        }

        if let Some(failed) = self.failed.get_mut(node) {
            *failed = false;
        }
        self.proxies.set_node_failed(node, false);
        let rejoin = Request::Rejoin {
            epoch: self.epoch,
            last_committed: self.last_committed,
            failed: self.failed_ids(),
            elections: self.elections.iter().map(WireElection::from_election).collect(),
            recv_base: (0..self.config.num_nodes)
                .map(|s| self.proxies.delivered(s, node))
                .collect(),
        };
        match self.request(node, rejoin)? {
            Response::Ok => Ok(()),
            other => Err(format!("node {node}: expected Ok to Rejoin, got {other:?}")),
        }
    }

    /// The wire form of the engine's interrupted recovery: the target stays
    /// down (a fresh process never rejoined), and only the interruption's
    /// side effect lands — a doomed source, or a cut source→target link.
    /// The state the engine's partial copy would leave behind is erased by
    /// the eventual full recovery, so omitting the copy is unobservable.
    fn do_recover_interrupted(&mut self, node: usize, fault: RecoveryFault) -> Result<(), String> {
        let Some(copies) = self.recovery_copies(node) else { return Ok(()) };
        let Some(&(_, source)) = copies.first() else { return Ok(()) };
        match fault {
            RecoveryFault::SourceCrash => self.pending_kills.push(source),
            RecoveryFault::TargetCrash => {}
            RecoveryFault::LinkCut => self.proxies.cut_link(source, node),
        }
        Ok(())
    }

    /// The `(partition, recovery source)` copies a recovery of the crashed
    /// `node` makes, in partition order. `None` — nothing to do — for a node
    /// that is not down, and for one holding a partition no healthy replica
    /// can source, which is reported with the simulator driver's violation
    /// phrasing.
    fn recovery_copies(&mut self, node: usize) -> Option<Vec<(usize, usize)>> {
        if self.failed.get(node) != Some(&true) {
            return None;
        }
        let held = self.config.held_partitions(node);
        let copies: Option<Vec<_>> = held
            .into_iter()
            .map(|p| Some((p, self.config.recovery_source(&self.failed, node, p)?)))
            .collect();
        if copies.is_none() {
            self.violations.push(format!(
                "scheduled recovery of node {node} failed: no healthy replica holds every \
                 partition it needs"
            ));
        }
        copies
    }

    /// Waits until the proxies have verdicted every frame the nodes report
    /// having shipped, then releases any reorder stashes.
    fn settle(&mut self) -> Result<(), String> {
        self.proxies.wait_settled(&self.last_sent, SETTLE_TIMEOUT)?;
        self.proxies.flush_all();
        Ok(())
    }

    /// Collects the merged history, per-live-node election logs and
    /// digests after the run.
    fn finish(mut self) -> Result<WireOutcome, String> {
        let mut history = std::mem::take(&mut self.archived_history);
        let mut elections = Vec::new();
        let mut digests = Vec::new();
        for node in 0..self.config.num_nodes {
            if self.failed[node] {
                continue;
            }
            match self.request(node, Request::Admin(AdminQuery::History))? {
                Response::History(txns) => history.extend(txns.iter().map(|t| t.to_committed())),
                other => return Err(format!("node {node}: expected History, got {other:?}")),
            }
            match self.request(node, Request::Admin(AdminQuery::Elections))? {
                Response::Elections(log) => elections.push((node, log)),
                other => return Err(format!("node {node}: expected Elections, got {other:?}")),
            }
            match self.request(node, Request::Admin(AdminQuery::ReplicaDigest))? {
                Response::Digest { records, digest } => digests.push((node, (records, digest))),
                other => return Err(format!("node {node}: expected Digest, got {other:?}")),
            }
        }
        // Per-node histories are in execution order; the stable sort by
        // (epoch, executor) interleaves them into the twin's global order.
        history.sort_by_key(|t| (t.epoch, t.executor));
        Ok(WireOutcome {
            history,
            elections,
            digests,
            mirror: self.elections,
            violations: self.violations,
        })
    }
}

impl ChaosTarget for WireRunner<'_> {
    fn run_partitioned(&mut self, txns: u64) -> Result<(), String> {
        if txns == 0 || !self.partitioned_available() {
            return Ok(());
        }
        let failed = self.failed_ids();
        let baselines = self.partition_baselines.clone();
        for node in 0..self.config.num_nodes {
            if self.failed[node] {
                continue;
            }
            let response = self.request(
                node,
                Request::RunPhase {
                    phase: WirePhase::Partitioned,
                    epoch: self.epoch,
                    txns,
                    baselines: baselines.clone(),
                    failed: failed.clone(),
                },
            )?;
            match response {
                Response::PhaseDone { sent, .. } => self.note_sent(node, &sent),
                other => return Err(format!("node {node}: expected PhaseDone, got {other:?}")),
            }
        }
        // Every partition has an effective primary when the system is
        // available, so every partition's stream advanced.
        for baseline in &mut self.partition_baselines {
            *baseline += txns;
        }
        Ok(())
    }

    fn run_single_master(&mut self, txns: u64) -> Result<(), String> {
        let Some(master) = self.current_master() else { return Ok(()) };
        if txns == 0 {
            return Ok(());
        }
        let response = self.request(
            master,
            Request::RunPhase {
                phase: WirePhase::SingleMaster,
                epoch: self.epoch,
                txns,
                baselines: self.master_baselines.clone(),
                failed: self.failed_ids(),
            },
        )?;
        match response {
            Response::PhaseDone { sent, .. } => self.note_sent(master, &sent),
            other => return Err(format!("node {master}: expected PhaseDone, got {other:?}")),
        }
        for baseline in &mut self.master_baselines {
            *baseline += txns;
        }
        Ok(())
    }

    /// Applies the ops scheduled at `point`, plus any pending kills when the
    /// point is a fence boundary. Ops touch the proxy fault plane, so
    /// in-flight frames are settled first — the simulator applies ops between
    /// stepped halves with nothing in flight.
    fn inject(&mut self, point: InjectionPoint, ops: &[FaultOp]) -> Result<(), String> {
        let fence_point =
            matches!(point, InjectionPoint::BeforeFirstFence | InjectionPoint::BeforeSecondFence);
        let must_flush_kills = fence_point && !self.pending_kills.is_empty();
        if ops.is_empty() && !must_flush_kills {
            return Ok(());
        }
        self.settle()?;
        for op in ops {
            self.apply_op(op)?;
        }
        if fence_point {
            for node in std::mem::take(&mut self.pending_kills) {
                self.do_kill(node)?;
            }
        }
        Ok(())
    }

    /// Closes the current epoch on every live node, mirrors the engine's
    /// fence-time election rule, and advances the epoch.
    fn fence(&mut self) -> Result<(), String> {
        self.settle()?;
        let delivered = self.proxies.delivered_matrix();
        let failed = self.failed_ids();
        let live: Vec<usize> = (0..self.config.num_nodes).filter(|&n| !self.failed[n]).collect();
        for node in live {
            let expected: Vec<u64> =
                (0..self.config.num_nodes).map(|s| delivered[s][node]).collect();
            match self.request(
                node,
                Request::Fence { epoch: self.epoch, expected, failed: failed.clone() },
            )? {
                Response::FenceDone { epoch, .. } if epoch == self.epoch => {}
                Response::FenceDone { epoch, .. } => {
                    return Err(format!(
                        "node {node} fenced epoch {epoch}, supervisor expected {}",
                        self.epoch
                    ))
                }
                other => return Err(format!("node {node}: expected FenceDone, got {other:?}")),
            }
        }
        hold_election(&mut self.elections, &self.config, &self.failed, self.epoch);
        self.last_committed = self.epoch;
        self.epoch += 1;
        Ok(())
    }
}
