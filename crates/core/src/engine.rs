//! The phase-switching execution engine.
//!
//! [`StarEngine`] is N [`StarNode`]s on the simulated network, driven
//! through alternating partitioned and single-master phases separated by
//! replication fences, exactly as in Figure 5 of the paper:
//!
//! 1. derive `τp` and `τs` from the iteration time, the cross-partition
//!    fraction and the measured phase throughputs (Equations 1–2);
//! 2. run the partitioned phase: one worker per partition executes
//!    single-partition transactions with no concurrency control, replicating
//!    committed writes asynchronously (operation replication under the hybrid
//!    strategy);
//! 3. replication fence: every healthy replica applies all outstanding
//!    writes, failures are detected, the epoch is advanced;
//! 4. run the single-master phase: worker threads on the designated master
//!    (a full replica) execute cross-partition transactions under the Silo
//!    OCC protocol, replicating committed writes as full rows (value
//!    replication);
//! 5. another replication fence.
//!
//! Transactions are only released to clients at the fence that closes their
//! epoch, so commit latency is dominated by the iteration time — this is the
//! epoch-based group commit the latency table (Figure 12) reports.
//!
//! Everything about one node — its replica, WAL, worker states, which jobs it
//! runs and its half of the fence and of a recovery copy — is the node's
//! ([`StarNode`], the same type a `star-serverd` process is one of). The
//! engine holds what spans the cluster: one epoch clock, the simulated
//! network, the commit queue behind the fences, and the timing of
//! `run_for`. It reads each stream's catch-up baseline off its own nodes.

use crate::exec::{PhaseBudget, WorkerOutcome};
use crate::failure::{EpochState, FailureCase, MasterElection};
use crate::history::HistoryRecorder;
use crate::messages::ReplicationBatch;
use crate::node::{wal_file, PhaseJob, StarNode};
use crate::phase::PhasePlan;
use crate::workload::Workload;
use star_common::stats::{LatencyHistogram, RunCounters, RunReport};
use star_common::{ClusterConfig, Epoch, Error, NodeId, Result, Row, Tid};
use star_net::{Endpoint, NetworkConfig, SimNetwork};
use star_replication::{CommitQueue, DrainMode, EncodedEntry, EpochDrain, ExecutionPhase};
use star_storage::Database;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinguishes the WAL directories of engines built inside the same
/// process (tests and the chaos harness construct many engines in parallel;
/// sharing one directory would interleave their logs).
static WAL_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// A node of the simulated cluster: a [`StarNode`] on the simulated network.
pub type SimNode = StarNode<Endpoint<ReplicationBatch>>;

/// How a memory-to-memory recovery is interrupted mid-copy (the chaos
/// harness's recovery-path fault injection; see
/// [`StarEngine::recover_node_interrupted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryFault {
    /// The node serving the copy crashes mid-stream; the fence detects it
    /// like any other crash.
    SourceCrash,
    /// The recovering node crashes again before the copy completes; it
    /// simply stays down.
    TargetCrash,
    /// The link carrying the recovery state is cut mid-copy; both nodes
    /// survive but the recovery aborts (heal the link before retrying).
    LinkCut,
}

/// What an interrupted recovery managed to do before the fault fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterruptedRecovery {
    /// The node that was serving the aborted copy.
    pub source: NodeId,
    /// Records copied before the interruption (a partial prefix; safe to
    /// leave in place because the copy is idempotent under the Thomas write
    /// rule and a later successful recovery re-copies everything).
    pub records_copied: usize,
}

/// One phase's share of an iteration: wall-clock time on the timed path, a
/// fixed number of attempts per worker on the deterministic stepped path.
#[derive(Debug, Clone, Copy)]
enum PhaseShare {
    Time(Duration),
    Attempts(u64),
}

impl PhaseShare {
    fn is_empty(self) -> bool {
        match self {
            PhaseShare::Time(tau) => tau.is_zero(),
            PhaseShare::Attempts(count) => count == 0,
        }
    }
}

/// Result of one phase execution (all zero for a phase that did not run).
#[derive(Default)]
struct PhaseResult {
    committed: u64,
    /// Wall-clock length of a timed phase; zero on the stepped path.
    elapsed: Duration,
    /// Commit instants of sampled transactions (latency is closed at the next
    /// fence).
    samples: Vec<Instant>,
}

/// Runs every phase job and sums their outcomes. A timed share arms one
/// deadline and gives every job its own scoped thread; a stepped share runs
/// the jobs sequentially in job order — partitioned-phase jobs touch
/// disjoint partitions, so this is semantically the threaded phase, but the
/// committed history, the replication message sequence and every
/// fault-plane decision become pure functions of the configuration seed (the
/// chaos harness's "identical seed ⇒ identical history" contract).
fn run_jobs(share: PhaseShare, jobs: Vec<PhaseJob<'_>>) -> PhaseResult {
    let mut result = PhaseResult::default();
    let outcomes: Vec<WorkerOutcome> = match share {
        PhaseShare::Attempts(count) => {
            jobs.into_iter().map(|job| job.run(PhaseBudget::Count(count))).collect()
        }
        PhaseShare::Time(tau) => {
            // star-lint: allow(determinism::instant-now) -- the timed path races a wall-clock deadline by definition; stepped runs take the Attempts arm
            let start = Instant::now();
            let budget = PhaseBudget::Deadline(start + tau);
            let outcomes = std::thread::scope(|scope| {
                let handles: Vec<_> =
                    jobs.into_iter().map(|job| scope.spawn(move || job.run(budget))).collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("phase worker panicked"))
                    .collect()
            });
            result.elapsed = start.elapsed();
            outcomes
        }
    };
    for mut outcome in outcomes {
        result.committed += outcome.committed;
        result.samples.append(&mut outcome.samples);
    }
    result
}

/// The STAR engine: N [`StarNode`]s on the simulated network, one epoch
/// clock, and the commit queue behind the fences.
pub struct StarEngine {
    config: ClusterConfig,
    /// Full replicas on the first `f` nodes, partial replicas elsewhere.
    nodes: Vec<SimNode>,
    network: SimNetwork,
    workload: Arc<dyn Workload>,
    plan: PhasePlan,
    /// Epoch in flight, last committed epoch, detected failures and the
    /// election log: what every fence advances.
    clock: EpochState,
    counters: Arc<RunCounters>,
    latency: LatencyHistogram,
    /// Directory holding the per-node WAL files when disk logging is on.
    wal_dir: Option<PathBuf>,
    /// Optional committed-history recorder (chaos harness).
    history: Option<Arc<HistoryRecorder>>,
    /// Epochs that were discarded by an epoch revert, in detection order.
    reverted_epochs: Vec<Epoch>,
    /// Completion-tracked queue for the asynchronous tail of each epoch's
    /// group commit (deferred replica applies and WAL flushes).
    commit_queue: CommitQueue,
    /// Which phase the most recent fence's deferred applies are safe to
    /// overlap with (`None`: no deferred applies pending).
    drain_safe_for: Option<ExecutionPhase>,
    /// The report of the most recent `run_for` window, replayed by
    /// [`Engine::report`](crate::engine_api::Engine::report).
    last_report: Option<RunReport>,
}

impl std::fmt::Debug for StarEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StarEngine")
            .field("epoch", &self.clock.epoch())
            .field("nodes", &self.nodes.len())
            .field("failed", &self.clock.failed())
            .finish()
    }
}

impl Drop for StarEngine {
    fn drop(&mut self) {
        // Complete any in-flight epoch drain first: pending jobs hold Arcs
        // to the WAL writers and replica databases, and flushing into files
        // that are about to be unlinked would be wasted work.
        self.commit_queue.quiesce();
        // The per-engine WAL directory models this cluster's disks; once the
        // engine is gone nothing can read it back (wal_paths() borrows the
        // engine), and chaos sweeps build thousands of engines, so remove it.
        // The nodes — and with them their writers, which for a crashed,
        // never-recovered node still hold an open handle with unflushed
        // bytes — go first: unlinking open files is platform-dependent.
        self.nodes.clear();
        if let Some(dir) = self.wal_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl StarEngine {
    /// Builds the engine: the simulated network plus one [`StarNode`] per
    /// node, each with its replica loaded with the workload.
    pub fn new(config: ClusterConfig, workload: Arc<dyn Workload>) -> Result<Self> {
        config.validate().map_err(Error::Config)?;
        if workload.num_partitions() != config.partitions {
            return Err(Error::Config(format!(
                "workload has {} partitions but the cluster is configured for {}",
                workload.num_partitions(),
                config.partitions
            )));
        }
        let counters = Arc::new(RunCounters::new());
        let net_config = NetworkConfig::with_latency(config.network_latency);
        let (network, endpoints) = SimNetwork::new(config.num_nodes, net_config);
        let mut nodes: Vec<SimNode> = (endpoints.into_iter().enumerate())
            .map(|(id, endpoint)| {
                StarNode::new(&config, Arc::clone(&workload), id, endpoint, Arc::clone(&counters))
            })
            .collect();
        let wal_dir = if config.disk_logging {
            let dir = std::env::temp_dir().join(format!(
                "star-wal-{}-{}",
                std::process::id(),
                WAL_INSTANCE.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir)
                .map_err(|e| Error::Durability(format!("cannot create WAL dir: {e}")))?;
            if let Err(e) = nodes.iter_mut().try_for_each(|node| node.open_wal(&dir)) {
                // No engine will ever own the directory we just created, so
                // its Drop cannot clean it up — do it here or the
                // half-initialised directory leaks.
                let _ = std::fs::remove_dir_all(&dir);
                return Err(e);
            }
            Some(dir)
        } else {
            None
        };
        let plan = PhasePlan::new(workload.mix().cross_partition_fraction);
        // Deferred outside `run_for`: drains are pumped at deterministic
        // points (the next fence, or a quiesce), which keeps the stepped
        // drivers and the chaos corpus bit-reproducible. The timed path
        // switches to Background for the duration of `run_for`.
        let commit_queue = CommitQueue::new(DrainMode::Deferred, Arc::clone(&counters));
        Ok(StarEngine {
            clock: EpochState::new(&config),
            config,
            nodes,
            network,
            workload,
            plan,
            counters,
            latency: LatencyHistogram::new(),
            wal_dir,
            history: None,
            reverted_epochs: Vec::new(),
            commit_queue,
            drain_safe_for: None,
            last_report: None,
        })
    }

    /// Completes the pending epoch drain unless its deferred applies were
    /// chosen for exactly the phase about to run. Called on entry to every
    /// phase: a fence hint can mispredict (the failure picture or the plan
    /// changed), and running a phase over replicas whose applies were
    /// deferred *for a different reader* would serve stale records.
    fn ensure_drain_safe(&mut self, phase: ExecutionPhase) {
        if self.drain_safe_for.is_some_and(|safe_for| safe_for != phase) {
            self.commit_queue.wait_for(self.clock.last_committed());
            self.drain_safe_for = None;
        }
    }

    /// Completes every outstanding epoch drain. After this returns, all
    /// replica copies reflect every committed epoch and all WAL buffers have
    /// been flushed — required before inspecting replicas or WAL files
    /// directly.
    pub fn quiesce(&self) {
        self.commit_queue.quiesce();
    }

    /// Epochs whose commit drains are still queued behind the fence
    /// (tests and debugging).
    pub fn pending_drains(&self) -> Vec<Epoch> {
        self.commit_queue.pending_epochs()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Every node, indexed by id.
    pub fn nodes(&self) -> &[SimNode] {
        &self.nodes
    }

    /// The simulated network (failure and fault injection).
    pub fn network(&self) -> &SimNetwork {
        &self.network
    }

    /// The current global epoch.
    pub fn epoch(&self) -> Epoch {
        self.clock.epoch()
    }

    /// The shared run counters.
    pub fn counters(&self) -> &RunCounters {
        &self.counters
    }

    /// The last epoch that was closed by a replication fence (the newest
    /// epoch whose transactions have been released to clients).
    pub fn last_committed_epoch(&self) -> Epoch {
        self.clock.last_committed()
    }

    /// Attaches a committed-history recorder. Every subsequently committed
    /// transaction is recorded (with its observed read versions and installed
    /// rows) and finalized or discarded at the fence closing its epoch.
    pub fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        for node in &mut self.nodes {
            node.set_history(Some(Arc::clone(&recorder)));
        }
        self.history = Some(recorder);
    }

    /// Epochs that were discarded by an epoch revert (failure detection at a
    /// fence), in detection order. Disk recovery uses this to skip WAL
    /// entries from epochs that never group-committed.
    pub fn reverted_epochs(&self) -> &[Epoch] {
        &self.reverted_epochs
    }

    /// The directory holding this engine's per-node WAL files, when disk
    /// logging is enabled. Quiesces pending epoch drains first so the files
    /// on disk reflect every committed epoch.
    pub fn wal_dir(&self) -> Option<&Path> {
        self.commit_queue.quiesce();
        self.wal_dir.as_deref()
    }

    /// The per-node WAL file paths (index = node id), when disk logging is
    /// enabled. Quiesces pending epoch drains first (see
    /// [`wal_dir`](Self::wal_dir)): callers read or truncate these files, and
    /// a deferred WAL flush landing afterwards would corrupt the experiment.
    pub fn wal_paths(&self) -> Vec<PathBuf> {
        self.commit_queue.quiesce();
        match &self.wal_dir {
            Some(dir) => (0..self.config.num_nodes).map(|n| wal_file(dir, n)).collect(),
            None => Vec::new(),
        }
    }

    /// The current failure classification of the cluster. It cannot fail
    /// (one flag per node); the `Result` carries [`FailureCase::classify`]'s
    /// typed contract instead of panicking on it.
    pub fn failure_case(&self) -> Result<FailureCase> {
        FailureCase::classify(&self.config, self.clock.failed())
            .map_err(|e| Error::Config(e.to_string()))
    }

    /// Marks a node as failed in the simulated network. The failure is
    /// *detected* (and the database reverted to the last committed epoch) at
    /// the next replication fence, mirroring the paper's coordinator-driven
    /// detection.
    pub fn inject_failure(&mut self, node: NodeId) {
        self.network.fail_node(node);
    }

    /// Which nodes are currently known (detected) to be failed.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        self.failure_flags().iter().enumerate().filter(|(_, f)| **f).map(|(n, _)| n).collect()
    }

    /// The detected-failure flag of every node (index = node id): the
    /// `failed` argument of the [`ClusterConfig`] routing rules, e.g.
    /// `engine.config().effective_primary(engine.failure_flags(), p)`.
    pub fn failure_flags(&self) -> &[bool] {
        self.clock.failed()
    }

    /// Whether `node` is marked failed. Out-of-range ids count as failed:
    /// they can never serve a phase, win an election, or source a recovery.
    fn is_failed(&self, node: NodeId) -> bool {
        self.clock.failed().get(node).copied().unwrap_or(true)
    }

    /// The node currently acting as the designated master: the winner of the
    /// most recent election (held at every replication fence, after failure
    /// detection). `None` while no healthy full replica exists.
    pub fn current_master(&self) -> Option<NodeId> {
        self.clock.current_master()
    }

    /// Generation of the current master election. Bumps exactly when the
    /// elected master changes (including to/from `None`), so a re-election
    /// storm is visible as a strictly increasing generation sequence.
    pub fn master_generation(&self) -> u64 {
        self.elections().last().map_or(0, |e| e.generation)
    }

    /// The full election log, in order. Index 0 is the initial appointment
    /// at engine construction; later entries record fence-time re-elections.
    pub fn elections(&self) -> &[MasterElection] {
        self.clock.elections()
    }

    /// Runs the engine for (at least) `duration`, returning a report with the
    /// throughput, latency distribution and traffic counters of the window.
    pub fn run_for(&mut self, duration: Duration) -> RunReport {
        // Timed runs drain each epoch's commit tail on a background worker so
        // it overlaps the next phase's execution; the deterministic Deferred
        // mode is restored — and pending drains completed — before
        // returning, so callers can inspect replicas right away.
        self.commit_queue.set_mode(DrainMode::Background);
        // star-lint: allow(determinism::instant-now) -- the measurement window of the timed path
        let start = Instant::now();
        let before = self.counters.snapshot();
        while start.elapsed() < duration {
            self.run_iteration();
        }
        self.commit_queue.set_mode(DrainMode::Deferred);
        let elapsed = start.elapsed();
        let window = self.counters.snapshot().since(&before);
        let report = RunReport::new(
            "STAR",
            self.workload.name(),
            self.workload.mix().percentage(),
            elapsed,
            window,
            std::mem::take(&mut self.latency),
        );
        self.last_report = Some(report.clone());
        report
    }

    /// Executes exactly one timed iteration (partitioned phase, fence,
    /// single-master phase, fence). Exposed for tests and for the
    /// phase-overhead benchmark.
    pub fn run_iteration(&mut self) {
        // Adapt the iteration length to the observed commit mix: at low
        // cross-partition ratios the fences are nearly free (almost all
        // replication drains behind them), so shorter iterations cut the
        // group-commit latency without costing throughput.
        let iteration = self.plan.adaptive_iteration(self.config.iteration);
        let (tau_p, tau_s) = self.plan.split(iteration);
        let (partitioned, single_master) =
            self.run_phases(PhaseShare::Time(tau_p), PhaseShare::Time(tau_s));
        self.plan.observe_partitioned(partitioned.committed, partitioned.elapsed);
        self.plan.observe_single_master(single_master.committed, single_master.elapsed);
        self.plan.observe_mix(partitioned.committed, single_master.committed);
    }

    /// One fully deterministic iteration: the attempt counts replace the
    /// `τp` / `τs` split of [`run_iteration`](Self::run_iteration). Outside
    /// `run_for` drains are pumped at the next fence, so the stepped driver
    /// exercises the pipelined fence path and stays deterministic.
    pub fn run_iteration_stepped(&mut self, partitioned_txns: u64, single_master_txns: u64) {
        self.run_phases(
            PhaseShare::Attempts(partitioned_txns),
            PhaseShare::Attempts(single_master_txns),
        );
    }

    /// The iteration both drivers share: partitioned phase, fence,
    /// single-master phase, fence. Execution time and sampled commit
    /// latencies are non-zero on the timed path only.
    fn run_phases(
        &mut self,
        partitioned: PhaseShare,
        single_master: PhaseShare,
    ) -> (PhaseResult, PhaseResult) {
        let partitioned_result = self.run_phase(ExecutionPhase::Partitioned, partitioned);
        // The fence hint anticipates which phase runs next so the fence can
        // defer every replica apply that phase will not read. A mispredicted
        // hint (the failure picture changed at the fence) is caught by the
        // phases themselves: they complete a drain deferred for a different
        // phase before touching any replica (`ensure_drain_safe`).
        let next = if !single_master.is_empty() && self.current_master().is_some() {
            ExecutionPhase::SingleMaster
        } else {
            ExecutionPhase::Partitioned
        };
        let fence_end = self.replication_fence(Some(next));
        self.close_phase(&partitioned_result, fence_end);

        let single_master_result = self.run_phase(ExecutionPhase::SingleMaster, single_master);
        let next = if partitioned.is_empty() && self.current_master().is_some() {
            // A pure cross-partition plan starts the next iteration with the
            // single-master phase again.
            ExecutionPhase::SingleMaster
        } else {
            ExecutionPhase::Partitioned
        };
        let fence_end = self.replication_fence(Some(next));
        self.close_phase(&single_master_result, fence_end);
        (partitioned_result, single_master_result)
    }

    /// Accounts a phase's execution time and releases its sampled commits at
    /// `fence_end`, the group-commit point of the epoch the phase ran in.
    fn close_phase(&mut self, phase: &PhaseResult, fence_end: Instant) {
        self.counters.add_execution(phase.elapsed);
        for &commit_instant in &phase.samples {
            self.latency.record(fence_end.saturating_duration_since(commit_instant));
        }
    }

    /// Runs one phase — the partitioned phase while the system is available,
    /// the single-master phase while a master is elected — as every node's
    /// jobs in index order (partition 0, then 1, …, whatever node holds
    /// each). A worker behind its stream (the most attempts any node's
    /// worker of it has made) catches up first: a failover here takes the
    /// path it takes on the wire. With one master worker the OCC commit never
    /// aborts on contention, so a stepped phase is a pure function of the
    /// seed.
    fn run_phase(&mut self, phase: ExecutionPhase, share: PhaseShare) -> PhaseResult {
        let (runs, streams) = match phase {
            ExecutionPhase::Partitioned => {
                (self.failure_case().is_ok_and(FailureCase::available), self.config.partitions)
            }
            ExecutionPhase::SingleMaster => {
                (self.current_master().is_some(), self.config.workers_per_node)
            }
        };
        if share.is_empty() || !runs {
            return PhaseResult::default();
        }
        self.ensure_drain_safe(phase);
        let baselines: Vec<u64> = (0..streams)
            .map(|i| self.nodes.iter().map(|node| node.attempts(phase, i)).max().unwrap_or(0))
            .collect();
        let (clock, failed) = (&self.clock, self.clock.failed());
        let mut jobs: Vec<PhaseJob<'_>> = Vec::new();
        for node in &mut self.nodes {
            jobs.append(&mut match phase {
                ExecutionPhase::Partitioned => node.partition_jobs(clock, failed, &baselines),
                ExecutionPhase::SingleMaster => node.master_jobs(clock, failed, &baselines),
            });
        }
        jobs.sort_by_key(PhaseJob::index);
        run_jobs(share, jobs)
    }

    /// Deterministic, single-threaded partitioned phase: each partition's
    /// worker makes exactly `txns_per_partition` attempts, in partition
    /// order. Returns the number of committed transactions.
    pub fn run_partitioned_phase_stepped(&mut self, txns_per_partition: u64) -> u64 {
        self.run_phase(ExecutionPhase::Partitioned, PhaseShare::Attempts(txns_per_partition))
            .committed
    }

    /// Deterministic, single-threaded single-master phase: each master worker
    /// executes exactly `txns_per_worker` transaction attempts, in worker
    /// order. Returns the number of committed transactions.
    pub fn run_single_master_phase_stepped(&mut self, txns_per_worker: u64) -> u64 {
        self.run_phase(ExecutionPhase::SingleMaster, PhaseShare::Attempts(txns_per_worker))
            .committed
    }

    /// Executes a replication fence: complete the previous epoch's pending
    /// drain, detect failures, apply the outstanding replication the `next`
    /// phase will read, package the rest (plus the WAL flush) into an
    /// [`EpochDrain`] that runs behind the fence, advance the epoch. Returns
    /// the instant the fence completed (the epoch's group-commit point).
    ///
    /// The commit *decision* — failure detection, the epoch revert, the
    /// election, history finalization, the latency release — is entirely
    /// synchronous. Only the mechanical tail is deferred, and only the slice
    /// the next phase provably does not read; with no hint (`None`) every
    /// apply is synchronous, which is always safe.
    fn replication_fence(&mut self, next: Option<ExecutionPhase>) -> Instant {
        // star-lint: allow(determinism::instant-now) -- fence-duration telemetry only; no control flow or recorded history depends on it
        let start = Instant::now();
        let num_nodes = self.config.num_nodes;

        // Pipelining step 1: the previous epoch's drain must fully land
        // before this fence reasons about replica state (reverts, applies,
        // recoveries all assume replicas reflect every committed epoch).
        self.commit_queue.wait_for(self.clock.last_committed());
        self.drain_safe_for = None;

        // Failure detection: the coordinator notices nodes that stopped
        // responding. A newly failed node makes the fence revert the epoch in
        // flight on every healthy replica (Figure 6), and the master is
        // re-elected over the now-current picture: a crashed coordinator is
        // replaced by the next healthy full replica, and a recovered lower-id
        // full replica takes the role back — both deterministically, before
        // the next single-master phase runs.
        let network = &self.network;
        let observed: Vec<bool> = (0..num_nodes).map(|n| network.is_failed(n)).collect();
        let committed = self.clock.last_committed();
        let known = self.clock.failed();
        for ((node, &seen), &known) in self.nodes.iter_mut().zip(&observed).zip(known) {
            if seen && !known {
                node.crashed(committed);
            }
        }
        let reverting = self.clock.open_fence(&self.config, &observed);

        // Release any messages held back by reorder faults: the fence's
        // contract is that every *sent* message is either applied now or
        // discarded with its epoch, never silently stuck in flight.
        for node in &self.nodes {
            node.transport().flush_stash();
        }

        // Fence every healthy replica over what its endpoint has queued. A
        // surviving entry is applied *now* only if the next phase reads the
        // copy: on the elected master before a single-master phase, on the
        // partition's effective primary before a partitioned one. The rest
        // goes into the epoch's drain job, applied while the next phase runs
        // (after a partitioned epoch at 0% cross-partition traffic, all of
        // it).
        let config = &self.config;
        let failed = self.clock.failed();
        let master = self.clock.current_master();
        // star-lint: allow(determinism::instant-now) -- apply-time telemetry for the replication-flush latency slice only
        let apply_start = Instant::now();
        let mut deferred: Vec<(Arc<Database>, Vec<EncodedEntry>)> = Vec::new();
        let healthy = self.nodes.iter().filter(|node| !failed[node.id()]);
        for node in healthy.clone() {
            let n = node.id();
            let queued = node.transport().drain();
            let (_, deferred_entries) =
                node.fence(&self.clock, reverting, queued, |entry| match next {
                    None => true,
                    Some(ExecutionPhase::SingleMaster) => master == Some(n),
                    Some(ExecutionPhase::Partitioned) => {
                        config.effective_primary(failed, entry.partition()) == Some(n)
                    }
                });
            if !deferred_entries.is_empty() {
                deferred.push((Arc::clone(node.db()), deferred_entries));
            }
        }
        self.counters.add_replication_flush(apply_start.elapsed());

        // Epoch commit: no per-record work at all. Advancing
        // `last_committed_epoch` below is what retires the epoch's version
        // stashes — `revert_to_epoch`'s gate skips any record whose current
        // epoch has committed, and the first write of a later epoch replaces
        // the stash with its own pre-image. (An eager fence-time GC here
        // used to walk every record of every replica, which dominated the
        // fence at short iterations.) Only the WAL flush is deferred into
        // the drain.
        let wal_flushes = healthy.filter_map(|node| node.wal().cloned()).collect();
        if reverting {
            // The epoch's transactions were never released to clients: they
            // are discarded from every replica above, so they must vanish
            // from the recorded history too.
            self.reverted_epochs.push(self.clock.epoch());
        }
        if let Some(history) = &self.history {
            history.finalize_epoch(self.clock.epoch(), !reverting);
        }
        let drain = EpochDrain { epoch: self.clock.epoch(), applies: deferred, wal_flushes };
        if !drain.is_empty() {
            self.commit_queue.submit(drain);
        }
        self.drain_safe_for = next;
        self.clock.close_fence();
        // star-lint: allow(determinism::instant-now) -- group-commit timestamp feeds latency telemetry, not simulation state
        let end = Instant::now();
        self.counters.add_fence(end - start);
        end
    }

    /// Runs one replication fence: detects failures, applies outstanding
    /// replication on every healthy replica and advances the epoch. This is
    /// the fence `run_iteration` executes twice per iteration, exposed so the
    /// chaos driver can compose phases and fences explicitly. Without a
    /// next-phase hint every replica apply is synchronous (always safe); the
    /// WAL flush still drains behind the fence.
    pub fn fence(&mut self) {
        let _ = self.replication_fence(None);
    }

    /// Whether a memory-to-memory recovery of `node` is currently possible:
    /// every partition the node holds must have at least one *other* healthy
    /// replica to copy from. When several replicas of a partition died
    /// together, this is what decides which of them can rejoin first — the
    /// schedule synthesizer and the chaos driver consult it before
    /// scheduling overlapping recoveries.
    pub fn can_recover(&self, node: NodeId) -> bool {
        self.nodes.get(node).is_some() && self.config.can_recover(self.clock.failed(), node)
    }

    /// The copy both recoveries make. Pending epoch drains land first (a
    /// deferred apply reaching the source after the copy would leave the
    /// node behind for good), and a source is checked for *every* held
    /// partition before anything changes. Then the node's inbound queue is
    /// discarded — it died with the crashed process, and may hold batches of
    /// epochs the cluster reverted since — its replica reverts to the epoch
    /// that had committed when it crashed, and the first `limit` partitions
    /// it holds are copied from their recovery sources. Returns the last
    /// source (the node itself if it holds no partition) and the records
    /// that were fresher than the node's; `None` for a healthy node.
    fn recovery_copy(&self, node: NodeId, limit: usize) -> Result<Option<(NodeId, usize)>> {
        self.commit_queue.quiesce();
        let Some(target) = self.nodes.get(node) else {
            return Err(Error::Config(format!("no such node {node}")));
        };
        if !self.is_failed(node) {
            return Ok(None);
        }
        if !self.can_recover(node) {
            return Err(Error::Config(format!(
                "node {node}: no healthy replica holds every partition it needs; recover \
                 another replica first or recover from disk"
            )));
        }
        drop(target.transport().drain());
        target.revert_to_crash();
        let (mut source, mut copied) = (node, 0);
        for partition in target.db().held_partitions().into_iter().take(limit) {
            // Checked above, but recovery must never be a crash site: a
            // vanished source is a typed error.
            let from = self.config.recovery_source(self.clock.failed(), node, partition);
            let Some(from) = from.and_then(|n| self.nodes.get(n)) else {
                return Err(Error::Config(format!(
                    "no healthy replica holds partition {partition}; recover from disk instead"
                )));
            };
            copied += target.install(from.copy_partition(partition)?)? as usize;
            source = from.id();
        }
        Ok(Some((source, copied)))
    }

    /// Recovers a previously failed node: the node copies the partitions it
    /// holds from healthy replicas (preferring a full replica), is healed in
    /// the network and rejoins the cluster. Corresponds to the per-node
    /// recovery path shared by Cases 1–3.
    ///
    /// An impossible recovery (all other replicas of some partition dead —
    /// the Case-4 situation that needs disk recovery instead) fails
    /// atomically: the node stays down, its pre-crash state untouched, and a
    /// later recovery attempt — e.g. after another replica rejoined — can
    /// still succeed. Recovering a healthy node is a no-op.
    pub fn recover_node(&mut self, node: NodeId) -> Result<usize> {
        let Some((_, copied)) = self.recovery_copy(node, usize::MAX)? else {
            return Ok(0);
        };
        self.network.heal_node(node);
        self.clock.mark_recovered(node);
        if let Some(target) = self.nodes.get_mut(node) {
            target.rejoined();
        }
        Ok(copied)
    }

    /// Starts a recovery of `node` and injects `fault` mid-copy: the first
    /// held partition is copied from its source, then the fault fires and
    /// the recovery **aborts** — the node stays down, the network is not
    /// healed, and the engine's failure bookkeeping is untouched (the chaos
    /// harness's recovery-path fault injection).
    ///
    /// The partial copy is harmless even when it copied the source's
    /// *in-flight* versions of an epoch that later reverts: the node keeps
    /// its revert marker, so a later [`Self::recover_node`] first reverts it
    /// to its crash-time committed epoch and then re-copies everything. The
    /// interruption's side effects are exactly those of the fault itself:
    ///
    /// * [`RecoveryFault::SourceCrash`] — the source node is marked failed
    ///   in the network (detected, like any crash, at the next fence);
    /// * [`RecoveryFault::TargetCrash`] — no additional effect (the
    ///   recovering node was already down and stays down);
    /// * [`RecoveryFault::LinkCut`] — the `source ↔ node` link is cut and
    ///   stays cut until a scheduled heal.
    ///
    /// Preconditions mirror [`Self::recover_node`]: recovering a healthy
    /// node is a no-op (`Ok` with zero records), an infeasible recovery
    /// (no healthy source) is a typed error.
    pub fn recover_node_interrupted(
        &mut self,
        node: NodeId,
        fault: RecoveryFault,
    ) -> Result<InterruptedRecovery> {
        let Some((source, records_copied)) = self.recovery_copy(node, 1)? else {
            return Ok(InterruptedRecovery { source: node, records_copied: 0 });
        };
        if source == node {
            return Err(Error::Config(format!("node {node} holds no partitions")));
        }
        match fault {
            RecoveryFault::SourceCrash => self.network.fail_node(source),
            RecoveryFault::TargetCrash => {}
            RecoveryFault::LinkCut => self.network.cut_link(source, node),
        }
        Ok(InterruptedRecovery { source, records_copied })
    }

    /// Checks that every healthy holder of a partition agrees with the first
    /// one on its contents. Intended for tests: run some load, then assert
    /// consistency after a fence.
    pub fn verify_replica_consistency(&self) -> Result<()> {
        // Replicas with a pending epoch drain legitimately lag; complete it
        // before comparing copies.
        self.commit_queue.quiesce();
        let copy = |node: &SimNode, p| -> Result<BTreeMap<(u32, u64), (Tid, Row)>> {
            let records = node.copy_partition(p)?.into_iter();
            Ok(records.map(|r| ((r.table, r.key), (r.tid, r.row))).collect())
        };
        for p in 0..self.config.partitions {
            let mut holders =
                self.nodes.iter().filter(|n| !self.is_failed(n.id()) && n.db().holds(p));
            let Some(reference) = holders.next() else { continue };
            let (reference, records) = (reference.id(), copy(reference, p)?);
            for node in holders {
                let (other, other_records) = (node.id(), copy(node, p)?);
                for ((table, key), (tid, row)) in &records {
                    let divergence = match other_records.get(&(*table, *key)) {
                        Some((other_tid, other_row)) if other_tid == tid && other_row == row => {
                            continue
                        }
                        Some((other_tid, _)) => format!(
                            "node {other} has tid {other_tid} for ({table},{p},{key}) but node \
                             {reference} has {tid}"
                        ),
                        None => format!("node {other} is missing ({table},{p},{key})"),
                    };
                    return Err(Error::Config(format!("replica divergence: {divergence}")));
                }
            }
        }
        Ok(())
    }
}

impl crate::engine_api::Engine for StarEngine {
    fn name(&self) -> String {
        "STAR".to_string()
    }

    fn run_for(&mut self, duration: Duration) -> RunReport {
        StarEngine::run_for(self, duration)
    }

    fn counters(&self) -> &RunCounters {
        StarEngine::counters(self)
    }

    fn report(&self) -> RunReport {
        crate::engine_api::last_or_idle_report(
            self.last_report.as_ref(),
            "STAR",
            self.workload.as_ref(),
            &self.counters,
        )
    }

    fn set_history_recorder(&mut self, recorder: Arc<HistoryRecorder>) {
        StarEngine::set_history_recorder(self, recorder)
    }

    fn wal_paths(&self) -> Vec<PathBuf> {
        StarEngine::wal_paths(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{kv_key, KvWorkload};

    fn small_config() -> ClusterConfig {
        ClusterConfig {
            num_nodes: 4,
            full_replicas: 1,
            workers_per_node: 2,
            partitions: 4,
            // Factor 3 keeps a partial-partial backup per partition, so the
            // failure-case tests below can lose one partial without losing
            // partial coverage.
            replication_factor: 3,
            iteration: Duration::from_millis(5),
            network_latency: Duration::from_micros(10),
            ..ClusterConfig::default()
        }
    }

    fn workload(cross_fraction: f64) -> Arc<KvWorkload> {
        Arc::new(KvWorkload {
            partitions: 4,
            rows_per_partition: 32,
            cross_partition_fraction: cross_fraction,
        })
    }

    #[test]
    fn engine_commits_transactions_and_advances_epochs() {
        let mut engine = StarEngine::new(small_config(), workload(0.1)).unwrap();
        assert_eq!(engine.epoch(), 1);
        let report = engine.run_for(Duration::from_millis(30));
        assert!(report.counters.committed > 0, "no transactions committed");
        assert!(engine.epoch() > 1, "epoch did not advance");
        assert!(report.throughput > 0.0);
        assert_eq!(report.engine, "STAR");
        assert_eq!(report.workload, "kv");
    }

    #[test]
    fn replicas_converge_after_a_fence() {
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        engine.run_for(Duration::from_millis(30));
        engine.verify_replica_consistency().expect("replicas diverged");
    }

    #[test]
    fn replication_traffic_is_accounted() {
        let mut engine = StarEngine::new(small_config(), workload(0.1)).unwrap();
        let report = engine.run_for(Duration::from_millis(20));
        assert!(report.counters.replication_bytes > 0);
        assert!(report.counters.fences >= 2);
    }

    #[test]
    fn pure_single_partition_workload_skips_single_master_phase() {
        let mut engine = StarEngine::new(small_config(), workload(0.0)).unwrap();
        let report = engine.run_for(Duration::from_millis(20));
        assert!(report.counters.committed > 0);
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn pure_cross_partition_workload_runs_only_on_master() {
        let mut engine = StarEngine::new(small_config(), workload(1.0)).unwrap();
        let report = engine.run_for(Duration::from_millis(20));
        assert!(report.counters.committed > 0);
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn failure_is_detected_at_the_fence_and_classified() {
        let mut engine = StarEngine::new(small_config(), workload(0.1)).unwrap();
        engine.run_for(Duration::from_millis(10));
        assert_eq!(engine.failure_case().unwrap(), FailureCase::NoFailure);
        engine.inject_failure(2);
        // Detection happens at the next fence.
        engine.run_iteration();
        assert!(engine.failed_nodes().contains(&2));
        assert_eq!(engine.failure_case().unwrap(), FailureCase::FullAndPartialRemain);
        // The system keeps committing transactions (Case 1).
        let report = engine.run_for(Duration::from_millis(20));
        assert!(report.counters.committed > 0);
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn master_failure_disables_phase_switching_until_recovery() {
        let mut engine = StarEngine::new(small_config(), workload(0.5)).unwrap();
        engine.run_for(Duration::from_millis(10));
        engine.inject_failure(0);
        engine.run_iteration();
        assert_eq!(engine.failure_case().unwrap(), FailureCase::OnlyPartialRemains);
        assert_eq!(engine.current_master(), None);
        // Single-partition work still proceeds on the partial replicas.
        let report = engine.run_for(Duration::from_millis(20));
        assert!(report.counters.committed > 0);
    }

    #[test]
    fn failed_node_recovers_and_rejoins() {
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        engine.run_for(Duration::from_millis(15));
        engine.inject_failure(1);
        engine.run_iteration();
        assert!(engine.failed_nodes().contains(&1));
        // More work happens while node 1 is down.
        engine.run_for(Duration::from_millis(15));
        let copied = engine.recover_node(1).unwrap();
        assert!(copied > 0, "recovery should copy missed writes");
        assert!(engine.failed_nodes().is_empty());
        // After another fence-closed window, all replicas agree again.
        engine.run_for(Duration::from_millis(15));
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn replicas_and_recovered_nodes_own_their_row_buffers() {
        // A stored row is a reference-counted buffer, so a simulated replica
        // could be made to point at its primary's buffer for free — and an
        // in-process cluster would then measure a footprint no deployment
        // has. Every node packs its own copy.
        use star_common::PackedRow;
        let config = ClusterConfig {
            num_nodes: 2,
            workers_per_node: 1,
            partitions: 2,
            replication_factor: 2,
            ..small_config()
        };
        let workload = Arc::new(KvWorkload {
            partitions: 2,
            rows_per_partition: 32,
            cross_partition_fraction: 0.3,
        });
        let mut engine = StarEngine::new(config, workload).unwrap();
        let assert_separate_copies = |engine: &StarEngine| {
            engine.quiesce();
            let (a, b) = (engine.nodes()[0].db(), engine.nodes()[1].db());
            let mut written = 0;
            a.for_each_record(|table, partition, key, record| {
                let star_storage::ReadResult { row, tid } = record.read();
                if tid == star_common::Tid::ZERO || written == 64 {
                    return;
                }
                let copy = b.get(table, partition, key).unwrap().read();
                assert_eq!((&copy.row, copy.tid), (&row, tid));
                assert!(!PackedRow::ptr_eq(&copy.row, &row), "two nodes share a row buffer");
                written += 1;
            });
            assert!(written >= 32, "only {written} written keys to compare");
        };
        for _ in 0..20 {
            engine.run_iteration_stepped(8, 4);
        }
        assert_separate_copies(&engine);

        engine.inject_failure(1);
        for _ in 0..4 {
            engine.run_iteration_stepped(8, 4);
        }
        assert!(engine.recover_node(1).unwrap() > 0);
        assert_separate_copies(&engine);
    }

    #[test]
    fn recover_node_is_a_noop_for_healthy_nodes() {
        let mut engine = StarEngine::new(small_config(), workload(0.1)).unwrap();
        assert_eq!(engine.recover_node(2).unwrap(), 0);
        assert!(engine.recover_node(99).is_err());
    }

    #[test]
    fn overlapping_crashes_recover_in_dependency_order() {
        // Nodes 0 (full) and 1 hold partition 0 between them; crashing both
        // makes node 0 unrecoverable from memory until node 1 is back. The
        // failed recovery must be atomic (node 0 stays down, untouched) and
        // the same call must succeed once node 1 has rejoined.
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        engine.run_for(Duration::from_millis(10));
        engine.inject_failure(0);
        engine.inject_failure(1);
        engine.run_iteration();
        assert_eq!(engine.failed_nodes(), vec![0, 1]);
        // Partition 0 is held only by nodes 0 and 1, so with both down
        // neither has a memory source — the mutual-dependency deadlock that
        // needs disk recovery (Case 4). Both attempts must fail atomically.
        let config = engine.config().clone();
        let p0_holders: Vec<usize> =
            (0..config.num_nodes).filter(|&n| config.node_stores_partition(n, 0)).collect();
        assert_eq!(p0_holders, vec![0, 1]);
        assert!(!engine.can_recover(0), "partition 0 has no healthy source");
        assert!(!engine.can_recover(1), "p0's only other holder (node 0) is down too");
        assert!(engine.recover_node(0).is_err(), "recovery without a source must fail");
        assert!(engine.failed_nodes().contains(&0), "failed recovery must leave the node down");
        assert!(engine.recover_node(1).is_err());
        // The engine must survive the unavailable state: fences keep running
        // and detection stays consistent.
        engine.run_iteration();
        assert_eq!(engine.failed_nodes(), vec![0, 1]);
        // Node 2 (holds p1: {0,1,2} and p2: {0,2,3}) crashed on top would
        // still be recoverable through node 3? No — p1's other holders are
        // both down, so overlapping a third crash makes it stuck too.
        engine.inject_failure(2);
        engine.run_iteration();
        assert!(!engine.can_recover(2));
    }

    #[test]
    fn majority_of_a_partitions_replicas_die_and_recover() {
        // Partition 1 is held by nodes 0, 1 and 2. Crash 1 and 2 (a majority
        // of its replicas) in overlapping windows, then recover them in
        // sequence; the cluster must keep committing throughout and converge
        // afterwards.
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        engine.run_for(Duration::from_millis(10));
        engine.inject_failure(1);
        engine.run_iteration();
        engine.inject_failure(2);
        engine.run_iteration();
        assert_eq!(engine.failed_nodes(), vec![1, 2]);
        let report = engine.run_for(Duration::from_millis(15));
        assert!(report.counters.committed > 0, "the survivors must keep committing");
        assert!(engine.can_recover(1), "node 0 still covers everything node 1 holds");
        let copied = engine.recover_node(1).unwrap();
        assert!(copied > 0);
        engine.run_for(Duration::from_millis(10));
        let copied = engine.recover_node(2).unwrap();
        assert!(copied > 0);
        assert!(engine.failed_nodes().is_empty());
        engine.run_for(Duration::from_millis(10));
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn wal_dir_is_removed_even_for_crashed_never_recovered_nodes() {
        // Crashed nodes' WAL writers are skipped by every later fence, so
        // they still hold open handles and unflushed bytes when the engine
        // dies. The Drop impl must close the writers *before* unlinking the
        // directory, and the directory must be gone afterwards — chaos
        // sweeps construct thousands of engines and a leak per crashed node
        // fills the temp dir.
        let mut config = small_config();
        config.disk_logging = true;
        let dir = {
            let mut engine = StarEngine::new(config, workload(0.2)).unwrap();
            let dir = engine.wal_dir().expect("disk logging must create a WAL dir").to_path_buf();
            assert!(dir.exists());
            engine.run_for(Duration::from_millis(10));
            engine.inject_failure(1);
            engine.run_iteration();
            // More commits while node 1 is down leave its WAL buffer with
            // bytes no fence will ever flush.
            engine.run_for(Duration::from_millis(10));
            assert!(engine.failed_nodes().contains(&1));
            dir
        };
        assert!(!dir.exists(), "engine drop must remove the per-engine WAL dir");
    }

    #[test]
    fn master_reelection_is_deterministic_and_generation_stamped() {
        // Two full replicas: killing the coordinator mid-epoch hands the
        // role to node 1 at the next fence; recovering node 0 hands it back.
        let mut config = small_config();
        config.full_replicas = 2;
        let mut engine = StarEngine::new(config, workload(0.5)).unwrap();
        assert_eq!(engine.current_master(), Some(0));
        assert_eq!(engine.master_generation(), 0);
        engine.run_for(Duration::from_millis(10));
        assert_eq!(engine.master_generation(), 0, "no failure, no re-election");

        engine.inject_failure(0);
        engine.run_iteration();
        assert_eq!(engine.current_master(), Some(1), "next healthy full replica must win");
        assert_eq!(engine.master_generation(), 1);
        let election = *engine.elections().last().unwrap();
        assert_eq!(election.master, Some(1));
        assert_eq!(election.generation, 1);

        // The cluster keeps committing under the new master.
        let report = engine.run_for(Duration::from_millis(15));
        assert!(report.counters.committed > 0);
        engine.recover_node(0).unwrap();
        engine.run_iteration();
        assert_eq!(engine.current_master(), Some(0), "the lowest-id full replica takes back over");
        assert_eq!(engine.master_generation(), 2);
        // The log is an audit trail: initial appointment plus two changes.
        let masters: Vec<Option<NodeId>> = engine.elections().iter().map(|e| e.master).collect();
        assert_eq!(masters, vec![Some(0), Some(1), Some(0)]);
    }

    #[test]
    fn epoch_state_replayed_over_a_recorded_run_reproduces_the_engines_clock() {
        // What the fences of a crash/recover run observed, replayed through a
        // bare `EpochState`, lands on the engine's epoch, last committed
        // epoch, failure flags and election log.
        let mut config = small_config();
        config.full_replicas = 2;
        let mut engine = StarEngine::new(config.clone(), workload(0.3)).unwrap();
        let mut shadow = EpochState::new(&config);
        let script: [(&[NodeId], &[NodeId]); 6] =
            [(&[], &[]), (&[0], &[]), (&[2, 3], &[]), (&[], &[0, 3]), (&[1], &[2]), (&[], &[1])];
        for (crashes, recoveries) in script {
            crashes.iter().for_each(|&n| engine.inject_failure(n));
            for &n in recoveries {
                engine.recover_node(n).unwrap();
                shadow.mark_recovered(n);
            }
            let network = engine.network();
            let observed: Vec<bool> = (0..4).map(|n| network.is_failed(n)).collect();
            engine.run_iteration_stepped(4, 2);
            for _fence in 0..2 {
                shadow.open_fence(&config, &observed);
                shadow.close_fence();
            }
            assert_eq!(shadow.epoch(), engine.epoch());
            assert_eq!(shadow.last_committed(), engine.last_committed_epoch());
            assert_eq!(shadow.failed(), engine.failure_flags());
            assert_eq!(shadow.elections(), engine.elections());
        }
        assert_eq!(engine.master_generation(), 2, "the script re-elects twice: 0 → 1 → 0");
    }

    #[test]
    fn losing_every_full_replica_elects_nobody() {
        let mut config = small_config();
        config.full_replicas = 2;
        let mut engine = StarEngine::new(config, workload(0.3)).unwrap();
        engine.run_for(Duration::from_millis(10));
        engine.inject_failure(0);
        engine.inject_failure(1);
        engine.run_iteration();
        assert_eq!(engine.current_master(), None);
        assert_eq!(engine.elections().last().unwrap().master, None);
        let generation = engine.master_generation();
        // Idle fences must not re-run the election.
        engine.run_iteration();
        assert_eq!(engine.master_generation(), generation);
    }

    #[test]
    fn interrupted_recovery_leaves_the_node_down_and_is_retryable() {
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        engine.run_for(Duration::from_millis(15));
        engine.inject_failure(2);
        engine.run_iteration();
        engine.run_for(Duration::from_millis(10));

        // Target crashes again mid-copy: nothing else changes.
        let aborted = engine.recover_node_interrupted(2, RecoveryFault::TargetCrash).unwrap();
        assert!(aborted.records_copied > 0, "a partial prefix must have been copied");
        assert!(engine.failed_nodes().contains(&2), "the node must stay down");
        engine.run_iteration();

        // The retried full recovery succeeds and the cluster converges.
        engine.recover_node(2).unwrap();
        assert!(engine.failed_nodes().is_empty());
        engine.run_for(Duration::from_millis(10));
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn source_crash_mid_recovery_is_detected_at_the_next_fence() {
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        engine.run_for(Duration::from_millis(15));
        engine.inject_failure(2);
        engine.run_iteration();
        let aborted = engine.recover_node_interrupted(2, RecoveryFault::SourceCrash).unwrap();
        // The source died serving the copy; the next fence detects it and
        // the cluster reverts the in-flight epoch like any other crash.
        engine.run_iteration();
        assert!(engine.failed_nodes().contains(&aborted.source));
        assert!(engine.failed_nodes().contains(&2));
        // With the source down too, node 2's recovery may now be infeasible;
        // recover the source first, then node 2.
        engine.recover_node(aborted.source).unwrap();
        engine.run_iteration();
        engine.recover_node(2).unwrap();
        engine.run_for(Duration::from_millis(10));
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn link_cut_mid_recovery_stays_cut_until_healed() {
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        engine.run_for(Duration::from_millis(10));
        engine.inject_failure(2);
        engine.run_iteration();
        let aborted = engine.recover_node_interrupted(2, RecoveryFault::LinkCut).unwrap();
        assert!(engine.network().is_link_cut(aborted.source, 2));
        engine.network().heal_link(aborted.source, 2);
        engine.recover_node(2).unwrap();
        engine.run_for(Duration::from_millis(10));
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn interrupted_mid_epoch_recovery_does_not_resurrect_reverted_writes() {
        // Regression test: an interruption can land mid-epoch, so the
        // partial copy includes the source's *in-flight* versions. If that
        // epoch then reverts (another node dies before the fence), the down
        // node keeps the copies — it takes no part in fences — and a
        // marker-consuming retry would let the Thomas write rule pin the
        // resurrected rows forever. The retried recovery must revert the
        // target again before re-copying. A large keyspace and idle
        // post-revert iterations keep the resurrected keys from being
        // rewritten (and thereby masked) afterwards.
        // The full replica (node 0) is down, so partition 0 is re-mastered
        // onto node 1 — whose db therefore carries *in-flight* versions
        // mid-phase. Interrupting node 0's recovery mid-epoch copies them.
        let wl = Arc::new(KvWorkload {
            partitions: 4,
            rows_per_partition: 2048,
            cross_partition_fraction: 0.2,
        });
        let mut engine = StarEngine::new(small_config(), wl).unwrap();
        engine.run_iteration_stepped(64, 16);
        engine.inject_failure(0);
        engine.run_iteration_stepped(16, 0);
        // An epoch with plenty of in-flight writes on the re-mastered
        // primary, then the aborted copy from it, then a crash that makes
        // the fence revert the whole epoch.
        engine.run_partitioned_phase_stepped(64);
        let aborted = engine.recover_node_interrupted(0, RecoveryFault::TargetCrash).unwrap();
        assert_eq!(aborted.source, 1, "p0 re-mastered onto node 1, the copy source");
        engine.inject_failure(2);
        engine.fence();
        engine.run_single_master_phase_stepped(0);
        engine.fence();
        engine.recover_node(2).unwrap();
        engine.run_iteration_stepped(0, 0);
        engine.recover_node(0).unwrap();
        engine.run_iteration_stepped(0, 0);
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn interrupting_a_healthy_or_unrecoverable_node_mirrors_recover_node() {
        let mut engine = StarEngine::new(small_config(), workload(0.2)).unwrap();
        // Healthy node: no-op.
        let noop = engine.recover_node_interrupted(2, RecoveryFault::TargetCrash).unwrap();
        assert_eq!(noop.records_copied, 0);
        assert!(engine.recover_node_interrupted(99, RecoveryFault::TargetCrash).is_err());
        // Unrecoverable node (no healthy source): typed error, node stays
        // down, untouched.
        engine.inject_failure(0);
        engine.inject_failure(1);
        engine.run_iteration();
        assert!(engine.recover_node_interrupted(0, RecoveryFault::LinkCut).is_err());
        assert!(engine.failed_nodes().contains(&0));
    }

    #[test]
    fn effective_primary_fails_over_to_a_holder() {
        let mut engine = StarEngine::new(small_config(), workload(0.1)).unwrap();
        let primary = |e: &StarEngine| e.config().effective_primary(e.failure_flags(), 1);
        assert_eq!(primary(&engine), Some(1));
        engine.inject_failure(1);
        engine.run_iteration();
        let fallback = primary(&engine).unwrap();
        assert_ne!(fallback, 1);
        assert!(engine.config().node_stores_partition(fallback, 1));
    }

    #[test]
    fn disk_logging_writes_wal_bytes() {
        let mut config = small_config();
        config.disk_logging = true;
        let mut engine = StarEngine::new(config, workload(0.1)).unwrap();
        let report = engine.run_for(Duration::from_millis(20));
        assert!(report.counters.wal_bytes > 0);
    }

    #[test]
    fn sync_replication_mode_still_converges() {
        let mut config = small_config();
        config.replication_mode = star_common::ReplicationMode::Sync;
        let mut engine = StarEngine::new(config, workload(0.5)).unwrap();
        let report = engine.run_for(Duration::from_millis(20));
        assert!(report.counters.committed > 0);
        engine.verify_replica_consistency().unwrap();
    }

    #[test]
    fn crash_during_async_drain_reverts_only_the_inflight_epoch() {
        // Pipelined group commit keeps two epochs in flight: epoch N's
        // deferred replica applies drain while epoch N+1 executes. A crash
        // landing in that window must revert exactly the in-flight epoch —
        // epoch N group-committed at its fence (its transactions were
        // released to clients), so the fence first completes N's drain and
        // only then discards N+1.
        use crate::history::HistoryRecorder;
        let wl = Arc::new(KvWorkload {
            partitions: 4,
            rows_per_partition: 64,
            cross_partition_fraction: 0.3,
        });
        let mut engine = StarEngine::new(small_config(), wl).unwrap();
        let history = Arc::new(HistoryRecorder::new());
        engine.set_history_recorder(Arc::clone(&history));

        // Epochs 1 and 2 commit; the fence closing epoch 2 defers the
        // replica applies the upcoming partitioned phase will not read.
        engine.run_iteration_stepped(8, 4);
        let committed_before = history.committed_len();
        assert!(committed_before > 0);
        assert_eq!(
            engine.pending_drains(),
            vec![2],
            "epoch 2's drain must still be queued behind the fence"
        );

        // Epoch 3 executes while epoch 2 drains; the crash lands in exactly
        // that window.
        engine.run_partitioned_phase_stepped(8);
        engine.inject_failure(2);
        assert_eq!(engine.pending_drains(), vec![2], "the crash must land mid-drain");
        engine.fence();

        // Epoch 2 survived: its drain completed before the revert, and its
        // records stay in the committed history. Epoch 3 vanished entirely.
        assert_eq!(engine.reverted_epochs(), &[3]);
        assert_eq!(history.reverted_epochs(), vec![3]);
        assert_eq!(history.committed_len(), committed_before);
        assert!(engine.pending_drains().is_empty());
        engine.verify_replica_consistency().unwrap();

        // The surviving replicas carry exactly the committed transactions:
        // every KvRmw increments two counters by one, so the master's
        // counter total must equal twice the committed-history length.
        let master_db = engine.nodes()[0].db();
        let mut total = 0u64;
        for p in 0..4usize {
            for offset in 0..64 {
                let rec = master_db.get(0, p, kv_key(p, offset)).unwrap();
                total += rec.read().row.field(0).unwrap().as_u64().unwrap();
            }
        }
        assert_eq!(total, 2 * committed_before as u64, "epoch 3 writes must be gone");
    }

    #[test]
    fn pipelined_stepped_runs_are_deterministic() {
        // The two-deep epoch window must not cost reproducibility: two
        // stepped runs over the same seed, with drains pumped at fences,
        // must produce bit-identical committed histories.
        use crate::history::HistoryRecorder;
        let run = || {
            let mut engine = StarEngine::new(small_config(), workload(0.3)).unwrap();
            let history = Arc::new(HistoryRecorder::new());
            engine.set_history_recorder(Arc::clone(&history));
            for _ in 0..5 {
                engine.run_iteration_stepped(8, 4);
            }
            engine.quiesce();
            history.fingerprint()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn serializability_smoke_total_increments_equal_commits() {
        // Every KvRmw increments two counters by one; after a fence the sum
        // of all counters on the master replica must equal twice the number
        // of committed transactions (minus nothing, since there are no user
        // aborts in this workload).
        let config = ClusterConfig {
            num_nodes: 2,
            full_replicas: 1,
            workers_per_node: 2,
            partitions: 2,
            iteration: Duration::from_millis(5),
            network_latency: Duration::from_micros(10),
            ..ClusterConfig::default()
        };
        let wl = Arc::new(KvWorkload {
            partitions: 2,
            rows_per_partition: 16,
            cross_partition_fraction: 0.3,
        });
        let mut engine = StarEngine::new(config, wl.clone()).unwrap();
        let report = engine.run_for(Duration::from_millis(40));
        let master_db = engine.nodes()[0].db();
        let mut total = 0u64;
        for p in 0..2usize {
            for offset in 0..wl.rows_per_partition {
                let rec = master_db.get(0, p, kv_key(p, offset)).unwrap();
                total += rec.read().row.field(0).unwrap().as_u64().unwrap();
            }
        }
        assert_eq!(total, report.counters.committed * 2);
    }
}
