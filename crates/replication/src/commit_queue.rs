//! Completion-tracked drain queue for pipelined group commit.
//!
//! At a replication fence the engine *decides* an epoch's fate synchronously
//! (failure detection, revert, election, history finalization stay on the
//! critical path), but the mechanical tail of the group commit — applying
//! replication batches to replica copies the next phase does not read, and
//! flushing the write-ahead log — is packaged into an [`EpochDrain`] and
//! handed to a [`CommitQueue`]. While epoch `N+1` executes, epoch `N` drains
//! behind the fence.
//!
//! A submitted drain is decomposed into independent jobs: one apply job per
//! replica (replicas are disjoint databases, so their applies commute) plus
//! one WAL-flush job. In [`DrainMode::Background`] a small worker pool runs
//! those jobs concurrently, so one slow replica no longer serializes the
//! whole epoch's tail behind the next fence's `wait_for`. Completion is
//! still tracked per *epoch*: an epoch counts as drained only when every one
//! of its jobs has finished and every earlier epoch has drained too.
//!
//! Two modes cover the two callers:
//!
//! * [`DrainMode::Background`] — the worker pool drains jobs as they are
//!   submitted; the timed path (`StarEngine::run_for`) uses this to overlap
//!   the drain with the next phase's execution.
//! * [`DrainMode::Deferred`] — jobs queue until the caller pumps them, in
//!   FIFO order on the calling thread. The stepped drivers and the chaos
//!   harness use this: the drain of epoch `N` deterministically completes at
//!   the *next* fence (or at a quiesce), so replays are bit-identical while
//!   still exercising the pipelined ordering.
//!
//! The queue uses `std::sync` primitives because the drain workers must
//! sleep on a condition variable, which the vendored `parking_lot` stub does
//! not offer.

use crate::entry::EncodedEntry;
use crate::wal::WalWriter;
use star_common::stats::RunCounters;
use star_common::Epoch;
use star_storage::Database;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// How a [`CommitQueue`] executes submitted drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainMode {
    /// Queue drains; the caller pumps them at deterministic points.
    Deferred,
    /// A pool of background worker threads drains jobs as they arrive.
    Background,
}

/// Upper bound on background worker threads, matching the per-epoch fan-out
/// (one apply job per replica plus the WAL flush).
const DRAIN_WORKERS_MAX: usize = 4;

/// Background worker threads: the per-epoch fan-out, clamped to the host's
/// actual parallelism. Draining is pure CPU work, so workers beyond the core
/// count only add context switches — on a single-core host they time-slice
/// against the phase workers whose epoch they are trying to retire.
fn drain_workers() -> usize {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    DRAIN_WORKERS_MAX.min(cores.max(1))
}

/// The deferred tail of one epoch's group commit.
pub struct EpochDrain {
    /// The epoch this drain belongs to.
    pub epoch: Epoch,
    /// Replication batches to apply: for each `(replica, entries)` pair,
    /// every entry whose partition the replica holds is applied (in batch
    /// order, preserving the per-partition stream order operation
    /// replication requires). Entries stay in their encoded zero-copy form
    /// until this apply — the drain worker pays the decode, not the fence.
    pub applies: Vec<(Arc<Database>, Vec<EncodedEntry>)>,
    /// Write-ahead logs to flush.
    pub wal_flushes: Vec<Arc<parking_lot::Mutex<WalWriter>>>,
}

impl EpochDrain {
    /// An empty drain for `epoch` (still tracked for completion ordering).
    pub fn empty(epoch: Epoch) -> Self {
        EpochDrain { epoch, applies: Vec::new(), wal_flushes: Vec::new() }
    }

    /// Whether the drain carries no work.
    pub fn is_empty(&self) -> bool {
        self.applies.iter().all(|(_, entries)| entries.is_empty()) && self.wal_flushes.is_empty()
    }

    /// Decomposes the drain into independently runnable jobs.
    fn into_jobs(self) -> Vec<DrainJob> {
        let epoch = self.epoch;
        let mut jobs: Vec<DrainJob> = self
            .applies
            .into_iter()
            .filter(|(_, entries)| !entries.is_empty())
            .map(|(db, entries)| DrainJob::Apply { epoch, db, entries })
            .collect();
        if !self.wal_flushes.is_empty() {
            jobs.push(DrainJob::WalFlush { epoch, wals: self.wal_flushes });
        }
        jobs
    }
}

/// One independently runnable slice of an epoch's drain.
enum DrainJob {
    /// Apply one replica's deferred entries.
    Apply { epoch: Epoch, db: Arc<Database>, entries: Vec<EncodedEntry> },
    /// Flush the epoch's write-ahead logs.
    WalFlush { epoch: Epoch, wals: Vec<Arc<parking_lot::Mutex<WalWriter>>> },
}

impl DrainJob {
    fn epoch(&self) -> Epoch {
        match self {
            DrainJob::Apply { epoch, .. } | DrainJob::WalFlush { epoch, .. } => *epoch,
        }
    }

    /// Executes the job, attributing apply time to the replication-flush
    /// slice and WAL time to the fsync slice of `counters`.
    fn run(self, counters: &RunCounters) {
        match self {
            DrainJob::Apply { db, entries, .. } => {
                let apply_start = Instant::now();
                for entry in &entries {
                    if db.holds(entry.partition()) {
                        // Apply errors mirror the synchronous fence: a
                        // replica refusing an entry for a partition it holds
                        // would be a layout bug; `holds` was just checked, so
                        // apply cannot reject on partition grounds.
                        let _ = entry.apply(&db);
                    }
                }
                counters.add_replication_flush(apply_start.elapsed());
            }
            DrainJob::WalFlush { wals, .. } => {
                let wal_start = Instant::now();
                for wal in &wals {
                    let _ = wal.lock().flush();
                }
                counters.add_wal_fsync(wal_start.elapsed());
            }
        }
    }
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<DrainJob>,
    /// Unfinished job count per epoch, in epoch order. An epoch leaves the
    /// map (and raises `completed`) only once its count hits zero *and*
    /// every earlier epoch has left — jobs of different epochs may finish
    /// out of order on the pool.
    remaining: BTreeMap<Epoch, usize>,
    /// Highest epoch whose drain has fully completed.
    completed: Epoch,
    /// Highest epoch submitted so far.
    submitted: Epoch,
    shutdown: bool,
}

impl QueueState {
    /// Records one finished job of `epoch` and advances the completion
    /// watermark past every leading fully-drained epoch.
    fn finish_job(&mut self, epoch: Epoch) {
        if let Some(count) = self.remaining.get_mut(&epoch) {
            *count = count.saturating_sub(1);
        }
        self.advance_watermark();
    }

    fn advance_watermark(&mut self) {
        while let Some((&epoch, &count)) = self.remaining.iter().next() {
            if count > 0 {
                break;
            }
            self.remaining.remove(&epoch);
            self.completed = self.completed.max(epoch);
        }
    }
}

struct QueueShared {
    state: Mutex<QueueState>,
    /// Signalled both when work arrives (workers wake) and when a drain
    /// completes (waiters wake).
    cond: Condvar,
}

/// A completion-tracked queue of [`EpochDrain`] jobs.
pub struct CommitQueue {
    shared: Arc<QueueShared>,
    counters: Arc<RunCounters>,
    mode: DrainMode,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for CommitQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock().expect("commit queue poisoned");
        f.debug_struct("CommitQueue")
            .field("mode", &self.mode)
            .field("pending", &state.jobs.len())
            .field("completed", &state.completed)
            .field("submitted", &state.submitted)
            .finish()
    }
}

impl CommitQueue {
    /// Creates a queue in `mode`, attributing drain time to `counters`.
    pub fn new(mode: DrainMode, counters: Arc<RunCounters>) -> Self {
        let shared = Arc::new(QueueShared {
            state: Mutex::new(QueueState::default()),
            cond: Condvar::new(),
        });
        let workers = if mode == DrainMode::Background {
            (0..drain_workers())
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    let counters = Arc::clone(&counters);
                    std::thread::Builder::new()
                        .name(format!("star-commit-drain-{i}"))
                        .spawn(move || Self::worker_loop(&shared, &counters))
                        .expect("spawning a commit-drain worker cannot fail")
                })
                .collect()
        } else {
            Vec::new()
        };
        CommitQueue { shared, counters, mode, workers }
    }

    /// Switches the execution mode. Pending jobs are pumped first so no job
    /// ever straddles two modes.
    pub fn set_mode(&mut self, mode: DrainMode) {
        if self.mode == mode {
            return;
        }
        self.quiesce();
        self.stop_workers();
        *self = CommitQueue::new(mode, Arc::clone(&self.counters));
    }

    fn worker_loop(shared: &QueueShared, counters: &RunCounters) {
        loop {
            let job = {
                let mut state = shared.state.lock().expect("commit queue poisoned");
                loop {
                    if let Some(job) = state.jobs.pop_front() {
                        break job;
                    }
                    if state.shutdown {
                        return;
                    }
                    state = shared.cond.wait(state).expect("commit queue poisoned");
                }
            };
            let epoch = job.epoch();
            job.run(counters);
            let mut state = shared.state.lock().expect("commit queue poisoned");
            state.finish_job(epoch);
            drop(state);
            shared.cond.notify_all();
        }
    }

    /// Submits a drain: its jobs run on the pool (Background) or at the next
    /// pump (Deferred).
    pub fn submit(&self, drain: EpochDrain) {
        let epoch = drain.epoch;
        let jobs = drain.into_jobs();
        let mut state = self.shared.state.lock().expect("commit queue poisoned");
        state.submitted = state.submitted.max(epoch);
        state.remaining.insert(epoch, jobs.len());
        state.jobs.extend(jobs);
        state.advance_watermark();
        drop(state);
        self.shared.cond.notify_all();
    }

    /// Runs every queued drain on the calling thread (Deferred mode). In
    /// Background mode this waits for the pool instead, so the effect is the
    /// same: on return, everything submitted so far has completed.
    pub fn quiesce(&self) {
        match self.mode {
            DrainMode::Deferred => self.pump_all(),
            DrainMode::Background => {
                let submitted = self.shared.state.lock().expect("commit queue poisoned").submitted;
                self.wait_for(submitted);
            }
        }
    }

    /// Ensures the drain of `epoch` (and everything before it) has completed.
    pub fn wait_for(&self, epoch: Epoch) {
        match self.mode {
            DrainMode::Deferred => {
                loop {
                    let job = {
                        let mut state = self.shared.state.lock().expect("commit queue poisoned");
                        if state.completed >= epoch {
                            return;
                        }
                        match state.jobs.pop_front() {
                            Some(job) => job,
                            None => {
                                // Nothing queued can ever raise `completed`;
                                // the epoch was either never submitted or is
                                // already done.
                                return;
                            }
                        }
                    };
                    self.run_one(job);
                }
            }
            DrainMode::Background => {
                let mut state = self.shared.state.lock().expect("commit queue poisoned");
                while state.completed < epoch.min(state.submitted) {
                    state = self.shared.cond.wait(state).expect("commit queue poisoned");
                }
            }
        }
    }

    fn pump_all(&self) {
        loop {
            let job = {
                let mut state = self.shared.state.lock().expect("commit queue poisoned");
                match state.jobs.pop_front() {
                    Some(job) => job,
                    None => return,
                }
            };
            self.run_one(job);
        }
    }

    fn run_one(&self, job: DrainJob) {
        let epoch = job.epoch();
        job.run(&self.counters);
        let mut state = self.shared.state.lock().expect("commit queue poisoned");
        state.finish_job(epoch);
        drop(state);
        self.shared.cond.notify_all();
    }

    /// Epochs whose drains are still queued (tests and debugging), deduped
    /// in queue order.
    pub fn pending_epochs(&self) -> Vec<Epoch> {
        let state = self.shared.state.lock().expect("commit queue poisoned");
        let mut epochs: Vec<Epoch> = Vec::new();
        for job in &state.jobs {
            if epochs.last() != Some(&job.epoch()) {
                epochs.push(job.epoch());
            }
        }
        epochs
    }

    fn stop_workers(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        {
            let mut state = self.shared.state.lock().expect("commit queue poisoned");
            state.shutdown = true;
        }
        self.shared.cond.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for CommitQueue {
    fn drop(&mut self) {
        // Complete outstanding work before tearing down: a dropped engine
        // must leave its WAL fully flushed.
        self.quiesce();
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{LogEntry, Payload};
    use star_common::row::row;
    use star_common::{FieldValue, Tid};
    use star_storage::{DatabaseBuilder, TableSpec};

    fn replica() -> Arc<Database> {
        let db = DatabaseBuilder::new(2).table(TableSpec::new("t")).build();
        db.insert(0, 0, 1, row([FieldValue::U64(0)])).unwrap();
        Arc::new(db)
    }

    fn encoded_write(epoch: Epoch, value: u64) -> EncodedEntry {
        EncodedEntry::from_entry(&LogEntry {
            table: 0,
            partition: 0,
            key: 1,
            tid: Tid::new(epoch, 1),
            payload: Payload::Value(row([FieldValue::U64(value)])),
        })
    }

    fn drain_writing(epoch: Epoch, db: &Arc<Database>, value: u64) -> EpochDrain {
        EpochDrain {
            epoch,
            applies: vec![(Arc::clone(db), vec![encoded_write(epoch, value)])],
            wal_flushes: Vec::new(),
        }
    }

    fn value_of(db: &Database) -> u64 {
        db.get(0, 0, 1).unwrap().read().row.field(0).unwrap().as_u64().unwrap()
    }

    #[test]
    fn deferred_mode_holds_work_until_pumped() {
        let counters = Arc::new(RunCounters::new());
        let queue = CommitQueue::new(DrainMode::Deferred, Arc::clone(&counters));
        let db = replica();
        queue.submit(drain_writing(1, &db, 7));
        assert_eq!(value_of(&db), 0, "deferred drains must not run at submit");
        assert_eq!(queue.pending_epochs(), vec![1]);
        queue.wait_for(1);
        assert_eq!(value_of(&db), 7);
        assert!(queue.pending_epochs().is_empty());
        // Draining attributes time to the replication-flush slice.
        assert!(counters.snapshot().replication_flush_us < u64::MAX);
    }

    #[test]
    fn deferred_wait_for_later_epoch_drains_earlier_ones_in_order() {
        let counters = Arc::new(RunCounters::new());
        let queue = CommitQueue::new(DrainMode::Deferred, counters);
        let db = replica();
        queue.submit(drain_writing(1, &db, 1));
        queue.submit(drain_writing(2, &db, 2));
        queue.wait_for(2);
        assert_eq!(value_of(&db), 2);
    }

    #[test]
    fn background_mode_completes_on_wait() {
        let counters = Arc::new(RunCounters::new());
        let queue = CommitQueue::new(DrainMode::Background, counters);
        let db = replica();
        for epoch in 1..=16 {
            queue.submit(drain_writing(epoch, &db, epoch as u64));
            queue.wait_for(epoch.saturating_sub(1));
        }
        queue.quiesce();
        assert_eq!(value_of(&db), 16);
    }

    #[test]
    fn multi_replica_drains_complete_as_one_epoch() {
        // One epoch fanned across several replicas: the watermark must not
        // advance until every per-replica job has run, whichever worker runs
        // it.
        let counters = Arc::new(RunCounters::new());
        let queue = CommitQueue::new(DrainMode::Background, counters);
        let replicas: Vec<Arc<Database>> = (0..4).map(|_| replica()).collect();
        let drain = EpochDrain {
            epoch: 1,
            applies: replicas
                .iter()
                .map(|db| (Arc::clone(db), vec![encoded_write(1, 42)]))
                .collect(),
            wal_flushes: Vec::new(),
        };
        queue.submit(drain);
        queue.wait_for(1);
        for db in &replicas {
            assert_eq!(value_of(db), 42, "every replica's job must be done at wait_for");
        }
    }

    #[test]
    fn out_of_order_epoch_completion_keeps_watermark_ordered() {
        // Epoch 2's single tiny job could finish before epoch 1's larger
        // fan-out on a pool; `wait_for(2)` must nonetheless imply epoch 1 is
        // fully applied.
        let counters = Arc::new(RunCounters::new());
        let queue = CommitQueue::new(DrainMode::Background, counters);
        let replicas: Vec<Arc<Database>> = (0..6).map(|_| replica()).collect();
        let big = EpochDrain {
            epoch: 1,
            applies: replicas
                .iter()
                .map(|db| (Arc::clone(db), vec![encoded_write(1, 1)]))
                .collect(),
            wal_flushes: Vec::new(),
        };
        queue.submit(big);
        queue.submit(drain_writing(2, &replicas[0], 2));
        queue.wait_for(2);
        assert_eq!(value_of(&replicas[0]), 2);
        for db in &replicas[1..] {
            assert_eq!(value_of(db), 1);
        }
    }

    #[test]
    fn drop_quiesces_outstanding_drains() {
        let counters = Arc::new(RunCounters::new());
        let db = replica();
        {
            let queue = CommitQueue::new(DrainMode::Deferred, counters);
            queue.submit(drain_writing(1, &db, 9));
        }
        assert_eq!(value_of(&db), 9, "drop must complete pending drains");
    }

    #[test]
    fn set_mode_pumps_before_switching() {
        let counters = Arc::new(RunCounters::new());
        let mut queue = CommitQueue::new(DrainMode::Deferred, counters);
        let db = replica();
        queue.submit(drain_writing(1, &db, 5));
        queue.set_mode(DrainMode::Background);
        assert_eq!(value_of(&db), 5);
        assert_eq!(queue.mode, DrainMode::Background);
    }
}
