//! The cluster driver: how a STAR cluster is driven over control
//! connections, written once.
//!
//! A [`ClusterDriver`] holds one [`Conn`] per live node, its own
//! [`EpochState`] (advanced at every fence by the very calls the nodes make),
//! the cluster-wide attempt baselines and the replication counts the nodes
//! report. The node that receives a client's `Run` drives its cluster through
//! one (`run_cluster`) and keeps it for the next `Run`, so a `Run` pays for
//! its connections only when it has none; the wire-chaos supervisor drives
//! through one too, adding kills, restarts and fault-injecting proxies around
//! the same calls.
//!
//! Every node is a `star_core::node::StarNode`, as in the simulator; the
//! driver is what the simulator's `StarEngine` is around its nodes, minus
//! the shared memory. Where the engine reads a stream's baseline off its
//! nodes (the most attempts any node's worker made), the driver counts it —
//! and the node catches a worker up to it the same way in both.
//!
//! One iteration is the stepped schedule of the engine's
//! `run_iteration_stepped`: `run_partitioned` (every live node, in parallel,
//! runs the seeded streams of the partitions it is the effective primary of),
//! `fence`, `run_single_master` (the elected master only), `fence`. Two
//! fences per iteration, always — including when a phase is empty — so epoch
//! numbers stay aligned with the simulation twin. A broadcast writes the
//! request to every live node's connection and only then reads the answers,
//! so the nodes work in parallel and the driver spawns no thread.

use crate::node::{lock, NodeInner};
use star_common::ClusterConfig;
use star_core::failure::EpochState;
use star_core::{FailureCase, MasterElection};
use star_proto::{AdminQuery, Conn, Request, Response, Role, WireElection, WirePhase};

/// Drives one cluster over control connections (see the module docs).
#[derive(Debug)]
pub struct ClusterDriver {
    config: ClusterConfig,
    /// One control connection per node. The driver's failure picture is this
    /// table: a node it holds no connection to is failed.
    conns: Vec<Option<Conn>>,
    state: EpochState,
    /// Cumulative transaction attempts per partition / per master worker
    /// since the driver attached — the catch-up baselines of every
    /// `RunPhase`. A node never rewinds to a baseline, so they are exact for
    /// a driver attached at the cluster's birth (the kept `Run` driver stays
    /// exact for as long as no other driver moves the cluster) and inert for
    /// a later one.
    partition_baselines: Vec<u64>,
    master_baselines: Vec<u64>,
    /// `last_sent[s][r]`: cumulative batches node `s` reported shipping to
    /// `r`. A restarted node counts from zero again; `sent_offsets` carries
    /// its pre-restart totals.
    last_sent: Vec<Vec<u64>>,
    sent_offsets: Vec<Vec<u64>>,
}

fn failed_ids(failed: &[bool]) -> Vec<u32> {
    failed.iter().enumerate().filter_map(|(n, &f)| f.then_some(n as u32)).collect()
}

impl ClusterDriver {
    /// Dials every node of a fully live cluster as `role` (`from_node` is
    /// the dialling node's id, 0 for tools) and adopts the cluster's epoch
    /// state from that node's `Status`; the election log starts as the one
    /// entry `Status` describes.
    pub fn attach(
        config: &ClusterConfig,
        addrs: &[String],
        role: Role,
        from_node: u32,
    ) -> Result<ClusterDriver, String> {
        let connect = |addr: &String| match Conn::connect(addr, role, from_node) {
            Ok(conn) => Ok(Some(conn)),
            Err(e) => Err(format!("cannot reach {addr}: {e}")),
        };
        let n = config.num_nodes;
        let mut driver = ClusterDriver {
            config: config.clone(),
            conns: addrs.iter().map(connect).collect::<Result<_, _>>()?,
            state: EpochState::new(config),
            partition_baselines: vec![0; config.partitions],
            master_baselines: vec![0; config.workers_per_node],
            last_sent: vec![vec![0; n]; n],
            sent_offsets: vec![vec![0; n]; n],
        };
        let status = match driver.request(from_node as usize, Request::Admin(AdminQuery::Status))? {
            Response::Status(status) => status,
            other => return Err(format!("expected Status, got {other:?}")),
        };
        let elected = MasterElection {
            epoch: status.last_committed,
            master: usize::try_from(status.master).ok(),
            generation: status.generation,
        };
        let healthy = vec![false; n];
        driver.state =
            EpochState::resume(status.epoch, status.last_committed, healthy, vec![elected])
                .map_err(|e| format!("node {from_node} reports an impossible state: {e}"))?;
        Ok(driver)
    }

    /// The configuration of the driven cluster.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The driver's epoch state — every live node's, between fences.
    pub fn state(&self) -> &EpochState {
        &self.state
    }

    /// `last_sent()[s][r]`: cumulative batches node `s` reported shipping to `r`.
    pub fn last_sent(&self) -> &[Vec<u64>] {
        &self.last_sent
    }

    /// The failure picture the driver observes (index = node id).
    pub fn failed(&self) -> Vec<bool> {
        self.conns.iter().map(Option::is_none).collect()
    }

    /// One request to one live node.
    pub fn request(&mut self, node: usize, body: Request) -> Result<Response, String> {
        let conn = self.conns.get_mut(node).and_then(Option::as_mut);
        let conn = conn.ok_or_else(|| format!("no connection to node {node} (it is down)"))?;
        conn.request(body).map_err(|e| format!("request to node {node} failed: {e}"))
    }

    /// Sends `make(node)` to every live node — all requests are written
    /// before any answer is read, so the nodes work on them in parallel; the
    /// responses come back in node order.
    fn request_all(
        &mut self,
        make: impl Fn(usize) -> Request,
    ) -> Result<Vec<(usize, Response)>, String> {
        let failed = |node: usize, e: std::io::Error| format!("request to node {node} failed: {e}");
        let live = self.conns.iter_mut().enumerate().filter_map(|(n, c)| Some((n, c.as_mut()?)));
        let mut sent = Vec::new();
        for (node, conn) in live {
            let ids = conn.send(vec![make(node)]).map_err(|e| failed(node, e))?;
            sent.push((node, conn, ids));
        }
        let answers = sent.into_iter().map(|(node, conn, ids)| {
            let answer = conn.recv(ids).map_err(|e| failed(node, e))?.pop();
            Ok((node, answer.ok_or_else(|| format!("node {node} answered nothing"))?))
        });
        answers.collect()
    }

    fn baselines(&mut self, phase: WirePhase) -> &mut Vec<u64> {
        match phase {
            WirePhase::Partitioned => &mut self.partition_baselines,
            WirePhase::SingleMaster => &mut self.master_baselines,
        }
    }

    /// One phase: `RunPhase` to `only` one node or to every live one, each
    /// answer's cumulative sent counters folded into the rebased shipping
    /// totals, the baselines advanced. Returns the commits.
    fn run_phase(
        &mut self,
        phase: WirePhase,
        txns: u64,
        only: Option<usize>,
    ) -> Result<u64, String> {
        let request = Request::RunPhase {
            phase,
            epoch: self.state.epoch(),
            txns,
            baselines: self.baselines(phase).clone(),
            failed: failed_ids(&self.failed()),
        };
        let answers = match only {
            Some(node) => vec![(node, self.request(node, request)?)],
            None => self.request_all(|_| request.clone())?,
        };
        let mut total = 0;
        for (node, answer) in answers {
            let Response::PhaseDone { committed, sent } = answer else {
                return Err(format!("node {node}: expected PhaseDone, got {answer:?}"));
            };
            total += committed;
            let rows = self.last_sent.get_mut(node).zip(self.sent_offsets.get(node));
            let (sums, offsets) = rows.ok_or_else(|| format!("no such node {node}"))?;
            for ((sum, offset), count) in sums.iter_mut().zip(offsets).zip(sent) {
                *sum = offset + count;
            }
        }
        self.baselines(phase).iter_mut().for_each(|baseline| *baseline += txns);
        Ok(total)
    }

    /// Runs `txns` attempts per partition on the partitions' effective
    /// primaries — unless the failure picture leaves the system unavailable,
    /// the engine's gate. Every partition has an effective primary when the
    /// system is available, so every partition's stream advances.
    pub fn run_partitioned(&mut self, txns: u64) -> Result<u64, String> {
        let available = FailureCase::classify(&self.config, &self.failed());
        if txns == 0 || !available.is_ok_and(FailureCase::available) {
            return Ok(0);
        }
        self.run_phase(WirePhase::Partitioned, txns, None)
    }

    /// Runs `txns` attempts per master worker on the elected master, if there
    /// is one. (The other nodes ship nothing, so their `last_sent` rows stay
    /// valid.)
    pub fn run_single_master(&mut self, txns: u64) -> Result<u64, String> {
        match self.state.current_master().filter(|_| txns > 0) {
            Some(master) => self.run_phase(WirePhase::SingleMaster, txns, Some(master)),
            None => Ok(0),
        }
    }

    /// Closes the epoch in flight on every live node — receiver `r` first
    /// waits until `arrivals[s][r]` batches from each sender `s` have arrived
    /// — and on the driver's own state. A node marked failed since the last
    /// fence is news to the survivors: they revert the epoch.
    pub fn fence(&mut self, arrivals: &[Vec<u64>]) -> Result<(), String> {
        let observed = self.failed();
        let failed = failed_ids(&observed);
        let epoch = self.state.epoch();
        let answers = self.request_all(|receiver| Request::Fence {
            epoch,
            expected: arrivals
                .iter()
                .map(|sent| sent.get(receiver).copied().unwrap_or(0))
                .collect(),
            failed: failed.clone(),
        })?;
        for (node, answer) in answers {
            if !matches!(answer, Response::FenceDone { epoch: fenced, .. } if fenced == epoch) {
                return Err(format!("node {node}: expected FenceDone({epoch}), got {answer:?}"));
            }
        }
        self.state.open_fence(&self.config, &observed);
        self.state.close_fence();
        Ok(())
    }

    /// [`fence`](Self::fence) on what the senders report — the arrivals of a
    /// plain network, where every shipped batch arrives.
    pub fn fence_on_last_sent(&mut self) -> Result<(), String> {
        let sent = self.last_sent.clone();
        self.fence(&sent)
    }

    /// Records that `node` died: phases route around it from now on and the
    /// next fence carries it as failed.
    pub fn mark_failed(&mut self, node: usize) {
        if let Some(conn) = self.conns.get_mut(node) {
            *conn = None;
        }
    }

    /// Brings the restarted `node`, now listening on `addr`, back: dial it
    /// (restarting nodes is a supervisor's act, so as `Role::Admin`), copy
    /// every partition it holds from the engine's recovery source, page by
    /// page (the wire form of `recover_node`'s copy loop, Thomas write
    /// rule), send it the driver's epoch state — what every survivor knows —
    /// plus `recv_base[s]`, the batches from each sender `s` that reached its
    /// address before the restart, and tell every live node it recovered.
    pub fn rejoin(&mut self, node: usize, addr: &str, recv_base: &[u64]) -> Result<(), String> {
        let conn = Conn::connect(addr, Role::Admin, 0)
            .map_err(|e| format!("cannot reconnect to restarted node {node}: {e}"))?;
        *self.conns.get_mut(node).ok_or_else(|| format!("no such node {node}"))? = Some(conn);
        if let Some((offset, sent)) = self.sent_offsets.get_mut(node).zip(self.last_sent.get(node))
        {
            offset.clone_from(sent);
        }
        let failed = self.failed();
        for partition in self.config.held_partitions(node) {
            let source = self.config.recovery_source(&failed, node, partition);
            let source = source.ok_or_else(|| format!("partition {partition} has no source"))?;
            let mut start = 0;
            loop {
                let fetch = Request::FetchPartition { partition: partition as u32, start };
                let records = match self.request(source, fetch)? {
                    Response::Records(records) if records.is_empty() => break,
                    Response::Records(records) => records,
                    other => return Err(format!("node {source}: expected Records, got {other:?}")),
                };
                start += records.len() as u64;
                match self.request(node, Request::InstallRecords { records })? {
                    Response::InstallDone { .. } => {}
                    other => {
                        return Err(format!("node {node}: expected InstallDone, got {other:?}"))
                    }
                }
            }
        }
        self.state.mark_recovered(node);
        let rejoin = Request::Rejoin {
            epoch: self.state.epoch(),
            last_committed: self.state.last_committed(),
            failed: failed_ids(self.state.failed()),
            elections: self.state.elections().iter().map(WireElection::from_election).collect(),
            recv_base: recv_base.to_vec(),
        };
        match self.request(node, rejoin)? {
            Response::Ok => {}
            other => return Err(format!("node {node}: expected Ok to Rejoin, got {other:?}")),
        }
        // The survivors' clocks learn it now, not at the next fence: if the
        // node crashed again before that fence, they would not revert.
        let recovered = self.request_all(|_| Request::Recovered { node: node as u32 })?;
        match recovered.into_iter().find(|(_, answer)| *answer != Response::Ok) {
            None => Ok(()),
            Some((other, answer)) => {
                Err(format!("node {other}: expected Ok to Recovered, got {answer:?}"))
            }
        }
    }
}

/// What a node does with a client's `Run`: drives its own cluster (itself
/// included, through its own listener — one uniform path) through
/// `iterations` stepped iterations, fencing on what the senders report.
/// Returns total committed transactions and the epochs closed.
///
/// The driver is the one the last `Run` left in the node's `runs` slot, or a
/// freshly attached one when there is none or another driver has fenced the
/// cluster since (the kept driver's epoch is not the node's). Only a `Run`
/// that succeeds puts its driver back, so an error drops it. The `runs` lock
/// is held for the whole `Run`, so concurrent `Run`s take turns instead of
/// interleaving phases of one epoch.
pub(crate) fn run_cluster(
    inner: &NodeInner,
    iterations: u32,
    partitioned_txns: u64,
    single_master_txns: u64,
) -> Result<(u64, u32), String> {
    let mut kept = lock(&inner.runs);
    let (id, role) = (inner.id as u32, Role::Coordinator);
    let mut driver = match kept.take() {
        Some(driver) if driver.state().epoch() == inner.epoch() => driver,
        _ => ClusterDriver::attach(&inner.config, &inner.addrs, role, id)?,
    };
    let mut committed = 0;
    for _ in 0..iterations {
        committed += driver.run_partitioned(partitioned_txns)?;
        driver.fence_on_last_sent()?;
        committed += driver.run_single_master(single_master_txns)?;
        driver.fence_on_last_sent()?;
    }
    *kept = Some(driver);
    Ok((committed, iterations.saturating_mul(2)))
}
