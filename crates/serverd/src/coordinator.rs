//! The clustered run loop, executed by the node that receives a `Run`.
//!
//! The coordinator drives the deterministic stepped schedule the simulated
//! engine's `run_iteration_stepped` performs, over control connections to
//! every node (including itself, through its own listener — one uniform
//! path):
//!
//! 1. `RunPhase(Partitioned, e)` to every node in parallel; each runs its
//!    own partitions' seeded transaction streams and reports its cumulative
//!    per-destination replication batch counts.
//! 2. `Fence(e, expected)` to every node: `expected[s]` for receiver `r` is
//!    the cumulative count sender `s` reported having shipped to `r`, so the
//!    fence blocks exactly until the phase's replication has landed.
//! 3. `RunPhase(SingleMaster, e+1)` to the elected master only.
//! 4. `Fence(e+1, …)` to every node.
//!
//! Two fences per iteration, always — including when the single-master
//! phase is empty — so epoch numbers stay aligned with the simulation twin.

use crate::node::NodeInner;
use star_proto::{Conn, Request, Response, Role, WirePhase};
use std::sync::Mutex;

/// One node's answer to a phase: committed count and cumulative sent counts.
fn expect_phase_done(response: Response) -> Result<(u64, Vec<u64>), String> {
    match response {
        Response::PhaseDone { committed, sent } => Ok((committed, sent)),
        Response::Error(message) => Err(message),
        other => Err(format!("expected PhaseDone, got {other:?}")),
    }
}

/// Runs `iterations` stepped iterations across the cluster. Returns total
/// committed transactions and the number of epochs closed.
pub(crate) fn run_cluster(
    inner: &NodeInner,
    iterations: u32,
    partitioned_txns: u64,
    single_master_txns: u64,
) -> Result<(u64, u32), String> {
    let num_nodes = inner.config.num_nodes;
    let master = inner.config.master_node();
    let conns: Vec<Mutex<Conn>> = inner
        .addrs
        .iter()
        .map(|addr| {
            Conn::connect(addr, Role::Coordinator, inner.node as u32)
                .map(Mutex::new)
                .map_err(|e| format!("coordinator cannot reach {addr}: {e}"))
        })
        .collect::<Result<_, String>>()?;

    // last_sent[s][r]: cumulative batches node s reported shipping to r.
    let mut last_sent: Vec<Vec<u64>> = vec![vec![0; num_nodes]; num_nodes];
    let mut epoch = {
        // The coordinator's own epoch is the cluster's: every node starts at
        // 1 and only fences advance it.
        let status =
            conn_request(&conns[inner.node], Request::Admin(star_proto::AdminQuery::Status))?;
        match status {
            Response::Status(status) => status.epoch,
            other => return Err(format!("expected Status, got {other:?}")),
        }
    };
    let mut committed_total = 0u64;
    let mut epochs_closed = 0u32;

    for _ in 0..iterations {
        // Partitioned phase, all nodes in parallel.
        // Empty baselines and failure set: the healthy steady-state path —
        // nodes skip fast-forwarding and route by configured primaries.
        let phase_results = broadcast(&conns, |_node| Request::RunPhase {
            phase: WirePhase::Partitioned,
            epoch,
            txns: partitioned_txns,
            baselines: Vec::new(),
            failed: Vec::new(),
        })?;
        for (node, response) in phase_results.into_iter().enumerate() {
            let (committed, sent) = expect_phase_done(response)?;
            committed_total += committed;
            last_sent[node] = sent;
        }
        fence_all(&conns, &last_sent, epoch)?;
        epoch += 1;
        epochs_closed += 1;

        // Single-master phase, master only (the other nodes' sent counts are
        // unchanged, so their rows in `last_sent` stay valid).
        if single_master_txns > 0 {
            let response = conn_request(
                &conns[master],
                Request::RunPhase {
                    phase: WirePhase::SingleMaster,
                    epoch,
                    txns: single_master_txns,
                    baselines: Vec::new(),
                    failed: Vec::new(),
                },
            )?;
            let (committed, sent) = expect_phase_done(response)?;
            committed_total += committed;
            last_sent[master] = sent;
        }
        fence_all(&conns, &last_sent, epoch)?;
        epoch += 1;
        epochs_closed += 1;
    }

    Ok((committed_total, epochs_closed))
}

fn conn_request(conn: &Mutex<Conn>, body: Request) -> Result<Response, String> {
    let mut conn_guard = conn.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    conn_guard.request(body).map_err(|e| format!("control request failed: {e}"))
}

/// Sends one request to every node in parallel and collects the responses in
/// node order.
fn broadcast(
    conns: &[Mutex<Conn>],
    make_request: impl Fn(usize) -> Request + Sync,
) -> Result<Vec<Response>, String> {
    let results: Vec<Result<Response, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(node, conn)| {
                let request = make_request(node);
                scope.spawn(move || conn_request(conn, request))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle.join().unwrap_or_else(|_| Err("control thread panicked".to_string()))
            })
            .collect()
    });
    results.into_iter().collect()
}

/// Fences every node for `epoch`: receiver `r` waits for `last_sent[s][r]`
/// batches from each sender `s`.
fn fence_all(conns: &[Mutex<Conn>], last_sent: &[Vec<u64>], epoch: u32) -> Result<(), String> {
    let responses = broadcast(conns, |receiver| Request::Fence {
        epoch,
        expected: last_sent.iter().map(|sent_by_s| sent_by_s[receiver]).collect(),
        failed: Vec::new(),
    })?;
    for (node, response) in responses.into_iter().enumerate() {
        match response {
            Response::FenceDone { .. } => {}
            Response::Error(message) => {
                return Err(format!("fence failed on node {node}: {message}"))
            }
            other => return Err(format!("node {node}: expected FenceDone, got {other:?}")),
        }
    }
    Ok(())
}
