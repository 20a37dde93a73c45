//! Transport parity: wire == simulation, byte for byte.
//!
//! The same seeded YCSB workload is driven twice — once through a real
//! 3-node localhost TCP cluster, once through the in-memory simulated engine
//! (`run_iteration_stepped`, the deterministic twin) — and the results are
//! compared at the byte level via the canonical protocol encodings:
//!
//! * the committed histories (merged across server nodes, stable-sorted by
//!   `(epoch, executor)`) must be **byte-identical** under `encode_history`;
//! * every node's election log must be byte-identical under
//!   `encode_elections`;
//! * every node's replica must digest identically to the twin's replica of
//!   the same node id;
//! * the merged wire history must pass the serializability checker.
//!
//! Run at 0%, 10% and 50% cross-partition traffic, per the regression-suite
//! contract in the ISSUE.

use star_core::engine::StarEngine;
use star_core::history::{CommittedTxn, HistoryRecorder};
use star_core::workload::Workload;
use star_proto::{encode_elections, encode_history, AdminQuery, Conn, Request, Response, Role};
use star_serverd::{replica_digest, Bootstrap, NodeServer};
use std::net::TcpListener;
use std::sync::Arc;

const ITERATIONS: u32 = 3;
const PARTITIONED_TXNS: u64 = 20;
const SINGLE_MASTER_TXNS: u64 = 10;

/// One admin request; the parity suite has no use for I/O errors.
fn request(conn: &mut Conn, body: Request) -> Response {
    conn.request(body).expect("request")
}

fn connect(addr: &str) -> Conn {
    Conn::connect(addr, Role::Admin, 0).expect("connect")
}

/// Boots a 3-node localhost cluster for `cross_pct`% cross-partition YCSB.
fn boot_cluster(cross_pct: f64) -> (Vec<NodeServer>, Bootstrap) {
    let listeners: Vec<TcpListener> =
        (0..3).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs: Vec<String> =
        listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
    let text = format!(
        "[cluster]\nnodes = [{}]\nfull_replicas = 1\nworkers_per_node = 1\n\
         partitions = 6\nseed = 42\n\n[workload]\nrows_per_partition = 64\n\
         ops_per_transaction = 4\nread_pct = 80.0\ncross_partition_pct = {cross_pct}\n",
        addrs.iter().map(|a| format!("\"{a}\"")).collect::<Vec<_>>().join(", ")
    );
    let boot = Bootstrap::parse(&text).expect("bootstrap parses");
    let servers: Vec<NodeServer> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| NodeServer::start_on(listener, &boot, id).expect("start node"))
        .collect();
    (servers, boot)
}

/// The simulation twin: same config, same workload, same stepped schedule.
fn run_twin(boot: &Bootstrap) -> (StarEngine, Arc<HistoryRecorder>, u64) {
    let workload: Arc<dyn Workload> = Arc::new(boot.ycsb());
    let mut engine = StarEngine::new(boot.config.clone(), workload).expect("twin engine");
    let recorder = Arc::new(HistoryRecorder::new());
    engine.set_history_recorder(Arc::clone(&recorder));
    for _ in 0..ITERATIONS {
        engine.run_iteration_stepped(PARTITIONED_TXNS, SINGLE_MASTER_TXNS);
    }
    engine.quiesce();
    let committed = engine.counters().snapshot().committed;
    (engine, recorder, committed)
}

fn parity_at(cross_pct: f64) {
    let (servers, boot) = boot_cluster(cross_pct);
    let mut coordinator = connect(servers[0].local_addr());
    let run = Request::Run {
        iterations: ITERATIONS,
        partitioned_txns: PARTITIONED_TXNS,
        single_master_txns: SINGLE_MASTER_TXNS,
    };
    let wire_committed = match request(&mut coordinator, run) {
        Response::RunDone { committed, epochs } => {
            assert_eq!(epochs, 2 * ITERATIONS, "two epochs close per iteration");
            committed
        }
        other => panic!("expected RunDone, got {other:?}"),
    };
    assert!(wire_committed > 0, "the cluster committed nothing");

    // Collect every node's history, election log and replica digest.
    let mut wire_history: Vec<CommittedTxn> = Vec::new();
    let mut wire_elections = Vec::new();
    let mut wire_digests = Vec::new();
    for server in &servers {
        let mut admin = connect(server.local_addr());
        match request(&mut admin, Request::Admin(AdminQuery::History)) {
            Response::History(txns) => {
                wire_history.extend(txns.iter().map(|t| t.to_committed()));
            }
            other => panic!("expected History, got {other:?}"),
        }
        match request(&mut admin, Request::Admin(AdminQuery::Elections)) {
            Response::Elections(log) => wire_elections.push(log),
            other => panic!("expected Elections, got {other:?}"),
        }
        match request(&mut admin, Request::Admin(AdminQuery::ReplicaDigest)) {
            Response::Digest { records, digest } => wire_digests.push((records, digest)),
            other => panic!("expected Digest, got {other:?}"),
        }
    }
    // Per-node histories are already in stepped order; the stable sort by
    // (epoch, executor) interleaves them into the twin's global order.
    wire_history.sort_by_key(|t| (t.epoch, t.executor));

    let (twin_engine, twin_recorder, twin_committed) = run_twin(&boot);

    // Byte-identical committed histories.
    let twin_history = twin_recorder.committed();
    assert_eq!(
        wire_committed, twin_committed,
        "commit counts diverge at {cross_pct}% cross-partition"
    );
    assert_eq!(
        encode_history(&wire_history),
        encode_history(&twin_history),
        "wire and simulated histories are not byte-identical at {cross_pct}%"
    );

    // Byte-identical election logs on every node.
    let twin_elections = encode_elections(twin_engine.elections());
    for (node, log) in wire_elections.iter().enumerate() {
        let encoded = encode_elections(&log.iter().map(|e| e.to_election()).collect::<Vec<_>>());
        assert_eq!(encoded, twin_elections, "node {node} election log diverges");
    }

    // Identical replica state, node by node.
    for (node, &wire_digest) in wire_digests.iter().enumerate() {
        let twin_db = &twin_engine.cluster().nodes()[node].db;
        assert_eq!(
            wire_digest,
            replica_digest(twin_db),
            "node {node} replica diverges at {cross_pct}%"
        );
    }

    // The wire history is serializable under the chaos checker's oracle.
    let report = star_chaos::check_history(&wire_history);
    assert!(
        report.is_serializable(),
        "wire history not serializable at {cross_pct}%: {:?}",
        report.violation
    );
    assert_eq!(report.txns, wire_history.len());

    for server in &servers {
        server.shutdown();
    }
}

#[test]
fn parity_at_zero_percent_cross_partition() {
    parity_at(0.0);
}

#[test]
fn parity_at_ten_percent_cross_partition() {
    parity_at(10.0);
}

#[test]
fn parity_at_fifty_percent_cross_partition() {
    parity_at(50.0);
}
