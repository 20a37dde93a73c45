//! Transport parity: wire == simulation, byte for byte.
//!
//! The same seeded YCSB workload is driven twice — once through a real 3-node
//! localhost TCP cluster parsed from a bootstrap file (all iterations but the
//! last by a client's `Run`, the last by a `ClusterDriver` attached to the
//! cluster mid-life), once through the in-memory simulated engine
//! (`run_iteration_stepped`, the deterministic twin) — and the two are
//! compared with the comparison every wire-vs-twin check makes,
//! `star_wire_chaos::twin_violations`: merged committed histories, every
//! node's election log and every node's replica digest byte-identical to the
//! twin's, and the wire history serializable.
//!
//! Run at 0%, 10% and 50% cross-partition traffic. One more case interleaves
//! the drivers — a `Run`, an outside driver's iteration, another `Run` — so
//! the coordinator's kept driver finds the cluster moved under it and must
//! attach afresh.

use star_core::engine::StarEngine;
use star_core::history::HistoryRecorder;
use star_core::workload::Workload;
use star_proto::{Conn, Request, Response, Role};
use star_serverd::{Bootstrap, ClusterDriver, NodeServer};
use std::net::TcpListener;
use std::sync::Arc;

const ITERATIONS: u32 = 3;
const PARTITIONED_TXNS: u64 = 20;
const SINGLE_MASTER_TXNS: u64 = 10;

/// Boots a 3-node localhost cluster for `cross_pct`% cross-partition YCSB.
fn boot_cluster(cross_pct: f64) -> (Vec<NodeServer>, Bootstrap) {
    let listeners: Vec<TcpListener> =
        (0..3).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs: Vec<String> =
        listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect();
    let text = format!(
        "[cluster]\nnodes = [{}]\nfull_replicas = 1\nworkers_per_node = 1\n\
         partitions = 6\nseed = 42\nrecord_history = true\n\n[workload]\nrows_per_partition = 64\n\
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

/// One `Run` of `iterations` stepped iterations; returns its commits.
fn run(client: &mut Conn, iterations: u32) -> u64 {
    let run = Request::Run {
        iterations,
        partitioned_txns: PARTITIONED_TXNS,
        single_master_txns: SINGLE_MASTER_TXNS,
    };
    match client.request(run).expect("request") {
        Response::RunDone { committed, epochs } if epochs == 2 * iterations => committed,
        other => panic!("expected RunDone closing {} epochs, got {other:?}", 2 * iterations),
    }
}

/// One stepped iteration through `driver`; returns its commits.
fn iterate(driver: &mut ClusterDriver) -> u64 {
    let mut committed = driver.run_partitioned(PARTITIONED_TXNS).expect("partitioned phase");
    driver.fence_on_last_sent().expect("fence");
    committed += driver.run_single_master(SINGLE_MASTER_TXNS).expect("single-master phase");
    driver.fence_on_last_sent().expect("fence");
    committed
}

fn parity_at(cross_pct: f64) {
    let (servers, boot) = boot_cluster(cross_pct);
    let mut client = Conn::connect(servers[0].local_addr(), Role::Client, 0).expect("connect");
    let run = Request::Run {
        iterations: ITERATIONS - 1,
        partitioned_txns: PARTITIONED_TXNS,
        single_master_txns: SINGLE_MASTER_TXNS,
    };
    let mut wire_committed = match client.request(run).expect("request") {
        Response::RunDone { committed, epochs } => {
            assert_eq!(epochs, 2 * (ITERATIONS - 1), "two epochs close per iteration");
            committed
        }
        other => panic!("expected RunDone, got {other:?}"),
    };
    assert!(wire_committed > 0, "the cluster committed nothing");

    // A driver attached now resumes at the cluster's epoch, and its one
    // iteration continues the `Run`'s as the twin's last continues its others.
    let mut driver =
        ClusterDriver::attach(&boot.config, &boot.addrs, Role::Admin, 0).expect("attach");
    assert_eq!(driver.state().epoch(), 2 * (ITERATIONS - 1) + 1);
    wire_committed += driver.run_partitioned(PARTITIONED_TXNS).expect("partitioned phase");
    driver.fence_on_last_sent().expect("fence");
    wire_committed += driver.run_single_master(SINGLE_MASTER_TXNS).expect("single-master phase");
    driver.fence_on_last_sent().expect("fence");

    let (twin_engine, twin_recorder, twin_committed) = run_twin(&boot);
    assert_eq!(
        wire_committed, twin_committed,
        "commit counts diverge at {cross_pct}% cross-partition"
    );
    let (history_len, violations) =
        star_wire_chaos::twin_violations(&mut driver, Vec::new(), &twin_engine, &twin_recorder)
            .expect("every node answers");
    assert!(violations.is_empty(), "wire != twin at {cross_pct}%: {violations:?}");
    assert_eq!(history_len, wire_committed, "every commit the Run reported is in the history");

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

#[test]
fn parity_across_interleaved_drivers() {
    let (servers, boot) = boot_cluster(10.0);
    let mut client = Conn::connect(servers[0].local_addr(), Role::Client, 0).expect("connect");
    let mut wire_committed = run(&mut client, 1);
    // The outside driver fences the cluster past the epoch the coordinator's
    // kept driver stopped at, so the second `Run` must not reuse it.
    let mut driver =
        ClusterDriver::attach(&boot.config, &boot.addrs, Role::Admin, 0).expect("attach");
    assert_eq!(driver.state().epoch(), 3);
    wire_committed += iterate(&mut driver);
    wire_committed += run(&mut client, 1);

    let (twin_engine, twin_recorder, twin_committed) = run_twin(&boot);
    assert_eq!(wire_committed, twin_committed, "commit counts diverge");
    let (history_len, violations) =
        star_wire_chaos::twin_violations(&mut driver, Vec::new(), &twin_engine, &twin_recorder)
            .expect("every node answers");
    assert!(violations.is_empty(), "wire != twin across interleaved drivers: {violations:?}");
    assert_eq!(history_len, wire_committed, "every reported commit is in the history");

    for server in &servers {
        server.shutdown();
    }
}
