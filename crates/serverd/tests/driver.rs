//! The cluster driver against a real localhost cluster: what a restarted
//! node is handed by `rejoin` is the driver's epoch state, field for field.
//! (Driving healthy iterations, also from a driver attached mid-life, is
//! covered byte-for-byte against the simulation twin in `parity.rs`; kills
//! and recoveries under fault injection in `star-wire-chaos`.)

use star_proto::{AdminQuery, Request, Response, Role, WireElection};
use star_serverd::{Bootstrap, ClusterDriver, NodeServer};
use std::net::TcpListener;

fn bind() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    (listener, addr)
}

#[test]
fn rejoin_round_trips_the_epoch_state_field_for_field() {
    // Node 0 is the only full replica; node 1, the only partial one, holds
    // every partition too, so it can source node 0's recovery.
    let ((listener0, addr0), (listener1, addr1)) = (bind(), bind());
    let boot = Bootstrap::parse(&format!(
        "[cluster]\nnodes = [\"{addr0}\", \"{addr1}\"]\nfull_replicas = 1\nworkers_per_node = 1\n\
         partitions = 4\nseed = 9\n\n[workload]\nrows_per_partition = 32\n"
    ))
    .expect("bootstrap parses");
    let master = NodeServer::start_on(listener0, &boot, 0).expect("start");
    let _partial = NodeServer::start_on(listener1, &boot, 1).expect("start");
    let mut driver =
        ClusterDriver::attach(&boot.config, &boot.addrs, Role::Admin, 0).expect("attach");
    assert!(driver.run_partitioned(6).expect("partitioned phase") > 0);
    driver.fence_on_last_sent().expect("fence");
    // The master dies inside epoch 2; that epoch's fence elects nobody.
    driver.mark_failed(0);
    drop(master);
    driver.fence_on_last_sent().expect("fence");
    assert_eq!(driver.state().current_master(), None);

    let (listener, addr) = bind();
    let _restarted = NodeServer::start_on(listener, &boot, 0).expect("restart");
    let recv_base: Vec<u64> = driver.last_sent().iter().map(|sent| sent[0]).collect();
    driver.rejoin(0, &addr, &recv_base).expect("rejoin");

    let state = driver.state().clone();
    assert_eq!((state.epoch(), state.last_committed(), state.failed()), (3, 2, &[false; 2][..]));
    match driver.request(0, Request::Admin(AdminQuery::Status)).expect("status") {
        Response::Status(s) => assert_eq!(
            (s.epoch, s.last_committed, s.master, s.generation),
            (state.epoch(), state.last_committed(), -1, 1)
        ),
        other => panic!("unexpected {other:?}"),
    }
    match driver.request(0, Request::Admin(AdminQuery::Elections)).expect("elections") {
        Response::Elections(log) => {
            let log: Vec<_> = log.into_iter().map(WireElection::to_election).collect();
            assert_eq!(log, state.elections());
        }
        other => panic!("unexpected {other:?}"),
    }
    // Caught up from the survivor, and fencing with the cluster again: the
    // full replica takes the master role back.
    let mut digest = |n| driver.request(n, Request::Admin(AdminQuery::ReplicaDigest));
    assert_eq!(digest(0), digest(1));
    driver.fence_on_last_sent().expect("fence");
    assert_eq!(driver.state().current_master(), Some(0));
}
