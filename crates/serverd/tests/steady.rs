//! A serving node holds still: it records no history nobody asked for, a
//! fence blocks on the replication it waits for instead of polling for it,
//! and two clients' `Run`s take turns instead of interleaving one epoch.

use star_core::workload::Workload;
use star_proto::{
    replication_frame_encoded, write_message, AdminQuery, Conn, Request, Response, Role,
};
use star_serverd::{Bootstrap, NodeServer};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

/// Binds `nodes` loopback listeners and parses the bootstrap that names them.
fn bind_cluster(nodes: usize) -> (Vec<TcpListener>, Bootstrap) {
    let listeners: Vec<TcpListener> =
        (0..nodes).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs: Vec<String> =
        listeners.iter().map(|l| format!("\"{}\"", l.local_addr().expect("addr"))).collect();
    let text = format!(
        "[cluster]\nnodes = [{}]\nfull_replicas = 1\nworkers_per_node = 1\npartitions = 4\n\
         seed = 11\n\n[workload]\nrows_per_partition = 64\n\
         ops_per_transaction = 4\nread_pct = 50.0\ncross_partition_pct = 25.0\n",
        addrs.join(", ")
    );
    (listeners, Bootstrap::parse(&text).expect("bootstrap parses"))
}

/// Starts every node the way the bootstrap file says.
fn start_cluster(nodes: usize) -> (Vec<NodeServer>, Bootstrap) {
    let (listeners, boot) = bind_cluster(nodes);
    let start = |(id, listener)| NodeServer::start_on(listener, &boot, id).expect("start node");
    (listeners.into_iter().enumerate().map(start).collect(), boot)
}

fn run(client: &mut Conn, partitioned_txns: u64, single_master_txns: u64) -> u64 {
    match client.request(Request::Run { iterations: 1, partitioned_txns, single_master_txns }) {
        Ok(Response::RunDone { committed, epochs: 2 }) => committed,
        other => panic!("expected RunDone, got {other:?}"),
    }
}

/// Cut 1: the general constructor means "no recorder", and says so when
/// asked for a history instead of answering an empty one.
#[test]
fn a_node_without_a_recorder_refuses_history_before_and_after_200_runs() {
    let (listeners, boot) = bind_cluster(2);
    let workload: Arc<dyn Workload> = Arc::new(boot.ycsb());
    let servers: Vec<NodeServer> = listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| {
            let (config, addrs) = (boot.config.clone(), boot.addrs.clone());
            NodeServer::start_with(listener, config, addrs, Arc::clone(&workload), id)
                .expect("start node")
        })
        .collect();
    let assert_refused = |when: &str| {
        for server in &servers {
            let mut admin = Conn::connect(server.local_addr(), Role::Admin, 0).expect("connect");
            match admin.request(Request::Admin(AdminQuery::History)).expect("answer") {
                Response::Error(message) => {
                    assert!(message.contains("record_history"), "{when}: {message}")
                }
                other => panic!("{when}: expected the typed refusal, got {other:?}"),
            }
        }
    };
    assert_refused("before any Run");
    let mut client = Conn::connect(servers[0].local_addr(), Role::Client, 0).expect("connect");
    let committed: u64 = (0..200).map(|_| run(&mut client, 4, 2)).sum();
    assert!(committed > 0, "the cluster committed nothing");
    assert_refused("after 200 Runs");
}

/// Cut 3(b): a fence waits for the replication it was told to expect and
/// answers as soon as it has arrived.
#[test]
fn a_fence_blocks_until_the_batch_it_waits_for_arrives() {
    // Node 0 of two; node 1 is played by this test.
    let (mut listeners, boot) = bind_cluster(2);
    let server = NodeServer::start_on(listeners.remove(0), &boot, 0).expect("start node");

    // A fence one batch ahead of what has arrived blocks …
    let mut coordinator =
        Conn::connect(server.local_addr(), Role::Coordinator, 0).expect("connect");
    let (answered, answer) = mpsc::channel();
    let fence = std::thread::spawn(move || {
        let fence = Request::Fence { epoch: 1, expected: vec![0, 1], failed: Vec::new() };
        let response = coordinator.request(fence);
        answered.send((response, Instant::now())).expect("the test is listening");
    });
    assert!(answer.recv_timeout(Duration::from_millis(100)).is_err(), "the fence did not wait");
    // … and answers as soon as that batch is on the node's socket.
    let mut peer = TcpStream::connect(server.local_addr()).expect("connect");
    write_message(&mut peer, &replication_frame_encoded(1, 1, &[])).expect("write the batch");
    let written = Instant::now();
    let (response, at) = answer.recv_timeout(Duration::from_secs(10)).expect("the fence answers");
    assert!(matches!(response, Ok(Response::FenceDone { epoch: 1, applied: 0 })), "{response:?}");
    let waited = at.saturating_duration_since(written);
    assert!(waited < Duration::from_millis(50), "the fence answered {waited:?} after the batch");
    fence.join().expect("fence thread");
}

/// Two clients sending `Run` at once take turns on the coordinator instead
/// of interleaving the phases and fences of one epoch.
#[test]
fn concurrent_runs_take_turns() {
    let (servers, _boot) = start_cluster(2);
    let addr = servers[0].local_addr().to_string();
    let start = Arc::new(Barrier::new(2));
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let (addr, start) = (addr.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                let mut client = Conn::connect(&addr, Role::Client, 0).expect("connect");
                start.wait();
                (0..20).map(|_| run(&mut client, 16, 6)).sum::<u64>()
            })
        })
        .collect();
    let reported: u64 = clients.into_iter().map(|c| c.join().expect("every Run is RunDone")).sum();

    let mut committed = 0;
    let mut digests = Vec::new();
    for server in &servers {
        let mut admin = Conn::connect(server.local_addr(), Role::Admin, 0).expect("connect");
        match admin.request(Request::Admin(AdminQuery::Status)).expect("status") {
            Response::Status(status) => committed += status.committed,
            other => panic!("unexpected {other:?}"),
        }
        match admin.request(Request::Admin(AdminQuery::ReplicaDigest)).expect("digest") {
            Response::Digest { records, digest } => digests.push((records, digest)),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(committed, reported, "the nodes' commit counts are what the Runs reported");
    assert_eq!(digests[0], digests[1], "the replicas diverged");
}
