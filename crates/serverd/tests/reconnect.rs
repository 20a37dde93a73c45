//! TcpMesh behaviour: `send` only queues, and `flush` writes each link's
//! queue in send order. A peer that drops its inbound connection (it
//! crashed, or restarted) must not wedge the sender — one reconnect attempt
//! per flush, and a peer that never comes back is a typed
//! [`SendError::Disconnected`], not a hang. The receiving side must likewise
//! survive a connection dying mid-frame.

use star_common::{FieldValue, Row, Tid};
use star_core::messages::ReplicationBatch;
use star_net::{SendError, Transport};
use star_proto::{read_message, write_message, AdminQuery, Request, Role, WireMessage};
use star_replication::{EncodedEntry, LogEntry, Payload};
use star_serverd::{Bootstrap, NodeServer, TcpMesh};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn batch(epoch: u32, key: u64) -> ReplicationBatch {
    let entry = EncodedEntry::from_owned(LogEntry {
        table: 0,
        partition: 0,
        key,
        tid: Tid::from_raw(key + 1),
        payload: Payload::Value(Row::new(vec![FieldValue::U64(key * 10)])),
    });
    ReplicationBatch { from_node: 0, epoch, entries: vec![entry] }
}

/// Reads one replication frame off an accepted mesh connection.
fn read_replication(stream: &mut TcpStream) -> (u32, u32) {
    match read_message(stream).expect("frame decodes") {
        WireMessage::Replication { from, epoch, .. } => (from, epoch),
        other => panic!("expected Replication, got {other:?}"),
    }
}

/// `send` + `flush`, the way a phase ships one batch.
fn ship(mesh: &TcpMesh, to: usize, batch: ReplicationBatch) -> Result<(), SendError> {
    mesh.send(to, batch)?;
    mesh.flush()
}

/// The peer drops its connection between flushes (a crash/restart); the
/// mesh's single retry reconnects and delivers on a fresh connection, and
/// the sent counter reflects only successful deliveries.
#[test]
fn send_reconnects_after_the_peer_drops_the_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let mesh = TcpMesh::new(0, vec!["127.0.0.1:0".into(), addr]);

    ship(&mesh, 1, batch(1, 7)).expect("first flush connects lazily");
    let (mut conn1, _) = listener.accept().expect("accept");
    assert_eq!(read_replication(&mut conn1), (0, 1));

    // Peer "restarts": the accepted connection dies with the old process.
    drop(conn1);
    std::thread::sleep(Duration::from_millis(50));

    // The kernel may buffer one write before noticing the peer reset, so
    // the flush that *observes* the failure (and reconnects) may be the
    // first or the second. Either way a fresh connection must arrive.
    let mut delivered = 0u32;
    for attempt in 0u64..2 {
        if ship(&mesh, 1, batch(2, 8 + attempt)).is_ok() {
            delivered += 1;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let (mut conn2, _) = listener.accept().expect("reconnected");
    assert_eq!(read_replication(&mut conn2).0, 0, "replayed frame comes from node 0");
    assert!(delivered >= 1, "at least one flush must succeed after reconnecting");
    assert_eq!(
        mesh.sent_counts()[1],
        u64::from(1 + delivered),
        "sent counter tracks written frames only"
    );
}

/// Frames `send` queues stay off the socket until `flush`, which then
/// delivers all of them, in send order, and counts them.
#[test]
fn queued_frames_reach_the_socket_only_at_flush_and_in_send_order() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let mesh = TcpMesh::new(0, vec!["127.0.0.1:0".into(), addr]);
    ship(&mesh, 1, batch(1, 0)).expect("the first flush connects");
    let (mut conn, _) = listener.accept().expect("accept");
    assert_eq!(read_replication(&mut conn), (0, 1));

    for epoch in 2..5 {
        mesh.send(1, batch(epoch, u64::from(epoch))).expect("send queues");
    }
    conn.set_read_timeout(Some(Duration::from_millis(100))).expect("read timeout");
    let early = conn.read(&mut [0u8; 1]).expect_err("a queued frame reached the socket");
    assert!(matches!(early.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut));
    assert_eq!(mesh.sent_counts()[1], 1, "a queued frame is not sent yet");

    mesh.flush().expect("flush");
    conn.set_read_timeout(None).expect("blocking reads");
    let epochs: Vec<u32> = (2..5).map(|_| read_replication(&mut conn).1).collect();
    assert_eq!(epochs, vec![2, 3, 4], "one flush delivers every queued frame in send order");
    assert_eq!(mesh.sent_counts()[1], 4);
}

/// A peer that never comes back: the mesh retries until its connect
/// timeout, then reports the typed disconnect error instead of hanging.
#[test]
fn send_to_a_dead_peer_is_a_typed_error() {
    // Bind-then-drop reserves an address nobody is listening on.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener);

    let mesh = TcpMesh::new(0, vec!["127.0.0.1:0".into(), addr])
        .with_connect_timeout(Duration::from_millis(100));
    match ship(&mesh, 1, batch(1, 3)) {
        Err(SendError::Disconnected(1)) => {}
        other => panic!("expected Disconnected(1), got {other:?}"),
    }
    assert_eq!(mesh.sent_counts()[1], 0, "a failed flush must not count as sent");
}

/// A connection that dies mid-frame must not corrupt the receiving node:
/// the server drops that connection and keeps serving fresh ones.
#[test]
fn server_survives_a_connection_dying_mid_frame() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let boot = Bootstrap::parse(&format!(
        "[cluster]\nnodes = [\"{addr}\"]\nfull_replicas = 1\nworkers_per_node = 1\n\
         partitions = 2\nseed = 7\n\n[workload]\nrows_per_partition = 8\n"
    ))
    .expect("bootstrap parses");
    let server = NodeServer::start_on(listener, &boot, 0).expect("server starts");

    // Half a frame: a valid length prefix promising more bytes than sent.
    let mut torn = TcpStream::connect(server.local_addr()).expect("connect");
    torn.write_all(&[64, 0, 0, 0, 2]).expect("partial frame bytes");
    drop(torn);

    // The server must still answer a well-formed admin query.
    let mut admin = TcpStream::connect(server.local_addr()).expect("reconnect");
    write_message(&mut admin, &WireMessage::Hello { role: Role::Admin, node: 0 }).expect("hello");
    match read_message(&mut admin).expect("ack") {
        WireMessage::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    write_message(
        &mut admin,
        &WireMessage::Request { id: 1, body: Request::Admin(AdminQuery::Status) },
    )
    .expect("status request");
    match read_message(&mut admin).expect("status response") {
        WireMessage::Response { id: 1, .. } => {}
        other => panic!("expected Response, got {other:?}"),
    }
    server.shutdown();
}
