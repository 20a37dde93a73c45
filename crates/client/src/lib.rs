//! `star-client`: connection-pooled, pipelined client for `star-serverd`.
//!
//! [`Client`] is one [`star_proto::Conn`]: requests carry correlation ids, so
//! many can be written before any response is read — [`Client::pipeline`]
//! ships a whole batch in one write burst and then collects the responses,
//! which is what makes a point-read driver fast over a real network.
//! [`Pool`] holds one client per cluster node and routes point reads to a
//! node that actually holds the partition.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use star_proto::{Conn, Request, Response, Role};
use std::io;

/// One connection to one node: a [`star_proto::Conn`] dialled as a client
/// (no node id of its own).
#[derive(Debug)]
pub struct Client(Conn);

impl Client {
    /// Connects to `addr` and performs the handshake, retrying while the
    /// node is still booting.
    pub fn connect(addr: &str, role: Role) -> io::Result<Client> {
        Conn::connect(addr, role, 0).map(Client)
    }

    /// The node id of the server this client is connected to.
    pub fn node(&self) -> u32 {
        self.0.node()
    }

    /// The cluster size the server reported at handshake.
    pub fn num_nodes(&self) -> u32 {
        self.0.num_nodes()
    }

    /// Sends one request and blocks for its response.
    pub fn request(&mut self, body: Request) -> io::Result<Response> {
        self.0.request(body)
    }

    /// Pipelines a batch (see [`star_proto::Conn::pipeline`]): one write
    /// burst, responses returned in request order.
    pub fn pipeline(&mut self, bodies: Vec<Request>) -> io::Result<Vec<Response>> {
        self.0.pipeline(bodies)
    }
}

/// One client per cluster node, with round-robin selection for queries any
/// node can answer and partition-aware routing for point reads.
pub struct Pool {
    clients: Vec<Client>,
    next: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("nodes", &self.clients.len()).finish()
    }
}

impl Pool {
    /// Connects to every node address.
    pub fn connect(addrs: &[String], role: Role) -> io::Result<Pool> {
        let clients =
            addrs.iter().map(|addr| Client::connect(addr, role)).collect::<io::Result<Vec<_>>>()?;
        Ok(Pool { clients, next: 0 })
    }

    /// Number of pooled connections.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// The client for one specific node.
    pub fn node(&mut self, node: usize) -> Option<&mut Client> {
        self.clients.get_mut(node)
    }

    /// The next client in round-robin order.
    pub fn any(&mut self) -> &mut Client {
        let pick = self.next % self.clients.len();
        self.next = self.next.wrapping_add(1);
        &mut self.clients[pick]
    }
}
