//! The `wire_ycsb` workload: two `NodeServer`s on kernel-assigned loopback
//! ports inside the harness process, driven by one `star_client::Client`
//! that sends `Run` requests back to back (closed loop, one connection).

use crate::host;
use crate::inproc::{workload_definition, ycsb_config};
use crate::measure::{Latency, Subject, Window};
use crate::spec::{self, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use star_client::Client;
use star_common::ClusterConfig;
use star_proto::{AdminQuery, Request, Response, Role};
use star_serverd::NodeServer;
use star_workloads::ycsb::{ycsb_key, YCSB_TABLE};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Point reads compared between the two holders of each partition.
const SAMPLED_GETS: usize = 64;

/// Transaction attempts one measured `Run` asks for.
const ATTEMPTS_PER_RUN: u64 = spec::PARTITIONS as u64 * spec::WIRE_PARTITIONED_TXNS
    + spec::WORKERS_PER_NODE as u64 * spec::WIRE_SINGLE_MASTER_TXNS;

/// The cluster configuration of the wire workload — what a bootstrap file
/// with these values parses to: real sockets replace the simulated latency,
/// and the wire path has no WAL.
pub fn cluster_config(seed: u64) -> ClusterConfig {
    ClusterConfig::builder()
        .nodes(spec::NODES)
        .full_replicas(spec::FULL_REPLICAS)
        .workers_per_node(spec::WORKERS_PER_NODE)
        .partitions(spec::PARTITIONS)
        .replication_factor(spec::REPLICATION_FACTOR)
        .network_latency(Duration::ZERO)
        .seed(seed)
        .build()
        .expect("the fixed shape is a valid cluster")
}

/// A running loopback cluster and the client connected to its coordinator.
pub struct Cluster {
    // Declared before the servers so the connection closes first.
    pub client: Client,
    pub addrs: Vec<String>,
    servers: Vec<NodeServer>,
    /// Transactions the cluster reported committed in `Run`s so far.
    pub run_committed: u64,
}

impl Cluster {
    /// Binds, starts every node, connects and pings: load-to-ready. Returns
    /// the cluster, the whole time and the time inside `NodeServer` starts,
    /// both in seconds.
    pub fn start(
        config: &ClusterConfig,
        definition: Arc<dyn star_core::Workload>,
    ) -> Result<(Cluster, f64, f64), String> {
        let start = Instant::now();
        let listeners: Vec<TcpListener> = (0..config.num_nodes)
            .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}")))
            .collect::<Result<_, _>>()?;
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()).map_err(|e| format!("local_addr: {e}")))
            .collect::<Result<_, _>>()?;
        let boot_start = Instant::now();
        let servers: Vec<NodeServer> = listeners
            .into_iter()
            .enumerate()
            .map(|(id, listener)| {
                NodeServer::start_with(
                    listener,
                    config.clone(),
                    addrs.clone(),
                    Arc::clone(&definition),
                    id,
                )
                .map_err(|e| format!("NodeServer {id}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let boot_s = boot_start.elapsed().as_secs_f64();
        let mut client = Client::connect(&addrs[config.master_node()], Role::Client)
            .map_err(|e| format!("connect: {e}"))?;
        match client.request(Request::Ping) {
            Ok(Response::Pong) => {}
            other => return Err(format!("first ping answered {other:?}")),
        }
        let cluster = Cluster { client, addrs, servers, run_committed: 0 };
        Ok((cluster, start.elapsed().as_secs_f64(), boot_s))
    }

    pub fn nodes(&self) -> usize {
        self.servers.len()
    }

    /// One `Run` round trip; returns the transactions it committed.
    pub fn run(
        &mut self,
        iterations: u32,
        partitioned: u64,
        single_master: u64,
    ) -> Result<u64, String> {
        let request = Request::Run {
            iterations,
            partitioned_txns: partitioned,
            single_master_txns: single_master,
        };
        match self.client.request(request) {
            Ok(Response::RunDone { committed, .. }) => {
                self.run_committed += committed;
                Ok(committed)
            }
            Ok(other) => Err(format!("Run answered {other:?}")),
            Err(e) => Err(format!("Run: {e}")),
        }
    }

    /// A fresh connection to every node, in node order.
    pub fn connect_all(&self) -> Result<Vec<Client>, String> {
        self.addrs
            .iter()
            .map(|addr| {
                Client::connect(addr, Role::Admin).map_err(|e| format!("connect {addr}: {e}"))
            })
            .collect()
    }
}

impl Subject for Cluster {
    fn build(workload: Workload, seed: u64) -> Result<(Self, f64), String> {
        let (cluster, seconds, _) =
            Cluster::start(&cluster_config(seed), workload_definition(workload))?;
        Ok((cluster, seconds))
    }

    /// One `Run` of all the warm-up iterations.
    fn warm_up(&mut self, workload: Workload) -> Result<(), String> {
        let (iterations, partitioned, single_master) = workload.warmup();
        self.run(iterations, partitioned, single_master).map(|_| ())
    }

    /// `Run`s back to back until the window holds its round trips.
    fn window(&mut self) -> Result<Window, String> {
        let lo_tx =
            || host::loopback_tx_bytes().ok_or("cannot read the lo counters of /proc/net/dev");
        let usage = host::Usage::now();
        let lo = lo_tx()?;
        let start = Instant::now();
        let mut round_trips = Vec::with_capacity(spec::MIN_LATENCY_SAMPLES as usize);
        let mut window = Window::empty(Latency::RoundTrips(Vec::new()));
        while (round_trips.len() as u64) < spec::MIN_LATENCY_SAMPLES {
            let sent = Instant::now();
            window.committed +=
                self.run(1, spec::WIRE_PARTITIONED_TXNS, spec::WIRE_SINGLE_MASTER_TXNS)?;
            round_trips.push(sent.elapsed().as_secs_f64() * 1e3);
        }
        window.seconds = start.elapsed().as_secs_f64();
        (window.steal, window.cpu_s) = usage.since();
        window.net_bytes = lo_tx()?.saturating_sub(lo);
        window.rss_mb = host::rss_mb();
        window.attempted = ATTEMPTS_PER_RUN * round_trips.len() as u64;
        // Nodes report commits only. A `Run` executes its attempts one at a
        // time, so whatever was asked for and did not commit was refused by
        // concurrency control; more commits than attempts is a counting
        // error, not a ratio above one.
        window.aborted = window.attempted.checked_sub(window.committed).ok_or_else(|| {
            format!("{} commits reported for {} attempts", window.committed, window.attempted)
        })?;
        window.fences = 2 * round_trips.len() as u64;
        window.latency = Latency::RoundTrips(round_trips);
        Ok(window)
    }

    /// The wire workload's correctness checks: the nodes' own commit counts
    /// add up to what the `Run`s reported, sampled point reads return the
    /// same `(tid, row)` from both holders of a partition, and the replica
    /// digests agree (with two nodes, both hold every partition).
    fn verify(&mut self, seed: u64) -> Result<(), String> {
        let rows_per_partition = ycsb_config(Workload::WireYcsb).rows_per_partition;
        let mut nodes = self.connect_all()?;
        let mut committed = 0;
        let mut digests = Vec::new();
        for node in &mut nodes {
            match node.request(Request::Admin(AdminQuery::Status)) {
                Ok(Response::Status(status)) => committed += status.committed,
                other => return Err(format!("Status answered {other:?}")),
            }
            match node.request(Request::Admin(AdminQuery::ReplicaDigest)) {
                Ok(Response::Digest { records, digest }) => digests.push((records, digest)),
                other => return Err(format!("ReplicaDigest answered {other:?}")),
            }
        }
        if committed != self.run_committed {
            return Err(format!(
                "nodes committed {committed} transactions but the Runs reported {}",
                self.run_committed
            ));
        }
        if digests.windows(2).any(|pair| pair[0] != pair[1]) {
            return Err(format!("replica digests differ: {digests:?}"));
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6E75);
        for _ in 0..SAMPLED_GETS {
            let partition = rng.gen_range(0..spec::PARTITIONS);
            let key = ycsb_key(partition, rng.gen_range(0..rows_per_partition));
            let get = Request::Get { table: YCSB_TABLE, partition: partition as u32, key };
            let answers: Vec<Response> = nodes
                .iter_mut()
                .map(|node| node.request(get.clone()).map_err(|e| format!("Get: {e}")))
                .collect::<Result<_, _>>()?;
            let present = matches!(answers[0], Response::Record { row: Some(_), .. });
            if !present || answers.windows(2).any(|pair| pair[0] != pair[1]) {
                return Err(format!("Get of key {key} in partition {partition}: {answers:?}"));
            }
        }
        Ok(())
    }
}
