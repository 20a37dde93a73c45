//! Cluster backends the wire chaos runner drives: either in-process
//! [`NodeServer`]s (fast, used by the corpus replay tests) or real
//! `star-serverd` child processes that the supervisor SIGKILLs and
//! restarts (the deployment-shaped CI lane).
//!
//! Both backends share the port-race-free boot protocol: every node binds
//! an ephemeral port (`127.0.0.1:0`) and *reports* the address it actually
//! got — in-process via [`NodeServer::local_addr`], out-of-process by
//! parsing the `serving on <addr>` line `star-serverd` prints on stdout.
//! Peers never dial those addresses directly; they dial the proxy mesh,
//! whose listen addresses are stable across restarts.

use crate::proxy::ProxyMesh;
use star_common::ClusterConfig;
use star_core::Workload;
use star_serverd::NodeServer;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

/// A cluster of STAR nodes the chaos runner can address, kill and restart.
pub trait WireCluster {
    /// The control (client-facing) address of `node`.
    fn control_addr(&self, node: usize) -> String;
    /// Kills `node` abruptly (SIGKILL for processes; drop for in-process
    /// servers). The node's volatile state is lost.
    fn kill(&mut self, node: usize) -> Result<(), String>;
    /// Restarts `node` from scratch and returns its new real address.
    fn restart(&mut self, node: usize) -> Result<String, String>;
}

/// In-process backend: each node is a [`NodeServer`] on its own ephemeral
/// listener, booted with a proxy-pointing address book.
pub struct InProcessCluster {
    config: ClusterConfig,
    workload: Arc<dyn Workload>,
    books: Vec<Vec<String>>,
    servers: Vec<Option<NodeServer>>,
}

impl InProcessCluster {
    /// Boots every node and points the proxies at the real addresses.
    pub fn start(
        config: ClusterConfig,
        workload: Arc<dyn Workload>,
        proxies: &ProxyMesh,
    ) -> Result<InProcessCluster, String> {
        let books: Vec<Vec<String>> = (0..config.num_nodes).map(|n| proxies.node_book(n)).collect();
        let mut cluster = InProcessCluster { config, workload, books, servers: Vec::new() };
        for node in 0..cluster.config.num_nodes {
            let server = cluster.boot(node)?;
            proxies.set_target(node, server.local_addr());
            cluster.servers.push(Some(server));
        }
        Ok(cluster)
    }

    fn boot(&self, node: usize) -> Result<NodeServer, String> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("node {node}: cannot bind: {e}"))?;
        // The runner reads every node's history back, so it is recorded.
        NodeServer::start_with_history(
            listener,
            self.config.clone(),
            self.books[node].clone(),
            Arc::clone(&self.workload),
            node,
        )
        .map_err(|e| format!("node {node}: cannot start: {e}"))
    }
}

impl WireCluster for InProcessCluster {
    fn control_addr(&self, node: usize) -> String {
        self.servers[node].as_ref().expect("node is down").local_addr().to_string()
    }

    fn kill(&mut self, node: usize) -> Result<(), String> {
        // Dropping a server shuts it down: every connection's read ends,
        // the accept thread is joined and the port is freed.
        self.servers[node] = None;
        Ok(())
    }

    fn restart(&mut self, node: usize) -> Result<String, String> {
        let server = self.boot(node)?;
        let addr = server.local_addr().to_string();
        self.servers[node] = Some(server);
        Ok(addr)
    }
}

/// One managed `star-serverd` child process.
struct ManagedNode {
    child: Child,
    addr: String,
}

/// Real-process backend: spawns `star-serverd` children, kills them with
/// SIGKILL and restarts them, re-learning each ephemeral address from the
/// `serving on` startup line.
pub struct ProcessCluster {
    binary: PathBuf,
    bootstrap_paths: Vec<PathBuf>,
    nodes: Vec<Option<ManagedNode>>,
}

impl ProcessCluster {
    /// Boots `num_nodes` children. `render_bootstrap` receives each node's
    /// proxy-pointing address book and returns the full bootstrap TOML;
    /// the per-node files are written under `dir` (which must exist).
    pub fn start(
        binary: &Path,
        num_nodes: usize,
        proxies: &ProxyMesh,
        dir: &Path,
        render_bootstrap: impl Fn(&[String]) -> String,
    ) -> Result<ProcessCluster, String> {
        let mut bootstrap_paths = Vec::with_capacity(num_nodes);
        for node in 0..num_nodes {
            let text = render_bootstrap(&proxies.node_book(node));
            let path = dir.join(format!("node-{node}.toml"));
            std::fs::write(&path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            bootstrap_paths.push(path);
        }
        let mut cluster =
            ProcessCluster { binary: binary.to_path_buf(), bootstrap_paths, nodes: Vec::new() };
        for node in 0..num_nodes {
            let managed = cluster.spawn(node)?;
            proxies.set_target(node, &managed.addr);
            cluster.nodes.push(Some(managed));
        }
        Ok(cluster)
    }

    fn spawn(&self, node: usize) -> Result<ManagedNode, String> {
        let mut child = Command::new(&self.binary)
            .arg("--bootstrap")
            .arg(&self.bootstrap_paths[node])
            .arg("--node")
            .arg(node.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.binary.display()))?;
        let stdout = child.stdout.take().ok_or("no stdout pipe")?;
        let mut reader = BufReader::new(stdout);
        let addr = loop {
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("node {node}: reading startup line: {e}"))?;
            if n == 0 {
                let _ = child.kill();
                return Err(format!("node {node}: exited before reporting its address"));
            }
            if let Some(addr) = parse_serving_line(&line) {
                break addr;
            }
        };
        // Keep the pipe drained so the child never blocks on a full buffer.
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        });
        Ok(ManagedNode { child, addr })
    }
}

/// Extracts the bound address from `star-serverd`'s startup line
/// (`star-serverd: node N serving on 127.0.0.1:PORT (...)`).
fn parse_serving_line(line: &str) -> Option<String> {
    let rest = line.split("serving on ").nth(1)?;
    Some(rest.split_whitespace().next()?.to_string())
}

impl WireCluster for ProcessCluster {
    fn control_addr(&self, node: usize) -> String {
        self.nodes[node].as_ref().expect("node is down").addr.clone()
    }

    fn kill(&mut self, node: usize) -> Result<(), String> {
        if let Some(mut managed) = self.nodes[node].take() {
            // `Child::kill` is SIGKILL on Unix: no shutdown handler runs,
            // exactly the process-death the recovery path must survive.
            managed.child.kill().map_err(|e| format!("kill node {node}: {e}"))?;
            managed.child.wait().map_err(|e| format!("wait node {node}: {e}"))?;
        }
        Ok(())
    }

    fn restart(&mut self, node: usize) -> Result<String, String> {
        let managed = self.spawn(node)?;
        let addr = managed.addr.clone();
        self.nodes[node] = Some(managed);
        Ok(addr)
    }
}

impl Drop for ProcessCluster {
    fn drop(&mut self) {
        for managed in self.nodes.iter_mut().flatten() {
            let _ = managed.child.kill();
            let _ = managed.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_line_parses() {
        let line = "star-serverd: node 2 serving on 127.0.0.1:40213 (3 node(s), 6 partition(s), seed 42)\n";
        assert_eq!(parse_serving_line(line), Some("127.0.0.1:40213".to_string()));
        assert_eq!(parse_serving_line("something else\n"), None);
    }
}
