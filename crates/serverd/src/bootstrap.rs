//! Cluster bootstrap files.
//!
//! A deployment is described by one small TOML-subset file shared by every
//! node, the client and the admin CLI:
//!
//! ```toml
//! [cluster]
//! nodes = ["127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"]
//! full_replicas = 1
//! workers_per_node = 1
//! partitions = 6
//! seed = 42
//! record_history = false   # optional; see below
//!
//! [workload]
//! rows_per_partition = 200
//! ops_per_transaction = 10
//! read_pct = 90.0
//! cross_partition_pct = 10.0
//! ```
//!
//! Parsing funnels into [`ClusterConfig::builder`], so a bootstrap file can
//! only ever produce a topology the engine itself would accept; everything
//! file-specific (node addresses, the workload shape) is validated here.
//! The supported grammar is the obvious subset of TOML: `[section]` headers,
//! `key = value` pairs, `#` comments, integer/float/boolean values and arrays
//! of strings.
//!
//! `record_history = true` attaches a committed-transaction recorder to the
//! node (≈2 KB per transaction, kept for the life of the process) so that
//! `AdminQuery::History` can answer; the parity and wire-chaos harnesses set
//! it, a serving deployment leaves it off.

use star_common::{ClusterConfig, Error, Result};
use star_workloads::{YcsbConfig, YcsbWorkload};
use std::collections::BTreeMap;
use std::path::Path;

/// A parsed bootstrap file: the engine configuration, the per-node listen
/// addresses (node id = position in the list) and the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Bootstrap {
    /// The validated cluster configuration.
    pub config: ClusterConfig,
    /// Listen address of each node; `addrs[i]` is node `i`.
    pub addrs: Vec<String>,
    /// The YCSB workload every node instantiates.
    pub workload: YcsbConfig,
    /// Whether nodes record their committed transactions for
    /// `AdminQuery::History` (`[cluster] record_history`, default off).
    pub record_history: bool,
}

impl Bootstrap {
    /// Parses and validates bootstrap text.
    pub fn parse(text: &str) -> Result<Bootstrap> {
        let sections = parse_toml_subset(text)?;
        for section in sections.keys() {
            if section != "cluster" && section != "workload" {
                return Err(Error::Config(format!("unknown section [{section}]")));
            }
        }
        let cluster =
            sections.get("cluster").ok_or_else(|| config_err("missing [cluster] section"))?;
        let empty = BTreeMap::new();
        let workload = sections.get("workload").unwrap_or(&empty);

        const CLUSTER_KEYS: [&str; 6] =
            ["nodes", "full_replicas", "workers_per_node", "partitions", "seed", "record_history"];
        for key in cluster.keys() {
            if !CLUSTER_KEYS.contains(&key.as_str()) {
                return Err(Error::Config(format!("unknown [cluster] key `{key}`")));
            }
        }
        let addrs = match cluster.get("nodes") {
            Some(Value::Array(addrs)) if !addrs.is_empty() => addrs.clone(),
            Some(Value::Array(_)) => return Err(config_err("[cluster] nodes must be non-empty")),
            Some(_) => return Err(config_err("[cluster] nodes must be an array of addresses")),
            None => return Err(config_err("missing [cluster] nodes")),
        };
        for (i, addr) in addrs.iter().enumerate() {
            if addrs[..i].contains(addr) {
                return Err(Error::Config(format!("duplicate node address `{addr}`")));
            }
            if !addr.contains(':') {
                return Err(Error::Config(format!("node address `{addr}` has no port")));
            }
        }
        // The full-replica count has no safe default — it decides how many
        // copies of the whole database exist — so the file must say it.
        let full_replicas = match cluster.get("full_replicas") {
            Some(value) => value.as_usize("full_replicas")?,
            None => return Err(config_err("missing [cluster] full_replicas")),
        };

        let mut builder = ClusterConfig::builder()
            .nodes(addrs.len())
            .full_replicas(full_replicas)
            // A real network replaces the simulated latency; the twin engine
            // the parity harness runs uses the same zero so both backends
            // draw identical configurations.
            .network_latency(std::time::Duration::ZERO);
        if let Some(value) = cluster.get("workers_per_node") {
            builder = builder.workers_per_node(value.as_usize("workers_per_node")?);
        }
        if let Some(value) = cluster.get("partitions") {
            builder = builder.partitions(value.as_usize("partitions")?);
        }
        if let Some(value) = cluster.get("seed") {
            builder = builder.seed(value.as_u64("seed")?);
        }
        let config = builder.build()?;
        let record_history = match cluster.get("record_history") {
            Some(value) => value.as_bool("record_history")?,
            None => false,
        };

        for key in workload.keys() {
            if !["rows_per_partition", "ops_per_transaction", "read_pct", "cross_partition_pct"]
                .contains(&key.as_str())
            {
                return Err(Error::Config(format!("unknown [workload] key `{key}`")));
            }
        }
        let mut ycsb = YcsbConfig { partitions: config.partitions, ..YcsbConfig::default() };
        if let Some(value) = workload.get("rows_per_partition") {
            ycsb.rows_per_partition = value.as_u64("rows_per_partition")?;
        }
        if let Some(value) = workload.get("ops_per_transaction") {
            ycsb.ops_per_transaction = value.as_usize("ops_per_transaction")?;
        }
        if let Some(value) = workload.get("read_pct") {
            ycsb.read_fraction = value.as_pct("read_pct")? / 100.0;
        }
        if let Some(value) = workload.get("cross_partition_pct") {
            ycsb.cross_partition_fraction = value.as_pct("cross_partition_pct")? / 100.0;
        }

        Ok(Bootstrap { config, addrs, workload: ycsb, record_history })
    }

    /// Reads and parses a bootstrap file.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Bootstrap> {
        let text = std::fs::read_to_string(path.as_ref()).map_err(|e| {
            Error::Config(format!("cannot read bootstrap file {}: {e}", path.as_ref().display()))
        })?;
        Self::parse(&text)
    }

    /// Renders the bootstrap back to file text ([`parse`](Self::parse) of the
    /// output reproduces `self`).
    pub fn render(&self) -> String {
        let quoted: Vec<String> = self.addrs.iter().map(|a| format!("\"{a}\"")).collect();
        format!(
            "[cluster]\n\
             nodes = [{}]\n\
             full_replicas = {}\n\
             workers_per_node = {}\n\
             partitions = {}\n\
             seed = {}\n\
             record_history = {}\n\
             \n\
             [workload]\n\
             rows_per_partition = {}\n\
             ops_per_transaction = {}\n\
             read_pct = {}\n\
             cross_partition_pct = {}\n",
            quoted.join(", "),
            self.config.full_replicas,
            self.config.workers_per_node,
            self.config.partitions,
            self.config.seed,
            self.record_history,
            self.workload.rows_per_partition,
            self.workload.ops_per_transaction,
            self.workload.read_fraction * 100.0,
            self.workload.cross_partition_fraction * 100.0,
        )
    }

    /// Instantiates the workload every node loads.
    pub fn ycsb(&self) -> YcsbWorkload {
        YcsbWorkload::new(self.workload.clone())
    }
}

fn config_err(message: &str) -> Error {
    Error::Config(message.to_string())
}

/// A parsed TOML-subset value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Integer(u64),
    Float(f64),
    Bool(bool),
    Array(Vec<String>),
}

impl Value {
    fn as_usize(&self, key: &str) -> Result<usize> {
        match self {
            Value::Integer(n) => {
                usize::try_from(*n).map_err(|_| Error::Config(format!("`{key}` out of range")))
            }
            _ => Err(Error::Config(format!("`{key}` must be an integer"))),
        }
    }

    fn as_u64(&self, key: &str) -> Result<u64> {
        match self {
            Value::Integer(n) => Ok(*n),
            _ => Err(Error::Config(format!("`{key}` must be an integer"))),
        }
    }

    fn as_bool(&self, key: &str) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::Config(format!("`{key}` must be true or false"))),
        }
    }

    fn as_pct(&self, key: &str) -> Result<f64> {
        let pct = match self {
            Value::Integer(n) => *n as f64,
            Value::Float(f) => *f,
            _ => return Err(Error::Config(format!("`{key}` must be a number"))),
        };
        if !(0.0..=100.0).contains(&pct) {
            return Err(Error::Config(format!("`{key}` must be between 0 and 100")));
        }
        Ok(pct)
    }
}

type Sections = BTreeMap<String, BTreeMap<String, Value>>;

fn parse_toml_subset(text: &str) -> Result<Sections> {
    let mut sections: Sections = BTreeMap::new();
    let mut current: Option<String> = None;
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw_line.split_once('#') {
            Some((before, _)) => before.trim(),
            None => raw_line.trim(),
        };
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|rest| rest.strip_suffix(']')) {
            let name = name.trim().to_string();
            if sections.contains_key(&name) {
                return Err(Error::Config(format!("line {line_no}: duplicate section [{name}]")));
            }
            sections.insert(name.clone(), BTreeMap::new());
            current = Some(name);
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(Error::Config(format!("line {line_no}: expected `key = value`")));
        };
        let Some(section) = &current else {
            return Err(Error::Config(format!("line {line_no}: key before any [section]")));
        };
        let key = key.trim().to_string();
        let value = parse_value(value.trim(), line_no)?;
        let entries = sections.entry(section.clone()).or_default();
        if entries.insert(key.clone(), value).is_some() {
            return Err(Error::Config(format!("line {line_no}: duplicate key `{key}`")));
        }
    }
    Ok(sections)
}

fn parse_value(text: &str, line_no: usize) -> Result<Value> {
    if let Some(inner) = text.strip_prefix('[').and_then(|rest| rest.strip_suffix(']')) {
        let inner = inner.trim();
        let mut items = Vec::new();
        if !inner.is_empty() {
            for item in inner.split(',') {
                let item = item.trim();
                let Some(unquoted) = item.strip_prefix('"').and_then(|rest| rest.strip_suffix('"'))
                else {
                    return Err(Error::Config(format!(
                        "line {line_no}: array items must be quoted strings"
                    )));
                };
                items.push(unquoted.to_string());
            }
        }
        return Ok(Value::Array(items));
    }
    if let Ok(b) = text.parse::<bool>() {
        return Ok(Value::Bool(b));
    }
    if let Ok(n) = text.parse::<u64>() {
        return Ok(Value::Integer(n));
    }
    if let Ok(f) = text.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(Error::Config(format!("line {line_no}: cannot parse value `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALID: &str = r#"
        # three localhost nodes
        [cluster]
        nodes = ["127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"]
        full_replicas = 1
        workers_per_node = 1
        partitions = 6
        seed = 42

        [workload]
        rows_per_partition = 200
        ops_per_transaction = 4
        read_pct = 90.0
        cross_partition_pct = 10.0
    "#;

    #[test]
    fn valid_file_parses() {
        let boot = Bootstrap::parse(VALID).unwrap();
        assert_eq!(boot.addrs.len(), 3);
        assert_eq!(boot.config.num_nodes, 3);
        assert_eq!(boot.config.full_replicas, 1);
        assert_eq!(boot.config.partitions, 6);
        assert_eq!(boot.config.seed, 42);
        assert_eq!(boot.workload.rows_per_partition, 200);
        assert!((boot.workload.cross_partition_fraction - 0.10).abs() < 1e-9);
    }

    #[test]
    fn render_round_trips() {
        let boot = Bootstrap::parse(VALID).unwrap();
        assert_eq!(Bootstrap::parse(&boot.render()).unwrap(), boot);
    }

    #[test]
    fn record_history_is_off_unless_the_file_says_true() {
        assert!(!Bootstrap::parse(VALID).unwrap().record_history);
        let on = VALID.replace("seed = 42", "seed = 42\nrecord_history = true");
        let boot = Bootstrap::parse(&on).unwrap();
        assert!(boot.record_history);
        assert_eq!(Bootstrap::parse(&boot.render()).unwrap(), boot);
        let not_a_bool = VALID.replace("seed = 42", "seed = 42\nrecord_history = 1");
        assert!(Bootstrap::parse(&not_a_bool).is_err());
    }
}
