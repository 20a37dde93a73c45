//! `star-serverd`: the real TCP deployment of the STAR engine.
//!
//! Each node of a cluster runs one `star-serverd` process, configured by a
//! shared bootstrap file ([`bootstrap`]). Nodes replicate committed writes
//! to each other over a TCP mesh ([`transport`]) that implements the same
//! [`Transport`](star_net::Transport) seam as the deterministic in-memory
//! endpoint; the phase workers are shared with the simulated engine
//! (`star_core::exec`) and so is what a fence does to a participant
//! (`star_core::failure::{EpochState, fence_replica}`), so the deployment
//! and the simulation can only diverge in the transport — which the
//! transport-parity harness (`tests/parity.rs`) checks by asserting
//! byte-identical committed histories, election logs and replica digests
//! between the two.
//!
//! A cluster is driven through one [`ClusterDriver`] ([`coordinator`]): the
//! node that receives a client's `Run` attaches one (or reuses the one its
//! last `Run` kept) and walks the same two-fences-per-iteration stepped
//! schedule as the engine's `run_iteration_stepped`; the wire-chaos
//! supervisor attaches one and adds kills, restarts and fault-injecting
//! proxies around the same calls.
//!
//! A serving node ([`node`]) records committed history only when the
//! bootstrap says `record_history = true`, its fences block on the
//! replication they wait for, and concurrent `Run`s take turns.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bootstrap;
pub mod coordinator;
pub mod node;
pub mod transport;

pub use bootstrap::Bootstrap;
pub use coordinator::ClusterDriver;
pub use node::{replica_digest, NodeServer};
pub use transport::TcpMesh;
