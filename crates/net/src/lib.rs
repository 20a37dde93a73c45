//! Simulated cluster network for the STAR reproduction.
//!
//! The paper runs on four EC2 nodes connected by a ~4.8 Gbit/s network; this
//! repository replaces that testbed with an in-process message-passing
//! substrate so that the same algorithms (replication streams, replication
//! fences) run over an explicit network abstraction with:
//!
//! * **one-way latency**: a message is due one configured latency after its
//!   send, and the replication fence's [`Endpoint::drain`] waits until each
//!   message it takes is due;
//! * **failure injection**: a node can be marked failed, after which sends to
//!   and from it error out — this is what the failure-detection and recovery
//!   tests drive;
//! * **seeded fault injection** (see [`fault`]): per-link drop / delay /
//!   duplicate / reorder / corrupt probabilities and link cuts, all drawn
//!   from deterministic per-link RNGs so any chaos run reproduces from its
//!   seed — this is what the `star-chaos` harness drives. The rule that turns
//!   a fault verdict into deliveries, [`fault::apply_verdict`], is shared by
//!   every faulty link in the workspace.
//!
//! The substrate is deliberately simple: per-link FIFO channels built on
//! `crossbeam`. This preserves ordering per link (which the
//! operation-replication correctness argument relies on) while modelling the
//! round-trip costs that dominate the baselines' behaviour.
//!
//! The [`transport::Transport`] trait is the seam between the engine's
//! execution paths and the substrate: the in-memory [`Endpoint`] implements
//! it, and so does the TCP mesh in `star-serverd`, which is how the
//! transport-parity harness proves wire == simulation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod endpoint;
pub mod fault;
pub mod transport;

pub use endpoint::{Endpoint, Message, NetworkConfig, SendError, SimNetwork};
pub use fault::{FaultPlane, FaultVerdict, LinkFaults};
pub use transport::Transport;
