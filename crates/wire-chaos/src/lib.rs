//! Chaos over the wire: fault injection for the *real* TCP deployment.
//!
//! The simulator's chaos harness (`star-chaos`) proves STAR's protocol
//! properties under seeded faults — but only against the in-memory
//! [`SimNetwork`](star_net::SimNetwork). This crate closes the remaining
//! gap: the same fault plane, the same schedule DSL and the same
//! serializability/parity checks, applied to actual `star-serverd`
//! processes talking TCP.
//!
//! Two pieces:
//!
//! * [`proxy::ProxyMesh`] — a seeded, deterministic interposing proxy per
//!   directed mesh link. Every replication frame is re-framed by the proxy
//!   and subjected to the *same* [`FaultPlane`](star_net::FaultPlane)
//!   verdicts the simulator draws — drop, delay, duplicate, reorder,
//!   corrupt, cut-then-heal — at the socket layer. Same seed, same
//!   per-link message sequence ⇒ byte-for-byte the same fault decisions as
//!   the simulation. A crashed node is *isolated* the way the simulated
//!   network isolates it: its frames are swallowed without a roll.
//! * [`runner`] — the supervisor around `star_serverd`'s `ClusterDriver`
//!   (which drives the stepped phases, failure-aware fences, catch-up
//!   copies and `Rejoin` for `star-serverd`'s own `Run` too). It walks the
//!   schedule exactly as the simulation twin walks it: a crash isolates its
//!   node at the point the schedule names and the detecting fence SIGKILLs
//!   it; then it compares merged histories, election logs and replica
//!   digests byte-for-byte against the twin and runs the serializability
//!   and oracle checks ([`twin_violations`]).
//!
//! The committed regression corpus (`tests/chaos_corpus/`), the
//! simulator's coverage-guided schedule generator and its planted bugs all
//! replay unmodified through [`runner::replay_plan_in_process`]; the CI
//! `server-chaos` lane also replays a kill/recover plan against real
//! killed-and-restarted processes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod plans;
pub mod proxy;
pub mod runner;

pub use cluster::{InProcessCluster, ProcessCluster, WireCluster};
pub use proxy::ProxyMesh;
pub use runner::{
    replay_plan, replay_plan_in_process, replay_plan_with_processes, twin_violations, WireReport,
};
