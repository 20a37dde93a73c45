//! Chaos over the wire: fault injection for the *real* TCP deployment.
//!
//! The simulator's chaos harness (`star-chaos`) proves STAR's protocol
//! properties under seeded faults — but only against the in-memory
//! [`SimNetwork`](star_net::SimNetwork). This crate closes the remaining
//! gap: the same fault plane, the same schedule DSL and the same
//! serializability/parity checks, applied to actual `star-serverd`
//! processes talking TCP.
//!
//! Three pieces:
//!
//! * [`proxy::ProxyMesh`] — a seeded, deterministic interposing proxy per
//!   directed mesh link. Every replication frame is re-framed by the proxy
//!   and subjected to the *same* [`FaultPlane`](star_net::FaultPlane)
//!   verdicts the simulator draws — drop, delay, duplicate, reorder,
//!   corrupt, cut-then-heal — at the socket layer. Same seed, same
//!   per-link message sequence ⇒ byte-for-byte the same fault decisions as
//!   the simulation.
//! * [`lower::lower_schedule`] — compiles a simulator [`FaultSchedule`]
//!   into its wire-executable form. The simulator models a crash as
//!   network isolation (the node keeps executing its doomed epoch, which
//!   a killed process cannot), so `Crash` ops are lowered to the next
//!   fence point; the lowered schedule drives the wire run *and* its
//!   simulation twin, keeping the two trajectories identical.
//! * [`runner`] — the supervisor around `star_serverd`'s `ClusterDriver`
//!   (which drives the stepped phases, failure-aware fences, catch-up
//!   copies and `Rejoin` for `star-serverd`'s own `Run` too): SIGKILLs and
//!   restarts nodes, fences on what the proxies delivered, then compares
//!   merged histories, election logs and replica digests byte-for-byte
//!   against the stepped simulation twin and runs the serializability
//!   checker ([`twin_violations`]).
//!
//! The committed regression corpus (`tests/chaos_corpus/`) replays
//! unmodified through [`runner::replay_plan_in_process`]; the CI
//! `server-chaos` lane replays it against real killed-and-restarted
//! processes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod lower;
pub mod plans;
pub mod proxy;
pub mod runner;

pub use cluster::{InProcessCluster, ProcessCluster, WireCluster};
pub use lower::lower_schedule;
pub use proxy::ProxyMesh;
pub use runner::{
    replay_plan, replay_plan_in_process, replay_plan_with_processes, twin_violations, WireReport,
};
