//! Seeded fault injection for the simulated network.
//!
//! The chaos harness (`star-chaos`) drives the cluster through message
//! drops, delays, duplicates, reorders and link partitions. All fault
//! decisions are drawn from per-link RNGs seeded deterministically from a
//! single base seed, so a run is exactly reproducible from `(seed, fault
//! configuration, message sequence)` alone — the FoundationDB-style
//! "re-run the seed to reproduce the bug" workflow.
//!
//! Every link that injects faults — the in-process [`crate::Endpoint`], the
//! baselines' replica link and the wire-chaos proxy — turns a
//! [`FaultVerdict`] into deliveries through the one rule in
//! [`apply_verdict`]. Fault semantics (what the protocol layer may assume):
//!
//! * **drop / cut link** — the message is lost silently. STAR's replication
//!   fence cannot detect silent loss, so schedules must confine losses to
//!   epochs that end in a failure detection (the epoch revert of Figure 6
//!   discards every in-flight message of the epoch), or to links whose
//!   receiver is later rebuilt via node recovery.
//! * **delay** — delivery is postponed by `extra_delay`; ordering within the
//!   link is preserved, so this is always protocol-safe.
//! * **duplicate** — the message is delivered twice. Safe for value *and*
//!   operation payloads because replica application is TID-gated (the
//!   Thomas write rule rejects the replay).
//! * **reorder** — the message is stashed and released only after a later
//!   message on the same link, so one message overtakes another. Safe only
//!   under value replication (Thomas write rule); operation replication
//!   requires per-link FIFO and a reordered delta stream diverges.
//! * **corrupt** — the message is delivered with its payload bit-flipped
//!   (byzantine corruption; the concrete flip is the payload type's
//!   [`crate::Message::corrupt`]). *Never* protocol-safe: no layer in this
//!   repository checksums its payloads, so schedules enabling it are planted
//!   bugs that the serializability checker, the replica comparison or disk
//!   recovery must catch — a corruption surviving to a green verdict is a
//!   harness bug.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Duration;

/// Per-link fault probabilities. All probabilities are independent and
/// evaluated in the order drop → duplicate → reorder → corrupt; a delay roll
/// is added on top of any delivered (or duplicated) message.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Probability that a message is silently lost.
    pub drop_probability: f64,
    /// Probability that a message is delivered twice.
    pub duplicate_probability: f64,
    /// Probability that a message is stashed until a later message on the
    /// same link overtakes it.
    pub reorder_probability: f64,
    /// Probability that the payload is delivered *corrupted* (a byzantine
    /// bit-flip; see [`crate::Message::corrupt`]). No protocol layer in this
    /// repository claims to survive corruption — schedules that enable it
    /// are planted bugs the downstream checkers must catch.
    pub corrupt_probability: f64,
    /// Probability that `extra_delay` is added to the delivery deadline.
    pub delay_probability: f64,
    /// The additional latency applied when the delay roll hits.
    pub extra_delay: Duration,
}

impl LinkFaults {
    /// No faults at all (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// True if every probability is zero (the fast path skips the RNG
    /// entirely, so enabling and later clearing faults does not perturb
    /// unrelated runs).
    pub fn is_none(&self) -> bool {
        self.drop_probability <= 0.0
            && self.duplicate_probability <= 0.0
            && self.reorder_probability <= 0.0
            && self.corrupt_probability <= 0.0
            && self.delay_probability <= 0.0
    }

    /// Convenience constructor: drop messages with probability `p`.
    pub fn dropping(p: f64) -> Self {
        LinkFaults { drop_probability: p, ..Self::default() }
    }

    /// Convenience constructor: duplicate messages with probability `p`.
    pub fn duplicating(p: f64) -> Self {
        LinkFaults { duplicate_probability: p, ..Self::default() }
    }

    /// Convenience constructor: reorder messages with probability `p`.
    pub fn reordering(p: f64) -> Self {
        LinkFaults { reorder_probability: p, ..Self::default() }
    }

    /// Convenience constructor: corrupt messages with probability `p`.
    pub fn corrupting(p: f64) -> Self {
        LinkFaults { corrupt_probability: p, ..Self::default() }
    }

    /// Convenience constructor: delay messages with probability `p` by
    /// `extra`.
    pub fn delaying(p: f64, extra: Duration) -> Self {
        LinkFaults { delay_probability: p, extra_delay: extra, ..Self::default() }
    }
}

/// What the fault plane decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Deliver normally, with an optional extra delay.
    Deliver {
        /// Additional latency on top of the configured link latency.
        extra_delay: Duration,
    },
    /// Lose the message silently.
    Drop,
    /// Deliver the message twice.
    Duplicate {
        /// Additional latency applied to both copies.
        extra_delay: Duration,
    },
    /// Stash the message until a later message on the link releases it.
    Reorder,
    /// Deliver the message with its payload bit-flipped (byzantine
    /// corruption). `salt` seeds the deterministic choice of which bit the
    /// payload's [`crate::Message::corrupt`] implementation flips.
    Corrupt {
        /// Seed for the payload's corruption (drawn from the link RNG).
        salt: u64,
        /// Additional latency on top of the configured link latency.
        extra_delay: Duration,
    },
}

/// Turns one verdict into deliveries on a link — the rule every link
/// shares:
///
/// * `Deliver` delivers `msg` with its extra delay;
/// * `Duplicate` delivers it twice;
/// * `Reorder` pushes it onto `stash`;
/// * `Corrupt` delivers it after `corrupt` flipped it with the verdict's
///   salt;
/// * every verdict but `Reorder` then releases `stash`, in order and without
///   extra delay, behind what it delivered — `Drop` too: the link made
///   progress, so whatever was stashed has been overtaken.
///
/// `deliver(msg, extra_delay)` hands one message to the receiving side.
/// Nothing allocates unless a message is stashed.
pub fn apply_verdict<M: Clone>(
    verdict: FaultVerdict,
    mut msg: M,
    stash: &mut Vec<M>,
    corrupt: impl FnOnce(&mut M, u64),
    mut deliver: impl FnMut(M, Duration),
) {
    match verdict {
        FaultVerdict::Deliver { extra_delay } => deliver(msg, extra_delay),
        FaultVerdict::Drop => {}
        FaultVerdict::Duplicate { extra_delay } => {
            deliver(msg.clone(), extra_delay);
            deliver(msg, extra_delay);
        }
        FaultVerdict::Reorder => return stash.push(msg),
        FaultVerdict::Corrupt { salt, extra_delay } => {
            corrupt(&mut msg, salt);
            deliver(msg, extra_delay);
        }
    }
    for stashed in stash.drain(..) {
        deliver(stashed, Duration::ZERO);
    }
}

#[derive(Debug, Default)]
struct FaultState {
    seed: u64,
    default_faults: LinkFaults,
    /// Per-link overrides, keyed by `(from, to)`.
    links: BTreeMap<(usize, usize), LinkFaults>,
    /// Directed links that are cut (partitioned): every message is dropped.
    cut: BTreeSet<(usize, usize)>,
    /// Lazily created per-link RNGs, seeded from `seed` and the link id so
    /// fault decisions on one link are independent of traffic on another.
    rngs: BTreeMap<(usize, usize), StdRng>,
}

/// Shared fault-injection state of one [`crate::SimNetwork`].
///
/// The plane is also usable standalone: the baseline engines route their
/// primary→backup replication stream through one (see
/// `star_baselines::replication`), so the same seeded drop / duplicate /
/// reorder decisions drive every replication path in the repository.
#[derive(Debug, Default)]
pub struct FaultPlane {
    state: Mutex<FaultState>,
}

fn link_rng_seed(base: u64, from: usize, to: usize) -> u64 {
    // Spread the link id across the word so nearby links get unrelated
    // streams even for small base seeds.
    (base ^ ((from as u64) << 32) ^ (to as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl FaultPlane {
    /// Re-seeds every per-link RNG. Existing RNG state is discarded, so a
    /// fresh seed restarts the fault stream deterministically.
    pub fn seed(&self, seed: u64) {
        let mut state = self.state.lock().unwrap();
        state.seed = seed;
        state.rngs.clear();
    }

    /// Applies `faults` to every link without a per-link override.
    pub fn set_default_faults(&self, faults: LinkFaults) {
        self.state.lock().unwrap().default_faults = faults;
    }

    /// Applies `faults` to the directed link `from → to`.
    pub fn set_link_faults(&self, from: usize, to: usize, faults: LinkFaults) {
        self.state.lock().unwrap().links.insert((from, to), faults);
    }

    /// Removes every fault configuration: defaults, per-link overrides and
    /// cut links. Per-link RNG state is kept.
    pub fn clear_faults(&self) {
        let mut state = self.state.lock().unwrap();
        state.default_faults = LinkFaults::none();
        state.links.clear();
        state.cut.clear();
    }

    /// Cuts the bidirectional link between `a` and `b` (silent loss).
    pub fn cut_link(&self, a: usize, b: usize) {
        let mut state = self.state.lock().unwrap();
        state.cut.insert((a, b));
        state.cut.insert((b, a));
    }

    /// Restores a previously cut link.
    pub fn heal_link(&self, a: usize, b: usize) {
        let mut state = self.state.lock().unwrap();
        state.cut.remove(&(a, b));
        state.cut.remove(&(b, a));
    }

    /// Whether the directed link `from → to` is currently cut.
    pub fn is_link_cut(&self, from: usize, to: usize) -> bool {
        self.state.lock().unwrap().cut.contains(&(from, to))
    }

    /// Rolls the fate of one message on `from → to`.
    pub fn roll(&self, from: usize, to: usize) -> FaultVerdict {
        let mut state = self.state.lock().unwrap();
        if state.cut.contains(&(from, to)) {
            return FaultVerdict::Drop;
        }
        let faults = *state.links.get(&(from, to)).unwrap_or(&state.default_faults);
        if faults.is_none() {
            // Fast path: no RNG draw, so fault-free traffic is byte-for-byte
            // identical to a network without a fault plane.
            return FaultVerdict::Deliver { extra_delay: Duration::ZERO };
        }
        let base = state.seed;
        let rng = state
            .rngs
            .entry((from, to))
            .or_insert_with(|| StdRng::seed_from_u64(link_rng_seed(base, from, to)));
        let fate: f64 = rng.gen();
        let extra_delay =
            if faults.delay_probability > 0.0 && rng.gen::<f64>() < faults.delay_probability {
                faults.extra_delay
            } else {
                Duration::ZERO
            };
        if fate < faults.drop_probability {
            FaultVerdict::Drop
        } else if fate < faults.drop_probability + faults.duplicate_probability {
            FaultVerdict::Duplicate { extra_delay }
        } else if fate
            < faults.drop_probability + faults.duplicate_probability + faults.reorder_probability
        {
            FaultVerdict::Reorder
        } else if fate
            < faults.drop_probability
                + faults.duplicate_probability
                + faults.reorder_probability
                + faults.corrupt_probability
        {
            FaultVerdict::Corrupt { salt: rng.gen(), extra_delay }
        } else {
            FaultVerdict::Deliver { extra_delay }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies `verdict` to `msg` over `stash`, returning what was delivered.
    fn deliveries(verdict: FaultVerdict, msg: u64, stash: &mut Vec<u64>) -> Vec<(u64, Duration)> {
        let mut out = Vec::new();
        apply_verdict(
            verdict,
            msg,
            stash,
            |m, salt| *m ^= 1 << (salt % 64),
            |m, d| out.push((m, d)),
        );
        out
    }

    #[test]
    fn every_verdict_but_reorder_releases_the_stash() {
        let delay = Duration::from_micros(7);
        let zero = Duration::ZERO;
        let mut stash = Vec::new();
        assert!(deliveries(FaultVerdict::Reorder, 1, &mut stash).is_empty());
        assert_eq!(deliveries(FaultVerdict::Drop, 2, &mut stash), vec![(1, zero)]);
        deliveries(FaultVerdict::Reorder, 3, &mut stash);
        assert_eq!(
            deliveries(FaultVerdict::Duplicate { extra_delay: delay }, 4, &mut stash),
            vec![(4, delay), (4, delay), (3, zero)]
        );
        deliveries(FaultVerdict::Reorder, 5, &mut stash);
        assert_eq!(
            deliveries(FaultVerdict::Corrupt { salt: 1, extra_delay: zero }, 6, &mut stash),
            vec![(6 ^ 2, zero), (5, zero)]
        );
        deliveries(FaultVerdict::Reorder, 7, &mut stash);
        deliveries(FaultVerdict::Reorder, 8, &mut stash);
        assert_eq!(
            deliveries(FaultVerdict::Deliver { extra_delay: delay }, 9, &mut stash),
            vec![(9, delay), (7, zero), (8, zero)]
        );
        assert!(stash.is_empty());
    }

    #[test]
    fn default_plane_always_delivers() {
        let plane = FaultPlane::default();
        for _ in 0..100 {
            assert_eq!(plane.roll(0, 1), FaultVerdict::Deliver { extra_delay: Duration::ZERO });
        }
    }

    #[test]
    fn rolls_are_deterministic_per_seed() {
        let collect = |seed: u64| -> Vec<FaultVerdict> {
            let plane = FaultPlane::default();
            plane.seed(seed);
            plane.set_default_faults(LinkFaults {
                drop_probability: 0.25,
                duplicate_probability: 0.25,
                reorder_probability: 0.25,
                delay_probability: 0.5,
                extra_delay: Duration::from_micros(5),
                ..LinkFaults::none()
            });
            (0..200).map(|i| plane.roll(i % 3, 3)).collect()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8), "different seeds should diverge");
    }

    #[test]
    fn cut_links_drop_both_directions() {
        let plane = FaultPlane::default();
        plane.cut_link(0, 2);
        assert_eq!(plane.roll(0, 2), FaultVerdict::Drop);
        assert_eq!(plane.roll(2, 0), FaultVerdict::Drop);
        assert!(plane.is_link_cut(0, 2));
        assert_eq!(plane.roll(0, 1), FaultVerdict::Deliver { extra_delay: Duration::ZERO });
        plane.heal_link(2, 0);
        assert_eq!(plane.roll(0, 2), FaultVerdict::Deliver { extra_delay: Duration::ZERO });
    }

    #[test]
    fn per_link_overrides_beat_the_default() {
        let plane = FaultPlane::default();
        plane.set_default_faults(LinkFaults::dropping(1.0));
        plane.set_link_faults(0, 1, LinkFaults::none());
        assert_eq!(plane.roll(0, 1), FaultVerdict::Deliver { extra_delay: Duration::ZERO });
        assert_eq!(plane.roll(0, 2), FaultVerdict::Drop);
        plane.clear_faults();
        assert_eq!(plane.roll(0, 2), FaultVerdict::Deliver { extra_delay: Duration::ZERO });
    }

    #[test]
    fn probability_one_faults_always_fire() {
        let plane = FaultPlane::default();
        plane.seed(1);
        plane.set_default_faults(LinkFaults::duplicating(1.0));
        for _ in 0..20 {
            assert!(matches!(plane.roll(0, 1), FaultVerdict::Duplicate { .. }));
        }
        plane.set_default_faults(LinkFaults::reordering(1.0));
        for _ in 0..20 {
            assert_eq!(plane.roll(0, 1), FaultVerdict::Reorder);
        }
        plane.set_default_faults(LinkFaults::corrupting(1.0));
        for _ in 0..20 {
            assert!(matches!(plane.roll(0, 1), FaultVerdict::Corrupt { .. }));
        }
    }

    #[test]
    fn corrupt_salts_are_deterministic_per_seed() {
        let collect = |seed: u64| -> Vec<u64> {
            let plane = FaultPlane::default();
            plane.seed(seed);
            plane.set_default_faults(LinkFaults::corrupting(1.0));
            (0..32)
                .map(|_| match plane.roll(0, 1) {
                    FaultVerdict::Corrupt { salt, .. } => salt,
                    other => panic!("expected Corrupt, got {other:?}"),
                })
                .collect()
        };
        assert_eq!(collect(9), collect(9));
        assert_ne!(collect(9), collect(10));
    }
}
