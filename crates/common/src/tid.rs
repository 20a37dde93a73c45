//! Transaction identifiers (TIDs) and epochs.
//!
//! STAR inherits Silo's TID design: a 64-bit word with the global epoch in
//! the high bits and a per-thread sequence number in the low bits. A TID is
//! assigned to a transaction *after* successful validation and must satisfy
//! three rules (Section 3 of the paper):
//!
//! 1. it is larger than the TID of any record in the transaction's read or
//!    write set;
//! 2. it is larger than the last TID chosen by the same worker thread;
//! 3. it lies in the current global epoch.
//!
//! Rules (1) and (2) guarantee that TIDs of transactions with conflicting
//! writes are assigned in a serial-equivalent order, which is what makes the
//! Thomas write rule safe for asynchronously replicated writes. Rule (3) makes
//! the epoch (phase) boundary a group-commit boundary.

use std::fmt;

/// A global epoch number. In STAR each phase switch increments the epoch, so
/// an epoch corresponds to one partitioned or single-master phase.
pub type Epoch = u32;

/// Number of low bits reserved for the per-epoch sequence number.
pub const SEQUENCE_BITS: u32 = 40;

/// Mask extracting the sequence number from a raw TID word.
pub const SEQUENCE_MASK: u64 = (1 << SEQUENCE_BITS) - 1;

/// A transaction identifier with an embedded epoch.
///
/// `Tid` is a plain value type; the storage layer packs it into an atomic
/// word together with a lock bit (see `star-storage`). `Tid::ZERO` tags
/// records that have never been written by a committed transaction (e.g. rows
/// created at load time).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tid(u64);

impl Tid {
    /// The smallest TID; used for freshly loaded records.
    pub const ZERO: Tid = Tid(0);

    /// Builds a TID from an epoch and a sequence number.
    ///
    /// # Panics
    /// Panics if `sequence` does not fit in [`SEQUENCE_BITS`] bits.
    pub fn new(epoch: Epoch, sequence: u64) -> Self {
        assert!(sequence <= SEQUENCE_MASK, "sequence {sequence} overflows {SEQUENCE_BITS} bits");
        Tid(((epoch as u64) << SEQUENCE_BITS) | sequence)
    }

    /// Reconstructs a TID from its raw 64-bit representation.
    pub const fn from_raw(raw: u64) -> Self {
        Tid(raw)
    }

    /// The raw 64-bit representation (epoch in the high bits).
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The epoch embedded in this TID.
    pub const fn epoch(self) -> Epoch {
        (self.0 >> SEQUENCE_BITS) as Epoch
    }

    /// The per-epoch sequence number.
    pub const fn sequence(self) -> u64 {
        self.0 & SEQUENCE_MASK
    }

    /// Returns the next TID within the same epoch.
    pub fn next(self) -> Self {
        Tid(self.0 + 1)
    }
}

impl fmt::Debug for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tid(e{}, s{})", self.epoch(), self.sequence())
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.epoch(), self.sequence())
    }
}

/// Per-worker-thread TID generator implementing the three Silo/STAR rules.
///
/// Each worker owns one generator; there is no shared-memory coordination
/// between workers when choosing TIDs, which is what lets the single-master
/// phase scale across cores.
#[derive(Debug, Clone)]
pub struct TidGenerator {
    last: Tid,
}

impl Default for TidGenerator {
    fn default() -> Self {
        Self::new()
    }
}

impl TidGenerator {
    /// Creates a generator whose first TID will be in whatever epoch is
    /// supplied at generation time.
    pub fn new() -> Self {
        TidGenerator { last: Tid::ZERO }
    }

    /// The last TID this generator handed out.
    pub fn last(&self) -> Tid {
        self.last
    }

    /// Chooses a commit TID for a transaction.
    ///
    /// * `epoch` — the current global epoch (rule 3);
    /// * `max_observed` — the largest TID over the transaction's read and
    ///   write sets (rule 1); pass [`Tid::ZERO`] for blind writes.
    ///
    /// The returned TID is strictly larger than both `max_observed` and the
    /// last TID returned by this generator (rule 2), and carries `epoch`.
    pub fn generate(&mut self, epoch: Epoch, max_observed: Tid) -> Tid {
        let floor = self.last.max(max_observed);
        let candidate = if floor.epoch() >= epoch {
            // Stay monotonic even if a record from the current epoch was
            // observed: bump the sequence.
            floor.next()
        } else {
            // First TID of a new epoch for this thread.
            Tid::new(epoch, 1)
        };
        debug_assert!(candidate > max_observed);
        debug_assert!(candidate > self.last);
        self.last = candidate;
        candidate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tid_roundtrip_epoch_sequence() {
        let t = Tid::new(7, 1234);
        assert_eq!(t.epoch(), 7);
        assert_eq!(t.sequence(), 1234);
        assert_eq!(Tid::from_raw(t.raw()), t);
    }

    #[test]
    fn tid_ordering_is_epoch_major() {
        assert!(Tid::new(2, 0) > Tid::new(1, SEQUENCE_MASK));
        assert!(Tid::new(3, 10) > Tid::new(3, 9));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn tid_sequence_overflow_panics() {
        let _ = Tid::new(1, SEQUENCE_MASK + 1);
    }

    #[test]
    fn generator_is_monotonic_within_epoch() {
        let mut g = TidGenerator::new();
        let a = g.generate(1, Tid::ZERO);
        let b = g.generate(1, Tid::ZERO);
        let c = g.generate(1, Tid::ZERO);
        assert!(a < b && b < c);
        assert_eq!(a.epoch(), 1);
        assert_eq!(c.epoch(), 1);
    }

    #[test]
    fn generator_exceeds_observed_tids() {
        let mut g = TidGenerator::new();
        let observed = Tid::new(1, 500);
        let t = g.generate(1, observed);
        assert!(t > observed);
        assert_eq!(t.epoch(), 1);
    }

    #[test]
    fn generator_advances_epoch() {
        let mut g = TidGenerator::new();
        let a = g.generate(1, Tid::ZERO);
        let b = g.generate(2, Tid::ZERO);
        assert_eq!(a.epoch(), 1);
        assert_eq!(b.epoch(), 2);
        assert!(b > a);
    }

    #[test]
    fn generator_keeps_monotonic_across_equal_epochs_and_observed() {
        let mut g = TidGenerator::new();
        let a = g.generate(3, Tid::new(3, 77));
        let b = g.generate(3, Tid::new(3, 5));
        assert!(b > a);
        assert_eq!(b.epoch(), 3);
    }

    #[test]
    fn display_and_debug_contain_epoch_and_sequence() {
        let t = Tid::new(4, 9);
        assert_eq!(format!("{t}"), "4.9");
        assert!(format!("{t:?}").contains("e4"));
    }
}
