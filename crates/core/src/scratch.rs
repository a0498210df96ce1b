//! Epoch-stamped per-thread query scratch shared by the domain engines.
//!
//! The engines — the ring engines and the set baselines, which stamp a
//! record the first time a query meets it — deduplicate records with
//! *epoch stamping*: instead of clearing an `n`-sized array per query,
//! each query bumps an epoch counter and a record is "set" iff its stamp
//! equals the current epoch.
//! This struct holds that mechanism once — including the two subtle
//! paths (resize resets the epoch; wrap-around at `u32::MAX` clears the
//! stamps) — so the per-domain scratch types cannot drift apart — and,
//! through [`EpochScratch::chain_accept`], the dedup around the shared
//! [`ChainCheck`].

use crate::viability::ChainCheck;

/// Epoch-stamped candidate-dedup array, lazily sized to the engine's
/// record count.
///
/// `Default` yields an empty scratch; the first [`EpochScratch::next_epoch`]
/// sizes it, and every other method reads the epoch it returned.
#[derive(Clone, Debug, Default)]
pub struct EpochScratch {
    epoch: u32,
    /// Per-record stamp: record already accepted as a candidate this
    /// query.
    accepted: Vec<u32>,
}

impl EpochScratch {
    /// Whether record `id` is already a candidate this query.
    #[inline]
    pub fn is_accepted(&self, id: usize) -> bool {
        self.accepted[id] == self.epoch
    }

    /// Makes record `id` a candidate; returns whether it was not one yet.
    #[inline]
    pub fn accept(&mut self, id: usize) -> bool {
        let fresh = !self.is_accepted(id);
        self.accepted[id] = self.epoch;
        fresh
    }

    /// §7's second step for one viable box: unless record `id` is already
    /// a candidate, runs `chain` from `start` and accepts the record if
    /// the chain is prefix-viable. Returns whether `id` became a
    /// candidate. At `l = 1` the viable start box alone accepts, without
    /// reading a box.
    #[inline]
    pub fn chain_accept(
        &mut self,
        id: usize,
        start: usize,
        chain: &ChainCheck<'_>,
        box_value: impl FnMut(usize) -> i64,
    ) -> bool {
        if self.is_accepted(id) || (chain.l > 1 && !chain.check(start, box_value)) {
            return false;
        }
        self.accepted[id] = self.epoch;
        true
    }

    /// Sizes the stamps for an `n`-record engine and advances the
    /// epoch, resetting all stamps on resize or on epoch wrap-around.
    /// Returns the new epoch — which is `1` exactly when the stamps were
    /// (re)initialized, so wrappers stacking extra epoch-stamped state on
    /// top can reset it on that signal.
    pub fn next_epoch(&mut self, n: usize) -> u32 {
        if self.accepted.len() != n {
            self.accepted = vec![0; n];
            self.epoch = 0;
        } else if self.epoch == u32::MAX {
            self.accepted.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_advance_and_stamps_hold() {
        let mut s = EpochScratch::default();
        let e1 = s.next_epoch(4);
        assert_eq!(e1, 1);
        s.accepted[2] = e1;
        let e2 = s.next_epoch(4);
        assert_eq!(e2, 2);
        // The stale stamp no longer reads as set.
        assert_ne!(s.accepted[2], e2);
    }

    #[test]
    fn resize_resets_epoch_to_one() {
        let mut s = EpochScratch::default();
        for _ in 0..5 {
            s.next_epoch(3);
        }
        assert_eq!(s.next_epoch(7), 1, "resize must restart the epoch");
        assert_eq!(s.accepted.len(), 7);
        assert!(s.accepted.iter().all(|&v| v == 0));
    }

    #[test]
    fn chain_accept_dedups_per_query() {
        use crate::viability::{zero_thresholds, Direction};
        // m = 4, zero thresholds: quota l' − 1.
        let boxes = [0i64, 3, 0, 0];
        let mut s = EpochScratch::default();
        s.next_epoch(2);
        let chain = ChainCheck::new(zero_thresholds(4), Direction::Le, 3);
        // From start 0 the chain fails at length 2.
        assert!(!s.chain_accept(1, 0, &chain, |j| boxes[j]));
        assert!(!s.chain_accept(1, 1, &chain, |j| boxes[j]));
        assert!(!s.chain_accept(0, 1, &chain, |j| boxes[j]));
        assert!(s.chain_accept(1, 2, &chain, |j| boxes[j]));
        assert!(s.is_accepted(1));
        // An accepted record reads nothing more.
        assert!(!s.chain_accept(1, 3, &chain, |_| unreachable!()));
        // A new query forgets the stamp.
        s.next_epoch(2);
        assert!(!s.is_accepted(1));
        assert!(s.chain_accept(1, 1, &chain, |_| 0));
        // At l = 1 the viable start box alone accepts.
        let single = ChainCheck::new(zero_thresholds(4), Direction::Le, 1);
        assert!(s.chain_accept(0, 1, &single, |_| unreachable!()));
        assert!(!s.accept(0), "already a candidate");
        s.next_epoch(2);
        assert!(s.accept(0) && !s.accept(0));
    }

    #[test]
    fn wraparound_clears_stamps_and_returns_one() {
        let mut s = EpochScratch::default();
        s.next_epoch(2);
        s.epoch = u32::MAX;
        s.accepted[0] = u32::MAX;
        let e = s.next_epoch(2);
        assert_eq!(e, 1);
        assert_eq!(s.accepted[0], 0);
    }
}
