//! Hamming self-join: all pairs `(i, j)`, `i < j`, with `H(x_i, x_j) ≤ τ`.
//!
//! The similarity-join variant of Problem 2 (the τ-selection problems of
//! §2.2 all have batch/join duals; §9 surveys the join literature). The
//! join reuses the search engine query-by-query — the standard
//! search-based join — and keeps only partners with a larger id, so each
//! pair is reported exactly once.

use crate::bitvec::BitVector;
use crate::engine::{HammingScratch, RingHamming};

/// Aggregate statistics for a join run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Total candidate pairs verified.
    pub candidates: usize,
    /// Result pairs.
    pub pairs: usize,
}

impl JoinStats {
    /// Folds `other` into `self`, saturating on overflow (partitioned
    /// join aggregation).
    pub fn merge(&mut self, other: &Self) {
        self.candidates = self.candidates.saturating_add(other.candidates);
        self.pairs = self.pairs.saturating_add(other.pairs);
    }
}

/// All pairs within Hamming distance `tau`, via the pigeonring engine at
/// chain length `l` (`l = 1` is the GPH-style join). Pairs are returned
/// with `i < j`, lexicographically sorted.
pub fn self_join(engine: &mut RingHamming, tau: u32, l: usize) -> (Vec<(u32, u32)>, JoinStats) {
    let mut scratch = HammingScratch::default();
    let mut out = Vec::new();
    let mut stats = JoinStats::default();
    for (i, q) in engine.data().iter().enumerate() {
        let (ids, s) = engine.search_with(&mut scratch, q, tau, l);
        stats.candidates += s.candidates;
        for id in ids {
            if (id as usize) > i {
                out.push((i as u32, id));
            }
        }
    }
    stats.pairs = out.len();
    (out, stats)
}

/// Quadratic reference join for tests.
pub fn nested_loop_join(data: &[BitVector], tau: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for i in 0..data.len() {
        for j in i + 1..data.len() {
            if data[i].distance_within(&data[j], tau).is_some() {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocationStrategy;

    fn dataset() -> Vec<BitVector> {
        (0..48u64)
            .map(|i| {
                let seed = i.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                BitVector::from_bits((0..64).map(move |b| (seed >> (b % 37)) & 1 == 1))
            })
            .collect()
    }

    #[test]
    fn join_matches_nested_loop() {
        let data = dataset();
        let expect = nested_loop_join(&data, 12);
        let mut eng = RingHamming::build(data, 4, AllocationStrategy::Even);
        for l in [1usize, 2, 4] {
            let (got, stats) = self_join(&mut eng, 12, l);
            assert_eq!(got, expect, "l={l}");
            assert_eq!(stats.pairs, expect.len());
        }
    }

    #[test]
    fn ring_join_verifies_fewer_candidates() {
        let data = dataset();
        let mut eng = RingHamming::build(data, 4, AllocationStrategy::Even);
        let (_, s1) = self_join(&mut eng, 12, 1);
        let (_, s4) = self_join(&mut eng, 12, 4);
        assert!(s4.candidates <= s1.candidates);
    }

    #[test]
    fn empty_result_join() {
        let data = dataset();
        let mut eng = RingHamming::build(data, 4, AllocationStrategy::Even);
        let (pairs, _) = self_join(&mut eng, 0, 2);
        // No exact duplicates in this dataset.
        assert!(pairs.is_empty());
    }
}
