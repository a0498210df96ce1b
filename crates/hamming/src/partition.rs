//! Equi-width dimension partitioning (the featuring function of §6.1).
//!
//! `d` dimensions are split into `m` disjoint contiguous parts. When `m`
//! does not divide `d`, the remainder is spread one dimension at a time
//! over the leading parts, so part widths differ by at most one — the
//! same layout the GPH paper uses for its vertical partitioning.

use crate::bitvec::BitVector;

/// A partitioning of `d` dimensions into `m` contiguous parts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partitioning {
    d: usize,
    bounds: Vec<(usize, usize)>,
}

impl Partitioning {
    /// Splits `d` dimensions into `m` near-equal contiguous parts.
    ///
    /// Parts wider than 64 bits are fine for distance computation; only
    /// signature *indexing* requires ≤ 64-bit parts, which
    /// [`crate::arena::VectorArena::build`] enforces.
    ///
    /// # Panics
    /// Panics if `m == 0`, `d == 0`, or `m > d`.
    pub fn equi_width(d: usize, m: usize) -> Self {
        assert!(d > 0 && m > 0, "need positive dimensions and parts");
        assert!(m <= d, "cannot have more parts than dimensions");
        let base = d / m;
        let extra = d % m;
        let mut bounds = Vec::with_capacity(m);
        let mut lo = 0;
        for i in 0..m {
            let w = base + usize::from(i < extra);
            bounds.push((lo, lo + w));
            lo += w;
        }
        debug_assert_eq!(lo, d);
        Partitioning { d, bounds }
    }

    /// The GPH default `m = ⌊d/16⌋` (16-bit parts), clamped to at least 1.
    pub fn gph_default(d: usize) -> Self {
        Partitioning::equi_width(d, (d / 16).max(1))
    }

    /// The number of parts `m`.
    pub fn num_parts(&self) -> usize {
        self.bounds.len()
    }

    /// Total dimensions `d`.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Bounds `[lo, hi)` of part `i`.
    pub fn part(&self, i: usize) -> (usize, usize) {
        self.bounds[i]
    }

    /// Width of part `i`.
    pub fn width(&self, i: usize) -> usize {
        let (lo, hi) = self.bounds[i];
        hi - lo
    }

    /// Iterator over all part bounds.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.bounds.iter().copied()
    }

    /// `v`'s part signatures ([`BitVector::part_signature`]), one per
    /// part.
    ///
    /// # Panics
    /// Panics if `v` has fewer than `d` dimensions or a part is wider
    /// than 64 bits.
    pub fn signatures(&self, v: &BitVector) -> Vec<u64> {
        self.iter()
            .map(|(lo, hi)| v.part_signature(lo, hi))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let p = Partitioning::equi_width(256, 16);
        assert_eq!(p.num_parts(), 16);
        for i in 0..16 {
            assert_eq!(p.width(i), 16);
            assert_eq!(p.part(i), (i * 16, (i + 1) * 16));
        }
    }

    #[test]
    fn remainder_spread_over_leading_parts() {
        let p = Partitioning::equi_width(10, 3);
        assert_eq!(p.part(0), (0, 4));
        assert_eq!(p.part(1), (4, 7));
        assert_eq!(p.part(2), (7, 10));
    }

    #[test]
    fn parts_are_disjoint_and_cover() {
        for (d, m) in [(17, 4), (64, 5), (100, 7), (512, 32)] {
            let p = Partitioning::equi_width(d, m);
            let mut covered = 0;
            let mut prev_hi = 0;
            for (lo, hi) in p.iter() {
                assert_eq!(lo, prev_hi, "parts must be contiguous");
                assert!(hi > lo);
                covered += hi - lo;
                prev_hi = hi;
            }
            assert_eq!(covered, d);
        }
    }

    #[test]
    fn gph_default_uses_16_bit_parts() {
        let p = Partitioning::gph_default(256);
        assert_eq!(p.num_parts(), 16);
        let p = Partitioning::gph_default(512);
        assert_eq!(p.num_parts(), 32);
        // Tiny d clamps to one part.
        let p = Partitioning::gph_default(8);
        assert_eq!(p.num_parts(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot have more parts than dimensions")]
    fn too_many_parts_panics() {
        let _ = Partitioning::equi_width(4, 5);
    }
}
