//! Property tests for the Hamming substrate and engines: bit-vector
//! kernels against naive reference implementations, and engine exactness
//! on random vectors (beyond the seeded-generator integration tests).

use pigeonring_hamming::index::{enumerate_within, enumeration_count};
use pigeonring_hamming::{
    AllocationStrategy, BitVector, HammingScratch, LinearScan, Partitioning, RingHamming,
};
use proptest::prelude::*;

fn bitvec_strategy(d: usize) -> impl Strategy<Value = BitVector> {
    prop::collection::vec(prop::bool::ANY, d).prop_map(BitVector::from_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn distance_matches_naive(a in bitvec_strategy(96), b in bitvec_strategy(96)) {
        let naive: u32 = (0..96).map(|i| (a.get(i) != b.get(i)) as u32).sum();
        prop_assert_eq!(a.distance(&b), naive);
        prop_assert_eq!(a.distance_within(&b, naive), Some(naive));
        if naive > 0 {
            prop_assert_eq!(a.distance_within(&b, naive - 1), None);
        }
    }

    #[test]
    fn part_distances_sum_to_total(
        a in bitvec_strategy(100),
        b in bitvec_strategy(100),
        m in 1usize..=12,
    ) {
        let p = Partitioning::equi_width(100, m);
        let total: u32 = p.iter().map(|(lo, hi)| a.part_distance(&b, lo, hi)).sum();
        prop_assert_eq!(total, a.distance(&b));
    }

    #[test]
    fn signatures_roundtrip_bits(v in bitvec_strategy(130), lo in 0usize..100, w in 1usize..=30) {
        let hi = (lo + w).min(130);
        prop_assume!(lo < hi);
        let sig = v.part_signature(lo, hi);
        for (k, d) in (lo..hi).enumerate() {
            prop_assert_eq!((sig >> k) & 1 == 1, v.get(d));
        }
    }

    #[test]
    fn enumeration_is_exact_sphere(sig in 0u64..65536, radius in 0usize..=3) {
        let mut seen = std::collections::HashSet::new();
        enumerate_within(sig, 16, radius, &mut |s, d| {
            assert_eq!((s ^ sig).count_ones(), d);
            assert!(seen.insert(s));
        });
        prop_assert_eq!(seen.len() as u64, enumeration_count(16, radius));
        // Everything at distance ≤ radius is present.
        for flip in 0..16u64 {
            if radius >= 1 {
                prop_assert!(seen.contains(&(sig ^ (1 << flip))));
            }
        }
    }

    /// `(d, m, τ bound)` shapes: every part with the ring-next column
    /// (`64, 4`), a mix with and without it (`100, 6`: widths
    /// 17,17,17,17,16,16), and none at all (`64, 2`) — a probe that drops
    /// the postings of a part without the column loses results here. The
    /// 32-bit parts keep `τ` small: a probe enumerates `Σ C(32, k)`
    /// signatures up to its part's threshold.
    #[test]
    fn engine_exact_on_random_vectors(
        shape in prop::sample::select(vec![(64usize, 4usize, 40u32), (100, 6, 40), (64, 2, 9)]),
        seeds in prop::collection::vec(0u64..1u64 << 48, 24..64),
        qsel in 0usize..24,
        tau in 0u32..40,
        lsel in 0usize..12,
    ) {
        let (d, m, tau_bound) = shape;
        let tau = tau % tau_bound;
        // Uniform over the valid chain lengths 1..=m (12 is a multiple of
        // every m drawn).
        let l = 1 + lsel % m;
        // Expand compact seeds into d-dimensional vectors deterministically.
        let data: Vec<BitVector> = seeds
            .iter()
            .map(|&s| BitVector::from_bits((0..d).map(move |b| (s >> (b % 48)) & 1 == 1)))
            .collect();
        let q = data[qsel % data.len()].clone();
        let expect = LinearScan::new(&data).search(&q, tau);
        let eng = RingHamming::build(data.clone(), m, AllocationStrategy::Even);
        let got = eng.search_with(&mut HammingScratch::default(), &q, tau, l).0;
        prop_assert_eq!(got, expect);
    }
}
