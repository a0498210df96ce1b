//! Property tests for the set-similarity substrate and engines: exact
//! rational threshold arithmetic, verification kernels, and engine
//! exactness against linear scan on arbitrary random collections.

use pigeonring_setsim::types::{overlap, overlap_at_least};
use pigeonring_setsim::{
    AdaptSearch, Collection, LinearScanSets, PartAlloc, RingSetSim, SetScratch, Threshold,
};
use proptest::prelude::*;

fn record_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..60, 1..16)
}

fn collection_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(record_strategy(), 4..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn overlap_merge_matches_naive(a in record_strategy(), b in record_strategy()) {
        let mut a = a; a.sort_unstable(); a.dedup();
        let mut b = b; b.sort_unstable(); b.dedup();
        let naive = a.iter().filter(|t| b.contains(t)).count() as u32;
        prop_assert_eq!(overlap(&a, &b), naive);
        prop_assert_eq!(overlap_at_least(&a, &b, naive), Some(naive));
        prop_assert_eq!(overlap_at_least(&a, &b, naive + 1), None);
    }

    #[test]
    fn jaccard_threshold_agrees_with_float(
        o in 0u32..30,
        sx in 1usize..40,
        sq in 1usize..40,
        tau_pct in 50u32..=99,
    ) {
        prop_assume!(o as usize <= sx.min(sq));
        let t = Threshold::Jaccard { num: tau_pct * 10, den: 1000 };
        let j = o as f64 / (sx + sq - o as usize) as f64;
        let tau = tau_pct as f64 / 100.0;
        // Exact rational test must agree with the float comparison except
        // within float epsilon of the boundary.
        if (j - tau).abs() > 1e-9 {
            prop_assert_eq!(t.satisfied(o, sx, sq), j >= tau, "o={} sx={} sq={}", o, sx, sq);
        }
    }

    #[test]
    fn min_overlap_pair_is_minimal(sx in 1usize..60, sq in 1usize..60, tau_pct in 50u32..=95) {
        let t = Threshold::Jaccard { num: tau_pct * 10, den: 1000 };
        let o = t.min_overlap_pair(sx, sq);
        prop_assume!(o as usize <= sx.min(sq));
        prop_assert!(t.satisfied(o, sx, sq));
        if o > 0 {
            prop_assert!(!t.satisfied(o - 1, sx, sq));
        }
    }

    #[test]
    fn all_engines_match_linear_scan(raw in collection_strategy(), tau_pct in 6u32..=9) {
        let coll = Collection::new(raw);
        prop_assume!(!coll.is_empty());
        let t = Threshold::jaccard(tau_pct as f64 / 10.0);
        let scan = LinearScanSets::new(&coll);
        let ring = RingSetSim::build(coll.clone(), t, 4);
        let mut scratch = SetScratch::default();
        let mut adapt = AdaptSearch::build(coll.clone(), t);
        let mut part = PartAlloc::build(coll.clone(), t);
        for qid in 0..coll.len().min(6) {
            let q = coll.record(qid).to_vec();
            let expect = scan.search(&q, t);
            for l in 1..=3usize {
                prop_assert_eq!(ring.search_with(&mut scratch, &q, l).0, expect.clone(), "ring qid={} l={}", qid, l);
            }
            prop_assert_eq!(adapt.search(&q).0, expect.clone(), "adapt qid={}", qid);
            prop_assert_eq!(part.search(&q).0, expect, "partalloc qid={}", qid);
        }
    }

    #[test]
    fn overlap_threshold_engines_match(raw in collection_strategy(), o in 1u32..8) {
        let coll = Collection::new(raw);
        prop_assume!(!coll.is_empty());
        let t = Threshold::Overlap(o);
        let scan = LinearScanSets::new(&coll);
        let ring = RingSetSim::build(coll.clone(), t, 5);
        let mut scratch = SetScratch::default();
        for qid in 0..coll.len().min(4) {
            let q = coll.record(qid).to_vec();
            let expect = scan.search(&q, t);
            for l in [1usize, 2, 5] {
                prop_assert_eq!(ring.search_with(&mut scratch, &q, l).0, expect.clone(), "qid={} l={}", qid, l);
            }
        }
    }
}
