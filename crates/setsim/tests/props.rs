//! Property tests for the set-similarity substrate and engines: exact
//! rational threshold arithmetic, verification kernels, and engine
//! exactness against linear scan on arbitrary random collections.

use pigeonring_setsim::pkwise::{compute_prefix, ClassMap, PkwiseIndex};
use pigeonring_setsim::types::{overlap, overlap_at_least};
use pigeonring_setsim::{
    AdaptSearch, Collection, LinearScanSets, PartAlloc, RingSetSim, SetScratch, Threshold,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn record_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..60, 1..16)
}

fn collection_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(record_strategy(), 4..40)
}

/// A collection built to stress the chain's suffix-box bound, with an
/// explicit class map over its ranks (`m` boxes):
///
/// * cross pairs: `x` holds several tokens no other record has — the
///   rarest ranks, so they fill `x`'s prefix — plus tokens it shares with
///   `q`, which has at most one rare token of its own. The shared tokens
///   then sit in `q`'s prefix and in `x`'s suffix; searching with `x` as
///   the query gives the mirror case;
/// * a duplicate-heavy run: copies of one set, some with a token swapped;
/// * sets of 1–4 tokens.
fn adversarial(seed: u64, m: usize) -> (Collection, ClassMap) {
    let mut s = seed | 1;
    let mut next = move |bound: usize| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % bound as u64) as usize
    };
    let mut rare = 1_000u32..;
    let mut raw: Vec<Vec<u32>> = Vec::new();
    for _ in 0..2 + next(3) {
        let shared: Vec<u32> = (0..2 + next(6)).map(|_| next(30) as u32).collect();
        let mut q: Vec<u32> = rare.by_ref().take(next(2)).collect();
        q.extend(&shared);
        q.extend((0..next(4)).map(|_| next(30) as u32));
        let mut x: Vec<u32> = rare.by_ref().take(2 + next(6)).collect();
        x.extend(&shared);
        raw.extend([q, x]);
    }
    let base: Vec<u32> = (0..3 + next(8)).map(|_| next(30) as u32).collect();
    for _ in 0..2 + next(4) {
        let mut copy = base.clone();
        if next(2) == 0 {
            let at = next(copy.len());
            copy[at] = next(30) as u32;
        }
        raw.push(copy);
    }
    for _ in 0..2 + next(4) {
        raw.push((0..1 + next(4)).map(|_| next(30) as u32).collect());
    }
    let universe = raw.iter().flatten().collect::<BTreeSet<_>>().len();
    let classes = (0..universe).map(|_| 1 + next(m - 1) as u8).collect();
    (Collection::new(raw), ClassMap::explicit(m, classes))
}

/// Jaccard `τ ∈ {0.50, 0.55, …, 0.95}` and `Overlap(1..8)`.
fn thresholds() -> Vec<Threshold> {
    (10..=19)
        .map(|k| Threshold::jaccard(f64::from(k) * 0.05))
        .chain((1..8).map(Threshold::Overlap))
        .collect()
}

fn box_count() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![2usize, 3, 5, 17])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn suffix_box_bound_is_at_least_exact_b0(seed in prop::num::u64::ANY, m in box_count()) {
        let (coll, classes) = adversarial(seed, m);
        for t in thresholds() {
            let index = PkwiseIndex::build(coll.records(), classes.clone(), t);
            let prefix = |r: &[u32]| {
                compute_prefix(r, &classes, t.min_overlap_single(r.len())).filter(|p| !p.degenerate)
            };
            for q in coll.records() {
                let Some(qp) = prefix(q) else { continue };
                let (q_prefix, t0) = (&q[..qp.len], (q.len() - qp.len + 1) as u32);
                for (id, x) in coll.records().iter().enumerate() {
                    let id = id as u32;
                    let Some(xp) = prefix(x) else { continue };
                    if index.degenerate_ids().contains(&id) {
                        continue;
                    }
                    let in_both_prefixes: u32 = (1..m).map(|c| overlap(xp.class(c), qp.class(c))).sum();
                    let b0 = overlap(x, q) - in_both_prefixes;
                    let bound = index.suffix_box_bound(id, q.len(), q_prefix);
                    prop_assert!(bound >= b0, "t={:?} x={:?} q={:?} bound={} b0={}", t, x, q, bound, b0);
                    if x[xp.len - 1] > q[qp.len - 1] {
                        prop_assert!(bound < t0, "t={:?} x={:?} q={:?} bound={} t0={}", t, x, q, bound, t0);
                    }
                }
            }
        }
    }

    #[test]
    fn ring_matches_linear_scan_on_adversarial_collections(
        seed in prop::num::u64::ANY,
        m in box_count(),
    ) {
        let (coll, classes) = adversarial(seed, m);
        let scan = LinearScanSets::new(&coll);
        let mut scratch = SetScratch::default();
        for t in thresholds() {
            let ring = RingSetSim::with_class_map(coll.clone(), t, classes.clone());
            for q in coll.records() {
                let expect = scan.search(q, t);
                for l in 1..=m {
                    prop_assert_eq!(ring.search_with(&mut scratch, q, l).0, expect.clone(), "t={:?} q={:?} l={}", t, q, l);
                }
            }
        }
    }
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
