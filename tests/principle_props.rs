//! Property tests machine-checking the paper's theorems on random
//! inputs: the principle statements themselves (Theorems 1–3, 6, 7 and
//! both directions), chain concatenation (Lemma 2), the candidate-set
//! inclusions (Lemmata 1 and 4), the equivalence of the Corollary-2
//! skipping scan with the naive scan, the re-failure fact behind
//! Corollary 2, and the engines' chain check against the slice reference.

use pigeonring::core::scratch::EpochScratch;
use pigeonring::core::theorem;
use pigeonring::core::viability::{
    check_prefix_viable, doubled_prefix_into, find_prefix_viable, find_prefix_viable_noskip,
    find_viable_window, ChainCheck, Direction, ThresholdScheme,
};
use proptest::prelude::*;

fn boxes_strategy(m: usize, vmax: i64) -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(0..=vmax, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn theorem1_pigeonhole(b in boxes_strategy(8, 10), n in 0i64..=80) {
        prop_assume!(b.iter().sum::<i64>() <= n);
        prop_assert!(theorem::pigeonhole(&b, n).is_some());
    }

    #[test]
    fn theorem2_basic_form(b in boxes_strategy(8, 10), n in 0i64..=80, l in 1usize..=8) {
        prop_assume!(b.iter().sum::<i64>() <= n);
        prop_assert!(theorem::pigeonring_basic(&b, n, l).is_some());
    }

    #[test]
    fn theorem3_strong_form(b in boxes_strategy(8, 10), n in 0i64..=80, l in 1usize..=8) {
        prop_assume!(b.iter().sum::<i64>() <= n);
        let start = theorem::pigeonring_strong(&b, n, l);
        prop_assert!(start.is_some());
        // The witness is genuinely prefix-viable.
        let scheme = ThresholdScheme::uniform(n, b.len());
        prop_assert_eq!(
            check_prefix_viable(&b, &scheme, Direction::Le, start.unwrap(), l),
            Ok(())
        );
    }

    #[test]
    fn theorem3_real_valued(
        b in prop::collection::vec(-10.0f64..10.0, 6),
        n in -5.0f64..60.0,
        l in 1usize..=6,
    ) {
        prop_assume!(b.iter().sum::<f64>() <= n);
        prop_assert!(theorem::pigeonring_strong(&b, n, l).is_some());
    }

    #[test]
    fn theorem6_variable_thresholds(
        b in boxes_strategy(6, 8),
        t in boxes_strategy(6, 12),
        l in 1usize..=6,
    ) {
        let n: i64 = t.iter().sum();
        prop_assume!(b.iter().sum::<i64>() <= n);
        prop_assert!(theorem::pigeonring_variable(&b, t, l).is_some());
    }

    #[test]
    fn theorem7_integer_reduction(
        b in boxes_strategy(6, 8),
        t in boxes_strategy(6, 8),
        l in 1usize..=6,
    ) {
        let n: i64 = t.iter().sum::<i64>() + 6 - 1; // ‖T‖₁ = n − m + 1
        prop_assume!(b.iter().sum::<i64>() <= n);
        prop_assert!(theorem::pigeonring_integer_reduced(&b, t, l).is_some());
    }

    #[test]
    fn theorem7_ge_direction(
        b in boxes_strategy(6, 8),
        t in boxes_strategy(6, 8),
        l in 1usize..=6,
    ) {
        let tsum: i64 = t.iter().sum();
        let n = tsum - (6 - 1); // ‖T‖₁ = n + m − 1
        prop_assume!(b.iter().sum::<i64>() >= n);
        prop_assert!(theorem::pigeonring_integer_reduced_ge(&b, t, l).is_some());
    }

    #[test]
    fn lemma2_concatenated_chains(
        b in boxes_strategy(8, 10),
        t in boxes_strategy(8, 10),
        i in 0usize..8,
        l1 in 1usize..8,
        l2 in 1usize..8,
    ) {
        prop_assume!(l1 + l2 <= 8);
        // A chain is viable iff its box sum is within its threshold sum
        // (brute force over the ring, wrapping at m).
        let viable = |start: usize, len: usize| {
            let sum = |v: &[i64]| (start..start + len).map(|j| v[j % 8]).sum::<i64>();
            sum(&b) <= sum(&t)
        };
        let (first, second) = (viable(i, l1), viable(i + l1, l2));
        let whole = viable(i, l1 + l2);
        // Mixed halves: the lemma makes no claim.
        if let Some(predicted) = theorem::lemma2_concat_prediction(first, second) {
            prop_assert_eq!(whole, predicted);
        }
    }

    #[test]
    fn lemma1_and_4_inclusions(b in boxes_strategy(8, 10), n in 0i64..=80, l in 1usize..=8) {
        // Strong-form candidates ⊆ basic-form candidates ⊆ pigeonhole
        // candidates, for any input (no hypothesis needed).
        let strong = theorem::pigeonring_strong(&b, n, l).is_some();
        let basic = theorem::pigeonring_basic(&b, n, l).is_some();
        let hole = theorem::pigeonhole(&b, n).is_some();
        prop_assert!(!strong || basic, "strong ⊆ basic");
        prop_assert!(!basic || l > 1 || hole, "basic at l = 1 is pigeonhole");
        prop_assert!(!strong || hole, "strong ⊆ pigeonhole");
    }

    #[test]
    fn candidates_monotone_in_l(b in boxes_strategy(8, 10), n in 0i64..=80) {
        let scheme = ThresholdScheme::uniform(n, b.len());
        let mut prev = true;
        for l in 1..=b.len() {
            let cand = find_prefix_viable(&b, &scheme, Direction::Le, l).is_some();
            prop_assert!(prev || !cand, "candidate sets must shrink with l");
            prev = cand;
        }
    }

    #[test]
    fn skip_equals_noskip_le(b in boxes_strategy(10, 6), n in 0i64..=60, l in 1usize..=10) {
        let scheme = ThresholdScheme::uniform(n, b.len());
        prop_assert_eq!(
            find_prefix_viable(&b, &scheme, Direction::Le, l).is_some(),
            find_prefix_viable_noskip(&b, &scheme, Direction::Le, l).is_some()
        );
    }

    #[test]
    fn skip_equals_noskip_variable(
        b in boxes_strategy(7, 6),
        t in boxes_strategy(7, 6),
        l in 1usize..=7,
        ge in prop::bool::ANY,
    ) {
        let dir = if ge { Direction::Ge } else { Direction::Le };
        let scheme = ThresholdScheme::integer_reduced(t);
        prop_assert_eq!(
            find_prefix_viable(&b, &scheme, dir, l).is_some(),
            find_prefix_viable_noskip(&b, &scheme, dir, l).is_some()
        );
    }

    #[test]
    fn engine_chain_check_equals_the_reference(
        m in 1usize..=64,
        b in boxes_strategy(64, 4),
        t in boxes_strategy(64, 3),
        l in 1usize..=64,
        keys in prop::collection::vec(0u32..1 << 20, 64),
        cut in 0usize..=64,
        extra in prop::collection::vec(0usize..64, 0..8),
        ge in prop::bool::ANY,
    ) {
        // The engines' chain check over m ≤ 64 boxes, fed starts in probe
        // order (some, or all in shuffled order, then repeats), accepts a
        // record iff one of those starts heads a prefix-viable chain —
        // through the candidate dedup or as plain checks, which read the
        // same boxes. Only at l = 1, where the start box alone accepts,
        // must the starts be viable boxes; a longer chain checks its
        // start box too (a signature-hash collision can probe a
        // non-viable one).
        let (b, t, l, cut) = (&b[..m], t[..m].to_vec(), 1 + (l - 1) % m, cut % (m + 1));
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&s| keys[s]);
        let dir = if ge { Direction::Ge } else { Direction::Le };
        let mut prefix = Vec::new();
        doubled_prefix_into(&t, &mut prefix);
        let scheme = ThresholdScheme::integer_reduced(t);
        let starts: Vec<usize> = order[..cut]
            .iter()
            .copied()
            .chain(extra.iter().map(|&s| s % m))
            .filter(|&s| l > 1 || scheme.chain_viable(b[s], s, 1, dir))
            .collect();
        let expect = starts
            .iter()
            .any(|&s| check_prefix_viable(b, &scheme, dir, s, l).is_ok());
        if cut == m {
            // Every start visited: the whole-ring search agrees.
            prop_assert_eq!(expect, find_prefix_viable(b, &scheme, dir, l).is_some());
        }

        let chain = ChainCheck::new(&prefix, dir, l);
        let mut epochs = EpochScratch::default();
        epochs.next_epoch(1);
        let mut dedup_reads = 0usize;
        let accepted = starts.iter().fold(false, |acc, &s| {
            acc | epochs.chain_accept(0, s, &chain, |j| {
                dedup_reads += 1;
                b[j]
            })
        });
        prop_assert_eq!(accepted, expect);
        prop_assert_eq!(epochs.is_accepted(0), expect);

        let mut plain_reads = 0usize;
        let accepted = starts.iter().fold(false, |acc, &s| {
            acc || l == 1
                || chain.check(s, |j| {
                    plain_reads += 1;
                    b[j]
                })
        });
        prop_assert_eq!(accepted, expect);
        prop_assert_eq!(dedup_reads, plain_reads);
    }

    #[test]
    fn a_failed_chain_fails_again_from_every_start_it_covered(
        m in 1usize..=16,
        b in boxes_strategy(16, 4),
        t in boxes_strategy(16, 3),
        ge in prop::bool::ANY,
    ) {
        // Why the engines keep no Corollary-2 memo: when the chain from s
        // fails at prefix length f, the chain from s + d (d < f) fails at
        // a length g with d + g ≤ f, so checking it again reads only
        // boxes s … s + f − 1, which the failed chain already read.
        let (b, t) = (&b[..m], t[..m].to_vec());
        let dir = if ge { Direction::Ge } else { Direction::Le };
        let scheme = ThresholdScheme::integer_reduced(t);
        for l in 1..=m {
            for s in 0..m {
                let Err(f) = check_prefix_viable(b, &scheme, dir, s, l) else {
                    continue;
                };
                for d in 0..f {
                    let again = check_prefix_viable(b, &scheme, dir, (s + d) % m, l);
                    prop_assert!(
                        matches!(again, Err(g) if d + g <= f),
                        "l={} s={} f={} d={}: {:?}", l, s, f, d, again
                    );
                }
            }
        }
    }

    #[test]
    fn complete_chain_equals_verification(b in boxes_strategy(8, 10), n in 0i64..=80) {
        // §3: at l = m (uniform scheme, ‖B‖₁ = f), candidates == results.
        let m = b.len();
        let total: i64 = b.iter().sum();
        let cand = theorem::pigeonring_strong(&b, n, m).is_some();
        prop_assert_eq!(cand, total <= n);
    }

    #[test]
    fn basic_form_window_exists_for_all_l(b in boxes_strategy(9, 10), n in 0i64..=90) {
        prop_assume!(b.iter().sum::<i64>() <= n);
        let scheme = ThresholdScheme::uniform(n, b.len());
        for l in 1..=b.len() {
            prop_assert!(find_viable_window(&b, &scheme, Direction::Le, l).is_some());
        }
    }
}
