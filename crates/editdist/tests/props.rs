//! Property tests for the edit-distance substrate and engines: banded
//! verification against the full DP, content-filter admissibility, and
//! engine exactness against linear scan on arbitrary strings.

use pigeonring_editdist::content::{char_mask, mask_lower_bound, window_masks};
use pigeonring_editdist::verify::{edit_distance, edit_distance_within};
use pigeonring_editdist::{EditScratch, GramOrder, Pivotal, QGramCollection, RingEdit};
use proptest::prelude::*;

fn word() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"abcdef".to_vec()), 0..18)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn banded_equals_full_dp(a in word(), b in word(), tau in 0u32..10) {
        let ed = edit_distance(&a, &b);
        let got = edit_distance_within(&a, &b, tau);
        if ed <= tau {
            prop_assert_eq!(got, Some(ed));
        } else {
            prop_assert_eq!(got, None);
        }
    }

    #[test]
    fn edit_distance_is_a_metric(a in word(), b in word(), c in word()) {
        prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        prop_assert_eq!(edit_distance(&a, &a), 0);
        prop_assert!(
            edit_distance(&a, &c) <= edit_distance(&a, &b) + edit_distance(&b, &c)
        );
    }

    #[test]
    fn content_bound_is_admissible(a in word(), b in word()) {
        prop_assume!(!a.is_empty() && !b.is_empty());
        let bound = mask_lower_bound(char_mask(&a), char_mask(&b));
        prop_assert!(bound <= edit_distance(&a, &b));
    }

    #[test]
    fn window_masks_agree_with_direct(s in word(), kappa in 1usize..5) {
        let got = window_masks(&s, kappa);
        if s.len() < kappa {
            prop_assert!(got.is_empty());
        } else {
            let expect: Vec<u64> = s.windows(kappa).map(char_mask).collect();
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn engines_match_linear_scan(
        strings in prop::collection::vec(word(), 3..24),
        tau in 1usize..=3,
        qsel in 0usize..24,
    ) {
        let q = strings[qsel % strings.len()].clone();
        let expect: Vec<u32> = strings
            .iter()
            .enumerate()
            .filter(|(_, x)| edit_distance(x, &q) <= tau as u32)
            .map(|(id, _)| id as u32)
            .collect();
        let coll = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
        let ring = RingEdit::build(coll, tau);
        let mut scratch = EditScratch::default();
        for l in 1..=(tau + 1) {
            prop_assert_eq!(ring.search_with(&mut scratch, &q, l).0, expect.clone(), "l={}", l);
        }
        let coll = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
        let piv = Pivotal::build(coll, tau);
        prop_assert_eq!(piv.search(&mut scratch, &q).0, expect);
    }
}
