//! Number-for-number reproduction of Example 10 / Figure 3 (§6.2).

use crate::pkwise::{compute_prefix, ClassMap};
use crate::ring::{RingSetSim, SetScratch};
use crate::types::{overlap, Collection, Threshold};
use pigeonring_core::viability::{check_prefix_viable, Direction, ThresholdScheme};

/// Tokens A..P as ranks 0..15 with the paper's classes
/// (A−B: 1, C−D: 2, E−F: 3, G−P: 4) and `m = 5`.
fn figure3_classes() -> ClassMap {
    let cls: Vec<u8> = (0..16u32)
        .map(|r| match r {
            0 | 1 => 1,
            2 | 3 => 2,
            4 | 5 => 3,
            _ => 4,
        })
        .collect();
    ClassMap::explicit(5, cls)
}

fn letters(s: &str) -> Vec<u32> {
    s.bytes().map(|b| (b - b'A') as u32).collect()
}

#[test]
fn example_10_boxes_thresholds_and_filtering() {
    // x = A C D E G H I J K L M N, q = B C D F G H I L M N O P,
    // τ = 9 (overlap), m = 5. f(x, q) = 8 < 9: a pkwise false positive
    // that the pigeonring filter removes at l = 2.
    let classes = figure3_classes();
    let x = letters("ACDEGHIJKLMN");
    let q = letters("BCDFGHILMNOP");
    assert_eq!(overlap(&x, &q), 8);

    let xp = compute_prefix(&x, &classes, 9).unwrap();
    let qp = compute_prefix(&q, &classes, 9).unwrap();
    assert_eq!((xp.len, qp.len), (9, 9), "both prefix lengths are 9");

    // Thresholds: T = (4, 1, 2, 2, 4), summing to τ + m − 1 = 13.
    let mut t = vec![0i64; 5];
    t[0] = q.len() as i64 - qp.len as i64 + 1;
    for (k, tk) in t.iter_mut().enumerate().skip(1) {
        let cnt = qp.count(k) as i64;
        *tk = if cnt >= k as i64 { k as i64 } else { cnt + 1 };
    }
    assert_eq!(t, vec![4, 1, 2, 2, 4]);
    let scheme = ThresholdScheme::integer_reduced(t);
    scheme.assert_sums_to(9, Direction::Ge);

    // Boxes: b1..b4 are class overlaps within prefixes; b2 = 2 is the
    // only viable box (b_i ≥ t_i).
    let boxes: Vec<i64> = (0..5)
        .map(|i| {
            if i == 0 {
                // Suffix box: x's suffix (L, M, N) against q — but the
                // worked example only needs b1..b4; b0 = |{L,M,N} ∩ q| = 3.
                3
            } else {
                overlap(xp.class(i), qp.class(i)) as i64
            }
        })
        .collect();
    assert_eq!(&boxes[1..], &[0, 2, 0, 3]);
    let viable: Vec<usize> = (1..5)
        .filter(|&i| scheme.chain_viable(boxes[i], i, 1, Direction::Ge))
        .collect();
    assert_eq!(viable, vec![2], "b2 is the only viable box");

    // l = 2 from start 2: b2 + b3 = 2 < t2 + t3 − l + 1 = 3 ⇒ filtered.
    assert!(!scheme.chain_viable(boxes[2] + boxes[3], 2, 2, Direction::Ge));
    assert_eq!(
        check_prefix_viable(&boxes, &scheme, Direction::Ge, 2, 2),
        Err(2)
    );
}

#[test]
fn example_10_end_to_end() {
    // Index x (and some distractors) and query with q at overlap τ = 9:
    // pkwise (l = 1) must surface x as a candidate; Ring at l = 2 must
    // filter it; neither may report it as a result.
    let x = letters("ACDEGHIJKLMN");
    let q = letters("BCDFGHILMNOP");
    let exact = letters("BCDFGHILMNOP"); // a true result (q itself)

    // The collection's frequency re-ranking is identity here because all
    // tokens are distinct across the alphabet with equal frequencies —
    // except tokens appearing twice. Use raw ranks via explicit records.
    let c = Collection::new(vec![x.clone(), exact.clone()]);
    // After re-ranking ties are broken by token id, and every token keeps
    // relative alphabetical order, so the explicit class map still
    // matches token ranks 0..15 only if the rank permutation preserves
    // classes. Verify the assumption instead of assuming it:
    let ring = RingSetSim::with_class_map(
        Collection::new(vec![x.clone(), exact.clone()]),
        Threshold::Overlap(9),
        ClassMap::explicit(5, {
            // Recompute classes in rank space: rank tokens of the
            // collection by (freq, id) exactly as Collection does.
            let mut freq = std::collections::BTreeMap::new();
            for r in [&x, &exact] {
                for &tkn in r {
                    *freq.entry(tkn).or_insert(0u32) += 1;
                }
            }
            let mut toks: Vec<(u32, u32)> = freq.iter().map(|(&tkn, &f)| (f, tkn)).collect();
            toks.sort_unstable();
            toks.iter()
                .map(|&(_, tkn)| match tkn {
                    0 | 1 => 1u8,
                    2 | 3 => 2,
                    4 | 5 => 3,
                    _ => 4,
                })
                .collect()
        }),
    );
    let _ = c;
    let q_ranked = {
        // Queries must be expressed in rank space; re-rank q the same way.
        let mut freq = std::collections::BTreeMap::new();
        for r in [&x, &exact] {
            for &tkn in r {
                *freq.entry(tkn).or_insert(0u32) += 1;
            }
        }
        let mut toks: Vec<(u32, u32)> = freq.iter().map(|(&tkn, &f)| (f, tkn)).collect();
        toks.sort_unstable();
        let rank: std::collections::BTreeMap<u32, u32> = toks
            .iter()
            .enumerate()
            .map(|(i, &(_, tkn))| (tkn, i as u32))
            .collect();
        let mut r: Vec<u32> = q.iter().map(|tkn| rank[tkn]).collect();
        r.sort_unstable();
        r
    };

    let mut scratch = SetScratch::default();
    let (res_l1, stats_l1) = ring.search_with(&mut scratch, &q_ranked, 1);
    assert_eq!(res_l1, vec![1], "only the exact record is a true result");
    let (res_l2, stats_l2) = ring.search_with(&mut scratch, &q_ranked, 2);
    assert_eq!(res_l2, vec![1]);
    assert!(
        stats_l2.candidates <= stats_l1.candidates,
        "pigeonring may only shrink the candidate set"
    );
}
