//! Number-for-number reproduction of Example 11 (§6.3).

use crate::content::{char_mask, min_window_bound, window_masks};
use crate::pivotal::min_substring_ed;
use crate::qgram::{prefix_grams, select_pivotal, GramOrder, QGramCollection};
use crate::verify::edit_distance;
use pigeonring_core::viability::{Direction, ThresholdScheme};

const X: &[u8] = b"llabcdefkk";
const Q: &[u8] = b"llabghijkk";

#[test]
fn example_11_prefixes_and_pivotal() {
    // τ = 2, κ = 2, lexicographic gram order. Prefixes are the first
    // κτ + 1 = 5 grams: Px = {ab,bc,cd,de,ef}, Pq = {ab,bg,gh,hi,ij}.
    let c = QGramCollection::build(vec![X.to_vec(), Q.to_vec()], 2, GramOrder::Lexicographic);
    let gx = c.grams(0);
    let px = prefix_grams(gx, 2, 2);
    let gram_str = |pg: &crate::qgram::PositionalGram, s: &[u8]| {
        s[pg.pos as usize..pg.pos as usize + 2].to_vec()
    };
    let px_strs: Vec<Vec<u8>> = px.iter().map(|pg| gram_str(pg, X)).collect();
    assert_eq!(
        px_strs,
        vec![
            b"ab".to_vec(),
            b"bc".to_vec(),
            b"cd".to_vec(),
            b"de".to_vec(),
            b"ef".to_vec()
        ]
    );
    let gq = c.grams(1);
    let pq = prefix_grams(gq, 2, 2);
    let pq_strs: Vec<Vec<u8>> = pq.iter().map(|pg| gram_str(pg, Q)).collect();
    assert_eq!(
        pq_strs,
        vec![
            b"ab".to_vec(),
            b"bg".to_vec(),
            b"gh".to_vec(),
            b"hi".to_vec(),
            b"ij".to_vec()
        ]
    );

    // ef precedes ij in the order, so x's side supplies the m = 3 pivotal
    // grams: ab, cd, ef.
    assert!(px.last().unwrap().id < pq.last().unwrap().id);
    let piv = select_pivotal(px, 2, 2).unwrap();
    let piv_strs: Vec<Vec<u8>> = piv.iter().map(|pg| gram_str(pg, X)).collect();
    assert_eq!(
        piv_strs,
        vec![b"ab".to_vec(), b"cd".to_vec(), b"ef".to_vec()]
    );

    // f(x, q) = 4 > τ: a pivotal-prefix-filter false positive (ab matches
    // exactly).
    assert_eq!(edit_distance(X, Q), 4);
}

#[test]
fn example_11_content_bound_filters_x() {
    // Ring at l = 2: b0 = 0 (exact match of ab); b1 (cd) is lower-bounded
    // by the bit-vector distance to substrings ab, bg, gh, hi, ij — all 4
    // bits apart, so b1 ≥ 2. b0 + b1 ≥ 2 > l·τ/m = 4/3 ⇒ x is filtered.
    let tau = 2usize;
    let m = tau + 1;
    let q_masks = window_masks(Q, 2);
    let cd = char_mask(b"cd");
    // cd sits at position 4 in x; window [2, 6].
    let b1 = min_window_bound(cd, &q_masks, 4 - tau as i64, 4 + tau as i64);
    assert_eq!(b1, 2);

    let scheme = ThresholdScheme::uniform(tau as i64, m);
    // Chain (b0, b1) = (0, 2): prefix l' = 1 viable (0 ≤ 2/3 rounds to
    // exact test 3·0 ≤ 2), prefix l' = 2 non-viable (3·2 > 2·2).
    assert!(scheme.chain_viable(0, 0, 1, Direction::Le));
    assert!(!scheme.chain_viable(2, 0, 2, Direction::Le));
}

#[test]
fn example_11_alignment_filter_would_need_exact_dps() {
    // The baseline's alignment filter computes exact min edit distances:
    // cd → substrings of "abghij" costs 1 substitution+shift context; the
    // point of the example is that Ring's bit-vector bound (2) already
    // exceeds the quota without any DP. Check the exact values are
    // consistent with the bound (bound ≤ exact).
    let exact_cd = min_substring_ed(b"cd", Q, 4 - 2, 4 + 2 + 2);
    let q_masks = window_masks(Q, 2);
    let bound_cd = min_window_bound(char_mask(b"cd"), &q_masks, 2, 6);
    assert!(bound_cd <= exact_cd);
    assert!(exact_cd >= 2);
}

#[test]
fn example_11_end_to_end() {
    // Index x alongside a true near-duplicate of q; at τ = 2 the search
    // must return only the near-duplicate, and Ring at l = 2 must not
    // even verify x.
    let near = b"llabghijkx".to_vec(); // ed(near, q) = 1
    let c = QGramCollection::build(vec![X.to_vec(), near.clone()], 2, GramOrder::Lexicographic);
    let ring = crate::ring::RingEdit::build(c, 2);
    let (res, stats) = ring.search_with(&mut crate::ring::EditScratch::default(), Q, 2);
    assert_eq!(res, vec![1]);
    assert_eq!(stats.results, 1);
    // x (id 0) was filtered before verification.
    assert_eq!(stats.candidates, 1);
}
