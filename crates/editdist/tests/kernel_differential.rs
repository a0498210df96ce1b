//! Differential gate for the banded edit-distance kernel: the original
//! cell-at-a-time reference and the production lane-pass kernel must
//! return bit-identical `Option<u32>` values. τ is driven to the exact
//! early-exit boundary (`ed − 1`, `ed`, `ed + 1`) and up to 13 (bands of
//! 27 lanes, many vector steps per row), the full DP provides ground
//! truth, and the served shape — imdb-length near-duplicates at
//! τ ∈ {1, 2, 3} — is pinned on its own.

use pigeonring_editdist::verify::{
    edit_distance, edit_distance_within, edit_distance_within_reference,
};
use proptest::prelude::*;

fn word(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"abcd".to_vec()), 0..max_len)
}

/// Asserts the kernel agrees with the reference (and, when `Some`,
/// with the full DP) for one `(a, b, tau)`.
fn assert_tiers_agree(a: &[u8], b: &[u8], tau: u32) -> Result<(), TestCaseError> {
    let reference = edit_distance_within_reference(a, b, tau);
    prop_assert_eq!(
        edit_distance_within(a, b, tau),
        reference,
        "kernel diverged: {:?} {:?} tau={}",
        a,
        b,
        tau
    );
    let ed = edit_distance(a, b);
    prop_assert_eq!(reference.is_some(), ed <= tau);
    if let Some(got) = reference {
        prop_assert_eq!(got, ed);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tiers_agree_at_the_early_exit_boundary(a in word(24), b in word(24)) {
        let ed = edit_distance(&a, &b);
        // τ straddling the exact accept/reject boundary, plus the
        // degenerate τ = 0 and a slack value.
        for tau in [ed.saturating_sub(1), ed, ed + 1, 0, ed + 7] {
            assert_tiers_agree(&a, &b, tau)?;
        }
    }

    #[test]
    fn tiers_agree_on_random_tau(a in word(40), b in word(40), tau in 0u32..14) {
        assert_tiers_agree(&a, &b, tau)?;
    }

    #[test]
    fn tiers_agree_on_near_duplicates(
        base in word(64),
        edits in prop::collection::vec((0usize..64, prop::sample::select(b"abcd".to_vec())), 0..6),
        tau in 0u32..14,
    ) {
        // Near-duplicates keep the band full of live values — the case
        // where every lane of the vectorized pass carries real data.
        let mut b = base.clone();
        for (pos, c) in edits {
            if !b.is_empty() {
                let p = pos % b.len();
                b[p] = c;
            }
        }
        assert_tiers_agree(&base, &b, tau)?;
    }
}

#[test]
fn tiers_agree_on_wide_bands_with_full_lane_chunks() {
    // τ = 12 (band width 25: several vector steps plus remainder) on
    // 150-char near-duplicates, at the boundary and both sides.
    let mut next = xorshift(0xACED);
    let a: Vec<u8> = (0..150).map(|_| b'a' + (next() % 3) as u8).collect();
    let mut b = a.clone();
    for _ in 0..11 {
        let p = (next() % b.len() as u64) as usize;
        b[p] = b'a' + (next() % 3) as u8;
    }
    let ed = edit_distance(&a, &b);
    for tau in [ed.saturating_sub(1), ed, ed + 1, 12, 20] {
        let reference = edit_distance_within_reference(&a, &b, tau);
        assert_eq!(edit_distance_within(&a, &b, tau), reference, "tau={tau}");
    }
}

#[test]
fn tiers_agree_on_the_served_imdb_shape() {
    // What the server verifies: imdb-like names (12–20 chars, 26
    // letters) against copies carrying 0–4 mixed substitutions,
    // insertions and deletions, at τ ∈ {1, 2, 3} (bands of 3–7 lanes,
    // shorter than one 8-lane vector).
    let mut next = xorshift(0x494D);
    for _ in 0..200 {
        let len = 12 + (next() % 9) as usize;
        let a: Vec<u8> = (0..len).map(|_| b'a' + (next() % 26) as u8).collect();
        let mut b = a.clone();
        for _ in 0..next() % 5 {
            let p = (next() % b.len() as u64) as usize;
            let c = b'a' + (next() % 26) as u8;
            match next() % 3 {
                0 => b[p] = c,
                1 => b.insert(p, c),
                _ => {
                    b.remove(p);
                }
            }
        }
        for tau in [1u32, 2, 3] {
            assert_tiers_agree(&a, &b, tau).unwrap();
        }
    }
}

/// Deterministic xorshift stream for the pinned cases.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}
