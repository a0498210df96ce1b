//! Edit distance computation: full DP (reference), the original
//! cell-at-a-time banded verification (kept as the differential-testing
//! reference), and the production banded kernel (Ukkonen's `O(τ·n)`
//! band restructured into branchless u32-lane passes).
//!
//! The production kernel splits each band row into two passes:
//!
//! 1. a **lane pass** computing `tmp[k] = min(sub, del)` — substitution
//!    and deletion read only the *previous* row, so the whole band row
//!    is one flat elementwise loop over u32 lanes, which LLVM batches
//!    on the SSE2 baseline (4 lanes per step);
//! 2. a sequential **insert scan** `cur[k] = min(tmp[k], cur[k−1] + 1)`
//!    — the only loop-carried dependency, a cheap min-plus prefix scan.
//!
//! Per-cell `j`-range branches are hoisted into one `[klo, khi]` clamp
//! per row, so the inner loops are branch-free. Kernel and reference
//! return bit-identical `Option<u32>` values
//! (`tests/kernel_differential.rs` checks it on random inputs), and the
//! early-abandon contract — `None` as soon as an entire band row
//! exceeds `τ` — is preserved row-for-row.
//!
//! A served query (τ = 2) has a 5-lane band, so a wider explicit SIMD
//! lane pass would never fill one 8-lane vector; there is none, and
//! nothing in this crate is `unsafe`.

/// Full dynamic-programming edit distance (Levenshtein). `O(|a|·|b|)`;
/// reference implementation for tests and tiny inputs.
pub fn edit_distance(a: &[u8], b: &[u8]) -> u32 {
    if a.is_empty() {
        return b.len() as u32;
    }
    let mut row: Vec<u32> = (0..=b.len() as u32).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i as u32 + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = diag + u32::from(ca != cb);
            diag = row[j + 1];
            row[j + 1] = sub.min(row[j] + 1).min(diag + 1);
        }
    }
    row[b.len()]
}

/// Values outside the band (or not yet computed) — far above any real
/// distance, with headroom so `BIG + O(n)` cannot overflow.
const BIG: u32 = u32::MAX / 4;

/// Banded verification: returns `Some(ed)` iff `ed(a, b) ≤ tau`,
/// visiting only the `2τ + 1` diagonal band and abandoning as soon as
/// the entire band row exceeds `tau`.
///
/// This is the lane-pass kernel (see the module docs); the original
/// cell-at-a-time loop survives as [`edit_distance_within_reference`].
/// Values stored in the band never exceed `BIG + i`, so plain `+`
/// replaces the reference's `saturating_add` without changing any
/// value.
pub fn edit_distance_within(a: &[u8], b: &[u8], tau: u32) -> Option<u32> {
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > tau as usize {
        return None;
    }
    if n == 0 {
        return Some(m as u32); // m ≤ τ from the length check
    }
    if m == 0 {
        return Some(n as u32);
    }
    let t = tau as i64;
    let width = (2 * t + 1) as usize;
    // Offset-by-one storage exactly as the reference: storage index
    // k + 1 holds band cell k (cell k of row i is column j = i + k − τ).
    let mut prev = vec![BIG; width + 2];
    let mut cur = vec![BIG; width + 2];
    let mut tmp = vec![0u32; width];
    for k in 0..width {
        let j = k as i64 - t;
        if (0..=m as i64).contains(&j) {
            prev[k + 1] = j as u32;
        }
    }
    for i in 1..=n {
        cur.fill(BIG);
        // Hoist the per-cell j-range branch: valid cells have
        // j = i + k − τ ∈ [0, m] ⇒ k ∈ [max(0, τ−i), min(width−1, m+τ−i)].
        let klo = (t - i as i64).max(0) as usize;
        // Non-empty: m + τ − i ≥ m + τ − n ≥ 0 by the length check.
        let khi = ((m as i64 + t - i as i64).min(width as i64 - 1)) as usize;
        let mut row_min = BIG;
        let mut kstart = klo;
        if t >= i as i64 {
            // The band still touches column j = 0: dp[i][0] = i.
            cur[klo + 1] = i as u32;
            row_min = i as u32;
            kstart = klo + 1;
        }
        if kstart <= khi {
            let lanes = khi - kstart + 1;
            // Column of the first lane: j0 = i + kstart − τ ≥ 1.
            let j0 = (i as i64 + kstart as i64 - t) as usize;
            // Lane pass: p1 / p2 are the previous row at diagonal
            // offsets 0 and +1, i.e. dp[i−1][j−1] and dp[i−1][j].
            let ca = a[i - 1];
            let brow = &b[j0 - 1..j0 - 1 + lanes];
            let p1 = &prev[kstart + 1..kstart + 1 + lanes];
            let p2 = &prev[kstart + 2..kstart + 2 + lanes];
            for (((tm, &cb), &q1), &q2) in tmp[..lanes].iter_mut().zip(brow).zip(p1).zip(p2) {
                *tm = (q1 + u32::from(ca != cb)).min(q2 + 1);
            }
            // Sequential insert scan — the only loop-carried dependency.
            // `left` starts at cur[kstart]: BIG when cell kstart−1 is
            // outside the band, dp[i][0] = i when it was just written.
            let mut left = cur[kstart];
            for (c, &tm) in cur[kstart + 1..khi + 2].iter_mut().zip(&tmp[..lanes]) {
                let v = tm.min(left + 1);
                *c = v;
                row_min = row_min.min(v);
                left = v;
            }
        }
        if row_min > tau {
            return None; // every band cell exceeds τ: abandon
        }
        core::mem::swap(&mut prev, &mut cur);
    }
    let k = m as i64 - n as i64 + t;
    debug_assert!((0..width as i64).contains(&k));
    let ed = prev[k as usize + 1];
    (ed <= tau).then_some(ed)
}

/// The original cell-at-a-time banded loop, kept verbatim as the
/// differential-testing reference for [`edit_distance_within`].
pub fn edit_distance_within_reference(a: &[u8], b: &[u8], tau: u32) -> Option<u32> {
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > tau as usize {
        return None;
    }
    if n == 0 {
        return Some(m as u32); // m ≤ τ from the length check
    }
    if m == 0 {
        return Some(n as u32);
    }
    let t = tau as i64;
    // dp[j] for j in the band [i − τ, i + τ], offset-indexed.
    let width = (2 * t + 1) as usize;
    let mut prev = vec![BIG; width + 2];
    let mut cur = vec![BIG; width + 2];
    // Row 0: dp[0][j] = j for j ≤ τ. Band cell k represents j = 0 − τ + k.
    for k in 0..width {
        let j = k as i64 - t;
        if (0..=m as i64).contains(&j) {
            prev[k + 1] = j as u32;
        }
    }
    for i in 1..=n {
        cur.fill(BIG);
        let mut row_min = BIG;
        for k in 0..width {
            let j = i as i64 + k as i64 - t;
            if j < 0 || j > m as i64 {
                continue;
            }
            let j = j as usize;
            let best = if j == 0 {
                i as u32
            } else {
                // prev row, same diagonal offset shifts by one because the
                // band is centered on i: prev cell for (i−1, j−1) is k,
                // for (i−1, j) is k+1; current (i, j−1) is k−1... using
                // the offset-by-one storage (index k+1 = offset k).
                let sub = prev[k + 1].saturating_add(u32::from(a[i - 1] != b[j - 1]));
                let del = prev[k + 2].saturating_add(1); // (i−1, j)
                let ins = if k > 0 { cur[k].saturating_add(1) } else { BIG }; // (i, j−1)
                sub.min(del).min(ins)
            };
            cur[k + 1] = best;
            row_min = row_min.min(best);
        }
        if row_min > tau {
            return None; // every band cell exceeds τ: abandon
        }
        core::mem::swap(&mut prev, &mut cur);
    }
    let k = m as i64 - n as i64 + t;
    debug_assert!((0..width as i64).contains(&k));
    let ed = prev[k as usize + 1];
    (ed <= tau).then_some(ed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_pairs() {
        assert_eq!(edit_distance(b"kitten", b"sitting"), 3);
        assert_eq!(edit_distance(b"", b"abc"), 3);
        assert_eq!(edit_distance(b"abc", b""), 3);
        assert_eq!(edit_distance(b"abc", b"abc"), 0);
        assert_eq!(edit_distance(b"llabcdefkk", b"llabghijkk"), 4); // Example 11
    }

    #[test]
    fn banded_matches_full_dp_when_within() {
        let words: [&[u8]; 6] = [
            b"pigeon",
            b"pigeonring",
            b"ring",
            b"prince",
            b"principle",
            b"",
        ];
        for a in words {
            for b in words {
                let ed = edit_distance(a, b);
                for tau in 0..=12u32 {
                    let got = edit_distance_within(a, b, tau);
                    if ed <= tau {
                        assert_eq!(got, Some(ed), "{a:?} {b:?} tau={tau}");
                    } else {
                        assert_eq!(got, None, "{a:?} {b:?} tau={tau}");
                    }
                    // Kernel and reference agree bit-for-bit.
                    assert_eq!(got, edit_distance_within_reference(a, b, tau));
                }
            }
        }
    }

    #[test]
    fn banded_pseudo_random_cross_check() {
        // Deterministic pseudo-random strings; compare banded vs full.
        let mut s = 0x12345u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..300 {
            let la = (next() % 14) as usize;
            let lb = (next() % 14) as usize;
            let a: Vec<u8> = (0..la).map(|_| b'a' + (next() % 4) as u8).collect();
            let b: Vec<u8> = (0..lb).map(|_| b'a' + (next() % 4) as u8).collect();
            let ed = edit_distance(&a, &b);
            for tau in [0u32, 1, 2, 3, 5, 8] {
                let got = edit_distance_within(&a, &b, tau);
                assert_eq!(got.is_some(), ed <= tau, "{a:?} {b:?} tau={tau} ed={ed}");
                if let Some(g) = got {
                    assert_eq!(g, ed);
                }
                assert_eq!(got, edit_distance_within_reference(&a, &b, tau));
            }
        }
    }

    #[test]
    fn long_strings_exercise_full_lane_chunks() {
        // τ = 12 ⇒ band width 25: a lane pass of many vector steps plus
        // a remainder, on strings long enough for interior rows.
        let mut s = 0x77777u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let a: Vec<u8> = (0..120).map(|_| b'a' + (next() % 3) as u8).collect();
        let mut b = a.clone();
        for _ in 0..9 {
            let p = (next() % b.len() as u64) as usize;
            b[p] = b'a' + (next() % 3) as u8;
        }
        for tau in [6u32, 9, 12, 20] {
            assert_eq!(
                edit_distance_within(&a, &b, tau),
                edit_distance_within_reference(&a, &b, tau),
                "tau={tau}"
            );
        }
    }

    #[test]
    fn length_gap_shortcut() {
        assert_eq!(edit_distance_within(b"abc", b"abcdefgh", 3), None);
        assert_eq!(edit_distance_within(b"abc", b"abcdef", 3), Some(3));
    }
}
