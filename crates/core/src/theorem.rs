//! The pigeonhole and pigeonring principles as executable statements.
//!
//! Each function takes a box layout and the bound `n` and returns the
//! *witness* whose existence the corresponding theorem guarantees whenever
//! the hypothesis `‖B‖₁ ≤ n` holds. The test suite (including property
//! tests in `tests/`) checks that a witness is always found under the
//! hypothesis — i.e. it machine-checks the theorems on sampled inputs —
//! and the per-problem engines rely on the same predicates through
//! [`crate::viability`].
//!
//! These functions are deliberately written as transparent brute-force
//! searches; the optimized incremental forms live in [`crate::viability`].

use crate::viability::{BoxValue, Direction, ThresholdScheme};

/// Theorem 1 (pigeonhole principle): if `‖B‖₁ ≤ n` there exists `i` with
/// `b_i ≤ n/m`. Returns such an `i` if one exists.
pub fn pigeonhole<T: BoxValue>(boxes: &[T], n: T) -> Option<usize> {
    let m = boxes.len();
    (0..m).find(|&i| T::cmp_uniform(boxes[i], 1, n, m) != core::cmp::Ordering::Greater)
}

/// Theorem 2 (pigeonring principle, basic form): if `‖B‖₁ ≤ n` then for
/// every `l ∈ [1..m]` there is a chain `c^l_i` with `‖c^l_i‖₁ ≤ l·n/m`.
/// Returns such an `i` for the given `l` if one exists.
pub fn pigeonring_basic<T: BoxValue>(boxes: &[T], n: T, l: usize) -> Option<usize> {
    let scheme = ThresholdScheme::uniform(n, boxes.len());
    crate::viability::find_viable_window(boxes, &scheme, Direction::Le, l)
}

/// Theorem 3 (pigeonring principle, strong form): if `‖B‖₁ ≤ n` then for
/// every `l ∈ [1..m]` there is a **prefix-viable** chain of length `l`.
/// Returns the start of such a chain if one exists.
pub fn pigeonring_strong<T: BoxValue>(boxes: &[T], n: T, l: usize) -> Option<usize> {
    let scheme = ThresholdScheme::uniform(n, boxes.len());
    crate::viability::find_prefix_viable(boxes, &scheme, Direction::Le, l)
}

/// The suffix-viable counterpart of [`pigeonring_strong`] (Corollary 1):
/// a chain of length `l` all of whose *suffixes* are viable. Returns the
/// start of such a chain if one exists.
pub fn pigeonring_strong_suffix<T: BoxValue>(boxes: &[T], n: T, l: usize) -> Option<usize> {
    // A suffix-viable chain in B is a prefix-viable chain in the reversed
    // ring: going counterclockwise turns suffixes into prefixes.
    let m = boxes.len();
    let reversed: Vec<T> = boxes.iter().rev().copied().collect();
    let scheme = ThresholdScheme::uniform(n, m);
    crate::viability::find_prefix_viable(&reversed, &scheme, Direction::Le, l)
        // Map the reversed start back: reversed index r covers original
        // boxes (m−1−r), (m−1−r−1), …; the original chain starts at
        // (m−1−r−(l−1)) mod m.
        .map(|r| (2 * m - 1 - r - (l - 1)) % m)
}

/// Theorem 4 (pigeonhole, variable threshold allocation): if `‖B‖₁ ≤ n`
/// and `‖T‖₁ = n`, there exists `i` with `b_i ≤ t_i`.
pub fn pigeonhole_variable<T: BoxValue>(boxes: &[T], t: &[T]) -> Option<usize> {
    assert_eq!(boxes.len(), t.len());
    (0..boxes.len()).find(|&i| T::cmp_value(boxes[i], t[i]) != core::cmp::Ordering::Greater)
}

/// Theorem 5 (pigeonhole, integer reduction): if `‖B‖₁ ≤ n` and
/// `‖T‖₁ = n − m + 1` (integers), there exists `i` with `b_i ≤ t_i`.
/// The statement is the same witness as Theorem 4 with the reduced `T`.
pub fn pigeonhole_integer_reduced(boxes: &[i64], t: &[i64]) -> Option<usize> {
    pigeonhole_variable(boxes, t)
}

/// Theorem 6 (pigeonring, variable threshold allocation): if `‖B‖₁ ≤ n`
/// and `‖T‖₁ = n`, then for every `l` there is a chain each of whose
/// prefixes `c^{l'}_i` satisfies `‖c^{l'}_i‖₁ ≤ Σ_{j=i}^{i+l'−1} t_j`.
pub fn pigeonring_variable<T: BoxValue>(boxes: &[T], t: Vec<T>, l: usize) -> Option<usize> {
    assert_eq!(boxes.len(), t.len());
    let scheme = ThresholdScheme::variable(t);
    crate::viability::find_prefix_viable(boxes, &scheme, Direction::Le, l)
}

/// Theorem 7 (pigeonring, integer reduction): if `‖B‖₁ ≤ n` and
/// `‖T‖₁ = n − m + 1`, then for every `l` there is a chain each of whose
/// prefixes satisfies `‖c^{l'}_i‖₁ ≤ l' − 1 + Σ_{j=i}^{i+l'−1} t_j`.
pub fn pigeonring_integer_reduced(boxes: &[i64], t: Vec<i64>, l: usize) -> Option<usize> {
    assert_eq!(boxes.len(), t.len());
    let scheme = ThresholdScheme::integer_reduced(t);
    crate::viability::find_prefix_viable(boxes, &scheme, Direction::Le, l)
}

/// The `≥`-direction of Theorem 7 (used by set similarity search, §6.2):
/// if `‖B‖₁ ≥ n` and `‖T‖₁ = n + m − 1`, then for every `l` there is a
/// chain each of whose prefixes satisfies
/// `‖c^{l'}_i‖₁ ≥ 1 − l' + Σ_{j=i}^{i+l'−1} t_j`.
pub fn pigeonring_integer_reduced_ge(boxes: &[i64], t: Vec<i64>, l: usize) -> Option<usize> {
    assert_eq!(boxes.len(), t.len());
    let scheme = ThresholdScheme::integer_reduced(t);
    crate::viability::find_prefix_viable(boxes, &scheme, Direction::Ge, l)
}

/// Lemma 2 (concatenate chain) as a checkable statement: returns whether
/// concatenating two contiguous chains of the given viabilities yields the
/// predicted viability. Used only by tests (`tests/principle_props.rs`
/// checks it against brute-force chain sums).
pub fn lemma2_concat_prediction(first_viable: bool, second_viable: bool) -> Option<bool> {
    match (first_viable, second_viable) {
        (true, true) => Some(true),
        (false, false) => Some(false),
        _ => None, // mixed: the lemma makes no claim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive small-universe check of a theorem: enumerate all integer
    /// box layouts with values in `0..=vmax`, and assert the witness
    /// exists whenever the hypothesis holds.
    fn exhaust(m: usize, vmax: i64, mut check: impl FnMut(&[i64])) {
        let count = (vmax + 1).pow(m as u32);
        let mut boxes = vec![0i64; m];
        for code in 0..count {
            let mut c = code;
            for b in boxes.iter_mut() {
                *b = c % (vmax + 1);
                c /= vmax + 1;
            }
            check(&boxes);
        }
    }

    #[test]
    fn pigeonhole_exhaustive() {
        for n in 0..=8i64 {
            exhaust(4, 3, |b| {
                if b.iter().sum::<i64>() <= n {
                    assert!(pigeonhole(b, n).is_some(), "b={b:?} n={n}");
                }
            });
        }
    }

    #[test]
    fn pigeonring_basic_exhaustive() {
        for n in 0..=8i64 {
            exhaust(4, 3, |b| {
                if b.iter().sum::<i64>() <= n {
                    for l in 1..=4 {
                        assert!(pigeonring_basic(b, n, l).is_some(), "b={b:?} n={n} l={l}");
                    }
                }
            });
        }
    }

    #[test]
    fn pigeonring_strong_exhaustive() {
        for n in 0..=8i64 {
            exhaust(4, 3, |b| {
                if b.iter().sum::<i64>() <= n {
                    for l in 1..=4 {
                        assert!(pigeonring_strong(b, n, l).is_some(), "b={b:?} n={n} l={l}");
                    }
                }
            });
        }
    }

    #[test]
    fn pigeonring_strong_suffix_exhaustive() {
        // Corollary 1: a suffix-viable chain also always exists, and the
        // returned start must actually head a suffix-viable chain.
        for n in 2..=7i64 {
            exhaust(4, 3, |b| {
                if b.iter().sum::<i64>() <= n {
                    for l in 1..=4 {
                        let start = pigeonring_strong_suffix(b, n, l)
                            .unwrap_or_else(|| panic!("b={b:?} n={n} l={l}"));
                        // Verify all suffixes of c^l_start are viable.
                        for lp in 1..=l {
                            let s: i64 = (0..lp).map(|k| b[(start + l - lp + k) % 4]).sum();
                            assert!(
                                4 * s <= lp as i64 * n,
                                "suffix {lp} not viable: b={b:?} start={start} l={l} n={n}"
                            );
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn theorem5_integer_reduction_exhaustive() {
        // For every layout with sum ≤ n and every T summing to n−m+1 drawn
        // from a small grid, a box with b_i ≤ t_i exists.
        let n = 6i64;
        let m = 3usize;
        exhaust(m, 3, |b| {
            if b.iter().sum::<i64>() <= n {
                exhaust(m, 4, |t| {
                    if t.iter().sum::<i64>() == n - m as i64 + 1 {
                        assert!(
                            pigeonhole_integer_reduced(b, t).is_some(),
                            "b={b:?} t={t:?}"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn theorem6_exhaustive() {
        let n = 5i64;
        let m = 3usize;
        exhaust(m, 3, |b| {
            if b.iter().sum::<i64>() <= n {
                exhaust(m, 5, |t| {
                    if t.iter().sum::<i64>() == n {
                        for l in 1..=m {
                            assert!(
                                pigeonring_variable(b, t.to_vec(), l).is_some(),
                                "b={b:?} t={t:?} l={l}"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn theorem7_exhaustive() {
        let n = 5i64;
        let m = 3usize;
        exhaust(m, 3, |b| {
            if b.iter().sum::<i64>() <= n {
                exhaust(m, 3, |t| {
                    if t.iter().sum::<i64>() == n - m as i64 + 1 {
                        for l in 1..=m {
                            assert!(
                                pigeonring_integer_reduced(b, t.to_vec(), l).is_some(),
                                "b={b:?} t={t:?} l={l}"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn theorem7_ge_exhaustive() {
        // ≥ case: ‖B‖₁ ≥ n, ‖T‖₁ = n + m − 1.
        let n = 4i64;
        let m = 3usize;
        exhaust(m, 3, |b| {
            if b.iter().sum::<i64>() >= n {
                exhaust(m, 4, |t| {
                    if t.iter().sum::<i64>() == n + m as i64 - 1 {
                        for l in 1..=m {
                            assert!(
                                pigeonring_integer_reduced_ge(b, t.to_vec(), l).is_some(),
                                "b={b:?} t={t:?} l={l}"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn lemma1_subset_exhaustive() {
        // Lemma 1: pigeonring candidates ⊆ pigeonhole candidates.
        for n in 0..=8i64 {
            exhaust(4, 3, |b| {
                for l in 1..=4 {
                    if pigeonring_strong(b, n, l).is_some() {
                        assert!(pigeonhole(b, n).is_some(), "b={b:?} n={n} l={l}");
                    }
                    // And basic-form candidates ⊆ pigeonhole too.
                    if pigeonring_basic(b, n, l).is_some() && l == 1 {
                        assert!(pigeonhole(b, n).is_some());
                    }
                }
            });
        }
    }

    #[test]
    fn lemma4_strong_subset_of_basic() {
        exhaust(4, 3, |b| {
            for n in 0..=8i64 {
                for l in 1..=4 {
                    if pigeonring_strong(b, n, l).is_some() {
                        assert!(pigeonring_basic(b, n, l).is_some(), "b={b:?} n={n} l={l}");
                    }
                }
            }
        });
    }

    #[test]
    fn complete_chain_subsumes_verification() {
        // §3: when ‖B‖₁ = f(x,q) and l = m, candidates are exactly results.
        exhaust(4, 3, |b| {
            let sum: i64 = b.iter().sum();
            for n in 0..=8i64 {
                let cand = pigeonring_strong(b, n, 4).is_some();
                assert_eq!(cand, sum <= n, "b={b:?} n={n}");
            }
        });
    }

    #[test]
    fn real_valued_principle_holds_on_grid() {
        // The principle also holds for real n and real boxes (§1 note).
        let grid = [-0.75f64, 0.0, 0.4, 1.1];
        for &a in &grid {
            for &b in &grid {
                for &c in &grid {
                    let boxes = [a, b, c];
                    let n = 1.3f64;
                    if a + b + c <= n {
                        for l in 1..=3 {
                            assert!(
                                pigeonring_strong(&boxes, n, l).is_some(),
                                "boxes={boxes:?} l={l}"
                            );
                        }
                    }
                }
            }
        }
    }
}
