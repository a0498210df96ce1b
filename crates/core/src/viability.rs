//! Chain viability predicates and threshold schemes.
//!
//! A chain is *viable* when its sum is within its quota; the quota depends
//! on the threshold scheme in use:
//!
//! | Scheme | Source | Quota for `c^{l}_i` (direction ≤) | Quota (direction ≥) |
//! |---|---|---|---|
//! | [`ThresholdScheme::Uniform`] | Theorems 2/3 | `l·n/m` | `l·n/m` |
//! | [`ThresholdScheme::Variable`] | Theorem 6 | `Σ_{j=i}^{i+l−1} t_j` | `Σ t_j` |
//! | [`ThresholdScheme::IntegerReduced`] | Theorem 7 | `l − 1 + Σ t_j` | `1 − l + Σ t_j` |
//!
//! A chain is *prefix-viable* when every one of its prefixes is viable.
//! The strong form of the pigeonring principle guarantees that every true
//! result has a prefix-viable chain, so searching for one is the filtering
//! condition. [`find_prefix_viable`] performs that search over all ring
//! starts of a box slice with the Corollary-2 skipping optimization of §7.
//! The per-problem engines instead reach viable starts in probe order and
//! compute box values on demand: [`ChainCheck`] is their one chain check,
//! aborting at the first non-viable prefix.
//!
//! Integer box values use exact integer arithmetic for the `l·n/m`
//! comparison (`m·sum ⋛ l·n`), avoiding any floating-point rounding at the
//! filter boundary.

use core::cmp::Ordering;

/// Comparison direction of the τ-selection problem.
///
/// `Le` covers `f(x, q) ≤ τ` (distances); `Ge` covers `f(x, q) ≥ τ`
/// (similarities, e.g. overlap). The paper states everything for `≤` and
/// notes the `≥` extension (§2.2, §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Results satisfy `f(x, q) ≤ τ`; viable means sum ≤ quota.
    Le,
    /// Results satisfy `f(x, q) ≥ τ`; viable means sum ≥ quota.
    Ge,
}

impl Direction {
    /// Whether `sum` is within quota in this direction.
    #[inline]
    fn admits(self, ord: Ordering) -> bool {
        match self {
            Direction::Le => ord != Ordering::Greater,
            Direction::Ge => ord != Ordering::Less,
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for i64 {}
    impl Sealed for f64 {}
}

/// Numeric type usable as a box value. Sealed: implemented for `i64`
/// (Hamming distance, overlap, edit distance, GED — every case study in the
/// paper) and `f64` (the general real-valued statement of the principle).
pub trait BoxValue:
    Copy
    + PartialOrd
    + core::fmt::Debug
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::iter::Sum<Self>
    + sealed::Sealed
{
    /// Additive identity.
    const ZERO: Self;

    /// Compares `sum` with the uniform quota `l·n/m` exactly.
    fn cmp_uniform(sum: Self, l: usize, n: Self, m: usize) -> Ordering;

    /// Compares `sum` with `offset + t_sum` where `offset` is the integer
    /// reduction slack (`l − 1` or `1 − l`).
    fn cmp_offset(sum: Self, offset: i64, t_sum: Self) -> Ordering;

    /// Plain comparison (used for variable-threshold quotas).
    fn cmp_value(sum: Self, quota: Self) -> Ordering;
}

impl BoxValue for i64 {
    const ZERO: Self = 0;

    #[inline]
    fn cmp_uniform(sum: Self, l: usize, n: Self, m: usize) -> Ordering {
        // sum ⋛ l·n/m  ⟺  m·sum ⋛ l·n (m > 0), computed exactly in i64.
        (sum * m as i64).cmp(&(l as i64 * n))
    }

    #[inline]
    fn cmp_offset(sum: Self, offset: i64, t_sum: Self) -> Ordering {
        sum.cmp(&(offset + t_sum))
    }

    #[inline]
    fn cmp_value(sum: Self, quota: Self) -> Ordering {
        sum.cmp(&quota)
    }
}

impl BoxValue for f64 {
    const ZERO: Self = 0.0;

    #[inline]
    fn cmp_uniform(sum: Self, l: usize, n: Self, m: usize) -> Ordering {
        sum.partial_cmp(&(l as f64 * n / m as f64))
            .expect("box values must not be NaN")
    }

    #[inline]
    fn cmp_offset(sum: Self, offset: i64, t_sum: Self) -> Ordering {
        sum.partial_cmp(&(offset as f64 + t_sum))
            .expect("box values must not be NaN")
    }

    #[inline]
    fn cmp_value(sum: Self, quota: Self) -> Ordering {
        sum.partial_cmp(&quota).expect("box values must not be NaN")
    }
}

/// A threshold scheme: how the global bound `n = D(τ)` is distributed over
/// chains. See the module docs for the quota table.
#[derive(Clone, Debug)]
pub enum ThresholdScheme<T> {
    /// Uniform quota `l·n/m` (Theorems 2 and 3).
    Uniform {
        /// The global bound `n` (for filtering, `D(τ)`).
        n: T,
        /// The number of boxes `m`.
        m: usize,
    },
    /// Variable threshold allocation (Theorem 6): per-box thresholds whose
    /// range sums are the quotas. `prefix[k]` is `t_0 + … + t_{k−1}` over
    /// the doubled array so that wrapping range sums are O(1).
    Variable {
        /// Per-box thresholds `t_0, …, t_{m−1}`.
        t: Vec<T>,
        /// Prefix sums of `t` repeated twice, length `2m + 1`.
        prefix: Vec<T>,
    },
    /// Integer reduction (Theorem 7): like `Variable` but with slack
    /// `l − 1` (direction ≤) or `1 − l` (direction ≥) added to the quota.
    IntegerReduced {
        /// Per-box thresholds `t_0, …, t_{m−1}`.
        t: Vec<T>,
        /// Prefix sums of `t` repeated twice, length `2m + 1`.
        prefix: Vec<T>,
    },
}

fn doubled_prefix<T: BoxValue>(t: &[T]) -> Vec<T> {
    let mut prefix = Vec::with_capacity(2 * t.len() + 1);
    doubled_prefix_into(t, &mut prefix);
    prefix
}

/// Writes the prefix sums of `t` repeated twice into `prefix` (length
/// `2m + 1`), so a wrapping range sum `t_i + … + t_{i+l−1}` is one
/// subtraction. Over Theorem 7 thresholds these are the quota prefix sums
/// a [`ChainCheck`] reads; refilling one buffer per query allocates
/// nothing once it has grown.
pub fn doubled_prefix_into<T: BoxValue>(t: &[T], prefix: &mut Vec<T>) {
    prefix.clear();
    let mut acc = T::ZERO;
    prefix.push(acc);
    for &tj in t.iter().chain(t) {
        acc = acc + tj;
        prefix.push(acc);
    }
}

/// The quota prefix sums of all-zero Theorem 7 thresholds over `m` boxes.
///
/// With bound `n = τ` over `m = τ + 1` boxes (the edit-distance and graph
/// engines) the uniform quota of Theorem 3 is `⌊l′τ/m⌋ = l′ − 1` for every
/// `l′ ≤ m`, which is Theorem 7's quota `l′ − 1 + Σ t_j` over thresholds
/// summing to `n − m + 1 = 0`: all zero.
///
/// # Panics
/// Panics if `m > 64`, the most boxes the static table holds.
pub fn zero_thresholds(m: usize) -> &'static [i64] {
    static ZEROS: [i64; 129] = [0; 129];
    &ZEROS[..2 * m + 1]
}

impl<T: BoxValue> ThresholdScheme<T> {
    /// Uniform scheme with bound `n` over `m` boxes.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn uniform(n: T, m: usize) -> Self {
        assert!(m > 0, "need at least one box");
        ThresholdScheme::Uniform { n, m }
    }

    /// Variable threshold allocation with per-box thresholds `t`
    /// (Theorem 6 requires `‖T‖₁ = n`; this is the caller's contract and is
    /// asserted by [`ThresholdScheme::assert_sums_to`] in debug builds of
    /// the engines).
    ///
    /// # Panics
    /// Panics if `t` is empty.
    pub fn variable(t: Vec<T>) -> Self {
        assert!(!t.is_empty(), "need at least one box");
        let prefix = doubled_prefix(&t);
        ThresholdScheme::Variable { t, prefix }
    }

    /// Integer reduction with per-box thresholds `t` (Theorem 7 requires
    /// `‖T‖₁ = n − m + 1` for direction ≤, `n + m − 1` for direction ≥).
    ///
    /// # Panics
    /// Panics if `t` is empty.
    pub fn integer_reduced(t: Vec<T>) -> Self {
        assert!(!t.is_empty(), "need at least one box");
        let prefix = doubled_prefix(&t);
        ThresholdScheme::IntegerReduced { t, prefix }
    }

    /// The number of boxes `m` the scheme is defined over.
    pub fn num_boxes(&self) -> usize {
        match self {
            ThresholdScheme::Uniform { m, .. } => *m,
            ThresholdScheme::Variable { t, .. } | ThresholdScheme::IntegerReduced { t, .. } => {
                t.len()
            }
        }
    }

    /// Range sum `t_i + … + t_{i+l−1}` (wrapping) for allocation schemes.
    #[inline]
    fn t_range_sum(prefix: &[T], start: usize, l: usize) -> T {
        prefix[start + l] - prefix[start]
    }

    /// Whether a chain `c^l_start` with sum `sum` is **viable** under this
    /// scheme in direction `dir`.
    #[inline]
    pub fn chain_viable(&self, sum: T, start: usize, l: usize, dir: Direction) -> bool {
        debug_assert!(l >= 1 && l <= self.num_boxes());
        debug_assert!(start < self.num_boxes());
        let ord = match self {
            ThresholdScheme::Uniform { n, m } => T::cmp_uniform(sum, l, *n, *m),
            ThresholdScheme::Variable { prefix, .. } => {
                T::cmp_value(sum, Self::t_range_sum(prefix, start, l))
            }
            ThresholdScheme::IntegerReduced { prefix, .. } => {
                let offset = match dir {
                    Direction::Le => l as i64 - 1,
                    Direction::Ge => 1 - l as i64,
                };
                T::cmp_offset(sum, offset, Self::t_range_sum(prefix, start, l))
            }
        };
        dir.admits(ord)
    }

    /// Debug helper asserting the scheme's threshold-sum contract for a
    /// bound `n` (Theorem 6: `‖T‖₁ = n`; Theorem 7: `‖T‖₁ = n − m + 1` for
    /// ≤, `n + m − 1` for ≥). Uniform schemes always pass.
    pub fn assert_sums_to(&self, n: T, dir: Direction)
    where
        T: PartialEq,
    {
        match self {
            ThresholdScheme::Uniform { .. } => {}
            ThresholdScheme::Variable { t, prefix } => {
                let total = prefix[t.len()];
                assert!(
                    total == n,
                    "variable thresholds must sum to n, got {total:?} vs {n:?}"
                );
            }
            ThresholdScheme::IntegerReduced { t, prefix } => {
                let total = prefix[t.len()];
                // ‖T‖₁ must equal n − (m − 1) for ≤ and n + (m − 1) for ≥.
                let offset = match dir {
                    Direction::Le => -(t.len() as i64 - 1),
                    Direction::Ge => t.len() as i64 - 1,
                };
                assert!(
                    T::cmp_offset(total, offset, n) == Ordering::Equal,
                    "integer-reduced thresholds must sum to n ∓ (m − 1), got {total:?} for n = {n:?}"
                );
            }
        }
    }
}

/// Outcome of a single-start prefix-viability check.
///
/// `Err(l_fail)` reports the first prefix length at which the quota was
/// violated; by Corollary 2 no chain starting in `[start .. start+l_fail−1]`
/// can be prefix-viable, so callers may skip those starts.
pub type PrefixViability = Result<(), usize>;

/// Checks whether the chain of length `l` starting at `start` is
/// prefix-viable, reading box values from the slice.
///
/// # Panics
/// Panics (in debug builds) if `l ∉ [1..m]` or `start ≥ m`.
#[inline]
pub fn check_prefix_viable<T: BoxValue>(
    boxes: &[T],
    scheme: &ThresholdScheme<T>,
    dir: Direction,
    start: usize,
    l: usize,
) -> PrefixViability {
    let m = boxes.len();
    debug_assert!(l >= 1 && l <= m, "chain length must be in [1..m]");
    debug_assert!(start < m, "chain start out of range");
    let mut sum = T::ZERO;
    for l_prime in 1..=l {
        sum = sum + boxes[(start + l_prime - 1) % m];
        if !scheme.chain_viable(sum, start, l_prime, dir) {
            return Err(l_prime);
        }
    }
    Ok(())
}

/// Query parameters outside the range the principle covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamError {
    /// Chain length `l` outside `1..=m`, where no pigeonring theorem holds.
    ChainLength {
        /// The chain length asked for.
        l: usize,
        /// The engine's box count.
        m: usize,
    },
    /// A Hamming threshold `τ` above the dimensionality `d`.
    TauAboveDims {
        /// The threshold asked for.
        tau: u32,
        /// The dataset's dimensionality.
        d: usize,
    },
}

impl core::fmt::Display for ParamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ChainLength { l, m } => write!(f, "chain length l = {l} is outside 1..={m}"),
            Self::TauAboveDims { tau, d } => write!(f, "tau = {tau} exceeds the {d} dims"),
        }
    }
}

/// The one statement of the chain-length rule: `1 ≤ l ≤ m` (`l = 1` is
/// the pigeonhole principle, `l = m` the basic form; §3).
pub fn check_chain_length(l: usize, m: usize) -> Result<(), ParamError> {
    let valid = (1..=m).contains(&l);
    valid.then_some(()).ok_or(ParamError::ChainLength { l, m })
}

/// The chain check of §7's second step, shared by every pigeonring
/// engine: from a viable start box, extend the chain clockwise, reading
/// box values lazily, and accept iff all its prefixes up to length `l`
/// are viable under Theorem 7's integer quotas. An engine keeps only its
/// probe (which finds viable starts) and its box source (the `box_value`
/// closure); the walk and the early exit live here.
///
/// **Quotas.** The check reads the query's thresholds as quota prefix
/// sums ([`doubled_prefix_into`]; [`zero_thresholds`] for Theorem 3's
/// uniform quota at `m = τ + 1`). Prefix `l′` from `s` is viable iff
/// `‖c^{l′}_s‖₁ ≤ l′ − 1 + Σ t_j` (direction ≤) or `≥ 1 − l′ + Σ t_j`
/// (≥): integer arithmetic, one subtraction per step.
///
/// **No Corollary-2 memo.** When the chain from `s` fails at prefix
/// length `f`, the chain from any `s + d` with `d < f` fails again within
/// `f − d` boxes (Lemma 2 contrapositive), so checking such a start again
/// reads only boxes the failed chain already read. The engines therefore
/// keep no per-record ruled-start state; [`find_prefix_viable`], which
/// scans every start of one ring, is where Corollary 2 skips.
#[derive(Debug)]
pub struct ChainCheck<'a> {
    /// Quota prefix sums, length `2m + 1`.
    prefix: &'a [i64],
    m: usize,
    dir: Direction,
    pub(crate) l: usize,
}

impl<'a> ChainCheck<'a> {
    /// A chain check of length `l` in direction `dir` over the quota
    /// prefix sums `prefix` of `m` thresholds (length `2m + 1`).
    pub fn new(prefix: &'a [i64], dir: Direction, l: usize) -> Self {
        let m = prefix.len() / 2;
        debug_assert_eq!(prefix.len(), 2 * m + 1, "quota prefix sums of m thresholds");
        debug_assert_eq!(check_chain_length(l, m), Ok(()));
        ChainCheck { prefix, m, dir, l }
    }

    /// Whether the chain of length `l` from ring position `start` is
    /// prefix-viable. `box_value(j)` reads box `j < m` — the start box
    /// included, so the source may count it — in ring order, and is not
    /// called past the first prefix over quota.
    #[inline(always)]
    pub fn check(&self, start: usize, mut box_value: impl FnMut(usize) -> i64) -> bool {
        let m = self.m;
        debug_assert!(start < m, "chain start out of range");
        // Ring position `j mod m` for `j < start + l ≤ 2m`, without a division.
        let wrap = |j: usize| if j < m { j } else { j - m };
        let base = self.prefix[start];
        let mut sum = 0;
        for len in 1..=self.l {
            sum += box_value(wrap(start + len - 1));
            let (t_sum, slack) = (self.prefix[start + len] - base, len as i64 - 1);
            let viable = match self.dir {
                Direction::Le => sum <= t_sum + slack,
                Direction::Ge => sum >= t_sum - slack,
            };
            if !viable {
                return false;
            }
        }
        true
    }
}

/// Searches the whole ring for a prefix-viable chain of length `l`,
/// returning the first start index found, with Corollary-2 skipping: when
/// the chain from `i` fails at prefix length `l'`, starts
/// `i+1 … i+l'−1` are skipped because none of them can head a
/// prefix-viable chain (Lemma 2 contrapositive).
pub fn find_prefix_viable<T: BoxValue>(
    boxes: &[T],
    scheme: &ThresholdScheme<T>,
    dir: Direction,
    l: usize,
) -> Option<usize> {
    let m = boxes.len();
    assert_eq!(m, scheme.num_boxes(), "boxes and scheme disagree on m");
    assert!(l >= 1 && l <= m, "chain length must be in [1..m]");
    let mut i = 0;
    while i < m {
        match check_prefix_viable(boxes, scheme, dir, i, l) {
            Ok(()) => return Some(i),
            Err(l_fail) => i += l_fail,
        }
    }
    None
}

/// Basic-form search (Theorem 2): the first start `i` whose *single* chain
/// of length exactly `l` is viable (no prefix condition).
pub fn find_viable_window<T: BoxValue>(
    boxes: &[T],
    scheme: &ThresholdScheme<T>,
    dir: Direction,
    l: usize,
) -> Option<usize> {
    let m = boxes.len();
    assert_eq!(m, scheme.num_boxes(), "boxes and scheme disagree on m");
    assert!(l >= 1 && l <= m, "chain length must be in [1..m]");
    (0..m).find(|&i| {
        let sum: T = (0..l).map(|k| boxes[(i + k) % m]).sum();
        scheme.chain_viable(sum, i, l, dir)
    })
}

/// Reference implementation of [`find_prefix_viable`] without the
/// Corollary-2 skip, used to validate the optimization in tests and timed
/// beside it by the `chain_check/noskip` kernel benchmark.
pub fn find_prefix_viable_noskip<T: BoxValue>(
    boxes: &[T],
    scheme: &ThresholdScheme<T>,
    dir: Direction,
    l: usize,
) -> Option<usize> {
    let m = boxes.len();
    (0..m).find(|&i| check_prefix_viable(boxes, scheme, dir, i, l).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_1_pigeonhole_is_weak() {
        // Example 1: both layouts total 8 > 5 yet pass the pigeonhole
        // filter (chain length 1).
        let scheme = ThresholdScheme::uniform(5i64, 5);
        for b in [[2i64, 1, 2, 2, 1], [2, 0, 3, 1, 2]] {
            assert!(find_prefix_viable(&b, &scheme, Direction::Le, 1).is_some());
        }
    }

    #[test]
    fn intro_basic_form_filters_layout_a() {
        // Intro: layout (2,1,2,2,1) has no two consecutive boxes summing
        // to ≤ 2, so the basic form at l = 2 filters it…
        let scheme = ThresholdScheme::uniform(5i64, 5);
        let a = [2i64, 1, 2, 2, 1];
        assert!(find_viable_window(&a, &scheme, Direction::Le, 2).is_none());
        // …while (2,0,3,1,2) passes the basic form (b0 + b1 = 2)…
        let b = [2i64, 0, 3, 1, 2];
        assert_eq!(find_viable_window(&b, &scheme, Direction::Le, 2), Some(0));
        // …but both are filtered by the strong form (no i with b_i ≤ 1 and
        // b_i + b_{i+1} ≤ 2).
        assert!(find_prefix_viable(&a, &scheme, Direction::Le, 2).is_none());
        assert!(find_prefix_viable(&b, &scheme, Direction::Le, 2).is_none());
    }

    #[test]
    fn example_5_candidates_at_l2() {
        // Example 5: τ = 5, m = 5; x² and x³ remain candidates at l = 2,
        // x¹ and x⁴ are filtered (basic form; the strong form agrees here).
        let scheme = ThresholdScheme::uniform(5i64, 5);
        let x1 = [2i64, 1, 2, 2, 1];
        let x2 = [0i64, 2, 0, 2, 1];
        let x3 = [1i64, 2, 2, 1, 1];
        let x4 = [2i64, 2, 2, 2, 2];
        assert!(find_viable_window(&x1, &scheme, Direction::Le, 2).is_none());
        assert!(find_viable_window(&x2, &scheme, Direction::Le, 2).is_some());
        assert!(find_viable_window(&x3, &scheme, Direction::Le, 2).is_some());
        assert!(find_viable_window(&x4, &scheme, Direction::Le, 2).is_none());
        assert!(find_prefix_viable(&x2, &scheme, Direction::Le, 2).is_some());
        assert!(find_prefix_viable(&x3, &scheme, Direction::Le, 2).is_some());
    }

    #[test]
    fn example_6_strong_beats_basic() {
        // Example 6: B = (2,0,3,1,2), τ = 5, m = 5, l = 2. Basic form
        // passes via c^2_0 but its 1-prefix b0 = 2 > 1, so the strong form
        // filters the object.
        let b = [2i64, 0, 3, 1, 2];
        let scheme = ThresholdScheme::uniform(5i64, 5);
        assert_eq!(find_viable_window(&b, &scheme, Direction::Le, 2), Some(0));
        assert!(find_prefix_viable(&b, &scheme, Direction::Le, 2).is_none());
    }

    #[test]
    fn example_7_variable_thresholds() {
        // Example 7: x¹ = (2,1,2,2,1), T = (1,2,0,1,1), ‖T‖₁ = 5 = τ.
        // c^2_0 is the only viable chain of length 2 but its 1-prefix
        // violates t0 = 1, so x¹ is filtered.
        let b = [2i64, 1, 2, 2, 1];
        let scheme = ThresholdScheme::variable(vec![1i64, 2, 0, 1, 1]);
        scheme.assert_sums_to(5, Direction::Le);
        // Only start 0 has a viable length-2 chain.
        let viable2: Vec<usize> = (0..5)
            .filter(|&i| {
                let sum = b[i] + b[(i + 1) % 5];
                scheme.chain_viable(sum, i, 2, Direction::Le)
            })
            .collect();
        assert_eq!(viable2, vec![0]);
        // And that chain is not prefix-viable.
        assert_eq!(
            check_prefix_viable(&b, &scheme, Direction::Le, 0, 2),
            Err(1)
        );
        assert!(find_prefix_viable(&b, &scheme, Direction::Le, 2).is_none());
    }

    #[test]
    fn example_8_integer_reduction() {
        // Example 8: x³ = (1,2,2,1,1), T = (1,0,0,0,0), ‖T‖₁ = 1 = τ−m+1.
        // At l = 2, only c^2_4 satisfies the chain quota, but its 1-prefix
        // b4 = 1 > 1−1+t4 = 0, so x³ is filtered.
        let b = [1i64, 2, 2, 1, 1];
        let scheme = ThresholdScheme::integer_reduced(vec![1i64, 0, 0, 0, 0]);
        scheme.assert_sums_to(5, Direction::Le);
        let viable2: Vec<usize> = (0..5)
            .filter(|&i| {
                let sum = b[i] + b[(i + 1) % 5];
                scheme.chain_viable(sum, i, 2, Direction::Le)
            })
            .collect();
        assert_eq!(viable2, vec![4]);
        assert_eq!(
            check_prefix_viable(&b, &scheme, Direction::Le, 4, 2),
            Err(1)
        );
        assert!(find_prefix_viable(&b, &scheme, Direction::Le, 2).is_none());
    }

    #[test]
    fn ge_direction_integer_reduction_example_10_quotas() {
        // §6.2 / Example 10: τ = 9, m = 5, T = (4,1,2,2,4), ‖T‖₁ = 13 =
        // τ+m−1 (≥ case). The chain quota at l = 2 starting at 2 is
        // t2+t3−l+1 = 3; boxes (…,2,0,…) sum to 2 < 3, so the chain is not
        // viable.
        let scheme = ThresholdScheme::integer_reduced(vec![4i64, 1, 2, 2, 4]);
        scheme.assert_sums_to(9, Direction::Ge);
        assert!(!scheme.chain_viable(2, 2, 2, Direction::Ge));
        assert!(scheme.chain_viable(3, 2, 2, Direction::Ge));
        // Box-level (l = 1): viable means b_i ≥ t_i.
        assert!(scheme.chain_viable(2, 2, 1, Direction::Ge)); // b2 = 2 ≥ t2 = 2
        assert!(!scheme.chain_viable(0, 3, 1, Direction::Ge)); // b3 = 0 < t3 = 2
    }

    #[test]
    fn uniform_quota_is_exact_for_integers() {
        // sum ≤ l·n/m tested as m·sum ≤ l·n: for n = 5, m = 3, l = 2 the
        // quota is 10/3 ≈ 3.33; sum 3 passes, sum 4 fails.
        let scheme = ThresholdScheme::uniform(5i64, 3);
        assert!(scheme.chain_viable(3, 0, 2, Direction::Le));
        assert!(!scheme.chain_viable(4, 0, 2, Direction::Le));
    }

    #[test]
    fn f64_boxes_work() {
        let b = [0.5f64, 0.25, 0.75];
        let scheme = ThresholdScheme::uniform(1.5f64, 3);
        assert!(find_prefix_viable(&b, &scheme, Direction::Le, 3).is_some());
        let b2 = [0.9f64, 0.9, 0.9];
        assert!(find_prefix_viable(&b2, &scheme, Direction::Le, 1).is_none());
    }

    fn quota_prefix(t: &[i64]) -> Vec<i64> {
        let mut prefix = Vec::new();
        doubled_prefix_into(t, &mut prefix);
        prefix
    }

    #[test]
    fn lazy_check_stops_at_first_failure() {
        // m = 4, zero thresholds: quota l' − 1. Box 1 = 5 breaks the
        // prefix of length 2 from start 0.
        let boxes = [0i64, 5, 0, 0];
        let chain = ChainCheck::new(zero_thresholds(4), Direction::Le, 4);
        let mut calls = 0;
        let viable = chain.check(0, |j| {
            calls += 1;
            boxes[j]
        });
        assert!(!viable);
        assert_eq!(calls, 2, "must not evaluate boxes past the failure");
    }

    #[test]
    fn chain_check_wraps_the_ring() {
        // m = 3, thresholds (0, 0, 2): the chain from 2 wraps to 0 and 1.
        let prefix = quota_prefix(&[0, 0, 2]);
        let chain = ChainCheck::new(&prefix, Direction::Le, 3);
        let mut seen = Vec::new();
        // Prefix quotas 2, 3, 4 with sum 2, 3, 4: all tight, all viable.
        assert!(chain.check(2, |j| {
            seen.push(j);
            [1i64, 1, 2][j]
        }));
        assert_eq!(seen, [2, 0, 1]);
    }

    #[test]
    fn zero_thresholds_are_the_uniform_quota_at_m_tau_plus_one() {
        // Theorem 3 at n = τ, m = τ + 1 against the check over
        // zero_thresholds(m), every start and length, boxes in 0..=2.
        for tau in [0usize, 1, 4, 63] {
            let m = tau + 1;
            let scheme = ThresholdScheme::uniform(tau as i64, m);
            for seed in 0..40u64 {
                let boxes: Vec<i64> = (0..m as u64)
                    .map(|k| ((seed * 7 + k * k * 13 + k) % 5).min(2) as i64)
                    .collect();
                for l in 1..=m {
                    let chain = ChainCheck::new(zero_thresholds(m), Direction::Le, l);
                    for start in 0..m {
                        let fast = chain.check(start, |j| boxes[j]);
                        let slow =
                            check_prefix_viable(&boxes, &scheme, Direction::Le, start, l).is_ok();
                        assert_eq!(fast, slow, "tau={tau} l={l} start={start}");
                    }
                }
            }
        }
    }

    #[test]
    fn skip_matches_noskip_exhaustively() {
        // Small exhaustive check that Corollary-2 skipping never changes
        // the outcome (a proptest widens this).
        let scheme = ThresholdScheme::uniform(6i64, 4);
        for a in 0..4i64 {
            for b in 0..4i64 {
                for c in 0..4i64 {
                    for d in 0..4i64 {
                        let boxes = [a, b, c, d];
                        for l in 1..=4 {
                            let fast =
                                find_prefix_viable(&boxes, &scheme, Direction::Le, l).is_some();
                            let slow = find_prefix_viable_noskip(&boxes, &scheme, Direction::Le, l)
                                .is_some();
                            assert_eq!(fast, slow, "boxes={boxes:?} l={l}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn candidates_shrink_with_chain_length() {
        // Lemma 4 on a concrete grid: candidate at l+1 ⇒ candidate at l.
        let scheme = ThresholdScheme::uniform(7i64, 5);
        for seed in 0..3000u64 {
            // Cheap deterministic pseudo-random boxes.
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut boxes = [0i64; 5];
            for b in &mut boxes {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = ((s >> 33) % 5) as i64;
            }
            let mut prev = true;
            for l in 1..=5 {
                let cand = find_prefix_viable(&boxes, &scheme, Direction::Le, l).is_some();
                assert!(
                    prev || !cand,
                    "candidate set must shrink: boxes={boxes:?} l={l}"
                );
                prev = cand;
            }
        }
    }

    #[test]
    #[should_panic(expected = "variable thresholds must sum to n")]
    fn variable_sum_contract_enforced() {
        let scheme = ThresholdScheme::variable(vec![1i64, 1, 1]);
        scheme.assert_sums_to(5, Direction::Le);
    }
}
