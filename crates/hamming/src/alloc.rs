//! Variable threshold allocation for GPH (§6.1).
//!
//! Integer reduction (Theorem 7) requires `‖T‖₁ = τ − m + 1`. GPH \[72\]
//! chooses the per-part thresholds with a query-time cost model; we
//! implement the same idea as a greedy allocator over a sampled per-part
//! distance histogram: starting from `t_i = −1` everywhere (a part with
//! `t_i = −1` can never produce a viable box and is skipped by the index),
//! the `τ + 1` threshold units are handed out one at a time to the part
//! whose increment adds the least estimated cost
//! (`signature-enumeration probes + λ · estimated candidates`). Handing
//! out units greedily is optimal when the marginal costs are
//! non-decreasing, which holds for the enumeration term and approximately
//! for the candidate term on realistic distance histograms.
//!
//! The sampled histogram does not depend on `τ`, so it is computed once
//! per query as part of the query plan ([`CostModel::distance_histogram`]); only
//! the greedy hand-out ([`CostModel::allocate_into`]) runs per search.
//!
//! [`AllocationStrategy::Even`] is the ablation baseline: spread the units
//! uniformly regardless of the query.

use crate::bitvec::BitVector;
use crate::index::enumeration_count;
use crate::partition::Partitioning;

/// How GPH distributes `τ − m + 1` over the `m` part thresholds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocationStrategy {
    /// Uniform split of the `τ + 1` units over parts (query-independent).
    Even,
    /// Greedy cost-model allocation from a sampled per-part histogram.
    CostModel,
}

/// Even allocation: `t_i = −1 + (τ+1)/m` spread with remainder on the
/// leading parts. Always sums to `τ − m + 1`.
pub fn even_allocation(tau: i64, m: usize) -> Vec<i64> {
    let mut t = Vec::with_capacity(m);
    even_allocation_into(tau, m, &mut t);
    t
}

/// [`even_allocation`] into a caller-owned buffer (cleared first).
pub fn even_allocation_into(tau: i64, m: usize, t: &mut Vec<i64>) {
    assert!(tau >= 0, "threshold must be non-negative");
    assert!(m > 0, "need at least one part");
    let units = tau + 1;
    let base = units / m as i64;
    let rem = (units % m as i64) as usize;
    t.clear();
    t.extend((0..m).map(|i| -1 + base + i64::from(i < rem)));
}

/// Query-time cost model: per-part signatures of a deterministic data
/// sample, used to estimate how many candidates a threshold admits.
///
/// Allocation is split in two. [`CostModel::distance_histogram`] is the
/// expensive, `τ`-independent half — one popcount per sampled signature
/// per part — and belongs to the query *plan*, computed once per query
/// however many shards execute it. [`CostModel::allocate_into`] is the
/// cheap greedy half, run wherever `τ` is known.
pub struct CostModel {
    /// Part-major sample signatures: part `p`'s are
    /// `sigs[p · taken .. (p + 1) · taken]`.
    sigs: Vec<u64>,
    /// Sampled vectors per part.
    taken: usize,
    /// Data-set size divided by sample size (candidate scale factor).
    scale: f64,
    widths: Vec<usize>,
    /// Relative cost of verifying one candidate vs. enumerating one
    /// signature; proportional to the number of vector words.
    verify_weight: f64,
    /// Row starts of the flat per-part tables: part `p`'s row of a
    /// histogram (and of `shells`) is `[rows[p] .. rows[p + 1])`, one
    /// entry per distance `0..=widths[p]`.
    rows: Vec<usize>,
    /// `shells[rows[p] + k] = C(w_p, k)`: the signatures enumerated when
    /// part `p`'s radius grows from `k − 1` to `k`.
    shells: Vec<f64>,
}

impl CostModel {
    /// Builds the model from every `⌈N/sample⌉`-th vector (deterministic,
    /// so repeated runs allocate identically).
    pub fn build(data: &[BitVector], partitioning: &Partitioning, sample: usize) -> Self {
        assert!(!data.is_empty(), "cannot model an empty dataset");
        let stride = data.len().div_ceil(sample.max(1)).max(1);
        let m = partitioning.num_parts();
        let taken = data.len().div_ceil(stride);
        let mut sigs = Vec::with_capacity(m * taken);
        for (lo, hi) in partitioning.iter() {
            sigs.extend(
                data.iter()
                    .step_by(stride)
                    .map(|v| v.part_signature(lo, hi)),
            );
        }
        let widths: Vec<usize> = (0..m).map(|p| partitioning.width(p)).collect();
        let mut rows = Vec::with_capacity(m + 1);
        let mut shells = Vec::new();
        for &w in &widths {
            rows.push(shells.len());
            shells.push(1.0);
            shells.extend(
                (1..=w).map(|k| (enumeration_count(w, k) - enumeration_count(w, k - 1)) as f64),
            );
        }
        rows.push(shells.len());
        CostModel {
            sigs,
            taken,
            scale: data.len() as f64 / taken as f64,
            widths,
            verify_weight: (partitioning.dims() as f64 / 64.0).max(1.0),
            rows,
            shells,
        }
    }

    /// Part widths of the partitioning the model was sampled under.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Per-part histogram of sample distances to the query, whose part
    /// signatures are `qsigs` — flat, part `p`'s counts for distances
    /// `0..=w_p` back to back. Independent of `τ`.
    ///
    /// # Panics
    /// Panics if `qsigs` does not hold one signature per part.
    pub fn distance_histogram(&self, qsigs: &[u64]) -> Vec<u32> {
        assert_eq!(qsigs.len(), self.widths.len(), "one signature per part");
        let mut hist = Vec::with_capacity(self.shells.len());
        for (p, &qsig) in qsigs.iter().enumerate() {
            // Four interleaved count arrays: consecutive samples mostly
            // land in the same few buckets, and one array would chain
            // every increment on the previous store.
            let mut lanes = [[0u32; 65]; 4];
            let sample = &self.sigs[p * self.taken..(p + 1) * self.taken];
            let mut chunks = sample.chunks_exact(4);
            for c in chunks.by_ref() {
                for (lane, &s) in lanes.iter_mut().zip(c) {
                    lane[(s ^ qsig).count_ones() as usize] += 1;
                }
            }
            for &s in chunks.remainder() {
                lanes[0][(s ^ qsig).count_ones() as usize] += 1;
            }
            hist.extend(
                (0..=self.widths[p]).map(|k| lanes.iter().map(|lane| lane[k]).sum::<u32>()),
            );
        }
        hist
    }

    /// Marginal cost of raising part `p`'s threshold to `nt`: the new
    /// enumeration shell `C(w, nt)` plus the candidates it admits,
    /// `hist[p][nt] · scale`, weighted by the verification cost.
    #[inline]
    fn marginal(&self, hist: &[u32], p: usize, nt: usize) -> f64 {
        if nt > self.widths[p] {
            return f64::INFINITY; // cannot widen past the part width
        }
        let at = self.rows[p] + nt;
        self.shells[at] + self.verify_weight * (f64::from(hist[at]) * self.scale)
    }

    /// Allocates thresholds at `tau` from a query's
    /// [`CostModel::distance_histogram`] into `t` (`Σ t_i = τ − m + 1`, each
    /// `t_i ≥ −1`): the `τ + 1` units go one at a time to the part whose
    /// next unit is cheapest, ties to the lowest part. `marginal` is a
    /// reusable buffer for the parts' current next-unit costs.
    ///
    /// # Panics
    /// Panics if `tau < 0` or `hist` is not a histogram of this model.
    pub fn allocate_into(&self, hist: &[u32], tau: i64, t: &mut Vec<i64>, marginal: &mut Vec<f64>) {
        assert!(tau >= 0, "threshold must be non-negative");
        assert_eq!(hist.len(), self.shells.len(), "histogram of another model");
        let m = self.widths.len();
        t.clear();
        t.resize(m, -1);
        marginal.clear();
        marginal.extend((0..m).map(|p| self.marginal(hist, p, 0)));
        for _ in 0..=tau {
            let mut best = 0;
            for p in 1..m {
                if marginal[p] < marginal[best] {
                    best = p;
                }
            }
            t[best] += 1;
            marginal[best] = self.marginal(hist, best, (t[best] + 1) as usize);
        }
        debug_assert_eq!(t.iter().sum::<i64>(), tau - m as i64 + 1);
    }

    /// The unsplit allocator this module shipped before the
    /// histogram/greedy split, kept verbatim as the differential oracle
    /// for [`CostModel::distance_histogram`] + [`CostModel::allocate_into`].
    #[cfg(test)]
    fn allocate_reference(&self, q: &BitVector, partitioning: &Partitioning, tau: i64) -> Vec<i64> {
        assert!(tau >= 0, "threshold must be non-negative");
        let m = self.widths.len();
        // Per-part histogram of sample distances to the query part.
        let mut hist: Vec<Vec<f64>> = Vec::with_capacity(m);
        for (p, (lo, hi)) in partitioning.iter().enumerate() {
            let qsig = q.part_signature(lo, hi);
            let mut h = vec![0.0f64; self.widths[p] + 1];
            for &s in &self.sigs[p * self.taken..(p + 1) * self.taken] {
                h[(s ^ qsig).count_ones() as usize] += 1.0;
            }
            hist.push(h);
        }
        // Marginal cost of raising part p from t to t+1:
        //   Δprobes = C(w, t+1)   (new enumeration shell)
        //   Δcands  = hist[p][t+1] · scale
        let marginal = |p: usize, t: i64| -> f64 {
            let nt = (t + 1) as usize;
            let w = self.widths[p];
            if nt > w {
                return f64::INFINITY; // cannot widen past the part width
            }
            // New enumeration shell at radius nt: C(w, nt) signatures.
            let shell = if nt == 0 {
                1.0
            } else {
                (enumeration_count(w, nt) - enumeration_count(w, nt - 1)) as f64
            };
            let cands = hist[p].get(nt).copied().unwrap_or(0.0) * self.scale;
            shell + self.verify_weight * cands
        };
        let mut t = vec![-1i64; m];
        for _ in 0..=tau {
            let (best, _) = (0..m)
                .map(|p| (p, marginal(p, t[p])))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least one part");
            t[best] += 1;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The production path: histogram once, then the greedy step.
    fn allocate(cm: &CostModel, q: &BitVector, p: &Partitioning, tau: i64) -> Vec<i64> {
        let hist = cm.distance_histogram(&p.signatures(q));
        let (mut t, mut marginal) = (Vec::new(), Vec::new());
        cm.allocate_into(&hist, tau, &mut t, &mut marginal);
        t
    }

    #[test]
    fn even_allocation_sums_correctly() {
        for tau in 0..40i64 {
            for m in 1..=10usize {
                let t = even_allocation(tau, m);
                assert_eq!(t.len(), m);
                assert_eq!(t.iter().sum::<i64>(), tau - m as i64 + 1, "tau={tau} m={m}");
                assert!(t.iter().all(|&ti| ti >= -1));
                let (mn, mx) = (t.iter().min().unwrap(), t.iter().max().unwrap());
                assert!(mx - mn <= 1, "even split must be balanced: {t:?}");
            }
        }
    }

    #[test]
    fn cost_model_sums_correctly() {
        let data: Vec<BitVector> = (0..64u64)
            .map(|i| BitVector::from_bits((0..32).map(move |b| (i >> (b % 6)) & 1 == 1)))
            .collect();
        let p = Partitioning::equi_width(32, 4);
        let cm = CostModel::build(&data, &p, 16);
        let q = data[3].clone();
        for tau in [0i64, 3, 8, 16] {
            let t = allocate(&cm, &q, &p, tau);
            assert_eq!(t.iter().sum::<i64>(), tau - 4 + 1, "tau={tau}: {t:?}");
            assert!(t.iter().all(|&ti| (-1..=8).contains(&ti)));
        }
    }

    #[test]
    fn cost_model_is_deterministic_and_bounded() {
        let mut data = Vec::new();
        for i in 0..200u32 {
            let mut v = BitVector::zeros(32);
            for b in 0..32 {
                if (i.wrapping_mul(2654435761) >> (b % 16)) & 1 == 1 {
                    v.set(b, true);
                }
            }
            data.push(v);
        }
        let p = Partitioning::equi_width(32, 2);
        let cm = CostModel::build(&data, &p, 100);
        let q = BitVector::zeros(32);
        for tau in [0i64, 5, 12, 20] {
            let t1 = allocate(&cm, &q, &p, tau);
            let t2 = allocate(&cm, &q, &p, tau);
            assert_eq!(t1, t2, "allocation must be deterministic");
            assert_eq!(t1.iter().sum::<i64>(), tau - 2 + 1);
            // Thresholds never exceed the part width (16 here): widening
            // past it has infinite marginal cost.
            assert!(t1.iter().all(|&ti| ti <= 16), "{t1:?}");
        }
    }

    #[test]
    fn cost_model_spends_first_units_on_selective_parts() {
        // Part 0 is dense at distance 0 (first unit admits many
        // candidates at once); part 1 is spread out. With τ = 1, m = 2
        // there are two units to hand out (Σt = 0); the greedy allocator
        // must put both on the selective part and disable the dense one.
        let mut data = Vec::new();
        for i in 0..200u32 {
            let mut v = BitVector::zeros(32);
            for b in 16..32 {
                if (i.wrapping_mul(2654435761) >> (b - 16)) & 1 == 1 {
                    v.set(b, true);
                }
            }
            data.push(v);
        }
        let p = Partitioning::equi_width(32, 2);
        let cm = CostModel::build(&data, &p, 100);
        let q = BitVector::zeros(32);
        let t = allocate(&cm, &q, &p, 1);
        assert_eq!(t, vec![-1, 1], "dense part should be disabled: {t:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The histogram/greedy split allocates exactly what the unsplit
        /// allocator did, for every `τ` up to and past `d` (past `d`
        /// every marginal is infinite and the surplus lands on part 0).
        #[test]
        fn split_allocation_matches_reference(
            seeds in prop::collection::vec(0u64..u64::MAX, 8..40),
            qseed in 0u64..u64::MAX,
            shape in 0usize..4,
        ) {
            let (d, m) = [(32, 4), (64, 5), (100, 7), (70, 2)][shape];
            let expand = |s: u64| {
                BitVector::from_bits((0..d).map(move |b| {
                    (s.rotate_left(b as u32 / 7) >> (b % 64)) & 1 == 1
                }))
            };
            let data: Vec<BitVector> = seeds.iter().map(|&s| expand(s)).collect();
            let p = Partitioning::equi_width(d, m);
            let cm = CostModel::build(&data, &p, 16);
            let q = expand(qseed);
            for tau in (0..=d as i64).chain([d as i64 + 7]) {
                prop_assert_eq!(
                    allocate(&cm, &q, &p, tau),
                    cm.allocate_reference(&q, &p, tau),
                    "d={} m={} tau={}", d, m, tau
                );
            }
        }
    }
}
