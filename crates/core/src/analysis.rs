//! Filtering-performance analysis (§3.1, Figure 2).
//!
//! Models the `m` boxes as i.i.d. random variables with a common PMF and
//! computes, for each chain length `l`:
//!
//! * `Pr(CAND_l)` — the probability that a random object passes the
//!   strong-form pigeonring filter, via the paper's *word set* recurrence:
//!   rings with no prefix-viable chain of length `l` are generated by
//!   concatenating words (a non-viable box, or a suffix-non-viable chain of
//!   length `2..=l` with a prefix-viable head), and the `M(x)` / `N(x)`
//!   recurrences count these layouts, with `N` correcting for word
//!   boundaries that do not align with box `m−1`;
//! * `Pr(RES)` — the probability that an object is a result
//!   (`Σ boxes ≤ τ`), an exact `m`-fold convolution.
//!
//! The paper plots `Pr(CAND_l)/Pr(RES)` ("#false positives / #results") for
//! Hamming distance search on uniform binary data, where each box is
//! `Binomial(d/m, ½)`. [`FilterAnalysis::cand_over_res`] reproduces the
//! Figure 2 series; Monte-Carlo validation lives in the test suite.
//!
//! The paper states the analysis for continuous PDFs; every case study in
//! its evaluation has integer-valued boxes, so we implement the discrete
//! form (integrals become sums, computed exactly up to f64 rounding).
//! Viability uses the same exact integer comparison as
//! [`crate::viability`]: a chain of length `k` with sum `s` is viable iff
//! `m·s ≤ k·τ`.

/// A probability mass function over the non-negative integer support
/// `0..pmf.len()`.
#[derive(Clone, Debug)]
pub struct DiscreteDist {
    pmf: Vec<f64>,
}

impl DiscreteDist {
    /// Builds a distribution from raw (non-negative) weights; they are
    /// normalized to sum to 1.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to 0.
    pub fn from_weights(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty support");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be non-negative and sum to a positive value"
        );
        DiscreteDist {
            pmf: weights.iter().map(|w| w / total).collect(),
        }
    }

    /// `Binomial(trials, p)`: the distance distribution of one `w`-bit part
    /// under uniform random bits is `Binomial(w, ½)`.
    pub fn binomial(trials: usize, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let mut pmf = vec![0.0; trials + 1];
        // Iterative binomial coefficients in log space are unnecessary at
        // the sizes used here (trials ≤ a few hundred); use the stable
        // multiplicative recurrence pmf[k+1] = pmf[k]·(n−k)/(k+1)·p/(1−p),
        // guarded for the degenerate p ∈ {0, 1}.
        if p == 0.0 {
            pmf[0] = 1.0;
            return DiscreteDist { pmf };
        }
        if p == 1.0 {
            pmf[trials] = 1.0;
            return DiscreteDist { pmf };
        }
        let ratio = p / (1.0 - p);
        let mut cur = (1.0 - p).powi(trials as i32);
        for (k, slot) in pmf.iter_mut().enumerate() {
            *slot = cur;
            cur *= ratio * (trials - k) as f64 / (k + 1) as f64;
        }
        DiscreteDist { pmf }
    }

    /// `P(X = v)`; zero outside the support.
    pub fn p(&self, v: usize) -> f64 {
        self.pmf.get(v).copied().unwrap_or(0.0)
    }

    /// Largest support value (inclusive).
    pub fn max_value(&self) -> usize {
        self.pmf.len() - 1
    }

    /// Convolution: distribution of the sum of independent `self` + `rhs`.
    pub fn convolve(&self, rhs: &DiscreteDist) -> DiscreteDist {
        let mut out = vec![0.0; self.pmf.len() + rhs.pmf.len() - 1];
        for (a, &pa) in self.pmf.iter().enumerate() {
            if pa == 0.0 {
                continue;
            }
            for (b, &pb) in rhs.pmf.iter().enumerate() {
                out[a + b] += pa * pb;
            }
        }
        DiscreteDist { pmf: out }
    }

    /// Samples a value using a uniform `[0, 1)` draw supplied by the
    /// caller (keeps this crate dependency-free; tests pass `rand`).
    pub fn sample(&self, uniform01: f64) -> usize {
        let mut acc = 0.0;
        for (v, &p) in self.pmf.iter().enumerate() {
            acc += p;
            if uniform01 < acc {
                return v;
            }
        }
        self.pmf.len() - 1
    }
}

/// The §3.1 analysis for one parameter setting: `m` i.i.d. boxes, uniform
/// quota from threshold `tau` (`n = τ`, direction ≤).
pub struct FilterAnalysis {
    dist: DiscreteDist,
    m: usize,
    tau: i64,
}

impl FilterAnalysis {
    /// Creates the analysis for `m` boxes distributed as `dist` and
    /// threshold `tau`.
    ///
    /// # Panics
    /// Panics if `m == 0` or `tau < 0`.
    pub fn new(dist: DiscreteDist, m: usize, tau: i64) -> Self {
        assert!(m > 0, "need at least one box");
        assert!(tau >= 0, "threshold must be non-negative");
        FilterAnalysis { dist, m, tau }
    }

    /// Whether a chain of length `k` with sum `s` is viable
    /// (`m·s ≤ k·τ`, the exact integer form of `s ≤ k·τ/m`).
    #[inline]
    fn viable(&self, k: usize, s: usize) -> bool {
        (self.m as i64) * (s as i64) <= (k as i64) * self.tau
    }

    /// Word probabilities `Pr(w_i)` for `i = 1..=l`.
    ///
    /// `w_1` is a non-viable box. For `i ≥ 2`, `w_i` is a chain whose
    /// `(i−1)`-prefix is prefix-viable and whose total is non-viable
    /// (which forces every suffix non-viable, per Lemma 2).
    pub fn word_probs(&self, l: usize) -> Vec<f64> {
        assert!(l >= 1 && l <= self.m, "chain length must be in [1..m]");
        let vmax = self.dist.max_value();
        let mut probs = Vec::with_capacity(l);
        // i = 1: P(box non-viable).
        let p_nonviable: f64 = (0..=vmax)
            .filter(|&v| !self.viable(1, v))
            .map(|v| self.dist.p(v))
            .sum();
        probs.push(p_nonviable);
        // i ≥ 2: DP over the running prefix sum, constrained viable at
        // every prefix length.
        // dp[s] = P(first k boxes sum to s and every prefix is viable).
        let mut dp = vec![0.0f64; 1];
        dp[0] = 1.0; // empty prefix
        for i in 2..=l {
            // Extend dp from k = i−2 to k = i−1 viable prefixes.
            // (On entry for i = 2, dp is the k = 0 distribution.)
            let k = i - 1;
            let mut next = vec![0.0f64; dp.len() + vmax];
            for (s, &p) in dp.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                for v in 0..=vmax {
                    let ns = s + v;
                    if self.viable(k, ns) {
                        next[ns] += p * self.dist.p(v);
                    }
                }
            }
            dp = next;
            // Pr(w_i) = Σ_s dp[s] · P(final box makes total non-viable).
            let mut pw = 0.0;
            for (s, &p) in dp.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                for v in 0..=vmax {
                    if !self.viable(i, s + v) {
                        pw += p * self.dist.p(v);
                    }
                }
            }
            probs.push(pw);
        }
        probs
    }

    /// `M(x)`: probability that a chain of length `x` is a *target chain*
    /// (a concatenation of words), for `x = 0..=m`.
    fn m_table(&self, word: &[f64]) -> Vec<f64> {
        let l = word.len();
        let mut m_tab = vec![0.0f64; self.m + 1];
        m_tab[0] = 1.0;
        for x in 1..=self.m {
            let mut acc = 0.0;
            for i in 1..=x.min(l) {
                acc += m_tab[x - i] * word[i - 1];
            }
            m_tab[x] = acc;
        }
        m_tab
    }

    /// `1 − Pr(CAND_l)` via the paper's `N(m)`: `M(m)` plus the shifted
    /// alignments where box `m−1` falls inside (not at the end of) a word
    /// of length `i`, contributing `(i−1)·M(m−i)·Pr(w_i)`.
    pub fn no_candidate_prob(&self, l: usize) -> f64 {
        let word = self.word_probs(l);
        let m_tab = self.m_table(&word);
        let x = self.m;
        let mut n = m_tab[x];
        if x > 1 {
            for i in 2..=x.min(l) {
                n += m_tab[x - i] * (i as f64 - 1.0) * word[i - 1];
            }
        }
        n.min(1.0)
    }

    /// `Pr(CAND_l)`: probability a random object passes the strong-form
    /// filter at chain length `l`.
    pub fn cand_prob(&self, l: usize) -> f64 {
        (1.0 - self.no_candidate_prob(l)).max(0.0)
    }

    /// `Pr(RES)`: probability a random object is a result
    /// (`Σ boxes ≤ τ`). Exact convolution.
    pub fn result_prob(&self) -> f64 {
        let mut total = self.dist.clone();
        for _ in 1..self.m {
            total = total.convolve(&self.dist);
        }
        (0..=total.max_value())
            .filter(|&s| s as i64 <= self.tau)
            .map(|s| total.p(s))
            .sum()
    }

    /// The Figure 2 series: `Pr(CAND_l)/Pr(RES)` for the given `l`.
    pub fn cand_over_res(&self, l: usize) -> f64 {
        self.cand_prob(l) / self.result_prob()
    }

    /// `(Pr(CAND_l) − Pr(RES))/Pr(RES)`: the literal false-positive ratio
    /// (the paper labels the axis this way while plotting
    /// [`Self::cand_over_res`]; we expose both).
    pub fn fp_over_res(&self, l: usize) -> f64 {
        (self.cand_prob(l) - self.result_prob()).max(0.0) / self.result_prob()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_pmf_is_correct() {
        let d = DiscreteDist::binomial(4, 0.5);
        let expect = [1.0, 4.0, 6.0, 4.0, 1.0].map(|c| c / 16.0);
        for (k, e) in expect.iter().enumerate() {
            assert!((d.p(k) - e).abs() < 1e-12, "k={k}");
        }
        let total: f64 = (0..=4).map(|k| d.p(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn binomial_degenerate_cases() {
        let d0 = DiscreteDist::binomial(5, 0.0);
        assert_eq!(d0.p(0), 1.0);
        let d1 = DiscreteDist::binomial(5, 1.0);
        assert_eq!(d1.p(5), 1.0);
    }

    #[test]
    fn convolution_of_binomials_is_binomial() {
        let a = DiscreteDist::binomial(3, 0.5);
        let b = DiscreteDist::binomial(5, 0.5);
        let c = a.convolve(&b);
        let direct = DiscreteDist::binomial(8, 0.5);
        for k in 0..=8 {
            assert!((c.p(k) - direct.p(k)).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn l1_matches_closed_form_pigeonhole() {
        // At l = 1 the recurrence must reduce to the exact pigeonhole
        // probability: Pr(no candidate) = P(box > τ/m)^m.
        let dist = DiscreteDist::binomial(16, 0.5);
        let fa = FilterAnalysis::new(dist.clone(), 8, 32);
        let p_viable: f64 = (0..=16)
            .filter(|&v| 8 * v as i64 <= 32)
            .map(|v| dist.p(v))
            .sum();
        let expect = (1.0 - p_viable).powi(8);
        assert!((fa.no_candidate_prob(1) - expect).abs() < 1e-12);
    }

    #[test]
    fn l_equals_m_cand_close_to_res() {
        // At l = m, candidates are exactly results (§3); the recurrence is
        // the paper's estimate, so allow a modest relative tolerance.
        let dist = DiscreteDist::binomial(8, 0.5);
        let fa = FilterAnalysis::new(dist, 4, 12);
        let cand = fa.cand_prob(4);
        let res = fa.result_prob();
        assert!((cand - res).abs() / res < 0.2, "cand={cand} res={res}");
    }

    #[test]
    fn cand_prob_decreases_with_chain_length() {
        let dist = DiscreteDist::binomial(16, 0.5);
        let fa = FilterAnalysis::new(dist, 16, 96);
        let mut prev = f64::INFINITY;
        for l in 1..=7 {
            let c = fa.cand_prob(l);
            assert!(c <= prev + 1e-9, "l={l}: {c} > {prev}");
            assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
    }

    #[test]
    fn figure2_series_shape() {
        // Figure 2: d = 256; all four settings decrease with l, and the
        // tighter settings (τ = 64, m = 16) sit below the looser
        // (τ = 96, m = 16) at every l.
        let settings = [(96i64, 16usize), (64, 16), (48, 8), (32, 8)];
        let mut curves = Vec::new();
        for (tau, m) in settings {
            let dist = DiscreteDist::binomial(256 / m, 0.5);
            let fa = FilterAnalysis::new(dist, m, tau);
            let series: Vec<f64> = (1..=7).map(|l| fa.cand_over_res(l)).collect();
            for w in series.windows(2) {
                assert!(
                    w[1] <= w[0] + 1e-9,
                    "series must be non-increasing: {series:?}"
                );
            }
            curves.push(series);
        }
        // Looser τ ⇒ more candidates relative to results at l = 1? In the
        // paper's plot the τ = 64 (m = 16) curve is the highest: fewer
        // results make the ratio larger. Check that relation.
        assert!(
            curves[1][0] > curves[0][0],
            "τ=64,m=16 should start above τ=96,m=16"
        );
    }

    #[test]
    fn fp_over_res_is_cand_over_res_minus_one() {
        // The two Figure 2 readings differ by the results themselves:
        // (Pr(CAND) − Pr(RES))/Pr(RES) = Pr(CAND)/Pr(RES) − 1, clamped at
        // 0 where rounding puts Pr(CAND) below Pr(RES).
        for (tau, m) in [(96i64, 16usize), (64, 16), (48, 8), (32, 8), (12, 4)] {
            let fa = FilterAnalysis::new(DiscreteDist::binomial(256 / m, 0.5), m, tau);
            for l in 1..=m.min(7) {
                let want = (fa.cand_over_res(l) - 1.0).max(0.0);
                let got = fa.fp_over_res(l);
                assert!(
                    (got - want).abs() <= 1e-9 * want.max(1.0),
                    "τ={tau} m={m} l={l}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn word_probs_sum_reasonable() {
        let dist = DiscreteDist::binomial(16, 0.5);
        let fa = FilterAnalysis::new(dist, 8, 40);
        let w = fa.word_probs(4);
        assert_eq!(w.len(), 4);
        for &p in &w {
            assert!((0.0..=1.0).contains(&p), "{w:?}");
        }
    }
}
