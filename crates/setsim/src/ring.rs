//! The pigeonring set-similarity engine (§6.2); pkwise at `l = 1`.
//!
//! Filtering instance: boxes `b₀ = ` suffix overlap, `b_i = |x_i ∩ q_i|`
//! (class-`i` tokens in the two prefixes), `D(τ) = τ`; `‖B‖₁` equals the
//! overlap exactly, so the instance is complete and tight — except that,
//! per the paper's implementation remark, a chain that would need `b₀` is
//! short-circuited to direct verification (trading tightness for speed).
//!
//! Thresholds (variable allocation + integer reduction, `≥` direction,
//! `‖T‖₁ = o(q) + m − 1`):
//!
//! * `t₀ = |q| − p_q + 1` — above the largest *pure suffix* overlap, but
//!   NOT above `b₀` in general: `b₀` also absorbs cross overlap (tokens in
//!   one side's prefix and the other's suffix), so a witness chain *can*
//!   start at the suffix box. Signature probes reach only class starts, so
//!   after a failed class-start chain the engine re-checks the start-0
//!   chain with an upper bound for `b₀` (conservative in the `≥`
//!   direction) before ruling a record out;
//! * `t_k = k` when `cnt(q, p_q, k) ≥ k`, else `cnt(q, p_q, k) + 1` —
//!   unreachable in the second case, so a viable class box is exactly a
//!   shared k-wise signature and every viable class start is enumerated.

use crate::pkwise::{
    combination_count, compute_prefix, for_each_combination, signature_hash, ClassMap, PkwiseIndex,
    Prefix,
};
use crate::types::{overlap, overlap_at_least, Collection, Threshold};
use pigeonring_core::viability::{check_prefix_viable_lazy, Direction, ThresholdScheme};

/// Per-query counters for the set-similarity engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SetStats {
    /// Unique records passed to verification.
    pub candidates: usize,
    /// Records satisfying the threshold.
    pub results: usize,
    /// k-wise signatures enumerated from the query (`C_C1` proxy).
    pub sig_probes: usize,
    /// Signature hits (viable boxes, `|V|`).
    pub viable_boxes: usize,
    /// Box evaluations in the second step (`C_C2` proxy; cache hits in
    /// the [`SetScratch`] box-value cache do not count).
    pub boxes_checked: usize,
    /// Chain checks skipped via Corollary 2.
    pub skipped_by_corollary2: usize,
}

impl SetStats {
    /// Folds `other` into `self`, saturating on overflow (shard
    /// aggregation in the service layer).
    pub fn merge(&mut self, other: &Self) {
        self.candidates = self.candidates.saturating_add(other.candidates);
        self.results = self.results.saturating_add(other.results);
        self.sig_probes = self.sig_probes.saturating_add(other.sig_probes);
        self.viable_boxes = self.viable_boxes.saturating_add(other.viable_boxes);
        self.boxes_checked = self.boxes_checked.saturating_add(other.boxes_checked);
        self.skipped_by_corollary2 = self
            .skipped_by_corollary2
            .saturating_add(other.skipped_by_corollary2);
    }
}

/// The query-side plan for one set-similarity query: everything that
/// depends on the query (and the shared token dictionary) but not on any
/// particular shard's postings — the ranked query, its class prefix, the
/// Theorem-7 threshold scheme, and the **enumerated k-wise signatures**.
/// Computed once by [`RingSetSim::plan_query`]; reusable across shards
/// sharing the query's dictionary and across chain lengths `l` (nothing
/// here depends on `l`), so the combinatorial signature enumeration runs
/// once per query instead of once per shard per `l`.
#[derive(Clone, Debug)]
pub struct SetPlan {
    /// The query in the dictionary's rank space (sorted, deduplicated).
    ranked: Vec<u32>,
    /// The query's class prefix; `None` when no record can reach the
    /// required overlap (`o(q) > |q|`) and the search is empty.
    prefix: Option<Prefix>,
    /// Theorem-7 (≥) thresholds; `None` when `prefix` is `None` or
    /// degenerate (no signature guarantee from the query side).
    scheme: Option<ThresholdScheme<i64>>,
    /// Enumerated query signatures: `(class k, signature hash)` pairs in
    /// class-then-lexicographic order.
    sigs: Vec<(u8, u64)>,
    /// Signatures enumerated (the `C_C1` proxy) — a plan-time statistic,
    /// accounted once per query by the service layer.
    sig_probes: usize,
}

impl SetPlan {
    /// The query translated into the dictionary's rank space.
    pub fn ranked(&self) -> &[u32] {
        &self.ranked
    }

    /// Signatures enumerated while planning.
    pub fn sig_probes(&self) -> usize {
        self.sig_probes
    }
}

/// Per-thread mutable query state for [`RingSetSim`]: the epoch-stamped
/// candidate dedup array, the Corollary-2 ruled-start bitmasks, and the
/// per-record *box-value cache*.
///
/// The cache memoizes class overlaps `b_c = |x_c ∩ q_c|` per `(record,
/// class)` within one query: a record reached by several signature
/// probes — and in particular the start-0 suffix-box fallback chain that
/// re-checks a record after a failed signature-start chain — reuses the
/// overlaps already computed instead of re-merging the class lists.
/// `Default` yields an empty scratch that lazily sizes itself on first
/// use.
#[derive(Clone, Debug, Default)]
pub struct SetScratch {
    /// The shared epoch-stamped dedup/ruled-start core.
    inner: pigeonring_core::scratch::EpochScratch,
    /// Epoch stamp of each record's cached box values.
    box_epoch: Vec<u32>,
    /// Bit `c` set ⇔ class `c`'s overlap is cached for this record.
    box_mask: Vec<u64>,
    /// Flattened `n × (m − 1)` cache of class overlaps.
    box_vals: Vec<u32>,
    /// Box count the cache was sized for.
    m: usize,
    /// Reused dedup buffer for raw-query ranking in the planning path.
    pub(crate) rank_buf: Vec<u32>,
}

impl SetScratch {
    fn next_epoch(&mut self, n: usize, m: usize) -> u32 {
        let epoch = self.inner.next_epoch(n);
        // `next_epoch` returns 1 exactly when the core stamps were
        // (re)initialized (first use, resize, wrap-around); mirror that
        // reset — and any `m` change — in the box cache.
        if epoch == 1 || self.m != m {
            self.box_epoch = vec![0; n];
            self.box_mask = vec![0; n];
            self.box_vals = vec![0; n * m.saturating_sub(1)];
            self.m = m;
        }
        epoch
    }
}

/// The pigeonring set-similarity search engine. `l = 1` *is* the pkwise
/// baseline \[103\]: the plain k-wise signature filter.
///
/// The index is immutable at query time: every query method takes
/// `&self` plus a caller-owned [`SetScratch`], so shards can serve
/// concurrent worker threads.
pub struct RingSetSim {
    collection: Collection,
    threshold: Threshold,
    index: PkwiseIndex,
}

impl RingSetSim {
    /// Builds the engine with hash-assigned classes (`m` boxes total,
    /// `m − 1` classes; the paper uses `m = 5`).
    pub fn build(collection: Collection, threshold: Threshold, m: usize) -> Self {
        Self::with_class_map(collection, threshold, ClassMap::hashed(m))
    }

    /// Builds the engine with an explicit class map (tests, worked
    /// examples).
    pub fn with_class_map(collection: Collection, threshold: Threshold, classes: ClassMap) -> Self {
        let index = PkwiseIndex::build(collection.records(), classes, threshold);
        RingSetSim {
            collection,
            threshold,
            index,
        }
    }

    /// The underlying collection.
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// The number of boxes `m`.
    pub fn m(&self) -> usize {
        self.index.classes().m()
    }

    /// Searches for all records with `sim(x, q) ≥ τ` using chain length
    /// `l`. `q` is a sorted rank array (normally a record of this
    /// collection). Returns ascending ids and statistics. Takes `&self`,
    /// so any number of threads can search one engine concurrently, each
    /// with its own [`SetScratch`].
    pub fn search_with(
        &self,
        scratch: &mut SetScratch,
        q: &[u32],
        l: usize,
    ) -> (Vec<u32>, SetStats) {
        let plan = self.plan_query(q);
        let (ids, mut stats) = self.search_with_plan(scratch, &plan, l);
        stats.sig_probes = stats.sig_probes.saturating_add(plan.sig_probes);
        (ids, stats)
    }

    /// [`RingSetSim::search_with`] against a precomputed [`SetPlan`]
    /// (the plan-once path: one plan serves every shard and every `l`).
    /// Plan-time statistics ([`SetPlan::sig_probes`]) are *not* included
    /// — the plan's owner accounts them once per query.
    pub fn search_with_plan(
        &self,
        scratch: &mut SetScratch,
        plan: &SetPlan,
        l: usize,
    ) -> (Vec<u32>, SetStats) {
        let (cands, mut stats) = self.candidates_with_plan(scratch, plan, l);
        let threshold = self.threshold;
        let q = plan.ranked();
        let mut results: Vec<u32> = cands
            .into_iter()
            .filter(|&id| {
                let x = self.collection.record(id as usize);
                let need = threshold.min_overlap_pair(x.len(), q.len());
                overlap_at_least(x, q, need).is_some()
            })
            .collect();
        results.sort_unstable();
        stats.results = results.len();
        (results, stats)
    }

    /// Computes the query-side plan from a query already in this
    /// engine's rank space: required overlap, class prefix, Theorem-7
    /// thresholds, and the full k-wise signature enumeration — the work
    /// that is identical for every shard sharing this engine's token
    /// dictionary. Touches no per-record state.
    pub fn plan_query(&self, q: &[u32]) -> SetPlan {
        self.plan_ranked(q.to_vec())
    }

    /// [`RingSetSim::plan_query`] taking ownership of the rank array
    /// (avoids a second copy on the raw-query path).
    fn plan_ranked(&self, ranked: Vec<u32>) -> SetPlan {
        let q: &[u32] = &ranked;
        let m = self.m();
        let threshold = self.threshold;
        let oq = threshold.min_overlap_single(q.len());
        if oq as usize > q.len() {
            // No record can reach the overlap: an empty plan.
            return SetPlan {
                ranked,
                prefix: None,
                scheme: None,
                sigs: Vec::new(),
                sig_probes: 0,
            };
        }
        let qp = compute_prefix(q, self.index.classes(), oq).expect("o(q) ≤ |q| was just checked");
        if qp.degenerate {
            return SetPlan {
                ranked,
                prefix: Some(qp),
                scheme: None,
                sigs: Vec::new(),
                sig_probes: 0,
            };
        }
        // Theorem 7 (≥) thresholds: t₀ for the suffix box, t_k per
        // class; ‖T‖₁ = o(q) + m − 1.
        let mut t = vec![0i64; m];
        t[0] = q.len() as i64 - qp.len as i64 + 1;
        for (k, tk) in t.iter_mut().enumerate().skip(1) {
            let cnt = qp.count(k) as i64;
            *tk = if cnt >= k as i64 { k as i64 } else { cnt + 1 };
        }
        debug_assert_eq!(t.iter().sum::<i64>(), oq as i64 + m as i64 - 1);
        let scheme = ThresholdScheme::integer_reduced(t);
        let mut sigs: Vec<(u8, u64)> = Vec::new();
        let mut sig_probes = 0usize;
        for k in 1..m {
            let toks = &qp.grouped[k - 1];
            if toks.len() < k {
                continue;
            }
            sig_probes += combination_count(toks.len(), k) as usize;
            for_each_combination(toks, k, &mut |combo| {
                sigs.push((k as u8, signature_hash(combo)));
            });
        }
        SetPlan {
            ranked,
            prefix: Some(qp),
            scheme: Some(scheme),
            sigs,
            sig_probes,
        }
    }

    /// [`RingSetSim::plan_query`] from a *raw*-token query: ranks it
    /// through the collection's dictionary first (reusing `scratch`'s
    /// dedup buffer), then plans. This is the service-layer entry point.
    pub fn plan_raw_query(&self, scratch: &mut SetScratch, raw: &[u32]) -> SetPlan {
        let ranked = self
            .collection
            .dictionary()
            .rank_query_with(&mut scratch.rank_buf, raw);
        self.plan_ranked(ranked)
    }

    /// Candidate generation only (no verification), for timing the
    /// filter separately (Figure 6's "Cand." series). Plan-time
    /// statistics (`sig_probes`) are included, as before the
    /// plan/execute split.
    ///
    /// This plan-and-discard path materializes the signature enumeration
    /// into one per-query `Vec` (the pre-split code streamed each
    /// combination straight into a lookup). The CPU cost is unchanged —
    /// the same combinations were always enumerated and hashed — and
    /// the transient memory is bounded by the lookup count the query
    /// performs anyway; accepting that buys the sharded/service callers
    /// enumeration reuse across shards and `l` values.
    pub fn candidates_with(
        &self,
        scratch: &mut SetScratch,
        q: &[u32],
        l: usize,
    ) -> (Vec<u32>, SetStats) {
        let plan = self.plan_query(q);
        let (ids, mut stats) = self.candidates_with_plan(scratch, &plan, l);
        stats.sig_probes = stats.sig_probes.saturating_add(plan.sig_probes);
        (ids, stats)
    }

    /// [`RingSetSim::candidates_with`] against a precomputed [`SetPlan`]:
    /// the execute-per-shard half of the split. Probes this engine's
    /// signature index with the plan's pre-enumerated signatures — no
    /// combinatorial enumeration happens here, so running one plan
    /// against `K` shards (or several `l` values) enumerates once total.
    pub fn candidates_with_plan(
        &self,
        scratch: &mut SetScratch,
        plan: &SetPlan,
        l: usize,
    ) -> (Vec<u32>, SetStats) {
        let m = self.m();
        let l = l.clamp(1, m);
        let mut stats = SetStats::default();
        let epoch = scratch.next_epoch(self.collection.len(), m);
        let threshold = self.threshold;
        let q = plan.ranked();

        let Some(qp) = &plan.prefix else {
            return (Vec::new(), stats); // no record can reach the overlap
        };
        let mut cands: Vec<u32> = Vec::new();
        if qp.degenerate {
            // No signature guarantee from the query side: every
            // size-compatible record is a candidate (rare tiny-set path).
            for (id, x) in self.collection.records().iter().enumerate() {
                if threshold.size_compatible(x.len(), q.len()) {
                    cands.push(id as u32);
                }
            }
        } else {
            let scheme = plan
                .scheme
                .as_ref()
                .expect("non-degenerate plan carries a threshold scheme");

            let collection = &self.collection;
            let index = &self.index;
            let SetScratch {
                ref mut inner,
                ref mut box_epoch,
                ref mut box_mask,
                ref mut box_vals,
                ..
            } = *scratch;
            let pigeonring_core::scratch::EpochScratch {
                ref mut accepted,
                ref mut ruled_epoch,
                ref mut ruled_mask,
                ..
            } = *inner;

            for &(k8, sig) in &plan.sigs {
                let k = k8 as usize;
                {
                    let Some(ids) = index.lookup(k, sig) else {
                        continue;
                    };
                    for &id in ids {
                        stats.viable_boxes += 1;
                        let idu = id as usize;
                        if accepted[idu] == epoch {
                            continue;
                        }
                        let x = &collection.records()[idu];
                        if !threshold.size_compatible(x.len(), q.len()) {
                            continue;
                        }
                        if ruled_epoch[idu] == epoch && (ruled_mask[idu] >> k) & 1 == 1 {
                            stats.skipped_by_corollary2 += 1;
                            continue;
                        }
                        if l == 1 {
                            accepted[idu] = epoch;
                            cands.push(id);
                            continue;
                        }
                        // Chain from class k; truncate before the suffix
                        // box (a chain reaching b₀ verifies directly).
                        let span = l.min(m - k);
                        let xp = index.prefix(id).expect("indexed record has a prefix");
                        let check = check_prefix_viable_lazy(scheme, Direction::Ge, k, span, |j| {
                            let c = j % m;
                            debug_assert!(c >= 1);
                            cached_class_overlap(
                                xp,
                                qp,
                                c,
                                idu,
                                epoch,
                                m,
                                box_epoch,
                                box_mask,
                                box_vals,
                                &mut stats.boxes_checked,
                            ) as i64
                        });
                        match check {
                            Ok(()) => {
                                accepted[idu] = epoch;
                                cands.push(id);
                            }
                            Err(l_fail) => {
                                if ruled_epoch[idu] != epoch {
                                    ruled_epoch[idu] = epoch;
                                    ruled_mask[idu] = 0;
                                }
                                for off in 0..l_fail {
                                    ruled_mask[idu] |= 1u64 << (k + off);
                                }
                                // Theorem 7's witness chain may start at the
                                // suffix box b₀, which signature probes never
                                // reach: b₀ absorbs the *cross* overlap
                                // (prefix-of-one ∩ suffix-of-the-other), so it
                                // can exceed t₀ even though the pure suffix
                                // overlap cannot. Check the start-0 chain with
                                // a conservative upper bound for b₀ (sound in
                                // the ≥ direction); memoize failure in bit 0.
                                if ruled_mask[idu] & 1 == 0 {
                                    let b0_ub =
                                        (x.len() - xp.len) as i64 + (q.len() - qp.len) as i64;
                                    let c0 = check_prefix_viable_lazy(
                                        scheme,
                                        Direction::Ge,
                                        0,
                                        l,
                                        |j| {
                                            if j == 0 {
                                                b0_ub
                                            } else {
                                                cached_class_overlap(
                                                    xp,
                                                    qp,
                                                    j,
                                                    idu,
                                                    epoch,
                                                    m,
                                                    box_epoch,
                                                    box_mask,
                                                    box_vals,
                                                    &mut stats.boxes_checked,
                                                )
                                                    as i64
                                            }
                                        },
                                    );
                                    match c0 {
                                        Ok(()) => {
                                            accepted[idu] = epoch;
                                            cands.push(id);
                                        }
                                        Err(_) => ruled_mask[idu] |= 1,
                                    }
                                }
                            }
                        }
                    }
                }
            }
            // Degenerate records carry no signature guarantee: always
            // candidates (subject to the length filter).
            for &id in index.degenerate_ids() {
                let idu = id as usize;
                if accepted[idu] != epoch
                    && threshold.size_compatible(collection.records()[idu].len(), q.len())
                {
                    accepted[idu] = epoch;
                    cands.push(id);
                }
            }
        }

        stats.candidates = cands.len();
        (cands, stats)
    }
}

/// `b_c = |x_c ∩ q_c|`: overlap of the class-`c` prefix tokens — the §6.2
/// remark's "merging two very short lists".
#[inline]
fn class_overlap(xp: &Prefix, qp: &Prefix, c: usize) -> u32 {
    overlap(&xp.grouped[c - 1], &qp.grouped[c - 1])
}

/// [`class_overlap`] through the per-query `(record, class)` cache in
/// [`SetScratch`]: only a cache miss merges the class lists (and counts
/// toward `boxes_checked`); hits — repeated probes of the same record
/// and the start-0 suffix-box fallback re-check — are free.
#[expect(
    clippy::too_many_arguments,
    reason = "hot path; split borrows of scratch"
)]
#[inline]
fn cached_class_overlap(
    xp: &Prefix,
    qp: &Prefix,
    c: usize,
    idu: usize,
    epoch: u32,
    m: usize,
    box_epoch: &mut [u32],
    box_mask: &mut [u64],
    box_vals: &mut [u32],
    boxes_checked: &mut usize,
) -> u32 {
    let bit = 1u64 << c;
    if box_epoch[idu] == epoch {
        if box_mask[idu] & bit != 0 {
            return box_vals[idu * (m - 1) + (c - 1)];
        }
    } else {
        box_epoch[idu] = epoch;
        box_mask[idu] = 0;
    }
    *boxes_checked += 1;
    let v = class_overlap(xp, qp, c);
    box_mask[idu] |= bit;
    box_vals[idu * (m - 1) + (c - 1)] = v;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::LinearScanSets;

    fn zipfish_collection(n: usize, avg: usize, seed: u64) -> Collection {
        // Deterministic pseudo-random records with skewed token use and
        // planted near-duplicate pairs.
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut raw: Vec<Vec<u32>> = Vec::with_capacity(n);
        for i in 0..n {
            let len = avg / 2 + (next() as usize % avg.max(1));
            let mut r = Vec::with_capacity(len);
            for _ in 0..len {
                // Skew: low token ids are common.
                let u = next() % 1000;
                let t = if u < 600 { next() % 20 } else { next() % 500 };
                r.push(t as u32);
            }
            if i % 3 == 0 && i > 0 {
                // Plant a near-duplicate of an earlier record.
                r = raw[i - 1].clone();
                if !r.is_empty() && next() % 2 == 0 {
                    let idx = (next() as usize) % r.len();
                    r[idx] = (next() % 500) as u32;
                }
            }
            raw.push(r);
        }
        Collection::new(raw)
    }

    #[test]
    fn ring_matches_linear_scan_jaccard() {
        let c = zipfish_collection(120, 12, 7);
        let scan_results: Vec<Vec<u32>> = {
            let scan = LinearScanSets::new(&c);
            (0..c.len())
                .map(|qid| scan.search(c.record(qid), Threshold::jaccard(0.7)))
                .collect()
        };
        let ring = RingSetSim::build(c.clone(), Threshold::jaccard(0.7), 5);
        let mut scratch = SetScratch::default();
        for l in 1..=3usize {
            for (qid, expect) in scan_results.iter().enumerate() {
                let (got, _) = ring.search_with(&mut scratch, c.record(qid), l);
                assert_eq!(&got, expect, "qid={qid} l={l}");
            }
        }
    }

    #[test]
    fn ring_matches_linear_scan_overlap() {
        let c = zipfish_collection(100, 10, 21);
        let t = Threshold::Overlap(6);
        let scan = LinearScanSets::new(&c);
        let expected: Vec<Vec<u32>> = (0..c.len())
            .map(|qid| scan.search(c.record(qid), t))
            .collect();
        let ring = RingSetSim::build(c.clone(), t, 5);
        let mut scratch = SetScratch::default();
        for l in [1usize, 2, 3, 5] {
            for qid in (0..c.len()).step_by(7) {
                let (got, _) = ring.search_with(&mut scratch, c.record(qid), l);
                assert_eq!(got, expected[qid], "qid={qid} l={l}");
            }
        }
    }

    #[test]
    fn candidates_shrink_with_l() {
        let c = zipfish_collection(200, 14, 3);
        let ring = RingSetSim::build(c.clone(), Threshold::jaccard(0.7), 5);
        let mut scratch = SetScratch::default();
        for qid in (0..c.len()).step_by(11) {
            let mut prev = usize::MAX;
            for l in 1..=3usize {
                let (_, stats) = ring.search_with(&mut scratch, c.record(qid), l);
                assert!(stats.candidates <= prev, "qid={qid} l={l}");
                prev = stats.candidates;
            }
        }
    }

    #[test]
    fn witness_chain_starting_at_suffix_box_is_not_pruned() {
        // Regression: with Threshold::Overlap(6) and l = 5, the only
        // Theorem-7 (≥) prefix-viable chain for this pair starts at the
        // suffix box b₀ — token 59 sits in q's prefix but x's suffix, so
        // b₀ carries cross overlap that t₀ = |q| − p_q + 1 does not
        // dominate. The engine must fall back to the start-0 chain (with
        // an upper-bounded b₀) instead of pruning the true result.
        let raw = vec![
            vec![2, 5, 14, 38, 41, 42, 43, 48, 50, 52, 54, 59],
            vec![8, 11, 14, 19, 27, 31, 32, 38, 43, 52, 54, 59],
        ];
        let c = Collection::new(raw);
        let t = Threshold::Overlap(6);
        // The class assignment (by rank) that produced the failure in the
        // original 39-record collection, pinned explicitly so the test
        // stays meaningful if the hash mixing ever changes.
        let classes = ClassMap::explicit(
            5,
            vec![3, 4, 4, 1, 1, 1, 3, 4, 2, 3, 4, 3, 1, 1, 1, 2, 1, 1],
        );
        let scan = LinearScanSets::new(&c);
        let ring = RingSetSim::with_class_map(c.clone(), t, classes);
        let mut scratch = SetScratch::default();
        for qid in 0..c.len() {
            let expect = scan.search(c.record(qid), t);
            for l in 1..=5usize {
                assert_eq!(
                    ring.search_with(&mut scratch, c.record(qid), l).0,
                    expect,
                    "qid={qid} l={l}"
                );
            }
        }
    }

    #[test]
    fn empty_query_returns_nothing() {
        let c = zipfish_collection(50, 8, 5);
        let ring = RingSetSim::build(c, Threshold::jaccard(0.7), 5);
        let mut scratch = SetScratch::default();
        let (res, _) = ring.search_with(&mut scratch, &[], 2);
        assert!(res.is_empty());
    }

    #[test]
    fn m_equals_2_degenerates_to_prefix_filter() {
        // §6.2: with m = 2 and l = 1 the method is exactly prefix
        // filtering. Just check completeness holds there.
        let c = zipfish_collection(80, 10, 17);
        let t = Threshold::jaccard(0.7);
        let scan = LinearScanSets::new(&c);
        let expected: Vec<Vec<u32>> = (0..c.len())
            .map(|qid| scan.search(c.record(qid), t))
            .collect();
        let ring = RingSetSim::build(c.clone(), t, 2);
        let mut scratch = SetScratch::default();
        for (qid, expect) in expected.iter().enumerate() {
            assert_eq!(
                &ring.search_with(&mut scratch, c.record(qid), 1).0,
                expect,
                "qid={qid}"
            );
        }
    }
}
