//! The pigeonring set-similarity engine (§6.2); pkwise at `l = 1`.
//!
//! Filtering instance: `m` boxes on a ring. For a class `c ≥ 1`,
//! `b_c = |x_c ∩ q_c|` is the overlap of the class-`c` prefix tokens; the
//! suffix box `b₀ = |x ∩ q| − Σ_c b_c` is the overlap the two prefixes do
//! not both hold. `‖B‖₁ = |x ∩ q|` exactly and `D(τ) = τ`.
//!
//! Thresholds (variable allocation + integer reduction, `≥` direction,
//! `‖T‖₁ = o(q) + m − 1`):
//!
//! * `t₀ = |q| − p_q + 1`, one more than the query's suffix;
//! * `t_k = k` when `cnt(q, p_q, k) ≥ k`, else `cnt(q, p_q, k) + 1` —
//!   unreachable in the second case, so a viable class box is exactly a
//!   shared k-wise signature and every viable class start is enumerated.
//!
//! # The suffix box is bounded, not computed
//!
//! `b₀` would need the whole overlap, so the chain check reads an upper
//! bound `b̂₀ ≥ b₀` from the positions of the two prefix ends. Let `r_x`,
//! `r_q` be the ranks of the last prefix tokens of `x` and `q`; `x_pre`
//! is the tokens of `x` up to `r_x` and `x_suf` the tokens after it
//! (likewise for `q`). A common token lies outside `x_pre ∩ q_pre` iff it
//! is in `x_suf` or in `q_suf`, so `b₀ = |x_suf ∩ q| + |x_pre ∩ q_suf|`.
//!
//! * `r_x ≤ r_q`: every `x_pre` token is `≤ r_q`, so `x_pre ∩ q_suf = ∅`
//!   and `b₀ = |x_suf ∩ q|`. Tokens of `x_suf` exceed `r_x`, so they can
//!   meet only `q_suf` or the `q_pre` tokens above `r_x`:
//!   `b₀ ≤ min(|x_suf|, |q_suf| + #{t ∈ q_pre : t > r_x})`.
//! * `r_x > r_q`: every `x_suf` token exceeds `r_q`, so both terms lie in
//!   `q_suf`: `b₀ = |x ∩ q_suf| ≤ min(|q_suf|, |x_suf| + #{t ∈ x_pre :
//!   t > r_q})`. This is below `t₀ = |q_suf| + 1`: no chain starts at
//!   `b₀`.
//!
//! ([`PkwiseIndex::suffix_box_bound`] computes it; the property tests
//! pin `b̂₀ ≥ b₀` on adversarial pairs.)
//!
//! # Chains, and why they stay complete
//!
//! Every chain runs its full length `l` around the ring — through ring
//! position 0, reading `b̂₀`, when it wraps — in the core's
//! [`ChainCheck`], which reads the boxes below. A signature hit on class `k`
//! starts the chain at `k`. After a failed class-start chain the start-0
//! chain is checked too, since signature probes reach only class starts.
//!
//! Raising a box can only make a `≥` chain more viable, so with
//! `B̂ = (b̂₀, b₁, …)` ≥ `B` every chain prefix-viable under `B` is
//! prefix-viable under `B̂`. A result has one under `B` (Theorem 7). Its
//! start box is viable on its own: a class start `k` shares `t_k = k`
//! class-`k` prefix tokens with the query, i.e. a k-wise signature the
//! probe finds; start 0 is checked for every probed record; and by the
//! pkwise guarantee every result is probed.
//!
//! # One planned path
//!
//! The engine's `impl SearchEngine` is its one planned query path, and
//! its queries are **raw token sets** (arbitrary `u32` token ids, as fed
//! to [`Collection::new`]), not rank arrays. [`SearchEngine::plan`] ranks
//! the raw query through the collection's
//! [`TokenDictionary`](crate::types::TokenDictionary) and enumerates its
//! k-wise signatures once into a [`SetPlan`]; every shard probes with
//! those signatures, so all shards must share one rank space
//! (`ShardedIndex::build_global` over one corpus-wide dictionary), which
//! [`SearchEngine::plans_portable_to`] enforces.
//! [`RingSetSim::search_with`] and [`RingSetSim::candidates_with`] take
//! a query already in the rank space.

use std::sync::Arc;

use crate::pkwise::{
    combination_count, compute_prefix, for_each_combination, signature_hash, ClassMap, PkwiseIndex,
    Prefix,
};
use crate::types::{overlap, overlap_at_least, Collection, Threshold};
use pigeonring_core::scratch::EpochScratch;
use pigeonring_core::viability::{
    check_chain_length, doubled_prefix_into, ChainCheck, Direction, ParamError,
};
use pigeonring_service::{MergeStats, SearchEngine};

/// Per-batch parameters for set-similarity search (the similarity
/// threshold is fixed at index-build time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetParams {
    /// Chain length `l`, in `1..=m` ([`SetParams::validate`]).
    pub l: usize,
}

impl SetParams {
    /// Checks `1 ≤ l ≤ m` for an engine of `m` parts.
    pub fn validate(&self, m: usize) -> Result<(), ParamError> {
        check_chain_length(self.l, m)
    }
}

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
    /// Box evaluations in the second step (`C_C2` proxy): class
    /// overlaps merged and suffix-box bounds computed. Cache hits in the
    /// [`SetScratch`] box-value cache do not count.
    pub boxes_checked: usize,
}

impl MergeStats for SetStats {
    fn merge(&mut self, other: &Self) {
        self.candidates = self.candidates.saturating_add(other.candidates);
        self.results = self.results.saturating_add(other.results);
        self.sig_probes = self.sig_probes.saturating_add(other.sig_probes);
        self.viable_boxes = self.viable_boxes.saturating_add(other.viable_boxes);
        self.boxes_checked = self.boxes_checked.saturating_add(other.boxes_checked);
    }

    fn visit(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("candidates", self.candidates as u64);
        emit("results", self.results as u64);
        emit("sig_probes", self.sig_probes as u64);
        emit("viable_boxes", self.viable_boxes as u64);
        emit("boxes_checked", self.boxes_checked as u64);
    }
}

/// The query-side plan for one set-similarity query: everything that
/// depends on the query (and the shared token dictionary) but not on any
/// particular shard's postings — the ranked query, its class prefix, the
/// Theorem-7 thresholds, and the **enumerated k-wise signatures**.
/// Computed once by [`SearchEngine::plan`]; reusable across shards
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
    /// Theorem-7 (≥) thresholds as the chain check's quota prefix sums;
    /// `None` when `prefix` is `None` or degenerate (no signature
    /// guarantee from the query side).
    quotas: Option<Vec<i64>>,
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

/// Per-thread mutable query state for [`RingSetSim`], epoch-stamped so
/// nothing is cleared between queries:
///
/// * `accepted` (in the core [`EpochScratch`]) — the candidate dedup
///   stamps, the only per-record state the `l = 1` path reads;
/// * one *slot* of `m + 1` words per record, which a chain check reads
///   and writes as one block: the epoch stamp that validates the rest,
///   then the record's *box-value cache* — box `j` (the class overlap
///   `b_j`, or `b̂₀` for `j = 0`) is computed at most once per query,
///   however many chains (signature starts, the start-0 check) read it;
/// * the candidate list between filter and verification.
///
/// `Default` yields an empty scratch that lazily sizes itself on first
/// use.
#[derive(Clone, Debug, Default)]
pub struct SetScratch {
    /// The epoch and the `accepted` stamps.
    inner: EpochScratch,
    /// `n` slots of `SLOT_HEAD + m` words.
    slots: Vec<u32>,
    /// Reused dedup buffer for raw-query ranking in the planning path.
    rank_buf: Vec<u32>,
    /// Candidates accepted this query, in acceptance order.
    cands: Vec<u32>,
}

/// Words of a slot before its box values: the epoch stamp.
const SLOT_HEAD: usize = 1;

/// A cached box value not yet computed this query (box values are at most
/// `|x| < u32::MAX`).
const UNSET: u32 = u32::MAX;

impl SetScratch {
    fn next_epoch(&mut self, n: usize, m: usize) -> u32 {
        let epoch = self.inner.next_epoch(n);
        // `next_epoch` returns 1 exactly when the core stamps were
        // (re)initialized (first use, resize, wrap-around): the slot
        // stamps restart with them.
        if epoch == 1 || self.slots.len() != n * (SLOT_HEAD + m) {
            self.slots = vec![0; n * (SLOT_HEAD + m)];
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
    /// `l` (panics outside `1..=m`). `q` is a sorted rank array (normally
    /// a record of this collection). Returns ascending ids and
    /// statistics. Takes `&self`, so any number of threads can search one
    /// engine concurrently, each with its own [`SetScratch`].
    pub fn search_with(
        &self,
        scratch: &mut SetScratch,
        q: &[u32],
        l: usize,
    ) -> (Vec<u32>, SetStats) {
        let plan = self.plan_ranked(q.to_vec());
        let mut ids = Vec::new();
        // The planned path reads the query from its plan, not its
        // raw-query argument.
        let mut stats =
            self.search_planned(scratch, &plan, &Vec::new(), &SetParams { l }, &mut ids);
        stats.merge(&self.plan_stats(&plan));
        (ids, stats)
    }

    /// Candidate generation only (no verification), for timing the
    /// filter separately (Figure 6's "Cand." series). `q` is a sorted
    /// rank array, as for [`RingSetSim::search_with`]. Plan-time
    /// statistics (`sig_probes`) are included.
    pub fn candidates_with(
        &self,
        scratch: &mut SetScratch,
        q: &[u32],
        l: usize,
    ) -> (Vec<u32>, SetStats) {
        let plan = self.plan_ranked(q.to_vec());
        let (ids, mut stats) = self.candidates_with_plan(scratch, &plan, l);
        stats.merge(&self.plan_stats(&plan));
        (ids, stats)
    }

    /// [`RingSetSim::candidates_with`] against a precomputed [`SetPlan`]:
    /// the execute-per-shard half of the split. Probes this engine's
    /// signature index with the plan's pre-enumerated signatures — no
    /// combinatorial enumeration happens here, so running one plan
    /// against `K` shards (or several `l` values) enumerates once total.
    /// Plan-time statistics are *not* included.
    pub fn candidates_with_plan(
        &self,
        scratch: &mut SetScratch,
        plan: &SetPlan,
        l: usize,
    ) -> (Vec<u32>, SetStats) {
        let stats = self.filter(scratch, plan, l);
        (scratch.cands.clone(), stats)
    }

    /// The query-side plan of a query already in this engine's rank
    /// space: required overlap, class prefix, Theorem-7 thresholds, and
    /// the full k-wise signature enumeration — the work that is
    /// identical for every shard sharing this engine's token dictionary.
    /// Touches no per-record state.
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
                quotas: None,
                sigs: Vec::new(),
                sig_probes: 0,
            };
        }
        let qp = compute_prefix(q, self.index.classes(), oq).expect("o(q) ≤ |q| was just checked");
        if qp.degenerate {
            return SetPlan {
                ranked,
                prefix: Some(qp),
                quotas: None,
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
        let mut quotas = Vec::with_capacity(2 * m + 1);
        doubled_prefix_into(&t, &mut quotas);
        let mut sigs: Vec<(u8, u64)> = Vec::new();
        let mut sig_probes = 0usize;
        for k in 1..m {
            let toks = qp.class(k);
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
            quotas: Some(quotas),
            sigs,
            sig_probes,
        }
    }

    /// Candidate generation for one planned query: leaves the accepted
    /// candidates in `scratch.cands` and returns the statistics
    /// (`results` and `sig_probes` still zero).
    fn filter(&self, scratch: &mut SetScratch, plan: &SetPlan, l: usize) -> SetStats {
        let m = self.m();
        check_chain_length(l, m).unwrap_or_else(|e| panic!("{e}"));
        let mut stats = SetStats::default();
        let epoch = scratch.next_epoch(self.collection.len(), m);
        let SetScratch {
            inner,
            slots,
            cands,
            ..
        } = scratch;
        cands.clear();
        let threshold = self.threshold;
        let q = plan.ranked();
        let index = &self.index;
        // The length filter reads the collection, not the index header:
        // verification reads the same line next.
        let records = self.collection.records();
        let size_compatible = |id: usize| threshold.size_compatible(records[id].len(), q.len());

        let (Some(qp), Some(quotas)) = (&plan.prefix, &plan.quotas) else {
            if plan.prefix.is_some() {
                // Degenerate query: no signature guarantee from its side,
                // so every size-compatible record is a candidate (rare
                // tiny-set path).
                cands.extend((0..records.len() as u32).filter(|&id| size_compatible(id as usize)));
            }
            stats.candidates = cands.len();
            return stats;
        };
        let q_prefix = &q[..qp.len];
        let chain = ChainCheck::new(quotas, Direction::Ge, l);
        let stride = SLOT_HEAD + m;
        for &(k8, sig) in &plan.sigs {
            let k = k8 as usize;
            for &id in index.lookup(k, sig) {
                stats.viable_boxes += 1;
                let idu = id as usize;
                if inner.is_accepted(idu) || !size_compatible(idu) {
                    continue;
                }
                if l > 1 {
                    let slot = &mut slots[idu * stride..(idu + 1) * stride];
                    if slot[0] != epoch {
                        slot[0] = epoch;
                        slot[SLOT_HEAD..].fill(UNSET);
                    }
                    let vals = &mut slot[SLOT_HEAD..];
                    let mut box_value = |c: usize| {
                        if vals[c] == UNSET {
                            stats.boxes_checked += 1;
                            vals[c] = if c == 0 {
                                index.suffix_box_bound(id, q.len(), q_prefix)
                            } else {
                                overlap(index.class_tokens(id, c), qp.class(c))
                            };
                        }
                        i64::from(vals[c])
                    };
                    // Signature probes never reach a chain that starts at
                    // the suffix box: after the class start fails, check
                    // start 0.
                    let viable = chain.check(k, &mut box_value) || chain.check(0, &mut box_value);
                    if !viable {
                        continue;
                    }
                }
                inner.accept(idu);
                cands.push(id);
            }
        }
        // Degenerate records carry no signature guarantee: always
        // candidates (subject to the length filter).
        for &id in index.degenerate_ids() {
            if size_compatible(id as usize) && inner.accept(id as usize) {
                cands.push(id);
            }
        }

        stats.candidates = cands.len();
        stats
    }
}

impl SearchEngine for RingSetSim {
    /// A **raw** token set, not a rank array (module docs).
    type Query = Vec<u32>;
    type Params = SetParams;
    type Stats = SetStats;
    type Scratch = SetScratch;
    type Plan = SetPlan;

    /// Ranks `query` through the collection's dictionary (reusing
    /// `scratch`'s dedup buffer), then plans it.
    fn plan(&self, scratch: &mut SetScratch, query: &Vec<u32>) -> SetPlan {
        let ranked = self
            .collection
            .dictionary()
            .rank_query_with(&mut scratch.rank_buf, query);
        self.plan_ranked(ranked)
    }

    /// Reads the ranked query from `plan`; the raw `_query` is unused.
    fn search_planned(
        &self,
        scratch: &mut SetScratch,
        plan: &SetPlan,
        _query: &Vec<u32>,
        params: &SetParams,
        out: &mut Vec<u32>,
    ) -> SetStats {
        let mut stats = self.filter(scratch, plan, params.l);
        let (threshold, q) = (self.threshold, plan.ranked());
        let first = out.len();
        out.extend(scratch.cands.iter().copied().filter(|&id| {
            let x = self.collection.record(id as usize);
            let need = threshold.min_overlap_pair(x.len(), q.len());
            overlap_at_least(x, q, need).is_some()
        }));
        out[first..].sort_unstable();
        stats.results = out.len() - first;
        stats
    }

    fn plan_stats(&self, plan: &SetPlan) -> SetStats {
        SetStats {
            sig_probes: plan.sig_probes(),
            ..SetStats::default()
        }
    }

    /// Plans live in one token dictionary's rank space: portable exactly
    /// between engines sharing that dictionary.
    fn plans_portable_to(&self, other: &Self) -> bool {
        Arc::ptr_eq(self.collection.dictionary(), other.collection.dictionary())
    }
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

    #[test]
    fn unseen_tokens_are_safe_under_explicit_class_maps() {
        // Regression: rank_query maps tokens unseen by the collection to
        // ranks ≥ universe; ClassMap::class_of must fall back to hashing
        // for those instead of indexing past an explicit table.
        let raw = vec![vec![1u32, 2, 3], vec![2, 3, 4], vec![1, 3, 4]];
        let c = Collection::new(raw);
        let universe = c.universe();
        let classes = ClassMap::explicit(3, vec![1; universe]);
        let eng = RingSetSim::with_class_map(c, Threshold::jaccard(0.5), classes);
        let mut scratch = SetScratch::default();
        let mut out = Vec::new();
        // Token 99 never occurs in the collection.
        let stats = eng.search_into(
            &mut scratch,
            &vec![1, 2, 3, 99],
            &SetParams { l: 2 },
            &mut out,
        );
        assert_eq!(
            out,
            vec![0],
            "only record 0 reaches J ≥ 0.5 against {{1,2,3,99}}"
        );
        assert_eq!(stats.results, 1);
    }

    #[test]
    fn planned_search_matches_plan_and_search() {
        let raw = vec![
            vec![1u32, 2, 3, 4, 5],
            vec![2, 3, 4, 5, 6],
            vec![10, 11, 12, 13, 14],
            vec![1, 2, 3, 4, 6],
        ];
        let c = Collection::new(raw.clone());
        let eng = RingSetSim::build(c, Threshold::jaccard(0.6), 5);
        let mut scratch = SetScratch::default();
        for q in &raw {
            let plan = eng.plan(&mut scratch, q);
            for l in 1..=3usize {
                let mut direct = Vec::new();
                let direct_stats = eng.search_into(&mut scratch, q, &SetParams { l }, &mut direct);
                let mut planned = Vec::new();
                let mut planned_stats =
                    eng.search_planned(&mut scratch, &plan, q, &SetParams { l }, &mut planned);
                planned_stats.merge(&eng.plan_stats(&plan));
                assert_eq!(planned, direct, "l={l}");
                assert_eq!(planned_stats, direct_stats, "l={l}");
                // The ranked convenience runs the same planned path.
                let ranked = eng.search_with(&mut scratch, plan.ranked(), l);
                assert_eq!(ranked, (direct, direct_stats), "l={l}");
            }
        }
    }

    #[test]
    fn validate_accepts_l_in_one_to_m() {
        let valid = [0, 1, 5, 6].map(|l| SetParams { l }.validate(5).is_ok());
        assert_eq!(valid, [false, true, true, false]);
    }

    #[test]
    #[should_panic(expected = "chain length l = 6 is outside 1..=5")]
    fn chain_longer_than_m_panics() {
        let c = zipfish_collection(40, 12, 3);
        let ring = RingSetSim::build(c.clone(), Threshold::jaccard(0.7), 5);
        ring.search_with(&mut SetScratch::default(), c.record(0), 6);
    }
}
