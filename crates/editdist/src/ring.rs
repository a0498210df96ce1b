//! The pigeonring edit-distance engine (§6.3).
//!
//! The first step is the pivotal prefix filter (a viable single box is a
//! position-compatible exact pivotal-gram match, so its box value is 0);
//! at `l = 1` it is all there is, and the [`Pivotal`] baseline runs it
//! that way before its alignment filter.
//! The second step replaces the alignment filter with the strong form of
//! the pigeonring principle at chain length `l` over `m = τ + 1` boxes and
//! the uniform quota `‖c^{l'}‖₁ ≤ l'·τ/m` (Theorem 3, checked by the
//! core's [`ChainCheck`]): subsequent boxes
//! are *content-filter lower bounds* (`⌈H(mask)/2⌉` over the ±τ window,
//! `O(κ + τ)` popcounts each), and the check aborts at the first
//! non-viable prefix. In case A (the record's pivotal grams are the
//! boxes) a box reads the gram's position and build-time `char_mask`
//! from [`PivotalIndex::pivotal`]'s arena against the plan's query
//! window masks, touching no record string; in case B (the query's
//! pivotal grams) it computes the record's window masks on the fly.
//! Lower-bounding box values only shrinks chain sums, so every true
//! result keeps its prefix-viable chain — completeness is preserved
//! (and asserted against linear scan in the tests).
//!
//! Query execution is split into *plan once, execute per index*, and the
//! engine's `impl SearchEngine` is that split's one implementation: an
//! [`EditPlan`] carries every query-side structure (interned prefix,
//! pivotal grams, character masks), computed by [`SearchEngine::plan`]
//! and consumed read-only by [`SearchEngine::search_planned`]. The plan
//! lives in the gram id space and global frequency order of one
//! [`GramDictionary`](crate::qgram::GramDictionary), so it is valid for
//! every shard sharing that dictionary (`ShardedIndex::build_global`
//! over one corpus-wide dictionary); [`SearchEngine::plans_portable_to`]
//! enforces it. Verification is exact edit distance, so the merged
//! result set is identical for any shard count.

use std::sync::Arc;

use crate::content::{char_mask, min_window_bound, window_masks};
use crate::pivotal::{alignment_within, EditStats, PivotalIndex, ViableBox};
use crate::qgram::{PositionalGram, QGramCollection};
use crate::verify::edit_distance_within;
use pigeonring_core::scratch::EpochScratch;
use pigeonring_core::viability::{
    check_chain_length, zero_thresholds, ChainCheck, Direction, ParamError,
};
use pigeonring_service::{MergeStats, SearchEngine};

/// Per-batch parameters for edit-distance search (`τ` is fixed at
/// index-build time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EditParams {
    /// Chain length `l`, in `1..=τ+1` ([`EditParams::validate`]).
    pub l: usize,
}

impl EditParams {
    /// Checks `1 ≤ l ≤ m` for an engine built at `tau`: `m = τ + 1` boxes.
    pub fn validate(&self, tau: usize) -> Result<(), ParamError> {
        check_chain_length(self.l, tau + 1)
    }
}

impl MergeStats for EditStats {
    fn merge(&mut self, other: &Self) {
        self.cand1 = self.cand1.saturating_add(other.cand1);
        self.cand2 = self.cand2.saturating_add(other.cand2);
        self.candidates = self.candidates.saturating_add(other.candidates);
        self.results = self.results.saturating_add(other.results);
        self.postings_scanned = self.postings_scanned.saturating_add(other.postings_scanned);
        self.boxes_checked = self.boxes_checked.saturating_add(other.boxes_checked);
    }

    fn visit(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("cand1", self.cand1 as u64);
        emit("cand2", self.cand2 as u64);
        emit("candidates", self.candidates as u64);
        emit("results", self.results as u64);
        emit("postings_scanned", self.postings_scanned as u64);
        emit("boxes_checked", self.boxes_checked as u64);
    }
}

/// Per-thread mutable query state for [`RingEdit`]: the shared
/// epoch-stamped candidate dedup array ([`EpochScratch`]), the
/// gram-extraction buffer the planning path reuses across queries, and
/// the candidate list between filter and verification. `Default` yields
/// an empty scratch that lazily sizes itself to the engine's record
/// count on first use.
#[derive(Clone, Debug, Default)]
pub struct EditScratch {
    /// Epoch-stamped candidate dedup.
    epochs: EpochScratch,
    /// Reused buffer for the query's full extracted gram list (only the
    /// prefix/pivotal selections escape into the [`EditPlan`]).
    gram_buf: Vec<PositionalGram>,
    /// Candidates accepted this query, in acceptance order.
    cands: Vec<u32>,
}

/// The query-side plan for one edit-distance query: everything that
/// depends on the query (and the shared gram dictionary) but not on any
/// particular shard's postings. Computed once by
/// [`SearchEngine::plan`]; reusable across shards sharing the query's
/// dictionary and across chain lengths `l` (nothing here depends on `l`).
#[derive(Clone, Debug)]
pub struct EditPlan {
    /// The query's tie-extended prefix grams in global order.
    prefix: Vec<PositionalGram>,
    /// The query's `τ + 1` disjoint pivotal grams (`None`: the query
    /// carries no pivotal guarantee and all length-compatible records
    /// are candidates).
    pivotal: Option<Vec<PositionalGram>>,
    /// Largest prefix gram id (`u32::MAX` when the prefix is empty).
    last: u32,
    /// Character masks of every query window (case A box values).
    q_masks: Vec<u64>,
    /// Character mask of each query pivotal gram (case B box values).
    q_piv_masks: Vec<u64>,
}

/// The pigeonring edit-distance search engine. `l = 1` *is* Pivotal's
/// prefix filter alone (its Cand-1, without the alignment filter, which
/// [`Pivotal`] runs on top); the paper's best setting is
/// `l = min(3, τ + 1)`.
///
/// The index is immutable at query time: every query method takes
/// `&self` plus a caller-owned [`EditScratch`], so shards can serve
/// concurrent worker threads.
pub struct RingEdit {
    index: PivotalIndex,
}

impl RingEdit {
    /// Builds the engine over a gram collection at threshold `τ`.
    ///
    /// # Panics
    /// Panics if `τ > 63` ([`zero_thresholds`] holds the quotas of at
    /// most 64 boxes, and the ring has `τ + 1`).
    pub fn build(collection: QGramCollection, tau: usize) -> Self {
        assert!(tau <= 63, "zero_thresholds holds at most 64 boxes: τ ≤ 63");
        RingEdit {
            index: PivotalIndex::build(collection, tau),
        }
    }

    /// The shared index.
    pub fn index(&self) -> &PivotalIndex {
        &self.index
    }

    /// Searches for all strings with `ed(x, q) ≤ τ` using chain length
    /// `l` (panics outside `1..=τ+1`). Returns ascending ids and statistics.
    /// Takes `&self`, so any number of threads can search one engine
    /// concurrently, each with its own [`EditScratch`]. Plans the query,
    /// then executes the plan ([`SearchEngine::search_into`]).
    pub fn search_with(
        &self,
        scratch: &mut EditScratch,
        q: &[u8],
        l: usize,
    ) -> (Vec<u32>, EditStats) {
        let mut ids = Vec::new();
        let stats = self.search_into(scratch, &q.to_vec(), &EditParams { l }, &mut ids);
        (ids, stats)
    }

    /// Candidate generation only (no verification), for timing the
    /// filter separately (Figure 7's "Cand." series).
    pub fn candidates_with(
        &self,
        scratch: &mut EditScratch,
        q: &[u8],
        l: usize,
    ) -> (Vec<u32>, EditStats) {
        let plan = self.plan(scratch, &q.to_vec());
        self.candidates_with_plan(scratch, &plan, q, l)
    }

    /// [`RingEdit::candidates_with`] against a precomputed [`EditPlan`]:
    /// the execute-per-shard half of the split. Reads the plan's
    /// query-side structures and this engine's postings; never touches
    /// the dictionary.
    pub fn candidates_with_plan(
        &self,
        scratch: &mut EditScratch,
        plan: &EditPlan,
        q: &[u8],
        l: usize,
    ) -> (Vec<u32>, EditStats) {
        let stats = self.filter(scratch, plan, q, l);
        (scratch.cands.clone(), stats)
    }

    /// The plan's gram half — prefix, pivotal grams, last prefix rank —
    /// without the character masks, which only chain steps past the start
    /// box read (`l > 1`).
    fn plan_grams(&self, scratch: &mut EditScratch, q: &[u8]) -> EditPlan {
        let (prefix, pivotal, last) = self.index.query_side_with(&mut scratch.gram_buf, q);
        EditPlan {
            prefix,
            pivotal,
            last,
            q_masks: Vec::new(),
            q_piv_masks: Vec::new(),
        }
    }

    /// Appends the candidates with `ed(x, q) ≤ τ` to `out`, ascending;
    /// returns how many.
    fn verify(&self, cands: &[u32], q: &[u8], out: &mut Vec<u32>) -> usize {
        let (strings, tau) = (self.index.collection(), self.index.tau() as u32);
        let first = out.len();
        out.extend(
            cands
                .iter()
                .copied()
                .filter(|&id| edit_distance_within(strings.string(id as usize), q, tau).is_some()),
        );
        out[first..].sort_unstable();
        out.len() - first
    }

    /// Candidate generation for one planned query: leaves the accepted
    /// candidates in `scratch.cands` and returns the statistics
    /// (`results` still zero).
    fn filter(&self, scratch: &mut EditScratch, plan: &EditPlan, q: &[u8], l: usize) -> EditStats {
        let (index, collection) = (&self.index, self.index.collection());
        let tau = index.tau();
        EditParams { l }
            .validate(tau)
            .unwrap_or_else(|e| panic!("{e}"));
        let kappa = collection.kappa();
        let mut stats = EditStats::default();
        let EditScratch { epochs, cands, .. } = scratch;
        epochs.next_epoch(collection.len());
        cands.clear();

        let Some(q_piv) = plan.pivotal.as_deref() else {
            // No pivotal guarantee on the query side (short query or no
            // disjoint pivotal set): all length-compatible records are
            // candidates.
            cands.extend(
                (0..collection.len() as u32).filter(|&id| index.length_compatible(id, q.len())),
            );
            stats.candidates = cands.len();
            return stats;
        };
        let (q_masks, q_piv_masks) = (&plan.q_masks, &plan.q_piv_masks);
        let chain = ChainCheck::new(zero_thresholds(tau + 1), Direction::Le, l);
        stats.postings_scanned = index.probe(&plan.prefix, Some(q_piv), plan.last, q.len(), |vb| {
            stats.cand1 += 1;
            let ViableBox {
                id,
                slot,
                record_side,
            } = vb;
            let (idu, start) = (id as usize, usize::from(slot));
            // The start box is the probed exact match: 0.
            let accepted = if record_side {
                // Case A: boxes are x's pivotal grams, windows in q.
                epochs.chain_accept(idu, start, &chain, |j| {
                    stats.boxes_checked += 1;
                    if j == start {
                        return 0;
                    }
                    let pg = index.pivotal(id)[j];
                    let (lo, hi) = (pg.pos as i64 - tau as i64, (pg.pos as usize + tau) as i64);
                    i64::from(min_window_bound(pg.mask, q_masks, lo, hi))
                })
            } else {
                // Case B: boxes are q's pivotal grams, windows in x.
                epochs.chain_accept(idu, start, &chain, |j| {
                    stats.boxes_checked += 1;
                    if j == start {
                        return 0;
                    }
                    let x = collection.string(idu);
                    i64::from(lazy_window_bound(
                        q_piv_masks[j],
                        x,
                        kappa,
                        q_piv[j].pos,
                        tau,
                    ))
                })
            };
            if accepted {
                cands.push(id);
            }
        });
        // Short records carry no guarantee: always candidates.
        for &id in index.short_ids() {
            if index.length_compatible(id, q.len()) && epochs.accept(id as usize) {
                cands.push(id);
            }
        }

        stats.candidates = cands.len();
        stats
    }
}

impl SearchEngine for RingEdit {
    type Query = Vec<u8>;
    type Params = EditParams;
    type Stats = EditStats;
    type Scratch = EditScratch;
    type Plan = EditPlan;

    /// Gram extraction, interning, prefix and pivotal selection, and
    /// character masks — the work that is identical for every shard
    /// sharing this engine's gram dictionary. `scratch` only lends its
    /// gram buffer; no per-record state is touched.
    fn plan(&self, scratch: &mut EditScratch, query: &Vec<u8>) -> EditPlan {
        let mut plan = self.plan_grams(scratch, query);
        let kappa = self.index.collection().kappa();
        if let Some(piv) = &plan.pivotal {
            plan.q_masks = window_masks(query, kappa);
            plan.q_piv_masks = piv
                .iter()
                .map(|pg| char_mask(&query[pg.pos as usize..pg.pos as usize + kappa]))
                .collect();
        }
        plan
    }

    fn search_planned(
        &self,
        scratch: &mut EditScratch,
        plan: &EditPlan,
        query: &Vec<u8>,
        params: &EditParams,
        out: &mut Vec<u32>,
    ) -> EditStats {
        let mut stats = self.filter(scratch, plan, query, params.l);
        stats.results = self.verify(&scratch.cands, query, out);
        stats
    }

    /// Plans live in one gram dictionary's id space: portable exactly
    /// between engines sharing that dictionary.
    fn plans_portable_to(&self, other: &Self) -> bool {
        Arc::ptr_eq(
            self.index.collection().dictionary(),
            other.index.collection().dictionary(),
        )
    }
}

/// The Pivotal baseline \[28\]: [`RingEdit`]'s `l = 1` filter (Cand-1),
/// the alignment filter (Cand-2), then banded verification. Like
/// [`RingEdit`], it takes `&self` plus a caller-owned [`EditScratch`].
pub struct Pivotal {
    ring: RingEdit,
}

impl Pivotal {
    /// Builds the baseline over a gram collection at threshold `τ`.
    pub fn build(collection: QGramCollection, tau: usize) -> Self {
        Pivotal {
            ring: RingEdit::build(collection, tau),
        }
    }

    /// The shared index.
    pub fn index(&self) -> &PivotalIndex {
        self.ring.index()
    }

    /// Searches for all strings with `ed(x, q) ≤ τ`. Returns ascending
    /// ids and statistics.
    pub fn search(&self, scratch: &mut EditScratch, q: &[u8]) -> (Vec<u32>, EditStats) {
        let index = self.ring.index();
        let (strings, tau) = (index.collection(), index.tau());
        let kappa = strings.kappa();
        let plan = self.ring.plan_grams(scratch, q);
        let mut stats = self.ring.filter(scratch, &plan, q, 1);
        stats.cand1 = stats.candidates;
        // Alignment filter: Σ_i min-ed(pivotal gram i, ±τ window) ≤ τ over
        // the pivotal grams of the side the probe matched (case B: the
        // record's last prefix gram comes after the query's). A record
        // without pivotal grams passes, as does every record when the
        // query has none: their Cand-1 is the length filter alone.
        scratch.cands.retain(|&id| {
            let (x, x_piv) = (strings.string(id as usize), index.pivotal(id));
            match plan.pivotal.as_deref() {
                Some(q_piv) if x_piv.first().is_some_and(|g| g.last > plan.last) => {
                    alignment_within(q_piv.iter().map(|g| g.pos), q, x, kappa, tau)
                }
                _ => alignment_within(x_piv.iter().map(|g| g.pos), x, q, kappa, tau),
            }
        });
        stats.cand2 = scratch.cands.len();
        stats.candidates = stats.cand2;
        let mut results = Vec::new();
        stats.results = self.ring.verify(&scratch.cands, q, &mut results);
        (results, stats)
    }
}

/// Content lower bound of a gram mask against the ±τ window of `text`,
/// computing window masks on the fly (case B touches few windows per
/// candidate, so a full [`window_masks`] precomputation would be wasted).
fn lazy_window_bound(gram_mask: u64, text: &[u8], kappa: usize, pos: u32, tau: usize) -> u32 {
    if text.len() < kappa {
        return u32::MAX / 4;
    }
    let lo = (pos as i64 - tau as i64).max(0) as usize;
    let hi = ((pos as usize + tau).min(text.len() - kappa)) as i64;
    if hi < lo as i64 {
        return u32::MAX / 4;
    }
    let mut best = u32::MAX / 4;
    for u in lo..=hi as usize {
        let m = char_mask(&text[u..u + kappa]);
        best = best.min((gram_mask ^ m).count_ones().div_ceil(2));
        if best == 0 {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qgram::GramOrder;
    use crate::verify::edit_distance;

    fn strs(v: &[&str]) -> Vec<Vec<u8>> {
        v.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    fn linear_scan(strings: &[Vec<u8>], q: &[u8], tau: u32) -> Vec<u32> {
        strings
            .iter()
            .enumerate()
            .filter(|(_, x)| edit_distance(x, q) <= tau)
            .map(|(id, _)| id as u32)
            .collect()
    }

    fn pseudo_random_strings(n: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(n);
        for i in 0..n {
            if i % 3 == 0 && i > 0 {
                // Plant an edited variant of an earlier string.
                let mut v = out[i - 1].clone();
                let edits = (next() % 3) as usize;
                for _ in 0..edits {
                    if v.is_empty() {
                        break;
                    }
                    let p = (next() as usize) % v.len();
                    match next() % 3 {
                        0 => v[p] = b'a' + (next() % 6) as u8,
                        1 => v.insert(p, b'a' + (next() % 6) as u8),
                        _ => {
                            v.remove(p);
                        }
                    }
                }
                out.push(v);
            } else {
                let l = len / 2 + (next() as usize % len.max(1));
                out.push((0..l).map(|_| b'a' + (next() % 6) as u8).collect());
            }
        }
        out
    }

    #[test]
    fn ring_matches_linear_scan_all_l() {
        let strings = pseudo_random_strings(80, 12, 42);
        for tau in 1..=3usize {
            let c = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
            let eng = RingEdit::build(c, tau);
            let mut scratch = EditScratch::default();
            for (qid, q) in strings.iter().enumerate().step_by(5) {
                let expect = linear_scan(&strings, q, tau as u32);
                for l in 1..=(tau + 1) {
                    let (got, _) = eng.search_with(&mut scratch, q, l);
                    assert_eq!(got, expect, "tau={tau} qid={qid} l={l}");
                }
            }
        }
    }

    #[test]
    fn one_plan_serves_every_l() {
        // The plan is l-independent: computing it once and reusing it
        // across chain lengths must match the fresh-plan path exactly.
        let strings = pseudo_random_strings(100, 14, 11);
        let c = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
        let eng = RingEdit::build(c, 3);
        let mut scratch = EditScratch::default();
        for q in strings.iter().step_by(9) {
            let plan = eng.plan(&mut scratch, q);
            for l in 1..=4usize {
                let (fresh, fresh_stats) = eng.search_with(&mut EditScratch::default(), q, l);
                let mut planned = Vec::new();
                let planned_stats =
                    eng.search_planned(&mut scratch, &plan, q, &EditParams { l }, &mut planned);
                assert_eq!(planned, fresh, "l={l}");
                assert_eq!(planned_stats, fresh_stats, "l={l}");
            }
        }
    }

    #[test]
    fn candidates_shrink_with_l() {
        let strings = pseudo_random_strings(150, 16, 7);
        let c = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
        let eng = RingEdit::build(c, 3);
        let mut scratch = EditScratch::default();
        for (qid, q) in strings.iter().enumerate().step_by(17) {
            let mut prev = usize::MAX;
            for l in 1..=4usize {
                let (_, stats) = eng.search_with(&mut scratch, q, l);
                assert!(stats.candidates <= prev, "qid={qid} l={l}");
                prev = stats.candidates;
            }
        }
    }

    #[test]
    fn ring_candidates_subset_of_pivotal_cand1() {
        let strings = pseudo_random_strings(100, 14, 13);
        let c1 = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
        let c2 = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
        let ring = RingEdit::build(c1, 2);
        let mut scratch = EditScratch::default();
        let piv = Pivotal::build(c2, 2);
        for q in strings.iter().step_by(9) {
            let (_, rs) = ring.search_with(&mut scratch, q, 3);
            let (_, ps) = piv.search(&mut scratch, q);
            assert!(rs.candidates <= ps.cand1, "ring must not exceed Cand-1");
        }
    }

    #[test]
    fn longer_kappa_matches_too() {
        let strings = pseudo_random_strings(60, 30, 77);
        let c = QGramCollection::build(strings.clone(), 4, GramOrder::Frequency);
        let eng = RingEdit::build(c, 4);
        let mut scratch = EditScratch::default();
        for (qid, q) in strings.iter().enumerate().step_by(7) {
            let expect = linear_scan(&strings, q, 4);
            let (got, _) = eng.search_with(&mut scratch, q, 3);
            assert_eq!(got, expect, "qid={qid}");
        }
    }

    #[test]
    fn identical_strings_found_at_tau_zero_equivalent() {
        let strings = strs(&["hello world", "hello worlds", "help world"]);
        let c = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
        let eng = RingEdit::build(c, 1);
        let mut scratch = EditScratch::default();
        let (res, _) = eng.search_with(&mut scratch, b"hello world", 2);
        assert_eq!(res, vec![0, 1]);
    }

    #[test]
    fn validate_accepts_l_in_one_to_tau_plus_one() {
        let valid = [0, 1, 3, 4].map(|l| EditParams { l }.validate(2).is_ok());
        assert_eq!(valid, [false, true, true, false]);
    }

    #[test]
    #[should_panic(expected = "chain length l = 4 is outside 1..=3")]
    fn chain_longer_than_m_panics() {
        let strings = pseudo_random_strings(20, 30, 5);
        let eng = RingEdit::build(
            QGramCollection::build(strings.clone(), 2, GramOrder::Frequency),
            2,
        );
        eng.search_with(&mut EditScratch::default(), &strings[0], 4);
    }
}
