//! The pigeonring edit-distance engine (§6.3).
//!
//! Same first step as [`crate::pivotal::Pivotal`] (a viable single box is
//! a position-compatible exact pivotal-gram match, so its box value is 0).
//! The second step replaces the alignment filter with the strong form of
//! the pigeonring principle at chain length `l` over `m = τ + 1` boxes and
//! the uniform quota `‖c^{l'}‖₁ ≤ l'·τ/m` (Theorem 3): subsequent boxes
//! are *content-filter lower bounds* (`⌈H(mask)/2⌉` over the ±τ window,
//! `O(κ + τ)` popcounts each), and the check aborts at the first
//! non-viable prefix. Lower-bounding box values only shrinks chain sums,
//! so every true result keeps its prefix-viable chain — completeness is
//! preserved (and asserted against linear scan in the tests).
//!
//! Query execution is split into *plan once, execute per index*: an
//! [`EditPlan`] carries every query-side structure (interned prefix,
//! pivotal grams, character masks), computed by [`RingEdit::plan_query`]
//! and consumed read-only by [`RingEdit::search_with_plan`]. When shards
//! share one [`GramDictionary`](crate::qgram::GramDictionary), one plan
//! is valid for every shard — the `pigeonring-service` plan-once path.

use crate::content::{char_mask, min_window_bound, window_masks};
use crate::pivotal::{EditStats, PivotalIndex, ViableBox};
use crate::qgram::{PositionalGram, QGramCollection};
use crate::verify::edit_distance_within;
use pigeonring_core::viability::{check_prefix_viable_lazy, Direction, ThresholdScheme};

/// Per-thread mutable query state for [`RingEdit`]: the shared
/// epoch-stamped candidate dedup array and Corollary-2 ruled-start
/// bitmasks ([`pigeonring_core::scratch::EpochScratch`]), plus the
/// gram-extraction buffer the planning path reuses across queries.
/// `Default` yields an empty scratch that lazily sizes itself to the
/// engine's record count on first use.
#[derive(Clone, Debug, Default)]
pub struct EditScratch {
    /// Epoch-stamped dedup + Corollary-2 ruled-start core.
    pub(crate) epochs: pigeonring_core::scratch::EpochScratch,
    /// Reused buffer for the query's full extracted gram list (only the
    /// prefix/pivotal selections escape into the [`EditPlan`]).
    pub(crate) gram_buf: Vec<PositionalGram>,
}

/// The query-side plan for one edit-distance query: everything that
/// depends on the query (and the shared gram dictionary) but not on any
/// particular shard's postings. Computed once by
/// [`RingEdit::plan_query`]; reusable across shards sharing the query's
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
/// prefix filter alone (its Cand-1, without the alignment filter); the
/// paper's best setting is `l = min(3, τ + 1)`.
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
    /// Panics if `τ > 63` (the Corollary-2 bitmask holds `τ + 1` starts).
    pub fn build(collection: QGramCollection, tau: usize) -> Self {
        assert!(tau <= 63, "ruled-start bitmask supports τ ≤ 63");
        RingEdit {
            index: PivotalIndex::build(collection, tau),
        }
    }

    /// The shared index.
    pub fn index(&self) -> &PivotalIndex {
        &self.index
    }

    /// Computes the query-side plan: gram extraction, interning, prefix
    /// and pivotal selection, and character masks — the work that is
    /// identical for every shard sharing this engine's gram dictionary.
    /// `scratch` only lends its gram buffer; no per-record state is
    /// touched.
    pub fn plan_query(&self, scratch: &mut EditScratch, q: &[u8]) -> EditPlan {
        let (prefix, pivotal, last) = self.index.query_side_with(&mut scratch.gram_buf, q);
        let kappa = self.index.collection().kappa();
        let (q_masks, q_piv_masks) = match &pivotal {
            Some(piv) => (
                window_masks(q, kappa),
                piv.iter()
                    .map(|pg| char_mask(&q[pg.pos as usize..pg.pos as usize + kappa]))
                    .collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        EditPlan {
            prefix,
            pivotal,
            last,
            q_masks,
            q_piv_masks,
        }
    }

    /// Searches for all strings with `ed(x, q) ≤ τ` using chain length
    /// `l` (clamped to `[1..τ+1]`). Returns ascending ids and statistics.
    /// Takes `&self`, so any number of threads can search one engine
    /// concurrently, each with its own [`EditScratch`].
    pub fn search_with(
        &self,
        scratch: &mut EditScratch,
        q: &[u8],
        l: usize,
    ) -> (Vec<u32>, EditStats) {
        let plan = self.plan_query(scratch, q);
        self.search_with_plan(scratch, &plan, q, l)
    }

    /// [`RingEdit::search_with`] against a precomputed [`EditPlan`] (the
    /// plan-once path: one plan serves every shard and every `l`).
    pub fn search_with_plan(
        &self,
        scratch: &mut EditScratch,
        plan: &EditPlan,
        q: &[u8],
        l: usize,
    ) -> (Vec<u32>, EditStats) {
        let (cands, mut stats) = self.candidates_with_plan(scratch, plan, q, l);
        let tau = self.index.tau();
        let mut results: Vec<u32> = cands
            .into_iter()
            .filter(|&id| {
                edit_distance_within(self.index.collection().string(id as usize), q, tau as u32)
                    .is_some()
            })
            .collect();
        results.sort_unstable();
        stats.results = results.len();
        (results, stats)
    }

    /// Candidate generation only (no verification), for timing the
    /// filter separately (Figure 7's "Cand." series).
    pub fn candidates_with(
        &self,
        scratch: &mut EditScratch,
        q: &[u8],
        l: usize,
    ) -> (Vec<u32>, EditStats) {
        let plan = self.plan_query(scratch, q);
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
        let tau = self.index.tau();
        let m = tau + 1;
        let l = l.clamp(1, m);
        let kappa = self.index.collection().kappa();
        let mut stats = EditStats::default();
        let epoch = scratch.epochs.next_epoch(self.index.collection().len());

        let mut cands: Vec<u32> = Vec::new();

        if plan.pivotal.is_none() {
            // No pivotal guarantee on the query side (short query or no
            // disjoint pivotal set): all length-compatible records are
            // candidates.
            for id in 0..self.index.collection().len() as u32 {
                if self.index.length_compatible(id, q.len()) {
                    cands.push(id);
                }
            }
        } else {
            let scheme = ThresholdScheme::uniform(tau as i64, m);
            let q_piv = plan.pivotal.as_deref().expect("checked above");
            let q_masks = &plan.q_masks;
            let q_piv_masks = &plan.q_piv_masks;

            let index = &self.index;
            let pigeonring_core::scratch::EpochScratch {
                ref mut accepted,
                ref mut ruled_epoch,
                ref mut ruled_mask,
                ..
            } = scratch.epochs;
            let collection: &QGramCollection = index.collection();

            stats.postings_scanned =
                index.probe(&plan.prefix, Some(q_piv), plan.last, q.len(), |vb| {
                    stats.cand1 += 1;
                    let ViableBox {
                        id,
                        slot,
                        record_side,
                    } = vb;
                    let idu = id as usize;
                    if accepted[idu] == epoch {
                        return;
                    }
                    let start = slot as usize;
                    if ruled_epoch[idu] == epoch && (ruled_mask[idu] >> start) & 1 == 1 {
                        stats.skipped_by_corollary2 += 1;
                        return;
                    }
                    if l == 1 {
                        accepted[idu] = epoch;
                        cands.push(id);
                        return;
                    }
                    let x = collection.string(idu);
                    let check = if record_side {
                        // Case A: boxes are x's pivotal grams, windows in q.
                        let piv = index.pivotal(id).expect("probed record has pivotal");
                        check_prefix_viable_lazy(&scheme, Direction::Le, start, l, |j| {
                            stats.boxes_checked += 1;
                            let jm = j % m;
                            if jm == start {
                                return 0; // exact match
                            }
                            let pg = piv[jm];
                            let g = &x[pg.pos as usize..pg.pos as usize + kappa];
                            min_window_bound(
                                char_mask(g),
                                q_masks,
                                pg.pos as i64 - tau as i64,
                                pg.pos as i64 + tau as i64,
                            ) as i64
                        })
                    } else {
                        // Case B: boxes are q's pivotal grams, windows in x.
                        check_prefix_viable_lazy(&scheme, Direction::Le, start, l, |j| {
                            stats.boxes_checked += 1;
                            let jm = j % m;
                            if jm == start {
                                return 0;
                            }
                            let pg = q_piv[jm];
                            lazy_window_bound(q_piv_masks[jm], x, kappa, pg.pos, tau) as i64
                        })
                    };
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
                                ruled_mask[idu] |= 1u64 << ((start + off) % m);
                            }
                        }
                    }
                });
            // Short records carry no guarantee: always candidates.
            for &id in index.short_ids() {
                let idu = id as usize;
                if accepted[idu] != epoch && index.length_compatible(id, q.len()) {
                    accepted[idu] = epoch;
                    cands.push(id);
                }
            }
        }

        stats.candidates = cands.len();
        (cands, stats)
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
            let plan = eng.plan_query(&mut scratch, q);
            for l in 1..=4usize {
                let (fresh, fresh_stats) = eng.search_with(&mut EditScratch::default(), q, l);
                let (planned, planned_stats) = eng.search_with_plan(&mut scratch, &plan, q, l);
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
        use crate::pivotal::Pivotal;
        let strings = pseudo_random_strings(100, 14, 13);
        let c1 = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
        let c2 = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
        let ring = RingEdit::build(c1, 2);
        let mut scratch = EditScratch::default();
        let mut piv = Pivotal::build(c2, 2);
        for q in strings.iter().step_by(9) {
            let (_, rs) = ring.search_with(&mut scratch, q, 3);
            let (_, ps) = piv.search(q);
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
}
