//! The shared pivotal index and the Pivotal baseline \[28\].
//!
//! Index contents (data side):
//!
//! * `prefix_idx`: gram id → `(record, position)` over each record's
//!   (tie-extended) prefix grams;
//! * `pivotal_idx`: gram id → `(record, pivotal-slot, position)` over each
//!   record's `τ + 1` disjoint pivotal grams.
//!
//! Candidate generation (the *pivotal prefix filter*): for records whose
//! last prefix gram precedes the query's in the global order, one of the
//! record's pivotal grams must match (same gram, position within ±τ) a
//! gram in the query's prefix; otherwise one of the *query's* pivotal
//! grams must match in the record's prefix. Both probes emit
//! `(record, pivotal-slot)` pairs — the viable single boxes of §7's first
//! step, shared verbatim by [`crate::ring::RingEdit`].
//!
//! The baseline's second filter (the *alignment filter*) computes the
//! exact sum of per-pivotal-gram minimum edit distances against ±τ
//! substring windows and prunes when it exceeds τ — the paper observes
//! this is precisely the `l = m` basic form of the pigeonring principle,
//! at `O(κ² + κτ)` per box.

use crate::qgram::{prefix_grams, select_pivotal, PositionalGram, QGramCollection};
use crate::verify::edit_distance_within;
use pigeonring_core::fxhash::FxHashMap;

/// Per-query counters for the edit-distance engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EditStats {
    /// Records passing the pivotal prefix filter (Cand-1 in Figure 11).
    pub cand1: usize,
    /// Records also passing the alignment filter (Cand-2; baseline only).
    pub cand2: usize,
    /// Unique records passed to verification.
    pub candidates: usize,
    /// Records with `ed(x, q) ≤ τ`.
    pub results: usize,
    /// Posting entries scanned.
    pub postings_scanned: usize,
    /// Ring box evaluations (chain checks).
    pub boxes_checked: usize,
    /// Chain checks skipped via Corollary 2.
    pub skipped_by_corollary2: usize,
}

/// A viable single box from the first candidate-generation step.
#[derive(Clone, Copy, Debug)]
pub struct ViableBox {
    /// Record id.
    pub id: u32,
    /// Pivotal slot (box index in the ring, `0..=τ`).
    pub slot: u8,
    /// Whether the box ring is the record's pivotal grams (`true`,
    /// case A: record's last prefix gram precedes the query's) or the
    /// query's (`false`, case B).
    pub record_side: bool,
}

/// The pivotal prefix index over a string collection, built for a fixed
/// threshold `τ` and gram length `κ` (both shape the index).
pub struct PivotalIndex {
    collection: QGramCollection,
    tau: usize,
    prefix_idx: FxHashMap<u32, Vec<(u32, u32)>>,
    pivotal_idx: FxHashMap<u32, Vec<(u32, u8, u32)>>,
    /// Largest prefix gram id per record (`u32::MAX` for short records).
    last_rank: Vec<u32>,
    /// Pivotal grams per record, position-sorted (`None` for short
    /// records, which carry no pivotal guarantee).
    pivotal: Vec<Option<Vec<PositionalGram>>>,
    /// Records without a pivotal guarantee: always candidates under the
    /// length filter.
    short_ids: Vec<u32>,
}

impl PivotalIndex {
    /// Builds the index.
    pub fn build(collection: QGramCollection, tau: usize) -> Self {
        let kappa = collection.kappa();
        let n = collection.len();
        let mut prefix_idx: FxHashMap<u32, Vec<(u32, u32)>> = FxHashMap::default();
        let mut pivotal_idx: FxHashMap<u32, Vec<(u32, u8, u32)>> = FxHashMap::default();
        let mut last_rank = vec![u32::MAX; n];
        let mut pivotal: Vec<Option<Vec<PositionalGram>>> = vec![None; n];
        let mut short_ids = Vec::new();
        for id in 0..n {
            let grams = collection.grams(id);
            let prefix = prefix_grams(grams, kappa, tau);
            match select_pivotal(prefix, kappa, tau) {
                Some(piv) => {
                    last_rank[id] = prefix.last().expect("non-empty prefix").id;
                    for pg in prefix {
                        prefix_idx
                            .entry(pg.id)
                            .or_default()
                            .push((id as u32, pg.pos));
                    }
                    for (slot, pg) in piv.iter().enumerate() {
                        pivotal_idx
                            .entry(pg.id)
                            .or_default()
                            .push((id as u32, slot as u8, pg.pos));
                    }
                    pivotal[id] = Some(piv);
                }
                None => short_ids.push(id as u32),
            }
        }
        PivotalIndex {
            collection,
            tau,
            prefix_idx,
            pivotal_idx,
            last_rank,
            pivotal,
            short_ids,
        }
    }

    /// The underlying collection.
    pub fn collection(&self) -> &QGramCollection {
        &self.collection
    }

    /// The build threshold `τ`.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// Record ids with no pivotal guarantee.
    pub fn short_ids(&self) -> &[u32] {
        &self.short_ids
    }

    /// Record `id`'s pivotal grams (position-sorted), if any.
    pub fn pivotal(&self, id: u32) -> Option<&[PositionalGram]> {
        self.pivotal[id as usize].as_deref()
    }

    /// Query-side structures: (tie-extended prefix, pivotal grams, last
    /// prefix rank). Pivotal is `None` for short queries.
    pub fn query_side(&self, q: &[u8]) -> (Vec<PositionalGram>, Option<Vec<PositionalGram>>, u32) {
        self.query_side_with(&mut Vec::new(), q)
    }

    /// [`PivotalIndex::query_side`] against a caller-owned gram buffer
    /// (the full extracted gram list, reused across queries by the
    /// planning path so only the prefix/pivotal vectors allocate).
    pub fn query_side_with(
        &self,
        gram_buf: &mut Vec<PositionalGram>,
        q: &[u8],
    ) -> (Vec<PositionalGram>, Option<Vec<PositionalGram>>, u32) {
        self.collection.dictionary().query_grams_into(q, gram_buf);
        let kappa = self.collection.kappa();
        let prefix = prefix_grams(gram_buf, kappa, self.tau).to_vec();
        let piv = select_pivotal(&prefix, kappa, self.tau);
        let last = prefix.last().map_or(u32::MAX, |pg| pg.id);
        (prefix, piv, last)
    }

    /// The first step of candidate generation (§7), shared by the
    /// baseline and Ring: emits every viable single box for query `q`,
    /// i.e. every position-compatible pivotal/prefix gram match in either
    /// direction. Returns the number of posting entries scanned.
    pub fn probe(
        &self,
        q_prefix: &[PositionalGram],
        q_pivotal: Option<&[PositionalGram]>,
        q_last: u32,
        q_len: usize,
        mut visit: impl FnMut(ViableBox),
    ) -> usize {
        let tau = self.tau as i64;
        let mut scanned = 0usize;
        // Case A: x's pivotal grams vs q's prefix; applies to records
        // whose last prefix gram does not come after q's.
        for pg in q_prefix {
            let Some(list) = self.pivotal_idx.get(&pg.id) else {
                continue;
            };
            for &(id, slot, pos) in list {
                scanned += 1;
                if self.last_rank[id as usize] <= q_last
                    && (pos as i64 - pg.pos as i64).abs() <= tau
                    && self.length_compatible(id, q_len)
                {
                    visit(ViableBox {
                        id,
                        slot,
                        record_side: true,
                    });
                }
            }
        }
        // Case B: q's pivotal grams vs x's prefixes; records whose last
        // prefix gram comes strictly after q's.
        if let Some(q_piv) = q_pivotal {
            for (slot, pg) in q_piv.iter().enumerate() {
                let Some(list) = self.prefix_idx.get(&pg.id) else {
                    continue;
                };
                for &(id, pos) in list {
                    scanned += 1;
                    if self.last_rank[id as usize] > q_last
                        && (pos as i64 - pg.pos as i64).abs() <= tau
                        && self.length_compatible(id, q_len)
                    {
                        visit(ViableBox {
                            id,
                            slot: slot as u8,
                            record_side: false,
                        });
                    }
                }
            }
        }
        scanned
    }

    /// Length filter: `||x| − |q|| ≤ τ`.
    #[inline]
    pub fn length_compatible(&self, id: u32, q_len: usize) -> bool {
        self.collection.string(id as usize).len().abs_diff(q_len) <= self.tau
    }
}

/// Exact minimum edit distance from `gram` to any substring of
/// `text[lo..hi]` (the alignment-filter box value): approximate string
/// matching DP with free start and end in the window. `O(κ·|window|)`.
pub fn min_substring_ed(gram: &[u8], text: &[u8], lo: i64, hi: i64) -> u32 {
    let lo = lo.max(0) as usize;
    let hi = (hi.max(0) as usize).min(text.len());
    if lo >= hi {
        return gram.len() as u32;
    }
    let w = &text[lo..hi];
    // dp[j] = min ed of gram[0..i] vs any suffix of w[0..j].
    let mut dp: Vec<u32> = vec![0; w.len() + 1];
    for (i, &g) in gram.iter().enumerate() {
        let mut diag = dp[0];
        dp[0] = i as u32 + 1;
        for (j, &c) in w.iter().enumerate() {
            let sub = diag + u32::from(g != c);
            diag = dp[j + 1];
            dp[j + 1] = sub.min(dp[j] + 1).min(diag + 1);
        }
    }
    dp.into_iter().min().expect("non-empty dp row")
}

/// The Pivotal baseline \[28\]: pivotal prefix filter + alignment filter
/// + banded verification.
pub struct Pivotal {
    index: PivotalIndex,
    epoch: u32,
    seen: Vec<u32>,
}

impl Pivotal {
    /// Builds the baseline over a gram collection at threshold `τ`.
    pub fn build(collection: QGramCollection, tau: usize) -> Self {
        let n = collection.len();
        Pivotal {
            index: PivotalIndex::build(collection, tau),
            epoch: 0,
            seen: vec![0; n],
        }
    }

    /// The shared index.
    pub fn index(&self) -> &PivotalIndex {
        &self.index
    }

    /// Searches for all strings with `ed(x, q) ≤ τ`. Returns ascending
    /// ids and statistics.
    pub fn search(&mut self, q: &[u8]) -> (Vec<u32>, EditStats) {
        let mut stats = EditStats::default();
        if self.epoch == u32::MAX {
            self.seen.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        let tau = self.index.tau;
        let kappa = self.index.collection.kappa();

        let (q_prefix, q_pivotal, q_last) = self.index.query_side(q);
        let mut cand1: Vec<ViableBox> = Vec::new();
        let seen = &mut self.seen;
        if q_pivotal.is_none() {
            // No pivotal guarantee (query shorter than κ yields no grams
            // at all; a longer one may still lack a usable pivotal set):
            // every length-compatible record is a candidate.
            for id in 0..self.index.collection.len() as u32 {
                if self.index.length_compatible(id, q.len()) {
                    cand1.push(ViableBox {
                        id,
                        slot: 0,
                        record_side: true,
                    });
                }
            }
        } else {
            stats.postings_scanned =
                self.index
                    .probe(&q_prefix, q_pivotal.as_deref(), q_last, q.len(), |vb| {
                        if seen[vb.id as usize] != epoch {
                            seen[vb.id as usize] = epoch;
                            cand1.push(vb);
                        }
                    });
            // Short records are always candidates.
            for &id in self.index.short_ids() {
                if seen[id as usize] != epoch && self.index.length_compatible(id, q.len()) {
                    seen[id as usize] = epoch;
                    cand1.push(ViableBox {
                        id,
                        slot: 0,
                        record_side: true,
                    });
                }
            }
        }
        stats.cand1 = cand1.len();

        // Alignment filter: Σ_i min-ed(pivotal gram i, ±τ window) ≤ τ.
        let mut cand2: Vec<u32> = Vec::new();
        for vb in cand1 {
            let id = vb.id;
            let x = self.index.collection.string(id as usize);
            let (grams_src, text): (Option<&[PositionalGram]>, &[u8]) = if vb.record_side {
                (self.index.pivotal(id), q)
            } else {
                (q_pivotal.as_deref(), x)
            };
            let pass = match grams_src {
                None => true, // short side: no filter available
                Some(piv) => {
                    let src = if vb.record_side { x } else { q };
                    let mut sum = 0u32;
                    let mut ok = true;
                    for pg in piv {
                        let g = &src[pg.pos as usize..pg.pos as usize + kappa];
                        let lo = pg.pos as i64 - tau as i64;
                        let hi = pg.pos as i64 + kappa as i64 + tau as i64;
                        sum += min_substring_ed(g, text, lo, hi);
                        if sum > tau as u32 {
                            ok = false;
                            break;
                        }
                    }
                    ok
                }
            };
            if pass {
                cand2.push(id);
            }
        }
        stats.cand2 = cand2.len();
        stats.candidates = cand2.len();

        let mut results: Vec<u32> = cand2
            .into_iter()
            .filter(|&id| {
                edit_distance_within(self.index.collection.string(id as usize), q, tau as u32)
                    .is_some()
            })
            .collect();
        results.sort_unstable();
        stats.results = results.len();
        (results, stats)
    }
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

    #[test]
    fn min_substring_ed_basics() {
        // "cd" appears exactly in "abcdef".
        assert_eq!(min_substring_ed(b"cd", b"abcdef", 0, 6), 0);
        // One substitution away.
        assert_eq!(min_substring_ed(b"cx", b"abcdef", 0, 6), 1);
        // Empty window: full gram length.
        assert_eq!(min_substring_ed(b"cd", b"abcdef", 4, 4), 2);
    }

    #[test]
    fn pivotal_matches_linear_scan() {
        let strings = strs(&[
            "pigeonring",
            "pigeonhole",
            "pigeon",
            "principle",
            "princess",
            "ringing",
            "pigeonrings",
            "wigeonring",
            "threshold",
            "similarity",
        ]);
        for tau in 1..=3usize {
            let c = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
            let mut eng = Pivotal::build(c, tau);
            for (qid, q) in strings.iter().enumerate() {
                let expect = linear_scan(&strings, q, tau as u32);
                let (got, _) = eng.search(q);
                assert_eq!(got, expect, "tau={tau} qid={qid}");
            }
        }
    }

    #[test]
    fn alignment_filter_only_tightens() {
        let strings = strs(&[
            "abcdefghij",
            "abcdefghiz",
            "zzcdefghij",
            "mnopqrstuv",
            "abzzefghij",
        ]);
        let c = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
        let mut eng = Pivotal::build(c, 2);
        let (_, stats) = eng.search(b"abcdefghij");
        assert!(stats.cand2 <= stats.cand1);
        assert!(stats.results <= stats.cand2);
    }

    #[test]
    fn short_strings_never_lost() {
        let strings = strs(&["ab", "ba", "abc", "xyz", "a"]);
        let c = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
        let mut eng = Pivotal::build(c, 2);
        for (qid, q) in strings.iter().enumerate() {
            let expect = linear_scan(&strings, q, 2);
            assert_eq!(eng.search(q).0, expect, "qid={qid}");
        }
    }
}
