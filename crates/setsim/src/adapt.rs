//! AdaptSearch baseline, configured as in the paper's experiments.
//!
//! §8.1 notes that AdaptSearch \[100\] is run with its prefix extension
//! disabled, "to make it the same as AllPairs' or PPJoin's search
//! version, whenever either of the two is faster". That is what we
//! implement: an inverted index over record prefixes (AllPairs \[8\])
//! with the length filter and PPJoin's position filter \[115\], followed
//! by fast verification.
//!
//! Prefix lengths use the single-side minimum overlap: a record `x` can
//! only match partners with overlap `≥ o(x) = ⌈τ·|x|⌉` (Jaccard), so its
//! prefix of length `|x| − o(x) + 1` must share a token with any result
//! partner's prefix.

use crate::types::{overlap_at_least, Collection, Threshold};
use pigeonring_core::fxhash::FxHashMap;
use pigeonring_core::scratch::EpochScratch;

/// Prefix-filter search engine (AllPairs/PPJoin search version).
pub struct AdaptSearch {
    collection: Collection,
    threshold: Threshold,
    /// token → (id, position-in-record) postings over record prefixes.
    lists: FxHashMap<u32, Vec<(u32, u32)>>,
    /// Records met this query (each is filtered once, at its first
    /// posting).
    seen: EpochScratch,
}

/// Per-query counters for [`AdaptSearch`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdaptStats {
    /// Unique records surviving all filters and verified.
    pub candidates: usize,
    /// Records satisfying the threshold.
    pub results: usize,
    /// Posting entries scanned.
    pub postings_scanned: usize,
}

impl AdaptSearch {
    /// Builds the prefix index.
    pub fn build(collection: Collection, threshold: Threshold) -> Self {
        let mut lists: FxHashMap<u32, Vec<(u32, u32)>> = FxHashMap::default();
        for (id, x) in collection.records().iter().enumerate() {
            let o = threshold.min_overlap_single(x.len());
            if o as usize > x.len() {
                continue; // can never match
            }
            let prefix_len = x.len() - o as usize + 1;
            for (pos, &tok) in x.iter().take(prefix_len).enumerate() {
                lists.entry(tok).or_default().push((id as u32, pos as u32));
            }
        }
        AdaptSearch {
            collection,
            threshold,
            lists,
            seen: EpochScratch::default(),
        }
    }

    /// The collection.
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// Searches for all records with `sim(x, q) ≥ τ` against sorted rank
    /// array `q`. Returns ascending ids and statistics.
    pub fn search(&mut self, q: &[u32]) -> (Vec<u32>, AdaptStats) {
        let mut stats = AdaptStats::default();
        self.seen.next_epoch(self.collection.len());

        let oq = self.threshold.min_overlap_single(q.len());
        if oq as usize > q.len() {
            return (Vec::new(), stats);
        }
        let q_prefix = q.len() - oq as usize + 1;

        let mut touched: Vec<u32> = Vec::new();
        for (i, &tok) in q.iter().take(q_prefix).enumerate() {
            let Some(list) = self.lists.get(&tok) else {
                continue;
            };
            for &(id, j) in list {
                stats.postings_scanned += 1;
                let idu = id as usize;
                if !self.seen.accept(idu) {
                    continue;
                }
                let x = self.collection.record(idu);
                // Length filter once per record.
                if !self.threshold.size_compatible(x.len(), q.len()) {
                    continue;
                }
                // Position filter (PPJoin, first encounter): the overlap
                // can be at most 1 + what remains after the matching
                // positions.
                let need = self.threshold.min_overlap_pair(x.len(), q.len());
                let ub = 1 + (x.len() - j as usize - 1).min(q.len() - i - 1) as u32;
                if ub >= need {
                    touched.push(id);
                }
            }
        }

        stats.candidates = touched.len();
        let mut results: Vec<u32> = touched
            .into_iter()
            .filter(|&id| {
                let x = self.collection.record(id as usize);
                let need = self.threshold.min_overlap_pair(x.len(), q.len());
                overlap_at_least(x, q, need).is_some()
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
    use crate::types::LinearScanSets;

    fn small_collection() -> Collection {
        Collection::new(vec![
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 11],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 12, 13],
            vec![20, 21, 22, 23, 24, 25, 26, 27, 28, 29],
            vec![1, 2, 3, 20, 21, 22, 23, 24, 25, 26],
            vec![2, 3, 4, 5],
            vec![30],
        ])
    }

    #[test]
    fn matches_linear_scan_jaccard() {
        let c = small_collection();
        for tau in [0.5, 0.7, 0.8, 0.9, 0.95] {
            let t = Threshold::jaccard(tau);
            let scan = LinearScanSets::new(&c);
            let expected: Vec<Vec<u32>> = (0..c.len())
                .map(|qid| scan.search(c.record(qid), t))
                .collect();
            let mut eng = AdaptSearch::build(c.clone(), t);
            for (qid, expect) in expected.iter().enumerate() {
                assert_eq!(&eng.search(c.record(qid)).0, expect, "tau={tau} qid={qid}");
            }
        }
    }

    #[test]
    fn matches_linear_scan_overlap() {
        let c = small_collection();
        for o in [1u32, 3, 6, 10] {
            let t = Threshold::Overlap(o);
            let scan = LinearScanSets::new(&c);
            let mut eng = AdaptSearch::build(c.clone(), t);
            for qid in 0..c.len() {
                let expected = scan.search(c.record(qid), t);
                assert_eq!(eng.search(c.record(qid)).0, expected, "o={o} qid={qid}");
            }
        }
    }

    #[test]
    fn position_filter_prunes_hopeless_records() {
        // Record sharing only the last prefix token with q, with nothing
        // after it, cannot reach a high overlap: it must be pruned before
        // verification.
        let c = Collection::new(vec![
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            vec![10, 20, 21, 22, 23, 24, 25, 26, 27, 28],
        ]);
        let t = Threshold::jaccard(0.8);
        let mut eng = AdaptSearch::build(c.clone(), t);
        let q = c.record(0).to_vec();
        let (res, stats) = eng.search(&q);
        assert_eq!(res, vec![0]);
        // Record 1 shares no prefix token with q under the global order,
        // or is pruned by the position filter; either way it is not
        // verified.
        assert!(stats.candidates <= 1 + 1);
    }
}
