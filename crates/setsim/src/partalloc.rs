//! PartAlloc baseline \[30\] adapted from join to search (§8.1).
//!
//! The partition filter views set mismatch as Hamming distance:
//! `H(x, q) = |x| + |q| − 2|x ∩ q| ≤ h(|x|, |q|)` for any result pair.
//! For each record-size group `s`, the token universe is hashed into
//! `m_s = h_max(s) + 1` parts, where `h_max(s)` is the largest `h(s, s_q)`
//! over all length-compatible query sizes. Every mismatching token makes
//! at most one part's *segments* (the records' token subsets falling in
//! that part) unequal, so a result pair has at most `h(x, q)` unequal
//! parts — the filtering condition is the counting pigeonhole:
//! **at least `m_s − h(x, q)` parts with exactly equal segments** (using
//! the pair-exact `h`, which is at most `h_max`). The index stores one
//! segment hash per (record, part); the query recomputes its own segment
//! hashes *per size group*, probes for exact matches, and counts matches
//! per record.
//!
//! This reproduces PartAlloc's experimental profile from the paper: very
//! selective (random pairs match only a handful of sparse parts, far
//! below the required count) but with heavy per-query filtering work
//! (every size group requires a fresh partitioning of the query), which
//! is why it loses on total time despite the small candidate count
//! (§8.3).

use crate::types::{overlap_at_least, Collection, Threshold};
use pigeonring_core::fxhash::{FxHashMap, FxHasher};
use pigeonring_core::scratch::EpochScratch;
use std::hash::Hasher;

/// One record-size group with its own universe partitioning.
struct Group {
    size: usize,
    parts: usize,
    /// `maps[i]`: segment-hash → record ids for part `i`.
    maps: Vec<FxHashMap<u64, Vec<u32>>>,
}

/// Per-query counters for [`PartAlloc`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartAllocStats {
    /// Unique records passed to verification.
    pub candidates: usize,
    /// Records satisfying the threshold.
    pub results: usize,
    /// Segment hashes computed for the query (filtering work).
    pub segments_hashed: usize,
}

/// Partition-filter search engine.
pub struct PartAlloc {
    collection: Collection,
    threshold: Threshold,
    groups: Vec<Group>,
    /// Records met this query: their `matches` count is live.
    seen: EpochScratch,
    /// Equal segments counted per record this query.
    matches: Vec<u32>,
}

#[inline]
fn part_of(token: u32, parts: usize) -> usize {
    let h = (token as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32;
    (h % parts as u64) as usize
}

fn segment_hashes(r: &[u32], parts: usize) -> Vec<u64> {
    let mut hashers: Vec<FxHasher> = vec![FxHasher::default(); parts];
    for &t in r {
        hashers[part_of(t, parts)].write_u32(t);
    }
    hashers.into_iter().map(|h| h.finish()).collect()
}

impl PartAlloc {
    /// Builds the per-size-group segment indexes.
    pub fn build(collection: Collection, threshold: Threshold) -> Self {
        let max_size = collection
            .records()
            .iter()
            .map(|r| r.len())
            .max()
            .unwrap_or(0);
        let mut by_size: FxHashMap<usize, Vec<u32>> = FxHashMap::default();
        for (id, r) in collection.records().iter().enumerate() {
            by_size.entry(r.len()).or_default().push(id as u32);
        }
        let mut groups = Vec::with_capacity(by_size.len());
        for (size, ids) in by_size {
            if size == 0 {
                continue;
            }
            let parts = Self::max_mismatch(size, max_size, threshold) + 1;
            let mut maps: Vec<FxHashMap<u64, Vec<u32>>> =
                (0..parts).map(|_| FxHashMap::default()).collect();
            for &id in &ids {
                let hashes = segment_hashes(collection.record(id as usize), parts);
                for (i, h) in hashes.into_iter().enumerate() {
                    maps[i].entry(h).or_default().push(id);
                }
            }
            groups.push(Group { size, parts, maps });
        }
        groups.sort_by_key(|g| g.size);
        let n = collection.len();
        PartAlloc {
            collection,
            threshold,
            groups,
            seen: EpochScratch::default(),
            matches: vec![0; n],
        }
    }

    /// The largest possible symmetric-difference size `h(s, s_q)` over all
    /// query sizes compatible with record size `s` (capped at the largest
    /// record size — queries are drawn from the collection).
    fn max_mismatch(s: usize, max_size: usize, threshold: Threshold) -> usize {
        let mut h_max = 0usize;
        for sq in 1..=max_size {
            if !threshold.size_compatible(s, sq) {
                continue;
            }
            let o = threshold.min_overlap_pair(s, sq) as usize;
            let h = (s + sq).saturating_sub(2 * o);
            h_max = h_max.max(h);
        }
        h_max
    }

    /// The collection.
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// Searches for all records with `sim(x, q) ≥ τ`. Returns ascending
    /// ids and statistics.
    pub fn search(&mut self, q: &[u32]) -> (Vec<u32>, PartAllocStats) {
        let mut stats = PartAllocStats::default();
        self.seen.next_epoch(self.collection.len());

        let mut cands: Vec<u32> = Vec::new();
        for g in &self.groups {
            if !self.threshold.size_compatible(g.size, q.len()) {
                continue;
            }
            // Counting pigeonhole: a result in this group has at most
            // h(g.size, |q|) unequal parts, so at least `need` equal ones.
            let h_pair = (g.size + q.len())
                .saturating_sub(2 * self.threshold.min_overlap_pair(g.size, q.len()) as usize);
            let need = g.parts.saturating_sub(h_pair).max(1) as u32;
            // Re-partition the query under this group's scheme: the heavy
            // per-query cost characteristic of partition filters.
            let hashes = segment_hashes(q, g.parts);
            stats.segments_hashed += hashes.len();
            for (i, h) in hashes.into_iter().enumerate() {
                if let Some(ids) = g.maps[i].get(&h) {
                    for &id in ids {
                        let idu = id as usize;
                        if self.seen.accept(idu) {
                            self.matches[idu] = 0;
                        }
                        self.matches[idu] += 1;
                        if self.matches[idu] == need {
                            cands.push(id);
                        }
                    }
                }
            }
        }

        stats.candidates = cands.len();
        let mut results: Vec<u32> = cands
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

    fn collection() -> Collection {
        Collection::new(vec![
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 11],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 12, 13],
            vec![20, 21, 22, 23, 24, 25, 26, 27, 28, 29],
            vec![1, 2, 3, 20, 21, 22, 23, 24, 25, 26, 27, 28],
            vec![2, 3, 4, 5, 6, 7],
        ])
    }

    #[test]
    fn matches_linear_scan_jaccard() {
        let c = collection();
        for tau in [0.6, 0.7, 0.8, 0.9] {
            let t = Threshold::jaccard(tau);
            let scan = LinearScanSets::new(&c);
            let expected: Vec<Vec<u32>> = (0..c.len())
                .map(|qid| scan.search(c.record(qid), t))
                .collect();
            let mut eng = PartAlloc::build(c.clone(), t);
            for (qid, expect) in expected.iter().enumerate() {
                assert_eq!(&eng.search(c.record(qid)).0, expect, "tau={tau} qid={qid}");
            }
        }
    }

    #[test]
    fn matches_linear_scan_overlap() {
        let c = collection();
        for o in [2u32, 5, 8] {
            let t = Threshold::Overlap(o);
            let scan = LinearScanSets::new(&c);
            let mut eng = PartAlloc::build(c.clone(), t);
            for qid in 0..c.len() {
                let expected = scan.search(c.record(qid), t);
                assert_eq!(eng.search(c.record(qid)).0, expected, "o={o} qid={qid}");
            }
        }
    }

    #[test]
    fn self_query_always_found() {
        // A record is always similar to itself at any τ ≤ 1; segment
        // equality on every part guarantees it is found.
        let c = collection();
        let mut eng = PartAlloc::build(c.clone(), Threshold::jaccard(0.95));
        for qid in 0..c.len() {
            let (res, _) = eng.search(c.record(qid));
            assert!(res.contains(&(qid as u32)), "qid={qid}");
        }
    }

    #[test]
    fn exact_filter_is_selective() {
        // Disjoint records must not even become candidates.
        let c = Collection::new(vec![
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            vec![101, 102, 103, 104, 105, 106, 107, 108],
        ]);
        let mut eng = PartAlloc::build(c.clone(), Threshold::jaccard(0.8));
        let (res, stats) = eng.search(c.record(0));
        assert_eq!(res, vec![0]);
        assert!(stats.candidates <= 2);
    }
}
