//! The shared pivotal index and the Pivotal baseline \[28\].
//!
//! Index layout (data side), all flat arrays built by counting passes:
//!
//! * *prefix postings*: a CSR arena over the dictionary's dense gram ids
//!   (`offsets`, one `u32` per gram + 1, then the rows). Every record's
//!   (tie-extended) prefix gram is one 16-byte `Posting` row: record
//!   id, the record's last prefix rank, its length and the gram
//!   position;
//! * *pivotal postings*: the same CSR shape over each record's `τ + 1`
//!   disjoint pivotal grams, whose rows also carry the pivotal slot in a
//!   parallel `u8` column (17 bytes per row);
//! * *pivotal arena*: every record's pivotal grams at stride `τ + 1`, each
//!   a 16-byte [`PivotalGram`] (position, the gram's `char_mask` computed
//!   at build, and the record's last prefix rank in what would be padding).
//!   A short record's stretch starts with a sentinel.
//!
//! Each posting list is sorted by record length (ids ascending within a
//! length), so the length filter `||x| − |q|| ≤ τ` is two binary
//! searches per list and only rows inside that window are read. A row
//! carries everything the probe tests, so a rejected posting costs no
//! random load. Query grams unseen in the corpus have ids at or beyond
//! the dictionary length and read as empty lists.
//!
//! Candidate generation (the *pivotal prefix filter*): for records whose
//! last prefix gram precedes the query's in the global order, one of the
//! record's pivotal grams must match (same gram, position within ±τ) a
//! gram in the query's prefix; otherwise one of the *query's* pivotal
//! grams must match in the record's prefix. Both probes emit
//! `(record, pivotal-slot)` pairs — the viable single boxes of §7's first
//! step, which [`RingEdit`](crate::RingEdit) chains.
//!
//! The [`Pivotal`](crate::Pivotal) baseline is that first step alone
//! (`RingEdit` at `l = 1`, one Cand-1 entry per record) followed by its
//! second filter, the *alignment filter*: the exact sum of
//! per-pivotal-gram minimum edit distances against ±τ substring windows,
//! pruning when it exceeds τ. The paper observes this is precisely the
//! `l = m` basic form of the pigeonring principle, at `O(κ² + κτ)` per
//! box.

use std::ops::Range;

use crate::content::char_mask;
use crate::qgram::{prefix_grams, select_pivotal, PositionalGram, QGramCollection};

/// Per-query counters for the edit-distance engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EditStats {
    /// On [`RingEdit`](crate::RingEdit): viable single boxes the probe
    /// visited (a record counts once per matching pivotal gram, chain
    /// accepted or not). On [`Pivotal`](crate::Pivotal): records passing
    /// the pivotal prefix filter, each once (Cand-1 in Figure 11).
    pub cand1: usize,
    /// On [`Pivotal`](crate::Pivotal): Cand-1 records also passing the
    /// alignment filter (Cand-2). Always 0 on
    /// [`RingEdit`](crate::RingEdit), which has no alignment filter.
    pub cand2: usize,
    /// Unique records passed to verification (on
    /// [`Pivotal`](crate::Pivotal), Cand-2).
    pub candidates: usize,
    /// Records with `ed(x, q) ≤ τ`.
    pub results: usize,
    /// Posting rows scanned: rows inside the length window of each
    /// probed list.
    pub postings_scanned: usize,
    /// Ring box evaluations (chain checks).
    pub boxes_checked: usize,
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

/// One record's pivotal gram in the index's arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PivotalGram {
    /// Symbol-presence mask of the gram ([`char_mask`]).
    pub mask: u64,
    /// Start position in the record.
    pub pos: u32,
    /// The record's last prefix gram id, the same in each of its grams:
    /// the case A / B split, read where the alignment filter reads the
    /// positions (it fills the 4 bytes `mask`'s alignment would pad).
    pub last: u32,
}

const _: () = assert!(std::mem::size_of::<PivotalGram>() == 16);

/// Arena sentinel opening a short record's stretch.
const NO_PIVOTAL: PivotalGram = PivotalGram {
    mask: 0,
    pos: u32::MAX,
    last: u32::MAX,
};

/// One posting row: what the probe tests, with no load elsewhere.
#[derive(Clone, Copy, Debug, Default)]
struct Posting {
    /// Record id.
    id: u32,
    /// The record's last prefix gram id (the case A / B split).
    last: u32,
    /// The record's length (the list's sort key).
    len: u32,
    /// The gram's position in the record.
    pos: u32,
}

/// A CSR posting arena over dense gram ids, each list sorted by record
/// length.
struct Postings {
    /// Rows of gram `g` are `rows[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<u32>,
    rows: Vec<Posting>,
}

impl Postings {
    /// Offsets from per-gram counts (`counts[g]`, one trailing slot).
    fn with_counts(mut counts: Vec<u32>) -> Self {
        let mut total = 0u32;
        for c in &mut counts {
            (*c, total) = (total, total + *c);
        }
        Postings {
            rows: vec![Posting::default(); total as usize],
            offsets: counts,
        }
    }

    /// Row range of gram `gram`'s list whose records' lengths lie in
    /// `lens`; empty for a gram the dictionary does not hold.
    #[inline]
    fn window(&self, gram: u32, lens: &Range<u32>) -> Range<usize> {
        let g = gram as usize;
        let Some(&[lo, hi]) = self.offsets.get(g..g + 2) else {
            return 0..0;
        };
        let list = &self.rows[lo as usize..hi as usize];
        let start = list.partition_point(|r| r.len < lens.start);
        let end = list.partition_point(|r| r.len < lens.end);
        lo as usize + start..lo as usize + end
    }
}

/// The pivotal prefix index over a string collection, built for a fixed
/// threshold `τ` and gram length `κ` (both shape the index).
pub struct PivotalIndex {
    collection: QGramCollection,
    tau: usize,
    prefix_idx: Postings,
    pivotal_idx: Postings,
    /// Pivotal slot of each `pivotal_idx` row.
    pivotal_slots: Vec<u8>,
    /// Pivotal grams at stride `τ + 1`, position-sorted per record.
    pivotal: Vec<PivotalGram>,
    /// Records without a pivotal guarantee: always candidates under the
    /// length filter.
    short_ids: Vec<u32>,
}

impl PivotalIndex {
    /// Builds the index: one pass selects every record's prefix and
    /// pivotal grams and counts list lengths, a second fills the rows in
    /// `(length, id)` order.
    pub fn build(collection: QGramCollection, tau: usize) -> Self {
        let (kappa, n, stride) = (collection.kappa(), collection.len(), tau + 1);
        let grams = collection.dictionary().len() + 1;
        let (mut prefix_counts, mut pivotal_counts) = (vec![0u32; grams], vec![0u32; grams]);
        let mut pivotal = vec![NO_PIVOTAL; n * stride];
        let mut pivotal_ids = vec![0u32; n * stride];
        let mut short_ids = Vec::new();
        for id in 0..n {
            let prefix = prefix_grams(collection.grams(id), kappa, tau);
            let Some(piv) = select_pivotal(prefix, kappa, tau) else {
                short_ids.push(id as u32);
                continue;
            };
            let (x, last) = (
                collection.string(id),
                prefix.last().expect("non-empty prefix").id,
            );
            for pg in prefix {
                prefix_counts[pg.id as usize] += 1;
            }
            for (k, pg) in piv.iter().enumerate() {
                pivotal_counts[pg.id as usize] += 1;
                pivotal_ids[id * stride + k] = pg.id;
                pivotal[id * stride + k] = PivotalGram {
                    mask: char_mask(&x[pg.pos as usize..pg.pos as usize + kappa]),
                    pos: pg.pos,
                    last,
                };
            }
        }
        let mut prefix_idx = Postings::with_counts(prefix_counts);
        let mut pivotal_idx = Postings::with_counts(pivotal_counts);
        let mut pivotal_slots = vec![0u8; pivotal_idx.rows.len()];
        let (mut prefix_next, mut pivotal_next) =
            (prefix_idx.offsets.clone(), pivotal_idx.offsets.clone());
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&id| collection.string(id as usize).len());
        for id in order {
            let idu = id as usize;
            if pivotal[idu * stride] == NO_PIVOTAL {
                continue;
            }
            let prefix = prefix_grams(collection.grams(idu), kappa, tau);
            let (last, len) = (
                pivotal[idu * stride].last,
                collection.string(idu).len() as u32,
            );
            let row = |pos| Posting { id, last, len, pos };
            for pg in prefix {
                let at = &mut prefix_next[pg.id as usize];
                prefix_idx.rows[*at as usize] = row(pg.pos);
                *at += 1;
            }
            let grams = &pivotal[idu * stride..(idu + 1) * stride];
            for (slot, (pg, &gram)) in grams.iter().zip(&pivotal_ids[idu * stride..]).enumerate() {
                let at = &mut pivotal_next[gram as usize];
                pivotal_idx.rows[*at as usize] = row(pg.pos);
                pivotal_slots[*at as usize] = slot as u8;
                *at += 1;
            }
        }
        PivotalIndex {
            collection,
            tau,
            prefix_idx,
            pivotal_idx,
            pivotal_slots,
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

    /// Record `id`'s pivotal grams (position-sorted, masks computed at
    /// build); empty for a short record, which has none.
    #[inline]
    pub fn pivotal(&self, id: u32) -> &[PivotalGram] {
        let stride = self.tau + 1;
        let grams = &self.pivotal[id as usize * stride..(id as usize + 1) * stride];
        if grams[0] == NO_PIVOTAL {
            &[]
        } else {
            grams
        }
    }

    /// Query-side structures: (tie-extended prefix, pivotal grams, last
    /// prefix rank); pivotal is `None` for short queries. `gram_buf` holds
    /// the full extracted gram list, reused across queries by the planning
    /// path so only the prefix/pivotal vectors allocate.
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
    /// direction between length-compatible strings. Returns the number of
    /// posting rows scanned (those inside the length window).
    pub fn probe(
        &self,
        q_prefix: &[PositionalGram],
        q_pivotal: Option<&[PositionalGram]>,
        q_last: u32,
        q_len: usize,
        mut visit: impl FnMut(ViableBox),
    ) -> usize {
        let tau = self.tau as u32;
        let lens = (q_len as u32).saturating_sub(tau)..(q_len as u32).saturating_add(tau + 1);
        let mut scanned = 0usize;
        // Case A: x's pivotal grams vs q's prefix; applies to records
        // whose last prefix gram does not come after q's.
        for pg in q_prefix {
            let rows = self.pivotal_idx.window(pg.id, &lens);
            scanned += rows.len();
            for (r, &slot) in self.pivotal_idx.rows[rows.clone()]
                .iter()
                .zip(&self.pivotal_slots[rows])
            {
                if r.last <= q_last && r.pos.abs_diff(pg.pos) <= tau {
                    visit(ViableBox {
                        id: r.id,
                        slot,
                        record_side: true,
                    });
                }
            }
        }
        // Case B: q's pivotal grams vs x's prefixes; records whose last
        // prefix gram comes strictly after q's.
        for (slot, pg) in q_pivotal.unwrap_or_default().iter().enumerate() {
            let rows = self.prefix_idx.window(pg.id, &lens);
            scanned += rows.len();
            for r in &self.prefix_idx.rows[rows] {
                if r.last > q_last && r.pos.abs_diff(pg.pos) <= tau {
                    visit(ViableBox {
                        id: r.id,
                        slot: slot as u8,
                        record_side: false,
                    });
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

/// The alignment filter over one side's pivotal grams (start
/// `positions` in `src`): their minimum edit distances to `text`'s ±τ
/// windows sum to at most `τ`; stops at the first prefix over `τ`.
pub(crate) fn alignment_within(
    positions: impl IntoIterator<Item = u32>,
    src: &[u8],
    text: &[u8],
    kappa: usize,
    tau: usize,
) -> bool {
    let mut sum = 0u32;
    positions.into_iter().all(|pos| {
        let g = &src[pos as usize..pos as usize + kappa];
        let lo = pos as i64 - tau as i64;
        let hi = pos as i64 + kappa as i64 + tau as i64;
        sum += min_substring_ed(g, text, lo, hi);
        sum <= tau as u32
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qgram::GramOrder;
    use crate::verify::edit_distance;
    use crate::{EditScratch, Pivotal};

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
            let eng = Pivotal::build(c, tau);
            let mut scratch = EditScratch::default();
            for (qid, q) in strings.iter().enumerate() {
                let expect = linear_scan(&strings, q, tau as u32);
                let (got, _) = eng.search(&mut scratch, q);
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
        let eng = Pivotal::build(c, 2);
        let (_, stats) = eng.search(&mut EditScratch::default(), b"abcdefghij");
        assert!(stats.cand2 <= stats.cand1);
        assert!(stats.results <= stats.cand2);
    }

    #[test]
    fn short_strings_never_lost() {
        let strings = strs(&["ab", "ba", "abc", "xyz", "a"]);
        let c = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
        let eng = Pivotal::build(c, 2);
        let mut scratch = EditScratch::default();
        for (qid, q) in strings.iter().enumerate() {
            let expect = linear_scan(&strings, q, 2);
            assert_eq!(eng.search(&mut scratch, q).0, expect, "qid={qid}");
        }
    }

    #[test]
    fn probe_reads_only_rows_inside_the_length_window() {
        // Same grams, lengths 6..=14: at τ = 1 a length-10 query may
        // only read the rows of lengths 9..=11.
        let strings: Vec<Vec<u8>> = (6..=14).map(|n| b"abcdefghijklmn"[..n].to_vec()).collect();
        let c = QGramCollection::build(strings, 2, GramOrder::Frequency);
        let tau = 1;
        let index = PivotalIndex::build(c, tau);
        let c = index.collection();
        // Each record's indexed (prefix, pivotal) grams.
        let sides: Vec<(Vec<PositionalGram>, Vec<PositionalGram>)> = (0..c.len())
            .map(|id| {
                let prefix = prefix_grams(c.grams(id), 2, tau);
                select_pivotal(prefix, 2, tau)
                    .map_or_else(Default::default, |piv| (prefix.to_vec(), piv))
            })
            .collect();
        for q in [&b"abcdefghij"[..], b"abcdefghxy", b"zzzzzzzzzz"] {
            let (q_prefix, q_piv, q_last) = index.query_side_with(&mut Vec::new(), q);
            let q_piv = q_piv.expect("ten symbols hold two disjoint bigrams");
            // A gram's rows inside the window: the gram's occurrences
            // among the length-compatible records' indexed grams.
            let in_window = |gram: u32, case_a: bool| -> usize {
                (0..c.len())
                    .filter(|&id| c.string(id).len().abs_diff(q.len()) <= tau)
                    .map(|id| {
                        let (prefix, piv) = &sides[id];
                        let grams = if case_a { piv } else { prefix };
                        grams.iter().filter(|pg| pg.id == gram).count()
                    })
                    .sum()
            };
            let want: usize = q_prefix
                .iter()
                .map(|g| in_window(g.id, true))
                .chain(q_piv.iter().map(|g| in_window(g.id, false)))
                .sum();
            let mut ids = Vec::new();
            let scanned = index.probe(&q_prefix, Some(&q_piv), q_last, q.len(), |vb| {
                ids.push(vb.id)
            });
            assert_eq!(scanned, want, "{q:?}");
            assert!(ids.iter().all(|&id| index.length_compatible(id, q.len())));
        }
        // Grams unseen in the corpus have ids past the dictionary and
        // read as empty lists.
        let (q_prefix, _, q_last) = index.query_side_with(&mut Vec::new(), b"zzzzzzzzzz");
        assert!(q_prefix
            .iter()
            .all(|g| g.id as usize >= c.dictionary().len()));
        assert_eq!(
            index.probe(&q_prefix, None, q_last, 10, |_| unreachable!()),
            0
        );
    }
}
