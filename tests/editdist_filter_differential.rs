//! Corpus-level differential test for the edit-distance filter: on
//! generated imdb-like and pubmed-like strings, `RingEdit`'s candidate
//! ids and its `cand1` / `boxes_checked` counters, and `Pivotal`'s
//! Cand-1 / Cand-2 counts and result ids, must equal a reference loop
//! written from §6.3's definitions:
//!
//! * a record is *case A* when its last prefix gram does not come after
//!   the query's in the global order; its viable single boxes are its
//!   pivotal grams matching a query prefix gram (same gram, position
//!   within ±τ). Otherwise (*case B*) they are the query's pivotal grams
//!   matching a record prefix gram. Only records with
//!   `||x| − |q|| ≤ τ` are probed; records (or queries) without `τ + 1`
//!   disjoint pivotal grams are candidates under the length filter alone;
//! * box `j` is the content bound of pivotal gram `j` against every
//!   length-`κ` substring of the other string starting within ±τ of the
//!   gram's position: `⌈|A △ B| / 2⌉` over the two *character sets*
//!   (`BTreeSet`s here, never the engine's folded masks), minimised over
//!   the window; the probed start box is an exact match, 0;
//! * the chain of length `l` from a viable start walks the ring of
//!   `m = τ + 1` boxes under Theorem 3's quota `⌊l′τ/m⌋`; every viable
//!   start of a record not yet a candidate is checked, and the check
//!   reads boxes up to its first prefix over quota.
//!
//! A record's viable boxes are visited in probe order: query prefix
//! grams in global order (case A) or query pivotal slots (case B), and
//! within a gram the record's own grams in slot / position order.

use std::collections::BTreeSet;
use std::ops::RangeInclusive;

use pigeonring::datagen::{sample_query_ids, StringConfig};
use pigeonring::editdist::qgram::{prefix_grams, select_pivotal, PositionalGram};
use pigeonring::editdist::verify::edit_distance;
use pigeonring::editdist::{EditScratch, GramOrder, Pivotal, QGramCollection, RingEdit};

/// A box the window cannot hold (the other string is too short): any
/// value above `τ` fails the chain at that step.
const EMPTY_WINDOW: i64 = i64::MAX / 4;

/// What the reference loop saw for one query at one chain length.
#[derive(Debug, Default, PartialEq, Eq)]
struct Outcome {
    /// Ring candidates, ascending.
    candidates: Vec<u32>,
    /// Viable single boxes visited (Ring's `cand1`).
    viable_boxes: usize,
    boxes_checked: usize,
    /// Records with at least one viable box, plus the short records
    /// passing the length filter (Pivotal's Cand-1), ascending.
    cand1_records: Vec<u32>,
}

/// One side's gram structures: tie-extended prefix and pivotal grams.
struct Side {
    prefix: Vec<PositionalGram>,
    pivotal: Option<Vec<PositionalGram>>,
}

impl Side {
    fn new(grams: &[PositionalGram], kappa: usize, tau: usize) -> Self {
        let prefix = prefix_grams(grams, kappa, tau).to_vec();
        let pivotal = select_pivotal(&prefix, kappa, tau);
        Side { prefix, pivotal }
    }

    fn last(&self) -> u32 {
        self.prefix.last().map_or(u32::MAX, |pg| pg.id)
    }
}

fn char_set(s: &[u8]) -> BTreeSet<u8> {
    s.iter().copied().collect()
}

/// Content bound of `gram` (taken from `src` at `pos`) against the
/// length-`κ` substrings of `text` starting in `[pos − τ, pos + τ]`.
fn content_box(src: &[u8], pos: u32, text: &[u8], kappa: usize, tau: usize) -> i64 {
    let gram = char_set(&src[pos as usize..pos as usize + kappa]);
    let pos = pos as i64;
    (pos - tau as i64..=pos + tau as i64)
        .filter(|&u| u >= 0 && u as usize + kappa <= text.len())
        .map(|u| {
            let window = char_set(&text[u as usize..u as usize + kappa]);
            gram.symmetric_difference(&window).count().div_ceil(2) as i64
        })
        .min()
        .unwrap_or(EMPTY_WINDOW)
}

/// Minimum edit distance from `gram` to any substring of
/// `text[lo..hi]` (clamped), the empty substring included: the
/// alignment filter's box, by brute force.
fn min_substring_ed(gram: &[u8], text: &[u8], lo: i64, hi: i64) -> u32 {
    let lo = lo.clamp(0, text.len() as i64) as usize;
    let hi = hi.clamp(0, text.len() as i64) as usize;
    let mut best = gram.len() as u32;
    for a in lo..hi {
        for b in a + 1..=hi {
            best = best.min(edit_distance(gram, &text[a..b]));
        }
    }
    best
}

/// Pivotal's alignment filter from its definition: the disjoint
/// pivotal grams' minimum substring distances in their ±τ windows sum
/// to at most `τ`.
fn alignment_passes(
    piv: &[PositionalGram],
    src: &[u8],
    text: &[u8],
    kappa: usize,
    tau: usize,
) -> bool {
    let sum: u32 = piv
        .iter()
        .map(|pg| {
            let (p, t) = (pg.pos as i64, tau as i64);
            min_substring_ed(
                &src[pg.pos as usize..pg.pos as usize + kappa],
                text,
                p - t,
                p + kappa as i64 + t,
            )
        })
        .sum();
    sum <= tau as u32
}

struct Reference<'a> {
    coll: &'a QGramCollection,
    tau: usize,
    sides: Vec<Side>,
}

impl<'a> Reference<'a> {
    fn build(coll: &'a QGramCollection, tau: usize) -> Self {
        let sides = (0..coll.len())
            .map(|id| Side::new(coll.grams(id), coll.kappa(), tau))
            .collect();
        Reference { coll, tau, sides }
    }

    fn query_side(&self, q: &[u8]) -> Side {
        Side::new(&self.coll.query_grams(q), self.coll.kappa(), self.tau)
    }

    /// Viable start slots of record `id` in probe order, and whether
    /// its boxes are its own pivotal grams (case A).
    fn viable_starts(&self, x: &Side, q: &Side, q_piv: &[PositionalGram]) -> (Vec<usize>, bool) {
        let x_piv = x
            .pivotal
            .as_deref()
            .expect("probed records have pivotal grams");
        let near = |a: &PositionalGram, b: &PositionalGram| {
            a.id == b.id && a.pos.abs_diff(b.pos) as usize <= self.tau
        };
        if x.last() <= q.last() {
            let starts = q
                .prefix
                .iter()
                .flat_map(|qg| {
                    x_piv
                        .iter()
                        .enumerate()
                        .filter(move |(_, pg)| near(pg, qg))
                        .map(|(slot, _)| slot)
                })
                .collect();
            (starts, true)
        } else {
            let starts = q_piv
                .iter()
                .enumerate()
                .flat_map(|(slot, qp)| {
                    x.prefix
                        .iter()
                        .filter(move |pg| near(pg, qp))
                        .map(move |_| slot)
                })
                .collect();
            (starts, false)
        }
    }

    fn candidates(&self, q: &[u8], l: usize) -> Outcome {
        let (tau, kappa, m) = (self.tau, self.coll.kappa(), self.tau + 1);
        let quota = |l_prime: usize| ((l_prime * tau) / m) as i64;
        let qs = self.query_side(q);
        let mut out = Outcome::default();
        let length_ok = |id: usize| self.coll.string(id).len().abs_diff(q.len()) <= tau;
        let Some(q_piv) = qs.pivotal.as_deref() else {
            out.candidates = (0..self.coll.len())
                .filter(|&id| length_ok(id))
                .map(|id| id as u32)
                .collect();
            out.cand1_records = out.candidates.clone();
            return out;
        };
        for (id, xs) in self.sides.iter().enumerate() {
            if !length_ok(id) {
                continue;
            }
            let Some(x_piv) = xs.pivotal.as_deref() else {
                out.candidates.push(id as u32);
                out.cand1_records.push(id as u32);
                continue;
            };
            let x = self.coll.string(id);
            let (starts, case_a) = self.viable_starts(xs, &qs, q_piv);
            if !starts.is_empty() {
                out.cand1_records.push(id as u32);
            }
            let box_value = |j: usize| {
                if case_a {
                    content_box(x, x_piv[j].pos, q, kappa, tau)
                } else {
                    content_box(q, q_piv[j].pos, x, kappa, tau)
                }
            };
            for start in starts {
                out.viable_boxes += 1;
                if out.candidates.last() == Some(&(id as u32)) {
                    continue;
                }
                if l == 1 {
                    out.candidates.push(id as u32);
                    continue;
                }
                let mut sum = 0i64;
                let mut viable = true;
                for l_prime in 1..=l {
                    let j = (start + l_prime - 1) % m;
                    out.boxes_checked += 1;
                    sum += if j == start { 0 } else { box_value(j) };
                    if sum > quota(l_prime) {
                        viable = false;
                        break;
                    }
                }
                if viable {
                    out.candidates.push(id as u32);
                }
            }
        }
        out
    }

    /// Pivotal's `(Cand-2 count, results)` over the Cand-1 records.
    fn pivotal_results(&self, q: &[u8], cand1: &[u32]) -> (usize, Vec<u32>) {
        let (tau, kappa) = (self.tau, self.coll.kappa());
        let qs = self.query_side(q);
        let cand2: Vec<u32> = cand1
            .iter()
            .copied()
            .filter(|&id| {
                let (xs, x) = (&self.sides[id as usize], self.coll.string(id as usize));
                // A short side has no pivotal grams: the filter passes.
                match (&qs.pivotal, &xs.pivotal) {
                    (Some(q_piv), Some(_)) if xs.last() > qs.last() => {
                        alignment_passes(q_piv, q, x, kappa, tau)
                    }
                    (_, Some(x_piv)) => alignment_passes(x_piv, x, q, kappa, tau),
                    (_, None) => true,
                }
            })
            .collect();
        let results = cand2
            .iter()
            .copied()
            .filter(|&id| edit_distance(self.coll.string(id as usize), q) <= tau as u32)
            .collect();
        (cand2.len(), results)
    }
}

/// Half the queries verbatim, the other half with one deterministic
/// edit (substitution, insertion or deletion), plus one query too short
/// to carry pivotal grams.
fn queries(strings: &[Vec<u8>], count: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = sample_query_ids(strings.len(), count, seed)
        .into_iter()
        .enumerate()
        .map(|(i, qid)| {
            let mut q = strings[qid].clone();
            let p = (qid * 7) % q.len().max(1);
            match i % 4 {
                1 if !q.is_empty() => q[p] = b'a' + (q[p] - b'a' + 1) % 26,
                2 => q.insert(p, b'e'),
                3 if !q.is_empty() => {
                    q.remove(p);
                }
                _ => {}
            }
            q
        })
        .collect();
    out.push(strings[0][..strings[0].len().min(3)].to_vec());
    out
}

fn check(
    name: &str,
    strings: Vec<Vec<u8>>,
    queries: Vec<Vec<u8>>,
    taus: RangeInclusive<usize>,
    kappa_for: impl Fn(usize) -> usize,
) {
    assert!(
        strings.iter().flatten().all(u8::is_ascii_lowercase),
        "26 symbols: the engine's 64-bit masks fold no two of them together"
    );
    for tau in taus {
        let coll = QGramCollection::build(strings.clone(), kappa_for(tau), GramOrder::Frequency);
        let reference = Reference::build(&coll, tau);
        let ring = RingEdit::build(
            QGramCollection::build(strings.clone(), kappa_for(tau), GramOrder::Frequency),
            tau,
        );
        let pivotal = Pivotal::build(
            QGramCollection::build(strings.clone(), kappa_for(tau), GramOrder::Frequency),
            tau,
        );
        let mut scratch = EditScratch::default();
        for (qi, q) in queries.iter().enumerate() {
            let mut cand1_records = None;
            for l in 1..=tau + 1 {
                let want = reference.candidates(q, l);
                let (mut got, stats) = ring.candidates_with(&mut scratch, q, l);
                got.sort_unstable();
                let at = format!("{name} tau={tau} l={l} q#{qi}");
                assert_eq!(got, want.candidates, "{at}");
                assert_eq!(stats.candidates, want.candidates.len(), "{at}");
                assert_eq!(stats.cand1, want.viable_boxes, "cand1 {at}");
                assert_eq!(
                    stats.boxes_checked, want.boxes_checked,
                    "boxes_checked {at}"
                );
                cand1_records.get_or_insert(want.cand1_records);
            }
            let cand1 = cand1_records.expect("l = 1 ran");
            let (cand2, results) = reference.pivotal_results(q, &cand1);
            let (got, stats) = pivotal.search(&mut scratch, q);
            let at = format!("{name} tau={tau} pivotal q#{qi}");
            assert_eq!(got, results, "{at}");
            assert_eq!(stats.cand1, cand1.len(), "cand1 {at}");
            assert_eq!(stats.cand2, cand2, "cand2 {at}");
        }
    }
}

#[test]
fn imdb_like_candidates_and_counters_match_the_reference_loop() {
    let strings = StringConfig::imdb_like(1_500).generate();
    let queries = queries(&strings, 12, 5);
    check("imdb", strings, queries, 1..=4, |tau| {
        if tau == 1 {
            3
        } else {
            2
        }
    });
}

#[test]
fn pubmed_like_candidates_and_counters_match_the_reference_loop() {
    let strings = StringConfig::pubmed_like(300).generate();
    let queries = queries(&strings, 8, 6);
    check("pubmed", strings, queries, 1..=4, |tau| {
        if tau == 4 {
            8
        } else {
            4
        }
    });
}

/// Copies of pubmed-like records with two or three substitutions inside
/// one κ = 8 window join the corpus; originals and copies are queries,
/// so the damaged window is a case-A box for some pairs and a case-B box
/// for others, worth ≥ 2. The unplanted pubmed queries above pass with
/// either case's boxes loosened to `(b − 1).max(0)`; these fail.
#[test]
fn pubmed_like_window_edits_turn_the_chain() {
    let mut strings = StringConfig::pubmed_like(300).generate();
    let mut queries = Vec::new();
    for (i, qid) in sample_query_ids(strings.len(), 12, 9)
        .into_iter()
        .enumerate()
    {
        let mut planted = strings[qid].clone();
        let p = (qid * 13) % (planted.len() - 8);
        for (k, letter) in [b'z', b'x', b'q'].into_iter().enumerate().take(2 + i % 2) {
            planted[p + 3 * k] = letter;
        }
        queries.push(strings[qid].clone());
        queries.push(planted.clone());
        strings.push(planted);
    }
    check("pubmed planted", strings, queries, 4..=4, |_| 8);
}
