//! q-gram extraction, the global gram dictionary, and the global order.
//!
//! A string of length `n` has `n − κ + 1` positional q-grams (substring,
//! start position). Grams are interned into dense `u32` ids whose natural
//! order **is** the global order — by increasing collection frequency
//! (ties by gram bytes) or, for the paper's worked examples,
//! lexicographically.
//!
//! The interning table lives in a [`GramDictionary`], shared (via `Arc`)
//! by every [`QGramCollection`] built from it. One dictionary built over
//! the *whole corpus* makes the frequency order — and hence prefix and
//! pivotal selection — identical in every shard of a partitioned
//! collection, which is what lets the service layer compute a query's
//! gram plan once and reuse it across shards
//! (`ShardedIndex::build_global` in `pigeonring-service`).
//! [`QGramCollection::build`] keeps the legacy single-collection path:
//! it builds a private dictionary from its own strings.

use std::sync::Arc;

use pigeonring_core::fxhash::FxHashMap;

/// Which global order gram ids encode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GramOrder {
    /// Increasing collection frequency, ties by gram bytes (production
    /// default, as in Pivotal \[28\]).
    Frequency,
    /// Lexicographic by gram bytes (used by the paper's Example 11).
    Lexicographic,
}

/// A positional q-gram: interned gram id (rank) and start position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PositionalGram {
    /// Interned gram id; smaller id = earlier in the global order.
    pub id: u32,
    /// Start position in the source string.
    pub pos: u32,
}

/// The gram interning table: gram bytes → dense `u32` id, where the id
/// order is the global order (by corpus frequency or lexicographic).
///
/// Built once over a corpus with [`GramDictionary::build`]; shard-local
/// collections then attach to it with
/// [`QGramCollection::with_dictionary`], so every shard agrees on gram
/// ids, the frequency order, and therefore prefix/pivotal selection.
#[derive(Debug)]
pub struct GramDictionary {
    kappa: usize,
    /// gram bytes → interned id.
    intern: FxHashMap<Box<[u8]>, u32>,
}

impl GramDictionary {
    /// Builds the dictionary over `strings`, interning grams of length
    /// `kappa` under the given order.
    ///
    /// # Panics
    /// Panics if `kappa == 0`.
    pub fn build(strings: &[Vec<u8>], kappa: usize, order: GramOrder) -> Self {
        assert!(kappa > 0, "q-gram length must be positive");
        let mut freq: FxHashMap<Box<[u8]>, u64> = FxHashMap::default();
        for s in strings {
            if s.len() >= kappa {
                for w in s.windows(kappa) {
                    *freq.entry(w.into()).or_insert(0) += 1;
                }
            }
        }
        let mut keys: Vec<(&Box<[u8]>, &u64)> = freq.iter().collect();
        match order {
            GramOrder::Frequency => keys.sort_by(|a, b| (a.1, a.0).cmp(&(b.1, b.0))),
            GramOrder::Lexicographic => keys.sort_by(|a, b| a.0.cmp(b.0)),
        }
        let intern: FxHashMap<Box<[u8]>, u32> = keys
            .into_iter()
            .enumerate()
            .map(|(i, (k, _))| (k.clone(), i as u32))
            .collect();
        GramDictionary { kappa, intern }
    }

    /// The gram length `κ`.
    pub fn kappa(&self) -> usize {
        self.kappa
    }

    /// Number of interned grams: corpus gram ids are `0..len`.
    pub(crate) fn len(&self) -> usize {
        self.intern.len()
    }

    /// The interned id of `gram`, if the corpus contains it.
    pub fn id(&self, gram: &[u8]) -> Option<u32> {
        self.intern.get(gram).copied()
    }

    /// Interns an external string's grams (query path) into `out`
    /// (cleared first), sorted by `(id, pos)` — i.e. global order. Grams
    /// unseen in the corpus get fresh ids beyond the interned range —
    /// they sort after every known gram and can never match a posting.
    pub fn query_grams_into(&self, s: &[u8], out: &mut Vec<PositionalGram>) {
        out.clear();
        if s.len() < self.kappa {
            return;
        }
        let base = self.intern.len() as u32;
        let mut fresh: FxHashMap<&[u8], u32> = FxHashMap::default();
        out.extend(s.windows(self.kappa).enumerate().map(|(pos, w)| {
            let id = self.intern.get(w).copied().unwrap_or_else(|| {
                let next = base + fresh.len() as u32;
                *fresh.entry(w).or_insert(next)
            });
            PositionalGram {
                id,
                pos: pos as u32,
            }
        }));
        out.sort_by_key(|pg| (pg.id, pg.pos));
    }
}

/// A collection of strings with interned q-grams over a (possibly
/// shared) [`GramDictionary`].
pub struct QGramCollection {
    strings: Vec<Vec<u8>>,
    dict: Arc<GramDictionary>,
    /// Per-string grams sorted by (id, pos) — i.e. global order.
    grams: Vec<Vec<PositionalGram>>,
}

impl QGramCollection {
    /// Builds the collection with a private dictionary interned from
    /// these strings alone (the legacy single-collection path; sharded
    /// builds share one corpus-wide dictionary via
    /// [`QGramCollection::with_dictionary`]).
    ///
    /// # Panics
    /// Panics if `kappa == 0`.
    pub fn build(strings: Vec<Vec<u8>>, kappa: usize, order: GramOrder) -> Self {
        let dict = Arc::new(GramDictionary::build(&strings, kappa, order));
        QGramCollection::with_dictionary(strings, dict)
    }

    /// Builds the collection over a shared dictionary: every gram id —
    /// and the frequency order behind prefix/pivotal selection — comes
    /// from `dict`, so collections of different shards of one corpus
    /// agree on all query-side structures.
    ///
    /// # Panics
    /// Panics if any string contains a gram absent from `dict`: the
    /// dictionary must be built over a superset of these strings (the
    /// whole corpus), or matching records could silently be missed.
    pub fn with_dictionary(strings: Vec<Vec<u8>>, dict: Arc<GramDictionary>) -> Self {
        let kappa = dict.kappa();
        let grams = strings
            .iter()
            .map(|s| {
                let mut g: Vec<PositionalGram> = if s.len() >= kappa {
                    s.windows(kappa)
                        .enumerate()
                        .map(|(pos, w)| PositionalGram {
                            id: dict.id(w).expect(
                                "record gram missing from the dictionary — build the \
                                 GramDictionary over the full corpus",
                            ),
                            pos: pos as u32,
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                g.sort_by_key(|pg| (pg.id, pg.pos));
                g
            })
            .collect();
        QGramCollection {
            strings,
            dict,
            grams,
        }
    }

    /// The shared gram dictionary.
    pub fn dictionary(&self) -> &Arc<GramDictionary> {
        &self.dict
    }

    /// The gram length `κ`.
    pub fn kappa(&self) -> usize {
        self.dict.kappa()
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// String `id`.
    pub fn string(&self, id: usize) -> &[u8] {
        &self.strings[id]
    }

    /// All strings.
    pub fn strings(&self) -> &[Vec<u8>] {
        &self.strings
    }

    /// String `id`'s grams in global order.
    pub fn grams(&self, id: usize) -> &[PositionalGram] {
        &self.grams[id]
    }

    /// Interns an external string's grams (query path); see
    /// [`GramDictionary::query_grams_into`]. Allocates per call — the
    /// engines' planning path reuses a scratch buffer via the `_into`
    /// variant instead.
    pub fn query_grams(&self, s: &[u8]) -> Vec<PositionalGram> {
        let mut out = Vec::new();
        self.dict.query_grams_into(s, &mut out);
        out
    }
}

/// The prefix of a gram list: the first `κτ + 1` grams in global order,
/// extended through ties on the last id so that "every gram with id ≤ the
/// last prefix id" is in the prefix (required by the pivotal-filter
/// completeness argument when duplicate grams exist).
pub fn prefix_grams(grams: &[PositionalGram], kappa: usize, tau: usize) -> &[PositionalGram] {
    let want = kappa * tau + 1;
    if grams.len() <= want {
        return grams;
    }
    let mut end = want;
    let last_id = grams[want - 1].id;
    while end < grams.len() && grams[end].id == last_id {
        end += 1;
    }
    &grams[..end]
}

/// Greedy selection of `τ + 1` pairwise-disjoint (non-overlapping)
/// pivotal grams from a prefix, by position. Returns `None` when fewer
/// than `τ + 1` disjoint grams exist (short strings — such records carry
/// no pivotal guarantee and must remain always-candidates).
///
/// Any `κτ + 1` grams with distinct positions contain `τ + 1` disjoint
/// ones: sorting by position and picking greedily skips at most `κ − 1`
/// overlapping grams per pick.
pub fn select_pivotal(
    prefix: &[PositionalGram],
    kappa: usize,
    tau: usize,
) -> Option<Vec<PositionalGram>> {
    let mut by_pos: Vec<PositionalGram> = prefix.to_vec();
    by_pos.sort_by_key(|pg| pg.pos);
    let mut picked = Vec::with_capacity(tau + 1);
    let mut next_free = 0i64;
    for pg in by_pos {
        if (pg.pos as i64) >= next_free {
            picked.push(pg);
            next_free = pg.pos as i64 + kappa as i64;
            if picked.len() == tau + 1 {
                return Some(picked);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<Vec<u8>> {
        v.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    #[test]
    fn grams_are_extracted_with_positions() {
        let c = QGramCollection::build(strs(&["abcd"]), 2, GramOrder::Lexicographic);
        let g = c.grams(0);
        assert_eq!(g.len(), 3);
        // Lexicographic: ab < bc < cd.
        assert_eq!(g[0].pos, 0);
        assert_eq!(g[1].pos, 1);
        assert_eq!(g[2].pos, 2);
        assert!(g[0].id < g[1].id && g[1].id < g[2].id);
    }

    #[test]
    fn frequency_order_puts_rare_grams_first() {
        // "zz" appears once, "ab" three times.
        let c = QGramCollection::build(strs(&["abab", "abzz"]), 2, GramOrder::Frequency);
        let g = c.grams(1); // grams: ab, bz, zz

        // The rarest grams of string 1 are bz and zz (freq 1); ab (freq 3)
        // must sort last in the global order.
        let last = g[g.len() - 1];
        assert_eq!(
            &c.string(1)[last.pos as usize..last.pos as usize + 2],
            b"ab"
        );
        let first = g[0];
        assert_eq!(
            &c.string(1)[first.pos as usize..first.pos as usize + 2],
            b"bz"
        );
    }

    #[test]
    fn short_strings_have_no_grams() {
        let c = QGramCollection::build(strs(&["a", "ab"]), 3, GramOrder::Frequency);
        assert!(c.grams(0).is_empty());
        assert!(c.grams(1).is_empty());
    }

    #[test]
    fn query_grams_handle_unknown_grams() {
        let c = QGramCollection::build(strs(&["abcd"]), 2, GramOrder::Lexicographic);
        let qg = c.query_grams(b"abxy");
        assert_eq!(qg.len(), 3);
        // "ab" is known, "bx"/"xy" are fresh and sort after known ids.
        let known_max = 2u32; // ab, bc, cd interned
        assert!(qg.iter().filter(|g| g.id > known_max).count() == 2);
    }

    #[test]
    fn shared_dictionary_assigns_identical_ids_across_collections() {
        // A corpus split into two "shards" over one dictionary: both
        // halves (and queries against either) see the same gram ids.
        let corpus = strs(&["abab", "abzz", "zzzz", "baba"]);
        let dict = Arc::new(GramDictionary::build(&corpus, 2, GramOrder::Frequency));
        let left = QGramCollection::with_dictionary(corpus[..2].to_vec(), Arc::clone(&dict));
        let right = QGramCollection::with_dictionary(corpus[2..].to_vec(), Arc::clone(&dict));
        // "ab" occurs in both shards; its id must agree.
        let ab = dict.id(b"ab").expect("ab interned");
        assert!(left.grams(0).iter().any(|pg| pg.id == ab));
        assert_eq!(left.query_grams(b"ab"), right.query_grams(b"ab"));
        // The dictionary's frequency order is corpus-wide: "ab" (freq 3)
        // sorts after "bz" (freq 1) in *both* shards' query views.
        let bz = dict.id(b"bz").expect("bz interned");
        assert!(bz < ab, "corpus-rare gram precedes corpus-common gram");
    }

    #[test]
    #[should_panic(expected = "record gram missing from the dictionary")]
    fn foreign_record_grams_fail_loudly() {
        let corpus = strs(&["abcd"]);
        let dict = Arc::new(GramDictionary::build(&corpus, 2, GramOrder::Frequency));
        let _ = QGramCollection::with_dictionary(strs(&["wxyz"]), dict);
    }

    #[test]
    fn prefix_extends_through_ties() {
        // "aaaa" has grams aa@0, aa@1, aa@2 — all the same id. With
        // κτ+1 = 2 the prefix must extend to all three.
        let c = QGramCollection::build(strs(&["aaaa"]), 1, GramOrder::Lexicographic);
        let g = c.grams(0);
        let p = prefix_grams(g, 1, 1);
        assert_eq!(p.len(), 4); // 1·1+1 = 2 extended through the tie
    }

    #[test]
    fn pivotal_selection_is_disjoint_and_sized() {
        let c = QGramCollection::build(strs(&["llabcdefkk"]), 2, GramOrder::Lexicographic);
        let g = c.grams(0);
        let p = prefix_grams(g, 2, 2);
        assert_eq!(p.len(), 5); // κτ+1 = 5: ab, bc, cd, de, ef
        let piv = select_pivotal(p, 2, 2).unwrap();
        assert_eq!(piv.len(), 3);
        // Disjoint positions.
        for w in piv.windows(2) {
            assert!(w[1].pos >= w[0].pos + 2);
        }
        // Example 11: pivotal grams are ab@2, cd@4, ef@6.
        assert_eq!(
            piv.iter().map(|pg| pg.pos).collect::<Vec<_>>(),
            vec![2, 4, 6]
        );
    }

    #[test]
    fn pivotal_selection_fails_on_short_strings() {
        let c = QGramCollection::build(strs(&["abc"]), 2, GramOrder::Lexicographic);
        let g = c.grams(0);
        let p = prefix_grams(g, 2, 3); // τ = 3 needs 4 disjoint bigrams
        assert!(select_pivotal(p, 2, 3).is_none());
    }
}
