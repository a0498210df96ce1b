//! Class prefixes and the k-wise signature index of pkwise \[103\] (§6.2).
//!
//! The token universe is partitioned into `m − 1` disjoint *classes*
//! numbered `1..m−1`. The `p`-prefix of a record is its first `p` tokens
//! in the global order; `p_x` is the smallest prefix length whose
//! *capacity* `Σ_k max(0, cnt(x, p_x, k) − k + 1)` reaches
//! `|x| − o(x) + 1`, where `o(x)` is the minimum overlap any valid partner
//! must reach. The pkwise guarantee (validated by the completeness proof
//! sketched below and by the property tests): if `|x ∩ q| ≥ o(x, q)`,
//! then for some class `k` the two prefixes share at least `k` class-`k`
//! tokens — i.e. a *k-wise signature* (a k-combination of class-`k`
//! prefix tokens).
//!
//! Why: suppose every class shares at most `k − 1` prefix tokens, and
//! w.l.o.g. the last prefix token of `x` precedes the last prefix token
//! of `q` in the global order. Every token of `x`'s prefix that is in `q`
//! must then be in `q`'s prefix, so
//! `|x ∩ q| ≤ (|x| − p_x) + Σ_k min(cnt_k, k − 1) = |x| − capacity ≤ o(x) − 1 < o(x, q)`,
//! a contradiction. (Symmetric in the other direction.)
//!
//! Records whose full-set capacity never reaches the target (possible
//! only for tiny sets) are *degenerate*: they carry no signature guarantee
//! and are kept on an always-candidate list.

use crate::types::Threshold;
use pigeonring_core::fxhash::{FxHashMap, FxHasher};
use std::hash::Hasher;

/// Assignment of token ranks to classes `1..=m−1`.
#[derive(Clone, Debug)]
pub struct ClassMap {
    m: usize,
    explicit: Option<Vec<u8>>,
}

impl ClassMap {
    /// Hash-based assignment (the production default): rank `r` goes to
    /// class `(mix(r) mod (m−1)) + 1`.
    ///
    /// # Panics
    /// Panics if `m < 2` (need at least one class) or `m > 64`.
    pub fn hashed(m: usize) -> Self {
        assert!((2..=64).contains(&m), "m must be in [2, 64]");
        ClassMap { m, explicit: None }
    }

    /// Explicit assignment for tests and worked examples: `classes[r]` is
    /// the class of rank `r`, each in `1..=m−1`.
    ///
    /// # Panics
    /// Panics if any class is out of range.
    pub fn explicit(m: usize, classes: Vec<u8>) -> Self {
        assert!((2..=64).contains(&m), "m must be in [2, 64]");
        assert!(
            classes.iter().all(|&c| (1..m as u8).contains(&c)),
            "classes must be in 1..m"
        );
        ClassMap {
            m,
            explicit: Some(classes),
        }
    }

    /// The box count `m` (classes plus the suffix box `b₀`).
    pub fn m(&self) -> usize {
        self.m
    }

    /// The class of token rank `r`, in `1..=m−1`.
    ///
    /// Ranks beyond an explicit table fall back to the hashed
    /// assignment: `Collection::rank_query` maps query tokens unseen by
    /// the collection to fresh ranks `≥ universe`, which an explicit
    /// (universe-sized) table cannot cover. Any class is equally correct
    /// for such tokens — they can never match a record token, so they
    /// only dilute the query's per-class counts.
    #[inline]
    pub fn class_of(&self, r: u32) -> usize {
        match &self.explicit {
            Some(v) if (r as usize) < v.len() => v[r as usize] as usize,
            _ => {
                // Fibonacci mixing spreads consecutive ranks.
                let h = (r as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32;
                (h % (self.m as u64 - 1)) as usize + 1
            }
        }
    }
}

/// A query's (or record's) prefix, its tokens grouped by class — the
/// same layout one record occupies in [`PkwiseIndex`]'s arena.
#[derive(Clone, Debug)]
pub struct Prefix {
    /// Prefix length `p_x`.
    pub len: usize,
    /// The prefix tokens grouped by class, ascending within a class.
    tokens: Vec<u32>,
    /// Class `c`'s tokens are `tokens[bounds[c − 1]..bounds[c]]`.
    bounds: Vec<u32>,
    /// Whether the capacity target was never reached (no signature
    /// guarantee; the record must always be a candidate).
    pub degenerate: bool,
}

impl Prefix {
    /// The class-`c` prefix tokens, ascending.
    pub fn class(&self, c: usize) -> &[u32] {
        &self.tokens[self.bounds[c - 1] as usize..self.bounds[c] as usize]
    }

    /// `cnt(x, p_x, k)`.
    pub fn count(&self, class: usize) -> usize {
        self.class(class).len()
    }
}

/// Computes the prefix of sorted rank array `r` for minimum overlap `o`.
/// Returns `None` when `o > |r|` (the record can never satisfy the
/// threshold and need not be indexed at all).
pub fn compute_prefix(r: &[u32], classes: &ClassMap, o: u32) -> Option<Prefix> {
    let mut tokens = Vec::new();
    let mut bounds = vec![0];
    let (len, degenerate) = push_prefix(r, classes, o, &mut tokens, &mut bounds)?;
    Some(Prefix {
        len,
        tokens,
        bounds,
        degenerate,
    })
}

/// Finds the prefix of sorted rank array `r` for minimum overlap `o`,
/// appends its tokens grouped by class to `tokens` and the end offset of
/// each class `1..m` to `ends` (so class `c` of this prefix starts where
/// class `c − 1` — or the previous prefix — ended). Returns the prefix
/// length and whether it is degenerate; `None` (nothing appended) when
/// `o > |r|`. `o = 0` admits everything: the whole set, degenerate.
fn push_prefix(
    r: &[u32],
    classes: &ClassMap,
    o: u32,
    tokens: &mut Vec<u32>,
    ends: &mut Vec<u32>,
) -> Option<(usize, bool)> {
    if o as usize > r.len() {
        return None;
    }
    // m ≤ 64, so classes index a fixed array.
    let mut counts = [0usize; 64];
    let needed = r.len() + 1 - o as usize;
    let mut capacity = 0usize;
    let (mut len, mut degenerate) = (r.len(), true);
    for (idx, &t) in r.iter().enumerate() {
        let c = classes.class_of(t);
        counts[c] += 1;
        if counts[c] >= c {
            capacity += 1;
        }
        if o > 0 && capacity >= needed {
            (len, degenerate) = (idx + 1, false);
            break;
        }
    }
    let base = tokens.len();
    tokens.resize(base + len, 0);
    let mut next = [0usize; 64];
    let mut end = base;
    for c in 1..classes.m() {
        next[c] = end;
        end += counts[c];
        ends.push(u32::try_from(end).expect("prefix arena exceeds u32 offsets"));
    }
    for &t in &r[..len] {
        let c = classes.class_of(t);
        tokens[next[c]] = t;
        next[c] += 1;
    }
    Some((len, degenerate))
}

/// Calls `f` once per `k`-combination of `tokens` (ascending index
/// order). `tokens` must be sorted; combinations are emitted in
/// lexicographic order.
pub fn for_each_combination(tokens: &[u32], k: usize, f: &mut impl FnMut(&[u32])) {
    fn go(tokens: &[u32], k: usize, start: usize, cur: &mut Vec<u32>, f: &mut impl FnMut(&[u32])) {
        if cur.len() == k {
            f(cur);
            return;
        }
        let remaining = k - cur.len();
        // Enough tokens left to complete the combination?
        for i in start..=tokens.len().saturating_sub(remaining) {
            cur.push(tokens[i]);
            go(tokens, k, i + 1, cur, f);
            cur.pop();
        }
    }
    if k == 0 || k > tokens.len() {
        return;
    }
    let mut cur = Vec::with_capacity(k);
    go(tokens, k, 0, &mut cur, f);
}

/// Number of `k`-combinations `C(n, k)` (saturating).
pub fn combination_count(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let mut c = 1u64;
    for i in 0..k {
        c = c.saturating_mul((n - i) as u64) / (i as u64 + 1);
    }
    c
}

/// Hashes a k-combination into a signature key.
#[inline]
pub fn signature_hash(combo: &[u32]) -> u64 {
    let mut h = FxHasher::default();
    for &t in combo {
        h.write_u32(t);
    }
    h.finish()
}

/// One record's fixed-size entry in [`PkwiseIndex`].
#[derive(Clone, Copy, Debug)]
struct RecordHead {
    /// `|x|`.
    len: u32,
    /// Prefix length `p_x` of an indexed record; 0 for a record that is
    /// never probed (it cannot match, or it is on the always-candidate
    /// list), whose arena block is empty.
    prefix_len: u32,
    /// Rank of the last prefix token, `x[p_x − 1]` (indexed records).
    last_rank: u32,
    /// Start of the record's prefix tokens in the arena.
    offset: u32,
}

/// The k-wise signature index over flat arrays: what a probe and a chain
/// check read, with no per-record or per-signature heap block.
///
/// * **Record headers**: one fixed 16-byte header per record (length,
///   prefix length, last prefix rank, arena offset).
/// * **Prefix arena**: every indexed record's prefix tokens, record
///   after record, grouped by class within a record (ascending within a
///   class), with CSR offsets over (record, class): class `c` of record
///   `x` is `tokens[offsets[x(m−1) + c − 1]..offsets[x(m−1) + c]]`.
/// * **Postings**: one id arena; per class `k` a map from signature hash
///   to that signature's `[start, end)` range in it (ids ascending).
///   Built in one pass: collect `(signature, id)` pairs, sort, group;
///   lists sit in the arena in order of their smallest id.
///
/// Hash collisions can only add candidates, never lose results.
pub struct PkwiseIndex {
    classes: ClassMap,
    threshold: Threshold,
    heads: Vec<RecordHead>,
    /// Class-grouped prefix tokens of every indexed record.
    tokens: Vec<u32>,
    /// `n(m − 1) + 1` CSR offsets into `tokens` over (record, class).
    offsets: Vec<u32>,
    /// `postings[k − 1]`: class-`k` signature → range of `ids`.
    postings: Vec<FxHashMap<u64, (u32, u32)>>,
    /// Every posting list, in order of their smallest id.
    ids: Vec<u32>,
    /// Ids with no signature guarantee (tiny/degenerate records); always
    /// candidates, subject to the length filter.
    degenerate: Vec<u32>,
    /// Records demoted to the always-candidate list because one class's
    /// enumeration exceeded the internal combo cap.
    pub capped_records: usize,
}

impl PkwiseIndex {
    /// A record contributing more combinations than this per class is
    /// demoted to the always-candidate list instead of being enumerated.
    const COMBO_CAP: u64 = 100_000;

    /// Builds the index over sorted rank records.
    pub fn build(records: &[Vec<u32>], classes: ClassMap, threshold: Threshold) -> Self {
        let m = classes.m();
        let mut heads = Vec::with_capacity(records.len());
        let mut tokens = Vec::new();
        let mut offsets = Vec::with_capacity(records.len() * (m - 1) + 1);
        offsets.push(0u32);
        let mut pairs: Vec<Vec<(u64, u32)>> = vec![Vec::new(); m - 1];
        let mut degenerate = Vec::new();
        let mut capped_records = 0usize;
        for (id, r) in records.iter().enumerate() {
            let id = u32::try_from(id).expect("record ids fit in u32");
            let (base, row) = (tokens.len(), offsets.len());
            let o = threshold.min_overlap_single(r.len());
            let prefix = push_prefix(r, &classes, o, &mut tokens, &mut offsets);
            // Class k of this record: tokens[offsets[row + k − 2]..offsets[row + k − 1]].
            let class = |k: usize| offsets[row + k - 2] as usize..offsets[row + k - 1] as usize;
            let indexed = match prefix {
                None => false,
                Some((_, true)) => {
                    degenerate.push(id);
                    false
                }
                Some(_) => {
                    let capped =
                        (1..m).any(|k| combination_count(class(k).len(), k) > Self::COMBO_CAP);
                    if capped {
                        capped_records += 1;
                        degenerate.push(id);
                    }
                    !capped
                }
            };
            if indexed {
                for (k, class_pairs) in (1..m).zip(pairs.iter_mut()) {
                    for_each_combination(&tokens[class(k)], k, &mut |combo| {
                        class_pairs.push((signature_hash(combo), id));
                    });
                }
            } else {
                // Never probed: keep the header, drop the prefix.
                tokens.truncate(base);
                offsets.truncate(row);
                offsets.resize(row + m - 1, base as u32);
            }
            let prefix_len = tokens.len() - base;
            heads.push(RecordHead {
                len: u32::try_from(r.len()).expect("record length fits in u32"),
                prefix_len: prefix_len as u32,
                last_rank: if indexed { r[prefix_len - 1] } else { 0 },
                offset: base as u32,
            });
        }
        // (signature, id) order: each signature's ids ascending.
        for class_pairs in &mut pairs {
            class_pairs.sort_unstable();
        }
        fn runs(class_pairs: &[(u64, u32)]) -> impl Iterator<Item = &[(u64, u32)]> + '_ {
            class_pairs.chunk_by(|a, b| a.0 == b.0)
        }
        // Lists are laid out by their smallest id, every class together:
        // a query resembling record x reads the lists x posted first side
        // by side (a counting sort of the runs by first id).
        let mut next = vec![0u32; records.len() + 1];
        for run in pairs.iter().flat_map(|p| runs(p)) {
            next[run[0].1 as usize + 1] += run.len() as u32;
        }
        for i in 1..next.len() {
            next[i] += next[i - 1];
        }
        let mut ids = vec![0u32; next[records.len()] as usize];
        let postings = pairs
            .iter()
            .map(|class_pairs| {
                let mut map = FxHashMap::default();
                map.reserve(runs(class_pairs).count());
                for run in runs(class_pairs) {
                    let start = &mut next[run[0].1 as usize];
                    let range = *start as usize..*start as usize + run.len();
                    for (slot, &(_, id)) in ids[range.clone()].iter_mut().zip(run) {
                        *slot = id;
                    }
                    *start += run.len() as u32;
                    map.insert(run[0].0, (range.start as u32, range.end as u32));
                }
                map
            })
            .collect();
        PkwiseIndex {
            classes,
            threshold,
            heads,
            tokens,
            offsets,
            postings,
            ids,
            degenerate,
            capped_records,
        }
    }

    /// The class map.
    pub fn classes(&self) -> &ClassMap {
        &self.classes
    }

    /// The build threshold.
    pub fn threshold(&self) -> Threshold {
        self.threshold
    }

    /// The always-candidate ids.
    pub fn degenerate_ids(&self) -> &[u32] {
        &self.degenerate
    }

    /// Record `id`'s header.
    #[inline]
    fn head(&self, id: u32) -> RecordHead {
        self.heads[id as usize]
    }

    /// The class-`c` prefix tokens of record `id`, ascending (empty for
    /// a record that is never probed).
    #[inline]
    pub(crate) fn class_tokens(&self, id: u32, c: usize) -> &[u32] {
        let row = id as usize * (self.classes.m() - 1) + c;
        &self.tokens[self.offsets[row - 1] as usize..self.offsets[row] as usize]
    }

    /// Probes class `k` with a signature hash: the ascending ids posted
    /// under it (empty when none).
    #[inline]
    pub fn lookup(&self, k: usize, sig: u64) -> &[u32] {
        match self.postings[k - 1].get(&sig) {
            Some(&(start, end)) => &self.ids[start as usize..end as usize],
            None => &[],
        }
    }

    /// The upper bound `b̂₀ ≥ b₀` on the suffix box of indexed record
    /// `id` against a query of `q_len` tokens whose sorted prefix is
    /// `q_prefix` (non-empty). Proved in the `ring` module docs:
    ///
    /// * `r_x ≤ r_q`: `min(|x_suf|, |q_suf| + #{t ∈ q_pre : t > r_x})`;
    /// * `r_x > r_q`: `min(|q_suf|, |x_suf| + #{t ∈ x_pre : t > r_q})`,
    ///   below `t₀ = |q_suf| + 1`.
    pub fn suffix_box_bound(&self, id: u32, q_len: usize, q_prefix: &[u32]) -> u32 {
        let head = self.head(id);
        let xs = head.len - head.prefix_len;
        let qs = (q_len - q_prefix.len()) as u32;
        let r_q = q_prefix[q_prefix.len() - 1];
        if head.last_rank <= r_q {
            let cross = q_prefix.len() - q_prefix.partition_point(|&t| t <= head.last_rank);
            xs.min(qs + cross as u32)
        } else if xs >= qs {
            qs
        } else {
            let start = head.offset as usize;
            let x_prefix = &self.tokens[start..start + head.prefix_len as usize];
            let cross = x_prefix.iter().filter(|&&t| t > r_q).count();
            qs.min(xs + cross as u32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinations_enumerate_lexicographically() {
        let mut seen = Vec::new();
        for_each_combination(&[1, 2, 3, 4], 2, &mut |c| seen.push(c.to_vec()));
        assert_eq!(
            seen,
            vec![
                vec![1, 2],
                vec![1, 3],
                vec![1, 4],
                vec![2, 3],
                vec![2, 4],
                vec![3, 4]
            ]
        );
    }

    #[test]
    fn combination_count_matches_enumeration() {
        for n in 0..=8usize {
            let toks: Vec<u32> = (0..n as u32).collect();
            for k in 0..=n {
                let mut cnt = 0u64;
                for_each_combination(&toks, k, &mut |_| cnt += 1);
                let expect = if k == 0 { 0 } else { combination_count(n, k) };
                assert_eq!(cnt, expect, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn prefix_capacity_reaches_target() {
        // 8 tokens, m = 3 (two classes), overlap o = 6 ⇒ needed = 3.
        let classes = ClassMap::hashed(3);
        let r: Vec<u32> = (0..8).collect();
        let p = compute_prefix(&r, &classes, 6).unwrap();
        assert!(!p.degenerate);
        // Recompute capacity over the prefix and check it equals 3.
        let mut cnt = [0usize; 3];
        let mut cap = 0usize;
        for &t in &r[..p.len] {
            let c = classes.class_of(t);
            cnt[c] += 1;
            if cnt[c] >= c {
                cap += 1;
            }
        }
        assert_eq!(cap, 3);
        // Minimality: one token fewer must be below target.
        assert!(p.len >= 3);
        // The grouping holds exactly the prefix tokens, by class.
        for c in 1..3 {
            assert!(p.class(c).iter().all(|&t| classes.class_of(t) == c));
            assert!(p.class(c).windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(p.count(1) + p.count(2), p.len);
    }

    #[test]
    fn tiny_records_are_degenerate_or_skipped() {
        let classes = ClassMap::hashed(5);
        // o greater than the record: unindexable.
        assert!(compute_prefix(&[1, 2], &classes, 3).is_none());
        // Tiny record where capacity cannot reach needed: degenerate.
        // |r| = 2, o = 1 ⇒ needed = 2; if both tokens land in classes ≥ 2
        // the capacity stalls below 2.
        let classes = ClassMap::explicit(5, vec![4, 4]);
        let p = compute_prefix(&[0, 1], &classes, 1).unwrap();
        assert!(p.degenerate);
        assert_eq!((p.len, p.class(4)), (2, &[0, 1][..]));
        // o = 0 admits everything: the whole set, degenerate.
        let p = compute_prefix(&[0, 1], &classes, 0).unwrap();
        assert!(p.degenerate && p.len == 2);
    }

    #[test]
    fn paper_figure3_prefixes() {
        // Example 10: tokens A..P = ranks 0..15, classes A−B:1, C−D:2,
        // E−F:3, G−P:4; τ = 9 (overlap), m = 5. Both prefixes are 9 long.
        let mut cls = vec![0u8; 16];
        for (r, c) in cls.iter_mut().enumerate() {
            *c = match r {
                0 | 1 => 1,
                2 | 3 => 2,
                4 | 5 => 3,
                _ => 4,
            };
        }
        let classes = ClassMap::explicit(5, cls);
        let x: Vec<u32> = "ACDEGHIJKLMN".bytes().map(|b| (b - b'A') as u32).collect();
        let q: Vec<u32> = "BCDFGHILMNOP".bytes().map(|b| (b - b'A') as u32).collect();
        let px = compute_prefix(&x, &classes, 9).unwrap();
        let pq = compute_prefix(&q, &classes, 9).unwrap();
        assert_eq!(px.len, 9, "x prefix");
        assert_eq!(pq.len, 9, "q prefix");
        // Class counts in q's prefix: 1, 2, 1, 5 (B | C D | F | G H I L M).
        assert_eq!(
            (pq.count(1), pq.count(2), pq.count(3), pq.count(4)),
            (1, 2, 1, 5)
        );
    }

    #[test]
    fn index_posts_signatures() {
        let classes = ClassMap::hashed(3);
        let records = vec![
            (0..10u32).collect::<Vec<_>>(),
            vec![0, 1],
            (5..15u32).collect::<Vec<_>>(),
        ];
        let idx = PkwiseIndex::build(&records, classes.clone(), Threshold::Overlap(8));
        // Record 1 can never reach overlap 8: header only, empty block.
        assert_eq!((idx.head(1).len, idx.head(1).prefix_len), (2, 0));
        assert!(idx.class_tokens(1, 1).is_empty() && idx.class_tokens(1, 2).is_empty());
        for id in [0u32, 2] {
            let r = &records[id as usize];
            let p = compute_prefix(r, &classes, 8).unwrap();
            let head = idx.head(id);
            assert_eq!(head.prefix_len as usize, p.len);
            assert_eq!(head.last_rank, r[p.len - 1]);
            for c in 1..3 {
                assert_eq!(idx.class_tokens(id, c), p.class(c), "id={id} c={c}");
            }
            // Every class-1 prefix token is a 1-wise signature hitting id.
            for &t in p.class(1) {
                assert!(idx.lookup(1, signature_hash(&[t])).contains(&id));
            }
        }
        assert!(idx.lookup(1, signature_hash(&[99])).is_empty());
    }
}
