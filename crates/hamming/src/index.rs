//! Per-part signature index with radius enumeration.
//!
//! For each part, the index maps the part's bit signature to the posting
//! list of vector ids holding that signature. The first step of candidate
//! generation (§7) probes part `i` by enumerating every signature within
//! Hamming distance `t_i` of the query's signature and concatenating the
//! matching posting lists — the same multi-index scheme GPH \[72\] and
//! MIH \[64\] use. Enumeration cost is `Σ_{k≤t} C(w, k)` per part, which
//! the threshold allocator (see [`crate::alloc`]) keeps small.
//!
//! ## Layout
//!
//! Each part stores its posting lists in CSR form: one `ids` arena of
//! all `n` vector ids grouped by signature (ascending id within a
//! group), and an `offsets` array delimiting the groups. For parts of at
//! most [`DENSE_MAX_WIDTH`] bits the group index *is* the signature
//! (`offsets` has `2^w + 1` entries), so a probe is two adjacent array
//! loads; wider parts keep a sorted array of the distinct signatures
//! that occur and binary-search it. Both are built by sorting — a
//! counting sort for dense parts — with no hash map and no per-signature
//! heap allocation.
//!
//! Beside `ids`, a part whose ring-next part `(i + 1) mod m` is at most
//! [`DENSE_MAX_WIDTH`] bits wide keeps a parallel `next` column: the
//! record's signature of that part, as a `u16`. The probe hands it over
//! with the id, so the chain's first step past the start box is a
//! popcount on data the probe already streamed, not a random load from
//! the [`VectorArena`] (the inverted-list-with-codes layout of Johnson,
//! Douze & Jégou). A dense part with the column takes
//! `6n + 4·(2^w + 1)` bytes.

use crate::arena::VectorArena;
use crate::partition::Partitioning;

/// Widest part indexed by direct signature lookup; `2^16 + 1` offsets
/// are 256 KiB per part, small beside the `ids` arena of any collection
/// worth indexing.
pub const DENSE_MAX_WIDTH: usize = 16;

/// Posting ranges [`PartIndex::probe_signatures`] resolves before walking any.
const RANGE_CHUNK: usize = 128;

/// How a part's signatures map to posting-list groups.
enum Keys {
    /// Group `k` holds signature `k` (every `w`-bit value has a group).
    Dense,
    /// Group `k` holds signature `keys[k]`; sorted, distinct.
    Sorted(Vec<u64>),
}

/// One part's posting lists: group `k` is
/// `ids[offsets[k]..offsets[k + 1]]`, and `next[j]` (when the part
/// stores the column) is record `ids[j]`'s ring-next part signature.
struct Postings {
    ids: Vec<u32>,
    /// Empty when the ring-next part is wider than [`DENSE_MAX_WIDTH`].
    next: Vec<u16>,
    offsets: Vec<u32>,
    keys: Keys,
}

/// One part's signatures, record by record: `u16`s when the part is at
/// most [`DENSE_MAX_WIDTH`] bits wide — dense keys, and narrow enough to
/// ride beside the previous part's posting ids — else `u64`s.
enum Column {
    Narrow(Vec<u16>),
    Wide(Vec<u64>),
}

impl Column {
    fn extract(arena: &VectorArena, part: usize, width: usize) -> Self {
        let sigs = (0..arena.len()).map(|id| arena.part_signature(id, part));
        if width <= DENSE_MAX_WIDTH {
            Column::Narrow(sigs.map(|sig| sig as u16).collect())
        } else {
            Column::Wide(sigs.collect())
        }
    }

    /// The column as the previous part's ring-next signatures, when it
    /// is narrow enough to store.
    fn as_next(&self) -> Option<&[u16]> {
        match self {
            Column::Narrow(sigs) => Some(sigs),
            Column::Wide(_) => None,
        }
    }
}

impl Postings {
    /// Groups vector ids `0..n` by their signature, carrying `next[id]`
    /// beside each id when given.
    fn build(sigs: &Column, width: usize, next: Option<&[u16]>) -> Self {
        match sigs {
            Column::Narrow(sigs) => Self::dense(sigs, width, next),
            Column::Wide(sigs) => Self::sorted(sigs, next),
        }
    }

    /// Counting sort: histogram, prefix sums, stable scatter.
    fn dense(sigs: &[u16], width: usize, next_sigs: Option<&[u16]>) -> Self {
        let mut offsets = vec![0u32; (1usize << width) + 1];
        for &s in sigs {
            offsets[usize::from(s) + 1] += 1;
        }
        for k in 1..offsets.len() {
            offsets[k] += offsets[k - 1];
        }
        let mut slots = offsets.clone();
        let mut ids = vec![0u32; sigs.len()];
        let mut next = vec![0u16; next_sigs.map_or(0, <[u16]>::len)];
        for (id, &s) in sigs.iter().enumerate() {
            let slot = &mut slots[usize::from(s)];
            ids[*slot as usize] = id as u32;
            if let Some(next_sigs) = next_sigs {
                next[*slot as usize] = next_sigs[id];
            }
            *slot += 1;
        }
        Postings {
            ids,
            next,
            offsets,
            keys: Keys::Dense,
        }
    }

    /// Sorts `(signature, id, next)` rows and keys the distinct
    /// signatures.
    fn sorted(sigs: &[u64], next_sigs: Option<&[u16]>) -> Self {
        let next_of = |id: usize| next_sigs.map_or(0, |col| col[id]);
        let mut rows: Vec<(u64, u32, u16)> = (0..sigs.len())
            .map(|id| (sigs[id], id as u32, next_of(id)))
            .collect();
        rows.sort_unstable();
        let mut keys = Vec::new();
        let mut offsets = Vec::new();
        for (pos, &(sig, _, _)) in rows.iter().enumerate() {
            if keys.last() != Some(&sig) {
                keys.push(sig);
                offsets.push(pos as u32);
            }
        }
        offsets.push(rows.len() as u32);
        let next = match next_sigs {
            Some(_) => rows.iter().map(|&(_, _, ns)| ns).collect(),
            None => Vec::new(),
        };
        Postings {
            ids: rows.into_iter().map(|(_, id, _)| id).collect(),
            next,
            offsets,
            keys: Keys::Sorted(keys),
        }
    }

    /// The `ids` range of group `k`.
    #[inline]
    fn range(&self, k: usize) -> (u32, u32) {
        (self.offsets[k], self.offsets[k + 1])
    }

    fn bytes(&self) -> usize {
        let keys = match &self.keys {
            Keys::Dense => 0,
            Keys::Sorted(keys) => keys.len() * size_of::<u64>(),
        };
        (self.ids.len() + self.offsets.len()) * size_of::<u32>()
            + self.next.len() * size_of::<u16>()
            + keys
    }
}

/// Whether part `i`'s postings carry its ring-next part's signatures:
/// part `(i + 1) mod m` fits a `u16`.
fn ring_next_fits(partitioning: &Partitioning, i: usize) -> bool {
    partitioning.width((i + 1) % partitioning.num_parts()) <= DENSE_MAX_WIDTH
}

/// Inverted index from part signatures to vector ids, one CSR posting
/// arena per part.
pub struct PartIndex {
    partitioning: Partitioning,
    parts: Vec<Postings>,
    len: usize,
}

impl PartIndex {
    /// Indexes every record of `arena` under every part signature of
    /// `partitioning` (the one the arena was built with).
    ///
    /// # Panics
    /// Panics if the arena has a different number of parts, or more
    /// than `u32::MAX` records.
    pub fn build(arena: &VectorArena, partitioning: Partitioning) -> Self {
        let (n, m) = (arena.len(), partitioning.num_parts());
        assert!(n <= u32::MAX as usize, "id space is u32");
        assert_eq!(arena.num_parts(), m, "arena of a different partitioning");
        let column = |part: usize| Column::extract(arena, part, partitioning.width(part));
        // Each part's signatures are extracted once: part i's column
        // serves as part i − 1's ring-next column, then as its own keys.
        let first = column(0);
        let mut own: Option<Column> = None;
        let mut parts = Vec::with_capacity(m);
        for i in 0..m {
            let next = (i + 1 < m).then(|| column(i + 1));
            let sigs = own.as_ref().unwrap_or(&first);
            let ring_next = next.as_ref().unwrap_or(&first);
            parts.push(Postings::build(
                sigs,
                partitioning.width(i),
                ring_next.as_next(),
            ));
            own = next;
        }
        PartIndex {
            partitioning,
            parts,
            len: n,
        }
    }

    /// The partitioning the index was built with.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes held by the posting arenas, their ring-next signature
    /// columns (2 B per posting of a part that stores one) and their key
    /// tables.
    pub fn index_bytes(&self) -> usize {
        self.parts.iter().map(Postings::bytes).sum()
    }

    /// Whether part `part`'s postings carry the ring-next signature
    /// column: its ring-next part `(part + 1) mod m` is at most
    /// [`DENSE_MAX_WIDTH`] bits wide.
    pub fn stores_next(&self, part: usize) -> bool {
        ring_next_fits(&self.partitioning, part)
    }

    /// Probes every part `i` with radius `t[i]` around the query's part
    /// signature `qsigs[i]`, invoking `visit(part, distance, id, next)`
    /// for each matching vector: distance is the part's exact Hamming
    /// distance, known from the enumeration depth, and `next` the
    /// vector's ring-next part signature when
    /// [`PartIndex::stores_next`]`(part)`, else 0. Parts with
    /// `t[i] < 0` are skipped — an integer-reduced allocation may
    /// disable a part entirely. Returns the number of signatures
    /// enumerated (the probe cost `CC1`).
    pub fn probe_signatures(
        &self,
        qsigs: &[u64],
        t: &[i64],
        mut visit: impl FnMut(usize, u32, u32, u16),
    ) -> usize {
        assert_eq!(t.len(), self.parts.len(), "one threshold per part");
        assert_eq!(qsigs.len(), self.parts.len(), "one signature per part");
        let mut probes = 0;
        for (i, (&qsig, &ti)) in qsigs.iter().zip(t).enumerate() {
            if ti >= 0 {
                probes += self.probe_part(i, qsig, ti as usize, &mut visit);
            }
        }
        probes
    }

    /// Visits every vector whose part-`i` signature lies within `radius`
    /// of `qsig`; returns the number of signatures enumerated.
    fn probe_part(
        &self,
        i: usize,
        qsig: u64,
        radius: usize,
        visit: &mut impl FnMut(usize, u32, u32, u16),
    ) -> usize {
        let width = self.partitioning.width(i);
        let postings = &self.parts[i];
        // Two phases per chunk: resolve signatures to posting ranges with
        // no data-dependent branch (an empty range is written, then
        // overwritten by the next), then walk the non-empty ranges. The
        // range loads of a chunk overlap instead of each waiting behind
        // the mispredicted exit of the previous posting-list loop.
        let mut ranges = [(0u32, 0u32, 0u32); RANGE_CHUNK];
        let mut len = 0;
        let mut flush = |ranges: &[(u32, u32, u32)]| {
            for &(lo, hi, dist) in ranges {
                let (lo, hi) = (lo as usize, hi as usize);
                let ids = &postings.ids[lo..hi];
                if postings.next.is_empty() {
                    for &id in ids {
                        visit(i, dist, id, 0);
                    }
                } else {
                    for (&id, &next) in ids.iter().zip(&postings.next[lo..hi]) {
                        visit(i, dist, id, next);
                    }
                }
            }
        };
        let mut push = |(lo, hi): (u32, u32), dist: u32| {
            ranges[len] = (lo, hi, dist);
            len += usize::from(lo != hi);
            if len == RANGE_CHUNK {
                flush(&ranges);
                len = 0;
            }
        };
        let mut probes = 0;
        match &postings.keys {
            Keys::Dense => enumerate_within(qsig, width, radius, &mut |sig, dist| {
                probes += 1;
                push(postings.range(sig as usize), dist);
            }),
            Keys::Sorted(keys) => enumerate_within(qsig, width, radius, &mut |sig, dist| {
                probes += 1;
                if let Ok(k) = keys.binary_search(&sig) {
                    push(postings.range(k), dist);
                }
            }),
        }
        flush(&ranges[..len]);
        probes
    }
}

/// Enumerates every `width`-bit value within Hamming distance `radius` of
/// `sig`, passing `(value, distance)` to `visit`. Values are emitted
/// exactly once (flip positions are chosen in increasing order).
pub fn enumerate_within(sig: u64, width: usize, radius: usize, visit: &mut impl FnMut(u64, u32)) {
    fn go(
        cur: u64,
        start: usize,
        flipped: u32,
        remaining: usize,
        width: usize,
        visit: &mut impl FnMut(u64, u32),
    ) {
        visit(cur, flipped);
        if remaining == 0 {
            return;
        }
        for p in start..width {
            go(
                cur ^ (1u64 << p),
                p + 1,
                flipped + 1,
                remaining - 1,
                width,
                visit,
            );
        }
    }
    assert!(width <= 64, "signatures are at most 64 bits");
    go(sig, 0, 0, radius.min(width), width, visit);
}

/// Number of signatures [`enumerate_within`] emits: `Σ_{k≤radius} C(width, k)`.
pub fn enumeration_count(width: usize, radius: usize) -> u64 {
    let radius = radius.min(width);
    let mut total = 0u64;
    let mut c = 1u64; // C(width, 0)
    for k in 0..=radius {
        total = total.saturating_add(c);
        c = c.saturating_mul((width - k) as u64) / (k as u64 + 1);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVector;

    #[test]
    fn enumerate_radius_zero() {
        let mut seen = Vec::new();
        enumerate_within(0b1010, 4, 0, &mut |s, d| seen.push((s, d)));
        assert_eq!(seen, vec![(0b1010, 0)]);
    }

    #[test]
    fn enumerate_counts_and_distances() {
        for width in [4usize, 8, 12] {
            for radius in 0..=3 {
                let mut n = 0u64;
                let base = 0b0110u64;
                enumerate_within(base, width, radius, &mut |s, d| {
                    n += 1;
                    assert_eq!((s ^ base).count_ones(), d);
                    assert!(d as usize <= radius);
                    assert!(s < (1u64 << width));
                });
                assert_eq!(n, enumeration_count(width, radius), "w={width} r={radius}");
            }
        }
    }

    #[test]
    fn enumerate_emits_unique_values() {
        let mut seen = std::collections::HashSet::new();
        enumerate_within(0b111, 6, 3, &mut |s, _| {
            assert!(seen.insert(s), "duplicate signature {s:#b}");
        });
        assert_eq!(seen.len() as u64, enumeration_count(6, 3));
    }

    #[test]
    fn enumeration_count_values() {
        assert_eq!(enumeration_count(16, 0), 1);
        assert_eq!(enumeration_count(16, 1), 17);
        assert_eq!(enumeration_count(16, 2), 1 + 16 + 120);
        assert_eq!(enumeration_count(4, 9), 16); // radius clamps to width
    }

    #[test]
    fn probe_finds_vectors_within_radius() {
        let data: Vec<BitVector> = [
            "0000 0000", // id 0
            "0001 0000", // id 1: part0 distance 1 from q's part0
            "0011 0000", // id 2: part0 distance 2
            "0000 1111", // id 3: part1 distance 4
        ]
        .iter()
        .map(|s| BitVector::from_bit_str(s))
        .collect();
        let p = Partitioning::equi_width(8, 2);
        let idx = PartIndex::build(&VectorArena::build(&data, &p), p.clone());
        let q = BitVector::from_bit_str("0000 0000");

        let mut hits: Vec<(usize, u32, u32, u16)> = Vec::new();
        idx.probe_signatures(&p.signatures(&q), &[1, 0], |part, dist, id, next| {
            hits.push((part, dist, id, next));
        });
        hits.sort_unstable();
        // Part 0 radius 1: ids 0 (d=0), 1 (d=1), 3 (d=0 in part 0).
        // Part 1 radius 0: ids 0, 1, 2 (all zero in part 1).
        // Each carries its other part's signature (bit `lo` is bit 0).
        assert_eq!(
            hits,
            vec![
                (0, 0, 0, 0),
                (0, 0, 3, 0b1111),
                (0, 1, 1, 0),
                (1, 0, 0, 0),
                (1, 0, 1, 0b1000),
                (1, 0, 2, 0b1100)
            ]
        );
    }

    #[test]
    fn probe_skips_disabled_parts() {
        let data = vec![BitVector::from_bit_str("0000")];
        let p = Partitioning::equi_width(4, 2);
        let idx = PartIndex::build(&VectorArena::build(&data, &p), p);
        let mut hits = 0;
        let probes = idx.probe_signatures(&[0, 0], &[-1, -1], |_, _, _, _| hits += 1);
        assert_eq!((hits, probes), (0, 0));
    }
}
