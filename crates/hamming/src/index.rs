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
//! heap allocation: `4n + 4·(2^w + 1)` bytes per dense part.

use crate::bitvec::BitVector;
use crate::partition::Partitioning;

/// Widest part indexed by direct signature lookup; `2^16 + 1` offsets
/// are 256 KiB per part, small beside the `ids` arena of any collection
/// worth indexing.
pub const DENSE_MAX_WIDTH: usize = 16;

/// Posting ranges [`PartIndex::probe`] resolves before walking any.
const RANGE_CHUNK: usize = 128;

/// How a part's signatures map to posting-list groups.
enum Keys {
    /// Group `k` holds signature `k` (every `w`-bit value has a group).
    Dense,
    /// Group `k` holds signature `keys[k]`; sorted, distinct.
    Sorted(Vec<u64>),
}

/// One part's posting lists: group `k` is
/// `ids[offsets[k]..offsets[k + 1]]`.
struct Postings {
    ids: Vec<u32>,
    offsets: Vec<u32>,
    keys: Keys,
}

impl Postings {
    /// Groups vector ids `0..sigs.len()` by their `width`-bit signature.
    fn build(sigs: &[u64], width: usize) -> Self {
        if width <= DENSE_MAX_WIDTH {
            // Counting sort: histogram, prefix sums, stable scatter.
            let mut offsets = vec![0u32; (1usize << width) + 1];
            for &s in sigs {
                offsets[s as usize + 1] += 1;
            }
            for k in 1..offsets.len() {
                offsets[k] += offsets[k - 1];
            }
            let mut next = offsets.clone();
            let mut ids = vec![0u32; sigs.len()];
            for (id, &s) in sigs.iter().enumerate() {
                let slot = &mut next[s as usize];
                ids[*slot as usize] = id as u32;
                *slot += 1;
            }
            return Postings {
                ids,
                offsets,
                keys: Keys::Dense,
            };
        }
        let mut pairs: Vec<(u64, u32)> = sigs.iter().copied().zip(0u32..).collect();
        pairs.sort_unstable();
        let mut keys = Vec::new();
        let mut offsets = Vec::new();
        for (pos, &(sig, _)) in pairs.iter().enumerate() {
            if keys.last() != Some(&sig) {
                keys.push(sig);
                offsets.push(pos as u32);
            }
        }
        offsets.push(pairs.len() as u32);
        Postings {
            ids: pairs.into_iter().map(|(_, id)| id).collect(),
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
        (self.ids.len() + self.offsets.len()) * size_of::<u32>() + keys
    }
}

/// Inverted index from part signatures to vector ids, one CSR posting
/// arena per part.
pub struct PartIndex {
    partitioning: Partitioning,
    parts: Vec<Postings>,
    len: usize,
}

impl PartIndex {
    /// Indexes every vector of `data` under every part signature.
    ///
    /// # Panics
    /// Panics if any vector's dimensionality disagrees with the
    /// partitioning, or if there are more than `u32::MAX` vectors.
    pub fn build(data: &[BitVector], partitioning: Partitioning) -> Self {
        assert!(data.len() <= u32::MAX as usize, "id space is u32");
        for (id, v) in data.iter().enumerate() {
            assert_eq!(
                v.dims(),
                partitioning.dims(),
                "vector {id} has wrong dimensionality"
            );
        }
        let mut sigs = vec![0u64; data.len()];
        let parts = partitioning
            .iter()
            .map(|(lo, hi)| {
                assert!(
                    hi - lo <= 64,
                    "indexed part widths must fit a u64 signature"
                );
                for (sig, v) in sigs.iter_mut().zip(data) {
                    *sig = v.part_signature(lo, hi);
                }
                Postings::build(&sigs, hi - lo)
            })
            .collect();
        PartIndex {
            partitioning,
            parts,
            len: data.len(),
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

    /// Heap bytes held by the posting arenas and their key tables.
    pub fn index_bytes(&self) -> usize {
        self.parts.iter().map(Postings::bytes).sum()
    }

    /// Probes every part `i` with radius `t[i]` around the query's
    /// signature, invoking `visit(part, distance, id)` for each matching
    /// vector (distance is the part's exact Hamming distance, known from
    /// the enumeration depth). Parts with `t[i] < 0` are skipped — an
    /// integer-reduced allocation may disable a part entirely. Returns the
    /// number of signatures enumerated (the probe cost `CC1`).
    pub fn probe(&self, q: &BitVector, t: &[i64], visit: impl FnMut(usize, u32, u32)) -> usize {
        self.probe_signatures(&self.partitioning.signatures(q), t, visit)
    }

    /// [`PartIndex::probe`] with the query's part signatures already
    /// extracted (`qsigs[i]` is the query's part-`i` signature) — the
    /// form the engine uses, since one query plan serves every shard.
    pub fn probe_signatures(
        &self,
        qsigs: &[u64],
        t: &[i64],
        mut visit: impl FnMut(usize, u32, u32),
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
        visit: &mut impl FnMut(usize, u32, u32),
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
                for &id in &postings.ids[lo as usize..hi as usize] {
                    visit(i, dist, id);
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
        let idx = PartIndex::build(&data, p);
        let q = BitVector::from_bit_str("0000 0000");

        let mut hits: Vec<(usize, u32, u32)> = Vec::new();
        idx.probe(&q, &[1, 0], |part, dist, id| hits.push((part, dist, id)));
        hits.sort_unstable();
        // Part 0 radius 1: ids 0 (d=0), 1 (d=1), 3 (d=0 in part 0).
        // Part 1 radius 0: ids 0, 1, 2 (all zero in part 1).
        assert_eq!(
            hits,
            vec![
                (0, 0, 0),
                (0, 0, 3),
                (0, 1, 1),
                (1, 0, 0),
                (1, 0, 1),
                (1, 0, 2)
            ]
        );
    }

    #[test]
    fn probe_skips_disabled_parts() {
        let data = vec![BitVector::from_bit_str("0000")];
        let idx = PartIndex::build(&data, Partitioning::equi_width(4, 2));
        let q = BitVector::from_bit_str("0000");
        let mut hits = 0;
        let probes = idx.probe(&q, &[-1, -1], |_, _, _| hits += 1);
        assert_eq!((hits, probes), (0, 0));
    }
}
