//! Flat vector arena: every record's packed words in one allocation.
//!
//! The second step of candidate generation (§7) extends a chain by
//! computing box values `b_j(x, q) = H(x^j, q^j)` on the fly. With one
//! heap `Vec` per [`BitVector`] each box costs a pointer chase plus the
//! generic range-splitting part kernel; here record `id` occupies
//! `words[id · stride .. (id + 1) · stride]` (`stride = ⌈d/64⌉`) and each
//! part's *geometry* — which word, which shift, which mask — is resolved
//! once at build. A box value is then
//! `popcount(signature(x, j) ^ signature(q, j))`: one or two loads from a
//! line that is already in cache after the first box of the record, no
//! dispatch, no range arithmetic. The result equals
//! [`BitVector::part_distance`] bit for bit (differentially tested in
//! `tests/index_differential.rs`).

use crate::bitvec::BitVector;
use crate::partition::Partitioning;

/// Where one part's bits live inside a record's words.
#[derive(Clone, Copy, Debug)]
struct PartGeometry {
    /// Word holding the part's lowest dimension.
    word: usize,
    /// Bit position of that dimension within `word`.
    shift: u32,
    /// The part's bits that live in `word`, after shifting down.
    mask: u64,
    /// The part's bits in `word + 1`; zero unless the part straddles a
    /// word boundary (then `shift > 0`).
    spill: u64,
}

/// The `n` low bits set (`n ≤ 64`).
fn low_bits(n: usize) -> u64 {
    if n == 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

/// All records' words, contiguous, with per-part extraction geometry.
pub struct VectorArena {
    words: Vec<u64>,
    stride: usize,
    parts: Vec<PartGeometry>,
}

impl VectorArena {
    /// Copies `data` into one flat allocation and resolves the geometry
    /// of every part of `partitioning`.
    ///
    /// # Panics
    /// Panics if a vector's dimensionality disagrees with the
    /// partitioning or a part is wider than 64 bits (a part's bits are
    /// handled as one `u64` signature).
    pub fn build(data: &[BitVector], partitioning: &Partitioning) -> Self {
        let stride = partitioning.dims().div_ceil(64);
        let mut words = Vec::with_capacity(data.len() * stride);
        for (id, v) in data.iter().enumerate() {
            assert_eq!(
                v.dims(),
                partitioning.dims(),
                "vector {id} has wrong dimensionality"
            );
            words.extend_from_slice(v.words());
        }
        let parts = partitioning
            .iter()
            .map(|(lo, hi)| {
                let width = hi - lo;
                assert!(width <= 64, "part widths must fit a u64 signature");
                let shift = lo % 64;
                let in_first = width.min(64 - shift);
                PartGeometry {
                    word: lo / 64,
                    shift: shift as u32,
                    mask: low_bits(in_first),
                    spill: low_bits(width - in_first),
                }
            })
            .collect();
        VectorArena {
            words,
            stride,
            parts,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    /// Whether the arena holds no record.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of parts whose geometry the arena resolved.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// The packed words of record `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn record(&self, id: usize) -> &[u64] {
        &self.words[id * self.stride..(id + 1) * self.stride]
    }

    /// The bits of part `part` of record `id`, packed like
    /// [`BitVector::part_signature`].
    ///
    /// # Panics
    /// Panics if `id` or `part` is out of range.
    #[inline]
    pub fn part_signature(&self, id: usize, part: usize) -> u64 {
        let g = self.parts[part];
        let at = id * self.stride + g.word;
        let mut sig = (self.words[at] >> g.shift) & g.mask;
        if g.spill != 0 {
            sig |= (self.words[at + 1] & g.spill) << (64 - g.shift);
        }
        sig
    }

    /// The box value `H(x^part, q^part)` of record `id` against a query
    /// whose part signature is `qsig` — equal to
    /// [`BitVector::part_distance`] over the part's range.
    ///
    /// # Panics
    /// Panics if `id` or `part` is out of range.
    #[inline]
    pub fn box_value(&self, id: usize, part: usize, qsig: u64) -> u32 {
        (self.part_signature(id, part) ^ qsig).count_ones()
    }

    /// Heap bytes held by the arena (`8 · stride` per record).
    pub fn bytes(&self) -> usize {
        self.words.len() * size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_of_a_straddling_part() {
        // d = 100, m = 7: part 4 is [58, 72) — 6 bits in word 0, 8 in word 1.
        let p = Partitioning::equi_width(100, 7);
        assert_eq!(p.part(4), (58, 72));
        let mut x = BitVector::zeros(100);
        for i in [58, 63, 64, 71, 72] {
            x.flip(i);
        }
        let arena = VectorArena::build(std::slice::from_ref(&x), &p);
        assert_eq!(arena.part_signature(0, 4), x.part_signature(58, 72));
        assert_eq!(arena.box_value(0, 4, 0), 4); // bit 72 belongs to part 5
        assert_eq!(arena.bytes(), 16);
    }

    #[test]
    fn full_word_parts_use_the_whole_mask() {
        let p = Partitioning::equi_width(128, 2);
        let mut x = BitVector::zeros(128);
        x.flip(0);
        x.flip(63);
        x.flip(127);
        let arena = VectorArena::build(std::slice::from_ref(&x), &p);
        assert_eq!(arena.part_signature(0, 0), x.part_signature(0, 64));
        assert_eq!(arena.part_signature(0, 1), 1u64 << 63);
        assert_eq!(arena.record(0), x.words());
    }
}
