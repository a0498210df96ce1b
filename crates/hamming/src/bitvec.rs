//! Packed binary vectors with popcount-based Hamming distance.
//!
//! Dimensions are stored little-endian within `u64` words: dimension `i`
//! is bit `i % 64` of word `i / 64`. All distance kernels are branch-free
//! XOR+popcount loops, matching the paper's implementation remark for
//! §6.1 ("count the number of bits set to 1 in `xᵢ` bitwise XOR `qᵢ` …
//! by a built-in popcount").

/// A fixed-dimension binary vector packed into `u64` words.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BitVector {
    dims: usize,
    words: Vec<u64>,
}

impl BitVector {
    /// A zero vector with `dims` dimensions.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    pub fn zeros(dims: usize) -> Self {
        assert!(dims > 0, "vector must have at least one dimension");
        BitVector {
            dims,
            words: vec![0; dims.div_ceil(64)],
        }
    }

    /// Parses a vector from a string of `'0'`/`'1'` characters
    /// (dimension 0 first); whitespace is ignored, so the paper's
    /// part-separated notation (`"11 11 10 11 10"`) parses directly.
    ///
    /// # Panics
    /// Panics on any other character or an empty string.
    pub fn from_bit_str(s: &str) -> Self {
        let bits: Vec<bool> = s
            .chars()
            .filter(|c| !c.is_whitespace())
            .map(|c| match c {
                '0' => false,
                '1' => true,
                other => panic!("invalid bit character {other:?}"),
            })
            .collect();
        let mut v = BitVector::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Reconstructs a vector from its packed-word representation (the
    /// inverse of [`BitVector::words`]; used by the `pigeonring-server`
    /// wire decoder).
    ///
    /// Returns `None` — rather than panicking — when the encoding is
    /// invalid: `dims == 0`, a word count that does not match `dims`, or
    /// stray set bits past dimension `dims - 1` (those would silently
    /// corrupt distance computations).
    pub fn from_words(dims: usize, words: Vec<u64>) -> Option<Self> {
        if dims == 0 || words.len() != dims.div_ceil(64) {
            return None;
        }
        let tail_bits = dims % 64;
        if tail_bits != 0 {
            let last = words[words.len() - 1];
            if last >> tail_bits != 0 {
                return None;
            }
        }
        Some(BitVector { dims, words })
    }

    /// Builds a vector from an iterator of booleans.
    pub fn from_bits(bits: impl IntoIterator<Item = bool>) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut v = BitVector::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// The number of dimensions `d`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The packed words (read-only).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Value of dimension `i`.
    ///
    /// # Panics
    /// Panics if `i ≥ dims`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.dims, "dimension out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets dimension `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i ≥ dims`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.dims, "dimension out of range");
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips dimension `i`.
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.dims, "dimension out of range");
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Full Hamming distance `H(x, q)`.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn distance(&self, other: &BitVector) -> u32 {
        assert_eq!(self.dims, other.dims, "dimension mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Hamming distance with early abandon: returns `None` as soon as
    /// the running distance exceeds `tau` (verification fast path).
    /// Runs the batched kernel [`crate::kernels::distance_within`]; the
    /// abandon check fires at batch granularity, which never changes the
    /// result.
    pub fn distance_within(&self, other: &BitVector, tau: u32) -> Option<u32> {
        assert_eq!(self.dims, other.dims, "dimension mismatch");
        crate::kernels::distance_within(&self.words, &other.words, tau)
    }

    /// Hamming distance restricted to dimensions `[lo, hi)` — one box
    /// value `b_i(x, q) = H(x^i, q^i)` for a part `[lo, hi)`. Boundary
    /// words are masked; interior words run the batched kernel
    /// [`crate::kernels::part_distance`].
    ///
    /// # Panics
    /// Panics if the range is invalid or out of bounds.
    pub fn part_distance(&self, other: &BitVector, lo: usize, hi: usize) -> u32 {
        assert!(lo <= hi && hi <= self.dims, "invalid part range");
        assert_eq!(self.dims, other.dims, "dimension mismatch");
        crate::kernels::part_distance(&self.words, &other.words, lo, hi)
    }

    /// The bits of part `[lo, hi)` packed into a `u64` signature (used as
    /// the index key). Requires a part width of at most 64.
    ///
    /// # Panics
    /// Panics if the range is invalid or wider than 64 bits.
    pub fn part_signature(&self, lo: usize, hi: usize) -> u64 {
        assert!(lo < hi && hi <= self.dims, "invalid part range");
        let width = hi - lo;
        assert!(width <= 64, "part signatures support at most 64 bits");
        let wlo = lo / 64;
        let off = lo % 64;
        let mut sig = self.words[wlo] >> off;
        if off != 0 && wlo + 1 < self.words.len() {
            sig |= self.words[wlo + 1] << (64 - off);
        }
        if width < 64 {
            sig &= (1u64 << width) - 1;
        }
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_access() {
        let v = BitVector::from_bit_str("10 01");
        assert_eq!(v.dims(), 4);
        assert!(v.get(0));
        assert!(!v.get(1));
        assert!(!v.get(2));
        assert!(v.get(3));
    }

    #[test]
    fn distance_matches_naive() {
        let x = BitVector::from_bit_str("11111010");
        let q = BitVector::from_bit_str("00101011");
        let naive: u32 = (0..8).map(|i| (x.get(i) != q.get(i)) as u32).sum();
        assert_eq!(x.distance(&q), naive);
    }

    #[test]
    fn distance_within_abandons() {
        let mut x = BitVector::zeros(256);
        let q = BitVector::zeros(256);
        for i in 0..80 {
            x.flip(i);
        }
        assert_eq!(x.distance(&q), 80);
        assert_eq!(x.distance_within(&q, 80), Some(80));
        assert_eq!(x.distance_within(&q, 79), None);
    }

    #[test]
    fn part_distance_sums_to_total() {
        let x = BitVector::from_bit_str("1111101001011100");
        let q = BitVector::from_bit_str("0010101101110001");
        let total: u32 = (0..4)
            .map(|i| x.part_distance(&q, i * 4, (i + 1) * 4))
            .sum();
        assert_eq!(total, x.distance(&q));
    }

    #[test]
    fn part_distance_across_word_boundary() {
        let mut x = BitVector::zeros(128);
        let q = BitVector::zeros(128);
        x.flip(62);
        x.flip(63);
        x.flip(64);
        x.flip(65);
        assert_eq!(x.part_distance(&q, 60, 70), 4);
        assert_eq!(x.part_distance(&q, 63, 65), 2);
        assert_eq!(x.part_distance(&q, 0, 62), 0);
        assert_eq!(x.part_distance(&q, 66, 128), 0);
    }

    #[test]
    fn part_distance_mask_edges_pinned() {
        // Pinned regression cases for the mask edge cases the
        // batched kernel must reproduce exactly (ISSUE 6).
        let dims = 200; // not a multiple of 64 (tail word has 8 live bits)
        let mut x = BitVector::zeros(dims);
        let q = BitVector::zeros(dims);
        for i in [0, 1, 30, 31, 62, 63, 64, 100, 127, 128, 190, 198, 199] {
            x.flip(i);
        }
        // lo and hi inside the same word (both masks on one word).
        assert_eq!(x.part_distance(&q, 1, 32), 3); // bits 1, 30, 31
        assert_eq!(x.part_distance(&q, 1, 31), 2); // bits 1, 30
        assert_eq!(x.part_distance(&q, 30, 31), 1);
        // hi == dims on a ragged tail word.
        assert_eq!(x.part_distance(&q, 190, dims), 3); // bits 190, 198, 199
        assert_eq!(x.part_distance(&q, 199, dims), 1);
        // Zero-width parts anywhere, including word boundaries.
        for lo in [0, 1, 63, 64, 65, 128, dims] {
            assert_eq!(x.part_distance(&q, lo, lo), 0, "zero width at {lo}");
        }
        // Whole-range part equals the full distance.
        assert_eq!(x.part_distance(&q, 0, dims), x.distance(&q));
        // Word-aligned lo with ragged hi and vice versa.
        assert_eq!(x.part_distance(&q, 64, 190), 4); // bits 64, 100, 127, 128
        assert_eq!(x.part_distance(&q, 63, 64), 1);
        assert_eq!(x.part_distance(&q, 64, 65), 1);
    }

    #[test]
    fn part_signature_roundtrip() {
        let v = BitVector::from_bit_str("1011001110001111");
        // Part [4, 12) has bits 0,0,1,1,1,0,0,0 (dims 4..11) → LSB-first.
        let sig = v.part_signature(4, 12);
        for (k, d) in (4..12).enumerate() {
            assert_eq!((sig >> k) & 1 == 1, v.get(d), "bit {d}");
        }
    }

    #[test]
    fn part_signature_straddles_words() {
        let mut v = BitVector::zeros(128);
        v.flip(63);
        v.flip(64);
        let sig = v.part_signature(60, 76);
        assert_eq!(sig, 0b11000); // bits 3 and 4 of the 16-bit window
    }

    #[test]
    fn from_words_round_trips_and_rejects_invalid() {
        let v = BitVector::from_bit_str("1011 0110 1100 0001 111");
        let back = BitVector::from_words(v.dims(), v.words().to_vec()).expect("valid encoding");
        assert_eq!(back, v);
        // dims = 0, wrong word count, stray bits past dims: all rejected.
        assert!(BitVector::from_words(0, vec![]).is_none());
        assert!(BitVector::from_words(65, vec![0]).is_none());
        assert!(BitVector::from_words(64, vec![0, 0]).is_none());
        assert!(BitVector::from_words(3, vec![0b1000]).is_none());
        assert!(BitVector::from_words(3, vec![0b0111]).is_some());
    }

    #[test]
    fn table2_example_vectors() {
        // Table 2 of the paper: the five parts of x¹ vs q give the box
        // layout (2, 1, 2, 2, 1) used throughout §3.
        let x1 = BitVector::from_bit_str("11 11 10 11 10");
        let q = BitVector::from_bit_str("00 10 01 00 11");
        let boxes: Vec<u32> = (0..5)
            .map(|i| x1.part_distance(&q, i * 2, (i + 1) * 2))
            .collect();
        assert_eq!(boxes, vec![2, 1, 2, 2, 1]);
        assert_eq!(x1.distance(&q), 8);
    }
}
