//! XOR+popcount distance kernels over packed `u64` words.
//!
//! One production kernel per job, plus the original one-word-at-a-time
//! loop kept as the differential-testing reference
//! (`tests/kernel_differential.rs` checks them bit-for-bit):
//!
//! * [`distance_within`] / [`part_distance`] — [`BATCH_WORDS`] words per
//!   iteration as four independent popcount accumulator lanes (ILP: the
//!   popcounts have no data dependency), threshold checked once per
//!   batch. Early abandon is preserved at batch granularity: a batch
//!   that pushes the running distance past `τ` still returns `None`, it
//!   just detects it up to seven words later — the *returned value* is
//!   identical because a pass (total ≤ τ) never triggers either exit.
//! * [`distance_within_scalar`] / [`part_distance_scalar`] — the
//!   reference loops.
//!
//! A served 256-d vector is 4 words, so there the batch loop runs zero
//! iterations and the remainder loop does the work: a `direct` query
//! verifies ≈ 26 candidates at ≈ 16 ns each, against a ≈ 170 µs p50
//! end to end. That is why there is no wider SIMD tier — the budget
//! says this layer does not dominate.
//!
//! Nothing here is `unsafe`; the only `unsafe` in `crates/*/src` is the
//! server's readiness-syscall FFI (`crates/server/src/sys.rs`).

/// Words per batched-kernel iteration (512 bits).
pub const BATCH_WORDS: usize = 8;

/// The kernel backend [`distance_within`]/[`part_distance`] run on —
/// there is one. The repo benchmark records it in its environment
/// block.
pub fn backend() -> &'static str {
    "batched-scalar"
}

/// Early-abandoning Hamming distance over packed words: `Some(d)` iff
/// `d ≤ tau`. [`BATCH_WORDS`]-word iterations, four accumulator lanes,
/// threshold checked once per batch (see module docs).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn distance_within(a: &[u64], b: &[u64], tau: u32) -> Option<u32> {
    assert_eq!(a.len(), b.len(), "word-count mismatch");
    let mut acc = 0u32;
    let mut chunks_a = a.chunks_exact(BATCH_WORDS);
    let mut chunks_b = b.chunks_exact(BATCH_WORDS);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        acc += batch_popcount(ca, cb);
        if acc > tau {
            return None;
        }
    }
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        acc += (x ^ y).count_ones();
    }
    (acc <= tau).then_some(acc)
}

/// Reference kernel: one word at a time, threshold checked per word.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn distance_within_scalar(a: &[u64], b: &[u64], tau: u32) -> Option<u32> {
    assert_eq!(a.len(), b.len(), "word-count mismatch");
    let mut acc = 0u32;
    for (x, y) in a.iter().zip(b) {
        acc += (x ^ y).count_ones();
        if acc > tau {
            return None;
        }
    }
    Some(acc)
}

/// Popcount of `a ^ b` restricted to dimensions `[lo, hi)`: only the
/// boundary words are masked; the interior whole words run the
/// unmasked batched popcount.
///
/// # Panics
/// Panics if the slices differ in length or the range exceeds them.
pub fn part_distance(a: &[u64], b: &[u64], lo: usize, hi: usize) -> u32 {
    assert_eq!(a.len(), b.len(), "word-count mismatch");
    assert!(lo <= hi && hi <= a.len() * 64, "invalid part range");
    if lo == hi {
        return 0;
    }
    let wlo = lo / 64;
    let whi = (hi - 1) / 64; // inclusive index of the last touched word
    let lo_mask = !0u64 << (lo % 64);
    let hi_bits = hi - whi * 64; // 1..=64 live bits in the last word
    let hi_mask = if hi_bits == 64 {
        !0u64
    } else {
        (1u64 << hi_bits) - 1
    };
    if wlo == whi {
        return ((a[wlo] ^ b[wlo]) & lo_mask & hi_mask).count_ones();
    }
    let head = ((a[wlo] ^ b[wlo]) & lo_mask).count_ones();
    let tail = ((a[whi] ^ b[whi]) & hi_mask).count_ones();
    head + tail + unmasked_popcount(&a[wlo + 1..whi], &b[wlo + 1..whi])
}

/// Reference part kernel: every word in the range is masked and counted
/// individually (the original [`BitVector::part_distance`] loop).
///
/// # Panics
/// Panics if the slices differ in length or the range exceeds them.
///
/// [`BitVector::part_distance`]: crate::BitVector::part_distance
pub fn part_distance_scalar(a: &[u64], b: &[u64], lo: usize, hi: usize) -> u32 {
    assert_eq!(a.len(), b.len(), "word-count mismatch");
    assert!(lo <= hi && hi <= a.len() * 64, "invalid part range");
    let mut acc = 0u32;
    let (wlo, whi) = (lo / 64, hi.div_ceil(64));
    for w in wlo..whi {
        let mut x = a[w] ^ b[w];
        let word_base = w * 64;
        // Mask off bits below lo in the first word and ≥ hi in the last.
        if lo > word_base {
            x &= !0u64 << (lo - word_base);
        }
        if hi < word_base + 64 {
            x &= (1u64 << (hi - word_base)) - 1;
        }
        acc += x.count_ones();
    }
    acc
}

/// Unmasked XOR+popcount over whole words, [`BATCH_WORDS`] per
/// iteration (no threshold — the part kernel's interior).
fn unmasked_popcount(a: &[u64], b: &[u64]) -> u32 {
    let mut acc = 0u32;
    let mut chunks_a = a.chunks_exact(BATCH_WORDS);
    let mut chunks_b = b.chunks_exact(BATCH_WORDS);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        acc += batch_popcount(ca, cb);
    }
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        acc += (x ^ y).count_ones();
    }
    acc
}

/// XOR+popcount of one [`BATCH_WORDS`]-word batch as four independent
/// lanes: the popcounts carry no dependency, so the CPU overlaps them;
/// one chained accumulator would serialize.
#[inline]
fn batch_popcount(ca: &[u64], cb: &[u64]) -> u32 {
    let l0 = (ca[0] ^ cb[0]).count_ones() + (ca[4] ^ cb[4]).count_ones();
    let l1 = (ca[1] ^ cb[1]).count_ones() + (ca[5] ^ cb[5]).count_ones();
    let l2 = (ca[2] ^ cb[2]).count_ones() + (ca[6] ^ cb[6]).count_ones();
    let l3 = (ca[3] ^ cb[3]).count_ones() + (ca[7] ^ cb[7]).count_ones();
    (l0 + l1) + (l2 + l3)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic word patterns exercising dense, sparse, and
    /// boundary-bit layouts.
    fn words(n: usize, seed: u64) -> Vec<u64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            })
            .collect()
    }

    #[test]
    fn batched_matches_scalar_across_lengths_and_taus() {
        for n in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 64] {
            let a = words(n, 0xA5);
            let b = words(n, 0x5A);
            let full: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
            for tau in [0, full.saturating_sub(1), full, full + 1, full + 100] {
                let want = distance_within_scalar(&a, &b, tau);
                assert_eq!(distance_within(&a, &b, tau), want, "n={n} tau={tau}");
            }
        }
    }

    #[test]
    fn part_batched_matches_scalar_on_boundaries() {
        let n = 9; // 576 dims: not a multiple of 256
        let a = words(n, 0xBEEF);
        let b = words(n, 0xF00D);
        let dims = n * 64;
        let ranges = [
            (0, 0),
            (0, dims),
            (3, 3),
            (0, 64),
            (64, 128),
            (1, 63),  // same word, both masks
            (63, 65), // straddle
            (60, 580 - 4),
            (512, dims), // tail words only
            (130, 131),
        ];
        for (lo, hi) in ranges {
            let want = part_distance_scalar(&a, &b, lo, hi);
            assert_eq!(part_distance(&a, &b, lo, hi), want, "[{lo},{hi})");
        }
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(backend(), "batched-scalar");
    }
}
