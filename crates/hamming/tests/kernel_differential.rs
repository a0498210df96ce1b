//! Differential gate for the Hamming kernels: the one-word-at-a-time
//! reference and the production batched kernel must agree bit-for-bit
//! on random inputs. Dimensions are drawn to straddle the 64-bit word
//! and 8-word batch boundaries (not multiples of 64 or 256 bits
//! included, and ≥ 512 so the batch loop itself runs), and τ is
//! exercised right at the early-abandon boundary (`d − 1`, `d`,
//! `d + 1`), where a kernel that abandons at the wrong granularity
//! would diverge. The served shape is among the inputs: 256-d (4
//! words) near-duplicate pairs and the 16 parts of 16 bits the chain
//! check measures.

use pigeonring_hamming::kernels;
use pigeonring_hamming::BitVector;
use proptest::prelude::*;

/// Dimension counts straddling the word (64-bit) and batch (512-bit)
/// boundaries, deliberately including non-multiples of 64 and 256. The
/// vendored proptest has no `prop_flat_map`, so tests draw `MAX_DIMS`
/// bits and truncate to the selected count.
const DIMS: [usize; 15] = [
    1, 7, 63, 64, 65, 127, 128, 200, 255, 256, 257, 511, 512, 513, 700,
];
const MAX_DIMS: usize = 700;

fn dims_strategy() -> impl Strategy<Value = usize> {
    prop::sample::select(DIMS.to_vec())
}

fn bits_strategy() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(prop::bool::ANY, MAX_DIMS)
}

fn truncate(bits: &[bool], dims: usize) -> BitVector {
    BitVector::from_bits(bits[..dims].iter().copied())
}

/// Reference and production `distance_within` on one input.
fn distance_tiers(a: &[u64], b: &[u64], tau: u32) -> [(&'static str, Option<u32>); 2] {
    [
        ("reference", kernels::distance_within_scalar(a, b, tau)),
        ("production", kernels::distance_within(a, b, tau)),
    ]
}

/// Reference and production `part_distance` on one input.
fn part_tiers(a: &[u64], b: &[u64], lo: usize, hi: usize) -> [(&'static str, u32); 2] {
    [
        ("reference", kernels::part_distance_scalar(a, b, lo, hi)),
        ("production", kernels::part_distance(a, b, lo, hi)),
    ]
}

/// Deterministic xorshift stream for the pinned cases.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn distance_within_tiers_agree_on_random_vectors(
        dims in dims_strategy(),
        bits_a in bits_strategy(),
        bits_b in bits_strategy(),
        extra_tau in 0u32..700,
    ) {
        let a = truncate(&bits_a, dims);
        // Two partners: an unrelated vector (d ≈ dims / 2) and a
        // near-duplicate of `a` (≈ dims / 16 flipped bits), the kind of
        // pair a served candidate is.
        let near = BitVector::from_bits(
            (0..dims).map(|i| bits_a[i] != (bits_b[i] && i % 8 == 0)),
        );
        for b in [truncate(&bits_b, dims), near] {
            let (aw, bw) = (a.words(), b.words());
            let d = a.distance(&b);
            // τ at and around the early-abandon boundary plus a random
            // one: where batch-granularity abandon could diverge.
            for tau in [d.saturating_sub(1), d, d + 1, extra_tau] {
                let expected = if d <= tau { Some(d) } else { None };
                for (name, got) in distance_tiers(aw, bw, tau) {
                    prop_assert_eq!(
                        got, expected,
                        "tier {} diverged at dims={} tau={} d={}", name, dims, tau, d
                    );
                }
            }
        }
    }

    #[test]
    fn part_distance_tiers_agree_on_random_ranges(
        dims in dims_strategy(),
        bits_a in bits_strategy(),
        bits_b in bits_strategy(),
        lo_seed in 0usize..=1000,
        hi_seed in 0usize..=1000,
    ) {
        let (a, b) = (truncate(&bits_a, dims), truncate(&bits_b, dims));
        let (aw, bw) = (a.words(), b.words());
        let lo = lo_seed % (dims + 1);
        let hi = lo + hi_seed % (dims + 1 - lo);
        // Naive per-bit reference for the range.
        let naive: u32 = (lo..hi).map(|i| (a.get(i) != b.get(i)) as u32).sum();
        for (name, got) in part_tiers(aw, bw, lo, hi) {
            prop_assert_eq!(
                got, naive,
                "tier {} diverged at dims={} range=[{}, {})", name, dims, lo, hi
            );
        }
    }
}

#[test]
fn part_distance_tiers_agree_on_pinned_boundaries() {
    // Deterministic sweep of the mask edge cases on a ragged shape —
    // lo/hi in one word, word-aligned lo/hi, hi == dims on a ragged
    // tail, zero width — and the served shape's 16 × 16-bit parts.
    let ragged = 519; // 8 words + 7 live tail bits: not a multiple of 64 or 256
    let ragged_ranges = vec![
        (0, 0),
        (0, ragged),
        (1, 31),
        (1, 32),
        (30, 31),
        (63, 64),
        (63, 65),
        (64, 65),
        (64, 512),
        (67, 517),
        (512, ragged),
        (518, ragged),
        (ragged, ragged),
    ];
    let served_parts = (0..16).map(|p| (p * 16, p * 16 + 16)).collect();
    let mut next = xorshift(0xD1FF);
    for (dims, ranges) in [(ragged, ragged_ranges), (256, served_parts)] {
        let a = BitVector::from_bits((0..dims).map(|_| next() % 2 == 0));
        let b = BitVector::from_bits((0..dims).map(|_| next() % 3 == 0));
        let (aw, bw) = (a.words(), b.words());
        for (lo, hi) in ranges {
            let naive: u32 = (lo..hi).map(|i| (a.get(i) != b.get(i)) as u32).sum();
            for (name, got) in part_tiers(aw, bw, lo, hi) {
                assert_eq!(
                    got, naive,
                    "tier {name} diverged at dims={dims} [{lo}, {hi})"
                );
            }
        }
    }
}
