//! Differential tests for the contiguous Hamming layouts: the CSR part
//! index against a `BTreeMap` reference index, and the flat vector
//! arena's box values against `BitVector::part_distance`.
//!
//! The shapes cover every lookup and geometry case: dense keys with
//! widths below and at the 16-bit limit, sorted keys above it (17-, 32-
//! and full-word 64-bit parts), parts straddling a 64-bit word boundary
//! (`d = 100, m = 7`), a mix of parts with and without the ring-next
//! signature column (`d = 100, m = 6`), and a single part that is its
//! own ring-next part (`m = 1`).

use std::collections::BTreeMap;

use pigeonring_hamming::arena::VectorArena;
use pigeonring_hamming::index::{enumerate_within, PartIndex, DENSE_MAX_WIDTH};
use pigeonring_hamming::{AllocationStrategy, BitVector, Partitioning, RingHamming};
use proptest::prelude::*;

/// `(d, m)`: widths 8, 16, 32, 14–15 (straddling), 64, 16–17 (only
/// parts 3 and 4 carry the ring-next column, part 3 under sorted keys)
/// and one 64-bit part.
const SHAPES: [(usize, usize); 7] = [
    (64, 8),
    (256, 16),
    (256, 8),
    (100, 7),
    (128, 2),
    (100, 6),
    (64, 1),
];

/// A `d`-dimensional vector from a small seed pool (so signatures
/// collide and posting lists hold several ids), with one optional flip.
fn vector(d: usize, seed: u64, flip: usize) -> BitVector {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut v = BitVector::from_bits((0..d).map(|_| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state & 1 == 1
    }));
    if flip < d {
        v.flip(flip);
    }
    v
}

fn dataset(d: usize, seeds: &[u64], flips: &[usize]) -> Vec<BitVector> {
    seeds
        .iter()
        .zip(flips)
        .map(|(&s, &f)| vector(d, s, f % (2 * d)))
        .collect()
}

/// The index this crate shipped before the CSR layout, minus the hasher:
/// one ordered map per part, posting lists in insertion (id) order. Each
/// hit carries the record's ring-next part signature when that part is
/// at most `DENSE_MAX_WIDTH` bits wide, else 0.
fn reference_probe(
    data: &[BitVector],
    p: &Partitioning,
    q: &BitVector,
    t: &[i64],
) -> (usize, Vec<(usize, u32, u32, u16)>) {
    let mut maps: Vec<BTreeMap<u64, Vec<u32>>> = vec![BTreeMap::new(); p.num_parts()];
    for (id, v) in data.iter().enumerate() {
        for (i, (lo, hi)) in p.iter().enumerate() {
            maps[i]
                .entry(v.part_signature(lo, hi))
                .or_default()
                .push(id as u32);
        }
    }
    let (mut probes, mut hits) = (0, Vec::new());
    for (i, (lo, hi)) in p.iter().enumerate() {
        if t[i] < 0 {
            continue;
        }
        let qsig = q.part_signature(lo, hi);
        let (next_lo, next_hi) = p.part((i + 1) % p.num_parts());
        let next = |id: u32| {
            if next_hi - next_lo <= DENSE_MAX_WIDTH {
                data[id as usize].part_signature(next_lo, next_hi) as u16
            } else {
                0
            }
        };
        enumerate_within(qsig, hi - lo, t[i] as usize, &mut |sig, dist| {
            probes += 1;
            for &id in maps[i].get(&sig).map_or(&[][..], Vec::as_slice) {
                hits.push((i, dist, id, next(id)));
            }
        });
    }
    (probes, hits)
}

/// Radius 8 over 8-bit parts enumerates all 256 signatures, nearly all
/// occupied by 2 000 records: far more posting ranges than the probe
/// resolves per chunk, so chunk boundaries must not reorder visits.
#[test]
fn probe_order_survives_range_chunking() {
    let (d, m) = (64, 8);
    let data: Vec<BitVector> = (0..2_000).map(|s| vector(d, s, usize::MAX)).collect();
    let p = Partitioning::equi_width(d, m);
    let q = vector(d, 5_000, usize::MAX);
    let t = [8, -1, 4, 0, 8, 1, -1, 5];
    let index = PartIndex::build(&VectorArena::build(&data, &p), p.clone());
    let (expect_probes, expect) = reference_probe(&data, &p, &q, &t);
    assert!(expect.len() > 2 * 2_000);
    let mut got = Vec::new();
    let probes = index.probe_signatures(&p.signatures(&q), &t, |part, dist, id, next| {
        got.push((part, dist, id, next));
    });
    assert_eq!(probes, expect_probes);
    assert_eq!(got, expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_probe_matches_btreemap_reference(
        shape in 0usize..SHAPES.len(),
        seeds in prop::collection::vec(0u64..12, 1..80),
        flips in prop::collection::vec(0usize..1024, 80),
        qseed in 0u64..14,
        qflip in 0usize..1024,
        radii in prop::collection::vec(-1i64..=3, 16),
    ) {
        let (d, m) = SHAPES[shape];
        let data = dataset(d, &seeds, &flips);
        let p = Partitioning::equi_width(d, m);
        let q = vector(d, qseed, qflip % (2 * d));
        // 64-bit parts: C(64, 3) signatures per part is test time better
        // spent elsewhere.
        let cap = if d / m == 64 { 2 } else { 3 };
        let t: Vec<i64> = radii[..m].iter().map(|&r| r.min(cap)).collect();

        let index = PartIndex::build(&VectorArena::build(&data, &p), p.clone());
        let (expect_probes, expect) = reference_probe(&data, &p, &q, &t);

        let mut got = Vec::new();
        let probes = index.probe_signatures(&p.signatures(&q), &t, |part, dist, id, next| {
            got.push((part, dist, id, next));
        });
        prop_assert_eq!(probes, expect_probes, "d={} m={} t={:?}", d, m, t);
        prop_assert_eq!(&got, &expect, "d={} m={} t={:?}", d, m, t);
    }

    #[test]
    fn arena_box_values_match_part_distance(
        shape in 0usize..SHAPES.len(),
        seeds in prop::collection::vec(0u64..1_000_000, 2..24),
        flips in prop::collection::vec(0usize..1024, 24),
    ) {
        let (d, m) = SHAPES[shape];
        let data = dataset(d, &seeds, &flips);
        let p = Partitioning::equi_width(d, m);
        let arena = VectorArena::build(&data, &p);
        for (id, x) in data.iter().enumerate() {
            prop_assert_eq!(arena.record(id), x.words());
            for q in &data {
                for (part, (lo, hi)) in p.iter().enumerate() {
                    prop_assert_eq!(arena.part_signature(id, part), x.part_signature(lo, hi));
                    prop_assert_eq!(
                        arena.box_value(id, part, q.part_signature(lo, hi)),
                        x.part_distance(q, lo, hi),
                        "d={} m={} id={} part={}", d, m, id, part
                    );
                }
            }
        }
    }

    /// Every part dense and carrying the ring-next column: `6n` bytes of
    /// ids and next signatures plus `2^w + 1` offsets per part, and the
    /// arena's `8 · stride` bytes per record.
    #[test]
    fn dense_index_bytes_are_bounded(
        shape in 0usize..SHAPES.len(),
        seeds in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let (d, m) = SHAPES[shape];
        let w = d.div_ceil(m);
        prop_assume!(w <= DENSE_MAX_WIDTH);
        let flips = vec![0; seeds.len()];
        let data = dataset(d, &seeds, &flips);
        let n = data.len();
        let engine = RingHamming::build(data, m, AllocationStrategy::Even);
        let parts: usize = Partitioning::equi_width(d, m)
            .iter()
            .map(|(lo, hi)| 6 * n + 4 * ((1usize << (hi - lo)) + 1))
            .sum();
        let expect = parts + 8 * d.div_ceil(64) * n;
        prop_assert_eq!(engine.index_bytes(), expect, "d={} m={} n={}", d, m, n);
    }
}
