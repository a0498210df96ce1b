//! Number-for-number reproduction of the paper's worked Hamming examples
//! (Table 2, Examples 2, 3, 5, and 9).

use crate::alloc::AllocationStrategy;
use crate::bitvec::BitVector;
use crate::engine::{HammingScratch, RingHamming};
use crate::partition::Partitioning;
use pigeonring_core::viability::{
    check_prefix_viable, find_prefix_viable, Direction, ThresholdScheme,
};

fn table2() -> (Vec<BitVector>, BitVector) {
    let data = vec![
        BitVector::from_bit_str("11 11 10 11 10"), // x¹
        BitVector::from_bit_str("00 01 01 11 10"), // x²
        BitVector::from_bit_str("01 01 10 01 10"), // x³
        BitVector::from_bit_str("11 01 10 11 00"), // x⁴
    ];
    let q = BitVector::from_bit_str("00 10 01 00 11");
    (data, q)
}

fn boxes(x: &BitVector, q: &BitVector, p: &Partitioning) -> Vec<i64> {
    p.iter()
        .map(|(lo, hi)| x.part_distance(q, lo, hi) as i64)
        .collect()
}

#[test]
fn example_2_pigeonhole_candidates() {
    // Example 2: τ = 5, m = 5. x¹, x², x³ are candidates under the plain
    // pigeonhole condition H(xⁱ, qⁱ) ≤ 1; distances are 8, 5, 7, and only
    // x² is a result.
    let (data, q) = table2();
    let p = Partitioning::equi_width(10, 5);
    let scheme = ThresholdScheme::uniform(5i64, 5);
    let candidates: Vec<usize> = data
        .iter()
        .enumerate()
        .filter(|(_, x)| find_prefix_viable(&boxes(x, &q, &p), &scheme, Direction::Le, 1).is_some())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(candidates, vec![0, 1, 2]);
    assert_eq!(data[0].distance(&q), 8);
    assert_eq!(data[1].distance(&q), 5);
    assert_eq!(data[2].distance(&q), 7);
    let results: Vec<usize> = data
        .iter()
        .enumerate()
        .filter(|(_, x)| x.distance(&q) <= 5)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(results, vec![1]);
}

#[test]
fn example_3_two_box_chains_filter_x1() {
    // Example 3: for x¹ the length-2 chain sums are 3, 3, 4, 3, 3; all
    // exceed the quota 2·τ/m = 2, so x¹ is filtered by the basic form.
    let (data, q) = table2();
    let p = Partitioning::equi_width(10, 5);
    let b = boxes(&data[0], &q, &p);
    assert_eq!(b, vec![2, 1, 2, 2, 1]);
    let sums = pigeonring_core::ring::window_sums(&b, 2);
    assert_eq!(sums, vec![3, 3, 4, 3, 3]);
    let scheme = ThresholdScheme::uniform(5i64, 5);
    assert!(
        pigeonring_core::viability::find_viable_window(&b, &scheme, Direction::Le, 2).is_none()
    );
}

#[test]
fn example_5_box_layouts_and_l2_candidates() {
    let (data, q) = table2();
    let p = Partitioning::equi_width(10, 5);
    let expect = [
        vec![2i64, 1, 2, 2, 1],
        vec![0, 2, 0, 2, 1],
        vec![1, 2, 2, 1, 1],
        vec![2, 2, 2, 2, 2],
    ];
    for (x, e) in data.iter().zip(&expect) {
        assert_eq!(&boxes(x, &q, &p), e);
        // Disjoint parts: ‖B(x,q)‖₁ = f(x,q).
        assert_eq!(e.iter().sum::<i64>(), x.distance(&q) as i64);
    }
    // At l = 2 only x² and x³ stay candidates.
    let scheme = ThresholdScheme::uniform(5i64, 5);
    let cands: Vec<usize> = data
        .iter()
        .enumerate()
        .filter(|(_, x)| find_prefix_viable(&boxes(x, &q, &p), &scheme, Direction::Le, 2).is_some())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(cands, vec![1, 2]);
}

#[test]
fn example_9_integer_reduction_chain_filter() {
    // Example 9: τ = 3, m = 3, d = 12, T = (0, 1, 0).
    // GPH admits x via b0 = 0 ≤ t0, but the l = 2 chain b0 + b1 = 3 exceeds
    // t0 + t1 + l − 1 = 2, so Ring filters it; f(x, q) = 4.
    let x = BitVector::from_bit_str("0000 0011 1111");
    let q = BitVector::from_bit_str("0000 1110 0111");
    let p = Partitioning::equi_width(12, 3);
    let b = boxes(&x, &q, &p);
    assert_eq!(b, vec![0, 3, 1]);
    assert_eq!(x.distance(&q), 4);
    let scheme = ThresholdScheme::integer_reduced(vec![0i64, 1, 0]);
    scheme.assert_sums_to(3, Direction::Le);
    // Pigeonhole (box level): b0 viable.
    assert!(scheme.chain_viable(b[0], 0, 1, Direction::Le));
    // Ring, l = 2: chain from 0 fails at length 2; no other viable start.
    assert_eq!(
        check_prefix_viable(&b, &scheme, Direction::Le, 0, 2),
        Err(2)
    );
    assert!(find_prefix_viable(&b, &scheme, Direction::Le, 2).is_none());
}

#[test]
fn end_to_end_on_table2() {
    // Index the four Table 2 vectors and run both engines; the result set
    // must be {x²} at τ = 5 for every chain length.
    let (data, q) = table2();
    let ring = RingHamming::build(data, 5, AllocationStrategy::Even);
    let mut scratch = HammingScratch::default();
    for l in 1..=5 {
        let (res, stats) = ring.search_with(&mut scratch, &q, 5, l);
        assert_eq!(res, vec![1], "l={l}");
        assert_eq!(stats.results, 1);
    }
}
