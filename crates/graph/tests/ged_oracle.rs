//! An independent oracle for the GED verifier. The engines and their
//! linear-scan reference both call `ged_within`, so a verifier bug would
//! pass every engine-vs-scan test; this reference shares no code with
//! `ged.rs`. It enumerates every injective partial map `a → b ∪ {ε}` and
//! prices the §2.2 edit path each one induces straight from the
//! definition, so it is only run for `|V| ≤ 5`.

use pigeonring_graph::{ged, ged_within, Graph};
use proptest::prelude::*;

/// Cost of the edit path that maps `a`'s vertex `v` to `b`'s vertex
/// `map[v]` (`None`: delete it): delete, relabel and insert vertices;
/// delete, relabel and insert edges.
fn path_cost(a: &Graph, b: &Graph, map: &[Option<u32>]) -> u32 {
    let mut cost = 0;
    let mut preimage = vec![None; b.num_vertices()];
    for (v, image) in map.iter().enumerate() {
        match *image {
            None => cost += 1, // vertex deletion
            Some(u) => {
                preimage[u as usize] = Some(v as u32);
                if a.vlabel(v as u32) != b.vlabel(u) {
                    cost += 1; // vertex relabel
                }
            }
        }
    }
    cost += preimage.iter().filter(|p| p.is_none()).count() as u32; // vertex insertions
    for (x, y, label) in a.edges() {
        match (map[x as usize], map[y as usize]) {
            (Some(u), Some(w)) => match b.edge_label(u, w) {
                Some(l) if l == label => {}
                Some(_) => cost += 1, // edge relabel
                None => cost += 1,    // edge deletion
            },
            _ => cost += 1, // edge deletion (an endpoint is deleted)
        }
    }
    for (u, w, _) in b.edges() {
        let kept = match (preimage[u as usize], preimage[w as usize]) {
            (Some(x), Some(y)) => a.edge_label(x, y).is_some(),
            _ => false,
        };
        if !kept {
            cost += 1; // edge insertion
        }
    }
    cost
}

/// The minimum of [`path_cost`] over every injective partial map.
fn brute_force_ged(a: &Graph, b: &Graph) -> u32 {
    fn extend(
        a: &Graph,
        b: &Graph,
        map: &mut Vec<Option<u32>>,
        taken: &mut [bool],
        best: &mut u32,
    ) {
        if map.len() == a.num_vertices() {
            *best = (*best).min(path_cost(a, b, map));
            return;
        }
        map.push(None);
        extend(a, b, map, taken, best);
        map.pop();
        for u in 0..b.num_vertices() {
            if !taken[u] {
                taken[u] = true;
                map.push(Some(u as u32));
                extend(a, b, map, taken, best);
                map.pop();
                taken[u] = false;
            }
        }
    }
    let mut best = u32::MAX;
    extend(
        a,
        b,
        &mut Vec::new(),
        &mut vec![false; b.num_vertices()],
        &mut best,
    );
    best
}

/// Up to 5 vertices (possibly none, possibly isolated), labels drawn from
/// a small range so that some are absent from the other graph.
fn small_graph() -> impl Strategy<Value = Graph> {
    (
        prop::collection::vec(0u32..5, 0..=5),
        prop::num::u64::ANY,
        prop::num::u64::ANY,
    )
        .prop_map(|(labels, edge_bits, edge_labels)| {
            let n = labels.len() as u32;
            let mut g = Graph::new(labels);
            let mut bit = 0;
            for u in 0..n {
                for v in u + 1..n {
                    // Edges with probability ≈ 1/2, labels from {0, 1, 2}.
                    if (edge_bits >> bit) & 1 == 1 {
                        g.add_edge(u, v, ((edge_labels >> (2 * bit)) % 4).min(2) as u32);
                    }
                    bit += 1;
                }
            }
            g
        })
}

#[test]
fn oracle_prices_the_definition() {
    let mut path = Graph::new(vec![1, 2, 3]);
    path.add_edge(0, 1, 7);
    path.add_edge(1, 2, 8);
    let mut relabelled = Graph::new(vec![1, 2, 4]);
    relabelled.add_edge(0, 1, 7);
    relabelled.add_edge(1, 2, 8);
    let empty = Graph::new(vec![]);
    assert_eq!(brute_force_ged(&path, &path), 0);
    assert_eq!(brute_force_ged(&path, &relabelled), 1);
    assert_eq!(brute_force_ged(&path, &empty), 5);
    assert_eq!(brute_force_ged(&empty, &path), 5);
    assert_eq!(brute_force_ged(&empty, &empty), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ged_within_matches_brute_force(a in small_graph(), b in small_graph()) {
        let d = brute_force_ged(&a, &b);
        prop_assert_eq!(ged(&a, &b), d);
        for tau in 0..=10u32 {
            prop_assert_eq!(ged_within(&a, &b, tau), (d <= tau).then_some(d), "tau={}", tau);
        }
    }
}
