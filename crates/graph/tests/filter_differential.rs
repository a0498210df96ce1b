//! Differential tests for the compiled-part filter: the masked matcher
//! against materialized variants and a brute-force embedding oracle, the
//! two-bit box value against the reference neighborhood search, the
//! chain check through shards sharing one plan, and the index's memory
//! bound.
//!
//! The corpus-level half — `RingGraph::candidates` at every `l` (Pars
//! is `l = 1`) against a copy of the pre-compilation loop on
//! generated aids-like / protein-like data — lives in the workspace
//! root's `tests/graph_filter_differential.rs`, where the data
//! generators are reachable.

use pigeonring_graph::graph::WILDCARD;
use pigeonring_graph::neighborhood::{box_value, min_ops_to_match};
use pigeonring_graph::{
    embeds, part_embeds, partition_graph, CompiledPart, Graph, GraphParams, GraphPlan, GraphStats,
    Mask, MatchScratch, Part, PartArena, RingGraph,
};
use pigeonring_service::ShardedIndex;
use proptest::prelude::*;

/// A part description: vertex labels (3 = wildcard), an edge bitmask
/// over vertex pairs, and stubs as `(vertex selector, label)`.
#[derive(Clone, Debug)]
struct PartSpec {
    labels: Vec<u32>,
    edge_bits: u64,
    edge_labels: u64,
    stubs: Vec<(usize, u32)>,
}

fn part_strategy() -> impl Strategy<Value = PartSpec> {
    (
        prop::collection::vec(0u32..4, 0..=5),
        prop::num::u64::ANY,
        prop::num::u64::ANY,
        prop::collection::vec((0usize..5, 0u32..2), 0..=4),
    )
        .prop_map(|(labels, edge_bits, edge_labels, stubs)| PartSpec {
            labels,
            edge_bits,
            edge_labels,
            stubs,
        })
}

/// Sparse full edges (a pair needs two set bits), so isolated vertices
/// and disconnected pieces are common; stubs land on few vertices, so
/// duplicates are too.
fn build_part(spec: &PartSpec) -> Part {
    let k = spec.labels.len();
    let mut part = Part {
        vlabels: spec
            .labels
            .iter()
            .map(|&l| if l == 3 { WILDCARD } else { l })
            .collect(),
        ..Part::default()
    };
    let mut bit = 0;
    for u in 0..k as u32 {
        for v in u + 1..k as u32 {
            if (spec.edge_bits >> (2 * bit % 64)) & 3 == 3 {
                part.edges
                    .push((u, v, ((spec.edge_labels >> (bit % 64)) & 1) as u32));
            }
            bit += 1;
        }
    }
    if k > 0 {
        part.half
            .extend(spec.stubs.iter().map(|&(v, l)| ((v % k) as u32, l)));
    }
    part
}

#[derive(Clone, Debug)]
struct GraphSpec {
    labels: Vec<u32>,
    edge_bits: u64,
    edge_labels: u64,
}

fn graph_strategy(max_n: usize) -> impl Strategy<Value = GraphSpec> {
    (
        prop::collection::vec(0u32..3, 0..=max_n),
        prop::num::u64::ANY,
        prop::num::u64::ANY,
    )
        .prop_map(|(labels, edge_bits, edge_labels)| GraphSpec {
            labels,
            edge_bits,
            edge_labels,
        })
}

fn build_graph(spec: &GraphSpec) -> Graph {
    let n = spec.labels.len();
    let mut g = Graph::new(spec.labels.clone());
    let mut bit = 0;
    for u in 0..n as u32 {
        for v in u + 1..n as u32 {
            if (spec.edge_bits >> (bit % 64)) & 1 == 1 {
                g.add_edge(u, v, ((spec.edge_labels >> (bit % 64)) & 1) as u32);
            }
            bit += 1;
        }
    }
    g
}

/// The variant `mask` stands for, as a part of its own.
fn materialize(c: CompiledPart<'_>, mask: Mask) -> Part {
    let mut part = Part {
        vlabels: (0..c.num_vertices() as u32).map(|v| c.vlabel(v)).collect(),
        edges: (0..c.num_edges() as u32).map(|i| c.edge(i)).collect(),
        half: (0..c.num_stubs() as u32).map(|i| c.stub(i)).collect(),
    };
    match mask {
        Mask::None => {}
        Mask::DropEdge(i) => {
            part.edges.remove(i as usize);
        }
        Mask::DropStub(i) => {
            part.half.remove(i as usize);
        }
        Mask::Wildcard(v) => part.vlabels[v as usize] = WILDCARD,
        Mask::DropVertex(v) => {
            part.vlabels.remove(v as usize);
            let down = |x: &mut u32| *x -= u32::from(*x > v);
            part.edges.iter_mut().for_each(|e| {
                down(&mut e.0);
                down(&mut e.1);
            });
            part.half.iter_mut().for_each(|h| down(&mut h.0));
        }
    }
    part
}

/// The definition of "embeds", by exhaustion: some injective vertex
/// mapping matches labels (wildcards match anything), carries every
/// full edge onto an equally labeled query edge, and leaves every image
/// enough incident edges per label for the vertex's full edges + stubs.
fn brute_force_embeds(part: &Part, q: &Graph) -> bool {
    fn assign(part: &Part, q: &Graph, map: &mut Vec<u32>) -> bool {
        let v = map.len();
        if v == part.vlabels.len() {
            return part
                .edges
                .iter()
                .all(|&(a, b, l)| q.edge_label(map[a as usize], map[b as usize]) == Some(l))
                && (0..v as u32).all(|x| {
                    (0..2u32).all(|l| {
                        let need = part
                            .edges
                            .iter()
                            .filter(|e| (e.0 == x || e.1 == x) && e.2 == l)
                            .count()
                            + part.half.iter().filter(|&&h| h == (x, l)).count();
                        q.incident_label_count(map[x as usize], l) >= need
                    })
                });
        }
        (0..q.num_vertices() as u32).any(|u| {
            let label_ok = part.vlabels[v] == WILDCARD || part.vlabels[v] == q.vlabel(u);
            if !label_ok || map.contains(&u) {
                return false;
            }
            map.push(u);
            let found = assign(part, q, map);
            map.pop();
            found
        })
    }
    assign(part, q, &mut Vec::new())
}

fn molecule_like(seed: u64, n: usize, labels: u32) -> Graph {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut g = Graph::new((0..n).map(|_| (next() % labels as u64) as u32).collect());
    for v in 1..n as u32 {
        let u = (next() % v as u64) as u32;
        g.add_edge(u, v, (next() % 3) as u32);
    }
    for _ in 0..n / 4 {
        let (u, v) = ((next() % n as u64) as u32, (next() % n as u64) as u32);
        if u != v && g.edge_label(u, v).is_none() {
            g.add_edge(u, v, (next() % 3) as u32);
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// (a) One matcher, every mask: equal to the compile-then-match
    /// wrapper on the materialized variant and to the brute-force
    /// definition; the two-bit box value equals the reference search.
    #[test]
    fn masked_matcher_equals_materialized_variants(
        pspec in part_strategy(),
        qspec in graph_strategy(6),
    ) {
        let (part, q) = (build_part(&pspec), build_graph(&qspec));
        let arena = PartArena::compile([&part]);
        let compiled = arena.part(0);
        let plan = GraphPlan::new(&q);
        let mut scratch = MatchScratch::default();
        for mask in [Mask::None].into_iter().chain(compiled.masks()) {
            let variant = materialize(compiled, mask);
            let got = embeds(compiled, mask, &plan, &mut scratch);
            prop_assert_eq!(got, brute_force_embeds(&variant, &q), "{:?} of {:?}", mask, part);
            prop_assert_eq!(got, part_embeds(&variant, &q), "{:?} of {:?}", mask, part);
        }
        let want = min_ops_to_match(&part, &q, 1).map_or(2, |ops| ops as u8);
        prop_assert_eq!(box_value(compiled, &plan, &mut scratch), want, "{:?}", part);
    }

    /// (c) One plan shared by K shards: ids and merged counters equal
    /// the unsharded engine's at every chain length.
    #[test]
    fn shards_share_one_plan(seed in 0u64..10_000, tau in 1usize..=4, qsel in 0usize..40) {
        let graphs: Vec<Graph> = (0..40u64)
            .map(|i| molecule_like(seed * 64 + i / 2, 7 + (i % 3) as usize, 4))
            .collect();
        let q = &graphs[qsel];
        let ring = RingGraph::build(graphs.clone(), tau);
        for l in 1..=tau + 1 {
            let (ids, stats) = ring.search(q, l);
            for k in [1usize, 2, 4] {
                let index = ShardedIndex::build(graphs.clone(), k, |shard| {
                    RingGraph::build(shard, tau)
                });
                let got = index.search(q, &GraphParams { l });
                prop_assert_eq!(&got.ids, &ids, "tau={} l={} k={}", tau, l, k);
                prop_assert_eq!(got.stats, stats, "tau={} l={} k={}", tau, l, k);
            }
        }
    }

    /// Memory guard: the index is linear in what it compiles — at most
    /// 64 bytes per part, per graph and per unit of part size (vertex,
    /// full edge or stub). Nothing is stored per variant.
    #[test]
    fn index_bytes_are_bounded(
        specs in prop::collection::vec(graph_strategy(9), 1..30),
        tau in 0usize..=5,
    ) {
        let graphs: Vec<Graph> = specs.iter().map(build_graph).collect();
        let parts: Vec<Part> = graphs.iter().flat_map(|g| partition_graph(g, tau + 1)).collect();
        let units: usize = parts.iter().map(Part::size).sum();
        let bound = 64 * (units + parts.len() + graphs.len());
        let bytes = RingGraph::build(graphs, tau).index_bytes();
        prop_assert!(bytes <= bound, "tau={}: {} > {}", tau, bytes, bound);
    }
}

/// (d) The stub trap. Stubs are counted per vertex, so two stubs on
/// *different* part vertices may both be covered by one query edge:
/// this part embeds although its edge + stub labels {5, 5} are not a
/// sub-multiset of the query's edge labels {5}. The combined multiset
/// test is therefore part of what makes a chain *start*
/// (`label_feasible`), never a shortcut in front of the matcher.
#[test]
fn stubs_on_different_vertices_may_share_a_query_edge() {
    let part = Part {
        vlabels: vec![1, 2],
        edges: vec![],
        half: vec![(0, 5), (1, 5)],
    };
    let mut q = Graph::new(vec![1, 2]);
    q.add_edge(0, 1, 5);
    assert!(brute_force_embeds(&part, &q));
    assert!(part_embeds(&part, &q));
    let arena = PartArena::compile([&part]);
    let plan = GraphPlan::new(&q);
    let mut scratch = MatchScratch::default();
    assert!(embeds(arena.part(0), Mask::None, &plan, &mut scratch));
    assert_eq!(box_value(arena.part(0), &plan, &mut scratch), 0);
    assert_eq!(min_ops_to_match(&part, &q, 1), Some(0));
    assert!(!arena.part(0).label_feasible(&plan));
}

/// A scratch warmed by one engine serves another with a different `τ`
/// (the memo is re-sized per call) and carries nothing between queries.
#[test]
fn scratch_is_reusable_across_engines_and_queries() {
    let graphs: Vec<Graph> = (0..30u64).map(|i| molecule_like(i / 2, 8, 5)).collect();
    let mut scratch = Default::default();
    for tau in [4usize, 1, 3] {
        let ring = RingGraph::build(graphs.clone(), tau);
        for q in graphs.iter().step_by(7) {
            let plan = GraphPlan::new(q);
            let mut got = Vec::new();
            let stats: GraphStats = ring.candidates_with_plan(&mut scratch, &plan, tau, &mut got);
            assert_eq!((got, stats), ring.candidates(q, tau), "tau={tau}");
        }
    }
}
