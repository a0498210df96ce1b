//! Property tests for the graph substrate and engines: GED metric
//! properties with operation-count witnesses, partition coverage,
//! deletion-neighborhood admissibility, and engine exactness.

use pigeonring_graph::pars::LinearScanGraphs;
use pigeonring_graph::{ged_within, part_embeds, partition_graph, Graph, RingGraph};
use proptest::prelude::*;

/// A compact graph description: labels plus an edge bitmask over vertex
/// pairs, expanded deterministically.
#[derive(Clone, Debug)]
struct GraphSpec {
    labels: Vec<u32>,
    edge_bits: u64,
    edge_labels: u64,
}

fn graph_strategy(max_n: usize) -> impl Strategy<Value = GraphSpec> {
    (
        prop::collection::vec(0u32..4, 2..=max_n),
        prop::num::u64::ANY,
        prop::num::u64::ANY,
    )
        .prop_map(|(labels, edge_bits, edge_labels)| GraphSpec {
            labels,
            edge_bits,
            edge_labels,
        })
}

fn build(spec: &GraphSpec) -> Graph {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ged_is_symmetric_and_reflexive(a in graph_strategy(5), b in graph_strategy(5)) {
        let (ga, gb) = (build(&a), build(&b));
        prop_assert_eq!(ged_within(&ga, &ga, 0), Some(0));
        for tau in [2u32, 4, 8] {
            prop_assert_eq!(
                ged_within(&ga, &gb, tau).is_some(),
                ged_within(&gb, &ga, tau).is_some(),
                "tau={}", tau
            );
        }
    }

    #[test]
    fn single_relabel_costs_at_most_one(spec in graph_strategy(6), vsel in 0usize..6) {
        let g = build(&spec);
        let v = vsel % g.num_vertices();
        let mut labels = g.vlabels().to_vec();
        labels[v] = (labels[v] + 1) % 5;
        let mut h = Graph::new(labels);
        for (u, w, l) in g.edges() {
            h.add_edge(u, w, l);
        }
        let d = ged_within(&g, &h, 1);
        prop_assert!(d.is_some() && d.unwrap() <= 1);
    }

    #[test]
    fn partition_is_a_partition(spec in graph_strategy(8), m in 1usize..=5) {
        let g = build(&spec);
        let parts = partition_graph(&g, m);
        prop_assert_eq!(parts.len(), m);
        let vtotal: usize = parts.iter().map(|p| p.vlabels.len()).sum();
        prop_assert_eq!(vtotal, g.num_vertices());
        let etotal: usize = parts.iter().map(|p| p.edges.len() + p.half.len()).sum();
        prop_assert_eq!(etotal, g.num_edges());
    }

    #[test]
    fn own_parts_always_embed(spec in graph_strategy(8), m in 1usize..=4) {
        let g = build(&spec);
        for part in partition_graph(&g, m) {
            prop_assert!(part_embeds(&part, &g), "part={:?}", part);
        }
    }

    #[test]
    fn engines_match_linear_scan(
        specs in prop::collection::vec(graph_strategy(6), 3..14),
        tau in 1usize..=3,
        qsel in 0usize..14,
    ) {
        let graphs: Vec<Graph> = specs.iter().map(build).collect();
        let q = graphs[qsel % graphs.len()].clone();
        let expect = LinearScanGraphs::new(&graphs).search(&q, tau as u32);
        let ring = RingGraph::build(graphs.clone(), tau);
        for l in 1..=(tau + 1) {
            prop_assert_eq!(ring.search(&q, l).0, expect.clone(), "l={}", l);
        }
    }
}
