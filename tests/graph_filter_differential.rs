//! Corpus-level differential test for the compiled graph filter: on
//! generated aids-like and protein-like data, `RingGraph::candidates`
//! (at `l = 1`, the Pars baseline) must return exactly the ids *and* the
//! `subiso_calls` / `boxes_checked` counters of the loop the engine ran
//! before parts were compiled — kept here verbatim (materialized
//! `Part`s, hash-map label counts, budgeted `min_ops_to_match` probes
//! with the `NEIGHBORHOOD_CAP` arithmetic spelled out).

use std::collections::HashMap;

use pigeonring::datagen::{sample_query_ids, GraphConfig};
use pigeonring::graph::neighborhood::min_ops_to_match;
use pigeonring::graph::{part_embeds, partition_graph, Graph, Part, RingGraph};

fn label_counts(labels: impl Iterator<Item = u32>) -> HashMap<u32, usize> {
    let mut counts = HashMap::new();
    for l in labels {
        *counts.entry(l).or_insert(0) += 1;
    }
    counts
}

fn contained(need: &HashMap<u32, usize>, have: &HashMap<u32, usize>) -> bool {
    need.iter()
        .all(|(l, &n)| have.get(l).copied().unwrap_or(0) >= n)
}

/// The engine's loop before compilation. `l = 1` is Pars.
struct Reference<'a> {
    graphs: &'a [Graph],
    tau: usize,
    parts: Vec<Vec<Part>>,
}

impl<'a> Reference<'a> {
    fn build(graphs: &'a [Graph], tau: usize) -> Self {
        Reference {
            graphs,
            tau,
            parts: graphs.iter().map(|g| partition_graph(g, tau + 1)).collect(),
        }
    }

    /// `(candidate ids, subiso_calls, boxes_checked)`.
    fn candidates(&self, q: &Graph, l: usize) -> (Vec<u32>, usize, usize) {
        const NEIGHBORHOOD_CAP: i64 = 1;
        let (tau, m) = (self.tau as i64, self.tau + 1);
        let quota = |l_prime: usize| (l_prime as i64 * tau) / (tau + 1);
        let qv = label_counts(q.vlabels().iter().copied());
        let qe = label_counts(q.edges().map(|e| e.2));
        let (mut cands, mut subiso_calls, mut boxes_checked) = (Vec::new(), 0, 0);
        for (id, g) in self.graphs.iter().enumerate() {
            let size_gap =
                g.num_vertices().abs_diff(q.num_vertices()) + g.num_edges().abs_diff(q.num_edges());
            if size_gap > self.tau {
                continue;
            }
            let parts = &self.parts[id];
            for (i, part) in parts.iter().enumerate() {
                let pv = label_counts(part.vlabels.iter().copied());
                let pe = label_counts(
                    part.edges
                        .iter()
                        .map(|e| e.2)
                        .chain(part.half.iter().map(|h| h.1)),
                );
                if !contained(&pv, &qv) || !contained(&pe, &qe) {
                    continue;
                }
                subiso_calls += 1;
                if !part_embeds(part, q) {
                    continue;
                }
                let mut sum = 0i64;
                let mut viable = true;
                for l_prime in 2..=l {
                    let j = (i + l_prime - 1) % m;
                    let budget = quota(l_prime) - sum;
                    if budget < 0 {
                        viable = false;
                        break;
                    }
                    let probe = budget.min(NEIGHBORHOOD_CAP);
                    boxes_checked += 1;
                    match min_ops_to_match(&parts[j], q, probe as u32) {
                        Some(b) => sum += b as i64,
                        None if probe < budget => {
                            sum += probe + 1;
                            if sum > quota(l_prime) {
                                viable = false;
                                break;
                            }
                        }
                        None => {
                            viable = false;
                            break;
                        }
                    }
                }
                if viable {
                    cands.push(id as u32);
                    break;
                }
            }
        }
        (cands, subiso_calls, boxes_checked)
    }
}

fn check(name: &str, graphs: Vec<Graph>, queries: Vec<usize>) {
    for tau in 1..=4usize {
        let reference = Reference::build(&graphs, tau);
        let ring = RingGraph::build(graphs.clone(), tau);
        for &qid in &queries {
            // Half the queries verbatim, half with one vertex relabeled.
            let mut labels = graphs[qid].vlabels().to_vec();
            if qid % 2 == 1 {
                labels[0] = labels[labels.len() - 1];
            }
            let mut q = Graph::new(labels);
            for (u, v, l) in graphs[qid].edges() {
                q.add_edge(u, v, l);
            }
            for l in 1..=tau + 1 {
                let (ids, subiso_calls, boxes_checked) = reference.candidates(&q, l);
                let (got, stats) = ring.candidates(&q, l);
                let at = format!("{name} tau={tau} l={l} qid={qid}");
                assert_eq!(got, ids, "{at}");
                assert_eq!(stats.candidates, ids.len(), "{at}");
                assert_eq!(stats.subiso_calls, subiso_calls, "{at}");
                assert_eq!(stats.boxes_checked, boxes_checked, "{at}");
            }
        }
    }
}

#[test]
fn aids_like_candidates_and_counters_match_the_reference_loop() {
    let graphs = GraphConfig::aids_like(200).generate();
    let queries = sample_query_ids(graphs.len(), 6, 7);
    check("aids", graphs, queries);
}

#[test]
fn protein_like_candidates_and_counters_match_the_reference_loop() {
    let graphs = GraphConfig::protein_like(100).generate();
    let queries = sample_query_ids(graphs.len(), 5, 8);
    check("protein", graphs, queries);
}
