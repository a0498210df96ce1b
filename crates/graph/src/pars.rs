//! The graph engines' counters and linear-scan reference.
//!
//! The Pars baseline \[136\] is [`RingGraph`](crate::RingGraph) at
//! `l = 1`: each data graph is partitioned into `τ + 1` parts, and a
//! graph is a candidate iff some part embeds intact in `q` (the
//! pigeonhole filter: `τ` edits damage at most `τ` parts), which is a
//! chain start alone.

use crate::ged::ged_within;
use crate::graph::Graph;

/// Per-query counters for the graph engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Unique graphs passed to GED verification.
    pub candidates: usize,
    /// Graphs with `ged(x, q) ≤ τ`.
    pub results: usize,
    /// Part embedding tests performed.
    pub subiso_calls: usize,
    /// Ring box evaluations (deletion-neighborhood probes).
    pub boxes_checked: usize,
}

/// Linear-scan reference: verifies every graph.
pub struct LinearScanGraphs<'a> {
    graphs: &'a [Graph],
}

impl<'a> LinearScanGraphs<'a> {
    /// Wraps a dataset.
    pub fn new(graphs: &'a [Graph]) -> Self {
        LinearScanGraphs { graphs }
    }

    /// All ids with `ged(x, q) ≤ τ`, ascending.
    pub fn search(&self, q: &Graph, tau: u32) -> Vec<u32> {
        self.graphs
            .iter()
            .enumerate()
            .filter(|(_, g)| ged_within(g, q, tau).is_some())
            .map(|(id, _)| id as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingGraph;

    pub(crate) fn molecule_like(seed: u64, n: usize, labels: u32) -> Graph {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut g = Graph::new((0..n).map(|_| (next() % labels as u64) as u32).collect());
        // Sparse connected backbone + a few extra edges.
        for v in 1..n as u32 {
            let u = (next() % v as u64) as u32;
            g.add_edge(u, v, (next() % 3) as u32);
        }
        for _ in 0..n / 4 {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            if u != v && g.edge_label(u, v).is_none() {
                g.add_edge(u.min(v), u.max(v), (next() % 3) as u32);
            }
        }
        g
    }

    pub(crate) fn edited(g: &Graph, ops: usize, seed: u64) -> Graph {
        // Apply `ops` random label edits (keeps ged ≤ ops).
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut labels = g.vlabels().to_vec();
        let mut edges: Vec<(u32, u32, u32)> = g.edges().collect();
        for _ in 0..ops {
            if next() % 2 == 0 && !labels.is_empty() {
                let i = (next() as usize) % labels.len();
                labels[i] = (labels[i] + 1) % 8;
            } else if !edges.is_empty() {
                let i = (next() as usize) % edges.len();
                edges[i].2 = (edges[i].2 + 1) % 3;
            }
        }
        let mut out = Graph::new(labels);
        for (u, v, l) in edges {
            out.add_edge(u, v, l);
        }
        out
    }

    fn dataset() -> Vec<Graph> {
        let mut graphs = Vec::new();
        for i in 0..30u64 {
            let base = molecule_like(i * 37 + 5, 8, 6);
            graphs.push(base.clone());
            if i % 2 == 0 {
                graphs.push(edited(&base, 1 + (i % 3) as usize, i * 91 + 7));
            }
        }
        graphs
    }

    // Pars is `RingGraph` at `l = 1`.

    #[test]
    fn pars_matches_linear_scan() {
        let graphs = dataset();
        let scan = LinearScanGraphs::new(&graphs);
        for tau in 1..=3usize {
            let pars = RingGraph::build(graphs.clone(), tau);
            for (qid, q) in graphs.iter().enumerate().step_by(7) {
                let expect = scan.search(q, tau as u32);
                let (got, _) = pars.search(q, 1);
                assert_eq!(got, expect, "tau={tau} qid={qid}");
            }
        }
    }

    #[test]
    fn self_query_found() {
        let graphs = dataset();
        let pars = RingGraph::build(graphs.clone(), 2);
        for qid in (0..graphs.len()).step_by(11) {
            let (res, _) = pars.search(&graphs[qid], 1);
            assert!(res.contains(&(qid as u32)), "qid={qid}");
        }
    }

    #[test]
    fn prefilter_reduces_subiso_calls() {
        // A query sharing no labels with the data must trigger zero
        // embedding tests.
        let graphs = dataset();
        let pars = RingGraph::build(graphs.clone(), 2);
        let mut alien = Graph::new(vec![99, 98, 97, 96, 95, 94, 93, 92]);
        for v in 1..8u32 {
            alien.add_edge(v - 1, v, 9);
        }
        let (res, stats) = pars.search(&alien, 1);
        assert!(res.is_empty());
        assert_eq!(stats.subiso_calls, 0);
    }
}
