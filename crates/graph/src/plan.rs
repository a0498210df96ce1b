//! The query side of every graph filter, computed once per query.
//!
//! A [`GraphPlan`] is a pure function of the query graph: a flat copy of
//! its adjacency, its vertex- and edge-label histograms as sorted
//! arrays (vertex labels below 256 also through a direct table), its vertices grouped by label, and per vertex the sorted
//! `(edge label, count)` list of incident edges — so every question the
//! matcher in [`crate::subiso`] asks of the query (how many vertices
//! carry this label, which ones, how many label-`e` edges touch `u`) is
//! a read from a small sorted table instead of a hash-map build or an
//! adjacency scan per probe. It depends on no index, so one plan serves
//! every shard and every chain length.

use crate::graph::Graph;

/// Vertex labels below this are looked up in a direct table; larger
/// ones by binary search over the sorted distinct labels.
const DENSE_LABELS: usize = 256;

const NONE: u32 = u32::MAX;

/// Query-only precomputation shared by all shards (see module docs).
#[derive(Clone, Debug)]
pub struct GraphPlan {
    vlabels: Vec<u32>,
    /// CSR adjacency: `adj[adj_off[u]..adj_off[u + 1]]` holds
    /// `(neighbor, edge_label)` ascending by neighbor.
    adj_off: Vec<u32>,
    adj: Vec<(u32, u32)>,
    /// Per vertex: sorted `(edge_label, count)` of its incident edges.
    inc_off: Vec<u32>,
    inc: Vec<(u32, u32)>,
    /// Distinct vertex labels ascending; the vertices carrying
    /// `vkeys[i]` are `by_label[vkey_off[i]..vkey_off[i + 1]]`, ascending.
    vkeys: Vec<u32>,
    vkey_off: Vec<u32>,
    by_label: Vec<u32>,
    /// `dense[l]` is label `l`'s position in `vkeys` (`NONE` if absent),
    /// for `l` up to the largest query label below `DENSE_LABELS`.
    dense: Vec<u32>,
    /// Sorted `(edge_label, count)` over all edges.
    ehist: Vec<(u32, u32)>,
    /// One bit per `label % 64` present among the vertex labels.
    vsig: u64,
}

/// The signature bit of a vertex label (see [`GraphPlan::vertex_signature`]).
#[inline]
pub(crate) fn label_bit(label: u32) -> u64 {
    1u64 << (label % 64)
}

/// Adds one occurrence of `label` to the unsorted run list `runs`.
fn bump(runs: &mut [(u32, u32)], label: u32) -> bool {
    match runs.iter_mut().find(|(l, _)| *l == label) {
        Some((_, c)) => {
            *c += 1;
            true
        }
        None => false,
    }
}

impl GraphPlan {
    /// Plans `q`.
    pub fn new(q: &Graph) -> Self {
        let n = q.num_vertices();
        let vlabels = q.vlabels().to_vec();
        let mut adj_off = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(2 * q.num_edges());
        let mut inc_off = Vec::with_capacity(n + 1);
        let mut inc: Vec<(u32, u32)> = Vec::with_capacity(2 * q.num_edges());
        let mut ehist: Vec<(u32, u32)> = Vec::new();
        adj_off.push(0);
        inc_off.push(0);
        for u in 0..n as u32 {
            let start = inc.len();
            for &(w, l) in q.neighbors(u) {
                if !bump(&mut inc[start..], l) {
                    inc.push((l, 1));
                }
                if u < w && !bump(&mut ehist, l) {
                    ehist.push((l, 1));
                }
            }
            inc[start..].sort_unstable();
            inc_off.push(inc.len() as u32);
            adj.extend_from_slice(q.neighbors(u));
            adj_off.push(adj.len() as u32);
        }
        ehist.sort_unstable();

        let mut by_label: Vec<u32> = (0..n as u32).collect();
        by_label.sort_by_key(|&u| vlabels[u as usize]); // stable: ids ascend within a label
        let mut vkeys = Vec::new();
        let mut vkey_off = Vec::new();
        let mut dense = Vec::new();
        let mut vsig = 0u64;
        for (i, &u) in by_label.iter().enumerate() {
            let l = vlabels[u as usize];
            if vkeys.last() != Some(&l) {
                if (l as usize) < DENSE_LABELS {
                    dense.resize(l as usize + 1, NONE);
                    dense[l as usize] = vkeys.len() as u32;
                }
                vkeys.push(l);
                vkey_off.push(i as u32);
                vsig |= label_bit(l);
            }
        }
        vkey_off.push(n as u32);
        GraphPlan {
            vlabels,
            adj_off,
            adj,
            inc_off,
            inc,
            vkeys,
            vkey_off,
            by_label,
            dense,
            ehist,
            vsig,
        }
    }

    /// `|V_q|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vlabels.len()
    }

    /// `|E_q|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Label of query vertex `u`.
    #[inline]
    pub fn vlabel(&self, u: u32) -> u32 {
        self.vlabels[u as usize]
    }

    /// Sorted `(neighbor, edge_label)` list of `u`.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[(u32, u32)] {
        &self.adj[self.adj_off[u as usize] as usize..self.adj_off[u as usize + 1] as usize]
    }

    /// The label of edge `u — w`, if present.
    #[inline]
    pub fn edge_label(&self, u: u32, w: u32) -> Option<u32> {
        let nbrs = self.neighbors(u);
        nbrs.binary_search_by_key(&w, |&(x, _)| x)
            .ok()
            .map(|i| nbrs[i].1)
    }

    /// Number of label-`elabel` edges incident to `u`.
    #[inline]
    pub fn incident_label_count(&self, u: u32, elabel: u32) -> u32 {
        self.inc[self.inc_off[u as usize] as usize..self.inc_off[u as usize + 1] as usize]
            .iter()
            .find(|&&(l, _)| l == elabel)
            .map_or(0, |&(_, c)| c)
    }

    /// The query vertices labeled `label`, ascending.
    #[inline]
    pub fn vertices_with_label(&self, label: u32) -> &[u32] {
        let key = match self.dense.get(label as usize) {
            Some(&i) => (i != NONE).then_some(i as usize),
            None => self.vkeys.binary_search(&label).ok(),
        };
        match key {
            Some(i) => &self.by_label[self.vkey_off[i] as usize..self.vkey_off[i + 1] as usize],
            None => &[],
        }
    }

    /// Number of query vertices labeled `label`.
    #[inline]
    pub fn vlabel_count(&self, label: u32) -> u32 {
        self.vertices_with_label(label).len() as u32
    }

    /// Number of query edges labeled `label`.
    #[inline]
    pub fn elabel_count(&self, label: u32) -> u32 {
        self.ehist
            .iter()
            .find(|&&(l, _)| l == label)
            .map_or(0, |&(_, c)| c)
    }

    /// Bit `l % 64` is set iff some query vertex's label is congruent to
    /// `l`: a part whose own signature has a bit outside this one holds a
    /// label the query lacks.
    #[inline]
    pub fn vertex_signature(&self) -> u64 {
        self.vsig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_tables_agree_with_the_graph() {
        let mut g = Graph::new(vec![7, 3, 7, 9, 3]);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 2, 1);
        g.add_edge(0, 3, 2);
        g.add_edge(3, 4, 1);
        let p = GraphPlan::new(&g);
        assert_eq!((p.num_vertices(), p.num_edges()), (5, 4));
        for u in 0..5u32 {
            assert_eq!(p.vlabel(u), g.vlabel(u));
            assert_eq!(p.neighbors(u), g.neighbors(u));
            for w in 0..5u32 {
                if u != w {
                    assert_eq!(p.edge_label(u, w), g.edge_label(u, w));
                }
            }
            for l in 0..4u32 {
                assert_eq!(
                    p.incident_label_count(u, l) as usize,
                    g.incident_label_count(u, l)
                );
            }
        }
        assert_eq!(p.vertices_with_label(7), &[0, 2]);
        assert_eq!(p.vertices_with_label(3), &[1, 4]);
        assert_eq!(p.vertices_with_label(8), &[] as &[u32]);
        assert_eq!(p.vertices_with_label(4_000), &[] as &[u32]);
        assert_eq!((p.vlabel_count(9), p.vlabel_count(1)), (1, 0));
        assert_eq!(
            (p.elabel_count(1), p.elabel_count(2), p.elabel_count(3)),
            (3, 1, 0)
        );
        assert_eq!(
            p.vertex_signature(),
            label_bit(7) | label_bit(3) | label_bit(9)
        );
    }

    #[test]
    fn labels_past_the_dense_table_are_found() {
        let big = DENSE_LABELS as u32;
        let p = GraphPlan::new(&Graph::new(vec![big + 9, 2, big, big + 9, 70_000]));
        assert_eq!(p.vertices_with_label(big + 9), &[0, 3]);
        assert_eq!(p.vertices_with_label(big), &[2]);
        assert_eq!(p.vertices_with_label(70_000), &[4]);
        assert_eq!(p.vertices_with_label(2), &[1]);
        for absent in [0, 1, 3, big - 1, big + 1, 69_999, u32::MAX] {
            assert_eq!(p.vlabel_count(absent), 0, "label {absent}");
        }
    }

    #[test]
    fn empty_query_plans() {
        let p = GraphPlan::new(&Graph::new(vec![]));
        assert_eq!((p.num_vertices(), p.num_edges()), (0, 0));
        assert_eq!(p.vertex_signature(), 0);
    }
}
