//! The build-time half of [`crate::RingGraph`] (and so of Pars, its `l = 1`).
//!
//! A [`PartIndex`] owns the data graphs, partitions each into `τ + 1`
//! parts and compiles every part once into one [`PartArena`] (part `p`
//! of graph `g` is arena entry `g·(τ + 1) + p`). Graph ids are also kept
//! sorted by `(|V|, |E|)`, so the size filter
//! `||V_x| − |V_q|| + ||E_x| − |E_q|| ≤ τ` is `2τ + 1` binary-searched
//! id ranges ([`PartIndex::size_window`]) instead of a scan over every
//! record.

use crate::ged::GedScratch;
use crate::graph::Graph;
use crate::partition::partition_graph;
use crate::plan::GraphPlan;
use crate::subiso::{CompiledPart, PartArena};

/// Data graphs, their compiled parts and the size buckets.
pub struct PartIndex {
    graphs: Vec<Graph>,
    tau: usize,
    arena: PartArena,
    /// `(|V|, |E|, id)` ascending.
    by_size: Vec<(u32, u32, u32)>,
}

impl PartIndex {
    /// Partitions every graph into `τ + 1` parts and compiles them.
    pub fn build(graphs: Vec<Graph>, tau: usize) -> Self {
        let m = tau + 1;
        let arena = PartArena::compile(graphs.iter().flat_map(|g| partition_graph(g, m)));
        let mut by_size: Vec<(u32, u32, u32)> = graphs
            .iter()
            .enumerate()
            .map(|(id, g)| (g.num_vertices() as u32, g.num_edges() as u32, id as u32))
            .collect();
        by_size.sort_unstable();
        PartIndex {
            graphs,
            tau,
            arena,
            by_size,
        }
    }

    /// The data graphs.
    pub fn graphs(&self) -> &[Graph] {
        &self.graphs
    }

    /// Parts per graph, `m = τ + 1`.
    pub fn parts_per_graph(&self) -> usize {
        self.tau + 1
    }

    /// Heap bytes of the filter structures: compiled-part arena with its
    /// offsets and signatures, plus the size buckets (the graphs
    /// themselves are the caller's data and not counted).
    pub fn index_bytes(&self) -> usize {
        self.arena.bytes() + self.by_size.len() * core::mem::size_of::<(u32, u32, u32)>()
    }

    /// The id runs (each ascending by id within one `(|V|, |E|)` bucket
    /// row) of all graphs passing the size filter for the planned query.
    pub fn size_window<'a>(
        &'a self,
        plan: &GraphPlan,
    ) -> impl Iterator<Item = &'a [(u32, u32, u32)]> + 'a {
        let (qv, qe, tau) = (
            plan.num_vertices() as i64,
            plan.num_edges() as i64,
            self.tau as i64,
        );
        ((qv - tau).max(0)..=qv + tau).map(move |nv| {
            let slack = tau - (nv - qv).abs();
            let (lo, hi) = ((qe - slack).max(0), qe + slack);
            let start = self
                .by_size
                .partition_point(|&(v, e, _)| (v as i64, e as i64) < (nv, lo));
            let end = self
                .by_size
                .partition_point(|&(v, e, _)| (v as i64, e as i64) <= (nv, hi));
            &self.by_size[start..end]
        })
    }

    /// The parts of graph `id` that may start a chain, with their ring
    /// positions: those passing the signature screen and then the exact
    /// Pars label prefilter ([`CompiledPart::label_feasible`]). That
    /// prefilter subsumes the matcher's own size and label-multiset
    /// conditions, so callers go straight to the search.
    #[inline]
    pub(crate) fn starts<'a>(
        &'a self,
        id: u32,
        plan: &'a GraphPlan,
    ) -> impl Iterator<Item = (usize, CompiledPart<'a>)> + 'a {
        let m = self.parts_per_graph();
        let first = id as usize * m;
        let absent = !plan.vertex_signature();
        self.arena
            .signatures(first, m)
            .iter()
            .enumerate()
            .filter(move |&(_, &sig)| sig & absent == 0)
            .filter_map(move |(pos, _)| {
                let part = self.arena.part(first + pos);
                part.label_feasible(plan).then_some((pos, part))
            })
    }

    /// Part `pos` of graph `id`.
    #[inline]
    pub(crate) fn part(&self, id: u32, pos: usize) -> CompiledPart<'_> {
        self.arena.part(id as usize * self.parts_per_graph() + pos)
    }

    /// Appends to `out` those of `cands` with `ged(x, q) ≤ τ`: `q` is
    /// loaded into `ged` once, then one first-witness search (see
    /// [`crate::ged`]) runs per candidate.
    pub(crate) fn verify(
        &self,
        cands: &[u32],
        q: &Graph,
        ged: &mut GedScratch,
        out: &mut Vec<u32>,
    ) {
        ged.set_query(q);
        let tau = self.tau as u32;
        out.extend(
            cands
                .iter()
                .filter(|&&id| ged.within(&self.graphs[id as usize], tau).is_some()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize, extra: &[(u32, u32)]) -> Graph {
        let mut g = Graph::new((0..n as u32).map(|v| v % 3).collect());
        for v in 1..n as u32 {
            g.add_edge(v - 1, v, v % 2);
        }
        for &(u, v) in extra {
            g.add_edge(u, v, 0);
        }
        g
    }

    #[test]
    fn size_window_is_the_size_filter() {
        let graphs: Vec<Graph> = (2..9)
            .flat_map(|n| {
                [
                    path(n, &[]),
                    path(n, &[(0, n as u32 - 1)][..usize::from(n > 2)]),
                ]
            })
            .collect();
        for tau in 0..=4usize {
            let index = PartIndex::build(graphs.clone(), tau);
            for q in &graphs {
                let plan = GraphPlan::new(q);
                let mut got: Vec<u32> = index
                    .size_window(&plan)
                    .flatten()
                    .map(|&(_, _, id)| id)
                    .collect();
                got.sort_unstable();
                let want: Vec<u32> = (0..graphs.len() as u32)
                    .filter(|&id| {
                        let x = &graphs[id as usize];
                        x.num_vertices().abs_diff(q.num_vertices())
                            + x.num_edges().abs_diff(q.num_edges())
                            <= tau
                    })
                    .collect();
                assert_eq!(got, want, "tau={tau}");
            }
        }
    }
}
