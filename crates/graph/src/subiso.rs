//! Compiled parts and the one subgraph-isomorphism matcher.
//!
//! A part *embeds* in a query when an injective mapping of its vertices
//! to query vertices exists such that (1) vertex labels match (the
//! wildcard label matches anything), (2) every full edge exists in the
//! query with the same label, and (3) for every mapped vertex, the query
//! vertex has enough incident edges of each label to cover the part's
//! full edges plus half-edge stubs at that vertex (a sound per-vertex,
//! per-label counting relaxation of exact distinct-stub matching: an
//! intact part always satisfies it, so filtering stays complete; it can
//! only admit extra candidates — two stubs on *different* part vertices
//! may be covered by one query edge).
//!
//! **Compiled parts.** Everything the test needs from the data side
//! depends on the part alone, so [`PartArena::compile`] computes it once
//! at build time into one flat `u32` arena — per part a record of label
//! runs (`(label, count)` multisets of the non-wildcard vertex labels,
//! of the full-edge labels, and of full-edge + stub labels), vertex
//! labels, a connectivity-aware matching order, CSR full-edge
//! adjacency, per-vertex `(edge label, need)` lists, and the edge
//! and stub lists the masks index. A [`CompiledPart`] is a borrowed view
//! of one record; nothing is allocated or rebuilt per probe.
//!
//! **Masks.** A deletion-neighborhood variant (§6.4) is the same record
//! read through a one-element [`Mask`] — skip one full edge, discount
//! one stub, treat one vertex as a wildcard, or leave one isolated
//! vertex out — never a second object. [`embeds`] answers the intact
//! test (`Mask::None`) and every variant test with one backtracking
//! search over the query's [`GraphPlan`], using caller-owned
//! [`MatchScratch`] buffers.
//!
//! Before searching, [`embeds`] applies necessary conditions only:
//! `k ≤ |V_q|`, vertex-label and full-edge-label multiset containment,
//! and a per-vertex pre-reject — every part vertex needs *some* query
//! vertex with its label and enough incident capacity for each edge
//! label it requires. The search itself is VF2-flavored backtracking:
//! a vertex adjacent to a mapped one only tries the neighbors of that
//! image, others try the query vertices carrying their label.

use crate::graph::{Graph, WILDCARD};
use crate::partition::Part;
use crate::plan::{label_bit, GraphPlan};
use std::borrow::Borrow;

const NONE: u32 = u32::MAX;
const HEADER: usize = 7;

/// One deletion-neighborhood operation applied to a compiled part.
/// Indices refer to the [`CompiledPart`]'s own edge, stub and vertex
/// numbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mask {
    /// The part as compiled.
    None,
    /// Full edge `i` deleted.
    DropEdge(u32),
    /// Half-edge stub `i` deleted.
    DropStub(u32),
    /// Vertex `v`'s label changed to the wildcard.
    Wildcard(u32),
    /// Isolated vertex `v` (no full edge, no stub) deleted.
    DropVertex(u32),
}

/// All parts of an index, compiled once into a flat arena (module docs).
#[derive(Clone, Debug, Default)]
pub struct PartArena {
    words: Vec<u32>,
    /// `words[off[i]..off[i + 1]]` is part `i`'s record.
    off: Vec<u32>,
    /// Per part: OR of [`label_bit`] over its non-wildcard vertex labels.
    sigs: Vec<u64>,
}

/// Counts one `label` into the `(label, count)` runs at `words[start..]`.
fn count_label(words: &mut Vec<u32>, start: usize, label: u32) {
    match words[start..]
        .chunks_exact_mut(2)
        .find(|run| run[0] == label)
    {
        Some(run) => run[1] += 1,
        None => {
            words.push(label);
            words.push(1);
        }
    }
}

impl PartArena {
    /// Compiles `parts` in order; part `i` of the input is
    /// [`PartArena::part`]`(i)`.
    pub fn compile<P: Borrow<Part>>(parts: impl IntoIterator<Item = P>) -> Self {
        let mut arena = PartArena::default();
        arena.off.push(0);
        // Buffers reused across parts.
        let mut cursor: Vec<u32> = Vec::new();
        let mut seeds: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        let mut placed: Vec<bool> = Vec::new();
        for part in parts {
            let part: &Part = part.borrow();
            let (k, ne, nh) = (part.vlabels.len(), part.edges.len(), part.half.len());
            let w = &mut arena.words;
            let base = w.len();
            w.extend([k as u32, ne as u32, nh as u32, 0, 0, 0, 0]);

            // Label runs, hottest first: vertex, full-edge + stub, full-edge.
            let mut sig = 0u64;
            for &l in part.vlabels.iter().filter(|&&l| l != WILDCARD) {
                count_label(w, base + HEADER, l);
                sig |= label_bit(l);
            }
            let o_hruns = w.len();
            let edge_labels = part.edges.iter().map(|e| e.2);
            for l in edge_labels.clone().chain(part.half.iter().map(|h| h.1)) {
                count_label(w, o_hruns, l);
            }
            let o_eruns = w.len();
            for l in edge_labels {
                count_label(w, o_eruns, l);
            }
            let o_vlabels = w.len();
            w[base + 3] = ((o_hruns - base - HEADER) / 2) as u32;
            w[base + 4] = ((o_eruns - o_hruns) / 2) as u32;
            w[base + 5] = ((o_vlabels - o_eruns) / 2) as u32;

            w.extend_from_slice(&part.vlabels);
            let o_order = w.len();
            let o_adj_off = o_order + k;
            let o_need_off = o_adj_off + k + 1;
            let o_adj = o_need_off + k + 1;
            let o_need = o_adj + 4 * ne;
            w.resize(o_need, 0);

            // CSR adjacency, entries in edge order per vertex.
            for &(u, v, _) in &part.edges {
                w[o_adj_off + u as usize + 1] += 1;
                w[o_adj_off + v as usize + 1] += 1;
            }
            for v in 0..k {
                w[o_adj_off + v + 1] += w[o_adj_off + v];
            }
            cursor.clear();
            cursor.extend_from_slice(&w[o_adj_off..o_adj_off + k]);
            for &(u, v, l) in &part.edges {
                for (a, b) in [(u, v), (v, u)] {
                    let p = o_adj + 2 * cursor[a as usize] as usize;
                    w[p] = b;
                    w[p + 1] = l;
                    cursor[a as usize] += 1;
                }
            }

            // Matching order: highest degree first, then depth-first
            // through full edges so each vertex after a seed touches a
            // mapped one.
            seeds.clear();
            seeds.extend(0..k as u32);
            seeds.sort_by_key(|&v| {
                core::cmp::Reverse(w[o_adj_off + v as usize + 1] - w[o_adj_off + v as usize])
            });
            placed.clear();
            placed.resize(k, false);
            let mut next = o_order;
            for &seed in &seeds {
                if placed[seed as usize] {
                    continue;
                }
                placed[seed as usize] = true;
                stack.push(seed);
                while let Some(v) = stack.pop() {
                    w[next] = v;
                    next += 1;
                    let (lo, hi) = (w[o_adj_off + v as usize], w[o_adj_off + v as usize + 1]);
                    for p in lo..hi {
                        let x = w[o_adj + 2 * p as usize];
                        if !placed[x as usize] {
                            placed[x as usize] = true;
                            stack.push(x);
                        }
                    }
                }
            }

            // Stubs sorted by (vertex, label): identical ones become
            // adjacent (see `masks`) and each vertex's are contiguous.
            let stubs = &mut seeds;
            stubs.clear();
            stubs.extend(0..nh as u32);
            stubs.sort_unstable_by_key(|&i| part.half[i as usize]);

            // Per-vertex needs: (label, count) over incident full edges
            // and stubs.
            let mut next_stub = 0;
            for v in 0..k {
                w[o_need_off + v] = ((w.len() - o_need) / 2) as u32;
                let start = w.len();
                let (lo, hi) = (w[o_adj_off + v], w[o_adj_off + v + 1]);
                for p in lo..hi {
                    let l = w[o_adj + 2 * p as usize + 1];
                    count_label(w, start, l);
                }
                while next_stub < nh {
                    let (sv, l) = part.half[stubs[next_stub] as usize];
                    if sv as usize != v {
                        break;
                    }
                    count_label(w, start, l);
                    next_stub += 1;
                }
            }
            let n_need = ((w.len() - o_need) / 2) as u32;
            w[o_need_off + k] = n_need;
            w[base + 6] = n_need;

            for &(u, v, l) in &part.edges {
                w.extend([u, v, l]);
            }
            for &i in stubs.iter() {
                let (v, l) = part.half[i as usize];
                w.extend([v, l]);
            }

            arena.off.push(w.len() as u32);
            arena.sigs.push(sig);
        }
        arena.words.shrink_to_fit();
        arena
    }

    /// Number of compiled parts.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether no part was compiled.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Heap bytes held: records, offsets and signatures.
    pub fn bytes(&self) -> usize {
        self.words.len() * 4 + self.off.len() * 4 + self.sigs.len() * 8
    }

    /// The vertex-label signatures of parts `first..first + count`:
    /// one bit per `label % 64` among a part's non-wildcard vertex
    /// labels.
    #[inline]
    pub fn signatures(&self, first: usize, count: usize) -> &[u64] {
        &self.sigs[first..first + count]
    }

    /// A view of part `i`.
    #[inline]
    pub fn part(&self, i: usize) -> CompiledPart<'_> {
        let w = &self.words[self.off[i] as usize..self.off[i + 1] as usize];
        let (k, ne) = (w[0], w[1]);
        let o_hruns = HEADER as u32 + 2 * w[3];
        let o_eruns = o_hruns + 2 * w[4];
        let o_vlabels = o_eruns + 2 * w[5];
        let o_order = o_vlabels + k;
        let o_adj_off = o_order + k;
        let o_need_off = o_adj_off + k + 1;
        let o_adj = o_need_off + k + 1;
        let o_need = o_adj + 4 * ne;
        let o_edges = o_need + 2 * w[6];
        let o_stubs = o_edges + 3 * ne;
        CompiledPart {
            w,
            o_hruns,
            o_eruns,
            o_vlabels,
            o_order,
            o_adj_off,
            o_need_off,
            o_adj,
            o_need,
            o_edges,
            o_stubs,
        }
    }
}

/// A borrowed view of one compiled part (see module docs for the
/// record's contents).
#[derive(Clone, Copy, Debug)]
pub struct CompiledPart<'a> {
    w: &'a [u32],
    o_hruns: u32,
    o_eruns: u32,
    o_vlabels: u32,
    o_order: u32,
    o_adj_off: u32,
    o_need_off: u32,
    o_adj: u32,
    o_need: u32,
    o_edges: u32,
    o_stubs: u32,
}

/// Total shortfall of `runs` (flattened `(label, count)` pairs) against
/// `have`, and the last label short. Stops counting at 2: callers only
/// distinguish 0, 1 and "more".
fn deficit(runs: &[u32], have: impl Fn(u32) -> u32) -> (u32, u32) {
    let (mut short, mut label) = (0, NONE);
    for run in runs.chunks_exact(2) {
        let got = have(run[0]);
        if run[1] > got {
            short += run[1] - got;
            label = run[0];
            if short >= 2 {
                break;
            }
        }
    }
    (short, label)
}

impl<'a> CompiledPart<'a> {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.w[0] as usize
    }

    /// Number of full edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.w[1] as usize
    }

    /// Number of half-edge stubs.
    #[inline]
    pub fn num_stubs(&self) -> usize {
        self.w[2] as usize
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn vlabel(&self, v: u32) -> u32 {
        self.w[(self.o_vlabels + v) as usize]
    }

    /// Full edge `i` as `(u, v, label)`, in the source part's order.
    #[inline]
    pub fn edge(&self, i: u32) -> (u32, u32, u32) {
        let p = (self.o_edges + 3 * i) as usize;
        (self.w[p], self.w[p + 1], self.w[p + 2])
    }

    /// Stub `i` as `(vertex, label)`; stubs are sorted, so equal ones
    /// are adjacent.
    #[inline]
    pub fn stub(&self, i: u32) -> (u32, u32) {
        let p = (self.o_stubs + 2 * i) as usize;
        (self.w[p], self.w[p + 1])
    }

    #[inline]
    fn adj_range(&self, v: u32) -> (u32, u32) {
        let p = (self.o_adj_off + v) as usize;
        (self.w[p], self.w[p + 1])
    }

    /// Adjacency entry `p` as `(other_vertex, label)`.
    #[inline]
    fn adj(&self, p: u32) -> (u32, u32) {
        let i = (self.o_adj + 2 * p) as usize;
        (self.w[i], self.w[i + 1])
    }

    /// Vertex `v`'s needs as flattened `(edge_label, count)` pairs.
    #[inline]
    fn needs(&self, v: u32) -> &'a [u32] {
        let p = (self.o_need_off + v) as usize;
        &self.w[(self.o_need + 2 * self.w[p]) as usize..(self.o_need + 2 * self.w[p + 1]) as usize]
    }

    /// The matching order: a permutation of the vertices.
    #[inline]
    fn order(&self) -> &'a [u32] {
        &self.w[self.o_order as usize..self.o_adj_off as usize]
    }

    /// Whether no full edge and no stub touches `v`.
    #[inline]
    fn is_isolated(&self, v: u32) -> bool {
        self.needs(v).is_empty()
    }

    #[inline]
    fn vruns(&self) -> &'a [u32] {
        &self.w[HEADER..self.o_hruns as usize]
    }

    #[inline]
    fn hruns(&self) -> &'a [u32] {
        &self.w[self.o_hruns as usize..self.o_eruns as usize]
    }

    #[inline]
    fn eruns(&self) -> &'a [u32] {
        &self.w[self.o_eruns as usize..self.o_vlabels as usize]
    }

    /// How many non-wildcard vertex labels the query is short of
    /// (saturating at 2) and the last such label.
    #[inline]
    pub(crate) fn vertex_deficit(&self, plan: &GraphPlan) -> (u32, u32) {
        deficit(self.vruns(), |l| plan.vlabel_count(l))
    }

    /// How many full-edge labels the query is short of (saturating at 2)
    /// and the last such label.
    #[inline]
    pub(crate) fn edge_deficit(&self, plan: &GraphPlan) -> (u32, u32) {
        deficit(self.eruns(), |l| plan.elabel_count(l))
    }

    /// The Pars label prefilter for a chain *start*: non-wildcard vertex
    /// labels ⊑ query vertex labels and full-edge + stub labels ⊑ query
    /// edge labels. The second half is **not** implied by [`embeds`]
    /// (stubs on different vertices may share a query edge), so it is
    /// part of what makes a start, not a shortcut for the matcher.
    #[inline]
    pub fn label_feasible(&self, plan: &GraphPlan) -> bool {
        self.vertex_deficit(plan).0 == 0 && deficit(self.hruns(), |l| plan.elabel_count(l)).0 == 0
    }

    /// The distinct one-operation masks of this part: every full edge,
    /// every stub not identical to the one before it, a wildcard for
    /// every vertex not already one, and every isolated vertex.
    pub fn masks(self) -> impl Iterator<Item = Mask> + 'a {
        let (k, ne, nh) = (
            self.num_vertices() as u32,
            self.num_edges() as u32,
            self.num_stubs() as u32,
        );
        (0..ne)
            .map(Mask::DropEdge)
            .chain(
                (0..nh)
                    .filter(move |&i| i == 0 || self.stub(i) != self.stub(i - 1))
                    .map(Mask::DropStub),
            )
            .chain(
                (0..k)
                    .filter(move |&v| self.vlabel(v) != WILDCARD)
                    .map(Mask::Wildcard),
            )
            .chain(
                (0..k)
                    .filter(move |&v| self.is_isolated(v))
                    .map(Mask::DropVertex),
            )
    }
}

/// Caller-owned buffers of the matcher; sized on use, never shrunk.
#[derive(Clone, Debug, Default)]
pub struct MatchScratch {
    /// Part vertex → query vertex (`NONE` = unmapped).
    mapping: Vec<u32>,
    /// Query vertex taken.
    used: Vec<bool>,
}

/// A [`Mask`] resolved against its part: which adjacency entries to
/// skip, which `(vertex, edge label)` needs to discount by one, which
/// vertex matches any label, which vertex is gone. `NONE` everywhere
/// for [`Mask::None`].
#[derive(Clone, Copy)]
struct Active {
    skip: [u32; 2],
    dec: [(u32, u32); 2],
    wild: u32,
    gone: u32,
}

impl Active {
    fn resolve(part: &CompiledPart<'_>, mask: Mask) -> Self {
        let mut act = Active {
            skip: [NONE; 2],
            dec: [(NONE, NONE); 2],
            wild: NONE,
            gone: NONE,
        };
        match mask {
            Mask::None => {}
            Mask::DropEdge(i) => {
                let (u, v, l) = part.edge(i);
                // The first matching entry on each side: with duplicate
                // edges any one of them stands for edge `i`.
                let find = |a: u32, b: u32| {
                    let (lo, hi) = part.adj_range(a);
                    (lo..hi).find(|&p| part.adj(p) == (b, l)).unwrap_or(NONE)
                };
                act.skip = [find(u, v), find(v, u)];
                act.dec = [(u, l), (v, l)];
            }
            Mask::DropStub(i) => act.dec[0] = part.stub(i),
            Mask::Wildcard(v) => act.wild = v,
            Mask::DropVertex(v) => act.gone = v,
        }
        act
    }
}

/// The search state of one [`embeds`] call.
struct Matcher<'a> {
    part: CompiledPart<'a>,
    act: Active,
    plan: &'a GraphPlan,
    s: &'a mut MatchScratch,
}

impl<'a> Matcher<'a> {
    /// Label and incident capacity: what `v ↦ u` needs regardless of the
    /// rest of the mapping.
    #[inline]
    fn compatible(&self, v: u32, u: u32) -> bool {
        let vl = self.part.vlabel(v);
        if vl != WILDCARD && v != self.act.wild && self.plan.vlabel(u) != vl {
            return false;
        }
        for need in self.part.needs(v).chunks_exact(2) {
            let (label, mut count) = (need[0], need[1]);
            count -= u32::from(self.act.dec[0] == (v, label));
            count -= u32::from(self.act.dec[1] == (v, label));
            if count > 0 && self.plan.incident_label_count(u, label) < count {
                return false;
            }
        }
        true
    }

    /// Full edges from `v` to already-mapped part vertices must exist
    /// between the images with the same label.
    #[inline]
    fn edges_hold(&self, v: u32, u: u32) -> bool {
        let (lo, hi) = self.part.adj_range(v);
        (lo..hi).all(|p| {
            if p == self.act.skip[0] || p == self.act.skip[1] {
                return true;
            }
            let (x, l) = self.part.adj(p);
            let img = self.s.mapping[x as usize];
            img == NONE || self.plan.edge_label(u, img) == Some(l)
        })
    }

    /// The query vertices `v` could map to by label alone.
    #[inline]
    fn label_domain(&self, v: u32) -> Option<&'a [u32]> {
        let (vl, plan) = (self.part.vlabel(v), self.plan);
        (vl != WILDCARD && v != self.act.wild).then(|| plan.vertices_with_label(vl))
    }

    /// Pre-reject: every live part vertex needs some compatible query
    /// vertex. Checked in matching order — the best-connected vertices
    /// are the likeliest to have none — and not for the first, whose
    /// candidates the search enumerates anyway.
    fn every_vertex_has_a_home(&self) -> bool {
        self.part.order().iter().skip(1).all(|&v| {
            v == self.act.gone
                || match self.label_domain(v) {
                    Some(domain) => domain.iter().any(|&u| self.compatible(v, u)),
                    None => (0..self.plan.num_vertices() as u32).any(|u| self.compatible(v, u)),
                }
        })
    }

    fn try_vertex(&mut self, depth: usize, v: u32, u: u32) -> bool {
        if self.s.used[u as usize] || !self.compatible(v, u) || !self.edges_hold(v, u) {
            return false;
        }
        self.s.mapping[v as usize] = u;
        self.s.used[u as usize] = true;
        if self.backtrack(depth + 1) {
            return true;
        }
        self.s.mapping[v as usize] = NONE;
        self.s.used[u as usize] = false;
        false
    }

    fn backtrack(&mut self, depth: usize) -> bool {
        if depth == self.part.num_vertices() {
            return true;
        }
        let v = self.part.order()[depth];
        if v == self.act.gone {
            return self.backtrack(depth + 1);
        }
        // Candidate images: neighbors of a mapped neighbor's image when
        // there is one (connectivity pruning), else the label's vertices.
        let (lo, hi) = self.part.adj_range(v);
        let anchor = (lo..hi)
            .filter(|&p| p != self.act.skip[0] && p != self.act.skip[1])
            .map(|p| self.s.mapping[self.part.adj(p).0 as usize])
            .find(|&img| img != NONE);
        let plan = self.plan;
        if let Some(anchor) = anchor {
            plan.neighbors(anchor)
                .iter()
                .any(|&(u, _)| self.try_vertex(depth, v, u))
        } else if let Some(domain) = self.label_domain(v) {
            domain.iter().any(|&u| self.try_vertex(depth, v, u))
        } else {
            (0..plan.num_vertices() as u32).any(|u| self.try_vertex(depth, v, u))
        }
    }
}

/// The matcher proper: pre-reject, then backtracking. Exact on any
/// input; callers first apply whichever size and label-multiset
/// conditions they have not already established.
pub(crate) fn search(
    part: CompiledPart<'_>,
    mask: Mask,
    plan: &GraphPlan,
    s: &mut MatchScratch,
) -> bool {
    s.mapping.clear();
    s.mapping.resize(part.num_vertices(), NONE);
    s.used.clear();
    s.used.resize(plan.num_vertices(), false);
    let mut m = Matcher {
        part,
        act: Active::resolve(&part, mask),
        plan,
        s,
    };
    m.every_vertex_has_a_home() && m.backtrack(0)
}

/// Whether `part`, read through `mask`, embeds in the planned query
/// (see module docs). Allocation-free once `scratch` has grown to the
/// part and query sizes.
pub fn embeds(
    part: CompiledPart<'_>,
    mask: Mask,
    plan: &GraphPlan,
    scratch: &mut MatchScratch,
) -> bool {
    let live = part.num_vertices() - usize::from(matches!(mask, Mask::DropVertex(_)));
    if live > plan.num_vertices() {
        return false;
    }
    // Label multisets of the variant: the mask forgives one vertex label
    // (wildcarded or dropped) or one full-edge label.
    let (dv, dv_label) = part.vertex_deficit(plan);
    let (de, de_label) = part.edge_deficit(plan);
    let forgiven = match mask {
        Mask::Wildcard(v) | Mask::DropVertex(v) => de == 0 && dv == 1 && part.vlabel(v) == dv_label,
        Mask::DropEdge(i) => dv == 0 && de == 1 && part.edge(i).2 == de_label,
        Mask::None | Mask::DropStub(_) => false,
    };
    (dv + de == 0 || forgiven) && search(part, mask, plan, scratch)
}

/// Whether `part` embeds intact in `q`: compiles the part, plans the
/// query and runs [`embeds`]. Engines compile and plan once instead.
pub fn part_embeds(part: &Part, q: &Graph) -> bool {
    part_embeds_planned(part, &GraphPlan::new(q), &mut MatchScratch::default())
}

/// [`part_embeds`] against an existing plan.
pub(crate) fn part_embeds_planned(part: &Part, plan: &GraphPlan, s: &mut MatchScratch) -> bool {
    embeds(PartArena::compile([part]).part(0), Mask::None, plan, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_graph;

    fn labeled_path(vl: &[u32], el: &[u32]) -> Graph {
        let mut g = Graph::new(vl.to_vec());
        for (i, &l) in el.iter().enumerate() {
            g.add_edge(i as u32, i as u32 + 1, l);
        }
        g
    }

    #[test]
    fn whole_graph_embeds_in_itself() {
        let g = labeled_path(&[1, 2, 3, 2], &[5, 6, 5]);
        let parts = partition_graph(&g, 1);
        assert!(part_embeds(&parts[0], &g));
    }

    #[test]
    fn parts_of_a_graph_embed_in_it() {
        let g = labeled_path(&[1, 2, 3, 2, 1, 3], &[5, 6, 5, 6, 5]);
        for m in 1..=4usize {
            for part in partition_graph(&g, m) {
                assert!(part_embeds(&part, &g), "m={m} part={part:?}");
            }
        }
    }

    #[test]
    fn label_mismatch_rejects() {
        let part = Part {
            vlabels: vec![7],
            edges: vec![],
            half: vec![],
        };
        let q = Graph::new(vec![1, 2, 3]);
        assert!(!part_embeds(&part, &q));
        let part_ok = Part {
            vlabels: vec![2],
            edges: vec![],
            half: vec![],
        };
        assert!(part_embeds(&part_ok, &q));
    }

    #[test]
    fn wildcard_matches_any_label() {
        let part = Part {
            vlabels: vec![crate::graph::WILDCARD],
            edges: vec![],
            half: vec![],
        };
        let q = Graph::new(vec![42]);
        assert!(part_embeds(&part, &q));
    }

    #[test]
    fn full_edge_label_must_match() {
        let part = Part {
            vlabels: vec![1, 2],
            edges: vec![(0, 1, 9)],
            half: vec![],
        };
        let mut q = Graph::new(vec![1, 2]);
        q.add_edge(0, 1, 8);
        assert!(!part_embeds(&part, &q));
        let mut q2 = Graph::new(vec![1, 2]);
        q2.add_edge(0, 1, 9);
        assert!(part_embeds(&part, &q2));
    }

    #[test]
    fn half_edge_requires_incident_capacity() {
        // Part: single vertex labeled 1 with two stubs of label 3.
        let part = Part {
            vlabels: vec![1],
            edges: vec![],
            half: vec![(0, 3), (0, 3)],
        };
        // q1: vertex 1 with only one incident label-3 edge: reject.
        let mut q1 = Graph::new(vec![1, 2]);
        q1.add_edge(0, 1, 3);
        assert!(!part_embeds(&part, &q1));
        // q2: vertex 1 with two incident label-3 edges: accept.
        let mut q2 = Graph::new(vec![1, 2, 2]);
        q2.add_edge(0, 1, 3);
        q2.add_edge(0, 2, 3);
        assert!(part_embeds(&part, &q2));
    }

    #[test]
    fn injectivity_enforced() {
        // Two part vertices with the same label cannot share one query
        // vertex.
        let part = Part {
            vlabels: vec![5, 5],
            edges: vec![],
            half: vec![],
        };
        let q1 = Graph::new(vec![5]);
        assert!(!part_embeds(&part, &q1));
        let q2 = Graph::new(vec![5, 5]);
        assert!(part_embeds(&part, &q2));
    }

    #[test]
    fn disconnected_part_embeds() {
        let part = Part {
            vlabels: vec![1, 2],
            edges: vec![],
            half: vec![],
        };
        let mut q = Graph::new(vec![2, 3, 1]);
        q.add_edge(0, 1, 0);
        assert!(part_embeds(&part, &q));
    }

    #[test]
    fn triangle_does_not_embed_in_path() {
        let mut tri = Graph::new(vec![1, 1, 1]);
        tri.add_edge(0, 1, 0);
        tri.add_edge(1, 2, 0);
        tri.add_edge(0, 2, 0);
        let parts = partition_graph(&tri, 1);
        let path = labeled_path(&[1, 1, 1], &[0, 0]);
        assert!(!part_embeds(&parts[0], &path));
    }

    #[test]
    fn compiled_record_round_trips_the_part() {
        let part = Part {
            vlabels: vec![4, WILDCARD, 4, 9],
            edges: vec![(0, 1, 7), (1, 2, 8)],
            half: vec![(2, 8), (0, 7), (2, 8)],
        };
        let arena = PartArena::compile([&part, &Part::default()]);
        assert_eq!(arena.len(), 2);
        let c = arena.part(0);
        assert_eq!((c.num_vertices(), c.num_edges(), c.num_stubs()), (4, 2, 3));
        assert_eq!(c.vruns(), &[4, 2, 9, 1]);
        assert_eq!(c.eruns(), &[7, 1, 8, 1]);
        assert_eq!(c.hruns(), &[7, 2, 8, 3]);
        assert_eq!(arena.part(1).vruns(), &[] as &[u32]);
        assert_eq!(
            (0..4).map(|v| c.vlabel(v)).collect::<Vec<_>>(),
            part.vlabels
        );
        assert_eq!((c.edge(0), c.edge(1)), ((0, 1, 7), (1, 2, 8)));
        assert_eq!((c.stub(0), c.stub(1), c.stub(2)), ((0, 7), (2, 8), (2, 8)));
        assert_eq!(c.needs(0), &[7, 2]);
        assert_eq!(c.needs(1), &[7, 1, 8, 1]);
        assert_eq!(c.needs(2), &[8, 3]);
        assert!(c.is_isolated(3) && !c.is_isolated(0));
        assert_eq!(arena.signatures(0, 2), &[label_bit(4) | label_bit(9), 0]);
        // Order: vertex 1 (degree 2) seeds, its component follows, the
        // isolated vertex comes last.
        assert_eq!((c.order()[0], c.order()[3]), (1, 3));
        assert_eq!(
            c.masks().collect::<Vec<_>>(),
            vec![
                Mask::DropEdge(0),
                Mask::DropEdge(1),
                Mask::DropStub(0),
                Mask::DropStub(1),
                Mask::Wildcard(0),
                Mask::Wildcard(2),
                Mask::Wildcard(3),
                Mask::DropVertex(3),
            ]
        );
        let empty = arena.part(1);
        assert_eq!(empty.num_vertices(), 0);
        assert_eq!(empty.masks().count(), 0);
    }
}
