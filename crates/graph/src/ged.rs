//! Exact graph edit distance by threshold-pruned branch and bound.
//!
//! One depth-first search over vertex mappings (the A\* search of Riesen
//! & Bunke in its memory-friendly DFS form). The vertices of `a` are
//! assigned in descending-degree order (ties by id); each one goes to an
//! unused vertex of `b` — those carrying its label first, then the rest,
//! each group ascending — or last to ε (deletion). An edge is charged
//! when its *second* endpoint is resolved, so every edge is counted once;
//! at a leaf the unused vertices of `b` and the edges of `b` still
//! unresolved are insertions. The operations priced (all unit cost) are
//! exactly the paper's §2.2 set.
//!
//! **Lower bound.** A child is pruned when `g + step > t` (`g` the cost
//! so far, `step` what this assignment resolves), and its subtree when
//! `g + step + h > t`. `h` prices the rest from below in two parts that
//! count disjoint operations, both of the form
//! `max(|U_a|, |U_b|) − Σ_l min(u_{a,l}, u_{b,l})` over a pair of
//! unresolved label multisets:
//!
//! * *vertices* — `U_a` the unassigned vertices of `a`, `U_b` the unused
//!   vertices of `b`, counted by vertex label;
//! * *edges* — `U_a` the edges of `a` with an unassigned endpoint, `U_b`
//!   the edges of `b` with an unused endpoint, counted by edge label.
//!
//! Admissibility is one argument for both. Every future vertex (edge)
//! operation involves an element of `U_a ∪ U_b`: a vertex of `U_a` is
//! later mapped to a vertex of `U_b` or deleted, and an edge of `U_a`
//! resolves later against the pair of images, one of which is assigned
//! later — so if that pair is an edge of `b` it lies in `U_b`. Future
//! pairs therefore match `M` elements of `U_a` injectively to `U_b`,
//! `S ≤ M` of them with equal labels, and cost
//! `(|U_a| − M) + (|U_b| − M) + (M − S) = |U_a| + |U_b| − M − S`. With
//! `M ≤ min(|U_a|, |U_b|)` and `S ≤ Σ_l min(u_{a,l}, u_{b,l})` that is at
//! least `max(|U_a|, |U_b|) − Σ_l min(u_{a,l}, u_{b,l})`. Since the sum
//! of minima never exceeds `min(|U_a|, |U_b|)`, the edge part is never
//! looser than the unresolved edge-count gap `||U_a| − |U_b||`.
//!
//! Both parts are kept in step with the search (`Balance`): a label is
//! a dense id — its position among the query's distinct labels, with
//! every label the query lacks sharing one last id whose query-side
//! count is 0 — and assigning or undoing moves one count per vertex or
//! edge and adjusts the sum of minima by the ±1 that causes. At a leaf
//! nothing of `a` is unresolved and `h` is exactly the insertions left,
//! so the first leaf the search reaches is a complete mapping within `t`.
//!
//! **First witness.** The search stops at that first complete mapping
//! and returns its cost `c ≤ t`: an upper bound on `ged(a, b)` and a
//! proof that `ged(a, b) ≤ t` — all a verifier asks. `PartIndex::verify`
//! loads the query side (label ids and groups, CSR adjacency) into a
//! `GedScratch` once per query and runs the search once per candidate.
//!
//! **Restart loop.** [`ged_within`] promises the exact distance, so after
//! a witness of cost `c` it reruns the same search at `t = c − 1` until
//! none is found; because the bound is admissible, no mapping cheaper
//! than the last witness exists, and its cost is `ged(a, b)`.
//!
//! Nothing is allocated per search node: the child loop walks `b`'s
//! label group and then its other vertices in place, and the insertions
//! of an assignment are counted as resolved `b` edges minus matched
//! pairs, so no preimage is looked up. With its scratch warm — the
//! engine's, or the per-thread one behind [`ged_within`] — a whole
//! verification allocates nothing.

use crate::graph::Graph;
use core::cell::RefCell;

const EPS: u32 = u32::MAX - 1;
const UNASSIGNED: u32 = u32::MAX;

/// Unresolved label counts of the two sides, their totals and
/// `Σ_l min(a_l, b_l)`, kept in step through apply / undo.
#[derive(Clone, Debug, Default)]
struct Balance {
    /// The query's counts per label id (the last id, labels the query
    /// lacks, counts 0): what `b` starts from for every data graph.
    query: Vec<u32>,
    a: Vec<u32>,
    b: Vec<u32>,
    total_a: u32,
    total_b: u32,
    common: u32,
}

impl Balance {
    /// Loads the query's counts per label id.
    fn set_query(&mut self, counts: impl Iterator<Item = u32>) {
        self.query.clear();
        self.query.extend(counts);
        self.query.push(0);
    }

    /// Starts both sides over: `b` from the query, `a` from `labels`.
    fn set_data(&mut self, labels: impl Iterator<Item = u32>) {
        self.b.clone_from(&self.query);
        self.a.clear();
        self.a.resize(self.query.len(), 0);
        self.total_a = 0;
        for l in labels {
            self.a[l as usize] += 1;
            self.total_a += 1;
        }
        self.total_b = self.b.iter().sum();
        self.common = self.a.iter().zip(&self.b).map(|(&x, &y)| x.min(y)).sum();
    }

    /// `max(|U_a|, |U_b|) − Σ_l min(a_l, b_l)` (module docs).
    #[inline]
    fn bound(&self) -> u32 {
        self.total_a.max(self.total_b) - self.common
    }

    #[inline]
    fn dec_a(&mut self, l: u32) {
        let l = l as usize;
        self.common -= u32::from(self.a[l] <= self.b[l]);
        self.a[l] -= 1;
        self.total_a -= 1;
    }

    #[inline]
    fn inc_a(&mut self, l: u32) {
        let l = l as usize;
        self.a[l] += 1;
        self.total_a += 1;
        self.common += u32::from(self.a[l] <= self.b[l]);
    }

    #[inline]
    fn dec_b(&mut self, l: u32) {
        let l = l as usize;
        self.common -= u32::from(self.b[l] <= self.a[l]);
        self.b[l] -= 1;
        self.total_b -= 1;
    }

    #[inline]
    fn inc_b(&mut self, l: u32) {
        let l = l as usize;
        self.b[l] += 1;
        self.total_b += 1;
        self.common += u32::from(self.b[l] <= self.a[l]);
    }
}

/// One side of the search: vertex label ids and a CSR adjacency of
/// `(neighbor, edge-label id)`, ascending by neighbor.
#[derive(Clone, Debug, Default)]
struct Side {
    label: Vec<u32>,
    off: Vec<u32>,
    adj: Vec<(u32, u32)>,
}

impl Side {
    fn clear(&mut self) {
        self.label.clear();
        self.adj.clear();
        self.off.clear();
        self.off.push(0);
    }

    /// Ends the adjacency row of the vertex just added.
    fn close_row(&mut self) {
        self.off.push(self.adj.len() as u32);
    }

    #[inline]
    fn neighbors(&self, v: usize) -> &[(u32, u32)] {
        &self.adj[self.off[v] as usize..self.off[v + 1] as usize]
    }

    fn num_vertices(&self) -> usize {
        self.label.len()
    }

    fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }
}

/// The verifier's reusable state: the query side loaded by
/// [`GedScratch::set_query`] and the search over one data graph. Load a
/// query before the first [`GedScratch::within`]; with the buffers warm,
/// verification allocates nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct GedScratch {
    /// The query's distinct vertex / edge labels ascending: a label's id
    /// is its position, and a label not listed gets the next id.
    vkeys: Vec<u32>,
    ekeys: Vec<u32>,
    /// Query vertices grouped by label id:
    /// `by_label[label_off[c]..label_off[c + 1]]`, ascending.
    by_label: Vec<u32>,
    label_off: Vec<u32>,
    /// The query (`b`).
    q: Side,
    /// The data graph (`a`) being verified.
    x: Side,
    /// Data vertices in assignment order.
    order: Vec<u32>,
    /// Per data vertex: its query image, `EPS` or `UNASSIGNED`.
    image: Vec<u32>,
    /// Per query vertex: whether it is some data vertex's image.
    used: Vec<bool>,
    vertices: Balance,
    edges: Balance,
}

impl GedScratch {
    /// Loads query `q`: its label ids and groups, and its adjacency.
    pub(crate) fn set_query(&mut self, q: &Graph) {
        let n = q.num_vertices();
        self.by_label.clear();
        self.by_label.extend(0..n as u32);
        self.by_label.sort_unstable_by_key(|&u| (q.vlabel(u), u));
        self.vkeys.clear();
        self.label_off.clear();
        self.q.clear();
        self.q.label.resize(n, 0);
        for (i, &u) in self.by_label.iter().enumerate() {
            let l = q.vlabel(u);
            if self.vkeys.last() != Some(&l) {
                self.vkeys.push(l);
                self.label_off.push(i as u32);
            }
            self.q.label[u as usize] = self.vkeys.len() as u32 - 1;
        }
        self.label_off.push(n as u32);
        self.ekeys.clear();
        self.ekeys.extend(q.edges().map(|(_, _, l)| l));
        self.ekeys.sort_unstable();
        self.edges.set_query(
            self.ekeys
                .chunk_by(|x, y| x == y)
                .map(|run| run.len() as u32),
        );
        self.ekeys.dedup();
        for u in 0..n as u32 {
            for &(w, l) in q.neighbors(u) {
                self.q.adj.push((w, key(&self.ekeys, l)));
            }
            self.q.close_row();
        }
        self.vertices
            .set_query(self.label_off.windows(2).map(|w| w[1] - w[0]));
    }

    /// Loads data graph `a` against the query and resets the search.
    fn set_data(&mut self, a: &Graph) {
        let n = a.num_vertices();
        self.x.clear();
        for v in 0..n as u32 {
            self.x.label.push(key(&self.vkeys, a.vlabel(v)));
            for &(w, l) in a.neighbors(v) {
                self.x.adj.push((w, key(&self.ekeys, l)));
            }
            self.x.close_row();
        }
        self.order.clear();
        self.order.extend(0..n as u32);
        self.order
            .sort_unstable_by_key(|&v| (core::cmp::Reverse(a.degree(v)), v));
        self.image.clear();
        self.image.resize(n, UNASSIGNED);
        self.used.clear();
        self.used.resize(self.q.num_vertices(), false);
        self.vertices.set_data(self.x.label.iter().copied());
        let x = &self.x;
        self.edges.set_data((0..n).flat_map(|v| {
            x.neighbors(v)
                .iter()
                .filter(move |&&(w, _)| (v as u32) < w)
                .map(|&(_, e)| e)
        }));
    }

    /// The first-witness search (module docs) of `a` against the loaded
    /// query: `Some(c)` with `ged(a, q) ≤ c ≤ tau`, or `None` iff
    /// `ged(a, q) > tau`.
    pub(crate) fn within(&mut self, a: &Graph, tau: u32) -> Option<u32> {
        // Cheap necessary condition first.
        let size_gap = a.num_vertices().abs_diff(self.q.num_vertices())
            + a.num_edges().abs_diff(self.q.num_edges());
        if size_gap > tau as usize {
            return None;
        }
        self.set_data(a);
        self.first_witness(tau)
    }

    /// The cost of the first complete mapping within `limit` of the
    /// loaded pair, leaving the search state as it found it.
    fn first_witness(&mut self, limit: u32) -> Option<u32> {
        if self.h() > limit {
            return None;
        }
        self.dfs(0, 0, limit)
    }

    /// Admissible lower bound on the cost of the unresolved rest.
    #[inline]
    fn h(&self) -> u32 {
        self.vertices.bound() + self.edges.bound()
    }

    fn dfs(&mut self, depth: usize, g: u32, limit: u32) -> Option<u32> {
        let Some(&v) = self.order.get(depth) else {
            // Every data vertex is resolved: the rest of the query is
            // inserted.
            return Some(g + self.vertices.total_b + self.edges.total_b);
        };
        let v = v as usize;
        let label = self.x.label[v];
        // On the data side resolving `v` is the same for every child: its
        // label and its edges to assigned neighbors leave the unresolved
        // sets.
        self.vertices.dec_a(label);
        let mut resolved = 0;
        for i in self.x.off[v] as usize..self.x.off[v + 1] as usize {
            let (w, e) = self.x.adj[i];
            if self.image[w as usize] != UNASSIGNED {
                self.edges.dec_a(e);
                resolved += 1;
            }
        }
        let found = self.children(depth, v, g, limit, resolved);
        for i in self.x.off[v] as usize..self.x.off[v + 1] as usize {
            let (w, e) = self.x.adj[i];
            if self.image[w as usize] != UNASSIGNED {
                self.edges.inc_a(e);
            }
        }
        self.vertices.inc_a(label);
        found
    }

    /// `v`'s children in order: unused query vertices with its label, the
    /// other unused ones, then ε. `resolved` counts `v`'s edges to
    /// assigned neighbors.
    fn children(
        &mut self,
        depth: usize,
        v: usize,
        g: u32,
        limit: u32,
        resolved: u32,
    ) -> Option<u32> {
        let label = self.x.label[v];
        if let Some(bounds) = self.label_off.get(label as usize..label as usize + 2) {
            for i in bounds[0] as usize..bounds[1] as usize {
                let u = self.by_label[i] as usize;
                if !self.used[u] {
                    if let Some(c) = self.child(depth, v, u, g, limit) {
                        return Some(c);
                    }
                }
            }
        }
        for u in 0..self.q.num_vertices() {
            if !self.used[u] && self.q.label[u] != label {
                if let Some(c) = self.child(depth, v, u, g, limit) {
                    return Some(c);
                }
            }
        }
        // v → ε: delete v and each resolved edge at it; nothing of the
        // query changes.
        let step = 1 + resolved;
        if g + step + self.h() > limit {
            return None;
        }
        self.image[v] = EPS;
        let found = self.dfs(depth + 1, g + step, limit);
        self.image[v] = UNASSIGNED;
        found
    }

    /// Tries `v → u`.
    fn child(&mut self, depth: usize, v: usize, u: usize, g: u32, limit: u32) -> Option<u32> {
        let step = self.step(v, u);
        if g + step > limit {
            return None;
        }
        self.image[v] = u as u32;
        self.used[u] = true;
        self.vertices.dec_b(self.q.label[u]);
        for i in self.q.off[u] as usize..self.q.off[u + 1] as usize {
            let (w, e) = self.q.adj[i];
            if self.used[w as usize] {
                self.edges.dec_b(e);
            }
        }
        let found = if g + step + self.h() <= limit {
            self.dfs(depth + 1, g + step, limit)
        } else {
            None
        };
        for i in self.q.off[u] as usize..self.q.off[u + 1] as usize {
            let (w, e) = self.q.adj[i];
            if self.used[w as usize] {
                self.edges.inc_b(e);
            }
        }
        self.vertices.inc_b(self.q.label[u]);
        self.used[u] = false;
        self.image[v] = UNASSIGNED;
        found
    }

    /// Cost of `v → u`: the relabel, if any, and every edge it resolves —
    /// data edges to assigned neighbors (kept, relabelled or deleted) and
    /// query edges to used vertices that none of those matched
    /// (inserted).
    #[inline]
    fn step(&self, v: usize, u: usize) -> u32 {
        let mut cost = u32::from(self.x.label[v] != self.q.label[u]);
        let q_nbrs = self.q.neighbors(u);
        let mut matched = 0;
        for &(w, e) in self.x.neighbors(v) {
            match self.image[w as usize] {
                UNASSIGNED => {}
                EPS => cost += 1,
                img => match q_nbrs.binary_search_by_key(&img, |&(y, _)| y) {
                    Ok(i) => {
                        matched += 1;
                        cost += u32::from(q_nbrs[i].1 != e);
                    }
                    Err(_) => cost += 1,
                },
            }
        }
        let resolved_q = q_nbrs
            .iter()
            .filter(|&&(w, _)| self.used[w as usize])
            .count() as u32;
        cost + resolved_q - matched
    }
}

/// `label`'s id among the sorted distinct `keys`: its position, or
/// `keys.len()` for a label not among them.
#[inline]
fn key(keys: &[u32], label: u32) -> u32 {
    keys.binary_search(&label).unwrap_or(keys.len()) as u32
}

/// Exact threshold check: returns `Some(ged(a, b))` iff it is `≤ tau`
/// (the restart loop of the module docs, on a per-thread scratch).
pub fn ged_within(a: &Graph, b: &Graph, tau: u32) -> Option<u32> {
    thread_local! {
        static SCRATCH: RefCell<GedScratch> = RefCell::default();
    }
    SCRATCH.with_borrow_mut(|s| {
        s.set_query(b);
        let mut best = s.within(a, tau)?;
        while best > 0 {
            match s.first_witness(best - 1) {
                Some(c) => best = c,
                None => break,
            }
        }
        Some(best)
    })
}

/// Exact graph edit distance. Intended for tests and small graphs.
pub fn ged(a: &Graph, b: &Graph) -> u32 {
    // Deleting all of `a` and inserting all of `b` costs exactly `cap`.
    let cap = (a.num_vertices() + b.num_vertices() + a.num_edges() + b.num_edges()) as u32;
    ged_within(a, b, cap).unwrap_or(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(vl: &[u32], el: &[u32]) -> Graph {
        let mut g = Graph::new(vl.to_vec());
        for (i, &l) in el.iter().enumerate() {
            g.add_edge(i as u32, i as u32 + 1, l);
        }
        g
    }

    #[test]
    fn identical_graphs_distance_zero() {
        let g = path(&[1, 2, 3], &[7, 8]);
        assert_eq!(ged(&g, &g), 0);
        assert_eq!(ged_within(&g, &g, 0), Some(0));
    }

    #[test]
    fn single_operations_cost_one() {
        let g = path(&[1, 2, 3], &[7, 8]);
        // Vertex relabel.
        let g2 = path(&[1, 2, 4], &[7, 8]);
        assert_eq!(ged(&g, &g2), 1);
        // Edge relabel.
        let g3 = path(&[1, 2, 3], &[7, 9]);
        assert_eq!(ged(&g, &g3), 1);
        // Edge deletion.
        let mut g4 = Graph::new(vec![1, 2, 3]);
        g4.add_edge(0, 1, 7);
        assert_eq!(ged(&g, &g4), 1);
        // Isolated vertex insertion.
        let mut g5 = Graph::new(vec![1, 2, 3, 9]);
        g5.add_edge(0, 1, 7);
        g5.add_edge(1, 2, 8);
        assert_eq!(ged(&g, &g5), 1);
    }

    #[test]
    fn vertex_with_edges_needs_deletions_first() {
        // Removing a degree-2 vertex costs 2 edge deletions + 1 vertex
        // deletion.
        let g = path(&[1, 2, 1], &[5, 5]);
        let h = Graph::new(vec![1, 1]);
        assert_eq!(ged(&g, &h), 3);
    }

    #[test]
    fn symmetric() {
        let a = path(&[1, 2, 3, 4], &[1, 1, 2]);
        let b = path(&[1, 3, 3], &[1, 2]);
        assert_eq!(ged(&a, &b), ged(&b, &a));
    }

    #[test]
    fn triangle_inequality_on_samples() {
        let gs = [
            path(&[1, 2, 3], &[1, 1]),
            path(&[1, 2, 4], &[1, 2]),
            path(&[2, 2, 3, 3], &[1, 1, 1]),
            Graph::new(vec![5]),
        ];
        for a in &gs {
            for b in &gs {
                for c in &gs {
                    assert!(ged(a, c) <= ged(a, b) + ged(b, c));
                }
            }
        }
    }

    #[test]
    fn within_respects_threshold() {
        let a = path(&[1, 2, 3, 4, 5], &[1, 1, 1, 1]);
        let b = path(&[5, 4, 3, 2, 1], &[1, 1, 1, 1]);
        let d = ged(&a, &b);
        assert_eq!(ged_within(&a, &b, d), Some(d));
        if d > 0 {
            assert_eq!(ged_within(&a, &b, d - 1), None);
        }
    }

    #[test]
    fn size_gap_shortcut() {
        let a = Graph::new(vec![1]);
        let b = path(&[1, 2, 3, 4, 5, 6], &[1, 1, 1, 1, 1]);
        assert_eq!(ged_within(&a, &b, 3), None);
    }

    #[test]
    fn empty_vs_nonempty() {
        let a = Graph::new(vec![]);
        let b = path(&[1, 2], &[3]);
        assert_eq!(ged(&a, &b), 3); // insert 2 vertices + 1 edge
    }

    #[test]
    fn brute_force_cross_check_small() {
        // Pseudo-random small graphs; check ged via op-count witness:
        // apply k random ops to a graph, distance must be ≤ k.
        let mut s = 0xABCDu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..40 {
            let n = 3 + (next() % 3) as usize;
            let mut g = Graph::new((0..n).map(|_| (next() % 3) as u32).collect());
            for u in 0..n as u32 {
                for v in u + 1..n as u32 {
                    if next() % 2 == 0 {
                        g.add_edge(u, v, (next() % 2) as u32);
                    }
                }
            }
            // Apply one relabel.
            let mut h = g.clone();
            let mut labels = h.vlabels().to_vec();
            let v = (next() % n as u64) as usize;
            labels[v] = labels[v].wrapping_add(1) % 5;
            let mut h2 = Graph::new(labels);
            for (u, v, l) in h.edges() {
                h2.add_edge(u, v, l);
            }
            h = h2;
            let d = ged(&g, &h);
            assert!(d <= 1, "one op must cost at most 1, got {d}");
        }
    }
}
