//! Deletion neighborhoods for Ring box lower bounds (§6.4).
//!
//! The box value `b_j(x, q) = min{ ged(x_j, q') | q' ⊑ q }` is expensive;
//! the paper's remark replaces the exact value with a necessary-condition
//! test: `ged(x_j, q') ≤ t` for some subgraph `q'` only if some variant
//! of `x_j` produced by at most `t` *deletion-neighborhood operations*
//! (delete an edge or stub, delete an isolated vertex, change a vertex
//! label to the wildcard `∗`) embeds in `q` — a lower bound on `b_j`
//! (fewer ops than edits can only make embedding easier, so using it for
//! chain quotas preserves completeness).
//!
//! **What the engine runs.** Chain probes never get more than one
//! operation (see [`crate::ring`]), so a box is one of three values and
//! [`box_value`] computes it on a compiled part without materializing
//! anything: 0 if the part embeds, 1 if it embeds through some one-op
//! [`Mask`], else 2 ("at least two"). The part's label deficits against
//! the query decide first which masks can possibly help — a part short
//! of two labels is a 2 without a single search, a part short of one
//! vertex label only tries the wildcards and vertex drops on that label
//! — and every surviving mask is one call of the shared matcher.
//!
//! **The reference.** [`min_ops_to_match`] is the general-budget
//! breadth-first search over materialized variants. The engine no longer
//! calls it; the differential tests compare [`box_value`] against it.

use crate::graph::{Graph, WILDCARD};
use crate::partition::Part;
use crate::plan::GraphPlan;
use crate::subiso::{embeds, part_embeds_planned, search, CompiledPart, Mask, MatchScratch};
use std::collections::BTreeSet;

/// Whether some one-operation variant of `part` embeds in the planned
/// query. Exact: masks are skipped only when a size or label-multiset
/// condition every embedding satisfies rules their variant out.
pub fn one_op_embeds(part: CompiledPart<'_>, plan: &GraphPlan, scratch: &mut MatchScratch) -> bool {
    let (k, nq) = (part.num_vertices(), plan.num_vertices());
    if k > nq + 1 {
        return false;
    }
    let (dv, dv_label) = part.vertex_deficit(plan);
    let (de, de_label) = part.edge_deficit(plan);
    if dv + de >= 2 {
        return false;
    }
    // One operation repairs one shortfall: too many vertices needs a
    // vertex drop, a missing vertex label needs that vertex wildcarded
    // or dropped, a missing full-edge label needs that edge dropped.
    let fixes_vertices = |v: u32| de == 0 && (dv == 0 || part.vlabel(v) == dv_label);
    part.masks()
        .filter(|&mask| match mask {
            Mask::None => false,
            Mask::DropEdge(i) => k <= nq && dv == 0 && (de == 0 || part.edge(i).2 == de_label),
            Mask::DropStub(_) => k <= nq && dv + de == 0,
            Mask::Wildcard(v) => k <= nq && fixes_vertices(v),
            Mask::DropVertex(v) => fixes_vertices(v),
        })
        .any(|mask| search(part, mask, plan, scratch))
}

/// The two-bit box value of `part` against the planned query: 0 if it
/// embeds as is, 1 if a one-operation variant does, else 2 (meaning
/// "≥ 2"). Equals `min_ops_to_match(part, q, 1)` with `None` read as 2.
pub fn box_value(part: CompiledPart<'_>, plan: &GraphPlan, scratch: &mut MatchScratch) -> u8 {
    if embeds(part, Mask::None, plan, scratch) {
        0
    } else if one_op_embeds(part, plan, scratch) {
        1
    } else {
        2
    }
}

/// The full identity of a variant: labels, sorted edges, sorted stubs.
type CanonicalKey = (Vec<u32>, Vec<(u32, u32, u32)>, Vec<(u32, u32)>);

fn canonical_key(p: &Part) -> CanonicalKey {
    let mut edges = p.edges.clone();
    edges.sort_unstable();
    let mut half = p.half.clone();
    half.sort_unstable();
    (p.vlabels.clone(), edges, half)
}

/// All single-operation variants of `p`.
fn variants(p: &Part) -> Vec<Part> {
    let mut out = Vec::new();
    // Delete a full edge.
    for i in 0..p.edges.len() {
        let mut v = p.clone();
        v.edges.remove(i);
        out.push(v);
    }
    // Delete a half-edge stub.
    for i in 0..p.half.len() {
        let mut v = p.clone();
        v.half.remove(i);
        out.push(v);
    }
    // Wildcard a vertex label.
    for i in 0..p.vlabels.len() {
        if p.vlabels[i] != WILDCARD {
            let mut v = p.clone();
            v.vlabels[i] = WILDCARD;
            out.push(v);
        }
    }
    // Delete an isolated vertex (no full edges nor stubs touch it).
    for i in 0..p.vlabels.len() {
        let iu = i as u32;
        let touched = p.edges.iter().any(|&(a, b, _)| a == iu || b == iu)
            || p.half.iter().any(|&(v, _)| v == iu);
        if touched {
            continue;
        }
        let mut v = p.clone();
        v.vlabels.remove(i);
        // Renumber vertices above i.
        for e in &mut v.edges {
            if e.0 > iu {
                e.0 -= 1;
            }
            if e.1 > iu {
                e.1 -= 1;
            }
        }
        for hlf in &mut v.half {
            if hlf.0 > iu {
                hlf.0 -= 1;
            }
        }
        out.push(v);
    }
    out
}

/// Breadth-first search of the deletion neighborhood by increasing
/// operation count, testing every variant for which `keep` is true.
fn bfs(part: &Part, q: &Graph, budget: u32, mut keep: impl FnMut(&Part) -> bool) -> Option<u32> {
    let plan = GraphPlan::new(q);
    let mut scratch = MatchScratch::default();
    if part_embeds_planned(part, &plan, &mut scratch) {
        return Some(0);
    }
    let mut frontier = vec![part.clone()];
    for level in 1..=budget {
        let mut next = Vec::new();
        for p in &frontier {
            for v in variants(p) {
                if keep(&v) {
                    if part_embeds_planned(&v, &plan, &mut scratch) {
                        return Some(level);
                    }
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            return None;
        }
        frontier = next;
    }
    None
}

/// The smallest number of deletion-neighborhood operations (`≤ budget`)
/// that makes `part` embed in `q`, or `None` if no variant within budget
/// embeds. `Some(0)` means the part embeds as-is.
///
/// Variants reachable along several operation orders are tested once;
/// they are recognized by their full canonical form, never by a hash of
/// it, so no variant can be lost to a collision.
pub fn min_ops_to_match(part: &Part, q: &Graph, budget: u32) -> Option<u32> {
    let mut seen: BTreeSet<CanonicalKey> = BTreeSet::from([canonical_key(part)]);
    bfs(part, q, budget, |v| seen.insert(canonical_key(v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_part_needs_zero_ops() {
        let part = Part {
            vlabels: vec![1, 2],
            edges: vec![(0, 1, 5)],
            half: vec![],
        };
        let mut q = Graph::new(vec![2, 1]);
        q.add_edge(0, 1, 5);
        assert_eq!(min_ops_to_match(&part, &q, 2), Some(0));
    }

    #[test]
    fn one_wildcard_fixes_label_mismatch() {
        let part = Part {
            vlabels: vec![1, 9],
            edges: vec![(0, 1, 5)],
            half: vec![],
        };
        let mut q = Graph::new(vec![1, 2]);
        q.add_edge(0, 1, 5);
        assert_eq!(min_ops_to_match(&part, &q, 2), Some(1));
        assert_eq!(min_ops_to_match(&part, &q, 0), None);
    }

    #[test]
    fn edge_deletion_fixes_missing_edge() {
        let part = Part {
            vlabels: vec![1, 2],
            edges: vec![(0, 1, 5)],
            half: vec![],
        };
        let q = Graph::new(vec![1, 2]); // no edge
        assert_eq!(min_ops_to_match(&part, &q, 2), Some(1));
    }

    #[test]
    fn stub_deletion_counts() {
        let part = Part {
            vlabels: vec![1],
            edges: vec![],
            half: vec![(0, 5)],
        };
        let q = Graph::new(vec![1]); // vertex exists but no incident edge
        assert_eq!(min_ops_to_match(&part, &q, 1), Some(1));
    }

    #[test]
    fn isolated_vertex_deletion_after_edge_removal() {
        // Part has an extra vertex q lacks entirely; need: delete its
        // edge, then the isolated vertex — 2 ops (injectivity forces it).
        let part = Part {
            vlabels: vec![1, 9],
            edges: vec![(0, 1, 5)],
            half: vec![],
        };
        let q = Graph::new(vec![1]);
        assert_eq!(min_ops_to_match(&part, &q, 3), Some(2));
        assert_eq!(min_ops_to_match(&part, &q, 1), None);
    }

    #[test]
    fn example_12_style_budget_one_fails() {
        // A part two labels away from anything in q: one op (the budget
        // ⌊l·τ/m − b₀⌋ = 1 of Example 12) is not enough, so b₁ ≥ 2 and
        // the chain fails.
        let part = Part {
            vlabels: vec![8, 9],
            edges: vec![(0, 1, 7)],
            half: vec![],
        };
        let mut q = Graph::new(vec![1, 2, 3]);
        q.add_edge(0, 1, 5);
        q.add_edge(1, 2, 5);
        assert_eq!(min_ops_to_match(&part, &q, 1), None);
        // With budget 2+ a match eventually exists (wildcard both labels
        // won't fix the edge label; delete edge + ... needs more ops).
        let full = min_ops_to_match(&part, &q, 4);
        assert!(full.is_some_and(|t| t >= 2));
    }

    #[test]
    fn dedup_agrees_with_plain_enumeration() {
        // Repeated stubs and repeated labels make many operation orders
        // collapse onto one variant; recognizing them must never change
        // the answer an un-deduplicated enumeration gives.
        let parts = [
            Part {
                vlabels: vec![3, 3, 3],
                edges: vec![(0, 1, 5)],
                half: vec![(0, 5), (0, 5), (1, 5), (2, 6), (2, 6)],
            },
            Part {
                vlabels: vec![1, 1, 1, 1],
                edges: vec![],
                half: vec![(3, 2), (3, 2), (3, 2)],
            },
            Part {
                vlabels: vec![4, 4],
                edges: vec![(0, 1, 7)],
                half: vec![(0, 7), (1, 7), (1, 7)],
            },
        ];
        let mut star = Graph::new(vec![3, 3, 1, 4]);
        star.add_edge(0, 1, 5);
        star.add_edge(0, 2, 5);
        star.add_edge(0, 3, 7);
        let mut pair = Graph::new(vec![1, 1]);
        pair.add_edge(0, 1, 2);
        let queries = [star, pair, Graph::new(vec![3]), Graph::new(vec![])];
        for part in &parts {
            for q in &queries {
                for budget in 0..=3 {
                    assert_eq!(
                        min_ops_to_match(part, q, budget),
                        bfs(part, q, budget, |_| true),
                        "part={part:?} q={q:?} budget={budget}"
                    );
                }
            }
        }
    }
}
