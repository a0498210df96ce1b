//! The graph engine's query path allocates nothing once its scratch is
//! warm: every allocation made by this thread is counted by a wrapping
//! global allocator, and neither `RingGraph::candidates_with_plan` (the
//! filter) nor `search_planned` (filter and GED verification) may add
//! any.
//!
//! Kept in a test binary of its own so no other test shares the
//! allocator (the count is per thread all the same).

#![allow(
    unsafe_code,
    reason = "a counting global allocator must implement the unsafe `GlobalAlloc` trait"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pigeonring_graph::{Graph, GraphParams, GraphPlan, GraphScratch, RingGraph};
use pigeonring_service::SearchEngine;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `alloc` contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
    g
}

#[test]
fn warm_candidate_generation_does_not_allocate() {
    let graphs: Vec<Graph> = (0..300u64)
        .map(|i| molecule_like(i / 3, 10 + (i % 4) as usize, 6))
        .collect();
    let tau = 4;
    let ring = RingGraph::build(graphs.clone(), tau);
    let plans: Vec<GraphPlan> = graphs.iter().step_by(13).map(GraphPlan::new).collect();
    let mut scratch = GraphScratch::default();
    let mut out = Vec::new();
    let mut pass = |out: &mut Vec<u32>| {
        let mut totals = (0, 0);
        for plan in &plans {
            for l in 1..=tau + 1 {
                out.clear();
                let stats = ring.candidates_with_plan(&mut scratch, plan, l, out);
                totals = (totals.0 + stats.candidates, totals.1 + stats.boxes_checked);
            }
        }
        totals
    };
    // Warm-up: the scratch and `out` grow to what this workload needs.
    let warm = pass(&mut out);
    assert!(warm.1 > 0, "workload must reach chain probes");

    let before = ALLOCATIONS.with(Cell::get);
    let again = pass(&mut out);
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(again, warm);
    assert_eq!(allocated, 0, "warm filter path allocated {allocated} times");
}

/// `g` with vertex 0 relabelled: a graph at edit distance 1.
fn relabelled(g: &Graph, labels: u32) -> Graph {
    let mut vl = g.vlabels().to_vec();
    vl[0] = (vl[0] + 1) % labels;
    let mut h = Graph::new(vl);
    for (u, v, l) in g.edges() {
        h.add_edge(u, v, l);
    }
    h
}

#[test]
fn warm_search_planned_does_not_allocate() {
    // Pairs at distance 1, so verification both accepts and rejects.
    let graphs: Vec<Graph> = (0..300u64)
        .map(|i| {
            let g = molecule_like(i / 2, 10 + (i / 2 % 4) as usize, 6);
            if i % 2 == 0 {
                g
            } else {
                relabelled(&g, 6)
            }
        })
        .collect();
    let tau = 4;
    let ring = RingGraph::build(graphs.clone(), tau);
    let queries: Vec<&Graph> = graphs.iter().step_by(13).collect();
    let plans: Vec<GraphPlan> = queries.iter().map(|q| GraphPlan::new(q)).collect();
    let mut scratch = GraphScratch::default();
    let mut out = Vec::new();
    let mut pass = |out: &mut Vec<u32>| {
        let mut totals = (0, 0, 0u64);
        for (plan, q) in plans.iter().zip(&queries) {
            for l in 1..=tau + 1 {
                out.clear();
                let stats = ring.search_planned(&mut scratch, plan, q, &GraphParams { l }, out);
                let ids: u64 = out.iter().map(|&id| u64::from(id)).sum();
                totals = (
                    totals.0 + stats.candidates,
                    totals.1 + stats.results,
                    totals.2 + ids,
                );
            }
        }
        totals
    };
    // Warm-up: the scratch and `out` grow to what this workload needs.
    let warm = pass(&mut out);
    assert!(warm.0 > warm.1, "workload must reject candidates");
    assert!(
        warm.1 > queries.len() * (tau + 1),
        "workload must verify more than the self matches"
    );

    let before = ALLOCATIONS.with(Cell::get);
    let again = pass(&mut out);
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(again, warm);
    assert_eq!(allocated, 0, "warm search path allocated {allocated} times");

    // The warm scratch answers exactly what a fresh one does.
    for (plan, q) in plans.iter().zip(&queries) {
        for l in 1..=tau + 1 {
            let params = GraphParams { l };
            let (mut warm, mut fresh) = (Vec::new(), Vec::new());
            ring.search_planned(&mut scratch, plan, q, &params, &mut warm);
            ring.search_into(&mut GraphScratch::default(), q, &params, &mut fresh);
            assert_eq!(warm, fresh, "l={l}");
        }
    }
}
