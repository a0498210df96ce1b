//! The graph filter's query path allocates nothing once its scratch is
//! warm: every allocation made by this thread is counted by a wrapping
//! global allocator, and `RingGraph::candidates_with_plan` must add none.
//!
//! Kept in a test binary of its own so no other test shares the
//! allocator (the count is per thread all the same).

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pigeonring_graph::{Graph, GraphPlan, GraphScratch, RingGraph};

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
