//! The pigeonring graph-edit-distance engine (§6.4).
//!
//! The data graphs are partitioned and compiled once ([`PartIndex`]); a
//! part that embeds intact is a chain start `i` (box value 0), and at
//! `l = 1` that start alone makes a candidate: the Pars baseline
//! \[136\]. For longer chains the chain is extended clockwise with
//! deletion-neighborhood lower bounds under the uniform Theorem 3 quotas
//! `‖c^{l'}‖₁ ≤ ⌊l'·τ/m⌋` with `m = τ + 1`.
//!
//! **A box is two bits.** Following Example 12, the box at ring position
//! `j` is probed with the remaining budget `⌊l'·τ/m⌋ − Σ(previous
//! boxes)`, capped at `NEIGHBORHOOD_CAP = 1` operation. For every
//! `l' ≤ m` the quota `⌊l'·τ/(τ + 1)⌋` is exactly `l' − 1`, and a prefix
//! that survived step `l' − 1` has sum `≤ l' − 2`, so the remaining
//! budget is always at least 1 and the capped probe is *always exactly
//! one operation*: a box is 0 (the part embeds), 1 (a one-op variant
//! embeds) or 2 ("at least two" — all a failed one-op probe certifies,
//! still a valid lower bound), and the chain is viable while the running
//! sum of those values stays within `l' − 1`. That value depends on the
//! graph and the ring position only, never on the path that reached it,
//! so [`GraphScratch`] memoizes it per graph: each (graph, ring
//! position) is matched at most once per query however many chain
//! starts reach it ([`crate::neighborhood::box_value`] on the compiled
//! part, no allocation). `subiso_calls` and `boxes_checked` keep their
//! logical meaning — label-feasible chain starts tested, chain steps
//! probed — whether or not the memo answered.
//!
//! Using lower bounds can only keep chains viable longer than the true
//! box values would, so completeness is preserved; the tests assert
//! equality with linear scan at every `l`, and candidates shrink with `l`.
//!
//! The walk is the core's [`ChainCheck`], as in the other three engines:
//! each label-feasible embedding part gets its own chain check — there
//! are at most `τ + 1` per graph, and with the memo a second chain over
//! the same boxes costs additions.
//!
//! The engine's `impl SearchEngine` is its one planned query path. The
//! plan is a [`GraphPlan`] — label histograms, label-grouped vertices,
//! incident-label counts and a flat adjacency copy of the query — a
//! pure function of the query, so one plan serves every shard and every
//! chain length.

use crate::ged::GedScratch;
use crate::graph::Graph;
use crate::index::PartIndex;
use crate::neighborhood::{box_value, one_op_embeds};
use crate::pars::GraphStats;
use crate::plan::GraphPlan;
use crate::subiso::{search, Mask, MatchScratch};
use pigeonring_core::viability::{
    check_chain_length, zero_thresholds, ChainCheck, Direction, ParamError,
};
use pigeonring_service::{MergeStats, SearchEngine};

/// Per-batch parameters for graph-edit-distance search (`τ` is fixed at
/// index-build time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphParams {
    /// Chain length `l`, in `1..=τ+1` ([`GraphParams::validate`]).
    pub l: usize,
}

impl GraphParams {
    /// Checks `1 ≤ l ≤ m` for an engine built at `tau`: `m = τ + 1` parts.
    pub fn validate(&self, tau: usize) -> Result<(), ParamError> {
        check_chain_length(self.l, tau + 1)
    }
}

/// Per-thread scratch of the graph engine: the matcher's mapping/used
/// buffers, the per-graph box memo of the chain check (module docs), the
/// candidate list between filter and verification and the GED search's
/// state; with it warm, a search allocates nothing. `Default` is empty;
/// buffers grow to the largest part, graph, query and `τ + 1` seen.
#[derive(Clone, Debug, Default)]
pub struct GraphScratch {
    matcher: MatchScratch,
    /// Box memo of the graph being filtered, one state per ring position.
    memo: Vec<u8>,
    cands: Vec<u32>,
    ged: GedScratch,
}

impl MergeStats for GraphStats {
    fn merge(&mut self, other: &Self) {
        self.candidates = self.candidates.saturating_add(other.candidates);
        self.results = self.results.saturating_add(other.results);
        self.subiso_calls = self.subiso_calls.saturating_add(other.subiso_calls);
        self.boxes_checked = self.boxes_checked.saturating_add(other.boxes_checked);
    }

    fn visit(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("candidates", self.candidates as u64);
        emit("results", self.results as u64);
        emit("subiso_calls", self.subiso_calls as u64);
        emit("boxes_checked", self.boxes_checked as u64);
    }
}

// The two-bit boxes, the memo and `box_value` are this cap being 1.
const _: () = assert!(RingGraph::NEIGHBORHOOD_CAP == 1);

/// Memo of one ring position within the current graph: `UNKNOWN`,
/// `NOT_INTACT` (the level-0 test failed, one-op variants not tried
/// yet), or the two-bit box value plus one.
const UNKNOWN: u8 = 0;
const NOT_INTACT: u8 = u8::MAX;
const EMBEDS: u8 = 1;

/// The pigeonring graph search engine. `l = 1` is the Pars baseline.
pub struct RingGraph {
    index: PartIndex,
}

impl RingGraph {
    /// Partitions every data graph into `τ + 1` parts and compiles them.
    ///
    /// # Panics
    /// Panics if `τ > 63` ([`zero_thresholds`] holds the quotas of at
    /// most 64 boxes, and a graph has `τ + 1` parts).
    pub fn build(graphs: Vec<Graph>, tau: usize) -> Self {
        assert!(tau <= 63, "zero_thresholds holds at most 64 boxes: τ ≤ 63");
        RingGraph {
            index: PartIndex::build(graphs, tau),
        }
    }

    /// The data graphs.
    pub fn graphs(&self) -> &[Graph] {
        self.index.graphs()
    }

    /// Deletion-neighborhood probes are capped at this many operations
    /// (Example 12's budget): the variant count grows as
    /// (ops per level)^budget, and uncapped budgets (up to τ − 1 on long
    /// chains) make the filter cost dwarf what it saves — the paper's own
    /// light-weight-filter rule (§6). A probe that fails at the cap only
    /// certifies `b_j ≥ cap + 1`, which is still a valid lower bound, so
    /// completeness is preserved.
    const NEIGHBORHOOD_CAP: i64 = 1;

    /// Heap bytes of the filter index (compiled-part arena, offsets,
    /// size buckets).
    pub fn index_bytes(&self) -> usize {
        self.index.index_bytes()
    }

    /// Searches for all graphs with `ged(x, q) ≤ τ` using chain length
    /// `l` (panics outside `1..=τ+1`). Returns ascending ids and statistics.
    /// Plans the query, then executes the plan
    /// ([`SearchEngine::search_into`]) against a fresh scratch.
    pub fn search(&self, q: &Graph, l: usize) -> (Vec<u32>, GraphStats) {
        let mut results = Vec::new();
        let stats = self.search_into(
            &mut GraphScratch::default(),
            q,
            &GraphParams { l },
            &mut results,
        );
        (results, stats)
    }

    /// Candidate generation only (no GED verification), for timing the
    /// filter separately (Figure 8's "Cand." series).
    pub fn candidates(&self, q: &Graph, l: usize) -> (Vec<u32>, GraphStats) {
        let mut cands = Vec::new();
        let stats = self.candidates_with_plan(
            &mut GraphScratch::default(),
            &GraphPlan::new(q),
            l,
            &mut cands,
        );
        (cands, stats)
    }

    /// [`RingGraph::candidates`] against a caller-owned scratch and
    /// plan, appending the ascending candidate ids to `out`. Performs no
    /// heap allocation once `scratch` and `out` have grown.
    pub fn candidates_with_plan(
        &self,
        scratch: &mut GraphScratch,
        plan: &GraphPlan,
        l: usize,
        out: &mut Vec<u32>,
    ) -> GraphStats {
        self.filter(&mut scratch.matcher, &mut scratch.memo, plan, l, out)
    }

    /// The chain check over the size window (module docs).
    fn filter(
        &self,
        matcher: &mut MatchScratch,
        memo: &mut Vec<u8>,
        plan: &GraphPlan,
        l: usize,
        out: &mut Vec<u32>,
    ) -> GraphStats {
        let m = self.index.parts_per_graph();
        let mut stats = GraphStats::default();
        memo.resize(m, UNKNOWN);
        let first = out.len();
        // The uniform quota ⌊l'·τ/m⌋, which is l' − 1.
        check_chain_length(l, m).unwrap_or_else(|e| panic!("{e}"));
        let chain = ChainCheck::new(zero_thresholds(m), Direction::Le, l);

        for &(_, _, id) in self.index.size_window(plan).flatten() {
            // Reset the memo at the graph's first label-feasible start:
            // most graphs in the window have none.
            let mut fresh = true;
            for (i, part) in self.index.starts(id, plan) {
                if std::mem::take(&mut fresh) {
                    memo.fill(UNKNOWN);
                }
                stats.subiso_calls += 1;
                if memo[i] == UNKNOWN {
                    memo[i] = if search(part, Mask::None, plan, matcher) {
                        EMBEDS
                    } else {
                        NOT_INTACT
                    };
                }
                if memo[i] != EMBEDS {
                    continue;
                }
                // Viable box (b_i = 0); the boxes past it are chain steps.
                let viable = chain.check(i, |j| {
                    stats.boxes_checked += usize::from(j != i);
                    let part = || self.index.part(id, j);
                    memo[j] = match memo[j] {
                        UNKNOWN => 1 + box_value(part(), plan, matcher),
                        NOT_INTACT => 2 + u8::from(!one_op_embeds(part(), plan, matcher)),
                        known => known,
                    };
                    i64::from(memo[j] - 1)
                });
                if viable {
                    out.push(id);
                    break;
                }
            }
        }
        out[first..].sort_unstable();
        stats.candidates = out.len() - first;
        stats
    }
}

impl SearchEngine for RingGraph {
    type Query = Graph;
    type Params = GraphParams;
    type Stats = GraphStats;
    type Scratch = GraphScratch;
    type Plan = GraphPlan;

    fn plan(&self, _scratch: &mut GraphScratch, query: &Graph) -> GraphPlan {
        GraphPlan::new(query)
    }

    fn search_planned(
        &self,
        scratch: &mut GraphScratch,
        plan: &GraphPlan,
        query: &Graph,
        params: &GraphParams,
        out: &mut Vec<u32>,
    ) -> GraphStats {
        let GraphScratch {
            matcher,
            memo,
            cands,
            ged,
        } = scratch;
        cands.clear();
        let mut stats = self.filter(matcher, memo, plan, params.l, cands);
        let first = out.len();
        // Candidates are ascending, so the verified range is too.
        self.index.verify(cands, query, ged, out);
        stats.results = out.len() - first;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pars::LinearScanGraphs;

    fn molecule_like(seed: u64, n: usize, labels: u32) -> Graph {
        let mut s = seed | 1;
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
        for _ in 0..n / 4 {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            if u != v && g.edge_label(u, v).is_none() {
                g.add_edge(u.min(v), u.max(v), (next() % 3) as u32);
            }
        }
        g
    }

    fn dataset() -> Vec<Graph> {
        let mut graphs = Vec::new();
        for i in 0..24u64 {
            let base = molecule_like(i * 31 + 3, 8, 6);
            graphs.push(base.clone());
        }
        graphs
    }

    #[test]
    fn ring_matches_linear_scan_all_l() {
        let graphs = dataset();
        let scan = LinearScanGraphs::new(&graphs);
        for tau in 1..=3usize {
            let ring = RingGraph::build(graphs.clone(), tau);
            for (qid, q) in graphs.iter().enumerate().step_by(5) {
                let expect = scan.search(q, tau as u32);
                for l in 1..=(tau + 1) {
                    let (got, _) = ring.search(q, l);
                    assert_eq!(got, expect, "tau={tau} qid={qid} l={l}");
                }
            }
        }
    }

    #[test]
    fn candidates_shrink_with_l() {
        let graphs = dataset();
        let ring = RingGraph::build(graphs.clone(), 3);
        for (qid, q) in graphs.iter().enumerate().step_by(7) {
            let mut prev = usize::MAX;
            for l in 1..=4usize {
                let (_, stats) = ring.search(q, l);
                assert!(stats.candidates <= prev, "qid={qid} l={l}");
                prev = stats.candidates;
            }
        }
    }

    #[test]
    fn self_query_survives_all_chain_lengths() {
        let graphs = dataset();
        let ring = RingGraph::build(graphs.clone(), 2);
        for qid in (0..graphs.len()).step_by(5) {
            for l in 1..=3usize {
                let (res, _) = ring.search(&graphs[qid], l);
                assert!(res.contains(&(qid as u32)), "qid={qid} l={l}");
            }
        }
    }

    #[test]
    fn validate_accepts_l_in_one_to_tau_plus_one() {
        let valid = [0, 1, 3, 4].map(|l| GraphParams { l }.validate(2).is_ok());
        assert_eq!(valid, [false, true, true, false]);
    }

    #[test]
    #[should_panic(expected = "chain length l = 4 is outside 1..=3")]
    fn chain_longer_than_m_panics() {
        let graphs = dataset();
        RingGraph::build(graphs.clone(), 2).search(&graphs[0], 4);
    }
}
