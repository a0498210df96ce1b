//! [`SearchEngine`] adapter: plugs [`RingGraph`] into the
//! `pigeonring-service` sharded query layer.
//!
//! The plan is a [`GraphPlan`] — label histograms, label-grouped
//! vertices, incident-label counts and a flat adjacency copy of the
//! query — a pure function of the query, so one plan serves every shard
//! and every chain length. The per-thread [`GraphScratch`] holds the
//! matcher's mapping/used buffers, the per-graph box memo of the chain
//! check (see [`crate::ring`]) and the candidate list between filter
//! and verification; with it warm, filtering allocates nothing.

use crate::graph::Graph;
use crate::pars::GraphStats;
use crate::plan::GraphPlan;
use crate::ring::RingGraph;
use crate::subiso::MatchScratch;
use pigeonring_service::{MergeStats, SearchEngine};

/// Per-batch parameters for graph-edit-distance search through the
/// service layer (`τ` is fixed at index-build time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphParams {
    /// Chain length `l` (clamped to `[1..τ+1]` by the engine).
    pub l: usize,
}

/// Per-thread scratch of the graph engine (module docs). `Default` is
/// empty; buffers grow to the largest part, query and `τ + 1` seen.
#[derive(Clone, Debug, Default)]
pub struct GraphScratch {
    pub(crate) matcher: MatchScratch,
    /// Box memo of the graph being filtered, one state per ring position.
    pub(crate) memo: Vec<u8>,
    pub(crate) cands: Vec<u32>,
}

impl MergeStats for GraphStats {
    fn merge(&mut self, other: &Self) {
        GraphStats::merge(self, other);
    }

    fn visit(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("candidates", self.candidates as u64);
        emit("results", self.results as u64);
        emit("subiso_calls", self.subiso_calls as u64);
        emit("boxes_checked", self.boxes_checked as u64);
    }
}

impl SearchEngine for RingGraph {
    type Query = Graph;
    type Params = GraphParams;
    type Stats = GraphStats;
    type Scratch = GraphScratch;
    type Plan = GraphPlan;

    fn num_records(&self) -> usize {
        self.graphs().len()
    }

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
        self.search_with(scratch, plan, query, params.l, out)
    }
}
