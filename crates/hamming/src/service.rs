//! [`SearchEngine`] adapter: plugs [`RingHamming`] into the
//! `pigeonring-service` sharded query layer.

use crate::bitvec::BitVector;
use crate::engine::{HammingPlan, HammingScratch, RingHamming, SearchStats};
use pigeonring_service::{MergeStats, SearchEngine};

/// Per-batch parameters for Hamming search through the service layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HammingParams {
    /// Distance threshold `τ`.
    pub tau: u32,
    /// Chain length `l` (clamped to `[1..m]` by the engine).
    pub l: usize,
}

impl MergeStats for SearchStats {
    fn merge(&mut self, other: &Self) {
        SearchStats::merge(self, other);
    }

    fn visit(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("candidates", self.candidates as u64);
        emit("results", self.results as u64);
        emit("probes", self.probes as u64);
        emit("viable_boxes", self.viable_boxes as u64);
        emit("boxes_checked", self.boxes_checked as u64);
        emit("skipped_by_corollary2", self.skipped_by_corollary2 as u64);
    }
}

impl SearchEngine for RingHamming {
    type Query = BitVector;
    type Params = HammingParams;
    type Stats = SearchStats;
    type Scratch = HammingScratch;
    /// The query's part signatures and sampled distance histogram —
    /// independent of `τ` and `l` (per-batch parameters), so one plan
    /// serves every shard and every parameter setting.
    type Plan = HammingPlan;

    fn num_records(&self) -> usize {
        self.data().len()
    }

    fn plan(&self, _scratch: &mut HammingScratch, query: &BitVector) -> HammingPlan {
        self.plan_query(query)
    }

    fn search_planned(
        &self,
        scratch: &mut HammingScratch,
        plan: &HammingPlan,
        query: &BitVector,
        params: &HammingParams,
        out: &mut Vec<u32>,
    ) -> SearchStats {
        let (ids, stats) = self.search_with_plan(scratch, plan, query, params.tau, params.l);
        out.extend(ids);
        stats
    }

    fn plans_portable_to(&self, other: &Self) -> bool {
        RingHamming::plans_portable_to(self, other)
    }
}
