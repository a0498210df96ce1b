//! [`SearchEngine`] adapter: plugs [`RingEdit`] into the
//! `pigeonring-service` sharded query layer.
//!
//! The plan ([`EditPlan`]) carries the query's interned prefix, pivotal
//! grams, and character masks — all expressed in the gram id space and
//! global frequency order of one
//! [`GramDictionary`](crate::qgram::GramDictionary). A sharded index
//! plans each query once and every shard executes that plan, so every
//! shard must hold the *same* dictionary (`ShardedIndex::build_global`
//! over one corpus-wide dictionary); [`SearchEngine::plans_portable_to`]
//! enforces it at construction.
//!
//! Verification is exact edit distance, so the merged *result set* is
//! identical for any shard count.

use crate::pivotal::EditStats;
use crate::ring::{EditPlan, EditScratch, RingEdit};
use pigeonring_service::{MergeStats, SearchEngine};

/// Per-batch parameters for edit-distance search through the service
/// layer (`τ` is fixed at index-build time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EditParams {
    /// Chain length `l` (clamped to `[1..τ+1]` by the engine).
    pub l: usize,
}

impl MergeStats for EditStats {
    fn merge(&mut self, other: &Self) {
        EditStats::merge(self, other);
    }

    fn visit(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("cand1", self.cand1 as u64);
        emit("cand2", self.cand2 as u64);
        emit("candidates", self.candidates as u64);
        emit("results", self.results as u64);
        emit("postings_scanned", self.postings_scanned as u64);
        emit("boxes_checked", self.boxes_checked as u64);
        emit("skipped_by_corollary2", self.skipped_by_corollary2 as u64);
    }
}

impl SearchEngine for RingEdit {
    type Query = Vec<u8>;
    type Params = EditParams;
    type Stats = EditStats;
    type Scratch = EditScratch;
    type Plan = EditPlan;

    fn num_records(&self) -> usize {
        self.index().collection().len()
    }

    fn plan(&self, scratch: &mut EditScratch, query: &Vec<u8>) -> EditPlan {
        self.plan_query(scratch, query)
    }

    fn search_planned(
        &self,
        scratch: &mut EditScratch,
        plan: &EditPlan,
        query: &Vec<u8>,
        params: &EditParams,
        out: &mut Vec<u32>,
    ) -> EditStats {
        let (ids, stats) = self.search_with_plan(scratch, plan, query, params.l);
        out.extend(ids);
        stats
    }

    fn plans_portable_to(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(
            self.index().collection().dictionary(),
            other.index().collection().dictionary(),
        )
    }
}
