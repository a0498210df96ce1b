//! [`SearchEngine`] adapter: plugs [`RingSetSim`] into the
//! `pigeonring-service` sharded query layer.
//!
//! Queries through this adapter are **raw token sets** (arbitrary `u32`
//! token ids, as fed to [`crate::Collection::new`]), not rank arrays.
//! The plan ([`SetPlan`]) ranks the raw query through the collection's
//! [`TokenDictionary`](crate::types::TokenDictionary) and enumerates its
//! k-wise signatures once. A sharded index plans each query once and
//! every shard probes with the same pre-enumerated signatures, so all
//! shards must share one rank space (`ShardedIndex::build_global` over
//! one corpus-wide dictionary); [`SearchEngine::plans_portable_to`]
//! enforces it at construction.

use crate::ring::{RingSetSim, SetPlan, SetScratch, SetStats};
use pigeonring_service::{MergeStats, SearchEngine};

/// Per-batch parameters for set-similarity search through the service
/// layer (the similarity threshold is fixed at index-build time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetParams {
    /// Chain length `l` (clamped to `[1..m]` by the engine).
    pub l: usize,
}

impl MergeStats for SetStats {
    fn merge(&mut self, other: &Self) {
        SetStats::merge(self, other);
    }

    fn visit(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("candidates", self.candidates as u64);
        emit("results", self.results as u64);
        emit("sig_probes", self.sig_probes as u64);
        emit("viable_boxes", self.viable_boxes as u64);
        emit("boxes_checked", self.boxes_checked as u64);
        emit("skipped_by_corollary2", self.skipped_by_corollary2 as u64);
    }
}

impl SearchEngine for RingSetSim {
    /// A **raw** token set (not a rank array; see the module docs).
    type Query = Vec<u32>;
    type Params = SetParams;
    type Stats = SetStats;
    type Scratch = SetScratch;
    type Plan = SetPlan;

    fn num_records(&self) -> usize {
        self.collection().len()
    }

    fn plan(&self, scratch: &mut SetScratch, query: &Vec<u32>) -> SetPlan {
        self.plan_raw_query(scratch, query)
    }

    fn search_planned(
        &self,
        scratch: &mut SetScratch,
        plan: &SetPlan,
        _query: &Vec<u32>,
        params: &SetParams,
        out: &mut Vec<u32>,
    ) -> SetStats {
        let (ids, stats) = self.search_with_plan(scratch, plan, params.l);
        out.extend(ids);
        stats
    }

    fn plans_portable_to(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(
            self.collection().dictionary(),
            other.collection().dictionary(),
        )
    }

    fn plan_stats(&self, plan: &SetPlan) -> SetStats {
        SetStats {
            sig_probes: plan.sig_probes(),
            ..SetStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pkwise::ClassMap;
    use crate::types::{Collection, Threshold};

    #[test]
    fn unseen_tokens_are_safe_under_explicit_class_maps() {
        // Regression: rank_query maps tokens unseen by the collection to
        // ranks ≥ universe; ClassMap::class_of must fall back to hashing
        // for those instead of indexing past an explicit table.
        let raw = vec![vec![1u32, 2, 3], vec![2, 3, 4], vec![1, 3, 4]];
        let c = Collection::new(raw);
        let universe = c.universe();
        let classes = ClassMap::explicit(3, vec![1; universe]);
        let eng = RingSetSim::with_class_map(c, Threshold::jaccard(0.5), classes);
        let mut scratch = SetScratch::default();
        let mut out = Vec::new();
        // Token 99 never occurs in the collection.
        let stats = eng.search_into(
            &mut scratch,
            &vec![1, 2, 3, 99],
            &SetParams { l: 2 },
            &mut out,
        );
        assert_eq!(
            out,
            vec![0],
            "only record 0 reaches J ≥ 0.5 against {{1,2,3,99}}"
        );
        assert_eq!(stats.results, 1);
    }

    #[test]
    fn planned_search_matches_plan_and_search() {
        let raw = vec![
            vec![1u32, 2, 3, 4, 5],
            vec![2, 3, 4, 5, 6],
            vec![10, 11, 12, 13, 14],
            vec![1, 2, 3, 4, 6],
        ];
        let c = Collection::new(raw.clone());
        let eng = RingSetSim::build(c, Threshold::jaccard(0.6), 5);
        let mut scratch = SetScratch::default();
        for q in &raw {
            let plan = eng.plan(&mut scratch, q);
            for l in 1..=3usize {
                let mut direct = Vec::new();
                let direct_stats = eng.search_into(&mut scratch, q, &SetParams { l }, &mut direct);
                let mut planned = Vec::new();
                let mut planned_stats =
                    eng.search_planned(&mut scratch, &plan, q, &SetParams { l }, &mut planned);
                planned_stats.merge(&eng.plan_stats(&plan));
                assert_eq!(planned, direct, "l={l}");
                assert_eq!(planned_stats, direct_stats, "l={l}");
            }
        }
    }
}
