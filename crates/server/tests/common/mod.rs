//! The in-process reference the over-TCP suites compare against: the
//! batched `search_batch_on` API is the serving contract, so a server
//! round-trip must reproduce its answers — and, traced, its engines'
//! filter-chain stage counts — exactly.

use pigeonring_editdist::EditParams;
use pigeonring_graph::GraphParams;
use pigeonring_hamming::HammingParams;
use pigeonring_server::wire::{Domain, DomainQuery};
use pigeonring_server::EngineSet;
use pigeonring_service::{MergeStats, ResultHasher, SearchEngine, ShardedIndex, WorkerPool};
use pigeonring_setsim::SetParams;

/// Result ids plus named filter-chain stage counts for one query.
pub type IdsAndStages = (Vec<u32>, Vec<(&'static str, u64)>);

/// Per-query reference run of a direct in-process `search_batch_on`
/// (its own two-worker pool: no wire, no lanes) over one domain's query
/// set, at the first query's params: result ids plus the engine's own
/// filter-chain stage counts, via the same `MergeStats::visit` seam the
/// tracer exports through.
pub fn reference_run(
    engines: &EngineSet,
    domain: Domain,
    queries: &[DomainQuery],
) -> Vec<IdsAndStages> {
    fn run<E: SearchEngine>(
        index: &ShardedIndex<E>,
        batch: Vec<E::Query>,
        params: &E::Params,
    ) -> Vec<IdsAndStages> {
        let pool = WorkerPool::new(2);
        index
            .search_batch_on(&pool, &batch, params)
            .into_iter()
            .map(|r| {
                let mut stages = Vec::new();
                r.stats.visit(&mut |name, value| stages.push((name, value)));
                (r.ids, stages)
            })
            .collect()
    }
    assert!(queries.iter().all(|q| q.domain() == domain), "mixed domain");
    match &queries[0] {
        DomainQuery::Hamming { tau, l, .. } => {
            let batch = queries.iter().filter_map(|q| match q {
                DomainQuery::Hamming { query, .. } => Some(query.clone()),
                _ => None,
            });
            let (tau, l) = (*tau, *l as usize);
            let params = HammingParams { tau, l };
            run(engines.hamming_index(), batch.collect(), &params)
        }
        DomainQuery::Edit { l, .. } => {
            let batch = queries.iter().filter_map(|q| match q {
                DomainQuery::Edit { query, .. } => Some(query.clone()),
                _ => None,
            });
            let params = EditParams { l: *l as usize };
            run(engines.edit_index(), batch.collect(), &params)
        }
        DomainQuery::Set { l, .. } => {
            let batch = queries.iter().filter_map(|q| match q {
                DomainQuery::Set { tokens, .. } => Some(tokens.clone()),
                _ => None,
            });
            let params = SetParams { l: *l as usize };
            run(engines.set_index(), batch.collect(), &params)
        }
        DomainQuery::Graph { l, .. } => {
            let batch = queries.iter().filter_map(|q| match q {
                DomainQuery::Graph { query, .. } => Some(query.clone()),
                _ => None,
            });
            let params = GraphParams { l: *l as usize };
            run(engines.graph_index(), batch.collect(), &params)
        }
    }
}

/// Fingerprint of [`reference_run`]'s result ids.
#[allow(
    dead_code,
    reason = "the trace suite compares ids and stages, not the fingerprint"
)]
pub fn in_process_hash(engines: &EngineSet, domain: Domain, queries: &[DomainQuery]) -> u64 {
    let mut hasher = ResultHasher::new();
    for (ids, _) in reference_run(engines, domain, queries) {
        hasher.push(&ids);
    }
    hasher.finish()
}
