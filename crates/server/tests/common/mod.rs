//! The in-process reference the over-TCP suites compare against: the
//! batched `search_batch_on` API is the serving contract, so a server
//! round-trip must reproduce its result fingerprint exactly.

use pigeonring_editdist::EditParams;
use pigeonring_graph::GraphParams;
use pigeonring_hamming::HammingParams;
use pigeonring_server::wire::{Domain, DomainQuery};
use pigeonring_server::EngineSet;
use pigeonring_service::{ResultHasher, WorkerPool};
use pigeonring_setsim::SetParams;

/// Fingerprint of a direct in-process `search_batch_on` run (its own
/// two-worker pool: no wire, no lanes) over the domain's standard query
/// set.
pub fn in_process_hash(engines: &EngineSet, domain: Domain, queries: &[DomainQuery]) -> u64 {
    let pool = WorkerPool::new(2);
    let mut hasher = ResultHasher::new();
    match domain {
        Domain::Hamming => {
            let batch: Vec<_> = queries
                .iter()
                .map(|q| {
                    let DomainQuery::Hamming { query, .. } = q else {
                        panic!("mixed domain")
                    };
                    query.clone()
                })
                .collect();
            let DomainQuery::Hamming { tau, l, .. } = &queries[0] else {
                panic!("mixed domain")
            };
            let params = HammingParams {
                tau: *tau,
                l: *l as usize,
            };
            for r in engines
                .hamming_index()
                .search_batch_on(&pool, &batch, &params)
            {
                hasher.push(&r.ids);
            }
        }
        Domain::Edit => {
            let batch: Vec<_> = queries
                .iter()
                .map(|q| {
                    let DomainQuery::Edit { query, .. } = q else {
                        panic!("mixed domain")
                    };
                    query.clone()
                })
                .collect();
            let DomainQuery::Edit { l, .. } = &queries[0] else {
                panic!("mixed domain")
            };
            let params = EditParams { l: *l as usize };
            for r in engines.edit_index().search_batch_on(&pool, &batch, &params) {
                hasher.push(&r.ids);
            }
        }
        Domain::Set => {
            let batch: Vec<_> = queries
                .iter()
                .map(|q| {
                    let DomainQuery::Set { tokens, .. } = q else {
                        panic!("mixed domain")
                    };
                    tokens.clone()
                })
                .collect();
            let DomainQuery::Set { l, .. } = &queries[0] else {
                panic!("mixed domain")
            };
            let params = SetParams { l: *l as usize };
            for r in engines.set_index().search_batch_on(&pool, &batch, &params) {
                hasher.push(&r.ids);
            }
        }
        Domain::Graph => {
            let batch: Vec<_> = queries
                .iter()
                .map(|q| {
                    let DomainQuery::Graph { query, .. } = q else {
                        panic!("mixed domain")
                    };
                    query.clone()
                })
                .collect();
            let DomainQuery::Graph { l, .. } = &queries[0] else {
                panic!("mixed domain")
            };
            let params = GraphParams { l: *l as usize };
            for r in engines
                .graph_index()
                .search_batch_on(&pool, &batch, &params)
            {
                hasher.push(&r.ids);
            }
        }
    }
    hasher.finish()
}
