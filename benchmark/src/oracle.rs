//! Inputs and the correctness oracle.
//!
//! Queries are made from `--seed` only: `sample_query_ids` picks records,
//! and every second pick is perturbed by the benchmark's own seeded RNG so
//! that not every query is an index member. Expected ids come from the
//! unsharded engine, a seeded sub-sample of them is checked against an
//! exhaustive scan, and every reply of every workload is compared with its
//! expected list.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use pigeonring_datagen::{rng, sample_query_ids};
use pigeonring_server::EngineSpec;
use pigeonring_service::{MergeStats, ResultHasher, SearchEngine};

use crate::domains::{DomainBench, ParamsOf, ScratchOf};

/// `count` queries for domain `D`, a pure function of `(records, seed)`.
pub fn make_queries<D: DomainBench>(
    records: &[D::Record],
    count: usize,
    seed: u64,
) -> Vec<D::Record> {
    // Mix the domain name in so the four perturbation streams differ.
    let salt = D::NAME
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    let mut perturbation = rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
    sample_query_ids(records.len(), count, seed)
        .into_iter()
        .enumerate()
        .map(|(i, id)| {
            let mut query = records[id].clone();
            if i % 2 == 1 {
                D::perturb(&mut query, &mut perturbation);
            }
            query
        })
        .collect()
}

/// Order-sensitive digest of one domain's answers, in query order.
pub fn digest(answers: &[Vec<u32>]) -> u64 {
    let mut hasher = ResultHasher::new();
    for ids in answers {
        hasher.push(ids);
    }
    hasher.finish()
}

/// What the unsharded engine answers for every query, plus the engine's
/// own stage counters summed over the query set.
pub struct Expected {
    /// Expected ids per query, ascending.
    pub ids: Vec<Vec<u32>>,
    /// Engine `Stats` fields summed over all queries.
    pub stage_totals: BTreeMap<&'static str, u64>,
}

/// Runs every query once through the unsharded engine.
pub fn expected_answers<D: DomainBench>(
    engine: &D::Engine,
    queries: &[D::Record],
    params: &ParamsOf<D>,
) -> Expected {
    let mut scratch = ScratchOf::<D>::default();
    let mut totals = <D::Engine as SearchEngine>::Stats::default();
    let ids = queries
        .iter()
        .map(|q| {
            let mut out = Vec::new();
            totals.merge(&engine.search_into(&mut scratch, q, params, &mut out));
            out
        })
        .collect();
    let mut stage_totals = BTreeMap::new();
    totals.visit(&mut |name, value| {
        stage_totals.insert(name, value);
    });
    Expected { ids, stage_totals }
}

/// Compares `sample` seeded picks of `expected` with an exhaustive scan
/// and returns how many disagree.
pub fn linear_scan_mismatches<D: DomainBench>(
    engine: &D::Engine,
    queries: &[D::Record],
    expected: &[Vec<u32>],
    sample: usize,
    seed: u64,
    spec: &EngineSpec,
) -> usize {
    sample_query_ids(queries.len(), sample, seed)
        .into_iter()
        .filter(|&i| D::linear_scan(engine, &queries[i], spec) != expected[i])
        .count()
}

/// Counts replies attempted and failed, across generator threads.
#[derive(Default)]
pub struct Checker {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Checker {
    /// Compares one reply with its expected list.
    pub fn check(&self, got: &[u32], expected: &[u32]) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if got != expected {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one request that produced no result list at all (transport
    /// or typed error, `Busy`).
    pub fn fail(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` failures found outside a request (oracle disagreements).
    pub fn fail_oracle(&self, n: usize) {
        self.failed.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Requests attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Requests failed so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::{Edit, GraphDom, Hamming, Set};

    fn quick_queries<D: DomainBench>(seed: u64) -> Vec<D::Record> {
        let records = D::records(&EngineSpec {
            hamming_n: 400,
            edit_n: 400,
            set_n: 400,
            graph_n: 100,
            ..EngineSpec::quick()
        });
        make_queries::<D>(&records, 40, seed)
    }

    fn seeds_matter<D: DomainBench>()
    where
        D::Record: PartialEq + std::fmt::Debug,
    {
        assert_eq!(quick_queries::<D>(7), quick_queries::<D>(7), "{}", D::NAME);
        assert_ne!(quick_queries::<D>(7), quick_queries::<D>(8), "{}", D::NAME);
    }

    #[test]
    fn queries_repeat_for_a_seed_and_differ_between_seeds() {
        seeds_matter::<Hamming>();
        seeds_matter::<Edit>();
        seeds_matter::<Set>();
        seeds_matter::<GraphDom>();
    }

    #[test]
    fn every_second_query_is_perturbed() {
        let spec = EngineSpec {
            hamming_n: 400,
            ..EngineSpec::quick()
        };
        let records = Hamming::records(&spec);
        let queries = make_queries::<Hamming>(&records, 40, 3);
        let ids = sample_query_ids(records.len(), 40, 3);
        for (i, (q, id)) in queries.iter().zip(ids).enumerate() {
            assert_eq!(*q == records[id], i % 2 == 0, "query {i}");
        }
    }

    #[test]
    fn a_wrong_expected_id_counts_as_failed() {
        let spec = EngineSpec {
            edit_n: 300,
            ..EngineSpec::quick()
        };
        let records = Edit::records(&spec);
        let queries = make_queries::<Edit>(&records, 20, 1);
        let engine = Edit::build(records, &spec);
        let params = Edit::params(&spec, None);
        let mut expected = expected_answers::<Edit>(&engine, &queries, &params).ids;
        assert_eq!(
            linear_scan_mismatches::<Edit>(&engine, &queries, &expected, 20, 1, &spec),
            0
        );
        let checker = Checker::default();
        let mut scratch = ScratchOf::<Edit>::default();
        expected[3].push(u32::MAX); // deliberately wrong
        for (q, want) in queries.iter().zip(&expected) {
            let mut got = Vec::new();
            engine.search_into(&mut scratch, q, &params, &mut got);
            checker.check(&got, want);
        }
        assert_eq!((checker.attempted(), checker.failed()), (20, 1));
        assert_eq!(
            linear_scan_mismatches::<Edit>(&engine, &queries, &expected, 20, 1, &spec),
            1
        );
        checker.fail();
        assert_eq!((checker.attempted(), checker.failed()), (21, 2));
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let a = vec![vec![1, 2], vec![3]];
        let b = vec![vec![3], vec![1, 2]];
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&b));
    }
}
