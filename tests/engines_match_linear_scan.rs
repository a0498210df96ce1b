//! End-to-end exactness: every engine returns exactly the linear-scan
//! answer on generated datasets, across thresholds and chain lengths.
//! This is the completeness test the whole filter-and-refine design
//! rests on (no result may ever be lost, at any `l`).

use std::fmt::Debug;

use pigeonring::datagen::{sample_query_ids, GraphConfig, SetConfig, StringConfig, VectorConfig};
use pigeonring::editdist::verify::edit_distance;
use pigeonring::editdist::{
    EditParams, EditScratch, GramOrder, Pivotal, QGramCollection, RingEdit,
};
use pigeonring::graph::pars::LinearScanGraphs;
use pigeonring::graph::{GraphParams, RingGraph};
use pigeonring::hamming::{
    AllocationStrategy, HammingParams, HammingScratch, LinearScan, RingHamming,
};
use pigeonring::service::{MergeStats, SearchEngine};
use pigeonring::setsim::{
    AdaptSearch, Collection, LinearScanSets, PartAlloc, RingSetSim, SetParams, SetScratch,
    Threshold,
};

// Each ring domain below runs on ONE scratch for the whole test — every
// τ, l and query, and alternating between two engines of different
// record counts — so the lazy re-size every scratch-passing caller relies
// on is exercised at the outermost boundary.

#[test]
fn hamming_engines_are_exact() {
    let data = VectorConfig::gist_like(800).generate();
    let queries = sample_query_ids(data.len(), 6, 11);
    let mut scratch = HammingScratch::default();
    for strategy in [AllocationStrategy::Even, AllocationStrategy::CostModel] {
        let engines = [
            RingHamming::build(data.clone(), 16, strategy),
            RingHamming::build(data[..500].to_vec(), 16, strategy),
        ];
        for &qid in &queries {
            let q = &data[qid];
            for tau in [8u32, 32, 64] {
                for ring in &engines {
                    let n = ring.data().len();
                    let expect = LinearScan::new(ring.data()).search(q, tau);
                    for l in [1usize, 2, 5, 16] {
                        let (got, stats) = ring.search_with(&mut scratch, q, tau, l);
                        assert_eq!(
                            got, expect,
                            "strategy={strategy:?} n={n} qid={qid} tau={tau} l={l}"
                        );
                        assert_eq!(stats.results, expect.len());
                    }
                }
            }
        }
    }
}

#[test]
fn setsim_engines_are_exact() {
    let raw = SetConfig::dblp_like(600).generate();
    // Each collection ranks tokens for itself, so a query is a record of
    // the collection it is asked against.
    let small = Collection::new(raw[..350].to_vec());
    let coll = Collection::new(raw);
    let queries = sample_query_ids(coll.len(), 8, 13);
    let mut scratch = SetScratch::default();
    for tau in [0.7f64, 0.85] {
        let t = Threshold::jaccard(tau);
        let rings = [
            RingSetSim::build(coll.clone(), t, 5),
            RingSetSim::build(small.clone(), t, 5),
        ];
        let mut adapt = AdaptSearch::build(coll.clone(), t);
        let mut part = PartAlloc::build(coll.clone(), t);
        for &qid in &queries {
            for ring in &rings {
                let c = ring.collection();
                let q = c.record(qid % c.len());
                let expect = LinearScanSets::new(c).search(q, t);
                for l in [1usize, 2, 3] {
                    assert_eq!(
                        ring.search_with(&mut scratch, q, l).0,
                        expect,
                        "ring n={} tau={tau} qid={qid} l={l}",
                        c.len()
                    );
                }
            }
            let q = coll.record(qid);
            let expect = LinearScanSets::new(&coll).search(q, t);
            assert_eq!(adapt.search(q).0, expect, "adapt tau={tau} qid={qid}");
            assert_eq!(part.search(q).0, expect, "partalloc tau={tau} qid={qid}");
        }
    }
}

#[test]
fn editdist_engines_are_exact() {
    let strings = StringConfig::imdb_like(500).generate();
    let queries = sample_query_ids(strings.len(), 8, 17);
    let scan = |n: usize, q: &[u8], tau: u32| -> Vec<u32> {
        strings[..n]
            .iter()
            .enumerate()
            .filter(|(_, x)| edit_distance(x, q) <= tau)
            .map(|(id, _)| id as u32)
            .collect()
    };
    let mut scratch = EditScratch::default();
    for tau in [1usize, 2, 3] {
        let rings = [500usize, 300].map(|n| {
            let coll = QGramCollection::build(strings[..n].to_vec(), 2, GramOrder::Frequency);
            RingEdit::build(coll, tau)
        });
        let coll = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
        let piv = Pivotal::build(coll, tau);
        for &qid in &queries {
            let q = &strings[qid];
            for ring in &rings {
                let n = ring.index().collection().len();
                let expect = scan(n, q, tau as u32);
                for l in 1..=tau + 1 {
                    assert_eq!(
                        ring.search_with(&mut scratch, q, l).0,
                        expect,
                        "ring n={n} tau={tau} qid={qid} l={l}"
                    );
                }
            }
            let expect = scan(strings.len(), q, tau as u32);
            assert_eq!(
                piv.search(&mut scratch, q).0,
                expect,
                "pivotal tau={tau} qid={qid}"
            );
        }
    }
}

#[test]
fn graph_engines_are_exact() {
    let graphs = GraphConfig::aids_like(150).generate();
    let queries = sample_query_ids(graphs.len(), 6, 19);
    let scan = LinearScanGraphs::new(&graphs);
    for tau in [2usize, 4] {
        let ring = RingGraph::build(graphs.clone(), tau);
        for &qid in &queries {
            let q = &graphs[qid];
            let expect = scan.search(q, tau as u32);
            for l in [1usize, 2, tau, tau + 1] {
                assert_eq!(
                    ring.search(q, l).0,
                    expect,
                    "ring tau={tau} qid={qid} l={l}"
                );
            }
        }
    }
}

/// `search_planned` appends: it must neither read nor reorder what `out`
/// already holds. `out` starts with unsorted sentinels (a sort over the
/// whole vector would move them); after `plan` + `search_planned` they
/// must be untouched, and the appended suffix and the statistics must be
/// exactly what `search_into` gives on an empty vector.
fn assert_search_planned_appends<E>(engine: &E, queries: &[E::Query], params: &E::Params)
where
    E: SearchEngine,
    E::Stats: Debug + PartialEq,
{
    const SENTINELS: [u32; 4] = [u32::MAX, u32::MAX - 1, 7, 0];
    let mut scratch = E::Scratch::default();
    let mut found = 0;
    for (qi, q) in queries.iter().enumerate() {
        let mut expect = Vec::new();
        let expect_stats = engine.search_into(&mut scratch, q, params, &mut expect);
        found += expect.len();
        let plan = engine.plan(&mut scratch, q);
        let mut out = SENTINELS.to_vec();
        let mut stats = engine.search_planned(&mut scratch, &plan, q, params, &mut out);
        stats.merge(&engine.plan_stats(&plan));
        assert_eq!(out[..SENTINELS.len()], SENTINELS, "query {qi}: prefix");
        assert_eq!(out[SENTINELS.len()..], expect[..], "query {qi}: suffix");
        assert_eq!(stats, expect_stats, "query {qi}: stats");
    }
    assert!(found > 0, "queries must have results to append");
}

#[test]
fn search_planned_leaves_prior_out_contents_alone() {
    let data = VectorConfig::gist_like(400).generate();
    let queries: Vec<_> = sample_query_ids(data.len(), 4, 29)
        .into_iter()
        .map(|i| data[i].clone())
        .collect();
    let hamming = RingHamming::build(data, 16, AllocationStrategy::CostModel);
    assert_search_planned_appends(&hamming, &queries, &HammingParams { tau: 48, l: 5 });

    let strings = StringConfig::imdb_like(300).generate();
    let queries: Vec<_> = sample_query_ids(strings.len(), 4, 31)
        .into_iter()
        .map(|i| strings[i].clone())
        .collect();
    let coll = QGramCollection::build(strings, 2, GramOrder::Frequency);
    assert_search_planned_appends(&RingEdit::build(coll, 2), &queries, &EditParams { l: 3 });

    // Raw token sets: the planned path ranks them itself.
    let raw = SetConfig::dblp_like(300).generate();
    let queries: Vec<_> = sample_query_ids(raw.len(), 4, 37)
        .into_iter()
        .map(|i| raw[i].clone())
        .collect();
    let sets = RingSetSim::build(Collection::new(raw), Threshold::jaccard(0.7), 5);
    assert_search_planned_appends(&sets, &queries, &SetParams { l: 2 });

    let graphs = GraphConfig::aids_like(100).generate();
    let queries: Vec<_> = sample_query_ids(graphs.len(), 3, 41)
        .into_iter()
        .map(|i| graphs[i].clone())
        .collect();
    let ring = RingGraph::build(graphs, 3);
    assert_search_planned_appends(&ring, &queries, &GraphParams { l: 3 });
}

#[test]
fn label_poor_graphs_are_exact_too() {
    // Protein-like graphs (few labels) stress the unselective-feature
    // path the paper discusses in §8.3.
    let graphs = GraphConfig::protein_like(100).generate();
    let queries = sample_query_ids(graphs.len(), 4, 23);
    let scan = LinearScanGraphs::new(&graphs);
    let ring = RingGraph::build(graphs.clone(), 3);
    for &qid in &queries {
        let q = &graphs[qid];
        let expect = scan.search(q, 3);
        for l in [1usize, 3] {
            assert_eq!(ring.search(q, l).0, expect, "qid={qid} l={l}");
        }
    }
}
