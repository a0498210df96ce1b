//! End-to-end exactness: every engine returns exactly the linear-scan
//! answer on generated datasets, across thresholds and chain lengths.
//! This is the completeness test the whole filter-and-refine design
//! rests on (no result may ever be lost, at any `l`).

use pigeonring::datagen::{sample_query_ids, GraphConfig, SetConfig, StringConfig, VectorConfig};
use pigeonring::editdist::verify::edit_distance;
use pigeonring::editdist::{EditScratch, GramOrder, Pivotal, QGramCollection, RingEdit};
use pigeonring::graph::pars::LinearScanGraphs;
use pigeonring::graph::{Pars, RingGraph};
use pigeonring::hamming::{AllocationStrategy, HammingScratch, LinearScan, RingHamming};
use pigeonring::setsim::{
    AdaptSearch, Collection, LinearScanSets, PartAlloc, RingSetSim, SetScratch, Threshold,
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
        let mut piv = Pivotal::build(coll, tau);
        for &qid in &queries {
            let q = &strings[qid];
            for ring in &rings {
                let n = ring.index().collection().len();
                let expect = scan(n, q, tau as u32);
                for l in [1usize, 2, 3, tau + 1] {
                    assert_eq!(
                        ring.search_with(&mut scratch, q, l).0,
                        expect,
                        "ring n={n} tau={tau} qid={qid} l={l}"
                    );
                }
            }
            let expect = scan(strings.len(), q, tau as u32);
            assert_eq!(piv.search(q).0, expect, "pivotal tau={tau} qid={qid}");
        }
    }
}

#[test]
fn graph_engines_are_exact() {
    let graphs = GraphConfig::aids_like(150).generate();
    let queries = sample_query_ids(graphs.len(), 6, 19);
    let scan = LinearScanGraphs::new(&graphs);
    for tau in [2usize, 4] {
        let pars = Pars::build(graphs.clone(), tau);
        let ring = RingGraph::build(graphs.clone(), tau);
        for &qid in &queries {
            let q = &graphs[qid];
            let expect = scan.search(q, tau as u32);
            assert_eq!(pars.search(q).0, expect, "pars tau={tau} qid={qid}");
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
