//! Lemma 1/4 at the system level: for every engine, the pigeonring
//! candidate set is a subset of the pigeonhole candidate set (we assert
//! the count form plus result equality — the engines dedup internally,
//! so counts are exact set sizes), and candidate counts are monotone
//! non-increasing in the chain length `l`.

use pigeonring::datagen::{sample_query_ids, GraphConfig, SetConfig, StringConfig, VectorConfig};
use pigeonring::editdist::{EditScratch, GramOrder, QGramCollection, RingEdit};
use pigeonring::graph::RingGraph;
use pigeonring::hamming::{AllocationStrategy, HammingScratch, RingHamming};
use pigeonring::setsim::{Collection, RingSetSim, SetScratch, Threshold};

#[test]
fn hamming_candidates_monotone() {
    let data = VectorConfig::gist_like(1500).generate();
    let queries = sample_query_ids(data.len(), 8, 31);
    let ring = RingHamming::build(data.clone(), 16, AllocationStrategy::CostModel);
    let mut scratch = HammingScratch::default();
    for &qid in &queries {
        let q = &data[qid];
        for tau in [24u32, 48] {
            let mut prev = usize::MAX;
            for l in 1..=8usize {
                let (_, stats) = ring.search_with(&mut scratch, q, tau, l);
                assert!(
                    stats.candidates <= prev,
                    "qid={qid} tau={tau} l={l}: {} > {prev}",
                    stats.candidates
                );
                prev = stats.candidates;
            }
        }
    }
}

#[test]
fn hamming_l_equals_m_candidates_are_results() {
    let data = VectorConfig::gist_like(800).generate();
    let queries = sample_query_ids(data.len(), 5, 37);
    let ring = RingHamming::build(data.clone(), 16, AllocationStrategy::Even);
    let mut scratch = HammingScratch::default();
    for &qid in &queries {
        let q = &data[qid];
        let (_, stats) = ring.search_with(&mut scratch, q, 48, 16);
        assert_eq!(stats.candidates, stats.results, "qid={qid}");
    }
}

#[test]
fn setsim_candidates_monotone() {
    let coll = Collection::new(SetConfig::enron_like(400).generate());
    let queries = sample_query_ids(coll.len(), 8, 41);
    let ring = RingSetSim::build(coll.clone(), Threshold::jaccard(0.7), 5);
    let mut scratch = SetScratch::default();
    for &qid in &queries {
        let q = coll.record(qid);
        let mut prev = usize::MAX;
        for l in 1..=3usize {
            let (_, stats) = ring.search_with(&mut scratch, q, l);
            assert!(stats.candidates <= prev, "qid={qid} l={l}");
            prev = stats.candidates;
        }
    }
}

#[test]
fn editdist_candidates_monotone() {
    let strings = StringConfig::pubmed_like(300).generate();
    let queries = sample_query_ids(strings.len(), 6, 43);
    let coll = QGramCollection::build(strings.clone(), 4, GramOrder::Frequency);
    let ring = RingEdit::build(coll, 6);
    let mut scratch = EditScratch::default();
    for &qid in &queries {
        let mut prev = usize::MAX;
        for l in 1..=5usize {
            let (_, stats) = ring.search_with(&mut scratch, &strings[qid], l);
            assert!(stats.candidates <= prev, "qid={qid} l={l}");
            prev = stats.candidates;
        }
    }
}

#[test]
fn graph_candidates_monotone() {
    let graphs = GraphConfig::aids_like(200).generate();
    let queries = sample_query_ids(graphs.len(), 6, 47);
    let ring = RingGraph::build(graphs.clone(), 4);
    for &qid in &queries {
        let mut prev = usize::MAX;
        for l in 1..=5usize {
            let (_, stats) = ring.search(&graphs[qid], l);
            assert!(stats.candidates <= prev, "qid={qid} l={l}");
            prev = stats.candidates;
        }
    }
}

#[test]
fn stats_invariants_hold_everywhere() {
    // results ≤ candidates for every engine and setting.
    let data = VectorConfig::sift_like(500).generate();
    let hamming = RingHamming::build(data.clone(), 32, AllocationStrategy::CostModel);
    let mut scratch = HammingScratch::default();
    let (_, s) = hamming.search_with(&mut scratch, &data[0], 64, 5);
    assert!(s.results <= s.candidates);

    let coll = Collection::new(SetConfig::dblp_like(400).generate());
    let sets = RingSetSim::build(coll.clone(), Threshold::jaccard(0.8), 5);
    let mut scratch = SetScratch::default();
    let (_, s) = sets.search_with(&mut scratch, coll.record(0), 2);
    assert!(s.results <= s.candidates);

    let strings = StringConfig::imdb_like(400).generate();
    let qcoll = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
    let edit = RingEdit::build(qcoll, 2);
    let mut scratch = EditScratch::default();
    let (_, s) = edit.search_with(&mut scratch, &strings[0], 3);
    assert!(s.results <= s.candidates);

    let graphs = GraphConfig::protein_like(80).generate();
    let ring = RingGraph::build(graphs.clone(), 3);
    let (_, s) = ring.search(&graphs[0], 3);
    assert!(s.results <= s.candidates);
}
