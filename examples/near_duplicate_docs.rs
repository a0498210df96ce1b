//! Near-duplicate document detection with Jaccard similarity — the
//! paper's set-similarity application (near-duplicate detection, data
//! cleaning; §2.2).
//!
//! ```sh
//! cargo run --release --example near_duplicate_docs
//! ```
//!
//! Tokenized documents (Enron-like: avg 142 tokens, Zipfian vocabulary)
//! searched at J ≥ 0.8 with all four engines of §8.1: pkwise, Ring,
//! AdaptSearch (AllPairs/PPJoin search version), and PartAlloc.

use pigeonring::datagen::{sample_query_ids, SetConfig};
use pigeonring::setsim::{AdaptSearch, Collection, PartAlloc, RingSetSim, SetScratch, Threshold};
use std::time::Instant;

fn report(name: &str, cands: usize, res: usize, ms: f64, nq: usize) {
    println!(
        "  {name:<12} {:>8.1} cand/query  {:>6.3} ms/query  ({:.1} dupes/query)",
        cands as f64 / nq as f64,
        ms / nq as f64,
        res as f64 / nq as f64
    );
}

fn main() {
    let docs = Collection::new(SetConfig::enron_like(8_000).generate());
    println!(
        "corpus: {} documents, {} distinct tokens",
        docs.len(),
        docs.universe()
    );
    let t = Threshold::jaccard(0.8);
    let queries = sample_query_ids(docs.len(), 100, 7);
    let nq = queries.len();
    println!("J ≥ 0.8, {nq} queries:");

    let ring = RingSetSim::build(docs.clone(), t, 5);
    let mut scratch = SetScratch::default();
    let mut adapt = AdaptSearch::build(docs.clone(), t);
    let mut part = PartAlloc::build(docs.clone(), t);

    // All four engines must return identical result sets; collect the
    // first query's answer from each for the cross-check.
    let mut answers: Vec<Vec<u32>> = Vec::new();

    for (name, engine_idx, l) in [
        ("pkwise", 0usize, 1usize),
        ("Ring(l=2)", 0, 2),
        ("AdaptSearch", 1, 0),
        ("PartAlloc", 2, 0),
    ] {
        let start = Instant::now();
        let (mut cands, mut res) = (0usize, 0usize);
        let mut first: Vec<u32> = Vec::new();
        for &qid in &queries {
            let q = docs.record(qid);
            let (r, c) = match engine_idx {
                0 => {
                    let (r, s) = ring.search_with(&mut scratch, q, l);
                    (r, s.candidates)
                }
                1 => {
                    let (r, s) = adapt.search(q);
                    (r, s.candidates)
                }
                _ => {
                    let (r, s) = part.search(q);
                    (r, s.candidates)
                }
            };
            cands += c;
            res += r.len();
            if qid == queries[0] {
                first = r;
            }
        }
        report(name, cands, res, start.elapsed().as_secs_f64() * 1e3, nq);
        answers.push(first);
    }
    assert!(
        answers.windows(2).all(|w| w[0] == w[1]),
        "all engines must agree exactly"
    );
    println!("all four engines returned identical duplicate sets ✓");
}
