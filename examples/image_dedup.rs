//! Near-duplicate image detection over binary signatures — the paper's
//! motivating Hamming-distance application (§2.2: "in image retrieval,
//! images are converted to binary vectors and the vectors whose Hamming
//! distances to the query are within a threshold of 16 are identified
//! for further image-level verification").
//!
//! ```sh
//! cargo run --release --example image_dedup
//! ```
//!
//! Simulates a library of 256-bit image signatures with planted
//! near-duplicate groups, then answers τ = 16 duplicate queries with GPH
//! (pigeonhole) and Ring (pigeonring) over the same index, reporting the
//! filtering-power difference.

use pigeonring::datagen::{sample_query_ids, VectorConfig};
use pigeonring::hamming::{AllocationStrategy, HammingScratch, LinearScan, RingHamming};

fn main() {
    // A "photo library": clustered signatures = burst shots / re-encodes.
    let cfg = VectorConfig {
        count: 30_000,
        dims: 256,
        clusters: 500,
        flip_prob: 0.02, // re-encodes flip ~2% of signature bits
        background: 0.4,
        seed: 0xD1CE,
    };
    let library = cfg.generate();
    println!("library: {} signatures of {} bits", library.len(), cfg.dims);

    let tau = 16u32; // the paper's image-retrieval threshold
    let queries = sample_query_ids(library.len(), 200, 99);
    let engine = RingHamming::build(library.clone(), 16, AllocationStrategy::CostModel);
    let mut scratch = HammingScratch::default();

    let mut totals = [(0usize, 0usize); 2]; // (candidates, results) per engine
    for &qid in &queries {
        let q = &library[qid];
        let (res_hole, s_hole) = engine.search_with(&mut scratch, q, tau, 1); // GPH
        let (res_ring, s_ring) = engine.search_with(&mut scratch, q, tau, 5); // Ring, best l
        assert_eq!(res_hole, res_ring, "both engines are exact");
        totals[0].0 += s_hole.candidates;
        totals[0].1 += s_hole.results;
        totals[1].0 += s_ring.candidates;
        totals[1].1 += s_ring.results;
    }
    let nq = queries.len();
    println!(
        "GPH  (pigeonhole): {:>8.1} candidates/query, {:>6.1} duplicates/query",
        totals[0].0 as f64 / nq as f64,
        totals[0].1 as f64 / nq as f64
    );
    println!(
        "Ring (pigeonring): {:>8.1} candidates/query, {:>6.1} duplicates/query",
        totals[1].0 as f64 / nq as f64,
        totals[1].1 as f64 / nq as f64
    );

    // Sanity: the index answers exactly what a full scan answers.
    let q = &library[queries[0]];
    assert_eq!(
        engine.search_with(&mut scratch, q, tau, 5).0,
        LinearScan::new(engine.data()).search(q, tau)
    );
    println!("verified against linear scan ✓");
}
