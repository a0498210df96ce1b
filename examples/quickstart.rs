//! Quickstart: the pigeonring principle on all four τ-selection problems.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a small seeded dataset for each problem, runs the pigeonhole
//! baseline (`l = 1`) and the pigeonring engine (`l > 1`) on the same
//! index, and prints the candidate reduction. Engines are immutable;
//! each caller (thread) holds one `*Scratch` and passes it to every query.

use pigeonring::core::viability::{find_prefix_viable, Direction, ThresholdScheme};
use pigeonring::datagen::{GraphConfig, SetConfig, StringConfig, VectorConfig};
use pigeonring::editdist::{EditScratch, GramOrder, QGramCollection, RingEdit};
use pigeonring::graph::RingGraph;
use pigeonring::hamming::{AllocationStrategy, HammingScratch, RingHamming};
use pigeonring::setsim::{Collection, RingSetSim, SetScratch, Threshold};

fn main() {
    principle_demo();
    hamming_demo();
    setsim_demo();
    editdist_demo();
    graph_demo();
}

/// The raw principle (Example 1 of the paper): both box layouts total
/// 8 > 5 items, pass the pigeonhole filter, and are caught by the
/// pigeonring filter at chain length 2.
fn principle_demo() {
    println!("— the principle itself —");
    let scheme = ThresholdScheme::uniform(5i64, 5);
    for boxes in [[2i64, 1, 2, 2, 1], [2, 0, 3, 1, 2]] {
        let hole = find_prefix_viable(&boxes, &scheme, Direction::Le, 1).is_some();
        let ring = find_prefix_viable(&boxes, &scheme, Direction::Le, 2).is_some();
        println!("  boxes {boxes:?}: pigeonhole admits = {hole}, pigeonring (l=2) admits = {ring}");
    }
}

fn hamming_demo() {
    println!("— Hamming distance search (GPH vs Ring) —");
    let data = VectorConfig::gist_like(3000).generate();
    let q = data[42].clone();
    let eng = RingHamming::build(data, 16, AllocationStrategy::CostModel);
    let mut scratch = HammingScratch::default();
    let (tau, best_l) = (48u32, 5usize);
    let (res_hole, s_hole) = eng.search_with(&mut scratch, &q, tau, 1);
    let (res_ring, s_ring) = eng.search_with(&mut scratch, &q, tau, best_l);
    assert_eq!(res_hole, res_ring, "both engines are exact");
    println!(
        "  τ={tau}: {} results; candidates {} (pigeonhole) → {} (pigeonring l={best_l})",
        s_ring.results, s_hole.candidates, s_ring.candidates
    );
}

fn setsim_demo() {
    println!("— set similarity search (pkwise vs Ring) —");
    let coll = Collection::new(SetConfig::dblp_like(3000).generate());
    let q = coll.record(17).to_vec();
    let eng = RingSetSim::build(coll, Threshold::jaccard(0.8), 5);
    let mut scratch = SetScratch::default();
    let (res_hole, s_hole) = eng.search_with(&mut scratch, &q, 1);
    let (res_ring, s_ring) = eng.search_with(&mut scratch, &q, 2);
    assert_eq!(res_hole, res_ring);
    println!(
        "  J ≥ 0.8: {} results; candidates {} (pkwise) → {} (Ring l=2)",
        s_ring.results, s_hole.candidates, s_ring.candidates
    );
}

fn editdist_demo() {
    println!("— string edit distance search (Pivotal vs Ring) —");
    let strings = StringConfig::imdb_like(3000).generate();
    let q = strings[7].clone();
    let coll = QGramCollection::build(strings, 2, GramOrder::Frequency);
    let eng = RingEdit::build(coll, 2);
    let mut scratch = EditScratch::default();
    let (res_hole, s_hole) = eng.search_with(&mut scratch, &q, 1);
    let (res_ring, s_ring) = eng.search_with(&mut scratch, &q, 3);
    assert_eq!(res_hole, res_ring);
    println!(
        "  ed ≤ 2: {} results; candidates {} (pivotal prefix) → {} (Ring l=3)",
        s_ring.results, s_hole.candidates, s_ring.candidates
    );
}

fn graph_demo() {
    println!("— graph edit distance search (Pars vs Ring) —");
    let graphs = GraphConfig::aids_like(400).generate();
    let q = graphs[3].clone();
    let eng = RingGraph::build(graphs, 4);
    let (res_hole, s_hole) = eng.search(&q, 1);
    let (res_ring, s_ring) = eng.search(&q, 4);
    assert_eq!(res_hole, res_ring);
    println!(
        "  ged ≤ 4: {} results; candidates {} (Pars) → {} (Ring l=4)",
        s_ring.results, s_hole.candidates, s_ring.candidates
    );
}
