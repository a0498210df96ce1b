//! Structure search over molecule-like labeled graphs — the paper's
//! graph-edit-distance application (§2.2/§6.4, Figure 4 shows chemical
//! compounds with atom vertex labels and bond edge labels).
//!
//! ```sh
//! cargo run --release --example molecule_search
//! ```
//!
//! Screens an AIDS-like compound library (sparse, label-rich) and a
//! Protein-like one (denser, label-poor) at GED ≤ τ, showing the
//! label-selectivity contrast the paper reports in §8.3: the Ring gain
//! is large when part features are selective and small when they are
//! not.

use pigeonring::datagen::{sample_query_ids, GraphConfig};
use pigeonring::graph::RingGraph;

fn screen(name: &str, cfg: GraphConfig, tau: usize) {
    let library = cfg.generate();
    let queries = sample_query_ids(library.len(), 30, 13);
    let ring = RingGraph::build(library.clone(), tau);

    let (mut cp, mut cr, mut hits) = (0usize, 0usize, 0usize);
    for &qid in &queries {
        let q = &library[qid];
        let (res_p, sp) = ring.search(q, 1); // Pars
        let (res_r, sr) = ring.search(q, tau); // best l ∈ [τ−2, τ]
        assert_eq!(res_p, res_r, "every chain length is exact");
        cp += sp.candidates;
        cr += sr.candidates;
        hits += sr.results;
    }
    let nq = queries.len() as f64;
    println!(
        "{name}: {} compounds, ged ≤ {tau} → Pars {:.1} cand/query, Ring {:.1} cand/query, {:.1} hits/query",
        library.len(),
        cp as f64 / nq,
        cr as f64 / nq,
        hits as f64 / nq,
    );
}

fn main() {
    screen(
        "AIDS-like   (many labels)",
        GraphConfig::aids_like(2_000),
        4,
    );
    screen(
        "Protein-like (few labels)",
        GraphConfig::protein_like(1_000),
        4,
    );
    println!(
        "\nLabel-rich parts are selective, so the pigeonring chain check\n\
         removes many Pars candidates; label-poor parts embed almost\n\
         anywhere, leaving little for the chain to filter (§8.3)."
    );
}
