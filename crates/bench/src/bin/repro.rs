//! Regenerates every evaluation artifact of the paper (Figures 2 and
//! 5–12) plus the threshold-allocation ablation, at reduced dataset
//! scale, and fronts the `pigeonring-server` subcommands.
//!
//! ```text
//! repro <fig2|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|ablate-alloc|all>
//!       [--quick | --paper]
//! repro <serve|query|stats|trace|server-smoke>
//!       [--quick | --paper] [--shards K] [--threads T] [--port P]
//!       [--domain D] [--raw] [--slow-query-ms MS]
//!       [--metrics-dump PATH] [--metrics-interval-secs S]
//!       [--trace-sample N] [--watch SECS] [--chrome PATH]
//! ```
//!
//! Each experiment prints an aligned table and writes a CSV under
//! `results/`. Absolute numbers differ from the paper (synthetic data,
//! different machine); the *shape* — who wins, candidate monotonicity,
//! U-shaped total time in `l` — is the reproduction target. Performance
//! numbers of the service and server layers come from `benchmark/`, not
//! from this binary.

use pigeonring_bench::{
    f1, f3, fig6_rows, set_setup, time_per_query, validate_args, Report, Scale,
};
use pigeonring_core::analysis::{DiscreteDist, FilterAnalysis};
use pigeonring_datagen::{sample_query_ids, GraphConfig, StringConfig, VectorConfig};
use pigeonring_editdist::{EditParams, EditScratch, GramOrder, Pivotal, QGramCollection, RingEdit};
use pigeonring_graph::{Graph, Pars, RingGraph};
use pigeonring_hamming::{AllocationStrategy, BitVector, HammingScratch, RingHamming};
use pigeonring_setsim::{AdaptSearch, PartAlloc, RingSetSim, SetScratch, Threshold};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let flags = &args[args.len().min(1)..];
    // The server subcommands own their flag set (ports, shards,
    // telemetry) and are parsed by the server CLI module.
    if matches!(cmd, "serve" | "query" | "stats" | "trace" | "server-smoke") {
        if let Err(e) = pigeonring_bench::server_cli::run(cmd, flags) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    if let Err(e) = validate_args(flags, &["--quick", "--paper"], &[]) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let scale = Scale::from_args(flags);
    match cmd {
        "fig2" => fig2(),
        "fig5" => fig5(scale),
        "fig6" => fig6(scale),
        "fig7" => fig7(scale),
        "fig8" => fig8(scale),
        "fig9" => fig9(scale),
        "fig10" => fig10(scale),
        "fig11" => fig11(scale),
        "fig12" => fig12(scale),
        "ablate-alloc" => ablate_alloc(scale),
        "all" => {
            fig2();
            fig5(scale);
            fig6(scale);
            fig7(scale);
            fig8(scale);
            fig9(scale);
            fig10(scale);
            fig11(scale);
            fig12(scale);
            ablate_alloc(scale);
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; expected \
                 fig2|fig5..fig12|ablate-alloc|all [--quick|--paper], or a server \
                 subcommand serve|query|stats|trace|server-smoke [FLAGS] (an unknown flag \
                 lists the known ones)"
            );
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------- fig 2

/// Figure 2: analytical #candidates/#results vs chain length for Hamming
/// distance search, d = 256. The paper evaluates "a synthetic dataset
/// with uniform distribution"; we emit both readings — uniform random
/// *bits* (box ~ Binomial(d/m, ½)) and uniform *box values* (box ~
/// U[0, d/m]); the latter matches the paper's 10⁻²..10⁶ y-range.
fn fig2() {
    let mut rep = Report::new(
        "fig2_analysis",
        &[
            "box_dist",
            "setting",
            "l",
            "cand_over_res",
            "pr_cand",
            "pr_res",
        ],
    );
    for (tau, m) in [(96i64, 16usize), (64, 16), (48, 8), (32, 8)] {
        let w = 256 / m;
        let dists = [
            ("binomial", DiscreteDist::binomial(w, 0.5)),
            ("uniform", DiscreteDist::from_weights(&vec![1.0; w + 1])),
        ];
        for (name, dist) in dists {
            let fa = FilterAnalysis::new(dist, m, tau);
            let res = fa.result_prob();
            for l in 1..=7usize {
                rep.row(&[
                    name.into(),
                    format!("tau={tau},m={m}"),
                    l.to_string(),
                    format!("{:.4e}", fa.cand_over_res(l)),
                    format!("{:.4e}", fa.cand_prob(l)),
                    format!("{res:.4e}"),
                ]);
            }
        }
    }
    rep.emit();
}

// ------------------------------------------------------------ fig 5 / 9

struct HammingSetup {
    name: &'static str,
    data: Vec<BitVector>,
    queries: Vec<usize>,
    m: usize,
}

fn hamming_setup(scale: Scale) -> Vec<HammingSetup> {
    // Large enough that per-candidate verification (not the shared index
    // probe) carries the cost difference, as in the paper's regime.
    let gist = VectorConfig::gist_like(scale.n(100_000)).generate();
    let sift = VectorConfig::sift_like(scale.n(50_000)).generate();
    let gq = sample_query_ids(gist.len(), scale.queries(50), 1);
    let sq = sample_query_ids(sift.len(), scale.queries(50), 2);
    vec![
        HammingSetup {
            name: "gist",
            data: gist,
            queries: gq,
            m: 16,
        },
        HammingSetup {
            name: "sift",
            data: sift,
            queries: sq,
            m: 32,
        },
    ]
}

/// Figure 5: effect of chain length on Hamming distance search.
fn fig5(scale: Scale) {
    let mut rep = Report::new(
        "fig5_hamming_chain",
        &[
            "dataset", "tau", "l", "avg_cand", "avg_res", "cand_ms", "total_ms",
        ],
    );
    for setup in hamming_setup(scale) {
        let taus: [u32; 2] = if setup.name == "gist" {
            [48, 64]
        } else {
            [96, 128]
        };
        let eng = RingHamming::build(setup.data.clone(), setup.m, AllocationStrategy::CostModel);
        let mut scratch = HammingScratch::default();
        for tau in taus {
            for l in 1..=8usize {
                let (cand_ms, _cstats) = time_per_query(&setup.queries, |qid| {
                    eng.candidates_with(&mut scratch, &setup.data[qid], tau, l)
                        .1
                });
                let (total_ms, full) = time_per_query(&setup.queries, |qid| {
                    eng.search_with(&mut scratch, &setup.data[qid], tau, l).1
                });
                let nq = setup.queries.len() as f64;
                // Cand and res columns both come from the full-search
                // run (the candidates-only pass exists for cand_ms).
                let avg_cand = full.iter().map(|s| s.candidates as f64).sum::<f64>() / nq;
                let avg_res = full.iter().map(|s| s.results as f64).sum::<f64>() / nq;
                rep.row(&[
                    setup.name.into(),
                    tau.to_string(),
                    l.to_string(),
                    f1(avg_cand),
                    f1(avg_res),
                    f3(cand_ms),
                    f3(total_ms),
                ]);
            }
        }
    }
    rep.emit();
}

/// Figure 9: Ring (best l) vs GPH (l = 1) over the threshold sweep.
fn fig9(scale: Scale) {
    let mut rep = Report::new(
        "fig9_hamming_vs_gph",
        &[
            "dataset", "tau", "engine", "avg_cand", "avg_res", "total_ms",
        ],
    );
    for setup in hamming_setup(scale) {
        let taus: Vec<u32> = if setup.name == "gist" {
            (1..=8).map(|k| k * 8).collect()
        } else {
            (1..=8).map(|k| k * 16).collect()
        };
        let eng = RingHamming::build(setup.data.clone(), setup.m, AllocationStrategy::CostModel);
        let mut scratch = HammingScratch::default();
        for tau in taus {
            for (engine, l) in [("GPH", 1usize), ("Ring", 5)] {
                let (total_ms, stats) = time_per_query(&setup.queries, |qid| {
                    eng.search_with(&mut scratch, &setup.data[qid], tau, l).1
                });
                let nq = setup.queries.len() as f64;
                rep.row(&[
                    setup.name.into(),
                    tau.to_string(),
                    engine.into(),
                    f1(stats.iter().map(|s| s.candidates as f64).sum::<f64>() / nq),
                    f1(stats.iter().map(|s| s.results as f64).sum::<f64>() / nq),
                    f3(total_ms),
                ]);
            }
        }
    }
    rep.emit();
}

// ----------------------------------------------------------- fig 6 / 10

/// Figure 6: effect of chain length on set similarity search.
fn fig6(scale: Scale) {
    let mut rep = Report::new(
        "fig6_setsim_chain",
        &[
            "dataset", "tau", "l", "avg_cand", "avg_res", "cand_ms", "total_ms",
        ],
    );
    for row in fig6_rows(scale) {
        rep.row(&[
            row.dataset.into(),
            row.tau.to_string(),
            row.l.to_string(),
            f1(row.avg_cand),
            f1(row.avg_res),
            f3(row.cand_ms),
            f3(row.total_ms),
        ]);
    }
    rep.emit();
}

/// Figure 10: Ring vs pkwise vs AdaptSearch vs PartAlloc over τ.
fn fig10(scale: Scale) {
    let mut rep = Report::new(
        "fig10_setsim_vs_baselines",
        &[
            "dataset",
            "tau",
            "engine",
            "avg_cand",
            "avg_res",
            "filter_work",
            "total_ms",
        ],
    );
    for setup in set_setup(scale) {
        for tau in [0.7f64, 0.75, 0.8, 0.85, 0.9, 0.95] {
            let t = Threshold::jaccard(tau);
            let nq = setup.queries.len() as f64;
            // Ring (l = 2) and pkwise (l = 1) share an engine.
            let ring = RingSetSim::build(setup.collection.clone(), t, 5);
            let mut scratch = SetScratch::default();
            for (engine, l) in [("pkwise", 1usize), ("Ring", 2)] {
                let (ms, stats) = time_per_query(&setup.queries, |qid| {
                    ring.search_with(&mut scratch, setup.collection.record(qid), l)
                        .1
                });
                rep.row(&[
                    setup.name.into(),
                    tau.to_string(),
                    engine.into(),
                    f1(stats.iter().map(|s| s.candidates as f64).sum::<f64>() / nq),
                    f1(stats.iter().map(|s| s.results as f64).sum::<f64>() / nq),
                    f1(stats
                        .iter()
                        .map(|s| (s.sig_probes + s.boxes_checked) as f64)
                        .sum::<f64>()
                        / nq),
                    f3(ms),
                ]);
            }
            let mut adapt = AdaptSearch::build(setup.collection.clone(), t);
            let (ms, stats) = time_per_query(&setup.queries, |qid| {
                adapt.search(setup.collection.record(qid)).1
            });
            rep.row(&[
                setup.name.into(),
                tau.to_string(),
                "AdaptSearch".into(),
                f1(stats.iter().map(|s| s.candidates as f64).sum::<f64>() / nq),
                f1(stats.iter().map(|s| s.results as f64).sum::<f64>() / nq),
                f1(stats.iter().map(|s| s.postings_scanned as f64).sum::<f64>() / nq),
                f3(ms),
            ]);
            let mut part = PartAlloc::build(setup.collection.clone(), t);
            let (ms, stats) = time_per_query(&setup.queries, |qid| {
                part.search(setup.collection.record(qid)).1
            });
            rep.row(&[
                setup.name.into(),
                tau.to_string(),
                "PartAlloc".into(),
                f1(stats.iter().map(|s| s.candidates as f64).sum::<f64>() / nq),
                f1(stats.iter().map(|s| s.results as f64).sum::<f64>() / nq),
                f1(stats.iter().map(|s| s.segments_hashed as f64).sum::<f64>() / nq),
                f3(ms),
            ]);
        }
    }
    rep.emit();
}

// ----------------------------------------------------------- fig 7 / 11

struct StringSetup {
    name: &'static str,
    strings: Vec<Vec<u8>>,
    queries: Vec<usize>,
}

fn string_setup(scale: Scale) -> Vec<StringSetup> {
    let imdb = StringConfig::imdb_like(scale.n(20_000)).generate();
    let pubmed = StringConfig::pubmed_like(scale.n(5_000)).generate();
    let iq = sample_query_ids(imdb.len(), scale.queries(50), 5);
    let pq = sample_query_ids(pubmed.len(), scale.queries(30), 6);
    vec![
        StringSetup {
            name: "imdb",
            strings: imdb,
            queries: iq,
        },
        StringSetup {
            name: "pubmed",
            strings: pubmed,
            queries: pq,
        },
    ]
}

/// The paper's per-(dataset, τ) q-gram lengths (§8.1).
fn kappa_for(name: &str, tau: usize) -> usize {
    match (name, tau) {
        ("imdb", 1) => 3,
        ("imdb", _) => 2,
        ("pubmed", 4) => 8,
        ("pubmed", 6) | ("pubmed", 8) => 6,
        ("pubmed", _) => 4,
        _ => 2,
    }
}

/// Figure 7: effect of chain length on string edit distance search.
fn fig7(scale: Scale) {
    let mut rep = Report::new(
        "fig7_editdist_chain",
        &[
            "dataset", "tau", "l", "avg_cand", "avg_res", "cand_ms", "total_ms",
        ],
    );
    for setup in string_setup(scale) {
        let taus: [usize; 2] = if setup.name == "imdb" {
            [2, 4]
        } else {
            [6, 12]
        };
        for tau in taus {
            let kappa = kappa_for(setup.name, tau);
            let coll = QGramCollection::build(setup.strings.clone(), kappa, GramOrder::Frequency);
            let eng = RingEdit::build(coll, tau);
            let mut scratch = EditScratch::default();
            for l in (1..=4).filter(|&l| EditParams { l }.validate(tau).is_ok()) {
                let (cand_ms, _cstats) = time_per_query(&setup.queries, |qid| {
                    eng.candidates_with(&mut scratch, &setup.strings[qid], l).1
                });
                let (total_ms, stats) = time_per_query(&setup.queries, |qid| {
                    eng.search_with(&mut scratch, &setup.strings[qid], l).1
                });
                let nq = setup.queries.len() as f64;
                // Both the cand and res columns come from the same (full
                // search) run, so the table rows are internally
                // consistent; the candidates-only pass is kept purely
                // for the `cand_ms` timing.
                rep.row(&[
                    setup.name.into(),
                    tau.to_string(),
                    l.to_string(),
                    f1(stats.iter().map(|s| s.candidates as f64).sum::<f64>() / nq),
                    f1(stats.iter().map(|s| s.results as f64).sum::<f64>() / nq),
                    f3(cand_ms),
                    f3(total_ms),
                ]);
            }
        }
    }
    rep.emit();
}

/// Figure 11: Ring vs Pivotal (with the Cand-1/Cand-2 split) over τ.
fn fig11(scale: Scale) {
    let mut rep = Report::new(
        "fig11_editdist_vs_pivotal",
        &[
            "dataset",
            "tau",
            "engine",
            "cand1",
            "cand2_or_cand",
            "avg_res",
            "total_ms",
        ],
    );
    for setup in string_setup(scale) {
        let taus: Vec<usize> = if setup.name == "imdb" {
            vec![1, 2, 3, 4]
        } else {
            vec![4, 6, 8, 10, 12]
        };
        for tau in taus {
            let kappa = kappa_for(setup.name, tau);
            let nq = setup.queries.len() as f64;
            let coll = QGramCollection::build(setup.strings.clone(), kappa, GramOrder::Frequency);
            let mut piv = Pivotal::build(coll, tau);
            let (ms, stats) =
                time_per_query(&setup.queries, |qid| piv.search(&setup.strings[qid]).1);
            rep.row(&[
                setup.name.into(),
                tau.to_string(),
                "Pivotal".into(),
                f1(stats.iter().map(|s| s.cand1 as f64).sum::<f64>() / nq),
                f1(stats.iter().map(|s| s.cand2 as f64).sum::<f64>() / nq),
                f1(stats.iter().map(|s| s.results as f64).sum::<f64>() / nq),
                f3(ms),
            ]);
            let coll = QGramCollection::build(setup.strings.clone(), kappa, GramOrder::Frequency);
            let ring = RingEdit::build(coll, tau);
            let mut scratch = EditScratch::default();
            // The paper's l = 3, or the longest valid chain below it.
            let l = (1..=3)
                .rev()
                .find(|&l| EditParams { l }.validate(tau).is_ok())
                .expect("l = 1 is always valid");
            let (ms, stats) = time_per_query(&setup.queries, |qid| {
                ring.search_with(&mut scratch, &setup.strings[qid], l).1
            });
            rep.row(&[
                setup.name.into(),
                tau.to_string(),
                "Ring".into(),
                "-".into(),
                f1(stats.iter().map(|s| s.candidates as f64).sum::<f64>() / nq),
                f1(stats.iter().map(|s| s.results as f64).sum::<f64>() / nq),
                f3(ms),
            ]);
        }
    }
    rep.emit();
}

// ----------------------------------------------------------- fig 8 / 12

struct GraphSetup {
    name: &'static str,
    graphs: Vec<Graph>,
    queries: Vec<usize>,
}

fn graph_setup(scale: Scale) -> Vec<GraphSetup> {
    let aids = GraphConfig::aids_like(scale.n(2_000)).generate();
    let protein = GraphConfig::protein_like(scale.n(1_000)).generate();
    let aq = sample_query_ids(aids.len(), scale.queries(30), 7);
    let pq = sample_query_ids(protein.len(), scale.queries(20), 8);
    vec![
        GraphSetup {
            name: "aids",
            graphs: aids,
            queries: aq,
        },
        GraphSetup {
            name: "protein",
            graphs: protein,
            queries: pq,
        },
    ]
}

/// Figure 8: effect of chain length on graph edit distance search.
fn fig8(scale: Scale) {
    let mut rep = Report::new(
        "fig8_graph_chain",
        &[
            "dataset", "tau", "l", "avg_cand", "avg_res", "cand_ms", "total_ms",
        ],
    );
    for setup in graph_setup(scale) {
        for tau in [4usize, 5] {
            let eng = RingGraph::build(setup.graphs.clone(), tau);
            for l in 1..=5usize {
                let (cand_ms, _cstats) = time_per_query(&setup.queries, |qid| {
                    eng.candidates(&setup.graphs[qid], l).1
                });
                let (total_ms, stats) =
                    time_per_query(&setup.queries, |qid| eng.search(&setup.graphs[qid], l).1);
                let nq = setup.queries.len() as f64;
                rep.row(&[
                    setup.name.into(),
                    tau.to_string(),
                    l.to_string(),
                    f1(stats.iter().map(|s| s.candidates as f64).sum::<f64>() / nq),
                    f1(stats.iter().map(|s| s.results as f64).sum::<f64>() / nq),
                    f3(cand_ms),
                    f3(total_ms),
                ]);
            }
        }
    }
    rep.emit();
}

/// Figure 12: Ring vs Pars over τ.
fn fig12(scale: Scale) {
    let mut rep = Report::new(
        "fig12_graph_vs_pars",
        &[
            "dataset", "tau", "engine", "avg_cand", "avg_res", "total_ms",
        ],
    );
    for setup in graph_setup(scale) {
        for tau in 1usize..=5 {
            let nq = setup.queries.len() as f64;
            let pars = Pars::build(setup.graphs.clone(), tau);
            let (ms, stats) =
                time_per_query(&setup.queries, |qid| pars.search(&setup.graphs[qid]).1);
            rep.row(&[
                setup.name.into(),
                tau.to_string(),
                "Pars".into(),
                f1(stats.iter().map(|s| s.candidates as f64).sum::<f64>() / nq),
                f1(stats.iter().map(|s| s.results as f64).sum::<f64>() / nq),
                f3(ms),
            ]);
            let ring = RingGraph::build(setup.graphs.clone(), tau);
            let l = tau.max(1); // paper: best l ∈ [τ−2, τ]
            let (ms, stats) =
                time_per_query(&setup.queries, |qid| ring.search(&setup.graphs[qid], l).1);
            rep.row(&[
                setup.name.into(),
                tau.to_string(),
                "Ring".into(),
                f1(stats.iter().map(|s| s.candidates as f64).sum::<f64>() / nq),
                f1(stats.iter().map(|s| s.results as f64).sum::<f64>() / nq),
                f3(ms),
            ]);
        }
    }
    rep.emit();
}

// ------------------------------------------------------------ ablations

/// Ablation: cost-model vs even threshold allocation.
fn ablate_alloc(scale: Scale) {
    let mut rep = Report::new(
        "ablate_allocation",
        &["dataset", "tau", "alloc", "avg_cand", "total_ms"],
    );
    for setup in hamming_setup(scale) {
        let tau = if setup.name == "gist" { 48 } else { 96 };
        for (name, strat) in [
            ("cost-model", AllocationStrategy::CostModel),
            ("even", AllocationStrategy::Even),
        ] {
            let eng = RingHamming::build(setup.data.clone(), setup.m, strat);
            let mut scratch = HammingScratch::default();
            let (ms, stats) = time_per_query(&setup.queries, |qid| {
                eng.search_with(&mut scratch, &setup.data[qid], tau, 5).1
            });
            let nq = setup.queries.len() as f64;
            rep.row(&[
                setup.name.into(),
                tau.to_string(),
                name.into(),
                f1(stats.iter().map(|s| s.candidates as f64).sum::<f64>() / nq),
                f3(ms),
            ]);
        }
    }
    rep.emit();
}
