//! Regenerates every evaluation artifact of the paper (Figures 2 and
//! 5–12) plus two ablations, at reduced dataset scale (DESIGN.md §5),
//! and drives the sharded service layer.
//!
//! ```text
//! repro <fig2|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|ablate-skip|ablate-alloc|sweep|all>
//!       [--quick | --paper] [--shards K] [--batch B] [--threads T]
//! repro <serve|query|loadgen|stats|trace|server-smoke>
//!       [--quick | --paper] [--shards K] [--threads T] [--port P] [--queue Q]
//!       [--batch B] [--conns C] [--requests N] [--pipeline P] [--mix] [--domain D]
//!       [--raw] [--slow-query-ms MS] [--slow-query-ring N] [--metrics-dump PATH]
//!       [--metrics-interval-secs S] [--trace-sample N] [--trace-buffer M]
//!       [--watch SECS] [--chrome PATH]
//! ```
//!
//! Each experiment prints an aligned table and writes a CSV under
//! `results/`. Absolute numbers differ from the paper (synthetic data,
//! different machine); the *shape* — who wins, candidate monotonicity,
//! U-shaped total time in `l` — is the reproduction target and is
//! recorded in EXPERIMENTS.md.
//!
//! With `--shards K`, `fig7` routes through the `pigeonring-service`
//! [`ShardedIndex`] (batched, shard-parallel); its table gains a
//! `result_hash` column — equal hashes across `K` certify identical
//! result sets. `sweep` runs all four domain engines through the service
//! layer across shard counts and writes `results/BENCH_service.json`
//! (per-shard throughput, uploaded by CI).

use std::sync::Arc;
use std::time::Instant;

use pigeonring_bench::{f1, f3, time_per_query, Report, Scale, ServiceOpts};
use pigeonring_core::analysis::{DiscreteDist, FilterAnalysis};
use pigeonring_datagen::{sample_query_ids, GraphConfig, SetConfig, StringConfig, VectorConfig};
use pigeonring_editdist::{
    EditParams, GramDictionary, GramOrder, Pivotal, QGramCollection, RingEdit,
};
use pigeonring_graph::{Graph, GraphParams, Pars, RingGraph};
use pigeonring_hamming::{
    AllocationStrategy, BitVector, CostModel, HammingParams, Partitioning, RingHamming,
};
use pigeonring_service::{ShardedIndex, Sweep};
use pigeonring_setsim::{
    AdaptSearch, Collection, PartAlloc, RingSetSim, SetParams, Threshold, TokenDictionary,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The server subcommands own their flag set (ports, connection
    // counts, queue depth) and are parsed by the server CLI module.
    if let Some(cmd) = args.first().map(String::as_str) {
        if matches!(
            cmd,
            "serve" | "query" | "loadgen" | "stats" | "trace" | "server-smoke"
        ) {
            if let Err(e) = pigeonring_bench::server_cli::run(cmd, &args[1..]) {
                eprintln!("{e}");
                std::process::exit(1);
            }
            return;
        }
    }
    if let Err(e) = ServiceOpts::validate_flags(&args[args.len().min(1)..]) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let scale = Scale::from_args(&args);
    let opts = ServiceOpts::from_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    // Only fig7, sweep, and all route through the service layer; reject
    // service flags anywhere they would be silently ignored.
    let service_aware = matches!(cmd, "fig7" | "sweep" | "all");
    let batch_or_threads_given = args.iter().any(|a| a == "--batch" || a == "--threads");
    if (opts.shards.is_some() || batch_or_threads_given) && !service_aware {
        eprintln!("--shards/--batch/--threads only apply to fig7, sweep, and all (got {cmd:?})");
        std::process::exit(2);
    }
    // fig7 without --shards runs the classic unsharded path, which reads
    // no service options at all.
    if cmd == "fig7" && opts.shards.is_none() && batch_or_threads_given {
        eprintln!("fig7 ignores --batch/--threads unless --shards K selects the service path");
        std::process::exit(2);
    }
    match cmd {
        "fig2" => fig2(),
        "fig5" => fig5(scale),
        "fig6" => fig6(scale),
        "fig7" => fig7(scale, &opts),
        "fig8" => fig8(scale),
        "fig9" => fig9(scale),
        "fig10" => fig10(scale),
        "fig11" => fig11(scale),
        "fig12" => fig12(scale),
        "ablate-skip" => ablate_skip(scale),
        "ablate-alloc" => ablate_alloc(scale),
        "sweep" => sweep(scale, &opts),
        "all" => {
            fig2();
            fig5(scale);
            fig6(scale);
            // Always refresh the classic fig7 paper artifact; with
            // --shards also run the sharded service-layer variant.
            fig7_classic(scale);
            if opts.shards.is_some() {
                fig7(scale, &opts);
            }
            fig8(scale);
            fig9(scale);
            fig10(scale);
            fig11(scale);
            fig12(scale);
            ablate_skip(scale);
            ablate_alloc(scale);
            sweep(scale, &opts);
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; expected fig2|fig5..fig12|ablate-skip|ablate-alloc|sweep|all \
                 [--quick|--paper] [--shards K] [--batch B] [--threads T], or a server subcommand \
                 serve|query|loadgen|stats|trace|server-smoke [--port P] [--queue Q] [--conns C] \
                 [--requests N] [--pipeline P] [--mix] [--domain D] [--raw] [--slow-query-ms MS] \
                 [--slow-query-ring N] [--metrics-dump PATH] [--metrics-interval-secs S] \
                 [--trace-sample N] [--trace-buffer M] [--watch SECS] [--chrome PATH]"
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
        let mut eng =
            RingHamming::build(setup.data.clone(), setup.m, AllocationStrategy::CostModel);
        for tau in taus {
            for l in 1..=8usize {
                let (cand_ms, _cstats) = time_per_query(&setup.queries, |qid| {
                    let q = setup.data[qid].clone();
                    eng.candidates(&q, tau, l).1
                });
                let (total_ms, full) = time_per_query(&setup.queries, |qid| {
                    let q = setup.data[qid].clone();
                    eng.search(&q, tau, l).1
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
        let mut eng =
            RingHamming::build(setup.data.clone(), setup.m, AllocationStrategy::CostModel);
        for tau in taus {
            for (engine, l) in [("GPH", 1usize), ("Ring", 5)] {
                let (total_ms, stats) = time_per_query(&setup.queries, |qid| {
                    let q = setup.data[qid].clone();
                    eng.search(&q, tau, l).1
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

struct SetSetup {
    name: &'static str,
    collection: Collection,
    queries: Vec<usize>,
}

fn set_setup(scale: Scale) -> Vec<SetSetup> {
    let enron = Collection::new(SetConfig::enron_like(scale.n(5_000)).generate());
    let dblp = Collection::new(SetConfig::dblp_like(scale.n(20_000)).generate());
    let eq = sample_query_ids(enron.len(), scale.queries(50), 3);
    let dq = sample_query_ids(dblp.len(), scale.queries(50), 4);
    vec![
        SetSetup {
            name: "enron",
            collection: enron,
            queries: eq,
        },
        SetSetup {
            name: "dblp",
            collection: dblp,
            queries: dq,
        },
    ]
}

/// Figure 6: effect of chain length on set similarity search.
fn fig6(scale: Scale) {
    let mut rep = Report::new(
        "fig6_setsim_chain",
        &[
            "dataset", "tau", "l", "avg_cand", "avg_res", "cand_ms", "total_ms",
        ],
    );
    for setup in set_setup(scale) {
        for tau in [0.7f64, 0.8] {
            let mut eng = RingSetSim::build(setup.collection.clone(), Threshold::jaccard(tau), 5);
            for l in 1..=3usize {
                let (cand_ms, _cstats) = time_per_query(&setup.queries, |qid| {
                    let q = setup.collection.record(qid).to_vec();
                    eng.candidates(&q, l).1
                });
                let (total_ms, stats) = time_per_query(&setup.queries, |qid| {
                    let q = setup.collection.record(qid).to_vec();
                    eng.search(&q, l).1
                });
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
            let mut ring = RingSetSim::build(setup.collection.clone(), t, 5);
            for (engine, l) in [("pkwise", 1usize), ("Ring", 2)] {
                let (ms, stats) = time_per_query(&setup.queries, |qid| {
                    let q = setup.collection.record(qid).to_vec();
                    ring.search(&q, l).1
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
                let q = setup.collection.record(qid).to_vec();
                adapt.search(&q).1
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
                let q = setup.collection.record(qid).to_vec();
                part.search(&q).1
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
/// With `--shards K` the sharded service-layer variant runs instead.
fn fig7(scale: Scale, opts: &ServiceOpts) {
    match opts.shards {
        Some(k) => fig7_sharded(scale, opts, k),
        None => fig7_classic(scale),
    }
}

/// Classic single-threaded fig7: per-query timing of the unsharded
/// engine.
fn fig7_classic(scale: Scale) {
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
            let mut eng = RingEdit::build(coll, tau);
            for l in 1..=4usize.min(tau + 1) {
                let (cand_ms, _cstats) = time_per_query(&setup.queries, |qid| {
                    eng.candidates(&setup.strings[qid].clone(), l).1
                });
                let (total_ms, stats) = time_per_query(&setup.queries, |qid| {
                    eng.search(&setup.strings[qid].clone(), l).1
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

/// Sharded fig7 through the service layer: same datasets, same `τ`/`l`
/// grid, but queries run as batches over a `K`-shard worker pool. The
/// `result_hash` column fingerprints every query's result ids — equal
/// hashes across different `--shards K` runs certify identical result
/// sets (the service-layer acceptance check).
///
/// The index is built dictionary-first (one corpus-wide gram dictionary,
/// shard-local postings), so each query is planned **once per `τ`** —
/// the plan is shared across all `K` shards *and* the whole `l` sweep
/// via [`Sweep::run_with_plans`].
fn fig7_sharded(scale: Scale, opts: &ServiceOpts, shards: usize) {
    let threads = opts.threads_for(shards);
    let mut rep = Report::new(
        &format!("fig7_editdist_chain_shards{shards}"),
        &[
            "dataset",
            "tau",
            "l",
            "shards",
            "batch",
            "avg_cand",
            "avg_res",
            "result_hash",
            "ms_per_query",
            "plan_us_per_q",
            "qps",
        ],
    );
    // The Sweep accumulator is used here only for its batched
    // timing/result-hash logic; its rows are reported through `rep`, not
    // through BENCH_service.json (which only the `sweep` subcommand
    // writes).
    let mut sweep = Sweep::new();
    for setup in string_setup(scale) {
        let taus: [usize; 2] = if setup.name == "imdb" {
            [2, 4]
        } else {
            [6, 12]
        };
        let queries: Vec<Vec<u8>> = setup
            .queries
            .iter()
            .map(|&qid| setup.strings[qid].clone())
            .collect();
        for tau in taus {
            let kappa = kappa_for(setup.name, tau);
            let index = ShardedIndex::build_global(
                setup.strings.clone(),
                shards,
                |corpus| Arc::new(GramDictionary::build(corpus, kappa, GramOrder::Frequency)),
                |dict, shard| {
                    RingEdit::build(
                        QGramCollection::with_dictionary(shard, Arc::clone(dict)),
                        tau,
                    )
                },
            );
            // One plan set serves every l below (plans are l-independent).
            let plan_start = Instant::now();
            let plans = index
                .plan_batch(&queries)
                .expect("dictionary-first build shares plans");
            let plan_ms = plan_start.elapsed().as_secs_f64() * 1e3;
            for l in 1..=4usize.min(tau + 1) {
                let (row, stats) = sweep.run_with_plans(
                    "editdist",
                    setup.name,
                    &index,
                    &queries,
                    &plans,
                    plan_ms,
                    &EditParams { l },
                    opts.batch,
                    threads,
                );
                let nq = queries.len() as f64;
                rep.row(&[
                    setup.name.into(),
                    tau.to_string(),
                    l.to_string(),
                    shards.to_string(),
                    opts.batch.to_string(),
                    f1(stats.candidates as f64 / nq),
                    f1(stats.results as f64 / nq),
                    format!("{:016x}", row.result_hash),
                    f3(row.total_ms / nq),
                    f3(row.plan_us_per_query),
                    f1(row.qps),
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
            let (ms, stats) = time_per_query(&setup.queries, |qid| {
                piv.search(&setup.strings[qid].clone()).1
            });
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
            let mut ring = RingEdit::build(coll, tau);
            let l = 3.min(tau + 1);
            let (ms, stats) = time_per_query(&setup.queries, |qid| {
                ring.search(&setup.strings[qid].clone(), l).1
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

/// Ablation: Corollary-2 start skipping on/off (DESIGN.md §6).
fn ablate_skip(scale: Scale) {
    let mut rep = Report::new(
        "ablate_corollary2_skip",
        &["dataset", "tau", "l", "skip", "boxes_checked", "total_ms"],
    );
    for setup in hamming_setup(scale) {
        let tau = if setup.name == "gist" { 64 } else { 128 };
        for skip in [true, false] {
            let mut eng =
                RingHamming::build(setup.data.clone(), setup.m, AllocationStrategy::CostModel);
            eng.set_corollary2_skip(skip);
            for l in [4usize, 8] {
                let (ms, stats) = time_per_query(&setup.queries, |qid| {
                    let q = setup.data[qid].clone();
                    eng.search(&q, tau, l).1
                });
                let nq = setup.queries.len() as f64;
                rep.row(&[
                    setup.name.into(),
                    tau.to_string(),
                    l.to_string(),
                    skip.to_string(),
                    f1(stats.iter().map(|s| s.boxes_checked as f64).sum::<f64>() / nq),
                    f3(ms),
                ]);
            }
        }
    }
    rep.emit();
}

// -------------------------------------------------------- service sweep

/// Service-layer throughput sweep over all four domain engines.
///
/// For each domain a representative dataset/threshold is run through
/// [`ShardedIndex`] across shard counts (the `--shards K` value, or the
/// core-aware `{1, 2, 4, 8, …}` ladder from
/// [`pigeonring_service::default_shard_counts`] when unset), batching
/// `--batch B` queries per fan-out. Emits `results/service_sweep.csv`
/// (with speedup vs the domain's first shard count) and
/// `results/BENCH_service.json` (per-shard throughput plus the machine
/// fingerprint, the artifact CI uploads). Combined with `--paper` this
/// is the paper-§8-scale "all" mode the ROADMAP Scale item asks for.
fn sweep(scale: Scale, opts: &ServiceOpts) {
    let shard_counts: Vec<usize> = match opts.shards {
        Some(k) => vec![k],
        None => pigeonring_service::default_shard_counts(),
    };
    let mut sw = Sweep::new();
    let mut rep = Report::new(
        "service_sweep",
        &[
            "domain",
            "dataset",
            "shards",
            "threads",
            "batch",
            "queries",
            "total_ms",
            "qps",
            "per_shard_qps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "plan_us_per_q",
            "dict_build_ms",
            "speedup_vs_first",
            "result_hash",
        ],
    );
    let record = |rep: &mut Report, row: &pigeonring_service::SweepRow, base_qps: f64| {
        rep.row(&[
            row.domain.clone(),
            row.dataset.clone(),
            row.shards.to_string(),
            row.threads.to_string(),
            row.batch.to_string(),
            row.queries.to_string(),
            f3(row.total_ms),
            f1(row.qps),
            f1(row.per_shard_qps),
            f3(row.p50_ms),
            f3(row.p95_ms),
            f3(row.p99_ms),
            // The plan-once acceptance metric: flat in the shard count
            // for the dictionary-first (editdist/setsim) builds.
            f3(row.plan_us_per_query),
            f3(row.dict_build_ms),
            // base_qps can be the 0.0 "too fast to measure" sentinel
            // (see Sweep::run); don't let inf/NaN into the CSV.
            if base_qps > 0.0 {
                format!("{:.2}", row.qps / base_qps)
            } else {
                "-".into()
            },
            format!("{:016x}", row.result_hash),
        ]);
    };

    // Hamming / gist (fig9's Ring configuration).
    {
        let data = VectorConfig::gist_like(scale.n(100_000)).generate();
        let qids = sample_query_ids(data.len(), scale.queries(50), 1);
        let queries: Vec<BitVector> = qids.iter().map(|&i| data[i].clone()).collect();
        let params = HammingParams { tau: 48, l: 5 };
        let mut base_qps = None;
        for &k in &shard_counts {
            // One cost model sampled from the whole corpus (the server
            // registry's build): every shard allocates like the
            // unsharded engine, so filter work is flat in K.
            let index = ShardedIndex::build_global(
                data.clone(),
                k,
                |corpus| {
                    let parts = Partitioning::equi_width(corpus[0].dims(), 16);
                    Arc::new(CostModel::build(corpus, &parts, RingHamming::COST_SAMPLE))
                },
                |cost, shard| RingHamming::with_cost_model(shard, 16, Arc::clone(cost)),
            );
            let (row, _) = sw.run(
                "hamming",
                "gist",
                &index,
                &queries,
                &params,
                opts.batch,
                opts.threads_for(k),
            );
            let base = *base_qps.get_or_insert(row.qps);
            record(&mut rep, row, base);
        }
    }

    // Set similarity / dblp (fig10's Ring configuration).
    {
        let data = SetConfig::dblp_like(scale.n(20_000)).generate();
        let qids = sample_query_ids(data.len(), scale.queries(50), 4);
        let queries: Vec<Vec<u32>> = qids.iter().map(|&i| data[i].clone()).collect();
        let params = SetParams { l: 2 };
        let mut base_qps = None;
        for &k in &shard_counts {
            let index = ShardedIndex::build_global(
                data.clone(),
                k,
                |corpus| Arc::new(TokenDictionary::build(corpus)),
                |dict, shard| {
                    RingSetSim::build(
                        Collection::with_dictionary(shard, Arc::clone(dict)),
                        Threshold::jaccard(0.8),
                        5,
                    )
                },
            );
            let (row, _) = sw.run(
                "setsim",
                "dblp",
                &index,
                &queries,
                &params,
                opts.batch,
                opts.threads_for(k),
            );
            let base = *base_qps.get_or_insert(row.qps);
            record(&mut rep, row, base);
        }
    }

    // Edit distance / imdb (fig11's Ring configuration).
    {
        let data = StringConfig::imdb_like(scale.n(20_000)).generate();
        let qids = sample_query_ids(data.len(), scale.queries(50), 5);
        let queries: Vec<Vec<u8>> = qids.iter().map(|&i| data[i].clone()).collect();
        let tau = 2usize;
        let kappa = kappa_for("imdb", tau);
        let params = EditParams { l: 3 };
        let mut base_qps = None;
        for &k in &shard_counts {
            let index = ShardedIndex::build_global(
                data.clone(),
                k,
                |corpus| Arc::new(GramDictionary::build(corpus, kappa, GramOrder::Frequency)),
                |dict, shard| {
                    RingEdit::build(
                        QGramCollection::with_dictionary(shard, Arc::clone(dict)),
                        tau,
                    )
                },
            );
            let (row, _) = sw.run(
                "editdist",
                "imdb",
                &index,
                &queries,
                &params,
                opts.batch,
                opts.threads_for(k),
            );
            let base = *base_qps.get_or_insert(row.qps);
            record(&mut rep, row, base);
        }
    }

    // Graph edit distance / aids (fig12's Ring configuration).
    {
        let data = GraphConfig::aids_like(scale.n(2_000)).generate();
        let qids = sample_query_ids(data.len(), scale.queries(30), 7);
        let queries: Vec<Graph> = qids.iter().map(|&i| data[i].clone()).collect();
        let tau = 4usize;
        let params = GraphParams { l: tau };
        let mut base_qps = None;
        for &k in &shard_counts {
            let index = ShardedIndex::build(data.clone(), k, |shard| RingGraph::build(shard, tau));
            let (row, _) = sw.run(
                "graph",
                "aids",
                &index,
                &queries,
                &params,
                opts.batch,
                opts.threads_for(k),
            );
            let base = *base_qps.get_or_insert(row.qps);
            record(&mut rep, row, base);
        }
    }

    rep.emit();
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    if let Err(e) = sw.write_json("results/BENCH_service.json") {
        eprintln!("warning: cannot write results/BENCH_service.json: {e}");
    } else {
        println!("wrote results/BENCH_service.json ({} rows)", sw.rows.len());
    }
}

/// Ablation: cost-model vs even threshold allocation (DESIGN.md §6).
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
            let mut eng = RingHamming::build(setup.data.clone(), setup.m, strat);
            let (ms, stats) = time_per_query(&setup.queries, |qid| {
                let q = setup.data[qid].clone();
                eng.search(&q, tau, 5).1
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
