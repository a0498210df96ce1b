//! Shared harness for the `repro` binary and the Criterion benches:
//! reduced-scale dataset presets, the argument scanner, timing helpers,
//! tabular / CSV reporting, and every measured figure of §8 (Figures
//! 5–12 and the allocation ablation) as rows whose count claims are
//! tested here.
//!
//! Scale note: dataset sizes are 10–100× smaller than the paper's so
//! `repro all` finishes in minutes on one machine. `Scale` controls the
//! reduction; `Scale::Quick` is used by the smoke tests.

use pigeonring_datagen::{sample_query_ids, GraphConfig, SetConfig, StringConfig, VectorConfig};
use pigeonring_editdist::{
    EditParams, EditScratch, EditStats, GramOrder, Pivotal, QGramCollection, RingEdit,
};
use pigeonring_graph::{Graph, GraphParams, GraphStats, RingGraph};
use pigeonring_hamming::{
    AllocationStrategy, BitVector, HammingParams, HammingScratch, RingHamming, SearchStats,
};
use pigeonring_setsim::adapt::AdaptStats;
use pigeonring_setsim::partalloc::PartAllocStats;
use pigeonring_setsim::{
    AdaptSearch, Collection, PartAlloc, RingSetSim, SetParams, SetScratch, SetStats, Threshold,
};
use std::fmt::Write as _;
use std::time::Instant;

pub mod server_cli;

/// Dataset scale for the harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke runs (CI / tests).
    Quick,
    /// The default reproduction scale (minutes for `repro all`).
    Full,
    /// Paper-§8-scale dataset sizes (10× `Full`, i.e. the order of the
    /// paper's real datasets); `repro serve --paper` wants a real
    /// multi-core host.
    Paper,
}

impl Scale {
    /// Parses `--quick` / `--paper` style flags (`--quick` wins if both
    /// are given).
    pub fn from_args(args: &[String]) -> Scale {
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else if args.iter().any(|a| a == "--paper") {
            Scale::Paper
        } else {
            Scale::Full
        }
    }

    /// Scales a full-size count for this scale.
    pub fn n(&self, full: usize) -> usize {
        match self {
            Scale::Quick => (full / 10).max(50),
            Scale::Full => full,
            Scale::Paper => full.saturating_mul(10),
        }
    }

    /// Number of queries to run.
    pub fn queries(&self, full: usize) -> usize {
        match self {
            Scale::Quick => (full / 5).max(5),
            Scale::Full => full,
            Scale::Paper => full.saturating_mul(2),
        }
    }
}

/// Checks `args` (everything after the subcommand) against the flags
/// a command knows: every token must be one of `bool_flags`, or one of
/// `value_flags` followed by its value (skipped here — the value's
/// parser judges it). An unknown `--flag` or a stray positional token
/// is an error, so a typo like `fig5 quick` or `--port=1` fails loudly
/// instead of silently running the default configuration.
pub fn validate_args(
    args: &[String],
    bool_flags: &[&str],
    value_flags: &[&str],
) -> Result<(), String> {
    let mut tokens = args.iter().map(String::as_str);
    while let Some(a) = tokens.next() {
        if value_flags.contains(&a) {
            tokens.next();
        } else if !bool_flags.contains(&a) {
            let what = if a.starts_with("--") {
                "unknown flag"
            } else {
                "unexpected argument"
            };
            let mut known = bool_flags.join(", ");
            for flag in value_flags {
                known.push_str(&format!(", {flag} VALUE"));
            }
            return Err(format!("{what} {a:?}; known flags: {known}"));
        }
    }
    Ok(())
}

/// Measures average per-query wall time in milliseconds over a closure
/// invoked once per query id, after one untimed pass over the ids: a
/// freshly built engine's first pass pays its page faults and scratch
/// growth, which would make every sweep's first row read slow.
pub fn time_per_query<T>(query_ids: &[usize], mut run: impl FnMut(usize) -> T) -> (f64, Vec<T>) {
    for &qid in query_ids {
        run(qid);
    }
    let start = Instant::now();
    let outs: Vec<T> = query_ids.iter().map(|&qid| run(qid)).collect();
    let total = start.elapsed().as_secs_f64() * 1e3;
    (total / query_ids.len().max(1) as f64, outs)
}

/// Accumulates rows and renders both an aligned console table and a CSV
/// file under `results/`.
pub struct Report {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report named e.g. `"fig5_hamming_chain"` under `header`,
    /// its CSV header line (so no column name holds a comma).
    pub fn new(name: &str, header: &str) -> Self {
        Report {
            name: name.to_string(),
            header: header.split(',').map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.name);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the CSV text: the header line, then one line per row.
    pub fn csv(&self) -> String {
        let quote = |c: &String| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut csv = self.header.join(",") + "\n";
        for row in &self.rows {
            csv.push_str(&row.iter().map(quote).collect::<Vec<_>>().join(","));
            csv.push('\n');
        }
        csv
    }

    /// Prints the table and writes `results/<name>.csv`. IO errors are
    /// reported to stderr but do not abort the run.
    pub fn emit(&self) {
        print!("{}", self.render());
        if let Err(e) = std::fs::create_dir_all("results") {
            eprintln!("warning: cannot create results/: {e}");
            return;
        }
        let path = format!("results/{}.csv", self.name);
        if let Err(e) = std::fs::write(&path, self.csv()) {
            eprintln!("warning: cannot write {path}: {e}");
        }
    }
}

/// One row of a chain-length figure (5–8): averages per query at one
/// (dataset, τ, l), with candidate generation alone (`cand_ms`) and the
/// whole search (`total_ms`) timed in ms per query.
#[derive(Debug)]
pub struct ChainRow {
    dataset: &'static str,
    tau: f64,
    l: usize,
    avg_cand: f64,
    avg_res: f64,
    cand_ms: f64,
    total_ms: f64,
}

/// One row of an engine-versus-engine figure (9–12, and the allocation
/// ablation): averages per query of one engine at one (dataset, τ).
#[derive(Debug)]
pub struct VersusRow {
    dataset: &'static str,
    tau: f64,
    engine: &'static str,
    avg_cand: f64,
    avg_res: f64,
    /// The figure's work column, if it has one for this engine.
    work: Option<f64>,
    total_ms: f64,
}

/// A figure row, rendered one named column at a time.
pub trait Row {
    /// The table cell of `column`; a column the row lacks is a bug in
    /// the figure's header.
    fn cell(&self, column: &str) -> String;
}

impl Row for ChainRow {
    fn cell(&self, column: &str) -> String {
        match column {
            "dataset" => self.dataset.into(),
            "tau" => self.tau.to_string(),
            "l" => self.l.to_string(),
            "avg_cand" => format!("{:.1}", self.avg_cand),
            "avg_res" => format!("{:.1}", self.avg_res),
            "cand_ms" => format!("{:.3}", self.cand_ms),
            "total_ms" => format!("{:.3}", self.total_ms),
            _ => panic!("no chain column {column:?}"),
        }
    }
}

impl Row for VersusRow {
    fn cell(&self, column: &str) -> String {
        match column {
            "dataset" => self.dataset.into(),
            "tau" => self.tau.to_string(),
            "engine" | "alloc" => self.engine.into(),
            "avg_cand" | "cand2_or_cand" => format!("{:.1}", self.avg_cand),
            "avg_res" => format!("{:.1}", self.avg_res),
            "filter_work" | "cand1" => self.work.map_or("-".into(), |w| format!("{w:.1}")),
            "total_ms" => format!("{:.3}", self.total_ms),
            _ => panic!("no versus column {column:?}"),
        }
    }
}

/// One measured figure's rows, and the name and CSV header line of the
/// table (and `results/<csv>.csv`) they render to.
pub struct Figure<R> {
    csv: &'static str,
    header: &'static str,
    rows: Vec<R>,
}

impl<R: Row> Figure<R> {
    fn new(csv: &'static str, header: &'static str, rows: Vec<R>) -> Self {
        Figure { csv, header, rows }
    }

    /// Renders the rows under the figure's header.
    pub fn report(&self) -> Report {
        let mut rep = Report::new(self.csv, self.header);
        for r in &self.rows {
            let cells: Vec<String> = rep.header.iter().map(|c| r.cell(c)).collect();
            rep.row(&cells);
        }
        rep
    }
}

const CHAIN: &str = "dataset,tau,l,avg_cand,avg_res,cand_ms,total_ms";
const VERSUS: &str = "dataset,tau,engine,avg_cand,avg_res,total_ms";

/// One dataset of a figure with its sampled query ids (queries are
/// records of the dataset).
struct Setup<D> {
    name: &'static str,
    data: D,
    queries: Vec<usize>,
}

impl<D> Setup<D> {
    /// `data` of `len` records, with `count` query ids drawn by `seed`.
    fn new(name: &'static str, len: usize, data: D, count: usize, seed: u64) -> Self {
        Setup {
            name,
            data,
            queries: sample_query_ids(len, count, seed),
        }
    }

    /// One (dataset, τ) group of a chain figure, a row per `l` of `ls`:
    /// `run(qid, l, full)` answers a query by the whole search (`full`),
    /// whose counts fill the row, or by candidate generation alone.
    fn chain<S: Counts>(
        &self,
        tau: f64,
        ls: impl Iterator<Item = usize>,
        mut run: impl FnMut(usize, usize, bool) -> S,
    ) -> Vec<ChainRow> {
        ls.map(|l| {
            let (cand_ms, _) = time_per_query(&self.queries, |qid| run(qid, l, false));
            let (total_ms, stats) = time_per_query(&self.queries, |qid| run(qid, l, true));
            ChainRow {
                dataset: self.name,
                tau,
                l,
                avg_cand: mean(&stats, |s| s.counts().0),
                avg_res: mean(&stats, |s| s.counts().1),
                cand_ms,
                total_ms,
            }
        })
        .collect()
    }

    /// `engine`'s row at `tau` from its timed run over the queries.
    fn versus<S: Counts>(
        &self,
        tau: f64,
        engine: &'static str,
        (total_ms, stats): &(f64, Vec<S>),
        work: Option<f64>,
    ) -> VersusRow {
        VersusRow {
            dataset: self.name,
            tau,
            engine,
            avg_cand: mean(stats, |s| s.counts().0),
            avg_res: mean(stats, |s| s.counts().1),
            work,
            total_ms: *total_ms,
        }
    }
}

/// The gist-like and sift-like vectors of Figures 5 and 9: large enough
/// that per-candidate verification (not the shared index probe) carries
/// the cost difference, as in the paper's regime.
fn hamming_setups(scale: Scale) -> [Setup<Vec<BitVector>>; 2] {
    let gist = VectorConfig::gist_like(scale.n(100_000)).generate();
    let sift = VectorConfig::sift_like(scale.n(50_000)).generate();
    [
        Setup::new("gist", gist.len(), gist, scale.queries(50), 1),
        Setup::new("sift", sift.len(), sift, scale.queries(50), 2),
    ]
}

/// Ring over a Hamming setup with 16-bit parts (gist `m = 16`, sift 32).
fn hamming_engine(setup: &Setup<Vec<BitVector>>, alloc: AllocationStrategy) -> RingHamming {
    RingHamming::build(setup.data.clone(), setup.data[0].dims() / 16, alloc)
}

/// The enron-like and dblp-like collections of Figures 6 and 10.
fn set_setups(scale: Scale) -> [Setup<Collection>; 2] {
    let enron = Collection::new(SetConfig::enron_like(scale.n(5_000)).generate());
    let dblp = Collection::new(SetConfig::dblp_like(scale.n(20_000)).generate());
    [
        Setup::new("enron", enron.len(), enron, scale.queries(50), 3),
        Setup::new("dblp", dblp.len(), dblp, scale.queries(50), 4),
    ]
}

/// The imdb-like and pubmed-like strings of Figures 7 and 11.
fn string_setups(scale: Scale) -> [Setup<Vec<Vec<u8>>>; 2] {
    let imdb = StringConfig::imdb_like(scale.n(20_000)).generate();
    let pubmed = StringConfig::pubmed_like(scale.n(5_000)).generate();
    [
        Setup::new("imdb", imdb.len(), imdb, scale.queries(50), 5),
        Setup::new("pubmed", pubmed.len(), pubmed, scale.queries(30), 6),
    ]
}

/// The q-gram collection of a string setup at the paper's per-(dataset,
/// τ) q-gram length κ (§8.1).
fn qgrams(setup: &Setup<Vec<Vec<u8>>>, tau: usize) -> QGramCollection {
    let kappa = match (setup.name, tau) {
        ("imdb", 1) => 3,
        ("pubmed", 4) => 8,
        ("pubmed", 6 | 8) => 6,
        ("pubmed", _) => 4,
        _ => 2,
    };
    QGramCollection::build(setup.data.clone(), kappa, GramOrder::Frequency)
}

/// The aids-like and protein-like graphs of Figures 8 and 12.
fn graph_setups(scale: Scale) -> [Setup<Vec<Graph>>; 2] {
    let aids = GraphConfig::aids_like(scale.n(2_000)).generate();
    let protein = GraphConfig::protein_like(scale.n(1_000)).generate();
    [
        Setup::new("aids", aids.len(), aids, scale.queries(30), 7),
        Setup::new("protein", protein.len(), protein, scale.queries(20), 8),
    ]
}

/// The candidates verified and results every engine's per-query stats carry.
trait Counts {
    fn counts(&self) -> (usize, usize);
}

macro_rules! counts {
    ($($stats:ty),*) => {$(
        impl Counts for $stats {
            fn counts(&self) -> (usize, usize) {
                (self.candidates, self.results)
            }
        }
    )*};
}
counts! { SearchStats, SetStats, AdaptStats, PartAllocStats, EditStats, GraphStats }

/// The mean of `field` over per-query stats.
fn mean<S>(stats: &[S], field: impl Fn(&S) -> usize) -> f64 {
    stats.iter().map(|s| field(s) as f64).sum::<f64>() / stats.len() as f64
}

/// Figure 5, effect of chain length on Hamming distance search:
/// cost-model `RingHamming` at two τ per dataset over every valid `l ≤ 8`.
pub fn fig5_rows(scale: Scale) -> Figure<ChainRow> {
    let mut rows = Vec::new();
    for (setup, taus) in hamming_setups(scale).into_iter().zip([[48, 64], [96, 128]]) {
        let eng = hamming_engine(&setup, AllocationStrategy::CostModel);
        let (m, d) = (eng.num_parts(), setup.data[0].dims());
        let mut scratch = HammingScratch::default();
        for tau in taus {
            let ls = (1..=8).filter(|&l| HammingParams { tau, l }.validate(m, d).is_ok());
            rows.extend(setup.chain(tau.into(), ls, |qid, l, full| {
                let q = &setup.data[qid];
                if full {
                    eng.search_with(&mut scratch, q, tau, l).1
                } else {
                    eng.candidates_with(&mut scratch, q, tau, l).1
                }
            }));
        }
    }
    Figure::new("fig5_hamming_chain", CHAIN, rows)
}

/// Figure 6, effect of chain length on set similarity search: `RingSetSim`
/// (`m = 5`) at Jaccard τ ∈ {0.7, 0.8} over every valid `l ≤ 3`.
pub fn fig6_rows(scale: Scale) -> Figure<ChainRow> {
    let mut rows = Vec::new();
    for setup in set_setups(scale) {
        for tau in [0.7, 0.8] {
            let eng = RingSetSim::build(setup.data.clone(), Threshold::jaccard(tau), 5);
            let mut scratch = SetScratch::default();
            let ls = (1..=3).filter(|&l| SetParams { l }.validate(5).is_ok());
            rows.extend(setup.chain(tau, ls, |qid, l, full| {
                let q = setup.data.record(qid);
                if full {
                    eng.search_with(&mut scratch, q, l).1
                } else {
                    eng.candidates_with(&mut scratch, q, l).1
                }
            }));
        }
    }
    Figure::new("fig6_setsim_chain", CHAIN, rows)
}

/// Figure 7, effect of chain length on string edit distance search:
/// `RingEdit` at two τ per dataset over every valid `l ≤ 4`.
pub fn fig7_rows(scale: Scale) -> Figure<ChainRow> {
    let mut rows = Vec::new();
    for (setup, taus) in string_setups(scale).into_iter().zip([[2, 4], [6, 12]]) {
        for tau in taus {
            let eng = RingEdit::build(qgrams(&setup, tau), tau);
            let mut scratch = EditScratch::default();
            let ls = (1..=4).filter(|&l| EditParams { l }.validate(tau).is_ok());
            rows.extend(setup.chain(tau as f64, ls, |qid, l, full| {
                let q = &setup.data[qid];
                if full {
                    eng.search_with(&mut scratch, q, l).1
                } else {
                    eng.candidates_with(&mut scratch, q, l).1
                }
            }));
        }
    }
    Figure::new("fig7_editdist_chain", CHAIN, rows)
}

/// Figure 8, effect of chain length on graph edit distance search:
/// `RingGraph` at τ ∈ {4, 5} over every valid `l ≤ 5`.
pub fn fig8_rows(scale: Scale) -> Figure<ChainRow> {
    let mut rows = Vec::new();
    for setup in graph_setups(scale) {
        for tau in [4, 5] {
            let eng = RingGraph::build(setup.data.clone(), tau);
            let ls = (1..=5).filter(|&l| GraphParams { l }.validate(tau).is_ok());
            rows.extend(setup.chain(tau as f64, ls, |qid, l, full| {
                let q = &setup.data[qid];
                if full {
                    eng.search(q, l).1
                } else {
                    eng.candidates(q, l).1
                }
            }));
        }
    }
    Figure::new("fig8_graph_chain", CHAIN, rows)
}

/// Figure 9, Ring vs GPH over the Hamming threshold sweep: GPH is the engine
/// at `l = 1`, Ring the same engine at a fixed `l = 5` (not a per-τ best `l`).
pub fn fig9_rows(scale: Scale) -> Figure<VersusRow> {
    let mut rows = Vec::new();
    for (setup, step) in hamming_setups(scale).into_iter().zip([8, 16]) {
        let eng = hamming_engine(&setup, AllocationStrategy::CostModel);
        let mut scratch = HammingScratch::default();
        for tau in (1..=8).map(|k| k * step) {
            for (engine, l) in [("GPH", 1), ("Ring", 5)] {
                let timed = time_per_query(&setup.queries, |qid| {
                    eng.search_with(&mut scratch, &setup.data[qid], tau, l).1
                });
                rows.push(setup.versus(tau.into(), engine, &timed, None));
            }
        }
    }
    Figure::new("fig9_hamming_vs_gph", VERSUS, rows)
}

/// Figure 10, Ring vs pkwise vs AdaptSearch vs PartAlloc over Jaccard τ:
/// pkwise is `RingSetSim` at `l = 1`, Ring the same engine at `l = 2`; the
/// work column is each engine's filter effort (signature probes + boxes
/// checked, postings scanned, segments hashed).
pub fn fig10_rows(scale: Scale) -> Figure<VersusRow> {
    let mut rows = Vec::new();
    for setup in set_setups(scale) {
        for tau in [0.7, 0.75, 0.8, 0.85, 0.9, 0.95] {
            let t = Threshold::jaccard(tau);
            let ring = RingSetSim::build(setup.data.clone(), t, 5);
            let mut scratch = SetScratch::default();
            for (engine, l) in [("pkwise", 1), ("Ring", 2)] {
                let timed = time_per_query(&setup.queries, |qid| {
                    ring.search_with(&mut scratch, setup.data.record(qid), l).1
                });
                let work = mean(&timed.1, |s| s.sig_probes + s.boxes_checked);
                rows.push(setup.versus(tau, engine, &timed, Some(work)));
            }
            let mut adapt = AdaptSearch::build(setup.data.clone(), t);
            let timed =
                time_per_query(&setup.queries, |qid| adapt.search(setup.data.record(qid)).1);
            let work = mean(&timed.1, |s| s.postings_scanned);
            rows.push(setup.versus(tau, "AdaptSearch", &timed, Some(work)));
            let mut part = PartAlloc::build(setup.data.clone(), t);
            let timed = time_per_query(&setup.queries, |qid| part.search(setup.data.record(qid)).1);
            let work = mean(&timed.1, |s| s.segments_hashed);
            rows.push(setup.versus(tau, "PartAlloc", &timed, Some(work)));
        }
    }
    let header = "dataset,tau,engine,avg_cand,avg_res,filter_work,total_ms";
    Figure::new("fig10_setsim_vs_baselines", header, rows)
}

/// Figure 11, Ring vs Pivotal over τ: Pivotal's candidates are its Cand-2
/// set and its work column is Cand-1; Ring runs the paper's `l = 3`, or
/// the longest valid chain below it.
pub fn fig11_rows(scale: Scale) -> Figure<VersusRow> {
    let mut rows = Vec::new();
    let taus: [&[usize]; 2] = [&[1, 2, 3, 4], &[4, 6, 8, 10, 12]];
    for (setup, taus) in string_setups(scale).into_iter().zip(taus) {
        for &tau in taus {
            let piv = Pivotal::build(qgrams(&setup, tau), tau);
            let mut scratch = EditScratch::default();
            let timed = time_per_query(&setup.queries, |qid| {
                piv.search(&mut scratch, &setup.data[qid]).1
            });
            let cand1 = mean(&timed.1, |s| s.cand1);
            rows.push(setup.versus(tau as f64, "Pivotal", &timed, Some(cand1)));
            let ring = RingEdit::build(qgrams(&setup, tau), tau);
            let l = (1..=3)
                .rev()
                .find(|&l| EditParams { l }.validate(tau).is_ok())
                .expect("l = 1 is always valid");
            let timed = time_per_query(&setup.queries, |qid| {
                ring.search_with(&mut scratch, &setup.data[qid], l).1
            });
            rows.push(setup.versus(tau as f64, "Ring", &timed, None));
        }
    }
    let header = "dataset,tau,engine,cand1,cand2_or_cand,avg_res,total_ms";
    Figure::new("fig11_editdist_vs_pivotal", header, rows)
}

/// Figure 12, Ring vs Pars over τ: Pars is `RingGraph` at `l = 1`, Ring
/// the same engine at `l = τ` (the paper's best `l` lies in `[τ − 2, τ]`).
pub fn fig12_rows(scale: Scale) -> Figure<VersusRow> {
    let mut rows = Vec::new();
    for setup in graph_setups(scale) {
        for tau in 1..=5 {
            let ring = RingGraph::build(setup.data.clone(), tau);
            for (engine, l) in [("Pars", 1), ("Ring", tau)] {
                let timed =
                    time_per_query(&setup.queries, |qid| ring.search(&setup.data[qid], l).1);
                rows.push(setup.versus(tau as f64, engine, &timed, None));
            }
        }
    }
    Figure::new("fig12_graph_vs_pars", VERSUS, rows)
}

/// Ablation: Ring (`l = 5`) with cost-model vs even threshold allocation
/// at one τ per dataset.
pub fn ablate_alloc_rows(scale: Scale) -> Figure<VersusRow> {
    let mut rows = Vec::new();
    for (setup, tau) in hamming_setups(scale).into_iter().zip([48, 96]) {
        for (engine, alloc) in [
            ("cost-model", AllocationStrategy::CostModel),
            ("even", AllocationStrategy::Even),
        ] {
            let eng = hamming_engine(&setup, alloc);
            let mut scratch = HammingScratch::default();
            let timed = time_per_query(&setup.queries, |qid| {
                eng.search_with(&mut scratch, &setup.data[qid], tau, 5).1
            });
            rows.push(setup.versus(tau.into(), engine, &timed, None));
        }
    }
    let header = "dataset,tau,alloc,avg_cand,total_ms";
    Figure::new("ablate_allocation", header, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned() {
        let mut r = Report::new("t", "a,long_header");
        r.row(&["1".into(), "2".into()]);
        let s = r.render();
        assert!(s.contains("== t =="));
        assert!(s.contains("long_header"));
    }

    #[test]
    fn scale_reduces_counts() {
        assert_eq!(Scale::Quick.n(10_000), 1000);
        assert_eq!(Scale::Full.n(10_000), 10_000);
        assert_eq!(Scale::Paper.n(10_000), 100_000);
        assert!(Scale::Quick.queries(50) >= 5);
    }

    #[test]
    fn scale_flag_precedence() {
        let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(Scale::from_args(&args(&["fig7"])), Scale::Full);
        assert_eq!(Scale::from_args(&args(&["fig7", "--paper"])), Scale::Paper);
        assert_eq!(
            Scale::from_args(&args(&["fig7", "--paper", "--quick"])),
            Scale::Quick
        );
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        // The figure half: two scale flags, no value flags.
        let figure = |s: &[&str]| validate_args(&args(s), &["--quick", "--paper"], &[]);
        assert!(figure(&[]).is_ok());
        assert!(figure(&["--quick", "--paper"]).is_ok());
        let err = figure(&["--quik"]).unwrap_err();
        assert!(err.contains("unknown flag \"--quik\""), "{err}");
        assert!(err.contains("--quick, --paper"), "{err}");
        let err = figure(&["--shards", "2"]).unwrap_err();
        assert!(err.contains("unknown flag \"--shards\""), "{err}");
        // `fig5 quick` must not silently run the full scale.
        let err = figure(&["quick"]).unwrap_err();
        assert!(err.contains("unexpected argument \"quick\""), "{err}");
        // A value flag swallows exactly one token, whatever it looks like.
        let valued = |s: &[&str]| validate_args(&args(s), &["--raw"], &["--port"]);
        assert!(valued(&["--port", "7878", "--raw"]).is_ok());
        assert!(valued(&["--port", "--raw"]).is_ok());
        assert!(valued(&["--port"]).is_ok());
        assert!(valued(&["--port=7878"]).is_err());
        assert!(valued(&["--port", "7878", "7879"]).is_err());
    }

    /// The committed full-scale CSV of a figure, if it has one.
    fn committed(csv: &str) -> Option<&'static str> {
        Some(match csv {
            "fig5_hamming_chain" => include_str!("../../../results/fig5_hamming_chain.csv"),
            "fig6_setsim_chain" => include_str!("../../../results/fig6_setsim_chain.csv"),
            "fig7_editdist_chain" => include_str!("../../../results/fig7_editdist_chain.csv"),
            "fig8_graph_chain" => include_str!("../../../results/fig8_graph_chain.csv"),
            "fig9_hamming_vs_gph" => include_str!("../../../results/fig9_hamming_vs_gph.csv"),
            "fig10_setsim_vs_baselines" => {
                include_str!("../../../results/fig10_setsim_vs_baselines.csv")
            }
            "fig11_editdist_vs_pivotal" => {
                include_str!("../../../results/fig11_editdist_vs_pivotal.csv")
            }
            "fig12_graph_vs_pars" => include_str!("../../../results/fig12_graph_vs_pars.csv"),
            _ => return None,
        })
    }

    /// A sweep's keys (dataset, τ, then l or engine) do not depend on
    /// scale, so the committed CSV must carry the quick rows' header and
    /// keys, in order: a sweep edit that skips regenerating it fails here.
    fn assert_matches_committed<R: Row>(fig: &Figure<R>) {
        let Some(committed) = committed(fig.csv) else {
            return;
        };
        let keys = |csv: &str| -> Vec<String> {
            let key = |line: &str| line.split(',').take(3).collect::<Vec<_>>().join(",");
            csv.lines().map(key).collect()
        };
        let ours = fig.report().csv();
        let what = format!("results/{}.csv is stale", fig.csv);
        assert_eq!(committed.lines().next(), ours.lines().next(), "{what}");
        assert_eq!(keys(committed), keys(&ours), "{what}");
    }

    /// `rows` split into their (dataset, τ) groups, each with a label for
    /// failure messages.
    fn groups<'a, R: std::fmt::Debug>(
        csv: &str,
        rows: &'a [R],
        key: impl Fn(&R) -> (&'static str, f64),
    ) -> Vec<(&'a [R], String)> {
        let label = |g: &[R]| format!("{csv} {:?}: {g:?}", key(&g[0]));
        rows.chunk_by(|a, b| key(a) == key(b))
            .map(|g| (g, label(g)))
            .collect()
    }

    #[test]
    fn every_figure_holds_its_count_claims_and_matches_its_csv() {
        // The paper's count claims (§8, Figs 5-12) at quick scale; times
        // are not asserted. Chain figures: per (dataset, τ), l runs 1, 2,
        // ...; avg_cand is non-increasing in l and strictly lower at l = 2
        // than at l = 1; avg_res is equal at every l (the filter is exact).
        let quick = Scale::Quick;
        for fig in [
            fig5_rows(quick),
            fig6_rows(quick),
            fig7_rows(quick),
            fig8_rows(quick),
        ] {
            assert_matches_committed(&fig);
            for (group, what) in groups(fig.csv, &fig.rows, |r| (r.dataset, r.tau)) {
                assert!(group.len() >= 2, "{what}");
                assert!(group.iter().zip(1..).all(|(r, l)| r.l == l), "{what}");
                assert!(
                    group.windows(2).all(|w| w[1].avg_cand <= w[0].avg_cand),
                    "{what}"
                );
                assert!(
                    group.iter().all(|r| r.avg_res == group[0].avg_res),
                    "{what}"
                );
                // Exempt: on quick-scale pubmed a viable box almost only
                // comes from a near-duplicate record, whose chain passes at
                // every l, so avg_cand is flat (2.2 at τ = 6, 3.0 at
                // τ = 12); full-scale τ = 12 does prune (5.0 -> 4.0).
                let flat = fig.csv == "fig7_editdist_chain" && group[0].dataset == "pubmed";
                assert!(flat || group[1].avg_cand < group[0].avg_cand, "{what}");
            }
        }
        // Versus figures: per (dataset, τ), avg_res is equal across
        // engines, and Ring's candidates are at most its pigeonhole
        // baseline's (Pivotal's are its Cand-1 set, the work column). The
        // ablation's two allocations only have to agree on results.
        let cand = |r: &VersusRow| r.avg_cand;
        let cand1 = |r: &VersusRow| r.work.expect("Pivotal reports Cand-1");
        for (fig, baseline, baseline_cand) in [
            (fig9_rows(quick), Some("GPH"), cand as fn(&VersusRow) -> f64),
            (fig10_rows(quick), Some("pkwise"), cand),
            (fig11_rows(quick), Some("Pivotal"), cand1),
            (fig12_rows(quick), Some("Pars"), cand),
            (ablate_alloc_rows(quick), None, cand),
        ] {
            assert_matches_committed(&fig);
            for (group, what) in groups(fig.csv, &fig.rows, |r| (r.dataset, r.tau)) {
                assert!(group.len() >= 2, "{what}");
                assert!(
                    group.iter().all(|r| r.avg_res == group[0].avg_res),
                    "{what}"
                );
                let engine = |name| group.iter().find(|r| r.engine == name).expect(name);
                if let Some(baseline) = baseline {
                    let ring = engine("Ring").avg_cand;
                    assert!(ring <= baseline_cand(engine(baseline)), "{what}");
                }
            }
        }
    }

    #[test]
    fn time_per_query_runs_all() {
        let ids = vec![0, 1, 2, 3];
        let (ms, outs) = time_per_query(&ids, |q| q * 2);
        assert!(ms >= 0.0);
        assert_eq!(outs, vec![0, 2, 4, 6]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn row_arity_checked() {
        let mut r = Report::new("t", "a,b");
        r.row(&["only-one".into()]);
    }
}
