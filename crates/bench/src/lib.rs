//! Shared harness for the `repro` binary and the Criterion benches:
//! reduced-scale dataset presets, the argument scanner, timing helpers,
//! tabular / CSV reporting, and the figure rows whose claims are tested
//! here (Figure 6).
//!
//! Scale note: dataset sizes are 10–100× smaller than the paper's so
//! `repro all` finishes in minutes on one machine. `Scale` controls the
//! reduction; `Scale::Quick` is used by the smoke tests.

use pigeonring_datagen::{sample_query_ids, SetConfig};
use pigeonring_setsim::{Collection, RingSetSim, SetScratch, Threshold};
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
/// invoked once per query id.
pub fn time_per_query<T>(query_ids: &[usize], mut run: impl FnMut(usize) -> T) -> (f64, Vec<T>) {
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
    /// Starts a report for one experiment (e.g. `"fig5_gist"`).
    pub fn new(name: &str, header: &[&str]) -> Self {
        Report {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
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

    /// Prints the table and writes `results/<name>.csv`. IO errors are
    /// reported to stderr but do not abort the run.
    pub fn emit(&self) {
        print!("{}", self.render());
        if let Err(e) = std::fs::create_dir_all("results") {
            eprintln!("warning: cannot create results/: {e}");
            return;
        }
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
        let path = format!("results/{}.csv", self.name);
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("warning: cannot write {path}: {e}");
        }
    }
}

/// Formats a float with 3 significant decimals for table cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal for table cells.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// A set-similarity dataset of Figures 6 and 10 with its sampled query
/// ids (queries are records of the collection).
pub struct SetSetup {
    /// Dataset name (`enron`, `dblp`).
    pub name: &'static str,
    /// The ranked collection.
    pub collection: Collection,
    /// Query record ids.
    pub queries: Vec<usize>,
}

/// The enron-like and dblp-like collections at `scale`.
pub fn set_setup(scale: Scale) -> Vec<SetSetup> {
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

/// One row of Figure 6: averages per query at one (dataset, τ, l).
#[derive(Clone, Debug)]
pub struct ChainRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Jaccard threshold.
    pub tau: f64,
    /// Chain length.
    pub l: usize,
    /// Candidates verified per query.
    pub avg_cand: f64,
    /// Results per query.
    pub avg_res: f64,
    /// Candidate generation alone, ms per query.
    pub cand_ms: f64,
    /// Whole search, ms per query.
    pub total_ms: f64,
}

/// Figure 6 (effect of chain length on set similarity search): `RingSetSim`
/// with `m = 5` at Jaccard τ ∈ {0.7, 0.8} and `l` ∈ 1..=3 on both
/// datasets. The count columns are deterministic; the paper's claim on
/// them — candidates fall as `l` grows, results do not move — is a test.
pub fn fig6_rows(scale: Scale) -> Vec<ChainRow> {
    let mut rows = Vec::new();
    for setup in set_setup(scale) {
        for tau in [0.7f64, 0.8] {
            let eng = RingSetSim::build(setup.collection.clone(), Threshold::jaccard(tau), 5);
            let mut scratch = SetScratch::default();
            for l in 1..=3usize {
                let (cand_ms, _) = time_per_query(&setup.queries, |qid| {
                    eng.candidates_with(&mut scratch, setup.collection.record(qid), l)
                        .1
                });
                let (total_ms, stats) = time_per_query(&setup.queries, |qid| {
                    eng.search_with(&mut scratch, setup.collection.record(qid), l)
                        .1
                });
                let nq = setup.queries.len() as f64;
                rows.push(ChainRow {
                    dataset: setup.name,
                    tau,
                    l,
                    avg_cand: stats.iter().map(|s| s.candidates as f64).sum::<f64>() / nq,
                    avg_res: stats.iter().map(|s| s.results as f64).sum::<f64>() / nq,
                    cand_ms,
                    total_ms,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned() {
        let mut r = Report::new("t", &["a", "long_header"]);
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

    #[test]
    fn fig6_candidates_fall_with_l_and_results_hold() {
        // Paper Fig 6: per (dataset, τ), avg_cand is non-increasing in l
        // and strictly lower at l = 2 than at l = 1; avg_res is equal
        // across l (the filter is exact). Times are not asserted.
        let rows = fig6_rows(Scale::Quick);
        assert_eq!(rows.len(), 12);
        for group in rows.chunks(3) {
            let at = |l: usize| &group[l - 1];
            let what = format!("{} τ={}", at(1).dataset, at(1).tau);
            assert!(
                group
                    .iter()
                    .zip(1..)
                    .all(|(r, l)| r.l == l && r.dataset == at(1).dataset && r.tau == at(1).tau),
                "{what}: {group:?}"
            );
            assert!(at(2).avg_cand < at(1).avg_cand, "{what}: {group:?}");
            assert!(at(3).avg_cand <= at(2).avg_cand, "{what}: {group:?}");
            assert!(
                group.iter().all(|r| r.avg_res == at(1).avg_res),
                "{what}: {group:?}"
            );
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
        let mut r = Report::new("t", &["a", "b"]);
        r.row(&["only-one".into()]);
    }
}
