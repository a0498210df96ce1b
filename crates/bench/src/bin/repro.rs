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
//! Each experiment prints an aligned table; only the default scale also
//! writes its CSV under `results/`, where the committed CSVs are
//! full-scale rows. The measured figures' sweeps and their count-claim
//! tests live in `pigeonring-bench`. Absolute numbers differ from the
//! paper (synthetic data, different machine); the *shape* — who wins,
//! candidate monotonicity, U-shaped total time in `l` — is the
//! reproduction target. Performance numbers of the service and server
//! layers come from `benchmark/`, not from this binary.

use pigeonring_bench::{
    ablate_alloc_rows, fig10_rows, fig11_rows, fig12_rows, fig5_rows, fig6_rows, fig7_rows,
    fig8_rows, fig9_rows, validate_args, Report, Scale,
};
use pigeonring_core::analysis::{DiscreteDist, FilterAnalysis};

type Experiment = fn(Scale) -> Report;

/// Every experiment and what renders its table, in the order `all` runs them.
const FIGURES: [(&str, Experiment); 10] = [
    ("fig2", |_| fig2()),
    ("fig5", |s| fig5_rows(s).report()),
    ("fig6", |s| fig6_rows(s).report()),
    ("fig7", |s| fig7_rows(s).report()),
    ("fig8", |s| fig8_rows(s).report()),
    ("fig9", |s| fig9_rows(s).report()),
    ("fig10", |s| fig10_rows(s).report()),
    ("fig11", |s| fig11_rows(s).report()),
    ("fig12", |s| fig12_rows(s).report()),
    ("ablate-alloc", |s| ablate_alloc_rows(s).report()),
];

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
    let ids = FIGURES.map(|(id, _)| id);
    if cmd != "all" && !ids.contains(&cmd) {
        eprintln!(
            "unknown experiment {cmd:?}; expected {}|all [--quick|--paper], or a server \
             subcommand serve|query|stats|trace|server-smoke [FLAGS] (an unknown flag \
             lists the known ones)",
            ids.join("|")
        );
        std::process::exit(2);
    }
    for (_, figure) in FIGURES.iter().filter(|(id, _)| cmd == "all" || *id == cmd) {
        let rep = figure(scale);
        if scale == Scale::Full {
            rep.emit();
        } else {
            print!("{}", rep.render());
        }
    }
}

// ---------------------------------------------------------------- fig 2

/// Figure 2: analytical #candidates/#results vs chain length for Hamming
/// distance search, d = 256. The paper evaluates "a synthetic dataset
/// with uniform distribution"; we emit both readings — uniform random
/// *bits* (box ~ Binomial(d/m, ½)) and uniform *box values* (box ~
/// U[0, d/m]); the latter matches the paper's 10⁻²..10⁶ y-range.
fn fig2() -> Report {
    let mut rep = Report::new(
        "fig2_analysis",
        "box_dist,setting,l,cand_over_res,pr_cand,pr_res",
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
    rep
}
