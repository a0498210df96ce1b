//! `benchmark compare <a.json> <b.json>`: is `b` no worse than `a`?
//!
//! Each file is a result document of one run or a set document of many
//! (`benchmark all`). Runs are matched by workload and mode. End-to-end
//! metrics are judged by the direction and bound `/BENCHMARK.json` gives
//! them; count-type per-layer metrics must be equal; the other per-layer
//! metrics are listed with their change. A cell whose split-half spread
//! (see `stats`) is wider than the metric's bound is "unresolved", not
//! "ok".

use std::collections::BTreeMap;

use pigeonring_telemetry::json::{parse, Value};

/// Direction and bound of one end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gate {
    /// `true` when larger values are better.
    pub higher_is_better: bool,
    /// Share of `a` by which `b` may be worse.
    pub bound: f64,
}

/// What `compare` says about one `(workload, metric)` cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound and resolved.
    Ok,
    /// Worse than the bound allows.
    Regression,
    /// Either run's split-half spread is wider than the bound.
    Unresolved,
    /// An exact metric differs.
    Mismatch,
    /// An exact metric is equal.
    Equal,
    /// Not gated; shown for information.
    Info,
}

/// One metric of one run, as read back from a result document.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    /// Reported value.
    pub value: f64,
    /// Its split-half spread (0 when it has none).
    pub spread: f64,
    /// Must repeat exactly for a seed.
    pub exact: bool,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// Judges one cell.
pub fn judge(a: Cell, b: Cell, gate: Option<Gate>) -> Verdict {
    match gate {
        Some(gate) => {
            if worsening(a.value, b.value, gate.higher_is_better) > gate.bound {
                Verdict::Regression
            } else if a.spread.max(b.spread) > gate.bound {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            }
        }
        None if a.exact || b.exact => {
            if a.value == b.value {
                Verdict::Equal
            } else {
                Verdict::Mismatch
            }
        }
        None => Verdict::Info,
    }
}

/// The gates `/BENCHMARK.json` defines.
pub fn gates(manifest: &Value) -> Result<BTreeMap<String, Gate>, String> {
    let Some(Value::Arr(defs)) = manifest.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    defs.iter()
        .map(|d| {
            let name = d.get("name").and_then(Value::as_str);
            let better = d.get("better").and_then(Value::as_str);
            let bound = d.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok((
                    name.to_string(),
                    Gate {
                        higher_is_better: better == "higher",
                        bound,
                    },
                )),
                _ => Err("malformed end_to_end entry in BENCHMARK.json".to_string()),
            }
        })
        .collect()
}

/// One run as `compare` needs it.
struct Run {
    failed: u64,
    correct: bool,
    digests: BTreeMap<String, String>,
    metrics: Vec<(String, Cell)>,
}

/// Reads a result or set document into runs keyed by `(workload, mode)`.
fn load(path: &str) -> Result<BTreeMap<(String, String), Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let docs: Vec<&Value> = match doc.get("runs") {
        Some(Value::Arr(runs)) => runs.iter().collect(),
        _ => vec![&doc],
    };
    let mut runs = BTreeMap::new();
    for d in docs {
        let text_of = |key: &str| {
            d.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{path}: run without {key}"))
        };
        let metrics = d
            .get("metrics")
            .and_then(Value::entries)
            .ok_or_else(|| format!("{path}: run without metrics"))?
            .iter()
            .map(|(name, m)| {
                let number = |key: &str| m.get(key).and_then(Value::as_f64).unwrap_or(0.0);
                (
                    name.clone(),
                    Cell {
                        value: number("value"),
                        spread: number("spread"),
                        exact: m.get("exact") == Some(&Value::Bool(true)),
                    },
                )
            })
            .collect();
        let digests = d
            .get("digests")
            .and_then(Value::entries)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect();
        runs.insert(
            (text_of("workload")?, text_of("mode")?),
            Run {
                failed: d.get("failed").and_then(Value::as_u64).unwrap_or(0),
                correct: d.get("correct") == Some(&Value::Bool(true)),
                digests,
                metrics,
            },
        );
    }
    Ok(runs)
}

/// `compare`: `Ok(true)` when nothing regressed or mismatched.
pub fn command(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two result or set documents".to_string());
    };
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let gates = gates(&parse(&manifest)?)?;
    let (a, b) = (load(a_path)?, load(b_path)?);

    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut bump = |verdict: Verdict| -> &'static str {
        let label = match verdict {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Mismatch => "MISMATCH",
            Verdict::Equal => "equal",
            Verdict::Info => "",
        };
        *counts.entry(label).or_default() += 1;
        label
    };
    println!(
        "{:<10} {:<44} {:>16} {:>16} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "a", "b", "change", "spread_a", "spread_b"
    );
    let mut digests: BTreeMap<String, BTreeMap<String, Vec<String>>> = BTreeMap::new();
    let mut clean = true;
    for (key, run_a) in &a {
        let Some(run_b) = b.get(key) else {
            println!("{:<10} (mode {}) missing from {b_path}", key.0, key.1);
            clean = false;
            continue;
        };
        for (side, run) in [(a_path, run_a), (b_path, run_b)] {
            if run.failed != 0 || !run.correct {
                println!(
                    "{:<10} {side}: failed={} correct={}",
                    key.0, run.failed, run.correct
                );
                clean = false;
            }
            for (domain, digest) in &run.digests {
                digests
                    .entry(domain.clone())
                    .or_default()
                    .entry(digest.clone())
                    .or_default()
                    .push(format!("{side}:{}:{}", key.0, key.1));
            }
        }
        for (name, cell_a) in &run_a.metrics {
            let Some((_, cell_b)) = run_b.metrics.iter().find(|(n, _)| n == name) else {
                continue;
            };
            let gate = (key.1 == "end_to_end")
                .then(|| gates.get(name).copied())
                .flatten();
            let verdict = judge(*cell_a, *cell_b, gate);
            clean &= !matches!(verdict, Verdict::Regression | Verdict::Mismatch);
            let change = if cell_a.value != 0.0 {
                (cell_b.value - cell_a.value) / cell_a.value.abs() * 100.0
            } else {
                0.0
            };
            println!(
                "{:<10} {:<44} {:>16.4} {:>16.4} {:>8.2}% {:>7.1}% {:>7.1}%  {}",
                key.0,
                name,
                cell_a.value,
                cell_b.value,
                change,
                cell_a.spread * 100.0,
                cell_b.spread * 100.0,
                bump(verdict)
            );
        }
    }
    // Same seed ⇒ every workload of both sets must have produced the
    // same answers per domain.
    for (domain, seen) in &digests {
        if seen.len() > 1 {
            clean = false;
            println!("digest.{domain} differs: {seen:?}");
        }
    }
    let summary: Vec<String> = counts
        .iter()
        .filter(|(label, _)| !label.is_empty())
        .map(|(label, n)| format!("{n} {label}"))
        .collect();
    println!("# {}", summary.join(", "));
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(value: f64, spread: f64) -> Cell {
        Cell {
            value,
            spread,
            exact: false,
        }
    }

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        let qps = Some(Gate {
            higher_is_better: true,
            bound: 0.10,
        });
        let p50 = Some(Gate {
            higher_is_better: false,
            bound: 0.10,
        });
        assert_eq!(
            judge(cell(1000.0, 0.01), cell(950.0, 0.01), qps),
            Verdict::Ok
        );
        assert_eq!(
            judge(cell(1000.0, 0.01), cell(880.0, 0.01), qps),
            Verdict::Regression
        );
        assert_eq!(
            judge(cell(1000.0, 0.01), cell(1500.0, 0.01), qps),
            Verdict::Ok
        );
        assert_eq!(judge(cell(100.0, 0.0), cell(109.0, 0.0), p50), Verdict::Ok);
        assert_eq!(
            judge(cell(100.0, 0.0), cell(111.0, 0.0), p50),
            Verdict::Regression
        );
        assert_eq!(judge(cell(100.0, 0.0), cell(50.0, 0.0), p50), Verdict::Ok);
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_ok() {
        let gate = Some(Gate {
            higher_is_better: true,
            bound: 0.10,
        });
        assert_eq!(
            judge(cell(1000.0, 0.02), cell(990.0, 0.15), gate),
            Verdict::Unresolved
        );
        // A change beyond the bound is a regression whatever the spread.
        assert_eq!(
            judge(cell(1000.0, 0.3), cell(500.0, 0.3), gate),
            Verdict::Regression
        );
    }

    #[test]
    fn counts_must_match_exactly_and_the_rest_is_information() {
        let exact = |value| Cell {
            value,
            spread: 0.0,
            exact: true,
        };
        assert_eq!(judge(exact(3.5), exact(3.5), None), Verdict::Equal);
        assert_eq!(judge(exact(3.5), exact(3.6), None), Verdict::Mismatch);
        assert_eq!(judge(cell(1.0, 0.0), cell(9.0, 0.0), None), Verdict::Info);
    }

    #[test]
    fn gates_come_from_the_manifest() {
        let manifest = parse(&crate::catalogue::manifest_json()).unwrap();
        let gates = gates(&manifest).unwrap();
        assert_eq!(gates.len(), crate::catalogue::end_to_end().len());
        assert!(gates["hamming.qps"].higher_is_better);
        assert!(!gates["setup_s"].higher_is_better);
        assert_eq!(gates["setup_s"].bound, 0.25);
    }
}
