//! Metric records and the three outputs of a run: the human-readable
//! table, the result document under `benchmark/out/`, and the one-line
//! JSON object the driver reads from the end of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Summary;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value (for timings: what the fastest repetition shows).
    pub value: f64,
    /// For timings: the plain per-repetition extremes and the split-half
    /// spread (see `stats`).
    pub repetitions: Option<(f64, f64, f64)>,
    /// Counts and ratios of counts: must repeat exactly for a seed.
    pub exact: bool,
    /// Free-form remark (sample count, ratio base).
    pub note: String,
}

impl Metric {
    /// A timing (or other noisy) metric with its per-repetition context.
    pub fn timed(name: impl Into<String>, unit: &'static str, s: Summary) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: s.value,
            repetitions: Some((s.min, s.max, s.spread)),
            exact: false,
            note: String::new(),
        }
    }

    /// A noisy metric derived from other reported values.
    pub fn derived(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            repetitions: None,
            exact: false,
            note: String::new(),
        }
    }

    /// A count-type metric that must repeat exactly for a seed.
    pub fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            exact: true,
            ..Metric::derived(name, unit, value)
        }
    }

    /// Adds a remark.
    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Everything a run reports.
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// `end_to_end` (untraced) or `per_layer` (traced).
    pub mode: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Smoke mode.
    pub quick: bool,
    /// `kernels::backend()`, `MachineFingerprint` JSON, `nproc`, commit.
    pub environment: Vec<(&'static str, String)>,
    /// All answers right, oracle agrees, digests equal the expected ones.
    pub correct: bool,
    /// Replies checked.
    pub attempted: u64,
    /// Replies wrong or missing, plus oracle disagreements.
    pub failed: u64,
    /// Result digest per domain, from the replies of this workload.
    pub digests: BTreeMap<&'static str, u64>,
    /// The metrics of this mode, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable table.
    pub remarks: Vec<String>,
}

/// `f64` as JSON: every digit, never `NaN`/`inf`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl RunReport {
    /// The table printed before the driver's line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# workload={} mode={} seed={} seconds={} quick={}",
            self.workload, self.mode, self.seed, self.seconds, self.quick
        );
        for (k, v) in &self.environment {
            let _ = writeln!(out, "# {k}: {v}");
        }
        for (d, h) in &self.digests {
            let _ = writeln!(out, "# digest.{d}: {h:016x}");
        }
        for line in &self.remarks {
            let _ = writeln!(out, "# {line}");
        }
        let _ = writeln!(
            out,
            "# correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        for m in &self.metrics {
            let _ = write!(out, "{:<44} {:>16.4} {:<6}", m.name, m.value, m.unit);
            if let Some((min, max, spread)) = m.repetitions {
                let _ = write!(
                    out,
                    " min {min:.4} max {max:.4} spread {:.1}%",
                    spread * 100.0
                );
            }
            if m.exact {
                out.push_str(" exact");
            }
            if !m.note.is_empty() {
                let _ = write!(out, " ({})", m.note);
            }
            out.push('\n');
        }
        out
    }

    /// The last line of standard output, exactly as the driver wants it.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics
        )
    }

    /// The result document `compare` reads.
    pub fn document(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{}\", \"mode\": \"{}\", \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"environment\": {{",
            self.workload,
            self.mode,
            self.seed,
            num(self.seconds),
            self.quick
        );
        for (i, (k, v)) in self.environment.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Values that are JSON objects already go in verbatim.
            if v.starts_with('{') {
                let _ = write!(out, "{sep}\"{k}\": {v}");
            } else {
                let _ = write!(
                    out,
                    "{sep}\"{k}\": \"{}\"",
                    pigeonring_telemetry::json::escape(v)
                );
            }
        }
        let _ = write!(
            out,
            "}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"digests\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (d, h)) in self.digests.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{d}\": \"{h:016x}\"");
        }
        out.push_str("}, \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"exact\": {}",
                m.name,
                num(m.value),
                m.unit,
                m.exact
            );
            if let Some((min, max, spread)) = m.repetitions {
                let _ = write!(
                    out,
                    ", \"min\": {}, \"max\": {}, \"spread\": {}",
                    num(min),
                    num(max),
                    num(spread)
                );
            }
            out.push('}');
        }
        out.push_str("\n}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::best_of;
    use pigeonring_telemetry::json::parse;

    fn report() -> RunReport {
        RunReport {
            workload: "direct".into(),
            mode: "end_to_end",
            seed: 7,
            seconds: 1.0,
            quick: true,
            environment: vec![
                ("backend", "avx2".into()),
                ("machine", "{\"cores\": 2}".into()),
            ],
            correct: true,
            attempted: 10,
            failed: 0,
            digests: BTreeMap::from([("hamming", 0xabc)]),
            metrics: vec![
                Metric::timed(
                    "hamming.qps",
                    "1/s",
                    best_of(&[10.0, 12.0, 11.0], true).unwrap(),
                ),
                Metric::exact("hamming.candidates_per_query", "count", 3.5),
                Metric::derived("bad", "us", f64::NAN),
            ],
            remarks: vec![],
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = report().driver_line();
        let doc = parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("hamming.qps").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(12.0));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
        assert_eq!(m.entries().unwrap().len(), 2);
        assert!(!line.contains("NaN"));
    }

    #[test]
    fn document_round_trips_ranges_and_exactness() {
        let doc = parse(&report().document()).unwrap();
        assert_eq!(
            doc.get("environment")
                .unwrap()
                .get("machine")
                .unwrap()
                .get("cores")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        let qps = doc.get("metrics").unwrap().get("hamming.qps").unwrap();
        assert_eq!(qps.get("min").unwrap().as_f64(), Some(10.0));
        assert_eq!(qps.get("max").unwrap().as_f64(), Some(12.0));
        let count = doc
            .get("metrics")
            .unwrap()
            .get("hamming.candidates_per_query")
            .unwrap();
        assert_eq!(
            count.get("exact"),
            Some(&pigeonring_telemetry::json::Value::Bool(true))
        );
        assert_eq!(
            doc.get("digests").unwrap().get("hamming").unwrap().as_str(),
            Some("0000000000000abc")
        );
    }
}
