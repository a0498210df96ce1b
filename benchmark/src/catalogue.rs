//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (end-to-end only) regression bound. `/BENCHMARK.json` is
//! `benchmark -- manifest` written to a file; a unit test keeps the two
//! from drifting apart.

use std::fmt::Write as _;

/// Metric-name prefixes of the four domains, in `Domain::ALL` order.
pub const DOMAINS: [&str; 4] = ["hamming", "editdist", "setsim", "graph"];

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "direct",
        "one thread calls the four unsharded engines: only the domain crates work, so engine and kernel changes show here and service/server changes must not",
    ),
    (
        "sharded",
        "one caller drives K=4 ShardedIndex batches of 16 on a 2-worker pool (one CPU): direct's engine work split four ways, so the difference to direct is the service layer",
    ),
    (
        "tcp_solo",
        "reactor server, one connection, one request in flight, one domain at a time: for editdist/setsim the round trip is mostly server (codec, reactor, queue, dispatch), not engine",
    ),
    (
        "tcp_mixed",
        "same server saturated by 2 connections x window 4 cycling all four domains: scheduling (lane weights, SJF, heavy lock, wake batching) sets the cheap domains' latency",
    ),
];

/// Seconds one run measures for (`run_seconds` in the manifest).
pub const RUN_SECONDS: u32 = 12;

/// One catalogue entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Def {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// Regression bound of the throughput and latency metrics: three times
/// the widest run-to-run spread seen at the parent commit on this shared
/// box in a calm hour (see README), and the most the contract allows.
const RATE_BOUND: f64 = 0.25;

/// The end-to-end metrics, in print order.
pub fn end_to_end() -> Vec<Def> {
    let bounded = |d: Def, bound: f64| Def {
        bound: Some(bound),
        ..d
    };
    let mut defs = vec![bounded(def("setup_s", "s", "lower"), 0.25)];
    for d in DOMAINS {
        defs.push(bounded(
            def(format!("{d}.qps"), "1/s", "higher"),
            RATE_BOUND,
        ));
    }
    for d in DOMAINS {
        defs.push(bounded(
            def(format!("{d}.p50_us"), "us", "lower"),
            RATE_BOUND,
        ));
    }
    defs.push(bounded(def("peak_rss_mb", "MB", "lower"), 0.10));
    defs
}

/// The per-layer metrics, in print order.
pub fn per_layer() -> Vec<Def> {
    let mut defs = vec![
        def("datagen.generate_s", "s", "lower"),
        def("core.chain_check_ns", "ns", "lower"),
    ];
    let stages = [
        ["probes", "boxes_checked"],
        ["postings_scanned", "boxes_checked"],
        ["sig_probes", "boxes_checked"],
        ["subiso_calls", "boxes_checked"],
    ];
    for (d, stages) in DOMAINS.iter().zip(stages) {
        defs.extend([
            def(format!("{d}.build_s"), "s", "lower"),
            def(format!("{d}.filter_us"), "us", "lower"),
            def(format!("{d}.verify_us"), "us", "lower"),
            def(format!("{d}.kernel_ns"), "ns", "lower"),
            def(format!("{d}.candidates_per_query"), "count", "lower"),
            def(format!("{d}.results_per_query"), "count", "higher"),
            def(format!("{d}.useful_ratio"), "ratio", "higher"),
            def(format!("{d}.hole_candidates_per_query"), "count", "lower"),
        ]);
        for stage in stages {
            defs.push(def(format!("{d}.{stage}_per_query"), "count", "lower"));
        }
    }
    for d in DOMAINS {
        defs.extend([
            def(format!("service.{d}.build_s"), "s", "lower"),
            def(format!("service.{d}.plan_us"), "us", "lower"),
            def(format!("service.{d}.search_us"), "us", "lower"),
            def(format!("service.{d}.self_us"), "us", "lower"),
            def(format!("service.{d}.scaling_k4_over_k1"), "ratio", "higher"),
        ]);
    }
    defs.extend([
        def("service.pool.roundtrip_us", "us", "lower"),
        def("service.pool.queue_wait_us", "us", "lower"),
    ]);
    for d in DOMAINS {
        defs.extend([
            def(format!("server.wire.{d}.codec_ns"), "ns", "lower"),
            def(format!("server.wire.{d}.request_bytes"), "bytes", "lower"),
            def(format!("server.wire.{d}.response_bytes"), "bytes", "lower"),
        ]);
    }
    defs.extend([
        def("server.wire.frame_decode_ns", "ns", "lower"),
        def("server.queue.push_pop_ns", "ns", "lower"),
    ]);
    for d in DOMAINS {
        defs.extend([
            def(format!("server.registry.{d}.run_us"), "us", "lower"),
            def(format!("server.registry.{d}.self_us"), "us", "lower"),
        ]);
    }
    for d in DOMAINS {
        defs.extend([
            def(format!("server.net.{d}.rtt_us"), "us", "lower"),
            def(format!("server.net.{d}.self_us"), "us", "lower"),
        ]);
    }
    defs.push(def("server.net.stats_rtt_us", "us", "lower"));
    for d in DOMAINS {
        defs.push(def(format!("server.{d}.queue_wait_us"), "us", "lower"));
    }
    defs.extend([
        def("server.dispatch.batch_size", "count", "higher"),
        def("server.reactor.wakeups_per_reply", "ratio", "lower"),
        def("server.reactor.events_per_wake", "count", "higher"),
        def("server.busy_replies", "count", "lower"),
        def("pool.queue_wait_us", "us", "lower"),
        def("telemetry.counter_inc_ns", "ns", "lower"),
        def("telemetry.histogram_record_ns", "ns", "lower"),
        def("telemetry.span_ns", "ns", "lower"),
        def("trace.overhead_pct", "%", "lower"),
    ]);
    for d in DOMAINS {
        defs.push(def(format!("tail.{d}.p99_us"), "us", "lower"));
    }
    defs
}

/// `/BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, d) in e2e.iter().enumerate() {
        let sep = if i + 1 == e2e.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name,
            d.unit,
            d.better,
            d.bound.unwrap_or(0.0)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, d) in layers.iter().enumerate() {
        let sep = if i + 1 == layers.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name, d.unit, d.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn catalogue_has_the_issue_s_counts_and_unique_valid_names() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert_eq!(e2e.len(), 10);
        assert_eq!(layers.len(), 112);
        let names: BTreeSet<&str> = e2e.iter().chain(&layers).map(|d| d.name.as_str()).collect();
        assert_eq!(names.len(), e2e.len() + layers.len(), "names used once");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(e2e.iter().all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `benchmark -- manifest`"
        );
        assert!(pigeonring_telemetry::json::parse(&committed).is_ok());
    }
}
