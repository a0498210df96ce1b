//! Live-telemetry acceptance: a loopback server answers a known query
//! batch, then `Request::Stats` must return a snapshot whose per-domain
//! query counters match the batch exactly, whose filter-chain stage
//! counters equal an identically-built engine set's own merged stats
//! (engines built from equal specs are bit-identical, and stats are
//! batching-invariant), and which embeds the machine fingerprint and
//! per-lane depth gauges. A second test holds the live metric names to
//! the README Observability catalog.

use std::net::TcpListener;
use std::sync::Arc;

use pigeonring_server::wire::Domain;
use pigeonring_server::{start, Client, EngineSet, EngineSpec, Outcome, ServerConfig};
use pigeonring_service::WorkerPool;
use pigeonring_telemetry::{json, MetricsRegistry, Snapshot};

fn tiny_spec() -> EngineSpec {
    EngineSpec {
        shards: 2,
        hamming_n: 400,
        edit_n: 300,
        set_n: 300,
        graph_n: 80,
        query_count: 6,
        ..EngineSpec::full()
    }
}

const QUERIES_PER_DOMAIN: usize = 3;

#[test]
fn stats_snapshot_matches_known_query_batch() {
    let spec = tiny_spec();
    let engines = Arc::new(EngineSet::build(spec.clone()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = start(
        listener,
        Arc::clone(&engines),
        WorkerPool::new(2),
        ServerConfig::default(),
    )
    .expect("server starts");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut sent = Vec::new();
    for domain in Domain::ALL {
        let queries = spec.sample_queries(domain);
        for q in queries.into_iter().take(QUERIES_PER_DOMAIN) {
            let outcome = client.search(q.clone()).expect("query answered");
            assert!(matches!(outcome, Outcome::Results(_)), "{domain}");
            sent.push(q);
        }
    }

    let snapshot = client.stats().expect("stats answered");
    let doc = json::parse(&snapshot).expect("snapshot is valid JSON");

    // Satellite: the machine fingerprint is embedded in every snapshot.
    let machine = doc.get("machine").expect("machine fingerprint present");
    assert!(machine.get("arch").and_then(json::Value::as_str).is_some());
    assert!(
        machine
            .get("cores")
            .and_then(json::Value::as_u64)
            .expect("cores")
            >= 1
    );
    assert!(doc.get("uptime_ms").and_then(json::Value::as_u64).is_some());

    let metrics = doc.get("metrics").expect("metrics section");
    let counters = metrics.get("counters").expect("counters section");
    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
    };

    // N queries per domain ⇒ exactly N per-domain increments, at both
    // the admission (lane) and execution (service) layers.
    for domain in Domain::ALL {
        assert_eq!(
            counter(&format!("service.{domain}.queries")),
            QUERIES_PER_DOMAIN as u64,
            "service query counter for {domain}"
        );
        assert_eq!(
            counter(&format!("server.lane.{domain}.admitted")),
            QUERIES_PER_DOMAIN as u64,
            "lane admission counter for {domain}"
        );
    }

    // Per-lane depth gauges are present and drained back to zero.
    let gauges = metrics.get("gauges").expect("gauges section");
    for domain in Domain::ALL {
        let depth = gauges
            .get(&format!("server.lane.{domain}.depth"))
            .and_then(json::Value::as_i64)
            .unwrap_or_else(|| panic!("depth gauge for {domain} missing"));
        assert_eq!(depth, 0, "{domain} lane drained");
        assert_eq!(handle.lane_len(domain), 0, "{domain} lane_len via gauge");
    }
    assert_eq!(handle.queue_len(), 0, "queue_len via gauges");

    // Latency histograms saw every query.
    let histograms = metrics.get("histograms").expect("histograms section");
    for domain in Domain::ALL {
        let count = histograms
            .get(&format!("server.{domain}.latency_us"))
            .and_then(|h| h.get("count"))
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| panic!("latency histogram for {domain} missing"));
        assert_eq!(count, QUERIES_PER_DOMAIN as u64, "latency count {domain}");
    }

    // Stage counters are the engines' own numbers: a second engine set
    // built from the equal spec (⇒ bit-identical indexes) running the
    // same queries must produce equal `service.*` counters — stats are
    // batching-invariant, so the grouping difference does not matter.
    let reference = EngineSet::build(spec);
    let registry = MetricsRegistry::new();
    reference.attach_metrics(&registry);
    let pool = WorkerPool::new(2);
    reference.run(&pool, sent);
    for (name, expected) in registry.snapshot().counters {
        assert_eq!(
            counter(&name),
            expected,
            "server-reported {name} must equal the reference engines' own stats"
        );
    }

    // No slow-query threshold configured ⇒ the log is present but empty.
    let slow = doc.get("slow_queries").expect("slow_queries section");
    match slow {
        json::Value::Arr(items) => assert!(items.is_empty(), "no threshold set"),
        other => panic!("slow_queries should be an array, got {other:?}"),
    }

    handle.shutdown();
}

/// Expands the README Observability catalog into name patterns. The
/// first cell of each row holds backticked names; one starting with `.`
/// replaces the previous name's trailing segments
/// (`index.{domain}.plan_us` / `.search_us`).
fn catalog() -> Vec<String> {
    let readme = include_str!("../../../README.md");
    let section = readme
        .split("\n## Observability\n")
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .expect("README has an Observability section");
    let mut names: Vec<String> = Vec::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let first_cell = row.split('|').nth(1).unwrap_or_default();
        for span in first_cell.split('`').skip(1).step_by(2) {
            let name = match (span.strip_prefix('.'), names.last()) {
                (Some(suffix), Some(prev)) => {
                    let segs: Vec<&str> = prev.split('.').collect();
                    let keep = segs.len() - suffix.split('.').count();
                    format!("{}.{suffix}", segs[..keep].join("."))
                }
                _ => span.to_string(),
            };
            names.push(name);
        }
    }
    names
}

/// Whether `name` is an instance of catalog `pattern`: `{domain}` is one
/// of the four domains, `{field}` any one segment.
fn instance_of(name: &str, pattern: &str) -> bool {
    let (segs, pats): (Vec<&str>, Vec<&str>) =
        (name.split('.').collect(), pattern.split('.').collect());
    segs.len() == pats.len()
        && segs.iter().zip(&pats).all(|(seg, pat)| match *pat {
            "{domain}" => Domain::ALL.iter().any(|d| d.as_str() == *seg),
            "{field}" => true,
            _ => seg == pat,
        })
}

#[test]
fn live_metric_names_match_the_readme_catalog() {
    let spec = tiny_spec();
    let engines = Arc::new(EngineSet::build(spec.clone()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = start(
        listener,
        engines,
        WorkerPool::new(2),
        ServerConfig::default(),
    )
    .expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for domain in Domain::ALL {
        let query = spec.sample_queries(domain).swap_remove(0);
        let outcome = client.search(query).expect("query answered");
        assert!(matches!(outcome, Outcome::Results(_)), "{domain}");
    }
    let doc = json::parse(&client.stats().expect("stats answered")).expect("valid JSON");
    let live =
        Snapshot::from_json(doc.get("metrics").expect("metrics section")).expect("snapshot shape");
    handle.shutdown();

    let catalog = catalog();
    let kinds = [
        live.counters.keys().collect::<Vec<_>>(),
        live.gauges.keys().collect(),
        live.histograms.keys().collect(),
    ];
    let names: Vec<&String> = kinds.concat();
    for name in &names {
        let grammar = name.split('.').count() >= 2
            && name.split('.').all(|seg| {
                !seg.is_empty()
                    && seg
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
            });
        assert!(grammar, "`{name}` breaks the `layer(.segment)+` grammar");
        assert!(
            catalog.iter().any(|pattern| instance_of(name, pattern)),
            "`{name}` is live but missing from the README Observability catalog"
        );
        let kinds_with_name = kinds.iter().filter(|k| k.contains(name)).count();
        assert_eq!(
            kinds_with_name, 1,
            "`{name}` registered under two metric kinds"
        );
    }
    for pattern in &catalog {
        assert!(
            names.iter().any(|name| instance_of(name, pattern)),
            "README catalog lists `{pattern}`, which no live metric matches"
        );
    }
}
