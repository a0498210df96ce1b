//! Trace-correctness acceptance: a loopback server with 1-in-1
//! sampling must produce, for every query, a span tree with valid
//! parentage (no dangling parents), the full stage ladder — queue
//! wait, dispatch, plan, pool, per-shard execution — under one `query`
//! root, and per-filter-stage counts **bit-identical** to the engines'
//! own [`MergeStats`](pigeonring_service::MergeStats) from an identically
//! built in-process run. Also covers the per-query EXPLAIN flag: same
//! ids as the plain path, span tree inline with the answer.

use std::net::TcpListener;
use std::sync::Arc;

use pigeonring_server::wire::Domain;
use pigeonring_server::{start, Client, EngineSet, EngineSpec, Outcome, ServerConfig};
use pigeonring_service::WorkerPool;
use pigeonring_telemetry::json::{self, Value};

mod common;
use common::reference_run;

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

/// The `stage` instant spans of one span tree, as `(name, count)`.
fn stage_counts(spans: &[&Value]) -> Vec<(String, u64)> {
    spans
        .iter()
        .filter(|s| s.get("kind").and_then(Value::as_str) == Some("stage"))
        .map(|s| {
            let name = s
                .get("name")
                .and_then(Value::as_str)
                .expect("stage span has a name")
                .to_string();
            let count = s
                .get("tags")
                .and_then(|t| t.get("count"))
                .and_then(Value::as_u64)
                .expect("stage span carries a count tag");
            (name, count)
        })
        .collect()
}

/// Structural invariants of one span tree: exactly one root, no
/// dangling parents, every stage span hangs off the root, and the full
/// stage ladder (queue_wait/dispatch/plan/pool/shard) is present.
fn assert_tree_shape(spans: &[&Value], expect_domain: &str) {
    let ids: Vec<u64> = spans
        .iter()
        .map(|s| s.get("id").and_then(Value::as_u64).expect("span id"))
        .collect();
    let mut root_id = None;
    for s in spans {
        let parent = s.get("parent").and_then(Value::as_u64).expect("parent");
        if parent == 0 {
            assert!(root_id.is_none(), "exactly one root span per trace");
            assert_eq!(
                s.get("kind").and_then(Value::as_str),
                Some("query"),
                "root span is the query span"
            );
            assert_eq!(
                s.get("name").and_then(Value::as_str),
                Some(expect_domain),
                "root span is named after the domain"
            );
            root_id = s.get("id").and_then(Value::as_u64);
        } else {
            assert!(
                ids.contains(&parent),
                "span parent {parent} must exist in the same trace"
            );
        }
    }
    let root_id = root_id.expect("trace has a root span");
    // The full ladder; `plan` only exists on plan-once indexes
    // (dictionary-first editdist/setsim builds — hamming and graph
    // re-plan inside each shard and have no shared plan phase).
    let mut required = vec!["queue_wait", "dispatch", "pool", "shard", "stage"];
    if matches!(expect_domain, "editdist" | "setsim") {
        required.push("plan");
    }
    for kind in required {
        assert!(
            spans
                .iter()
                .any(|s| s.get("kind").and_then(Value::as_str) == Some(kind)),
            "trace for {expect_domain} is missing a {kind:?} span"
        );
    }
    for s in spans {
        if s.get("kind").and_then(Value::as_str) == Some("stage") {
            assert_eq!(
                s.get("parent").and_then(Value::as_u64),
                Some(root_id),
                "stage markers hang off the query root"
            );
        }
    }
}

/// The README "Tracing" ladder: every span of a layer hangs off the
/// span of the layer above it.
fn assert_ladder(spans: &[&Value]) {
    fn kind_of(s: &Value) -> &str {
        s.get("kind").and_then(Value::as_str).expect("span kind")
    }
    for s in spans {
        let expect_parent = match kind_of(s) {
            "queue_wait" | "dispatch" | "stage" => "query",
            "plan" | "pool" => "dispatch",
            "shard" => "pool",
            _ => continue,
        };
        let parent = s.get("parent").and_then(Value::as_u64).expect("parent");
        let parent = spans
            .iter()
            .find(|p| p.get("id").and_then(Value::as_u64) == Some(parent))
            .expect("parent in trace");
        assert_eq!(
            kind_of(parent),
            expect_parent,
            "a {} span must hang off a {expect_parent} span",
            kind_of(s)
        );
    }
}

/// EXPLAIN per query: ids identical to the reference run, span tree
/// inline, stage counts bit-identical to the engines' own MergeStats.
#[test]
fn explain_returns_reference_identical_ids_and_stage_counts() {
    let spec = tiny_spec();
    let engines = Arc::new(EngineSet::build(spec.clone()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    // Sampling disabled: EXPLAIN must force tracing on its own.
    let handle = start(
        listener,
        Arc::clone(&engines),
        WorkerPool::new(2),
        ServerConfig::default(),
    )
    .expect("server starts");

    let reference = EngineSet::build(spec.clone());
    let mut client = Client::connect(handle.addr()).expect("connect");
    for domain in Domain::ALL {
        let queries: Vec<_> = spec
            .sample_queries(domain)
            .into_iter()
            .take(QUERIES_PER_DOMAIN)
            .collect();
        let expected = reference_run(&reference, domain, &queries);
        for (q, (want_ids, want_stages)) in queries.iter().zip(&expected) {
            let (ids, tree) = client.explain(q.clone()).expect("EXPLAIN answered");
            assert_eq!(&ids, want_ids, "EXPLAIN ids for {domain}");
            let doc = json::parse(&tree).expect("span tree is valid JSON");
            assert!(doc.get("trace_id").and_then(Value::as_u64).is_some());
            let Some(Value::Arr(spans)) = doc.get("spans") else {
                panic!("span tree has a spans array")
            };
            let spans: Vec<&Value> = spans.iter().collect();
            assert_tree_shape(&spans, domain.as_str());
            let got = stage_counts(&spans);
            assert_eq!(
                got.len(),
                want_stages.len(),
                "one stage marker per MergeStats field for {domain}"
            );
            for (name, want) in want_stages {
                let count = got
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, c)| c)
                    .unwrap_or_else(|| panic!("stage {name} missing for {domain}"));
                assert_eq!(
                    count, *want,
                    "stage {name} count for {domain} must equal the engine's own stats"
                );
            }
        }
    }
    handle.shutdown();
}

/// Head sampling at 1-in-1: every plain query lands a complete trace
/// in the ring, retrievable over the wire via `Request::Trace`.
#[test]
fn sampled_traces_cover_every_query_with_valid_parentage() {
    let spec = tiny_spec();
    let engines = Arc::new(EngineSet::build(spec.clone()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = start(
        listener,
        Arc::clone(&engines),
        WorkerPool::new(2),
        ServerConfig {
            trace_sample: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let mut client = Client::connect(handle.addr()).expect("connect");
    for domain in Domain::ALL {
        for q in spec
            .sample_queries(domain)
            .into_iter()
            .take(QUERIES_PER_DOMAIN)
        {
            let outcome = client.search(q).expect("query answered");
            assert!(matches!(outcome, Outcome::Results(_)), "{domain}");
        }
    }

    let export = client.trace().expect("trace endpoint answered");
    let doc = json::parse(&export).expect("trace export is valid JSON");
    assert_eq!(
        doc.get("sample_every").and_then(Value::as_u64),
        Some(1),
        "export reports the sampling cadence"
    );
    assert_eq!(
        doc.get("dropped_spans").and_then(Value::as_u64),
        Some(0),
        "this little traffic must not overflow the default ring"
    );
    let Some(Value::Arr(traces)) = doc.get("traces") else {
        panic!("export has a traces array")
    };
    assert_eq!(
        traces.len(),
        Domain::ALL.len() * QUERIES_PER_DOMAIN,
        "1-in-1 sampling traces every query"
    );
    let mut roots_by_domain = vec![0usize; Domain::ALL.len()];
    for trace in traces {
        let Some(Value::Arr(spans)) = trace.get("spans") else {
            panic!("trace has a spans array")
        };
        let spans: Vec<&Value> = spans.iter().collect();
        let root = spans
            .iter()
            .find(|s| s.get("parent").and_then(Value::as_u64) == Some(0))
            .expect("trace has a root span");
        let name = root.get("name").and_then(Value::as_str).expect("root name");
        let di = Domain::ALL
            .iter()
            .position(|d| d.as_str() == name)
            .unwrap_or_else(|| panic!("root span named after a domain, got {name:?}"));
        roots_by_domain[di] += 1;
        assert_tree_shape(&spans, name);
        assert_ladder(&spans);
    }
    assert!(
        roots_by_domain.iter().all(|&n| n == QUERIES_PER_DOMAIN),
        "every domain fully sampled: {roots_by_domain:?}"
    );
    handle.shutdown();
}
