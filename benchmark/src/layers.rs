//! The per-layer budget, measured from outside: every number here comes
//! from timing a call into a public function or from counters the program
//! already returns (`Stats` of the engines, the wire Stats endpoint).
//!
//! Timing probes run over the first `prefix` queries of a domain: one
//! unmeasured pass, then [`PROBE_PASSES`] measured ones, and the metric is
//! the fastest pass's mean per query (interference only slows a pass down;
//! see `stats`). Means, not per-query medians, so that a parent's time is
//! the sum of its children's.

use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

use pigeonring_core::viability::{find_prefix_viable, Direction, ThresholdScheme};
use pigeonring_datagen::rng;
use pigeonring_server::wire::{
    decode_request, decode_response, encode_request, encode_response, FrameDecoder,
};
use pigeonring_server::{Domain, EngineSpec, FairQueue, Outcome, Request, Response};
use pigeonring_service::{PoolMetrics, SearchEngine, ShardedIndex, WorkerPool};
use pigeonring_telemetry::{Counter, Histogram, MetricsRegistry, Snapshot, TraceCollector};
use rand::Rng;

use crate::domains::{DomainBench, ParamsOf, ScratchOf};
use crate::oracle::Checker;
use crate::report::Metric;
use crate::setup::{DomainState, TcpRig, POOL_WORKERS, SETUP_REPS, SHARDED_K};
use crate::spans::{mean_dur_ns, mean_self_ns, SpanLog};
use crate::stats::{fastest, Summary};
use crate::workloads::{REQUEST_ID_STRIDE, SHARDED_BATCH};

/// Measured passes of a timing probe (after one warm-up pass).
pub const PROBE_PASSES: usize = 3;

/// Runs `pass` once unmeasured and [`PROBE_PASSES`] times measured.
fn passes(mut pass: impl FnMut() -> f64) -> Vec<f64> {
    pass();
    (0..PROBE_PASSES).map(|_| pass()).collect()
}

/// Counts per query from the engines' own `Stats`, over the whole query
/// set: exact for a seed.
pub fn engine_counts<D: DomainBench>(st: &DomainState<D>, spec: &EngineSpec) -> Vec<Metric> {
    let n = st.queries.len() as f64;
    let total = |field: &str| st.expected.stage_totals.get(field).copied().unwrap_or(0) as f64;
    let (candidates, results) = (total("candidates"), total("results"));
    // The same queries at l = 1: the pigeonhole filter the paper beats.
    let hole_params = D::params(spec, Some(1));
    let mut scratch = ScratchOf::<D>::default();
    let hole: usize = st
        .queries
        .iter()
        .map(|q| {
            D::candidates(st.engine(), &mut scratch, q, &hole_params)
                .0
                .len()
        })
        .sum();
    let name = D::NAME;
    let mut metrics = vec![
        Metric::exact(
            format!("{name}.candidates_per_query"),
            "count",
            candidates / n,
        ),
        Metric::exact(format!("{name}.results_per_query"), "count", results / n),
        Metric::exact(
            format!("{name}.useful_ratio"),
            "ratio",
            if candidates > 0.0 {
                results / candidates
            } else {
                0.0
            },
        ),
        Metric::exact(
            format!("{name}.hole_candidates_per_query"),
            "count",
            hole as f64 / n,
        ),
    ];
    for stage in D::STAGES {
        metrics.push(Metric::exact(
            format!("{name}.{stage}_per_query"),
            "count",
            total(stage) / n,
        ));
    }
    metrics
}

/// What the engine probes of one domain yield.
pub struct EngineOut {
    /// `{d}.filter_us`, `{d}.verify_us`, `{d}.kernel_ns`.
    pub metrics: Vec<Metric>,
    /// Unsharded search time per query (filter + verify), µs.
    pub search_us: f64,
}

/// The domain crate alone, in tight loops over the prefix: the whole
/// search and candidate generation only (alternating passes), and the
/// verification kernel on the real candidate pairs.
pub fn engine_probes<D: DomainBench>(
    st: &DomainState<D>,
    spec: &EngineSpec,
    checker: &Checker,
) -> EngineOut {
    let params = D::params(spec, None);
    let engine = st.engine();
    let queries = &st.queries[..st.prefix];
    let n = queries.len() as f64;
    let mut scratch = ScratchOf::<D>::default();
    // A search pass and a candidate-generation pass alternate, so that both
    // see the same interference and their difference means something.
    // (Alternating per query would not do: the second call on a query finds
    // the first one's cache lines.)
    let mut candidates: Vec<Vec<u32>> = Vec::new();
    let (mut search_us, mut filter_us) = (Vec::new(), Vec::new());
    for pass in 0..=PROBE_PASSES {
        let start = Instant::now();
        for (q, want) in queries.iter().zip(&st.expected.ids) {
            let mut ids = Vec::new();
            engine.search_into(&mut scratch, q, &params, &mut ids);
            checker.check(&ids, want);
        }
        let searched = Instant::now();
        candidates.clear();
        for q in queries {
            candidates.push(D::candidates(engine, &mut scratch, q, &params).0);
        }
        if pass > 0 {
            search_us.push((searched - start).as_secs_f64() * 1e6 / n);
            filter_us.push(searched.elapsed().as_secs_f64() * 1e6 / n);
        }
    }
    let pairs: usize = candidates.iter().map(Vec::len).sum();
    let kernel_ns = passes(|| {
        let start = Instant::now();
        for ((q, cands), want) in queries.iter().zip(&candidates).zip(&st.expected.ids) {
            if D::verify_all(engine, q, cands, spec) != want.len() {
                checker.fail_oracle(1);
            }
        }
        start.elapsed().as_nanos() as f64 / pairs.max(1) as f64
    });
    let verify_us = fastest(&search_us).value - fastest(&filter_us).value;
    let name = D::NAME;
    EngineOut {
        metrics: vec![
            Metric::timed(format!("{name}.filter_us"), "us", fastest(&filter_us)),
            Metric::derived(format!("{name}.verify_us"), "us", verify_us)
                .with_note("search - filter"),
            Metric::timed(format!("{name}.kernel_ns"), "ns", fastest(&kernel_ns))
                .with_note(format!("{pairs} candidate pairs")),
        ],
        search_us: fastest(&search_us).value,
    }
}

/// The outside-in span chain for one domain: for each request id, one call
/// into each successively deeper public entry point — TCP round trip ⊃
/// `EngineSet::run` ⊃ the server's own `ShardedIndex` ⊃ the unsharded
/// engine's search ⊃ its candidate generation, plus the wire codec and the
/// verification kernel on the real candidate pairs. The last pass's spans
/// go to `log`.
pub fn chain<D: DomainBench>(
    st: &DomainState<D>,
    rig: &mut TcpRig,
    pool: &WorkerPool,
    spec: &EngineSpec,
    checker: &Checker,
    log: &mut SpanLog,
) -> Result<Vec<Metric>, String> {
    let params = D::params(spec, None);
    let engine = st.engine();
    let engines = rig.engines.clone();
    let index: &ShardedIndex<D::Engine> = D::index_of(&engines);
    let client = &mut rig.clients[0];
    let base =
        Domain::ALL.iter().position(|&d| d == D::WIRE).unwrap_or(0) as u64 * REQUEST_ID_STRIDE;
    let mut scratch = ScratchOf::<D>::default();
    let n = st.prefix;
    // Per measured pass: mean µs (codec: ns) of the spans that are metrics.
    let (mut rtt, mut run, mut svc, mut codec) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut net_self, mut registry_self) = (Vec::new(), Vec::new());
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    for pass in 0..=PROBE_PASSES {
        let mut local = log.sibling();
        (request_bytes, response_bytes) = (0, 0);
        for i in 0..n {
            let rid = base + i as u64;
            let want = &st.expected.ids[i];
            let query = &st.queries[i];

            let wire_query = st.wire[i].clone();
            let (reply, net) = local.record("net.roundtrip", rid, None, || {
                let id = client.send_query(wire_query)?;
                client
                    .recv_reply()
                    .map(|(got, outcome)| (got == id, outcome))
            });
            match reply.map_err(|e| e.to_string())? {
                (true, Outcome::Results(ids)) => checker.check(&ids, want),
                _ => checker.fail(),
            }

            let batch = vec![st.wire[i].clone()];
            let (responses, reg) =
                local.record("registry.run", rid, Some(net), || engines.run(pool, batch));
            match responses.first() {
                Some(Response::Results { ids, .. }) => checker.check(ids, want),
                _ => checker.fail(),
            }

            let (results, svc) = local.record("service.search", rid, Some(reg), || {
                index.search_batch_on(pool, std::slice::from_ref(query), &params)
            });
            match results.first() {
                Some(r) => checker.check(&r.ids, want),
                None => checker.fail(),
            }

            let mut ids = Vec::new();
            let ((), search) = local.record("engine.search", rid, Some(svc), || {
                engine.search_into(&mut scratch, query, &params, &mut ids);
            });
            checker.check(&ids, want);

            let ((cands, _), _) = local.record("engine.candidates", rid, Some(search), || {
                D::candidates(engine, &mut scratch, query, &params)
            });
            let (verified, _) = local.record("kernel", rid, Some(search), || {
                D::verify_all(engine, query, &cands, spec)
            });
            if verified != want.len() {
                checker.fail_oracle(1);
            }

            let request = Request::Query {
                request_id: rid,
                query: st.wire[i].clone(),
                explain: false,
            };
            let response = Response::Results {
                request_id: rid,
                ids,
            };
            let ((req_len, resp_len, ok), _) = local.record("wire.codec", rid, Some(net), || {
                let req = encode_request(&request);
                let resp = encode_response(&response);
                let ok = decode_request(&req).is_ok() && decode_response(&resp).is_ok();
                (req.len(), resp.len(), ok)
            });
            if !black_box(ok) {
                checker.fail_oracle(1);
            }
            request_bytes += req_len;
            response_bytes += resp_len;
        }
        if pass == 0 {
            continue;
        }
        let spans = local.spans();
        rtt.push(mean_dur_ns(spans, "net.roundtrip") / 1e3);
        run.push(mean_dur_ns(spans, "registry.run") / 1e3);
        svc.push(mean_dur_ns(spans, "service.search") / 1e3);
        codec.push(mean_dur_ns(spans, "wire.codec"));
        net_self.push(mean_self_ns(local.spans(), "net.roundtrip") / 1e3);
        registry_self.push(mean_self_ns(local.spans(), "registry.run") / 1e3);
        if pass == PROBE_PASSES {
            log.absorb(local);
        }
    }

    let name = D::NAME;
    Ok(vec![
        Metric::timed(
            format!("server.wire.{name}.codec_ns"),
            "ns",
            fastest(&codec),
        ),
        Metric::exact(
            format!("server.wire.{name}.request_bytes"),
            "bytes",
            request_bytes as f64 / n as f64,
        ),
        Metric::exact(
            format!("server.wire.{name}.response_bytes"),
            "bytes",
            response_bytes as f64 / n as f64,
        ),
        Metric::timed(
            format!("server.registry.{name}.run_us"),
            "us",
            fastest(&run),
        ),
        Metric::timed(
            format!("server.registry.{name}.self_us"),
            "us",
            fastest(&registry_self),
        )
        .with_note(format!(
            "run - K=2 service.search {:.3} us",
            fastest(&svc).value
        )),
        Metric::timed(format!("server.net.{name}.rtt_us"), "us", fastest(&rtt)),
        Metric::timed(
            format!("server.net.{name}.self_us"),
            "us",
            fastest(&net_self),
        )
        .with_note("rtt - registry.run - codec"),
    ])
}

/// The benchmark's own pools for the service probes.
pub struct ServicePools {
    /// [`POOL_WORKERS`] workers: the shape the `sharded` workload and the
    /// server use.
    pub workload: WorkerPool,
    /// One worker: `ShardedIndex` then runs every shard on the calling
    /// thread, so what is left is sharding itself without the pool.
    pub one: WorkerPool,
    /// [`POOL_WORKERS`] workers with `PoolMetrics` attached.
    pub instrumented: WorkerPool,
    /// Where the instrumented pool's metrics live.
    pub registry: MetricsRegistry,
}

impl ServicePools {
    /// Spawns the three pools.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let instrumented = WorkerPool::new(POOL_WORKERS);
        instrumented.attach_metrics(PoolMetrics::register(&registry));
        ServicePools {
            workload: WorkerPool::new(POOL_WORKERS),
            one: WorkerPool::new(1),
            instrumented,
            registry,
        }
    }
}

/// One pass of `queries` through `index` in `sharded`-workload batches;
/// returns microseconds per query.
fn batched_pass<E: SearchEngine>(
    index: &ShardedIndex<E>,
    pool: &WorkerPool,
    queries: &[E::Query],
    expected: &[Vec<u32>],
    params: &E::Params,
    checker: &Checker,
) -> f64 {
    let start = Instant::now();
    for (b, batch) in queries.chunks(SHARDED_BATCH).enumerate() {
        let results = index.search_batch_on(pool, batch, params);
        for (j, r) in results.iter().enumerate() {
            checker.check(&r.ids, &expected[b * SHARDED_BATCH + j]);
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / queries.len() as f64
}

/// The `service` layer of one domain: build, plan, K=4 search on the
/// workload's pool, and on one worker (no pool hand-off) the layer's own
/// time and K=4 over K=1 throughput.
pub fn service_probes<D: DomainBench>(
    st: &DomainState<D>,
    spec: &EngineSpec,
    pools: &ServicePools,
    engine_search_us: f64,
    checker: &Checker,
) -> Vec<Metric> {
    let params: ParamsOf<D> = D::params(spec, None);
    let queries = &st.queries[..st.prefix];
    let expected = &st.expected.ids[..st.prefix];
    let mut build_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let records = st.records.clone();
        drop(kept.take());
        let start = Instant::now();
        let index = D::build_sharded(records, SHARDED_K, spec);
        build_s.push(start.elapsed().as_secs_f64());
        kept = Some(index);
    }
    let k4 = kept.expect("SETUP_REPS > 0");
    let k1 = D::build_sharded(st.records.clone(), 1, spec);

    let run = |index: &ShardedIndex<D::Engine>, pool: &WorkerPool| {
        passes(|| batched_pass(index, pool, queries, expected, &params, checker))
    };
    let plan_us = passes(|| {
        let start = Instant::now();
        for q in queries {
            black_box(k4.plan_batch(std::slice::from_ref(q)));
        }
        start.elapsed().as_secs_f64() * 1e6 / queries.len() as f64
    });
    let search_us = run(&k4, &pools.workload);
    // One worker for the overhead figures: no pool hand-off, so what is
    // left is the cost of sharding itself.
    let one_worker_us = run(&k4, &pools.one);
    let k1_us = run(&k1, &pools.one);
    // Feeds `service.pool.queue_wait_us`.
    batched_pass(
        &k4,
        &pools.instrumented,
        queries,
        expected,
        &params,
        checker,
    );

    let name = D::NAME;
    let (one_worker_us, k1_us) = (fastest(&one_worker_us).value, fastest(&k1_us).value);
    let k1_qps = 1e6 / k1_us;
    vec![
        Metric::timed(format!("service.{name}.build_s"), "s", fastest(&build_s)),
        Metric::timed(format!("service.{name}.plan_us"), "us", fastest(&plan_us)),
        Metric::timed(
            format!("service.{name}.search_us"),
            "us",
            fastest(&search_us),
        ),
        Metric::derived(
            format!("service.{name}.self_us"),
            "us",
            one_worker_us - engine_search_us,
        )
        .with_note(format!(
            "K=4 on one worker {one_worker_us:.3} us - unsharded search {engine_search_us:.3} us"
        )),
        Metric::derived(
            format!("service.{name}.scaling_k4_over_k1"),
            "ratio",
            k1_us / one_worker_us,
        )
        .with_note(format!("one worker; base: K=1 at {k1_qps:.1} qps")),
    ]
}

/// `rounds` timed rounds of `iters` calls of `op`; nanoseconds per call.
fn ns_per_op(iters: usize, mut op: impl FnMut(usize)) -> Summary {
    const ROUNDS: usize = 5;
    let mut values = Vec::with_capacity(ROUNDS);
    for round in 0..=ROUNDS {
        let start = Instant::now();
        for i in 0..iters {
            op(i);
        }
        if round > 0 {
            values.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    fastest(&values)
}

/// Engine-free micro-probes of `core`, `service`, `server` and
/// `telemetry` entry points.
pub fn micro_probes(
    pools: &ServicePools,
    rig: &mut TcpRig,
    sample_frame: &[u8],
) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::new();

    // core: the chain check at the Hamming engine's shape (m = 16, l = 5),
    // over seeded box vectors that mostly fail late.
    let (m, l) = (16usize, 5usize);
    let scheme = ThresholdScheme::integer_reduced(vec![2i64; m]);
    let mut r = rng(0x636f_7265);
    let boxes: Vec<Vec<i64>> = (0..1024)
        .map(|_| (0..m).map(|_| r.gen_range(0..6i64)).collect())
        .collect();
    metrics.push(Metric::timed(
        "core.chain_check_ns",
        "ns",
        ns_per_op(1 << 16, |i| {
            black_box(find_prefix_viable(
                black_box(&boxes[i % boxes.len()]),
                &scheme,
                Direction::Le,
                l,
            ));
        }),
    ));

    // service: an empty job through the pool and back.
    let (tx, rx) = mpsc::channel::<()>();
    let mut rejected = false;
    let roundtrip = ns_per_op(2000, |_| {
        let tx = tx.clone();
        rejected |= pools
            .workload
            .submit(move |_| {
                let _ = tx.send(());
            })
            .is_err();
        let _ = rx.recv();
    });
    if rejected {
        return Err("worker pool rejected a job".to_string());
    }
    metrics.push(Metric::timed(
        "service.pool.roundtrip_us",
        "us",
        roundtrip.scaled(1e-3),
    ));
    let waits = pools.registry.snapshot();
    metrics.push(Metric::derived(
        "service.pool.queue_wait_us",
        "us",
        waits
            .histograms
            .get("pool.queue_wait_us")
            .map_or(0.0, |h| h.mean()),
    ));

    // server: frame reassembly and the fair queue, without a socket.
    let mut framed = (sample_frame.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(sample_frame);
    let mut decoder = FrameDecoder::new();
    metrics.push(Metric::timed(
        "server.wire.frame_decode_ns",
        "ns",
        ns_per_op(1 << 15, |_| {
            decoder.feed(black_box(&framed));
            black_box(decoder.next_frame().ok());
        }),
    ));
    let queue: FairQueue<u64> = FairQueue::new(64, [1; 4]);
    let mut popped = Vec::with_capacity(1);
    metrics.push(Metric::timed(
        "server.queue.push_pop_ns",
        "ns",
        ns_per_op(1 << 15, |i| {
            let _ = queue.try_push(Domain::ALL[i % 4], i as u64);
            queue.pop_batch(1, &mut popped);
            black_box(&popped);
        }),
    ));
    let mut failed = false;
    let stats_rtt = ns_per_op(100, |_| failed |= rig.control.stats().is_err());
    if failed {
        return Err("Stats endpoint failed".to_string());
    }
    metrics.push(Metric::timed(
        "server.net.stats_rtt_us",
        "us",
        stats_rtt.scaled(1e-3),
    ));

    // telemetry: what one counter bump, one histogram record and one
    // sampled span cost the server per request.
    let counter = Counter::new();
    metrics.push(Metric::timed(
        "telemetry.counter_inc_ns",
        "ns",
        ns_per_op(1 << 18, |_| black_box(&counter).inc()),
    ));
    let histogram = Histogram::new();
    metrics.push(Metric::timed(
        "telemetry.histogram_record_ns",
        "ns",
        ns_per_op(1 << 18, |i| black_box(&histogram).record(i as u64)),
    ));
    let tracer = TraceCollector::new(1, 1 << 12);
    metrics.push(Metric::timed(
        "telemetry.span_ns",
        "ns",
        ns_per_op(1 << 14, |_| {
            if let Some(handle) = tracer.sample(false) {
                tracer.extend(vec![tracer.finish(handle, "bench", "", Vec::new())]);
            }
        }),
    ));
    Ok(metrics)
}

/// Server-side metrics from the difference of two Stats snapshots.
pub fn server_delta_metrics(delta: &Snapshot) -> Vec<Metric> {
    let mean = |name: &str| delta.histograms.get(name).map_or(0.0, |h| h.mean());
    let count = |name: &str| delta.counters.get(name).copied().unwrap_or(0) as f64;
    let domains = Domain::ALL.map(Domain::as_str);
    let mut metrics: Vec<Metric> = domains
        .iter()
        .map(|d| {
            Metric::derived(
                format!("server.{d}.queue_wait_us"),
                "us",
                mean(&format!("server.{d}.queue_wait_us")),
            )
        })
        .collect();
    let replies: f64 = domains
        .iter()
        .map(|d| {
            delta
                .histograms
                .get(&format!("server.{d}.latency_us"))
                .map_or(0, |h| h.count) as f64
        })
        .sum();
    let busy: f64 = domains
        .iter()
        .map(|d| count(&format!("server.lane.{d}.busy")))
        .sum();
    metrics.extend([
        Metric::derived(
            "server.dispatch.batch_size",
            "count",
            mean("server.dispatch.batch_size"),
        ),
        Metric::derived(
            "server.reactor.wakeups_per_reply",
            "ratio",
            if replies > 0.0 {
                count("server.reactor.wakeups") / replies
            } else {
                0.0
            },
        )
        .with_note(format!("{replies} replies")),
        Metric::derived(
            "server.reactor.events_per_wake",
            "count",
            mean("server.reactor.events_per_wake"),
        ),
        Metric::derived("server.busy_replies", "count", busy),
        Metric::derived("pool.queue_wait_us", "us", mean("pool.queue_wait_us")),
    ]);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_metrics_come_from_snapshot_deltas() {
        let registry = MetricsRegistry::new();
        let before = registry.snapshot();
        registry.counter("server.reactor.wakeups").add(30);
        registry.counter("server.lane.graph.busy").add(2);
        for d in ["hamming", "editdist"] {
            let latency = registry.histogram(&format!("server.{d}.latency_us"));
            let wait = registry.histogram(&format!("server.{d}.queue_wait_us"));
            for v in [10, 20, 30] {
                latency.record(v * 10);
                wait.record(v);
            }
        }
        registry.histogram("server.dispatch.batch_size").record(4);
        let metrics = server_delta_metrics(&registry.snapshot().delta(&before));
        let value = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
        };
        assert_eq!(value("server.hamming.queue_wait_us"), 20.0);
        assert_eq!(value("server.setsim.queue_wait_us"), 0.0);
        assert_eq!(value("server.reactor.wakeups_per_reply"), 5.0);
        assert_eq!(value("server.busy_replies"), 2.0);
        assert_eq!(value("server.dispatch.batch_size"), 4.0);
        assert_eq!(metrics.len(), 9);
    }

    #[test]
    fn probe_passes_skip_the_warm_up() {
        let mut calls = 0.0;
        let values = passes(|| {
            calls += 1.0;
            calls
        });
        assert_eq!(values, vec![2.0, 3.0, 4.0]);
    }
}
