//! The `repro serve` / `repro query` / `repro loadgen` / `repro stats`
//! / `repro trace` / `repro server-smoke` subcommands: the measurable
//! end-to-end path of the `pigeonring-server` network frontend.
//!
//! * `serve` builds the four domain engines ([`EngineSpec`] is
//!   deterministic per scale, so clients at the same scale hold the same
//!   datasets) and answers on a loopback-style TCP port until killed.
//!   `--slow-query-ms` arms the server's slow-query log;
//!   `--metrics-dump PATH` writes the live metrics snapshot to a file
//!   every `--metrics-interval-secs` seconds.
//! * `stats` asks a running server for its live telemetry snapshot
//!   (`Request::Stats`) and pretty-prints it; `--raw` emits the JSON
//!   byte-for-byte for piping into `jq`; `--watch SECS` keeps polling
//!   and prints what *moved* between snapshots (counter deltas and
//!   interval histogram percentiles, via `Snapshot::delta`).
//! * `trace` asks a running server for its recent sampled request
//!   traces (`Request::Trace`); `--raw` dumps the JSON, `--chrome PATH`
//!   writes Chrome trace-event JSON loadable in `chrome://tracing` /
//!   Perfetto. Arm sampling with `serve --trace-sample N`.
//! * `query` drives one domain's (or every domain's) standard query set
//!   through a running server and prints the `result_hash` fingerprint —
//!   comparable across processes and against `repro sweep`-style
//!   in-process runs.
//! * `loadgen` opens `--conns` concurrent connections, each keeping
//!   `--pipeline` requests in flight (wire-v2 pipelining, responses
//!   matched by id), and reports per-domain throughput plus p50/p95/p99
//!   latency into `results/BENCH_server.json`. With `--mix` it runs the
//!   *fairness experiment*: one solo phase per domain (that domain
//!   only) followed by a mixed round-robin phase, recording each
//!   domain's `mixed_over_solo_p50` — the number that shows whether a
//!   slow domain (graph GED) still inflates a fast domain's tail.
//! * `server-smoke` is the CI gate: in one process it starts a server on
//!   an OS-assigned loopback port, diffs every domain's client-observed
//!   `result_hash` against a direct in-process run on the *same*
//!   engines, then runs the mixed-load fairness loadgen for the
//!   artifact. Any hash mismatch is a hard failure.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Instant;

use pigeonring_server::{
    start, start_with_handler, Client, Domain, DomainQuery, EngineSet, EngineSpec, Outcome,
    Response, ServerConfig,
};
use pigeonring_service::{percentile, ResultHasher, WorkerPool};
use pigeonring_telemetry::json as telemetry_json;
use pigeonring_telemetry::{trace::chrome_trace, Snapshot};

use crate::{f1, f3, Report, Scale};

/// Parsed flags shared by the server subcommands.
#[derive(Clone, Debug)]
pub struct ServerCliOpts {
    /// Dataset scale (`--quick` / `--paper`).
    pub scale: Scale,
    /// Shard count per domain index.
    pub shards: usize,
    /// Worker threads (defaults to `min(shards, cores)`).
    pub threads: Option<usize>,
    /// TCP port (`serve`/`query`/`loadgen`; `server-smoke` uses an
    /// OS-assigned port).
    pub port: u16,
    /// Admission-control depth `Q` of each per-domain lane.
    pub queue: usize,
    /// Micro-batch size `B` (max queued requests per pool dispatch).
    pub batch: usize,
    /// Concurrent loadgen connections.
    pub conns: usize,
    /// Loadgen requests per connection (per phase).
    pub requests: usize,
    /// Requests each loadgen connection keeps in flight (wire-v2
    /// pipelining; 1 = the v1-era one-at-a-time behavior).
    pub pipeline: usize,
    /// Run the solo-vs-mixed fairness experiment in `loadgen`
    /// (`server-smoke` always does).
    pub mix: bool,
    /// Restrict `query` to one domain (`None` = all four).
    pub domain: Option<Domain>,
    /// `stats`: print the raw snapshot JSON instead of pretty-printing.
    pub raw: bool,
    /// `serve`: periodically write the live metrics snapshot to this
    /// file (`--metrics-dump PATH`).
    pub metrics_dump: Option<String>,
    /// `serve`: seconds between metrics-dump writes.
    pub metrics_interval_secs: usize,
    /// `serve` / `server-smoke`: slow-query log threshold in
    /// milliseconds (`None` = disabled).
    pub slow_query_ms: Option<u64>,
    /// `serve` / `server-smoke`: slow-query ring capacity (`None` =
    /// the server default of 64).
    pub slow_query_ring: Option<usize>,
    /// `serve` / `server-smoke`: trace one admitted query in N
    /// (`None` = sampling disabled; EXPLAIN still traces).
    pub trace_sample: Option<u64>,
    /// `serve` / `server-smoke`: span-ring capacity (`None` = the
    /// telemetry default).
    pub trace_buffer: Option<usize>,
    /// `stats`: poll every SECS seconds and print snapshot deltas
    /// instead of one snapshot.
    pub watch: Option<usize>,
    /// `trace`: write Chrome trace-event JSON to this path.
    pub chrome: Option<String>,
}

impl ServerCliOpts {
    /// Parses and validates the server-subcommand flag set; unknown
    /// flags and malformed values are errors, not silent defaults.
    pub fn from_args(args: &[String]) -> Result<ServerCliOpts, String> {
        const BOOL_FLAGS: [&str; 4] = ["--quick", "--paper", "--mix", "--raw"];
        const VALUE_FLAGS: [&str; 17] = [
            "--shards",
            "--threads",
            "--port",
            "--queue",
            "--batch",
            "--conns",
            "--requests",
            "--pipeline",
            "--domain",
            "--metrics-dump",
            "--metrics-interval-secs",
            "--slow-query-ms",
            "--slow-query-ring",
            "--trace-sample",
            "--trace-buffer",
            "--watch",
            "--chrome",
        ];
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if VALUE_FLAGS.contains(&a) {
                i += 2;
            } else if a.starts_with("--") && !BOOL_FLAGS.contains(&a) {
                return Err(format!(
                    "unknown flag {a:?}; known: --quick, --paper, --mix, --raw, \
                     --shards K, --threads T, --port P, --queue Q, --batch B, --conns C, \
                     --requests N, --pipeline P, --domain D, --metrics-dump PATH, \
                     --metrics-interval-secs S, --slow-query-ms MS, --slow-query-ring N, \
                     --trace-sample N, --trace-buffer M, --watch SECS, --chrome PATH"
                ));
            } else {
                i += 1;
            }
        }
        let value_of = |flag: &str| -> Result<Option<usize>, String> {
            match args.iter().position(|a| a == flag) {
                None => Ok(None),
                Some(i) => args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .map(Some)
                    .ok_or_else(|| format!("{flag} requires a positive integer value")),
            }
        };
        let domain = match args.iter().position(|a| a == "--domain") {
            None => None,
            Some(i) => {
                let name = args
                    .get(i + 1)
                    .ok_or("--domain requires a value (hamming|editdist|setsim|graph|all)")?;
                if name == "all" {
                    None
                } else {
                    Some(Domain::parse_name(name).ok_or_else(|| {
                        format!(
                            "unknown domain {name:?}; expected hamming|editdist|setsim|graph|all"
                        )
                    })?)
                }
            }
        };
        let path_value = |flag: &'static str| -> Result<Option<String>, String> {
            match args.iter().position(|a| a == flag) {
                None => Ok(None),
                Some(i) => Ok(Some(
                    args.get(i + 1)
                        .filter(|p| !p.starts_with("--"))
                        .ok_or(format!("{flag} requires a file path"))?
                        .clone(),
                )),
            }
        };
        let metrics_dump = path_value("--metrics-dump")?;
        let chrome = path_value("--chrome")?;
        let port = value_of("--port")?.unwrap_or(7878);
        if port > u16::MAX as usize {
            return Err(format!("--port must be at most 65535 (got {port})"));
        }
        Ok(ServerCliOpts {
            scale: Scale::from_args(args),
            shards: value_of("--shards")?.unwrap_or(2),
            threads: value_of("--threads")?,
            port: port as u16,
            queue: value_of("--queue")?.unwrap_or(64),
            batch: value_of("--batch")?.unwrap_or(16),
            conns: value_of("--conns")?.unwrap_or(4),
            requests: value_of("--requests")?.unwrap_or(64),
            pipeline: value_of("--pipeline")?.unwrap_or(4),
            mix: args.iter().any(|a| a == "--mix"),
            domain,
            raw: args.iter().any(|a| a == "--raw"),
            metrics_dump,
            metrics_interval_secs: value_of("--metrics-interval-secs")?.unwrap_or(10),
            slow_query_ms: value_of("--slow-query-ms")?.map(|ms| ms as u64),
            slow_query_ring: value_of("--slow-query-ring")?,
            trace_sample: value_of("--trace-sample")?.map(|n| n as u64),
            trace_buffer: value_of("--trace-buffer")?,
            watch: value_of("--watch")?,
            chrome,
        })
    }

    /// The deterministic engine spec for this scale and shard count.
    pub fn spec(&self) -> EngineSpec {
        let mut spec = match self.scale {
            Scale::Quick => EngineSpec::quick(),
            Scale::Full => EngineSpec::full(),
            Scale::Paper => EngineSpec::paper(),
        };
        spec.shards = self.shards;
        spec
    }

    /// Worker threads: explicit `--threads`, else
    /// `min(shards, hardware cores)`, always ≥ 1.
    pub fn worker_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| self.shards.min(pigeonring_service::cores()))
            .max(1)
    }

    fn server_config(&self) -> ServerConfig {
        let defaults = ServerConfig::default();
        ServerConfig {
            lane_depth: self.queue,
            micro_batch: self.batch,
            slow_query_ms: self.slow_query_ms,
            slow_query_ring: self.slow_query_ring.unwrap_or(defaults.slow_query_ring),
            trace_sample: self.trace_sample.unwrap_or(defaults.trace_sample),
            trace_buffer: self.trace_buffer.unwrap_or(defaults.trace_buffer),
            ..defaults
        }
    }
}

/// Dispatches one of the server subcommands. `Err` means "print to
/// stderr and exit non-zero".
pub fn run(cmd: &str, args: &[String]) -> Result<(), String> {
    let opts = ServerCliOpts::from_args(args)?;
    match cmd {
        "serve" => serve(&opts),
        "query" => query(&opts),
        "loadgen" => loadgen(&opts),
        "stats" => stats(&opts),
        "trace" => trace(&opts),
        "server-smoke" => server_smoke(&opts),
        other => Err(format!("not a server subcommand: {other:?}")),
    }
}

/// `repro serve`: build engines, bind, answer until killed.
fn serve(opts: &ServerCliOpts) -> Result<(), String> {
    let spec = opts.spec();
    eprintln!(
        "building engines (hamming {} / editdist {} / setsim {} / graph {} records, {} shards)...",
        spec.hamming_n, spec.edit_n, spec.set_n, spec.graph_n, spec.shards
    );
    let engines = Arc::new(EngineSet::build(spec));
    let listener = TcpListener::bind(("127.0.0.1", opts.port))
        .map_err(|e| format!("cannot bind 127.0.0.1:{}: {e}", opts.port))?;
    let pool = WorkerPool::new(opts.worker_threads());
    let handle = start(listener, engines, pool, opts.server_config())
        .map_err(|e| format!("cannot start server: {e}"))?;
    println!(
        "pigeonring-server listening on {} (lane depth {}, micro-batch {}, {} workers)",
        handle.addr(),
        opts.queue,
        opts.batch,
        opts.worker_threads()
    );
    if let Some(path) = &opts.metrics_dump {
        let path = path.clone();
        let interval = std::time::Duration::from_secs(opts.metrics_interval_secs.max(1) as u64);
        let metrics = Arc::clone(handle.metrics());
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if let Err(e) = std::fs::write(&path, metrics.stats_json()) {
                eprintln!("metrics dump to {path:?} failed: {e}");
            }
        });
        println!(
            "metrics dump: {} every {}s",
            opts.metrics_dump.as_deref().unwrap_or(""),
            opts.metrics_interval_secs.max(1)
        );
    }
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}

/// `repro stats`: fetch a running server's live metrics snapshot over
/// the wire (`Request::Stats`) and pretty-print it (`--raw` dumps the
/// JSON exactly as the server sent it).
fn stats(opts: &ServerCliOpts) -> Result<(), String> {
    let addr: SocketAddr = ([127, 0, 0, 1], opts.port).into();
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    if let Some(secs) = opts.watch {
        return watch_stats(&mut client, secs);
    }
    let snapshot = client.stats().map_err(|e| format!("stats failed: {e}"))?;
    if opts.raw {
        println!("{snapshot}");
    } else {
        let doc = telemetry_json::parse(&snapshot)
            .map_err(|e| format!("server sent an unparseable snapshot: {e}"))?;
        println!("{}", doc.pretty());
    }
    Ok(())
}

/// `repro stats --watch SECS`: poll the server and print only what
/// *moved* between snapshots, via [`Snapshot::delta`] — counter
/// increments plus interval histogram percentiles (recomputed over the
/// delta buckets, so they describe this window's requests, not server
/// history). The first tick's baseline is the empty snapshot, so it
/// prints cumulative totals; runs until interrupted.
fn watch_stats(client: &mut Client, secs: usize) -> Result<(), String> {
    let mut prev = Snapshot::default();
    loop {
        let raw = client.stats().map_err(|e| format!("stats failed: {e}"))?;
        let doc = telemetry_json::parse(&raw)
            .map_err(|e| format!("server sent an unparseable snapshot: {e}"))?;
        let now = doc
            .get("metrics")
            .and_then(Snapshot::from_json)
            .ok_or("snapshot has no parseable \"metrics\" member")?;
        let delta = now.delta(&prev);
        let uptime_ms = doc
            .get("uptime_ms")
            .and_then(telemetry_json::Value::as_u64)
            .unwrap_or(0);
        println!(
            "--- uptime {:.1}s, last {secs}s ---",
            uptime_ms as f64 / 1e3
        );
        let mut quiet = true;
        for (name, v) in &delta.counters {
            if *v > 0 {
                println!("  {name:<44} +{v}");
                quiet = false;
            }
        }
        for (name, h) in &delta.histograms {
            if h.count > 0 {
                println!(
                    "  {name:<44} count={} p50={} p95={} p99={}",
                    h.count, h.p50, h.p95, h.p99
                );
                quiet = false;
            }
        }
        if quiet {
            println!("  (idle)");
        }
        prev = now;
        std::thread::sleep(std::time::Duration::from_secs(secs.max(1) as u64));
    }
}

/// `repro trace`: fetch a running server's recent sampled traces
/// (`Request::Trace`). Default pretty-prints the span trees; `--raw`
/// dumps the JSON for `jq`; `--chrome PATH` writes Chrome trace-event
/// JSON loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
fn trace(opts: &ServerCliOpts) -> Result<(), String> {
    let addr: SocketAddr = ([127, 0, 0, 1], opts.port).into();
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let raw = client.trace().map_err(|e| format!("trace failed: {e}"))?;
    if let Some(path) = &opts.chrome {
        let doc = telemetry_json::parse(&raw)
            .map_err(|e| format!("server sent an unparseable trace document: {e}"))?;
        let events = chrome_trace(&doc)
            .map_err(|e| format!("cannot convert to Chrome trace events: {e}"))?;
        std::fs::write(path, &events).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path} (load in chrome://tracing or https://ui.perfetto.dev)");
    } else if opts.raw {
        println!("{raw}");
    } else {
        let doc = telemetry_json::parse(&raw)
            .map_err(|e| format!("server sent an unparseable trace document: {e}"))?;
        println!("{}", doc.pretty());
    }
    Ok(())
}

/// `repro query`: one domain's (or all domains') standard query set
/// through a running server; prints counts and the result hash.
fn query(opts: &ServerCliOpts) -> Result<(), String> {
    let spec = opts.spec();
    let addr: SocketAddr = ([127, 0, 0, 1], opts.port).into();
    let domains: Vec<Domain> = match opts.domain {
        Some(d) => vec![d],
        None => Domain::ALL.to_vec(),
    };
    let mut rep = Report::new(
        "server_query",
        &["domain", "queries", "results", "busy", "result_hash"],
    );
    for domain in domains {
        let queries = spec.sample_queries(domain);
        let mut client =
            Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let (hash, results, busy) = run_query_set(&mut client, &queries)?;
        rep.row(&[
            domain.to_string(),
            queries.len().to_string(),
            results.to_string(),
            busy.to_string(),
            format!("{hash:016x}"),
        ]);
    }
    rep.emit();
    Ok(())
}

/// Sends every query on one connection (retrying Busy up to a bounded
/// number of times), returning the result hash, total result count, and
/// Busy-retry count. A server that stays Busy past the cap (saturated,
/// or shutting down — a closing queue also answers Busy) is an error,
/// not an infinite spin.
fn run_query_set(
    client: &mut Client,
    queries: &[DomainQuery],
) -> Result<(u64, usize, usize), String> {
    const MAX_BUSY_RETRIES: usize = 1_000;
    let mut hasher = ResultHasher::new();
    let mut results = 0usize;
    let mut busy = 0usize;
    for q in queries {
        let mut attempts = 0usize;
        loop {
            match client
                .search(q.clone())
                .map_err(|e| format!("query failed: {e}"))?
            {
                // A plain query never sets EXPLAIN, but a trace-forced
                // answer still carries the same ids — hash them alike.
                Outcome::Results(ids) | Outcome::Explained { ids, .. } => {
                    hasher.push(&ids);
                    results += ids.len();
                    break;
                }
                Outcome::Failed { code, message } => {
                    return Err(format!("query failed ({code:?}): {message}"));
                }
                Outcome::Busy => {
                    busy += 1;
                    attempts += 1;
                    if attempts >= MAX_BUSY_RETRIES {
                        return Err(format!(
                            "server still busy after {MAX_BUSY_RETRIES} retries; \
                             is it overloaded or shutting down?"
                        ));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        }
    }
    Ok((hasher.finish(), results, busy))
}

/// One loadgen measurement for one domain under one load shape.
struct LoadRow {
    domain: &'static str,
    /// `"solo"` (only this domain on the wire) or `"mixed"` (all four
    /// round-robin).
    mode: &'static str,
    requests: usize,
    busy: usize,
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    /// On mixed rows when the solo baseline was also measured: this
    /// domain's mixed-load p50 over its solo-load p50 — 1.0 means the
    /// other domains add nothing to its latency; the old global-FIFO
    /// server showed ≈ 3.5× for hamming/setsim.
    mixed_over_solo_p50: Option<f64>,
}

/// The load shape one phase drives.
#[derive(Clone, Copy)]
enum Phase {
    /// Every request targets the one domain (index into [`Domain::ALL`]).
    Solo(usize),
    /// Requests round-robin all four domains, staggered per connection
    /// so every micro-batch the server forms is mixed.
    Mixed,
}

/// `repro loadgen`: concurrent pipelined connections; reports
/// per-domain throughput and tail latency, writes
/// `results/BENCH_server.json`. With `--mix`, runs one solo phase per
/// domain first so the mixed rows carry `mixed_over_solo_p50`.
fn loadgen(opts: &ServerCliOpts) -> Result<(), String> {
    let addr: SocketAddr = ([127, 0, 0, 1], opts.port).into();
    let query_sets = sample_all_queries(opts);
    // Snapshot the server's metrics around the run so the artifact
    // carries the server-side delta (queue waits, stage survivor
    // counts) next to the client-observed latencies. Best-effort: a
    // server that can't answer Stats degrades the artifact, not the
    // run.
    let before = fetch_stats(addr);
    let rows = if opts.mix {
        run_fairness_loadgen(opts, addr, &query_sets)?
    } else {
        run_phase(opts, addr, &query_sets, Phase::Mixed)?
    };
    let server_metrics = match (&before, fetch_stats(addr)) {
        (Some(b), Some(a)) => Some(metrics_delta_json(b, &a)?),
        _ => None,
    };
    let idle = measure_idle_conns(opts)?;
    emit_loadgen(&rows, opts, server_metrics.as_deref(), idle.as_ref())
}

/// Best-effort Stats fetch on a fresh connection; `None` when the
/// server is unreachable or refuses the request.
fn fetch_stats(addr: SocketAddr) -> Option<String> {
    Client::connect(addr).ok()?.stats().ok()
}

/// After-minus-before deltas between two wire Stats snapshots, rendered
/// as the `server_metrics` object for `BENCH_server.json`: every
/// counter that moved (per-domain query counts, filter-stage survivor
/// counts, lane admissions) plus per-histogram interval summaries —
/// delta count/sum with nearest-rank percentiles recomputed over the
/// delta buckets, so queue waits and latencies describe *this run's*
/// requests, not cumulative server history.
fn metrics_delta_json(before: &str, after: &str) -> Result<String, String> {
    use telemetry_json::Value;
    let before =
        telemetry_json::parse(before).map_err(|e| format!("bad 'before' stats snapshot: {e}"))?;
    let after =
        telemetry_json::parse(after).map_err(|e| format!("bad 'after' stats snapshot: {e}"))?;
    let counters = |doc: &Value| -> Vec<(String, u64)> {
        doc.get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(Value::entries)
            .map(|entries| {
                entries
                    .iter()
                    .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                    .collect()
            })
            .unwrap_or_default()
    };
    // name → (sum, sparse buckets as (upper bound, count)).
    type HistEntry = (String, u64, Vec<(u64, u64)>);
    let histograms = |doc: &Value| -> Vec<HistEntry> {
        doc.get("metrics")
            .and_then(|m| m.get("histograms"))
            .and_then(Value::entries)
            .map(|entries| {
                entries
                    .iter()
                    .map(|(k, h)| {
                        let sum = h.get("sum").and_then(Value::as_u64).unwrap_or(0);
                        let buckets = h
                            .get("buckets")
                            .and_then(Value::entries)
                            .map(|b| {
                                b.iter()
                                    .filter_map(|(bound, c)| {
                                        Some((bound.parse::<u64>().ok()?, c.as_u64()?))
                                    })
                                    .collect()
                            })
                            .unwrap_or_default();
                        (k.clone(), sum, buckets)
                    })
                    .collect()
            })
            .unwrap_or_default()
    };

    let mut out = String::from("{\n  \"counters\": {");
    let before_counters = counters(&before);
    let mut first = true;
    for (name, now) in counters(&after) {
        let was = before_counters
            .iter()
            .find(|(n, _)| n == &name)
            .map(|&(_, v)| v)
            .unwrap_or(0);
        let delta = now.saturating_sub(was);
        if delta == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!("\"{name}\": {delta}"));
    }
    out.push_str("},\n  \"histograms\": {");
    let before_hists = histograms(&before);
    first = true;
    for (name, sum_now, buckets_now) in histograms(&after) {
        let (sum_was, buckets_was) = before_hists
            .iter()
            .find(|(n, _, _)| n == &name)
            .map(|(_, s, b)| (*s, b.as_slice()))
            .unwrap_or((0, &[][..]));
        let mut delta: Vec<(u64, u64)> = buckets_now
            .iter()
            .map(|&(bound, c)| {
                let was = buckets_was
                    .iter()
                    .find(|&&(b, _)| b == bound)
                    .map(|&(_, c)| c)
                    .unwrap_or(0);
                (bound, c.saturating_sub(was))
            })
            .filter(|&(_, c)| c > 0)
            .collect();
        delta.sort_unstable();
        let count: u64 = delta.iter().map(|&(_, c)| c).sum();
        if count == 0 {
            continue;
        }
        let pct = |p: f64| -> u64 {
            let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
            let mut cum = 0u64;
            for &(bound, c) in &delta {
                cum += c;
                if cum >= rank {
                    return bound;
                }
            }
            delta.last().map(|&(b, _)| b).unwrap_or(0)
        };
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&format!(
            "\"{name}\": {{\"count\": {count}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            sum_now.saturating_sub(sum_was),
            pct(50.0),
            pct(95.0),
            pct(99.0)
        ));
    }
    out.push_str("}\n}");
    Ok(out)
}

/// The fairness experiment: one solo phase per domain, then the mixed
/// phase, with each mixed row annotated with its solo-p50 ratio.
fn run_fairness_loadgen(
    opts: &ServerCliOpts,
    addr: SocketAddr,
    query_sets: &Arc<Vec<Vec<DomainQuery>>>,
) -> Result<Vec<LoadRow>, String> {
    let mut rows = Vec::new();
    let mut solo_p50: Vec<(&'static str, f64)> = Vec::new();
    for (di, domain) in Domain::ALL.iter().enumerate() {
        let solo = run_phase(opts, addr, query_sets, Phase::Solo(di))?;
        let row = solo
            .into_iter()
            .find(|r| r.domain == domain.as_str() && r.requests > 0)
            .ok_or_else(|| format!("solo phase for {domain} measured nothing"))?;
        solo_p50.push((row.domain, row.p50_ms));
        rows.push(row);
    }
    let mixed = run_phase(opts, addr, query_sets, Phase::Mixed)?;
    for mut row in mixed {
        // Join baselines by domain, not by position: run_phase drops
        // domains the phase never measured, and a busy-only row (p50 0)
        // must not record a meaningless ratio.
        let solo = solo_p50
            .iter()
            .find(|(d, _)| *d == row.domain)
            .map(|&(_, p50)| p50);
        if let Some(solo) = solo.filter(|&p50| p50 > 0.0 && row.requests > 0) {
            row.mixed_over_solo_p50 = Some(row.p50_ms / solo);
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Every domain's standard query set for this scale, in `Domain::ALL`
/// order. Sampling regenerates each domain's dataset, so callers that
/// need the sets more than once (e.g. `server-smoke`) sample once and
/// share.
fn sample_all_queries(opts: &ServerCliOpts) -> Arc<Vec<Vec<DomainQuery>>> {
    let spec = opts.spec();
    Arc::new(
        Domain::ALL
            .iter()
            .map(|&d| spec.sample_queries(d))
            .collect(),
    )
}

/// Drives one load phase and aggregates per-domain latency samples.
/// Each connection keeps `opts.pipeline` requests in flight and
/// timestamps every request individually, matching responses by id
/// (out-of-order completion is expected from the v2 server).
fn run_phase(
    opts: &ServerCliOpts,
    addr: SocketAddr,
    query_sets: &Arc<Vec<Vec<DomainQuery>>>,
    phase: Phase,
) -> Result<Vec<LoadRow>, String> {
    let start = Instant::now();
    let workers: Vec<_> = (0..opts.conns)
        .map(|c| {
            let query_sets = Arc::clone(query_sets);
            let requests = opts.requests;
            let window = opts.pipeline.max(1);
            std::thread::spawn(move || -> Result<Vec<(usize, f64, bool)>, String> {
                let mut client =
                    Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
                // The connection's request sequence, fixed up front.
                let seq: Vec<(usize, DomainQuery)> = (0..requests)
                    .map(|i| {
                        let di = match phase {
                            Phase::Solo(di) => di,
                            // Stagger domains across connections so
                            // every micro-batch the server forms is
                            // mixed.
                            Phase::Mixed => (i + c) % query_sets.len(),
                        };
                        let q = &query_sets[di][(i / query_sets.len()) % query_sets[di].len()];
                        (di, q.clone())
                    })
                    .collect();
                let mut in_flight: std::collections::HashMap<u64, (usize, Instant)> =
                    std::collections::HashMap::with_capacity(window);
                let mut samples = Vec::with_capacity(requests);
                let mut next = 0usize;
                while samples.len() < seq.len() {
                    while in_flight.len() < window && next < seq.len() {
                        let (di, q) = &seq[next];
                        let id = client
                            .send_query(q.clone())
                            .map_err(|e| format!("loadgen send failed: {e}"))?;
                        in_flight.insert(id, (*di, Instant::now()));
                        next += 1;
                    }
                    let (id, outcome) = client
                        .recv_reply()
                        .map_err(|e| format!("loadgen request failed: {e}"))?;
                    let (di, t0) = in_flight
                        .remove(&id)
                        .ok_or("server answered an unknown request id")?;
                    if let Outcome::Failed { code, message } = &outcome {
                        return Err(format!("loadgen query failed ({code:?}): {message}"));
                    }
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    samples.push((di, ms, matches!(outcome, Outcome::Busy)));
                }
                Ok(samples)
            })
        })
        .collect();
    let mut samples: Vec<(usize, f64, bool)> = Vec::new();
    for w in workers {
        samples.extend(w.join().map_err(|_| "loadgen thread panicked")??);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mode = match phase {
        Phase::Solo(_) => "solo",
        Phase::Mixed => "mixed",
    };

    Ok(Domain::ALL
        .iter()
        .enumerate()
        .map(|(di, &d)| {
            let mut lat: Vec<f64> = samples
                .iter()
                .filter(|(i, _, busy)| *i == di && !busy)
                .map(|(_, ms, _)| *ms)
                .collect();
            lat.sort_by(f64::total_cmp);
            let busy = samples.iter().filter(|(i, _, b)| *i == di && *b).count();
            LoadRow {
                domain: d.as_str(),
                mode,
                requests: lat.len(),
                busy,
                qps: if wall_s > 0.0 {
                    lat.len() as f64 / wall_s
                } else {
                    0.0
                },
                p50_ms: percentile(&lat, 50.0),
                p95_ms: percentile(&lat, 95.0),
                p99_ms: percentile(&lat, 99.0),
                mixed_over_solo_p50: None,
            }
        })
        .filter(|row| row.requests > 0 || row.busy > 0)
        .collect())
}

/// Idle connections for the thread-cost experiment: enough that any
/// per-connection thread would be unmistakable in the census.
const IDLE_PROBE_CONNS: usize = 256;

/// The server's footprint while parking [`IDLE_PROBE_CONNS`] idle,
/// fully negotiated connections.
struct IdleRow {
    conns: usize,
    /// Total process threads while the connections were parked.
    thread_count: u64,
    /// Threads over the pre-start baseline — the per-server cost (one
    /// event-loop thread + dispatchers, independent of `conns`).
    threads_added: u64,
    /// `VmRSS` while the connections were parked, in KiB.
    rss_kb: u64,
}

/// `Threads:` and `VmRSS:` (KiB) from `/proc/self/status`; zeros where
/// procfs is unavailable (non-Linux), which skips the experiment.
fn proc_status() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| -> u64 {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("Threads:"), field("VmRSS:"))
}

/// What a connection costs, measured: an in-process server (trivial
/// handler — the cost under test is *connection handling*, not query
/// execution) parks [`IDLE_PROBE_CONNS`] negotiated-but-idle
/// connections while the process thread census and RSS are read from
/// `/proc/self/status`. The server is spawned in this process
/// precisely so that census is attributable. `None` without procfs
/// (non-Linux): skip rather than record garbage.
fn measure_idle_conns(opts: &ServerCliOpts) -> Result<Option<IdleRow>, String> {
    let (threads_before, _) = proc_status();
    if threads_before == 0 {
        return Ok(None);
    }
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| format!("idle-conns probe cannot bind loopback: {e}"))?;
    let handle = start_with_handler(listener, Arc::new(|_, _, _| {}), opts.server_config())
        .map_err(|e| format!("idle-conns probe cannot start server: {e}"))?;
    let clients = (0..IDLE_PROBE_CONNS)
        .map(|_| Client::connect(handle.addr()))
        .collect::<Result<Vec<Client>, _>>()
        .map_err(|e| format!("idle-conns probe connect failed: {e}"))?;
    let (thread_count, rss_kb) = proc_status();
    let row = IdleRow {
        conns: clients.len(),
        thread_count,
        threads_added: thread_count.saturating_sub(threads_before),
        rss_kb,
    };
    println!(
        "idle-conns probe: {} connections held with {} threads (+{} over baseline), rss {} KiB",
        row.conns, row.thread_count, row.threads_added, row.rss_kb
    );
    drop(clients);
    handle.shutdown();
    Ok(Some(row))
}

/// Prints the loadgen table and writes `results/BENCH_server.json`
/// (embedding the server-side metrics delta when one was captured),
/// then prints the per-domain fairness ratios when both phases ran.
fn emit_loadgen(
    rows: &[LoadRow],
    opts: &ServerCliOpts,
    server_metrics: Option<&str>,
    idle: Option<&IdleRow>,
) -> Result<(), String> {
    let mut rep = Report::new(
        "server_loadgen",
        &[
            "domain",
            "mode",
            "conns",
            "pipeline",
            "requests",
            "busy",
            "qps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "mixed_over_solo_p50",
        ],
    );
    // BENCH_server.json schema: machine fingerprint + rows, mirroring
    // BENCH_service.json — loadgen numbers without the machine are not
    // comparable across runs.
    let mut json = String::from("{\n\"machine\": ");
    json.push_str(&pigeonring_service::MachineFingerprint::detect().to_json());
    json.push_str(",\n\"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let ratio = row
            .mixed_over_solo_p50
            .map_or("-".to_string(), |r| format!("{r:.2}"));
        rep.row(&[
            row.domain.to_string(),
            row.mode.to_string(),
            opts.conns.to_string(),
            opts.pipeline.to_string(),
            row.requests.to_string(),
            row.busy.to_string(),
            f1(row.qps),
            f3(row.p50_ms),
            f3(row.p95_ms),
            f3(row.p99_ms),
            ratio,
        ]);
        let ratio_json = row.mixed_over_solo_p50.map_or(String::new(), |r| {
            format!(", \"mixed_over_solo_p50\": {r:.3}")
        });
        json.push_str(&format!(
            "  {{\"domain\": \"{}\", \"mode\": \"{}\", \"conns\": {}, \"pipeline\": {}, \
             \"shards\": {}, \"lane_depth\": {}, \"micro_batch\": {}, \"requests\": {}, \
             \"busy\": {}, \"qps\": {:.3}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
             \"p99_ms\": {:.3}{}}}{}\n",
            row.domain,
            row.mode,
            opts.conns,
            opts.pipeline,
            opts.shards,
            opts.queue,
            opts.batch,
            row.requests,
            row.busy,
            row.qps,
            row.p50_ms,
            row.p95_ms,
            row.p99_ms,
            ratio_json,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push(']');
    if let Some(row) = idle {
        json.push_str(&format!(
            ",\n\"idle_conns\": [\n  {{\"conns\": {}, \"thread_count\": {}, \
             \"threads_added\": {}, \"rss_kb\": {}}}\n]",
            row.conns, row.thread_count, row.threads_added, row.rss_kb
        ));
    }
    if let Some(delta) = server_metrics {
        json.push_str(",\n\"server_metrics\": ");
        json.push_str(delta);
    }
    json.push_str("\n}");
    rep.emit();
    std::fs::create_dir_all("results").map_err(|e| format!("cannot create results/: {e}"))?;
    std::fs::write("results/BENCH_server.json", json)
        .map_err(|e| format!("cannot write results/BENCH_server.json: {e}"))?;
    println!(
        "wrote results/BENCH_server.json ({} rows{})",
        rows.len(),
        if server_metrics.is_some() {
            ", with server-side metrics delta"
        } else {
            ""
        }
    );
    for row in rows {
        if let Some(r) = row.mixed_over_solo_p50 {
            println!(
                "fairness: {} mixed/solo p50 = {:.2}x ({:.3} ms vs {:.3} ms)",
                row.domain,
                r,
                row.p50_ms,
                row.p50_ms / r
            );
        }
    }
    Ok(())
}

/// `repro server-smoke`: the CI gate. One process, an OS-assigned
/// loopback port; every domain's client-observed result hash must equal
/// a direct in-process run on the same engines, then a small loadgen
/// writes the artifact.
fn server_smoke(opts: &ServerCliOpts) -> Result<(), String> {
    let spec = opts.spec();
    eprintln!(
        "server-smoke: building engines at {:?} scale...",
        opts.scale
    );
    let engines = Arc::new(EngineSet::build(spec));
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind loopback: {e}"))?;
    let handle = start(
        listener,
        Arc::clone(&engines),
        WorkerPool::new(opts.worker_threads()),
        opts.server_config(),
    )
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = handle.addr();
    println!("server-smoke: serving on {addr}");

    // In-process reference pool: separate from the server's so the two
    // paths share nothing but the engines.
    let reference_pool = WorkerPool::new(opts.worker_threads());
    let mut rep = Report::new(
        "server_smoke",
        &["domain", "queries", "server_hash", "inproc_hash", "match"],
    );
    let mut mismatches = Vec::new();
    // Sample every domain's query set once; the smoke loop and the
    // loadgen below share it (sampling regenerates whole datasets).
    let query_sets = sample_all_queries(opts);
    for (domain, queries) in Domain::ALL.into_iter().zip(query_sets.iter()) {
        let mut client =
            Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        let (server_hash, _, _) = run_query_set(&mut client, queries)?;
        let mut hasher = ResultHasher::new();
        for resp in engines.run(&reference_pool, queries.clone()) {
            match resp {
                Response::Results { ids, .. } => hasher.push(&ids),
                other => return Err(format!("in-process run failed for {domain}: {other:?}")),
            }
        }
        let inproc_hash = hasher.finish();
        let ok = server_hash == inproc_hash;
        if !ok {
            mismatches.push(domain);
        }
        rep.row(&[
            domain.to_string(),
            queries.len().to_string(),
            format!("{server_hash:016x}"),
            format!("{inproc_hash:016x}"),
            ok.to_string(),
        ]);
    }
    rep.emit();

    // The fairness experiment is part of the smoke artifact: solo
    // baselines per domain, then mixed load, so BENCH_server.json
    // records each domain's mixed_over_solo_p50 isolation ratio —
    // bracketed by Stats fetches so the artifact also carries the
    // server-side metrics delta for exactly this load.
    let before = fetch_stats(addr).ok_or("server did not answer Stats before loadgen")?;
    let rows = run_fairness_loadgen(opts, addr, &query_sets)?;
    let after = fetch_stats(addr).ok_or("server did not answer Stats after loadgen")?;
    let server_metrics = metrics_delta_json(&before, &after)?;
    let idle = measure_idle_conns(opts)?;
    emit_loadgen(&rows, opts, Some(&server_metrics), idle.as_ref())?;
    // The raw post-load snapshot is its own CI-gated artifact: jq
    // checks per-lane gauges, per-domain query counters, and the
    // embedded machine fingerprint.
    std::fs::write("results/server_stats.json", &after)
        .map_err(|e| format!("cannot write results/server_stats.json: {e}"))?;
    println!("wrote results/server_stats.json");
    // EXPLAIN must not change the answer, and it forces tracing: one
    // explained query per domain *after* loadgen (so its spans cannot
    // be evicted by sampled loadgen traffic) both diffs the flagged
    // path's ids against the plain path and guarantees every domain
    // has a root span in the recent-trace artifact, whatever the
    // sampling cadence did.
    let mut explain_client =
        Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    for (domain, queries) in Domain::ALL.into_iter().zip(query_sets.iter()) {
        let (explained_ids, span_tree) = explain_client
            .explain(queries[0].clone())
            .map_err(|e| format!("EXPLAIN failed for {domain}: {e}"))?;
        match explain_client
            .search(queries[0].clone())
            .map_err(|e| format!("query failed for {domain}: {e}"))?
        {
            Outcome::Results(ids) | Outcome::Explained { ids, .. } => {
                if ids != explained_ids {
                    return Err(format!("EXPLAIN changed {domain}'s result ids"));
                }
            }
            other => return Err(format!("unexpected outcome for {domain}: {other:?}")),
        }
        if !span_tree.contains("\"spans\"") {
            return Err(format!("EXPLAIN for {domain} returned no span tree"));
        }
    }
    // The recent-trace export is the second jq-gated artifact: the
    // EXPLAIN round traced one query per domain, and loadgen traffic
    // adds sampled traces when --trace-sample is armed.
    let traces = explain_client
        .trace()
        .map_err(|e| format!("server did not answer Trace after loadgen: {e}"))?;
    std::fs::write("results/server_trace.json", &traces)
        .map_err(|e| format!("cannot write results/server_trace.json: {e}"))?;
    println!("wrote results/server_trace.json");
    handle.shutdown();

    if mismatches.is_empty() {
        println!("server-smoke: PASS (all four domains hash-identical over loopback)");
        Ok(())
    } else {
        Err(format!(
            "server-smoke: FAIL — server results differ from in-process for {mismatches:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn opts_parse_defaults_and_values() {
        let o = ServerCliOpts::from_args(&args(&[])).expect("defaults parse");
        assert_eq!(o.port, 7878);
        assert_eq!(o.shards, 2);
        assert_eq!(o.pipeline, 4);
        assert!(!o.mix);
        assert!(o.domain.is_none());
        let o = ServerCliOpts::from_args(&args(&[
            "--quick",
            "--port",
            "9000",
            "--domain",
            "graph",
            "--conns",
            "7",
            "--pipeline",
            "16",
            "--mix",
        ]))
        .expect("flags parse");
        assert_eq!(o.scale, Scale::Quick);
        assert_eq!(o.port, 9000);
        assert_eq!(o.conns, 7);
        assert_eq!(o.pipeline, 16);
        assert!(o.mix);
        assert_eq!(o.domain, Some(Domain::Graph));
    }

    #[test]
    fn out_of_range_port_is_an_error_not_a_wrap() {
        let err = ServerCliOpts::from_args(&args(&["--port", "70000"])).unwrap_err();
        assert!(err.contains("65535"), "{err}");
        let err = ServerCliOpts::from_args(&args(&["--port", "65536"])).unwrap_err();
        assert!(err.contains("65535"), "{err}");
        assert!(ServerCliOpts::from_args(&args(&["--port", "65535"])).is_ok());
    }

    #[test]
    fn unknown_flags_and_domains_rejected() {
        assert!(ServerCliOpts::from_args(&args(&["--ports", "1"])).is_err());
        let err = ServerCliOpts::from_args(&args(&["--backend", "reactor"])).unwrap_err();
        assert!(err.contains("unknown flag \"--backend\""), "{err}");
        assert!(ServerCliOpts::from_args(&args(&["--domain", "sets"])).is_err());
        assert!(ServerCliOpts::from_args(&args(&["--domain", "all"])).is_ok());
        assert!(ServerCliOpts::from_args(&args(&["--conns", "0"])).is_err());
    }

    #[test]
    fn telemetry_flags_parse() {
        let o = ServerCliOpts::from_args(&args(&[])).expect("defaults parse");
        assert!(!o.raw);
        assert!(o.metrics_dump.is_none());
        assert_eq!(o.metrics_interval_secs, 10);
        assert!(o.slow_query_ms.is_none());
        let o = ServerCliOpts::from_args(&args(&[
            "--raw",
            "--metrics-dump",
            "results/dump.json",
            "--metrics-interval-secs",
            "3",
            "--slow-query-ms",
            "250",
        ]))
        .expect("telemetry flags parse");
        assert!(o.raw);
        assert_eq!(o.metrics_dump.as_deref(), Some("results/dump.json"));
        assert_eq!(o.metrics_interval_secs, 3);
        assert_eq!(o.slow_query_ms, Some(250));
        // A missing or flag-shaped path is an error, not a silent skip.
        assert!(ServerCliOpts::from_args(&args(&["--metrics-dump"])).is_err());
        assert!(ServerCliOpts::from_args(&args(&["--metrics-dump", "--raw"])).is_err());
        assert!(ServerCliOpts::from_args(&args(&["--slow-query-ms", "0"])).is_err());
    }

    #[test]
    fn tracing_flags_parse() {
        let o = ServerCliOpts::from_args(&args(&[])).expect("defaults parse");
        assert!(o.trace_sample.is_none());
        assert!(o.trace_buffer.is_none());
        assert!(o.slow_query_ring.is_none());
        assert!(o.watch.is_none());
        assert!(o.chrome.is_none());
        let o = ServerCliOpts::from_args(&args(&[
            "--trace-sample",
            "8",
            "--trace-buffer",
            "2048",
            "--slow-query-ring",
            "16",
            "--watch",
            "2",
            "--chrome",
            "results/trace.json",
        ]))
        .expect("tracing flags parse");
        assert_eq!(o.trace_sample, Some(8));
        assert_eq!(o.trace_buffer, Some(2048));
        assert_eq!(o.slow_query_ring, Some(16));
        assert_eq!(o.watch, Some(2));
        assert_eq!(o.chrome.as_deref(), Some("results/trace.json"));
        // Zero is "disabled" spelled wrong — reject it rather than
        // silently arming a meaningless cadence.
        assert!(ServerCliOpts::from_args(&args(&["--trace-sample", "0"])).is_err());
        assert!(ServerCliOpts::from_args(&args(&["--slow-query-ring", "0"])).is_err());
        // A missing or flag-shaped path is an error, not a silent skip.
        assert!(ServerCliOpts::from_args(&args(&["--chrome"])).is_err());
        assert!(ServerCliOpts::from_args(&args(&["--chrome", "--raw"])).is_err());
    }

    #[test]
    fn metrics_delta_subtracts_and_recomputes_percentiles() {
        let before = r#"{"metrics": {"counters": {"service.hamming.queries": 10, "server.errors": 2},
            "gauges": {},
            "histograms": {"server.hamming.latency_us": {"count": 4, "sum": 100,
                "p50": 16, "p95": 64, "p99": 64,
                "buckets": {"16": 3, "64": 1}}}}}"#;
        let after = r#"{"metrics": {"counters": {"service.hamming.queries": 16, "server.errors": 2},
            "gauges": {},
            "histograms": {"server.hamming.latency_us": {"count": 10, "sum": 1300,
                "p50": 16, "p95": 256, "p99": 256,
                "buckets": {"16": 7, "64": 1, "256": 2}}}}}"#;
        let delta = metrics_delta_json(before, after).expect("delta computes");
        let doc = telemetry_json::parse(&delta).expect("delta is valid JSON");
        let counters = doc.get("counters").expect("counters");
        assert_eq!(
            counters
                .get("service.hamming.queries")
                .and_then(telemetry_json::Value::as_u64),
            Some(6)
        );
        // Unmoved counters are elided from the delta.
        assert!(counters.get("server.errors").is_none());
        let h = doc
            .get("histograms")
            .and_then(|h| h.get("server.hamming.latency_us"))
            .expect("histogram delta");
        let field = |k: &str| h.get(k).and_then(telemetry_json::Value::as_u64);
        assert_eq!(field("count"), Some(6));
        assert_eq!(field("sum"), Some(1200));
        // Interval buckets: {16: 4, 256: 2} ⇒ p50 lands in 16, p95/p99
        // in 256 — percentiles of the interval, not the cumulative run.
        assert_eq!(field("p50"), Some(16));
        assert_eq!(field("p95"), Some(256));
        assert_eq!(field("p99"), Some(256));
    }
}
