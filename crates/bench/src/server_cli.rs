//! The `repro serve` / `repro query` / `repro stats` / `repro trace` /
//! `repro server-smoke` subcommands: the operator-facing front of the
//! `pigeonring-server` network frontend and its hash gate. (Throughput
//! and latency of the server are measured by `benchmark/`, workloads
//! `tcp_solo` and `tcp_mixed`, not here.)
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
//!   comparable across processes and against in-process runs.
//! * `server-smoke` is the CI gate: in one process it starts a server on
//!   an OS-assigned loopback port, diffs every domain's client-observed
//!   `result_hash` against a direct in-process run on the *same*
//!   engines (any mismatch is a hard failure), checks that EXPLAIN does
//!   not change an answer, and writes the Stats snapshot and the
//!   recent-trace export as schema-gated artifacts.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use pigeonring_server::{
    start, Client, Domain, DomainQuery, EngineSet, EngineSpec, Outcome, Response, ServerConfig,
};
use pigeonring_service::{ResultHasher, WorkerPool};
use pigeonring_telemetry::json as telemetry_json;
use pigeonring_telemetry::{trace::chrome_trace, Snapshot};

use crate::{validate_args, Report, Scale};

/// Parsed flags shared by the server subcommands.
#[derive(Clone, Debug)]
pub struct ServerCliOpts {
    /// Dataset scale (`--quick` / `--paper`).
    pub scale: Scale,
    /// Shard count per domain index.
    pub shards: usize,
    /// Worker threads (defaults to `min(shards, cores)`).
    pub threads: Option<usize>,
    /// TCP port (`serve`/`query`/`stats`/`trace`; `server-smoke` uses
    /// an OS-assigned port).
    pub port: u16,
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
    /// `serve` / `server-smoke`: trace one admitted query in N
    /// (`None` = sampling disabled; EXPLAIN still traces).
    pub trace_sample: Option<u64>,
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
        const BOOL_FLAGS: [&str; 3] = ["--quick", "--paper", "--raw"];
        const VALUE_FLAGS: [&str; 10] = [
            "--shards",
            "--threads",
            "--port",
            "--domain",
            "--metrics-dump",
            "--metrics-interval-secs",
            "--slow-query-ms",
            "--trace-sample",
            "--watch",
            "--chrome",
        ];
        validate_args(args, &BOOL_FLAGS, &VALUE_FLAGS)?;
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
            domain,
            raw: args.iter().any(|a| a == "--raw"),
            metrics_dump,
            metrics_interval_secs: value_of("--metrics-interval-secs")?.unwrap_or(10),
            slow_query_ms: value_of("--slow-query-ms")?.map(|ms| ms as u64),
            trace_sample: value_of("--trace-sample")?.map(|n| n as u64),
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
            slow_query_ms: self.slow_query_ms,
            trace_sample: self.trace_sample.unwrap_or(defaults.trace_sample),
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
    let config = opts.server_config();
    let handle =
        start(listener, engines, pool, config).map_err(|e| format!("cannot start server: {e}"))?;
    println!(
        "pigeonring-server listening on {} (lane depth {}, micro-batch {}, {} workers)",
        handle.addr(),
        config.lane_depth,
        config.micro_batch,
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
    let mut rep = Report::new("server_query", "domain,queries,results,busy,result_hash");
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

/// `repro server-smoke`: the CI gate. One process, an OS-assigned
/// loopback port; every domain's client-observed result hash must equal
/// a direct in-process run on the same engines, then the Stats snapshot
/// and the recent-trace export are written as artifacts.
fn server_smoke(opts: &ServerCliOpts) -> Result<(), String> {
    eprintln!(
        "server-smoke: building engines at {:?} scale...",
        opts.scale
    );
    let engines = Arc::new(EngineSet::build(opts.spec()));
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
        "domain,queries,server_hash,inproc_hash,match",
    );
    let mut mismatches = Vec::new();
    // Sample every domain's query set once; the hash loop and the
    // EXPLAIN round below share it (sampling regenerates whole datasets).
    let query_sets: Vec<Vec<DomainQuery>> = Domain::ALL
        .iter()
        .map(|&d| engines.spec().sample_queries(d))
        .collect();
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

    // The Stats snapshot after the hash round is a CI-gated artifact:
    // jq checks per-lane gauges, per-domain query counters, and the
    // embedded machine fingerprint.
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let snapshot = client
        .stats()
        .map_err(|e| format!("server did not answer Stats: {e}"))?;
    std::fs::write("results/server_stats.json", &snapshot)
        .map_err(|e| format!("cannot write results/server_stats.json: {e}"))?;
    println!("wrote results/server_stats.json");
    // EXPLAIN must not change the answer, and it forces tracing: one
    // explained query per domain, last (so its spans cannot be evicted
    // by sampled traffic), both diffs the flagged path's ids against
    // the plain path and guarantees every domain has a root span in the
    // recent-trace artifact, whatever the sampling cadence did.
    for (domain, queries) in Domain::ALL.into_iter().zip(query_sets.iter()) {
        let (explained_ids, span_tree) = client
            .explain(queries[0].clone())
            .map_err(|e| format!("EXPLAIN failed for {domain}: {e}"))?;
        match client
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
    // EXPLAIN round traced one query per domain, and the hash round
    // adds sampled traces when --trace-sample is armed.
    let traces = client
        .trace()
        .map_err(|e| format!("server did not answer Trace: {e}"))?;
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
        assert!(o.domain.is_none());
        let config = o.server_config();
        let defaults = ServerConfig::default();
        assert_eq!(
            (config.lane_depth, config.micro_batch),
            (defaults.lane_depth, defaults.micro_batch)
        );
        let o =
            ServerCliOpts::from_args(&args(&["--quick", "--port", "9000", "--domain", "graph"]))
                .expect("flags parse");
        assert_eq!(o.scale, Scale::Quick);
        assert_eq!(o.port, 9000);
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
        // The load generator's knobs went with it; lane depth,
        // micro-batch size, span-ring and slow-query-ring capacity are
        // the server's fixed defaults.
        for flag in [
            "--conns",
            "--requests",
            "--pipeline",
            "--mix",
            "--queue",
            "--batch",
            "--trace-buffer",
            "--slow-query-ring",
        ] {
            let err = ServerCliOpts::from_args(&args(&[flag, "2"])).unwrap_err();
            assert!(err.contains(&format!("unknown flag {flag:?}")), "{err}");
        }
        // `serve quick` must not silently build full-size engines.
        let err = ServerCliOpts::from_args(&args(&["quick", "--port", "1"])).unwrap_err();
        assert!(err.contains("unexpected argument \"quick\""), "{err}");
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
        assert!(o.watch.is_none());
        assert!(o.chrome.is_none());
        let o = ServerCliOpts::from_args(&args(&[
            "--trace-sample",
            "8",
            "--watch",
            "2",
            "--chrome",
            "results/trace.json",
        ]))
        .expect("tracing flags parse");
        assert_eq!(o.trace_sample, Some(8));
        assert_eq!(o.watch, Some(2));
        assert_eq!(o.chrome.as_deref(), Some("results/trace.json"));
        // Zero is "disabled" spelled wrong — reject it rather than
        // silently arming a meaningless cadence.
        assert!(ServerCliOpts::from_args(&args(&["--trace-sample", "0"])).is_err());
        // A missing or flag-shaped path is an error, not a silent skip.
        assert!(ServerCliOpts::from_args(&args(&["--chrome"])).is_err());
        assert!(ServerCliOpts::from_args(&args(&["--chrome", "--raw"])).is_err());
    }
}
