//! The TCP frontend: connection handling (one nonblocking reactor
//! thread) and the weighted-fair dispatchers between the per-domain
//! lanes and the worker pool.
//!
//! Data path of one request (wire v2):
//!
//! ```text
//! client ══frames══▶ reactor (1 thread, epoll) ──try_push──▶ FairQueue
//!   ║          readable: FrameDecoder ▶ handle_payload  (4 lanes, ≤ Q each)
//!   ║               │ lane full? ▶ Busy{id} ─┐     │
//!   ║          dispatchers (D threads) ◀──WRR pop_batch(≤ B)──┘
//!   ║               │ streams Response{id} per domain group
//!   ║               ▼ ReplySink ──pending + waker──▶ reactor
//! client ◀══frames══ per-connection write buffer, EPOLLOUT re-armed
//! ```
//!
//! * **Readiness, not threads**: one reactor thread owns every
//!   connection — accepting, incrementally decoding frames on
//!   readable events ([`FrameDecoder`](crate::wire::FrameDecoder)),
//!   and draining per-connection write buffers on writable events. Connection count costs file
//!   descriptors and buffer bytes, never OS threads.
//! * **Pipelining**: frames are admitted without waiting for replies,
//!   so many requests per connection are in flight at once; responses
//!   return in completion order, matched to requests by id — out of
//!   order is normal and expected.
//! * **Backpressure**: each connection may have at most
//!   [`ServerConfig::conn_in_flight`] responses admitted-or-unwritten.
//!   At the cap the reactor stops parsing and drops read interest —
//!   the kernel's receive window fills and the client blocks: honest
//!   TCP backpressure. A client that stops draining its socket for
//!   30 s is torn down (a reactor deadline on the stalled connection)
//!   with a terminal typed error, counted in `server.writer.stalls`.
//! * **Weighted-fair admission**: each domain owns a bounded lane; a
//!   full lane answers [`Response::Busy`] for *that domain only*, so a
//!   graph burst can't consume Hamming's admission budget, and
//!   [`FairQueue::pop_batch`] assembles every micro-batch by weighted
//!   round-robin so no backlog starves another lane. The lane shares
//!   are fixed (`LANE_SHARES`) and only matter when more than `B`
//!   requests are queued; below that a pop takes everything.
//! * **Streamed replies**: the handler answers each domain *group* of a
//!   micro-batch as it completes, cheapest measured group first — see
//!   [`EngineSet::run_streaming`](crate::registry::EngineSet::run_streaming) —
//!   so a cheap reply never waits for the GED share of its own batch.
//!   This shortest-job-first order is the one scheduling decision the
//!   measured per-domain cost drives.
//! * **Fail closed**: any frame that does not decode draws a typed
//!   connection-scoped [`Response::Error`] and the connection winds
//!   down; a handler panic answers that batch's unanswered requests
//!   with typed `Internal` errors instead of hanging clients; a closed
//!   queue (shutdown) answers a *terminal* `Internal` error, not a
//!   retryable `Busy`.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pigeonring_service::{MachineFingerprint, PoolMetrics, WorkerPool};
use pigeonring_telemetry::trace::{kind, TraceBatch, DEFAULT_TRACE_BUFFER};
use pigeonring_telemetry::{
    Counter, Gauge, Histogram, MetricsRegistry, SpanHandle, TraceCollector,
};

use crate::queue::{lane_of, lock_recover, FairQueue, PushError, NUM_LANES};
use crate::registry::EngineSet;
use crate::wire::{
    decode_request, encode_response, Domain, DomainQuery, ErrorCode, Request, Response, WireError,
    CONNECTION_REQUEST_ID, MAX_FRAME_LEN, PROTOCOL_VERSION,
};

#[cfg(target_os = "linux")]
use crate::reactor;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Bounded per-lane queue depth `Q` (admission control): request
    /// `Q+1` of a domain while `Q` are buffered in its lane receives
    /// [`Response::Busy`]; other domains' lanes are unaffected.
    pub lane_depth: usize,
    /// Maximum queued requests coalesced into one dispatch `B`.
    pub micro_batch: usize,
    /// Parallel dispatcher threads. More than one lets a fast domain's
    /// batch dispatch while a slow batch is still executing — combined
    /// with streamed replies this is what decouples per-domain tails.
    pub dispatchers: usize,
    /// Per-connection reply budget: the maximum responses a connection
    /// may have admitted-or-unwritten at once. Beyond it the reactor
    /// stops reading the socket (real TCP backpressure) until replies
    /// drain — so a client that pipelines requests but reads replies
    /// slowly cannot grow server memory without bound.
    pub conn_in_flight: usize,
    /// Slow-query threshold in milliseconds: a query whose
    /// admitted-to-answered latency reaches it is echoed to stderr and
    /// kept in the bounded slow-query ring the Stats snapshot exposes.
    /// `None` (the default) disables the log entirely.
    pub slow_query_ms: Option<u64>,
    /// Head-sampling rate for per-request tracing: one admitted query
    /// in `trace_sample` gets a full span timeline. `0` (the default)
    /// disables sampling; EXPLAIN queries are always traced.
    pub trace_sample: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            lane_depth: 64,
            micro_batch: 16,
            dispatchers: 4,
            conn_in_flight: 32,
            slow_query_ms: None,
            trace_sample: 0,
        }
    }
}

/// How many completed slow queries the ring retains for the Stats
/// snapshot (oldest evicted first).
const SLOW_QUERY_RING: usize = 64;

/// How long a connection with buffered replies may accept no bytes
/// before the reactor declares the client wedged and tears it down
/// (which frees its buffered replies).
pub(crate) const WRITER_STALL_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// Items each lane contributes per round-robin sweep of a dispatch
/// micro-batch, in [`Domain::ALL`] order — hamming, editdist, setsim,
/// graph. Fixed: they only decide a batch's mix when more than
/// [`ServerConfig::micro_batch`] requests are queued.
const LANE_SHARES: [usize; NUM_LANES] = [8, 4, 8, 2];

/// Where a finished response goes: the owning connection's reactor
/// token plus the mailbox the reactor drains when woken. Dispatchers
/// and the inline Stats/Trace answers all reply through
/// [`ReplySink::send`].
#[derive(Clone)]
pub(crate) struct ReplySink {
    pub(crate) conn: u64,
    #[cfg(target_os = "linux")]
    pub(crate) shared: Arc<reactor::ReactorShared>,
}

impl ReplySink {
    /// Delivers one response toward the owning connection. Delivery to
    /// a connection that already went away is silently dropped, like a
    /// send on a closed channel.
    pub(crate) fn send(&self, response: Response) {
        #[cfg(target_os = "linux")]
        self.shared.send(self.conn, response);
        // No reactor exists off Linux (`start` fails), so no sink does.
        #[cfg(not(target_os = "linux"))]
        let _ = (self.conn, response);
    }
}

/// One queued request: the decoded query, the id to echo, and the
/// connection's reply sink (shared by every in-flight request of that
/// connection).
pub(crate) struct Job {
    request_id: u64,
    query: DomainQuery,
    domain: Domain,
    admitted_at: Instant,
    reply: ReplySink,
    trace: Option<JobTrace>,
}

/// Trace context riding along a sampled (or EXPLAIN) job: the root
/// span opened at admission, and whether the answer must carry the
/// span tree inline ([`Response::Explained`]).
#[derive(Clone, Copy)]
struct JobTrace {
    root: SpanHandle,
    explain: bool,
}

/// One completed query that crossed [`ServerConfig::slow_query_ms`]:
/// kept in a bounded ring for the Stats snapshot and echoed to stderr
/// as it happens.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// The query's domain.
    pub domain: Domain,
    /// The request id the client chose for it.
    pub request_id: u64,
    /// Admitted-to-answered latency in microseconds (queue wait plus
    /// execution).
    pub latency_us: u64,
    /// Server uptime in milliseconds when the query completed.
    pub at_ms: u64,
    /// The trace id, when the query was sampled (its trace is pinned
    /// in the collector, so `repro trace` can still fetch it).
    pub trace_id: Option<u64>,
    /// Per-stage candidate counts from the trace's stage markers
    /// (empty for untraced queries).
    pub stages: Vec<(&'static str, u64)>,
}

/// All of a running server's telemetry: the [`MetricsRegistry`] every
/// layer records into (lanes, dispatchers, writer, worker pool, engine
/// stage counters) plus the slow-query ring. One instance exists per
/// server; [`ServerHandle::metrics`] exposes it and
/// [`ServerMetrics::stats_json`] renders the live snapshot the
/// `Request::Stats` wire endpoint returns.
pub struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    started: Instant,
    /// Host fingerprint, rendered once — snapshots embed it so an
    /// artifact is attributable to the machine that produced it.
    machine_json: String,
    admitted: [Arc<Counter>; NUM_LANES],
    busy: [Arc<Counter>; NUM_LANES],
    latency_us: [Arc<Histogram>; NUM_LANES],
    queue_wait_us: [Arc<Histogram>; NUM_LANES],
    pub(crate) errors: Arc<Counter>,
    pub(crate) frames_rejected: Arc<Counter>,
    dispatch_batch: Arc<Histogram>,
    pub(crate) writer_stalls: Arc<Counter>,
    /// Open connections right now.
    pub(crate) conns: Arc<Gauge>,
    /// Reactor poll returns.
    pub(crate) reactor_wakeups: Arc<Counter>,
    /// Readiness events delivered per poll return.
    pub(crate) reactor_events_per_wake: Arc<Histogram>,
    /// Write-buffer flush passes that made progress on a socket.
    pub(crate) reactor_write_flushes: Arc<Counter>,
    slow_query_us: Option<u64>,
    slow_queries: Mutex<VecDeque<SlowQuery>>,
    tracer: Arc<TraceCollector>,
}

impl ServerMetrics {
    fn new(config: &ServerConfig) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let lane_counter = |kind: &str| {
            Domain::ALL.map(|domain| registry.counter(&format!("server.lane.{domain}.{kind}")))
        };
        let domain_histogram = |kind: &str| {
            Domain::ALL.map(|domain| registry.histogram(&format!("server.{domain}.{kind}")))
        };
        ServerMetrics {
            started: Instant::now(),
            machine_json: MachineFingerprint::detect().to_json(),
            admitted: lane_counter("admitted"),
            busy: lane_counter("busy"),
            latency_us: domain_histogram("latency_us"),
            queue_wait_us: domain_histogram("queue_wait_us"),
            errors: registry.counter("server.errors"),
            frames_rejected: registry.counter("server.frames_rejected"),
            dispatch_batch: registry.histogram("server.dispatch.batch_size"),
            writer_stalls: registry.counter("server.writer.stalls"),
            conns: registry.gauge("server.conns"),
            reactor_wakeups: registry.counter("server.reactor.wakeups"),
            reactor_events_per_wake: registry.histogram("server.reactor.events_per_wake"),
            reactor_write_flushes: registry.counter("server.reactor.write_flushes"),
            slow_query_us: config.slow_query_ms.map(|ms| ms.saturating_mul(1000)),
            slow_queries: Mutex::new(VecDeque::new()),
            tracer: Arc::new(TraceCollector::new(
                config.trace_sample,
                DEFAULT_TRACE_BUFFER,
            )),
            registry,
        }
    }

    /// The per-request trace collector (sampling decisions, the span
    /// ring, JSON export). `Request::Trace` reads it over the wire.
    pub fn tracer(&self) -> &Arc<TraceCollector> {
        &self.tracer
    }

    /// The registry every server-side metric lives in; callers may
    /// register additional metrics of their own here and they will ride
    /// along in every snapshot.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Milliseconds since the server started.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    /// The retained slow queries, oldest first (empty unless
    /// [`ServerConfig::slow_query_ms`] is set).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        lock_recover(&self.slow_queries).iter().cloned().collect()
    }

    /// Records one answered query: latency histogram, and the
    /// slow-query log when the configured threshold is crossed. A
    /// traced slow query's trace is pinned (eviction-proof) and its
    /// per-stage counts are embedded in the log entry.
    fn record_completion(
        &self,
        domain: Domain,
        request_id: u64,
        latency_us: u64,
        trace_id: Option<u64>,
    ) {
        #[expect(
            clippy::indexing_slicing,
            reason = "lane_of is always < NUM_LANES, the array length"
        )]
        self.latency_us[lane_of(domain)].record(latency_us);
        let Some(threshold) = self.slow_query_us else {
            return;
        };
        if latency_us < threshold {
            return;
        }
        eprintln!(
            "[pigeonring-server] slow query: domain={domain} request_id={request_id} \
             latency_us={latency_us}"
        );
        let stages = match trace_id {
            Some(id) => {
                self.tracer.pin(id);
                self.tracer.stage_breakdown(id)
            }
            None => Vec::new(),
        };
        let mut log = lock_recover(&self.slow_queries);
        if log.len() >= SLOW_QUERY_RING {
            log.pop_front();
        }
        log.push_back(SlowQuery {
            domain,
            request_id,
            latency_us,
            at_ms: self.uptime_ms(),
            trace_id,
            stages,
        });
    }

    /// The live snapshot document `Request::Stats` answers with:
    /// machine fingerprint, uptime, every registered metric, and the
    /// retained slow queries.
    pub fn stats_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"machine\": ");
        out.push_str(&self.machine_json);
        out.push_str(", \"uptime_ms\": ");
        out.push_str(&self.uptime_ms().to_string());
        out.push_str(", \"metrics\": ");
        out.push_str(&self.registry.snapshot().to_json());
        out.push_str(", \"slow_queries\": [");
        for (i, sq) in self.slow_queries().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let trace_id = match sq.trace_id {
                Some(id) => id.to_string(),
                None => "null".to_string(),
            };
            let stages = sq
                .stages
                .iter()
                .map(|(name, count)| format!("\"{name}\": {count}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "{{\"domain\": \"{}\", \"request_id\": {}, \"latency_us\": {}, \"at_ms\": {}, \
                 \"trace_id\": {}, \"stages\": {{{}}}}}",
                sq.domain, sq.request_id, sq.latency_us, sq.at_ms, trace_id, stages
            ));
        }
        out.push_str("]}");
        out
    }
}

/// A batch handler: answers one micro-batch of queries by calling
/// `emit(slot, response)` once per query, in whatever order it
/// completes them (the dispatcher stamps request ids on). The
/// [`TraceBatch`] says which slots are traced — untraced batches are
/// the common, zero-cost case and handlers that don't trace may ignore
/// it. Production uses [`EngineSet::run_streaming`] on a shared
/// [`WorkerPool`]; tests inject stalling handlers to exercise
/// admission control and out-of-order completion.
pub type Handler =
    Arc<dyn Fn(Vec<DomainQuery>, &TraceBatch, &mut dyn FnMut(usize, Response)) + Send + Sync>;

/// A running server; dropping (or calling [`ServerHandle::shutdown`])
/// stops accepting and joins the dispatchers.
pub struct ServerHandle {
    addr: SocketAddr,
    queue: Arc<FairQueue<Job>>,
    /// Per-lane depth gauges ([`Domain::ALL`] order), maintained by the
    /// queue at push and pop.
    lane_depths: [Arc<Gauge>; NUM_LANES],
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    /// The event loop's thread + wake handle.
    #[cfg(target_os = "linux")]
    reactor: reactor::ReactorControl,
    dispatch_threads: Vec<std::thread::JoinHandle<()>>,
}

/// Starts a server answering from `engines` with `pool` as the
/// execution backend. The listener should already be bound (use port 0
/// for tests); the reactor and dispatcher threads are spawned here (on
/// a target other than Linux there is no reactor and this returns
/// `Unsupported`). The engine set's stage counters and the worker
/// pool's utilization metrics are attached to the server's registry, so
/// the Stats snapshot covers every layer.
pub fn start(
    listener: TcpListener,
    engines: Arc<EngineSet>,
    pool: WorkerPool,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let metrics = Arc::new(ServerMetrics::new(&config));
    engines.attach_metrics(metrics.registry());
    pool.attach_metrics(PoolMetrics::register(metrics.registry()));
    let handler: Handler = Arc::new(move |queries, traces, emit| {
        engines.run_streaming(&pool, queries, traces, emit);
    });
    start_inner(listener, handler, config, metrics)
}

/// [`start`], but with an arbitrary batch handler (test seam: inject a
/// stalled handler to hold a lane busy and exercise admission control
/// or out-of-order completion). Server-layer metrics (lanes,
/// dispatchers, writer) are still recorded; engine/pool metrics are the
/// caller's to attach via [`ServerMetrics::registry`].
pub fn start_with_handler(
    listener: TcpListener,
    handler: Handler,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let metrics = Arc::new(ServerMetrics::new(&config));
    start_inner(listener, handler, config, metrics)
}

fn start_inner(
    listener: TcpListener,
    handler: Handler,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
) -> std::io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let queue = Arc::new(FairQueue::<Job>::new(config.lane_depth, LANE_SHARES));
    let lane_depths = Domain::ALL.map(|domain| {
        metrics
            .registry
            .gauge(&format!("server.lane.{domain}.depth"))
    });
    queue.attach_depth_gauges(lane_depths.clone());
    let stop = Arc::new(AtomicBool::new(false));

    let dispatch_threads = (0..config.dispatchers.max(1))
        .map(|i| {
            let queue = Arc::clone(&queue);
            let handler = Arc::clone(&handler);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name(format!("pigeonring-dispatch-{i}"))
                .spawn(move || dispatch_loop(&queue, &handler, config.micro_batch, &metrics))
        })
        .collect::<std::io::Result<Vec<_>>>()?;

    #[cfg(target_os = "linux")]
    {
        let reactor = reactor::spawn(
            listener,
            Arc::clone(&queue),
            Arc::clone(&stop),
            Arc::clone(&metrics),
            config.conn_in_flight,
        )?;
        Ok(ServerHandle {
            addr,
            queue,
            lane_depths,
            stop,
            metrics,
            reactor,
            dispatch_threads,
        })
    }
    #[cfg(not(target_os = "linux"))]
    {
        queue.close(); // the dispatchers just spawned exit
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the reactor requires Linux (epoll)",
        ))
    }
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when bound to 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests currently buffered across all lanes, read from the
    /// per-lane depth gauges (no queue mutex taken).
    pub fn queue_len(&self) -> usize {
        Domain::ALL.iter().map(|&d| self.lane_len(d)).sum()
    }

    /// Requests currently buffered in one domain's lane, read from its
    /// depth gauge (no queue mutex taken). A pop in progress can make
    /// the gauge transiently read one high or low; exact interior
    /// counts are not observable without the lock anyway.
    pub fn lane_len(&self, domain: Domain) -> usize {
        let gauge = self.lane_depths.get(lane_of(domain));
        gauge.map_or(0, |g| g.get().max(0) as usize)
    }

    /// The server's telemetry: registry, uptime, slow-query ring.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The live snapshot document (same payload `Request::Stats`
    /// returns over the wire).
    pub fn stats_json(&self) -> String {
        self.metrics.stats_json()
    }

    /// Stops accepting, drains the lanes, and joins the dispatcher
    /// threads (what dropping the handle does, by name).
    pub fn shutdown(self) {}
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Release/Acquire pairs with the reactor loop's load; the flag
        // carries no data, only the shutdown edge.
        self.stop.store(true, Ordering::Release);
        // Wake the reactor so it observes the stop flag and closes the
        // listener; wait for that edge so no connection is accepted
        // after shutdown() returns.
        #[cfg(target_os = "linux")]
        self.reactor.wait_listener_closed();
        self.queue.close();
        for t in self.dispatch_threads.drain(..) {
            let _ = t.join();
        }
        // The reactor itself keeps serving connections that are still
        // open (their queries now draw the terminal "shutting down"
        // error from the closed queue) and exits once the last one
        // closes — join promptly when they are already gone, otherwise
        // detach and let it wind down.
        #[cfg(target_os = "linux")]
        self.reactor.join_or_detach();
    }
}

/// Everything a dispatcher needs to answer (or fail) one slot of a
/// micro-batch. One struct per slot instead of parallel arrays: the
/// emit callback reaches all of it through a single checked
/// `get_mut(slot)`, so a buggy handler emitting an out-of-range slot
/// is ignored rather than panicking the dispatcher.
struct SlotState {
    id: u64,
    domain: Domain,
    admitted: Instant,
    reply: ReplySink,
    trace: Option<JobTrace>,
    answered: bool,
}

/// Pops weighted-fair micro-batches off the lanes and answers them
/// until the queue is closed and drained. Several dispatchers run this
/// loop concurrently; replies carry request ids, so completion order
/// across batches is free to interleave.
fn dispatch_loop(
    queue: &FairQueue<Job>,
    handler: &Handler,
    micro_batch: usize,
    metrics: &ServerMetrics,
) {
    let mut jobs: Vec<Job> = Vec::new();
    while queue.pop_batch(micro_batch, &mut jobs) {
        metrics.dispatch_batch.record(jobs.len() as u64);
        let mut queries = Vec::with_capacity(jobs.len());
        let mut slots: Vec<SlotState> = Vec::with_capacity(jobs.len());
        let mut span_buf = Vec::new();
        for job in jobs.drain(..) {
            let waited_us = job.admitted_at.elapsed().as_micros().min(u64::MAX as u128) as u64;
            #[expect(
                clippy::indexing_slicing,
                reason = "lane_of is always < NUM_LANES, the array length"
            )]
            metrics.queue_wait_us[lane_of(job.domain)].record(waited_us);
            if let Some(t) = &job.trace {
                // The queue-wait span covers admission → this pop;
                // re-dating a fresh child to the root's start makes the
                // interval exact without carrying a second handle.
                let mut wait = metrics.tracer.child_of(t.root.trace_id, t.root.id);
                wait.start_us = t.root.start_us;
                span_buf.push(metrics.tracer.finish(wait, kind::QUEUE_WAIT, "", vec![]));
            }
            queries.push(job.query);
            slots.push(SlotState {
                id: job.request_id,
                domain: job.domain,
                admitted: job.admitted_at,
                reply: job.reply,
                trace: job.trace,
                answered: false,
            });
        }
        metrics.tracer.extend(span_buf);
        let trace_batch = TraceBatch::new(
            Arc::clone(&metrics.tracer),
            slots
                .iter()
                .map(|s| s.trace.map(|t| (t.root.trace_id, t.root.id)))
                .collect(),
        );
        // A panicking handler (engine bug) must not hang this batch's
        // clients, nor kill the dispatcher for future batches; whatever
        // the handler already emitted before the panic stands.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            handler(queries, &trace_batch, &mut |slot, resp| {
                let Some(st) = slots.get_mut(slot) else {
                    return;
                };
                if st.answered {
                    return;
                }
                st.answered = true;
                let latency_us = st.admitted.elapsed().as_micros().min(u64::MAX as u128) as u64;
                // Close (and flush) the root span before exporting
                // or pinning, so the trace is complete the moment
                // the response leaves.
                let resp = match st.trace {
                    Some(t) => {
                        close_root(metrics, t, st.domain);
                        match resp {
                            Response::Results { ids, .. } if t.explain => Response::Explained {
                                request_id: 0, // stamped below
                                ids,
                                json: metrics.tracer.export_trace(t.root.trace_id).pretty(),
                            },
                            other => other,
                        }
                    }
                    None => resp,
                };
                metrics.record_completion(
                    st.domain,
                    st.id,
                    latency_us,
                    st.trace.map(|t| t.root.trace_id),
                );
                if matches!(resp, Response::Error { .. }) {
                    metrics.errors.inc();
                }
                // Receiver gone ⇒ client left; nothing to do.
                st.reply.send(resp.with_request_id(st.id));
            });
        }));
        for st in &slots {
            if !st.answered {
                // A traced query that died still closes its root span,
                // so the exported trace never has dangling parents.
                if let Some(t) = st.trace {
                    close_root(metrics, t, st.domain);
                }
                metrics.errors.inc();
                st.reply.send(Response::Error {
                    request_id: st.id,
                    code: ErrorCode::Internal,
                    message: "query execution failed".into(),
                });
            }
        }
    }
}

/// Finishes a traced query's root span and drains it into the ring.
fn close_root(metrics: &ServerMetrics, t: JobTrace, domain: Domain) {
    let root = metrics
        .tracer
        .finish(t.root, kind::QUERY, domain.as_str(), vec![]);
    metrics.tracer.extend(vec![root]);
}

/// What the connection owner should do after one frame was handled.
pub(crate) enum FrameDisposition {
    /// Keep reading frames.
    Continue,
    /// Protocol error or shutdown: the response just sent is the
    /// connection's last; stop reading and wind the connection down
    /// (after draining buffered replies).
    Terminal,
}

/// Enforces the shared `Hello`-first / reserved-id preconditions of
/// every identified request; on violation, sends the typed
/// connection-scoped error and reports `true` (caller answers
/// [`FrameDisposition::Terminal`]).
fn precondition_failed(
    negotiated: bool,
    request_id: u64,
    sink: &ReplySink,
    metrics: &ServerMetrics,
) -> bool {
    if !negotiated {
        metrics.errors.inc();
        sink.send(Response::Error {
            request_id: CONNECTION_REQUEST_ID,
            code: ErrorCode::Malformed,
            message: "expected Hello as the first frame".into(),
        });
        return true;
    }
    if request_id == CONNECTION_REQUEST_ID {
        metrics.errors.inc();
        sink.send(Response::Error {
            request_id: CONNECTION_REQUEST_ID,
            code: ErrorCode::Malformed,
            message: "request id 0 is reserved for connection-scoped errors".into(),
        });
        return true;
    }
    false
}

/// Decodes and handles one complete frame payload: negotiation,
/// admission (or `Busy`/shutdown refusal), and the inline Stats/Trace
/// answers — the protocol, free of socket I/O; the reactor owns
/// reading, writing and the reply budget. Every call sends exactly one
/// response — immediately, or later via the admitted job's sink.
pub(crate) fn handle_payload(
    payload: &[u8],
    negotiated: &mut bool,
    sink: &ReplySink,
    queue: &FairQueue<Job>,
    metrics: &ServerMetrics,
) -> FrameDisposition {
    match decode_request(payload) {
        Err(e) => {
            // Fail closed on any undecodable frame.
            metrics.frames_rejected.inc();
            metrics.errors.inc();
            sink.send(error_response(&e));
            FrameDisposition::Terminal
        }
        Ok(Request::Hello { max_version }) => {
            if max_version >= PROTOCOL_VERSION {
                *negotiated = true;
                sink.send(Response::HelloOk {
                    version: PROTOCOL_VERSION,
                });
                FrameDisposition::Continue
            } else {
                metrics.errors.inc();
                sink.send(Response::Error {
                    request_id: CONNECTION_REQUEST_ID,
                    code: ErrorCode::UnsupportedVersion,
                    message: format!(
                        "client speaks up to v{max_version}, server requires v{PROTOCOL_VERSION}"
                    ),
                });
                FrameDisposition::Terminal
            }
        }
        Ok(Request::Query {
            request_id,
            query,
            explain,
        }) => {
            if precondition_failed(*negotiated, request_id, sink, metrics) {
                return FrameDisposition::Terminal;
            }
            let domain = query.domain();
            // The head-sampling decision (and the root span's clock)
            // starts here, at admission — queue wait is part of the
            // request's story. EXPLAIN forces it.
            let trace = metrics
                .tracer
                .sample(explain)
                .map(|root| JobTrace { root, explain });
            let job = Job {
                request_id,
                query,
                domain,
                admitted_at: Instant::now(),
                reply: sink.clone(),
                trace,
            };
            match queue.try_push(domain, job) {
                // Pipelining: admitted — do NOT wait for the reply;
                // the dispatcher sends it through the sink directly.
                Ok(()) => {
                    #[expect(clippy::indexing_slicing, reason = "lane_of is always < NUM_LANES")]
                    metrics.admitted[lane_of(domain)].inc();
                    FrameDisposition::Continue
                }
                // This lane is at capacity right now: retryable.
                Err(PushError::Full(_)) => {
                    #[expect(clippy::indexing_slicing, reason = "lane_of is always < NUM_LANES")]
                    metrics.busy[lane_of(domain)].inc();
                    sink.send(Response::Busy { request_id });
                    FrameDisposition::Continue
                }
                // Shutdown: terminal, not Busy — retrying a dying
                // server is a retry storm, not persistence.
                Err(PushError::Closed(_)) => {
                    metrics.errors.inc();
                    sink.send(Response::Error {
                        request_id,
                        code: ErrorCode::Internal,
                        message: "server shutting down".into(),
                    });
                    FrameDisposition::Terminal
                }
            }
        }
        // Stats never enters the queue: it is answered right here on
        // the calling thread, so a snapshot is available even while
        // every lane is saturated (which is exactly when you want
        // one). Same preconditions as a query: negotiated connection,
        // non-reserved id.
        Ok(Request::Stats { request_id }) => {
            if precondition_failed(*negotiated, request_id, sink, metrics) {
                return FrameDisposition::Terminal;
            }
            sink.send(Response::Stats {
                request_id,
                json: metrics.stats_json(),
            });
            FrameDisposition::Continue
        }
        // Trace follows the Stats pattern exactly: answered inline so
        // recent traces stay readable while every lane is saturated.
        Ok(Request::Trace { request_id }) => {
            if precondition_failed(*negotiated, request_id, sink, metrics) {
                return FrameDisposition::Terminal;
            }
            sink.send(Response::Trace {
                request_id,
                json: metrics.tracer.export_recent().pretty(),
            });
            FrameDisposition::Continue
        }
    }
}

/// Encodes a response, substituting a typed `Internal` error (tagged
/// with the same request id) when the encoding exceeds the frame cap (a
/// result set too large for one frame) — the client gets a diagnosable
/// answer instead of a connection that dies on an unsendable frame.
/// Every outbound frame goes through here; nothing calls
/// [`encode_response`] + [`write_frame`] directly.
pub(crate) fn response_payload(response: &Response) -> Vec<u8> {
    let payload = encode_response(response);
    if payload.len() <= MAX_FRAME_LEN as usize {
        return payload;
    }
    encode_response(&Response::Error {
        request_id: response.request_id(),
        code: ErrorCode::Internal,
        message: format!(
            "response of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame cap; \
             narrow the query threshold",
            payload.len()
        ),
    })
}

/// Maps a decode failure to the typed connection-scoped error the peer
/// sees before the connection closes.
pub(crate) fn error_response(e: &WireError) -> Response {
    let code = match e {
        WireError::BadVersion(_) => ErrorCode::UnsupportedVersion,
        _ => ErrorCode::Malformed,
    };
    Response::Error {
        request_id: CONNECTION_REQUEST_ID,
        code,
        message: e.to_string(),
    }
}
