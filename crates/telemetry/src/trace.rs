//! Span-based per-request tracing.
//!
//! PR 7's metrics answer "how is the server doing"; this module
//! answers "why was *this* query slow". A sampled request gets a
//! **trace**: a tree of spans — monotonic-clock intervals with
//! parent/child links — covering queue wait, dispatch, planning, the
//! worker-pool fan-out, per-shard execution, and one zero-duration
//! child span per filter-chain stage carrying that stage's candidate
//! count (the paper's per-stage pruning power, figs. 5–8, per
//! request instead of per run).
//!
//! Design constraints, in order:
//!
//! * **Near-zero cost when disabled.** The sampling decision is one
//!   relaxed atomic fetch-add on admission; untraced requests never
//!   allocate, never lock, and never construct a span. The CI bench
//!   gate holds the disabled path under 1% overhead.
//! * **No per-span locking when enabled.** Each layer brackets its
//!   work with [`TraceScope::span`], which opens one span per traced
//!   query of the work, and drains them into the bounded central ring
//!   with a single lock acquisition via [`TraceCollector::extend`].
//! * **Bounded memory.** The ring holds at most `capacity` spans;
//!   older spans are evicted (and counted) as new ones arrive. Traces
//!   of queries that crossed the slow-query threshold can be
//!   [`pinned`](TraceCollector::pin) so eviction cannot erase exactly
//!   the traces an operator most wants to read — that is the
//!   always-keep-on-slow coupling to the slow-query ring.
//!
//! Timestamps are microseconds since the collector's creation
//! (`Instant`-based, so monotonic and immune to wall-clock steps);
//! span ids are allocated from one process-wide counter so a parent
//! link is valid across threads. Span id 0 is reserved to mean "no
//! parent" (a root span).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Value;

/// Span-ring capacity of a server's collector.
pub const DEFAULT_TRACE_BUFFER: usize = 4096;

/// How many slow traces the pinned store retains before the oldest
/// pinned trace is dropped.
const MAX_PINNED_TRACES: usize = 16;

/// Span kinds, one per instrumented layer. Stable strings: they are
/// the `kind` field of the exported JSON and the `cat` field of the
/// Chrome trace events.
pub mod kind {
    /// Root span of a traced request (name = domain).
    pub const QUERY: &str = "query";
    /// Admission → dispatcher pop of the request's lane entry.
    pub const QUEUE_WAIT: &str = "queue_wait";
    /// One param-group execution inside a dispatcher batch.
    pub const DISPATCH: &str = "dispatch";
    /// Plan-once phase of a group (dictionary lookups, signature
    /// enumeration).
    pub const PLAN: &str = "plan";
    /// Worker-pool fan-out window: first submit → last shard
    /// collected.
    pub const POOL: &str = "pool";
    /// One shard's execution of the group, measured on the worker.
    pub const SHARD: &str = "shard";
    /// Zero-duration stage marker; name = the engine's `MergeStats`
    /// field, `count` tag = the merged per-query value.
    pub const STAGE: &str = "stage";
}

/// A finished span. Plain data; built on the emitting thread and
/// moved into the collector with [`TraceCollector::extend`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// Unique (process-wide) span id, never 0.
    pub id: u64,
    /// Parent span id; 0 for a trace's root span.
    pub parent: u64,
    /// Layer that emitted the span (see [`kind`]).
    pub kind: &'static str,
    /// Detail within the kind (domain for `query`, stage field for
    /// `stage`); empty when the kind says it all.
    pub name: &'static str,
    /// Microseconds since the collector's epoch.
    pub start_us: u64,
    /// Span duration in microseconds (0 for instant markers).
    pub dur_us: u64,
    /// Numeric annotations (shard index, batch size, stage counts…).
    pub tags: Vec<(&'static str, u64)>,
}

impl Span {
    fn to_json(&self) -> Value {
        let mut entries = vec![
            ("id".to_string(), Value::Num(self.id as f64)),
            ("parent".to_string(), Value::Num(self.parent as f64)),
            ("kind".to_string(), Value::Str(self.kind.to_string())),
            ("name".to_string(), Value::Str(self.name.to_string())),
            ("start_us".to_string(), Value::Num(self.start_us as f64)),
            ("dur_us".to_string(), Value::Num(self.dur_us as f64)),
        ];
        if !self.tags.is_empty() {
            let tags = self
                .tags
                .iter()
                .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
                .collect();
            entries.push(("tags".to_string(), Value::Obj(tags)));
        }
        Value::Obj(entries)
    }
}

/// An open span: the identifiers plus the start timestamp. `Copy`, so
/// it can be carried through queues and closures freely; nothing is
/// recorded until [`TraceCollector::finish`] turns it into a [`Span`].
#[derive(Debug, Clone, Copy)]
pub struct SpanHandle {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Start timestamp, µs since the collector epoch.
    pub start_us: u64,
}

struct Ring {
    spans: VecDeque<Span>,
    /// Spans of pinned (slow) traces, exempt from ring eviction.
    pinned: VecDeque<Span>,
    /// Pin order, oldest first; bounds the pinned store.
    pinned_order: VecDeque<u64>,
    dropped: u64,
}

/// The process-wide trace sink: sampling decisions, span-id
/// allocation, and the bounded ring of recent spans.
pub struct TraceCollector {
    epoch: Instant,
    sample_every: u64,
    admitted: AtomicU64,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    capacity: usize,
    inner: Mutex<Ring>,
}

impl TraceCollector {
    /// A collector sampling one request in `sample_every` (0 disables
    /// head sampling; EXPLAIN-forced traces still work) retaining at
    /// most `capacity` spans.
    pub fn new(sample_every: u64, capacity: usize) -> Self {
        TraceCollector {
            epoch: Instant::now(),
            sample_every,
            admitted: AtomicU64::new(0),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            capacity: capacity.max(1),
            inner: Mutex::new(Ring {
                spans: VecDeque::new(),
                pinned: VecDeque::new(),
                pinned_order: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    /// The configured head-sampling rate (0 = disabled).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Microseconds since the collector was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Head-sampling decision for a newly admitted request. Returns
    /// the open root span for sampled requests. `force` (the EXPLAIN
    /// flag) traces regardless of the sampling rate. The disabled,
    /// unforced path is a single relaxed atomic add.
    pub fn sample(&self, force: bool) -> Option<SpanHandle> {
        if !force {
            if self.sample_every == 0 {
                return None;
            }
            let n = self.admitted.fetch_add(1, Ordering::Relaxed);
            if n % self.sample_every != 0 {
                return None;
            }
        }
        let trace_id = self.next_trace.fetch_add(1, Ordering::Relaxed);
        Some(SpanHandle {
            trace_id,
            id: self.next_span.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            start_us: self.now_us(),
        })
    }

    /// Opens a child span under span `parent` of trace `trace_id`,
    /// starting now.
    pub fn child_of(&self, trace_id: u64, parent: u64) -> SpanHandle {
        SpanHandle {
            trace_id,
            id: self.next_span.fetch_add(1, Ordering::Relaxed),
            parent,
            start_us: self.now_us(),
        }
    }

    /// Closes an open span: duration = now − start. The result still
    /// has to be handed to [`extend`](Self::extend).
    pub fn finish(
        &self,
        h: SpanHandle,
        kind: &'static str,
        name: &'static str,
        tags: Vec<(&'static str, u64)>,
    ) -> Span {
        Span {
            trace_id: h.trace_id,
            id: h.id,
            parent: h.parent,
            kind,
            name,
            start_us: h.start_us,
            dur_us: self.now_us().saturating_sub(h.start_us),
            tags,
        }
    }

    /// A zero-duration marker span (stage counts), stamped now.
    pub fn instant(
        &self,
        trace_id: u64,
        parent: u64,
        kind: &'static str,
        name: &'static str,
        tags: Vec<(&'static str, u64)>,
    ) -> Span {
        Span {
            trace_id,
            id: self.next_span.fetch_add(1, Ordering::Relaxed),
            parent,
            kind,
            name,
            start_us: self.now_us(),
            dur_us: 0,
            tags,
        }
    }

    /// Drains a thread-local span buffer into the ring: one lock
    /// acquisition for the whole batch. Evicts oldest spans (counted
    /// in `dropped_spans`) once the ring exceeds its capacity.
    pub fn extend(&self, buf: Vec<Span>) {
        if buf.is_empty() {
            return;
        }
        let mut ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for span in buf {
            ring.spans.push_back(span);
        }
        while ring.spans.len() > self.capacity {
            ring.spans.pop_front();
            ring.dropped += 1;
        }
    }

    /// Pins a trace: copies its spans into the pinned store, which
    /// ring eviction cannot touch (bounded by dropping the *oldest
    /// pinned trace* past a fixed cap). Called when a traced
    /// query crosses the slow-query threshold, so slow-query log
    /// entries always have their trace to link to.
    pub fn pin(&self, trace_id: u64) {
        let mut ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if ring.pinned_order.contains(&trace_id) {
            return;
        }
        let spans: Vec<Span> = ring
            .spans
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .cloned()
            .collect();
        if spans.is_empty() {
            return;
        }
        ring.pinned.extend(spans);
        ring.pinned_order.push_back(trace_id);
        while ring.pinned_order.len() > MAX_PINNED_TRACES {
            let evict = ring.pinned_order.pop_front().expect("non-empty");
            ring.pinned.retain(|s| s.trace_id != evict);
        }
    }

    /// The per-stage candidate counts recorded for `trace_id` (from
    /// its `stage` marker spans), for embedding in slow-query log
    /// entries. Empty if the trace is gone or had no stage spans.
    pub fn stage_breakdown(&self, trace_id: u64) -> Vec<(&'static str, u64)> {
        let ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        for span in ring.pinned.iter().chain(ring.spans.iter()) {
            if span.trace_id == trace_id && span.kind == kind::STAGE {
                if let Some((_, count)) = span.tags.iter().find(|(k, _)| *k == "count") {
                    if !out.iter().any(|(n, _)| *n == span.name) {
                        out.push((span.name, *count));
                    }
                }
            }
        }
        out
    }

    /// One trace as JSON: `{"trace_id": …, "spans": [...]}` with spans
    /// in start order. Used by the EXPLAIN reply.
    pub fn export_trace(&self, trace_id: u64) -> Value {
        let ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let spans = collect_trace(&ring, trace_id);
        trace_to_json(trace_id, &spans)
    }

    /// Every trace currently retained (pinned slow traces first, then
    /// the ring's, oldest first), as one JSON document:
    /// `{"sample_every", "dropped_spans", "traces": [...]}`. This is
    /// the `Request::Trace` payload.
    pub fn export_recent(&self) -> Value {
        let ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut order: Vec<u64> = Vec::new();
        for id in ring
            .pinned_order
            .iter()
            .chain(ring.spans.iter().map(|s| &s.trace_id))
        {
            if !order.contains(id) {
                order.push(*id);
            }
        }
        let traces: Vec<Value> = order
            .iter()
            .map(|&id| trace_to_json(id, &collect_trace(&ring, id)))
            .collect();
        Value::Obj(vec![
            (
                "sample_every".to_string(),
                Value::Num(self.sample_every as f64),
            ),
            ("dropped_spans".to_string(), Value::Num(ring.dropped as f64)),
            ("traces".to_string(), Value::Arr(traces)),
        ])
    }
}

fn collect_trace(ring: &Ring, trace_id: u64) -> Vec<Span> {
    let mut spans: Vec<Span> = Vec::new();
    for span in ring.pinned.iter().chain(ring.spans.iter()) {
        if span.trace_id == trace_id && !spans.iter().any(|s| s.id == span.id) {
            spans.push(span.clone());
        }
    }
    spans.sort_by_key(|s| (s.start_us, s.id));
    spans
}

fn trace_to_json(trace_id: u64, spans: &[Span]) -> Value {
    Value::Obj(vec![
        ("trace_id".to_string(), Value::Num(trace_id as f64)),
        (
            "spans".to_string(),
            Value::Arr(spans.iter().map(Span::to_json).collect()),
        ),
    ])
}

/// Per-batch trace context the dispatcher hands to the execution
/// handler: which queries (by emit slot) are traced, and under which
/// `(trace_id, root span id)`. [`TraceBatch::untraced`] is the
/// zero-cost common case.
pub struct TraceBatch {
    collector: Option<Arc<TraceCollector>>,
    targets: Vec<Option<(u64, u64)>>,
}

impl TraceBatch {
    /// A batch with no traced queries (handler fast path).
    pub fn untraced(n: usize) -> Self {
        TraceBatch {
            collector: None,
            targets: vec![None; n],
        }
    }

    /// A batch with per-slot targets (`None` = untraced slot).
    pub fn new(collector: Arc<TraceCollector>, targets: Vec<Option<(u64, u64)>>) -> Self {
        let collector = targets.iter().any(Option::is_some).then_some(collector);
        TraceBatch { collector, targets }
    }

    /// The collector, if any slot is traced.
    pub fn collector(&self) -> Option<&Arc<TraceCollector>> {
        self.collector.as_ref()
    }

    /// `(trace_id, root span id)` for a slot, if that query is traced.
    pub fn target(&self, slot: usize) -> Option<(u64, u64)> {
        self.collector.as_ref()?;
        self.targets.get(slot).copied().flatten()
    }

    /// The scope of the traced queries among `slots`, parented on their
    /// roots; `None` when none of them is traced.
    pub fn scope(&self, slots: &[usize]) -> Option<TraceScope> {
        let collector = self.collector.as_ref()?;
        let targets: Vec<(u64, u64)> = slots.iter().filter_map(|&s| self.target(s)).collect();
        (!targets.is_empty()).then(|| TraceScope {
            collector: Arc::clone(collector),
            targets,
        })
    }
}

/// Where one layer's spans go: every traced query of the work at hand,
/// with the span that layer parents its children under. Cloned into
/// worker-pool jobs, so each shard's spans are emitted where it runs.
#[derive(Clone)]
pub struct TraceScope {
    /// The sink spans are drained into.
    pub collector: Arc<TraceCollector>,
    /// `(trace_id, parent span id)` per traced query.
    pub targets: Vec<(u64, u64)>,
}

impl TraceScope {
    /// Brackets `f` with one `kind` span per traced query: opens a child
    /// under each parent of `scope`, runs `f` with the scope of those new
    /// spans, then finishes them with `tags` and drains them into the
    /// ring with a single [`TraceCollector::extend`] — so they are in
    /// the ring when `span` returns. With `None` it only calls
    /// `f(None)`: no allocation, no clock read, no lock.
    pub fn span<T>(
        scope: Option<&TraceScope>,
        kind: &'static str,
        tags: &[(&'static str, u64)],
        f: impl FnOnce(Option<&TraceScope>) -> T,
    ) -> T {
        let Some(TraceScope { collector, targets }) = scope else {
            return f(None);
        };
        let open: Vec<SpanHandle> = targets
            .iter()
            .map(|&(t, p)| collector.child_of(t, p))
            .collect();
        let inner = TraceScope {
            collector: Arc::clone(collector),
            targets: open.iter().map(|h| (h.trace_id, h.id)).collect(),
        };
        let out = f(Some(&inner));
        let finish = |h| collector.finish(h, kind, "", tags.to_vec());
        collector.extend(open.into_iter().map(finish).collect());
        out
    }
}

/// Converts an exported trace document (the [`export_recent`]
/// shape, or anything with a `"traces"` array) into Chrome
/// trace-event JSON loadable in Perfetto / `chrome://tracing`:
/// `{"traceEvents": [...]}` with one complete (`"ph": "X"`) event per
/// span and one row (tid) per trace.
///
/// [`export_recent`]: TraceCollector::export_recent
pub fn chrome_trace(doc: &Value) -> Result<String, String> {
    let traces = match doc.get("traces") {
        Some(Value::Arr(items)) => items.as_slice(),
        _ => return Err("document has no \"traces\" array".to_string()),
    };
    let mut events: Vec<Value> = Vec::new();
    for (ti, trace) in traces.iter().enumerate() {
        let tid = (ti + 1) as f64;
        let trace_id = trace
            .get("trace_id")
            .and_then(Value::as_u64)
            .ok_or("trace entry is missing \"trace_id\"")?;
        let spans = match trace.get("spans") {
            Some(Value::Arr(items)) => items.as_slice(),
            _ => return Err("trace entry has no \"spans\" array".to_string()),
        };
        // A metadata event names the row after the trace's root span.
        let root_name = spans
            .iter()
            .find(|s| s.get("parent").and_then(Value::as_u64) == Some(0))
            .and_then(|s| s.get("name").and_then(Value::as_str))
            .unwrap_or("");
        events.push(Value::Obj(vec![
            ("name".to_string(), Value::Str("thread_name".to_string())),
            ("ph".to_string(), Value::Str("M".to_string())),
            ("pid".to_string(), Value::Num(1.0)),
            ("tid".to_string(), Value::Num(tid)),
            (
                "args".to_string(),
                Value::Obj(vec![(
                    "name".to_string(),
                    Value::Str(format!("trace {trace_id} ({root_name})")),
                )]),
            ),
        ]));
        for span in spans {
            let field = |key: &str| {
                span.get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("span is missing numeric \"{key}\""))
            };
            let kind = span
                .get("kind")
                .and_then(Value::as_str)
                .ok_or("span is missing \"kind\"")?;
            let name = span.get("name").and_then(Value::as_str).unwrap_or("");
            let display = if name.is_empty() {
                kind.to_string()
            } else {
                format!("{kind}:{name}")
            };
            let mut args = vec![
                ("trace_id".to_string(), Value::Num(trace_id as f64)),
                ("span_id".to_string(), Value::Num(field("id")? as f64)),
                ("parent".to_string(), Value::Num(field("parent")? as f64)),
            ];
            if let Some(Value::Obj(tags)) = span.get("tags") {
                args.extend(tags.iter().cloned());
            }
            events.push(Value::Obj(vec![
                ("name".to_string(), Value::Str(display)),
                ("cat".to_string(), Value::Str(kind.to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), Value::Num(field("start_us")? as f64)),
                ("dur".to_string(), Value::Num(field("dur_us")? as f64)),
                ("pid".to_string(), Value::Num(1.0)),
                ("tid".to_string(), Value::Num(tid)),
                ("args".to_string(), Value::Obj(args)),
            ]));
        }
    }
    Ok(Value::Obj(vec![("traceEvents".to_string(), Value::Arr(events))]).pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn head_sampling_picks_one_in_n() {
        let c = TraceCollector::new(3, 64);
        let sampled: Vec<bool> = (0..9).map(|_| c.sample(false).is_some()).collect();
        assert_eq!(
            sampled,
            vec![true, false, false, true, false, false, true, false, false]
        );
        // Disabled sampling: nothing sampled, but force still traces.
        let off = TraceCollector::new(0, 64);
        assert!(off.sample(false).is_none());
        assert!(off.sample(true).is_some());
    }

    #[test]
    fn spans_nest_and_export_in_start_order() {
        let c = TraceCollector::new(1, 64);
        let root = c.sample(false).expect("sampled");
        let child = c.child_of(root.trace_id, root.id);
        let buf = vec![
            c.finish(child, kind::DISPATCH, "", vec![("batch", 4)]),
            c.instant(
                root.trace_id,
                root.id,
                kind::STAGE,
                "candidates",
                vec![("count", 17)],
            ),
            c.finish(root, kind::QUERY, "hamming", vec![]),
        ];
        c.extend(buf);

        let doc = c.export_trace(root.trace_id);
        let spans = match doc.get("spans") {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("spans array missing: {other:?}"),
        };
        assert_eq!(spans.len(), 3);
        // Every parent id exists in the trace (or is 0 for the root).
        let ids: Vec<u64> = spans
            .iter()
            .map(|s| s.get("id").and_then(Value::as_u64).unwrap())
            .collect();
        for s in &spans {
            let parent = s.get("parent").and_then(Value::as_u64).unwrap();
            assert!(parent == 0 || ids.contains(&parent), "dangling parent");
        }
        // The root starts first.
        assert_eq!(
            spans[0].get("kind").and_then(Value::as_str),
            Some(kind::QUERY)
        );
        assert_eq!(
            c.stage_breakdown(root.trace_id),
            vec![("candidates", 17u64)]
        );
    }

    #[test]
    fn ring_is_bounded_and_pins_survive_eviction() {
        let c = TraceCollector::new(1, 4);
        let old = c.sample(false).expect("sampled");
        c.extend(vec![c.finish(old, kind::QUERY, "editdist", vec![])]);
        c.pin(old.trace_id);
        // Flood the ring far past capacity.
        for _ in 0..10 {
            let h = c.sample(false).expect("sampled");
            c.extend(vec![c.finish(h, kind::QUERY, "setsim", vec![])]);
        }
        let doc = c.export_recent();
        assert!(doc.get("dropped_spans").and_then(Value::as_u64).unwrap() >= 6);
        // The pinned trace is still exported even though the ring
        // evicted its span long ago — and it is listed first.
        let traces = match doc.get("traces") {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("traces array missing: {other:?}"),
        };
        assert_eq!(traces.len(), 1 + 4, "pinned + ring capacity");
        assert_eq!(
            traces[0].get("trace_id").and_then(Value::as_u64),
            Some(old.trace_id)
        );
    }

    #[test]
    fn chrome_export_is_valid_and_covers_every_span() {
        let c = TraceCollector::new(1, 64);
        let root = c.sample(false).expect("sampled");
        let shard = c.child_of(root.trace_id, root.id);
        c.extend(vec![
            c.finish(shard, kind::SHARD, "", vec![("shard", 1)]),
            c.finish(root, kind::QUERY, "graph", vec![]),
        ]);
        let chrome = chrome_trace(&c.export_recent()).expect("converts");
        let doc = json::parse(&chrome).expect("valid JSON");
        let events = match doc.get("traceEvents") {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("traceEvents missing: {other:?}"),
        };
        // One metadata event + two complete events.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("M"));
        for e in &events[1..] {
            assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
            assert!(e.get("ts").and_then(Value::as_u64).is_some());
            assert!(e.get("dur").and_then(Value::as_u64).is_some());
        }
        assert_eq!(
            events[2].get("name").and_then(Value::as_str),
            Some("shard"),
            "kind-only spans display their kind"
        );
        // Malformed documents are rejected, not mis-rendered.
        assert!(chrome_trace(&Value::Obj(vec![])).is_err());
    }

    #[test]
    fn trace_batch_routes_targets_by_slot() {
        let c = Arc::new(TraceCollector::new(1, 64));
        let none = TraceBatch::untraced(3);
        assert!(none.collector().is_none());
        assert_eq!(none.target(1), None);

        let batch = TraceBatch::new(Arc::clone(&c), vec![None, Some((7, 42)), None]);
        assert!(batch.collector().is_some());
        assert_eq!(batch.target(0), None);
        assert_eq!(batch.target(1), Some((7, 42)));
        assert_eq!(batch.target(9), None, "out of range is just untraced");

        // All-None targets collapse to the untraced fast path.
        let empty = TraceBatch::new(c, vec![None, None]);
        assert!(empty.collector().is_none());
    }

    #[test]
    fn span_scope_opens_one_child_per_parent_and_flushes_on_return() {
        let c = Arc::new(TraceCollector::new(1, 64));
        let mut calls = 0;
        let out = TraceScope::span(None, kind::POOL, &[("shards", 2)], |inner| {
            calls += 1;
            assert!(inner.is_none(), "untraced work stays untraced");
            7
        });
        assert_eq!((out, calls), (7, 1));
        let doc = c.export_recent();
        assert_eq!(
            doc.get("traces"),
            Some(&Value::Arr(vec![])),
            "None records nothing"
        );

        let roots = [c.sample(true).unwrap(), c.sample(true).unwrap()];
        let scope = TraceBatch::new(
            Arc::clone(&c),
            roots.iter().map(|r| Some((r.trace_id, r.id))).collect(),
        )
        .scope(&[0, 1])
        .expect("both slots traced");
        let inner_targets = TraceScope::span(Some(&scope), kind::POOL, &[("shards", 2)], |inner| {
            inner.expect("traced work gets a scope").targets.clone()
        });
        assert_eq!(inner_targets.len(), 2);
        for (root, &(trace_id, span_id)) in roots.iter().zip(&inner_targets) {
            assert_eq!(trace_id, root.trace_id);
            let Some(Value::Arr(spans)) = c.export_trace(trace_id).get("spans").cloned() else {
                panic!("trace {trace_id} has spans");
            };
            assert_eq!(spans.len(), 1, "the span is in the ring on return");
            let span = &spans[0];
            assert_eq!(span.get("kind").and_then(Value::as_str), Some(kind::POOL));
            assert_eq!(span.get("id").and_then(Value::as_u64), Some(span_id));
            assert_eq!(span.get("parent").and_then(Value::as_u64), Some(root.id));
            assert_eq!(
                span.get("tags")
                    .and_then(|t| t.get("shards"))
                    .and_then(Value::as_u64),
                Some(2)
            );
        }
    }
}
