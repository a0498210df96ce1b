//! Spans recorded by the benchmark itself around calls into public entry
//! points. Nothing inside the program is instrumented: the "children" of a
//! span are separate, successively deeper calls made for the same request,
//! linked by `parent`, and a layer's self time is its span's duration
//! minus its children's.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Which entry point was called.
    pub name: &'static str,
    /// The request this call was made for.
    pub request_id: u64,
    /// Index (in the log) of the span this one is nested under.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span log, written out once at exit.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// An empty log on the same clock.
    pub fn sibling(&self) -> SpanLog {
        SpanLog {
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    /// Appends a sibling's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Appends parentless spans recorded elsewhere on this log's clock.
    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// The instant all `start_ns` / `end_ns` count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Times `call`, records its span and returns the call's result with
    /// the span's index (to parent deeper calls under).
    pub fn record<T>(
        &mut self,
        name: &'static str,
        request_id: u64,
        parent: Option<usize>,
        call: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = call();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            request_id,
            parent,
            start_ns,
            end_ns,
        });
        (out, self.spans.len() - 1)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's
/// durations, in nanoseconds (signed: the children are separate calls, so
/// noise can make them add up to more than the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            own[parent] -= s.dur_ns() as i64;
        }
    }
    own
}

fn mean_where(spans: &[Span], name: &str, value: impl Fn(usize) -> f64) -> f64 {
    let (sum, n) = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .fold((0.0, 0u64), |(sum, n), (i, _)| (sum + value(i), n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Mean duration in nanoseconds of the spans called `name` (zero when
/// there are none).
pub fn mean_dur_ns(spans: &[Span], name: &str) -> f64 {
    mean_where(spans, name, |i| spans[i].dur_ns() as f64)
}

/// Mean self time in nanoseconds of the spans called `name`.
pub fn mean_self_ns(spans: &[Span], name: &str) -> f64 {
    let own = self_times_ns(spans);
    mean_where(spans, name, |i| own[i] as f64)
}

/// The trace document written to `benchmark/out/<workload>.trace.json`.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since trace start\", \"spans\": ["
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}\n{{\"name\": \"{}\", \"request_id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.request_id,
            parent,
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request_id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("net.roundtrip", None, 0, 1_000),
            span("registry.run", Some(0), 1_000, 1_600),
            span("wire.codec", Some(0), 1_600, 1_650),
            span("service.search", Some(1), 1_650, 2_150),
        ];
        assert_eq!(
            self_times_ns(&spans),
            [1_000 - 600 - 50, 600 - 500, 50, 500]
        );
        assert_eq!(mean_self_ns(&spans, "net.roundtrip"), 350.0);
        // The layers' self times add back up to the outermost span.
        assert_eq!(self_times_ns(&spans).iter().sum::<i64>(), 1_000);
    }

    #[test]
    fn self_time_may_go_negative_when_children_outweigh_the_parent() {
        let spans = vec![span("a", None, 0, 100), span("b", Some(0), 100, 350)];
        assert_eq!(self_times_ns(&spans), [-150, 250]);
    }

    #[test]
    fn record_links_parents_and_orders_time() {
        let mut log = SpanLog::new();
        let ((), outer) = log.record("outer", 9, None, || {});
        let (v, inner) = log.record("inner", 9, Some(outer), || 42);
        assert_eq!(v, 42);
        let spans = log.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert!(spans[inner].start_ns >= spans[outer].end_ns);
        assert_eq!(mean_dur_ns(spans, "missing"), 0.0);
    }

    #[test]
    fn absorbing_a_sibling_rebases_parents() {
        let mut log = SpanLog::new();
        log.record("first", 1, None, || {});
        let mut local = log.sibling();
        let ((), outer) = local.record("outer", 2, None, || {});
        local.record("inner", 2, Some(outer), || {});
        log.absorb(local);
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[1].start_ns >= spans[0].end_ns);
    }

    #[test]
    fn trace_document_parses_back() {
        let spans = vec![span("a", None, 5, 9), span("b", Some(0), 9, 12)];
        let doc = pigeonring_telemetry::json::parse(&to_json("direct", 3, &spans)).unwrap();
        let listed = doc.get("spans").unwrap();
        let pigeonring_telemetry::json::Value::Arr(items) = listed else {
            panic!("spans is not an array");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(items[1].get("end_ns").unwrap().as_u64(), Some(12));
    }
}
