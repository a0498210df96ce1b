//! The name → metric [`MetricsRegistry`] and point-in-time
//! [`Snapshot`] with delta and exposition.
//!
//! Registration is a short-lived mutex acquisition (get-or-create a
//! handle); instrumented code is expected to resolve its `Arc` handles
//! once and then touch only atomics on the hot path. Snapshots use
//! `BTreeMap` so exposition order is deterministic.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::json::Value;
use crate::metrics::{bucket_bound, bucket_index, Counter, Gauge, Histogram, NUM_BUCKETS};

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A registry of named metrics handing out shared handles.
///
/// Metric names are dotted paths (`server.lane.hamming.depth`).
/// Registering the same name twice returns the same underlying metric,
/// so independent layers can share a series without coordination.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Gets or creates the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Gets or creates the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Copies every registered metric into a point-in-time
    /// [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        HistogramSnapshot::from_buckets(v.bucket_counts(), v.sum()),
                    )
                })
                .collect(),
        }
    }
}

/// A copied-out histogram: per-bucket counts plus derived totals and
/// nearest-rank percentiles (reported as the landing bucket's upper
/// bound, a ≤ 2× overestimate by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts, index = [`crate::bucket_index`].
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Builds a snapshot (count and percentiles derived) from raw
    /// bucket counts and the value sum.
    pub fn from_buckets(buckets: [u64; NUM_BUCKETS], sum: u64) -> Self {
        let count: u64 = buckets.iter().sum();
        let pct = |p: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
            let mut cum = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                cum += c;
                if cum >= rank {
                    return bucket_bound(i);
                }
            }
            bucket_bound(NUM_BUCKETS - 1)
        };
        Self {
            buckets: buckets.to_vec(),
            count,
            sum,
            p50: pct(50.0),
            p95: pct(95.0),
            p99: pct(99.0),
        }
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn delta(&self, earlier: Option<&HistogramSnapshot>) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            let now = self.buckets.get(i).copied().unwrap_or(0);
            let was = earlier.and_then(|e| e.buckets.get(i)).copied().unwrap_or(0);
            *b = now.saturating_sub(was);
        }
        let sum = self.sum.saturating_sub(earlier.map(|e| e.sum).unwrap_or(0));
        HistogramSnapshot::from_buckets(buckets, sum)
    }
}

/// A point-in-time copy of a registry: counters, gauges, and derived
/// histogram summaries, all name-sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The change since `earlier`: counters and histogram buckets
    /// subtract (saturating, so a restarted peer reads as its absolute
    /// values), gauges keep this snapshot's instantaneous level, and
    /// histogram percentiles are recomputed over the delta buckets —
    /// i.e. the percentiles of *this interval's* observations.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| {
                    (
                        k.clone(),
                        v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.delta(earlier.histograms.get(k))))
                .collect(),
        }
    }

    /// JSON exposition: `{"counters": {...}, "gauges": {...},
    /// "histograms": {name: {count, sum, p50, p95, p99, buckets:
    /// {bound: n, ...}}}}`. Bucket maps are sparse (non-zero buckets
    /// only, keyed by the bucket's inclusive upper bound).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_map(
            &mut out,
            self.counters.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\n  \"gauges\": {");
        push_map(
            &mut out,
            self.gauges.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\n  \"histograms\": {");
        push_map(
            &mut out,
            self.histograms.iter().map(|(k, h)| {
                let mut buckets = String::from("{");
                let mut first = true;
                for (i, &c) in h.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    if !first {
                        buckets.push_str(", ");
                    }
                    first = false;
                    buckets.push_str(&format!("\"{}\": {}", bucket_bound(i), c));
                }
                buckets.push('}');
                (
                    k,
                    format!(
                        "{{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": {}}}",
                        h.count, h.sum, h.p50, h.p95, h.p99, buckets
                    ),
                )
            }),
        );
        out.push_str("}\n}");
        out
    }

    /// Rebuilds a snapshot from its [`Snapshot::to_json`] exposition
    /// (a parsed `{"counters", "gauges", "histograms"}` object). The
    /// sparse bucket map keys are bucket upper bounds, which map back
    /// to their bucket index exactly, so a parse → delta round trip
    /// over the wire is lossless. This is what lets `repro stats
    /// --watch` reuse [`Snapshot::delta`] on remote snapshots.
    ///
    /// Returns `None` if the document does not have the snapshot
    /// shape.
    pub fn from_json(doc: &Value) -> Option<Snapshot> {
        let mut snap = Snapshot::default();
        for (name, v) in doc.get("counters")?.entries()? {
            snap.counters.insert(name.clone(), v.as_u64()?);
        }
        for (name, v) in doc.get("gauges")?.entries()? {
            snap.gauges.insert(name.clone(), v.as_i64()?);
        }
        for (name, h) in doc.get("histograms")?.entries()? {
            let mut buckets = [0u64; NUM_BUCKETS];
            for (bound, count) in h.get("buckets")?.entries()? {
                let bound: u64 = bound.parse().ok()?;
                buckets[bucket_index(bound)] = count.as_u64()?;
            }
            snap.histograms.insert(
                name.clone(),
                HistogramSnapshot::from_buckets(buckets, h.get("sum")?.as_u64()?),
            );
        }
        Some(snap)
    }
}

fn push_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a String, String)>) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {v}", crate::json::escape(k)));
    }
    if !first {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_shares_handles_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.snapshot().counters["x"], 3);
    }

    #[test]
    fn snapshot_percentiles_land_on_bucket_bounds() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        // 90 fast observations at 3, 10 slow at 1000.
        h.record_n(3, 90);
        h.record_n(1000, 10);
        let s = reg.snapshot();
        let hs = &s.histograms["lat"];
        assert_eq!(hs.count, 100);
        assert_eq!(hs.p50, 3); // bucket [2,3]
        assert_eq!(hs.p95, 1023); // bucket [512,1023]
        assert_eq!(hs.p99, 1023);
    }

    #[test]
    fn delta_subtracts_counters_and_recomputes_percentiles() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        let g = reg.gauge("depth");
        let h = reg.histogram("lat");
        c.add(5);
        g.set(7);
        h.record_n(2, 10);
        let before = reg.snapshot();
        c.add(3);
        g.set(1);
        h.record_n(4096, 4);
        let d = reg.snapshot().delta(&before);
        assert_eq!(d.counters["n"], 3);
        assert_eq!(d.gauges["depth"], 1); // gauges keep the latest level
        assert_eq!(d.histograms["lat"].count, 4);
        assert_eq!(d.histograms["lat"].p50, 8191); // only the new observations
    }

    #[test]
    fn delta_against_empty_baseline_is_the_absolute_snapshot() {
        // First-snapshot case: no earlier snapshot exists yet, so the
        // caller deltas against `Snapshot::default()` and must read
        // back the absolute values unchanged.
        let reg = MetricsRegistry::new();
        reg.counter("n").add(9);
        reg.gauge("depth").set(-2);
        reg.histogram("lat").record_n(5, 3);
        let s = reg.snapshot();
        let d = s.delta(&Snapshot::default());
        assert_eq!(d, s);
    }

    #[test]
    fn metrics_appearing_between_snapshots_delta_from_zero() {
        let reg = MetricsRegistry::new();
        reg.counter("old").add(1);
        let before = reg.snapshot();
        // Registered only after the first snapshot: the delta must
        // treat the missing earlier value as zero, not drop the
        // series.
        reg.counter("new").add(4);
        reg.histogram("new.lat").record(100);
        let d = reg.snapshot().delta(&before);
        assert_eq!(d.counters["old"], 0);
        assert_eq!(d.counters["new"], 4);
        assert_eq!(d.histograms["new.lat"].count, 1);
        assert_eq!(d.histograms["new.lat"].p50, 127);
    }

    #[test]
    fn empty_delta_has_zero_percentiles_not_stale_ones() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        h.record_n(1 << 20, 50);
        let before = reg.snapshot();
        // Nothing observed in the interval: count, sum, and every
        // percentile must be 0 — not the lifetime percentiles.
        let d = reg.snapshot().delta(&before);
        let hd = &d.histograms["lat"];
        assert_eq!(hd.count, 0);
        assert_eq!(hd.sum, 0);
        assert_eq!((hd.p50, hd.p95, hd.p99), (0, 0, 0));
        assert!(hd.buckets.iter().all(|&b| b == 0));
    }

    #[test]
    fn sparse_bucket_deltas_subtract_per_bucket() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        // Two widely separated buckets before...
        h.record_n(3, 10);
        h.record_n(1 << 30, 2);
        let before = reg.snapshot();
        // ...and growth in one old bucket plus one brand-new bucket.
        h.record_n(3, 5);
        h.record_n(60_000, 7);
        let d = reg.snapshot().delta(&before);
        let hd = &d.histograms["lat"];
        assert_eq!(hd.count, 12);
        assert_eq!(hd.buckets[bucket_index(3)], 5);
        assert_eq!(hd.buckets[bucket_index(60_000)], 7);
        assert_eq!(hd.buckets[bucket_index(1 << 30)], 0, "unchanged bucket");
        // Percentiles reflect only the interval's observations.
        assert_eq!(hd.p50, bucket_bound(bucket_index(60_000)));
    }

    #[test]
    fn snapshot_round_trips_through_json_exposition() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(7);
        reg.gauge("g").set(-4);
        let h = reg.histogram("lat");
        h.record_n(3, 9);
        h.record_n(12_345, 2);
        let s = reg.snapshot();
        let doc = crate::json::parse(&s.to_json()).expect("valid JSON");
        let back = Snapshot::from_json(&doc).expect("snapshot shape");
        assert_eq!(back, s);
        // And the rebuilt snapshot deltas cleanly against the
        // original (everything cancels).
        let d = back.delta(&s);
        assert!(d.counters.values().all(|&v| v == 0));
        assert!(d.histograms.values().all(|h| h.count == 0));
        // Non-snapshot documents are rejected, not misread.
        assert!(Snapshot::from_json(&Value::Obj(vec![])).is_none());
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let reg = MetricsRegistry::new();
        reg.counter("a.b").add(12);
        reg.gauge("g").set(-3);
        reg.histogram("h").record(100);
        let s = reg.snapshot();
        let v = crate::json::parse(&s.to_json()).expect("snapshot JSON parses");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("a.b"))
                .and_then(|x| x.as_u64()),
            Some(12)
        );
        assert_eq!(
            v.get("gauges")
                .and_then(|c| c.get("g"))
                .and_then(|x| x.as_i64()),
            Some(-3)
        );
        let h = v.get("histograms").and_then(|c| c.get("h")).unwrap();
        assert_eq!(h.get("count").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(h.get("p50").and_then(|x| x.as_u64()), Some(127));
    }
}
