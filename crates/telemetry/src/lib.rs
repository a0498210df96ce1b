//! # pigeonring-telemetry
//!
//! Dependency-free runtime telemetry for the pigeonring serving stack.
//!
//! The paper's argument is about *where candidates die* — how many
//! pairs survive each pigeonring chain stage before verification — so
//! the serving layers need per-stage counters and tail-latency
//! histograms that can be read off a **live** process, not
//! reconstructed from offline bench artifacts. This crate provides the
//! primitives and stays `std`-only (the workspace builds without
//! registry access):
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomics for monotonic event
//!   counts and instantaneous levels (queue depths, busy workers).
//! * [`Histogram`] — log2-bucketed value recorder (65 buckets: an
//!   exact zero bucket plus one per bit length) with derived
//!   nearest-rank p50/p95/p99. Recording is two relaxed atomic adds;
//!   no locks on the hot path.
//! * [`MetricsRegistry`] — name → metric map handing out cheap
//!   `Arc` handles. Instrumented code resolves its handles once and
//!   then touches only atomics.
//! * [`Snapshot`] — a point-in-time copy with [`Snapshot::delta`]
//!   (for before/after accounting around a load run) and JSON
//!   exposition ([`Snapshot::to_json`]).
//! * [`json`] — a minimal JSON parser/pretty-printer so clients (the
//!   `repro stats` / `repro trace` subcommands) can read snapshots back
//!   without serde.
//! * [`percentile`] — nearest-rank percentile of sorted samples, the
//!   definition the histograms' p50/p95/p99 follow; the repo benchmark
//!   computes its latency columns with it.
//! * [`trace`] — span-based per-request tracing: a [`TraceCollector`]
//!   with 1/N head sampling and a bounded span ring, [`Span`] trees
//!   with parent/child links, and Chrome trace-event export. Metrics
//!   say how the server is doing; traces say why *one* query was
//!   slow.

pub mod json;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use metrics::{bucket_bound, bucket_index, Counter, Gauge, Histogram, NUM_BUCKETS};
pub use registry::{HistogramSnapshot, MetricsRegistry, Snapshot};
pub use trace::{Span, SpanHandle, TraceCollector};

/// Nearest-rank percentile of an ascending-sorted slice; `p` in
/// [0, 100]. Returns 0.0 on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
