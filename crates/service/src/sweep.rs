//! Throughput-sweep driver for the service layer.
//!
//! [`Sweep::run`] times one `(domain, dataset, shards, batch, threads)`
//! configuration end to end — chunking the query stream into batches,
//! fanning each batch over the shard pool, and folding every query's
//! result ids into a deterministic FxHash fingerprint — and records a
//! [`SweepRow`]. Equal fingerprints across shard counts certify that the
//! sharded result sets are identical (the `repro fig7 --shards K`
//! acceptance check); the JSON emitted by [`Sweep::to_json`] is the
//! `BENCH_service.json` artifact CI uploads.

use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

use crate::engine::SearchEngine;
use crate::sharded::ShardedIndex;
use pigeonring_core::fxhash::FxHasher;

/// One timed service-layer configuration.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Domain engine name (`hamming`, `editdist`, `setsim`, `graph`).
    pub domain: String,
    /// Dataset label (e.g. `gist`, `imdb`).
    pub dataset: String,
    /// Requested shard count.
    pub shards: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Queries per batch.
    pub batch: usize,
    /// Total queries served.
    pub queries: usize,
    /// Total result ids across all queries.
    pub results: usize,
    /// End-to-end wall time in milliseconds, *including* this row's
    /// query-plan cost (whether planning ran inline or was precomputed
    /// by the caller), so rows from [`Sweep::run`] and
    /// [`Sweep::run_with_plans`] are comparable.
    pub total_ms: f64,
    /// Queries per second over the whole sweep (from `total_ms`).
    pub qps: f64,
    /// `qps / shards`: per-shard throughput CI tracks for regressions.
    pub per_shard_qps: f64,
    /// Median per-query latency in milliseconds (a query's latency is
    /// its batch's *execution* wall time — batched queries complete
    /// together; plan time is reported separately in `plan_ms`).
    pub p50_ms: f64,
    /// 95th-percentile per-query latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile per-query latency in milliseconds.
    pub p99_ms: f64,
    /// Total wall time spent computing query plans (≈ 0 for engines
    /// with empty plans).
    pub plan_ms: f64,
    /// `plan_ms` per query in microseconds — the plan-once acceptance
    /// metric: flat across shard counts.
    pub plan_us_per_query: f64,
    /// Wall time the index spent building its shared dictionary (≈ 0
    /// for `ShardedIndex::build`'s unit dictionary).
    pub dict_build_ms: f64,
    /// Order-sensitive FxHash fingerprint of every query's result ids.
    pub result_hash: u64,
}

// The nearest-rank percentile helper now lives in
// `pigeonring-telemetry` (the histograms there derive p50/p95/p99 from
// the same definition); re-exported here so sweep callers keep their
// import path.
pub use pigeonring_telemetry::percentile;

/// Order-sensitive FxHash fingerprint over a sequence of result-id
/// sets. Two runs that return the same ids for the same queries in the
/// same order produce equal fingerprints — the cross-configuration
/// (and, via `pigeonring-server`, cross-process) equality check.
pub struct ResultHasher {
    hasher: FxHasher,
}

impl Default for ResultHasher {
    fn default() -> Self {
        ResultHasher::new()
    }
}

impl ResultHasher {
    /// An empty fingerprint.
    pub fn new() -> Self {
        ResultHasher {
            hasher: BuildHasherDefault::<FxHasher>::default().build_hasher(),
        }
    }

    /// Folds one query's result ids into the fingerprint.
    pub fn push(&mut self, ids: &[u32]) {
        self.hasher.write_usize(ids.len());
        for id in ids {
            self.hasher.write_u32(*id);
        }
    }

    /// The fingerprint over everything pushed so far.
    pub fn finish(&self) -> u64 {
        self.hasher.finish()
    }
}

/// Accumulates [`SweepRow`]s and renders them as JSON.
#[derive(Default)]
pub struct Sweep {
    /// The recorded rows, in run order.
    pub rows: Vec<SweepRow>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Sweep::default()
    }

    /// Runs `queries` through `index` in batches of `batch` with
    /// `threads` workers, records a row labelled `domain`/`dataset`, and
    /// returns it along with the statistics aggregated over every query
    /// and shard.
    ///
    /// Every chunk's plans are computed once (timed into the row's
    /// `plan_ms`) and shared by all shards.
    #[expect(
        clippy::too_many_arguments,
        reason = "one timed configuration is exactly these eight knobs"
    )]
    pub fn run<E: SearchEngine>(
        &mut self,
        domain: &str,
        dataset: &str,
        index: &ShardedIndex<E>,
        queries: &[E::Query],
        params: &E::Params,
        batch: usize,
        threads: usize,
    ) -> (&SweepRow, E::Stats) {
        self.run_inner(
            domain, dataset, index, queries, None, params, batch, threads,
        )
    }

    /// [`Sweep::run`] with caller-precomputed plans (one per query, from
    /// [`ShardedIndex::plan_batch`]) and the caller-measured planning
    /// time — the parameter-sweep path: one plan set serves every
    /// `params` value, so e.g. an `l` sweep plans each query once total.
    #[expect(
        clippy::too_many_arguments,
        reason = "Sweep::run's eight knobs plus the shared plan set"
    )]
    pub fn run_with_plans<E: SearchEngine>(
        &mut self,
        domain: &str,
        dataset: &str,
        index: &ShardedIndex<E>,
        queries: &[E::Query],
        plans: &[Arc<E::Plan>],
        plan_ms: f64,
        params: &E::Params,
        batch: usize,
        threads: usize,
    ) -> (&SweepRow, E::Stats) {
        self.run_inner(
            domain,
            dataset,
            index,
            queries,
            Some((plans, plan_ms)),
            params,
            batch,
            threads,
        )
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "shared core of the two public run flavours"
    )]
    fn run_inner<E: SearchEngine>(
        &mut self,
        domain: &str,
        dataset: &str,
        index: &ShardedIndex<E>,
        queries: &[E::Query],
        shared_plans: Option<(&[Arc<E::Plan>], f64)>,
        params: &E::Params,
        batch: usize,
        threads: usize,
    ) -> (&SweepRow, E::Stats) {
        use crate::engine::MergeStats;
        let batch = batch.max(1);
        let mut hasher = ResultHasher::new();
        let mut results = 0usize;
        let mut agg = E::Stats::default();
        let mut plan_ms = shared_plans.map_or(0.0, |(_, ms)| ms);
        // Per-query latency samples: every query in a batch completes
        // when its batch does, so a batch contributes its *execution*
        // wall time (planning excluded — it is reported in `plan_ms`)
        // once per query it carried.
        let mut latencies: Vec<f64> = Vec::with_capacity(queries.len());
        let start = Instant::now();
        let mut served = 0usize;
        for chunk in queries.chunks(batch) {
            // Plan outside the per-batch latency window so p50/p95/p99
            // mean the same thing whether plans were inlined here or
            // precomputed by the caller.
            let inline_plans;
            let plans: &[Arc<E::Plan>] = match shared_plans {
                // lint: allow(panic) — plans has one entry per query; served
                // + chunk.len() never exceeds queries.len() by the chunking
                Some((plans, _)) => &plans[served..served + chunk.len()],
                None => {
                    let plan_start = Instant::now();
                    inline_plans = index.plan_batch(chunk).unwrap_or_default();
                    plan_ms += plan_start.elapsed().as_secs_f64() * 1e3;
                    &inline_plans
                }
            };
            let batch_start = Instant::now();
            let batch_results = index.search_batch_planned(chunk, plans, params, threads);
            let batch_ms = batch_start.elapsed().as_secs_f64() * 1e3;
            latencies.extend(std::iter::repeat_n(batch_ms, chunk.len()));
            for res in batch_results {
                hasher.push(&res.ids);
                results += res.ids.len();
                agg.merge(&res.stats);
            }
            served += chunk.len();
        }
        // End-to-end time *including* the row's plan cost: inline
        // planning already sits inside the `start` window, and
        // caller-precomputed planning is added explicitly, so
        // `total_ms`/`qps` are comparable between the two run flavours
        // (and with a standalone run at one parameter value).
        let total_ms = start.elapsed().as_secs_f64() * 1e3 + shared_plans.map_or(0.0, |(_, ms)| ms);
        latencies.sort_by(f64::total_cmp);
        // A zero elapsed time (coarse clock, empty query slice) would
        // make qps infinite — which `{:.3}` renders as `inf`, breaking
        // the JSON artifact. Report 0 instead: "too fast to measure".
        let qps = if total_ms > 0.0 {
            queries.len() as f64 / (total_ms / 1e3)
        } else {
            0.0
        };
        self.rows.push(SweepRow {
            domain: domain.to_string(),
            dataset: dataset.to_string(),
            shards: index.requested_shards(),
            threads,
            batch,
            queries: queries.len(),
            results,
            total_ms,
            qps,
            per_shard_qps: qps / index.requested_shards().max(1) as f64,
            p50_ms: percentile(&latencies, 50.0),
            p95_ms: percentile(&latencies, 95.0),
            p99_ms: percentile(&latencies, 99.0),
            plan_ms,
            plan_us_per_query: plan_ms * 1e3 / queries.len().max(1) as f64,
            dict_build_ms: index.dictionary_build_ms(),
            result_hash: hasher.finish(),
        });
        // lint: allow(panic) — the row was pushed two statements above
        (self.rows.last().expect("row just pushed"), agg)
    }

    /// Renders the recorded rows as the `BENCH_service.json` schema: an
    /// object with a `machine` fingerprint
    /// ([`crate::machine::MachineFingerprint`]) and a `rows` array (one
    /// object per row, snake_case keys). The fingerprint makes rows
    /// comparable across runs — a 1-core container's shard scaling says
    /// nothing about an 8-core host's.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n\"machine\": ");
        out.push_str(&crate::machine::MachineFingerprint::detect().to_json());
        out.push_str(",\n\"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"domain\": \"{}\", \"dataset\": \"{}\", \"shards\": {}, \"threads\": {}, \
                 \"batch\": {}, \"queries\": {}, \"results\": {}, \"total_ms\": {:.3}, \
                 \"qps\": {:.3}, \"per_shard_qps\": {:.3}, \"p50_ms\": {:.3}, \
                 \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"plan_ms\": {:.3}, \
                 \"plan_us_per_query\": {:.3}, \"dict_build_ms\": {:.3}, \
                 \"result_hash\": \"{:016x}\"}}{}\n",
                escape(&row.domain),
                escape(&row.dataset),
                row.shards,
                row.threads,
                row.batch,
                row.queries,
                row.results,
                row.total_ms,
                row.qps,
                row.per_shard_qps,
                row.p50_ms,
                row.p95_ms,
                row.p99_ms,
                row.plan_ms,
                row.plan_us_per_query,
                row.dict_build_ms,
                row.result_hash,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("]\n}");
        out
    }

    /// Writes [`Sweep::to_json`] to `path`.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// JSON string escaping: backslash, quote, and control characters (the
/// API accepts arbitrary labels even though ours are ASCII identifiers).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MergeStats;

    struct EqEngine {
        values: Vec<u32>,
    }

    #[derive(Default)]
    struct NoStats;

    impl MergeStats for NoStats {
        fn merge(&mut self, _other: &Self) {}
    }

    impl SearchEngine for EqEngine {
        type Query = u32;
        type Params = ();
        type Stats = NoStats;
        type Scratch = ();
        type Plan = ();

        fn num_records(&self) -> usize {
            self.values.len()
        }

        fn plan(&self, _scratch: &mut (), _query: &u32) {}

        fn search_planned(
            &self,
            _scratch: &mut (),
            _plan: &(),
            query: &u32,
            _params: &(),
            out: &mut Vec<u32>,
        ) -> NoStats {
            for (id, v) in self.values.iter().enumerate() {
                if v == query {
                    out.push(id as u32);
                }
            }
            NoStats
        }
    }

    fn index(k: usize) -> ShardedIndex<EqEngine> {
        let values: Vec<u32> = (0..64).map(|i| i % 8).collect();
        ShardedIndex::build(values, k, |values| EqEngine { values })
    }

    fn global_index(k: usize) -> ShardedIndex<EqEngine> {
        let values: Vec<u32> = (0..64).map(|i| i % 8).collect();
        ShardedIndex::build_global(values, k, |_| (), |_, values| EqEngine { values })
    }

    #[test]
    fn result_hash_is_shard_invariant() {
        let queries: Vec<u32> = (0..16).map(|i| i % 8).collect();
        let mut sweep = Sweep::new();
        let h1 = sweep
            .run("toy", "t", &index(1), &queries, &(), 4, 1)
            .0
            .result_hash;
        let h4 = sweep
            .run("toy", "t", &index(4), &queries, &(), 4, 4)
            .0
            .result_hash;
        let h7 = sweep
            .run("toy", "t", &index(7), &queries, &(), 3, 2)
            .0
            .result_hash;
        assert_eq!(h1, h4);
        assert_eq!(h1, h7);
        assert_eq!(sweep.rows.len(), 3);
        assert_eq!(sweep.rows[0].queries, 16);
        assert!(sweep.rows[0].results > 0);
    }

    #[test]
    fn result_hash_distinguishes_different_answers() {
        let queries_a: Vec<u32> = vec![0, 1, 2];
        let queries_b: Vec<u32> = vec![0, 1, 3];
        let mut sweep = Sweep::new();
        let ha = sweep
            .run("toy", "a", &index(2), &queries_a, &(), 2, 2)
            .0
            .result_hash;
        let hb = sweep
            .run("toy", "b", &index(2), &queries_b, &(), 2, 2)
            .0
            .result_hash;
        assert_ne!(ha, hb);
    }

    #[test]
    fn labels_with_control_chars_stay_valid_json() {
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(escape("q\"\\\t"), "q\\\"\\\\\\t");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let mut sweep = Sweep::new();
        sweep.run("to\ny", "t\"s", &index(2), &[1u32], &(), 1, 1);
        let json = sweep.to_json();
        assert!(json.contains("\"domain\": \"to\\ny\""));
        assert!(json.contains("\"dataset\": \"t\\\"s\""));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 95.0), 10.0);
        assert_eq!(percentile(&xs, 99.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.5], 99.0), 3.5);
    }

    #[test]
    fn rows_carry_latency_percentiles() {
        let queries: Vec<u32> = (0..32).map(|i| i % 8).collect();
        let mut sweep = Sweep::new();
        sweep.run("toy", "t", &index(2), &queries, &(), 4, 2);
        let row = &sweep.rows[0];
        assert!(row.p50_ms >= 0.0);
        assert!(row.p50_ms <= row.p95_ms);
        assert!(row.p95_ms <= row.p99_ms);
        assert!(row.p99_ms <= row.total_ms);
        let json = sweep.to_json();
        assert!(json.contains("\"p50_ms\""));
        assert!(json.contains("\"p95_ms\""));
        assert!(json.contains("\"p99_ms\""));
    }

    #[test]
    fn rows_carry_plan_and_dictionary_timing() {
        let queries: Vec<u32> = (0..16).map(|i| i % 8).collect();
        let mut sweep = Sweep::new();
        // The plan phase and the dictionary build are timed (possibly
        // 0.0 on a coarse clock) for either build flavour, and both
        // answer alike.
        sweep.run("toy", "unit", &index(2), &queries, &(), 4, 1);
        assert!(sweep.rows[0].plan_ms >= 0.0);
        assert!(sweep.rows[0].dict_build_ms >= 0.0);
        let g = global_index(2);
        sweep.run("toy", "global", &g, &queries, &(), 4, 1);
        assert!(sweep.rows[1].plan_ms >= 0.0);
        assert_eq!(sweep.rows[0].result_hash, sweep.rows[1].result_hash);
        // Precomputed plans reuse: same answers, caller-measured time.
        let plans = g.plan_batch(&queries).expect("non-empty index plans");
        sweep.run_with_plans("toy", "shared", &g, &queries, &plans, 1.25, &(), 4, 1);
        assert_eq!(sweep.rows[2].result_hash, sweep.rows[1].result_hash);
        assert!(sweep.rows[2].plan_ms >= 1.25);
        let json = sweep.to_json();
        assert!(json.contains("\"plan_ms\""));
        assert!(json.contains("\"plan_us_per_query\""));
        assert!(json.contains("\"dict_build_ms\""));
    }

    #[test]
    fn result_hasher_matches_push_order() {
        let mut a = ResultHasher::new();
        a.push(&[1, 2, 3]);
        a.push(&[]);
        let mut b = ResultHasher::new();
        b.push(&[1, 2, 3]);
        b.push(&[]);
        assert_eq!(a.finish(), b.finish());
        let mut c = ResultHasher::new();
        c.push(&[1, 2]);
        c.push(&[3]);
        assert_ne!(a.finish(), c.finish(), "boundaries are hashed");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut sweep = Sweep::new();
        sweep.run("toy", "t", &index(2), &[1u32, 2], &(), 2, 1);
        let json = sweep.to_json();
        assert!(json.starts_with('{'));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"machine\": {\"arch\": "));
        assert!(json.contains("\"cores\": "));
        assert!(json.contains("\"rows\": [\n"));
        assert!(json.contains("\"domain\": \"toy\""));
        assert!(json.contains("\"shards\": 2"));
        assert!(json.contains("result_hash"));
    }
}
