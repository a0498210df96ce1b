//! Hash-partitioned sharding over a persistent [`WorkerPool`].
//!
//! [`ShardedIndex::build`] splits the record set into `N` shards by
//! hashing global record ids (deterministic: the same records and shard
//! count always produce the same partition), builds one engine per
//! non-empty shard, and remembers each shard's global ids. At query time
//! [`ShardedIndex::search_batch_on`] fans the batch out over the caller's
//! [`WorkerPool`] — one job per shard, each worker reusing its long-lived
//! [`ScratchStore`] scratch, so buffers stay
//! warm across shards *and* batches — then merges per-shard result sets
//! back into ascending *global* id order and aggregates statistics with
//! [`MergeStats::merge`].
//!
//! ## Plan once, execute per shard
//!
//! Every query's [`SearchEngine::Plan`] is computed **exactly once** — by
//! [`ShardedIndex::plan_batch`], on the first shard's engine, against a
//! long-lived planner scratch — and handed read-only to every shard
//! worker, so query-side preprocessing does not scale with the shard
//! count. Plan-time statistics ([`SearchEngine::plan_stats`]) are folded
//! in once per query. That is the only execution path, so every shard
//! must be able to execute the first shard's plans
//! ([`SearchEngine::plans_portable_to`]); construction panics otherwise.
//!
//! [`ShardedIndex::build_global`] is the build for engines whose plans
//! live in a dictionary's id space (gram interning table, token rank
//! space) or depend on corpus statistics (the Hamming cost model): a
//! caller-supplied closure derives one shared dictionary from the
//! *whole* record set and every shard engine is built against it.
//! [`ShardedIndex::build`] is its unit-dictionary case, for engines
//! whose plans depend on the query alone.
//!
//! The pool is always the caller's: [`ShardedIndex::search_batch_on`] is
//! the one batched entry point, so every index (and every domain — worker
//! scratch is keyed by scratch type) can share one persistent
//! [`WorkerPool`], as `pigeonring-server` does behind the network
//! boundary. Merging is by fixed shard order regardless of job completion
//! order, so results are deterministic for any worker count.
//!
//! Every domain engine verifies its candidates exactly, so sharding
//! cannot change the result set: the union over shards of "records within
//! the threshold" is exactly the unsharded answer, independent of how
//! data-dependent build decisions (gram frequency orders, cost models)
//! shift per-shard candidate counts.

use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::engine::{MergeStats, SearchEngine};
use crate::pool::{ScratchStore, WorkerPool};
use pigeonring_core::fxhash::FxHasher;
use pigeonring_telemetry::trace::{kind, TraceScope};
use pigeonring_telemetry::{Histogram, MetricsRegistry};

/// Telemetry handles for one [`ShardedIndex`], attached via
/// [`ShardedIndex::attach_metrics`]. Recorded by
/// [`ShardedIndex::search_batch_on`] and [`ShardedIndex::plan_batch`].
#[derive(Clone)]
pub struct IndexMetrics {
    /// µs spent planning a batch (one observation per `plan_batch`).
    pub plan_us: Arc<Histogram>,
    /// µs spent executing a batch end to end (fan-out + merge).
    pub search_us: Arc<Histogram>,
    /// Queries per executed batch.
    pub batch_size: Arc<Histogram>,
}

impl IndexMetrics {
    /// Registers the index metric family under `prefix` (e.g.
    /// `index.hamming` → `index.hamming.plan_us`, `.search_us`,
    /// `.batch_size`).
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> Self {
        IndexMetrics {
            plan_us: registry.histogram(&format!("{prefix}.plan_us")),
            search_us: registry.histogram(&format!("{prefix}.search_us")),
            batch_size: registry.histogram(&format!("{prefix}.batch_size")),
        }
    }
}

/// Elapsed µs since `start`, saturating into u64.
fn elapsed_us(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Deterministic shard assignment for global record id `id` among
/// `shards` shards (FxHash of the id).
#[inline]
pub fn shard_of(id: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let h = BuildHasherDefault::<FxHasher>::default().hash_one(id);
    (h % shards as u64) as usize
}

/// One query's merged answer: ascending global record ids plus the
/// statistics aggregated over all shards.
#[derive(Clone, Debug)]
pub struct SearchResult<S> {
    /// Global record ids within the threshold, ascending.
    pub ids: Vec<u32>,
    /// Statistics summed (saturating) over every shard.
    pub stats: S,
}

/// One shard's answers for a whole batch: `(global ids, stats)` per
/// query, in batch order.
type ShardBatch<S> = Vec<(Vec<u32>, S)>;

struct Shard<E> {
    engine: E,
    /// Global ids of this shard's records, ascending (shard-local id `i`
    /// is the record `ids[i]` of the original collection).
    ids: Vec<u32>,
}

impl<E: SearchEngine> Shard<E> {
    /// Runs every query of `batch` against this shard — shard `si` —
    /// with precomputed plans (`plans[i]` belongs to `batch[i]`) inside
    /// one `shard` span per traced query, translating shard-local ids
    /// to global ids.
    fn run_batch_planned(
        &self,
        si: usize,
        trace: Option<&TraceScope>,
        scratch: &mut E::Scratch,
        batch: &[E::Query],
        plans: &[Arc<E::Plan>],
        params: &E::Params,
    ) -> ShardBatch<E::Stats> {
        TraceScope::span(trace, kind::SHARD, &[("shard", si as u64)], |_| {
            batch
                .iter()
                .zip(plans)
                .map(|(q, plan)| {
                    let mut out = Vec::new();
                    let stats = self
                        .engine
                        .search_planned(scratch, plan, q, params, &mut out);
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "engines emit shard-local ids, which index the shard's own id table by construction"
                    )]
                    for id in &mut out {
                        *id = self.ids[*id as usize];
                    }
                    (out, stats)
                })
                .collect()
        })
    }
}

/// A hash-partitioned collection of engines answering queries as one
/// index.
pub struct ShardedIndex<E> {
    /// Shared so per-shard jobs on the persistent pool (which outlive
    /// any one `search_batch_on` stack frame) can hold the shards alive.
    shards: Arc<Vec<Shard<E>>>,
    total: usize,
    /// Long-lived planner scratch for [`ShardedIndex::plan_batch`]:
    /// plan-side buffers (gram/token scratch vectors) are reused across
    /// queries and batches instead of being allocated per query — the
    /// same [`ScratchStore`] mechanism the pool workers use.
    planner: Mutex<ScratchStore>,
    /// Optional telemetry (plan/search latency, batch sizes); attached
    /// once by the owning service, absent for bench/test builds.
    metrics: OnceLock<IndexMetrics>,
}

/// Hash-partitions `records`: returns per-shard `(global ids, records)`
/// pairs, skipping empty shards.
fn partition<R>(records: Vec<R>, shards: usize) -> Vec<(Vec<u32>, Vec<R>)> {
    let mut parts: Vec<(Vec<u32>, Vec<R>)> = (0..shards).map(|_| Default::default()).collect();
    for (id, record) in records.into_iter().enumerate() {
        let s = shard_of(id as u64, shards);
        #[expect(
            clippy::indexing_slicing,
            reason = "shard_of reduces modulo `shards`, the length"
        )]
        let part = &mut parts[s];
        part.0.push(id as u32);
        part.1.push(record);
    }
    parts.retain(|(ids, _)| !ids.is_empty());
    parts
}

impl<E: SearchEngine> ShardedIndex<E> {
    /// Hash-partitions `records` into `shards` shards and builds one
    /// engine per non-empty shard via `build` (empty shards — possible
    /// for tiny collections — are skipped, since the domain engines
    /// reject empty datasets).
    ///
    /// The unit-dictionary case of [`ShardedIndex::build_global`], for
    /// engines whose plans depend on the query alone.
    ///
    /// # Panics
    /// Panics if `shards == 0`, or as [`ShardedIndex::build_global`]
    /// does when `build` gives the shards private dictionaries.
    pub fn build<R>(records: Vec<R>, shards: usize, build: impl Fn(Vec<R>) -> E) -> Self {
        Self::build_global(records, shards, |_| (), |_, records| build(records))
    }

    /// Builds the index dictionary-first: `dictionary` derives one
    /// shared artifact (a gram interning table, a token rank space, a
    /// cost model, …) from the *whole* record set, and `build`
    /// constructs each non-empty shard's engine against it. All shards
    /// then agree on every query-side structure, so one plan per query
    /// ([`ShardedIndex::plan_batch`]) serves every shard and per-shard
    /// candidate statistics are invariant under resharding.
    ///
    /// # Panics
    /// Panics if `shards == 0`, or if some shard's engine cannot execute
    /// the first shard's plans ([`SearchEngine::plans_portable_to`]) —
    /// the shards were given private dictionaries instead of the shared
    /// one.
    pub fn build_global<R, D>(
        records: Vec<R>,
        shards: usize,
        dictionary: impl FnOnce(&[R]) -> D,
        build: impl Fn(&D, Vec<R>) -> E,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        let total = records.len();
        let dict = dictionary(&records);
        let shards: Vec<Shard<E>> = partition(records, shards)
            .into_iter()
            .map(|(ids, records)| Shard {
                engine: build(&dict, records),
                ids,
            })
            .collect();
        if let Some((planner, rest)) = shards.split_first() {
            for (si, shard) in rest.iter().enumerate() {
                assert!(
                    planner.engine.plans_portable_to(&shard.engine),
                    "shard {} cannot execute shard 0's query plans: build every shard \
                     against one shared dictionary (ShardedIndex::build_global)",
                    si + 1
                );
            }
        }
        ShardedIndex {
            shards: Arc::new(shards),
            total,
            planner: Mutex::new(ScratchStore::default()),
            metrics: OnceLock::new(),
        }
    }

    /// Attaches telemetry to this index (first attach wins). Recorded
    /// by [`ShardedIndex::search_batch_on`] and
    /// [`ShardedIndex::plan_batch`]; an un-instrumented index pays one
    /// `OnceLock` load per batch.
    pub fn attach_metrics(&self, metrics: IndexMetrics) {
        let _ = self.metrics.set(metrics);
    }

    /// Number of non-empty shards actually built.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of records across all shards.
    pub fn num_records(&self) -> usize {
        self.total
    }

    /// Computes every query's plan exactly once against the index's
    /// long-lived planner scratch. Returns `None` only for an index
    /// without shards (no records, hence no engine to plan on).
    ///
    /// Concurrent callers (the server's dispatcher threads) do not
    /// serialize here: the shared planner scratch is taken with
    /// `try_lock`, and a contended caller plans against a fresh local
    /// scratch instead of waiting out another batch's whole plan phase.
    pub fn plan_batch(&self, batch: &[E::Query]) -> Option<Vec<Arc<E::Plan>>> {
        let shard0 = self.shards.first()?;
        // A poisoned planner scratch (a plan panicked mid-update) is treated
        // like contention: plan against a fresh local scratch instead.
        let mut guard = self.planner.try_lock().ok();
        let mut local: Option<E::Scratch> = None;
        let scratch: &mut E::Scratch = match guard.as_mut() {
            Some(store) => store.get_mut::<E::Scratch>(),
            None => local.insert(E::Scratch::default()),
        };
        let start = Instant::now();
        let plans = batch
            .iter()
            .map(|q| Arc::new(shard0.engine.plan(scratch, q)))
            .collect();
        if let Some(m) = self.metrics.get() {
            m.plan_us.record(elapsed_us(start));
        }
        Some(plans)
    }

    /// Answers a single query on the calling thread (all shards,
    /// serially, one scratch): the plan is computed once and reused by
    /// every shard, so the query-side preprocessing cost is flat in the
    /// shard count.
    ///
    /// Convenience path: shards usually differ in record count, so the
    /// shared scratch re-sizes on every shard transition. Hot callers
    /// should prefer [`ShardedIndex::search_batch_on`], which amortizes
    /// the resize across the whole batch (each worker serves entire
    /// shards).
    #[expect(
        clippy::expect_used,
        reason = "merge_planned returns one entry per query and exactly one query was passed"
    )]
    pub fn search(&self, query: &E::Query, params: &E::Params) -> SearchResult<E::Stats> {
        let batch = std::slice::from_ref(query);
        let plans = self.plan_batch(batch).unwrap_or_default();
        let per_shard = self.run_serial_planned(batch, &plans, params, None);
        self.merge_planned(1, per_shard, &plans)
            .pop()
            .expect("one query in, one result out")
    }

    /// Answers a batch of queries on a caller-owned [`WorkerPool`]
    /// (shared across indexes — and across *domains*, since worker
    /// scratch is keyed by scratch type). Every query is planned exactly
    /// once ([`ShardedIndex::plan_batch`]) and the plan shared by all
    /// shard jobs; a one-worker pool or a one-shard index runs serially
    /// on the calling thread.
    ///
    /// Per-shard results are merged in fixed shard order and sorted, so
    /// the output is deterministic regardless of thread scheduling: two
    /// runs of the same batch agree bit-for-bit.
    pub fn search_batch_on(
        &self,
        pool: &WorkerPool,
        batch: &[E::Query],
        params: &E::Params,
    ) -> Vec<SearchResult<E::Stats>> {
        self.search_batch_on_traced(pool, batch, params, None)
    }

    /// [`ShardedIndex::search_batch_on`] with per-request tracing: for
    /// every traced query in `trace`, the index emits a `plan` span
    /// bracketing the shared plan phase, a `pool` span bracketing the
    /// fan-out window and merge, and under it one `shard` span per shard
    /// measured where the work runs (on the worker for the parallel
    /// path, on the calling thread for the serial fallback) and flushed
    /// before that shard's results are reported. `None` is the zero-cost
    /// untraced path — byte-identical behaviour to
    /// [`ShardedIndex::search_batch_on`].
    pub fn search_batch_on_traced(
        &self,
        pool: &WorkerPool,
        batch: &[E::Query],
        params: &E::Params,
        trace: Option<&TraceScope>,
    ) -> Vec<SearchResult<E::Stats>> {
        let start = Instant::now();
        let queries = batch.len() as u64;
        let plan_trace = trace.filter(|_| !self.shards.is_empty()); // no shards: no plan phase
        let plans = TraceScope::span(plan_trace, kind::PLAN, &[("queries", queries)], |_| {
            self.plan_batch(batch).unwrap_or_default()
        });
        let tags = [("shards", self.shards.len() as u64), ("queries", queries)];
        let merged = TraceScope::span(trace, kind::POOL, &tags, |shard_trace| {
            let per_shard = if self.shards.len() <= 1 || pool.workers() <= 1 {
                self.run_serial_planned(batch, &plans, params, shard_trace)
            } else {
                self.run_on_planned(pool, batch, &plans, params, shard_trace)
            };
            self.merge_planned(batch.len(), per_shard, &plans)
        });
        if let Some(m) = self.metrics.get() {
            m.batch_size.record(batch.len() as u64);
            m.search_us.record(elapsed_us(start));
        }
        merged
    }

    /// Serial fallback: every shard on the calling thread, one scratch,
    /// one plan per query.
    fn run_serial_planned(
        &self,
        batch: &[E::Query],
        plans: &[Arc<E::Plan>],
        params: &E::Params,
        trace: Option<&TraceScope>,
    ) -> Vec<ShardBatch<E::Stats>> {
        let mut scratch = E::Scratch::default();
        self.shards
            .iter()
            .enumerate()
            .map(|(si, s)| s.run_batch_planned(si, trace, &mut scratch, batch, plans, params))
            .collect()
    }

    /// Fans one job per shard out to `pool`, each executing `plans`
    /// (one `Arc`'d plan set) against its shard, and collects the
    /// results back into fixed shard order. With a trace context, each
    /// job opens its `shard` spans on the worker thread — queue wait
    /// inside the pool shows up as the gap between the `pool` span's
    /// start and the `shard` span's start.
    ///
    /// Jobs on the persistent pool must be `'static`, so the batch is
    /// cloned into an `Arc` shared by all jobs (queries are cheap to
    /// clone relative to a shard search; the server path hands over
    /// owned queries anyway).
    #[expect(clippy::expect_used, reason = "ns successful receives fill every slot")]
    fn run_on_planned(
        &self,
        pool: &WorkerPool,
        batch: &[E::Query],
        plans: &[Arc<E::Plan>],
        params: &E::Params,
        trace: Option<&TraceScope>,
    ) -> Vec<ShardBatch<E::Stats>> {
        let batch: Arc<Vec<E::Query>> = Arc::new(batch.to_vec());
        let plans: Arc<Vec<Arc<E::Plan>>> = Arc::new(plans.to_vec());
        let ns = self.shards.len();
        let (tx, rx) = mpsc::channel::<(usize, ShardBatch<E::Stats>)>();
        for si in 0..ns {
            let shards = Arc::clone(&self.shards);
            let batch = Arc::clone(&batch);
            let plans = Arc::clone(&plans);
            let params = params.clone();
            let tx = tx.clone();
            let trace = trace.cloned();
            #[expect(
                clippy::expect_used,
                reason = "deliberate: deadlock is the alternative"
            )]
            pool.submit(move |store| {
                let scratch = store.get_mut::<E::Scratch>();
                #[expect(clippy::indexing_slicing, reason = "si ranges over 0..shards.len()")]
                let result =
                    shards[si].run_batch_planned(si, trace.as_ref(), scratch, &batch, &plans, &params);
                // The receiver only hangs up on panic-unwind; ignore.
                let _ = tx.send((si, result));
            })
            // Searching on a pool the caller already shut down is a
            // caller bug; failing loudly beats deadlocking below on
            // results that will never arrive.
            .expect("search_batch_on called on a shut-down worker pool");
        }
        drop(tx);
        let mut slots: Vec<Option<ShardBatch<E::Stats>>> = (0..ns).map(|_| None).collect();
        #[expect(
            clippy::indexing_slicing,
            reason = "si comes from the submit loop, always < ns"
        )]
        for _ in 0..ns {
            // A worker job that panicked drops its sender without
            // sending; recv then fails once all senders are gone.
            #[expect(
                clippy::expect_used,
                reason = "a shard worker panicked; this batch cannot be answered, and the server's dispatcher catches the unwind"
            )]
            let (si, res) = rx.recv().expect("search worker panicked");
            slots[si] = Some(res);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every shard served"))
            .collect()
    }

    /// Merges per-shard batches into one [`SearchResult`] per query, in
    /// fixed shard order, then sorts ids ascending and folds in each
    /// query's plan-time statistics **once per query** (the shards
    /// reported execution-only statistics).
    fn merge_planned(
        &self,
        batch_len: usize,
        per_shard: Vec<ShardBatch<E::Stats>>,
        plans: &[Arc<E::Plan>],
    ) -> Vec<SearchResult<E::Stats>> {
        let mut merged: Vec<SearchResult<E::Stats>> = (0..batch_len)
            .map(|_| SearchResult {
                ids: Vec::new(),
                stats: E::Stats::default(),
            })
            .collect();
        for shard_results in per_shard {
            for (qi, (ids, stats)) in shard_results.into_iter().enumerate() {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "every shard batch has one entry per query, so qi < batch_len, the length of merged"
                )]
                let slot = &mut merged[qi];
                slot.ids.extend(ids);
                slot.stats.merge(&stats);
            }
        }
        for res in &mut merged {
            res.ids.sort_unstable();
        }
        if let Some(shard0) = self.shards.first() {
            for (res, plan) in merged.iter_mut().zip(plans) {
                res.stats.merge(&shard0.engine.plan_stats(plan));
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Toy engine for service-layer tests: records are integers, a query
    /// matches every record within `params` of it.
    struct AbsDiffEngine {
        values: Vec<i64>,
    }

    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    struct AbsDiffStats {
        compared: usize,
        results: usize,
    }

    impl MergeStats for AbsDiffStats {
        fn merge(&mut self, other: &Self) {
            self.compared = self.compared.saturating_add(other.compared);
            self.results = self.results.saturating_add(other.results);
        }
    }

    impl SearchEngine for AbsDiffEngine {
        type Query = i64;
        type Params = i64;
        type Stats = AbsDiffStats;
        type Scratch = ();
        type Plan = ();

        fn plan(&self, _scratch: &mut (), _query: &i64) {}

        fn search_planned(
            &self,
            _scratch: &mut (),
            _plan: &(),
            query: &i64,
            params: &i64,
            out: &mut Vec<u32>,
        ) -> AbsDiffStats {
            let mut stats = AbsDiffStats::default();
            for (id, v) in self.values.iter().enumerate() {
                stats.compared += 1;
                if (v - query).abs() <= *params {
                    out.push(id as u32);
                    stats.results += 1;
                }
            }
            stats
        }
    }

    /// A plan-counting engine: its plan is the query doubled, and every
    /// `plan` call is counted so tests can assert plan-once behaviour.
    struct CountingEngine {
        inner: AbsDiffEngine,
        plans_computed: Arc<AtomicUsize>,
    }

    impl SearchEngine for CountingEngine {
        type Query = i64;
        type Params = i64;
        type Stats = AbsDiffStats;
        type Scratch = ();
        type Plan = i64;

        fn plan(&self, _scratch: &mut (), query: &i64) -> i64 {
            self.plans_computed.fetch_add(1, Ordering::SeqCst);
            query * 2
        }

        fn search_planned(
            &self,
            scratch: &mut (),
            plan: &i64,
            query: &i64,
            params: &i64,
            out: &mut Vec<u32>,
        ) -> AbsDiffStats {
            assert_eq!(*plan, query * 2, "shard received a foreign plan");
            self.inner.search_planned(scratch, &(), query, params, out)
        }
    }

    fn build_sharded(n: usize, shards: usize) -> (Vec<i64>, ShardedIndex<AbsDiffEngine>) {
        let values: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 101).collect();
        let index = ShardedIndex::build(values.clone(), shards, |values| AbsDiffEngine { values });
        (values, index)
    }

    fn build_counting(n: usize, shards: usize) -> (Arc<AtomicUsize>, ShardedIndex<CountingEngine>) {
        let values: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 101).collect();
        let plans = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&plans);
        let index = ShardedIndex::build(values, shards, move |values| CountingEngine {
            inner: AbsDiffEngine { values },
            plans_computed: Arc::clone(&counter),
        });
        (plans, index)
    }

    /// An engine whose plans are only valid under its own dictionary:
    /// the shape of editdist/setsim, reduced to the portability hook.
    struct DictEngine {
        inner: AbsDiffEngine,
        dict: Arc<i64>,
    }

    impl SearchEngine for DictEngine {
        type Query = i64;
        type Params = i64;
        type Stats = AbsDiffStats;
        type Scratch = ();
        type Plan = ();

        fn plan(&self, _scratch: &mut (), _query: &i64) {}

        fn search_planned(
            &self,
            scratch: &mut (),
            plan: &(),
            query: &i64,
            params: &i64,
            out: &mut Vec<u32>,
        ) -> AbsDiffStats {
            self.inner.search_planned(scratch, plan, query, params, out)
        }

        fn plans_portable_to(&self, other: &Self) -> bool {
            Arc::ptr_eq(&self.dict, &other.dict)
        }
    }

    #[test]
    fn partition_covers_every_record_exactly_once() {
        let (_, index) = build_sharded(257, 5);
        let mut seen: Vec<u32> = index.shards.iter().flat_map(|s| s.ids.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..257).collect::<Vec<u32>>());
        assert_eq!(index.num_records(), 257);
    }

    #[test]
    fn shard_ids_are_ascending() {
        let (_, index) = build_sharded(100, 7);
        for shard in index.shards.iter() {
            assert!(shard.ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn sharded_matches_unsharded_any_k() {
        let (values, _) = build_sharded(120, 1);
        let reference = AbsDiffEngine {
            values: values.clone(),
        };
        for k in [1usize, 2, 3, 7, 120, 200] {
            let index = ShardedIndex::build(values.clone(), k, |values| AbsDiffEngine { values });
            for q in [0i64, 17, 50, 100] {
                let mut expect = Vec::new();
                let stats = reference.search_into(&mut (), &q, &10, &mut expect);
                let got = index.search(&q, &10);
                assert_eq!(got.ids, expect, "k={k} q={q}");
                assert_eq!(got.stats.results, stats.results, "k={k} q={q}");
                assert_eq!(got.stats.compared, stats.compared, "k={k} q={q}");
            }
        }
    }

    #[test]
    fn batch_matches_single_and_is_deterministic() {
        let (_, index) = build_sharded(300, 4);
        let batch: Vec<i64> = (0..23).map(|i| i * 9).collect();
        let serial: Vec<_> = batch.iter().map(|q| index.search(q, &7)).collect();
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let run1 = index.search_batch_on(&pool, &batch, &7);
            let run2 = index.search_batch_on(&pool, &batch, &7);
            for qi in 0..batch.len() {
                assert_eq!(run1[qi].ids, serial[qi].ids, "threads={threads} qi={qi}");
                assert_eq!(run1[qi].ids, run2[qi].ids, "threads={threads} qi={qi}");
                assert_eq!(run1[qi].stats, run2[qi].stats, "threads={threads} qi={qi}");
            }
        }
    }

    #[test]
    fn global_build_plans_once_per_query_for_any_shard_count() {
        let batch: Vec<i64> = (0..10).map(|i| i * 11).collect();
        for k in [1usize, 2, 4, 7] {
            let (plans, index) = build_counting(300, k);
            for threads in [1usize, 4] {
                plans.store(0, Ordering::SeqCst);
                let _ = index.search_batch_on(&WorkerPool::new(threads), &batch, &7);
                assert_eq!(
                    plans.load(Ordering::SeqCst),
                    batch.len(),
                    "k={k} threads={threads}: one plan per query, not per shard"
                );
            }
            // Single-query path plans once too.
            plans.store(0, Ordering::SeqCst);
            let _ = index.search(&5, &7);
            assert_eq!(plans.load(Ordering::SeqCst), 1, "k={k}");
        }
    }

    fn dict_engine(values: Vec<i64>, dict: &Arc<i64>) -> DictEngine {
        DictEngine {
            inner: AbsDiffEngine { values },
            dict: Arc::clone(dict),
        }
    }

    #[test]
    fn shards_sharing_a_dictionary_are_accepted() {
        let values: Vec<i64> = (0..40).collect();
        let shared = ShardedIndex::build_global(
            values.clone(),
            4,
            |_| Arc::new(0i64),
            |d, v| dict_engine(v, d),
        );
        assert_eq!(shared.search(&5, &1).ids, vec![4, 5, 6]);
        // A single shard has nobody to disagree with.
        let lone = ShardedIndex::build(values, 1, |v| dict_engine(v, &Arc::new(0)));
        assert_eq!(lone.search(&5, &1).ids, vec![4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "cannot execute shard 0's query plans")]
    fn private_per_shard_dictionaries_are_rejected() {
        let values: Vec<i64> = (0..40).collect();
        let _ = ShardedIndex::build(values, 4, |v| dict_engine(v, &Arc::new(0)));
    }

    #[test]
    fn search_batch_on_plans_once_with_shared_pool() {
        let (plans, index) = build_counting(300, 4);
        let pool = WorkerPool::new(2);
        let batch: Vec<i64> = (0..9).collect();
        let expect = index.search_batch_on(&WorkerPool::new(1), &batch, &5);
        plans.store(0, Ordering::SeqCst);
        let got = index.search_batch_on(&pool, &batch, &5);
        assert_eq!(plans.load(Ordering::SeqCst), batch.len());
        for qi in 0..batch.len() {
            assert_eq!(got[qi].ids, expect[qi].ids, "qi={qi}");
        }
    }

    #[test]
    fn traced_search_emits_plan_pool_and_shard_spans() {
        use pigeonring_telemetry::json::Value;
        use pigeonring_telemetry::TraceCollector;

        let (_, index) = build_counting(300, 4);
        let pool = WorkerPool::new(2);
        let batch: Vec<i64> = (0..6).collect();
        let collector = Arc::new(TraceCollector::new(0, 256));
        let root = collector.sample(true).expect("forced trace");
        let trace = TraceScope {
            collector: Arc::clone(&collector),
            targets: vec![(root.trace_id, root.id)],
        };

        let plain = index.search_batch_on(&pool, &batch, &5);
        let traced = index.search_batch_on_traced(&pool, &batch, &5, Some(&trace));
        for qi in 0..batch.len() {
            assert_eq!(plain[qi].ids, traced[qi].ids, "tracing changed results");
            assert_eq!(plain[qi].stats, traced[qi].stats, "tracing changed stats");
        }

        collector.extend(vec![collector.finish(root, kind::QUERY, "", vec![])]);
        let doc = collector.export_trace(root.trace_id);
        let spans = match doc.get("spans") {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("spans missing: {other:?}"),
        };
        let of_kind = |k: &str| -> Vec<&Value> {
            spans
                .iter()
                .filter(|s| s.get("kind").and_then(Value::as_str) == Some(k))
                .collect()
        };
        assert_eq!(of_kind(kind::PLAN).len(), 1, "one plan span per query");
        let pools = of_kind(kind::POOL);
        assert_eq!(pools.len(), 1, "one pool span per query");
        let pool_id = pools[0].get("id").and_then(Value::as_u64).unwrap();
        let shards = of_kind(kind::SHARD);
        assert_eq!(shards.len(), index.num_shards(), "one span per shard");
        for s in &shards {
            assert_eq!(
                s.get("parent").and_then(Value::as_u64),
                Some(pool_id),
                "shard spans nest under the pool span"
            );
        }
        // Every span traces back to the root.
        let ids: Vec<u64> = spans
            .iter()
            .map(|s| s.get("id").and_then(Value::as_u64).unwrap())
            .collect();
        for s in &spans {
            let parent = s.get("parent").and_then(Value::as_u64).unwrap();
            assert!(parent == 0 || ids.contains(&parent), "dangling parent");
        }
    }

    #[test]
    fn more_shards_than_records_skips_empties() {
        let (_, index) = build_sharded(3, 64);
        assert!(index.num_shards() <= 3);
        assert_eq!(index.num_records(), 3);
        let res = index.search(&0, &1000);
        assert_eq!(res.ids, vec![0, 1, 2]);
    }

    #[test]
    fn shard_assignment_is_deterministic() {
        for id in 0..1000u64 {
            assert_eq!(shard_of(id, 7), shard_of(id, 7));
        }
        // and spreads: no shard gets everything
        let mut counts = [0usize; 4];
        for id in 0..1000u64 {
            counts[shard_of(id, 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 100), "skewed: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedIndex::build(vec![1i64], 0, |values| AbsDiffEngine { values });
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected_global() {
        let _ =
            ShardedIndex::build_global(vec![1i64], 0, |_| (), |_, values| AbsDiffEngine { values });
    }
}
