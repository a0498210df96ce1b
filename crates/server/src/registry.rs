//! Engine registry: builds the four domain engines behind one uniform
//! front door, from the same deterministic data loaders the `repro`
//! harness uses.
//!
//! [`EngineSpec`] pins every build parameter (dataset sizes, shard
//! count, thresholds, and the per-domain default query parameters), so
//! two processes constructing an [`EngineSet`] from equal specs hold
//! bit-identical datasets — which is what lets `repro server-smoke` (and
//! CI) diff a network round-trip's `result_hash` against a direct
//! in-process [`ShardedIndex::search_batch_on`] run.
//!
//! [`EngineSet::run_streaming`] is the server's execution core: it
//! takes one micro-batch of mixed-domain queries, groups them by domain
//! and by equal per-request parameters, fans each group through
//! [`ShardedIndex::search_batch_on`] on the shared persistent
//! [`WorkerPool`], and emits each group's answers as it completes —
//! cheapest group first (shortest-job-first by a measured per-query
//! cost EMA, the server's one cost-driven decision), so a mixed batch's
//! cheap replies never wait for its GED share.
//! [`EngineSet::run`] is the collect-everything wrapper used by
//! in-process reference runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use pigeonring_core::viability::ParamError;
use pigeonring_datagen::{sample_query_ids, GraphConfig, SetConfig, StringConfig, VectorConfig};
use pigeonring_editdist::{EditParams, GramDictionary, GramOrder, QGramCollection, RingEdit};
use pigeonring_graph::{GraphParams, RingGraph};
use pigeonring_hamming::{CostModel, HammingParams, Partitioning, RingHamming};
use pigeonring_service::{IndexMetrics, MergeStats, SearchEngine, ShardedIndex, WorkerPool};
use pigeonring_setsim::{Collection, RingSetSim, SetParams, Threshold, TokenDictionary};
use pigeonring_telemetry::trace::{kind, TraceBatch, TraceScope};
use pigeonring_telemetry::{Counter, MetricsRegistry};

use crate::wire::{Domain, DomainQuery, ErrorCode, Response, CONNECTION_REQUEST_ID};

/// Everything needed to reconstruct the served datasets and engines
/// deterministically. Field-for-field equality ⇒ identical indexes.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSpec {
    /// Shard count for every domain's [`ShardedIndex`].
    pub shards: usize,
    /// Records in the Hamming dataset (gist-like, 256 dims).
    pub hamming_n: usize,
    /// Records in the edit-distance dataset (imdb-like).
    pub edit_n: usize,
    /// Records in the set-similarity dataset (dblp-like).
    pub set_n: usize,
    /// Records in the graph dataset (aids-like).
    pub graph_n: usize,
    /// Queries sampled per domain by [`EngineSpec::sample_queries`].
    pub query_count: usize,
    /// Hamming: parts `m`.
    pub hamming_m: usize,
    /// Hamming default query threshold `τ`.
    pub hamming_tau: u32,
    /// Hamming default chain length `l`.
    pub hamming_l: u32,
    /// Edit distance: build-time threshold `τ`.
    pub edit_tau: usize,
    /// Edit distance: q-gram length `κ`.
    pub edit_kappa: usize,
    /// Edit distance default chain length `l`.
    pub edit_l: u32,
    /// Set similarity: build-time Jaccard threshold.
    pub set_tau: f64,
    /// Set similarity: parts `m`.
    pub set_m: usize,
    /// Set similarity default chain length `l`.
    pub set_l: u32,
    /// Graph: build-time GED threshold `τ`.
    pub graph_tau: usize,
    /// Graph default chain length `l`.
    pub graph_l: u32,
}

impl EngineSpec {
    /// The full-scale reproduction spec (the `repro fig9`–`fig12` Ring
    /// configurations: gist/imdb/dblp/aids datasets and thresholds).
    pub fn full() -> Self {
        EngineSpec {
            shards: 2,
            hamming_n: 100_000,
            edit_n: 20_000,
            set_n: 20_000,
            graph_n: 2_000,
            query_count: 50,
            hamming_m: 16,
            hamming_tau: 48,
            hamming_l: 5,
            edit_tau: 2,
            edit_kappa: 2,
            edit_l: 3,
            set_tau: 0.8,
            set_m: 5,
            set_l: 2,
            graph_tau: 4,
            graph_l: 4,
        }
    }

    /// Seconds-long smoke spec (CI / tests): datasets 10× smaller.
    pub fn quick() -> Self {
        EngineSpec {
            hamming_n: 10_000,
            edit_n: 2_000,
            set_n: 2_000,
            graph_n: 200,
            query_count: 10,
            ..EngineSpec::full()
        }
    }

    /// Paper-§8-scale spec (10× `full`); pair with a real multi-core
    /// host.
    pub fn paper() -> Self {
        EngineSpec {
            hamming_n: 1_000_000,
            edit_n: 200_000,
            set_n: 200_000,
            graph_n: 20_000,
            query_count: 100,
            ..EngineSpec::full()
        }
    }

    /// Deterministic per-domain query sets drawn from the served
    /// datasets, wrapped with this spec's default parameters. Clients
    /// (`repro query`) call this without building any index: generation
    /// is pure in the spec.
    pub fn sample_queries(&self, domain: Domain) -> Vec<DomainQuery> {
        match domain {
            #[expect(
                clippy::indexing_slicing,
                reason = "sample_query_ids draws ids < data.len()"
            )]
            Domain::Hamming => {
                let data = VectorConfig::gist_like(self.hamming_n).generate();
                sample_query_ids(data.len(), self.query_count, 1)
                    .into_iter()
                    .map(|i| DomainQuery::Hamming {
                        query: data[i].clone(),
                        tau: self.hamming_tau,
                        l: self.hamming_l,
                    })
                    .collect()
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "sample_query_ids draws ids < data.len()"
            )]
            Domain::Edit => {
                let data = StringConfig::imdb_like(self.edit_n).generate();
                sample_query_ids(data.len(), self.query_count, 5)
                    .into_iter()
                    .map(|i| DomainQuery::Edit {
                        query: data[i].clone(),
                        l: self.edit_l,
                    })
                    .collect()
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "sample_query_ids draws ids < data.len()"
            )]
            Domain::Set => {
                let data = SetConfig::dblp_like(self.set_n).generate();
                sample_query_ids(data.len(), self.query_count, 4)
                    .into_iter()
                    .map(|i| DomainQuery::Set {
                        tokens: data[i].clone(),
                        l: self.set_l,
                    })
                    .collect()
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "sample_query_ids draws ids < data.len()"
            )]
            Domain::Graph => {
                let data = GraphConfig::aids_like(self.graph_n).generate();
                sample_query_ids(data.len(), self.query_count, 7)
                    .into_iter()
                    .map(|i| DomainQuery::Graph {
                        query: data[i].clone(),
                        l: self.graph_l,
                    })
                    .collect()
            }
        }
    }
}

/// The four sharded domain indexes a server instance answers from.
pub struct EngineSet {
    spec: EngineSpec,
    hamming: ShardedIndex<RingHamming>,
    edit: ShardedIndex<RingEdit>,
    set: ShardedIndex<RingSetSim>,
    graph: ShardedIndex<RingGraph>,
    /// Dimensionality of the Hamming dataset; queries with any other
    /// dimensionality, or with `τ` above it, draw a typed `InvalidQuery`
    /// error.
    hamming_dims: usize,
    /// Exponential moving average of measured per-query execution
    /// nanos, one slot per domain in [`Domain::ALL`] order (`0` = not
    /// sampled yet). [`EngineSet::run_streaming`] uses it to order a
    /// mixed batch's domain groups shortest-job-first, so whichever
    /// domains are cheap *on this dataset and scale* answer before the
    /// expensive ones — the ordering adapts instead of hard-coding
    /// "graph is slow". The time is wall-clock around the group's
    /// execution, so under load it includes pool queueing.
    cost_ema_ns: [AtomicU64; 4],
    /// Per-domain service-layer counters ([`Domain::ALL`] order),
    /// populated by [`EngineSet::attach_metrics`]. Absent ⇒ queries run
    /// with zero accounting overhead.
    metrics: OnceLock<[DomainCounters; 4]>,
}

/// One domain's service-layer counters: total queries answered plus the
/// engine's own filter-chain stage counters. Stage values come from the
/// merged per-shard stats ([`MergeStats::visit`]), so the exported
/// numbers are exactly what the engines measured — not a re-count.
struct DomainCounters {
    queries: Arc<Counter>,
    stages: Vec<(&'static str, Arc<Counter>)>,
}

/// Registers `service.{domain}.queries` plus one
/// `service.{domain}.stage.{field}` counter per field `S` exports.
fn domain_counters<S: MergeStats>(registry: &MetricsRegistry, domain: Domain) -> DomainCounters {
    let queries = registry.counter(&format!("service.{domain}.queries"));
    let mut stages = Vec::new();
    S::default().visit(&mut |name, _| {
        stages.push((
            name,
            registry.counter(&format!("service.{domain}.stage.{name}")),
        ));
    });
    DomainCounters { queries, stages }
}

impl EngineSet {
    /// Builds all four domain indexes from `spec` (deterministic:
    /// equal specs ⇒ identical engines).
    ///
    /// Every domain whose plans depend on corpus-wide state is built
    /// dictionary-first ([`ShardedIndex::build_global`]): hamming shards
    /// share one [`CostModel`] sampled from the whole corpus (so every
    /// shard allocates thresholds exactly as the unsharded engine
    /// would), editdist shards one [`GramDictionary`] and setsim shards
    /// one [`TokenDictionary`]. The service layer plans each query once
    /// and every shard executes the same plan — batched mixed-domain
    /// dispatches through the TCP frontend inherit plan sharing for
    /// free. Graph plans depend on the query alone, so graph shards
    /// share the unit dictionary.
    pub fn build(spec: EngineSpec) -> Self {
        let vectors = VectorConfig::gist_like(spec.hamming_n).generate();
        let hamming_dims = vectors.first().map_or(0, |v| v.dims());
        let m = spec.hamming_m;
        let hamming = ShardedIndex::build_global(
            vectors,
            spec.shards,
            |corpus| {
                // No model for an empty corpus: it has no shards to build.
                corpus.first().map(|v| {
                    let parts = Partitioning::equi_width(v.dims(), m);
                    std::sync::Arc::new(CostModel::build(corpus, &parts, RingHamming::COST_SAMPLE))
                })
            },
            |cost, shard| {
                #[expect(
                    clippy::expect_used,
                    reason = "shards are built from corpus records, so a shard to build means a non-empty corpus, which has a model"
                )]
                let cost = cost.as_ref().expect("non-empty corpus has a cost model");
                RingHamming::with_cost_model(shard, m, std::sync::Arc::clone(cost))
            },
        );
        let (tau, kappa) = (spec.edit_tau, spec.edit_kappa);
        let edit = ShardedIndex::build_global(
            StringConfig::imdb_like(spec.edit_n).generate(),
            spec.shards,
            |corpus| {
                std::sync::Arc::new(GramDictionary::build(corpus, kappa, GramOrder::Frequency))
            },
            |dict, shard| {
                RingEdit::build(
                    QGramCollection::with_dictionary(shard, std::sync::Arc::clone(dict)),
                    tau,
                )
            },
        );
        let (jaccard, set_m) = (Threshold::jaccard(spec.set_tau), spec.set_m);
        let set = ShardedIndex::build_global(
            SetConfig::dblp_like(spec.set_n).generate(),
            spec.shards,
            |corpus| std::sync::Arc::new(TokenDictionary::build(corpus)),
            |dict, shard| {
                RingSetSim::build(
                    Collection::with_dictionary(shard, std::sync::Arc::clone(dict)),
                    jaccard,
                    set_m,
                )
            },
        );
        let graph_tau = spec.graph_tau;
        let graph = ShardedIndex::build(
            GraphConfig::aids_like(spec.graph_n).generate(),
            spec.shards,
            |shard| RingGraph::build(shard, graph_tau),
        );
        EngineSet {
            spec,
            hamming,
            edit,
            set,
            graph,
            hamming_dims,
            cost_ema_ns: Default::default(),
            metrics: OnceLock::new(),
        }
    }

    /// Registers this set's metrics in `registry` and starts recording:
    /// per-domain plan/search latency and batch-size histograms
    /// (`index.{domain}.*`, attached to each [`ShardedIndex`]), a
    /// `service.{domain}.queries` counter, and one
    /// `service.{domain}.stage.{field}` counter per filter-chain stage
    /// statistic the domain's engine exports. First attach wins;
    /// queries served before the attach are simply not counted.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        self.hamming
            .attach_metrics(IndexMetrics::register(registry, "index.hamming"));
        self.edit
            .attach_metrics(IndexMetrics::register(registry, "index.editdist"));
        self.set
            .attach_metrics(IndexMetrics::register(registry, "index.setsim"));
        self.graph
            .attach_metrics(IndexMetrics::register(registry, "index.graph"));
        let _ = self.metrics.set([
            domain_counters::<<RingHamming as SearchEngine>::Stats>(registry, Domain::Hamming),
            domain_counters::<<RingEdit as SearchEngine>::Stats>(registry, Domain::Edit),
            domain_counters::<<RingSetSim as SearchEngine>::Stats>(registry, Domain::Set),
            domain_counters::<<RingGraph as SearchEngine>::Stats>(registry, Domain::Graph),
        ]);
    }

    /// The spec this set was built from.
    pub fn spec(&self) -> &EngineSpec {
        &self.spec
    }

    /// The sharded Hamming index (for direct in-process comparison).
    pub fn hamming_index(&self) -> &ShardedIndex<RingHamming> {
        &self.hamming
    }

    /// The sharded edit-distance index.
    pub fn edit_index(&self) -> &ShardedIndex<RingEdit> {
        &self.edit
    }

    /// The sharded set-similarity index.
    pub fn set_index(&self) -> &ShardedIndex<RingSetSim> {
        &self.set
    }

    /// The sharded graph index.
    pub fn graph_index(&self) -> &ShardedIndex<RingGraph> {
        &self.graph
    }

    /// Executes one micro-batch of mixed-domain queries on `pool`,
    /// returning one [`Response`] per query in request order.
    /// Convenience wrapper over [`EngineSet::run_streaming`] for
    /// callers that want the whole batch at once (the in-process
    /// reference path of `repro server-smoke`); responses carry
    /// [`CONNECTION_REQUEST_ID`] —
    /// the server's dispatcher stamps real ids on.
    #[expect(
        clippy::expect_used,
        reason = "run_streaming emits exactly once per slot"
    )]
    pub fn run(&self, pool: &WorkerPool, queries: Vec<DomainQuery>) -> Vec<Response> {
        let mut responses: Vec<Option<Response>> = queries.iter().map(|_| None).collect();
        let traces = TraceBatch::untraced(queries.len());
        #[expect(
            clippy::indexing_slicing,
            reason = "run_streaming emits slots < queries.len()"
        )]
        self.run_streaming(pool, queries, &traces, &mut |slot, resp| {
            responses[slot] = Some(resp);
        });
        responses
            .into_iter()
            .map(|r| r.expect("every query answered"))
            .collect()
    }

    /// Executes one micro-batch of mixed-domain queries on `pool`,
    /// calling `emit(slot, response)` exactly once per query — **as
    /// each domain group completes**, cheapest group first
    /// (shortest-job-first by the measured per-query cost EMA), so a
    /// mixed batch's cheap answers are on the wire before its expensive
    /// share has run.
    ///
    /// Queries are grouped by domain *and* by equal per-request
    /// parameters, so each group inherits the batched shard fan-out of
    /// [`ShardedIndex::search_batch_on`]; invalid queries (a Hamming
    /// vector of the wrong dimensionality, or params the domain's
    /// `*Params::validate` rejects) get a typed `InvalidQuery` error
    /// without disturbing the rest of the batch.
    ///
    /// `traces` names the traced slots: each traced query gets a
    /// `dispatch` span for its param-group's execution (with `plan` /
    /// `pool` / `shard` children from the sharded index) plus one
    /// zero-duration `stage` marker per filter-chain statistic its
    /// engine reported — all flushed *before* the query's `emit`, so an
    /// EXPLAIN export taken at emit time sees the whole tree.
    pub fn run_streaming(
        &self,
        pool: &WorkerPool,
        queries: Vec<DomainQuery>,
        traces: &TraceBatch,
        emit: &mut dyn FnMut(usize, Response),
    ) {
        let mut hamming: Vec<(usize, pigeonring_hamming::BitVector, HammingParams)> = Vec::new();
        let mut edit: Vec<(usize, Vec<u8>, EditParams)> = Vec::new();
        let mut set: Vec<(usize, Vec<u32>, SetParams)> = Vec::new();
        let mut graph: Vec<(usize, pigeonring_graph::Graph, GraphParams)> = Vec::new();
        let (spec, d) = (&self.spec, self.hamming_dims);
        for (i, q) in queries.into_iter().enumerate() {
            // The engine would panic on a vector of another dimensionality
            // or a chain length outside `1..=m`: each draws a typed error.
            let admitted = match q {
                DomainQuery::Hamming { query, .. } if query.dims() != d => {
                    Err(format!("query has {} dims, dataset has {d}", query.dims()))
                }
                DomainQuery::Hamming { query, tau, l } => {
                    let params = HammingParams { tau, l: l as usize };
                    let valid = params.validate(spec.hamming_m, d);
                    admit(&mut hamming, (i, query, params), valid)
                }
                DomainQuery::Edit { query, l } => {
                    let params = EditParams { l: l as usize };
                    let valid = params.validate(spec.edit_tau);
                    admit(&mut edit, (i, query, params), valid)
                }
                DomainQuery::Set { tokens, l } => {
                    let params = SetParams { l: l as usize };
                    let valid = params.validate(spec.set_m);
                    admit(&mut set, (i, tokens, params), valid)
                }
                DomainQuery::Graph { query, l } => {
                    let params = GraphParams { l: l as usize };
                    let valid = params.validate(spec.graph_tau);
                    admit(&mut graph, (i, query, params), valid)
                }
            };
            if let Err(message) = admitted {
                emit(
                    i,
                    Response::Error {
                        request_id: CONNECTION_REQUEST_ID,
                        code: ErrorCode::InvalidQuery,
                        message,
                    },
                );
            }
        }
        // Shortest job first: order the batch's domain groups by their
        // estimated total execution time (per-query cost EMA × group
        // size), so the cheap share of a mixed batch never waits on the
        // expensive share. Unsampled domains estimate 0 and run early —
        // they get sampled on first contact. Ties keep Domain::ALL
        // order, so the ordering (and the result stream) stays
        // deterministic for a given cost state.
        let sizes = [hamming.len(), edit.len(), set.len(), graph.len()];
        let mut order: [usize; 4] = [0, 1, 2, 3];
        #[expect(
            clippy::indexing_slicing,
            reason = "di ranges over the four fixed domain indices"
        )]
        let estimate = |di: usize| -> u128 {
            self.cost_ema_ns[di].load(Ordering::Relaxed) as u128 * sizes[di] as u128
        };
        order.sort_by_key(|&di| (estimate(di), di));
        for di in order {
            #[expect(
                clippy::indexing_slicing,
                reason = "di ranges over the four fixed domain indices"
            )]
            if sizes[di] == 0 {
                continue;
            }
            let start = std::time::Instant::now();
            #[expect(
                clippy::indexing_slicing,
                reason = "di ranges over the four fixed domain indices"
            )]
            let counters = self.metrics.get().map(|m| &m[di]);
            #[expect(
                clippy::indexing_slicing,
                reason = "di ranges over the four fixed domain indices"
            )]
            match Domain::ALL[di] {
                Domain::Hamming => run_groups(
                    pool,
                    &self.hamming,
                    std::mem::take(&mut hamming),
                    counters,
                    traces,
                    emit,
                ),
                Domain::Edit => run_groups(
                    pool,
                    &self.edit,
                    std::mem::take(&mut edit),
                    counters,
                    traces,
                    emit,
                ),
                Domain::Set => run_groups(
                    pool,
                    &self.set,
                    std::mem::take(&mut set),
                    counters,
                    traces,
                    emit,
                ),
                Domain::Graph => run_groups(
                    pool,
                    &self.graph,
                    std::mem::take(&mut graph),
                    counters,
                    traces,
                    emit,
                ),
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "di ranges over the four fixed domain indices"
            )]
            let per_query_ns =
                (start.elapsed().as_nanos() / sizes[di] as u128).min(u64::MAX as u128) as u64;
            // EMA with a 1/4 step: smooth enough to ride out one odd
            // batch, fresh enough to track warmup and load shifts.
            #[expect(
                clippy::indexing_slicing,
                reason = "di ranges over the four fixed domain indices"
            )]
            let _ =
                self.cost_ema_ns[di].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                    Some(if old == 0 {
                        per_query_ns.max(1)
                    } else {
                        (old - old / 4).saturating_add(per_query_ns / 4).max(1)
                    })
                });
        }
    }
}

/// Queues `item` on its domain group when its params are `valid`;
/// otherwise the `InvalidQuery` message.
fn admit<T>(group: &mut Vec<T>, item: T, valid: Result<(), ParamError>) -> Result<(), String> {
    valid.map_err(|e| e.to_string())?;
    group.push(item);
    Ok(())
}

/// Runs one domain's share of a micro-batch: splits it into runs of
/// equal parameters, answers each run with one batched shard fan-out,
/// and emits results into their request slots as each run completes.
/// When `counters` is attached, folds each run's merged engine stats
/// into the domain's stage counters before emitting. Traced slots get
/// a `dispatch` span around their run plus per-stage markers carrying
/// the query's own merged stats (flushed before `emit`).
fn run_groups<E>(
    pool: &WorkerPool,
    index: &ShardedIndex<E>,
    items: Vec<(usize, E::Query, E::Params)>,
    counters: Option<&DomainCounters>,
    traces: &TraceBatch,
    emit: &mut dyn FnMut(usize, Response),
) where
    E: pigeonring_service::SearchEngine,
    E::Params: PartialEq,
{
    let mut items = items.into_iter().peekable();
    while let Some((slot, query, params)) = items.next() {
        let mut slots = vec![slot];
        let mut batch = vec![query];
        while let Some((s, q, _)) = items.next_if(|(_, _, p)| *p == params) {
            slots.push(s);
            batch.push(q);
        }
        // One dispatch span per traced query of this run; the sharded
        // index parents its plan/pool/shard spans under them.
        let results = TraceScope::span(
            traces.scope(&slots).as_ref(),
            kind::DISPATCH,
            &[("batch", batch.len() as u64)],
            |scope| index.search_batch_on_traced(pool, &batch, &params, scope),
        );
        if let Some(c) = traces.collector() {
            let mut buf = Vec::new();
            // Stage markers carry each traced query's *own* merged
            // stats (not the run total), parented on the root so the
            // per-stage pruning story reads directly off the trace.
            for (&s, result) in slots.iter().zip(&results) {
                if let Some((trace_id, root)) = traces.target(s) {
                    result.stats.visit(&mut |name, value| {
                        buf.push(c.instant(
                            trace_id,
                            root,
                            kind::STAGE,
                            name,
                            vec![("count", value)],
                        ));
                    });
                }
            }
            c.extend(buf);
        }
        if let Some(c) = counters {
            c.queries.add(batch.len() as u64);
            let mut total = E::Stats::default();
            for r in &results {
                total.merge(&r.stats);
            }
            total.visit(&mut |name, value| {
                if let Some((_, counter)) = c.stages.iter().find(|(n, _)| *n == name) {
                    counter.add(value);
                }
            });
        }
        for (slot, result) in slots.into_iter().zip(results) {
            emit(
                slot,
                Response::Results {
                    request_id: CONNECTION_REQUEST_ID,
                    ids: result.ids,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> EngineSpec {
        EngineSpec {
            shards: 2,
            hamming_n: 300,
            edit_n: 200,
            set_n: 200,
            graph_n: 60,
            query_count: 4,
            ..EngineSpec::full()
        }
    }

    #[test]
    fn mixed_batch_matches_direct_search() {
        let engines = EngineSet::build(tiny_spec());
        let pool = WorkerPool::new(2);
        // Interleave all four domains in one micro-batch.
        let mut batch = Vec::new();
        for d in Domain::ALL {
            batch.extend(engines.spec().sample_queries(d).into_iter().take(2));
        }
        batch.rotate_left(3);
        let responses = engines.run(&pool, batch.clone());
        assert_eq!(responses.len(), batch.len());
        for (q, resp) in batch.iter().zip(&responses) {
            let Response::Results { ids, .. } = resp else {
                panic!("expected results for {q:?}, got {resp:?}");
            };
            let expect = match q {
                DomainQuery::Hamming { query, tau, l } => {
                    let params = HammingParams {
                        tau: *tau,
                        l: *l as usize,
                    };
                    engines.hamming_index().search(query, &params).ids
                }
                DomainQuery::Edit { query, l } => {
                    let params = EditParams { l: *l as usize };
                    engines.edit_index().search(query, &params).ids
                }
                DomainQuery::Set { tokens, l } => {
                    let params = SetParams { l: *l as usize };
                    engines.set_index().search(tokens, &params).ids
                }
                DomainQuery::Graph { query, l } => {
                    let params = GraphParams { l: *l as usize };
                    engines.graph_index().search(query, &params).ids
                }
            };
            assert_eq!(ids, &expect);
        }
    }

    #[test]
    fn wrong_dims_gets_typed_error_without_breaking_batch() {
        let engines = EngineSet::build(tiny_spec());
        let pool = WorkerPool::new(1);
        let good = engines.spec().sample_queries(Domain::Hamming);
        let bad = DomainQuery::Hamming {
            query: pigeonring_hamming::BitVector::zeros(8),
            tau: 4,
            l: 2,
        };
        let batch = vec![good[0].clone(), bad, good[1].clone()];
        let responses = engines.run(&pool, batch);
        assert!(matches!(responses[0], Response::Results { .. }));
        assert!(matches!(
            responses[1],
            Response::Error {
                code: ErrorCode::InvalidQuery,
                ..
            }
        ));
        assert!(matches!(responses[2], Response::Results { .. }));
    }

    #[test]
    fn streaming_emits_fast_domains_before_graph() {
        let engines = EngineSet::build(tiny_spec());
        let pool = WorkerPool::new(2);
        let mut batch = Vec::new();
        for d in Domain::ALL {
            batch.extend(engines.spec().sample_queries(d).into_iter().take(2));
        }
        batch.rotate_left(5); // graph queries sit in front of hamming's
        let domains: Vec<Domain> = batch.iter().map(DomainQuery::domain).collect();
        let mut order = Vec::new();
        let traces = TraceBatch::untraced(batch.len());
        engines.run_streaming(&pool, batch, &traces, &mut |slot, _| {
            order.push(domains[slot])
        });
        assert_eq!(order.len(), domains.len(), "every query answered once");
        let last_hamming = order
            .iter()
            .rposition(|&d| d == Domain::Hamming)
            .expect("hamming in batch");
        let first_graph = order
            .iter()
            .position(|&d| d == Domain::Graph)
            .expect("graph in batch");
        assert!(
            last_hamming < first_graph,
            "hamming must be emitted before any graph reply: {order:?}"
        );
    }

    #[test]
    fn equal_specs_build_identical_engines() {
        let a = EngineSet::build(tiny_spec());
        let b = EngineSet::build(tiny_spec());
        let pool = WorkerPool::new(2);
        for d in Domain::ALL {
            let queries = a.spec().sample_queries(d);
            let ra = a.run(&pool, queries.clone());
            let rb = b.run(&pool, queries);
            assert_eq!(ra, rb, "domain {d}");
        }
    }
}
