//! Inputs and the systems under test: generated records and queries, the
//! unsharded engines (the oracle, and the `direct` workload's system), the
//! `sharded` workload's indexes, and the in-process TCP server.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use pigeonring_server::{Client, DomainQuery, EngineSet, EngineSpec, ServerConfig, ServerHandle};
use pigeonring_service::{ShardedIndex, WorkerPool};
use pigeonring_telemetry::json::parse;
use pigeonring_telemetry::Snapshot;

use crate::domains::{DomainBench, Edit, GraphDom, Hamming, Set};
use crate::oracle::{expected_answers, linear_scan_mismatches, make_queries, Checker, Expected};
use crate::workloads::MIXED_CONNS;

/// Shards of the `sharded` workload's indexes.
pub const SHARDED_K: usize = 4;
/// Workers of the `sharded` workload's pool and of the server's pool, as
/// `ISSUE.md` sizes them. The process is pinned to one CPU (see `pin`), so
/// the two never run at the same instant: the pool's hand-offs are
/// measured, a parallel speed-up is not.
pub const POOL_WORKERS: usize = 2;
/// Consecutive builds behind `setup_s` and the `*.build_s` metrics (the
/// fastest is reported).
pub const SETUP_REPS: usize = 5;

/// Queries per domain and the linear-scan sub-sample size.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Queries for hamming, editdist and setsim.
    pub queries: usize,
    /// Queries for graph.
    pub graph_queries: usize,
    /// Queries checked against an exhaustive scan (graph: a fifth).
    pub scan_sample: usize,
    /// Queries per domain in the traced run and the layer probes (graph:
    /// a quarter).
    pub trace_prefix: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` is calibrated for.
    pub fn full() -> Self {
        Sizes {
            queries: 1000,
            graph_queries: 200,
            scan_sample: 100,
            trace_prefix: 200,
        }
    }

    /// Smoke-test sizes (`--quick`).
    pub fn quick() -> Self {
        Sizes {
            queries: 200,
            graph_queries: 40,
            scan_sample: 20,
            trace_prefix: 40,
        }
    }
}

/// One domain's inputs and oracle.
pub struct DomainState<D: DomainBench> {
    /// The generated dataset.
    pub records: Vec<D::Record>,
    /// The seeded queries.
    pub queries: Vec<D::Record>,
    /// The queries in wire form.
    pub wire: Vec<DomainQuery>,
    /// The unsharded engine; dropped once the oracle is done unless the
    /// run needs it again.
    pub engine: Option<D::Engine>,
    /// Expected ids and stage totals from the unsharded engine.
    pub expected: Expected,
    /// Seconds each unsharded build took.
    pub build_s: Vec<f64>,
    /// Queries in the traced run and the layer probes.
    pub prefix: usize,
}

impl<D: DomainBench> DomainState<D> {
    fn new(
        records: Vec<D::Record>,
        spec: &EngineSpec,
        count: usize,
        prefix: usize,
        seed: u64,
    ) -> Self {
        let queries = make_queries::<D>(&records, count, seed);
        let wire = queries.iter().map(|q| D::wire(q, spec)).collect();
        DomainState {
            records,
            queries,
            wire,
            engine: None,
            expected: Expected {
                ids: Vec::new(),
                stage_totals: Default::default(),
            },
            build_s: Vec::new(),
            prefix: prefix.min(count),
        }
    }

    /// Builds the unsharded engine once more, keeping the newest.
    fn build_engine(&mut self, spec: &EngineSpec) {
        let records = self.records.clone();
        self.engine = None;
        let start = Instant::now();
        let engine = D::build(records, spec);
        self.build_s.push(start.elapsed().as_secs_f64());
        self.engine = Some(engine);
    }

    /// Fills `expected` from the engine and checks a seeded sub-sample of
    /// it against an exhaustive scan.
    fn run_oracle(&mut self, spec: &EngineSpec, sample: usize, seed: u64, checker: &Checker) {
        let engine = self
            .engine
            .as_ref()
            .expect("engine built before the oracle");
        self.expected = expected_answers::<D>(engine, &self.queries, &D::params(spec, None));
        checker.fail_oracle(linear_scan_mismatches::<D>(
            engine,
            &self.queries,
            &self.expected.ids,
            sample,
            seed,
            spec,
        ));
    }

    /// The unsharded engine (panics once dropped).
    pub fn engine(&self) -> &D::Engine {
        self.engine.as_ref().expect("unsharded engine kept")
    }
}

/// All four domains' state.
pub struct World {
    /// Hamming.
    pub hamming: DomainState<Hamming>,
    /// Edit distance.
    pub edit: DomainState<Edit>,
    /// Set similarity.
    pub set: DomainState<Set>,
    /// Graph edit distance.
    pub graph: DomainState<GraphDom>,
    /// Seconds the four dataset generators took together.
    pub datagen_s: f64,
}

/// Runs `$body` once per domain with `$st` bound to its state.
#[macro_export]
macro_rules! each_domain {
    ($world:expr, $st:ident => $body:expr) => {{
        {
            let $st = &mut $world.hamming;
            $body;
        }
        {
            let $st = &mut $world.edit;
            $body;
        }
        {
            let $st = &mut $world.set;
            $body;
        }
        {
            let $st = &mut $world.graph;
            $body;
        }
    }};
}

impl World {
    /// Generates datasets (timed) and queries (not timed).
    pub fn generate(spec: &EngineSpec, sizes: Sizes, seed: u64) -> World {
        let start = Instant::now();
        let records = (
            Hamming::records(spec),
            Edit::records(spec),
            Set::records(spec),
            GraphDom::records(spec),
        );
        let datagen_s = start.elapsed().as_secs_f64();
        let (queries, prefix) = (sizes.queries, sizes.trace_prefix);
        World {
            hamming: DomainState::new(records.0, spec, queries, prefix, seed),
            edit: DomainState::new(records.1, spec, queries, prefix, seed),
            set: DomainState::new(records.2, spec, queries, prefix, seed),
            graph: DomainState::new(records.3, spec, sizes.graph_queries, prefix / 4, seed),
            datagen_s,
        }
    }

    /// Builds the four unsharded engines `reps` times in a row and returns
    /// the seconds each round's builds took; the last round's engines stay.
    pub fn build_engines(&mut self, spec: &EngineSpec, reps: usize) -> Vec<f64> {
        (0..reps)
            .map(|_| {
                let mut round_s = 0.0;
                each_domain!(self, st => {
                    st.build_engine(spec);
                    round_s += st.build_s.last().copied().unwrap_or(0.0);
                });
                round_s
            })
            .collect()
    }

    /// Computes expected answers and runs the linear-scan check.
    pub fn run_oracle(&mut self, spec: &EngineSpec, sizes: Sizes, seed: u64, checker: &Checker) {
        self.hamming
            .run_oracle(spec, sizes.scan_sample, seed, checker);
        self.edit.run_oracle(spec, sizes.scan_sample, seed, checker);
        self.set.run_oracle(spec, sizes.scan_sample, seed, checker);
        self.graph
            .run_oracle(spec, sizes.scan_sample / 5, seed, checker);
    }

    /// Drops the unsharded engines.
    pub fn drop_engines(&mut self) {
        each_domain!(self, st => st.engine = None);
    }
}

/// The `sharded` workload's system: one index per domain and the pool.
pub struct ShardedRig {
    /// Hamming index.
    pub hamming: ShardedIndex<<Hamming as DomainBench>::Engine>,
    /// Edit-distance index.
    pub edit: ShardedIndex<<Edit as DomainBench>::Engine>,
    /// Set-similarity index.
    pub set: ShardedIndex<<Set as DomainBench>::Engine>,
    /// Graph index.
    pub graph: ShardedIndex<<GraphDom as DomainBench>::Engine>,
    /// The explicit pool every `search_batch_on` call runs on.
    pub pool: WorkerPool,
}

impl ShardedRig {
    /// Records in memory → ready to answer.
    pub fn build(world: &World, spec: &EngineSpec, shards: usize) -> (ShardedRig, f64) {
        let records = (
            world.hamming.records.clone(),
            world.edit.records.clone(),
            world.set.records.clone(),
            world.graph.records.clone(),
        );
        let start = Instant::now();
        let rig = ShardedRig {
            hamming: Hamming::build_sharded(records.0, shards, spec),
            edit: Edit::build_sharded(records.1, shards, spec),
            set: Set::build_sharded(records.2, shards, spec),
            graph: GraphDom::build_sharded(records.3, shards, spec),
            pool: WorkerPool::new(POOL_WORKERS),
        };
        (rig, start.elapsed().as_secs_f64())
    }
}

/// The TCP workloads' system: an in-process server with its default
/// configuration over `EngineSet::build(spec)`, the generator connections
/// and a control connection for the Stats endpoint.
pub struct TcpRig {
    /// The served engines (shared with the server).
    pub engines: Arc<EngineSet>,
    server: ServerHandle,
    /// One connection per generator thread.
    pub clients: Vec<Client>,
    /// Stats endpoint only.
    pub control: Client,
}

impl TcpRig {
    /// Spec → listening server that has answered its first `Hello`s.
    /// `EngineSet::build` generates its own records, so unlike the other
    /// rigs this one's set-up time includes dataset generation.
    pub fn start(spec: &EngineSpec) -> Result<(TcpRig, f64), String> {
        let begun = Instant::now();
        let engines = Arc::new(EngineSet::build(spec.clone()));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let server = pigeonring_server::start(
            listener,
            Arc::clone(&engines),
            WorkerPool::new(POOL_WORKERS),
            ServerConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let connect = || Client::connect(server.addr()).map_err(|e| e.to_string());
        let clients = (0..MIXED_CONNS)
            .map(|_| connect())
            .collect::<Result<Vec<_>, _>>()?;
        let secs = begun.elapsed().as_secs_f64();
        let control = connect()?;
        Ok((
            TcpRig {
                engines,
                server,
                clients,
                control,
            },
            secs,
        ))
    }

    /// The server's metrics as the Stats endpoint reports them.
    pub fn stats(&mut self) -> Result<Snapshot, String> {
        parse_stats(&self.control.stats().map_err(|e| e.to_string())?)
    }

    /// Closes the connections, then stops the server and joins its threads.
    pub fn shutdown(self) {
        drop(self.clients);
        drop(self.control);
        self.server.shutdown();
    }
}

/// Parses a Stats document into a metrics snapshot.
pub fn parse_stats(json: &str) -> Result<Snapshot, String> {
    let doc = parse(json)?;
    doc.get("metrics")
        .and_then(Snapshot::from_json)
        .ok_or_else(|| "Stats document has no metrics snapshot".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeonring_telemetry::MetricsRegistry;

    #[test]
    fn stats_snapshots_parse_and_subtract() {
        let registry = MetricsRegistry::new();
        let replies = registry.counter("server.lane.hamming.admitted");
        let wait = registry.histogram("server.hamming.queue_wait_us");
        let doc = |r: &MetricsRegistry| {
            format!(
                "{{\"machine\": {{}}, \"uptime_ms\": 1, \"metrics\": {}, \"slow_queries\": []}}",
                r.snapshot().to_json()
            )
        };
        replies.add(3);
        wait.record(10);
        let before = parse_stats(&doc(&registry)).unwrap();
        replies.add(4);
        wait.record(30);
        wait.record(50);
        let after = parse_stats(&doc(&registry)).unwrap();
        let delta = after.delta(&before);
        assert_eq!(delta.counters["server.lane.hamming.admitted"], 4);
        let h = &delta.histograms["server.hamming.queue_wait_us"];
        assert_eq!((h.count, h.sum), (2, 80));
        assert_eq!(h.mean(), 40.0);
        assert!(parse_stats("{\"uptime_ms\": 1}").is_err());
        assert!(parse_stats("not json").is_err());
    }
}
