//! The four domains behind one trait, so workloads and layer probes are
//! written once and instantiated four times.
//!
//! Everything here calls only public items of the domain crates; the
//! sharded builds repeat `EngineSet::build`'s closures (dictionary-first
//! for editdist/setsim, legacy for hamming/graph) because `EngineSet`
//! offers no entry point that takes records.

use std::sync::Arc;

use pigeonring_datagen::{GraphConfig, SetConfig, StringConfig, VectorConfig};
use pigeonring_editdist::verify::edit_distance_within;
use pigeonring_editdist::{EditParams, GramDictionary, GramOrder, QGramCollection, RingEdit};
use pigeonring_graph::pars::LinearScanGraphs;
use pigeonring_graph::{ged_within, Graph, GraphParams, RingGraph};
use pigeonring_hamming::{
    kernels, AllocationStrategy, BitVector, HammingParams, LinearScan, RingHamming,
};
use pigeonring_server::{Domain, DomainQuery, EngineSet, EngineSpec};
use pigeonring_service::{SearchEngine, ShardedIndex};
use pigeonring_setsim::types::overlap_at_least;
use pigeonring_setsim::{
    Collection, LinearScanSets, RingSetSim, SetParams, Threshold, TokenDictionary,
};
use rand::rngs::SmallRng;
use rand::Rng;

/// Scratch type of a domain's engine.
pub type ScratchOf<D> = <<D as DomainBench>::Engine as SearchEngine>::Scratch;
/// Params type of a domain's engine.
pub type ParamsOf<D> = <<D as DomainBench>::Engine as SearchEngine>::Params;
/// Stats type of a domain's engine.
pub type StatsOf<D> = <<D as DomainBench>::Engine as SearchEngine>::Stats;

/// One similarity domain as the benchmark sees it. A record and a query
/// have the same type in all four domains.
pub trait DomainBench: 'static {
    /// The domain's pigeonring engine.
    type Engine: SearchEngine<Query = Self::Record>;
    /// Record and query type.
    type Record: Clone + Send + Sync + 'static;

    /// Metric-name prefix (`hamming`, `editdist`, `setsim`, `graph`).
    const NAME: &'static str;
    /// The wire domain.
    const WIRE: Domain;
    /// Stage counters reported per query beyond candidates/results:
    /// the `Stats` field names as `MergeStats::visit` emits them.
    const STAGES: &'static [&'static str];

    /// The dataset `EngineSet::build(spec)` serves for this domain.
    fn records(spec: &EngineSpec) -> Vec<Self::Record>;
    /// The unsharded engine over `records`.
    fn build(records: Vec<Self::Record>, spec: &EngineSpec) -> Self::Engine;
    /// A `shards`-way index built the way `EngineSet::build` builds it.
    fn build_sharded(
        records: Vec<Self::Record>,
        shards: usize,
        spec: &EngineSpec,
    ) -> ShardedIndex<Self::Engine>;
    /// The server's own index for this domain.
    fn index_of(engines: &EngineSet) -> &ShardedIndex<Self::Engine>;
    /// Search parameters at chain length `l` (`None` = the spec's default).
    fn params(spec: &EngineSpec, l: Option<usize>) -> ParamsOf<Self>;
    /// Candidate generation only (filter without verification).
    fn candidates(
        engine: &Self::Engine,
        scratch: &mut ScratchOf<Self>,
        query: &Self::Record,
        params: &ParamsOf<Self>,
    ) -> (Vec<u32>, StatsOf<Self>);
    /// Runs the verification kernel on every `(query, candidate)` pair
    /// and returns how many passed.
    fn verify_all(
        engine: &Self::Engine,
        query: &Self::Record,
        cands: &[u32],
        spec: &EngineSpec,
    ) -> usize;
    /// Exhaustive reference answer, ascending ids.
    fn linear_scan(engine: &Self::Engine, query: &Self::Record, spec: &EngineSpec) -> Vec<u32>;
    /// Turns an index member into a near miss (seeded).
    fn perturb(query: &mut Self::Record, rng: &mut SmallRng);
    /// The query as the wire protocol carries it, at the spec's defaults.
    fn wire(query: &Self::Record, spec: &EngineSpec) -> DomainQuery;
}

/// Hamming distance over 256-d bit vectors.
pub struct Hamming;
/// Edit distance over byte strings.
pub struct Edit;
/// Jaccard similarity over token sets.
pub struct Set;
/// Graph edit distance.
pub struct GraphDom;

impl DomainBench for Hamming {
    type Engine = RingHamming;
    type Record = BitVector;
    const NAME: &'static str = "hamming";
    const WIRE: Domain = Domain::Hamming;
    const STAGES: &'static [&'static str] = &["probes", "boxes_checked"];

    fn records(spec: &EngineSpec) -> Vec<BitVector> {
        VectorConfig::gist_like(spec.hamming_n).generate()
    }

    fn build(records: Vec<BitVector>, spec: &EngineSpec) -> RingHamming {
        RingHamming::build(records, spec.hamming_m, AllocationStrategy::CostModel)
    }

    fn build_sharded(
        records: Vec<BitVector>,
        shards: usize,
        spec: &EngineSpec,
    ) -> ShardedIndex<RingHamming> {
        let m = spec.hamming_m;
        ShardedIndex::build(records, shards, |shard| {
            RingHamming::build(shard, m, AllocationStrategy::CostModel)
        })
    }

    fn index_of(engines: &EngineSet) -> &ShardedIndex<RingHamming> {
        engines.hamming_index()
    }

    fn params(spec: &EngineSpec, l: Option<usize>) -> HammingParams {
        HammingParams {
            tau: spec.hamming_tau,
            l: l.unwrap_or(spec.hamming_l as usize),
        }
    }

    fn candidates(
        engine: &RingHamming,
        scratch: &mut ScratchOf<Self>,
        query: &BitVector,
        params: &HammingParams,
    ) -> (Vec<u32>, StatsOf<Self>) {
        engine.candidates_with(scratch, query, params.tau, params.l)
    }

    fn verify_all(
        engine: &RingHamming,
        query: &BitVector,
        cands: &[u32],
        spec: &EngineSpec,
    ) -> usize {
        let tau = spec.hamming_tau;
        let data = engine.data();
        cands
            .iter()
            .filter(|&&id| {
                kernels::distance_within(data[id as usize].words(), query.words(), tau).is_some()
            })
            .count()
    }

    fn linear_scan(engine: &RingHamming, query: &BitVector, spec: &EngineSpec) -> Vec<u32> {
        LinearScan::new(engine.data()).search(query, spec.hamming_tau)
    }

    fn perturb(query: &mut BitVector, rng: &mut SmallRng) {
        for _ in 0..rng.gen_range(1..=12usize) {
            query.flip(rng.gen_range(0..query.dims()));
        }
    }

    fn wire(query: &BitVector, spec: &EngineSpec) -> DomainQuery {
        DomainQuery::Hamming {
            query: query.clone(),
            tau: spec.hamming_tau,
            l: spec.hamming_l,
        }
    }
}

impl DomainBench for Edit {
    type Engine = RingEdit;
    type Record = Vec<u8>;
    const NAME: &'static str = "editdist";
    const WIRE: Domain = Domain::Edit;
    const STAGES: &'static [&'static str] = &["postings_scanned", "boxes_checked"];

    fn records(spec: &EngineSpec) -> Vec<Vec<u8>> {
        StringConfig::imdb_like(spec.edit_n).generate()
    }

    fn build(records: Vec<Vec<u8>>, spec: &EngineSpec) -> RingEdit {
        RingEdit::build(
            QGramCollection::build(records, spec.edit_kappa, GramOrder::Frequency),
            spec.edit_tau,
        )
    }

    fn build_sharded(
        records: Vec<Vec<u8>>,
        shards: usize,
        spec: &EngineSpec,
    ) -> ShardedIndex<RingEdit> {
        let (tau, kappa) = (spec.edit_tau, spec.edit_kappa);
        ShardedIndex::build_global(
            records,
            shards,
            |corpus| Arc::new(GramDictionary::build(corpus, kappa, GramOrder::Frequency)),
            |dict, shard| {
                RingEdit::build(
                    QGramCollection::with_dictionary(shard, Arc::clone(dict)),
                    tau,
                )
            },
        )
    }

    fn index_of(engines: &EngineSet) -> &ShardedIndex<RingEdit> {
        engines.edit_index()
    }

    fn params(spec: &EngineSpec, l: Option<usize>) -> EditParams {
        EditParams {
            l: l.unwrap_or(spec.edit_l as usize),
        }
    }

    fn candidates(
        engine: &RingEdit,
        scratch: &mut ScratchOf<Self>,
        query: &Vec<u8>,
        params: &EditParams,
    ) -> (Vec<u32>, StatsOf<Self>) {
        engine.candidates_with(scratch, query, params.l)
    }

    fn verify_all(engine: &RingEdit, query: &Vec<u8>, cands: &[u32], _spec: &EngineSpec) -> usize {
        let index = engine.index();
        let tau = index.tau() as u32;
        cands
            .iter()
            .filter(|&&id| {
                edit_distance_within(index.collection().string(id as usize), query, tau).is_some()
            })
            .count()
    }

    fn linear_scan(engine: &RingEdit, query: &Vec<u8>, spec: &EngineSpec) -> Vec<u32> {
        let tau = spec.edit_tau as u32;
        engine
            .index()
            .collection()
            .strings()
            .iter()
            .enumerate()
            .filter(|(_, x)| edit_distance_within(x, query, tau).is_some())
            .map(|(id, _)| id as u32)
            .collect()
    }

    fn perturb(query: &mut Vec<u8>, rng: &mut SmallRng) {
        if query.is_empty() {
            return;
        }
        let pos = rng.gen_range(0..query.len());
        let ch = query[rng.gen_range(0..query.len())];
        match rng.gen_range(0..3u32) {
            0 => query[pos] = ch,
            1 => query.insert(pos, ch),
            _ if query.len() > 1 => {
                query.remove(pos);
            }
            _ => query[pos] = ch,
        }
    }

    fn wire(query: &Vec<u8>, spec: &EngineSpec) -> DomainQuery {
        DomainQuery::Edit {
            query: query.clone(),
            l: spec.edit_l,
        }
    }
}

impl DomainBench for Set {
    type Engine = RingSetSim;
    type Record = Vec<u32>;
    const NAME: &'static str = "setsim";
    const WIRE: Domain = Domain::Set;
    const STAGES: &'static [&'static str] = &["sig_probes", "boxes_checked"];

    fn records(spec: &EngineSpec) -> Vec<Vec<u32>> {
        SetConfig::dblp_like(spec.set_n).generate()
    }

    fn build(records: Vec<Vec<u32>>, spec: &EngineSpec) -> RingSetSim {
        RingSetSim::build(
            Collection::new(records),
            Threshold::jaccard(spec.set_tau),
            spec.set_m,
        )
    }

    fn build_sharded(
        records: Vec<Vec<u32>>,
        shards: usize,
        spec: &EngineSpec,
    ) -> ShardedIndex<RingSetSim> {
        let (jaccard, m) = (Threshold::jaccard(spec.set_tau), spec.set_m);
        ShardedIndex::build_global(
            records,
            shards,
            |corpus| Arc::new(TokenDictionary::build(corpus)),
            |dict, shard| {
                RingSetSim::build(
                    Collection::with_dictionary(shard, Arc::clone(dict)),
                    jaccard,
                    m,
                )
            },
        )
    }

    fn index_of(engines: &EngineSet) -> &ShardedIndex<RingSetSim> {
        engines.set_index()
    }

    fn params(spec: &EngineSpec, l: Option<usize>) -> SetParams {
        SetParams {
            l: l.unwrap_or(spec.set_l as usize),
        }
    }

    fn candidates(
        engine: &RingSetSim,
        scratch: &mut ScratchOf<Self>,
        query: &Vec<u32>,
        params: &SetParams,
    ) -> (Vec<u32>, StatsOf<Self>) {
        // Queries are raw tokens; ranking them is query-side filter work.
        let ranked = engine.collection().rank_query(query);
        engine.candidates_with(scratch, &ranked, params.l)
    }

    fn verify_all(
        engine: &RingSetSim,
        query: &Vec<u32>,
        cands: &[u32],
        spec: &EngineSpec,
    ) -> usize {
        let threshold = Threshold::jaccard(spec.set_tau);
        let collection = engine.collection();
        let ranked = collection.rank_query(query);
        cands
            .iter()
            .filter(|&&id| {
                let x = collection.record(id as usize);
                let need = threshold.min_overlap_pair(x.len(), ranked.len());
                overlap_at_least(x, &ranked, need).is_some()
            })
            .count()
    }

    fn linear_scan(engine: &RingSetSim, query: &Vec<u32>, spec: &EngineSpec) -> Vec<u32> {
        let collection = engine.collection();
        LinearScanSets::new(collection).search(
            &collection.rank_query(query),
            Threshold::jaccard(spec.set_tau),
        )
    }

    fn perturb(query: &mut Vec<u32>, rng: &mut SmallRng) {
        if query.is_empty() {
            return;
        }
        // Swap one token for a neighbour of another token of the set, so
        // the replacement stays in the vocabulary's range.
        let pos = rng.gen_range(0..query.len());
        let replacement = query[rng.gen_range(0..query.len())].wrapping_add(1);
        if !query.contains(&replacement) {
            query[pos] = replacement;
            query.sort_unstable();
        }
    }

    fn wire(query: &Vec<u32>, spec: &EngineSpec) -> DomainQuery {
        DomainQuery::Set {
            tokens: query.clone(),
            l: spec.set_l,
        }
    }
}

impl DomainBench for GraphDom {
    type Engine = RingGraph;
    type Record = Graph;
    const NAME: &'static str = "graph";
    const WIRE: Domain = Domain::Graph;
    const STAGES: &'static [&'static str] = &["subiso_calls", "boxes_checked"];

    fn records(spec: &EngineSpec) -> Vec<Graph> {
        GraphConfig::aids_like(spec.graph_n).generate()
    }

    fn build(records: Vec<Graph>, spec: &EngineSpec) -> RingGraph {
        RingGraph::build(records, spec.graph_tau)
    }

    fn build_sharded(
        records: Vec<Graph>,
        shards: usize,
        spec: &EngineSpec,
    ) -> ShardedIndex<RingGraph> {
        let tau = spec.graph_tau;
        ShardedIndex::build(records, shards, |shard| RingGraph::build(shard, tau))
    }

    fn index_of(engines: &EngineSet) -> &ShardedIndex<RingGraph> {
        engines.graph_index()
    }

    fn params(spec: &EngineSpec, l: Option<usize>) -> GraphParams {
        GraphParams {
            l: l.unwrap_or(spec.graph_l as usize),
        }
    }

    fn candidates(
        engine: &RingGraph,
        _scratch: &mut ScratchOf<Self>,
        query: &Graph,
        params: &GraphParams,
    ) -> (Vec<u32>, StatsOf<Self>) {
        engine.candidates(query, params.l)
    }

    fn verify_all(engine: &RingGraph, query: &Graph, cands: &[u32], spec: &EngineSpec) -> usize {
        let tau = spec.graph_tau as u32;
        let graphs = engine.graphs();
        cands
            .iter()
            .filter(|&&id| ged_within(&graphs[id as usize], query, tau).is_some())
            .count()
    }

    fn linear_scan(engine: &RingGraph, query: &Graph, spec: &EngineSpec) -> Vec<u32> {
        LinearScanGraphs::new(engine.graphs()).search(query, spec.graph_tau as u32)
    }

    fn perturb(query: &mut Graph, rng: &mut SmallRng) {
        let n = query.num_vertices();
        if n < 2 {
            return;
        }
        // Relabel one vertex with another vertex's label.
        let mut labels = query.vlabels().to_vec();
        labels[rng.gen_range(0..n)] = labels[rng.gen_range(0..n)];
        let mut relabelled = Graph::new(labels);
        for (u, v, label) in query.edges() {
            relabelled.add_edge(u, v, label);
        }
        *query = relabelled;
    }

    fn wire(query: &Graph, spec: &EngineSpec) -> DomainQuery {
        DomainQuery::Graph {
            query: query.clone(),
            l: spec.graph_l,
        }
    }
}
