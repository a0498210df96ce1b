//! Criterion end-to-end benchmarks: each τ-selection engine against its
//! pigeonhole baseline on small seeded datasets (the full sweeps live in
//! the `repro` binary; these are the regression-tracking versions).

use criterion::{criterion_group, criterion_main, Criterion};
use pigeonring_datagen::{sample_query_ids, GraphConfig, SetConfig, StringConfig, VectorConfig};
use pigeonring_editdist::{EditScratch, GramOrder, QGramCollection, RingEdit};
use pigeonring_graph::RingGraph;
use pigeonring_hamming::{AllocationStrategy, HammingScratch, RingHamming};
use pigeonring_setsim::{Collection, RingSetSim, SetScratch, Threshold};

fn bench_hamming(c: &mut Criterion) {
    let data = VectorConfig::gist_like(4000).generate();
    let queries = sample_query_ids(data.len(), 10, 1);
    let eng = RingHamming::build(data.clone(), 16, AllocationStrategy::CostModel);
    let mut scratch = HammingScratch::default();
    let mut group = c.benchmark_group("hamming_gist4k_tau48");
    for l in [1usize, 5] {
        group.bench_function(format!("l{l}"), |b| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|&qid| eng.search_with(&mut scratch, &data[qid], 48, l).1.results)
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

fn bench_setsim(c: &mut Criterion) {
    let coll = Collection::new(SetConfig::dblp_like(4000).generate());
    let queries = sample_query_ids(coll.len(), 10, 2);
    let eng = RingSetSim::build(coll.clone(), Threshold::jaccard(0.8), 5);
    let mut scratch = SetScratch::default();
    let mut group = c.benchmark_group("setsim_dblp4k_tau0.8");
    for l in [1usize, 2] {
        group.bench_function(format!("l{l}"), |b| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|&qid| eng.search_with(&mut scratch, coll.record(qid), l).1.results)
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

fn bench_editdist(c: &mut Criterion) {
    let strings = StringConfig::imdb_like(4000).generate();
    let queries = sample_query_ids(strings.len(), 10, 3);
    let coll = QGramCollection::build(strings.clone(), 2, GramOrder::Frequency);
    let eng = RingEdit::build(coll, 2);
    let mut scratch = EditScratch::default();
    let mut group = c.benchmark_group("editdist_imdb4k_tau2");
    for l in [1usize, 3] {
        group.bench_function(format!("l{l}"), |b| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|&qid| eng.search_with(&mut scratch, &strings[qid], l).1.results)
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

fn bench_graph(c: &mut Criterion) {
    let graphs = GraphConfig::aids_like(500).generate();
    let queries = sample_query_ids(graphs.len(), 5, 4);
    let eng = RingGraph::build(graphs.clone(), 4);
    let mut group = c.benchmark_group("graph_aids500_tau4");
    for l in [1usize, 4] {
        group.bench_function(format!("l{l}"), |b| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|&qid| eng.search(&graphs[qid], l).1.results)
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = engines;
    config = Criterion::default().sample_size(10);
    targets = bench_hamming, bench_setsim, bench_editdist, bench_graph
}
criterion_main!(engines);
