//! What building every shard against one corpus-wide dictionary buys.
//!
//! A [`ShardedIndex`] plans each query once and every shard executes
//! that plan, so shards whose plans live in a dictionary's id space
//! (editdist, setsim) or follow corpus statistics (the hamming cost
//! model) are built dictionary-first with
//! [`ShardedIndex::build_global`]. Three properties are pinned here:
//!
//! 1. **Result invariance** — for editdist and setsim, the sharded
//!    global-dictionary build returns bit-identical result sets (equal
//!    [`ResultHasher`] fingerprints) to an engine that derived a private
//!    dictionary from its own records, for every shard count
//!    K ∈ {1, 2, 3, 7}. Verification is exact, so the dictionary can
//!    shift candidate counts but never results.
//!
//! 2. **Resharding determinism** — one corpus-wide dictionary (gram
//!    frequency order, token rank space, cost model) is
//!    partition-independent, so aggregate candidate statistics are
//!    exactly equal for every K — and, for hamming, equal to the
//!    unsharded engine's.
//!
//! 3. **Plan once, or not at all** — query-side work is done once per
//!    query, not once per shard; and shards given *private* dictionaries
//!    (whose plans would be mutually meaningless) are rejected at
//!    construction.

use std::sync::Arc;

use proptest::prelude::*;

use std::sync::atomic::{AtomicUsize, Ordering};

use pigeonring_datagen::{sample_query_ids, SetConfig, StringConfig, VectorConfig};
use pigeonring_editdist::{
    EditParams, EditStats, GramDictionary, GramOrder, QGramCollection, RingEdit,
};
use pigeonring_hamming::{
    AllocationStrategy, BitVector, CostModel, HammingParams, HammingPlan, HammingScratch,
    Partitioning, RingHamming, SearchStats,
};
use pigeonring_service::{MergeStats, ResultHasher, SearchEngine, ShardedIndex, WorkerPool};
use pigeonring_setsim::{Collection, RingSetSim, SetParams, SetStats, Threshold, TokenDictionary};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];
const TAU: usize = 2;
const KAPPA: usize = 2;

/// One engine over a dictionary derived from its own records (`k` > 1
/// gives every shard a private one, which construction rejects).
fn edit_private(data: &[Vec<u8>], k: usize) -> ShardedIndex<RingEdit> {
    ShardedIndex::build(data.to_vec(), k, |shard| {
        RingEdit::build(
            QGramCollection::build(shard, KAPPA, GramOrder::Frequency),
            TAU,
        )
    })
}

fn edit_global(data: &[Vec<u8>], k: usize) -> ShardedIndex<RingEdit> {
    ShardedIndex::build_global(
        data.to_vec(),
        k,
        |corpus| Arc::new(GramDictionary::build(corpus, KAPPA, GramOrder::Frequency)),
        |dict, shard| {
            RingEdit::build(
                QGramCollection::with_dictionary(shard, Arc::clone(dict)),
                TAU,
            )
        },
    )
}

/// The setsim counterpart of [`edit_private`].
fn set_private(data: &[Vec<u32>], k: usize, t: Threshold) -> ShardedIndex<RingSetSim> {
    ShardedIndex::build(data.to_vec(), k, move |shard| {
        RingSetSim::build(Collection::new(shard), t, 5)
    })
}

fn set_global(data: &[Vec<u32>], k: usize, t: Threshold) -> ShardedIndex<RingSetSim> {
    ShardedIndex::build_global(
        data.to_vec(),
        k,
        |corpus| Arc::new(TokenDictionary::build(corpus)),
        move |dict, shard| {
            RingSetSim::build(Collection::with_dictionary(shard, Arc::clone(dict)), t, 5)
        },
    )
}

/// Fingerprint of a whole batch's result ids on `index`.
fn batch_hash<E: pigeonring_service::SearchEngine>(
    index: &ShardedIndex<E>,
    queries: &[E::Query],
    params: &E::Params,
    threads: usize,
) -> u64 {
    let mut hasher = ResultHasher::new();
    for res in index.search_batch_on(&WorkerPool::new(threads), queries, params) {
        hasher.push(&res.ids);
    }
    hasher.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn editdist_result_hash_equal_legacy_vs_global(seed in 0u64..1_000) {
        let mut cfg = StringConfig::imdb_like(200);
        cfg.seed = seed;
        let data = cfg.generate();
        let queries: Vec<Vec<u8>> = sample_query_ids(data.len(), 6, seed)
            .into_iter()
            .map(|i| data[i].clone())
            .collect();
        let params = EditParams { l: 3 };
        let reference = batch_hash(&edit_private(&data, 1), &queries, &params, 1);
        for k in SHARD_COUNTS {
            let global = batch_hash(&edit_global(&data, k), &queries, &params, k);
            prop_assert_eq!(global, reference, "global k={}", k);
        }
    }

    #[test]
    fn setsim_result_hash_equal_legacy_vs_global(seed in 0u64..1_000, tenths in 7usize..9) {
        let mut cfg = SetConfig::dblp_like(250);
        cfg.seed = seed;
        let data = cfg.generate();
        let t = Threshold::jaccard(tenths as f64 / 10.0);
        let queries: Vec<Vec<u32>> = sample_query_ids(data.len(), 6, seed)
            .into_iter()
            .map(|i| data[i].clone())
            .collect();
        let params = SetParams { l: 2 };
        let reference = batch_hash(&set_private(&data, 1, t), &queries, &params, 1);
        for k in SHARD_COUNTS {
            let global = batch_hash(&set_global(&data, k, t), &queries, &params, k);
            prop_assert_eq!(global, reference, "global k={}", k);
        }
    }
}

/// Aggregate editdist filter statistics over a batch on `index`.
fn edit_agg(index: &ShardedIndex<RingEdit>, queries: &[Vec<u8>]) -> EditStats {
    let mut agg = EditStats::default();
    for res in index.search_batch_on(&WorkerPool::new(2), queries, &EditParams { l: 3 }) {
        agg.merge(&res.stats);
    }
    agg
}

/// Regression (ISSUE 5 satellite): a `GramOrder::Frequency` derived per
/// shard would make prefix selection — and the filter work the same
/// queries do — depend on the shard count. The global dictionary makes
/// per-shard candidate statistics exactly deterministic under
/// resharding.
#[test]
fn global_dictionary_makes_candidate_stats_resharding_invariant() {
    let data = StringConfig::imdb_like(300).generate();
    let queries: Vec<Vec<u8>> = sample_query_ids(data.len(), 10, 5)
        .into_iter()
        .map(|i| data[i].clone())
        .collect();

    // Global dictionary: candidate generation is partition-independent,
    // so every aggregate partition-independent counter agrees across K.
    let baseline = edit_agg(&edit_global(&data, 1), &queries);
    for k in SHARD_COUNTS {
        let agg = edit_agg(&edit_global(&data, k), &queries);
        assert_eq!(agg.candidates, baseline.candidates, "candidates k={k}");
        assert_eq!(agg.cand1, baseline.cand1, "cand1 k={k}");
        assert_eq!(
            agg.postings_scanned, baseline.postings_scanned,
            "postings k={k}"
        );
        assert_eq!(agg.results, baseline.results, "results k={k}");
    }
}

/// The same resharding-determinism property for setsim: one global token
/// rank space makes signature enumeration and probing
/// partition-independent.
#[test]
fn global_token_dictionary_makes_set_stats_resharding_invariant() {
    let data = SetConfig::dblp_like(300).generate();
    let t = Threshold::jaccard(0.8);
    let queries: Vec<Vec<u32>> = sample_query_ids(data.len(), 10, 4)
        .into_iter()
        .map(|i| data[i].clone())
        .collect();
    let agg = |index: &ShardedIndex<RingSetSim>| -> SetStats {
        let mut agg = SetStats::default();
        for res in index.search_batch_on(&WorkerPool::new(2), &queries, &SetParams { l: 2 }) {
            agg.merge(&res.stats);
        }
        agg
    };
    let baseline = agg(&set_global(&data, 1, t));
    for k in SHARD_COUNTS {
        let got = agg(&set_global(&data, k, t));
        assert_eq!(got.candidates, baseline.candidates, "candidates k={k}");
        assert_eq!(got.viable_boxes, baseline.viable_boxes, "viable k={k}");
        assert_eq!(got.results, baseline.results, "results k={k}");
        // Plan-once: the signature enumeration is counted once per query
        // regardless of K, so this is flat too.
        assert_eq!(got.sig_probes, baseline.sig_probes, "sig_probes k={k}");
    }
}

fn hamming_data() -> (Vec<BitVector>, Vec<BitVector>) {
    let data = VectorConfig::gist_like(600).generate();
    let queries = sample_query_ids(data.len(), 12, 9)
        .into_iter()
        .map(|i| data[i].clone())
        .collect();
    (data, queries)
}

/// The same property for hamming: with one cost model sampled from the
/// whole corpus every shard allocates thresholds as the unsharded engine
/// does, so the per-record filter work adds up to exactly the unsharded
/// engine's for every K. (`probes` is excluded: every shard enumerates
/// the signatures for itself.)
#[test]
fn corpus_cost_model_makes_hamming_stats_resharding_invariant() {
    let (data, queries) = hamming_data();
    let params = HammingParams { tau: 40, l: 4 };
    let unsharded = RingHamming::build(data.clone(), 16, AllocationStrategy::CostModel);
    let mut scratch = HammingScratch::default();
    let mut baseline = SearchStats::default();
    let mut baseline_hash = ResultHasher::new();
    for q in &queries {
        let (ids, stats) = unsharded.search_with(&mut scratch, q, params.tau, params.l);
        baseline_hash.push(&ids);
        baseline.merge(&stats);
    }
    assert!(baseline.boxes_checked > 0 && baseline.candidates > 0);
    let baseline_hash = baseline_hash.finish();
    for k in SHARD_COUNTS {
        let index = ShardedIndex::build_global(
            data.clone(),
            k,
            |corpus| {
                let parts = Partitioning::equi_width(corpus[0].dims(), 16);
                Arc::new(CostModel::build(corpus, &parts, RingHamming::COST_SAMPLE))
            },
            |cost, shard| RingHamming::with_cost_model(shard, 16, Arc::clone(cost)),
        );
        let mut agg = SearchStats::default();
        let mut hash = ResultHasher::new();
        for res in index.search_batch_on(&WorkerPool::new(2), &queries, &params) {
            hash.push(&res.ids);
            agg.merge(&res.stats);
        }
        assert_eq!(hash.finish(), baseline_hash, "result hash k={k}");
        assert_eq!(agg.viable_boxes, baseline.viable_boxes, "viable k={k}");
        assert_eq!(agg.boxes_checked, baseline.boxes_checked, "boxes k={k}");
        assert_eq!(agg.candidates, baseline.candidates, "candidates k={k}");
        assert_eq!(agg.results, baseline.results, "results k={k}");
    }
}

/// [`RingHamming`] with its `plan` calls counted — the plan is where the
/// allocation histogram is computed.
struct CountingHamming {
    inner: RingHamming,
    histograms: Arc<AtomicUsize>,
}

impl SearchEngine for CountingHamming {
    type Query = BitVector;
    type Params = HammingParams;
    type Stats = SearchStats;
    type Scratch = HammingScratch;
    type Plan = HammingPlan;

    fn plan(&self, scratch: &mut HammingScratch, query: &BitVector) -> HammingPlan {
        let plan = self.inner.plan(scratch, query);
        assert!(
            !plan.distance_histogram().is_empty(),
            "cost-model plans carry it"
        );
        self.histograms.fetch_add(1, Ordering::Relaxed);
        plan
    }

    fn search_planned(
        &self,
        scratch: &mut HammingScratch,
        plan: &HammingPlan,
        query: &BitVector,
        params: &HammingParams,
        out: &mut Vec<u32>,
    ) -> SearchStats {
        self.inner.search_planned(scratch, plan, query, params, out)
    }
}

/// One allocation histogram per query, not per (query, shard) — through
/// plain [`ShardedIndex::build`], whose shards each sample a private
/// cost model: hamming plans are portable between them.
#[test]
fn hamming_histograms_are_computed_once_per_query() {
    let (data, queries) = hamming_data();
    let histograms = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&histograms);
    let index = ShardedIndex::build(data, 4, move |shard| CountingHamming {
        inner: RingHamming::build(shard, 16, AllocationStrategy::CostModel),
        histograms: Arc::clone(&counter),
    });
    assert_eq!(index.num_shards(), 4);
    let params = HammingParams { tau: 40, l: 4 };
    for threads in [1usize, 2] {
        histograms.store(0, Ordering::Relaxed);
        let _ = index.search_batch_on(&WorkerPool::new(threads), &queries, &params);
        assert_eq!(
            histograms.load(Ordering::Relaxed),
            queries.len(),
            "threads={threads}: queries, not queries x shards"
        );
    }
}

/// A dictionary-bearing engine built per shard with private
/// dictionaries cannot share plans; the index refuses to exist.
#[test]
#[should_panic(expected = "cannot execute shard 0's query plans")]
fn private_per_shard_dictionaries_are_rejected() {
    let data = StringConfig::imdb_like(100).generate();
    let _ = edit_private(&data, 3);
}

/// Likewise for setsim's per-shard token rank spaces.
#[test]
#[should_panic(expected = "cannot execute shard 0's query plans")]
fn private_per_shard_rank_spaces_are_rejected() {
    let data = SetConfig::dblp_like(100).generate();
    let _ = set_private(&data, 3, Threshold::jaccard(0.8));
}
