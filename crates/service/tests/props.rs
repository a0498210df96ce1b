//! Property tests for the service layer: for every domain engine, a
//! [`ShardedIndex`] with K ∈ {1, 2, 3, 7} shards must return exactly the
//! same result set as the unsharded engine, and repeated runs of the
//! same batch must agree bit-for-bit.
//!
//! Hamming shards built with private cost models may allocate — and so
//! count candidates — differently across shard counts; the *result*
//! sets may not: every engine verifies exactly. (Editdist and setsim
//! plans live in a dictionary's id space, so their shards must share
//! one dictionary; `global_dictionary.rs` pins what that buys.)

use std::sync::Arc;

use proptest::prelude::*;

use pigeonring_datagen::{sample_query_ids, GraphConfig, SetConfig, StringConfig, VectorConfig};
use pigeonring_editdist::{EditParams, GramDictionary, GramOrder, QGramCollection, RingEdit};
use pigeonring_graph::{Graph, GraphParams, RingGraph};
use pigeonring_hamming::{AllocationStrategy, BitVector, HammingParams, RingHamming};
use pigeonring_service::{ShardedIndex, WorkerPool};
use pigeonring_setsim::{Collection, RingSetSim, SetParams, Threshold, TokenDictionary};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sharded_hamming_matches_unsharded(seed in 0u64..1_000, tau in 8u32..32) {
        // m = 16 over 256 dims keeps the per-part signature enumeration
        // cheap (the harness's own gist configuration).
        let mut cfg = VectorConfig::gist_like(300);
        cfg.seed = seed;
        let data = cfg.generate();
        let queries: Vec<BitVector> = sample_query_ids(data.len(), 6, seed)
            .into_iter()
            .map(|i| data[i].clone())
            .collect();
        let params = HammingParams { tau, l: 4 };

        let reference =
            ShardedIndex::build(data.clone(), 1, |shard| {
                RingHamming::build(shard, 16, AllocationStrategy::CostModel)
            });
        for k in SHARD_COUNTS {
            let index = ShardedIndex::build(data.clone(), k, |shard| {
                RingHamming::build(shard, 16, AllocationStrategy::CostModel)
            });
            let got = index.search_batch_on(&WorkerPool::new(k), &queries, &params);
            for (qi, q) in queries.iter().enumerate() {
                let expect = reference.search(q, &params);
                prop_assert_eq!(&got[qi].ids, &expect.ids, "k={} qi={}", k, qi);
            }
        }
    }

    #[test]
    fn sharded_editdist_matches_unsharded(seed in 0u64..1_000) {
        let mut cfg = StringConfig::imdb_like(200);
        cfg.seed = seed;
        let data = cfg.generate();
        let tau = 2usize;
        let queries: Vec<Vec<u8>> = sample_query_ids(data.len(), 6, seed)
            .into_iter()
            .map(|i| data[i].clone())
            .collect();
        let params = EditParams { l: 3 };

        let build = |k: usize| {
            ShardedIndex::build_global(
                data.clone(),
                k,
                |corpus| Arc::new(GramDictionary::build(corpus, 2, GramOrder::Frequency)),
                |dict, shard| {
                    RingEdit::build(QGramCollection::with_dictionary(shard, Arc::clone(dict)), tau)
                },
            )
        };
        let reference = build(1);
        for k in SHARD_COUNTS {
            let index = build(k);
            let got = index.search_batch_on(&WorkerPool::new(k), &queries, &params);
            for (qi, q) in queries.iter().enumerate() {
                let expect = reference.search(q, &params);
                prop_assert_eq!(&got[qi].ids, &expect.ids, "k={} qi={}", k, qi);
            }
        }
    }

    #[test]
    fn sharded_setsim_matches_unsharded(seed in 0u64..1_000, tenths in 7usize..9) {
        let mut cfg = SetConfig::dblp_like(250);
        cfg.seed = seed;
        let data = cfg.generate();
        let threshold = Threshold::jaccard(tenths as f64 / 10.0);
        let queries: Vec<Vec<u32>> = sample_query_ids(data.len(), 6, seed)
            .into_iter()
            .map(|i| data[i].clone())
            .collect();
        let params = SetParams { l: 2 };

        let build = |k: usize| {
            ShardedIndex::build_global(
                data.clone(),
                k,
                |corpus| Arc::new(TokenDictionary::build(corpus)),
                |dict, shard| {
                    RingSetSim::build(Collection::with_dictionary(shard, Arc::clone(dict)), threshold, 5)
                },
            )
        };
        let reference = build(1);
        for k in SHARD_COUNTS {
            let index = build(k);
            let got = index.search_batch_on(&WorkerPool::new(k), &queries, &params);
            for (qi, q) in queries.iter().enumerate() {
                let expect = reference.search(q, &params);
                prop_assert_eq!(&got[qi].ids, &expect.ids, "k={} qi={}", k, qi);
            }
        }
    }

    #[test]
    fn sharded_graph_matches_unsharded(seed in 0u64..1_000) {
        let mut cfg = GraphConfig::aids_like(60);
        cfg.seed = seed;
        let data = cfg.generate();
        let tau = 3usize;
        let queries: Vec<Graph> = sample_query_ids(data.len(), 4, seed)
            .into_iter()
            .map(|i| data[i].clone())
            .collect();
        let params = GraphParams { l: tau };

        let build = |shard: Vec<Graph>| RingGraph::build(shard, tau);
        let reference = ShardedIndex::build(data.clone(), 1, build);
        for k in SHARD_COUNTS {
            let index = ShardedIndex::build(data.clone(), k, build);
            let got = index.search_batch_on(&WorkerPool::new(k), &queries, &params);
            for (qi, q) in queries.iter().enumerate() {
                let expect = reference.search(q, &params);
                prop_assert_eq!(&got[qi].ids, &expect.ids, "k={} qi={}", k, qi);
            }
        }
    }

    #[test]
    fn batches_are_deterministic(seed in 0u64..1_000) {
        // Two runs of the same batch over a multi-threaded shard pool
        // must agree bit-for-bit — result ids AND aggregated stats.
        // m = 32 over 512 dims (the harness's sift configuration) keeps
        // per-part thresholds — and hence signature enumeration — small.
        let mut cfg = VectorConfig::sift_like(300);
        cfg.seed = seed;
        let data = cfg.generate();
        let queries: Vec<BitVector> = sample_query_ids(data.len(), 8, seed)
            .into_iter()
            .map(|i| data[i].clone())
            .collect();
        let params = HammingParams { tau: 64, l: 3 };
        let index = ShardedIndex::build(data, 3, |shard| {
            RingHamming::build(shard, 32, AllocationStrategy::Even)
        });
        let pool = WorkerPool::new(3);
        let run1 = index.search_batch_on(&pool, &queries, &params);
        let run2 = index.search_batch_on(&pool, &queries, &params);
        for qi in 0..queries.len() {
            prop_assert_eq!(&run1[qi].ids, &run2[qi].ids, "qi={}", qi);
            prop_assert_eq!(run1[qi].stats, run2[qi].stats, "qi={}", qi);
        }
    }
}
