//! Criterion micro-benchmarks for the hot kernels: chain viability
//! checks (with and without Corollary-2 skipping), popcount part
//! distances, signature enumeration, CSR part probes, chain extension
//! over the arena and over the postings' ring-next signatures,
//! k-combination signatures, content filter bounds, banded
//! edit-distance verification, set-overlap merges, the set-similarity
//! and edit-distance candidate filters, subgraph embedding, and
//! threshold-pruned GED — plus each verify kernel beside the reference
//! loop it replaced.
//!
//! This binary has a custom `main` (not `criterion_main!`): it accepts
//! `--quick` (small sample counts, for the CI `kernel-bench-smoke` job;
//! cargo-bench flags like `--bench` are ignored) and always writes the
//! recorded timings plus a machine fingerprint to
//! `results/BENCH_kernels.json`.

use criterion::{black_box, Criterion};
use pigeonring_core::scratch::EpochScratch;
use pigeonring_core::viability::{
    doubled_prefix_into, find_prefix_viable, find_prefix_viable_noskip, ChainCheck, Direction,
    ThresholdScheme,
};
use pigeonring_datagen::VectorConfig;
use pigeonring_editdist::content::{char_mask, min_window_bound, window_masks};
use pigeonring_editdist::verify::{
    edit_distance, edit_distance_within, edit_distance_within_reference,
};
use pigeonring_hamming::arena::VectorArena;
use pigeonring_hamming::index::{enumerate_within, PartIndex};
use pigeonring_hamming::{kernels, BitVector, Partitioning};
use pigeonring_service::MachineFingerprint;
use rand::{Rng, SeedableRng};

fn rng() -> rand::rngs::SmallRng {
    rand::rngs::SmallRng::seed_from_u64(0xBEEF)
}

fn bench_chain_check(c: &mut Criterion) {
    let mut r = rng();
    let boxes: Vec<Vec<i64>> = (0..256)
        .map(|_| (0..16).map(|_| r.gen_range(0..8)).collect())
        .collect();
    let scheme = ThresholdScheme::uniform(48i64, 16);
    c.bench_function("chain_check/skip", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for bx in &boxes {
                if find_prefix_viable(black_box(bx), &scheme, Direction::Le, 5).is_some() {
                    found += 1;
                }
            }
            found
        })
    });
    c.bench_function("chain_check/noskip", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for bx in &boxes {
                if find_prefix_viable_noskip(black_box(bx), &scheme, Direction::Le, 5).is_some() {
                    found += 1;
                }
            }
            found
        })
    });
}

fn bench_part_distance(c: &mut Criterion) {
    let mut r = rng();
    let a = BitVector::from_bits((0..256).map(|_| r.gen::<bool>()));
    let b = BitVector::from_bits((0..256).map(|_| r.gen::<bool>()));
    c.bench_function("hamming/full_distance", |bch| {
        bch.iter(|| black_box(&a).distance(black_box(&b)))
    });
    c.bench_function("hamming/part_distance_16", |bch| {
        bch.iter(|| {
            (0..16u32)
                .map(|i| a.part_distance(&b, (i as usize) * 16, (i as usize + 1) * 16))
                .sum::<u32>()
        })
    });
}

fn bench_signature_enumeration(c: &mut Criterion) {
    c.bench_function("hamming/enumerate_r2_w16", |b| {
        b.iter(|| {
            let mut n = 0u64;
            enumerate_within(black_box(0xBEEF), 16, 2, &mut |_, _| n += 1);
            n
        })
    });
    c.bench_function("hamming/enumerate_r4_w16", |b| {
        b.iter(|| {
            let mut n = 0u64;
            enumerate_within(black_box(0xBEEF), 16, 4, &mut |_, _| n += 1);
            n
        })
    });
}

/// The two halves of Hamming candidate generation on their contiguous
/// layouts, at the harness's gist shape (256-d, 16 parts of 16 bits):
/// one dense-key CSR part probed at radius 3 (697 signatures), and the
/// engines' `l = 5` chain check (`EpochScratch::chain_accept`, Theorem 7
/// thresholds 8 per part) from a viable box of each of 256 records —
/// once reading every box from the arena, once reading box `part + 1`
/// from the ring-next signature the posting carries, as the engine does.
fn bench_hamming_layouts(c: &mut Criterion) {
    let data = VectorConfig::gist_like(20_000).generate();
    let parts = Partitioning::equi_width(256, 16);
    let qsigs = parts.signatures(&data[17]);
    let arena = VectorArena::build(&data, &parts);
    let index = PartIndex::build(&arena, parts.clone());
    let mut t = [-1i64; 16];
    t[5] = 3;
    c.bench_function("hamming/probe_w16_t3", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            let probes = index.probe_signatures(black_box(&qsigs), &t, |_, dist, id, next| {
                acc += u64::from(dist) + u64::from(id) + u64::from(next);
            });
            (probes, acc)
        })
    });
    let mut quotas = Vec::new();
    doubled_prefix_into(&[8i64; 16], &mut quotas);
    let mut epochs = EpochScratch::default();
    // 256 records, each from its first viable box at or after `id % 16`
    // (box ≤ 8) with its ring-next signature, as the probe would hand
    // them over.
    let n = data.len();
    let starts: Vec<(usize, usize, u16)> = (0..n)
        .step_by(n / 256)
        .filter_map(|id| {
            (id..id + 16)
                .map(|j| j % 16)
                .find(|&j| arena.box_value(id, j, qsigs[j]) <= 8)
                .map(|j| (id, j, arena.part_signature(id, (j + 1) % 16) as u16))
        })
        .collect();
    c.bench_function("hamming/chain_check_l5_arena", |b| {
        b.iter(|| {
            epochs.next_epoch(n);
            let chain = ChainCheck::new(&quotas, Direction::Le, 5);
            let mut accepted = 0u32;
            for &(id, start, _) in &starts {
                accepted += u32::from(epochs.chain_accept(id, start, &chain, |j| {
                    i64::from(arena.box_value(black_box(id), j, qsigs[j]))
                }));
            }
            accepted
        })
    });
    c.bench_function("hamming/chain_check_l5_postings", |b| {
        b.iter(|| {
            epochs.next_epoch(n);
            let chain = ChainCheck::new(&quotas, Direction::Le, 5);
            let mut accepted = 0u32;
            for &(id, start, next) in &starts {
                let ring_next = (start + 1) % 16;
                accepted += u32::from(epochs.chain_accept(id, start, &chain, |j| {
                    if j == ring_next {
                        i64::from((u64::from(black_box(next)) ^ qsigs[j]).count_ones())
                    } else {
                        i64::from(arena.box_value(black_box(id), j, qsigs[j]))
                    }
                }));
            }
            accepted
        })
    });
}

fn bench_content_filter(c: &mut Criterion) {
    let mut r = rng();
    let text: Vec<u8> = (0..101).map(|_| b'a' + r.gen_range(0..26)).collect();
    let masks = window_masks(&text, 6);
    let gram = char_mask(b"ringed");
    c.bench_function("editdist/window_masks_101", |b| {
        b.iter(|| window_masks(black_box(&text), 6))
    });
    c.bench_function("editdist/min_window_bound", |b| {
        b.iter(|| min_window_bound(black_box(gram), &masks, 20, 44))
    });
}

fn bench_verify(c: &mut Criterion) {
    let mut r = rng();
    let a: Vec<u8> = (0..101).map(|_| b'a' + r.gen_range(0..26)).collect();
    let mut bb = a.clone();
    for _ in 0..6 {
        let p = r.gen_range(0..bb.len());
        bb[p] = b'a' + r.gen_range(0..26);
    }
    c.bench_function("editdist/full_dp_101", |bch| {
        bch.iter(|| edit_distance(black_box(&a), black_box(&bb)))
    });
    c.bench_function("editdist/banded_tau6_101", |bch| {
        bch.iter(|| edit_distance_within(black_box(&a), black_box(&bb), 6))
    });
}

fn bench_set_kernels(c: &mut Criterion) {
    use pigeonring_setsim::pkwise::{for_each_combination, signature_hash};
    use pigeonring_setsim::types::{overlap, overlap_at_least};
    let mut r = rng();
    let mut mk = |n: usize| -> Vec<u32> {
        let mut v: Vec<u32> = (0..n).map(|_| r.gen_range(0..5000)).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let a = mk(142);
    let b = mk(142);
    c.bench_function("setsim/overlap_merge_142", |bch| {
        bch.iter(|| overlap(black_box(&a), black_box(&b)))
    });
    c.bench_function("setsim/overlap_at_least_142", |bch| {
        bch.iter(|| overlap_at_least(black_box(&a), black_box(&b), 100))
    });
    let toks: Vec<u32> = (0..11).collect();
    c.bench_function("setsim/combos_11_choose_3", |bch| {
        bch.iter(|| {
            let mut acc = 0u64;
            for_each_combination(black_box(&toks), 3, &mut |combo| {
                acc ^= signature_hash(combo);
            });
            acc
        })
    });
}

/// The set-similarity filter at the benchmark's `setsim` shape
/// (dblp-like, 20 000 records, Jaccard τ = 0.8, `m = 5`): candidate
/// generation at `l = 2` for 64 pre-planned queries per iteration —
/// signature probes, then chain checks over the record arena.
fn bench_setsim_filter(c: &mut Criterion) {
    use pigeonring_datagen::{sample_query_ids, SetConfig};
    use pigeonring_service::SearchEngine;
    use pigeonring_setsim::{Collection, RingSetSim, SetScratch, Threshold};
    let raw = SetConfig::dblp_like(20_000).generate();
    let queries = sample_query_ids(raw.len(), 64, 9);
    let eng = RingSetSim::build(Collection::new(raw.clone()), Threshold::jaccard(0.8), 5);
    let mut scratch = SetScratch::default();
    let plans: Vec<_> = queries
        .into_iter()
        .map(|q| eng.plan(&mut scratch, &raw[q]))
        .collect();
    c.bench_function("setsim/candidates_l2_dblp20k", |b| {
        b.iter(|| {
            plans
                .iter()
                .map(|plan| {
                    eng.candidates_with_plan(&mut scratch, black_box(plan), 2)
                        .0
                        .len()
                })
                .sum::<usize>()
        })
    });
}

/// The edit-distance filter at the benchmark's `editdist` shape
/// (imdb-like, 20 000 records, τ = 2, κ = 2): candidate generation at
/// `l = 3` for 64 pre-planned queries per iteration — the length-window
/// posting probe, then chain checks over the pivotal arena and the
/// records' windows.
fn bench_editdist_filter(c: &mut Criterion) {
    use pigeonring_datagen::{sample_query_ids, StringConfig};
    use pigeonring_editdist::{EditScratch, GramOrder, QGramCollection, RingEdit};
    use pigeonring_service::SearchEngine;
    let raw = StringConfig::imdb_like(20_000).generate();
    let queries = sample_query_ids(raw.len(), 64, 9);
    let eng = RingEdit::build(
        QGramCollection::build(raw.clone(), 2, GramOrder::Frequency),
        2,
    );
    let mut scratch = EditScratch::default();
    let plans: Vec<_> = queries
        .into_iter()
        .map(|q| (eng.plan(&mut scratch, &raw[q]), q))
        .collect();
    c.bench_function("editdist/filter_imdb20k_tau2_l3", |b| {
        b.iter(|| {
            plans
                .iter()
                .map(|(plan, q)| {
                    eng.candidates_with_plan(&mut scratch, black_box(plan), &raw[*q], 3)
                        .0
                        .len()
                })
                .sum::<usize>()
        })
    });
}

fn bench_graph_kernels(c: &mut Criterion) {
    use pigeonring_datagen::{sample_query_ids, GraphConfig};
    use pigeonring_graph::{
        embeds, ged_within, part_embeds, partition_graph, Graph, GraphPlan, Mask, MatchScratch,
        PartArena, RingGraph,
    };
    let mut r = rng();
    let mut mk = |n: usize, labels: u32| -> Graph {
        let mut g = Graph::new((0..n).map(|_| r.gen_range(0..labels)).collect());
        for v in 1..n as u32 {
            let u = r.gen_range(0..v);
            g.add_edge(u, v, r.gen_range(0..3));
        }
        g
    };
    let x = mk(16, 20);
    let q = mk(16, 20);
    let parts = partition_graph(&x, 5);
    c.bench_function("graph/part_embeds_16v", |bch| {
        bch.iter(|| {
            parts
                .iter()
                .filter(|p| part_embeds(black_box(p), black_box(&q)))
                .count()
        })
    });
    // The engine's form of the same test: parts compiled and the query
    // planned once, every one-op mask of every part, one scratch.
    let arena = PartArena::compile(&parts);
    let plan = GraphPlan::new(&q);
    let mut scratch = MatchScratch::default();
    c.bench_function("graph/box_probe_1op_16v", |bch| {
        bch.iter(|| {
            (0..arena.len())
                .map(|i| arena.part(i))
                .flat_map(|part| {
                    core::iter::once(Mask::None)
                        .chain(part.masks())
                        .map(move |mask| (part, mask))
                })
                .filter(|&(part, mask)| embeds(part, mask, black_box(&plan), &mut scratch))
                .count()
        })
    });
    c.bench_function("graph/ged_within_tau4_dissimilar", |bch| {
        bch.iter(|| ged_within(black_box(&x), black_box(&q), 4))
    });
    // The verifier on real candidate pairs: the l = 4 candidates of 50
    // aids-like queries at τ = 4, every pair verified per iteration.
    let graphs = GraphConfig::aids_like(2_000).generate();
    let ring = RingGraph::build(graphs.clone(), 4);
    let mut pairs: Vec<(&Graph, &Graph)> = Vec::new();
    for qid in sample_query_ids(graphs.len(), 50, 7) {
        let q = &graphs[qid];
        for id in ring.candidates(q, 4).0 {
            pairs.push((&graphs[id as usize], q));
        }
    }
    c.bench_function("graph/verify_aids2000_tau4", |bch| {
        bch.iter(|| {
            pairs
                .iter()
                .filter(|&&(x, q)| ged_within(black_box(x), black_box(q), 4).is_some())
                .count()
        })
    });
}

/// Each production verify kernel beside its `/reference` loop — the
/// rows the CI `kernel-bench-smoke` job records. The shapes are larger
/// than served ones (256-d vectors, τ = 2 bands) so the batch loop and
/// a many-step lane pass actually run.
fn bench_kernel_tiers(c: &mut Criterion) {
    let mut r = rng();
    // 4096 dims = 64 words: long enough that per-batch structure shows.
    let a = BitVector::from_bits((0..4096).map(|_| r.gen::<bool>()));
    let b = BitVector::from_bits((0..4096).map(|_| r.gen::<bool>()));
    let (aw, bw) = (a.words(), b.words());
    let tau = a.distance(&b); // pass case: every kernel scans all words
    c.bench_function("hamming/distance_within_4096/reference", |bch| {
        bch.iter(|| kernels::distance_within_scalar(black_box(aw), black_box(bw), tau))
    });
    c.bench_function("hamming/distance_within_4096", |bch| {
        bch.iter(|| kernels::distance_within(black_box(aw), black_box(bw), tau))
    });
    // Unaligned interior part [67, 4031): masked head/tail words plus a
    // long unmasked interior run.
    c.bench_function("hamming/part_distance_4096/reference", |bch| {
        bch.iter(|| kernels::part_distance_scalar(black_box(aw), black_box(bw), 67, 4031))
    });
    c.bench_function("hamming/part_distance_4096", |bch| {
        bch.iter(|| kernels::part_distance(black_box(aw), black_box(bw), 67, 4031))
    });
    // Banded edit distance at τ = 12 (band width 25) over 256-char
    // strings with 9 scattered substitutions.
    let s: Vec<u8> = (0..256).map(|_| b'a' + r.gen_range(0..4)).collect();
    let mut t = s.clone();
    for _ in 0..9 {
        let p = r.gen_range(0..t.len());
        t[p] = b'a' + r.gen_range(0..4);
    }
    c.bench_function("editdist/edit_distance_within_256_tau12/reference", |bch| {
        bch.iter(|| edit_distance_within_reference(black_box(&s), black_box(&t), 12))
    });
    c.bench_function("editdist/edit_distance_within_256_tau12", |bch| {
        bch.iter(|| edit_distance_within(black_box(&s), black_box(&t), 12))
    });
}

/// The metrics-overhead guard: the µs-scale banded verify kernel runs
/// bare and then with the full per-call telemetry hot path (one counter
/// increment + one histogram record, the same primitives every
/// instrumented layer uses). CI gates the derived
/// `telemetry_overhead_pct` below 2% — instrumentation must stay
/// effectively free relative to real work. 16 calls per iteration keep
/// the measured quantum tens of µs so timer noise doesn't swamp a
/// nanosecond-scale delta.
fn bench_telemetry_overhead(c: &mut Criterion) {
    use pigeonring_telemetry::{Counter, Histogram};
    let mut r = rng();
    let a: Vec<u8> = (0..101).map(|_| b'a' + r.gen_range(0..26)).collect();
    let mut bb = a.clone();
    for _ in 0..6 {
        let p = r.gen_range(0..bb.len());
        bb[p] = b'a' + r.gen_range(0..26);
    }
    const CALLS: usize = 16;
    let queries = Counter::new();
    let latency = Histogram::new();
    // Interleaved A/B/A/B so a background-noise burst cannot land
    // entirely on one variant; the derived overhead uses the fastest
    // sample of each variant (min-of-samples only ever over-counts
    // noise, never the kernel).
    for round in ["r1", "r2"] {
        c.bench_function(format!("telemetry/edit_within_bare/{round}"), |bch| {
            bch.iter(|| {
                let mut acc = 0usize;
                for _ in 0..CALLS {
                    acc += usize::from(
                        edit_distance_within(black_box(&a), black_box(&bb), 6).is_some(),
                    );
                }
                acc
            })
        });
        c.bench_function(
            format!("telemetry/edit_within_instrumented/{round}"),
            |bch| {
                bch.iter(|| {
                    let mut acc = 0usize;
                    for _ in 0..CALLS {
                        let hit = edit_distance_within(black_box(&a), black_box(&bb), 6).is_some();
                        queries.inc();
                        latency.record(acc as u64);
                        acc += usize::from(hit);
                    }
                    acc
                })
            },
        );
    }
    black_box((queries.get(), latency.count()));
}

/// The tracing-overhead guard, same protocol as the telemetry guard:
/// with sampling disabled (`--trace-sample` unset), the only per-query
/// cost the tracing layer adds is one [`TraceCollector::sample`] call
/// at admission — a single branch on the cadence. CI gates the derived
/// `tracing_overhead_pct` below 1%.
fn bench_tracing_overhead(c: &mut Criterion) {
    use pigeonring_telemetry::TraceCollector;
    let mut r = rng();
    let a: Vec<u8> = (0..101).map(|_| b'a' + r.gen_range(0..26)).collect();
    let mut bb = a.clone();
    for _ in 0..6 {
        let p = r.gen_range(0..bb.len());
        bb[p] = b'a' + r.gen_range(0..26);
    }
    const CALLS: usize = 16;
    let collector = TraceCollector::new(0, 64); // sampling disabled
    for round in ["r1", "r2"] {
        c.bench_function(format!("tracing/edit_within_bare/{round}"), |bch| {
            bch.iter(|| {
                let mut acc = 0usize;
                for _ in 0..CALLS {
                    acc += usize::from(
                        edit_distance_within(black_box(&a), black_box(&bb), 6).is_some(),
                    );
                }
                acc
            })
        });
        c.bench_function(format!("tracing/edit_within_sampling_off/{round}"), |bch| {
            bch.iter(|| {
                let mut acc = 0usize;
                for _ in 0..CALLS {
                    let hit = edit_distance_within(black_box(&a), black_box(&bb), 6).is_some();
                    black_box(collector.sample(false));
                    acc += usize::from(hit);
                }
                acc
            })
        });
    }
}

/// Writes the recorded summaries plus the machine fingerprint as the
/// `results/BENCH_kernels.json` artifact (the CI `kernel-bench-smoke`
/// job validates and uploads it). Written relative to the manifest so
/// `cargo bench` finds `results/` regardless of its working directory.
fn write_kernels_json(c: &Criterion, quick: bool) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_kernels.json"
    );
    // The overhead guard: instrumented-over-bare for the banded verify
    // kernel, computed from each variant's fastest sample across its
    // interleaved rounds (minimum-of-samples is robust to scheduling
    // noise on a busy host). Signed, so noise shows as noise; a missing
    // row is a hard error, never a silent 0. CI gates this below 2%.
    let min_low = |prefix: &str| {
        let low = c
            .summaries()
            .iter()
            .filter(|s| s.id.starts_with(prefix))
            .map(|s| s.low_ns)
            .fold(f64::INFINITY, f64::min);
        assert!(
            low.is_finite() && low > 0.0,
            "overhead guard: no timed row {prefix}*"
        );
        low
    };
    let overhead_pct_of =
        |bare: &str, instrumented: &str| (min_low(instrumented) / min_low(bare) - 1.0) * 100.0;
    let overhead_pct = overhead_pct_of(
        "telemetry/edit_within_bare/",
        "telemetry/edit_within_instrumented/",
    );
    // The sampling-disabled tracing hot path; CI gates this below 1%.
    let tracing_pct = overhead_pct_of(
        "tracing/edit_within_bare/",
        "tracing/edit_within_sampling_off/",
    );
    let mut out = String::from("{\n\"machine\": ");
    out.push_str(&MachineFingerprint::detect().to_json());
    out.push_str(&format!(
        ",\n\"quick\": {quick},\n\
         \"telemetry_overhead_pct\": {overhead_pct:.3},\n\
         \"tracing_overhead_pct\": {tracing_pct:.3},\n\"rows\": [\n"
    ));
    for (i, s) in c.summaries().iter().enumerate() {
        out.push_str(&format!(
            "  {{\"id\": \"{}\", \"median_ns\": {:.1}, \"low_ns\": {:.1}, \"high_ns\": {:.1}}}{}\n",
            s.id,
            s.median_ns,
            s.low_ns,
            s.high_ns,
            if i + 1 < c.summaries().len() { "," } else { "" },
        ));
    }
    out.push_str("]\n}");
    std::fs::write(path, out).expect("write BENCH_kernels.json");
    println!("wrote {path}");
}

fn main() {
    // `cargo bench` appends harness flags like `--bench`; take `--quick`
    // for the CI smoke run and ignore everything else.
    let quick = std::env::args().any(|a| a == "--quick");
    let mut c = if quick {
        Criterion::default().sample_size(5)
    } else {
        Criterion::default()
    };
    bench_chain_check(&mut c);
    bench_part_distance(&mut c);
    bench_signature_enumeration(&mut c);
    bench_hamming_layouts(&mut c);
    bench_content_filter(&mut c);
    bench_verify(&mut c);
    bench_set_kernels(&mut c);
    bench_setsim_filter(&mut c);
    bench_editdist_filter(&mut c);
    bench_graph_kernels(&mut c);
    bench_kernel_tiers(&mut c);
    bench_telemetry_overhead(&mut c);
    bench_tracing_overhead(&mut c);
    write_kernels_json(&c, quick);
}
