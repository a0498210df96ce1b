//! The Ring (pigeonring) search engine — GPH (pigeonhole) at `l = 1` —
//! plus a linear-scan reference.
//!
//! Candidate generation follows §7 exactly:
//!
//! 1. **First step** — probe the per-part signature index for viable
//!    single boxes (`b_i ≤ t_i`); identical for GPH and Ring.
//! 2. **Second step** (Ring only) — from each viable box, extend the chain
//!    clockwise, computing part distances by popcount on the fly, and
//!    accept the object only if the chain of length `l` is prefix-viable
//!    under the Theorem 7 quotas `‖c^{l'}_i‖₁ ≤ l' − 1 + Σ t_j`. The walk
//!    is the core's [`ChainCheck`]; this engine supplies the box values. Box
//!    `part + 1` — the first step, where nearly every chain dies — is a
//!    popcount on the ring-next signature the probe read beside the
//!    posting id (see [`crate::index`]); later boxes are read from the
//!    flat [`VectorArena`].
//!
//! Accepted objects are deduplicated with an epoch-stamped array (the
//! "union of candidate sets before verification" the paper measures) and
//! verified with early-abandoning Hamming distance.
//!
//! The engine's `impl SearchEngine` is its one planned query path:
//! [`SearchEngine::plan`] computes a [`HammingPlan`] once per query and
//! [`SearchEngine::search_planned`] executes it, so the
//! `pigeonring-service` sharded layer and the single-engine
//! conveniences ([`RingHamming::search_with`],
//! [`RingHamming::candidates_with`]) run the same code.

use std::sync::Arc;

use crate::alloc::{even_allocation_into, AllocationStrategy, CostModel};
use crate::arena::VectorArena;
use crate::bitvec::BitVector;
use crate::index::PartIndex;
use crate::kernels;
use crate::partition::Partitioning;
use pigeonring_core::scratch::EpochScratch;
use pigeonring_core::viability::{
    check_chain_length, doubled_prefix_into, ChainCheck, Direction, ParamError,
};
use pigeonring_service::{MergeStats, SearchEngine};

/// Per-batch parameters for Hamming search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HammingParams {
    /// Distance threshold `τ`.
    pub tau: u32,
    /// Chain length `l`, in `1..=m` ([`HammingParams::validate`]).
    pub l: usize,
}

impl HammingParams {
    /// Checks `τ ≤ d` and `1 ≤ l ≤ m` for an engine of `m` parts over `d`
    /// dimensions (in process, a `τ > d` returns everything).
    pub fn validate(&self, m: usize, d: usize) -> Result<(), ParamError> {
        if self.tau as usize > d {
            return Err(ParamError::TauAboveDims { tau: self.tau, d });
        }
        check_chain_length(self.l, m)
    }
}

/// Per-query search counters, matching the cost terms of §7.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Unique objects passed to verification (`|A_PH|` / `|A_PR|`).
    pub candidates: usize,
    /// Objects whose `H(x, q) ≤ τ`.
    pub results: usize,
    /// Signatures enumerated in the first step (`C_C1` cost proxy).
    pub probes: usize,
    /// Viable single boxes found in the first step (`|V|`).
    pub viable_boxes: usize,
    /// Box evaluations performed in the second step (`C_C2` cost proxy).
    pub boxes_checked: usize,
}

impl MergeStats for SearchStats {
    fn merge(&mut self, other: &Self) {
        self.candidates = self.candidates.saturating_add(other.candidates);
        self.results = self.results.saturating_add(other.results);
        self.probes = self.probes.saturating_add(other.probes);
        self.viable_boxes = self.viable_boxes.saturating_add(other.viable_boxes);
        self.boxes_checked = self.boxes_checked.saturating_add(other.boxes_checked);
    }

    fn visit(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("candidates", self.candidates as u64);
        emit("results", self.results as u64);
        emit("probes", self.probes as u64);
        emit("viable_boxes", self.viable_boxes as u64);
        emit("boxes_checked", self.boxes_checked as u64);
    }
}

/// Per-thread mutable query state for [`RingHamming`]: the shared
/// epoch-stamped candidate dedup array ([`EpochScratch`]) plus every
/// per-query buffer of candidate generation, so a warm scratch makes a
/// query allocation-free up to its returned id list.
///
/// `Default` yields an empty scratch that lazily sizes itself to the
/// engine's record count on first use, so worker threads can create one
/// without seeing the engine.
#[derive(Clone, Debug, Default)]
pub struct HammingScratch {
    epochs: EpochScratch,
    /// This query's threshold allocation `t_0 … t_{m−1}`.
    t: Vec<i64>,
    /// Prefix sums of `t` repeated twice (length `2m + 1`): the chain
    /// check's quotas.
    prefix: Vec<i64>,
    /// The greedy allocator's next-unit cost per part.
    marginal: Vec<f64>,
    /// The first step's viable boxes `(id, part, distance, next)`, in
    /// probe order, buffered so the second step runs as one flat loop;
    /// `next` is the record's ring-next part signature when the part's
    /// postings store it.
    viable: Vec<(u32, u8, u8, u16)>,
    /// Candidates accepted this query, in acceptance order.
    cands: Vec<u32>,
}

/// The query-side work of a Hamming search that depends on neither the
/// threshold `τ`, the chain length `l`, nor any shard's records: the
/// query's part signatures (the probe centres and the chain check's box
/// operands) and, under [`AllocationStrategy::CostModel`], its sampled
/// distance histogram. Computed once per query by
/// [`SearchEngine::plan`]; valid for every engine with the same
/// partitioning and strategy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HammingPlan {
    sigs: Vec<u64>,
    histogram: Vec<u32>,
}

impl HammingPlan {
    /// The query's [`CostModel::distance_histogram`]; empty under
    /// [`AllocationStrategy::Even`].
    pub fn distance_histogram(&self) -> &[u32] {
        &self.histogram
    }
}

/// The pigeonring Hamming-distance search engine (§6.1). `l = 1` *is* the
/// GPH baseline \[72\]: pigeonhole filtering with variable threshold
/// allocation and integer reduction.
///
/// The index is immutable at query time: every query method takes
/// `&self` plus a caller-owned [`HammingScratch`], so shards can serve
/// concurrent worker threads.
pub struct RingHamming {
    data: Vec<BitVector>,
    /// The same vectors, flat: what the chain check and verification read.
    arena: VectorArena,
    partitioning: Partitioning,
    index: PartIndex,
    /// `Some` under [`AllocationStrategy::CostModel`]; shared between the
    /// shards of a [`RingHamming::with_cost_model`] build.
    cost: Option<Arc<CostModel>>,
}

impl RingHamming {
    /// Cost-model sample size of [`RingHamming::build`].
    pub const COST_SAMPLE: usize = 1024;

    /// Builds the engine over `data` with `m` equi-width parts.
    ///
    /// # Panics
    /// Panics if `data` is empty, dimensionalities disagree, or `m > 64`
    /// (the parts that store a ring-next signature are one `u64` mask,
    /// and a viable box keeps its part in a `u8`).
    pub fn build(data: Vec<BitVector>, m: usize, strategy: AllocationStrategy) -> Self {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        let d = data[0].dims();
        Self::with_partitioning(data, Partitioning::equi_width(d, m), strategy)
    }

    /// Builds the engine with an explicit partitioning.
    pub fn with_partitioning(
        data: Vec<BitVector>,
        partitioning: Partitioning,
        strategy: AllocationStrategy,
    ) -> Self {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        let cost = match strategy {
            AllocationStrategy::Even => None,
            AllocationStrategy::CostModel => Some(Arc::new(CostModel::build(
                &data,
                &partitioning,
                Self::COST_SAMPLE,
            ))),
        };
        Self::assemble(data, partitioning, cost)
    }

    /// Builds the engine over `data` with `m` equi-width parts, allocating
    /// thresholds from a caller-supplied cost model — the sharded build:
    /// one model sampled from the whole corpus makes every shard allocate
    /// exactly as the unsharded engine would, so candidate statistics do
    /// not depend on how records were partitioned.
    ///
    /// # Panics
    /// Panics as [`RingHamming::build`] does, or if `cost` was sampled
    /// under a different partitioning.
    pub fn with_cost_model(data: Vec<BitVector>, m: usize, cost: Arc<CostModel>) -> Self {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        let partitioning = Partitioning::equi_width(data[0].dims(), m);
        assert!(
            partitioning
                .iter()
                .map(|(lo, hi)| hi - lo)
                .eq(cost.widths().iter().copied()),
            "cost model was sampled under a different partitioning"
        );
        Self::assemble(data, partitioning, Some(cost))
    }

    fn assemble(
        data: Vec<BitVector>,
        partitioning: Partitioning,
        cost: Option<Arc<CostModel>>,
    ) -> Self {
        assert!(partitioning.num_parts() <= 64, "at most 64 parts supported");
        let arena = VectorArena::build(&data, &partitioning);
        let index = PartIndex::build(&arena, partitioning.clone());
        RingHamming {
            data,
            arena,
            partitioning,
            index,
            cost,
        }
    }

    /// The indexed vectors.
    pub fn data(&self) -> &[BitVector] {
        &self.data
    }

    /// The number of parts `m`.
    pub fn num_parts(&self) -> usize {
        self.partitioning.num_parts()
    }

    /// Heap bytes of the query-time structures: the part index's posting
    /// arenas, ring-next signature columns and key tables plus the flat
    /// vector arena (the
    /// [`RingHamming::data`] copy kept for callers is not counted).
    pub fn index_bytes(&self) -> usize {
        self.index.index_bytes() + self.arena.bytes()
    }

    /// Allocates the per-part thresholds for this query
    /// (`Σ t_i = τ − m + 1`).
    fn allocate_into(
        &self,
        plan: &HammingPlan,
        tau: i64,
        t: &mut Vec<i64>,
        marginal: &mut Vec<f64>,
    ) {
        match &self.cost {
            None => even_allocation_into(tau, self.partitioning.num_parts(), t),
            Some(cost) => cost.allocate_into(&plan.histogram, tau, t, marginal),
        }
    }

    /// Searches for all vectors within Hamming distance `tau` of `q`,
    /// using chain length `l` (panics outside `1..=m`). Returns the result
    /// ids (ascending) and the per-query statistics. Takes `&self`, so
    /// any number of threads can search one engine concurrently, each
    /// with its own [`HammingScratch`]. Plans the query, then executes
    /// the plan ([`SearchEngine::search_into`]).
    pub fn search_with(
        &self,
        scratch: &mut HammingScratch,
        q: &BitVector,
        tau: u32,
        l: usize,
    ) -> (Vec<u32>, SearchStats) {
        let mut ids = Vec::new();
        let stats = self.search_into(scratch, q, &HammingParams { tau, l }, &mut ids);
        (ids, stats)
    }

    /// Candidate generation only (both steps of §7, no verification) —
    /// lets the harness time the filter separately, as Figure 5 plots
    /// "Cand." vs "Total".
    pub fn candidates_with(
        &self,
        scratch: &mut HammingScratch,
        q: &BitVector,
        tau: u32,
        l: usize,
    ) -> (Vec<u32>, SearchStats) {
        let plan = self.plan(scratch, q);
        self.candidates_with_plan(scratch, &plan, tau, l)
    }

    /// [`RingHamming::candidates_with`] with the query's plan
    /// precomputed by [`SearchEngine::plan`].
    pub fn candidates_with_plan(
        &self,
        scratch: &mut HammingScratch,
        plan: &HammingPlan,
        tau: u32,
        l: usize,
    ) -> (Vec<u32>, SearchStats) {
        let stats = self.generate(scratch, plan, tau, l);
        (scratch.cands.clone(), stats)
    }

    /// Both steps of §7 for one planned query: leaves the accepted
    /// candidates in `scratch.cands` and returns the statistics
    /// (`results` still zero).
    fn generate(
        &self,
        scratch: &mut HammingScratch,
        plan: &HammingPlan,
        tau: u32,
        l: usize,
    ) -> SearchStats {
        let m = self.partitioning.num_parts();
        assert_eq!(plan.sigs.len(), m, "plan of a different partitioning");
        check_chain_length(l, m).unwrap_or_else(|e| panic!("{e}"));
        let HammingScratch {
            epochs,
            t,
            prefix,
            marginal,
            viable,
            cands,
        } = scratch;
        self.allocate_into(plan, i64::from(tau), t, marginal);
        doubled_prefix_into(t, prefix);
        epochs.next_epoch(self.data.len());
        cands.clear();

        let mut stats = SearchStats::default();
        let (arena, sigs) = (&self.arena, &plan.sigs[..]);

        // First step: collect the viable boxes (part < 64 and
        // dist ≤ width ≤ 64 both fit a byte). Running the second step as
        // its own flat loop, instead of inside the probe's callbacks,
        // keeps the random per-record loads of consecutive boxes in
        // flight together rather than serialised behind the probe's
        // unpredictable posting-list branches.
        viable.clear();
        stats.probes = self
            .index
            .probe_signatures(sigs, t, |part, dist, id, next| {
                viable.push((id, part as u8, dist as u8, next));
            });
        stats.viable_boxes = viable.len();
        // Second step: the Theorem 7 chain from each viable box. The
        // start box's value is the enumeration depth (within its quota,
        // `dist ≤ t_part`, by the probe radius), the ring-next box a
        // popcount on the posting's stored signature where the part keeps
        // one, and the rest popcounts on the arena.
        let stored = (0..m)
            .filter(|&i| self.index.stores_next(i))
            .fold(0u64, |mask, i| mask | 1 << i);
        let chain = ChainCheck::new(prefix, Direction::Le, l);
        for &(id, part, dist, next) in viable.iter() {
            let (idu, part) = (id as usize, usize::from(part));
            // `usize::MAX` matches no box: the arena serves box part + 1.
            let ring_next = match (stored >> part) & 1 {
                0 => usize::MAX,
                _ if part + 1 == m => 0,
                _ => part + 1,
            };
            let accepted = epochs.chain_accept(idu, part, &chain, |j| {
                stats.boxes_checked += 1;
                if j == part {
                    i64::from(dist)
                } else if j == ring_next {
                    i64::from((u64::from(next) ^ sigs[j]).count_ones())
                } else {
                    i64::from(arena.box_value(idu, j, sigs[j]))
                }
            });
            if accepted {
                cands.push(id);
            }
        }

        stats.candidates = cands.len();
        stats
    }
}

impl SearchEngine for RingHamming {
    type Query = BitVector;
    type Params = HammingParams;
    type Stats = SearchStats;
    type Scratch = HammingScratch;
    /// The query's part signatures and sampled distance histogram —
    /// independent of `τ` and `l` (per-batch parameters), so one plan
    /// serves every shard and every parameter setting.
    type Plan = HammingPlan;

    /// # Panics
    /// Panics if `query`'s dimensionality differs from the indexed
    /// vectors'.
    fn plan(&self, _scratch: &mut HammingScratch, query: &BitVector) -> HammingPlan {
        assert_eq!(
            query.dims(),
            self.partitioning.dims(),
            "query dimensionality mismatch"
        );
        let sigs = self.partitioning.signatures(query);
        let histogram = self
            .cost
            .as_ref()
            .map_or_else(Vec::new, |cost| cost.distance_histogram(&sigs));
        HammingPlan { sigs, histogram }
    }

    /// # Panics
    /// Panics if `query`'s dimensionality differs from the indexed
    /// vectors' or `plan` was computed under a different partitioning.
    fn search_planned(
        &self,
        scratch: &mut HammingScratch,
        plan: &HammingPlan,
        query: &BitVector,
        params: &HammingParams,
        out: &mut Vec<u32>,
    ) -> SearchStats {
        assert_eq!(
            query.dims(),
            self.partitioning.dims(),
            "query dimensionality mismatch"
        );
        let HammingParams { tau, l } = *params;
        let mut stats = self.generate(scratch, plan, tau, l);
        let qwords = query.words();
        let first = out.len();
        out.extend(scratch.cands.iter().copied().filter(|&id| {
            kernels::distance_within(self.arena.record(id as usize), qwords, tau).is_some()
        }));
        out[first..].sort_unstable();
        stats.results = out.len() - first;
        stats
    }

    /// Same partitioning (signatures and histogram rows line up) and
    /// same allocation strategy (the histogram is present or absent in
    /// both).
    fn plans_portable_to(&self, other: &Self) -> bool {
        self.partitioning == other.partitioning && self.cost.is_some() == other.cost.is_some()
    }
}

/// Exhaustive reference: verifies every vector. Ground truth for tests and
/// the verification-cost floor for benchmarks.
pub struct LinearScan<'a> {
    data: &'a [BitVector],
}

impl<'a> LinearScan<'a> {
    /// Wraps a dataset.
    pub fn new(data: &'a [BitVector]) -> Self {
        LinearScan { data }
    }

    /// All ids with `H(x, q) ≤ τ`, ascending.
    pub fn search(&self, q: &BitVector, tau: u32) -> Vec<u32> {
        self.data
            .iter()
            .enumerate()
            .filter(|(_, x)| x.distance_within(q, tau).is_some())
            .map(|(id, _)| id as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Vec<BitVector> {
        // 64-dim vectors with controlled distances from the zero vector.
        let mut data = Vec::new();
        for k in 0..32 {
            let mut v = BitVector::zeros(64);
            for b in 0..k {
                v.flip((b * 7) % 64);
            }
            data.push(v);
        }
        data
    }

    #[test]
    fn gph_matches_linear_scan() {
        let data = tiny_dataset();
        let scan = LinearScan::new(&data);
        let gph = RingHamming::build(data.clone(), 4, AllocationStrategy::Even);
        let mut scratch = HammingScratch::default();
        for tau in [0u32, 1, 3, 7, 15] {
            for qid in [0usize, 5, 17, 31] {
                let q = &data[qid];
                let expect = scan.search(q, tau);
                let (got, _) = gph.search_with(&mut scratch, q, tau, 1);
                assert_eq!(got, expect, "tau={tau} qid={qid}");
            }
        }
    }

    #[test]
    fn ring_matches_linear_scan_for_all_l() {
        let data = tiny_dataset();
        let scan = LinearScan::new(&data);
        let ring = RingHamming::build(data.clone(), 4, AllocationStrategy::Even);
        let mut scratch = HammingScratch::default();
        for tau in [0u32, 2, 5, 11] {
            for l in 1..=4usize {
                let q = &data[9];
                let expect = scan.search(q, tau);
                let (got, _) = ring.search_with(&mut scratch, q, tau, l);
                assert_eq!(got, expect, "tau={tau} l={l}");
            }
        }
    }

    #[test]
    fn ring_with_cost_model_matches_linear_scan() {
        let data = tiny_dataset();
        let scan = LinearScan::new(&data);
        let ring = RingHamming::build(data.clone(), 4, AllocationStrategy::CostModel);
        let mut scratch = HammingScratch::default();
        for tau in [1u32, 4, 9] {
            for l in [1usize, 2, 4] {
                let q = &data[20];
                assert_eq!(
                    ring.search_with(&mut scratch, q, tau, l).0,
                    scan.search(q, tau),
                    "tau={tau} l={l}"
                );
            }
        }
    }

    #[test]
    fn planned_search_matches_plan_and_search() {
        let data = tiny_dataset();
        for strategy in [AllocationStrategy::Even, AllocationStrategy::CostModel] {
            let ring = RingHamming::build(data.clone(), 4, strategy);
            let mut scratch = HammingScratch::default();
            for q in [&data[3], &data[20], &BitVector::zeros(64)] {
                // One plan serves every (τ, l).
                let plan = ring.plan(&mut scratch, q);
                for tau in [0u32, 4, 9, 70] {
                    for l in 1..=4usize {
                        let direct = ring.search_with(&mut scratch, q, tau, l);
                        let mut ids = Vec::new();
                        let params = HammingParams { tau, l };
                        let stats = ring.search_planned(&mut scratch, &plan, q, &params, &mut ids);
                        assert_eq!((ids, stats), direct, "tau={tau} l={l}");
                        let cands = ring.candidates_with(&mut scratch, q, tau, l);
                        let planned = ring.candidates_with_plan(&mut scratch, &plan, tau, l);
                        assert_eq!(planned, cands, "tau={tau} l={l}");
                    }
                }
            }
        }
    }

    #[test]
    fn shared_cost_model_makes_shards_allocate_like_the_whole() {
        let data = tiny_dataset();
        let whole = RingHamming::build(data.clone(), 4, AllocationStrategy::CostModel);
        let cost = Arc::new(CostModel::build(
            &data,
            &Partitioning::equi_width(64, 4),
            RingHamming::COST_SAMPLE,
        ));
        let (left, right) = data.split_at(11);
        let shards = [
            RingHamming::with_cost_model(left.to_vec(), 4, Arc::clone(&cost)),
            RingHamming::with_cost_model(right.to_vec(), 4, cost),
        ];
        assert!(shards[0].plans_portable_to(&shards[1]));
        assert!(!shards[0].plans_portable_to(&RingHamming::build(
            right.to_vec(),
            4,
            AllocationStrategy::Even
        )));
        let mut scratch = HammingScratch::default();
        for q in [&data[5], &data[27]] {
            let plan = shards[0].plan(&mut scratch, q);
            assert_eq!(plan, whole.plan(&mut scratch, q));
            for (tau, l) in [(3u32, 2usize), (9, 3), (15, 4)] {
                let (expect, expect_stats) = whole.search_with(&mut scratch, q, tau, l);
                let mut got = Vec::new();
                let mut stats = SearchStats::default();
                for (shard, base) in shards.iter().zip([0u32, 11]) {
                    let mut ids = Vec::new();
                    let params = HammingParams { tau, l };
                    let s = shard.search_planned(&mut scratch, &plan, q, &params, &mut ids);
                    got.extend(ids.into_iter().map(|id| id + base));
                    stats.merge(&s);
                }
                assert_eq!(got, expect, "tau={tau} l={l}");
                // Every shard enumerates the signatures for itself; all
                // per-record work adds up to the unsharded engine's.
                stats.probes = expect_stats.probes;
                assert_eq!(stats, expect_stats, "tau={tau} l={l}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "different partitioning")]
    fn cost_model_of_another_partitioning_is_rejected() {
        let data = tiny_dataset();
        let cost = CostModel::build(&data, &Partitioning::equi_width(64, 8), 16);
        let _ = RingHamming::with_cost_model(data, 4, Arc::new(cost));
    }

    #[test]
    fn candidates_shrink_with_l() {
        // Lemma 4 at engine level: candidates non-increasing in l.
        let data = tiny_dataset();
        let ring = RingHamming::build(data.clone(), 4, AllocationStrategy::Even);
        let mut scratch = HammingScratch::default();
        let q = BitVector::zeros(64);
        let mut prev = usize::MAX;
        for l in 1..=4usize {
            let (_, stats) = ring.search_with(&mut scratch, &q, 9, l);
            assert!(
                stats.candidates <= prev,
                "l={l}: {} > {prev}",
                stats.candidates
            );
            prev = stats.candidates;
        }
    }

    #[test]
    fn l_equals_m_candidates_are_results() {
        // §3: when ‖B‖₁ = f(x,q) and l = m, candidate generation subsumes
        // verification.
        let data = tiny_dataset();
        let ring = RingHamming::build(data, 4, AllocationStrategy::Even);
        let mut scratch = HammingScratch::default();
        let q = BitVector::zeros(64);
        let (results, stats) = ring.search_with(&mut scratch, &q, 9, 4);
        assert_eq!(stats.candidates, results.len());
        assert_eq!(stats.candidates, stats.results);
    }

    #[test]
    fn stats_are_consistent() {
        let data = tiny_dataset();
        let ring = RingHamming::build(data, 4, AllocationStrategy::Even);
        let mut scratch = HammingScratch::default();
        let q = BitVector::zeros(64);
        let (results, stats) = ring.search_with(&mut scratch, &q, 7, 2);
        assert_eq!(stats.results, results.len());
        assert!(stats.results <= stats.candidates);
        assert!(stats.candidates <= stats.viable_boxes);
    }

    #[test]
    fn tau_zero_finds_exact_duplicates() {
        let mut data = tiny_dataset();
        data.push(data[4].clone()); // duplicate of id 4
        let ring = RingHamming::build(data.clone(), 4, AllocationStrategy::Even);
        let mut scratch = HammingScratch::default();
        let (res, _) = ring.search_with(&mut scratch, &data[4], 0, 2);
        assert_eq!(res, vec![4, 32]);
    }

    #[test]
    fn large_tau_returns_everything() {
        let data = tiny_dataset();
        let n = data.len();
        let ring = RingHamming::build(data, 4, AllocationStrategy::Even);
        let mut scratch = HammingScratch::default();
        let (res, _) = ring.search_with(&mut scratch, &BitVector::zeros(64), 64, 3);
        assert_eq!(res.len(), n);
    }

    #[test]
    fn validate_accepts_tau_to_d_and_l_in_one_to_m() {
        let check = |tau, l| HammingParams { tau, l }.validate(4, 64);
        let valid = [0, 1, 4, 5].map(|l| check(64, l).is_ok());
        assert_eq!(valid, [false, true, true, false]);
        let tau_above_d = check(65, 4).unwrap_err();
        assert_eq!(tau_above_d, ParamError::TauAboveDims { tau: 65, d: 64 });
        // The server sends this text as its `InvalidQuery` message.
        assert_eq!(tau_above_d.to_string(), "tau = 65 exceeds the 64 dims");
    }

    #[test]
    #[should_panic(expected = "chain length l = 5 is outside 1..=4")]
    fn chain_longer_than_m_panics() {
        let ring = RingHamming::build(tiny_dataset(), 4, AllocationStrategy::Even);
        ring.search_with(&mut HammingScratch::default(), &BitVector::zeros(64), 8, 5);
    }
}
