//! The uniform engine interface every domain crate implements: each
//! engine's `impl SearchEngine` is its only planned query path.

/// Per-query statistics that can be aggregated across shards.
///
/// `merge` must be commutative and use saturating arithmetic so that
/// aggregation over any shard order (and over adversarially large batch
/// sweeps) can neither overflow nor depend on worker scheduling.
pub trait MergeStats: Default + Send + 'static {
    /// Folds `other`'s counters into `self`, saturating on overflow.
    fn merge(&mut self, other: &Self);

    /// Enumerates this stats struct's fields as `(name, value)` pairs —
    /// the seam telemetry uses to export per-stage filter-chain
    /// counters (candidates, survivors, verifications) without the
    /// exporting layer knowing each domain's field set. Field names
    /// must be stable identifiers (they become metric name suffixes).
    /// The default exports nothing.
    fn visit(&self, _emit: &mut dyn FnMut(&'static str, u64)) {}
}

/// A thresholded similarity-search engine usable from the service layer.
///
/// The contract mirrors the four ring engines after their `&self`
/// refactor: the index is immutable at query time, and all per-query
/// mutable state (epoch-stamped dedup arrays, box caches) lives in an
/// external [`SearchEngine::Scratch`] owned by the calling thread. One
/// engine can therefore serve arbitrarily many threads concurrently,
/// each with its own scratch.
///
/// Query execution is split into **plan once, execute per shard**:
/// [`SearchEngine::plan`] computes the query-side work (gram interning
/// and prefix/pivotal selection for edit distance, token ranking and
/// k-wise signature enumeration for set similarity, part signatures and
/// the allocation histogram for Hamming, flat adjacency and label
/// histograms for graphs) into a [`SearchEngine::Plan`],
/// and [`SearchEngine::search_planned`] executes it against this
/// engine's postings. [`ShardedIndex`](crate::sharded::ShardedIndex)
/// plans each query exactly once — on its first shard — and hands
/// `&Plan` to every shard worker, so a plan must be valid for every
/// shard: engines whose plans depend on a build-time dictionary say so
/// through [`SearchEngine::plans_portable_to`], and construction
/// rejects shards that disagree. A plan that depends on the query alone
/// (graph) is portable everywhere.
///
/// Everything is `'static` (and queries are `Clone`) so batches can be
/// shipped to the persistent [`WorkerPool`](crate::pool::WorkerPool),
/// whose jobs outlive the caller's stack frame.
pub trait SearchEngine: Send + Sync + 'static {
    /// One query (e.g. a `BitVector`, a byte string, a token set, a
    /// graph).
    type Query: Clone + Send + Sync + 'static;
    /// Per-batch search parameters (threshold, chain length, ...).
    type Params: Clone + Send + Sync + 'static;
    /// Per-query statistics.
    type Stats: MergeStats;
    /// Per-thread scratch space. `Default` must yield a valid (empty)
    /// scratch; engines lazily size it to their record count on first
    /// use.
    type Scratch: Default + Send + 'static;
    /// The precomputed query-side plan shared (read-only) by every
    /// shard. Must not depend on search parameters such as the chain
    /// length `l`, so one plan also serves parameter sweeps. `()` for
    /// engines whose query side needs no preprocessing.
    type Plan: Send + Sync + 'static;

    /// Computes `query`'s plan. Must be a pure function of the query and
    /// the engine's *dictionary* (never its postings), so any shard of a
    /// dictionary-sharing build produces an identical plan. `scratch`
    /// lends reusable buffers; no per-record state may be touched.
    fn plan(&self, scratch: &mut Self::Scratch, query: &Self::Query) -> Self::Plan;

    /// Appends the ids (ascending, local to this engine) of all records
    /// within the threshold of `query` to `out` using a precomputed
    /// `plan`, returning the per-query statistics (excluding
    /// [`SearchEngine::plan_stats`], which the caller accounts once per
    /// query). Must not read `out`'s prior contents.
    fn search_planned(
        &self,
        scratch: &mut Self::Scratch,
        plan: &Self::Plan,
        query: &Self::Query,
        params: &Self::Params,
        out: &mut Vec<u32>,
    ) -> Self::Stats;

    /// Statistics attributable to planning (e.g. signatures enumerated
    /// from the query). Merged **once per query** — not once per shard —
    /// by whoever computed the plan.
    fn plan_stats(&self, _plan: &Self::Plan) -> Self::Stats {
        Self::Stats::default()
    }

    /// Whether a plan computed by `self` is valid input to `other`'s
    /// [`SearchEngine::search_planned`]. `true` by default (plans that
    /// depend on the query alone); engines whose plans are expressed in
    /// a build-time dictionary's id space override this to compare
    /// dictionaries — by identity, which is what a dictionary-first
    /// build shares. [`ShardedIndex`](crate::sharded::ShardedIndex)
    /// checks every shard against its planner at construction.
    fn plans_portable_to(&self, _other: &Self) -> bool {
        true
    }

    /// Plan-and-search in one call, for callers holding a single engine
    /// (plan statistics included).
    fn search_into(
        &self,
        scratch: &mut Self::Scratch,
        query: &Self::Query,
        params: &Self::Params,
        out: &mut Vec<u32>,
    ) -> Self::Stats {
        let plan = self.plan(scratch, query);
        let mut stats = self.search_planned(scratch, &plan, query, params, out);
        stats.merge(&self.plan_stats(&plan));
        stats
    }
}
