//! # pigeonring-service
//!
//! The sharded, batched query-service layer over the four domain engines
//! (Hamming, edit distance, set similarity, graph edit distance).
//!
//! The paper evaluates the pigeonring filters one query at a time; the
//! ROADMAP north-star is a system serving heavy traffic, which needs the
//! batching and shard-parallel execution FAISS-style systems use to
//! amortize per-query overhead. This crate provides the seam:
//!
//! * [`SearchEngine`] — the uniform engine interface. Implementations
//!   take `&self` and keep all per-query mutable state in an external
//!   per-thread [`SearchEngine::Scratch`], so one immutable index can
//!   serve many worker threads concurrently. Query execution is split
//!   into *plan once, execute per shard*: [`SearchEngine::plan`]
//!   computes a query's [`SearchEngine::Plan`] (interned grams, ranked
//!   tokens, enumerated signatures) and
//!   [`SearchEngine::search_planned`] executes it against one shard's
//!   postings.
//! * [`MergeStats`] — saturating aggregation of per-query counters, so
//!   per-shard statistics can be combined without overflow or drift.
//! * [`WorkerPool`] — a persistent, channel-fed worker pool whose
//!   workers each own a long-lived, type-erased [`ScratchStore`]; spawned
//!   once and reused across batches, indexes, and domains (it also backs
//!   the `pigeonring-server` network frontend).
//! * [`ShardedIndex`] — hash-partitions records across `N` shards, fans a
//!   query batch out over the worker pool (one job per shard), and merges
//!   per-shard result sets back into stable ascending record-id order.
//!   Each query's plan is computed exactly once
//!   ([`ShardedIndex::plan_batch`]) and shared by every shard worker;
//!   [`ShardedIndex::build_global`] builds all shards against one
//!   corpus-wide dictionary so that plan is valid everywhere
//!   ([`ShardedIndex::build`] is its unit-dictionary case). Because
//!   every engine verifies candidates exactly, the merged result set is
//!   *identical* to the unsharded engine's for any shard count
//!   (property-tested across all four domains).
//! * [`ResultHasher`] — the order-sensitive result-set fingerprint that
//!   certifies identical answers across shard counts, processes and the
//!   wire.
//!
//! The adapter impls for [`RingHamming`], [`RingEdit`], [`RingSetSim`]
//! and [`RingGraph`] live in the respective domain crates, next to each
//! engine: `hamming/src/engine.rs` and `{editdist,setsim,graph}/src/ring.rs`.
//! (This is a layout choice, not an orphan-rule
//! obligation — `SearchEngine` is local here, so the impls could equally
//! live in this crate; keeping them next to the engines lets each
//! adapter touch crate-private details such as query translation.)
//!
//! [`RingHamming`]: https://docs.rs/pigeonring-hamming
//! [`RingEdit`]: https://docs.rs/pigeonring-editdist
//! [`RingSetSim`]: https://docs.rs/pigeonring-setsim
//! [`RingGraph`]: https://docs.rs/pigeonring-graph

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

pub mod engine;
pub mod fingerprint;
pub mod machine;
pub mod pool;
pub mod sharded;

pub use engine::{MergeStats, SearchEngine};
pub use fingerprint::ResultHasher;
pub use machine::{cores, MachineFingerprint};
pub use pool::{JobRejected, PoolMetrics, ScratchStore, WorkerPool};
pub use sharded::{shard_of, IndexMetrics, SearchResult, ShardedIndex};

/// The telemetry crate, re-exported so downstream layers (server,
/// bench CLI) share one metrics implementation without naming the
/// crate in their own manifests' dependency lists twice.
pub use pigeonring_telemetry as telemetry;
