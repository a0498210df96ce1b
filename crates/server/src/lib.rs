//! # pigeonring-server
//!
//! The network frontend over the `pigeonring-service` query layer: a
//! dependency-free `std::net` TCP server speaking a versioned,
//! length-prefixed binary wire protocol across all four domains
//! (Hamming, edit distance, set similarity, graph edit distance).
//!
//! The ROADMAP north star is heavy traffic from millions of users; PR 2
//! built the shard-parallel in-process layer, and this crate puts a
//! server boundary in front of it, the way FAISS-style similarity
//! systems are consumed in production (batched service APIs):
//!
//! * [`wire`] — the frame format and message codec (v2: tagged request
//!   ids, so many requests ride one connection and responses may return
//!   out of order). Strict, typed, allocation-bounded decoding:
//!   malformed input fails the connection closed, never panics the
//!   server.
//! * [`queue`] — the bounded request queue. Admission control lives
//!   here: the [`FairQueue`] keeps one bounded lane per domain, so a
//!   full lane answers `Busy` for *that domain only*, and weighted
//!   round-robin batch formation on fixed lane shares stops a
//!   slow-domain backlog of more than `B` requests from crowding the
//!   other domains out of a batch.
//! * [`server`] — connection handling (one nonblocking epoll reactor
//!   thread, so connection count costs file descriptors instead of
//!   threads) and the weighted-fair dispatchers that
//!   coalesce up to `B` queued queries per fan-out so the network path
//!   inherits the service layer's batch amortization on the shared
//!   persistent [`WorkerPool`](pigeonring_service::WorkerPool). The
//!   one cost-driven decision is [`registry`]'s shortest-job-first
//!   order of a batch's domain groups.
//! * `sys` (crate-private, Linux only) — dependency-free readiness
//!   syscalls: hand-rolled `extern "C"` epoll bindings and the UDP-pair
//!   waker that lets dispatchers interrupt a blocked `epoll_wait`. Off
//!   Linux there is no reactor and [`start`] answers `Unsupported`.
//! * [`registry`] — deterministic engine construction
//!   ([`EngineSpec`] → [`EngineSet`]) from the same data loaders the
//!   `repro` harness uses, so a server and an in-process run built from
//!   equal specs answer from bit-identical datasets (the CI smoke
//!   check diffs their `result_hash`es).
//! * [`client`] — a blocking client library; `repro query`, `repro
//!   stats` and `repro trace` are thin wrappers over it.
//!
//! Observability rides the same wire: `Request::Stats` returns the
//! live metrics snapshot, `Request::Trace` the recent sampled span
//! timelines (see `pigeonring_telemetry::trace`), and a query's
//! EXPLAIN flag returns its own span tree inline with its results —
//! all answered even when every lane is saturated.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

pub mod client;
pub mod queue;
#[cfg(target_os = "linux")]
pub(crate) mod reactor;
pub mod registry;
pub mod server;
#[cfg(target_os = "linux")]
pub(crate) mod sys;
pub mod wire;

pub use client::{Client, ClientError, Outcome};
pub use queue::{lane_of, FairQueue, PushError, NUM_LANES};
pub use registry::{EngineSet, EngineSpec};
pub use server::{
    start, start_with_handler, Handler, ServerConfig, ServerHandle, ServerMetrics, SlowQuery,
};
pub use wire::{
    Domain, DomainQuery, ErrorCode, Request, Response, WireError, CONNECTION_REQUEST_ID,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};

// Re-exported so handler implementations (`Handler` takes a
// `&TraceBatch`) need no direct telemetry dependency.
pub use pigeonring_telemetry::trace::TraceBatch;
