//! # pigeonring-setsim
//!
//! Set similarity search (Problem 3 of the paper): given a collection of
//! token sets and a query set `q`, find all `x` with `sim(x, q) ≥ τ` for
//! overlap or Jaccard similarity. This is the paper's `≥`-direction
//! τ-selection problem (§6.2).
//!
//! Engines:
//!
//! * [`RingSetSim`] at `l = 1` — the pkwise baseline \[103\]: the token
//!   universe is split into `m − 1` classes; every record indexes the
//!   k-combinations (k-wise signatures) of its class-`k` prefix tokens,
//!   and a candidate must share a signature with the query in some class.
//! * [`RingSetSim`] at `l > 1` — pkwise plus the §6.2 pigeonring second
//!   step: from a matched class `k`, extend the chain over the
//!   class-overlap boxes `b_i = |x_i ∩ q_i|` and keep the object only if
//!   the chain is prefix-viable under the `≥`-direction Theorem 7 quotas
//!   (`‖c^{l'}‖₁ ≥ 1 − l' + Σ t_j`). Chains run their full length around
//!   the ring, reading the suffix box `b₀` as a positional upper bound
//!   (proved in the [`ring`] module docs).
//! * [`AdaptSearch`] — prefix-filter baseline configured as in the paper's
//!   experiments (§8.1): the AllPairs/PPJoin search version (inverted
//!   prefix lists + length and position filters).
//! * [`PartAlloc`] — partition-filter baseline \[30\] adapted to search:
//!   per-size-group universe partitioning with exact segment matching.
//!
//! All engines answer through the same verifier ("fast verification"
//! \[60\]: merge intersection with early termination) and agree with
//! linear scan on every input — this is asserted by the test suite.

pub mod adapt;
pub mod partalloc;
pub mod pkwise;
pub mod ring;
pub mod types;

pub use adapt::AdaptSearch;
pub use partalloc::PartAlloc;
pub use pkwise::{ClassMap, PkwiseIndex};
pub use ring::{RingSetSim, SetParams, SetPlan, SetScratch, SetStats};
pub use types::{Collection, LinearScanSets, Threshold, TokenDictionary};

#[cfg(test)]
mod paper_examples;
