//! # pigeonring-hamming
//!
//! Hamming distance search (Problem 2 of the paper): given a collection of
//! `d`-dimensional binary vectors and a query `q`, find all `x` with
//! `H(x, q) ≤ τ`.
//!
//! One engine, [`RingHamming`], one parameter `l`:
//!
//! * `l = 1` is the GPH baseline \[72\]: dimensions are split into `m`
//!   disjoint equi-width parts; a per-part signature index finds every
//!   vector whose part lies within that part's threshold `t_i` of the
//!   query's part (variable threshold allocation + integer reduction,
//!   `‖T‖₁ = τ − m + 1`), and survivors are verified.
//! * `l > 1` adds the §6.1 pigeonring second step: starting from each
//!   viable box, extend the chain clockwise with popcount part distances
//!   and keep the object only if some chain of length `l` is
//!   prefix-viable under Theorem 7 quotas.
//!
//! The filtering instance is `⟨partition, part Hamming distances, D(τ)=τ⟩`;
//! since the parts are disjoint, `‖B(x,q)‖₁ = H(x,q)` exactly, so the
//! instance is complete *and tight* (Lemma 7), and at `l = m` candidates
//! equal results.

pub mod alloc;
pub mod arena;
pub mod bitvec;
pub mod engine;
pub mod index;
pub mod kernels;
pub mod partition;

pub use alloc::{AllocationStrategy, CostModel};
pub use bitvec::BitVector;
pub use engine::{
    HammingParams, HammingPlan, HammingScratch, LinearScan, RingHamming, SearchStats,
};
pub use partition::Partitioning;

#[cfg(test)]
mod paper_examples;
