//! # pigeonring-editdist
//!
//! String edit distance search (Problem 4 of the paper): given a
//! collection of strings and a query `q`, find all `x` with
//! `ed(x, q) ≤ τ`.
//!
//! Engines:
//!
//! * [`Pivotal`] — the Pivotal baseline \[28\]: each string's q-grams are
//!   sorted by a global order; the first `κτ + 1` form its *prefix* and a
//!   greedy positional selection yields `τ + 1` disjoint *pivotal*
//!   q-grams. A result must have an exact (position-compatible) match
//!   between one side's pivotal grams and the other side's prefix (this
//!   first step is [`RingEdit`] at `l = 1`); the *alignment filter* then
//!   bounds the sum of per-gram minimum edit distances by `τ`.
//! * [`RingEdit`] — the §6.3 pigeonring engine: the alignment filter is
//!   recognized as the `l = m` basic form, and replaced by the strong
//!   form with per-box *content-filter lower bounds* \[114\]
//!   (`ed ≥ ⌈H(bitmask)/2⌉`, a few popcounts instead of an
//!   `O(κ² + κτ)` DP), with early exit at the first non-viable prefix.
//!
//! The filtering instance `⟨pivotal grams, min-edit boxes, D(τ) = τ⟩` is
//! complete (`‖B‖₁ ≤ ed(x, q)` because the grams are disjoint) but not
//! tight (Lemma 7 condition 2 fails) — candidates must still be verified,
//! which [`verify::edit_distance_within`] does with a banded
//! early-abandoning DP.

pub mod content;
pub mod pivotal;
pub mod qgram;
pub mod ring;
pub mod verify;

pub use pivotal::{EditStats, PivotalIndex};
pub use qgram::{GramDictionary, GramOrder, QGramCollection};
pub use ring::{EditParams, EditPlan, EditScratch, Pivotal, RingEdit};

#[cfg(test)]
mod paper_examples;
