//! # pigeonring-core
//!
//! Core implementation of the **pigeonring principle** from
//! *"Pigeonring: A Principle for Faster Thresholded Similarity Search"*
//! (Jianbin Qin, Chuan Xiao, VLDB 2018).
//!
//! The pigeonhole principle states that if `m` boxes hold a total of at most
//! `n` items, some box holds at most `n/m` items. Filter-and-refine
//! algorithms for thresholded similarity search (τ-selection problems) use
//! this to turn a global constraint `f(x, q) ≤ τ` into a cheap per-feature
//! necessary condition. The pigeonring principle arranges the boxes in a
//! ring and yields strictly stronger conditions on *chains* of consecutive
//! boxes:
//!
//! * **Basic form** ([`theorem::pigeonring_basic`], Theorem 2): for every
//!   chain length `l ∈ [1..m]` there exist `l` consecutive boxes whose sum is
//!   at most `l·n/m`.
//! * **Strong form** ([`theorem::pigeonring_strong`], Theorem 3): there
//!   exists a chain all of whose prefixes `c^{l'}` satisfy
//!   `‖c^{l'}‖₁ ≤ l'·n/m` — a *prefix-viable* chain.
//!
//! Both extend to variable threshold allocation (Theorem 6), integer
//! reduction (Theorem 7), and the `≥` direction.
//!
//! ## Crate layout
//!
//! The production surface, which the four engines call on every query:
//!
//! * [`viability`] — threshold schemes ([`viability::ThresholdScheme`]),
//!   the engines' one chain check ([`viability::ChainCheck`]) and, as its
//!   reference, the scheme-generic chain-viability predicates (the
//!   prefix-viable search with Corollary-2 skipping).
//! * [`scratch`] — the epoch-stamped per-query candidate dedup the
//!   engines share.
//! * [`fxhash`] — a small FxHash-style hasher for hot integer-keyed maps.
//!
//! The paper's statements in checkable form. No engine calls them; their
//! only readers are their own unit tests, `tests/principle_props.rs`,
//! `tests/framework_case_studies.rs` and the Hamming crate's
//! `paper_examples`:
//!
//! * [`theorem`] — the principle statements as checkable functions, plus
//!   brute-force witnesses used by the test suite.
//! * [`integral`] — the continuous (integral) forms of both principles
//!   (Appendix B, Theorems 8 and 9) over piecewise-constant functions.
//! * [`framework`] — the universal filtering framework `⟨F, B, D⟩` of §5
//!   with completeness (Lemma 6) and tightness (Lemma 7) checkers.
//! * [`ring`] — chains over a ring of boxes: sums, prefixes, suffixes.
//!
//! Beside both, [`analysis`] is the filtering-performance analysis of
//! §3.1 (word-set recurrences producing `Pr(CAND_l)` and `Pr(RES)`),
//! which regenerates Figure 2 (`repro fig2`).
//!
//! ## Quick example
//!
//! ```
//! use pigeonring_core::viability::{ThresholdScheme, Direction, find_prefix_viable};
//!
//! // Example 1/5 of the paper: m = 5 boxes, threshold n = 5.
//! let boxes = [2i64, 1, 2, 2, 1]; // sums to 8 > 5, a false positive for
//!                                 // the pigeonhole filter (b1 = 1 ≤ 5/5)
//! let scheme = ThresholdScheme::uniform(5, 5);
//! // Pigeonhole (chain length 1) admits it...
//! assert!(find_prefix_viable(&boxes, &scheme, Direction::Le, 1).is_some());
//! // ...but the pigeonring principle at chain length 2 filters it.
//! assert!(find_prefix_viable(&boxes, &scheme, Direction::Le, 2).is_none());
//! ```

pub mod analysis;
pub mod framework;
pub mod fxhash;
pub mod integral;
pub mod ring;
pub mod scratch;
pub mod theorem;
pub mod viability;

pub use framework::FilterInstance;
pub use scratch::EpochScratch;
pub use viability::{Direction, ThresholdScheme};
