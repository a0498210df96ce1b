//! # pigeonring-graph
//!
//! Graph edit distance search (Problem 5 of the paper): given a
//! collection of labeled undirected graphs and a query graph `q`, find
//! all `x` with `ged(x, q) ≤ τ`. Edit operations are those of §2.2:
//! insert/delete an isolated labeled vertex, change a vertex label,
//! insert/delete a labeled edge, change an edge label.
//!
//! Engines:
//!
//! * Pars — the Pars baseline \[136\], [`RingGraph`] at `l = 1`: each data
//!   graph is divided into `τ + 1` disjoint subgraphs (possibly holding
//!   *half-edges*: edge stubs whose far endpoint lies in another part).
//!   One edit operation damages at most one part, so a result must have
//!   at least one part that embeds intact in `q` (subgraph isomorphism
//!   including half-edges).
//! * [`RingGraph`] — the §6.4 pigeonring engine: from each embedding part
//!   `i` (box value 0), extend the chain over the following parts, lower
//!   bounding each box by the *deletion neighborhood* \[62, 106\]: part
//!   `x_j` needs more than `b` operations iff no variant of `x_j`
//!   produced by at most `b` operations (delete an edge/stub, delete an
//!   isolated vertex, wildcard a vertex label) embeds in `q`.
//!
//! The engine has one build ([`PartIndex`]): every part is compiled
//! once into a flat arena ([`subiso::PartArena`]), a variant is a part
//! read through a one-element [`Mask`], and one allocation-free matcher
//! ([`embeds`]) answers the intact test and every variant test against
//! a per-query [`GraphPlan`].
//!
//! The filtering instance `⟨partition, min-GED-to-subgraph boxes,
//! D(τ) = τ⟩` satisfies `‖B(x, q)‖₁ ≤ ged(x, q)` (each edit damages one
//! part by at most one operation), hence is complete but not tight;
//! candidates are verified by an exact branch-and-bound GED search that
//! stops at the first mapping within `τ` (module [`mod@ged`]; the exact
//! distance is [`ged::ged_within`]).

pub mod ged;
pub mod graph;
pub mod index;
pub mod neighborhood;
pub mod pars;
pub mod partition;
pub mod plan;
pub mod ring;
pub mod subiso;

pub use ged::{ged, ged_within};
pub use graph::Graph;
pub use index::PartIndex;
pub use pars::GraphStats;
pub use partition::{partition_graph, Part};
pub use plan::GraphPlan;
pub use ring::{GraphParams, GraphScratch, RingGraph};
pub use subiso::{embeds, part_embeds, CompiledPart, Mask, MatchScratch, PartArena};
