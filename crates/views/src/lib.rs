//! # anet-views
//!
//! Views, augmented truncated views and the election index for anonymous
//! port-labeled networks, as defined in Section 2 of *Impact of Knowledge on
//! Election Time in Anonymous Networks* (Dieudonné & Pelc, SPAA 2017).
//!
//! * [`AugmentedView`] — the explicit tree `B^l(v)`: the truncated view of a
//!   node at depth `l` whose leaves are labeled by their degrees in the graph.
//!   In the LOCAL model this is exactly the knowledge a node has after `l`
//!   rounds.
//! * [`ViewArena`] / [`ViewId`] — the hash-consed working representation of
//!   views: each distinct subtree is interned once and identified by a dense
//!   id, making structural equality `O(1)` and a whole view record `O(Δ)`
//!   words. The simulator's `COM` exchange and the advice machinery operate
//!   on arena ids; the explicit trees remain the correctness oracle.
//! * [`ShardedViewArena`] — the mutex-striped, concurrently-internable
//!   variant of the arena (per-shard dense id ranges, a Cudd-style memo
//!   for `truncate_one`). This is the store the
//!   simulator and the election session actually run on; the sequential
//!   [`ViewArena`] is its single-threaded oracle.
//! * [`ViewClasses`] — a partition-refinement table that computes, for every
//!   depth `d`, the equivalence classes of nodes under `B^d(·)` equality
//!   *without* materializing the (potentially exponential-size) view trees.
//!   Class ranks are assigned consistently with the canonical order of the
//!   corresponding views, so the table can also answer "which node has the
//!   lexicographically smallest view at depth `d`".
//!   The ranking engine is the workspace's one refinement kernel,
//!   [`anet_graph::refine`]; [`RefineOptions`] (re-exported from there)
//!   selects its thread count, with bit-identical output at every count.
//! * [`election_index()`] — the election index `φ(G)`: the smallest `l` such
//!   that the augmented truncated views at depth `l` of all nodes are
//!   distinct (Proposition 2.1), or `None` when the graph is infeasible.
//! * [`quotient`] — the base-time fast path: [`BaseAnalysis`] is a
//!   [`ViewClasses`] table over the minimum base's dart rows (Boldi–Vigna
//!   fibrations), refined at quotient size, and every row, count, φ and
//!   feasibility verdict pulls back bit-identically to the covered graph;
//!   [`analyze_lift`] analyzes a voltage lift without ever materializing it.
//! * [`walks`] — walk-reachability sets (`reach_exact`, `reach_within`): the
//!   graph nodes represented at a given depth of a view, used by the
//!   simulator to evaluate view-based stopping conditions faithfully.
//!
//! ## Canonical order of views
//!
//! The paper orders augmented truncated views lexicographically by their
//! canonical binary encodings. Any fixed canonical total order yields the
//! same algorithms, as long as the oracle and all nodes use the same one.
//! This crate uses the structural order implemented by
//! [`AugmentedView`]'s `Ord`: compare root degrees, then the children in port
//! order, each child by (reverse port, subview). [`ViewClasses`] ranks agree
//! with this order by construction, which is asserted by property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod classes;
pub mod election_index;
pub mod quotient;
pub mod sharded;
pub mod view;
pub mod walks;

pub use anet_graph::refine::RefineOptions;
pub use arena::{ViewArena, ViewId};
pub use classes::{ClassId, ViewClasses};
pub use election_index::{election_index, election_index_naive, is_feasible, FeasibilityReport};
pub use quotient::{analyze_base, analyze_lift, analyze_lift_unchecked, BaseAnalysis};
pub use sharded::ShardedViewArena;
pub use view::AugmentedView;
